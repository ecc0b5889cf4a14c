"""Support-recovery conditions for thresholded features.

Two families of sufficient conditions are checked: a coherence-based one
(cheap, conservative) and an isometry-based one (tighter, needs a
restricted isometry constant). Both certify that the thresholded feature
of x = Wz (+ noise e) has exactly the support of z. Checkers never
estimate the isometry constant silently; ``rip_constant_exhaustive``
computes it by subset enumeration and is intentionally budgeted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import Dictionary, gram
from .errors import (
    AllZeroCode,
    BudgetExceeded,
    DeltaOutOfRange,
    DenominatorNonpositive,
    DimensionMismatch,
    TooFewAtoms,
    check_k,
)
from .prox import k2_norm_sq

# The isometry-based condition is proved for delta strictly below this.
DELTA_SUP = 1.0 - math.sqrt(3.0) / 2.0

SUBSET_BUDGET = 10**6


@dataclass(frozen=True)
class CoherenceReport:
    """Largest off-diagonal Gram magnitude and the atom pair attaining it."""

    mu: float
    i: int
    j: int


@dataclass(frozen=True)
class GuaranteeVerdict:
    """Outcome of a condition check: holds iff lhs <= rhs."""

    holds: bool
    lhs: float
    rhs: float


def _verdict(lhs: float, rhs: float) -> GuaranteeVerdict:
    return GuaranteeVerdict(bool(lhs <= rhs), float(lhs), float(rhs))


def mutual_coherence(W: Dictionary) -> CoherenceReport:
    """Maximum |<w_i, w_j>| over distinct atom pairs."""
    if W.m < 2:
        raise TooFewAtoms(f"coherence needs m >= 2 atoms, got m={W.m}")
    G = np.abs(gram(W))
    np.fill_diagonal(G, -1.0)
    flat = int(np.argmax(G))
    i, j = divmod(flat, W.m)
    return CoherenceReport(float(G[i, j]), i, j)


def _noise_correlations(W: Dictionary, e: np.ndarray) -> np.ndarray:
    """W^T e for a length-n noise vector e."""
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 1 or e.size != W.n:
        raise DimensionMismatch(f"noise must be a length-{W.n} vector, got shape {e.shape}")
    return W.data.T @ e


def cross_coherence(W: Dictionary, e: np.ndarray) -> float:
    """Maximum |<w_i, e>| over atoms; zero vector gives zero."""
    return float(np.max(np.abs(_noise_correlations(W, e))))


def _code_magnitudes(z: np.ndarray, m: int):
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size != m:
        raise DimensionMismatch(f"code must be a length-{m} vector, got shape {z.shape}")
    mags = np.abs(z[z != 0.0])
    if mags.size == 0:
        raise AllZeroCode("condition undefined for the all-zero code")
    return z, float(np.max(mags)), float(np.min(mags)), int(mags.size)


def weak_condition(W: Dictionary, z: np.ndarray) -> GuaranteeVerdict:
    """Coherence condition for noiseless recovery: k*mu_W <= |z_k| / (2 |z_1|).

    |z_1| and |z_k| are the largest and smallest nonzero magnitudes of z
    and k its nonzero count. When it holds, max_k(W^T W z) with k = nnz(z)
    recovers supp(z) exactly. It is the noisy variant at zero noise.
    """
    return weak_condition_noisy(W, z, np.zeros(W.n))


def weak_condition_noisy(W: Dictionary, z: np.ndarray, e: np.ndarray) -> GuaranteeVerdict:
    """Noisy variant: k*mu_W <= |z_k| / (2 |z_1|) - mu_e / |z_1|."""
    _, z1, zk, k = _code_magnitudes(z, W.m)
    mu = mutual_coherence(W).mu
    mu_e = cross_coherence(W, e)
    return _verdict(k * mu, zk / (2.0 * z1) - mu_e / z1)


def rip_constant_exhaustive(W: Dictionary, k: int) -> float:
    """Restricted isometry constant at sparsity k by full enumeration.

    delta = max over k-subsets S of max(1 - sigma_min(W_S)^2,
    sigma_max(W_S)^2 - 1). Values >= 1 mean some subset is singular or
    badly stretched. Enumeration refuses to start when C(m, k) exceeds
    the 10^6 subset budget.
    """
    k = check_k(k, W.m)
    count = math.comb(W.m, k)
    if count > SUBSET_BUDGET:
        raise BudgetExceeded(f"C({W.m}, {k}) = {count} subsets exceeds budget {SUBSET_BUDGET}")
    data = W.data
    delta = 0.0
    for subset in combinations(range(W.m), k):
        s = np.linalg.svd(data[:, subset], compute_uv=False)
        dev = max(1.0 - s[-1] ** 2, s[0] ** 2 - 1.0)
        if dev > delta:
            delta = dev
    return float(delta)


def _tail_correlation_norm(W: Dictionary, e: np.ndarray, k: int) -> float:
    return math.sqrt(k2_norm_sq(_noise_correlations(W, e), min(2 * k, W.m)))


def strong_condition(W: Dictionary, z: np.ndarray, e: np.ndarray, delta: float) -> GuaranteeVerdict:
    """Isometry condition: |z_k| >= 2 sqrt(2 delta - delta^2) ||z||_2
    + 2 ||max_{2k}(W^T e)||_2.

    ``delta`` is caller-supplied and must be a restricted isometry
    constant valid at sparsity 2k (supports up to twice the code's
    sparsity enter the argument); it is never estimated here. Valid
    range is the open interval (0, 1 - sqrt(3)/2).
    """
    delta = float(delta)
    if not (0.0 < delta < DELTA_SUP):
        raise DeltaOutOfRange(f"delta={delta:g} outside the open interval (0, {DELTA_SUP:.12g})")
    z, _, zk, k = _code_magnitudes(z, W.m)
    tail = _tail_correlation_norm(W, e, k)
    lhs = 2.0 * math.sqrt(2.0 * delta - delta * delta) * float(np.linalg.norm(z)) + 2.0 * tail
    return _verdict(lhs, zk)


def strong_norm_lower_bound(delta: float, k: int, W: Dictionary, e: np.ndarray) -> float:
    """Smallest ||z||_2 for which the isometry condition can possibly hold:
    2 sqrt(k) ||max_{2k}(W^T e)||_2 / (1 - 2 sqrt(k (2 delta - delta^2))).
    """
    delta = float(delta)
    if not (0.0 < delta < 1.0):
        raise DeltaOutOfRange(f"delta={delta:g} outside (0, 1)")
    k = check_k(k, W.m)
    spread = 2.0 * delta - delta * delta
    denom = 1.0 - 2.0 * math.sqrt(k * spread)
    if denom <= 0.0:
        ceiling = 1.0 / (4.0 * spread)
        raise DenominatorNonpositive(
            f"bound requires k < 1/(4(2d - d^2)) = {ceiling:.6g}, got k={k}"
        )
    return 2.0 * math.sqrt(k) * _tail_correlation_norm(W, e, k) / denom
