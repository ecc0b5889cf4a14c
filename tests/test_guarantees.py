import math
from itertools import combinations

import numpy as np
import pytest

from dltf import core, guarantees
from dltf.errors import (
    AllZeroCode,
    BudgetExceeded,
    DeltaOutOfRange,
    DenominatorNonpositive,
    DimensionMismatch,
    InvalidK,
    TooFewAtoms,
)
from soundness_utils import (
    jittered_orthonormal,
    noisy_instance,
    recovers_support,
    strong_instance,
    weak_instance,
)


def orthonormal(n):
    Q, _ = np.linalg.qr(np.random.default_rng(40).standard_normal((n, n)))
    return core.Dictionary(Q)


def rip_eigen_oracle(W, k):
    """Brute force over subsets via eigenvalues of Gram submatrices."""
    G = core.gram(W)
    delta = 0.0
    for subset in combinations(range(W.m), k):
        lam = np.linalg.eigvalsh(G[np.ix_(subset, subset)])
        delta = max(delta, 1.0 - lam[0], lam[-1] - 1.0)
    return delta


def test_mutual_coherence_orthonormal_zero():
    rep = guarantees.mutual_coherence(orthonormal(8))
    assert rep.mu < 1e-12


def test_mutual_coherence_duplicate_atom():
    rng = np.random.default_rng(41)
    A = rng.standard_normal((6, 4))
    A[:, 3] = A[:, 0]
    rep = guarantees.mutual_coherence(core.normalize_columns(A))
    assert abs(rep.mu - 1.0) < 1e-12
    assert {rep.i, rep.j} == {0, 3}


def test_mutual_coherence_gaussian_scale():
    # Random 64x128 dictionaries concentrate near 0.49.
    mus = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        W = core.normalize_columns(rng.standard_normal((64, 128)))
        mus.append(guarantees.mutual_coherence(W).mu)
    assert 0.41 <= float(np.mean(mus)) <= 0.57


def test_mutual_coherence_too_few_atoms():
    W = core.normalize_columns(np.ones((4, 1)))
    with pytest.raises(TooFewAtoms):
        guarantees.mutual_coherence(W)


def test_cross_coherence_matches_loop():
    rng = np.random.default_rng(42)
    W = core.normalize_columns(rng.standard_normal((64, 20)))
    e = rng.standard_normal(64) * 0.1
    got = guarantees.cross_coherence(W, e)
    ref = max(abs(float(np.dot(W.data[:, i], e))) for i in range(20))
    assert abs(got - ref) < 1e-14
    assert guarantees.cross_coherence(W, np.zeros(64)) == 0.0
    with pytest.raises(DimensionMismatch):
        guarantees.cross_coherence(W, np.zeros(63))


def test_weak_condition_orthonormal_always_holds():
    W = orthonormal(10)
    z = np.zeros(10)
    z[[2, 7]] = [1.0, -0.5]
    v = guarantees.weak_condition(W, z)
    assert v.holds and v.lhs < 1e-10 and abs(v.rhs - 0.25) < 1e-12
    assert recovers_support(W, z, np.zeros(10))


def test_weak_condition_gaussian_binary_fails():
    # k * mu ~ 4 * 0.49 is far above 1/2 for binary codes.
    rng = np.random.default_rng(43)
    W = core.normalize_columns(rng.standard_normal((64, 128)))
    z = np.zeros(128)
    z[rng.choice(128, 4, replace=False)] = 1.0
    v = guarantees.weak_condition(W, z)
    assert not v.holds
    assert abs(v.rhs - 0.5) < 1e-12


def test_weak_condition_scale_invariant():
    rng = np.random.default_rng(44)
    W = core.normalize_columns(rng.standard_normal((16, 8)))
    z = np.zeros(8)
    z[[1, 5]] = [2.0, -1.0]
    a = guarantees.weak_condition(W, z)
    b = guarantees.weak_condition(W, z * 37.5)
    assert a.holds == b.holds
    assert abs(a.lhs - b.lhs) < 1e-12 and abs(a.rhs - b.rhs) < 1e-12


def test_weak_condition_all_zero():
    W = orthonormal(5)
    with pytest.raises(AllZeroCode):
        guarantees.weak_condition(W, np.zeros(5))


def test_weak_condition_noisy_zero_noise_matches():
    rng = np.random.default_rng(45)
    W = core.normalize_columns(rng.standard_normal((24, 10)))
    z = np.zeros(10)
    z[[0, 3, 9]] = [1.0, 0.8, -0.9]
    a = guarantees.weak_condition(W, z)
    b = guarantees.weak_condition_noisy(W, z, np.zeros(24))
    assert a == b


def test_weak_soundness_sample():
    held = 0
    for seed in range(300):
        W, z = weak_instance(seed)
        v = guarantees.weak_condition(W, z)
        if v.holds:
            held += 1
            assert recovers_support(W, z, np.zeros(W.n)), seed
    assert held >= 60  # the suite must not be vacuous


def test_noisy_soundness_sample():
    held = 0
    for seed in range(100):
        W, z, e = noisy_instance(seed)
        v = guarantees.weak_condition_noisy(W, z, e)
        if v.holds:
            held += 1
            assert recovers_support(W, z, e), seed
    assert held >= 20


def test_rip_orthonormal_zero():
    assert guarantees.rip_constant_exhaustive(orthonormal(8), 3) < 1e-12


def test_rip_duplicate_column_at_least_one():
    rng = np.random.default_rng(46)
    A = rng.standard_normal((8, 5))
    A[:, 4] = A[:, 1]
    W = core.normalize_columns(A)
    assert guarantees.rip_constant_exhaustive(W, 2) >= 1.0 - 1e-12


def test_rip_matches_eigen_oracle():
    rng = np.random.default_rng(47)
    W = core.normalize_columns(rng.standard_normal((10, 16)))
    got = guarantees.rip_constant_exhaustive(W, 2)
    ref = rip_eigen_oracle(W, 2)
    assert abs(got - ref) < 1e-10
    # For k = 2 the constant coincides with the mutual coherence.
    assert abs(got - guarantees.mutual_coherence(W).mu) < 1e-10


def test_rip_monotone_in_k():
    rng = np.random.default_rng(48)
    W = core.normalize_columns(rng.standard_normal((9, 7)))
    deltas = [guarantees.rip_constant_exhaustive(W, k) for k in (1, 2, 3, 4)]
    assert all(deltas[i] <= deltas[i + 1] + 1e-12 for i in range(3))


def test_rip_budget_and_k_validation():
    rng = np.random.default_rng(49)
    W = core.normalize_columns(rng.standard_normal((16, 64)))
    with pytest.raises(BudgetExceeded):
        guarantees.rip_constant_exhaustive(W, 5)
    with pytest.raises(InvalidK):
        guarantees.rip_constant_exhaustive(W, 0)


def test_strong_condition_delta_range():
    W = orthonormal(6)
    z = np.zeros(6)
    z[0] = 1.0
    sup = guarantees.DELTA_SUP
    for bad in (0.0, -0.1, sup, sup + 1e-6, 0.9):
        with pytest.raises(DeltaOutOfRange):
            guarantees.strong_condition(W, z, np.zeros(6), bad)
    v = guarantees.strong_condition(W, z, np.zeros(6), sup - 1e-9)
    assert isinstance(v.holds, bool)


def test_strong_condition_noiseless_identity():
    # Orthonormal atoms, tiny delta: condition reduces to
    # |z_k| >= 2 sqrt(2d - d^2) ||z||.
    W = orthonormal(12)
    z = np.zeros(12)
    z[[3, 8]] = 1.0
    delta = 0.01
    v = guarantees.strong_condition(W, z, np.zeros(12), delta)
    want_lhs = 2.0 * math.sqrt(2 * delta - delta**2) * math.sqrt(2.0)
    assert abs(v.lhs - want_lhs) < 1e-12
    assert abs(v.rhs - 1.0) < 1e-12
    assert v.holds


def test_strong_soundness_sample():
    held = evaluable = 0
    for seed in range(60):
        W, z, e = strong_instance(seed)
        delta = guarantees.rip_constant_exhaustive(W, 4)
        try:
            v = guarantees.strong_condition(W, z, e, delta)
        except DeltaOutOfRange:
            continue
        evaluable += 1
        if v.holds:
            held += 1
            assert recovers_support(W, z, e), seed
    assert evaluable >= 20 and held >= 10


def test_strong_norm_lower_bound_values():
    rng = np.random.default_rng(50)
    W = core.normalize_columns(rng.standard_normal((10, 10)))
    assert guarantees.strong_norm_lower_bound(0.1, 1, W, np.zeros(10)) == 0.0
    e = rng.standard_normal(10) * 0.01
    got = guarantees.strong_norm_lower_bound(0.1, 1, W, e)
    spread = 2 * 0.1 - 0.01
    tail = np.linalg.norm(
        np.sort(np.abs(W.data.T @ e))[-2:]
    )
    assert abs(got - 2.0 * tail / (1.0 - 2.0 * math.sqrt(spread))) < 1e-12


def test_strong_checks_reject_non_finite_noise():
    W = orthonormal(8)
    z = np.zeros(8)
    z[[1, 5]] = 1.0
    for bad in (np.nan, np.inf):
        e = np.zeros(8)
        e[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            guarantees.strong_condition(W, z, e, 0.01)
        with pytest.raises(ValueError, match="non-finite"):
            guarantees.strong_norm_lower_bound(0.01, 2, W, e)


def test_strong_norm_lower_bound_denominator():
    W = orthonormal(8)
    with pytest.raises(DenominatorNonpositive) as exc:
        guarantees.strong_norm_lower_bound(0.1, 2, W, np.zeros(8))
    assert "1.3157" in str(exc.value) or "1.31578" in str(exc.value)
    with pytest.raises(DeltaOutOfRange):
        guarantees.strong_norm_lower_bound(1.5, 1, W, np.zeros(8))
