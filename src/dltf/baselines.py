"""Reference methods the benchmark compares against.

Provides orthogonal matching pursuit for per-sample sparse coding and a
K-SVD dictionary learner whose codes come from OMP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import DimensionMismatch, SingularSubproblem, check_int, check_k

RIDGE = 1e-12
RESIDUAL_FLOOR = 1e-10
POWER_ITERS = 50
POWER_TOL = 1e-10


@dataclass(frozen=True)
class OmpResult:
    code: np.ndarray
    residual_norm: float
    atoms: tuple[int, ...]


def omp(W: core.Dictionary, x: np.ndarray, k: int) -> OmpResult:
    """Greedy sparse coding of one sample: pick the atom most correlated
    with the residual, refit all picked coefficients by least squares,
    repeat k times. Atoms are never reselected. Stops early if the
    residual is numerically zero.
    """
    n, m = W.data.shape
    x = core.as_finite_array(x, "x", (1,))
    if x.size != n:
        raise DimensionMismatch(f"sample has {x.size} rows, dictionary has {n}")
    k = check_k(k, m)

    picked: list[int] = []
    residual = x.copy()
    coef = np.zeros(0)
    for _ in range(k):
        rnorm = math.sqrt(residual.dot(residual))  # np.linalg.norm's formula
        if rnorm < RESIDUAL_FLOOR:
            break
        corr = np.abs(W.data.T @ residual)
        corr[picked] = -1.0
        picked.append(int(np.argmax(corr)))
        S = W.data[:, picked]
        # normal equations with a tiny ridge; S has at most k <= m columns
        A = S.T @ S + RIDGE * np.eye(len(picked))
        try:
            coef = np.linalg.solve(A, S.T @ x)
        except np.linalg.LinAlgError as exc:
            raise SingularSubproblem(
                f"normal equations singular with atoms {picked}"
            ) from exc
        residual = x - S @ coef

    code = np.zeros(m)
    code[picked] = coef
    return OmpResult(code=code, residual_norm=math.sqrt(residual.dot(residual)),
                     atoms=tuple(picked))


def omp_batch(W: core.Dictionary, X: core.DataMatrix, k: int) -> np.ndarray:
    """Code every column of X independently with omp (which checks the rows)."""
    m = W.data.shape[1]
    Z = np.zeros((m, X.data.shape[1]))
    for i in range(X.data.shape[1]):
        Z[:, i] = omp(W, X.data[:, i], k).code
    return Z


def solve_on_supports(M: np.ndarray, S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (M_SS + RIDGE I) x = r for all N columns in one stacked solve,
    with column i's support S and right-hand side r in row i of S and rhs
    (both N x s). The ridge keeps the solve defined when two atoms on a
    support coincide; a singular system raises SingularSubproblem."""
    A = M[S[:, :, None], S[:, None, :]] + RIDGE * np.eye(S.shape[1])
    try:
        return np.linalg.solve(A, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSubproblem(
            f"normal equations singular on a support of size {S.shape[1]}") from exc


def omp_gram(W: core.Dictionary, X: core.DataMatrix, k: int) -> np.ndarray:
    """Code every column of X as omp_batch does, with all samples in
    lockstep (Batch OMP, Rubinstein, Zibulevsky & Elad 2008).

    G = WᵀW and C = WᵀX are formed once. Each step takes the correlations
    of every live sample from one product with G, masks the atoms a sample
    has picked, and refits all live samples by one stacked solve of their
    normal equations on G. A sample leaves once its explicit residual is
    below omp's floor, so supports and stops are omp's.
    """
    Wd, Xd = W.data, X.data
    if Xd.shape[0] != Wd.shape[0]:
        raise DimensionMismatch("data rows do not match dictionary rows")
    m = Wd.shape[1]
    k = check_k(k, m)

    G = Wd.T @ Wd
    N = Xd.shape[1]
    Z = np.zeros((m, N))
    # live samples' data, correlations, codes and picked atoms, compacted
    # whenever a sample stops
    live, Xl, Cl, Zl = np.arange(N), Xd, Wd.T @ Xd, np.zeros((m, N))
    picked = np.zeros((N, k), dtype=np.intp)
    for j in range(k):
        stop = np.linalg.norm(Xl - Wd @ Zl, axis=0) < RESIDUAL_FLOOR
        if stop.any():
            Z[:, live[stop]] = Zl[:, stop]
            keep = ~stop
            live, Xl, Cl, Zl, picked = (live[keep], Xl[:, keep], Cl[:, keep],
                                        Zl[:, keep], picked[keep])
            if live.size == 0:
                break
        cols = np.arange(live.size)
        corr = G @ Zl
        np.subtract(Cl, corr, out=corr)
        np.abs(corr, out=corr)
        # mask by picked index: a picked atom may have a zero coefficient
        corr[picked[:, :j].T, cols] = -1.0
        picked[:, j] = np.argmax(corr, axis=0)
        S = picked[:, :j + 1]
        Zl[S, cols[:, None]] = solve_on_supports(G, S, Cl[S, cols[:, None]])
    Z[:, live] = Zl
    return Z


def _dominant_pair(R: np.ndarray, v0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dominant singular pair of the small residual block R (n x uses)
    by alternating power iteration, started from v0: at most POWER_ITERS
    steps, stopping once u moves less than POWER_TOL.
    Returns (u, s*v) with u unit-norm.
    """
    # v0 may be a strided column, which np.linalg.norm copies before its
    # dot; a dot on the strided view sums in another order
    u = v0 / max(np.linalg.norm(v0), 1e-300)
    for _ in range(POWER_ITERS):
        v = R.T @ u
        u_new = R @ v
        nrm = math.sqrt(u_new.dot(u_new))
        if nrm < 1e-300:
            return u, R.T @ u
        u_new /= nrm
        d = u_new - u
        if math.sqrt(d.dot(d)) < POWER_TOL:
            u = u_new
            break
        u = u_new
    return u, R.T @ u


def ksvd_train(X: core.DataMatrix, m: int, k: int, iters: int = 30,
               seed: int = 0) -> core.Dictionary:
    """K-SVD dictionary learning with OMP sparse coding.

    Each sweep recodes X with omp_gram (the codes of omp_batch, computed in
    lockstep), then updates atoms one at a time by the dominant singular
    pair of the residual restricted to the samples using that atom. Unused
    atoms take the samples worst represented at the start of the sweep, in
    order, each once (the worst again once all are taken). ValueError
    unless iters is at least 1.
    """
    n = X.data.shape[0]
    k = check_k(k, m)
    check_int(iters, "iters", least=1)
    W = core.random_dictionary(n, m, seed).data.copy()

    for _ in range(iters):
        Z = omp_gram(core.Dictionary(W), X, k)
        E = X.data - W @ Z
        order = np.argsort(-np.einsum("ij,ij->j", E, E))
        reseeds = 0
        for j in range(m):
            uses = np.flatnonzero(Z[j])
            if uses.size == 0:
                # the next worst sample, or the worst once every one is taken
                col = X.data[:, order[reseeds] if reseeds < order.size else order[0]]
                reseeds += 1
                nrm = np.linalg.norm(col)
                if nrm > 1e-12:
                    W[:, j] = col / nrm
                continue
            # residual block with atom j's contribution restored
            Rj = E[:, uses] + W[:, j, None] * Z[j, uses]
            u, sv = _dominant_pair(Rj, W[:, j])
            nz = np.flatnonzero(u)
            if nz.size and u[nz[0]] < 0:
                u, sv = -u, -sv
            W[:, j] = u
            Z[j, uses] = sv
            E[:, uses] = Rj - u[:, None] * sv
    return core.normalize_columns(W)
