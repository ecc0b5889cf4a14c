"""Reference methods the benchmark compares against.

Provides orthogonal matching pursuit in two forms. `omp` codes one
sample; it is the per-sample baseline that criterion 7 and `dltf timing`
time. `omp_batch` gives every column of a batch the code omp would, with
all samples in lockstep (Batch OMP), and is K-SVD's coder. Also the
least-squares solve on given supports, `solve_on_supports`, that the
trainer's code step (hard thresholding pursuit) makes, on the same
samples-last Cholesky factor as omp_batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import DimensionMismatch, SingularSubproblem, check_int, check_k

RIDGE = 1e-12
RESIDUAL_FLOOR = 1e-10


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

    Wd = W.data
    picked = np.empty(k, dtype=np.intp)
    ridge = RIDGE * np.eye(k)
    residual = x.copy()
    coef = np.zeros(0)
    j = 0
    while j < k:
        rnorm = math.sqrt(residual.dot(residual))  # np.linalg.norm's formula
        if rnorm < RESIDUAL_FLOOR:
            break
        corr = np.abs(Wd.T @ residual)
        corr[picked[:j]] = -1.0
        picked[j] = corr.argmax()
        j += 1
        S = Wd[:, picked[:j]]
        # normal equations with a tiny ridge; S has at most k <= m columns
        try:
            coef = np.linalg.solve(S.T @ S + ridge[:j, :j], S.T @ x)
        except np.linalg.LinAlgError as exc:
            raise SingularSubproblem(
                f"normal equations singular with atoms {picked[:j].tolist()}"
            ) from exc
        residual = x - S @ coef

    code = np.zeros(m)
    code[picked[:j]] = coef
    return OmpResult(code=code, residual_norm=math.sqrt(residual.dot(residual)),
                     atoms=tuple(picked[:j].tolist()))


def _grow(L, y, j, g, d, r):
    """Grow the samples-last Cholesky factor L (s x s x N) of A + RIDGE·I
    of N systems by row j, and y = L⁻¹r by entry j: w = L⁻¹A_Sa by forward
    substitution, with g = A_Sa (j x N), and the pivot √(A_aa + RIDGE − wᵀw),
    with d = A_aa and r entry j of the right-hand sides (both length N).
    A pivot that is not positive and finite raises SingularSubproblem."""
    w = L[j, :j]
    for i in range(j):
        w[i] = (g[i] - np.einsum("ln,ln->n", L[i, :i], w[:i])) / L[i, i]
    pivot = d + RIDGE - np.einsum("ln,ln->n", w, w)
    if not np.all(np.isfinite(pivot) & (pivot > 0.0)):
        raise SingularSubproblem(f"normal equations singular on a support of size {j + 1}")
    L[j, j] = np.sqrt(pivot)
    y[j] = (r - np.einsum("ln,ln->n", w, y[:j])) / L[j, j]


def _back(L, y):
    """L⁻ᵀy by backward substitution, for samples-last L (s x s x N), y (s x N)."""
    x = np.empty_like(y)
    for i in range(y.shape[0] - 1, -1, -1):
        x[i] = (y[i] - np.einsum("ln,ln->n", L[i + 1:, i], x[i + 1:])) / L[i, i]
    return x


def solve_on_supports(M: np.ndarray, S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (M_SS + RIDGE I) x = r for all N columns at once, with column
    i's support S and right-hand side r in row i of S and rhs (both
    N x s), on the samples-last Cholesky factor omp_batch grows. The
    ridge keeps the solve defined when two atoms on a support coincide;
    a singular system raises SingularSubproblem."""
    St, rt = S.T, rhs.T
    L, y = np.zeros((len(St), *St.shape)), np.empty(St.shape)
    for j in range(len(St)):
        _grow(L, y, j, M[St[:j], St[j]], M[St[j], St[j]], rt[j])
    return _back(L, y).T


def omp_batch(W: core.Dictionary, X: core.DataMatrix, k: int) -> np.ndarray:
    """Code every column of X as omp codes it alone, with all samples in
    lockstep (Batch OMP, Rubinstein, Zibulevsky & Elad 2008).

    Samples are rows: G = WᵀW and C = XᵀW are formed once, and the codes
    are N x m; the m x N result is their transposed view. A reused buffer
    starts as the zero product ZG of the empty codes, each later step
    makes ZG into it, and every step runs one body: the screen below,
    then |C − ZG| in the buffer, where argmax along each row picks the
    next atom (the sample's picked atoms masked by index, the lowest
    index winning ties). Each sample's Cholesky factor of G_SS + RIDGE·I
    grows by one row per step (_grow, with the forward sweep's new entry),
    and the coefficients take the backward sweep (_back).

    A sample leaves once its explicit residual ‖x − Wz‖ is below omp's
    floor, so supports and stops are omp's. The residual is formed only
    for samples whose Gram form ‖x‖² − 2zᵀc + zᵀ(Gz), read from the same
    product, is below RESIDUAL_FLOOR² + 1e-8·(‖x‖ + ‖z‖₁)². With unit-norm
    atoms every term of the form is at most (‖x‖ + ‖z‖₁)², so on n rows
    its rounding is below about n·10⁻¹⁶·(‖x‖ + ‖z‖₁)², some 10⁶ times
    less than the margin at n = 64, and no sample the floor would stop
    is screened out.
    """
    Wd, Xd = W.data, X.data
    if Xd.shape[0] != Wd.shape[0]:
        raise DimensionMismatch("data rows do not match dictionary rows")
    m = Wd.shape[1]
    k = check_k(k, m)

    G = Wd.T @ Wd
    N = Xd.shape[1]
    Z = np.zeros((N, m))
    P = np.zeros((N, m))  # ZG, then |C − ZG|
    xx = np.einsum("ij,ij->j", Xd, Xd)
    # the live samples' rows: indices, correlations, codes, product buffer,
    # picks, factors, forward-substituted right-hand sides and squared data
    # norms, compacted when a sample stops
    live, C, Zl = np.arange(N), Xd.T @ Wd, Z
    picked = np.zeros((k, N), dtype=np.intp)
    L = np.zeros((k, k, N))
    y = np.zeros((k, N))
    coef = np.zeros((0, N))
    rows = np.arange(N)  # positions in the live arrays
    for j in range(k):
        if j:  # P holds ZG = 0 before the first pick
            np.matmul(Zl, G, out=P)
        S = picked[:j]
        gram = (xx - 2.0 * np.einsum("sn,sn->n", coef, C[rows, S])
                + np.einsum("sn,sn->n", coef, P[rows, S]))
        scale = np.sqrt(xx) + np.abs(coef).sum(axis=0)
        near = np.flatnonzero(gram < RESIDUAL_FLOOR**2 + 1e-8 * scale**2)
        if near.size:
            rnorm = np.linalg.norm(Xd[:, live[near]] - Wd @ Zl[near].T, axis=0)
            stop = near[rnorm < RESIDUAL_FLOOR]
            if stop.size:
                Z[live[stop]] = Zl[stop]
                keep = np.ones(live.size, dtype=bool)
                keep[stop] = False
                live, C, Zl, P, picked, L, y, xx = (
                    live[keep], C[keep], Zl[keep], P[keep], picked[:, keep],
                    L[:, :, keep], y[:, keep], xx[keep])
                if live.size == 0:
                    return Z.T
                rows = np.arange(live.size)
        S = picked[:j]
        np.subtract(C, P, out=P)
        np.abs(P, out=P)
        # mask by picked index: a picked atom may have a zero coefficient
        P[rows, S] = -1.0
        a = P.argmax(axis=1)
        picked[j] = a
        _grow(L, y, j, G[S, a], G[a, a], C[rows, a])
        coef = _back(L[:j + 1, :j + 1], y[:j + 1])
        Zl[rows, picked[:j + 1]] = coef
    if Zl is not Z:
        Z[live] = Zl
    return Z.T


def ksvd_train(X: core.DataMatrix, m: int, k: int, iters: int = 30,
               seed: int = 0) -> core.Dictionary:
    """K-SVD dictionary learning with OMP sparse coding.

    Each sweep recodes X with omp_batch, then updates atoms one at a time
    by one alternating step on the residual R restricted to the samples
    using that atom, started from the atom's codes g (approximate K-SVD,
    Rubinstein, Zibulevsky & Elad 2008): the atom becomes Rg / ‖Rg‖ and
    its codes Rᵀ times it, a rank-1 refit that cannot raise ‖R‖. The
    next sweep recodes every sample, so the pair is not refined to R's
    dominant singular pair. Codes and residual keep samples as rows: an
    atom's update gathers the rows of its samples into a contiguous
    n x uses block and scatters the updated block back. Unused atoms take
    the samples worst represented at the start of the sweep, in order,
    each once (the worst again once all are taken). ValueError unless
    m and iters are at least 1 and seed at least 0.
    """
    n = X.data.shape[0]
    k = check_k(k, check_int(m, "m", least=1))
    check_int(iters, "iters", least=1)
    check_int(seed, "seed", least=0)
    W = core.random_dictionary(n, m, seed).data.copy()

    Xt = X.data.T
    for _ in range(iters):
        # codes and residual with samples as rows
        Z = omp_batch(core.Dictionary(W), X, k).T
        E = Z @ W.T
        np.subtract(Xt, E, out=E)
        order = np.argsort(-np.einsum("ij,ij->i", E, E))
        # the samples each atom uses, ascending, grouped by atom
        atoms, users = np.nonzero(Z.T)
        bounds = np.searchsorted(atoms, np.arange(m + 1))
        reseeds = 0
        for j in range(m):
            uses = users[bounds[j]:bounds[j + 1]]
            if uses.size == 0:
                # the next worst sample, or the worst once every one is taken
                col = X.data[:, order[reseeds] if reseeds < order.size else order[0]]
                reseeds += 1
                nrm = np.linalg.norm(col)
                if nrm > core.ZERO_NORM_FLOOR:
                    W[:, j] = col / nrm
                continue
            # residual block (n x uses, contiguous) with atom j's
            # contribution restored; the sweep reads no code of atom j again
            g = Z[uses, j]
            Rj = E[uses].T.copy()
            Rj += W[:, j, None] * g
            u = Rj @ g
            nrm = math.sqrt(u.dot(u))
            if nrm < 1e-300:  # the atom stays as it is
                continue
            u /= nrm
            W[:, j] = u
            E[uses] = (Rj - u[:, None] * (Rj.T @ u)).T
    return core.normalize_columns(W)
