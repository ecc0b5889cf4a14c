"""Checks of dltf's outputs against computations made apart from it.

Every check returns a list of failure messages, empty when the output
passes. None of them calls dltf: the references are rebuilt here from
numpy and scipy so that a fault in dltf cannot hide in its own check.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_NORM_TOL = 1e-8
LAGRANGIAN_RTOL = 1e-10
OMP_COEF_RTOL = 1e-8
OMP_ORTHO_RTOL = 1e-8
PROX_RTOL = 1e-12


def reference_top_k(C: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest |C| per column; among equal magnitudes the lower
    row index wins (a stable sort of the negated magnitudes)."""
    order = np.argsort(-np.abs(C), axis=0, kind="stable")[:k]
    keep = np.zeros(C.shape, dtype=bool)
    np.put_along_axis(keep, order, True, axis=0)
    return np.where(keep, C, 0.0)


def check_encode(W: np.ndarray, X: np.ndarray, k: int, Z: np.ndarray,
                 ref: np.ndarray | None = None) -> list[str]:
    """Z must equal the reference top-k of W^T X (``ref``, when given)."""
    Z = np.asarray(Z)
    if Z.shape != (W.shape[1], X.shape[1]):
        return [f"encode: shape {Z.shape}, expected {(W.shape[1], X.shape[1])}"]
    if ref is None:
        ref = reference_top_k(W.T @ X, k)
    bad = np.flatnonzero(((ref != 0) != (Z != 0)).any(axis=0))
    if bad.size:
        return [f"encode: support differs from the reference top-{k} "
                f"in {bad.size} columns (first {int(bad[0])})"]
    if not np.array_equal(ref, Z):
        return ["encode: kept values differ from W^T X"]
    return []


def check_omp(W: np.ndarray, X: np.ndarray, k: int, Z: np.ndarray) -> list[str]:
    """OMP's properties per sample: at most k atoms, the first one is the
    best-correlated atom, the coefficients are the least-squares fit on
    the chosen atoms, and the residual is orthogonal to them."""
    Z = np.asarray(Z)
    if Z.shape != (W.shape[1], X.shape[1]):
        return [f"omp: shape {Z.shape}, expected {(W.shape[1], X.shape[1])}"]
    errors = []
    nnz = (Z != 0).sum(axis=0)
    if nnz.max() > k:
        errors.append(f"omp: a code has {int(nnz.max())} nonzeros, k={k}")
    first = np.argmax(np.abs(W.T @ X), axis=0)
    for i in range(X.shape[1]):
        x = X[:, i]
        S = np.flatnonzero(Z[:, i])
        if S.size == 0:
            if np.linalg.norm(x) > 1e-10:
                errors.append(f"omp: sample {i} has an empty code")
            continue
        if first[i] not in S:
            errors.append(f"omp: sample {i} lacks its best-correlated atom {int(first[i])}")
        A = W[:, S]
        coef = np.linalg.lstsq(A, x, rcond=None)[0]
        if np.max(np.abs(coef - Z[S, i])) > OMP_COEF_RTOL * max(1.0, np.max(np.abs(coef))):
            errors.append(f"omp: sample {i} coefficients differ from least squares")
        r = x - A @ Z[S, i]
        if np.max(np.abs(A.T @ r)) > OMP_ORTHO_RTOL * max(1.0, np.linalg.norm(x)):
            errors.append(f"omp: sample {i} residual is not orthogonal to its atoms")
        if len(errors) >= 5:
            break
    return errors


def check_unit_atoms(W: np.ndarray, what: str) -> list[str]:
    dev = float(np.max(np.abs(np.linalg.norm(W, axis=0) - 1.0)))
    if not dev <= UNIT_NORM_TOL:
        return [f"{what}: atom norm deviates from 1 by {dev:.3e}"]
    return []


def k2_norm_sq_columns(M: np.ndarray, kprime: int) -> float:
    """Sum over columns of the k' largest squared magnitudes."""
    sq = np.sort(M * M, axis=0)
    return float(sq[M.shape[0] - kprime:].sum())


def lagrangian(W, Z, Q, Y, X, lam, theta, beta, kprime) -> float:
    """The trainer's augmented Lagrangian, written out from its
    definition: gauge, Gram, reconstruction, coupling and penalty terms."""
    resid = X - W @ Z
    R = Q - W.T @ resid
    dev = W.T @ W - np.eye(W.shape[1])
    return (0.5 * lam * k2_norm_sq_columns(Q, kprime)
            + float((dev * dev).sum())
            + 0.5 * theta * float((resid * resid).sum())
            + float((Y * R).sum())
            + 0.5 * beta * float((R * R).sum()))


def check_training(W, Z, Q, Y, X, history: list, hp) -> list[str]:
    """Invariants of a finished dltf training run (hp: the trainer's
    Hyperparams)."""
    errors = check_unit_atoms(W, "train")
    nnz = int((Z != 0).sum(axis=0).max())
    if nnz > hp.k:
        errors.append(f"train: a code has {nnz} nonzeros, k={hp.k}")
    if not history:
        return errors + ["train: empty history"]
    ref = lagrangian(W, Z, Q, Y, X, hp.lam, hp.theta, hp.beta, min(2 * hp.k, hp.m))
    got = history[-1]["lagrangian"]
    if not abs(got - ref) <= LAGRANGIAN_RTOL * max(1.0, abs(ref)):
        errors.append(f"train: last Lagrangian {got!r} differs from recomputed {ref!r}")
    primal = [h["primal_residual"] for h in history]
    if len(primal) > 1 and not primal[-1] < primal[0]:
        errors.append(f"train: primal residual rose from {primal[0]:.4g} to {primal[-1]:.4g}")
    stop = hp.primal_tol * math.sqrt(hp.m * X.shape[1])
    early = [p < stop for p in primal]
    at_limit = len(history) == hp.outer_iters and not any(early[:-1])
    by_rule = early[-1] and not any(early[:-1])
    if not (at_limit or by_rule):
        errors.append(f"train: stopped after {len(history)} of {hp.outer_iters} rounds "
                      "without meeting the primal-residual rule")
    return errors


def batch_omp(W: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """Orthogonal matching pursuit on all columns at once (least squares
    through the normal equations of each sample's chosen atoms)."""
    m, N = W.shape[1], X.shape[1]
    cols = np.arange(N)
    picked = np.zeros((N, 0), dtype=np.int64)
    R = X.copy()
    coef = np.zeros((N, 0))
    for _ in range(k):
        corr = np.abs(W.T @ R)
        corr[picked.T, cols] = -1.0
        picked = np.concatenate([picked, np.argmax(corr, axis=0)[:, None]], axis=1)
        A = W.T[picked]                              # N x j x n
        G = A @ A.transpose(0, 2, 1)
        b = A @ X.T[:, :, None]
        coef = np.linalg.solve(G, b)[:, :, 0]
        R = X - np.einsum("njd,nj->dn", A, coef)
    Z = np.zeros((m, N))
    Z[picked.T, cols] = coef.T
    return Z


def representation_error(W: np.ndarray, X: np.ndarray, k: int, chunk: int = 200) -> float:
    """||X - W Z||_F with Z the k-sparse OMP codes; coded in chunks so the
    check stays small beside the workload's own memory."""
    sq = 0.0
    for i in range(0, X.shape[1], chunk):
        Xc = X[:, i:i + chunk]
        sq += float(np.sum((Xc - W @ batch_omp(W, Xc, k)) ** 2))
    return math.sqrt(sq)


def seeded_gaussian_dictionary(n: int, m: int, seed: int) -> np.ndarray:
    """The random start KSVD draws from its seed: Gaussian, unit columns."""
    W = np.random.default_rng(seed).standard_normal((n, m))
    return W / np.linalg.norm(W, axis=0)


def check_ksvd(W: np.ndarray, X: np.ndarray, k: int, seed: int) -> list[str]:
    errors = check_unit_atoms(W, "ksvd")
    learned = representation_error(W, X, k)
    initial = representation_error(seeded_gaussian_dictionary(X.shape[0], W.shape[1], seed), X, k)
    if not learned < initial:
        errors.append(f"ksvd: representation error {learned:.4g} is not below "
                      f"the initial dictionary's {initial:.4g}")
    return errors


def reference_prox(c: np.ndarray, kprime: int, gamma: float) -> np.ndarray:
    """Prox of gamma*||.||_{k',2}^2 + ||. - c||^2 by the sign and sort
    reduction to weighted isotonic regression, solved by scipy."""
    from scipy.optimize import isotonic_regression

    mags = np.abs(c)
    order = np.argsort(mags, kind="stable")
    u = mags[order]
    w = np.ones(c.size)
    u[c.size - kprime:] /= 1.0 + gamma
    w[c.size - kprime:] = 1.0 + gamma
    q = np.empty_like(c)
    q[order] = isotonic_regression(u, weights=w).x
    return q * np.sign(c)


def check_prox(c: np.ndarray, q: np.ndarray, merges: int, ref: np.ndarray) -> list[str]:
    """q must match the reference prox ``ref`` of c to rounding, with at
    most m-1 pool merges. PAV pools in a different order from scipy, so
    the two differ in the last bits (about 1e-14 at m=10^6)."""
    if q.shape != c.shape:
        return [f"prox: shape {q.shape}, expected {c.shape}"]
    errors = []
    gap = float(np.max(np.abs(q - ref)))
    if not gap <= PROX_RTOL * max(1.0, float(np.max(np.abs(c)))):
        errors.append(f"prox: m={c.size} differs from the isotonic reference by {gap:.3e}")
    if not 0 <= merges <= c.size - 1:
        errors.append(f"prox: {merges} merges at m={c.size}")
    return errors


def check_selftest(report: dict) -> list[str]:
    return [f"selftest: {flag} is false" for flag in ("oracle_ok", "sweep_ok")
            if report.get(flag) is not True]
