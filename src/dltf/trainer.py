"""Alternating-direction trainer for thresholded-feature dictionaries.

The objective couples a squared (2k,2) gauge penalty on residual
correlations Q = W^T (X - WZ), a Gram penalty ||W^T W - I||_F^2, and a
reconstruction term (theta/2) ||X - WZ||_F^2, subject to k-sparse codes
and unit-norm atoms. The augmented Lagrangian splits it into four
updates per round:

    Z: hard thresholding pursuit on the smooth part (a gradient step of
       0.99/L, with L the exact largest eigenvalue of its Hessian, picks
       each column's top k rows; one stacked solve fits them exactly),
    Q: per-column prox of the squared (2k,2) norm (gamma = lambda/beta),
    W: Riemannian descent on the product of spheres (the short
       Barzilai-Borwein step, nonmonotone backtracking, renormalization
       retraction),
    Y: dual ascent  Y += beta (Q - W^T (X - WZ)).

The two inner loops evaluate once per point: the code step reads its
value from its gradient, and the dictionary step gets value and gradient
from one call. Training starts from a seeded Gaussian dictionary W and its
thresholded feature max_k(W^T X) as the codes. All updates are deterministic
given their inputs; train() is deterministic given (X, hyperparams, seed).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .baselines import solve_on_supports
from .core import DataMatrix, Dictionary, SparseCodeBatch, normalize_columns, random_dictionary
from .encoder import max_k_columns
from .errors import LineSearchFailed, MonotonicityViolated, check_int, check_k, check_real
from .prox import k2_norm_sq, prox_k2


@dataclass(frozen=True)
class Hyperparams:
    """Trainer knobs. beta must be positive; lam, theta and the primal
    tolerance finite and nonnegative; the iteration counts integers of at
    least 1."""

    m: int
    k: int
    lam: float = 0.05
    theta: float = 0.01
    beta: float = 1.0
    outer_iters: int = 30
    iht_iters: int = 50
    w_iters: int = 30
    primal_tol: float = 1e-5

    def __post_init__(self):
        check_int(self.m, "m", least=1)
        check_k(self.k, self.m)
        check_real(self.beta, "beta", positive=True)
        for name in ("lam", "theta", "primal_tol"):
            check_real(getattr(self, name), name)
        for name in ("outer_iters", "iht_iters", "w_iters"):
            check_int(getattr(self, name), name, least=1)

    @property
    def kprime(self) -> int:
        """Sparsity level of the gauge penalty (2k capped at m)."""
        return min(2 * self.k, self.m)


@dataclass
class TrainerState:
    """Mutable optimization state plus per-round diagnostics. Not
    shareable across threads while training."""

    W: Dictionary
    Z: SparseCodeBatch
    Q: np.ndarray
    Y: np.ndarray
    history: list = field(default_factory=list)


def lagrangian_value(state: TrainerState, X: DataMatrix, hp: Hyperparams) -> float:
    """Augmented Lagrangian at the current state."""
    W = state.W.data
    Z = state.Z.data
    resid = X.data - W @ Z
    R = state.Q - W.T @ resid
    G = W.T @ W
    gram_dev = G - np.eye(hp.m)
    return (
        0.5 * hp.lam * k2_norm_sq(state.Q, hp.kprime)
        + float((gram_dev * gram_dev).sum())
        + 0.5 * hp.theta * float((resid * resid).sum())
        + float((state.Y * R).sum())
        + 0.5 * hp.beta * float((R * R).sum())
    )


def primal_residual(state: TrainerState, X: DataMatrix) -> float:
    """Frobenius norm of Q - W^T (X - WZ)."""
    W = state.W.data
    R = state.Q - W.T @ (X.data - W @ state.Z.data)
    return float(np.linalg.norm(R))


def support_rows(Z: np.ndarray, k: int) -> np.ndarray:
    """k row indices per column of Z, as a k x N array: the column's
    nonzero rows, then its zero rows, each in ascending order."""
    return np.argsort(Z == 0, axis=0, kind="stable")[:k]


def update_Z(state: TrainerState, X: DataMatrix, hp: Hyperparams,
             trace: list | None = None) -> SparseCodeBatch:
    """Code update: hard thresholding pursuit (Foucart 2011) on the smooth
    part of the Lagrangian, the quadratic f(Z) = 1/2 <Z, HZ> + <b, Z> + c
    with D = Q - W^T X, G = W^T W, H = theta G + beta G^2,
    b = G (Y + beta D) - theta W^T X and c = theta/2 ||X||^2 + beta/2 ||D||^2.
    Each step moves 0.99/L along the gradient g = HZ + b, with L the largest
    eigenvalue of H, computed exactly (eigvalsh), takes the top k rows S of
    every column of the result, and solves each column's quadratic on its
    rows exactly, H_SS z_S = -b_S, for all columns in one stacked solve
    (baselines.solve_on_supports, as Batch OMP does). The value comes from
    the same g, as f(Z) = 1/2 (<Z, g> + <Z, b>) + c.

    The inner loop starts from the current codes (init_state's are the
    thresholded feature). Its value is non-increasing across steps, since
    the solve minimizes f on a support that holds the thresholded step (a
    step that ascends raises MonotonicityViolated). The loop stops at the
    first step that does not lower it: a step that keeps every column's
    support repeats the same solve and so returns the same codes. When
    trace is a list it receives the objective value per inner step.
    """
    W = state.W.data
    Xd = X.data
    G = W.T @ W
    WtX = W.T @ Xd
    D = state.Q - WtX
    H = hp.theta * G + hp.beta * (G @ G)
    b = G @ (state.Y + hp.beta * D) - hp.theta * WtX
    c = 0.5 * hp.theta * float((Xd * Xd).sum()) + 0.5 * hp.beta * float((D * D).sum())
    eta = 0.99 / np.linalg.eigvalsh(H)[-1]
    cols = np.arange(b.shape[1])[:, None]

    def evaluate(Z):
        g = H @ Z
        g += b
        return g, 0.5 * (float(np.vdot(Z, g)) + float(np.vdot(Z, b))) + c

    Z = state.Z.data
    g, f_prev = evaluate(Z)
    if trace is not None:
        trace.append(f_prev)
    for _ in range(hp.iht_iters):
        S = support_rows(max_k_columns(Z - eta * g, hp.k), hp.k).T
        Z = np.zeros_like(b)
        Z[S, cols] = solve_on_supports(H, S, -b[S, cols])
        g, f = evaluate(Z)
        if f > f_prev + 1e-12 * max(1.0, abs(f_prev)):
            raise MonotonicityViolated(f"hard-thresholding step ascended: {f_prev} -> {f}")
        if trace is not None:
            trace.append(f)
        if not f < f_prev:
            break
        f_prev = f
    return SparseCodeBatch(Z, hp.k)


def update_Q(state: TrainerState, X: DataMatrix, hp: Hyperparams) -> np.ndarray:
    """Split-variable update: the prox of the squared (2k,2) norm of each
    column of W^T X - W^T W Z - Y / beta, with gamma = lambda / beta, in
    one batched call."""
    W = state.W.data
    C = W.T @ X.data - (W.T @ W) @ state.Z.data - state.Y / hp.beta
    return prox_k2(C, hp.kprime, hp.lam / hp.beta)


class _WSubproblem:
    """Dictionary-step objective and gradient with data-size work hoisted
    out. With G = W^T W, A = W^T (X - WZ) and S = Y + beta Q,

        f(W) = ||G - I||^2 - <W, L> + <G, K> + beta/2 ||A||^2 + c,
        L = X S^T + theta X Z^T,  K = S Z^T + theta/2 Z Z^T,
        c = theta/2 ||X||^2 + beta/2 ||Q||^2,

    so after five one-time products (X X^T, X Z^T, Z Z^T, X S^T, S Z^T)
    each evaluate(W) call gives the value and gradient together from six
    matrix products (G, X X^T W, Z X^T W and Z Z^T G, shared by both; one
    W product for the gradient's m x m terms; X Z^T G), in O(n m^2 + m^3)
    independent of the sample count."""

    def __init__(self, Xd, Z, Q, Y, hp: Hyperparams):
        self.beta = hp.beta
        self.eye = np.eye(Z.shape[0])
        self.XXt = Xd @ Xd.T
        self.XZt = Xd @ Z.T
        self.ZZt = Z @ Z.T
        S = hp.beta * Q
        S += Y
        self.L = Xd @ S.T + hp.theta * self.XZt
        self.K = S @ Z.T + 0.5 * hp.theta * self.ZZt
        self.const = 0.5 * hp.theta * float((Xd * Xd).sum()) + 0.5 * hp.beta * float((Q * Q).sum())

    def evaluate(self, W: np.ndarray):
        G = W.T @ W
        dev = G - self.eye
        XXW = self.XXt @ W
        M = self.XZt.T @ W
        ZZG = self.ZZt @ G
        a_sq = (
            float((W * XXW).sum())
            - 2.0 * float((G * M.T).sum())
            + float((G * ZZG).sum())
        )
        value = (
            float((dev * dev).sum())
            - float((W * self.L).sum())
            + float((G * self.K).sum())
            + 0.5 * self.beta * a_sq
            + self.const
        )
        ZAt = M - ZZG
        grad = (
            W @ (4.0 * dev + self.K + self.K.T - self.beta * (ZAt + ZAt.T))
            - self.L
            + self.beta * (XXW - self.XZt @ G)
        )
        return value, grad


def w_objective(W, X: DataMatrix, Z, Q, Y, hp: Hyperparams) -> float:
    """Dictionary-step objective at an arbitrary (not necessarily
    unit-norm) W; exposed for derivative checks."""
    return _WSubproblem(X.data, np.asarray(Z, float), Q, Y, hp).evaluate(np.asarray(W, float))[0]


def w_gradient(W, X: DataMatrix, Z, Q, Y, hp: Hyperparams) -> np.ndarray:
    """Euclidean gradient of w_objective with respect to W."""
    return _WSubproblem(X.data, np.asarray(Z, float), Q, Y, hp).evaluate(np.asarray(W, float))[1]


def _project_tangent(W: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per-column tangent projection on the product of unit spheres."""
    return g - W * (W * g).sum(axis=0)


def _retract(W: np.ndarray, direction: np.ndarray, tau: float):
    """Step then renormalize columns; None when a column collapses."""
    A = W - tau * direction
    norms = np.linalg.norm(A, axis=0)
    if np.min(norms) < 1e-12:
        return None
    return A / norms


def update_W(state: TrainerState, X: DataMatrix, hp: Hyperparams) -> Dictionary:
    """Dictionary update: projected-gradient descent on the product of
    spheres with the short Barzilai-Borwein step |s^T y| / y^T y and
    nonmonotone backtracking (reference value = max of the last five
    accepted objectives). It stops after w_iters steps or once the
    projected gradient's norm falls below 1e-6.

    The objective never exceeds its input value plus the nonmonotone
    allowance (MonotonicityViolated otherwise). If backtracking exhausts
    its budget the update stops where it is and emits a LineSearchFailed
    warning; progress already accepted is kept, so a first-step failure
    returns the input dictionary renormalized (equal to it within 1e-15).
    """
    P = _WSubproblem(X.data, state.Z.data, state.Q, state.Y, hp)
    W = state.W.data
    f, g = P.evaluate(W)
    hist = [f]
    pg = _project_tangent(W, g)
    pg_sq = float((pg * pg).sum())
    tau = 1.0 / (1.0 + math.sqrt(pg_sq))
    for _ in range(hp.w_iters):
        if math.sqrt(pg_sq) < 1e-6:
            break
        ref = max(hist[-5:])
        t = tau
        for _ in range(20):
            W_new = _retract(W, pg, t)
            if W_new is not None:
                f_new, g_new = P.evaluate(W_new)
                if f_new <= ref - 1e-4 * t * pg_sq:
                    break
            t *= 0.5
        else:
            warnings.warn(
                "dictionary line search exhausted its backtracking budget; "
                "keeping the current iterate",
                LineSearchFailed,
            )
            break
        s = W_new - W
        pg_new = _project_tangent(W_new, g_new)
        y = pg_new - pg
        sy = float((s * y).sum())
        if sy != 0.0 and math.isfinite(sy):
            tau = min(max(abs(sy) / float((y * y).sum()), 1e-10), 1e10)
        else:
            tau = t
        W = W_new
        hist.append(f_new)
        pg = pg_new
        pg_sq = float((pg * pg).sum())
    if hist[-1] > hist[0] + 1e-10 * max(1.0, abs(hist[0])):
        raise MonotonicityViolated(f"dictionary step ascended: {hist[0]} -> {hist[-1]}")
    return normalize_columns(W)


def update_Y(state: TrainerState, X: DataMatrix, hp: Hyperparams) -> np.ndarray:
    """Dual ascent on the splitting constraint."""
    W = state.W.data
    return state.Y + hp.beta * (state.Q - W.T @ X.data + (W.T @ W) @ state.Z.data)


def init_state(X: DataMatrix, hp: Hyperparams, seed) -> TrainerState:
    """Seeded Gaussian dictionary W, its thresholded feature
    max_k(W^T X) as the codes, zero split and dual."""
    W = random_dictionary(X.n, hp.m, seed)
    Z = max_k_columns(W.data.T @ X.data, hp.k)
    return TrainerState(W=W, Z=SparseCodeBatch(Z, hp.k), Q=np.zeros_like(Z), Y=np.zeros_like(Z))


def train(X: DataMatrix, hp: Hyperparams, seed):
    """Run the alternating updates and return (dictionary, final state).

    Stops after outer_iters rounds or once the primal residual falls
    below primal_tol * sqrt(m N). Deterministic given (X, hp, seed).
    Each history record carries the Lagrangian value, primal residual,
    worst column-norm deviation, reconstruction error, the round's code
    step count (iht_steps), and wall time.
    """
    state = init_state(X, hp, seed)
    stop = hp.primal_tol * math.sqrt(hp.m * X.N)
    for it in range(hp.outer_iters):
        tic = time.perf_counter()
        iht_trace = []
        state.Z = update_Z(state, X, hp, trace=iht_trace)
        state.Q = update_Q(state, X, hp)
        state.W = update_W(state, X, hp)
        state.Y = update_Y(state, X, hp)
        primal = primal_residual(state, X)
        colnorms = np.linalg.norm(state.W.data, axis=0)
        recon = float(np.linalg.norm(X.data - state.W.data @ state.Z.data))
        state.history.append(
            {
                "iteration": it + 1,
                "lagrangian": lagrangian_value(state, X, hp),
                "primal_residual": primal,
                "max_colnorm_dev": float(np.max(np.abs(colnorms - 1.0))),
                "recon_error": recon,
                "iht_steps": len(iht_trace) - 1,
                "wall_ms": (time.perf_counter() - tic) * 1e3,
            }
        )
        if primal < stop:
            break
    return state.W, state
