"""Alternating-direction trainer for thresholded-feature dictionaries.

The objective couples a squared (2k,2) gauge penalty on residual
correlations Q = W^T (X - WZ), a Gram penalty ||W^T W - I||_F^2, and a
reconstruction term (theta/2) ||X - WZ||_F^2, subject to k-sparse codes
and unit-norm atoms. The augmented Lagrangian splits it into four
updates per round:

    Z: hard thresholding pursuit on the smooth part (a gradient step of
       0.99/L, with L the exact largest eigenvalue of its Hessian, picks
       each column's top k rows; one batched solve fits them exactly; a
       step that repeats the previous step's rows ends the loop unsolved),
    Q: per-column prox of the squared (2k,2) norm (gamma = lambda/beta),
    W: Riemannian descent on the product of spheres (the short
       Barzilai-Borwein step, nonmonotone backtracking, renormalization
       retraction; it stops once a step no longer pays),
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
from typing import ClassVar

import numpy as np

from .baselines import solve_on_supports
from .core import (ZERO_NORM_FLOOR, DataMatrix, Dictionary, SparseCodeBatch, as_finite_array,
                   normalize_columns, random_dictionary)
from .encoder import max_k_columns, top_k_mask
from .errors import (DimensionMismatch, LineSearchFailed, MonotonicityViolated, check_int, check_k,
                     check_real)
from .prox import k2_norm_sq, prox_k2

IHT_ITERS = 50  # code steps per round at most
W_ITERS = 30  # dictionary steps per round at most


@dataclass(frozen=True)
class Hyperparams:
    """Trainer settings, the ones `dltf train` exposes. beta must be
    positive; lam and theta finite and nonnegative; outer_iters an integer
    of at least 1. primal_tol, the relative primal-residual stop, is a
    constant, not a field, as are the inner caps IHT_ITERS and W_ITERS."""

    m: int
    k: int
    lam: float = 0.05
    theta: float = 0.01
    beta: float = 1.0
    outer_iters: int = 30
    primal_tol: ClassVar[float] = 1e-5

    def __post_init__(self):
        check_int(self.m, "m", least=1)
        check_k(self.k, self.m)
        check_real(self.beta, "beta", positive=True)
        for name in ("lam", "theta"):
            check_real(getattr(self, name), name)
        check_int(self.outer_iters, "outer_iters", least=1)

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


def _split_residual(state: TrainerState, X: DataMatrix):
    """X - WZ and W^T (X - WZ) at the state's W and Z, the one place they
    are formed: the split residual is R = Q - W^T (X - WZ)."""
    W = state.W.data
    resid = W @ state.Z.data
    np.subtract(X.data, resid, out=resid)
    return resid, W.T @ resid


def _lagrangian(state: TrainerState, hp: Hyperparams, resid, R) -> float:
    """Augmented Lagrangian, term by term, from resid = X - WZ and R."""
    gram_dev = state.W.data.T @ state.W.data - np.eye(hp.m)
    return (
        0.5 * hp.lam * k2_norm_sq(state.Q, hp.kprime)
        + float(np.vdot(gram_dev, gram_dev))
        + 0.5 * hp.theta * float(np.vdot(resid, resid))
        + float(np.vdot(state.Y, R))
        + 0.5 * hp.beta * float(np.vdot(R, R))
    )


def lagrangian_value(state: TrainerState, X: DataMatrix, hp: Hyperparams) -> float:
    """Augmented Lagrangian at the current state."""
    resid, A = _split_residual(state, X)
    return _lagrangian(state, hp, resid, np.subtract(state.Q, A, out=A))


def primal_residual(state: TrainerState, X: DataMatrix) -> float:
    """Frobenius norm of Q - W^T (X - WZ)."""
    _, A = _split_residual(state, X)
    return float(np.linalg.norm(np.subtract(state.Q, A, out=A)))


def update_Z(state: TrainerState, X: DataMatrix, hp: Hyperparams,
             trace: list | None = None) -> SparseCodeBatch:
    """Code update: hard thresholding pursuit (Foucart 2011) on the smooth
    part of the Lagrangian, the quadratic f(Z) = 1/2 <Z, HZ> + <b, Z> + c
    with D = Q - W^T X, G = W^T W, H = theta G + beta G^2,
    b = G (Y + beta D) - theta W^T X and c = theta/2 ||X||^2 + beta/2 ||D||^2.
    Each step moves 0.99/L along the gradient g = HZ + b, with L the largest
    eigenvalue of H, computed exactly (eigvalsh), takes the top k rows S of
    every column of the result, in ascending order, from the encoder's own
    selection (top_k_mask), and solves each column's quadratic on its
    rows exactly, H_SS z_S = -b_S, for all columns at once on the
    samples-last Cholesky factor of Batch OMP (baselines.solve_on_supports).
    The value comes from the same g, as f(Z) = 1/2 (<Z, g> + <Z, b>) + c.

    The inner loop starts from the current codes (init_state's are the
    thresholded feature). Its value is non-increasing across steps, since
    the solve minimizes f on a support that holds the thresholded step (a
    step that ascends raises MonotonicityViolated). A step that selects
    the same supports as the step before would repeat that solve and the
    H Z product bit for bit, so the loop stops there, before the solve,
    and the step's value is the previous one; it also stops at the first
    step that does not lower the value. When trace is a list it receives
    the objective value per inner step.
    """
    W = state.W.data
    Xd = X.data
    G = W.T @ W
    WtX = W.T @ Xd
    D = state.Q - WtX
    H = hp.theta * G + hp.beta * (G @ G)
    c = 0.5 * hp.theta * float(np.vdot(Xd, Xd)) + 0.5 * hp.beta * float(np.vdot(D, D))
    D *= hp.beta
    D += state.Y
    b = G @ D
    WtX *= hp.theta
    b -= WtX
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
    S_prev = None
    for _ in range(IHT_ITERS):
        g *= -eta
        g += Z  # the gradient step Z - eta g, in g's buffer
        # np.nonzero walks the transposed mask column by column of g
        S = np.nonzero(top_k_mask(g, hp.k).T)[1].reshape(-1, hp.k)
        if S_prev is not None and np.array_equal(S, S_prev):
            if trace is not None:
                trace.append(f_prev)
            break
        S_prev = S
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
    column of W^T (X - WZ) - Y / beta, with gamma = lambda / beta, in one
    batched call."""
    _, A = _split_residual(state, X)
    return prox_k2(A - state.Y / hp.beta, hp.kprime, hp.lam / hp.beta)


class _WSubproblem:
    """Dictionary-step objective and gradient with data-size work hoisted
    out. With G = W^T W, A = W^T (X - WZ) and S = Y + beta Q,

        f(W) = ||G - I||^2 - <W, L> + <G, K> + beta/2 ||A||^2 + c,
        L = X S^T + theta X Z^T,  K = S Z^T + theta/2 Z Z^T,
        c = theta/2 ||X||^2 + beta/2 ||Q||^2,

    so after five one-time products (X X^T, X Z^T, Z Z^T, X S^T, S Z^T),
    with K + K^T and a contiguous Z X^T formed once as well, each
    evaluate(W) call gives the value and gradient together from six
    matrix products (G, X X^T W, Z X^T W and Z Z^T G, shared by both; one
    W product for the gradient's m x m terms; X Z^T G), in O(n m^2 + m^3)
    independent of the sample count. Inner products are np.vdot calls,
    and the gradient's m x m matrix is built in place."""

    def __init__(self, Xd, Z, Q, Y, hp: Hyperparams):
        self.beta = hp.beta
        self.eye = np.eye(Z.shape[0])
        self.XXt = Xd @ Xd.T
        self.XZt = Xd @ Z.T
        self.ZXt = np.ascontiguousarray(self.XZt.T)
        self.ZZt = Z @ Z.T
        S = hp.beta * Q
        S += Y
        self.L = Xd @ S.T + hp.theta * self.XZt
        self.K = S @ Z.T + 0.5 * hp.theta * self.ZZt
        self.KKt = self.K + self.K.T
        self.const = 0.5 * hp.theta * float(np.vdot(Xd, Xd)) + 0.5 * hp.beta * float(np.vdot(Q, Q))

    def evaluate(self, W: np.ndarray):
        G = W.T @ W  # symmetric, so <G, M^T> = <G, M>
        dev = G - self.eye
        XXW = self.XXt @ W
        M = self.ZXt @ W
        ZZG = self.ZZt @ G
        a_sq = float(np.vdot(W, XXW)) - 2.0 * float(np.vdot(G, M)) + float(np.vdot(G, ZZG))
        value = (
            float(np.vdot(dev, dev))
            - float(np.vdot(W, self.L))
            + float(np.vdot(G, self.K))
            + 0.5 * self.beta * a_sq
            + self.const
        )
        # B = 4 (G - I) + K + K^T - beta (Z A^T + A Z^T), with Z A^T = M - ZZG
        B = dev
        B *= 4.0
        B += self.KKt
        M -= ZZG
        sym = M + M.T
        sym *= self.beta
        B -= sym
        grad = W @ B
        grad -= self.L
        XXW -= self.XZt @ G
        XXW *= self.beta
        grad += XXW
        return value, grad


def _w_evaluate(W, X: DataMatrix, Z, Q, Y, hp: Hyperparams):
    """_WSubproblem's (value, gradient), every array through as_finite_array
    and Z, Q and Y checked to be m x N for W's m atoms and X's N samples."""
    W, Z, Q, Y = (as_finite_array(a, name) for a, name in zip((W, Z, Q, Y), "WZQY"))
    if W.shape[0] != X.n:
        raise DimensionMismatch(f"W has {W.shape[0]} rows, X has {X.n}")
    shape = (W.shape[1], X.N)
    for arr, name in zip((Z, Q, Y), "ZQY"):
        if arr.shape != shape:
            raise DimensionMismatch(f"{name} must be {shape[0]}x{shape[1]}, got shape {arr.shape}")
    return _WSubproblem(X.data, Z, Q, Y, hp).evaluate(W)


def w_objective(W, X: DataMatrix, Z, Q, Y, hp: Hyperparams) -> float:
    """Dictionary-step objective at an arbitrary (not necessarily
    unit-norm) W; exposed for derivative checks."""
    return _w_evaluate(W, X, Z, Q, Y, hp)[0]


def w_gradient(W, X: DataMatrix, Z, Q, Y, hp: Hyperparams) -> np.ndarray:
    """Euclidean gradient of w_objective with respect to W."""
    return _w_evaluate(W, X, Z, Q, Y, hp)[1]


def _project_tangent(W: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per-column tangent projection on the product of unit spheres."""
    return g - W * (W * g).sum(axis=0)


def _retract(W: np.ndarray, direction: np.ndarray, tau: float):
    """Step then renormalize columns; None when a column collapses."""
    A = W - tau * direction
    norms = np.linalg.norm(A, axis=0)
    if np.min(norms) < ZERO_NORM_FLOOR:
        return None
    return A / norms


def update_W(state: TrainerState, X: DataMatrix, hp: Hyperparams,
             trace: list | None = None) -> Dictionary:
    """Dictionary update: projected-gradient descent on the product of
    spheres with the short Barzilai-Borwein step |s^T y| / y^T y and
    nonmonotone backtracking (reference value = max of the last five
    accepted objectives). It stops after W_ITERS steps, once the
    projected gradient's norm falls below 1e-6, or after an accepted step
    that lowered the best value so far by less than 1e-6 |f_new| (an
    inexact subproblem solve, as ADMM allows). Up to that stop its
    iterates are those of the run to the W_ITERS cap.

    The objective never exceeds its input value plus the nonmonotone
    allowance (MonotonicityViolated otherwise). If backtracking exhausts
    its budget the update stops where it is and emits a LineSearchFailed
    warning; progress already accepted is kept, so a first-step failure
    returns the input dictionary renormalized (equal to it within 1e-15).
    When trace is a list it receives the input value and each accepted
    step's value.
    """
    P = _WSubproblem(X.data, state.Z.data, state.Q, state.Y, hp)
    W = state.W.data
    f, g = P.evaluate(W)
    hist = [f]
    pg = _project_tangent(W, g)
    pg_sq = float((pg * pg).sum())
    tau = 1.0 / (1.0 + math.sqrt(pg_sq))
    for _ in range(W_ITERS):
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
        gain = min(hist) - f_new
        hist.append(f_new)
        if gain < 1e-6 * abs(f_new):
            break
        pg = pg_new
        pg_sq = float((pg * pg).sum())
    if hist[-1] > hist[0] + 1e-10 * max(1.0, abs(hist[0])):
        raise MonotonicityViolated(f"dictionary step ascended: {hist[0]} -> {hist[-1]}")
    if trace is not None:
        trace.extend(hist)
    return normalize_columns(W)


def update_Y(state: TrainerState, X: DataMatrix, hp: Hyperparams) -> np.ndarray:
    """Dual ascent on the splitting constraint."""
    _, A = _split_residual(state, X)
    return state.Y + hp.beta * np.subtract(state.Q, A, out=A)


def init_state(X: DataMatrix, hp: Hyperparams, seed) -> TrainerState:
    """Seeded Gaussian dictionary W, its thresholded feature
    max_k(W^T X) as the codes, zero split and dual. seed is an integer of
    at least 0."""
    W = random_dictionary(X.n, hp.m, check_int(seed, "seed", least=0))
    Z = max_k_columns(W.data.T @ X.data, hp.k)
    return TrainerState(W=W, Z=SparseCodeBatch(Z, hp.k), Q=np.zeros_like(Z), Y=np.zeros_like(Z))


def train(X: DataMatrix, hp: Hyperparams, seed):
    """Run the alternating updates and return (dictionary, final state).

    Stops after outer_iters rounds or once the primal residual falls
    below primal_tol * sqrt(m N). Deterministic given (X, hp, seed).
    After the W step a round forms X - WZ and W^T (X - WZ) once, by the
    body update_Q, update_Y, primal_residual and lagrangian_value share,
    and reads the Y step and the diagnostics from them. Each history
    record carries the Lagrangian value, primal residual, worst
    column-norm deviation, reconstruction error, the round's code and
    dictionary step counts (iht_steps, w_steps), the ms of each step
    (z_ms, q_ms, w_ms; y_ms covers that product and the Y step) and the
    round's wall time (wall_ms, which adds the diagnostics).
    """
    state = init_state(X, hp, seed)
    stop = hp.primal_tol * math.sqrt(hp.m * X.N)
    for it in range(hp.outer_iters):
        iht_trace, w_trace = [], []
        stamps = [time.perf_counter()]
        state.Z = update_Z(state, X, hp, trace=iht_trace)
        stamps.append(time.perf_counter())
        state.Q = update_Q(state, X, hp)
        stamps.append(time.perf_counter())
        state.W = update_W(state, X, hp, trace=w_trace)
        stamps.append(time.perf_counter())
        resid, A = _split_residual(state, X)
        R = np.subtract(state.Q, A, out=A)
        state.Y = state.Y + hp.beta * R  # update_Y's step, from this round's R
        stamps.append(time.perf_counter())
        primal = float(np.linalg.norm(R))
        colnorms = np.linalg.norm(state.W.data, axis=0)
        state.history.append(
            {
                "iteration": it + 1,
                "lagrangian": _lagrangian(state, hp, resid, R),
                "primal_residual": primal,
                "max_colnorm_dev": float(np.max(np.abs(colnorms - 1.0))),
                "recon_error": float(np.linalg.norm(resid)),
                "iht_steps": len(iht_trace) - 1,
                "w_steps": len(w_trace) - 1,
                **{f"{u}_ms": (b - a) * 1e3 for u, a, b in zip("zqwy", stamps, stamps[1:])},
                "wall_ms": (time.perf_counter() - stamps[0]) * 1e3,
            }
        )
        if primal < stop:
            break
    return state.W, state
