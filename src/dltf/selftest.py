"""Self-contained optimality checks for the prox solver.

The reference point is a batched plain subgradient descent on the prox
objective with diminishing steps and best-iterate tracking. It is
slow but independent of the prox's isotonic machinery, so agreement
certifies global optimality (the objective is strongly convex).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import prox
from .errors import check_int, check_real

PAD_M = 10
GAMMA_CHOICES = (0.0, 0.1, 1.0, 10.0)
STARTS = 5  # subgradient starts per instance, one of them at c
SWEEP_EPS = 1e-5  # length of the suite's random perturbations


@dataclass(frozen=True)
class ProxInstance:
    c: np.ndarray
    kprime: int
    gamma: float


def random_instances(count: int, seed: int) -> list[ProxInstance]:
    """Instances with m <= PAD_M, k' in [1, m], gamma cycling through
    GAMMA_CHOICES, and coefficient scales spanning three decades.
    ValueError unless count is at least 1 and seed at least 0.
    """
    check_int(count, "count", least=1)
    rng = np.random.default_rng(check_int(seed, "seed", least=0))
    out = []
    for i in range(count):
        m = int(rng.integers(1, PAD_M + 1))
        kprime = int(rng.integers(1, m + 1))
        gamma = GAMMA_CHOICES[i % len(GAMMA_CHOICES)]
        scale = 10.0 ** rng.uniform(-1, 1)
        c = scale * rng.standard_normal(m)
        out.append(ProxInstance(c=c, kprime=kprime, gamma=gamma))
    return out


def subgradient_best(instances: list[ProxInstance], total_iters: int = 100_000,
                     seed: int = 0) -> np.ndarray:
    """Best objective reached by subgradient descent, per instance.

    All instances are zero-padded to PAD_M columns and every (instance,
    start) pair becomes one row of a single batch; padding coordinates have
    c = 0 so their optimum is 0 and the padded problem's optimal value
    equals the original one. The iteration budget is split across starts.

    Rows with gamma = 0 carry no k'-term: 0 * top is 0, and the gradient
    term 0 * q * mask is a zero of q's sign, which leaves 2 * diff as it
    is. So they run behind the others, and only the gamma > 0 rows are
    sorted and summed. The sum of the k' largest squares is a running sum
    over the descending order: the same additions, in the same order, as
    a cumsum along the row. ValueError unless total_iters is at least 1
    and seed at least 0.
    """
    check_int(total_iters, "total_iters", least=1)
    rng = np.random.default_rng(check_int(seed, "seed", least=0))
    B = len(instances)
    R = B * STARTS
    C = np.zeros((R, PAD_M))
    kp = np.zeros(R, dtype=np.int64)
    gam = np.zeros(R)
    for i, inst in enumerate(instances):
        rows = slice(i * STARTS, (i + 1) * STARTS)
        C[rows, :inst.c.size] = inst.c
        kp[rows] = inst.kprime
        gam[rows] = inst.gamma

    iters = max(1, total_iters // STARTS)
    scale = np.maximum(np.abs(C).max(axis=1), 1.0)
    q = rng.standard_normal((R, PAD_M)) * scale[:, None]
    q[::STARTS] = C[::STARTS]  # one start from c itself

    order = np.argsort(gam == 0.0, kind="stable")  # gamma > 0 rows first
    C, kp, gam, q = C[order], kp[order], gam[order], q[order]
    R1 = int(np.count_nonzero(gam))
    q1, kp1, gam1 = q[:R1], kp[:R1], gam[:R1]
    gam2 = 2.0 * gam1[:, None]
    # flat indices of the k'-th largest square in each ascending row, and
    # of the k'-th partial sum in the running sum (one column per row)
    kth_at = np.arange(R1) * PAD_M + (PAD_M - kp1)
    top_at = (kp1 - 1) * R1 + np.arange(R1)
    q2, srt, mask, term = (np.empty((R1, PAD_M)) for _ in range(4))
    run = np.empty((PAD_M, R1))
    diff, upd = np.empty((R, PAD_M)), np.empty((R, PAD_M))
    obj = np.empty(R)
    best = np.full(R, np.inf)
    for t in range(iters):
        np.subtract(q, C, out=diff)
        np.einsum("ij,ij->i", diff, diff, out=obj)
        np.multiply(q1, q1, out=q2)
        srt[...] = q2
        srt.sort(axis=1)
        np.greater_equal(q2, srt.take(kth_at)[:, None], out=mask)
        run[0] = srt[:, -1]
        for j in range(1, PAD_M):
            np.add(run[j - 1], srt[:, -1 - j], out=run[j])
        obj[:R1] += gam1 * run.take(top_at)
        np.minimum(best, obj, out=best)
        # strongly convex with modulus 2 from the quadratic term
        step = 1.0 / (2.0 * (t + 1))
        np.multiply(diff, 2.0, out=upd)
        np.multiply(gam2, q1, out=term)
        term *= mask
        upd[:R1] += term
        upd *= step
        q -= upd
    best[order] = best.copy()  # back to instance order
    return best.reshape(B, STARTS).min(axis=1)


def direction_sweep_margin(inst: ProxInstance, q: np.ndarray, ndirs: int,
                           eps: float, seed: int) -> float:
    """Smallest objective increase over random unit perturbations of q,
    each of length eps. ValueError unless ndirs is at least 1, eps
    positive and seed at least 0."""
    check_int(ndirs, "ndirs", least=1)
    check_real(eps, "eps", positive=True)
    rng = np.random.default_rng(check_int(seed, "seed", least=0))
    D = rng.standard_normal((ndirs, inst.c.size))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    base = prox.prox_objective(q, inst.c, inst.kprime, inst.gamma)
    # Summed in prox_objective's order, so each value matches it bit for bit.
    P = q + eps * D
    p = P.shape[1] - inst.kprime
    sq = np.partition(P * P, p, axis=1)[:, p:] if p else P * P
    diff = P - inst.c
    vals = inst.gamma * sq.sum(axis=1) + np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
    return float(np.min(vals - base))


def oracle_equivalence_suite(count: int = 1000, seed: int = 12345,
                             total_iters: int = 100_000, ndirs: int = 200) -> dict:
    """Run the full optimality suite and report the worst margins.

    Returns a dict with max_gap (solver objective minus oracle best,
    positive means the solver did worse), min_sweep_margin, and pass flags
    at the 1e-9 / -1e-10 thresholds. ValueError unless count, total_iters
    and ndirs are all at least 1 and seed at least 0.
    """
    # the helpers check the rest; ndirs is first read after the oracle's long run
    check_int(ndirs, "ndirs", least=1)
    instances = random_instances(count, seed)
    oracle = subgradient_best(instances, total_iters=total_iters, seed=seed + 1)
    max_gap = -np.inf
    min_margin = np.inf
    for i, inst in enumerate(instances):
        q = prox.prox_k2(inst.c, inst.kprime, inst.gamma)
        val = prox.prox_objective(q, inst.c, inst.kprime, inst.gamma)
        max_gap = max(max_gap, val - oracle[i])
        min_margin = min(min_margin,
                         direction_sweep_margin(inst, q, ndirs, SWEEP_EPS, seed + 2 + i))
    return {
        "count": count,
        "max_gap": float(max_gap),
        "min_sweep_margin": float(min_margin),
        "oracle_ok": bool(max_gap <= 1e-9),
        "sweep_ok": bool(min_margin >= -1e-10),
    }
