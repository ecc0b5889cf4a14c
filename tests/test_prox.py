import tracemalloc

import numpy as np
import pytest

from dltf import prox, selftest
from dltf.errors import DimensionMismatch, InvalidK

try:
    import cvxpy
except ImportError:
    cvxpy = None

needs_cvxpy = pytest.mark.skipif(cvxpy is None, reason="cvxpy is the independent QP oracle")

try:
    from scipy.optimize import isotonic_regression
except ImportError:
    isotonic_regression = None

needs_scipy = pytest.mark.skipif(isotonic_regression is None,
                                 reason="scipy's isotonic_regression is the second PAV")


def pav(u, t):
    """Weighted isotonic regression by pool adjacent violators: the
    nondecreasing x minimizing sum_j t_j (x_j - u_j)^2, and the number of
    merges. The independent reference the closed-form prox must match."""
    vals, wts, cnts = [], [], []
    merges = 0
    for v, w in zip(map(float, u), map(float, t)):
        c = 1
        while vals and vals[-1] > v:
            pw = wts.pop()
            v = (vals.pop() * pw + v * w) / (pw + w)
            w += pw
            c += cnts.pop()
            merges += 1
        vals.append(v)
        wts.append(w)
        cnts.append(c)
    return np.repeat(vals, cnts), merges


def cvxpy_reduce(u, t):
    """Independent weighted-isotonic oracle (interior-point QP)."""
    x = cvxpy.Variable(len(u))
    obj = cvxpy.Minimize(cvxpy.sum(cvxpy.multiply(t, cvxpy.square(x - u))))
    prob = cvxpy.Problem(obj, [cvxpy.diff(x) >= 0])
    prob.solve()
    return np.asarray(x.value).ravel()


def cvxpy_prox(c, kprime, gamma):
    """Independent oracle for the full prox problem."""
    q = cvxpy.Variable(len(c))
    obj = cvxpy.Minimize(
        gamma * cvxpy.sum_largest(cvxpy.square(q), kprime) + cvxpy.sum_squares(q - c)
    )
    prob = cvxpy.Problem(obj)
    prob.solve()
    return np.asarray(q.value).ravel(), prob.value


def test_k2_norm_sq_values():
    v = np.array([3.0, -1.0, 2.0])
    assert prox.k2_norm_sq(v, 1) == 9.0
    assert prox.k2_norm_sq(v, 2) == 13.0
    assert prox.k2_norm_sq(v, 3) == 14.0
    with pytest.raises(InvalidK):
        prox.k2_norm_sq(v, 0)
    with pytest.raises(InvalidK):
        prox.k2_norm_sq(v, 4)


def test_reduce_sorted_input_unchanged():
    u = np.array([1.0, 2.0, 2.0, 5.0])
    t = np.array([1.0, 2.0, 1.0, 3.0])
    x, merges = pav(u, t)
    assert np.array_equal(x, u)
    assert merges == 0


def test_reduce_two_point_pool():
    x, _ = pav([2.0, 1.0], [1.0, 1.0])
    assert np.allclose(x, [1.5, 1.5], atol=1e-15)


def test_reduce_weighted_pool_frozen():
    # Weighted mean (1*1 + 3*(1.1/3)) / 4 = 0.525.
    x, _ = pav([1.0, 1.1 / 3.0], [1.0, 3.0])
    assert np.allclose(x, [0.525, 0.525], atol=1e-12)


def test_reduce_pooled_value_is_weighted_mean():
    rng = np.random.default_rng(20)
    for _ in range(200):
        J = int(rng.integers(1, 12))
        u = rng.standard_normal(J)
        t = rng.uniform(0.1, 5.0, J)
        x, _ = pav(u, t)
        assert np.all(np.diff(x) >= -1e-14)
        # Within each pooled block the value equals the weighted mean.
        start = 0
        for j in range(1, J + 1):
            if j == J or x[j] != x[start]:
                blk = slice(start, j)
                mean = float(np.dot(t[blk], u[blk]) / np.sum(t[blk]))
                assert abs(x[start] - mean) < 1e-10
                start = j


@needs_cvxpy
def test_reduce_against_qp_oracle():
    rng = np.random.default_rng(21)
    for _ in range(15):
        J = int(rng.integers(2, 9))
        u = rng.standard_normal(J) * rng.uniform(0.5, 3.0)
        t = rng.uniform(0.2, 4.0, J)
        ours, _ = pav(u, t)
        ref = cvxpy_reduce(u, t)
        f = lambda x: float(np.dot(t, (x - u) ** 2))
        assert f(ours) <= f(ref) + 1e-6
        assert np.max(np.abs(ours - ref)) < 1e-4


@needs_scipy
def test_reduce_against_scipy_isotonic_regression():
    rng = np.random.default_rng(21)
    for _ in range(200):
        J = int(rng.integers(1, 30))
        u = np.round(rng.standard_normal(J) * rng.uniform(0.5, 3.0), 1)  # ties
        t = rng.uniform(0.2, 4.0, J)
        ours, _ = pav(u, t)
        ref = isotonic_regression(u, weights=t).x
        assert np.max(np.abs(ours - ref)) <= 1e-12


def test_reduce_merge_budget():
    rng = np.random.default_rng(22)
    for _ in range(50):
        J = int(rng.integers(1, 40))
        u = rng.standard_normal(J)
        t = rng.uniform(0.1, 2.0, J)
        _, merges = pav(u, t)
        assert merges <= J - 1


def test_prox_k2_frozen_example():
    # No violation: head kept, tail shrunk by 1/(1+gamma).
    assert np.allclose(prox.prox_k2([1.0, 2.0, 10.0], 1, 1.0), [1.0, 2.0, 5.0], atol=1e-15)
    q = prox.prox_k2(np.array([-1.1, 1.0]), 1, 2.0)
    assert np.allclose(q, [-0.525, 0.525], atol=1e-12)
    val = prox.prox_objective(q, np.array([-1.1, 1.0]), 1, 2.0)
    assert abs(val - 1.1075) < 1e-12


def test_prox_k2_gamma_zero_identity():
    rng = np.random.default_rng(23)
    c = rng.standard_normal(9)
    assert np.array_equal(prox.prox_k2(c, 3, 0.0), c)


def test_prox_k2_full_k_uniform_shrink():
    rng = np.random.default_rng(24)
    c = rng.standard_normal(7)
    for gamma in (0.1, 1.0, 10.0):
        assert np.allclose(prox.prox_k2(c, 7, gamma), c / (1.0 + gamma), atol=1e-15)


def test_prox_working_memory():
    # a 1e5-entry prox on the full-sort path peaks at about 5.4 float64
    # words per entry; holding the prefix sums apart from their steps
    # again would take it past the bound
    m = 10**5
    c = np.random.default_rng(31).standard_normal(m)
    tracemalloc.start()
    try:
        prox.prox_k2(c, m // 4, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 8 * m


def test_prox_objective_endpoints():
    c = np.array([1.0, -2.0, 0.5])
    assert abs(prox.prox_objective(c, c, 2, 3.0) - 3.0 * prox.k2_norm_sq(c, 2)) < 1e-15
    assert abs(prox.prox_objective(np.zeros(3), c, 2, 3.0) - float(c @ c)) < 1e-15


def test_prox_k2_sign_and_order_preservation():
    rng = np.random.default_rng(25)
    for trial in range(400):
        m = int(rng.integers(1, 14))
        kprime = int(rng.integers(1, m + 1))
        gamma = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
        c = rng.standard_normal(m) * rng.uniform(0.1, 10.0)
        if trial % 4 == 0:
            c = np.round(c, 1)
        q = prox.prox_k2(c, kprime, gamma)
        assert np.all(q * c >= 0.0)
        assert np.all(q[c == 0.0] == 0.0)
        assert np.all(np.abs(q) <= np.abs(c) + 1e-14)
        # |c_i| <= |c_j| implies |q_i| <= |q_j|
        order = np.argsort(np.abs(c), kind="stable")
        assert np.all(np.diff(np.abs(q)[order]) >= -1e-12)


@needs_cvxpy
def test_prox_k2_against_qp_oracle():
    rng = np.random.default_rng(26)
    for trial in range(25):
        m = int(rng.integers(2, 9))
        kprime = int(rng.integers(1, m + 1))
        gamma = float(rng.choice([0.1, 1.0, 10.0]))
        c = rng.standard_normal(m) * rng.uniform(0.5, 4.0)
        q = prox.prox_k2(c, kprime, gamma)
        _, ref_val = cvxpy_prox(c, kprime, gamma)
        ours_val = prox.prox_objective(q, c, kprime, gamma)
        assert ours_val <= ref_val + 1e-6, (m, kprime, gamma, c)


def test_prox_k2_local_direction_sweep():
    rng = np.random.default_rng(27)
    eps = 1e-5
    for _ in range(60):
        m = int(rng.integers(1, 11))
        kprime = int(rng.integers(1, m + 1))
        gamma = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
        c = rng.standard_normal(m) * rng.uniform(0.1, 5.0)
        q = prox.prox_k2(c, kprime, gamma)
        base = prox.prox_objective(q, c, kprime, gamma)
        for _ in range(40):
            d = rng.standard_normal(m)
            d /= np.linalg.norm(d)
            assert prox.prox_objective(q + eps * d, c, kprime, gamma) >= base - 1e-10


def test_direction_sweep_margin_matches_per_direction_loop():
    rng = np.random.default_rng(30)
    eps, ndirs = selftest.SWEEP_EPS, 25
    shapes = [(1, 1), (4, 4), (10, 10)] + [
        (m, int(rng.integers(1, m + 1))) for m in rng.integers(1, 11, size=40)]
    for i, (m, kprime) in enumerate(shapes):
        gamma = selftest.GAMMA_CHOICES[i % len(selftest.GAMMA_CHOICES)]
        inst = selftest.ProxInstance(c=rng.standard_normal(m) * rng.uniform(0.1, 5.0),
                                     kprime=int(kprime), gamma=gamma)
        q = prox.prox_k2(inst.c, inst.kprime, gamma)
        dirs = np.random.default_rng(i).standard_normal((ndirs, m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        base = prox.prox_objective(q, inst.c, inst.kprime, gamma)
        ref = min(prox.prox_objective(q + eps * d, inst.c, inst.kprime, gamma) - base
                  for d in dirs)
        got = selftest.direction_sweep_margin(inst, q, ndirs, seed=i)
        assert abs(got - ref) <= 1e-14 * max(1.0, abs(base)), (m, kprime, gamma)


def pav_prox(c, kprime, gamma):
    """The sign/sort reduction solved by ``pav``: the reference the closed
    form must reproduce."""
    mags = np.abs(c)
    order = np.argsort(mags, kind="stable")
    u = mags[order]
    t = np.ones(c.size)
    u[c.size - kprime:] /= 1.0 + gamma
    t[c.size - kprime:] = 1.0 + gamma
    x, merges = pav(u, t)
    q = np.empty_like(c)
    q[order] = x
    return q * np.sign(c), merges


def test_closed_form_matches_pav_reference():
    rng = np.random.default_rng(28)
    for trial in range(300):
        m = int(rng.integers(1, 31))
        kprime = int(rng.integers(1, m + 1))
        gamma = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
        tied = trial % 3 == 0
        C = rng.standard_normal((m, 5)) * rng.uniform(0.1, 10.0)
        if tied:
            C = np.round(C)
        Q, merges = prox.prox_k2(C, kprime, gamma, return_merges=True)
        assert Q.shape == C.shape and merges.shape == (5,)
        for i in range(C.shape[1]):
            c = C[:, i]
            q, n = prox.prox_k2(c, kprime, gamma, return_merges=True)
            assert np.array_equal(q, Q[:, i]) and n == merges[i]
            ref, ref_merges = pav_prox(c, kprime, gamma)
            assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(c)), (m, kprime, gamma, c)
            assert 0 <= n <= m - 1
            if not tied:
                assert n == ref_merges, (m, kprime, gamma, c)
    # Long vectors with a small pooled block: the pooled value must not
    # carry rounding from the rest of the vector.
    for kprime, gamma in ((10, 0.1), (1000, 0.01), (1000, 0.001), (50000, 0.01)):
        c = rng.standard_normal(10**5)
        q, n = prox.prox_k2(c, kprime, gamma, return_merges=True)
        ref, ref_merges = pav_prox(c, kprime, gamma)
        assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(c)), (kprime, gamma)
        assert n == ref_merges


def _slice_rule_batch(rng, m, kprime):
    """37 columns for m x 37 prox calls: random ones, some rounded to make
    ties; ties across the top slice's lower edge and across p = m - k';
    all-equal magnitudes; an all-zero column; signed zeros."""
    C = rng.standard_normal((m, 37)) * rng.uniform(0.1, 10.0, 37)
    C[:, :10] = np.round(C[:, :10])
    t = kprime + 8
    mags = np.sort(np.abs(C[:, 30]))[::-1]
    C[np.abs(C[:, 30]) == mags[t], 30] = mags[t - 1]  # ranks t and t+1 tie
    mags = np.sort(np.abs(C[:, 31]))[::-1]
    C[np.abs(C[:, 31]) == mags[kprime], 31] = -mags[kprime - 1]  # tie across p
    C[:, 32] = 1.5 * np.where(np.arange(m) % 3, 1.0, -1.0)  # all-equal magnitudes
    C[:, 33] = 0.0
    C[::5, 34] = -0.0
    C[::7, 35] = 0.0
    return C


@pytest.mark.parametrize("kprime, sliced", [(8, True), (16, True), (32, False)])
def test_top_slice_prox_matches_columns_full_path_and_pav(monkeypatch, kprime, sliced):
    # m = 128: k' + 8 <= m/4 takes the top-slice path for k' = 8 and 16;
    # k' = 32 sorts whole columns
    rng = np.random.default_rng(32)
    m = 128
    full_rows = []
    prox_rows = prox._prox_rows

    def counted(A, *args):
        full_rows.append(A.shape[0])
        return prox_rows(A, *args)

    for gamma in (0.0, 0.01, 0.1, 1.0, 10.0):
        C = _slice_rule_batch(rng, m, kprime)
        monkeypatch.setattr(prox, "_prox_rows", counted)
        Q, merges = prox.prox_k2(C, kprime, gamma, return_merges=True)
        monkeypatch.setattr(prox, "_prox_rows", prox_rows)
        # the full stable sort of every column, as the reference path
        A = np.abs(C.T, order="C")
        full_merges = prox_rows(A, kprime, 1.0 + gamma)
        assert np.array_equal(merges, full_merges), gamma
        assert np.max(np.abs(Q - np.copysign(A.T, C))) <= 1e-12 * np.max(np.abs(C))
        for i in range(C.shape[1]):
            c = C[:, i]
            q, n = prox.prox_k2(c, kprime, gamma, return_merges=True)
            assert q.tobytes() == Q[:, i].tobytes() and n == merges[i]
            ref, ref_merges = pav_prox(c, kprime, gamma)
            assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(c)), (kprime, gamma, i)
            if i >= 10 and i not in (30, 31, 32):  # untied columns
                assert n == ref_merges, (kprime, gamma, i)
        assert np.array_equal(np.signbit(Q), np.signbit(C))
        if not sliced:
            assert full_rows[-1] == C.shape[1]
        elif gamma > 0.0:
            # all-equal magnitudes pool below the slice, and at gamma = 1
            # and 10 nearly every column does; the zero column never does
            assert 0 < full_rows[-1] < C.shape[1]
        else:
            assert not full_rows  # nothing pools
        full_rows.clear()


def test_prox_batch_input_errors():
    with pytest.raises(DimensionMismatch):
        prox.prox_k2(np.ones((2, 2, 2)), 1, 1.0)
    with pytest.raises(DimensionMismatch):
        prox.prox_k2(np.ones((3, 0)), 1, 1.0)
    with pytest.raises(ValueError):
        prox.prox_k2(np.array([[1.0, np.nan], [2.0, 3.0]]), 1, 1.0)
    with pytest.raises(ValueError):
        prox.prox_k2(np.array([1.0, -np.inf]), 1, 1.0)
    with pytest.raises(InvalidK):
        prox.prox_k2(np.ones((3, 2)), 4, 1.0)
    with pytest.raises(ValueError):
        prox.prox_k2(np.ones((3, 2)), 1, -0.5)
    with pytest.raises(TypeError, match="^gamma=True must be a real number$"):
        prox.prox_k2(np.ones((3, 2)), 1, True)
    with pytest.raises(TypeError, match="^gamma=True must be a real number$"):
        prox.prox_objective(np.ones(3), np.ones(3), 1, True)
    with pytest.raises(DimensionMismatch, match=r"^q and c differ in shape: \(3,\) vs \(4,\)$"):
        prox.prox_objective(np.ones(3), np.ones(4), 1, 1.0)


def test_k2_norm_sq_sums_over_columns():
    # a matrix is squared into one contiguous row per column, whatever its
    # memory layout
    rng = np.random.default_rng(30)
    M = rng.standard_normal((9, 7))
    strided = np.zeros((9, 14))
    strided[:, ::2] = M
    layouts = {"C": np.ascontiguousarray(M), "F": np.asfortranarray(M),
               "transposed view": np.ascontiguousarray(M.T).T,
               "strided view": strided[:, ::2]}
    for k in (1, 4, 9):
        per_column = sum(prox.k2_norm_sq(M[:, i], k) for i in range(7))
        for name, A in layouts.items():
            assert abs(prox.k2_norm_sq(A, k) - per_column) <= 1e-12 * per_column, (name, k)
            assert np.array_equal(A, M)  # the input is left as it was
    with pytest.raises(InvalidK):
        prox.k2_norm_sq(M, 10)


def subgradient_best_loop(instances, total_iters, seed):
    """The plain subgradient loop over every (instance, start) row: the
    reference ``selftest.subgradient_best`` must match bit for bit."""
    rng = np.random.default_rng(seed)
    STARTS, PAD_M = selftest.STARTS, selftest.PAD_M
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
    q[::STARTS] = C[::STARTS]
    best = np.full(R, np.inf)
    rows = np.arange(R)
    gcol = gam[:, None]
    for t in range(iters):
        q2 = q * q
        sorted_sq = -np.sort(-q2, axis=1)
        mask = q2 >= sorted_sq[rows, kp - 1][:, None]
        top = np.cumsum(sorted_sq, axis=1)[rows, kp - 1]
        diff = q - C
        obj = gam * top + np.einsum("ij,ij->i", diff, diff)
        np.minimum(best, obj, out=best)
        step = 1.0 / (2.0 * (t + 1))
        q = q - step * (2.0 * diff + 2.0 * gcol * q * mask)
    return best.reshape(B, STARTS).min(axis=1)


def _full_k_instances():
    """k' = m = PAD_M for every gamma, with and without signed zeros in c,
    then a few random shorter instances."""
    rng = np.random.default_rng(31)
    m = selftest.PAD_M
    out = [selftest.ProxInstance(c=rng.standard_normal(m) * 3.0, kprime=m, gamma=g)
           for g in selftest.GAMMA_CHOICES]
    zeros = np.array([0.0, -0.0, 1.5, -0.0, 0.0, -2.0, 0.0, 0.5, -0.0, 0.0])
    out += [selftest.ProxInstance(c=zeros, kprime=m, gamma=g) for g in selftest.GAMMA_CHOICES]
    out += selftest.random_instances(6, 32)
    return out


# (instances, total_iters, seed). The budgets are below the suite's 100_000
# to keep the test short; every iteration runs the same code.
ORACLE_INPUTS = {
    **{f"random-200-s{s}": (lambda s=s: selftest.random_instances(200, s), 5_000, s + 1)
       for s in range(4)},
    "criterion-1-input": (lambda: selftest.random_instances(1000, 12345), 2_500, 12346),
    "one-instance-gamma-0": (lambda: selftest.random_instances(1, 7), 10_000, 8),
    "one-iteration": (lambda: selftest.random_instances(40, 9), selftest.STARTS - 1, 10),
    "full-k": (_full_k_instances, 10_000, 11),
}


@pytest.mark.parametrize("make, total_iters, seed", ORACLE_INPUTS.values(),
                         ids=ORACLE_INPUTS.keys())
def test_subgradient_best_matches_plain_loop(make, total_iters, seed):
    instances = make()
    got = selftest.subgradient_best(instances, total_iters=total_iters, seed=seed)
    want = subgradient_best_loop(instances, total_iters, seed)
    assert np.array_equal(got, want)


def test_oracle_equivalence_suite_report_from_plain_loop():
    count, seed, total_iters, ndirs = 8, 5, 500, 10
    instances = selftest.random_instances(count, seed)
    oracle = subgradient_best_loop(instances, total_iters, seed + 1)
    gaps, margins = [], []
    for i, inst in enumerate(instances):
        q = prox.prox_k2(inst.c, inst.kprime, inst.gamma)
        gaps.append(prox.prox_objective(q, inst.c, inst.kprime, inst.gamma) - oracle[i])
        margins.append(selftest.direction_sweep_margin(inst, q, ndirs, seed + 2 + i))
    want = {"count": count, "max_gap": float(max(gaps)), "min_sweep_margin": float(min(margins)),
            "oracle_ok": bool(max(gaps) <= 1e-9), "sweep_ok": bool(min(margins) >= -1e-10)}
    assert selftest.oracle_equivalence_suite(count=count, seed=seed, total_iters=total_iters,
                                             ndirs=ndirs) == want


@pytest.mark.parametrize("bad", [dict(count=0), dict(total_iters=0), dict(total_iters=-5),
                                 dict(ndirs=0), dict(count=2.5), dict(total_iters=50.0),
                                 dict(ndirs=5.0)])
def test_oracle_equivalence_suite_rejects_empty_budgets(bad):
    name, value = next(iter(bad.items()))
    if isinstance(value, int):
        error, rule = ValueError, "at least 1"
    else:
        error, rule = TypeError, "an integer"
    with pytest.raises(error, match=f"^{name}={value} must be {rule}$"):
        selftest.oracle_equivalence_suite(**{**dict(count=2, total_iters=50, ndirs=5), **bad})


def test_oracle_equivalence_suite_rejects_negative_seed():
    with pytest.raises(ValueError, match="^seed=-1 must be at least 0$"):
        selftest.oracle_equivalence_suite(count=2, seed=-1, total_iters=50, ndirs=5)


_INST = selftest.ProxInstance(c=np.array([1.0, -2.0]), kprime=1, gamma=0.1)
_HELPER_CASES = [
    ("random_instances", (2, -1), ValueError, "seed=-1 must be at least 0"),
    ("random_instances", (-1, 0), ValueError, "count=-1 must be at least 1"),
    ("random_instances", (0, 0), ValueError, "count=0 must be at least 1"),
    ("random_instances", (2.0, 0), TypeError, "count=2.0 must be an integer"),
    ("subgradient_best", ([_INST], 0), ValueError, "total_iters=0 must be at least 1"),
    ("subgradient_best", ([_INST], 50, -2), ValueError, "seed=-2 must be at least 0"),
    ("direction_sweep_margin", (_INST, _INST.c, 0, 0), ValueError, "ndirs=0 must be at least 1"),
    ("direction_sweep_margin", (_INST, _INST.c, 5, -1), ValueError, "seed=-1 must be at least 0"),
]


@pytest.mark.parametrize("helper, args, error, message", _HELPER_CASES,
                         ids=[f"{case[0]}-{case[3].split()[0]}" for case in _HELPER_CASES])
def test_oracle_equivalence_suite_rejects_bad_helper_arguments(helper, args, error, message):
    # the suite's rules hold when a helper is called on its own
    with pytest.raises(error, match=f"^{message}$"):
        getattr(selftest, helper)(*args)
