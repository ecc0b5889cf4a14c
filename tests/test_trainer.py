"""Trainer unit tests: update correctness, gradient checks, invariants."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dltf
from dltf import baselines, bench, cli, core, encoder, guarantees, prox, trainer
from dltf.core import DataMatrix, Dictionary, SparseCodeBatch
from dltf.errors import (DimensionMismatch, InvalidK, LineSearchFailed, MonotonicityViolated,
                         SingularSubproblem)


def _random_state(rng, n, m, N, k, hp=None):
    W = core.normalize_columns(rng.standard_normal((n, m)))
    Z = encoder.max_k_columns(rng.standard_normal((m, N)), k)
    Q = rng.standard_normal((m, N))
    Y = rng.standard_normal((m, N))
    return trainer.TrainerState(W=W, Z=SparseCodeBatch(Z, k), Q=Q, Y=Y)


def _data(rng, n, N):
    return DataMatrix(rng.standard_normal((n, N)))


def test_hyperparams_validation():
    with pytest.raises(InvalidK):
        trainer.Hyperparams(m=4, k=5)
    with pytest.raises(ValueError):
        trainer.Hyperparams(m=4, k=2, beta=0.0)
    with pytest.raises(ValueError):
        trainer.Hyperparams(m=4, k=2, lam=-1.0)
    with pytest.raises(ValueError):
        trainer.Hyperparams(m=4, k=2, outer_iters=0)
    assert trainer.Hyperparams(m=10, k=3).kprime == 6
    assert trainer.Hyperparams(m=10, k=7).kprime == 10


def test_hyperparams_rejects_non_integral_m():
    with pytest.raises(TypeError, match="m=8.0 must be an integer"):
        trainer.Hyperparams(m=8.0, k=2)


def test_hyperparams_rejects_bad_tolerances_and_counts():
    for name in ("lam", "theta"):
        for bad in (float("nan"), -1e-9, float("inf")):
            with pytest.raises(ValueError, match=f"^{name}=.* must be finite and nonnegative$"):
                trainer.Hyperparams(m=8, k=2, **{name: bad})
    for name in ("outer_iters", "iht_iters", "w_iters"):
        for bad in (2.5, True):
            with pytest.raises(TypeError, match=f"^{name}={bad} must be an integer$"):
                trainer.Hyperparams(m=8, k=2, **{name: bad})
    for name in ("m", "outer_iters", "iht_iters", "w_iters"):
        with pytest.raises(ValueError, match=f"^{name}=0 must be at least 1$"):
            trainer.Hyperparams(**{"m": 8, "k": 2, name: 0})
    for name in ("lam", "theta", "beta"):
        for bad in (True, "1", None):
            with pytest.raises(TypeError, match=f"^{name}=.* must be a real number$"):
                trainer.Hyperparams(m=8, k=2, **{name: bad})
    with pytest.raises(TypeError, match="^m=True must be an integer$"):
        trainer.Hyperparams(m=True, k=1)
    with pytest.raises(TypeError, match="^k=True must be an integer$"):
        trainer.Hyperparams(m=8, k=True)
    # the primal stop is a constant of the class, not a knob
    assert trainer.Hyperparams(m=8, k=2).primal_tol == 1e-5
    with pytest.raises(TypeError):
        trainer.Hyperparams(m=8, k=2, primal_tol=0.0)


def test_init_state_draws_core_random_dictionary():
    X = _data(np.random.default_rng(2), 7, 30)
    hp = trainer.Hyperparams(m=11, k=2)
    for seed in (0, 5, 2**40):
        state = trainer.init_state(X, hp, seed)
        W = core.random_dictionary(X.n, hp.m, seed).data
        assert state.W.data.tobytes() == W.tobytes()
        # the codes start at the thresholded feature of that dictionary
        assert state.Z.data.tobytes() == encoder.max_k_columns(W.T @ X.data, hp.k).tobytes()


def test_lagrangian_matches_direct_recomputation():
    rng = np.random.default_rng(20)
    for _ in range(10):
        n, m, N, k = 6, 9, 12, 2
        hp = trainer.Hyperparams(m=m, k=k, lam=0.3, theta=0.7, beta=1.4)
        state = _random_state(rng, n, m, N, k)
        X = _data(rng, n, N)
        # independent recomputation, term by term
        W, Z, Q, Y = state.W.data, state.Z.data, state.Q, state.Y
        resid = X.data - W @ Z
        R = Q - W.T @ resid
        k2 = 0.0
        for i in range(N):
            sq = np.sort(Q[:, i] ** 2)[::-1]
            k2 += sq[: hp.kprime].sum()
        expected = (
            0.5 * hp.lam * k2
            + np.linalg.norm(W.T @ W - np.eye(m)) ** 2
            + 0.5 * hp.theta * np.linalg.norm(resid) ** 2
            + (Y * R).sum()
            + 0.5 * hp.beta * np.linalg.norm(R) ** 2
        )
        got = trainer.lagrangian_value(state, X, hp)
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))


def test_update_z_one_step_orthonormal_matches_encoder():
    # at an orthonormal dictionary with Q = Y = 0 the first gradient step
    # from zero codes selects exactly the thresholded-feature support
    rng = np.random.default_rng(21)
    n = m = 12
    N, k = 30, 3
    Wq, _ = np.linalg.qr(rng.standard_normal((n, m)))
    W = Dictionary(Wq)
    X = _data(rng, n, N)
    hp = trainer.Hyperparams(m=m, k=k, lam=0.0, theta=1.0, beta=1e-8,
                             iht_iters=1)
    state = trainer.TrainerState(W=W, Z=SparseCodeBatch(np.zeros((m, N)), k),
                                 Q=np.zeros((m, N)), Y=np.zeros((m, N)))
    Z = trainer.update_Z(state, X, hp)
    ref = encoder.encode_batch(W, X, k)
    assert np.array_equal(Z.data != 0, ref != 0)


def _smooth_value(state, X, hp, Z):
    """The code step's objective at codes Z: the Lagrangian's terms in Z
    but the sparsity constraint, from state's W, Q and Y."""
    W = state.W.data
    G = W.T @ W
    resid = X.data - W @ Z
    coupling = G @ Z - W.T @ X.data + state.Q
    return (0.5 * hp.theta * np.linalg.norm(resid) ** 2
            + (state.Y * (G @ Z)).sum()
            + 0.5 * hp.beta * np.linalg.norm(coupling) ** 2)


def test_update_z_descends_and_keeps_sparsity():
    rng = np.random.default_rng(22)
    n, m, N, k = 10, 16, 40, 3
    hp = trainer.Hyperparams(m=m, k=k, lam=0.2, theta=0.5, beta=0.9,
                             iht_iters=60)
    state = _random_state(rng, n, m, N, k)
    X = _data(rng, n, N)

    Z = trainer.update_Z(state, X, hp)
    assert np.all((Z.data != 0).sum(axis=0) <= k)
    assert _smooth_value(state, X, hp, Z.data) <= _smooth_value(state, X, hp, state.Z.data) + 1e-9
    # from init_state, no worse than the thresholded start
    state = trainer.init_state(X, hp, seed=22)
    state.Q, state.Y = rng.standard_normal((m, N)), rng.standard_normal((m, N))
    Z = trainer.update_Z(state, X, hp)
    Z_thr = encoder.encode_batch(state.W, X, k)
    assert _smooth_value(state, X, hp, Z.data) <= _smooth_value(state, X, hp, Z_thr) + 1e-9


def test_update_z_repeat_never_ascends():
    rng = np.random.default_rng(23)
    n, m, N, k = 8, 12, 25, 2
    hp = trainer.Hyperparams(m=m, k=k, lam=0.1, theta=0.4, beta=1.1,
                             iht_iters=400)
    state = _random_state(rng, n, m, N, k)
    X = _data(rng, n, N)

    Z1 = trainer.update_Z(state, X, hp)
    state2 = trainer.TrainerState(W=state.W, Z=Z1, Q=state.Q, Y=state.Y)
    Z2 = trainer.update_Z(state2, X, hp)
    assert _smooth_value(state, X, hp, Z2.data) <= _smooth_value(state, X, hp, Z1.data) + 1e-9


def test_update_z_trace_ends_at_smooth_part_of_lagrangian():
    # the traced value is the Lagrangian at the returned codes less the
    # terms that do not depend on Z, constant included
    rng = np.random.default_rng(35)
    for _ in range(5):
        n, m, N, k = 8, 12, 30, 3
        hp = trainer.Hyperparams(m=m, k=k, lam=0.3, theta=0.7, beta=1.4)
        state = _random_state(rng, n, m, N, k)
        X = _data(rng, n, N)
        trace = []
        state.Z = trainer.update_Z(state, X, hp, trace=trace)
        W, Q, Y = state.W.data, state.Q, state.Y
        gram_dev = W.T @ W - np.eye(m)
        expected = (trainer.lagrangian_value(state, X, hp)
                    - 0.5 * hp.lam * prox.k2_norm_sq(Q, hp.kprime)
                    - (gram_dev * gram_dev).sum()
                    - (Y * (Q - W.T @ X.data)).sum())
        assert abs(trace[-1] - expected) <= 1e-12 * abs(expected)


def _ascending_solve(A, B):
    return np.full_like(B, 100.0)


def _singular_solve(A, B):
    raise np.linalg.LinAlgError("Singular matrix")


def _check_code_step_raises_and_exits_two(monkeypatch, tmp_path, solve, error):
    """Under a patched np.linalg.solve, update_Z raises error and
    `dltf train` exits with code 2."""
    rng = np.random.default_rng(36)
    hp = trainer.Hyperparams(m=12, k=2)
    state = _random_state(rng, 8, 12, 25, 2)
    X = _data(rng, 8, 25)
    data_path = str(tmp_path / "X.dltx")
    core.save_data_matrix(X, data_path)
    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(error):
        trainer.update_Z(state, X, hp)
    code = cli.main(["train", "--data", data_path, "--m", "12", "--k", "2",
                     "--iters", "1", "--seed", "0", "--out", str(tmp_path / "W.dltf")])
    assert code == 2


def test_update_z_ascent_raises_and_exits_two(monkeypatch, tmp_path):
    _check_code_step_raises_and_exits_two(monkeypatch, tmp_path, _ascending_solve,
                                          MonotonicityViolated)


def test_update_z_singular_solve_raises_and_exits_two(monkeypatch, tmp_path):
    _check_code_step_raises_and_exits_two(monkeypatch, tmp_path, _singular_solve,
                                          SingularSubproblem)


def test_update_z_ascent_raises_under_optimize():
    script = (
        "import numpy as np\n"
        "from dltf import core, trainer\n"
        "from dltf.errors import MonotonicityViolated\n"
        "np.linalg.solve = lambda A, B: np.full_like(B, 100.0)\n"
        "rng = np.random.default_rng(37)\n"
        "X = core.DataMatrix(rng.standard_normal((8, 25)))\n"
        "hp = trainer.Hyperparams(m=12, k=2)\n"
        "state = trainer.init_state(X, hp, 0)\n"
        "try:\n"
        "    trainer.update_Z(state, X, hp)\n"
        "except MonotonicityViolated:\n"
        "    raise SystemExit(3)\n"
    )
    src = os.path.dirname(os.path.dirname(dltf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr


def _reference_update_z(state, X, hp, trace):
    """The hard-thresholding-pursuit code step, one column at a time: the
    column's k largest magnitudes after the gradient step (lower index
    first on ties), then one solve of its quadratic on those rows."""
    W = state.W.data
    G = W.T @ W
    WtX = W.T @ X.data
    D = state.Q - WtX
    H = hp.theta * G + hp.beta * (G @ G)
    b = G @ (state.Y + hp.beta * D) - hp.theta * WtX
    c = 0.5 * hp.theta * float((X.data * X.data).sum()) + 0.5 * hp.beta * float((D * D).sum())
    eta = 0.99 / np.linalg.eigvalsh(H)[-1]

    def evaluate(Z):
        g = H @ Z + b
        return g, 0.5 * (float(np.vdot(Z, g)) + float(np.vdot(Z, b))) + c

    Z = state.Z.data
    g, f_prev = evaluate(Z)
    trace.append(f_prev)
    for _ in range(hp.iht_iters):
        U = Z - eta * g
        Z = np.zeros_like(U)
        for i in range(U.shape[1]):
            S = np.argsort(-np.abs(U[:, i]), kind="stable")[:hp.k]
            A = H[np.ix_(S, S)] + baselines.RIDGE * np.eye(hp.k)
            Z[S, i] = np.linalg.solve(A, -b[S, i])
        g, f = evaluate(Z)
        trace.append(f)
        if not f < f_prev:
            break
        f_prev = f
    return Z


def _check_against_reference(state, X, hp):
    """Run update_Z and the per-column reference from the same state;
    supports must agree exactly, codes and trace to 1e-12 relative.
    Returns the trace."""
    ref_trace, trace = [], []
    ref = _reference_update_z(state, X, hp, ref_trace)
    Z = trainer.update_Z(state, X, hp, trace=trace).data
    assert np.array_equal(Z != 0, ref != 0)
    assert np.linalg.norm(Z - ref) <= 1e-12 * np.linalg.norm(ref)
    assert len(trace) == len(ref_trace)
    assert np.allclose(trace, ref_trace, rtol=1e-12, atol=0)
    return trace


def test_update_z_matches_full_selection_as_supports_change():
    # random dictionaries: some column's support moves after the first
    # step, so the loop runs past the step that repeats its solve
    rng = np.random.default_rng(38)
    for n, m, N, k, lam, theta, beta in [(8, 12, 40, 2, 0.1, 0.4, 1.1),
                                         (10, 16, 60, 3, 0.05, 0.01, 1.0),
                                         (12, 20, 50, 4, 0.3, 0.7, 0.5)]:
        hp = trainer.Hyperparams(m=m, k=k, lam=lam, theta=theta, beta=beta, iht_iters=40)
        state = _random_state(rng, n, m, N, k)
        trace = _check_against_reference(state, _data(rng, n, N), hp)
        assert len(trace) > 3


def test_update_z_matches_full_selection_on_settled_supports():
    # an orthonormal dictionary makes H a multiple of the identity, so the
    # first step selects each column's top k of |b| and the second keeps it
    rng = np.random.default_rng(39)
    for m, N, k in [(12, 30, 3), (8, 20, 8)]:
        Wq, _ = np.linalg.qr(rng.standard_normal((m, m)))
        hp = trainer.Hyperparams(m=m, k=k, iht_iters=20)
        state = trainer.TrainerState(W=Dictionary(Wq), Z=SparseCodeBatch(np.zeros((m, N)), k),
                                     Q=rng.standard_normal((m, N)),
                                     Y=rng.standard_normal((m, N)))
        trace = _check_against_reference(state, _data(rng, m, N), hp)
        assert len(trace) == 3 and trace[2] == trace[1]


def test_iht_step_is_at_most_099_over_largest_hessian_eigenvalue(monkeypatch):
    # k = m thresholds nothing, so init_state's codes are Z0 = W^T X and
    # the one step's selection sees Z0 - eta (H Z0 + b)
    hp = trainer.Hyperparams(m=32, k=32, iht_iters=1)
    X = _data(np.random.default_rng(4), 16, 60)
    state = trainer.init_state(X, hp, seed=9)
    W = state.W.data  # random_dictionary(16, 32, 9)
    Z0 = W.T @ X.data
    assert state.Z.data.tobytes() == Z0.tobytes()
    G = W.T @ W
    H = hp.theta * G + hp.beta * (G @ G)
    b = G @ (state.Y + hp.beta * (state.Q - W.T @ X.data)) - hp.theta * W.T @ X.data
    g = H @ Z0 + b
    selected = []

    def recording_top_k(M, k):
        selected.append(M.copy())
        return encoder.top_k_mask(M, k)

    monkeypatch.setattr(trainer, "top_k_mask", recording_top_k)
    trainer.update_Z(state, X, hp)
    assert len(selected) == 1
    step = Z0 - selected[0]
    eta = float((step * g).sum()) / float((g * g).sum())
    assert np.linalg.norm(step - eta * g) <= 1e-12 * np.linalg.norm(step)
    # H's eigenvalues are theta s + beta s^2 over the eigenvalues s of G,
    # the largest at the squared spectral norm of W
    s = np.linalg.norm(W, 2) ** 2
    assert 0 < eta * (hp.theta * s + hp.beta * s * s) <= 0.99 * (1 + 1e-12)


def test_update_z_duplicate_atoms_on_one_support_stay_finite():
    # two identical atoms carry most of every sample, so both sit on each
    # column's support and H restricted to it is singular
    rng = np.random.default_rng(42)
    n, m, N, k = 6, 8, 20, 3
    W = core.normalize_columns(rng.standard_normal((n, m))).data.copy()
    W[:, 5] = W[:, 2]
    X = DataMatrix(3.0 * W[:, [2]] + 0.1 * rng.standard_normal((n, N)))
    hp = trainer.Hyperparams(m=m, k=k)
    state = trainer.TrainerState(W=Dictionary(W), Z=SparseCodeBatch(np.zeros((m, N)), k),
                                 Q=np.zeros((m, N)), Y=np.zeros((m, N)))
    trace = []
    Z = trainer.update_Z(state, X, hp, trace=trace).data
    assert np.all(np.isfinite(Z))
    assert np.all((Z != 0).sum(axis=0) <= k)
    assert np.all((Z[2] != 0) & (Z[5] != 0))
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))


def test_update_z_on_its_own_output_stops_after_one_step(monkeypatch):
    # the step from a settled support would repeat its solve bit for bit,
    # so it does not lower the objective and the loop stops there; a step
    # that selects the previous step's supports stops before the solve
    solves = []

    def counted(*args):
        solves.append(1)
        return baselines.solve_on_supports(*args)

    monkeypatch.setattr(trainer, "solve_on_supports", counted)
    rng = np.random.default_rng(43)
    for n, m, N, k in [(8, 12, 40, 2), (10, 16, 60, 3), (12, 20, 50, 4)]:
        hp = trainer.Hyperparams(m=m, k=k, lam=0.1, theta=0.4, beta=1.1)
        state = _random_state(rng, n, m, N, k)
        X = _data(rng, n, N)
        first = []
        state.Z = trainer.update_Z(state, X, hp, trace=first)
        assert len(first) - 1 < hp.iht_iters
        assert len(solves) == len(first) - 2 and first[-1] == first[-2]
        solves.clear()
        again = []
        Z = trainer.update_Z(state, X, hp, trace=again)
        assert len(solves) == 1
        solves.clear()
        assert again == [first[-1], first[-1]]
        assert Z.data.tobytes() == state.Z.data.tobytes()


@pytest.mark.filterwarnings("error")
def test_train_keeps_all_zero_data_columns_at_zero_codes():
    # a zero data column has a zero thresholded step, so top_k_mask gives
    # it rows 0..k-1 and the solve on them returns zeros
    inst = bench.generate_synthetic(16, 24, 50, 3, 0.1, 0)
    Xd = inst.X.data.copy()
    Xd[:, [4, 9]] = 0.0
    hp = trainer.Hyperparams(m=24, k=3, outer_iters=5)
    _, state = trainer.train(DataMatrix(Xd), hp, seed=0)
    for A in (state.Z.data, state.Q, state.Y):
        assert not A[:, [4, 9]].any()
    rest = np.delete(state.Z.data, [4, 9], axis=1)
    assert np.all((rest != 0).sum(axis=0) == 3)


def test_update_q_lambda_zero_is_identity_target():
    rng = np.random.default_rng(24)
    n, m, N, k = 7, 10, 15, 2
    hp = trainer.Hyperparams(m=m, k=k, lam=0.0, theta=0.3, beta=0.8)
    state = _random_state(rng, n, m, N, k)
    X = _data(rng, n, N)
    Q = trainer.update_Q(state, X, hp)
    W = state.W.data
    C = W.T @ X.data - (W.T @ W) @ state.Z.data - state.Y / hp.beta
    assert np.allclose(Q, C, atol=1e-12)


def test_update_q_matches_per_column_prox():
    from dltf import prox

    rng = np.random.default_rng(25)
    n, m, N, k = 7, 12, 9, 3
    hp = trainer.Hyperparams(m=m, k=k, lam=0.6, theta=0.3, beta=1.5)
    state = _random_state(rng, n, m, N, k)
    X = _data(rng, n, N)
    Q = trainer.update_Q(state, X, hp)
    W = state.W.data
    C = W.T @ X.data - (W.T @ W) @ state.Z.data - state.Y / hp.beta
    gamma = hp.lam / hp.beta
    for i in range(N):
        assert np.allclose(Q[:, i], prox.prox_k2(C[:, i], hp.kprime, gamma),
                           atol=1e-12)


def test_update_q_beats_plain_passthrough():
    # prox output must score no worse than the unshrunk target on the
    # Q-subproblem objective
    rng = np.random.default_rng(26)
    n, m, N, k = 6, 10, 12, 2
    hp = trainer.Hyperparams(m=m, k=k, lam=0.9, theta=0.2, beta=0.7)
    state = _random_state(rng, n, m, N, k)
    X = _data(rng, n, N)
    W = state.W.data
    C = W.T @ X.data - (W.T @ W) @ state.Z.data - state.Y / hp.beta

    def q_objective(Q):
        from dltf.prox import k2_norm_sq

        pen = sum(k2_norm_sq(Q[:, i], hp.kprime) for i in range(N))
        return 0.5 * hp.lam * pen + 0.5 * hp.beta * np.linalg.norm(Q - C) ** 2

    Q = trainer.update_Q(state, X, hp)
    assert q_objective(Q) <= q_objective(C) + 1e-9


def test_prox_and_update_q_at_zero_weight_return_their_target_bit_for_bit():
    # why update_Q needs no lam == 0 branch: at gamma = 0 the prox is the
    # identity bit for bit, -0.0 entries and tied magnitudes included
    rng = np.random.default_rng(31)
    C = np.round(rng.standard_normal((10, 40)), 1)
    C[rng.random(C.shape) < 0.2] = 0.0
    C[rng.random(C.shape) < 0.2] = -0.0
    assert np.signbit(C[C == 0.0]).any() and not np.signbit(C[C == 0.0]).all()
    for kprime in (1, 4, 10):
        assert prox.prox_k2(C, kprime, 0.0).tobytes() == C.tobytes()
        for c in C.T:
            assert prox.prox_k2(c, kprime, 0.0).tobytes() == c.tobytes()
    n, m, N, k = 7, 10, 15, 2
    hp = trainer.Hyperparams(m=m, k=k, lam=0.0, theta=0.3, beta=0.8)
    state = _random_state(rng, n, m, N, k)
    X = _data(rng, n, N)
    W = state.W.data
    target = W.T @ (X.data - W @ state.Z.data) - state.Y / hp.beta
    assert trainer.update_Q(state, X, hp).tobytes() == target.tobytes()


def test_w_gradient_matches_finite_differences():
    rng = np.random.default_rng(27)
    worst = 0.0
    for trial in range(20):
        n, m, N, k = 5, 8, 11, 2
        hp = trainer.Hyperparams(m=m, k=k, lam=0.4, theta=0.6, beta=1.2)
        state = _random_state(rng, n, m, N, k)
        X = _data(rng, n, N)
        W = state.W.data + 0.05 * rng.standard_normal((n, m))
        grad = trainer.w_gradient(W, X, state.Z.data, state.Q, state.Y, hp)
        for _ in range(3):
            D = rng.standard_normal((n, m))
            D /= np.linalg.norm(D)
            h = 1e-6
            fp = trainer.w_objective(W + h * D, X, state.Z.data, state.Q,
                                     state.Y, hp)
            fm = trainer.w_objective(W - h * D, X, state.Z.data, state.Q,
                                     state.Y, hp)
            fd = (fp - fm) / (2 * h)
            an = float((grad * D).sum())
            rel = abs(fd - an) / max(1.0, abs(fd))
            worst = max(worst, rel)
    assert worst <= 1e-5


@pytest.mark.parametrize("fn", ["w_objective", "w_gradient"])
@pytest.mark.parametrize("name, shape", [
    ("Z", (8, 4)), ("Q", (8, 1)), ("Q", (5, 8)), ("Y", (8, 1)), ("Y", (1, 5)), ("W", (7, 8)),
])
def test_w_objective_rejects_mis_shaped_arrays(fn, name, shape):
    # on this 6 x 8 fixture with 5 samples, a Y of shape (8, 1) used to
    # broadcast against Z and return a wrong value with no error
    rng = np.random.default_rng(3)
    hp = trainer.Hyperparams(m=8, k=2)
    state = _random_state(rng, 6, 8, 5, 2)
    X = _data(rng, 6, 5)
    args = {"W": state.W.data, "Z": state.Z.data, "Q": state.Q, "Y": state.Y}
    args[name] = rng.standard_normal(shape)
    with pytest.raises(DimensionMismatch, match=f"^{name} "):
        getattr(trainer, fn)(args["W"], X, args["Z"], args["Q"], args["Y"], hp)


def test_w_objective_is_the_lagrangian_w_part():
    # the terms without W are the gauge penalty and <Y, Q>; the rest is
    # the dictionary-step objective
    rng = np.random.default_rng(32)
    worst = 0.0
    for beta, theta, lam in ((1.7, 0.4, 0.3), (0.3, 2.5, 0.05), (4.0, 0.0, 1.0),
                             (0.6, 0.05, 0.0)):
        for _ in range(5):
            n, m, N, k = 6, 9, 14, 3
            hp = trainer.Hyperparams(m=m, k=k, lam=lam, theta=theta, beta=beta)
            state = _random_state(rng, n, m, N, k)
            X = _data(rng, n, N)
            Q, Y = state.Q, state.Y
            got = (trainer.w_objective(state.W.data, X, state.Z.data, Q, Y, hp)
                   + 0.5 * hp.lam * prox.k2_norm_sq(Q, hp.kprime)
                   + float((Y * Q).sum()))
            expected = trainer.lagrangian_value(state, X, hp)
            worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
    assert worst <= 1e-10


def _reference_w_value(P, W):
    """Reference: the dictionary-step value computed apart from the gradient."""
    G = W.T @ W
    dev = G - P.eye
    a_sq = (
        float(np.vdot(W, P.XXt @ W))
        - 2.0 * float(np.vdot(G, P.ZXt @ W))
        + float(np.vdot(G, P.ZZt @ G))
    )
    return (
        float(np.vdot(dev, dev))
        - float(np.vdot(W, P.L))
        + float(np.vdot(G, P.K))
        + 0.5 * P.beta * a_sq
        + P.const
    )


def _reference_w_grad(P, W):
    """Reference: the dictionary-step gradient computed apart from the value."""
    G = W.T @ W
    XAt = P.XXt @ W - P.XZt @ G
    ZAt = P.ZXt @ W - P.ZZt @ G
    return (
        W @ (4.0 * (G - P.eye) + P.KKt - P.beta * (ZAt + ZAt.T))
        - P.L
        + P.beta * XAt
    )


def test_w_evaluate_matches_separate_value_and_gradient_bit_for_bit():
    # value and gradient share G, X X^T W, Z X^T W and Z Z^T G in one call; each
    # must still come out exactly as its own expression computes it
    rng = np.random.default_rng(41)
    for beta, theta, lam in ((1.7, 0.4, 0.3), (0.3, 2.5, 0.05), (4.0, 0.0, 1.0),
                             (0.6, 0.05, 0.0)):
        for _ in range(5):
            n, m, N, k = 6, 9, 14, 3
            hp = trainer.Hyperparams(m=m, k=k, lam=lam, theta=theta, beta=beta)
            state = _random_state(rng, n, m, N, k)
            X = _data(rng, n, N)
            args = (X, state.Z.data, state.Q, state.Y, hp)
            W = state.W.data + 0.05 * rng.standard_normal((n, m))
            P = trainer._WSubproblem(X.data, state.Z.data, state.Q, state.Y, hp)
            assert trainer.w_objective(W, *args).hex() == _reference_w_value(P, W).hex()
            assert trainer.w_gradient(W, *args).tobytes() == _reference_w_grad(P, W).tobytes()


def test_update_w_descends_and_stays_unit_norm():
    rng = np.random.default_rng(28)
    for trial in range(5):
        n, m, N, k = 8, 14, 20, 3
        hp = trainer.Hyperparams(m=m, k=k, lam=0.3, theta=0.5, beta=1.0,
                                 w_iters=40)
        state = _random_state(rng, n, m, N, k)
        X = _data(rng, n, N)
        before = trainer.w_objective(state.W.data, X, state.Z.data, state.Q,
                                     state.Y, hp)
        W_new = trainer.update_W(state, X, hp)
        after = trainer.w_objective(W_new.data, X, state.Z.data, state.Q,
                                    state.Y, hp)
        assert after <= before + 1e-10 * max(1.0, abs(before))
        assert np.max(np.abs(np.linalg.norm(W_new.data, axis=0) - 1.0)) <= 1e-8


def test_update_w_near_stationary_point_stays_put(monkeypatch):
    # orthonormal atoms (n >= m), data the dictionary represents exactly and
    # Y = Q = 0, lam = theta = 0: the gradient vanishes, so the step stops at
    # its starting point after the one evaluation there
    rng = np.random.default_rng(29)
    n, m, N, k = 12, 9, 10, 2
    W = Dictionary(np.linalg.qr(rng.standard_normal((n, m)))[0])
    Z = encoder.max_k_columns(rng.standard_normal((m, N)), k)
    state = trainer.TrainerState(W=W, Z=SparseCodeBatch(Z, k),
                                 Q=np.zeros((m, N)), Y=np.zeros((m, N)))
    hp = trainer.Hyperparams(m=m, k=k, lam=0.0, theta=0.0, w_iters=50)
    calls = []
    evaluate = trainer._WSubproblem.evaluate

    def counted(self, W):
        calls.append(1)
        return evaluate(self, W)

    monkeypatch.setattr(trainer._WSubproblem, "evaluate", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", LineSearchFailed)
        W_new = trainer.update_W(state, DataMatrix(W.data @ Z), hp)
    assert len(calls) == 1
    assert np.max(np.abs(W_new.data - W.data)) <= 1e-15


def _capped_w_values(state, X, hp):
    """Reference: the dictionary step with no stall stop, run to its
    w_iters cap (or its gradient stop); the values it accepts."""
    P = trainer._WSubproblem(X.data, state.Z.data, state.Q, state.Y, hp)
    W = state.W.data
    f, g = P.evaluate(W)
    values = [f]
    pg = trainer._project_tangent(W, g)
    pg_sq = float((pg * pg).sum())
    tau = 1.0 / (1.0 + math.sqrt(pg_sq))
    for _ in range(hp.w_iters):
        if math.sqrt(pg_sq) < 1e-6:
            break
        ref = max(values[-5:])
        t = tau
        for _ in range(20):
            W_new = trainer._retract(W, pg, t)
            if W_new is not None:
                f_new, g_new = P.evaluate(W_new)
                if f_new <= ref - 1e-4 * t * pg_sq:
                    break
            t *= 0.5
        else:
            break
        pg_new = trainer._project_tangent(W_new, g_new)
        y = pg_new - pg
        sy = float(((W_new - W) * y).sum())
        if sy != 0.0 and math.isfinite(sy):
            tau = min(max(abs(sy) / float((y * y).sum()), 1e-10), 1e10)
        else:
            tau = t
        W, pg = W_new, pg_new
        values.append(f_new)
        pg_sq = float((pg * pg).sum())
    return values


def test_update_w_stall_stop_is_a_prefix_of_the_capped_run(monkeypatch):
    # the stop cuts the capped run short and changes none of its iterates:
    # every evaluation and accepted value of the stopped run is the capped
    # run's, bit for bit, up to the first accepted step that lowered the
    # best value so far by less than 1e-6 |f|, where it stops
    calls = []
    evaluate = trainer._WSubproblem.evaluate

    def recorded(self, W):
        value, grad = evaluate(self, W)
        calls.append(value.hex())
        return value, grad

    small_gains = 0
    for seed in range(3):
        # a dictionary step after three rounds of training
        X = bench.generate_synthetic(12, 20, 200, 2, 0.1, seed).X
        hp = trainer.Hyperparams(m=20, k=2, outer_iters=3)
        _, state = trainer.train(X, hp, seed=seed)
        state.Z = trainer.update_Z(state, X, hp)
        state.Q = trainer.update_Q(state, X, hp)
        monkeypatch.setattr(trainer._WSubproblem, "evaluate", recorded)
        trace = []
        trainer.update_W(state, X, hp, trace=trace)
        stopped_calls, calls[:] = calls[:], []
        capped = _capped_w_values(state, X, hp)
        capped_calls, calls[:] = calls[:], []
        monkeypatch.undo()
        stall = next(j for j in range(1, len(capped))
                     if min(capped[:j]) - capped[j] < 1e-6 * abs(capped[j]))
        assert stall < hp.w_iters
        assert [v.hex() for v in trace] == [v.hex() for v in capped[:stall + 1]]
        assert stopped_calls == capped_calls[:len(stopped_calls)]
        assert len(stopped_calls) < len(capped_calls)
        small_gains += 0 < min(capped[:stall]) - capped[stall]
    assert small_gains >= 1  # a stop on a small decrease, not only on a rise


def test_update_w_line_search_failure_warns_and_keeps_the_input(monkeypatch):
    rng = np.random.default_rng(32)
    n, m, N, k = 6, 9, 10, 2
    hp = trainer.Hyperparams(m=m, k=k, lam=0.3, theta=0.5)
    state = _random_state(rng, n, m, N, k)
    X = _data(rng, n, N)
    monkeypatch.setattr(trainer, "_retract", lambda W, direction, tau: None)
    with pytest.warns(LineSearchFailed):
        W_new = trainer.update_W(state, X, hp)
    assert np.max(np.abs(W_new.data - state.W.data)) <= 1e-15


def test_line_search_failed_is_a_warning_category():
    assert issubclass(LineSearchFailed, RuntimeWarning)


def test_update_y_formula():
    rng = np.random.default_rng(30)
    n, m, N, k = 6, 9, 10, 2
    hp = trainer.Hyperparams(m=m, k=k, beta=1.7)
    state = _random_state(rng, n, m, N, k)
    X = _data(rng, n, N)
    Y_new = trainer.update_Y(state, X, hp)
    W = state.W.data
    R = state.Q - W.T @ (X.data - W @ state.Z.data)
    assert np.allclose(Y_new, state.Y + hp.beta * R, atol=1e-12)


def test_train_deterministic_and_invariant():
    rng = np.random.default_rng(31)
    n, m, N, k = 10, 14, 60, 3
    X = DataMatrix(rng.standard_normal((n, N)))
    hp = trainer.Hyperparams(m=m, k=k, outer_iters=5, iht_iters=20, w_iters=10)
    W1, s1 = trainer.train(X, hp, seed=42)
    W2, s2 = trainer.train(X, hp, seed=42)
    assert W1.data.tobytes() == W2.data.tobytes()
    assert s1.Z.data.tobytes() == s2.Z.data.tobytes()
    assert np.max(np.abs(np.linalg.norm(W1.data, axis=0) - 1.0)) <= 1e-8
    assert np.all((s1.Z.data != 0).sum(axis=0) <= k)
    assert len(s1.history) == 5
    for rec in s1.history:
        for key in ("iteration", "lagrangian", "primal_residual",
                    "max_colnorm_dev", "recon_error", "iht_steps", "w_steps",
                    "z_ms", "q_ms", "w_ms", "y_ms", "wall_ms"):
            assert key in rec
        assert rec["max_colnorm_dev"] <= 1e-8


@pytest.mark.parametrize("seed, error, message", [
    (True, TypeError, "^seed=True must be an integer$"),
    (-3, ValueError, "^seed=-3 must be at least 0$"),
], ids=["True", "-3"])
def test_train_names_a_bad_seed(seed, error, message):
    X = DataMatrix(np.random.default_rng(0).standard_normal((6, 10)))
    with pytest.raises(error, match=message):
        trainer.train(X, trainer.Hyperparams(m=8, k=2, outer_iters=1), seed=seed)


def test_train_seed_changes_result():
    rng = np.random.default_rng(32)
    X = DataMatrix(rng.standard_normal((8, 30)))
    hp = trainer.Hyperparams(m=10, k=2, outer_iters=2, iht_iters=10, w_iters=5)
    Wa, _ = trainer.train(X, hp, seed=1)
    Wb, _ = trainer.train(X, hp, seed=2)
    assert not np.allclose(Wa.data, Wb.data)


def test_train_pure_gram_reduces_coherence():
    # with lam = theta = 0 and a small beta the Gram penalty drives the
    # dictionary update, so coherence must not increase
    rng = np.random.default_rng(33)
    n, m, N, k = 12, 18, 40, 3
    X = DataMatrix(rng.standard_normal((n, N)))
    hp = trainer.Hyperparams(m=m, k=k, lam=0.0, theta=0.0, beta=1e-9,
                             outer_iters=6, iht_iters=5, w_iters=25)
    init = trainer.init_state(X, hp, seed=9)
    mu0 = guarantees.mutual_coherence(init.W).mu
    Wout, _ = trainer.train(X, hp, seed=9)
    mu1 = guarantees.mutual_coherence(Wout).mu
    assert mu1 <= mu0 + 1e-12


def test_train_orthonormal_noiseless_trends_down():
    # exactly representable data: reconstruction error and primal residual
    # should both trend down over the run
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        n = m = 10
        N, k = 80, 2
        Wq, _ = np.linalg.qr(rng.standard_normal((n, m)))
        Ztrue = encoder.max_k_columns(rng.standard_normal((m, N)), k)
        X = DataMatrix(Wq @ Ztrue)
        hp = trainer.Hyperparams(m=m, k=k, lam=0.05, theta=0.5, beta=1.0,
                                 outer_iters=8, iht_iters=30, w_iters=15)
        _, state = trainer.train(X, hp, seed=seed)
        recon = [rec["recon_error"] for rec in state.history]
        primal = [rec["primal_residual"] for rec in state.history]
        assert recon[-1] <= recon[0] + 1e-9
        assert primal[-1] <= primal[0] + 1e-9


def test_train_history_iterations_are_sequential():
    rng = np.random.default_rng(34)
    X = DataMatrix(rng.standard_normal((6, 30)))
    hp = trainer.Hyperparams(m=8, k=2, outer_iters=4, iht_iters=10, w_iters=5)
    _, state = trainer.train(X, hp, seed=3)
    assert [rec["iteration"] for rec in state.history] == [1, 2, 3, 4]


def test_train_stops_once_the_primal_residual_is_below_the_tolerance(monkeypatch):
    rng = np.random.default_rng(34)
    X = DataMatrix(rng.standard_normal((6, 30)))
    hp = trainer.Hyperparams(m=8, k=2, outer_iters=4, iht_iters=10, w_iters=5)
    _, full = trainer.train(X, hp, seed=3)
    # a tolerance above round 1's relative residual stops the run after it
    tol = 2.0 * full.history[0]["primal_residual"] / math.sqrt(hp.m * X.N)
    monkeypatch.setattr(trainer.Hyperparams, "primal_tol", tol)
    _, state = trainer.train(X, hp, seed=3)
    assert len(state.history) == 1
    rec = state.history[0]
    assert rec["primal_residual"] < hp.primal_tol * math.sqrt(hp.m * X.N)
    assert rec["primal_residual"] == full.history[0]["primal_residual"]
    assert len(full.history) == hp.outer_iters


def test_train_history_counts_iht_steps():
    rng = np.random.default_rng(40)
    X = DataMatrix(rng.standard_normal((8, 40)))
    hp = trainer.Hyperparams(m=12, k=2, outer_iters=4, iht_iters=60, w_iters=5)
    _, trained = trainer.train(X, hp, seed=4)
    state = trainer.init_state(X, hp, seed=4)
    for rec in trained.history:
        trace, w_trace = [], []
        state.Z = trainer.update_Z(state, X, hp, trace=trace)
        state.Q = trainer.update_Q(state, X, hp)
        state.W = trainer.update_W(state, X, hp, trace=w_trace)
        state.Y = trainer.update_Y(state, X, hp)
        assert rec["iht_steps"] == len(trace) - 1
        assert rec["w_steps"] == len(w_trace) - 1 <= hp.w_iters
        # train reads its diagnostics from one residual product: the same bits
        assert rec["lagrangian"] == trainer.lagrangian_value(state, X, hp)
        assert rec["primal_residual"] == trainer.primal_residual(state, X)
        assert rec["recon_error"] == float(np.linalg.norm(X.data - state.W.data @ state.Z.data))
    for got, replayed in ((trained.W.data, state.W.data), (trained.Z.data, state.Z.data),
                          (trained.Q, state.Q), (trained.Y, state.Y)):
        assert got.tobytes() == replayed.tobytes()
