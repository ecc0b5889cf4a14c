"""Tests for the random, OMP, and K-SVD reference methods."""

import numpy as np
import pytest

from dltf import baselines, bench, core, encoder
from dltf.core import DataMatrix
from dltf.errors import DimensionMismatch, InvalidK, SingularSubproblem


def test_random_dictionary_unit_norm_and_deterministic():
    W1 = core.random_dictionary(12, 20, seed=4)
    W2 = core.random_dictionary(12, 20, seed=4)
    W3 = core.random_dictionary(12, 20, seed=5)
    assert W1.data.tobytes() == W2.data.tobytes()
    assert not np.allclose(W1.data, W3.data)
    assert np.max(np.abs(np.linalg.norm(W1.data, axis=0) - 1.0)) <= 1e-12


def test_omp_exact_recovery_orthonormal():
    rng = np.random.default_rng(40)
    n = m = 16
    Wq, _ = np.linalg.qr(rng.standard_normal((n, m)))
    W = core.Dictionary(Wq)
    for _ in range(20):
        support = rng.choice(m, size=3, replace=False)
        coef = rng.uniform(0.5, 2.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        x = W.data[:, support] @ coef
        res = baselines.omp(W, x, 3)
        assert set(res.atoms) == set(support.tolist())
        assert res.residual_norm <= 1e-10
        assert np.allclose(res.code[support], coef, atol=1e-10)


def test_omp_early_stop_on_zero_residual():
    rng = np.random.default_rng(41)
    n = m = 8
    Wq, _ = np.linalg.qr(rng.standard_normal((n, m)))
    W = core.Dictionary(Wq)
    x = 2.0 * W.data[:, 5]
    res = baselines.omp(W, x, 4)
    assert res.atoms == (5,)
    assert np.count_nonzero(res.code) == 1


def test_omp_never_reselects_and_respects_k():
    rng = np.random.default_rng(42)
    W = core.random_dictionary(10, 25, seed=1)
    for _ in range(30):
        x = rng.standard_normal(10)
        res = baselines.omp(W, x, 6)
        assert len(res.atoms) == len(set(res.atoms)) <= 6
        assert np.count_nonzero(res.code) <= 6


def test_omp_residual_decreases_with_k():
    rng = np.random.default_rng(43)
    W = core.random_dictionary(12, 30, seed=2)
    x = rng.standard_normal(12)
    norms = [baselines.omp(W, x, k).residual_norm for k in (1, 3, 6, 12)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_omp_validation():
    W = core.random_dictionary(8, 12, seed=3)
    with pytest.raises(DimensionMismatch):
        baselines.omp(W, np.ones(9), 2)
    with pytest.raises(InvalidK):
        baselines.omp(W, np.ones(8), 0)
    with pytest.raises(InvalidK):
        baselines.omp(W, np.ones(8), 13)


def test_omp_singular_solve_raises(monkeypatch):
    def singular(A, b):
        raise np.linalg.LinAlgError("Singular matrix")

    W = core.random_dictionary(8, 12, seed=3)
    monkeypatch.setattr(baselines.np.linalg, "solve", singular)
    with pytest.raises(SingularSubproblem, match=r"^normal equations singular with atoms \[\d+\]$"):
        baselines.omp(W, np.ones(8), 2)


def _omp_reference(W, x, k):
    """omp as a plain loop that takes every norm with np.linalg.norm: the
    reference omp must match byte for byte. Returns (code, residual norm,
    atoms)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    picked, residual, coef = [], x.copy(), np.zeros(0)
    for _ in range(k):
        if float(np.linalg.norm(residual)) < baselines.RESIDUAL_FLOOR:
            break
        corr = np.abs(W.data.T @ residual)
        corr[picked] = -1.0
        picked.append(int(np.argmax(corr)))
        S = W.data[:, picked]
        coef = np.linalg.solve(S.T @ S + baselines.RIDGE * np.eye(len(picked)), S.T @ x)
        residual = x - S @ coef
    code = np.zeros(W.data.shape[1])
    code[picked] = coef
    return code, float(np.linalg.norm(residual)), tuple(picked)


def test_omp_matches_norm_reference_byte_for_byte():
    rng = np.random.default_rng(50)
    Wq, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    z = np.zeros(16)
    z[[3, 11]] = [1.5, -0.7]
    early = np.column_stack([Wq @ z, np.zeros(16)])  # stop after 2 atoms, and at once
    cases = [(core.Dictionary(Wq), DataMatrix(early), 4),
             (core.random_dictionary(64, 128, seed=11),
              DataMatrix(rng.standard_normal((64, 12))), None)]
    stops = []
    for W, X, k_only in cases:
        for k in (k_only,) if k_only else (1, 4, 8):
            for i in range(X.data.shape[1]):
                x = X.data[:, i]  # a strided column, as timing_compare passes it
                res = baselines.omp(W, x, k)
                code, rnorm, atoms = _omp_reference(W, x, k)
                assert res.code.tobytes() == code.tobytes()
                assert res.residual_norm.hex() == rnorm.hex()
                assert res.atoms == atoms
                stops.append(len(atoms))
    assert stops[:2] == [2, 0]


def _omp_per_sample(W, X, k):
    """Every column of X coded by its own omp call: omp_batch's reference."""
    return np.column_stack([baselines.omp(W, x, k).code for x in X.data.T])


def _assert_batch_matches_per_sample(W, X, k, tol=1e-12):
    Zs = _omp_per_sample(W, X, k)
    Zb = baselines.omp_batch(W, X, k)
    assert np.array_equal(Zb != 0, Zs != 0)
    assert np.max(np.abs(Zb - Zs), initial=0.0) <= tol


def test_omp_batch_matches_omp_on_random_dictionaries():
    rng = np.random.default_rng(47)
    W = core.random_dictionary(12, 20, seed=9)
    X = DataMatrix(rng.standard_normal((12, 60)))
    for k in (1, 3, 20):
        _assert_batch_matches_per_sample(W, X, k)
    # the shape of the benchmark cells, at both of their k
    W = core.random_dictionary(64, 128, seed=10)
    X = DataMatrix(rng.standard_normal((64, 150)))
    for k in (4, 8):
        _assert_batch_matches_per_sample(W, X, k)


def test_omp_batch_matches_per_sample():
    W = core.random_dictionary(9, 15, seed=6)
    X = DataMatrix(np.random.default_rng(44).standard_normal((9, 7)))
    _assert_batch_matches_per_sample(W, X, 3)


def test_omp_batch_early_stops_per_sample():
    # exactly 1-, 2- and 3-sparse samples coded at k=4 stop at different
    # steps; the all-zero column gets the zero code
    rng = np.random.default_rng(48)
    Wq, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    W = core.Dictionary(Wq)
    cols = []
    for s in (1, 2, 3, 1, 3, 2):
        z = np.zeros(10)
        z[rng.choice(10, s, replace=False)] = rng.uniform(0.5, 2.0, s)
        cols.append(Wq @ z)
    cols.append(np.zeros(10))
    X = DataMatrix(np.column_stack(cols))
    _assert_batch_matches_per_sample(W, X, 4)
    Z = baselines.omp_batch(W, X, 4)
    assert [np.count_nonzero(Z[:, i]) for i in range(7)] == [1, 2, 3, 1, 3, 2, 0]


def test_omp_batch_never_reselects():
    # atom 4 repeats atom 1, so their tie goes to the lower index; the
    # second sample leaves the atoms' span, so after atom 0 every step
    # picks a fresh atom whose coefficient is exactly zero, atom 4 last
    E = np.eye(5)
    W = core.Dictionary(np.column_stack([E[0], E[1], E[2], E[3], E[1]]))
    X = DataMatrix(np.column_stack([2.0 * E[1], E[0] + E[4]]))
    _assert_batch_matches_per_sample(W, X, 5)
    assert np.flatnonzero(baselines.omp_batch(W, X, 5).T).tolist() == [1, 5]
    rng = np.random.default_rng(49)
    _assert_batch_matches_per_sample(W, DataMatrix(rng.standard_normal((5, 20))), 4)


def test_omp_batch_validation():
    W = core.random_dictionary(8, 12, seed=3)
    with pytest.raises(DimensionMismatch):
        baselines.omp_batch(W, DataMatrix(np.ones((9, 2))), 2)
    with pytest.raises(InvalidK):
        baselines.omp_batch(W, DataMatrix(np.ones((8, 2))), 0)
    with pytest.raises(InvalidK):
        baselines.omp_batch(W, DataMatrix(np.ones((8, 2))), 13)


def test_omp_batch_singular_pivot_raises(monkeypatch):
    # a negative ridge makes the first pivot of every unit-norm atom
    # negative; with no ridge, the last step of the second sample below
    # picks atom 4, a copy of its picked atom 1, and the pivot is exactly 0
    W = core.random_dictionary(8, 12, seed=3)
    monkeypatch.setattr(baselines, "RIDGE", -2.0)
    with pytest.raises(SingularSubproblem):
        baselines.omp_batch(W, DataMatrix(np.ones((8, 2))), 2)
    E = np.eye(5)
    W = core.Dictionary(np.column_stack([E[0], E[1], E[2], E[3], E[1]]))
    X = DataMatrix(np.column_stack([2.0 * E[1], E[0] + E[4]]))
    monkeypatch.setattr(baselines, "RIDGE", 0.0)
    baselines.omp_batch(W, X, 4)
    with pytest.raises(SingularSubproblem):
        baselines.omp_batch(W, X, 5)


def test_omp_batch_residual_screen_keeps_omp_stops():
    # exactly s-sparse samples, s = 1..8, coded at k = 8: the explicit
    # residual stops them after s steps at scales 1e-6 and 1, and at 1e6
    # its rounding stays above the floor; the Gram-form screen must pass
    # every sample the floor stops, at each scale
    W = core.random_dictionary(64, 128, seed=12)
    rng = np.random.default_rng(52)
    sparsity = np.repeat(np.arange(1, 9), 3)
    for scale in (1e-6, 1.0, 1e6):
        cols = []
        for s in sparsity:
            z = np.zeros(128)
            z[rng.choice(128, s, replace=False)] = rng.uniform(0.5, 2.0, s) * rng.choice([-1, 1], s)
            cols.append(W.data @ (scale * z))
        X = DataMatrix(np.column_stack(cols))
        _assert_batch_matches_per_sample(W, X, 8, tol=1e-12 * scale)
        steps = [len(baselines.omp(W, x, 8).atoms) for x in X.data.T]
        assert steps == (sparsity.tolist() if scale < 1e6 else [8] * sparsity.size)


def test_solve_on_supports_matches_per_column_solves():
    rng = np.random.default_rng(45)
    B = rng.standard_normal((10, 10))
    M = B @ B.T
    S = np.array([rng.choice(10, 3, replace=False) for _ in range(6)])
    rhs = rng.standard_normal((6, 3))
    x = baselines.solve_on_supports(M, S, rhs)
    for i in range(6):
        A = M[np.ix_(S[i], S[i])] + baselines.RIDGE * np.eye(3)
        assert np.allclose(x[i], np.linalg.solve(A, rhs[i]), rtol=1e-12, atol=0)


def _ksvd_instance(seed):
    rng = np.random.default_rng(300 + seed)
    n, m, N, k = 16, 24, 400, 3
    W0 = core.normalize_columns(rng.standard_normal((n, m)))
    Z = np.zeros((m, N))
    for i in range(N):
        Z[rng.choice(m, k, replace=False), i] = rng.uniform(0.5, 1.5)
    X = DataMatrix(W0.data @ Z + 0.02 * rng.standard_normal((n, N)))
    return W0, Z, X, k


def test_ksvd_learns_generator_atoms():
    # overcomplete 16x24 with mild noise: most atoms should be recovered
    # and the data fit must beat the random initialization clearly
    for seed in (0, 1, 2):
        W0, Z, X, k = _ksvd_instance(seed)
        n, m = W0.data.shape
        Wk = baselines.ksvd_train(X, m, k, iters=12, seed=seed)
        Wa = bench.align_atoms(Wk, W0)
        match = np.abs((Wa.data * W0.data).sum(axis=0))
        assert np.median(match) >= 0.6
        Wi = core.random_dictionary(n, m, seed)
        e_init = np.linalg.norm(X.data - Wi.data @ baselines.omp_batch(Wi, X, k))
        e_out = np.linalg.norm(X.data - Wk.data @ baselines.omp_batch(Wk, X, k))
        assert e_out <= 0.7 * e_init


def test_ksvd_output_unit_norm_and_deterministic():
    _, _, X, k = _ksvd_instance(0)
    W1 = baselines.ksvd_train(X, 24, k, iters=3, seed=7)
    W2 = baselines.ksvd_train(X, 24, k, iters=3, seed=7)
    assert W1.data.tobytes() == W2.data.tobytes()
    assert np.max(np.abs(np.linalg.norm(W1.data, axis=0) - 1.0)) <= 1e-12


def test_ksvd_handles_unused_atoms():
    # more atoms than distinct training directions forces dead atoms;
    # they must be reseeded from data and stay finite and unit-norm
    rng = np.random.default_rng(45)
    n, m, N, k = 8, 12, 6, 1
    X = DataMatrix(rng.standard_normal((n, N)))
    W = baselines.ksvd_train(X, m, k, iters=2, seed=8)
    assert np.all(np.isfinite(W.data))
    assert np.max(np.abs(np.linalg.norm(W.data, axis=0) - 1.0)) <= 1e-12


def _ksvd_sweep_reference(X, m, k, seed):
    """One approximate K-SVD sweep in plain loops, from ksvd_train's start.

    Each used atom's residual is recomputed from X, W and the codes
    updated so far; the atom takes one alternating step from its codes g,
    W[:, j] = Rg / ||Rg|| and codes R^T W[:, j]. Unused atoms are reseeded
    as ksvd_train does. Returns W and the residual's Frobenius norm before
    the sweep and after each atom.
    """
    Xd = X.data
    n, N = Xd.shape
    W = core.random_dictionary(n, m, seed).data.copy()
    Z = _omp_per_sample(core.Dictionary(W), X, k)
    order = np.argsort(-np.linalg.norm(Xd - W @ Z, axis=0))
    norms = [np.linalg.norm(Xd - W @ Z)]
    reseeds = 0
    for j in range(m):
        uses = [i for i in range(N) if Z[j, i] != 0.0]
        if not uses:
            col = Xd[:, order[reseeds] if reseeds < N else order[0]]
            reseeds += 1
            if np.linalg.norm(col) > 1e-12:
                W[:, j] = col / np.linalg.norm(col)
        else:
            g = Z[j, uses]
            R = Xd[:, uses] - W @ Z[:, uses] + np.outer(W[:, j], g)
            if np.linalg.norm(R @ g) >= 1e-300:
                W[:, j] = R @ g / np.linalg.norm(R @ g)
                Z[j, uses] = R.T @ W[:, j]
        norms.append(np.linalg.norm(Xd - W @ Z))
    return W, norms


def test_ksvd_sweep_matches_plain_loop_reference():
    # six samples and k=2 use at most 12 of 30 atoms: reseeds run past
    # the last sample and wrap to the worst one
    rng = np.random.default_rng(48)
    for n in (8, 16):
        X = DataMatrix(rng.standard_normal((n, 6)))
        W_ref, norms = _ksvd_sweep_reference(X, 30, 2, seed=3)
        # each step is a rank-1 refit, and a reseed touches no code
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
        assert norms[-1] < norms[0]
        W = baselines.ksvd_train(X, 30, 2, iters=1, seed=3)
        assert np.max(np.abs(W.data - core.normalize_columns(W_ref).data)) <= 1e-12


def test_ksvd_validation():
    rng = np.random.default_rng(46)
    X = DataMatrix(rng.standard_normal((6, 20)))
    with pytest.raises(InvalidK):
        baselines.ksvd_train(X, 10, 0)
    with pytest.raises(InvalidK):
        baselines.ksvd_train(X, 10, 11)
    for iters in (0, -3):
        with pytest.raises(ValueError, match=f"^iters={iters} must be at least 1$"):
            baselines.ksvd_train(X, 10, 2, iters=iters)
    for iters in (1.5, 2.0, "3"):
        with pytest.raises(TypeError, match="^iters=.* must be an integer$"):
            baselines.ksvd_train(X, 10, 2, iters=iters)
    with pytest.raises(TypeError, match="^seed=True must be an integer$"):
        baselines.ksvd_train(X, 10, 2, iters=1, seed=True)
    with pytest.raises(ValueError, match="^seed=-1 must be at least 0$"):
        baselines.ksvd_train(X, 10, 2, iters=1, seed=-1)
    with pytest.raises(TypeError, match="^m=8.5 must be an integer$"):
        baselines.ksvd_train(X, 8.5, 2, iters=1)


def test_ksvd_codes_as_per_sample_omp(monkeypatch):
    _, _, X, k = _ksvd_instance(0)
    W_batch = baselines.ksvd_train(X, 24, k, iters=5, seed=0)
    monkeypatch.setattr(baselines, "omp_batch", _omp_per_sample)
    W_omp = baselines.ksvd_train(X, 24, k, iters=5, seed=0)
    assert np.max(np.abs(W_batch.data - W_omp.data)) <= 1e-12


def test_ksvd_codes_through_omp_batch_once_per_sweep(monkeypatch):
    # perfbench's K-SVD layer metrics count omp_batch spans under
    # ksvd_train, so each sweep must code through baselines.omp_batch
    calls = []
    for name in ("omp_batch", "omp"):
        fn = getattr(baselines, name)
        monkeypatch.setattr(baselines, name,
                            lambda *a, name=name, fn=fn: calls.append(name) or fn(*a))
    _, _, X, k = _ksvd_instance(0)
    baselines.ksvd_train(X, 24, k, iters=3, seed=0)
    assert calls == ["omp_batch"] * 3
