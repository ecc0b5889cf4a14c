"""Tests of the benchmark itself: every workload's checks pass on tiny
inputs, and every check rejects a deliberately wrong output.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.use_checkout_dltf()

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from dltf import baselines, bench, encoder, prox, selftest, trainer  # noqa: E402


@pytest.fixture(scope="module")
def cell():
    inst = bench.generate_synthetic(8, 16, 60, 2, 0.1, seed=3)
    return inst.W0, inst.X


def test_reference_top_k_lower_index_wins_ties():
    C = np.array([[1.0], [-2.0], [2.0], [0.5]])
    assert checks.reference_top_k(C, 1)[:, 0].tolist() == [0.0, -2.0, 0.0, 0.0]
    assert checks.check_encode(np.eye(4), C, 1, encoder.max_k_columns(C, 1)) == []


def test_encode_check_rejects_a_moved_support_entry(cell):
    W, X = cell
    Z = encoder.encode_batch(W, X, 2)
    assert checks.check_encode(W.data, X.data, 2, Z) == []
    bad = Z.copy()
    kept = np.flatnonzero(bad[:, 0])[0]
    free = np.flatnonzero(bad[:, 0] == 0)[0]
    bad[free, 0], bad[kept, 0] = bad[kept, 0], 0.0
    assert checks.check_encode(W.data, X.data, 2, bad)


def test_omp_check_rejects_a_perturbed_coefficient(cell):
    W, X = cell
    Z = baselines.omp_batch(W, X, 3)
    assert checks.check_omp(W.data, X.data, 3, Z) == []
    bad = Z.copy()
    bad[np.flatnonzero(bad[:, 5])[1], 5] += 1e-6
    assert checks.check_omp(W.data, X.data, 3, bad)


def test_batch_omp_matches_dltf_omp(cell):
    W, X = cell
    np.testing.assert_allclose(checks.batch_omp(W.data, X.data, 3),
                               baselines.omp_batch(W, X, 3), atol=1e-10)


def test_training_check_rejects_a_scaled_atom_and_a_wrong_lagrangian(cell):
    _, X = cell
    hp = trainer.Hyperparams(m=16, k=2, outer_iters=3)
    W, state = trainer.train(X, hp, seed=0)
    args = (state.Z.data, state.Q, state.Y, X.data)
    assert checks.check_training(W.data, *args, state.history, hp) == []
    scaled = W.data.copy()
    scaled[:, 4] *= 1.001
    assert checks.check_training(scaled, *args, state.history, hp)
    history = [dict(h) for h in state.history]
    history[-1]["lagrangian"] *= 1.0 + 1e-8
    assert checks.check_training(W.data, *args, history, hp)


def test_ksvd_check_rejects_an_atom_scaled_off_unit_norm(cell):
    _, X = cell
    W = baselines.ksvd_train(X, 16, 2, iters=3, seed=5)
    assert checks.check_ksvd(W.data, X.data, 2, seed=5) == []
    scaled = W.data.copy()
    scaled[:, 0] *= 1.001
    assert checks.check_ksvd(scaled, X.data, 2, seed=5)


def test_prox_check_rejects_a_nudged_output_and_too_many_merges():
    c = np.random.default_rng(7).standard_normal(1000)
    q, merges = prox.prox_k2(c, 250, 1.0, return_merges=True)
    ref = checks.reference_prox(c, 250, 1.0)
    assert checks.check_prox(c, q, merges, ref) == []
    nudged = q.copy()
    nudged[17] += 1e-6
    assert checks.check_prox(c, nudged, merges, ref)
    assert checks.check_prox(c, q, c.size, ref)


def test_selftest_check_rejects_a_failed_flag():
    report = selftest.oracle_equivalence_suite(count=4, seed=1, total_iters=2000, ndirs=20)
    assert checks.check_selftest(report) == []
    assert checks.check_selftest(dict(report, sweep_ok=False))


@pytest.fixture
def tiny(monkeypatch):
    for name, value in (("N_FEATURES", 8), ("N_ATOMS", 16), ("N_TRAIN", 60),
                        ("N_HELD_OUT", 40), ("OMP_SAMPLES", 10), ("TRAIN_ROUNDS", 3),
                        ("KSVD_SWEEPS", 3), ("ENCODE_REPEATS", 2),
                        ("PROX_SIZES", (10**3, 10**4)),
                        ("PROX_REPEATS", {10**3: 2, 10**4: 1}), ("SELFTEST_COUNT", 4)):
        monkeypatch.setattr(workloads, name, value)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_passes_its_checks_traced_and_untraced(tiny, name):
    wl = workloads.make(name)
    wl.setup(seed=11)
    wl.prepare_checks()
    ops = wl.run_pass()
    wl.check(ops)
    assert [e for op in ops for e in op.errors] == []

    tracer = Tracer()
    tracer.pass_id = 0
    tracer.wrap_all(workloads.TRACED)
    try:
        traced_ops = wl.run_pass(tracer)
    finally:
        tracer.restore()
    assert not hasattr(trainer.update_Z, "__wrapped__")
    wl.check(traced_ops)
    assert [e for op in traced_ops for e in op.errors] == []
    layers = workloads.layer_metrics(tracer.spans, 0, traced_ops)
    if name == "dltf-k4":
        assert layers["trainer.iht_steps"] >= 3
        assert layers["prox.prox_k2_calls"] == 60
    if name == "ksvd-k8":
        assert layers["baselines.omp_calls"] == 3 * 60 + 10
    if name == "prox":
        assert layers["prox.prox_k2_calls"] == 3
        assert layers["prox.prox_objective_calls"] > 0


def test_missing_sources_stop_the_run(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit):
        run.use_checkout_dltf()
