"""Acceptance gate: eight product-level criteria, one printed verdict line
each. These are benchmark-grade checks, deliberately heavier than the unit
suites; the support-recovery table runs once and feeds two criteria."""

import json
import math
import time

import numpy as np
import pytest

from dltf import (
    baselines,
    bench,
    cli,
    core,
    encoder,
    guarantees,
    prox,
    selftest,
    trainer,
)
from dltf.core import DataMatrix
from dltf.errors import DeltaOutOfRange
from soundness_utils import (
    noisy_instance,
    recovers_support,
    weak_instance,
)


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}",
              flush=True)
    return ok


@pytest.fixture(scope="module")
def table_bench():
    """The reduced-scale support-recovery table, computed once."""
    report = bench.run_support_recovery_bench(bench.BenchConfig())
    assert not report["partial"]
    means = {}
    for cell in report["cells"]:
        means.setdefault((cell["method"], cell["k"]), []).append(cell["ave_dif"])
    means = {key: sum(v) / len(v) for key, v in means.items()}
    return report, means


def test_criterion_1_prox_oracle_equivalence(capsys):
    t0 = time.time()
    rep = selftest.oracle_equivalence_suite(count=1000, seed=12345)
    elapsed = time.time() - t0
    ok = rep["oracle_ok"] and rep["sweep_ok"] and elapsed < 60.0
    assert verdict(
        capsys, 1, ok,
        f"{rep['count']} instances, max objective gap {rep['max_gap']:.2e} "
        f"(allowed 1e-9), min sweep margin {rep['min_sweep_margin']:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_prox_scaling(capsys):
    rng = np.random.default_rng(202)
    t0 = time.time()
    ratios = []
    merges_ok = True
    for m in (10**3, 10**4, 10**5, 10**6):
        c = rng.standard_normal(m)
        times = []
        for _ in range(5):
            tic = time.perf_counter()
            _, merges = prox.prox_k2(c, m // 4, 1.0, return_merges=True)
            times.append(time.perf_counter() - tic)
        merges_ok = merges_ok and merges <= m - 1
        ratios.append(min(times) / (m * math.log(m)))
    elapsed = time.time() - t0
    spread = max(ratios) / min(ratios)
    ok = spread <= 3.0 and merges_ok and elapsed < 60.0
    assert verdict(
        capsys, 2, ok,
        f"t/(m log m) spread {spread:.2f}x across four decades "
        f"(allowed 3x), merge counts within m-1: {merges_ok}, {elapsed:.1f}s",
    )


def test_criterion_3_support_recovery_table(capsys, table_bench):
    _, means = table_bench
    orig4, rand4 = means[("original", 4)], means[("random", 4)]
    ksvd4, dltf4 = means[("ksvd", 4)], means[("dltf", 4)]
    orig8, rand8 = means[("original", 8)], means[("random", 8)]
    ksvd8, dltf8 = means[("ksvd", 8)], means[("dltf", 8)]
    clauses = {
        "orig4_band": 0.15 <= orig4 <= 0.65,
        "rand4_band": 3.2 <= rand4 <= 4.6,
        "dltf4_bar": dltf4 <= 0.9,
        "dltf4_beats_ksvd": dltf4 < ksvd4,
        "k8_ordering": orig8 < dltf8 < ksvd8 < rand8,
    }
    ok = all(clauses.values())
    failed = [name for name, held in clauses.items() if not held]
    assert verdict(
        capsys, 3, ok,
        f"k=4 orig {orig4:.3f} rand {rand4:.3f} ksvd {ksvd4:.3f} "
        f"dltf {dltf4:.3f}; k=8 orig {orig8:.3f} dltf {dltf8:.3f} "
        f"ksvd {ksvd8:.3f} rand {rand8:.3f}"
        + (f"; failed clauses: {failed}" if failed else ""),
    )


def test_criterion_4_coherence_figures(capsys, table_bench):
    report, _ = table_bench
    mus = []
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([404, seed]))
        W = core.normalize_columns(rng.standard_normal((64, 128)))
        mus.append(guarantees.mutual_coherence(W).mu)
    random_mu = float(np.mean(mus))
    cells = [c for c in report["cells"] if c["method"] == "dltf"]
    trained_mu = float(np.mean([c["coherence"] for c in cells]))
    nondecrease_ok = all(
        c["coherence"] <= c["init_coherence"] + 0.05 for c in cells
    )
    clauses = {
        "random_band": 0.40 <= random_mu <= 0.60,
        "trained_band": 0.40 <= trained_mu <= 0.70,
        "within_init_margin": nondecrease_ok,
    }
    ok = all(clauses.values())
    failed = [name for name, held in clauses.items() if not held]
    assert verdict(
        capsys, 4, ok,
        f"random-dictionary mean coherence {random_mu:.3f} "
        f"(band [0.40, 0.60]), trained mean {trained_mu:.3f} "
        f"(band [0.40, 0.70])"
        + (f"; failed clauses: {failed}" if failed else ""),
    )


def strong_table_instance(seed):
    rng = np.random.default_rng(np.random.SeedSequence([505, seed]))
    W = core.normalize_columns(rng.standard_normal((10, 16)))
    z = np.zeros(16)
    idx = rng.choice(16, size=2, replace=False)
    z[idx] = np.where(rng.random(2) < 0.5, -1.0, 1.0) * rng.uniform(0.5, 2.0)
    e = rng.standard_normal(10) * 1e-3
    return W, z, e


def test_criterion_5_guarantee_soundness(capsys):
    t0 = time.time()
    weak_held = 0
    counterexamples = 0
    for seed in range(10_000):
        W, z = weak_instance(seed)
        if guarantees.weak_condition(W, z).holds:
            weak_held += 1
            if not recovers_support(W, z, np.zeros(W.n)):
                counterexamples += 1
    noisy_held = 0
    for seed in range(1_000):
        W, z, e = noisy_instance(seed)
        if guarantees.weak_condition_noisy(W, z, e).holds:
            noisy_held += 1
            if not recovers_support(W, z, e):
                counterexamples += 1
    strong_evaluable = strong_held = 0
    for seed in range(200):
        W, z, e = strong_table_instance(seed)
        delta = guarantees.rip_constant_exhaustive(W, 4)
        try:
            v = guarantees.strong_condition(W, z, e, delta)
        except DeltaOutOfRange:
            continue
        strong_evaluable += 1
        if v.holds:
            strong_held += 1
            if not recovers_support(W, z, e):
                counterexamples += 1
    elapsed = time.time() - t0
    ok = counterexamples == 0 and weak_held > 0 and noisy_held > 0 \
        and elapsed < 120.0
    assert verdict(
        capsys, 5, ok,
        f"counterexamples {counterexamples}; weak held {weak_held}/10000, "
        f"noisy held {noisy_held}/1000, strong evaluable "
        f"{strong_evaluable}/200 (16 unit atoms in R^10 force the isometry "
        f"constant past the strong condition's admissible range, so that "
        f"clause is vacuous), {elapsed:.1f}s",
    )


def test_criterion_6_trainer_numerics(capsys):
    # analytic W-gradient against central differences, off-manifold points
    max_rel = 0.0
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([606, seed]))
        n, m, N, k = 6, 9, 14, 2
        X = DataMatrix(rng.standard_normal((n, N)))
        hp = trainer.Hyperparams(m=m, k=k)
        state = trainer.init_state(X, hp, seed=seed)
        Z = encoder.max_k_columns(rng.standard_normal((m, N)), k)
        Q = rng.standard_normal((m, N))
        Y = rng.standard_normal((m, N))
        W = state.W.data + 0.05 * rng.standard_normal((n, m))
        grad = trainer.w_gradient(W, X, Z, Q, Y, hp)
        for _ in range(3):
            D = rng.standard_normal((n, m))
            D /= np.linalg.norm(D)
            h = 1e-6
            fd = (trainer.w_objective(W + h * D, X, Z, Q, Y, hp)
                  - trainer.w_objective(W - h * D, X, Z, Q, Y, hp)) / (2 * h)
            an = float((grad * D).sum())
            max_rel = max(max_rel, abs(fd - an) / max(1.0, abs(fd)))
    grad_ok = max_rel <= 1e-5

    # IHT inner objective never ascends
    iht_ok = True
    for seed in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([607, seed]))
        X = DataMatrix(rng.standard_normal((8, 20)))
        hp = trainer.Hyperparams(m=12, k=3)
        state = trainer.init_state(X, hp, seed=seed)
        state.Q = rng.standard_normal((12, 20))
        state.Y = rng.standard_normal((12, 20))
        trace: list = []
        trainer.update_Z(state, X, hp, trace=trace)
        diffs = np.diff(np.asarray(trace))
        iht_ok = iht_ok and bool(
            np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))))

    # invariants after every outer round, plus Lagrangian cross-check
    invariants_ok = True
    lag_rel = 0.0
    for seed in range(3):
        rng = np.random.default_rng(np.random.SeedSequence([608, seed]))
        X = DataMatrix(rng.standard_normal((10, 30)))
        hp = trainer.Hyperparams(m=14, k=3, outer_iters=5)
        state = trainer.init_state(X, hp, seed=seed)
        for _ in range(hp.outer_iters):
            state.Z = trainer.update_Z(state, X, hp)
            state.Q = trainer.update_Q(state, X, hp)
            state.W = trainer.update_W(state, X, hp)
            state.Y = trainer.update_Y(state, X, hp)
            norms = np.linalg.norm(state.W.data, axis=0)
            invariants_ok = invariants_ok and bool(
                np.max(np.abs(norms - 1.0)) <= 1e-8)
            invariants_ok = invariants_ok and bool(
                np.all((state.Z.data != 0).sum(axis=0) <= hp.k))
            got = trainer.lagrangian_value(state, X, hp)
            W, Z, Q, Y = (state.W.data, state.Z.data, state.Q, state.Y)
            R = Q - W.T @ (X.data - W @ Z)
            G = W.T @ W
            want = (
                0.5 * hp.lam * sum(
                    prox.k2_norm_sq(Q[:, i], min(2 * hp.k, hp.m))
                    for i in range(Q.shape[1]))
                + float(((G - np.eye(hp.m)) ** 2).sum())
                + 0.5 * hp.theta
                * float(((X.data - W @ Z) ** 2).sum())
                + float((Y * R).sum())
                + 0.5 * hp.beta * float((R * R).sum())
            )
            lag_rel = max(lag_rel, abs(got - want) / max(1.0, abs(want)))
    lag_ok = lag_rel <= 1e-10

    ok = grad_ok and iht_ok and invariants_ok and lag_ok
    assert verdict(
        capsys, 6, ok,
        f"gradient max rel err {max_rel:.2e} (allowed 1e-5), IHT monotone "
        f"{iht_ok}, per-round invariants {invariants_ok}, Lagrangian "
        f"recomputation rel err {lag_rel:.2e} (allowed 1e-10)",
    )


def test_criterion_7_encoding_speed(capsys):
    rec = bench.timing_compare(bench.BenchConfig(k_list=(8,)))
    ok = rec["ratio"] >= 3.0
    assert verdict(
        capsys, 7, ok,
        f"thresholded encode {rec['thresholded_s']*1e3:.1f}ms vs per-sample "
        f"OMP {rec['omp_s']:.2f}s at n=64 m=128 N=2000 k=8, ratio "
        f"{rec['ratio']:.0f}x (required 3x)",
    )


def test_criterion_8_benchmark_determinism(capsys, tmp_path):
    args = ["synth-bench", "--n", "32", "--m", "48", "--N", "400",
            "--k", "4", "--seed", "0", "--methods",
            "original,random,ksvd,dltf"]
    paths = []
    for tag in ("a", "b"):
        prefix = str(tmp_path / tag)
        assert cli.main(args + ["--out", prefix]) == 0
        paths.append(prefix + ".csv")
    with open(paths[0], "rb") as fh:
        first = fh.read()
    with open(paths[1], "rb") as fh:
        second = fh.read()
    ok = first == second
    assert verdict(
        capsys, 8, ok,
        f"two synth-bench runs, CSV reports byte-identical: {ok} "
        f"({len(first)} bytes)",
    )
