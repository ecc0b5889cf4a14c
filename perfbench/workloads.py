"""The three workloads: inputs from a seed, one timed pass, checks and
per-layer metrics.

A pass is a fixed sequence of operations; a run repeats whole passes on
the same inputs, so every pass does the same work. Operations are called
through module attributes (``trainer.train``, ``encoder.encode_batch``)
so that a traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from dltf import baselines, bench, encoder, prox, selftest, trainer
from dltf.core import DataMatrix
from dltf.errors import LineSearchFailed

import checks
from tracing import SpanIndex

# The synth-bench default cell.
N_FEATURES = 64
N_ATOMS = 128
N_TRAIN = 2000
N_HELD_OUT = 2000
NOISE_STD = 0.1
LAM, THETA, BETA = 0.05, 0.01, 1.0

TRAIN_ROUNDS = 10
KSVD_SWEEPS = 10
ENCODE_REPEATS = 20
OMP_SAMPLES = 500

# Criterion 2's upper decades, k' = m/4, gamma = 1.
PROX_SIZES = (10**5, 10**6)
PROX_REPEATS = {10**5: 5, 10**6: 2}
PROX_GAMMA = 1.0
SELFTEST_COUNT = 200

NAMES = ("dltf-k4", "ksvd-k8", "prox")

# Module attributes a traced run wraps. Callers inside dltf look these
# names up at call time, so the wrappers see nested calls too.
TRACED = (
    (trainer, ("train", "update_Z", "update_Q", "update_W", "update_Y",
               "lagrangian_value", "primal_residual", "max_k_columns", "prox_k2")),
    (encoder, ("encode_batch", "max_k_columns")),
    (prox, ("prox_k2", "prox_objective")),
    (selftest, ("oracle_equivalence_suite", "subgradient_best", "direction_sweep_margin")),
    (baselines, ("ksvd_train", "omp_batch", "omp")),
    (bench, ("generate_synthetic",)),
)


@dataclass
class Op:
    """One attempted operation: its wall time, output and check result."""

    name: str
    seconds: float = math.nan
    output: object = None
    errors: list = field(default_factory=list)


def _timed(name: str, fn, *args, **kwargs) -> Op:
    op = Op(name)
    t0 = time.perf_counter()
    try:
        op.output = fn(*args, **kwargs)
    except Exception as exc:  # an operation that raises counts as failed
        op.errors.append(f"{name}: raised {type(exc).__name__}: {exc}")
    op.seconds = time.perf_counter() - t0
    return op


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _size_label(m: int) -> str:
    """10**5 -> '1e5'."""
    return f"{m:.0e}".replace("e+0", "e")


def _derived_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


class CellWorkload:
    """Learn a dictionary on one synthetic cell, then code a held-out set
    with it: thresholded encoding of all of it and OMP on a slice."""

    def __init__(self, name: str, method: str, k: int):
        self.name, self.method, self.k = name, method, k

    def setup(self, seed: int) -> None:
        inst = bench.generate_synthetic(N_FEATURES, N_ATOMS, N_TRAIN + N_HELD_OUT,
                                        self.k, NOISE_STD, seed)
        X = inst.X.data
        self.W0 = inst.W0
        self.X_train = DataMatrix(X[:, :N_TRAIN])
        self.X_test = DataMatrix(X[:, N_TRAIN:])
        self.X_omp = DataMatrix(X[:, N_TRAIN:N_TRAIN + OMP_SAMPLES])
        self.Z_test = inst.Ztrue.data[:, N_TRAIN:]
        self.learn_seed = _derived_seed(seed, 1)
        self.hp = trainer.Hyperparams(m=N_ATOMS, k=self.k, lam=LAM, theta=THETA,
                                      beta=BETA, outer_iters=TRAIN_ROUNDS)
        # warm-up: BLAS threads, the encoder and OMP paths
        encoder.encode_batch(self.W0, self.X_test, self.k)
        baselines.omp(self.W0, self.X_omp.data[:, 0], self.k)

    def _learn(self):
        """(dictionary, trainer state or None, LineSearchFailed count)."""
        if self.method == "ksvd":
            W = baselines.ksvd_train(self.X_train, N_ATOMS, self.k,
                                     iters=KSVD_SWEEPS, seed=self.learn_seed)
            return W, None, 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", LineSearchFailed)
            W, state = trainer.train(self.X_train, self.hp, seed=self.learn_seed)
        fails = sum(issubclass(w.category, LineSearchFailed) for w in caught)
        return W, state, fails

    def run_pass(self, tracer=None) -> list[Op]:
        learn = _timed("train", self._learn)
        ops = [learn]
        W = None if learn.errors else learn.output[0]
        for _ in range(ENCODE_REPEATS):
            ops.append(_timed("encode", encoder.encode_batch, W, self.X_test, self.k)
                       if W is not None else Op("encode", errors=["encode: no dictionary"]))
        ops.append(_timed("omp", baselines.omp_batch, W, self.X_omp, self.k)
                   if W is not None else Op("omp", errors=["omp: no dictionary"]))
        return ops

    def prepare_checks(self) -> None:
        pass

    def check(self, ops: list[Op]) -> None:
        learn = ops[0]
        if learn.errors:
            return
        W, state, _ = learn.output
        if state is None:
            learn.errors += checks.check_ksvd(W.data, self.X_train.data, self.k, self.learn_seed)
        else:
            learn.errors += checks.check_training(
                W.data, state.Z.data, state.Q, state.Y, self.X_train.data,
                state.history, self.hp)
        ref = checks.reference_top_k(W.data.T @ self.X_test.data, self.k)
        for op in ops[1:-1]:
            if not op.errors:
                op.errors += checks.check_encode(W.data, self.X_test.data, self.k,
                                                 op.output, ref=ref)
        omp_op = ops[-1]
        if not omp_op.errors:
            omp_op.errors += checks.check_omp(W.data, self.X_omp.data, self.k, omp_op.output)

    def reference_figures(self, ops: list[Op]) -> dict:
        """Held-out support error of the learned dictionary (not a metric)."""
        if ops[0].errors:
            return {}
        W = ops[0].output[0]
        Z = encoder.encode_batch(bench.align_atoms(W, self.W0), self.X_test, self.k)
        return {"ave_dif": encoder.ave_dif(Z, self.Z_test)}

    def op_metrics(self, passes: list[list[Op]]) -> dict:
        """The operation metrics of one run, medians over its passes."""
        encode_s = [op.seconds for ops in passes for op in ops[1:-1]]
        return {
            "train_s": (statistics.median(ops[0].seconds for ops in passes), "s"),
            "encode_samples_per_s": (N_HELD_OUT / statistics.median(encode_s), "samples/s"),
            "omp_samples_per_s": (OMP_SAMPLES / statistics.median(ops[-1].seconds for ops in passes),
                                  "samples/s"),
        }


def _long_sizes() -> list[int]:
    """The vector length of each long-vector prox call, in pass order."""
    return [m for m in PROX_SIZES for _ in range(PROX_REPEATS[m])]


class ProxWorkload:
    """The prox on long single vectors, then the prox self-test suite."""

    name = "prox"

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.vectors = {m: rng.standard_normal(m) for m in PROX_SIZES}
        # warm-up: the prox and every stage of the suite at toy size
        prox.prox_k2(rng.standard_normal(1000), 250, PROX_GAMMA)
        selftest.oracle_equivalence_suite(count=2, seed=seed, total_iters=50, ndirs=5)

    def run_pass(self, tracer=None) -> list[Op]:
        ops = []
        for m in PROX_SIZES:
            with _span(tracer, f"perfbench.long_prox.{_size_label(m)}"):
                for _ in range(PROX_REPEATS[m]):
                    ops.append(_timed("prox_k2", prox.prox_k2, self.vectors[m],
                                      m // 4, PROX_GAMMA, return_merges=True))
        ops.append(_timed("selftest", selftest.oracle_equivalence_suite,
                          count=SELFTEST_COUNT, seed=self.seed))
        return ops

    def prepare_checks(self) -> None:
        """Reference proxes, made before the first pass so that every pass
        runs with the same memory already in use."""
        self.refs = {m: checks.reference_prox(self.vectors[m], m // 4, PROX_GAMMA)
                     for m in PROX_SIZES}

    def check(self, ops: list[Op]) -> None:
        for m, op in zip(_long_sizes(), ops):
            if not op.errors:
                q, merges = op.output
                op.errors += checks.check_prox(self.vectors[m], q, merges, self.refs[m])
        if not ops[-1].errors:
            ops[-1].errors += checks.check_selftest(ops[-1].output)

    def reference_figures(self, ops: list[Op]) -> dict:
        return {}

    def op_metrics(self, passes: list[list[Op]]) -> dict:
        melem = [sum(_long_sizes()) / sum(op.seconds for op in ops[:-1]) / 1e6
                 for ops in passes]
        return {
            "prox_melem_per_s": (statistics.median(melem), "Melem/s"),
            "selftest_s": (statistics.median(ops[-1].seconds for ops in passes), "s"),
        }


def make(name: str):
    if name == "dltf-k4":
        return CellWorkload(name, "dltf", 4)
    if name == "ksvd-k8":
        return CellWorkload(name, "ksvd", 8)
    if name == "prox":
        return ProxWorkload()
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


# Per-layer metrics: name -> unit. Every traced run reports all of them;
# a layer a workload does not call reads 0.
LAYER_UNITS = {
    "trainer.round_ms": "ms",
    "trainer.update_Z_ms": "ms",
    "trainer.update_Q_ms": "ms",
    "trainer.update_W_ms": "ms",
    "trainer.update_Y_ms": "ms",
    "trainer.diagnostics_ms": "ms",
    "trainer.max_k_columns_ms": "ms",
    "trainer.iht_steps": "count",
    "trainer.line_search_failures": "count",
    "encoder.encode_batch_ms": "ms",
    "encoder.max_k_columns_ms": "ms",
    "encoder.max_k_columns_calls": "count",
    "encoder.matmul_ms": "ms",
    "prox.prox_k2_calls": "count",
    "prox.prox_k2_ms": "ms",
    "prox.ns_per_m_log_m.1e5": "ns",
    "prox.ns_per_m_log_m.1e6": "ns",
    "prox.merges": "count",
    "prox.prox_objective_calls": "count",
    "selftest.subgradient_best_s": "s",
    "selftest.direction_sweep_s": "s",
    "baselines.ksvd_sweep_ms": "ms",
    "baselines.omp_batch_ms": "ms",
    "baselines.atom_update_ms": "ms",
    "baselines.omp_us": "us",
    "baselines.omp_calls": "count",
    "bench.generate_synthetic_ms": "ms",
    "trace.overhead_pct": "%",
}


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(spans: list, pass_id: int, ops: list[Op]) -> dict:
    """Per-layer figures of one traced pass, from its spans and outputs."""
    ix = SpanIndex(spans, pass_id)
    out = dict.fromkeys(LAYER_UNITS, 0.0)

    rounds = ix.count("trainer.update_Z")
    for part in ("Z", "Q", "W", "Y"):
        out[f"trainer.update_{part}_ms"] = 1e3 * _per(ix.total(f"trainer.update_{part}"), rounds)
    out["trainer.round_ms"] = 1e3 * _per(ix.total("trainer.train"), rounds)
    out["trainer.diagnostics_ms"] = 1e3 * _per(
        ix.total("trainer.lagrangian_value") + ix.total("trainer.primal_residual"), rounds)
    out["trainer.max_k_columns_ms"] = 1e3 * _per(ix.total("trainer.max_k_columns"), rounds)
    out["trainer.iht_steps"] = sum(ix.child_count(i, "trainer.max_k_columns") - 1
                                   for i in ix.named("trainer.update_Z"))
    if rounds and not ops[0].errors:
        out["trainer.line_search_failures"] = ops[0].output[2]

    encodes = ix.named("encoder.encode_batch")
    out["encoder.encode_batch_ms"] = 1e3 * _per(ix.total("encoder.encode_batch"), len(encodes))
    out["encoder.matmul_ms"] = 1e3 * _per(sum(ix.self_time(i) for i in encodes), len(encodes))
    topk = ix.count("encoder.max_k_columns")
    out["encoder.max_k_columns_calls"] = topk
    out["encoder.max_k_columns_ms"] = 1e3 * _per(ix.total("encoder.max_k_columns"), topk)

    if rounds:
        out["prox.prox_k2_calls"] = _per(ix.count("trainer.prox_k2"), rounds)
        out["prox.prox_k2_ms"] = 1e3 * _per(ix.total("trainer.prox_k2"), rounds)
    long_calls = long_total = 0
    for m in PROX_SIZES:
        label = f"perfbench.long_prox.{_size_label(m)}"
        n = ix.count("prox.prox_k2", under=label)
        t = ix.total("prox.prox_k2", under=label)
        long_calls += n
        long_total += t
        out[f"prox.ns_per_m_log_m.{_size_label(m)}"] = 1e9 * _per(t, n) / (m * math.log(m))
    if long_calls:
        out["prox.prox_k2_calls"] = long_calls
        out["prox.prox_k2_ms"] = 1e3 * long_total / long_calls
        merges = {}
        for m, op in zip(_long_sizes(), ops):
            if not op.errors:
                merges.setdefault(m, op.output[1])
        out["prox.merges"] = sum(merges.values())
    out["prox.prox_objective_calls"] = ix.count("prox.prox_objective")
    out["selftest.subgradient_best_s"] = ix.total("selftest.subgradient_best")
    out["selftest.direction_sweep_s"] = ix.total("selftest.direction_sweep_margin")

    sweeps = ix.count("baselines.omp_batch", under="baselines.ksvd_train")
    out["baselines.ksvd_sweep_ms"] = 1e3 * _per(ix.total("baselines.ksvd_train"), sweeps)
    out["baselines.omp_batch_ms"] = 1e3 * _per(
        ix.total("baselines.omp_batch", under="baselines.ksvd_train"), sweeps)
    out["baselines.atom_update_ms"] = 1e3 * _per(
        sum(ix.self_time(i) for i in ix.named("baselines.ksvd_train")), sweeps)
    omp_calls = ix.count("baselines.omp")
    out["baselines.omp_calls"] = omp_calls
    out["baselines.omp_us"] = 1e6 * _per(ix.total("baselines.omp"), omp_calls)
    return out
