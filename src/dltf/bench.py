"""Synthetic support-recovery benchmark, parameter sweeps, and timing.

Generates data X = W0 Z + E from a seeded ground-truth dictionary with
binary k-sparse codes, builds each requested method's dictionary, encodes a
held-out test set with thresholded features, and reports the average
support difference per (method, k, seed) cell.
"""

from __future__ import annotations

import csv
import io
import json
import time
import traceback
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, baselines, core, encoder, guarantees, trainer
from .core import DataMatrix, Dictionary, SparseCodeBatch
from .errors import check_int, check_k, check_real

# RNG stream ids under one (seed, k) cell
_STREAM_TRAIN = 1
_STREAM_TEST = 2
_STREAM_RANDOM = 3
_STREAM_KSVD = 4
_STREAM_DLTF = 5

METHODS = ("original", "random", "ksvd", "dltf")


@dataclass(frozen=True)
class SyntheticInstance:
    W0: Dictionary
    Ztrue: SparseCodeBatch
    X: DataMatrix


@dataclass
class BenchConfig:
    n: int = 64
    m: int = 128
    N_train: int = 2000
    N_test: int = 2000
    k_list: tuple[int, ...] = (4, 8)
    lam: float = 0.05
    theta: float = 0.01
    beta: float = 1.0
    seeds: tuple[int, ...] = (0, 1, 2)
    methods: tuple[str, ...] = METHODS
    noise_std: float = 0.1
    dltf_outer_iters: int = 30
    ksvd_iters: int = 30
    out: str | None = None

    def __post_init__(self) -> None:
        for name in ("n", "m", "N_train", "N_test", "dltf_outer_iters", "ksvd_iters"):
            check_int(getattr(self, name), name, least=1)
        for name in ("k_list", "seeds", "methods"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for seed in self.seeds:
            check_int(seed, "seeds", least=0)
        for k in self.k_list:  # the trainer's own rule for each cell
            trainer.Hyperparams(self.m, k, self.lam, self.theta, self.beta,
                                outer_iters=self.dltf_outer_iters)
        bad = set(self.methods) - set(METHODS)
        if bad:
            raise ValueError(f"unknown methods {sorted(bad)}")
        check_real(self.noise_std, "noise_std")
        if self.out == "":
            raise ValueError("out must be a non-empty path prefix")


def _binary_codes(rng: np.random.Generator, m: int, N: int, k: int) -> np.ndarray:
    Z = np.zeros((m, N))
    for i in range(N):
        Z[rng.choice(m, size=k, replace=False), i] = 1.0
    return Z


def _instance_from(W0: Dictionary, N: int, k: int, noise_std: float,
                   rng: np.random.Generator) -> SyntheticInstance:
    n, m = W0.data.shape
    Z = _binary_codes(rng, m, N, k)
    X = W0.data @ Z + noise_std * rng.standard_normal((n, N))
    return SyntheticInstance(W0=W0, Ztrue=SparseCodeBatch(Z, k), X=DataMatrix(X))


def generate_synthetic(n: int, m: int, N: int, k: int, noise_std: float,
                       seed: int) -> SyntheticInstance:
    """One self-contained instance: seeded Gaussian W0 with unit columns,
    binary codes with exactly k ones per column, additive Gaussian noise.
    """
    for size, name in ((n, "n"), (m, "m"), (N, "N")):
        check_int(size, name, least=1)
    k = check_k(k, m)
    check_real(noise_std, "noise_std")
    check_int(seed, "seed", least=0)
    w_seq, d_seq = np.random.SeedSequence(seed).spawn(2)
    W0 = core.random_dictionary(n, m, w_seq)
    return _instance_from(W0, N, k, noise_std, np.random.default_rng(d_seq))


def align_atoms(W_learned: Dictionary, W_ref: Dictionary) -> Dictionary:
    """Permute learned atoms to best match the reference, greedily pairing
    the highest remaining |cosine| first. Learned dictionaries carry no
    canonical atom order, so support comparisons against codes expressed in
    W_ref's indexing require this step.
    """
    C = np.abs(W_ref.data.T @ W_learned.data)
    m = C.shape[0]
    if C.shape[0] != C.shape[1]:
        raise ValueError("alignment requires equal atom counts")
    perm = np.full(m, -1)
    for _ in range(m):
        i, j = divmod(int(np.argmax(C)), m)
        perm[i] = j
        C[i, :] = -1.0
        C[:, j] = -1.0
    return Dictionary(W_learned.data[:, perm])


def _cell_rng(seed: int, stream: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, k]))


def _cell_seed_int(seed: int, stream: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, stream, k]).generate_state(1)[0])


def _build_dictionary(method: str, cfg: BenchConfig, k: int, seed: int,
                      train_inst: SyntheticInstance) -> tuple[Dictionary, dict]:
    """Returns the method's dictionary plus method-specific extras."""
    if method == "original":
        return train_inst.W0, {}
    if method == "random":
        return core.random_dictionary(cfg.n, cfg.m, _cell_rng(seed, _STREAM_RANDOM, k)), {}
    if method == "ksvd":
        W = baselines.ksvd_train(train_inst.X, cfg.m, k, iters=cfg.ksvd_iters,
                                 seed=_cell_seed_int(seed, _STREAM_KSVD, k))
        return align_atoms(W, train_inst.W0), {}
    if method == "dltf":
        hp = trainer.Hyperparams(m=cfg.m, k=k, lam=cfg.lam, theta=cfg.theta,
                                 beta=cfg.beta, outer_iters=cfg.dltf_outer_iters)
        dltf_seed = _cell_seed_int(seed, _STREAM_DLTF, k)
        W, state = trainer.train(train_inst.X, hp, seed=dltf_seed)
        W_init = core.random_dictionary(cfg.n, cfg.m, dltf_seed)  # init_state's draw
        extras = {
            "coherence": guarantees.mutual_coherence(W).mu,
            "init_coherence": guarantees.mutual_coherence(W_init).mu,
            "rounds": len(state.history),
            "iht_steps": sum(rec["iht_steps"] for rec in state.history),
            "w_steps": sum(rec["w_steps"] for rec in state.history),
        }
        return align_atoms(W, train_inst.W0), extras
    raise ValueError(f"unknown method {method!r}")


def run_support_recovery_bench(cfg: BenchConfig) -> dict:
    """Benchmark every (method, k, seed) cell on shared per-(seed, k)
    train/test instances. Cell failures are captured and flag the report
    as partial instead of aborting the sweep.
    """
    cells = []
    partial = False
    for seed in cfg.seeds:
        for k in cfg.k_list:
            W0 = core.random_dictionary(cfg.n, cfg.m, _cell_rng(seed, 0, k))
            train_inst = _instance_from(W0, cfg.N_train, k, cfg.noise_std,
                                        _cell_rng(seed, _STREAM_TRAIN, k))
            test_inst = _instance_from(W0, cfg.N_test, k, cfg.noise_std,
                                       _cell_rng(seed, _STREAM_TEST, k))
            for method in cfg.methods:
                cell = {"method": method, "k": k, "seed": seed}
                try:
                    W, extras = _build_dictionary(method, cfg, k, seed, train_inst)
                    t0 = time.perf_counter()
                    Z = encoder.encode_batch(W, test_inst.X, k)
                    encode_ms = 1000.0 * (time.perf_counter() - t0)
                    cell["ave_dif"] = encoder.ave_dif(Z, test_inst.Ztrue.data)
                    cell["encode_ms"] = encode_ms
                    cell.update(extras)
                except Exception:
                    cell["error"] = traceback.format_exc(limit=3)
                    partial = True
                cells.append(cell)
    report = {
        "version": __version__,
        "config": asdict(cfg),
        "cells": cells,
        "partial": partial,
    }
    return report


def report_csv(report: dict) -> str:
    """Flat per-cell table. Wall-clock columns are deliberately left to the
    JSON report so repeated runs of one config stay byte-identical.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "k", "seed", "ave_dif"])
    for cell in report["cells"]:
        if "error" in cell:
            writer.writerow([cell["method"], cell["k"], cell["seed"], "error"])
        else:
            writer.writerow([cell["method"], cell["k"], cell["seed"],
                             repr(cell["ave_dif"])])
    return buf.getvalue()


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, out_prefix: str) -> tuple[str, str]:
    json_path = out_prefix + ".json"
    csv_path = out_prefix + ".csv"
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(report_json(report))
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(report_csv(report))
    return json_path, csv_path


def _whole(value) -> int:
    """value as an int; ValueError if it has a fractional part (8.7)."""
    if not float(value).is_integer():
        raise ValueError(f"{value} is not a whole number")
    return int(value)


# sweep param -> the BenchConfig field it sets and its cast from the grid
SWEEP_FIELDS = {"lambda": ("lam", float), "theta": ("theta", float), "n": ("n", _whole)}


def run_param_sweep(cfg: BenchConfig, param: str, grid: list[float]) -> list[dict]:
    """Repeat the benchmark across a one-dimensional grid. The n sweep
    regenerates instances at each point (m stays fixed); lambda and theta
    only change the trainer.
    """
    if param not in SWEEP_FIELDS:
        raise ValueError(f"sweep param must be one of {tuple(SWEEP_FIELDS)}")
    if not grid:
        raise ValueError("empty sweep grid")
    name, cast = SWEEP_FIELDS[param]
    # every point's config is checked before the first point runs
    configs = [replace(cfg, out=None, **{name: cast(value)}) for value in grid]
    return [{"param": param, "value": value, "report": run_support_recovery_bench(point)}
            for value, point in zip(grid, configs)]


ENCODE_REPEATS = 5


def timing_compare(cfg: BenchConfig, k: int | None = None) -> dict:
    """Wall-clock for one batched thresholded encode versus per-sample OMP
    (one baselines.omp call per test column) on the same test set.
    Reports the ratio; absolute numbers are hardware-specific.

    The encode time is the median of ENCODE_REPEATS calls made after one
    untimed warm-up call, so first-call costs do not count against it.
    OMP is timed once: its per-sample loop is long enough to be stable.
    """
    k = cfg.k_list[0] if k is None else k
    inst = generate_synthetic(cfg.n, cfg.m, cfg.N_test, k, cfg.noise_std,
                              cfg.seeds[0])
    encoder.encode_batch(inst.W0, inst.X, k)
    times = []
    for _ in range(ENCODE_REPEATS):
        t0 = time.perf_counter()
        encoder.encode_batch(inst.W0, inst.X, k)
        times.append(time.perf_counter() - t0)
    thresh_s = float(np.median(times))
    t0 = time.perf_counter()
    for x in inst.X.data.T:
        baselines.omp(inst.W0, x, k)
    omp_s = time.perf_counter() - t0
    return {
        "n": cfg.n, "m": cfg.m, "N": cfg.N_test, "k": k,
        "thresholded_s": thresh_s,
        "omp_s": omp_s,
        "ratio": omp_s / max(thresh_s, 1e-12),
    }
