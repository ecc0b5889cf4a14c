"""Command-line surface: benchmark, sweeps, training, encoding, diagnostics.

Exit codes: 0 success, 1 validation error (bad flags, malformed files,
inconsistent shapes), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time

import numpy as np

from . import __version__, bench, core, encoder, guarantees, selftest, trainer
from .errors import (
    BudgetExceeded,
    DltfError,
    MonotonicityViolated,
    SingularSubproblem,
)

VALIDATION_ERRORS = (DltfError, ValueError, OSError, KeyError, TypeError)
NUMERICAL_ERRORS = (SingularSubproblem, BudgetExceeded, MonotonicityViolated,
                    np.linalg.LinAlgError, FloatingPointError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors
        self.exit(1, f"{self.prog}: error: {message}\n")


def _given(args, cls) -> dict:
    """The flags given on the command line whose dest is a field of cls."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
            if getattr(args, f.name, None) is not None}


def _config_from_args(args) -> bench.BenchConfig:
    fields: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            fields = dict(json.load(fh))
        if "lambda" in fields:  # JSON key mirrors the math symbol
            fields["lam"] = fields.pop("lambda")
    if args.N is not None:
        fields["N_train"] = fields["N_test"] = args.N
    fields.update(_given(args, bench.BenchConfig))
    for key in ("k_list", "seeds", "methods"):
        if key in fields:
            if not isinstance(fields[key], list):
                raise ValueError(f"{key}={fields[key]!r} must be a list")
            fields[key] = tuple(fields[key])
    return bench.BenchConfig(**fields)


def _add_bench_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config mirroring BenchConfig fields")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--N", type=int, help="sets both N_train and N_test")
    p.add_argument("--k", dest="k_list", type=int, nargs="+")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--seed", dest="seeds", type=int, nargs="+")
    p.add_argument("--methods", type=lambda s: s.split(","),
                   help="comma-separated subset of " + ",".join(bench.METHODS))
    p.add_argument("--out", help="output path prefix for .json/.csv reports")


def _cmd_synth_bench(args) -> int:
    cfg = _config_from_args(args)
    report = bench.run_support_recovery_bench(cfg)
    prefix = cfg.out or "bench_report"
    json_path, csv_path = bench.write_report(report, prefix)
    print(f"wrote {json_path} and {csv_path}")
    for cell in report["cells"]:
        if "error" in cell:
            print(f"  {cell['method']} k={cell['k']} seed={cell['seed']}: ERROR")
        else:
            print(f"  {cell['method']} k={cell['k']} seed={cell['seed']}: "
                  f"ave_dif={cell['ave_dif']:.4f}")
    return 0 if not report["partial"] else 2


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    series = bench.run_param_sweep(cfg, args.param, args.grid)
    out = (cfg.out or "sweep_report") + ".json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(series, fh, sort_keys=True, indent=2)
    print(f"wrote {out}")
    for point in series:
        vals = [c["ave_dif"] for c in point["report"]["cells"]
                if c["method"] == "dltf" and "ave_dif" in c]
        shown = f"{np.mean(vals):.4f}" if vals else "n/a"
        print(f"  {args.param}={point['value']}: dltf mean ave_dif={shown}")
    return 2 if any(point["report"]["partial"] for point in series) else 0


def _cmd_train(args) -> int:
    X = core.load_data_matrix(args.data)
    hp = trainer.Hyperparams(**_given(args, trainer.Hyperparams))
    W, state = trainer.train(X, hp, seed=args.seed)
    core.save_dictionary(W, args.out)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            json.dump(state.history, fh, indent=2)
    print(f"trained dictionary written to {args.out} "
          f"({len(state.history)} iterations)")
    return 0


def _cmd_encode(args) -> int:
    W = core.load_dictionary(args.dict)
    X = core.load_data_matrix(args.data)
    t0 = time.perf_counter()
    Z = encoder.encode_batch(W, X, args.k)
    dt = time.perf_counter() - t0
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for i in range(Z.shape[1]):
            writer.writerow(repr(float(v)) for v in Z[:, i])
    print(f"encoded {X.data.shape[1]} samples in {dt:.3f}s -> {args.out}")
    return 0


def _cmd_coherence(args) -> int:
    W = core.load_dictionary(args.dict)
    rep = guarantees.mutual_coherence(W)
    print(f"mutual coherence {rep.mu:.6f} (atoms {rep.i}, {rep.j})")
    return 0


def _cmd_prox_selftest(args) -> int:
    report = selftest.oracle_equivalence_suite(count=args.count)
    print(json.dumps(report, indent=2))
    return 0 if report["oracle_ok"] and report["sweep_ok"] else 2


def _cmd_timing(args) -> int:
    cfg = bench.BenchConfig(
        n=args.n, m=args.m, N_train=args.N, N_test=args.N,
        k_list=(args.k,), seeds=(args.seed,),
    )
    rec = bench.timing_compare(cfg)
    print(f"thresholded encode: {rec['thresholded_s']:.4f}s  "
          f"per-sample OMP: {rec['omp_s']:.4f}s  ratio {rec['ratio']:.1f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dltf", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-bench", help="support-recovery benchmark")
    _add_bench_flags(p)
    p.set_defaults(func=_cmd_synth_bench)

    p = sub.add_parser("sweep", help="hyperparameter sweeps")
    _add_bench_flags(p)
    p.add_argument("--param", required=True, choices=bench.SWEEP_FIELDS)
    p.add_argument("--grid", required=True, type=float, nargs="+")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("train", help="learn a dictionary from a data file")
    p.add_argument("--data", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float)  # unset: Hyperparams' defaults
    p.add_argument("--theta", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--iters", dest="outer_iters", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="JSON diagnostics path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("encode", help="thresholded-feature encode a data file")
    p.add_argument("--dict", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("coherence", help="mutual coherence of a dictionary")
    p.add_argument("--dict", required=True)
    p.set_defaults(func=_cmd_coherence)

    p = sub.add_parser("prox-selftest", help="prox optimality suite")
    p.add_argument("--count", type=int, default=200)
    p.set_defaults(func=_cmd_prox_selftest)

    p = sub.add_parser("timing", help="encode vs OMP wall-clock ratio")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--N", type=int, default=2000)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_timing)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
