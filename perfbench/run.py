"""Benchmark runner for dltf.

    python3 perfbench/run.py --workload dltf-k4 --seed 0 --seconds 20 --trace 0

Runs one workload (or ``all`` of them in this process, where peak RSS is
then the process's peak so far) from a checkout:
sets up its inputs from the seed, repeats whole passes of its operations
for ``--seconds``, checks every output, and prints the metrics. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A full record
(machine, every figure, check failures) and, for traced runs, the spans
are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

# Gated end-to-end metrics: present on every workload.
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s"}

_IMPORTS = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import numpy, dltf, dltf.trainer, dltf.baselines, dltf.bench, dltf.selftest")


def use_checkout_dltf() -> None:
    """Import dltf from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "dltf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dltf sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import dltf

    if Path(dltf.__file__).resolve().parent != (SRC / "dltf").resolve():
        raise SystemExit(f"perfbench: imported dltf from {dltf.__file__}, not {SRC}")


def _import_seconds() -> float:
    """Wall time for a fresh interpreter to start and import dltf."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _IMPORTS, str(SRC)], check=True)
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    # imported here: numpy must load after machine.limit_blas_threads()
    import workloads
    from tracing import Tracer

    wl = workloads.make(name)
    tracer = Tracer() if trace else None

    load_start = os.getloadavg()
    setups = []
    for rep in range(SETUP_REPEATS):
        imp = _import_seconds()
        if tracer:
            tracer.pass_id = -1 - rep
            tracer.wrap_all(workloads.TRACED)
        t0 = time.perf_counter()
        wl.setup(seed)
        setups.append(imp + time.perf_counter() - t0)
        if tracer:
            tracer.restore()

    wl.prepare_checks()

    # A traced run alternates untraced and traced passes, swapping which
    # goes first each round; the difference of their means is the tracing
    # overhead. Outputs are checked after each pass, outside its timing,
    # and then dropped so that memory does not grow with the number of
    # passes. A new round starts only if it should end within ``seconds``,
    # so a slow machine makes fewer passes rather than a longer run.
    passes = []   # (ops, seconds, traced)
    layer_rows = []
    reference = None
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        if not trace:
            order = (False,)
        else:
            order = (False, True) if len(passes) % 4 == 0 else (True, False)
        for traced in order:
            if traced:
                tracer.pass_id = len(passes)
                tracer.wrap_all(workloads.TRACED)
            t0 = time.perf_counter()
            ops = wl.run_pass(tracer if traced else None)
            dt = time.perf_counter() - t0
            if traced:
                tracer.restore()
            wl.check(ops)
            if reference is None:
                reference = wl.reference_figures(ops)
            if traced:
                layer_rows.append(workloads.layer_metrics(tracer.spans, tracer.pass_id, ops))
            for op in ops:
                op.output = None
            passes.append((ops, dt, traced))
        now = time.perf_counter()
        if (now - t_start) + (now - t_round) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_ops = [op for ops, _, _ in passes for op in ops]
    failures = [e for op in all_ops for e in op.errors]
    plain = [p for p in passes if not p[2]]
    # The mean counts every pass: when the machine's speed drifts during a
    # run, it varies less from run to run than the median of a few passes.
    pass_s = statistics.fmean(dt for _, dt, _ in plain)

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(plain), "traced_passes": len(passes) - len(plain),
        "attempted": len(all_ops), "failed": sum(1 for op in all_ops if op.errors),
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "pass_s": pass_s,
        },
        "operations": {k: {"value": v, "unit": u}
                       for k, (v, u) in wl.op_metrics([ops for ops, _, _ in plain]).items()},
        "pass_seconds": [dt for _, dt, _ in plain],
        "reference": reference,
        "failures": failures[:20],
    }
    if trace:
        layers = {k: statistics.median(d[k] for d in layer_rows) for k in workloads.LAYER_UNITS}
        gen = [s[2] - s[1] for s in tracer.spans if s[0] == "bench.generate_synthetic" and s[4] < 0]
        layers["bench.generate_synthetic_ms"] = 1e3 * statistics.median(gen) if gen else 0.0
        traced_s = statistics.fmean(dt for _, dt, traced in passes if traced)
        layers["trace.overhead_pct"] = 100.0 * (traced_s - pass_s) / pass_s
        record["per_layer"] = layers
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.json")
    record["load_avg"] = {"start": load_start, "end": os.getloadavg()}
    return record


def _result_line(records: list[dict], section: str, units: dict) -> dict:
    """The final line: one workload's metrics by name, or with ``all``
    every workload's under ``<workload>/<name>``."""
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "/"
        metrics.update({prefix + k: {"value": rec[section][k], "unit": u}
                        for k, u in units.items()})
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("dltf-k4", "ksvd-k8", "prox", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import machine

    # before numpy is imported anywhere in this process
    machine.limit_blas_threads()
    use_checkout_dltf()

    import workloads

    names = ("dltf-k4", "ksvd-k8", "prox") if args.workload == "all" else (args.workload,)
    info = machine.describe()
    print("machine: " + json.dumps(info, sort_keys=True))
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        rec["machine"] = info
        records.append(rec)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(rec, fh, indent=1, sort_keys=True)
        print(f"{name}: {rec['attempted']} operations attempted, {rec['failed']} failed, "
              f"{rec['passes']} passes, load {rec['load_avg']['start'][0]:.2f} -> "
              f"{rec['load_avg']['end'][0]:.2f}")
        for k, v in rec["end_to_end"].items():
            print(f"  {k} = {v:.6g} {END_TO_END_UNITS[k]}")
        for k, v in rec["operations"].items():
            print(f"  {k} = {v['value']:.6g} {v['unit']}")
        for k, v in rec["reference"].items():
            print(f"  reference {k} = {v:.6g}")
        for k, v in rec.get("per_layer", {}).items():
            print(f"  {k} = {v:.6g} {workloads.LAYER_UNITS[k]}")
        for msg in rec["failures"]:
            print(f"  FAILED {msg}")
    if args.trace:
        result = _result_line(records, "per_layer", workloads.LAYER_UNITS)
    else:
        result = _result_line(records, "end_to_end", END_TO_END_UNITS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
