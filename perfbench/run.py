#!/usr/bin/env python3
"""Benchmark of metricgraph: three seeded workloads, an output gate, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload star-expansion --seed 1 --seconds 24 --trace 0

``--seconds`` sizes a fixed op sequence at the nominal op costs below; the
run ends when the sequence does, so a faster program finishes sooner.  The
last stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  The line before it, ``{"info": ...}``, holds the failure
fraction, missed roots, per-op times, gate problems and versions.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"  # span dumps and scratch input files

# Seconds per op used to size a run: near the seed commit's op times, except
# grid-scan's, set lower to give it more ops because its op times spread most.
NOMINAL_OP_S = {"star-expansion": 2.0, "grid-scan": 3.0, "grid-potential": 9.5}
SETUP_PROBES = 5
TIME_LIMIT_S = 140.0  # no op starts after this; a run must end within 180 s
BLAS_THREADS = 2


def pin_blas() -> int:
    """At most BLAS_THREADS and at most the CPUs this process may use."""
    n = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def prepare(workload: str, seed: int, n_ops: int, workdir: Path):
    """Input generation: the cases, and the files the CLI reads for grid-potential."""
    import gen

    cases = gen.make_cases(workload, seed, n_ops)
    paths = []
    if workload == "grid-potential":
        workdir.mkdir(parents=True, exist_ok=True)
        for i, case in enumerate(cases):
            gp, bp = workdir / f"op{i}-graph.json", workdir / f"op{i}-bc.json"
            gp.write_text(json.dumps(case["graph"]), encoding="utf-8")
            bp.write_text(json.dumps(case["bc"]), encoding="utf-8")
            paths.append((str(gp), str(bp)))
    return cases, paths


def _child(args: list[str], timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, cwd=ROOT, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(argv: list[str]) -> float:
    """Process start to ready-for-the-first-op, in a fresh interpreter."""
    t0 = time.monotonic()
    ready = float(_child([str(HERE / "run.py"), *argv, "--role", "probe"], timeout=60))
    return ready - t0


def run_op(workload: str, case: dict, ref: dict, paths):
    import ops

    if workload == "star-expansion":
        return ops.star_expansion(case, ref)
    if workload == "grid-scan":
        return ops.grid_scan(case, ref)
    return ops.grid_potential(case, ref, *paths)


def timed(workload, case, ref, paths, rec=None):
    """(seconds, Outcome); with a recorder the op is one span.  A raise is a failure."""
    import ops
    import tracing

    t0 = time.perf_counter()
    span = rec.open(tracing.OP) if rec else -1
    try:
        out = run_op(workload, case, ref, paths)
    except Exception as exc:  # any raise fails the op; its message goes to the info line
        out = ops.Outcome(problems=[f"{type(exc).__name__}: {exc}"])
    finally:
        if rec:
            rec.close(span)
    return time.perf_counter() - t0, out


def versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("star-expansion", "grid-potential", "grid-scan"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("bench", "probe"), default="bench", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    threads = pin_blas()
    if not (SRC / "metricgraph" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'metricgraph'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import metricgraph
    import ops  # noqa: F401  (the first op needs it; the set-up probes time its import)

    if not Path(metricgraph.__file__).resolve().is_relative_to(SRC):
        print(f"error: metricgraph imported from {metricgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    n_ops = max(3, round(args.seconds / NOMINAL_OP_S[args.workload]))
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.role == "probe":
            prepare(args.workload, args.seed, n_ops, workdir)
            print(time.monotonic())
            return 0
        return bench(args, n_ops, threads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, n_ops: int, threads: int, workdir: Path) -> int:
    import ops
    import tracing

    w = args.workload
    refs = json.loads(_child([str(HERE / "reference.py"), w, str(args.seed), str(n_ops)], timeout=120))
    probe_argv = ["--workload", w, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setups = [setup_seconds(probe_argv) for _ in range(SETUP_PROBES)]
    cases, paths = prepare(w, args.seed, n_ops, workdir)
    if not paths:
        paths = [()] * n_ops

    rec = tracing.Recorder()
    untraced, traced, op_s, traced_s = [], [], [], []
    absent: set[str] = set()
    t_run = time.perf_counter()
    for i in range(n_ops):
        if time.monotonic() - T_START > TIME_LIMIT_S:
            untraced.append(ops.Outcome(problems=["not started: run time limit reached"]))
            continue
        dt, out = timed(w, cases[i], refs[i], paths[i])
        op_s.append(dt)
        untraced.append(out)
        if args.trace:
            rec.op_id = i
            with tracing.Hooks(rec) as hooks:
                dt, out = timed(w, cases[i], refs[i], paths[i], rec)
            absent.update(hooks.absent)
            traced_s.append(dt)
            traced.append(out)
    run_s = time.perf_counter() - t_run
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = untraced + traced
    failed = sum(1 for o in outcomes if o.problems)
    missed = sum(o.missed for o in untraced)
    info = {
        "workload": w,
        "seed": args.seed,
        "ops": n_ops,
        "fail_frac": failed / len(outcomes),
        "roots_missed": missed,
        "roots_returned": sum(o.roots for o in untraced),
        "op_s": op_s,
        "setup_s": setups,
        "problems": {i: o.problems for i, o in enumerate(outcomes) if o.problems},
        "blas_threads": threads,
        **versions(),
    }
    if args.trace:
        layers, coverage = tracing.layer_metrics(rec)
        layers["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(op_s) if op_s else 0.0
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{w}-seed{args.seed}.json"
        rec.dump(span_file)
        info.update(traced_op_s=traced_s, layer_coverage=coverage, absent_hooks=sorted(absent), spans=str(span_file))
        metrics = {k: metric(v, tracing.unit(k)) for k, v in layers.items()}
        metrics["roots_missed"] = metric(missed, "count")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "op_p50_s": metric(statistics.median(op_s), "s"),
            "run_s": metric(run_s, "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
