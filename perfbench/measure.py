"""Measurement of one workload: the untraced end-to-end run and the traced run.

End-to-end run (--trace 0):
  1. One solve under tracemalloc for peak_mem_mb.  It is outside the timed
     solves and also lets caches fill before them.
  2. Timed solves, one after another, for about --seconds (at least
     MIN_SOLVES); run_s is their median.  Before each one, a batch of
     set-ups (the build functions of the level-independent objects) runs
     for SETUP_BATCH_SECONDS; setup_s is the median over the batches of the
     mean set-up time in a batch.  The batches are spread over the run, as
     the solves are, so that both sample the same drift of the host's speed.

Traced run (--trace 1): traced and untraced solves alternate, traced first,
for about --seconds (at least MIN_TRACED traced and one untraced).  Times
are medians over the traced solves; counts must repeat exactly between them.

Every solve passes the correctness gate or counts as failed.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracer as tr
from workloads import WORKLOADS, check, instance

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = Path(__file__).resolve().parent / "out"
SETUP_BATCH_SECONDS = 0.2
MIN_SOLVES = 3
MIN_TRACED = 2


def metric_units() -> dict[str, str]:
    """name -> unit for every metric BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment(threads: int) -> dict:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


class Solves:
    """Runs solves through the correctness gate and counts the outcomes."""

    def __init__(self, inst):
        self.inst = inst
        self.attempted = 0
        self.failed = 0

    def run(self, fn, spec):
        """(report, seconds) of fn(spec), or None when the solve failed."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            report = fn(spec)
            seconds = time.perf_counter() - t0
        except Exception:  # any exception is a failed solve, reported below
            traceback.print_exc()
            self.failed += 1
            return None
        problems = check(self.inst, report)
        if problems:
            for p in problems:
                print(f"perfbench: check failed: {p}", file=sys.stderr)
            self.failed += 1
            return None
        return report, seconds

    def fail(self, why: str):
        print(f"perfbench: check failed: {why}", file=sys.stderr)
        self.failed += 1


def setup_batch(inst) -> float:
    """Mean seconds of one set-up over about SETUP_BATCH_SECONDS of them."""
    builds = 0
    t0 = time.perf_counter()
    while True:
        inst.setup()
        builds += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= SETUP_BATCH_SECONDS:
            return elapsed / builds


def end_to_end(inst, seconds: float):
    """(metrics, solves) of the untraced run."""
    solves = Solves(inst)
    spec = inst.spec()
    tracemalloc.start()
    try:
        first = solves.run(inst.solve, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if first is None:
        return {}, solves

    times, setup = [], []
    t_start = time.perf_counter()
    while (len(times) < MIN_SOLVES
           or time.perf_counter() - t_start + statistics.median(times) <= seconds):
        setup.append(setup_batch(inst))
        out = solves.run(inst.solve, spec)
        if out is None:
            return {}, solves
        report, elapsed = out
        times.append(elapsed)

    run_s = statistics.median(times)
    print(f"run_s: median {run_s:.4f} s over {len(times)} solves "
          f"(min {min(times):.4f}, max {max(times):.4f}); "
          f"setup_s: median of {len(setup)} batches")
    return {
        "run_s": run_s,
        "unknowns_per_s": inst.workload.unknowns / run_s,
        "setup_s": statistics.median(setup),
        "err_inf": report.err_inf,
        "peak_mem_mb": peak / 1e6,
    }, solves


def per_layer(inst, seconds: float):
    """(metrics, solves) of the traced run."""
    solves = Solves(inst)
    spec = inst.spec()
    traced, untraced, layer_runs = [], [], []
    tracer = None
    t_start = time.perf_counter()
    while True:
        done = len(traced) >= MIN_TRACED and untraced
        if done:
            pair = statistics.median(traced) + statistics.median(untraced)
            if time.perf_counter() - t_start + pair > seconds:
                break
        if len(traced) <= len(untraced):
            tracer = tr.Tracer()
            root = tracer.wrap("scheme", inst.solve)
            with tr.instrument(tracer):
                out = solves.run(root, tr.traced_spec(tracer, spec))
            if out is None:
                return {}, solves
            layers = tr.layer_metrics(tracer, out[0])
            issues = tracer.verify() or tr.self_time_issues(tracer, layers)
            if issues:
                for issue in issues:
                    solves.fail(f"trace: {issue}")
                return {}, solves
            layer_runs.append(layers)
            traced.append(out[1])
        else:
            out = solves.run(inst.solve, spec)
            if out is None:
                return {}, solves
            untraced.append(out[1])

    metrics = {}
    for name in layer_runs[0]:
        values = [m[name] for m in layer_runs]
        if name in tr.DETERMINISTIC:
            if len(set(values)) != 1:
                solves.fail(f"{name} differs between traced solves: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    if metrics["krylov.unconverged"]:
        solves.fail(f"{metrics['krylov.unconverged']} Krylov solves did not converge")
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(untraced) - 1.0)
    print(f"traced run: {len(traced)} traced and {len(untraced)} untraced solves; "
          f"the self-time metrics add up to the root span in every traced solve")
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.save(SPANS_DIR / f"spans-{inst.workload.name}.npz")
    return metrics, solves


def main(args, threads: int) -> int:
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    units = metric_units()
    inst = instance(WORKLOADS[args.workload], args.seed)
    print(f"env {json.dumps(environment(threads))}")
    print(f"workload {inst.workload.name} seed {inst.seed}: "
          f"alpha={inst.alpha!r} gamma={inst.gamma!r}")
    measure = per_layer if args.trace else end_to_end
    metrics, solves = measure(inst, args.seconds)

    for name, value in metrics.items():
        print(f"  {name:32s} {value:>22.10g} {units[name]}")
    failed_frac = solves.failed / max(solves.attempted, 1)
    print(f"  {'failed_frac':32s} {failed_frac:>22.10g} 1 "
          f"({solves.failed} of {solves.attempted} solves)")
    correct = solves.failed == 0 and solves.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": solves.attempted,
        "failed": solves.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1
