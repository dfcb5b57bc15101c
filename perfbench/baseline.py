"""Regenerate perfbench/baseline.json: repeated runs of every workload.

    python3 perfbench/baseline.py

It makes SETS sets of runs.  In each set it runs the end-to-end measurement
of every workload once per seed 1..RUNS, each run in its own process as
perfbench/run.py.  Then it runs the traced run of every workload twice with
seed 0.  For each set it records the median and quartiles of every metric,
and the quartile spread as a share of the median next to the metric's bound
from BENCHMARK.json.  It also records whether the later sets' medians agree
with the first within the bounds, whether the traced counts repeated, and
the environment.  It exits nonzero when a run fails, a spread is a third of
its bound or more, or a later set is worse than the first by more than the
bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import DETERMINISTIC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
RUNS = 10  # seeds 1..RUNS in each set
SETS = 2  # sets of runs, so that their agreement can be checked
SPREAD_SHARE = 1 / 3  # a spread must stay below this share of its bound


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str, float]:
    """(final JSON object, env line, wall seconds) of one run.py process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    env = next((line[4:] for line in lines if line.startswith("env ")), "{}")
    return json.loads(lines[-1]), env, wall


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med), "values": values}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    metrics = {m["name"]: m for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    seeds = list(range(1, RUNS + 1))

    result = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for k in range(SETS):
        for workload in names:
            runs = [run(workload, s, seconds, 0) for s in seeds]
            result["env"] = json.loads(runs[-1][1])
            entry = result["workloads"].setdefault(
                workload, {"sets": [], "process_wall_s": []})
            entry["process_wall_s"] += [r[2] for r in runs]
            end_to_end = {}
            for name, m in metrics.items():
                s = summary([r[0]["metrics"][name]["value"] for r in runs])
                s["bound"] = m["bound"]
                steady = s["spread"] < SPREAD_SHARE * m["bound"]
                note = "" if steady else "  NOT STEADY"
                if k:
                    first = entry["sets"][0][name]["median"]
                    worse = (s["median"] / first - 1.0 if m["better"] == "lower"
                             else 1.0 - s["median"] / first)
                    s["worse_than_first_set"] = worse
                    if worse > m["bound"]:
                        steady = False
                        note += f"  {worse:.3f} WORSE THAN SET 1"
                end_to_end[name] = s
                ok &= steady
                print(f"set {k + 1} {workload:14s} {name:16s} "
                      f"median {s['median']:.6g} spread {s['spread']:.4f} "
                      f"bound {m['bound']}{note}", flush=True)
            entry["sets"].append(end_to_end)

    for workload in names:
        traced_runs = [run(workload, 0, seconds, 1) for _ in range(2)]
        traced = [r[0]["metrics"] for r in traced_runs]
        repeated = all(traced[0][k] == traced[1][k] for k in DETERMINISTIC)
        ok &= repeated
        print(f"{workload:14s} traced counts repeat across runs: {repeated}",
              flush=True)
        entry = result["workloads"][workload]
        entry["per_layer_seed0"] = {k: v["value"] for k, v in traced[0].items()}
        entry["traced_counts_repeat"] = repeated
        entry["process_wall_s"] += [r[2] for r in traced_runs]
    result["date_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    OUT.write_text(json.dumps(result, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
