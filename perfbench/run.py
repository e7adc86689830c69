"""Benchmark of solitonlab: one workload per call, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Set-up is timed in SETUP_PROBES fresh
processes plus the workload process, and its median reported. The workload
runs in one more fresh process, single-threaded (SOLITONLAB_THREADS=1 and
one BLAS thread), on the package under ./src. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics of a
separate traced pass for --trace 1. Each run clears and refills
.perfbench_out/<workload>/ with its reports, CSVs and span trace.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import median, percentile  # noqa: E402

WORKLOADS = ("suite-sphere3", "suite-gaussian3", "point-queries")
SETUP_PROBES = 4
DEADLINE_S = 170.0  # every run exits well inside 180 s


def metric_units():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


class RunError(Exception):
    pass


def run_worker(argv, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before the workload process started")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], env=env,
                              cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining, text=True)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise RunError(f"worker {argv[:2]} exceeded the {DEADLINE_S:.0f} s budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker {argv[:2]} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "solitonlab" / "__init__.py").is_file():
        print(f"no solitonlab sources under {src}", file=sys.stderr)
        return 2
    units = metric_units()
    if hasattr(os, "sched_setaffinity"):
        # every process of the run on one fixed CPU (the children inherit
        # it): the CPUs of a shared host can differ in speed, and a run
        # should not depend on where the scheduler first placed it
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(src), SOLITONLAB_THREADS="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = ROOT / ".perfbench_out" / args.workload
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [run_worker([*common, "--setup-only"], env, deadline)
                  for _ in range(SETUP_PROBES)]
        res = run_worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--out", str(out)], env, deadline)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for r in (*probes, res):
        if Path(r["package"]) != src / "solitonlab":
            print(f"imported solitonlab from {r['package']}, not {src}", file=sys.stderr)
            return 1

    errors = res["errors"]
    for e in errors:
        print(f"CHECK FAILED: {e}")
    setups = (*probes, res)
    q_ms = [1e3 * s for s in res["query_s"]]
    print(f"{args.workload}: {len(res['wall_s'])} timed passes, {len(q_ms)} queries")
    if args.trace:
        values = dict(res["layers"], **{"setup.import_s": median(r["import_s"] for r in setups)})
        over = res["traced_wall_s"] - res["untraced_wall_s"]
        print(f"tracing overhead: traced {res['traced_wall_s']:.3f} s, untraced "
              f"{res['untraced_wall_s']:.3f} s ({100.0 * over / res['untraced_wall_s']:+.1f}%)")
        units = units["per_layer"]
    else:
        values = {
            "setup_s": median(r["setup_s"] for r in setups),
            "wall_s": median(res["wall_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "certified_values": res["certified_values"],
            "query_p50_ms": percentile(q_ms, 50),
            "query_p99_ms": percentile(q_ms, 99),
        }
        units = units["end_to_end"]
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": not errors, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
