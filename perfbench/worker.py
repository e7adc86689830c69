"""One benchmark process: set up, run one workload, check it, print JSON.

Started by run.py in a fresh interpreter with one thread everywhere
(SOLITONLAB_THREADS=1 and single-threaded BLAS). The last line of stdout
is a JSON object with the raw measurements; run.py turns it into metrics.

    python3 worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
    python3 worker.py --workload NAME --seed N --setup-only

Timed work alternates with checking it: this host's speed drifts over
seconds, so spreading the timed blocks over the whole run averages more of
that drift than timing them back to back would.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

_T0 = time.perf_counter()  # set-up is timed from here, before the imports below

import numpy as np  # noqa: E402

import solitonlab  # noqa: E402
from solitonlab import cli, kernels, spaces  # noqa: E402

_IMPORTED = time.perf_counter()

SUITES = {"suite-sphere3": "sphere:3", "suite-gaussian3": "gaussian:3"}
WORKLOADS = (*SUITES, "point-queries")

# Point queries come in blocks of 256 per space, log10 t stratified over
# [-3, 2] within each block, so every block holds the same mix of cheap
# large-t and expensive small-t series values whatever the seed.
QUERY_SPACES = ("gaussian:3", "sphere:2", "sphere:3", "cylinder:3")
QUERY_A = 0.25
PER_SPACE = 256
BLOCK = PER_SPACE * len(QUERY_SPACES)
LOG_T_LO, LOG_T_HI = -3.0, 2.0
CERTIFY_BLOCKS = 4  # certified_values counts the stream's first 4096 queries
PROBE_BLOCKS = 2    # query-probe blocks before the first suite pass and after each


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def query_evaluators():
    return {tok: kernels.heat_kernel(spaces.parse_space(tok), QUERY_A) for tok in QUERY_SPACES}


def set_up(workload: str, seed: int):
    """Config and evaluator construction, as a user's session starts."""
    if workload in SUITES:
        space = spaces.parse_space(SUITES[workload])
        cfg = cli.load_config(None, {"space": SUITES[workload], "seed": seed})
        return kernels.heat_kernel(space, cfg.a), kernels.green(space, cfg.a)
    return query_evaluators()


# ---------------------------------------------------------------------------
# point queries
# ---------------------------------------------------------------------------


def query_rng(seed):
    return np.random.default_rng([seed, 2006])


def query_block(rng):
    """One shuffled block of (token, x coords, x line, y coords, y line, t)."""
    items = []
    for tok in QUERY_SPACES:
        kind, n = tok.split(":")
        n = int(n)
        u = (np.arange(PER_SPACE) + rng.random(PER_SPACE)) / PER_SPACE
        for t in 10.0 ** (LOG_T_LO + (LOG_T_HI - LOG_T_LO) * u):
            xs = ys = None
            if kind == "gaussian":
                x, y = rng.normal(0.0, 2.0, n), rng.normal(0.0, 2.0, n)
            elif kind == "sphere":
                x, y = rng.normal(size=n + 1), rng.normal(size=n + 1)
            else:
                x, y = rng.normal(size=n), rng.normal(size=n)
                xs, ys = float(rng.normal(0.0, 2.0)), float(rng.normal(0.0, 2.0))
            items.append((tok, x, xs, y, ys, float(t)))
    return [items[i] for i in rng.permutation(len(items))]


def run_block(evaluators, block, tracer=None, first_index=0):
    """Build the points and evaluate each query once.

    Returns (block wall seconds, records); a record is (token, x, y, t,
    value, error estimate, evaluate seconds, exception text or None).
    """
    records = []
    clock = time.perf_counter
    start = clock()
    for k, (tok, x, xs, y, ys, t) in enumerate(block):
        ev = evaluators[tok]
        px, py = ev.space.point(x, s=xs), ev.space.point(y, s=ys)
        if tracer is not None:
            tracer.request = first_index + k
        q0 = clock()
        try:
            value, err = ev.evaluate(px, py, t)
        except Exception as exc:  # a failed query is counted, not fatal
            records.append((tok, px, py, t, None, None, clock() - q0, repr(exc)))
            continue
        records.append((tok, px, py, t, value, err, clock() - q0, None))
    return clock() - start, records


class QueryTally:
    """Latencies, counts and check results of the blocks run so far."""

    def __init__(self, evaluators, seed):
        self.evaluators = evaluators
        self.rng = query_rng(seed)
        self.walls, self.latencies, self.errors = [], [], []
        self.attempted = self.failed = self.certified = 0

    def block(self):
        import checks

        wall, records = run_block(self.evaluators, query_block(self.rng))
        self.walls.append(wall)
        self.latencies += [r[6] for r in records]
        self.attempted += len(records)
        self.failed += sum(1 for r in records if r[7] is not None)
        if len(self.walls) <= CERTIFY_BLOCKS:
            self.certified += checks.certified(records)
        self.errors += checks.check_queries(records, QUERY_A)


def traced_blocks(evaluators, seed, count, tracer):
    """The first ``count`` blocks of the stream again, every layer wrapped."""
    rng = query_rng(seed)
    tracer.install()
    try:
        return sum(run_block(evaluators, query_block(rng), tracer, i * BLOCK)[0]
                   for i in range(count))
    finally:
        tracer.uninstall()


# ---------------------------------------------------------------------------
# suite passes
# ---------------------------------------------------------------------------


def suite_pass(space_token, seed, out_dir):
    """One `solitonlab suite` as a user runs it; returns (wall, exit code)."""
    os.makedirs(out_dir)
    argv = ["--json", os.path.join(out_dir, "report.json"), "--csv", os.path.join(out_dir, "csv"),
            "suite", "--space", space_token, "--seed", str(seed)]
    start = time.perf_counter()
    code = cli.main(argv)
    return time.perf_counter() - start, code


def report_mb(out_dir):
    """Size of the JSON report plus its CSV files."""
    csv_dir = os.path.join(out_dir, "csv")
    total = os.path.getsize(os.path.join(out_dir, "report.json"))
    total += sum(os.path.getsize(os.path.join(csv_dir, f)) for f in os.listdir(csv_dir))
    return total / 1e6


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def run_suite(token, args, result):
    """Query probe, then {suite pass, query probe} until ``seconds`` of
    passes; with --trace one more pass with every layer wrapped."""
    import checks
    from spans import Tracer, layer_metrics

    probe = QueryTally(query_evaluators(), args.seed)
    for _ in range(PROBE_BLOCKS):
        probe.block()
    walls, codes, dirs = [], [], []
    while not walls or sum(walls) < args.seconds:
        dirs.append(os.path.join(args.out, f"pass{len(walls)}"))
        wall, code = suite_pass(token, args.seed, dirs[-1])
        walls.append(wall)
        codes.append(code)
        for _ in range(PROBE_BLOCKS):
            probe.block()
    result["peak_rss_mb"] = peak_rss_mb()
    if args.trace:
        tracer = Tracer()
        dirs.append(os.path.join(args.out, "traced"))
        tracer.install()
        try:
            wall, code = suite_pass(token, args.seed, dirs[-1])
        finally:
            tracer.uninstall()
        codes.append(code)
        result["layers"] = layer_metrics(tracer)
        result["layers"]["cli.report_mb"] = report_mb(dirs[-1])
        result["traced_wall_s"], result["untraced_wall_s"] = wall, walls[0]
        tracer.write(os.path.join(args.out, "trace.csv"))
    errors, certified, attempted, failed = checks.check_suite(token, dirs, codes)
    result.update(wall_s=walls, query_s=probe.latencies, certified_values=certified,
                  attempted=attempted + probe.attempted, failed=failed + probe.failed,
                  errors=errors + probe.errors)


def run_queries(evaluators, args, result):
    """Whole blocks, each checked as soon as it is timed, until ``seconds``
    of blocks; with --trace the same blocks again with every layer wrapped."""
    from spans import Tracer, layer_metrics

    tally = QueryTally(evaluators, args.seed)
    while len(tally.walls) < CERTIFY_BLOCKS or sum(tally.walls) < args.seconds:
        tally.block()
    result["peak_rss_mb"] = peak_rss_mb()
    if args.trace:
        tracer = Tracer()
        result["traced_wall_s"] = traced_blocks(evaluators, args.seed, len(tally.walls), tracer)
        result["untraced_wall_s"] = sum(tally.walls)
        result["layers"] = layer_metrics(tracer)
        tracer.write(os.path.join(args.out, "trace.csv"))
    result.update(wall_s=tally.walls, query_s=tally.latencies, certified_values=tally.certified,
                  attempted=tally.attempted, failed=tally.failed, errors=tally.errors)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    objs = set_up(args.workload, args.seed)
    result = {"setup_s": time.perf_counter() - _T0, "import_s": _IMPORTED - _T0,
              "package": os.path.dirname(os.path.abspath(solitonlab.__file__))}
    if not args.setup_only:
        shutil.rmtree(args.out, ignore_errors=True)
        os.makedirs(args.out)
        if args.workload in SUITES:
            run_suite(SUITES[args.workload], args, result)
        else:
            run_queries(objs, args, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
