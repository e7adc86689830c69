"""Experiment runner: config parsing, subcommands, suite orchestration.

Configs are line-oriented ``key = value`` files with optional ``[section]``
headers (bare keys count as the [experiment] section); unknown keys and
out-of-range values are rejected with their line number. Each key is declared
once, as an ``ExperimentConfig`` field carrying its section, key name and
range check; a flag that overrides a setting has the field's name as its
dest, so file values and flags pass the same check. Reports are JSON (with
per-grid-point rows), bulk data goes to CSV with a fixed column set, and
re-running any subcommand with the same config and seed reproduces the
outputs byte for byte (a timestamp field is excluded from the config hash).
The checks share one closed-form or series kernel per coupling: the ratio
checks tabulate it, ``eigenvalue-bound`` reads its trace and ``green-bound``
takes its Green's function route, with no time integral. No scipy module is
imported up front: the first check to call one carries its import.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import __version__, entropy, kernels, spectral, verify
from .exceptions import ConfigError, SolitonLabError
from .spaces import check_soliton_identities, parse_space

EXIT_PASS = 0
EXIT_VIOLATION = 1  # a check ran and failed
EXIT_CONFIG = 2     # a usage or config error, or a check that could not run

CSV_COLUMNS = ["theorem_id", "space", "a", "x_id", "y_id", "t", "lhs", "rhs", "slack", "ratio"]

THEOREM_IDS = (
    "kernel-axioms", "ultracontractivity", "gaussian-bound", "cr-bound",
    "green-bound", "eigenvalue-bound", "log-sobolev", "sobolev",
    "energy-monotonicity", "weighted-energy",
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


# range checks of the config values
def _positive(x):
    return x > 0


def _nonneg(x):
    return x >= 0


def _setting(default, section: str, check=lambda v: True, key: str | None = None):
    """A config field: its default, its ``[section]``, its key there when that
    differs from the field name, and its range check."""
    return field(default=default, metadata={"section": section, "check": check, "key": key})


@dataclass
class ExperimentConfig:
    """Validated experiment configuration; the unit of reproducibility. Each
    field is one config key, and a command-line flag that overrides it has
    the field's name as its argparse ``dest``."""

    space: str = _setting("gaussian:3", "experiment")
    a: float = _setting(0.25, "experiment", _nonneg)
    seed: int = _setting(0, "experiment", _nonneg)
    method: str = _setting("auto", "method", lambda s: s in kernels.METHODS, key="kind")
    series_eps: float = _setting(1e-12, "method", _positive)
    t_min: float = _setting(1e-3, "method", _positive)
    r_max: float = _setting(40.0, "method", _positive)
    m: int = _setting(4096, "method", lambda x: x >= 16)
    t0: float = _setting(1e-3, "method", _positive)
    time_tol: float = _setting(1e-4, "method", _positive)
    pairs: int = _setting(24, "grids", lambda x: x >= 4)
    times: int = _setting(40, "grids", lambda x: x >= 2)
    t_low: float = _setting(1e-3, "grids", _positive)
    t_high: float = _setting(1e2, "grids", _positive)
    c_values: tuple = _setting((4.5, 5.0, 8.0, 16.0), "grids",
                               lambda xs: len(xs) > 0 and all(x > 4.0 for x in xs), key="c")
    tau_points: int = _setting(20, "grids", lambda x: x >= 1)
    tau_low: float = _setting(1e-2, "grids", _positive)
    tau_high: float = _setting(10.0, "grids", _positive)
    big_d: float = _setting(10.0, "grids", lambda x: x > 2.0, key="D")
    gamma: float = _setting(2.0, "grids", lambda x: x > 1.0)
    k_max: int = _setting(400, "grids", _positive)
    trials: int = _setting(100, "grids", _positive)
    probe_r_max: float = _setting(8.0, "grids", _positive)
    probe_m: int = _setting(512, "grids", lambda x: x >= 16)
    probe_dt: float = _setting(5e-4, "grids", _positive)
    tol_analytic: float = _setting(1e-6, "tolerances", _positive, key="analytic")
    tol_fd: float = _setting(1e-3, "tolerances", _positive, key="fd")
    json_path: str | None = _setting(None, "output", key="json")
    csv_dir: str | None = _setting(None, "output")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["c_values"] = list(self.c_values)
        return d

    def sha256(self) -> str:
        # output paths are not part of the scientific configuration
        d = self.to_dict()
        d.pop("json_path", None)
        d.pop("csv_dir", None)
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def tau_grid(self) -> np.ndarray:
        return np.geomspace(self.tau_low, self.tau_high, self.tau_points)


def _key(f: dataclasses.Field) -> str:
    return f.metadata["key"] or f.name


# (section, key) -> the config field
_SCHEMA = {(f.metadata["section"], _key(f)): f for f in dataclasses.fields(ExperimentConfig)}


def _checked(f: dataclasses.Field, value, line: int | None = None):
    """``value`` if it is finite (float fields) and passes the field's range
    check, else ConfigError."""
    floats = value if f.type is tuple else [value] if f.type is float else []
    if not all(math.isfinite(x) for x in floats) or not f.metadata["check"](value):
        raise ConfigError(f"value out of range for {_key(f)!r}: {value!r}", line=line)
    return value


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config file, then apply and validate ``overrides``
    (config field -> value, None meaning unset); file errors carry their line
    number, and the cross-field checks run once, after the overrides."""
    cfg = ExperimentConfig()
    section = "experiment"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header", line=lineno)
            section = line[1:-1].strip().lower()
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.split("#", 1)[0].strip()
        lookup = (section, key)
        if lookup not in _SCHEMA:
            # bare keys in the default section may belong to any section
            matches = [sk for sk in _SCHEMA if sk[1] == key] if section == "experiment" else []
            if len(matches) == 1:
                lookup = matches[0]
            else:
                raise ConfigError(f"unknown key {key!r} in section [{section}]", line=lineno)
        f = _SCHEMA[lookup]
        try:
            parsed = _parse_value(value, f.type)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", line=lineno) from None
        setattr(cfg, f.name, _checked(f, parsed, lineno))
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    for name, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, name, _checked(fields[name], value))
    try:
        parse_space(cfg.space)
    except (ValueError, SolitonLabError) as exc:
        raise ConfigError(f"bad space token: {exc}") from None
    if cfg.t_high <= cfg.t_low or cfg.tau_high <= cfg.tau_low:
        raise ConfigError("grid upper endpoints must exceed the lower ones")
    return cfg


def _parse_value(value: str, typ):
    """A config value as the field's type: int, float, a tuple of
    comma-separated floats, or a string with optional quotes. Annotations in
    this module are not postponed, so ``typ`` is the type itself."""
    if value.startswith('"') and value.endswith('"') and len(value) >= 2:
        value = value[1:-1]
    elif value.startswith("'") and value.endswith("'") and len(value) >= 2:
        value = value[1:-1]
    if typ is tuple:
        return tuple(float(v.strip()) for v in value.split(",") if v.strip())
    return typ(value) if typ in (int, float) else value


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    """The config file at ``path`` (defaults without one) with ``overrides``."""
    text = ""
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_config(text, overrides)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _envelope(cfg: ExperimentConfig, payload: dict) -> dict:
    return {
        "version": __version__,
        "config": cfg.to_dict(),
        "config_sha256": cfg.sha256(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **payload,
    }


def _json_default(o):
    if isinstance(o, np.generic):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _write_json(doc: dict, path: str | None) -> None:
    # unindented, so json takes its C encoder
    text = json.dumps(doc, sort_keys=True, default=_json_default, allow_nan=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def write_points_csv(report: dict, path: str) -> None:
    """One row per grid point with the documented stable column set; a
    missing cell is empty, and a cell holding a comma is quoted."""
    meta = {"theorem_id": report.get("theorem_id"), "space": report.get("space"),
            "a": report.get("a")}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, CSV_COLUMNS, restval="", extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows({**row, **meta} for row in report.get("points", []))


def emit_plot_data(report_doc: dict, out_dir: str) -> list:
    """Write one CSV per theorem entry contained in a report document."""
    os.makedirs(out_dir, exist_ok=True)
    entries = report_doc.get("checks") or {report_doc.get("theorem_id", "report"): report_doc}
    written = []
    for key in sorted(entries):
        rep = entries[key]
        fname = key.replace(":", "_").replace("/", "_") + ".csv"
        path = os.path.join(out_dir, fname)
        write_points_csv(rep, path)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# evaluator construction and theorem dispatch
# ---------------------------------------------------------------------------


def _seed_for(cfg: ExperimentConfig, name: str) -> int:
    return (cfg.seed + zlib.crc32(name.encode())) % (2 ** 63)


def _evaluator(cfg: ExperimentConfig, a: float, method: str):
    """The kernel of ``method`` at coupling a; ``auto`` is the closed-form or
    series kernel."""
    params = {"eps": cfg.series_eps, "t_min": cfg.t_min}
    if method == "fd_dirichlet":
        params = {"R_max": cfg.r_max, "m": cfg.m, "t0": cfg.t0, "time_tol": cfg.time_tol}
    return kernels.heat_kernel(parse_space(cfg.space), a, method=method, **params)


def _skip_reason(theorem_id: str, cfg: ExperimentConfig) -> str | None:
    """Why ``theorem_id`` does not apply to ``cfg``, or None when it does."""
    space, t, weak = parse_space(cfg.space), theorem_id, cfg.a < 0.25
    rules = [  # (does not apply, why)
        # grid ratio checks need two-point evaluators; the single-source
        # finite-difference kernel verifies through kernel-axioms instead
        (t in ("ultracontractivity", "gaussian-bound", "cr-bound")
         and cfg.method == "fd_dirichlet", f"{t} needs a closed-form or series evaluator"),
        (t == "ultracontractivity" and weak, "ultracontractivity requires a >= 1/4"),
        (t == "gaussian-bound" and weak, "the off-diagonal bound requires a >= 1/4"),
        (t == "green-bound" and space.n < 3, "Green's functions need n >= 3"),
        (t == "green-bound" and weak and space.kind != "gaussian",
         "green-bound requires a >= 1/4 away from the flat space"),
        (t == "eigenvalue-bound" and not space.is_compact,
         "eigenvalue bounds apply to the compact catalogue space"),
        (t == "eigenvalue-bound" and weak, "eigenvalue bounds require a >= 1/4"),
        (t == "sobolev" and space.n < 3, "the critical Sobolev exponent needs n >= 3"),
        (t == "sobolev" and weak, "the Sobolev check requires a >= 1/4"),
        (t in ("energy-monotonicity", "weighted-energy") and space.kind != "gaussian",
         "finite-difference probes run on gaussian spaces only"),
    ]
    return next((why for skip, why in rules if skip), None)


def _shared(store: dict, key, build):
    """``store[key]``, built on first use; a build that raised raises the same
    error again instead of building again."""
    if key not in store:
        try:
            store[key] = build()
        except SolitonLabError as exc:
            store[key] = exc
    if isinstance(store[key], SolitonLabError):
        raise store[key]
    return store[key]


def run_theorem(theorem_id: str, cfg: ExperimentConfig, *, store: dict | None = None,
                **kw) -> verify.VerificationReport:
    """Build what the check needs from the config and run it. ``store``, kept
    by the caller for one config, shares the evaluators (one per route and
    coupling) and kernel tables (one per grid) between checks. Only the
    checks that draw trials or point pairs take the seed, and this is the one
    place that picks the ``kernel-axioms`` tolerance: ``fd`` for the
    finite-difference kernel, else ``analytic``. The report's
    ``runtime_seconds`` is the wall time of the whole check, the kernels and
    tables it builds first included."""
    reason = _skip_reason(theorem_id, cfg)
    if reason is not None:
        raise ConfigError(reason)
    start = time.perf_counter()
    store = {} if store is None else store
    space = parse_space(cfg.space)
    mu = entropy.mu_closed_form(space)
    seed = _seed_for(cfg, theorem_id)
    times = verify.time_grid(cfg.times, cfg.t_low, cfg.t_high)
    # kernels and tables are keyed by route, so "auto" shares the configured one
    auto = kernels.AUTO[space.kind]
    configured = auto if cfg.method == "auto" else cfg.method

    def evaluator(a, route=configured):
        return _shared(store, (route, a), lambda: _evaluator(cfg, a, route))

    def table(a, ts, route=configured, refined=False):
        return _shared(store, ("table", route, a, refined, ts.tobytes()),
                       lambda: verify.kernel_table(
                           evaluator(a, route),
                           verify.separation_grid(space, cfg.pairs, refined), ts))

    if theorem_id == "kernel-axioms":
        tol = cfg.tol_fd if cfg.method == "fd_dirichlet" else cfg.tol_analytic
        report = verify.kernel_axioms(evaluator(cfg.a), seed=seed, tol=tol)
    elif theorem_id == "ultracontractivity":
        report = verify.ultracontractivity(table(cfg.a, times), mu, tol=cfg.tol_analytic)
    elif theorem_id == "gaussian-bound":
        c = kw.get("c", cfg.c_values[0])
        if not 4.0 < c < math.inf:
            raise ConfigError("the off-diagonal bound requires a finite c > 4")
        # one refined table serves every c
        report = verify.gaussian_bound(table(cfg.a, verify.refine_times(times), refined=True),
                                       mu, c, tol=cfg.tol_analytic)
    elif theorem_id == "cr-bound":
        ts = verify.time_grid(cfg.times, cfg.t_low, min(cfg.t_high, 50.0))
        report = verify.cr_bound(table(0.0, ts), mu, space.sup_R, tol=cfg.tol_analytic)
    # the Green's function takes its route from, and the partition rows
    # trace, the closed-form or series kernel whatever the configured method
    elif theorem_id == "green-bound":
        report = verify.green_bound(kernels.GreenEvaluator(evaluator(cfg.a, auto)), mu)
    elif theorem_id == "eigenvalue-bound":
        # the trace is the diagonal first row of the ultracontractivity table
        spec = spectral.sphere_spectrum(space.n, cfg.a, _level_for_count(space.n, cfg.k_max))
        report = verify.eigenvalue_bound(spec, mu, table(cfg.a, times, auto), cfg.k_max,
                                         tol=cfg.tol_analytic)
    elif theorem_id == "log-sobolev":
        report = verify.log_sobolev(space, mu, trials=cfg.trials, tau_grid=cfg.tau_grid(),
                                    seed=seed, tol=cfg.tol_analytic)
    elif theorem_id == "sobolev":
        report = verify.sobolev(space, mu, a=cfg.a, trials=max(10, cfg.trials // 2), seed=seed)
    elif theorem_id == "energy-monotonicity":
        op = spectral.discretize_radial(space, cfg.probe_r_max, cfg.probe_m, 0.0)
        report = verify.energy_monotonicity(op, trials=min(cfg.trials, 20), seed=seed,
                                            dt=cfg.probe_dt, tol=cfg.tol_analytic)
    elif theorem_id == "weighted-energy":
        op = spectral.discretize_radial(space, cfg.probe_r_max, cfg.probe_m, 0.0)
        probe = verify.GrigoryanProbe(op, cfg.t0, D=cfg.big_d, gamma=cfg.gamma)
        report = verify.weighted_energy_bound(probe, mu, tol=cfg.tol_fd)
    else:
        raise ConfigError(f"unknown theorem id {theorem_id!r}")
    report.runtime_seconds = time.perf_counter() - start
    return report


def _level_for_count(n: int, k_max: int) -> int:
    """The harmonic level that holds the (k_max + 1)-th eigenvalue: the
    spectrum through it holds the first k_max eigenvalues in whole levels;
    the partition rows need no spectrum."""
    count = l = 0
    while count < k_max + 1:
        count += spectral.sphere_multiplicity(n, l)
        l += 1
    return l - 1


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def suite_jobs(cfg: ExperimentConfig) -> list:
    """The applicable theorem checks for the config, one per c value for the
    off-diagonal bound."""
    jobs = []
    for theorem in THEOREM_IDS:
        if _skip_reason(theorem, cfg) is not None:
            continue
        if theorem == "gaussian-bound":
            jobs += [(f"gaussian-bound:c={c:g}", {"c": c}) for c in cfg.c_values]
        else:
            jobs.append((theorem, {}))
    return jobs


def run_checks(cfg: ExperimentConfig, jobs: list) -> tuple[dict, int]:
    """Run the ``(check id, keyword arguments)`` jobs in turn through
    ``run_theorem`` on one shared store; returns (report document, exit code).
    A check that raises a non-config SolitonLabError is an ``error`` entry and
    an ``error: <check id>: <Type>: <message>`` line on stderr. Exit 1 means a
    check ran and failed, else 2 that one raised; a ConfigError propagates."""
    store, results = {}, {}
    for job_id, kw in jobs:
        theorem = job_id.split(":")[0]
        try:
            results[job_id] = run_theorem(theorem, cfg, store=store, **kw).to_dict()
        except ConfigError:
            raise
        except SolitonLabError as exc:
            error = f"{type(exc).__name__}: {exc}"
            print(f"error: {job_id}: {error}", file=sys.stderr)
            results[job_id] = {"theorem_id": theorem, "space": cfg.space, "a": cfg.a,
                               "passed": False, "error": error, "points": []}
    ordered = {k: results[k] for k in sorted(results)}
    ran = [v["passed"] for v in ordered.values() if "error" not in v]
    code = (EXIT_VIOLATION if not all(ran)
            else EXIT_PASS if len(ran) == len(ordered) else EXIT_CONFIG)
    return _envelope(cfg, {"checks": ordered, "all_passed": code == EXIT_PASS}), code


def run_suite(cfg: ExperimentConfig) -> tuple[dict, int]:
    """``run_checks`` over every applicable check; the report's ``skipped``
    maps each inapplicable theorem to the reason."""
    doc, code = run_checks(cfg, suite_jobs(cfg))
    doc["skipped"] = {t: r for t in THEOREM_IDS if (r := _skip_reason(t, cfg)) is not None}
    return doc, code


# ---------------------------------------------------------------------------
# point parsing for the kernel/green subcommands
# ---------------------------------------------------------------------------


def _parse_point(space, text: str):
    vec, s = text, None
    if space.kind == "cylinder":
        if ";" not in text:
            raise ConfigError("cylinder points use 'v1,..,vn;s'")
        vec, s = text.split(";", 1)
    try:
        coords = [float(v) for v in vec.split(",")]
        s = None if s is None else float(s)
        if not all(math.isfinite(v) for v in coords) or (s is not None and not math.isfinite(s)):
            raise ValueError("coordinates must be finite")
        return space.point(coords, s=s)
    except ValueError as exc:
        raise ConfigError(f"bad point {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching of the global flags, so the subcommand flag --c is
    # not taken for an abbreviation of --config or --csv
    ap = argparse.ArgumentParser(prog="solitonlab",
                                 description="verification lab for Schrodinger heat kernels "
                                             "on closed-form shrinking solitons",
                                 allow_abbrev=False)
    ap.add_argument("--config", help="experiment config file")
    ap.add_argument("--seed", type=int, default=None, help="override the config seed")
    ap.add_argument("--json", dest="json_path", default=None,
                    help="write the JSON report here instead of stdout")
    ap.add_argument("--csv", dest="csv_dir", default=None,
                    help="directory for per-grid-point CSV files")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("spaces", help="list the catalogue with identity checks")

    p = sub.add_parser("mu", help="entropy constant with quadrature cross-check")
    p.add_argument("--space", default=None)

    p = sub.add_parser("spectrum", help="eigenvalues as CSV")
    p.add_argument("--space", default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--l-max", type=int, default=40)
    p.add_argument("--k", type=int, default=40, help="eigenvalue count (discretized)")
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("kernel", help="evaluate the heat kernel at one point pair")
    p.add_argument("--space", default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--method", default=None)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = sub.add_parser("green", help="evaluate the Green's function at one point pair")
    p.add_argument("--space", default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = sub.add_parser("verify", help="run one theorem check")
    p.add_argument("theorem", choices=THEOREM_IDS)
    p.add_argument("--space", default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--D", dest="big_d", metavar="D", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--tau-grid", default=None, help="lo,hi,count")
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--method", default=None)

    p = sub.add_parser("suite", help="run all applicable checks for the space")
    p.add_argument("--space", default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    p = sub.add_parser("plot-data", help="re-emit CSV rows from a saved JSON report")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)

    return ap


def _tau_grid(text: str) -> dict:
    """Config overrides from a ``lo,hi,count`` tau grid flag."""
    fields = text.split(",")
    if len(fields) != 3:
        raise ConfigError(f"--tau-grid takes lo,hi,count, got {text!r}")
    try:
        return {"tau_low": float(fields[0]), "tau_high": float(fields[1]),
                "tau_points": int(fields[2])}
    except ValueError as exc:
        raise ConfigError(f"bad --tau-grid value: {exc}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a flag that overrides a setting has the field's name as its dest
        overrides = {f.name: getattr(args, f.name, None)
                     for f in dataclasses.fields(ExperimentConfig)}
        if getattr(args, "tau_grid", None) is not None:
            overrides.update(_tau_grid(args.tau_grid))
        cfg = load_config(args.config, overrides)
        return _dispatch(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolitonLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _dispatch(args, cfg: ExperimentConfig) -> int:
    if args.command == "spaces":
        rows = {}
        for token in ("gaussian:1", "gaussian:2", "gaussian:3", "sphere:2", "sphere:3",
                      "cylinder:3", "cylinder:4"):
            sp = parse_space(token)
            rep = check_soliton_identities(sp, 50, cfg.seed)
            rows[token] = {
                "n": sp.n, "kind": sp.kind, "sup_R": sp.sup_R,
                "volume": sp.volume if sp.is_compact else None,
                "max_potential_defect": rep.max_potential_defect,
                "max_trace_defect": rep.max_trace_defect,
                "passed": rep.passed,
            }
        _write_json(_envelope(cfg, {"spaces": rows}), cfg.json_path)
        return EXIT_PASS if all(r["passed"] for r in rows.values()) else EXIT_VIOLATION

    if args.command == "mu":
        sp = parse_space(cfg.space)
        rep = entropy.mu(sp)
        defect = entropy.minimizer_check(sp)
        _write_json(_envelope(cfg, {
            "space": cfg.space, "mu": rep.mu, "method": rep.method,
            "quadrature_error": rep.quadrature_error,
            "normalization_check": rep.normalization_check,
            "minimizer_defect": defect,
        }), cfg.json_path)
        return EXIT_PASS if abs(rep.normalization_check) <= 1e-8 else EXIT_VIOLATION

    if args.command == "spectrum":
        sp = parse_space(cfg.space)
        if sp.kind == "sphere":
            if args.l_max < 0:
                raise ConfigError(f"--l-max must be >= 0, got {args.l_max}")
            # one row per level, never the expanded spectrum: on S^3 that
            # holds about (l_max + 1)^3 / 3 values
            rows = []
            idx = 0
            for l in range(args.l_max + 1):
                mult = spectral.sphere_multiplicity(sp.n, l)
                idx += mult
                rows.append((idx, spectral.sphere_eigenvalue(sp.n, cfg.a, l), mult, "analytic"))
        else:
            if sp.kind != "gaussian":
                raise ConfigError("discretized spectra are radial (gaussian spaces only)")
            if not 1 <= args.k <= cfg.m:
                raise ConfigError(f"--k must lie in [1, m = {cfg.m}], got {args.k}")
            op = spectral.discretize_radial(sp, cfg.r_max, cfg.m, cfg.a)
            spec = spectral.eigen_solve(op, args.k)
            rows = [(i + 1, v, 1, "discretized") for i, v in enumerate(spec.values)]
        lines = ["index,eigenvalue,multiplicity,source"]
        lines += [f"{i},{repr(float(v))},{m},{s}" for (i, v, m, s) in rows]
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_PASS

    if args.command == "kernel":
        if cfg.method == "fd_dirichlet":
            raise ConfigError("the fd_dirichlet kernel has its source at the origin and takes "
                              "radii, not point pairs; check it with 'verify kernel-axioms'")
        sp = parse_space(cfg.space)
        ev = _evaluator(cfg, cfg.a, cfg.method)
        x = _parse_point(sp, args.x)
        y = _parse_point(sp, args.y)
        val, err = ev.evaluate(x, y, args.t)
        _write_json(_envelope(cfg, {"value": val, "method": ev.method,
                                    "error_estimate": err}), cfg.json_path)
        return EXIT_PASS

    if args.command == "green":
        sp = parse_space(cfg.space)
        gv = kernels.GreenEvaluator(_evaluator(cfg, cfg.a, "auto"))
        x = _parse_point(sp, args.x)
        y = _parse_point(sp, args.y)
        if sp.distance(x, y) == 0.0:
            raise ConfigError("Green's function is singular on the diagonal: "
                              "--x and --y must differ")
        val, err, route = gv.evaluate(x, y)
        _write_json(_envelope(cfg, {"value": val, "method": route,
                                    "error_estimate": err}), cfg.json_path)
        return EXIT_PASS

    if args.command in ("verify", "suite"):
        doc, code = (run_suite(cfg) if args.command == "suite" else
                     run_checks(cfg, [(args.theorem, {} if args.c is None else {"c": args.c})]))
        _write_json(doc, cfg.json_path)
        if cfg.csv_dir:
            emit_plot_data(doc, cfg.csv_dir)
        return code

    if args.command == "plot-data":
        with open(args.report, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        written = emit_plot_data(doc, args.out)
        print("\n".join(written))
        return EXIT_PASS

    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
