"""The theorem suite.

Every sharp inequality in scope becomes a quantified check over an explicit
grid: ultracontractivity, the Gaussian off-diagonal bound with its extracted
constant A_emp, the curvature-corrected bound for the Laplace kernel, Green's
function bounds (B_emp), eigenvalue lower bounds with the route through the
heat-kernel trace V H(o, o, t), the entropy-energy (log-Sobolev) inequality,
the critical Sobolev inequality (C_emp), and the weighted-energy machinery
with its explicit iteration constants m(gamma), D0, delta.

Checks return a VerificationReport carrying the worst-case slack (or ratio),
any extracted empirical constants, per-grid-point rows for CSV export, and a
pass flag; its notes carry only what no other field holds. Every check can
fail: a property that holds by construction (the kernel's symmetry, the
positivity of m(gamma)) is a test, not a check. Non-explicit constants are
never assumed: the pass criteria for them are finiteness plus stability
under nested grid refinement. The three
ratio checks read a shared KernelTable through ``ratios``, one array pass
per weight, and build rows only for the cells their report carries.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .entropy import RadialProfile, TrialFunction, random_trials
from .exceptions import KindMismatchError
from .kernels import DirichletRadialHeatKernel, GreenEvaluator, RadialMarch, graded_steps
from .quadrature import gaussian_cutoff
from .spaces import SolitonSpace
from .spectral import DiscretizedOperator, Spectrum, counting_function, weyl_constant

ANALYTIC_TOL = 1e-6  # default for closed-form and series-backed checks
FD_TOL = 1e-3        # default for finite-difference-backed checks
STABILITY = 0.05     # relative drift of an extracted constant allowed under refinement


# ---------------------------------------------------------------------------
# reports and grids
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of one theorem check over an explicit grid."""

    theorem_id: str
    space: str | None
    a: float | None
    grid: dict
    tolerance: float
    seed: int | None
    mode: str  # "slack" (worst >= -tol passes) or "ratio" (worst <= 1 + tol)
    worst_case_slack: float
    extracted_constants: dict = field(default_factory=dict)
    points: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    # wall time of the whole check, set by whoever runs it (cli.run_theorem)
    runtime_seconds: float = field(default=0.0, init=False)

    @property
    def passed(self) -> bool:
        if self.mode == "ratio":
            return self.worst_case_slack <= 1.0 + self.tolerance
        return self.worst_case_slack >= -self.tolerance

    def to_dict(self) -> dict:
        """The report as a JSON-ready dict, per-grid-point rows included."""
        return {
            "theorem_id": self.theorem_id,
            "space": self.space,
            "a": self.a,
            "grid": self.grid,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "mode": self.mode,
            "worst_case_slack": self.worst_case_slack,
            "extracted_constants": self.extracted_constants,
            "notes": list(self.notes),
            "passed": self.passed,
            "runtime_seconds": self.runtime_seconds,
            "points": list(self.points),
        }


class SeparationGrid(NamedTuple):
    """Separations in a kernel's terms (d, theta, or (theta, s) on the
    cylinder), the distance of each, and the label that names it in rows."""

    seps: list
    d: np.ndarray
    labels: list


def separation_grid(space: SolitonSpace, count: int = 24,
                    refined: bool = False) -> SeparationGrid:
    """The ratio checks' grid of ``count`` separations, the diagonal first:
    d over [0, 8] on the gaussian space, theta over [0, pi] on the sphere,
    and on the cylinder count // 2 sphere-factor separations (theta, 0) over
    [0, pi], then line separations (0, s) over (0, 8]. Every catalogue space
    is homogeneous, so these are all the kernel depends on. ``refined``
    inserts the midpoints of each leg: 2 count - 1 rows, whose even rows are
    the base grid."""

    def leg(hi, points):  # evenly spaced over [0, hi]
        return np.linspace(0.0, hi, 2 * points - 1 if refined and points else points)

    if space.kind == "gaussian":
        d = leg(8.0, count)
        return SeparationGrid(d.tolist(), d, [f"d={x:.6g}" for x in d])
    theta = leg(math.pi, count // 2 if space.kind == "cylinder" else count)
    if space.kind == "sphere":
        return SeparationGrid(theta.tolist(), space.sphere_radius * theta,
                              [f"theta={x:.6g}" for x in theta])
    s = leg(8.0, count - count // 2 + 1)[1:]
    seps = [(x, 0.0) for x in theta.tolist()] + [(0.0, x) for x in s.tolist()]
    d = np.concatenate([space.sphere_radius * theta, s])
    return SeparationGrid(seps, d, [f"theta={x:.6g};s={y:.6g}" for x, y in seps])


def time_grid(count: int = 40, lo: float = 1e-3, hi: float = 1e2) -> np.ndarray:
    return np.geomspace(lo, hi, count)


def refine_times(ts: np.ndarray) -> np.ndarray:
    """Insert log-midpoints; the result contains the original grid."""
    mids = np.sqrt(ts[:-1] * ts[1:])
    return np.sort(np.concatenate([ts, mids]))


# ---------------------------------------------------------------------------
# kernel axioms
# ---------------------------------------------------------------------------


def kernel_axioms(evaluator, seed: int = 0, tol: float = ANALYTIC_TOL) -> VerificationReport:
    """Positivity at 6 random pairs, mass <= 1, and the semigroup identity.

    Failures are reported, not raised. Symmetry is not a row: a two-point
    kernel is a function of the separation, and the separation is symmetric
    bit for bit.
    """
    space = evaluator.space
    rng = np.random.default_rng(seed)
    samples = 6
    ts = [0.05, 0.3, 1.0]
    notes = []
    if isinstance(evaluator, DirichletRadialHeatKernel):
        ts = [t for t in ts if t > evaluator.t0 * 4] or [8.0 * evaluator.t0]
        pos_viol = max(max(0.0, -float(evaluator.profile(t).min())) for t in ts)
        semi_viol = max(evaluator.semigroup_defect(t, t / 2) for t in ts)
    else:
        pairs = [(space.random_point(rng), space.random_point(rng)) for _ in range(samples)]
        pos_viol = 0.0
        for (px, py) in pairs:
            for t in ts:
                hxy, err = evaluator.evaluate(px, py, t)
                pos_viol = max(pos_viol, -min(hxy + err, 0.0))
        # a moderate deterministic pair keeps the identity resolvable even
        # when the random pairs land in the far-tail noise of the series
        semi_pairs = [(space.pole(), space.point_at_distance(1.0))] + pairs[:2]
        semi_viol = 0.0
        skipped = 0
        for (px, py) in semi_pairs:
            for t in ts[:2]:
                direct, derr = evaluator.evaluate(px, py, 1.5 * t)
                # the composition quadrature carries a few orders more
                # noise than a pointwise evaluation; skip where the
                # identity cannot be certified at the 1e-3 tolerance
                if direct <= 1e3 * derr:
                    skipped += 1
                    continue
                semi_viol = max(semi_viol, evaluator.semigroup_defect(px, py, t, t / 2))
        if skipped:
            notes.append(f"{skipped} semigroup samples below the noise floor (skipped)")
    mass_viol = max(max(0.0, evaluator.mass(t) - 1.0) for t in ts)

    axioms = [
        ("positivity", pos_viol, tol),
        ("mass", mass_viol, tol),
        ("semigroup", semi_viol, 1e-3),
    ]
    # one row per axiom: its violation against its limit
    rows = [{"x_id": name, "y_id": "", "t": math.nan, "lhs": viol, "rhs": limit,
             "slack": limit - viol, "ratio": math.nan} for name, viol, limit in axioms]
    return VerificationReport(
        theorem_id="kernel-axioms",
        space=space.token,
        a=evaluator.a,
        grid={"samples": samples, "times": ts},
        tolerance=0.0,
        seed=seed,
        mode="slack",
        worst_case_slack=min(r["slack"] for r in rows),
        points=rows,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# ultracontractivity and Gaussian bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelTable:
    """Kernel values and error estimates on a separation grid x a time grid."""

    evaluator: object
    grid: SeparationGrid
    times: np.ndarray
    values: np.ndarray    # shape (separations, times)
    errors: np.ndarray


def kernel_table(evaluator, grid: SeparationGrid, times) -> KernelTable:
    """The evaluator's table over the separations of ``grid`` x ``times``."""
    return KernelTable(evaluator, grid, np.asarray(times), *evaluator.table(grid.seps, times))


class Ratios(NamedTuple):
    """A ratio check's arrays over a kernel table, each of the table's shape."""

    ratio: np.ndarray     # NaN where unresolved
    resolved: np.ndarray
    rhs: np.ndarray       # e^{-mu} (4 pi t)^{-n/2} e^{-log_weight}: the bound on H

    def cells(self, index) -> Ratios:
        return Ratios(*(v[index] for v in self))


def _each(f, x: np.ndarray) -> np.ndarray:
    """math's ``f`` at every entry (numpy's log and exp differ in the last bit on some)."""
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def ratios(table: KernelTable, mu: float, log_weight) -> Ratios:
    """The ratio H * exp(mu + (n/2) ln(4 pi t) + log_weight(d, t)) over the table
    in one array pass; ``log_weight`` takes the column of the rows' distances
    and the row of times. Computed in log space, since far separations at
    small times underflow the kernel while the weight overflows. A cell
    resolves when its value exceeds ten times its error estimate, or when the
    noise max(err, |h|) times the factor still certifies the bound (at most
    0.5); otherwise the value is cancellation noise that would poison the
    extracted constants, and its ratio is NaN."""
    h, err = table.values, table.errors
    d = table.grid.d.reshape(-1, 1)
    shift = mu + 0.5 * table.evaluator.space.n * _each(math.log, 4.0 * math.pi * table.times)
    shift = np.broadcast_to(shift + log_weight(d, table.times), h.shape)
    clean = h > 10.0 * err
    v = np.where(clean, h, np.maximum(err, np.abs(h)))
    positive = v > 0.0
    lr = np.where(positive, _each(math.log, np.where(positive, v, 1.0)) + shift, -math.inf)
    prod = np.where(lr < 700.0, _each(math.exp, np.minimum(lr, 700.0)), math.inf)
    resolved = clean | (prod <= 0.5)
    return Ratios(np.where(resolved, prod, math.nan), resolved,
                  _each(math.exp, -np.clip(shift, -700.0, 700.0)))


def _max_resolved(r: Ratios) -> tuple[float, tuple | None]:
    """The largest resolved ratio and its (separation, time) cell, or inf and None."""
    if not r.resolved.any():
        return math.inf, None
    masked = np.where(r.resolved, r.ratio, -math.inf)
    cell = np.unravel_index(int(np.argmax(masked)), masked.shape)
    return float(masked[cell]), cell


# the note of a ratio check that had nothing to certify; it fails with ratio inf
NO_RESOLVED_NOTE = "no resolved grid point: every kernel value is inside the method noise floor"


# the note of a check given no trial or time at all; it fails instead of
# passing vacuously
EMPTY_GRID_NOTE = "empty grid: the check was given no trial or time to certify"


def _empty_grid_report(theorem_id: str, space: str, a, grid: dict, tol: float, seed: int,
                       mode: str) -> VerificationReport:
    return VerificationReport(theorem_id=theorem_id, space=space, a=a, grid=grid,
                              tolerance=tol, seed=seed, mode=mode,
                              worst_case_slack=-math.inf if mode == "slack" else math.inf,
                              notes=[EMPTY_GRID_NOTE])


def _ratio_report(theorem_id: str, table: KernelTable, r: Ratios,
                  cells=(slice(None), slice(None)), *, worst: float, constants: dict,
                  grid: dict, tol: float) -> VerificationReport:
    """The report of a ratio check whose rows are the (separation, time) ``cells``
    of the table; with no cell it fails with EMPTY_GRID_NOTE alone. Its notes
    are the count of unresolved cells (of the rows and, when they are a
    sub-grid, of the whole table) and NO_RESOLVED_NOTE when no row resolves."""
    space, a = table.evaluator.space, table.evaluator.a
    shown = r.cells(cells)
    if not shown.ratio.size:
        return _empty_grid_report(theorem_id, space.token, a, grid, tol, None, "ratio")
    unresolved = int(np.count_nonzero(~shown.resolved))
    notes = []
    if shown.ratio.size < r.ratio.size:
        everywhere = int(np.count_nonzero(~r.resolved))
        if everywhere:
            notes.append(f"unresolved noise-floor points: {unresolved} base, {everywhere} refined")
    elif unresolved:
        notes.append(f"{unresolved} grid points below the method noise floor (excluded)")
    if unresolved == shown.ratio.size:
        notes.append(NO_RESOLVED_NOTE)
    ts = table.times[cells[1]].tolist()
    hs, ratio, resolved, rhs = (v.tolist() for v in (table.values[cells], *shown))
    rows = []
    for k, (label, d) in enumerate(zip(table.grid.labels[cells[0]],
                                       table.grid.d[cells[0]].tolist())):
        for t, h, q, ok, b in zip(ts, hs[k], ratio[k], resolved[k], rhs[k]):
            rows.append({"x_id": label, "y_id": "", "t": t, "d": d, "lhs": h,
                         "rhs": b, "slack": b - h, "ratio": q, "resolved": ok})
    return VerificationReport(theorem_id=theorem_id, space=space.token, a=a, grid=grid,
                              tolerance=tol, seed=None, mode="ratio", worst_case_slack=worst,
                              extracted_constants=constants, points=rows, notes=notes)


def ultracontractivity(table: KernelTable, mu: float,
                       tol: float = ANALYTIC_TOL) -> VerificationReport:
    """On-diagonal-type bound H <= e^{-mu} (4 pi t)^{-n/2} over the table.

    On the gaussian space the ratio must equal one exactly on the diagonal
    (the sharp case) and stay strictly below one off it; both facts are
    recorded in the notes and gate the check there.
    """
    space = table.evaluator.space
    r = ratios(table, mu, lambda d, t: 0.0)
    worst, arg = _max_resolved(r)
    sharp_notes = []
    if arg is not None and space.kind == "gaussian":
        d = table.grid.d
        diag, off = r.ratio[d == 0.0], r.ratio[d > 0.0]
        diag_dev = float(np.max(np.abs(diag - 1.0))) if diag.size else math.inf
        off_ok = bool(np.all(off < 1.0))
        sharp_notes = [f"diagonal ratio deviation from 1: {diag_dev:.2e}",
                       "off-diagonal ratios strictly below 1: " + ("yes" if off_ok else "NO")]
        if diag_dev > 1e-13 or not off_ok:
            worst = math.inf  # sharpness structure broken
    argmax = None
    if arg is not None:
        argmax = {"x_id": table.grid.labels[arg[0]], "t": float(table.times[arg[1]])}
    report = _ratio_report("ultracontractivity", table, r, worst=worst,
                           constants={"max_ratio": worst, "argmax": argmax},
                           grid={"pairs": len(table.grid.seps), "times": len(table.times)},
                           tol=tol)
    report.notes += sharp_notes
    return report


def gaussian_bound(table: KernelTable, mu: float, c: float,
                   tol: float = ANALYTIC_TOL) -> VerificationReport:
    """Off-diagonal bound with weight exp(-d^2/(c t)) and extracted A_emp(c).

    A_emp is the grid maximum of H (4 pi t)^{n/2} e^mu e^{d^2/(ct)}; the pass
    criteria are finiteness and stability under nested refinement (within
    ``STABILITY``). ``table`` is on the refined grid; the base grid, whose
    rows the report carries, is the slice [::2, ::2] of it: every other
    separation at every other time. A splitting cross-check bounds H by the
    weighted L2 integrals of both endpoints.
    """
    if c <= 4.0:
        raise ValueError("the off-diagonal weight requires c > 4")
    evaluator = table.evaluator
    space = evaluator.space
    base = (slice(None, None, 2), slice(None, None, 2))
    ts = table.times[base[1]]
    grid = {"pairs": len(table.grid.d[base[0]]), "times": len(ts), "c": c}
    if not table.values[base].size:
        return _empty_grid_report("gaussian-bound", space.token, evaluator.a,
                                  grid, STABILITY, None, "ratio")
    r = ratios(table, mu, lambda d, t: d * d / (c * t))
    a_ref, _ = _max_resolved(r)
    a_base, _ = _max_resolved(r.cells(base))

    # splitting cross-check: H <= sqrt(E_D(x, t/2) E_D(y, t/2)) e^{-d^2/(2 D t)},
    # at the middle and last base times, read from the table's first 4 rows;
    # on a homogeneous space E_D(x, t/2) = E_D(y, t/2) = e, and sqrt(e e) = e
    D = c / 2.0
    split_worst = 0.0
    for col in (2 * (len(ts) // 2), 2 * (len(ts) - 1)):
        t = float(table.times[col])
        e = evaluator.weighted_l2(t / 2.0, D)
        for k, d in enumerate(table.grid.d[:4].tolist()):
            bound = e * math.exp(-d * d / (2.0 * D * t))
            split_worst = max(split_worst, float(table.values[k, col]) / bound)
    worst = a_ref / a_base if a_base > 0 else math.inf
    if not (math.isfinite(a_ref) and math.isfinite(a_base)) or split_worst > 1.0 + 10 * tol:
        worst = math.inf
    return _ratio_report("gaussian-bound", table, r, base, worst=worst,
                         constants={"A_emp": a_ref, "A_emp_base": a_base,
                                    "splitting_max_ratio": split_worst},
                         grid=grid, tol=STABILITY)


def cr_bound(table: KernelTable, mu: float, C_R: float,
             tol: float = ANALYTIC_TOL) -> VerificationReport:
    """Laplace-kernel bound with the curvature growth factor exp(C_R t / 6).

    Also probes (without gating) whether the smaller exponent C_R t / 12
    holds empirically, since sharpness of 1/6 is not claimed anywhere; both
    exponents read the one table of the Laplace kernel, one pass each.
    """
    if table.evaluator.a != 0.0:
        raise ValueError("the curvature-corrected bound applies to the Laplace kernel (a = 0)")
    r = ratios(table, mu, lambda d, t: -C_R * t / 6.0)
    worst, _ = _max_resolved(r)
    worst12, _ = _max_resolved(ratios(table, mu, lambda d, t: -C_R * t / 12.0))
    return _ratio_report("cr-bound", table, r, worst=worst,
                         constants={"max_ratio": worst, "max_ratio_exponent_12": worst12},
                         grid={"pairs": len(table.grid.seps), "times": len(table.times),
                               "C_R": C_R},
                         tol=tol)


# ---------------------------------------------------------------------------
# Green's function bound
# ---------------------------------------------------------------------------


def green_bound(green_evaluator: GreenEvaluator, mu: float,
                distances=None) -> VerificationReport:
    """B_emp = max G(x, y) d^{n-2} e^mu over a separation grid.

    Pass requires finiteness and refinement stability (within ``STABILITY``);
    the small-separation power law (log-log slope 2 - n) is fitted and
    recorded. ``grid["routes"]`` counts the rows each Green's function route
    evaluated.
    """
    space = green_evaluator.space
    n = space.n
    if distances is None:
        if space.kind == "sphere":
            ds = space.sphere_radius * np.geomspace(0.02, 0.9 * math.pi, 8)
        else:
            ds = np.geomspace(0.25, 6.0, 8)
    else:
        ds = np.asarray(distances, dtype=float)
    pole = space.pole()
    routes = Counter()

    def b_rows(dd):
        rows = []
        for d in dd:
            y = space.point_at_distance(float(d))
            gval, gerr, route = green_evaluator.evaluate(pole, y)
            routes[route] += 1
            rows.append({"x_id": "p0", "y_id": f"d={d:.6g}", "t": math.nan,
                         "d": float(d), "lhs": gval,
                         "rhs": math.exp(-mu) / d ** (n - 2),
                         "slack": math.exp(-mu) / d ** (n - 2) - gval,
                         "ratio": gval * d ** (n - 2) * math.exp(mu),
                         "err": gerr})
        return rows

    rows = b_rows(ds)
    b_base = float(max(r["ratio"] for r in rows))
    mids = np.sqrt(ds[:-1] * ds[1:])
    rows_ref = rows + b_rows(mids)
    b_ref = float(max(r["ratio"] for r in rows_ref))

    # small-separation slope of log G vs log d
    small = sorted(rows_ref, key=lambda r: r["d"])[:6]
    xs = np.log([r["d"] for r in small])
    ys = np.log([r["lhs"] for r in small])
    slope = float(np.polyfit(xs, ys, 1)[0])
    worst = b_ref / max(b_base, 1e-300)
    if not math.isfinite(b_ref):
        worst = math.inf
    return VerificationReport(
        theorem_id="green-bound",
        space=space.token,
        a=green_evaluator.a,
        grid={"distances": [float(d) for d in ds], "routes": dict(sorted(routes.items()))},
        tolerance=STABILITY,
        seed=None,
        mode="ratio",
        worst_case_slack=worst,
        extracted_constants={"B_emp": b_ref, "B_emp_base": b_base, "slope": slope},
        points=rows_ref,
    )


# ---------------------------------------------------------------------------
# eigenvalue bound
# ---------------------------------------------------------------------------


def eigenvalue_bound(spectrum: Spectrum, mu: float, table: KernelTable, k_max: int, *,
                     tol: float = ANALYTIC_TOL) -> VerificationReport:
    """lambda_k >= (2 n pi / e) (k e^mu / V)^{2/n} plus the partition route.

    Also verified: the partition-function inequality
    Z(t) <= e^{-mu} V (4 pi t)^{-n/2} at the times of ``table``, with Z the
    trace V H(o, o, t) read from the table's first row, which must be the
    diagonal (certified at its upper value, trace plus error estimate), and
    the Weyl ratio window for k in [200, 400] when available. n and V are
    those of the table's space.
    """
    kernel = table.evaluator
    if kernel.a != spectrum.a:
        raise ValueError("the kernel and the spectrum must share the coupling a")
    if not len(table.grid.d) or table.grid.d[0] != 0.0:
        raise ValueError("the trace is read from the table's first row, which must be diagonal")
    n, V = kernel.space.n, kernel.space.volume
    lam = spectrum.values
    if len(lam) < k_max:
        raise ValueError("spectrum truncation shorter than k_max")
    ts = table.times
    rows = []
    worst = math.inf
    coef = 2.0 * n * math.pi / math.e
    for k in range(1, k_max + 1):
        bound = coef * (k * math.exp(mu) / V) ** (2.0 / n)
        lk = float(lam[k - 1])
        rows.append({"x_id": f"k={k}", "y_id": "", "t": math.nan,
                     "lhs": bound, "rhs": lk, "slack": lk - bound,
                     "ratio": bound / lk if lk > 0 else math.inf})
        worst = min(worst, lk - bound)

    part_worst = math.inf
    for t, h, h_err in zip(ts, table.values[0], table.errors[0]):
        z, err = V * h, V * h_err
        upper = z + err
        rhs = math.exp(-mu) * V * (4.0 * math.pi * t) ** (-n / 2.0)
        slack = rhs - upper
        part_worst = min(part_worst, slack / rhs)
        rows.append({"x_id": "partition", "y_id": "", "t": float(t),
                     "lhs": z, "rhs": rhs, "slack": slack, "ratio": upper / rhs})

    notes = []
    if k_max >= 400:
        cw = weyl_constant(n)
        ratios = [float(lam[k - 1]) / (cw * (k / V) ** (2.0 / n)) for k in range(200, 401)]
        notes.append(f"Weyl ratio over k in [200,400]: [{min(ratios):.4f}, {max(ratios):.4f}]")
        count_ratios = [
            counting_function(spectrum, float(lam[k - 1])) * cw ** (n / 2.0) /
            (V * float(lam[k - 1]) ** (n / 2.0)) for k in (200, 300, 400)
        ]
        notes.append(f"counting ratios at k=200,300,400: {[round(c, 4) for c in count_ratios]}")
        # the [0.9, 1.1] window is a dimension-two statement; higher
        # dimensions have wider multiplicity blocks and only get recorded
        if n == 2 and not (0.9 <= min(ratios) and max(ratios) <= 1.1):
            notes.append("Weyl window violated")
            worst = -math.inf
    worst = min(worst, part_worst)
    return VerificationReport(
        theorem_id="eigenvalue-bound",
        space=kernel.space.token,
        a=spectrum.a,
        grid={"k_max": k_max, "times": len(ts)},
        tolerance=tol,
        seed=None,
        mode="slack",
        worst_case_slack=worst,
        extracted_constants={"min_eigen_slack": min(r["slack"] for r in rows
                                                    if r["x_id"].startswith("k=")),
                             "min_partition_relative_slack": part_worst},
        points=rows,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# entropy-energy and Sobolev inequalities
# ---------------------------------------------------------------------------


def log_sobolev_slack(space: SolitonSpace, mu: float, trial: TrialFunction,
                      taus) -> tuple[float, float, list]:
    """(energy, entropy, slacks): the trial's integrals, each computed once, and
    the slack of the entropy-energy inequality at each tau in ``taus``."""
    energy = 4.0 * trial.int_grad2() + trial.int_R_phi2()
    entropy_term = trial.int_entropy()
    return energy, entropy_term, [
        tau * energy - (mu + space.n + 0.5 * space.n * math.log(4.0 * math.pi * tau)) - entropy_term
        for tau in taus]


def sharp_gaussian_trial(space: SolitonSpace, tau: float) -> TrialFunction:
    """The extremal Gaussian trial phi^2 = (4 pi tau)^{-n/2} e^{-|x|^2/(4 tau)}."""
    if space.kind != "gaussian":
        raise KindMismatchError("the extremal trial lives on the gaussian space")
    sigma = 2.0 * math.sqrt(tau)
    return TrialFunction(space, RadialProfile("gaussian", sigma, gaussian_cutoff(sigma)))


def log_sobolev(space: SolitonSpace, mu: float, trials: int = 100, tau_grid=None,
                seed: int = 0, tol: float = ANALYTIC_TOL) -> VerificationReport:
    """Entropy-energy inequality over ``trials`` seeded random trials (and, on
    the gaussian space, the extremal Gaussian) and a tau grid."""
    taus = np.asarray(tau_grid) if tau_grid is not None else np.geomspace(1e-2, 10.0, 20)
    trial_list = random_trials(space, trials, seed)
    if space.kind == "gaussian":
        trial_list = trial_list + [sharp_gaussian_trial(space, 1.0)]
    if not (trial_list and len(taus)):
        return _empty_grid_report("log-sobolev", space.token, None,
                                  {"trials": len(trial_list), "taus": len(taus)}, tol, seed,
                                  "slack")
    rows = []
    worst = math.inf
    for idx, tr in enumerate(trial_list):
        energy, entropy_term, slacks = log_sobolev_slack(space, mu, tr, taus)
        for tau, slack in zip(taus, slacks):
            # right side tau E - (mu + n + (n/2) ln 4 pi tau) = slack + entropy
            rows.append({"x_id": f"trial{idx}", "y_id": "", "t": float(tau),
                         "lhs": entropy_term, "rhs": slack + entropy_term,
                         "slack": slack, "ratio": math.nan})
            worst = min(worst, float(slack))
    return VerificationReport(
        theorem_id="log-sobolev",
        space=space.token,
        a=None,
        grid={"trials": len(trial_list), "taus": len(taus)},
        tolerance=tol,
        seed=seed,
        mode="slack",
        worst_case_slack=worst,
        extracted_constants={"min_slack": worst},
        points=rows,
    )


def sobolev(space: SolitonSpace, mu: float, a: float = 0.25, trials: int = 50,
            seed: int = 0) -> VerificationReport:
    """Critical Sobolev quotient with extracted constant C_emp (n >= 3).

    C_emp is the maximum over trials of
    ||u||_{2n/(n-2)}^2 / (e^{-2 mu/n} integral(|grad u|^2 + a R u^2));
    pass requires finiteness, refinement stability (within ``STABILITY``),
    and dilation invariance of the quotient on the gaussian space.
    """
    if space.n < 3:
        raise ValueError("the critical Sobolev exponent needs n >= 3")
    if a < 0.25:
        raise ValueError("the curvature term requires a >= 1/4")
    if trials < 1:  # the Talenti shapes alone would refine nothing
        return _empty_grid_report("sobolev", space.token, a, {"trials": trials}, STABILITY,
                                  seed, "ratio")
    n = space.n
    p_crit = 2.0 * n / (n - 2.0)
    damp = math.exp(-2.0 * mu / n)

    def quotient(tr):
        num = tr.int_power(p_crit) ** ((n - 2.0) / n)
        den = damp * (tr.int_grad2() + a * tr.int_R_phi2())
        return num / den

    # near-extremal Talenti shapes on the flat space, then seeded random
    # trials; the base trials are the prefix of the refined list
    ref_list = [TrialFunction(space, RadialProfile(
        "talenti", scale, 40.0 * scale, power=(n - 2) / 2.0))
        for scale in (1.0, 2.0) if space.kind == "gaussian"]
    ref_list += random_trials(space, 2 * trials, seed)
    ref = [quotient(tr) for tr in ref_list]
    base = ref[:len(ref_list) - trials]
    rows = [{"x_id": f"trial{i}", "y_id": "", "t": math.nan, "lhs": q, "rhs": math.nan,
             "slack": math.nan, "ratio": q} for i, q in enumerate(base)]
    c_base, c_ref = max(base), max(ref)

    dilation_dev = 0.0
    if space.kind == "gaussian":
        tr, q0 = ref_list[0], ref[0]
        for lam in (0.5, 2.0):
            dilation_dev = max(dilation_dev, abs(quotient(tr.dilated(lam)) - q0) / q0)
    worst = c_ref / max(c_base, 1e-300)
    if not math.isfinite(c_ref) or dilation_dev > 1e-6:
        worst = math.inf
    return VerificationReport(
        theorem_id="sobolev",
        space=space.token,
        a=a,
        grid={"trials": len(base)},
        tolerance=STABILITY,
        seed=seed,
        mode="ratio",
        worst_case_slack=worst,
        extracted_constants={"C_emp": c_ref, "C_emp_base": c_base,
                             "dilation_deviation": dilation_dev},
        points=rows,
    )


# ---------------------------------------------------------------------------
# weighted-energy machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrigoryanConstants:
    gamma: float
    D: float
    m: float        # inf_k gamma^{k+1} / ((gamma-1)(k+2)(k+3)^4)
    k_argmin: int
    D0: float       # 2 / m
    delta: float    # (D-2)/(5 D0 - 2) / gamma, capped at the D >= 5 D0 value


def grigoryan_constants(gamma: float, D: float) -> GrigoryanConstants:
    """Explicit iteration constants of the weighted-energy argument.

    The scan over k stops provably: the term ratio gamma (k+2)(k+3)^3/(k+4)^4
    is increasing in k, so once it exceeds one the minimum seen is global.
    """
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
    if D <= 2.0:
        raise ValueError("D must exceed 2")
    best = math.inf
    best_k = 0
    k = 0
    while True:
        term = gamma ** (k + 1) / ((gamma - 1.0) * (k + 2) * (k + 3) ** 4)
        if term < best:
            best, best_k = term, k
        ratio = gamma * (k + 2) * (k + 3) ** 3 / (k + 4) ** 4
        if ratio > 1.0 and term > 4.0 * best:
            break
        k += 1
        if k > 100000:  # pragma: no cover - gamma just above 1 converges long before
            break
    d0 = 2.0 / best
    delta = min((D - 2.0) / (5.0 * d0 - 2.0), 1.0) / gamma
    return GrigoryanConstants(gamma, D, best, best_k, d0, delta)


class GrigoryanProbe:
    """Dirichlet finite-difference solution with its weighted integrals.

    A view on a ``kernels.RadialMarch`` over a truncated gaussian ball: the
    march of the source kernel from its exact profile at t0 (source set
    K = {origin}), or Crank-Nicolson from caller-supplied initial data. The
    data may hold one solution per row; the states and every integral then
    hold one entry per row. I(t), E_D(t) and the tail mass I_R(t) are the
    engine's Simpson integrals: the operator's cell-volume weights are only
    a second-order quadrature and would bias the sharp comparisons.
    """

    def __init__(self, op: DiscretizedOperator, t0: float, data0: np.ndarray | None = None,
                 dt: float = 5e-4, D: float = 10.0, gamma: float = 2.0):
        self.op = op
        self.n = op.space.n
        self.t0 = float(t0)
        self.dt = float(dt)
        self.D = float(D)
        self.gamma = float(gamma)
        if data0 is None:
            # source set K = {origin}: the accurate kernel march; keep
            # several cells inside the squared bootstrap width
            self.t0 = max(self.t0, (2.5 * op.h) ** 2)
            self._engine = DirichletRadialHeatKernel(op, self.t0, time_tol=1e-4,
                                                     r_accuracy=3.5,
                                                     kappa_mode="diffusive").states
        else:
            self._engine = RadialMarch(op, self.t0, np.asarray(data0, dtype=float),
                                       lambda t_from, t: graded_steps(t_from, t, self.dt))

    def sharp_allowance(self) -> float:
        """Relative method-error scale for equality-sharp comparisons.

        The compact fourth-order march keeps kernel functionals near 1e-4;
        the second-order fallback (dimensions without the pure-1D reduction)
        carries a frozen early-march bias of order h^2 / t0.
        """
        if self._engine.numerov:
            return 1e-4
        return 0.25 * self.op.h ** 2 / self.t0

    def state(self, t: float) -> np.ndarray:
        return self._engine.state(t)

    def _weighted_mass(self, t: float, weight=1.0):
        """The engine's integral of u(t)^2 times ``weight``."""
        u = self.state(t)
        return self._engine.integrate(u * u * weight)

    def I(self, t: float):
        return self._weighted_mass(t)

    def E_D(self, t: float):
        return self._weighted_mass(t, np.exp(np.minimum(self.op.r ** 2 / (self.D * t), 700.0)))

    def I_R(self, t: float, R: float):
        return self._weighted_mass(t, self.op.r > R)

    def weighted_energy(self, t: float, cap_radius: float, s: float):
        """Integral of u^2 exp(xi) with xi = dcap^2 / (2 (t - s)), s > t."""
        if s <= t:
            raise ValueError("the weight needs s > t")
        dcap = np.maximum(cap_radius - self.op.r, 0.0)
        return self._weighted_mass(t, np.exp(dcap ** 2 / (2.0 * (t - s))))


def random_dirichlet_data(op: DiscretizedOperator, trials: int, seed: int) -> np.ndarray:
    """Seeded initial data, one trial per row: two to five Gaussian bumps,
    tapered to vanish at the Dirichlet boundary."""
    rng = np.random.default_rng(seed)
    r = op.r
    data = np.zeros((trials, op.m))
    for row in data:
        for _ in range(rng.integers(2, 6)):
            center = rng.uniform(0.0, 0.7 * op.R_max)
            width = rng.uniform(0.2, 1.2)
            row += rng.normal(0, 1) * np.exp(-((r - center) ** 2) / (2 * width ** 2))
    return data * np.clip(1.0 - (r / op.R_max) ** 2, 0.0, None) ** 2


def energy_monotonicity(op: DiscretizedOperator, trials: int = 20, seed: int = 0,
                        dt: float = 5e-4, tol: float = ANALYTIC_TOL) -> VerificationReport:
    """The weighted energy with the space-time weight is non-increasing.

    The weight is exp(dcap^2 / (2 (t - s))) with s = 1 and dcap the distance
    to the ball of radius 2, sampled at 14 times in [0.02, 0.8]. Checked as
    discrete time differences for seeded random Dirichlet initial data
    (smooth bump combinations vanishing at the boundary), normalized by the
    initial energy. The trials march together as the rows of one probe. A
    row's ``lhs`` is the trial's largest normalized difference, signed, and
    its slack the negative of it, so a monotone trial shows its margin.
    """
    s, cap_radius = 1.0, 2.0
    ts = np.linspace(0.02, 0.8, 14)
    if trials < 1:
        return _empty_grid_report("energy-monotonicity", op.space.token, op.a,
                                  {"trials": trials, "times": [float(t) for t in ts]},
                                  tol, seed, "slack")
    rows = []
    worst = math.inf
    probe = GrigoryanProbe(op, ts[0], data0=random_dirichlet_data(op, trials, seed), dt=dt)
    energies = [probe.weighted_energy(float(t), cap_radius, s) for t in ts]
    for trial, trial_energies in enumerate(zip(*energies)):
        diffs = np.diff(trial_energies) / max(trial_energies[0], 1e-300)
        largest = float(diffs.max())
        rows.append({"x_id": f"trial{trial}", "y_id": "", "t": math.nan,
                     "lhs": largest, "rhs": 0.0, "slack": -largest, "ratio": math.nan})
        worst = min(worst, -largest)
    return VerificationReport(
        theorem_id="energy-monotonicity",
        space=op.space.token,
        a=op.a,
        grid={"trials": trials, "times": [float(t) for t in ts],
              "cap_radius": cap_radius, "s": s, "m": op.m, "R_max": op.R_max},
        tolerance=tol,
        seed=seed,
        mode="slack",
        worst_case_slack=worst,
        extracted_constants={"max_violation": max(0.0, -worst)},
        points=rows,
    )


def weighted_energy_bound(probe: GrigoryanProbe, mu: float, times=None,
                          tol: float = FD_TOL) -> VerificationReport:
    """E_D(t) and the tail mass I_R(t), at R = 1, 2 and 4, against their
    iteration bounds.

    The hypothesis I(t) <= e^{-mu} (8 pi t)^{-n/2} is verified in-run (it is
    the on-diagonal bound at doubled time); failing it aborts the check with
    a failure report. On the flat space the exact-kernel value of E_D is a
    closed-form Gaussian integral (finite exactly when D > 2) and must
    dominate the Dirichlet value.
    """
    n = probe.n
    D, gamma = probe.D, probe.gamma
    consts = grigoryan_constants(gamma, D)
    ts = np.asarray(times) if times is not None else np.geomspace(1e-2, 1.0, 10)
    radii = (1.0, 2.0, 4.0)
    rows = []
    worst = math.inf
    hypothesis_ok = True
    for t in ts:
        i_t = probe.I(float(t))
        hyp_rhs = math.exp(-mu) * (8.0 * math.pi * t) ** (-n / 2.0)
        # the hypothesis is equality-sharp on the flat space, so its
        # gate carries the probe's own method error scale
        if i_t > hyp_rhs * (1.0 + max(tol, probe.sharp_allowance())):
            hypothesis_ok = False
        rows.append({"x_id": "I", "y_id": "", "t": float(t), "lhs": i_t,
                     "rhs": hyp_rhs, "slack": hyp_rhs - i_t,
                     "ratio": i_t / hyp_rhs})
    if not hypothesis_ok:
        return VerificationReport(
            theorem_id="weighted-energy", space=probe.op.space.token, a=probe.op.a,
            grid={"times": len(ts)}, tolerance=tol, seed=None, mode="slack",
            worst_case_slack=-math.inf, points=rows,
            notes=["hypothesis I(t) <= e^{-mu} (8 pi t)^{-n/2} failed; check aborted"],
        )

    exact_margin = math.inf
    for t in ts:
        e_t = probe.E_D(float(t))
        rhs = 4.0 * math.exp(-mu) * (8.0 * math.pi * consts.delta * t) ** (-n / 2.0)
        worst = min(worst, (rhs - e_t) / rhs)
        rows.append({"x_id": "E_D", "y_id": "", "t": float(t), "lhs": e_t,
                     "rhs": rhs, "slack": rhs - e_t, "ratio": e_t / rhs})
        i_t = probe.I(float(t))
        if i_t > e_t:  # exponential weight >= 1
            worst = -math.inf
        e_exact = (math.exp(-mu) * (8.0 * math.pi * t) ** (-n / 2.0)
                   * (D / (D - 2.0)) ** (n / 2.0))
        exact_margin = min(exact_margin,
                           e_exact * (1.0 + max(tol, probe.sharp_allowance())) - e_t)
        for R in radii:
            ir = probe.I_R(float(t), float(R))
            tail_rhs = (2.0 * math.exp(-mu) * (8.0 * math.pi * t / gamma) ** (-n / 2.0)
                        * math.exp(-R * R / (consts.D0 * t)))
            worst = min(worst, (tail_rhs - ir) / tail_rhs)
            rows.append({"x_id": f"I_R R={R}", "y_id": "", "t": float(t),
                         "lhs": ir, "rhs": tail_rhs, "slack": tail_rhs - ir,
                         "ratio": ir / tail_rhs})
    notes = [f"exact-kernel E_D dominates the Dirichlet value with margin {exact_margin:.3e}"]
    if exact_margin < 0:
        worst = -math.inf
    return VerificationReport(
        theorem_id="weighted-energy",
        space=probe.op.space.token,
        a=probe.op.a,
        grid={"times": len(ts), "radii": list(radii), "D": D, "gamma": gamma},
        tolerance=tol,
        seed=None,
        mode="slack",
        worst_case_slack=worst,
        extracted_constants={"m": consts.m, "D0": consts.D0, "delta": consts.delta},
        points=rows,
        notes=notes,
    )


def exploratory_a_sweep(space: SolitonSpace, a_values, make_evaluator,
                        mu: float) -> list:
    """Record ultracontractivity ratios for couplings below 1/4; never gates."""
    out = []
    g = separation_grid(space, count=8)
    ts = time_grid(count=12)
    for a in a_values:
        mx, _ = _max_resolved(ratios(kernel_table(make_evaluator(a), g, ts), mu, lambda d, t: 0.0))
        out.append({"a": float(a), "max_ratio": mx})
    return out
