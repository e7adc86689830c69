import math

import numpy as np
import pytest

from solitonlab.cli import ExperimentConfig, run_theorem
from solitonlab.entropy import RadialProfile, TrialFunction, mu_closed_form, random_trials
from solitonlab.kernels import (
    CylinderHeatKernel,
    DirichletRadialHeatKernel,
    EuclideanHeatKernel,
    SphereHeatKernel,
    green,
)
from solitonlab.spaces import make_space, parse_space
from solitonlab.spectral import discretize_radial, eigen_solve, sphere_spectrum
from solitonlab import verify


# ---------------------------------------------------------------------------
# kernel axioms
# ---------------------------------------------------------------------------


def test_kernel_axioms_gaussian_closed_form():
    rep = verify.kernel_axioms(EuclideanHeatKernel(make_space("gaussian", 2), 0.25), seed=0)
    assert rep.passed
    assert [r["x_id"] for r in rep.points] == ["positivity", "mass", "semigroup"]


def test_kernel_axioms_sphere_series():
    rep = verify.kernel_axioms(SphereHeatKernel(2, 0.25), seed=3)
    assert rep.passed


def test_kernel_axioms_fd():
    op = discretize_radial(make_space("gaussian", 3), 16.0, 512)
    rep = verify.kernel_axioms(DirichletRadialHeatKernel(op, 1e-3, r_accuracy=4.0),
                               seed=0, tol=1e-3)
    assert rep.passed


def test_kernel_axioms_mass_row_fails_a_kernel_off_by_1e_4(monkeypatch):
    # R is constant on the catalogue, so the mass is exactly e^{-a R t}: a
    # series kernel scaled by 1 + 1e-4 fails that row, while its positivity
    # and its semigroup defect (1e-4, against 1e-3) still pass
    profile = SphereHeatKernel.profile

    def scaled(self, u, t):
        vals, err = profile(self, u, t)
        return vals * (1.0 + 1e-4), err

    monkeypatch.setattr(SphereHeatKernel, "profile", scaled)
    rep = run_theorem("kernel-axioms", ExperimentConfig(space="sphere:3"))
    rows = {r["x_id"]: r for r in rep.points}
    assert not rep.passed
    assert rows["mass"]["slack"] < 0.0 < min(rows["positivity"]["slack"], rows["semigroup"]["slack"])


@pytest.mark.parametrize("seed", [1, 2, 6, 15])
def test_kernel_axioms_cylinder_far_line_pairs(seed):
    # regression: far line separations make the composition bump extremely
    # narrow; these seeds used to defeat the quadrature
    rep = verify.kernel_axioms(CylinderHeatKernel(3, 0.25), seed=seed)
    assert rep.passed


# ---------------------------------------------------------------------------
# ultracontractivity
# ---------------------------------------------------------------------------


def test_ultracontractivity_gaussian_sharp(default_table):
    ek = EuclideanHeatKernel(make_space("gaussian", 3), 0.25)
    rep = verify.ultracontractivity(default_table(ek), 0.0)
    assert rep.passed
    assert rep.worst_case_slack == pytest.approx(1.0, abs=1e-13)
    # sharpness: the maximum sits on the diagonal
    diag = [r for r in rep.points if r["d"] == 0.0]
    assert all(abs(r["ratio"] - 1.0) <= 1e-13 for r in diag)
    off = [r for r in rep.points if r["d"] > 0.0]
    assert all(r["ratio"] < 1.0 for r in off)


def test_ultracontractivity_sphere_small_time_diagonal_limit(default_table):
    sp = parse_space("sphere:2")
    sk = SphereHeatKernel(2, 0.25)
    rep = verify.ultracontractivity(default_table(sk), mu_closed_form(sp))
    assert rep.passed
    # short-time diagonal ratio approaches e^mu = 2/e
    t0 = 1e-3
    h, _ = sk.at(0.0, t0)
    ratio = h * 4.0 * math.pi * t0 * math.exp(mu_closed_form(sp))
    assert ratio == pytest.approx(2.0 / math.e, rel=2e-3)


def test_ultracontractivity_cylinder(default_table):
    sp = parse_space("cylinder:3")
    rep = verify.ultracontractivity(default_table(CylinderHeatKernel(3, 0.25)),
                                    mu_closed_form(sp))
    assert rep.passed
    assert rep.worst_case_slack <= 1.0 + 1e-6


# ---------------------------------------------------------------------------
# gaussian bound
# ---------------------------------------------------------------------------


def test_gaussian_bound_flat_space_constant_is_one(default_table):
    ek = EuclideanHeatKernel(make_space("gaussian", 3), 0.25)
    rep = verify.gaussian_bound(default_table(ek, refined=True), 0.0, 5.0)
    assert rep.passed
    assert rep.extracted_constants["A_emp"] == pytest.approx(1.0, abs=1e-12)
    # one-dimensional optimization oracle over s = d^2/t >= 0
    s = np.linspace(0.0, 50.0, 2001)
    assert np.max(np.exp(-s / 4.0 + s / 5.0)) == 1.0


def test_gaussian_bound_c45_on_flat_space(default_table):
    ek = EuclideanHeatKernel(make_space("gaussian", 3), 0.25)
    rep = verify.gaussian_bound(default_table(ek, refined=True), 0.0, 4.5)
    assert rep.extracted_constants["A_emp"] == pytest.approx(1.0, abs=1e-12)


def test_gaussian_bound_rejects_small_c(default_table):
    table = default_table(EuclideanHeatKernel(make_space("gaussian", 3), 0.25), refined=True)
    with pytest.raises(ValueError):
        verify.gaussian_bound(table, 0.0, 4.0)


def test_gaussian_bound_sphere_stable(default_table):
    sp = parse_space("sphere:2")
    rep = verify.gaussian_bound(default_table(SphereHeatKernel(2, 0.25), refined=True),
                                mu_closed_form(sp), 8.0)
    assert rep.passed
    assert math.isfinite(rep.extracted_constants["A_emp"])
    assert rep.extracted_constants["splitting_max_ratio"] <= 1.0 + 1e-5


# ---------------------------------------------------------------------------
# curvature-corrected bound for the Laplace kernel
# ---------------------------------------------------------------------------


def test_cr_bound_gaussian_reduces_to_ultracontractivity(default_table):
    ek = EuclideanHeatKernel(make_space("gaussian", 3), 0.0)
    rep = verify.cr_bound(default_table(ek, hi=50.0), 0.0, 0.0)
    assert rep.passed
    assert rep.worst_case_slack == pytest.approx(1.0, abs=1e-12)


def test_cr_bound_sphere2_passes_and_half_exponent_fails(default_table):
    sp = parse_space("sphere:2")
    rep = verify.cr_bound(default_table(SphereHeatKernel(2, 0.0), hi=50.0),
                          mu_closed_form(sp), 1.0)
    assert rep.passed
    # long-time diagonal: ratio (t/e) e^{-t/6} peaks at 6/e^2 < 1
    assert rep.worst_case_slack == pytest.approx(6.0 / math.e ** 2, rel=0.02)
    # the halved exponent is refuted empirically: the same peak becomes 12/e^2
    assert rep.extracted_constants["max_ratio_exponent_12"] > 1.5
    assert rep.extracted_constants["max_ratio_exponent_12"] > 1.0 + verify.ANALYTIC_TOL


def test_cr_bound_sphere3(default_table):
    sp = parse_space("sphere:3")
    rep = verify.cr_bound(default_table(SphereHeatKernel(3, 0.0), hi=50.0),
                          mu_closed_form(sp), 1.5)
    assert rep.passed


def test_cr_bound_requires_laplace_kernel(default_table):
    table = default_table(SphereHeatKernel(2, 0.25), hi=50.0)
    with pytest.raises(ValueError):
        verify.cr_bound(table, 0.0, 1.0)


@pytest.mark.parametrize("check", [
    lambda table: verify.ultracontractivity(table, 0.0),
    lambda table: verify.gaussian_bound(table, 0.0, 8.0),
    lambda table: verify.cr_bound(table, 0.0, 0.0),
], ids=["ultracontractivity", "gaussian-bound", "cr-bound"])
def test_ratio_check_without_a_resolved_row_fails_with_a_note(check):
    # every value sits inside its own error estimate, so no row certifies anything
    ev = EuclideanHeatKernel(make_space("gaussian", 3), 0.0)
    grid = verify.separation_grid(ev.space, 8)
    times = np.array([1.0, 3.0, 10.0])
    shape = (len(grid.seps), len(times))
    rep = check(verify.KernelTable(ev, grid, times, np.zeros(shape), np.ones(shape)))
    assert not rep.passed
    assert verify.NO_RESOLVED_NOTE in rep.notes


def _flat_table(separations, times):
    ev = EuclideanHeatKernel(make_space("gaussian", 3), 0.0)
    return verify.kernel_table(ev, verify.separation_grid(ev.space, separations),
                               verify.time_grid(times))


@pytest.mark.parametrize("check", [
    lambda: verify.energy_monotonicity(discretize_radial(make_space("gaussian", 1), 8.0, 64),
                                       trials=0),
    lambda: verify.log_sobolev(parse_space("sphere:2"), mu_closed_form(parse_space("sphere:2")),
                               trials=0),
    lambda: verify.log_sobolev(parse_space("gaussian:3"), 0.0, trials=3, tau_grid=[]),
    lambda: verify.sobolev(parse_space("sphere:3"), mu_closed_form(parse_space("sphere:3")),
                           trials=0),
    # the two Talenti trials of the flat space are no refinement grid either
    lambda: verify.sobolev(parse_space("gaussian:3"), 0.0, trials=0),
    # a ratio table with no separation or no time; gaussian-bound reads its even rows
    lambda: verify.ultracontractivity(_flat_table(0, 40), 0.0),
    lambda: verify.ultracontractivity(_flat_table(24, 0), 0.0),
    lambda: verify.gaussian_bound(_flat_table(0, 79), 0.0, 8.0),
    lambda: verify.gaussian_bound(_flat_table(48, 0), 0.0, 8.0),
    lambda: verify.cr_bound(_flat_table(0, 40), 0.0, 0.0),
    lambda: verify.cr_bound(_flat_table(24, 0), 0.0, 0.0),
], ids=["energy-monotonicity", "log-sobolev-no-trials", "log-sobolev-no-taus", "sobolev",
        "sobolev-gaussian", "ultracontractivity-no-pairs", "ultracontractivity-no-times",
        "gaussian-bound-no-pairs", "gaussian-bound-no-times", "cr-bound-no-pairs",
        "cr-bound-no-times"])
def test_check_on_an_empty_grid_fails_with_a_note(check):
    rep = check()
    assert not rep.passed
    assert rep.points == []
    assert rep.notes == [verify.EMPTY_GRID_NOTE]


def test_cylinder_ratio_rows_are_sphere_rows_times_line_factor():
    # cylinder:3 is the model 2-sphere times a line, with the same R and mu,
    # so its gaussian-bound ratio at (theta, ds, t) is the sphere:2 ratio at
    # (theta, t) times exp(-ds^2 (1/4 - 1/c) / t); checked at mixed separations
    cyl, sph = parse_space("cylinder:3"), parse_space("sphere:2")
    theta, ds = (v.ravel() for v in np.meshgrid(np.linspace(0.0, math.pi, 7),
                                                [0.25, 1.0, 2.0, 4.0]))
    arc = sph.sphere_radius * theta
    labels = [""] * theta.size
    grid = verify.SeparationGrid(list(zip(theta.tolist(), ds.tolist())), np.hypot(arc, ds), labels)
    times = verify.time_grid()
    ctab = verify.kernel_table(CylinderHeatKernel(3, 0.25), grid, times)
    stab = verify.kernel_table(SphereHeatKernel(2, 0.25),
                               verify.SeparationGrid(theta.tolist(), arc, labels), times)
    # compare only values that resolve on both sides
    both = (ctab.values > 10.0 * ctab.errors) & (stab.values > 10.0 * stab.errors)
    hc, ec, hs, es = ctab.values[both], ctab.errors[both], stab.values[both], stab.errors[both]
    compared = 0
    for c in (4.5, 5.0, 8.0, 16.0):
        cr = verify.ratios(ctab, mu_closed_form(cyl), lambda d, t: d * d / (c * t)).ratio[both]
        sr = verify.ratios(stab, mu_closed_form(sph), lambda d, t: d * d / (c * t)).ratio[both]
        line = np.exp(-ds[:, None] ** 2 * (0.25 - 1.0 / c) / times)[both]
        expected = sr * line
        allowance = cr * ec / hc + expected * es / hs + 1e-12 * expected
        bad = np.flatnonzero(~(np.abs(cr - expected) <= allowance))  # NaN fails too
        assert not bad.size, (c, cr[bad], expected[bad])
        compared += cr.size
    assert compared >= 0.5 * 4 * ctab.values.size


def _reference_ratio_rows(table, mu, log_weight):
    """The per-cell loop the array pass replaced, restated as its oracle;
    ``log_weight`` takes one distance and one time."""
    def guarded_exp_product(v, shift):
        if v <= 0.0:
            return 0.0
        lr = math.log(v) + shift
        return math.exp(lr) if lr < 700.0 else math.inf

    n = table.evaluator.space.n
    rows = []
    for k, (label, d) in enumerate(zip(table.grid.labels, table.grid.d.tolist())):
        for t, h, err in zip(table.times, table.values[k].tolist(), table.errors[k].tolist()):
            shift = mu + 0.5 * n * math.log(4.0 * math.pi * t) + log_weight(d, float(t))
            if h > 10.0 * err:
                ratio, resolved = guarded_exp_product(h, shift), True
            else:
                noise_ratio = guarded_exp_product(max(err, abs(h)), shift)
                if noise_ratio <= 0.5:
                    ratio, resolved = noise_ratio, True  # bound certified despite the noise
                else:
                    ratio, resolved = math.nan, False
            rhs = math.exp(-min(max(shift, -700.0), 700.0))
            rows.append({"x_id": label, "y_id": "", "t": float(t), "d": d,
                         "lhs": h, "rhs": rhs, "slack": rhs - h, "ratio": ratio,
                         "resolved": resolved})
    return rows


def _same_rows(rows, ref):
    # == on every field, with NaN equal to NaN
    return len(rows) == len(ref) and all(
        row.keys() == want.keys()
        and all(row[k] == want[k] or (row[k] != row[k] and want[k] != want[k]) for k in want)
        for row, want in zip(rows, ref))


@pytest.mark.parametrize("space", ["gaussian:3", "sphere:2", "sphere:3", "cylinder:3"])
def test_ratio_arrays_match_the_per_cell_loop(space, default_table):
    # the refined table at a = 0.25 under the weights of ultracontractivity and
    # gaussian-bound, and the Laplace table under both cr-bound exponents
    sp = parse_space(space)
    mu, C_R = mu_closed_form(sp), sp.sup_R
    make = {"gaussian": lambda a: EuclideanHeatKernel(sp, a),
            "sphere": lambda a: SphereHeatKernel(sp.n, a),
            "cylinder": lambda a: CylinderHeatKernel(sp.n, a)}[sp.kind]
    table = default_table(make(0.25), refined=True)
    laplace = default_table(make(0.0), hi=50.0)
    cases = [(table, lambda d, t: 0.0)]
    cases += [(table, lambda d, t, c=c: d * d / (c * t)) for c in (4.5, 5.0, 8.0, 16.0)]
    cases += [(laplace, lambda d, t: -C_R * t / 6.0), (laplace, lambda d, t: -C_R * t / 12.0)]
    noise = unresolved = 0
    for tab, weight in cases:
        r = verify.ratios(tab, mu, weight)
        ref = _reference_ratio_rows(tab, mu, weight)
        shape = tab.values.shape
        ref_ratio = np.array([row["ratio"] for row in ref]).reshape(shape)
        assert np.array_equal(r.ratio, ref_ratio, equal_nan=True)
        assert np.array_equal(r.resolved, np.array([row["resolved"] for row in ref]).reshape(shape))
        assert np.array_equal(r.rhs, np.array([row["rhs"] for row in ref]).reshape(shape))
        rows = verify._ratio_report("ratio", tab, r, worst=0.0, constants={}, grid={},
                                    tol=0.0).points
        assert _same_rows(rows, ref)
        noise += int(np.count_nonzero(r.resolved & ~(tab.values > 10.0 * tab.errors)))
        unresolved += int(np.count_nonzero(~r.resolved))
    # the reports carry the same rows: all of them, or the even rows of the refined
    # table at its even times
    assert _same_rows(verify.ultracontractivity(table, mu).points,
                      _reference_ratio_rows(table, mu, lambda d, t: 0.0))
    nt = len(table.times)
    base = [row for idx, row in enumerate(_reference_ratio_rows(table, mu, cases[3][1]))
            if idx // nt % 2 == 0 and idx % nt % 2 == 0]
    assert _same_rows(verify.gaussian_bound(table, mu, 8.0).points, base)
    assert _same_rows(verify.cr_bound(laplace, mu, C_R).points,
                      _reference_ratio_rows(laplace, mu, cases[5][1]))
    # the closed form leaves no cell unresolved
    assert noise and (unresolved or sp.kind == "gaussian")


@pytest.mark.parametrize("token", ["gaussian:3", "sphere:2", "cylinder:3"])
@pytest.mark.parametrize("count", [4, 5, 24])
def test_refined_separation_grid_nests_the_base_grid(token, count):
    sp = parse_space(token)
    base = verify.separation_grid(sp, count)
    refined = verify.separation_grid(sp, count, refined=True)
    assert len(base.seps) == count and len(refined.seps) == 2 * count - 1
    assert refined.seps[::2] == base.seps
    assert np.array_equal(refined.d[::2], base.d) and refined.labels[::2] == base.labels
    # the diagonal first, and the distances of the separations
    assert refined.d[0] == 0.0 and len(set(refined.labels)) == len(refined.labels)
    if sp.kind == "gaussian":
        assert refined.d.tolist() == refined.seps and refined.d[-1] == 8.0
    elif sp.kind == "sphere":
        assert np.array_equal(refined.d, sp.sphere_radius * np.array(refined.seps))
        assert refined.seps[-1] == math.pi
    else:
        theta, s = np.array(refined.seps).T
        assert np.array_equal(refined.d, np.hypot(sp.sphere_radius * theta, s))
        assert np.all((theta == 0.0) | (s == 0.0))
        assert theta.max() == math.pi and s[-1] == 8.0
        assert np.count_nonzero(s == 0.0) == 2 * (count // 2) - 1


def test_cylinder_a_emp_bounded_by_sphere_a_emp():
    # the line factor only lowers the ratio, so the cylinder constant cannot
    # exceed the sphere one on the default grids (up to rounding)
    a_emp = {}
    for tok in ("sphere:2", "cylinder:3"):
        cfg, store = ExperimentConfig(space=tok), {}
        a_emp[tok] = [run_theorem("gaussian-bound", cfg, store=store, c=c)
                      .extracted_constants["A_emp"] for c in cfg.c_values]
    for cyl, sph in zip(a_emp["cylinder:3"], a_emp["sphere:2"]):
        assert cyl <= sph * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# green bound
# ---------------------------------------------------------------------------


def test_green_bound_gaussian3():
    gv = green(make_space("gaussian", 3), 0.25)
    rep = verify.green_bound(gv, 0.0, distances=[0.5, 1.0, 2.0, 4.0])
    assert rep.passed
    assert rep.grid["routes"] == {"closed_form": 7}  # 4 distances and 3 midpoints
    assert rep.extracted_constants["B_emp"] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
    assert rep.extracted_constants["slope"] == pytest.approx(-1.0, abs=0.01)


def test_green_bound_gaussian4_standard_constant():
    # B_emp equals the standard constant in four dimensions, at every radius
    gv = green(make_space("gaussian", 4), 0.25)
    rep = verify.green_bound(gv, 0.0, distances=[0.5, 1.0, 2.0])
    assert rep.passed
    assert rep.extracted_constants["B_emp"] == pytest.approx(
        1.0 / (4.0 * math.pi ** 2), rel=1e-6)
    assert rep.extracted_constants["slope"] == pytest.approx(-2.0, abs=0.02)


def test_green_bound_sphere3_small_angle_slope():
    sp = make_space("sphere", 3)
    rep = verify.green_bound(green(sp, 0.25), mu_closed_form(sp))
    assert rep.passed
    assert rep.grid["routes"] == {"dirichlet_mehler": 15}
    assert rep.extracted_constants["slope"] == pytest.approx(-1.0, abs=0.05)
    assert math.isfinite(rep.extracted_constants["B_emp"])


def test_green_bound_names_each_route():
    # every default cylinder row has line offset d / sqrt(2) > 0; every
    # sphere takes the Dirichlet-Mehler integral
    cyl = verify.green_bound(green(make_space("cylinder", 3), 0.25), 0.0)
    assert cyl.grid["routes"] == {"line_resolvent_series": 15}
    s4 = verify.green_bound(green(make_space("sphere", 4), 0.25), 0.0,
                            distances=[1.0, 2.0])
    assert s4.grid["routes"] == {"dirichlet_mehler": 3}


# ---------------------------------------------------------------------------
# eigenvalue bound
# ---------------------------------------------------------------------------


def _trace_table(kernel):
    """The kernel on 4 separations, the diagonal first, x the default times."""
    return verify.kernel_table(kernel, verify.separation_grid(kernel.space, 4), verify.time_grid())


def test_eigenvalue_bound_first_two_levels():
    sp = parse_space("sphere:2")
    mu = mu_closed_form(sp)
    spec = sphere_spectrum(2, 0.25, 30)
    rep = verify.eigenvalue_bound(spec, mu, _trace_table(SphereHeatKernel(2, 0.25)), 50)
    assert rep.passed
    # oracle: bound(k) = (4 pi / e)(k e^mu / V) = k / e^2 here
    rows = {r["x_id"]: r for r in rep.points if r["x_id"].startswith("k=")}
    assert rows["k=1"]["lhs"] == pytest.approx(1.0 / math.e ** 2, rel=1e-12)
    assert rows["k=1"]["rhs"] == pytest.approx(0.25, abs=1e-15)
    assert rows["k=2"]["lhs"] == pytest.approx(2.0 / math.e ** 2, rel=1e-12)
    assert rows["k=2"]["rhs"] == pytest.approx(1.25, abs=1e-15)


def test_eigenvalue_bound_requires_enough_spectrum():
    spec = sphere_spectrum(2, 0.25, 3)
    with pytest.raises(ValueError):
        verify.eigenvalue_bound(spec, 0.0, _trace_table(SphereHeatKernel(2, 0.25)), 500)


def test_eigenvalue_bound_rejects_a_kernel_of_another_coupling():
    spec = sphere_spectrum(2, 0.25, 30)
    with pytest.raises(ValueError):
        verify.eigenvalue_bound(spec, 0.0, _trace_table(SphereHeatKernel(2, 1.0)), 50)


def test_eigenvalue_bound_rejects_a_table_without_a_diagonal_first_pair():
    spec = sphere_spectrum(2, 0.25, 30)
    table = _trace_table(SphereHeatKernel(2, 0.25))
    off = verify.KernelTable(table.evaluator, verify.SeparationGrid(*(v[1:] for v in table.grid)),
                             table.times, table.values[1:], table.errors[1:])
    with pytest.raises(ValueError, match="diagonal"):
        verify.eigenvalue_bound(spec, 0.0, off, 50)


@pytest.mark.parametrize("token", ["sphere:2", "sphere:3"])
def test_eigenvalue_bound_certifies_every_partition_time(token):
    # the partition rows read the series kernel's trace: every time of the
    # default grid is certified, each at V times the ultracontractivity
    # table's diagonal, bit for bit
    cfg, store = ExperimentConfig(space=token), {}
    rep = run_theorem("eigenvalue-bound", cfg, store=store)
    ultra = run_theorem("ultracontractivity", cfg, store=store)
    V = parse_space(token).volume
    part = [r for r in rep.points if r["x_id"] == "partition"]
    diag = [r for r in ultra.points if r["x_id"] == "theta=0"]
    assert len(part) == len(diag) == 40
    assert all(math.isfinite(r["slack"]) and math.isfinite(r["ratio"]) for r in part)
    assert not any("truncation" in note for note in rep.notes)
    assert [r["t"] for r in part] == [r["t"] for r in diag]
    assert [r["lhs"] for r in part] == [V * r["lhs"] for r in diag]
    assert rep.passed
    # the dimension-two Weyl window does not gate at n = 3 (recorded only)
    assert any("Weyl ratio" in note for note in rep.notes)


# ---------------------------------------------------------------------------
# log-Sobolev
# ---------------------------------------------------------------------------


def test_log_sobolev_sharp_gaussian_case():
    for n in (1, 2, 3):
        sp = make_space("gaussian", n)
        for tau in (0.05, 1.0, 4.0):
            tr = verify.sharp_gaussian_trial(sp, tau)
            (slack,) = verify.log_sobolev_slack(sp, 0.0, tr, [tau])[2]
            assert abs(slack) <= 1e-6


def test_log_sobolev_random_trials_each_space():
    for tok in ("gaussian:2", "sphere:2", "cylinder:3"):
        sp = parse_space(tok)
        rep = verify.log_sobolev(sp, mu_closed_form(sp), trials=25, seed=9)
        assert rep.passed
        assert rep.worst_case_slack >= -1e-6


def test_log_sobolev_constant_trial_on_sphere():
    # phi = V^{-1/2}: slack = tau R - mu - n - (n/2) ln(4 pi tau) + ln V,
    # which vanishes identically at tau = 1 on the model 2-sphere
    sp = parse_space("sphere:2")
    mu = mu_closed_form(sp)
    tr = TrialFunction(sp, RadialProfile("const", 1.0, math.pi * sp.sphere_radius + 1.0))
    (slack,) = verify.log_sobolev_slack(sp, mu, tr, [1.0])[2]
    closed = 1.0 - mu - 2.0 - math.log(4.0 * math.pi) + math.log(sp.volume)
    assert closed == pytest.approx(0.0, abs=1e-14)
    assert slack == pytest.approx(closed, abs=1e-9)
    assert slack >= -1e-9


@pytest.mark.parametrize("token", ["gaussian:3", "sphere:2"])
def test_log_sobolev_rhs_minus_lhs_is_the_slack(token):
    rep = run_theorem("log-sobolev", ExperimentConfig(space=token))
    assert len(rep.points) >= 2000
    eps = np.finfo(float).eps
    for r in rep.points:
        assert abs(r["rhs"] - r["lhs"] - r["slack"]) <= 4 * eps * max(abs(r["rhs"]),
                                                                      abs(r["lhs"]))


# ---------------------------------------------------------------------------
# Sobolev
# ---------------------------------------------------------------------------


def euclidean_sobolev_sharp_constant():
    # quotient of the exact extremal profile (1 + r^2)^{-1/2} in R^3 by
    # fixed-node radial quadrature plus the analytic 4 pi / R gradient tail
    R = 4000.0
    r = np.linspace(0.0, R, 2_000_001)
    u = (1.0 + r * r) ** -0.5
    du = -r * (1.0 + r * r) ** -1.5
    w = 4.0 * math.pi * r * r
    num = np.trapezoid(w * u ** 6, r) ** (1.0 / 3.0)
    den = np.trapezoid(w * du ** 2, r) + 4.0 * math.pi / R
    return num / den


def test_sobolev_gaussian_approaches_sharp_constant():
    sharp = euclidean_sobolev_sharp_constant()
    assert sharp == pytest.approx((4.0 / math.pi ** 2) ** (2.0 / 3.0) / 3.0, rel=1e-5)
    rep = verify.sobolev(make_space("gaussian", 3), 0.0, a=0.25, trials=10, seed=4)
    assert rep.passed
    c_emp = rep.extracted_constants["C_emp"]
    assert 0.9 * sharp <= c_emp <= sharp * (1.0 + 1e-6)
    assert rep.extracted_constants["dilation_deviation"] <= 1e-6


def test_sobolev_sphere3_finite():
    sp = parse_space("sphere:3")
    rep = verify.sobolev(sp, mu_closed_form(sp), a=0.25, trials=10, seed=4)
    assert rep.passed
    assert math.isfinite(rep.extracted_constants["C_emp"])


def test_sobolev_validation():
    with pytest.raises(ValueError):
        verify.sobolev(make_space("gaussian", 2), 0.0)
    with pytest.raises(ValueError):
        verify.sobolev(make_space("gaussian", 3), 0.0, a=0.1)


# ---------------------------------------------------------------------------
# weighted-energy machinery
# ---------------------------------------------------------------------------


def brute_force_m(gamma, kmax=200):
    return min(gamma ** (k + 1) / ((gamma - 1) * (k + 2) * (k + 3) ** 4)
               for k in range(kmax))


def test_grigoryan_constants_scan():
    c = verify.grigoryan_constants(2.0, 10.0)
    assert c.m == pytest.approx(brute_force_m(2.0), rel=1e-12)
    assert c.m == pytest.approx(0.002221, abs=1e-6)
    assert c.k_argmin in (4, 5)
    assert c.D0 == pytest.approx(2.0 / c.m, rel=1e-14)
    assert c.delta == pytest.approx((10.0 - 2.0) / (5.0 * c.D0 - 2.0) / 2.0, rel=1e-14)


def test_grigoryan_constants_limits():
    # (gamma - 1) factor drives m to zero and D0 to infinity as gamma -> 1+
    near = verify.grigoryan_constants(1.001, 10.0)
    assert near.m < 1e-5
    assert near.D0 > 1e5
    # D = 5 D0 sits exactly at the crossover delta = 1 / gamma / 1
    c = verify.grigoryan_constants(2.0, 10.0)
    at5 = verify.grigoryan_constants(2.0, 5.0 * c.D0)
    assert at5.delta == pytest.approx(0.5, rel=1e-12)


def test_grigoryan_constants_validation():
    with pytest.raises(ValueError):
        verify.grigoryan_constants(1.0, 10.0)
    with pytest.raises(ValueError):
        verify.grigoryan_constants(2.0, 2.0)


def test_energy_monotonicity_random_data():
    op = discretize_radial(make_space("gaussian", 1), 8.0, 384)
    rep = verify.energy_monotonicity(op, trials=8, seed=21, dt=1e-3)
    assert rep.passed
    assert rep.extracted_constants["max_violation"] <= 1e-6


def test_energy_monotonicity_eigenmode_decay():
    # cap radius zero turns the weight off and the energy decays at 2 lambda_1
    op = discretize_radial(make_space("gaussian", 1), 8.0, 384)
    spec = eigen_solve(op, 1, eigenvectors=True)
    lam1 = float(spec.values[0])
    probe = verify.GrigoryanProbe(op, 0.05, data0=spec.eigenvectors[:, 0], dt=2e-4)
    e1 = probe.weighted_energy(0.05, 0.0, 2.0)
    e2 = probe.weighted_energy(0.55, 0.0, 2.0)
    assert e2 / e1 == pytest.approx(math.exp(-2.0 * lam1 * 0.5), rel=1e-5)


def test_energy_monotonicity_violations_shrink_under_refinement():
    coarse = verify.energy_monotonicity(
        discretize_radial(make_space("gaussian", 1), 8.0, 192),
        trials=6, seed=5, dt=2e-3)
    fine = verify.energy_monotonicity(
        discretize_radial(make_space("gaussian", 1), 8.0, 384),
        trials=6, seed=5, dt=1e-3)
    assert fine.extracted_constants["max_violation"] <= \
        coarse.extracted_constants["max_violation"] + 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_energy_monotonicity_rows_equal_single_column_probes(n):
    # reference: one probe per trial, as each trial was marched alone
    op = discretize_radial(make_space("gaussian", n), 8.0, 192)
    rep = verify.energy_monotonicity(op, trials=6, seed=4, dt=2e-3)
    ts = rep.grid["times"]
    data = verify.random_dirichlet_data(op, 6, 4)
    columns = verify.GrigoryanProbe(op, ts[0], data0=data, dt=2e-3)
    ref_rows = []
    for k, row in enumerate(data):
        single = verify.GrigoryanProbe(op, ts[0], data0=row, dt=2e-3)
        energies = [single.weighted_energy(t, 2.0, 1.0) for t in ts]
        assert energies == [columns.weighted_energy(t, 2.0, 1.0)[k] for t in ts]
        assert np.array_equal(single.state(ts[-1]), columns.state(ts[-1])[k])
        largest = float((np.diff(energies) / max(energies[0], 1e-300)).max())
        ref_rows.append({"x_id": f"trial{k}", "y_id": "", "t": math.nan,
                         "lhs": largest, "rhs": 0.0, "slack": -largest, "ratio": math.nan})
    assert rep.points == ref_rows


@pytest.mark.parametrize("n", [1, 2, 3])
def test_source_probe_state_is_the_kernel_profile(n):
    op = discretize_radial(make_space("gaussian", n), 8.0, 256)
    probe = verify.GrigoryanProbe(op, 1e-3)
    kernel = DirichletRadialHeatKernel(op, probe.t0, time_tol=1e-4, r_accuracy=3.5,
                                       kappa_mode="diffusive")
    for t in (probe.t0, 0.01, 0.1, 0.5):
        assert np.array_equal(probe.state(t), kernel.profile(t)[:op.m])
        assert kernel.profile(t)[op.m] == 0.0


def test_weighted_energy_bound_gaussian1():
    op = discretize_radial(make_space("gaussian", 1), 8.0, 512)
    probe = verify.GrigoryanProbe(op, 1e-3, D=10.0, gamma=2.0)
    rep = verify.weighted_energy_bound(probe, 0.0)
    assert rep.passed
    # I(t) <= E_D(t) rows present and consistent
    i_rows = {r["t"]: r["lhs"] for r in rep.points if r["x_id"] == "I"}
    e_rows = {r["t"]: r["lhs"] for r in rep.points if r["x_id"] == "E_D"}
    assert all(i_rows[t] <= e_rows[t] for t in i_rows)


def test_weighted_energy_hypothesis_failure_aborts():
    op = discretize_radial(make_space("gaussian", 1), 8.0, 128)
    bad = verify.GrigoryanProbe(op, 0.05, data0=np.full(op.m, 50.0) * (op.r < 6.0))
    rep = verify.weighted_energy_bound(bad, 0.0, times=np.linspace(0.06, 0.5, 5))
    assert not rep.passed
    assert any("hypothesis" in n for n in rep.notes)


def test_exploratory_a_sweep_records_without_gating():
    sp = parse_space("sphere:2")
    mu = mu_closed_form(sp)
    rows = verify.exploratory_a_sweep(sp, [0.0, 0.1], lambda a: SphereHeatKernel(2, a), mu)
    assert [r["a"] for r in rows] == [0.0, 0.1]
    # without the coupling the long-time diagonal grows past the bound
    assert rows[0]["max_ratio"] > 1.0
