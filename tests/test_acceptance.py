"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion. Every tolerance below is pinned; none are calibrated at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from solitonlab import verify
from solitonlab.cli import main as cli_main
from solitonlab.entropy import mu, mu_closed_form
from solitonlab.kernels import (
    CylinderHeatKernel,
    DirichletRadialHeatKernel,
    EuclideanHeatKernel,
    SphereHeatKernel,
    green,
)
from solitonlab.spaces import make_space, parse_space
from solitonlab.spectral import discretize_radial, partition_function, sphere_spectrum


def _report(num, label, start, limit):
    elapsed = time.time() - start
    print(f"ACCEPTANCE {num} {label}: PASS ({elapsed:.1f}s, limit {limit:.0f}s)")
    assert elapsed < limit


def test_criterion_1_entropy():
    start = time.time()
    for n in (1, 2, 3):
        rep = mu(parse_space(f"gaussian:{n}"))
        assert abs(rep.mu) <= 1e-10
        assert abs(rep.normalization_check) <= 1e-8
    for tok in ("sphere:2", "cylinder:3"):
        rep = mu(parse_space(tok))
        assert rep.mu == pytest.approx(math.log(2.0) - 1.0, abs=1e-12)
        assert abs(rep.normalization_check) <= 1e-8  # closed form vs quadrature
    _report(1, "entropy constants", start, 10.0)


def test_criterion_2_ultracontractivity(default_table):
    start = time.time()
    # flat space: equality on the diagonal at every sampled time, strict below 1 off it
    ek = EuclideanHeatKernel(make_space("gaussian", 3), 0.25)
    rep = verify.ultracontractivity(default_table(ek), 0.0)
    assert rep.passed
    diag = [r for r in rep.points if r["d"] == 0.0]
    assert len(diag) == 40 and all(abs(r["ratio"] - 1.0) <= 1e-13 for r in diag)
    assert all(r["ratio"] < 1.0 for r in rep.points if r["d"] > 0.0)

    for tok, ev in (("sphere:2", SphereHeatKernel(2, 0.25)),
                    ("cylinder:3", CylinderHeatKernel(3, 0.25))):
        sp = parse_space(tok)
        rep = verify.ultracontractivity(default_table(ev), mu_closed_form(sp))
        assert rep.worst_case_slack <= 1.0 + 1e-6
        assert rep.passed
    _report(2, "ultracontractivity", start, 60.0)


def test_criterion_3_gaussian_bound(default_table):
    start = time.time()
    ek = EuclideanHeatKernel(make_space("gaussian", 3), 0.25)
    rep = verify.gaussian_bound(default_table(ek, refined=True), 0.0, 5.0)
    assert rep.passed
    assert rep.extracted_constants["A_emp"] == pytest.approx(1.0, abs=1e-12)

    for tok, ev in (("sphere:2", SphereHeatKernel(2, 0.25)),
                    ("cylinder:3", CylinderHeatKernel(3, 0.25))):
        sp = parse_space(tok)
        table = default_table(ev, refined=True)
        for c in (4.5, 5.0, 8.0):
            rep = verify.gaussian_bound(table, mu_closed_form(sp), c)
            a_base = rep.extracted_constants["A_emp_base"]
            a_ref = rep.extracted_constants["A_emp"]
            assert math.isfinite(a_ref)
            assert a_ref - a_base <= 0.05 * a_base  # stable under grid doubling
            assert rep.passed
    _report(3, "gaussian off-diagonal bound", start, 120.0)


def test_criterion_4_fd_solver():
    start = time.time()
    op = discretize_radial(make_space("gaussian", 3), 40.0, 4096)
    k = DirichletRadialHeatKernel(op, 1e-3, r_accuracy=4.5)
    for t in (0.1, 0.5, 1.0):
        for r in (0.0, 1.0, 2.0, 4.0):
            v, _ = k.evaluate(r, t)
            exact = (4.0 * math.pi * t) ** -1.5 * math.exp(-r * r / (4.0 * t))
            assert v == pytest.approx(exact, rel=1e-3)
        # pointwise domination against the free kernel over the certified region
        u = k.profile(t)
        rr = np.arange(k.m + 1) * k.h
        free = (4.0 * math.pi * t) ** -1.5 * np.exp(-rr * rr / (4.0 * t))
        certified = np.array([k._error_estimate(free[i], rr[i], t) <= 1e-3 * free[i]
                              for i in range(len(rr))])
        sel = (free > 1e-200) & certified
        assert rr[sel].max() >= 5.0  # the checked region contains all target radii
        assert np.all(u[sel] <= free[sel] * (1.0 + 1e-3))
    _report(4, "Dirichlet finite-difference kernel", start, 60.0)


def test_criterion_5_green():
    start = time.time()
    sp = make_space("gaussian", 3)
    gv = green(sp, 0.25)
    x = sp.point([0, 0, 0])
    rs = np.array([0.5, 1.0, 2.0, 4.0])
    vals = []
    for r in rs:
        v, _ = gv.evaluate(x, sp.point([r, 0, 0]))
        assert v == pytest.approx(1.0 / (4.0 * math.pi * r), rel=1e-4)
        vals.append(v)
    slope = float(np.polyfit(np.log(rs), np.log(vals), 1)[0])
    assert slope == pytest.approx(-1.0, abs=0.01)  # r^{2-n} scaling, n = 3

    s3 = make_space("sphere", 3)
    gs = green(s3, 0.25)
    pole = s3.pole()
    thetas = np.geomspace(0.02, 0.1, 6)
    gvals = []
    for th in thetas:
        v, _ = gs.evaluate(pole, s3.point_at_distance(th * s3.sphere_radius))
        assert math.isfinite(v) and v > 0.0
        gvals.append(v)
    slope = float(np.polyfit(np.log(thetas), np.log(gvals), 1)[0])
    assert abs(slope - (-1.0)) <= 0.05  # theta^{-1} small-separation behavior
    _report(5, "Green's functions", start, 120.0)


def test_criterion_6_eigenvalues():
    start = time.time()
    sp = parse_space("sphere:2")
    mu0 = mu_closed_form(sp)
    V = sp.volume
    spec = sphere_spectrum(2, 0.25, 420)
    lam = spec.values
    for k in range(1, 401):
        bound = (4.0 * math.pi / math.e) * (k * math.exp(mu0) / V)
        assert lam[k - 1] >= bound
    assert lam[0] == pytest.approx(0.25, abs=1e-15)
    assert (4.0 * math.pi / math.e) * (math.exp(mu0) / V) == pytest.approx(
        1.0 / math.e ** 2, rel=1e-12)
    assert 1.0 / math.e ** 2 == pytest.approx(0.13534, abs=5e-6)

    kernel = SphereHeatKernel(2, 0.25)
    for t in np.geomspace(1e-3, 1e2, 40):
        z, err = partition_function(kernel, float(t))
        assert z + err <= math.exp(-mu0) * V * (4.0 * math.pi * t) ** -1.0 * (1 + 1e-12)

    cw = 4.0 * math.pi  # Weyl constant in dimension two
    ratios = [lam[k - 1] / (cw * k / V) for k in range(200, 401)]
    assert 0.9 <= min(ratios) and max(ratios) <= 1.1
    _report(6, "eigenvalue lower bounds", start, 30.0)


def test_criterion_7_log_sobolev():
    start = time.time()
    for n in (1, 2, 3):
        sp = make_space("gaussian", n)
        tr = verify.sharp_gaussian_trial(sp, 1.0)
        (slack,) = verify.log_sobolev_slack(sp, 0.0, tr, [1.0])[2]
        assert abs(slack) <= 1e-6
    for tok in ("gaussian:3", "sphere:2", "cylinder:3"):
        sp = parse_space(tok)
        rep = verify.log_sobolev(sp, mu_closed_form(sp), trials=100,
                                 tau_grid=np.geomspace(1e-2, 10.0, 20), seed=7)
        assert rep.worst_case_slack >= -1e-6
        assert rep.passed
    _report(7, "entropy-energy inequality", start, 120.0)


def test_criterion_8_weighted_energy_machinery():
    start = time.time()
    consts = verify.grigoryan_constants(2.0, 10.0)
    scan = min(2.0 ** (k + 1) / ((2.0 - 1) * (k + 2) * (k + 3) ** 4) for k in range(200))
    assert consts.m == pytest.approx(scan, rel=1e-12)
    assert consts.m == pytest.approx(0.002221, abs=1e-6)

    op = discretize_radial(make_space("gaussian", 1), 8.0, 384)
    rep = verify.energy_monotonicity(op, trials=20, seed=13, dt=1e-3)
    assert rep.passed
    assert rep.extracted_constants["max_violation"] <= 1e-6
    fine = verify.energy_monotonicity(
        discretize_radial(make_space("gaussian", 1), 8.0, 768),
        trials=20, seed=13, dt=5e-4)
    assert fine.extracted_constants["max_violation"] <= \
        rep.extracted_constants["max_violation"] + 1e-12  # shrinks under refinement

    probe = verify.GrigoryanProbe(discretize_radial(make_space("gaussian", 1), 8.0, 512),
                                  1e-3, D=10.0, gamma=2.0)
    wrep = verify.weighted_energy_bound(probe, 0.0, times=np.geomspace(1e-2, 1.0, 10))
    assert wrep.passed
    _report(8, "weighted-energy machinery", start, 180.0)


def test_criterion_9_determinism(tmp_path):
    start = time.time()
    cfg = tmp_path / "det.cfg"
    cfg.write_text("""
space = "gaussian:3"
seed = 2026

[grids]
pairs = 8
times = 10
trials = 8
probe_m = 256
c = 5, 8

[method]
m = 256
r_max = 12.0
""")
    outputs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        code = cli_main(["--config", str(cfg), "--json", str(tmp_path / f"{tag}.json"),
                         "--csv", str(d), "suite"])
        assert code == 0
        outputs.append(d)
    csvs = sorted(p.name for p in outputs[0].iterdir())
    assert csvs == sorted(p.name for p in outputs[1].iterdir())
    for name in csvs:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    # JSON content identical once the timing metadata is dropped
    def strip(doc):
        doc.pop("timestamp", None)
        doc["config"].pop("json_path", None)
        doc["config"].pop("csv_dir", None)
        for chk in doc.get("checks", {}).values():
            chk.pop("runtime_seconds", None)
        return doc

    doc_a = strip(json.loads((tmp_path / "a.json").read_text()))
    doc_b = strip(json.loads((tmp_path / "b.json").read_text()))
    assert doc_a == doc_b
    _report(9, "determinism", start, 120.0)
