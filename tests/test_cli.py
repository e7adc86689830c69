import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from green_oracles import sphere_green_oracle
from solitonlab import kernels, verify
from solitonlab.cli import (
    EXIT_CONFIG,
    EXIT_PASS,
    EXIT_VIOLATION,
    THEOREM_IDS,
    ExperimentConfig,
    _parse_point,
    build_parser,
    main,
    parse_config,
    run_suite,
    run_theorem,
    write_points_csv,
)
from solitonlab.exceptions import ConfigError
from solitonlab.spaces import KINDS, make_space, parse_space

SMALL_GRID = """
space = "gaussian:3"
seed = 11

[grids]
pairs = 8
times = 10
trials = 6
probe_m = 256

[method]
m = 256
r_max = 12.0
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_minimal_config_defaults():
    cfg = parse_config('space = "sphere:2"')
    assert cfg.space == "sphere:2"
    assert cfg.a == 0.25
    assert cfg.seed == 0
    assert cfg.c_values == (4.5, 5.0, 8.0, 16.0)


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("space = \"gaussian:2\"\nwibble = 3\n")
    assert "line 2" in str(err.value)
    assert "wibble" in str(err.value)


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("space \"gaussian:2\"")
    assert "line 1" in str(err.value)


def test_out_of_range_c_rejected():
    # the off-diagonal weight requires c > 4
    with pytest.raises(ConfigError) as err:
        parse_config("[grids]\nc = 4\n")
    assert "line 2" in str(err.value)


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError):
        parse_config("[grids]\npairs = lots\n")


def test_sections_and_comments():
    cfg = parse_config("""
# comment
space = "cylinder:3"   # trailing comment
[tolerances]
analytic = 1e-7
""")
    assert cfg.space == "cylinder:3"
    assert cfg.tol_analytic == 1e-7


def test_bad_space_token_rejected():
    with pytest.raises(ConfigError):
        parse_config('space = "torus:7"')
    with pytest.raises(ConfigError):
        parse_config('space = "sphere:400"')  # its volume overflows a float


# config values as text: numbers of every size and sign, non-finite ones,
# comma lists, space tokens and free text without line breaks
CONFIG_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.lists(st.floats(), max_size=3).map(lambda xs: ", ".join(map(repr, xs))),
    st.sampled_from(["nan", "inf", "-inf", "-0", "-0.0", "1e400", "-1e-400", "", ",",
                     "lots", "4.5, 5", "auto", "fd_dirichlet", '"sphere:3"']),
    st.builds(lambda kind, n: f"{kind}:{n}", st.sampled_from(KINDS), st.integers(-2, 10 ** 6)),
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=12),
)


@pytest.mark.parametrize("f", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name)
@settings(max_examples=100, deadline=None)
@given(value=CONFIG_VALUES)
def test_config_keys_accept_only_values_their_check_passes(f, value):
    # every key, drawn from the field declarations, either takes a value
    # that passes the field's check or raises ConfigError; a value the field
    # rejects is named with its line, and only the cross-field checks (the
    # space token, the grid endpoints) name none
    key = f.metadata["key"] or f.name
    text = f"# drawn value\n[{f.metadata['section']}]\n{key} = {value}\n"
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        assert exc.line == 3 or (exc.line is None and f.name in (
            "space", "t_low", "t_high", "tau_low", "tau_high"))
        return
    got = getattr(cfg, f.name)
    floats = got if f.type is tuple else [got] if f.type is float else []
    assert all(math.isfinite(x) for x in floats) and f.metadata["check"](got)


def test_small_coupling_rejected_for_gaussian_bound():
    cfg = parse_config('space = "sphere:2"\na = 0.1\n')
    with pytest.raises(ConfigError):
        run_theorem("gaussian-bound", cfg)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_mu_subcommand(tmp_path, capsys):
    out = tmp_path / "mu.json"
    code = main(["--json", str(out), "mu", "--space", "cylinder:3"])
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["mu"] == pytest.approx(math.log(2.0) - 1.0, abs=1e-12)
    assert abs(doc["normalization_check"]) <= 1e-8
    assert "config_sha256" in doc and "version" in doc


def test_spaces_subcommand(tmp_path):
    out = tmp_path / "spaces.json"
    assert main(["--json", str(out), "spaces"]) == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["spaces"]["sphere:2"]["sup_R"] == 1.0
    assert all(v["passed"] for v in doc["spaces"].values())


def test_spectrum_subcommand_csv(tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--space", "sphere:2", "--a", "0.25",
                 "--l-max", "2", "--out", str(out)])
    assert code == EXIT_PASS
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue,multiplicity,source"
    assert lines[1].startswith("1,0.25,1,analytic")


def test_spectrum_subcommand_prints_levels_without_expanding(tmp_path):
    # one row per level straight from the level table; the expanded
    # spectrum to l = 3000 on S^3 would hold 9e9 values
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--space", "sphere:3", "--l-max", "3000", "--out", str(out)])
    assert code == EXIT_PASS
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 3001
    assert int(rows[-1].split(",")[0]) == sum((l + 1) ** 2 for l in range(3001))
    assert rows[-1].split(",")[2] == str(3001 ** 2)


def test_kernel_subcommand(tmp_path):
    out = tmp_path / "k.json"
    code = main(["--json", str(out), "kernel", "--space", "gaussian:3",
                 "--t", "1.0", "--x", "0,0,0", "--y", "0,0,0"])
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["value"] == pytest.approx((4 * math.pi) ** -1.5, rel=1e-12)
    assert doc["method"] == "closed_form"
    assert "error_estimate" in doc


@pytest.mark.parametrize("t", ["nan", "inf", "-1"])
@pytest.mark.parametrize("space,x,y", [
    ("gaussian:3", "0,0,0", "1,0,0"),
    ("sphere:2", "0,0,1", "0,1,0"),
    ("sphere:3", "0,0,0,1", "0,0,1,0"),
    ("cylinder:3", "0,0,1;0", "0,1,0;0.5"),
])
def test_kernel_rejects_bad_time(tmp_path, capsys, space, x, y, t):
    out = tmp_path / "k.json"
    code = main(["--json", str(out), "kernel", "--space", space,
                 "--t", t, "--x", x, "--y", y])
    assert code == EXIT_CONFIG
    assert "TimeDomainError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "--space", "gaussian:3", "--t", "1", "--x", "0,0", "--y", "1,0,0"],
    ["kernel", "--space", "gaussian:3", "--t", "1", "--x", "a,0,0", "--y", "1,0,0"],
    ["kernel", "--space", "sphere:3", "--t", "1", "--x", "0,0,0,0", "--y", "1,0,0,0"],
    ["kernel", "--space", "gaussian:3", "--t", "1", "--x", "nan,0,0", "--y", "1,0,0"],
    ["kernel", "--space", "cylinder:3", "--t", "1", "--x", "1,0,0;inf", "--y", "1,0,0;0"],
    ["green", "--space", "gaussian:3", "--x", "1,0,0", "--y", "1,0,0"],
    ["spectrum", "--space", "sphere:2", "--l-max", "-5"],
    ["spectrum", "--space", "gaussian:3", "--m", "10"],
    ["spectrum", "--space", "gaussian:3", "--k", "0"],
    ["spectrum", "--space", "gaussian:3", "--r-max", "-1"],
    ["kernel", "--space", "gaussian:3", "--method", "fd_dirichlet", "--t", "1",
     "--x", "0,0,0", "--y", "1,0,0"],
], ids=["wrong-length", "not-a-number", "zero-direction", "nan-coordinate", "inf-line",
        "green-diagonal", "negative-l-max", "m-below-16", "k-0", "negative-r-max",
        "fd-kernel-point-pair"])
def test_bad_point_and_spectrum_input_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    assert main(["--json", str(out)] + argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_kernel_on_a_sphere_too_large_for_its_series_exits_2(tmp_path, capsys):
    out = tmp_path / "k.json"
    x = ",".join(["1"] + ["0"] * 120)
    code = main(["--json", str(out), "kernel", "--space", "sphere:120", "--t", "1",
                 "--x", x, "--y", x])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "DimensionError" in err and "Traceback" not in err
    assert not out.exists()


def test_green_subcommand(tmp_path):
    out = tmp_path / "g.json"
    code = main(["--json", str(out), "green", "--space", "gaussian:3",
                 "--x", "0,0,0", "--y", "1,0,0"])
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["value"] == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)
    assert doc["method"] == "closed_form"


def test_green_close_pair_on_sphere3_matches_the_sinh_form(tmp_path):
    # d ~ 0.02; on S^3 the Dirichlet-Mehler integral is the sinh form
    out = tmp_path / "g.json"
    code = main(["--json", str(out), "green", "--space", "sphere:3", "--a", "0.25",
                 "--x", "1,0,0,0", "--y", "0.99995,0.0099998,0,0"])
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["method"] == "dirichlet_mehler"
    # the angle as the space measures it, so only the route is under test
    sp = make_space("sphere", 3)
    theta = sp.distance(sp.pole(), sp.point([0.99995, 0.0099998, 0, 0])) / sp.sphere_radius
    # radius 2, V = 16 pi^2, c^2 = 4 (3/2)(1/4) - 1 = 1/2
    c = math.sqrt(0.5)
    exact = math.pi * 4.0 * math.sinh(c * (math.pi - theta)) / (
        2.0 * 16.0 * math.pi ** 2 * math.sin(theta) * math.sinh(c * math.pi))
    assert doc["value"] == pytest.approx(exact, rel=1e-13)
    assert 0.0 < doc["error_estimate"] <= 1e-13 * doc["value"]


@pytest.mark.parametrize("space,x,y", [
    ("sphere:4", "1,0,0,0,0", "0.99995,0.0099998,0,0,0"),
    ("cylinder:3", "1,0,0;0", "0.99995,0.0099998,0;0"),
])
def test_green_close_pairs_exit_0_within_their_estimate_of_mpmath(tmp_path, space, x, y):
    # d ~ 0.02 on sphere:4 and ~ 0.014 at line offset 0 on cylinder:3 lie
    # below the reach of a time integral of the series kernel (its series
    # needs more than L_MAX levels at t = d^2/282); the Dirichlet-Mehler
    # integral and the k-integral over it take no series
    out = tmp_path / "g.json"
    code = main(["--json", str(out), "green", "--space", space, "--a", "0.25",
                 "--x", x, "--y", y])
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    sp = parse_space(space)
    p, q = _parse_point(sp, x), _parse_point(sp, y)
    if sp.kind == "sphere":
        assert doc["method"] == "dirichlet_mehler"
        r = sp.sphere_radius
        theta = sp.distance(p, q) / r
        exact = float(sphere_green_oracle(4, theta, 0.25 * sp.sup_R * r * r)) / (r * r)
        assert abs(doc["value"] - exact) <= doc["error_estimate"] <= 1e-12 * exact
    else:
        # S^2 x R, where mpmath's conical Legendre function does not converge
        # at the large tau of the k-integral: the reference integrates the
        # same float64 S^2 factor (held to 40-digit mpmath in
        # test_green.py::test_dirichlet_mehler_within_its_estimate_of_mpmath)
        # by tanh-sinh in k itself, cut at k d = 60, where the factor is below
        # e^{-60} of its share, so it shares nothing of the route's rule in w
        assert doc["method"] == "k_integral"
        d = sp.distance(p, q)
        theta, m = d / sp.sphere_radius, 0.25 * sp.sup_R

        def factor(k):
            return float(kernels.sphere_green(2, theta, (m + float(k) ** 2) * sp.sphere_radius ** 2)[0][0])

        exact = float(mpmath.quad(factor, [0, 1 / d, 10 / d, 60 / d])) / math.pi
        assert abs(doc["value"] - exact) <= doc["error_estimate"] <= 1e-12 * exact


@pytest.mark.parametrize("space,x,y", [
    ("cylinder:3", "1,0,0;0", "1,0,0;0.001"),
    ("cylinder:3", "1,0,0;0", "0.999999995,0.0001,0;0.004"),
    ("cylinder:4", "1,0,0,0;0", "0.999999995,0.0001,0,0;0.004"),
])
def test_green_near_the_line_below_the_series_reach_names_the_distance(tmp_path, capsys, space, x, y):
    # line offsets |s| >= r theta below the line series' reach: at angle 0
    # only the series serves, and at angle 1e-4 the k-integral's cos(k s)
    # turns through about 45 |s| / (r theta) radians, far past its rule; the
    # query names the distance and exits 2, as it did when the time integral
    # served (it fails below d ~ 0.02)
    out = tmp_path / "g.json"
    code = main(["--json", str(out), "green", "--space", space, "--a", "0.25",
                 "--x", x, "--y", y])
    assert code == EXIT_CONFIG
    sp = parse_space(space)
    d = sp.distance(_parse_point(sp, x), _parse_point(sp, y))
    err = capsys.readouterr().err
    assert "SeriesTruncationError" in err and f"d={d:.6g}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv,theorem,constant,value,abs_tol", [
    (["weighted-energy", "--gamma", "2.0", "--D", "10.0"],
     "weighted-energy", "m", 0.002221, 1e-6),
    # the partition rows read the series kernel whatever the configured method
    (["eigenvalue-bound", "--space", "sphere:3", "--method", "fd_dirichlet"],
     "eigenvalue-bound", "min_partition_relative_slack", 0.209123, 1e-6),
    (["eigenvalue-bound", "--space", "sphere:3", "--method", "closed_form"],
     "eigenvalue-bound", "min_partition_relative_slack", 0.209123, 1e-6),
], ids=["weighted-energy", "eigenvalue-fd-method", "eigenvalue-closed-form-method"])
def test_verify_subcommand_exit_codes(tmp_path, argv, theorem, constant, value, abs_tol):
    out = tmp_path / "v.json"
    code = main(["--json", str(out), "verify"] + argv)
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["checks"][theorem]["extracted_constants"][constant] == \
        pytest.approx(value, abs=abs_tol)


@pytest.mark.parametrize("config,argv,limit", [
    ("[tolerances]\nanalytic = 1e-4\n", ["--space", "sphere:2"], 1e-4),
    (SMALL_GRID + "kind = fd_dirichlet\ntime_tol = 1e-2\n[tolerances]\nfd = 1e-2\n", [], 1e-2),
], ids=["analytic", "fd"])
def test_tolerances_reach_kernel_axioms(tmp_path, config, argv, limit):
    cfg, out = tmp_path / "tol.cfg", tmp_path / "v.json"
    cfg.write_text(config)
    main(["--config", str(cfg), "--json", str(out), "verify", "kernel-axioms"] + argv)
    rows = json.loads(out.read_text())["checks"]["kernel-axioms"]["points"]
    assert {r["x_id"]: r["rhs"] for r in rows if r["x_id"] in ("positivity", "mass")} == \
        {"positivity": limit, "mass": limit}


@pytest.mark.parametrize("before,after", [(["--seed", "5"], []), ([], ["--seed", "5"])])
def test_seed_flag_in_either_position(tmp_path, before, after):
    out = tmp_path / "r.json"
    argv = ["--json", str(out)] + before + ["verify", "kernel-axioms"] + after
    assert main(argv) == EXIT_PASS
    assert json.loads(out.read_text())["config"]["seed"] == 5
    # the suite subcommand shares the flag handling
    assert build_parser().parse_args(before + ["suite"] + after).seed == 5


@pytest.mark.parametrize("c,code", [("5", EXIT_PASS), ("4", EXIT_CONFIG), ("0", EXIT_CONFIG)])
def test_verify_c_flag(tmp_path, c, code):
    # --c is the verify subcommand's flag, not an abbreviation of --config or --csv
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_GRID)
    out = tmp_path / "v.json"
    argv = ["--config", str(cfg), "--json", str(out), "verify", "gaussian-bound", "--c", c]
    assert main(argv) == code
    if code == EXIT_PASS:
        assert json.loads(out.read_text())["checks"]["gaussian-bound"]["grid"]["c"] == 5.0


@pytest.mark.parametrize("config,argv", [
    (None, ["--seed", "-1", "verify", "kernel-axioms"]),
    (None, ["verify", "eigenvalue-bound", "--space", "sphere:2", "--k-max", "0"]),
    (None, ["verify", "log-sobolev", "--trials", "0", "--tau-grid", "1,2,0"]),
    (None, ["verify", "log-sobolev", "--tau-grid", "1,0.1,3"]),
    (None, ["verify", "log-sobolev", "--tau-grid", "1,2"]),
    (None, ["verify", "kernel-axioms", "--space", "sphere:2", "--a", "nan"]),
    ("a = inf\n", ["verify", "kernel-axioms", "--space", "sphere:2"]),
    ("[grids]\nc =\n", ["verify", "kernel-axioms"]),
], ids=["negative-seed", "k-max-0", "trials-0", "reversed-tau-grid", "short-tau-grid",
        "nan-a", "inf-a-in-file", "empty-c-list-in-file"])
def test_invalid_config_and_flags_exit_2(tmp_path, config, argv):
    # config files and flag overrides share one validator
    out = tmp_path / "r.json"
    if config is not None:
        path = tmp_path / "bad.cfg"
        path.write_text(config)
        argv = ["--config", str(path)] + argv
    assert main(["--json", str(out)] + argv) == EXIT_CONFIG
    assert not out.exists()


def test_verify_config_error_exit(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text('space = "sphere:2"\na = 0.1\n')
    code = main(["--config", str(cfg), "verify", "ultracontractivity"])
    assert code == EXIT_CONFIG


def test_corrupted_config_exits_2_without_report(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("space == gaussian:3\n[grids\n")
    out = tmp_path / "r.json"
    code = main(["--config", str(cfg), "--json", str(out), "suite"])
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_suite_small_config_passes(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_GRID + "\n[grids]\nc = 5, 8\n")
    out = tmp_path / "suite.json"
    code = main(["--config", str(cfg), "--json", str(out), "suite"])
    doc = json.loads(out.read_text())
    assert set(doc["checks"]) >= {"kernel-axioms", "ultracontractivity",
                                  "green-bound", "weighted-energy"}
    assert doc["all_passed"] and code == EXIT_PASS


SMALL_SPHERE2 = """
space = "sphere:2"
[grids]
pairs = 6
times = 6
trials = 4
k_max = 20
c = 4.5, 5, 8, 16
"""


def test_suite_shares_evaluators_and_tables(tmp_path, monkeypatch):
    # one evaluator per coupling and one table per grid: the ultracontractivity
    # grid, the refined grid every c value reads, and the Laplace-kernel grid
    from solitonlab.kernels import SphereHeatKernel

    tables, built = [], []
    table, post_init = SphereHeatKernel.table, SphereHeatKernel.__post_init__

    def counted_table(self, *args):
        tables.append(self.a)
        return table(self, *args)

    def recorded_post_init(self):
        built.append(self.a)
        post_init(self)

    monkeypatch.setattr(SphereHeatKernel, "table", counted_table)
    monkeypatch.setattr(SphereHeatKernel, "__post_init__", recorded_post_init)
    doc, _ = run_suite(parse_config(SMALL_SPHERE2))
    assert len([k for k in doc["checks"] if k.startswith("gaussian-bound")]) == 4
    assert len(tables) == 3
    assert sorted(built) == [0.0, 0.25]


def test_suite_skips_inapplicable_theorems_with_reasons(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SPHERE2)
    out = tmp_path / "suite.json"
    code = main(["--config", str(cfg), "--json", str(out), "suite", "--a", "0.1"])
    assert code in (EXIT_PASS, EXIT_VIOLATION)
    doc = json.loads(out.read_text())
    ran = {"kernel-axioms", "log-sobolev", "cr-bound"}
    assert set(doc["checks"]) == ran
    assert set(doc["skipped"]) == set(THEOREM_IDS) - ran
    assert doc["skipped"]["ultracontractivity"] == "ultracontractivity requires a >= 1/4"
    assert all(isinstance(r, str) and r for r in doc["skipped"].values())


def test_exit_1_when_a_check_reports_violation(tmp_path, monkeypatch):
    import solitonlab.cli as cli_mod
    from solitonlab.verify import VerificationReport

    def failing(theorem_id, cfg, **kw):
        return VerificationReport(theorem_id=theorem_id, space=cfg.space, a=cfg.a,
                                  grid={}, tolerance=0.0, seed=0, mode="slack",
                                  worst_case_slack=-1.0)

    monkeypatch.setattr(cli_mod, "run_theorem", failing)
    out = tmp_path / "v.json"
    code = cli_mod.main(["--json", str(out), "verify", "ultracontractivity"])
    assert code == EXIT_VIOLATION
    assert json.loads(out.read_text())["all_passed"] is False


@pytest.mark.parametrize("outcomes,code", [
    (["fail", "raise"], EXIT_VIOLATION), (["pass", "raise"], EXIT_CONFIG),
    (["pass", "pass"], EXIT_PASS),
], ids=["violation-and-error", "error-only", "clean"])
def test_exit_code_of_checks_that_fail_raise_or_pass(monkeypatch, outcomes, code):
    import solitonlab.cli as cli_mod
    from solitonlab.exceptions import SeriesTruncationError
    from solitonlab.verify import VerificationReport

    def check(theorem_id, cfg, **kw):
        if outcomes[int(theorem_id)] == "raise":
            raise SeriesTruncationError("no convergence")
        slack = -1.0 if outcomes[int(theorem_id)] == "fail" else 1.0
        return VerificationReport(theorem_id=theorem_id, space=cfg.space, a=cfg.a, grid={},
                                  tolerance=0.0, seed=0, mode="slack", worst_case_slack=slack)

    monkeypatch.setattr(cli_mod, "run_theorem", check)
    doc, got = cli_mod.run_checks(ExperimentConfig(), [("0", {}), ("1", {})])
    assert got == code
    assert doc["all_passed"] is (code == EXIT_PASS)


# ---------------------------------------------------------------------------
# CSV and determinism
# ---------------------------------------------------------------------------


def test_ultracontractivity_default_grid_row_count(tmp_path):
    # 24 pairs x 40 times on the default grid
    cfg = ExperimentConfig(space="gaussian:3")
    rep = run_theorem("ultracontractivity", cfg)
    doc = rep.to_dict()
    path = tmp_path / "uc.csv"
    write_points_csv(doc, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "theorem_id,space,a,x_id,y_id,t,lhs,rhs,slack,ratio"
    assert len(lines) == 1 + 24 * 40


def test_empty_report_yields_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_points_csv({"theorem_id": "x", "space": None, "a": None, "points": []}, str(path))
    assert path.read_text() == "theorem_id,space,a,x_id,y_id,t,lhs,rhs,slack,ratio\n"


def test_numpy_scalar_cells_are_plain_numbers(tmp_path):
    path = tmp_path / "np.csv"
    row = {"x_id": np.int64(3), "y_id": 4, "t": np.float64(0.1), "lhs": np.float64(31.6),
           "rhs": np.float32(0.5), "slack": np.float64("nan"), "ratio": None}
    write_points_csv({"theorem_id": "x", "space": "sphere:3", "a": np.float64(0.25),
                      "points": [row]}, str(path))
    assert path.read_text().splitlines()[1] == "x,sphere:3,0.25,3,4,0.1,31.6,0.5,nan,"


def test_csv_cell_with_a_comma_is_quoted(tmp_path):
    path = tmp_path / "comma.csv"
    write_points_csv({"theorem_id": "x", "space": "sphere:3", "a": 0.25,
                      "points": [{"x_id": "p0,p1", "y_id": "d=1", "t": 0.5}]}, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["x", "sphere:3", "0.25", "p0,p1", "d=1", "0.5", "", "", "", ""]


def test_plot_data_round_trip(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_GRID)
    report = tmp_path / "rep.json"
    code = main(["--config", str(cfg), "--json", str(report), "verify", "ultracontractivity"])
    assert code == EXIT_PASS
    outdir = tmp_path / "plots"
    assert main(["plot-data", "--report", str(report), "--out", str(outdir)]) == EXIT_PASS
    files = sorted(os.listdir(outdir))
    assert files == ["ultracontractivity.csv"]
    body = (outdir / files[0]).read_text()
    assert body.startswith("theorem_id,space,a,")
    assert body.count("\n") == 1 + 8 * 10


def test_suite_jobs_respect_space_applicability():
    from solitonlab.cli import suite_jobs
    gauss = [j for j, _ in suite_jobs(ExperimentConfig(space="gaussian:3"))]
    assert "energy-monotonicity" in gauss and "weighted-energy" in gauss
    assert "eigenvalue-bound" not in gauss
    sphere2 = [j for j, _ in suite_jobs(ExperimentConfig(space="sphere:2"))]
    assert "eigenvalue-bound" in sphere2
    assert "green-bound" not in sphere2  # n < 3
    assert "energy-monotonicity" not in sphere2
    cyl = [j for j, _ in suite_jobs(ExperimentConfig(space="cylinder:3"))]
    assert "green-bound" in cyl and "sobolev" in cyl


def test_repeat_runs_are_byte_identical(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_GRID)
    dirs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        main(["--config", str(cfg), "--csv", str(d), "verify", "log-sobolev"])
        dirs.append(d)
    a = (dirs[0] / "log-sobolev.csv").read_bytes()
    b = (dirs[1] / "log-sobolev.csv").read_bytes()
    assert a == b


def test_seed_moves_no_ratio_check_row(tmp_path):
    # the ratio checks tabulate a deterministic separation grid, and the
    # deterministic checks report no seed
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SPHERE2)
    docs = []
    for seed in ("0", "1"):
        out = tmp_path / f"s{seed}"
        main(["--config", str(cfg), "--json", f"{out}.json", "--csv", str(out),
              "suite", "--seed", seed])
        docs.append(json.loads((tmp_path / f"s{seed}.json").read_text())["checks"])
    names = ["ultracontractivity.csv", "cr-bound.csv"]
    names += [f"gaussian-bound_c={c}.csv" for c in ("4.5", "5", "8", "16")]
    for name in names:
        assert (tmp_path / "s0" / name).read_bytes() == (tmp_path / "s1" / name).read_bytes()
    for doc in docs:
        assert {k for k, v in doc.items() if v["seed"] is not None} == \
            {"kernel-axioms", "log-sobolev"}
    assert docs[0]["ultracontractivity"]["points"][0]["x_id"] == "theta=0"


def test_eigenvalue_bound_names_its_space(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SPHERE2)
    out = tmp_path / "csv"
    main(["--config", str(cfg), "--csv", str(out), "--json", str(tmp_path / "r.json"), "suite"])
    rep = json.loads((tmp_path / "r.json").read_text())["checks"]["eigenvalue-bound"]
    assert rep["space"] == "sphere:2"
    with open(out / "eigenvalue-bound.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["space"] == "sphere:2" for row in rows)


@pytest.mark.parametrize("n,k_max,count", [(3, 400, 506), (100, 400, 5252), (119, 400, 7380),
                                           (2, 1, 4), (3, 20, 30)])
def test_eigenvalue_bound_expands_the_spectrum_through_the_level_of_k_max_plus_one(
        n, k_max, count):
    # whole levels through the (k_max + 1)-th eigenvalue and none past it;
    # the level after it would hold 234 228 654 values on S^119
    from solitonlab.cli import _level_for_count
    from solitonlab.spectral import sphere_multiplicity

    level = _level_for_count(n, k_max)
    through = [sum(sphere_multiplicity(n, l) for l in range(top + 1)) for top in (level - 1, level)]
    assert through[0] <= k_max < through[1] == count


# ---------------------------------------------------------------------------
# one kernel per coupling
# ---------------------------------------------------------------------------


def test_series_eps_reaches_the_green_kernel(monkeypatch):
    seen = []
    monkeypatch.setattr(verify, "green_bound",
                        lambda gv, mu, **kw: seen.append(gv) or SimpleNamespace())
    run_theorem("green-bound", parse_config('space = "sphere:3"\n[method]\nseries_eps = 1e-8\n'))
    assert seen[0].kernel.eps == 1e-8


def test_sphere_suite_builds_one_series_kernel_per_coupling(monkeypatch):
    # the store's kernel at a serves every check at a, green-bound included;
    # cr-bound reads the Laplace kernel (a = 0)
    built = []
    init = kernels.SphereHeatKernel.__post_init__

    def counted(self):
        built.append(self.a)
        init(self)

    monkeypatch.setattr(kernels.SphereHeatKernel, "__post_init__", counted)
    _, code = run_suite(ExperimentConfig(space="sphere:3"))
    assert code == EXIT_PASS
    assert sorted(built) == [0.0, 0.25]


def _count_sphere_kernels(monkeypatch) -> list:
    """The couplings of the series sphere kernels built from now on, raising or not."""
    built = []
    init = kernels.SphereHeatKernel.__post_init__

    def counted(self):
        built.append(self.a)
        init(self)

    monkeypatch.setattr(kernels.SphereHeatKernel, "__post_init__", counted)
    return built


def test_spectral_series_suite_shares_the_auto_kernel(monkeypatch):
    # green-bound and the eigenvalue trace ask for "auto", which resolves to
    # the configured series route and reuses its kernel and table
    built = _count_sphere_kernels(monkeypatch)
    _, code = run_suite(ExperimentConfig(space="sphere:3", method="spectral_series"))
    assert code == EXIT_PASS
    assert sorted(built) == [0.0, 0.25]


def test_suite_whose_kernel_cannot_be_built_exits_2_and_builds_it_once(
        tmp_path, capsys, monkeypatch):
    # the S^120 multiplicities overflow a float: every kernel check is an
    # error entry, and each coupling's failed build is kept and raised again
    built = _count_sphere_kernels(monkeypatch)
    out = tmp_path / "s.json"
    assert main(["--json", str(out), "suite", "--space", "sphere:120"]) == EXIT_CONFIG
    checks = json.loads(out.read_text())["checks"]
    errors = {k for k, v in checks.items() if "error" in v}
    assert len(errors) == 9 and not any(checks[k]["passed"] for k in errors)
    assert all(checks[k]["passed"] for k in set(checks) - errors)
    assert sorted(built) == [0.0, 0.25]
    lines = capsys.readouterr().err.splitlines()
    assert sorted(lines) == sorted(f"error: {k}: {checks[k]['error']}" for k in errors)
    assert all(": DimensionError: " in line for line in lines)


def test_verify_whose_kernel_cannot_be_built_writes_the_error_and_exits_2(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert main(["--json", str(out), "verify", "kernel-axioms", "--space", "sphere:120"]) \
        == EXIT_CONFIG
    doc = json.loads(out.read_text())
    assert set(doc) >= {"checks", "all_passed"} and "skipped" not in doc
    assert doc["all_passed"] is False
    entry = doc["checks"]["kernel-axioms"]
    assert entry["error"].startswith("DimensionError: ") and entry["points"] == []
    assert capsys.readouterr().err == f"error: kernel-axioms: {entry['error']}\n"


def test_runtime_covers_the_kernel_table_a_check_builds(monkeypatch):
    kernel_table = verify.kernel_table

    def slow(*args):
        time.sleep(0.05)
        return kernel_table(*args)

    monkeypatch.setattr(verify, "kernel_table", slow)
    rep = run_theorem("ultracontractivity", ExperimentConfig(space="gaussian:3", pairs=8, times=10))
    assert rep.runtime_seconds >= 0.05


def test_checks_run_after_the_integration_import_the_package_does_not_make():
    # importing the CLI and answering a closed-form or S^3 query, or any
    # Green's function query but the line series on S^2 x R, load no scipy
    # module; run_checks loads scipy.integrate, and with it
    # scipy.linalg and scipy.special, before its first check, so no check's
    # runtime_seconds carries an import
    queries = [
        ["kernel", "--space", "gaussian:3", "--t", "1", "--x", "0,0,0", "--y", "1,0,0"],
        ["kernel", "--space", "sphere:3", "--t", "1", "--x", "1,0,0,0", "--y", "0,1,0,0"],
        ["green", "--space", "gaussian:3", "--x", "0,0,0", "--y", "1,0,0"],
        ["green", "--space", "sphere:3", "--a", "0.25", "--x", "1,0,0,0", "--y", "0,1,0,0"],
        ["kernel", "--space", "cylinder:4", "--t", "1", "--x", "1,0,0,0;0", "--y", "0,1,0,0;1"],
        ["green", "--space", "sphere:4", "--a", "0.25", "--x", "1,0,0,0,0", "--y", "0,1,0,0,0"],
        ["green", "--space", "cylinder:4", "--a", "0.25", "--x", "1,0,0,0;0", "--y", "0,1,0,0;1"],
        ["green", "--space", "cylinder:3", "--a", "0.25", "--x", "1,0,0;0", "--y", "0,1,0;0"],
    ]
    code = ("import os, sys; import solitonlab.cli as c\n"
            "def scipy_loaded(): return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "assert scipy_loaded() == [], scipy_loaded()\n"
            f"for argv in {queries!r}:\n"
            "    assert c.main(['--json', os.devnull, *argv]) == 0\n"
            "    assert scipy_loaded() == [], (argv, scipy_loaded())\n"
            "c.run_checks(c.ExperimentConfig(space='gaussian:3', pairs=4, times=4), [])\n"
            "assert {'scipy.integrate', 'scipy.linalg', 'scipy.special'} <= set(sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_flags_override_the_fields_they_name(tmp_path):
    # --D and --gamma reach only the weighted-energy check
    out = tmp_path / "g.json"
    argv = ["--json", str(out), "verify", "weighted-energy", "--D", "12", "--gamma", "3"]
    assert main(argv) == EXIT_PASS
    doc = json.loads(out.read_text())
    assert (doc["config"]["big_d"], doc["config"]["gamma"]) == (12.0, 3.0)
    grid = doc["checks"]["weighted-energy"]["grid"]
    assert (grid["D"], grid["gamma"]) == (12.0, 3.0)


def test_probe_dt_does_not_reach_weighted_energy():
    # the weighted-energy probe marches the source kernel with its own step
    # rule; probe_dt sets the steps of energy-monotonicity alone
    points = [run_theorem("weighted-energy", ExperimentConfig(probe_dt=dt)).points
              for dt in (5e-4, 2e-3)]
    assert points[0] == points[1]


def test_energy_monotonicity_rows_record_the_signed_margin():
    # a monotone run shows how the march settings move its margin: each row's
    # lhs is the trial's largest normalized difference, signed
    reports = [run_theorem("energy-monotonicity", ExperimentConfig(probe_dt=dt, trials=2))
               for dt in (5e-4, 2e-3)]
    assert reports[0].points != reports[1].points
    for rep in reports:
        assert rep.passed
        assert all(row["lhs"] < 0.0 and row["slack"] == -row["lhs"] for row in rep.points)
        assert rep.worst_case_slack == min(row["slack"] for row in rep.points)
        assert rep.extracted_constants["max_violation"] == 0.0


def test_extracted_constants_are_plain_numbers():
    # Python callers of the checks read plain floats and ints, not numpy scalars
    from solitonlab.cli import suite_jobs
    cfg = ExperimentConfig(space="gaussian:3")
    store = {}
    for job_id, kw in suite_jobs(cfg):
        report = run_theorem(job_id.split(":")[0], cfg, store=store, **kw)
        for name, value in report.extracted_constants.items():
            if name == "argmax":  # the cell of the largest ratio: a row label and a time
                value = value["t"]
            assert type(value) in (float, int), (job_id, name, type(value))
