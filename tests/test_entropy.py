import math

import numpy as np
import pytest

from solitonlab.entropy import (
    DensityPerturbation,
    RadialProfile,
    TrialFunction,
    minimizer_check,
    mu,
    mu_closed_form,
    random_perturbations,
    random_trials,
    w_entropy,
)
from solitonlab.exceptions import KindMismatchError, NormalizationError
from solitonlab.spaces import parse_space, sphere_area


def test_mu_gaussian_vanishes():
    for n in (1, 2, 3, 5):
        sp = parse_space(f"gaussian:{n}")
        rep = mu(sp)
        assert rep.mu == 0.0
        assert abs(rep.normalization_check) <= 1e-10


def test_mu_sphere2_and_cylinder3():
    expected = math.log(2.0) - 1.0
    for tok in ("sphere:2", "cylinder:3"):
        rep = mu(parse_space(tok))
        assert rep.mu == pytest.approx(expected, abs=1e-14)
        assert abs(rep.normalization_check) <= 1e-8


def test_mu_sphere3_closed_form():
    # e^mu = 2 sqrt(pi) e^{-3/2}
    rep = mu(parse_space("sphere:3"))
    assert rep.mu == pytest.approx(math.log(2.0 * math.sqrt(math.pi)) - 1.5, abs=1e-14)
    assert abs(rep.normalization_check) <= 1e-8


def test_mu_nonpositive_with_gaussian_equality():
    values = {tok: mu_closed_form(parse_space(tok))
              for tok in ("gaussian:1", "gaussian:4", "sphere:2", "sphere:4",
                          "cylinder:3", "cylinder:5")}
    for tok, val in values.items():
        if tok.startswith("gaussian"):
            assert val == 0.0
        else:
            assert val < 0.0


def test_w_entropy_minimizer_values():
    # W(g, f + c, 1) equals mu on every catalogue space
    assert w_entropy(parse_space("gaussian:1"), None, 1.0) == pytest.approx(0.0, abs=1e-10)
    assert w_entropy(parse_space("sphere:2"), None, 1.0) == pytest.approx(
        math.log(2.0) - 1.0, abs=1e-10)
    for tok in ("gaussian:3", "sphere:3", "cylinder:3"):
        assert minimizer_check(parse_space(tok)) <= 1e-8


@pytest.mark.parametrize("tau", [0.01, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("tok", ["gaussian:1", "gaussian:3", "sphere:2", "sphere:3",
                                 "cylinder:3", "cylinder:4"])
def test_unperturbed_w_matches_its_closed_form_at_every_tau(tok, tau):
    # phi = f + c gives c = mu - (n/2) ln tau, and the soliton identities give
    # E[|grad f|^2 + R] = E[f] = n/2, so W = mu + (n/2)(tau - 1 - ln tau)
    sp = parse_space(tok)
    expected = mu_closed_form(sp) + 0.5 * sp.n * (tau - 1.0 - math.log(tau))
    assert w_entropy(sp, None, tau) == pytest.approx(expected, abs=1e-10)


def test_w_entropy_rejects_bad_tau():
    with pytest.raises(ValueError):
        w_entropy(parse_space("gaussian:2"), None, 0.0)


def test_w_entropy_normalization_failure():
    with pytest.raises(NormalizationError):
        DensityPerturbation(math.inf, RadialProfile("bump", 1.0, 3.0))


@pytest.mark.parametrize("tok", ["gaussian:2", "sphere:2", "cylinder:3"])
def test_w_entropy_infimum_property(tok):
    # 1000 random perturbed densities never dip below mu (up to quadrature)
    sp = parse_space(tok)
    mu0 = mu_closed_form(sp)
    worst = math.inf
    for pert in random_perturbations(sp, 1000, seed=20260807):
        worst = min(worst, w_entropy(sp, pert, 1.0) - mu0)
    assert worst >= -1e-6


def test_perturbed_density_above_zero_on_flat_space_any_tau():
    # the flat-space entropy constant vanishes at every scale, so W >= 0
    sp = parse_space("gaussian:1")
    for pert in random_perturbations(sp, 25, seed=3):
        for tau in (0.5, 2.0):
            assert w_entropy(sp, pert, tau) >= -1e-6


def test_trial_normalization():
    for tok in ("gaussian:3", "sphere:2", "cylinder:3"):
        sp = parse_space(tok)
        for tr in random_trials(sp, 10, seed=5):
            assert abs(tr.int_phi2() - 1.0) <= 1e-8
            assert tr.norm_defect <= 1e-8


def test_trial_integrals_against_direct_quadrature():
    # independent oracle: flat-space radial quadrature at fixed nodes
    sp = parse_space("gaussian:3")
    tr = TrialFunction(sp, RadialProfile("bump", 1.0, 2.0))
    r = np.linspace(0.0, 2.0, 20001)
    phi = tr.amplitude * (1.0 - (r / 2.0) ** 2) ** 2
    dphi = tr.amplitude * (-4.0 * r / 4.0) * (1.0 - (r / 2.0) ** 2)
    w = 4.0 * math.pi * r ** 2
    assert np.trapezoid(w * phi ** 2, r) == pytest.approx(1.0, abs=1e-8)
    assert tr.int_grad2() == pytest.approx(float(np.trapezoid(w * dphi ** 2, r)), rel=1e-7)
    p6 = float(np.trapezoid(w * phi ** 6, r))
    assert tr.int_power(6.0) == pytest.approx(p6, rel=1e-7)


def _profile_on_nodes(prof, d):
    """Value and derivative of a bump or gaussian profile, closed on its support."""
    inside = np.abs(d) <= prof.cutoff
    if prof.kind == "bump":
        u = 1.0 - (d / prof.cutoff) ** 2
        g, dg = u * u, -4.0 * d / prof.cutoff ** 2 * u
    else:
        e = np.exp(-d * d / (2.0 * prof.sigma ** 2))
        g = e - math.exp(-prof.cutoff ** 2 / (2.0 * prof.sigma ** 2))
        dg = -d / prof.sigma ** 2 * e
    return np.where(inside, g, 0.0), np.where(inside, dg, 0.0)


def _trial_integrands(phi, grad2):
    phi2 = phi * phi
    logs = np.log(np.where(phi2 > 0.0, phi2, 1.0))
    return phi2, grad2, phi2 * logs, np.abs(phi) ** 6


def _trial_integrals(tr):
    return tr.int_phi2(), tr.int_grad2(), tr.int_entropy(), tr.int_power(6.0)


def test_sphere_trial_integrals_against_a_zonal_trapezoid():
    # oracle: phi = a g(r u) on fixed nodes in the polar angle u
    sp = parse_space("sphere:2")
    r = sp.sphere_radius
    for tr in random_trials(sp, 3, seed=11):
        u = np.linspace(0.0, min(tr.profile.cutoff / r, math.pi), 40001)
        w = sphere_area(1) * r ** 2 * np.sin(u)
        g, dg = _profile_on_nodes(tr.profile, r * u)
        a = tr.amplitude
        oracle = [np.trapezoid(w * f, u) for f in _trial_integrands(a * g, (a * dg) ** 2)]
        assert _trial_integrals(tr) == pytest.approx(oracle, rel=1e-7)


def test_cylinder_trial_integrals_against_a_two_dimensional_trapezoid():
    # oracle: the whole function phi = a g(r u) q(s) on a fixed (s, u) grid,
    # integrated over u in blocks of s rows and then over s
    sp = parse_space("cylinder:3")
    r = sp.sphere_radius
    for tr in random_trials(sp, 3, seed=11):
        u = np.linspace(0.0, min(tr.profile.cutoff / r, math.pi), 16001)
        s = np.linspace(-tr.line_profile.cutoff, tr.line_profile.cutoff, 1001)
        w = sphere_area(1) * r ** 2 * np.sin(u)
        g, dg = _profile_on_nodes(tr.profile, r * u)
        q, dq = _profile_on_nodes(tr.line_profile, s)
        a = tr.amplitude
        rows = np.empty((4, len(s)))
        for lo in range(0, len(s), 128):
            qb, dqb = q[lo:lo + 128, None], dq[lo:lo + 128, None]
            grad2 = a * a * (dqb ** 2 * g ** 2 + qb ** 2 * dg ** 2)
            for k, f in enumerate(_trial_integrands(a * qb * g, grad2)):
                rows[k, lo:lo + 128] = np.trapezoid(w * f, u, axis=1)
        oracle = [np.trapezoid(row, s) for row in rows]
        assert _trial_integrals(tr) == pytest.approx(oracle, rel=1e-7)


def test_trial_dilation_restricted_to_flat_space():
    sp = parse_space("sphere:2")
    tr = random_trials(sp, 1, seed=0)[0]
    with pytest.raises(Exception):
        tr.dilated(2.0)


def test_cylinder_trial_needs_line_profile():
    sp = parse_space("cylinder:3")
    with pytest.raises(KindMismatchError):
        TrialFunction(sp, RadialProfile("bump", 1.0, 2.0))
