import math

import mpmath
import numpy as np
import pytest

from solitonlab.exceptions import DimensionError, DivergenceError
from solitonlab.kernels import _gaussian_time_tail, green, volume_growth_integral
from solitonlab.spaces import make_space, parse_space


def euclidean_green_constant(n):
    """G = C(n) r^{2-n} with C(n) = Gamma(n/2 - 1) / (4 pi^{n/2})."""
    return math.gamma(n / 2.0 - 1.0) / (4.0 * math.pi ** (n / 2.0))


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_gaussian_time_tail_against_mpmath_incomplete_gamma(n):
    # the Green floor bound: integral of t^{-n/2} e^{-d^2/4t} over (0, T] is
    # (4/d^2)^s Gamma(s, d^2/4T) with s = n/2 - 1; at T = d^2/282, where the
    # Green's function cuts its near-time integral, the integral is ~1e-31
    # of the scale and an adaptive rule with an absolute tolerance misses it
    s = mpmath.mpf(n) / 2 - 1
    for d in (0.02, 0.3, 1.0, 4.0):
        for T in (d * d / 282.0, d * d / 40.0, d * d, 10.0 * d * d):
            with mpmath.workdps(40):
                d2 = mpmath.mpf(d) ** 2
                exact = (4 / d2) ** s * mpmath.gammainc(s, d2 / (4 * mpmath.mpf(T)))
            assert _gaussian_time_tail(n, d, T) == pytest.approx(float(exact), rel=1e-12)
    assert _gaussian_time_tail(n, 1.0, 0.0) == 0.0


def test_green_gaussian3_matches_inverse_distance():
    sp = make_space("gaussian", 3)
    gv = green(sp, 0.25)
    x = sp.point([0, 0, 0])
    for r in (0.5, 1.0, 2.0, 4.0):
        val, err = gv.evaluate(x, sp.point([r, 0, 0]))
        assert val == pytest.approx(1.0 / (4.0 * math.pi * r), rel=1e-4)
        assert err <= 1e-6 * val


def test_green_gaussian4_standard_constant():
    sp = make_space("gaussian", 4)
    gv = green(sp, 0.25)
    x = sp.point([0, 0, 0, 0])
    val = gv(x, sp.point([1.0, 0, 0, 0]))
    assert euclidean_green_constant(4) == pytest.approx(1.0 / (4.0 * math.pi ** 2), rel=1e-14)
    assert val == pytest.approx(euclidean_green_constant(4), rel=1e-6)


def test_green_scaling_slope():
    sp = make_space("gaussian", 3)
    gv = green(sp, 0.0)  # Laplace route doubles as the oracle (R = 0)
    x = sp.point([0, 0, 0])
    rs = np.array([0.5, 1.0, 2.0, 4.0])
    vals = np.array([gv(x, sp.point([r, 0, 0])) for r in rs])
    slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.01)


def sphere3_green_oracle(theta):
    """Closed form from the eigenvalue series: the zonal sum collapses to a
    sinh ratio (Fourier series of m sin(m theta)/(m^2 + 1/2))."""
    V = 16.0 * math.pi ** 2
    c = 1.0 / math.sqrt(2.0)
    return (4.0 / (V * math.sin(theta))) * (math.pi / 2.0) \
        * math.sinh(c * (math.pi - theta)) / math.sinh(c * math.pi)


def test_green_sphere3_vs_closed_form():
    sp = make_space("sphere", 3)
    gv = green(sp, 0.25)
    pole = sp.pole()
    for theta in (0.05, 0.3, math.pi / 2, 2.5):
        y = sp.point_at_distance(theta * sp.sphere_radius)
        val, err = gv.evaluate(pole, y)
        assert val == pytest.approx(sphere3_green_oracle(theta), rel=1e-8)
        assert val > 0.0


def test_green_cylinder_finite_positive():
    sp = make_space("cylinder", 3)
    gv = green(sp, 0.25)
    x = sp.point([1, 0, 0], s=0.0)
    y = sp.point([0, 1, 0], s=0.5)
    val, err = gv.evaluate(x, y)
    assert val > 0.0 and math.isfinite(val)


def test_green_singularity_and_dimension_guards():
    sp = make_space("gaussian", 3)
    gv = green(sp, 0.25)
    x = sp.point([1, 2, 3])
    with pytest.raises(ValueError):
        gv.evaluate(x, x)
    with pytest.raises(DimensionError):
        green(make_space("gaussian", 2), 0.25)


def test_green_divergence_without_gap():
    # on a compact space the Laplace time integral cannot converge, and on
    # the cylinder the line factor alone decays too slowly (t^{-1/2})
    with pytest.raises(DivergenceError):
        green(make_space("sphere", 3), 0.0)
    with pytest.raises(DivergenceError):
        green(make_space("cylinder", 3), 0.0)


def test_volume_growth_gaussian3():
    res = volume_growth_integral(parse_space("gaussian:3"), 1e6)
    assert not res.divergent
    assert res.value == pytest.approx(3.0 / (4.0 * math.pi), rel=1e-5)


def test_volume_growth_divergent_cases():
    assert volume_growth_integral(parse_space("gaussian:2"), 1e5).divergent
    assert volume_growth_integral(parse_space("sphere:3"), 1e4).divergent
    assert volume_growth_integral(parse_space("cylinder:3"), 1e4).divergent


def test_volume_growth_validation():
    with pytest.raises(ValueError):
        volume_growth_integral(parse_space("gaussian:3"), 0.5)
