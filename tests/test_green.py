import math

import mpmath
import numpy as np
import pytest

from green_oracles import cylinder_green_oracle, gaussian_time_tail, sphere_green_oracle, time_integral
from solitonlab.exceptions import DimensionError, DivergenceError, SeriesTruncationError
from solitonlab.kernels import green, heat_kernel, sphere_green, volume_growth_integral
from solitonlab.spaces import make_space, parse_space


def euclidean_green_constant(n):
    """G = C(n) r^{2-n} with C(n) = Gamma(n/2 - 1) / (4 pi^{n/2})."""
    return math.gamma(n / 2.0 - 1.0) / (4.0 * math.pi ** (n / 2.0))


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_gaussian_time_tail_against_mpmath_incomplete_gamma(n):
    # the floor bound of the time-integral oracle: integral of t^{-n/2}
    # e^{-d^2/4t} over (0, T] is (4/d^2)^s Gamma(s, d^2/4T) with s = n/2 - 1;
    # at T = d^2/282, where the oracle cuts its near-time integral, the
    # integral is ~1e-31 of the scale and an adaptive rule with an absolute
    # tolerance misses it
    s = mpmath.mpf(n) / 2 - 1
    for d in (0.02, 0.3, 1.0, 4.0):
        for T in (d * d / 282.0, d * d / 40.0, d * d, 10.0 * d * d):
            with mpmath.workdps(40):
                d2 = mpmath.mpf(d) ** 2
                exact = (4 / d2) ** s * mpmath.gammainc(s, d2 / (4 * mpmath.mpf(T)))
            assert gaussian_time_tail(n, d, T) == pytest.approx(float(exact), rel=1e-12)
    assert gaussian_time_tail(n, 1.0, 0.0) == 0.0


def test_green_gaussian3_matches_inverse_distance():
    sp = make_space("gaussian", 3)
    gv = green(sp, 0.25)
    x = sp.point([0, 0, 0])
    for r in (0.5, 1.0, 2.0, 4.0):
        val, err, route = gv.evaluate(x, sp.point([r, 0, 0]))
        assert route == "closed_form"
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
        val, err, route = gv.evaluate(pole, y)
        assert route == "dirichlet_mehler"
        assert val == pytest.approx(sphere3_green_oracle(theta), rel=1e-13)
        assert val > 0.0
        # the time integral of the series kernel reaches the same value
        assert time_integral(gv, pole, y)[0] == pytest.approx(sphere3_green_oracle(theta), rel=1e-8)


def test_green_cylinder_finite_positive():
    sp = make_space("cylinder", 3)
    gv = green(sp, 0.25)
    x = sp.point([1, 0, 0], s=0.0)
    y = sp.point([0, 1, 0], s=0.5)
    val, err, _ = gv.evaluate(x, y)
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




# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------


def random_pairs(sp, rng, count, same_line=False):
    """``count`` seeded point pairs; on the cylinder with independent line
    coordinates, so the line offset is never exactly 0, or with one line
    coordinate per pair (``same_line``)."""
    n = sp.n
    for _ in range(count):
        if sp.kind == "gaussian":
            yield sp.point(rng.normal(0.0, 2.0, n)), sp.point(rng.normal(0.0, 2.0, n))
        elif sp.kind == "sphere":
            yield sp.point(rng.normal(size=n + 1)), sp.point(rng.normal(size=n + 1))
        else:
            x = sp.point(rng.normal(size=n), s=float(rng.normal(0.0, 2.0)))
            yield x, sp.point(rng.normal(size=n), s=x.s if same_line else float(rng.normal(0.0, 2.0)))


@pytest.mark.parametrize("a", [0.25, 1.0])
@pytest.mark.parametrize("token,route", [
    ("gaussian:3", "closed_form"),
    ("gaussian:4", "closed_form"),
    ("sphere:3", "dirichlet_mehler"),
    ("sphere:4", "dirichlet_mehler"),
    ("sphere:5", "dirichlet_mehler"),
    ("cylinder:3", "line_resolvent_series"),
    ("cylinder:4", "line_resolvent_series"),
    ("cylinder:3", "k_integral"),
    ("cylinder:4", "k_integral"),
])
def test_exact_routes_match_the_time_integral(token, route, a):
    # each route against the time integral of the same kernel on seeded pairs
    # (cylinder pairs at line offset 0 for the k-integral): the two differ by
    # at most the sum of their estimates, and both estimates are small. On
    # spheres past theta = 1 the time integral is further off than its
    # estimate (by 3.7e-11 against 7.5e-12 at theta = 3 on S^5), so there
    # the route is held to its own estimate of mpmath instead: the S^3 sinh
    # form, or on S^4 and S^5, which take 16 pairs, the general integral
    sp = parse_space(token)
    gv = green(sp, a)
    count = 16 if token in ("sphere:4", "sphere:5") or route == "k_integral" else 100
    exact = 0
    for x, y in random_pairs(sp, np.random.default_rng([sp.n, int(4 * a)]), count,
                             same_line=route == "k_integral"):
        v, err, took = gv.evaluate(x, y)
        if took != route:
            # only a cylinder pair whose line offset is too small for the series
            assert route == "line_resolvent_series" and took == "k_integral"
            assert abs(x.s - y.s) < 0.01
            continue
        exact += 1
        assert err <= 1e-8 * v
        theta = gv.kernel.separation(x, y)
        if sp.kind == "sphere" and theta > 1.0:
            r = sp.sphere_radius
            if sp.n == 3:
                exact_value = s3_green_oracle(theta, a)
            else:
                exact_value = sphere_green_oracle(sp.n, theta, a * sp.sup_R * r * r) * r ** (2 - sp.n)
            assert abs(v - float(exact_value)) <= err
            continue
        q, q_err = time_integral(gv, x, y)
        assert abs(v - q) <= err + q_err
        # the integral's windows each have an absolute tolerance of 1e-12
        assert q_err <= 1e-8 * q + 1e-11
    assert exact >= 0.98 * count


def s3_green_oracle(theta, a):
    """The S^3 sinh form at 40 digits from the binary values of theta and a:
    radius 2, V = 16 pi^2, c^2 = 4 a R - 1 with R = 3/2; a complex c turns
    the sinh ratio into the sine ratio, and c^2 = 0 is its linear limit."""
    with mpmath.workdps(40):
        theta, c2 = mpmath.mpf(theta), 4 * mpmath.mpf(a) * mpmath.mpf(1.5) - 1
        phi = mpmath.pi - theta
        if c2 == 0:
            shape = phi / mpmath.pi
        else:
            c = mpmath.sqrt(mpmath.mpc(c2))
            shape = mpmath.re(mpmath.sinh(c * phi) / mpmath.sinh(c * mpmath.pi))
        return mpmath.pi * 4 * shape / (2 * 16 * mpmath.pi ** 2 * mpmath.sin(theta))


@pytest.mark.parametrize("a", [0.1, 1.0 / 6.0, 0.25])  # c^2 = -0.4, 0, 0.5
def test_s3_sinh_form_within_its_estimate_of_mpmath(a):
    # on S^3 the Dirichlet-Mehler integral is the sinh form, so the closed
    # form at 40 digits is the reference of the route's quadrature; the value
    # is within 1e-14 of it, and the estimate, mostly its rounding term, is
    # at most 1.03e-14 of the value (at a = 0.1, theta = 1e-4)
    kernel = heat_kernel(make_space("sphere", 3), a)
    for theta in (1e-12, 1e-8, 1e-4, 0.3, math.pi / 2, 2.0,
                  math.pi - 1e-4, math.pi - 1e-6, math.pi - 1e-8, math.pi - 1e-12, math.pi):
        v, err, route = kernel.green_at(theta)
        assert route == "dirichlet_mehler"
        assert 0.0 < err <= 1e-13 * v
        assert abs(v - s3_green_oracle(theta, a)) <= min(err, 1e-14 * v)


@pytest.mark.parametrize("n", [2, 4, 5, 12])
def test_dirichlet_mehler_within_its_estimate_of_mpmath(n):
    # both branches of the weight (tau^2 < 0 at a = 0.05, > 0 at 4), small
    # angles, both sides of pi/2, and the antipode and its neighbourhood,
    # where the powers of pi - theta cancel in the route but not in the
    # 40-digit reference
    for a in (0.05, 4.0):
        M = a * n * (n - 1)
        for theta in (1e-4, 1.0, 2.0, math.pi - 1e-6, math.pi):
            v, err = sphere_green(n, theta, M)
            assert 0.0 < err[0] <= 1e-10 * v[0]
            assert abs(v[0] - float(sphere_green_oracle(n, theta, M))) <= err[0]


@pytest.mark.parametrize("a", [0.1, 4.0])
def test_k_integral_within_its_estimate_of_mpmath(a):
    # cylinder:4, whose S^3 factor has the sinh form, by tanh-sinh in k
    kernel = heat_kernel(make_space("cylinder", 4), a)
    for theta, s in ((1e-3, 0.0), (1.0, 0.0), (math.pi - 1e-6, 0.0), (math.pi, 0.0), (0.01, 1e-3)):
        v, err, route = kernel.k_integral(theta, s)
        assert route == "k_integral" and 0.0 < err <= 1e-9 * v
        assert abs(v - float(cylinder_green_oracle(4, a, theta, s))) <= err


def test_each_space_kind_takes_one_route():
    # the closed form on the flat space, the Dirichlet-Mehler integral on
    # every sphere, and on the cylinder the line series where it reaches, the
    # k-integral at line offsets |s| < r theta; at |s| >= r theta below the
    # series' reach nothing does
    for token, point in (("gaussian:3", [1.0, 0, 0]), ("sphere:4", [0, 1.0, 0, 0, 0])):
        sp = parse_space(token)
        assert green(sp, 0.25).evaluate(sp.pole(), sp.point(point))[2] == \
            {"gaussian": "closed_form", "sphere": "dirichlet_mehler"}[sp.kind]
    cyl = heat_kernel(make_space("cylinder", 3), 0.25)
    assert cyl.green_at((1.0, 0.0))[2] == "k_integral"
    assert cyl.green_at((1.0, 1e-3))[2] == "k_integral"  # past L_MAX levels of the series
    assert cyl.green_at((1.0, 0.1))[2] == "line_resolvent_series"
    assert cyl.green_at((0.0, 0.1))[2] == "line_resolvent_series"
    assert cyl.green_at((1e-3, 1e-3))[2] == "k_integral"  # r theta = 1.4e-3
    with pytest.raises(SeriesTruncationError, match="d=0.001"):
        cyl.green_at((0.0, 1e-3))
    with pytest.raises(SeriesTruncationError, match=r"d=0\.0040025 "):
        cyl.green_at((1e-4, 4e-3))


@pytest.mark.parametrize("n", [3, 4])
def test_cylinder_green_evaluates_every_pair_but_those_near_the_line_below_the_series_reach(n):
    # a grid of angles and line offsets at a = 0.25. The line series reaches
    # from |s| = 0.0064 on cylinder:3 and 0.0100 on cylinder:4; below it, a
    # pair with |s| < r theta takes the k-integral, and the rest, near the
    # line theta = 0 (d < 0.015), name their distance, as they did when the
    # time integral served (it fails below d ~ 0.02). Every value is within
    # 1e-6 of itself (the k-integral at theta ~ |s| ~ 1e-3 carries 1.5e-7),
    # and where the line series reaches at |s| < r theta, the k-integral
    # agrees with it within the sum of their estimates
    cyl = heat_kernel(make_space("cylinder", n), 0.25)
    r = cyl.sphere.space.sphere_radius
    for theta in (0.0, 1e-4, 1e-3, 0.01, 0.1, 1.0, 3.0, math.pi):
        for s in (0.0, 1e-3, 4e-3, 0.01, 0.1, 1.0, 4.0):
            if theta == s == 0.0:
                continue
            if s < 0.01 and s >= r * theta:
                with pytest.raises(SeriesTruncationError, match="d="):
                    cyl.green_at((theta, s))
                continue
            v, err, route = cyl.green_at((theta, s))
            assert route == ("k_integral" if s < 0.01 else "line_resolvent_series")
            assert math.isfinite(v) and v > 0.0 and err <= 1e-6 * v
            if route == "line_resolvent_series" and s <= 0.1 and s < r * theta:
                q, q_err, _ = cyl.k_integral(theta, s)
                assert abs(v - q) <= err + q_err
