import importlib.util
import math
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_gegenbauer, eval_legendre

from solitonlab.exceptions import (
    DimensionError,
    KindMismatchError,
    SeriesTruncationError,
    TimeDomainError,
)
from solitonlab.kernels import (
    EPS,
    L_MAX,
    CylinderHeatKernel,
    DirichletRadialHeatKernel,
    EuclideanHeatKernel,
    SphereHeatKernel,
    heat_kernel,
    zonal_values,
)
from solitonlab.spaces import Point, make_space, parse_space, sphere_area
from solitonlab.spectral import discretize_radial, sphere_multiplicity

ORACLES = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def test_euclidean_diagonal_value():
    # on-diagonal value is (4 pi t)^{-n/2} exactly (= 0.0224484... at n=3, t=1)
    ek = EuclideanHeatKernel(make_space("gaussian", 3))
    p = ek.space.point([0.0, 0.0, 0.0])
    assert ek(p, p, 1.0) == pytest.approx((4.0 * math.pi) ** -1.5, rel=1e-15)
    assert ek(p, p, 1.0) == pytest.approx(0.0224484, abs=5e-7)


def test_euclidean_offdiagonal_value():
    ek = EuclideanHeatKernel(make_space("gaussian", 1))
    x, y = ek.space.point([0.0]), ek.space.point([2.0])
    assert ek(x, y, 1.0) == pytest.approx((4.0 * math.pi) ** -0.5 * math.exp(-1.0), rel=1e-15)
    assert ek(x, y, 1.0) == pytest.approx(0.103777, abs=5e-7)


def test_euclidean_error_estimate_covers_decimal_closed_form():
    # 50-digit oracle of (4 pi t)^{-3/2} exp(-d^2/(4t)) at the evaluated
    # distance; underflowed values carry no meaningful relative estimate
    sp = make_space("gaussian", 3)
    ek = heat_kernel(sp, 0.25)
    rng = np.random.default_rng(1)
    pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
    checked = 0
    with localcontext() as ctx:
        ctx.prec = 50
        for _ in range(3000):
            x, y = sp.random_point(rng), sp.random_point(rng)
            t = float(10.0 ** rng.uniform(-3.0, 2.0))
            v, err = ek.evaluate(x, y, t)
            if v < sys.float_info.min:
                continue
            d, T = Decimal(float(sp.distance(x, y))), Decimal(t)
            scale = 4 * pi * T
            exact = (-(d * d) / (4 * T)).exp() / (scale * scale.sqrt())
            assert abs(Decimal(v) - exact) <= Decimal(err), (float(d), t)
            checked += 1
    assert checked >= 1000


@pytest.mark.parametrize("n", [1, 3])
def test_euclidean_error_estimate_covers_subnormal_values(n):
    # where exp(-d^2/4t) is subnormal only its last place is certain; the
    # cylinder's line factor lands there at s = 2, t = 1.34e-3
    ek = EuclideanHeatKernel(make_space("gaussian", n))
    pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
    t = 1e-3
    with localcontext() as ctx:
        ctx.prec = 50
        for r in np.sqrt(4.0 * t * np.linspace(708.5, 744.0, 300)).tolist():
            v, err = ek.at(r, t)
            assert v > 0.0
            exact = (-(Decimal(r) ** 2) / (4 * Decimal(t))).exp() \
                * (4 * pi * Decimal(t)) ** Decimal(-n / 2)
            assert abs(Decimal(v) - exact) <= Decimal(err), r


def test_euclidean_mass_one():
    # quadrature oracle: integral over R^n of the kernel is one
    for n in (1, 2, 3):
        ek = EuclideanHeatKernel(make_space("gaussian", n))
        t = 0.7
        val, _ = quad(lambda r: sphere_area(n - 1) * r ** (n - 1)
                      * ek.value_at_distance(r, t), 0.0, 40.0)
        assert val == pytest.approx(1.0, abs=1e-12)


def test_euclidean_rejects_bad_time():
    ek = EuclideanHeatKernel(make_space("gaussian", 2))
    p = ek.space.point([0.0, 0.0])
    with pytest.raises(TimeDomainError):
        ek(p, p, 0.0)
    with pytest.raises(TimeDomainError):
        ek(p, p, -1.0)


# ---------------------------------------------------------------------------
# zonal harmonics
# ---------------------------------------------------------------------------


def test_zonal_matches_legendre_on_s2():
    u = np.linspace(-1.0, 1.0, 41)
    Z = zonal_values(2, 30, u)
    for l in (0, 1, 5, 17, 30):
        np.testing.assert_allclose(Z[l], eval_legendre(l, u), atol=1e-13)


@pytest.mark.parametrize("l_max", [0, 1, 247, 2000, 8000])
def test_s2_zonal_values_against_mpmath_legendre(l_max):
    # the compiled Legendre recurrence against mpmath's hypergeometric P_l, at
    # the level counts of t = 1e-3 (247) and of the Green integral (to 8000);
    # near u = +-1 its rounding grows like l^{3/2} eps, a fifth of which is
    # the worst seen
    points = [-1.0, -0.999999, 0.0, 0.3, 0.999999, 1.0]
    u = np.array(points)
    Z = zonal_values(2, l_max, u)
    assert Z.shape == (l_max + 1, 6)
    levels = sorted({0, min(1, l_max), min(2, l_max), l_max // 3, l_max // 2,
                     max(l_max - 1, 0), l_max}
                    | set(np.random.default_rng(l_max).integers(0, l_max + 1, 8).tolist()))
    with mpmath.workdps(30):
        for l in levels:
            for j, x in enumerate(points):
                exact = float(mpmath.legendre(l, mpmath.mpf(x)))
                assert abs(Z[l, j] - exact) <= EPS * (l + 1) ** 1.5, (l, x)
    # 0-d and 2-d points give the same levels in their own shapes
    for j, x in enumerate(points):
        scalar = zonal_values(2, l_max, x)
        assert scalar.shape == (l_max + 1,)
        assert np.array_equal(scalar, Z[:, j])
    grid = zonal_values(2, l_max, u.reshape(2, 3))
    assert grid.shape == (l_max + 1, 2, 3)
    assert np.array_equal(grid.reshape(l_max + 1, 6), Z)


def s2_legendre_kernel(r2, V, aR, ct, t):
    """mpmath sum of e^{-aRt} (2l+1) e^{-l(l+1)t/r^2} P_l(cos theta) / V, to
    terms below 1e-40 of the first."""
    with mpmath.workdps(40):
        ct, t = mpmath.mpf(ct), mpmath.mpf(t)
        acc, l = mpmath.mpf(0), 0
        while True:
            weight = (2 * l + 1) * mpmath.exp(-l * (l + 1) * t / r2)
            acc += weight * mpmath.legendre(l, ct)
            if l > 2 and weight < mpmath.mpf(10) ** -40:
                return mpmath.exp(-aR * t) * acc / V
            l += 1


@pytest.mark.parametrize("token", ["sphere:2", "cylinder:3"])
def test_s2_series_values_within_their_estimates_of_an_mpmath_legendre_sum(token):
    sp = parse_space(token)
    ev = heat_kernel(sp, 0.25)
    sphere = ev if sp.kind == "sphere" else ev.sphere
    r2, V = sphere.space.sphere_radius ** 2, sphere.space.volume
    aR = mpmath.mpf(0.25) * sp.sup_R
    offsets = (0.0,) if sp.kind == "sphere" else (0.0, 0.5, 2.0)
    for t in (1e-3, 1e-2, 1.0):
        for theta in (0.0, 1e-4, 0.3, math.pi / 2, 2.5, math.pi - 1e-4, math.pi):
            factor = s2_legendre_kernel(r2, V, aR, math.cos(theta), t)
            for s in offsets:
                sep = theta if sp.kind == "sphere" else (theta, s)
                v, err = ev.at(sep, t)
                with mpmath.workdps(40):  # the line factor on the cylinder
                    exact = factor if sp.kind == "sphere" else factor * mpmath.exp(
                        -mpmath.mpf(s) ** 2 / (4 * t)) / mpmath.sqrt(4 * mpmath.pi * t)
                assert abs(v - float(exact)) <= err + sys.float_info.min, (theta, s, t)


def test_zonal_matches_gegenbauer_on_s4():
    u = np.linspace(-1.0, 1.0, 21)
    Z = zonal_values(4, 20, u)
    alpha = 1.5
    for l in (1, 4, 12, 20):
        ref = eval_gegenbauer(l, alpha, u) / eval_gegenbauer(l, alpha, 1.0)
        np.testing.assert_allclose(Z[l], ref, atol=1e-12)


def test_zonal_closed_form_on_s3():
    theta = np.array([1e-9, 0.3, math.pi / 2, math.pi - 1e-9, math.pi])
    Z = zonal_values(3, 12, np.cos(theta))
    for l in (0, 1, 7, 12):
        ref = eval_gegenbauer(l, 1.0, np.cos(theta)) / eval_gegenbauer(l, 1.0, 1.0)
        np.testing.assert_allclose(Z[l], ref, atol=1e-7)
    # exact endpoint limits
    assert Z[7][-1] == pytest.approx((-1.0) ** 7)
    assert Z[7][0] == pytest.approx(1.0)


def test_s3_series_within_its_estimate_near_both_poles():
    # sin((l+1) theta) / ((l+1) sin theta) cancels near the antipode; the
    # reflection Z_l(theta) = (-1)^l Z_l(pi - theta) keeps the series inside
    # its error estimate there, against the mpmath image sum
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    ker = SphereHeatKernel(3, 0.25)
    pole = ker.space.pole()
    for phi in np.geomspace(1e-9, 1.0, 10):
        for rho in (phi, math.pi - phi):
            y = ker.space.point_at_distance(ker.space.sphere_radius * rho)
            theta = ker.separation(pole, y)
            for t in (1e-3, 1e-2, 0.1, 1.0):
                v, err = ker.evaluate(pole, y, t)
                exact = float(oracles.sphere3_kernel(ker.space.sphere_radius * theta, t, ker.a))
                assert abs(v - exact) <= err, (rho, t, v, exact, err)


# ---------------------------------------------------------------------------
# sphere series
# ---------------------------------------------------------------------------


def legendre_sum_oracle(ct, t, a, lmax=80):
    V = 8.0 * math.pi
    tot = sum((2 * l + 1) * math.exp(-(l * (l + 1) / 2.0) * t) * eval_legendre(l, ct)
              for l in range(lmax))
    return math.exp(-a * t) * tot / V


def test_sphere_series_vs_direct_summation():
    sk = SphereHeatKernel(2, 0.25)
    for theta in (0.0, 0.4, 1.3, math.pi):
        for t in (0.5, 1.0, 3.0):
            v, err = sk.at(theta, t)
            assert v == pytest.approx(legendre_sum_oracle(math.cos(theta), t, 0.25),
                                      abs=1e-10)


def test_sphere_series_long_time_projects_onto_constants():
    sk = SphereHeatKernel(2, 0.0)
    v, _ = sk.at(2.0, 80.0)
    assert v == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-12)


def test_sphere_series_mass():
    # stochastic completeness of the closed manifold: mass is exactly one at a=0
    sk = SphereHeatKernel(2, 0.0)
    u, w = np.polynomial.legendre.leggauss(200)
    th = (u + 1) * math.pi / 2
    ww = w * math.pi / 2
    vals, _ = sk.profile(np.cos(th), 1.0)
    mass = float(np.sum(ww * 2 * math.pi * 2.0 * np.sin(th) * vals))
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_sphere_series_time_gate_and_cap():
    sk = SphereHeatKernel(2, 0.25)
    p = sk.space.point([0, 0, 1.0])
    with pytest.raises(TimeDomainError):
        sk(p, p, 1e-4)
    # at t = 1e-9 the S^2 series needs about 2.7e5 levels, past the cap
    with pytest.raises(SeriesTruncationError):
        sk.at(0.3, 1e-9)


def test_sphere_series_whose_multiplicities_overflow_is_a_dimension_error():
    # the level table's multiplicities pass the largest float from S^120 on
    with pytest.raises(DimensionError):
        SphereHeatKernel(120, 0.25)


def test_sphere_series_symmetry():
    sk = SphereHeatKernel(3, 0.25)
    rng = np.random.default_rng(2)
    x, y = sk.space.random_point(rng), sk.space.random_point(rng)
    assert abs(sk(x, y, 0.4) - sk(y, x, 0.4)) <= 1e-14


def _antipode(p):
    """The point reflected through the origin of each factor (the line
    coordinate too): at the antipode on a sphere."""
    return Point(p.kind, -p.vector, s=None if p.s is None else -p.s)


@pytest.mark.parametrize("kernel", [
    lambda: EuclideanHeatKernel(make_space("gaussian", 1), 0.25),
    lambda: EuclideanHeatKernel(make_space("gaussian", 3), 0.25),
    *(lambda n=n: SphereHeatKernel(n, 0.25) for n in (2, 3, 4, 5)),
    *(lambda n=n: CylinderHeatKernel(n, 0.25) for n in (3, 4)),
], ids=["gaussian:1", "gaussian:3", "sphere:2", "sphere:3", "sphere:4", "sphere:5",
        "cylinder:3", "cylinder:4"])
def test_two_point_kernels_are_symmetric_bit_for_bit(kernel):
    # the kernel is a function of the separation, which is symmetric to the
    # last bit, so symmetry needs no tolerance and no report row
    k = kernel()
    rng = np.random.default_rng(11)
    points = [k.space.random_point(rng) for _ in range(6)]
    pairs = list(zip(points[::2], points[1::2]))
    pairs += [(p, p) for p in points[:2]] + [(p, _antipode(p)) for p in points[:3]]
    for x, y in pairs:
        for t in (1e-3, 0.05, 1.0, 50.0):
            assert k.evaluate(x, y, t) == k.evaluate(y, x, t)


def laplace_series_loop(sk, u, t):
    """Reference for ``SphereHeatKernel._laplace_series``: the per-level loops
    it replaced (term bounds, series sum, tail), one level at a time."""
    u = np.asarray(u, dtype=float)
    n, V, r2 = sk.n, sk.space.volume, sk.space.sphere_radius ** 2
    cutoff = None
    bounds = []
    for l in range(L_MAX + 1):
        lam = l * (l + n - 1) / r2
        b = sphere_multiplicity(n, l) * math.exp(-min(lam * t, 745.0)) / V
        bounds.append(b)
        if l >= 1 and b < sk.eps and b < bounds[-2]:
            cutoff = l
            break
    if cutoff is None:
        raise SeriesTruncationError(f"no cutoff below L_MAX={L_MAX} at t={t}")
    Z = zonal_values(n, cutoff, u)
    acc = np.zeros_like(u, dtype=float)
    for l in range(cutoff + 1):
        w = l * (l + n - 1) / r2 * t
        if w > 745.0:
            break
        acc += (sphere_multiplicity(n, l) * math.exp(-w) / V) * Z[l]
    tail = 0.0
    l = cutoff + 1
    while l <= L_MAX + 10000:
        w = l * (l + n - 1) / r2 * t
        if w > 745.0:
            break
        b = sphere_multiplicity(n, l) * math.exp(-w) / V
        tail += b
        if b < 1e-4 * max(tail, sk.eps):
            break
        l += 1
    return acc, tail, cutoff


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_laplace_series_equals_level_loop(n):
    # times down to those the Green's function integrates; cos-angles include
    # both poles, where the S^3 closed form switches to its limits
    sk = SphereHeatKernel(n, 0.25, t_min=0.0)
    rng = np.random.default_rng(n)
    u = np.concatenate([[1.0, -1.0, 0.0], np.cos(rng.uniform(0.0, math.pi, 12)),
                        np.cos(rng.uniform(0.0, 1e-4, 3))])
    compared = 0
    for t in np.geomspace(5e-6, 1e2, 60):
        t = float(t)
        try:
            ref = laplace_series_loop(sk, u, t)
        except SeriesTruncationError:
            with pytest.raises(SeriesTruncationError):
                sk._laplace_series(u, t)
            continue
        vals, tail, cutoff = sk._laplace_series(u, t)
        assert np.array_equal(vals, ref[0])
        assert (tail, cutoff) == ref[1:]
        for j in (0, 1, 2, 7):
            scalar = sk._laplace_series(u[j], t)
            assert scalar[0].shape == ()
            assert (scalar[0], scalar[1], scalar[2]) == (vals[j], tail, cutoff)
        compared += 1
    assert compared >= 55


@pytest.mark.parametrize("n,t", [(2, 1e-3), (3, 2e-4)])
def test_laplace_series_point_blocks(n, t):
    # more points than one block of the series sum equal one zonal_values call
    sk = SphereHeatKernel(n, 0.25, t_min=0.0)
    u = np.cos(np.random.default_rng(5).uniform(0.0, math.pi, (40, 60)))
    vals, tail, cutoff = sk._laplace_series(u, t)
    assert (cutoff + 1) * u.size > 2 ** 16
    ref = laplace_series_loop(sk, u, t)
    assert vals.shape == u.shape
    assert np.array_equal(vals, ref[0])
    assert (tail, cutoff) == ref[1:]


# ---------------------------------------------------------------------------
# cylinder kernel
# ---------------------------------------------------------------------------


def test_cylinder_mass_one_without_coupling():
    ck = CylinderHeatKernel(3, 0.0)
    sp = ck.space
    x = sp.point([1.0, 0.0, 0.0], s=0.0)
    t = 0.8
    u, w = np.polynomial.legendre.leggauss(200)
    th = (u + 1) * math.pi / 2
    ww = w * math.pi / 2
    svals, _ = ck.sphere.profile(np.cos(th), t)
    smass = float(np.sum(ww * 2 * math.pi * 2.0 * np.sin(th) * svals))
    line, _ = quad(lambda z: (4 * math.pi * t) ** -0.5 * math.exp(-z * z / (4 * t)),
                   -30, 30)
    assert smass * line == pytest.approx(1.0, abs=1e-10)


def test_cylinder_large_time_factor_limit():
    ck = CylinderHeatKernel(3, 0.25)
    sp = ck.space
    x = sp.point([1.0, 0.0, 0.0], s=0.0)
    t = 50.0
    expected = math.exp(-t / 4.0) / (8.0 * math.pi) * (4.0 * math.pi * t) ** -0.5
    assert ck(x, x, t) == pytest.approx(expected, rel=1e-10)


def test_cylinder_symmetry_exact():
    ck = CylinderHeatKernel(3, 0.25)
    sp = ck.space
    rng = np.random.default_rng(4)
    x, y = sp.random_point(rng), sp.random_point(rng)
    assert ck(x, y, 0.6) == ck(y, x, 0.6)


def test_cylinder_needs_n3():
    with pytest.raises(Exception):
        CylinderHeatKernel(2, 0.25)


def test_cylinder_error_estimate_covers_arbitrary_precision_product():
    # the oracle restates S^2 x R apart from the package: the model 2-sphere's
    # Legendre series in fixed point times the line kernel and e^{-a R t};
    # the product rule e1 v2 + v1 e2 must cover every difference
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    sp = make_space("cylinder", 3)
    kernels = [CylinderHeatKernel(3, a) for a in (0.0, 0.25)]
    rng = np.random.default_rng(12)
    for _ in range(200):
        x, y = sp.random_point(rng), sp.random_point(rng)
        t = float(10.0 ** rng.uniform(-3.0, 2.0))
        theta = math.acos(min(1.0, max(-1.0, float(np.dot(x.vector, y.vector)))))
        for ck in kernels:
            v, err = ck.evaluate(x, y, t)
            exact = float(oracles.cylinder3_kernel(theta, x.s - y.s, t, ck.a))
            assert abs(v - exact) <= err + sys.float_info.min, (theta, x.s - y.s, t, ck.a)


# ---------------------------------------------------------------------------
# Dirichlet finite differences
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fd3():
    op = discretize_radial(make_space("gaussian", 3), 20.0, 1024)
    return DirichletRadialHeatKernel(op, 1e-3, r_accuracy=4.5)


def test_fd_matches_closed_form(fd3):
    for t in (0.1, 0.5, 1.0):
        for r in (0.0, 1.0, 2.0, 4.0):
            v, err = fd3.evaluate(r, t)
            exact = (4 * math.pi * t) ** -1.5 * math.exp(-r * r / (4 * t))
            assert v == pytest.approx(exact, rel=1e-3)


def test_fd_mass_bounded_by_one(fd3):
    assert fd3.mass(1.0) <= 1.0 + 1e-3


def test_fd_below_free_kernel(fd3):
    # Dirichlet truncation can only lose heat relative to the whole space;
    # compared inside the region this grid's error budget certifies
    t = 0.5
    u = fd3.profile(t)
    r = np.arange(fd3.m + 1) * fd3.h
    exact = (4 * math.pi * t) ** -1.5 * np.exp(-r * r / (4 * t))
    certified = np.array([fd3._error_estimate(exact[i], r[i], t) <= 1e-3 * exact[i]
                          for i in range(len(r))])
    sel = (exact > 1e-200) & certified
    assert sel.sum() > 200
    assert np.all(u[sel] <= exact[sel] * (1.0 + 1e-3))


def test_fd_time_domain_errors(fd3):
    with pytest.raises(TimeDomainError):
        fd3.evaluate(1.0, 1e-4)
    with pytest.raises(ValueError):
        fd3.evaluate(25.0, 0.5)  # outside the truncated ball


def test_fd_far_value_is_uncertified_not_an_overflow():
    # far from the source the error model's exponent passes the float range;
    # t is kept near t0, since the step rule marches at dt = 1e-7 here
    op = discretize_radial(make_space("gaussian", 3), 20.0, 1024)
    v, err = DirichletRadialHeatKernel(op, 1e-3, r_accuracy=4.5).evaluate(15.0, 1.2e-3)
    assert math.isfinite(v) and err == math.inf


def test_fd_requires_gaussian_space():
    class FakeOp:
        space = make_space("sphere", 2)
    with pytest.raises(KindMismatchError):
        DirichletRadialHeatKernel(FakeOp(), 1e-3)


@pytest.mark.parametrize("n,rm,m", [(1, 16.0, 512), (3, 20.0, 1024)])
def test_fd_error_estimate_covers_actual_error(n, rm, m):
    op = discretize_radial(make_space("gaussian", n), rm, m)
    k = DirichletRadialHeatKernel(op, 1e-3, r_accuracy=4.5)
    for t in (0.1, 0.5, 1.0):
        for r in (0.0, 1.0, 2.0, 4.0):
            v, err = k.evaluate(r, t)
            exact = (4 * math.pi * t) ** (-n / 2) * math.exp(-r * r / (4 * t))
            assert abs(v - exact) <= 3.0 * err + 1e-300


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------


def test_heat_kernel_factory_dispatch():
    assert heat_kernel(make_space("gaussian", 2), 0.25).method == "closed_form"
    assert heat_kernel(make_space("sphere", 2), 0.25).method == "spectral_series"
    assert isinstance(heat_kernel(make_space("cylinder", 3), 0.25), CylinderHeatKernel)
    fd = heat_kernel(make_space("gaussian", 3), 0.0, method="fd_dirichlet",
                     R_max=10.0, m=64, t0=1e-2)
    assert fd.method == "fd_dirichlet"
    with pytest.raises(KindMismatchError):
        heat_kernel(make_space("sphere", 2), 0.25, method="closed_form")
    with pytest.raises(KindMismatchError):
        heat_kernel(make_space("gaussian", 2), 0.25, method="spectral_series")
    with pytest.raises(ValueError):
        heat_kernel(make_space("gaussian", 2), 0.25, method="magic")


# ---------------------------------------------------------------------------
# evaluator quadratures: mass, semigroup identity, weighted L2 integral
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("token", ["gaussian:3", "sphere:2", "sphere:3", "cylinder:3"])
def test_evaluator_quadrature_methods(token):
    sp = parse_space(token)
    a = 0.25
    ev = heat_kernel(sp, a)
    x, y = sp.pole(), sp.point_at_distance(1.0)
    for t in (0.05, 1.0):
        # constant curvature: the mass decays exactly at the rate a R
        assert ev.mass(t) == pytest.approx(math.exp(-a * sp.sup_R * t), abs=1e-12)
    for t in (0.05, 0.3):
        assert ev.semigroup_defect(x, y, t, t / 2) < 1e-9
    if sp.kind == "gaussian":
        for t, D in ((0.05, 2.5), (1.0, 10.0)):
            exact = (8.0 * math.pi * t) ** -1.5 * (D / (D - 2.0)) ** 1.5
            assert ev.weighted_l2(t, D) == pytest.approx(exact, rel=1e-10)


# ---------------------------------------------------------------------------
# separation x time tables against the scalar evaluator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("token", ["gaussian:3", "sphere:2", "sphere:3", "cylinder:3"])
def test_table_equals_scalar_evaluate(token):
    # the table over the separations of seeded random point pairs equals
    # evaluate at those pairs in every cell
    from solitonlab.verify import time_grid

    sp = parse_space(token)
    ev = heat_kernel(sp, 0.25)
    rng = np.random.default_rng(7)
    pairs = [(sp.random_point(rng), sp.random_point(rng)) for _ in range(11)]
    pairs.insert(0, (pairs[0][0], pairs[0][0]))  # and one diagonal pair
    seps = [ev.separation(x, y) for x, y in pairs]
    ts = np.append(time_grid(15), ev.t_min or 1e-3)
    h, err = ev.table(seps, ts)
    assert h.shape == err.shape == (12, 16)
    for k, (x, y) in enumerate(pairs):
        for m, t in enumerate(ts):
            assert (h[k, m], err[k, m]) == ev.evaluate(x, y, float(t))
    if sp.kind != "gaussian":
        with pytest.raises(TimeDomainError):
            ev.evaluate(*pairs[1], 0.5 * ev.t_min)
        with pytest.raises(TimeDomainError):
            ev.table(seps, [1.0, 0.5 * ev.t_min])
    if sp.kind == "cylinder":
        wrong = make_space("cylinder", 4).pole()
        with pytest.raises(KindMismatchError):
            ev.evaluate(pairs[0][0], wrong, 1.0)
