import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab.exceptions import DimensionError, KindMismatchError
from solitonlab.kernels import heat_kernel
from solitonlab.spaces import (
    Point,
    ball_volume,
    check_soliton_identities,
    distance,
    make_space,
    parse_space,
    sphere_area,
)

ALL_TOKENS = ["gaussian:1", "gaussian:2", "gaussian:3", "sphere:2", "sphere:3",
              "sphere:5", "cylinder:3", "cylinder:4"]


def test_make_space_gaussian():
    sp = make_space("gaussian", 3)
    p = sp.point([1.0, -2.0, 0.5])
    assert sp.scalar_curvature(p) == 0.0
    assert sp.f(p) == pytest.approx((1 + 4 + 0.25) / 4.0, abs=0)
    assert sp.volume == math.inf


def test_make_space_sphere2():
    sp = make_space("sphere", 2)
    assert sp.sphere_radius == pytest.approx(math.sqrt(2.0))
    p = sp.point([0.3, -0.4, 1.0])
    assert sp.scalar_curvature(p) == pytest.approx(1.0)
    assert sp.f(p) == pytest.approx(1.0)
    # V = 4 pi r^2 with r^2 = 2
    assert sp.volume == pytest.approx(8.0 * math.pi, rel=1e-14)


def test_degenerate_cylinder_rejected():
    with pytest.raises(DimensionError):
        make_space("cylinder", 2)
    with pytest.raises(DimensionError):
        make_space("sphere", 1)
    with pytest.raises(DimensionError):
        make_space("gaussian", 0)


def test_sphere_whose_volume_overflows_is_a_dimension_error():
    make_space("sphere", 231)
    with pytest.raises(DimensionError):
        make_space("sphere", 232)


def test_parse_space_round_trip():
    for tok in ALL_TOKENS:
        assert parse_space(tok).token == tok
    with pytest.raises(KindMismatchError):
        parse_space("torus:2")
    with pytest.raises(ValueError):
        parse_space("sphere")


def test_distance_examples():
    sp = make_space("gaussian", 3)
    assert distance(sp, sp.point([0, 0, 0]), sp.point([3, 4, 0])) == pytest.approx(5.0, abs=0)

    s2 = make_space("sphere", 2)
    antipodal = distance(s2, s2.point([0, 0, 1]), s2.point([0, 0, -1]))
    assert antipodal == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-15)

    for tok in ALL_TOKENS:
        sp = parse_space(tok)
        p = sp.random_point(np.random.default_rng(0))
        assert distance(sp, p, p) == 0.0


@pytest.mark.parametrize("token", ["sphere:3", "cylinder:3"])
@pytest.mark.parametrize("theta", [1e-6, 1e-4, math.pi - 1e-6])
def test_angles_keep_full_precision_near_both_poles(token, theta):
    # acos of the dot product would lose about eps / theta^2 relative here
    sp = parse_space(token)
    coords = np.zeros(sp.pole().vector.size)
    coords[:2] = math.cos(theta), math.sin(theta)
    x, y = sp.pole(), sp.point(coords, s=0.0 if sp.kind == "cylinder" else None)
    eps = np.finfo(float).eps
    assert abs(sp.distance(x, y) / sp.sphere_radius - theta) <= 4 * eps * theta
    sep = heat_kernel(sp, 0.25).separation(x, y)
    angle = sep[0] if sp.kind == "cylinder" else sep
    assert abs(angle - theta) <= 4 * eps * theta
    assert sp.distance(y, y) == 0.0


def test_distance_kind_mismatch():
    g = make_space("gaussian", 3)
    s = make_space("sphere", 2)
    with pytest.raises(KindMismatchError):
        g.distance(g.pole(), s.pole())


def test_point_unit_norm_validation():
    with pytest.raises(ValueError):
        Point("sphere", np.array([1.0, 1.0, 0.0]))  # norm sqrt(2)
    with pytest.raises(ValueError):
        Point("cylinder", np.array([1.0, 0.0]))  # missing line coordinate
    # constructors normalize for you
    sp = make_space("sphere", 2)
    p = sp.point([2.0, 0.0, 0.0])
    assert np.linalg.norm(p.vector) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("tok,count", [("gaussian:3", 100), ("cylinder:3", 100), ("sphere:5", 10)])
def test_soliton_identities(tok, count):
    rep = check_soliton_identities(parse_space(tok), count, seed=7)
    assert rep.max_potential_defect <= 1e-10
    assert rep.max_trace_defect <= 1e-10


def test_identity_sample_count_validation():
    with pytest.raises(ValueError):
        check_soliton_identities(make_space("gaussian", 2), 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(ALL_TOKENS))
def test_triangle_inequality(seed, tok):
    sp = parse_space(tok)
    rng = np.random.default_rng(seed)
    x, y, z = (sp.random_point(rng) for _ in range(3))
    assert sp.distance(x, y) <= sp.distance(x, z) + sp.distance(z, y) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(ALL_TOKENS))
def test_distance_symmetry(seed, tok):
    sp = parse_space(tok)
    rng = np.random.default_rng(seed)
    x, y = sp.random_point(rng), sp.random_point(rng)
    assert sp.distance(x, y) == pytest.approx(sp.distance(y, x), abs=1e-14)


def test_scalar_curvature_bounds():
    # nonnegative everywhere, with the documented suprema
    expected = {"gaussian:3": 0.0, "sphere:2": 1.0, "sphere:3": 1.5,
                "cylinder:3": 1.0, "cylinder:4": 1.5}
    rng = np.random.default_rng(1)
    for tok, sup in expected.items():
        sp = parse_space(tok)
        assert sp.sup_R == pytest.approx(sup)
        for _ in range(10):
            r = sp.scalar_curvature(sp.random_point(rng))
            assert 0.0 <= r <= sup + 1e-15


def test_geodesic_ball_volume():
    g3 = make_space("gaussian", 3)
    assert g3.geodesic_ball_volume(2.0) == pytest.approx(ball_volume(3, 2.0), rel=1e-14)
    s3 = make_space("sphere", 3)
    # saturates at the total volume once the ball covers the sphere
    assert s3.geodesic_ball_volume(100.0) == pytest.approx(s3.volume, rel=1e-5)
    # hemisphere is half the total
    r = s3.sphere_radius
    assert s3.geodesic_ball_volume(math.pi * r / 2.0) == pytest.approx(s3.volume / 2, rel=1e-5)
    c3 = make_space("cylinder", 3)
    v1 = c3.geodesic_ball_volume(1.0)
    # small balls are nearly Euclidean
    assert v1 == pytest.approx(ball_volume(3, 1.0), rel=0.05)


@pytest.mark.parametrize("token", ["cylinder:3", "cylinder:4"])
def test_cylinder_ball_volume_against_mpmath_slices(token):
    # V(t) = integral over |s| <= t of the sphere factor's cap volume at
    # radius sqrt(t^2 - s^2), saturating at the whole factor past pi r
    mpmath = pytest.importorskip("mpmath")
    sp = parse_space(token)
    k = sp.n - 2
    with mpmath.workdps(30):
        r = mpmath.sqrt(2 * (sp.n - 2))
        area = 2 * mpmath.pi ** (mpmath.mpf(k + 1) / 2) / mpmath.gamma(mpmath.mpf(k + 1) / 2)

        def cap(rho):  # the integral of sin^k over [0, top] in closed form
            top = min(rho / r, mpmath.pi)
            sin_k = 1 - mpmath.cos(top) if k == 1 else top / 2 - mpmath.sin(2 * top) / 4
            return area * r ** (k + 1) * sin_k

        for t in (0.5, 3.0, 10.0, 1e3):
            T = mpmath.mpf(t)
            ends = [-T, T]
            if T > mpmath.pi * r:
                s0 = mpmath.sqrt(T * T - (mpmath.pi * r) ** 2)
                ends = [-T, -s0, s0, T]
            exact = mpmath.quad(lambda s: cap(mpmath.sqrt(max(T * T - s * s, 0))), ends)
            assert sp.geodesic_ball_volume(t) == pytest.approx(float(exact), rel=1e-12)


def test_sphere_area_values():
    assert sphere_area(1, 1.0) == pytest.approx(2 * math.pi)
    assert sphere_area(2, 2.0) == pytest.approx(16 * math.pi)
    assert sphere_area(0) == 2.0
