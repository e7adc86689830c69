import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab.exceptions import KindMismatchError
from solitonlab.kernels import SphereHeatKernel
from solitonlab.spaces import make_space
from solitonlab.spectral import (
    DiscretizedOperator,
    Spectrum,
    counting_function,
    discretize_radial,
    eigen_solve,
    partition_function,
    sphere_eigenvalue,
    sphere_multiplicity,
    sphere_spectrum,
    weyl_constant,
)


def harmonic_dim_oracle(n, l):
    """dim of degree-l harmonics on S^n: C(n+l, l) - C(n+l-2, l-2)."""
    if l == 0:
        return 1
    if l == 1:
        return math.comb(n + 1, 1)
    return math.comb(n + l, l) - math.comb(n + l - 2, l - 2)


def test_sphere_multiplicities_vs_oracle():
    # exact integers: a rounded float product is off by one at high levels
    for n in range(2, 9):
        for l in range(5001):
            assert sphere_multiplicity(n, l) == harmonic_dim_oracle(n, l)


def test_sphere_spectrum_examples():
    s = sphere_spectrum(2, 0.25, 2)
    np.testing.assert_allclose(s.values, [0.25] + [1.25] * 3 + [3.25] * 5, rtol=1e-14)

    assert sphere_spectrum(2, 0.0, 0).values[0] == 0.0  # constant eigenfunction

    s3 = sphere_spectrum(3, 0.25, 1)
    l1 = [lv for lv in s3.levels if lv[0] == 1][0]
    assert l1[1] == pytest.approx(1.125, abs=1e-15)
    assert l1[2] == 4


def test_sphere_spectrum_is_the_sorted_level_expansion():
    # the level table ascends, so repeating each eigenvalue by its
    # multiplicity gives the sorted expansion exactly
    for n in (2, 3, 4):
        for a in (0.0, 0.25, 1.0):
            spec = sphere_spectrum(n, a, 30)
            chunks = [np.full(sphere_multiplicity(n, l), sphere_eigenvalue(n, a, l))
                      for l in range(31)]
            assert np.array_equal(spec.values, np.sort(np.concatenate(chunks)))


def test_spectrum_must_ascend():
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 0.5]), 0.0)


def test_constant_shift_covariance():
    # spectrum(a) = spectrum(0) + a R exactly on constant-curvature spaces
    base = sphere_spectrum(3, 0.0, 6).values
    shifted = sphere_spectrum(3, 0.25, 6).values
    np.testing.assert_allclose(shifted, base + 0.25 * 1.5, rtol=0, atol=1e-15)


def test_radial_interval_ground_state():
    # even modes of (-pi, pi) with Dirichlet ends: lambda_j = (j + 1/2)^2
    op = discretize_radial(make_space("gaussian", 1), math.pi, 2048)
    spec = eigen_solve(op, 3)
    assert spec.values[0] == pytest.approx(0.25, abs=1e-4)
    np.testing.assert_allclose(spec.values, [0.25, 2.25, 6.25], atol=1e-4)


def test_radial_ball_ground_state():
    op = discretize_radial(make_space("gaussian", 3), math.pi, 2048)
    spec = eigen_solve(op, 1)
    assert spec.values[0] == pytest.approx(1.0, abs=1e-3)


def test_dirichlet_boundary_rejects_constants():
    op = discretize_radial(make_space("gaussian", 2), 5.0, 64)
    res = op.apply(np.ones(op.m))
    # interior rows annihilate constants, the boundary row does not
    assert np.max(np.abs(res[:-1])) <= 1e-12 * np.max(op.diag)
    assert res[-1] > 0.0


def test_eigen_solve_dirichlet_chain_oracle():
    # classic Dirichlet second-difference chain: discrete spectrum known exactly
    m = 512
    h = 1.0 / (m + 1)
    op = DiscretizedOperator(
        space=make_space("gaussian", 1), R_max=1.0, m=m, a=0.0, h=h,
        r=np.arange(1, m + 1) * h, weights=np.full(m, h),
        lower=np.full(m - 1, -1.0 / h ** 2),
        diag=np.full(m, 2.0 / h ** 2),
        upper=np.full(m - 1, -1.0 / h ** 2),
    )
    spec = eigen_solve(op, 5)
    for j in range(1, 6):
        exact_discrete = 4.0 / h ** 2 * math.sin(j * math.pi * h / 2.0) ** 2
        assert spec.values[j - 1] == pytest.approx(exact_discrete, rel=1e-12)
        assert spec.values[j - 1] == pytest.approx((j * math.pi) ** 2, rel=1e-4)


def test_eigen_solve_full_dense_fallback():
    op = discretize_radial(make_space("gaussian", 2), 4.0, 16)
    spec = eigen_solve(op, 16)
    assert len(spec) == 16
    assert np.all(np.diff(spec.values) >= -1e-12)


def test_eigen_solve_shift_identity():
    op = discretize_radial(make_space("gaussian", 2), 6.0, 128)
    base = eigen_solve(op, 6).values
    shifted_op = DiscretizedOperator(
        op.space, op.R_max, op.m, op.a, op.h, op.r, op.weights,
        op.lower, op.diag + 0.7, op.upper)
    shifted = eigen_solve(shifted_op, 6).values
    np.testing.assert_allclose(shifted, base + 0.7, rtol=1e-12)


def test_eigen_solve_k_validation():
    op = discretize_radial(make_space("gaussian", 1), 2.0, 32)
    with pytest.raises(ValueError):
        eigen_solve(op, 0)
    with pytest.raises(ValueError):
        eigen_solve(op, 33)


def test_discretize_validation():
    with pytest.raises(ValueError):
        discretize_radial(make_space("gaussian", 2), 4.0, 8)
    with pytest.raises(ValueError):
        discretize_radial(make_space("gaussian", 2), -1.0, 64)
    with pytest.raises(KindMismatchError):
        discretize_radial(make_space("sphere", 2), 4.0, 64)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_operator_symmetry_under_weights(seed):
    op = discretize_radial(make_space("gaussian", 3), 7.0, 128)
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(2, op.m))
    lhs = op.inner(op.apply(u), v)
    rhs = op.inner(u, op.apply(v))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_domain_monotonicity():
    # same spacing, larger ball: no Dirichlet eigenvalue may increase
    sp = make_space("gaussian", 3)
    small = eigen_solve(discretize_radial(sp, 6.0, 192), 8).values
    large = eigen_solve(discretize_radial(sp, 12.0, 384), 8).values
    assert np.all(large <= small + 1e-12)


def test_partition_function_oracle():
    # direct summation oracle, levels to l = 50, against the trace V H(o, o, 1)
    l = np.arange(51)
    oracle = float(np.sum((2 * l + 1) * np.exp(-(l * (l + 1) / 2.0 + 0.25))))
    z, err = partition_function(SphereHeatKernel(2, 0.25), 1.0)
    assert oracle == pytest.approx(1.8460202375634427, rel=1e-14)
    assert z == pytest.approx(oracle, rel=1e-13)
    assert err <= 1e-12


def _level_sum(n, a, t):
    """sum_l mult_l exp(-lambda_l t) in 40-digit arithmetic, summed until
    the terms fall below 1e-35 of the partial sum."""
    with mp.workdps(40):
        total, l = mp.mpf(0), 0
        while True:
            lam = mp.mpf(l * (l + n - 1)) / (2 * (n - 1)) + mp.mpf(a) * n / 2
            term = sphere_multiplicity(n, l) * mp.exp(-lam * t)
            total += term
            if l > 5 and term < total * mp.mpf(10) ** -35:
                return total
            l += 1


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("a", [0.25, 1.0])
def test_partition_trace_against_level_sum(n, a):
    # the trace V H(o, o, t) of the series kernel is the eigenvalue sum; its
    # error estimate, plus a few roundings of the value, covers the gap. At
    # long times e^{-a R t} damps the estimate with the value, so it stays a
    # few ulps of it
    kernel = SphereHeatKernel(n, a)
    for t in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0):
        z, err = partition_function(kernel, t)
        exact = _level_sum(n, a, t)
        assert abs(mp.mpf(z) - exact) <= err + 4.0 * np.finfo(float).eps * z, (t, z, exact)
        assert t < 10.0 or abs(mp.mpf(z) - exact) <= err <= 1e-13 * z, (t, z, err)


def test_partition_long_time_dominated_by_ground_state():
    t = 60.0
    z, err = partition_function(SphereHeatKernel(2, 0.25), t)
    assert z == pytest.approx(math.exp(-0.25 * t), rel=1e-10)
    assert z - err <= math.exp(-0.25 * t) <= z + err


def test_partition_shift_identity():
    # on the sphere R is constant, so H_{a'} = exp(-(a' - a) R t) H_a; R = 1 on S^2
    t = 0.8
    z, _ = partition_function(SphereHeatKernel(2, 0.25), t)
    shifted, _ = partition_function(SphereHeatKernel(2, 0.85), t)
    assert shifted == pytest.approx(z * math.exp(-0.6 * t), rel=1e-12)


def test_partition_rejects_nonpositive_time():
    kernel = SphereHeatKernel(2, 0.25)
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            partition_function(kernel, t)


def test_weyl_constant_and_counting_window():
    assert weyl_constant(2) == pytest.approx(4.0 * math.pi, rel=1e-14)
    spec = sphere_spectrum(2, 0.25, 40)
    V = 8.0 * math.pi
    lam = spec.values
    for k in range(200, 401, 25):
        lam_k = float(lam[k - 1])
        ratio = counting_function(spec, lam_k) * 4.0 * math.pi / (V * lam_k)
        assert 0.9 <= ratio <= 1.1
