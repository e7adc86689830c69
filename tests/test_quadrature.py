import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson

from solitonlab.entropy import RadialProfile
from solitonlab.kernels import RadialMarch
from solitonlab.quadrature import gaussian_cutoff, leggauss, quad_ab, simpson_weights
from solitonlab.spaces import make_space, sphere_area
from solitonlab.spectral import discretize_radial


def _mpmath_weight(k, x):
    """The Gauss-Legendre weight 2 (1 - x^2) / (k P_{k-1}(x))^2 at the node
    nearest x, refined by Newton's method at 60 digits."""
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        for _ in range(4):
            p, q = mpmath.legendre(k, x), mpmath.legendre(k - 1, x)
            x -= p * (1 - x * x) / (k * (q - x * p))
        return float(2 * (1 - x * x) / (k * mpmath.legendre(k - 1, x)) ** 2)


@pytest.mark.parametrize("k", [32, 64, 170, 400])
def test_gauss_legendre_rule_matches_numpy_and_an_mpmath_reference(k):
    x, w = leggauss(k)
    xn, wn = np.polynomial.legendre.leggauss(k)
    assert np.max(np.abs(x - xn)) <= 1e-14
    # numpy's weights are up to 2.6e-14 off at k = 400: its weight formula
    # amplifies the rounding of the outer nodes
    assert np.max(np.abs(w - wn)) <= 3e-14
    # the outermost and innermost nodes carry the largest weight errors
    for i in (0, 1, 2, k // 2 - 1, k // 2):
        assert abs(w[i] - _mpmath_weight(k, x[i])) <= 2e-16, i
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


@pytest.mark.parametrize("k", [1, 2, 3, 32, 64, 170, 400])
def test_gauss_legendre_rule_integrates_monomials_exactly(k):
    x, w = leggauss(k)
    degrees = np.arange(2 * k)
    exact = np.where(degrees % 2 == 0, 2.0 / (degrees + 1), 0.0)
    got = (x[None, :] ** degrees[:, None]) @ w
    assert np.max(np.abs(got - exact)) <= 4 * np.finfo(float).eps


def test_gauss_legendre_rule_needs_a_node():
    with pytest.raises(ValueError):
        leggauss(0)
    x, w = leggauss(1)
    assert x.tolist() == [0.0] and w.tolist() == [2.0]


# ---------------------------------------------------------------------------
# the composite rule and the Simpson weights
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_composite_rule_gives_the_radial_gaussian_mass_within_its_estimate(n):
    # (4 pi)^{-n/2} |S^{n-1}| r^{n-1} e^{-r^2/4} has mass one; the cut at 12
    # widths drops e^{-72} of it
    area = sphere_area(n - 1) * (4.0 * math.pi) ** (-n / 2.0)
    val, err = quad_ab(lambda r: area * r ** (n - 1) * np.exp(-r * r / 4.0),
                       0.0, gaussian_cutoff(math.sqrt(2.0)))
    assert abs(val - 1.0) <= err <= 1e-14


@pytest.mark.parametrize("points", [[0.3], None])
def test_composite_rule_resolves_a_kink_at_a_breakpoint(points):
    # |x - 0.3| over [-1, 2]: exact with the kink as a breakpoint, and off by
    # far less than the estimate without it
    val, err = quad_ab(lambda x: np.abs(x - 0.3), -1.0, 2.0, points=points)
    exact = (1.3 ** 2 + 1.7 ** 2) / 2.0
    assert abs(val - exact) <= err
    assert err <= (1e-14 if points else 1e-3)


def test_composite_rule_integrates_the_entropy_integrand_of_a_bump():
    # g^2 ln g^2 r^2 of the bump g = (1 - (r/c)^2)^2 on [0, c], whose
    # logarithmic end behaviour the rule meets in every entropy trial
    g = RadialProfile("bump", 1.0, 2.5)

    def integrand(r):
        v = g.value(r) ** 2
        return r * r * v * np.log(np.where(v > 0.0, v, 1.0))

    val, err = quad_ab(integrand, 0.0, g.cutoff)
    with mpmath.workdps(30):
        def exact_integrand(r):
            v = (1 - (r / mpmath.mpf(g.cutoff)) ** 2) ** 4
            return r * r * v * mpmath.log(v) if v > 0 else mpmath.mpf(0)

        exact = float(mpmath.quad(exact_integrand, [0, g.cutoff]))
    assert abs(val - exact) <= err <= 1e-12 * abs(exact)


@pytest.mark.parametrize("m", [16, 17, 512])
def test_march_simpson_rule_matches_scipy(m):
    # m nodes and the Dirichlet node: an odd and an even sample count
    op = discretize_radial(make_space("gaussian", 3), 8.0, m)
    engine = RadialMarch(op, 1e-3, np.zeros(m), lambda t_from, t: [])
    values = np.stack([np.exp(-op.r ** 2 / 4.0), np.cos(3.0 * op.r)])  # two rows
    r = engine.nodes
    shell = np.append(values, np.zeros((2, 1)), axis=1) * sphere_area(2) * r ** 2
    expected = simpson(shell, x=r)
    assert np.allclose(engine.integrate(values), expected, rtol=0.0,
                       atol=1e-14 * float(np.max(np.abs(shell))) * r[-1])
    assert engine.integrate(values[1]) == engine.integrate(values)[1]
    y = np.cos(0.5 * np.arange(m + 1))
    assert simpson_weights(m + 1, 0.5) @ y == pytest.approx(simpson(y, dx=0.5), rel=0.0, abs=1e-14 * m)
