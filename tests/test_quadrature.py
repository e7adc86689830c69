import mpmath
import numpy as np
import pytest

from solitonlab.quadrature import leggauss


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
