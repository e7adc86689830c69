"""Reference values computed apart from solitonlab, in arbitrary precision.

Every function here takes plain floats (geodesic distance, time, coupling)
and returns an ``mpmath.mpf``; the S^2 series sums in fixed point on Python
integers from mpmath inputs. None of them imports solitonlab: the model
geometry is restated from its normalization (sphere radius sqrt(2(n-1)),
cylinder factor radius sqrt(2(n-2)), scalar curvature n/2 on the sphere and
(n-1)/2 on the cylinder), so a bug in the package cannot leak into its own
reference.
"""

from __future__ import annotations

import mpmath as mp

DPS = 50  # the S^3 image sum cancels ~ e^{-s} of its terms at large s

SPHERE3_RADIUS = 2.0        # sqrt(2 (n - 1)) at n = 3
SPHERE2_RADIUS2 = 2.0       # squared radius of the model 2-sphere and of
                            # the sphere factor of the model cylinder:3
SPHERE3_R, SPHERE2_R, CYLINDER3_R = 1.5, 1.0, 1.0  # scalar curvatures


def _mpf(x):
    return mp.mpf(x)


def s3_image_sum(theta, s):
    """Laplace heat kernel on the unit 3-sphere by the image sum

    K(theta, s) = e^s (4 pi s)^{-3/2} sum_k (theta + 2 pi k) / sin(theta)
                  * exp(-(theta + 2 pi k)^2 / (4 s)).

    At theta = 0 and theta = pi the quotient is replaced by its limit.
    """
    with mp.workdps(DPS):
        theta, s = _mpf(theta), _mpf(s)
        two_pi = 2 * mp.pi
        reach = mp.sqrt(4 * s * (DPS + 20) * mp.log(10))
        k_max = int(mp.ceil(reach / two_pi)) + 1
        num = mp.mpf(0)
        dnum = mp.mpf(0)
        for k in range(-k_max, k_max + 1):
            x = theta + two_pi * k
            g = mp.exp(-x * x / (4 * s))
            num += x * g
            dnum += (1 - x * x / (2 * s)) * g
        sin_t = mp.sin(theta)
        if abs(sin_t) < mp.mpf(10) ** (-(DPS - 10)):
            quotient = dnum / mp.cos(theta)
        else:
            quotient = num / sin_t
        return mp.exp(s) * (4 * mp.pi * s) ** mp.mpf(-1.5) * quotient


def s3_zonal_series(theta, s, tol=mp.mpf(10) ** -40):
    """Laplace heat kernel on the unit 3-sphere by its zonal series

    K(theta, s) = (2 pi^2)^{-1} sum_l (l+1) e^{-l(l+2) s} sin((l+1) theta) / sin(theta).
    Used only to cross-check the image sum.
    """
    with mp.workdps(DPS):
        theta, s = _mpf(theta), _mpf(s)
        sin_t = mp.sin(theta)
        acc = mp.mpf(0)
        l = 0
        while True:
            weight = (l + 1) * mp.exp(-l * (l + 2) * s)
            if sin_t == 0:
                z = (l + 1) * (1 if mp.cos(theta) > 0 else (-1) ** l)
            else:
                z = mp.sin((l + 1) * theta) / sin_t
            acc += weight * z
            if l > 2 and weight * (l + 1) < tol:
                return acc / (2 * mp.pi ** 2)
            l += 1


def s2_legendre(theta, s, bits=192):
    """Laplace heat kernel on the unit 2-sphere by its Legendre series

    K(theta, s) = (4 pi)^{-1} sum_l (2l+1) e^{-l(l+1) s} P_l(cos theta),

    with P_l from the three-term recurrence and the Gaussian weights from
    e^{-(l+1)(l+2) s} = e^{-l(l+1) s} q^{l+1}, q = e^{-2 s}. The sum runs in
    ``bits``-bit fixed point on Python integers (cos theta and q come from
    mpmath), which is exact to ~1e-50 over the few hundred levels needed and
    far faster than mpf arithmetic. Summation stops once (2l+1) e^{-l(l+1) s},
    which bounds every later term's size, falls below 2^-110 (~8e-34).
    """
    one = 1 << bits
    with mp.workdps(bits // 3 + 10):
        x = int(mp.cos(_mpf(theta)) * one)
        q = int(mp.exp(-2 * _mpf(s)) * one)
    tol = one >> 110
    p_prev, p = one, x
    w = one                    # e^{-l(l+1) s} at l = 0
    ql = one                   # q^l
    acc = one                  # l = 0 term
    l = 1
    while True:
        ql = (ql * q) >> bits
        w = (w * ql) >> bits
        term_bound = (2 * l + 1) * w
        acc += (term_bound * p) >> bits
        if term_bound < tol:
            break
        p_prev, p = p, (((2 * l + 1) * x * p >> bits) - l * p_prev) // (l + 1)
        l += 1
    with mp.workdps(bits // 3 + 10):
        return mp.mpf(acc) / one / (4 * mp.pi)


def gaussian_kernel(n, d, t):
    """(4 pi t)^{-n/2} exp(-d^2 / (4 t)) on flat R^n."""
    with mp.workdps(30):
        d, t = _mpf(d), _mpf(t)
        return (4 * mp.pi * t) ** (-mp.mpf(n) / 2) * mp.exp(-d * d / (4 * t))


def sphere3_kernel(d, t, a):
    """Schrodinger kernel of -Laplacian + a R on the model 3-sphere (radius 2)."""
    with mp.workdps(DPS):
        r = _mpf(SPHERE3_RADIUS)
        t = _mpf(t)
        lap = s3_image_sum(_mpf(d) / r, t / (r * r)) / r ** 3
        return mp.exp(-_mpf(a) * SPHERE3_R * t) * lap


def sphere2_kernel(theta, t, a):
    """Schrodinger kernel on the model 2-sphere at angle ``theta``."""
    with mp.workdps(30):
        r2 = _mpf(SPHERE2_RADIUS2)
        t = _mpf(t)
        return mp.exp(-_mpf(a) * SPHERE2_R * t) * s2_legendre(theta, t / r2) / r2


def cylinder3_kernel(theta, ds, t, a):
    """Schrodinger kernel on S^2 x R: sphere factor times the line kernel."""
    with mp.workdps(30):
        r2 = _mpf(SPHERE2_RADIUS2)
        t = _mpf(t)
        sphere = s2_legendre(theta, t / r2) / r2
        line = gaussian_kernel(1, ds, t)
        return mp.exp(-_mpf(a) * CYLINDER3_R * t) * sphere * line


def sphere3_green(d, a):
    """Green's function of -Laplacian + a R on the model 3-sphere.

    With lambda_l = l(l+2)/4 + 3a/2 the eigen-expansion sums in closed form;
    at a = 1/4 it is (2/(V sin theta)) pi sinh(c(pi - theta)) / sinh(c pi)
    with c^2 = 4 (3a/2) - 1 = 1/2 and V = 16 pi^2.
    """
    with mp.workdps(30):
        theta = _mpf(d) / SPHERE3_RADIUS
        c = mp.sqrt(4 * (_mpf(a) * SPHERE3_R) - 1)
        V = 2 * mp.pi ** 2 * mp.mpf(SPHERE3_RADIUS) ** 3
        return (2 * mp.pi / (V * mp.sin(theta))) * mp.sinh(c * (mp.pi - theta)) / mp.sinh(c * mp.pi)


def gaussian3_green(d, a):
    """Green's function on flat R^3, 1 / (4 pi d), for every a (R = 0)."""
    with mp.workdps(30):
        return 1 / (4 * mp.pi * _mpf(d))


def sphere3_eigenvalues(a, count):
    """The first ``count`` eigenvalues l(l+2)/4 + 3a/2, multiplicity (l+1)^2."""
    out = []
    l = 0
    while len(out) < count:
        out.extend([l * (l + 2) / SPHERE3_RADIUS ** 2 + a * SPHERE3_R] * (l + 1) ** 2)
        l += 1
    return out[:count]
