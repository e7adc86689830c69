"""Independent references for the Green's function routes.

``time_integral`` is the Green's function as the time integral of the heat
kernel, in float64 with adaptive quadrature: it rests on the same series
kernel the heat-kernel checks tabulate and shares nothing with the
Dirichlet-Mehler routes. Near the antipode of a sphere it is less accurate
than its estimate says, so points there are compared with the mpmath
references below instead.

``sphere_green_oracle`` and ``cylinder_green_oracle`` evaluate the same
integrals as the routes at 30-40 digits by tanh-sinh quadrature, with the
constant from a quadrature of the theta = 0 integral rather than the gamma
product, and on the cylinders with the closed-form sphere factors (the
Legendre function on S^2, the sinh form on S^3).
"""

import math

import mpmath

from solitonlab.quadrature import quad_ab, quad_log


def gaussian_time_tail(n, d, T):
    """Integral of t^{-n/2} exp(-d^2/(4t)) over (0, T] (n >= 3, d > 0): with
    u = d^2/(4t) it is (4/d^2)^s Gamma(s, d^2/(4T)), s = n/2 - 1."""
    if T <= 0.0:
        return 0.0
    from scipy.special import gammaincc, gammaln
    s = n / 2.0 - 1.0
    return math.exp(s * math.log(4.0 / (d * d)) + gammaln(s)) * gammaincc(s, d * d / (4.0 * T))


def time_integral(gv, x, y, rel_tail=1e-12):
    """int_0^inf H(x, y, t) dt over the kernel of ``gv``: (value, error
    estimate). Split at t = d^2. The near part is integrated adaptively on
    [t_floor, d^2]: t_floor = 0 without a Schrodinger gap (a R = 0); with a
    gap, t_floor = d^2/282 and the omitted mass is bounded in closed form.
    The far part runs over doubling log windows until a rigorous remainder
    bound falls under ``rel_tail`` of the running total."""
    d = gv.space.distance(x, y)
    sep = gv.kernel.separation(x, y)
    n, gap = gv.space.n, gv.a * gv.space.sup_R

    def h(t):
        return gv.kernel.at(sep, t)[0]

    if gap > 0.0:
        # below t_floor the kernel is Gaussian-small; bound the omitted mass
        t_floor = d * d / (4.0 * 8.4 ** 2)
        floor_bound = 2.0 * (4.0 * math.pi) ** (-n / 2.0) * gaussian_time_tail(n, d, t_floor)
        near, near_err = quad_log(h, t_floor, d * d)

        def bound(T):
            # the integrand decays at least at the spectral-gap rate past T
            return h(T) / gap
    else:
        floor_bound = 0.0
        near, near_err = quad_ab(h, 0.0, d * d)

        def bound(T):
            # integrand <= (4 pi t)^{-n/2}
            return (4.0 * math.pi) ** (-n / 2.0) * T ** (1.0 - n / 2.0) / (n / 2.0 - 1.0)

    total, err, lo = near, near_err, d * d
    for _ in range(400):
        v, e = quad_log(h, lo, 4.0 * lo)
        total += v
        err += e
        lo *= 4.0
        b = bound(lo)
        if b < rel_tail * max(total, 1e-300):
            return total, err + b + floor_bound
    raise AssertionError("the Green tail did not come down within the window budget")


def _integral(lam, tau, theta):
    """int_0^{pi-theta} cosh(tau psi) (cos psi + cos theta)^{lam-1} dpsi in
    g = pi - theta - psi, where cos psi + cos theta = 2 sin(g/2) sin(theta +
    g/2); mpmath's tolerance is absolute, so the integrand is scaled to O(1)."""
    phi = mpmath.pi - theta

    def f(g):
        return mpmath.re(mpmath.cosh(tau * (phi - g))) \
            * (2 * mpmath.sin(g / 2) * mpmath.sin(theta + g / 2)) ** (lam - 1)

    scale = abs(f(phi / 2))
    cuts = [0, theta, phi] if 0 < theta < phi else [0, phi]
    return scale * mpmath.quad(lambda g: f(g) / scale, cuts)


def sphere_green_oracle(n, theta, M, dps=40):
    """Green's function of -Laplacian + M on the unit n-sphere at angle
    theta, the Dirichlet-Mehler integral at ``dps`` digits from the binary
    values of theta and M."""
    with mpmath.workdps(dps):
        lam = mpmath.mpf(n - 1) / 2
        theta = mpmath.mpf(theta)
        tau = mpmath.sqrt(mpmath.mpc(M) - lam ** 2)
        if n == 2:
            c = 1 / (2 * mpmath.sqrt(2) * mpmath.pi * mpmath.re(mpmath.cosh(mpmath.pi * tau)))
        else:
            c = mpmath.gamma(mpmath.mpf(n) / 2 - 1) / (4 * mpmath.pi ** (mpmath.mpf(n) / 2)) \
                / _integral(lam, tau, mpmath.mpf(0))
        return c * mpmath.sin(theta) ** (1 - 2 * lam) * _integral(lam, tau, theta)


def cylinder_green_oracle(n, a, theta, s, dps=30):
    """Green's function on S^{n-1} x R (n = 3 or 4, sphere radius r =
    sqrt(2(n-2)), a R = a (n-1)/2) at angle theta > 0 and line offset s:
    (1/pi) int_0^inf cos(k s) r^{3-n} G_1(theta; (a R + k^2) r^2) dk with
    the closed-form unit-sphere factor: P_nu(-cos theta) / (4 cosh(pi tau)),
    nu = -1/2 + i tau, on S^2, and sinh(tau (pi - theta)) / (4 pi sin theta
    sinh(pi tau)) on S^3."""
    with mpmath.workdps(dps):
        r2 = mpmath.mpf(2 * (n - 2))
        gap = mpmath.mpf(a) * (n - 1) / 2
        theta, s = mpmath.mpf(theta), mpmath.mpf(s)
        lam = mpmath.mpf(n - 2) / 2

        def factor(k):
            tau = mpmath.sqrt(mpmath.mpc((gap + k * k) * r2) - lam ** 2)
            if n == 3:
                g = mpmath.legenp(-0.5 + 1j * tau, 0, -mpmath.cos(theta), type=2) \
                    / (4 * mpmath.cosh(mpmath.pi * tau))
            else:
                g = mpmath.sinh(tau * (mpmath.pi - theta)) \
                    / (4 * mpmath.pi * mpmath.sin(theta) * mpmath.sinh(mpmath.pi * tau))
            return mpmath.cos(k * s) * mpmath.re(g) * r2 ** ((3 - n) / mpmath.mpf(2))

        d = mpmath.sqrt(r2) * theta
        return mpmath.quad(factor, [0, 1 / d, 10 / d, mpmath.inf]) / mpmath.pi
