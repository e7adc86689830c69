"""Heat kernels of -Laplacian + a R, Green's functions, and volume growth.

The two-point evaluators share one protocol, ``TwoPointKernel``: a kernel
supplies its separation, values, quadratures and Green's function, and the
base derives ``evaluate``, ``table`` and the semigroup defect from them. Three
evaluation routes are implemented, matched to the catalogue:

* closed form on the flat gaussian space (where R = 0 makes the Schrodinger
  kernel literally the classical Gaussian kernel for every coupling a);
* zonal spectral series on round spheres, with the constant-curvature
  factorization exp(-a R t) * (Laplace kernel), justified by uniqueness of
  the minimal fundamental solution; the cylinder S^{n-1} x R has the scalar
  curvature of its sphere factor, so its kernel is the sphere factor's
  Schrodinger kernel times the line's Gaussian kernel. A series call bounds
  its terms on a doubling prefix of the level table, only as far as the cut
  and the tail estimate read, and takes the zonal harmonics in one compiled
  Legendre call on S^2, in closed form on S^3 and level by level beyond;
* implicit finite differences on truncated Dirichlet balls of the gaussian
  space, bootstrapped from the exact profile at a small positive time so no
  initial-layer error enters the comparisons. One engine, ``RadialMarch``,
  holds the time -> state cache, the Crank-Nicolson and Numerov steps, each
  factored once per step size, and the Simpson rule over the nodes; a state
  may hold one solution per row, and the weighted-energy probe is a view on it.

Every evaluator reports a per-evaluation error estimate next to the value.
``GreenEvaluator`` takes the one Green's-function route of each space kind
(``green_at``), chosen from the separation, and never integrates over time:
the closed form on the gaussian space, the Dirichlet-Mehler integral
(``sphere_green``) on spheres, and on the cylinder the line resolvent's mode
sum where it reaches, else at |s| < r theta the line's Fourier integral over it.

The module imports numpy only. Each scipy routine is imported by the code
that calls it: the S^2 Legendre recurrence (``scipy.special``, through a
cached getter), the LAPACK factorizations of the marches (``scipy.linalg``)
and the adaptive integrals (``scipy.integrate``). A closed-form or S^3 query,
and every Green's function but the line series on S^2 x R, loads none of
them. The series level table is built once per sphere dimension and shared,
read-only, by every kernel of that dimension.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DimensionError,
    DivergenceError,
    KindMismatchError,
    SeriesTruncationError,
    TimeDomainError,
)
from .quadrature import gaussian_cutoff, leggauss_ab, quad_ab
from .spaces import Point, SolitonSpace, _angle, make_space, sphere_area
from .spectral import DiscretizedOperator, discretize_radial, sphere_multiplicity

EPS = float(np.finfo(float).eps)
DBL_MIN = float(np.finfo(float).tiny)  # the smallest normal double
FD_DT_MIN, FD_DT_MAX = 1e-7, 4e-3  # bounds on a finite-difference march step
METHODS = ("auto", "closed_form", "spectral_series", "fd_dirichlet")
# the method ``auto`` resolves to on each kind of space
AUTO = {"gaussian": "closed_form", "sphere": "spectral_series", "cylinder": "spectral_series"}
# level cap of the zonal series (under 2000 levels at t >= t_min) and of the
# cylinder's line-resolvent series (about 40 r / |s| levels at line offset s)
L_MAX = 8000


# ---------------------------------------------------------------------------
# zonal harmonics
# ---------------------------------------------------------------------------


@functools.cache
def _legendre_all():
    """The compiled Bonnet recurrence behind ``legendre_p_all`` (no
    derivatives), signature ()->(l_max+1, 1): called on a preallocated output
    it skips the wrapper's shape and dtype resolution, about 11 us a call at
    any level count. ``scipy.special`` is imported on the first S^2 call."""
    from scipy.special import legendre_p_all
    return legendre_p_all._ufunc_or_ufuncs[0]


def zonal_values(sphere_dim: int, l_max: int, u) -> np.ndarray:
    """Zonal harmonics Z_l(u) on S^{sphere_dim}, normalized to Z_l(1) = 1.

    Z_l is the Gegenbauer ratio C_l^alpha(u) / C_l^alpha(1) with
    alpha = (sphere_dim - 1)/2. On the 2-sphere it is the Legendre
    polynomial P_l(u), all levels and points in one compiled Bonnet
    recurrence (``scipy.special.legendre_p_all``); on the 3-sphere it
    collapses to sin((l+1) theta) / ((l+1) sin theta); from the 4-sphere on
    the Gegenbauer recurrence runs one level at a time over the point array.
    Accepts scalar or array u and returns shape (l_max + 1,) + u.shape.
    """
    u = np.asarray(u, dtype=float)
    if sphere_dim < 2:
        raise DimensionError("zonal harmonics need sphere dimension >= 2")
    if sphere_dim == 2:
        out = np.empty((l_max + 1,) + u.shape + (1,))
        _legendre_all()(u, out=out, axes=[(), (0, -1)])
        return out[..., 0]
    out = np.empty((l_max + 1,) + u.shape)
    if sphere_dim == 3:
        # Z_l(theta) = (-1)^l Z_l(pi - theta): the quotient keeps its relative
        # accuracy only at angles up to pi/2, so farther angles are reflected
        theta = np.arccos(np.clip(u, -1.0, 1.0))
        l = np.arange(1, l_max + 2).reshape((-1,) + (1,) * u.ndim)
        far = theta > math.pi / 2
        theta = np.where(far, math.pi - theta, theta)
        small = np.sin(theta) < 1e-9  # the limit at theta = 0 is Z_l = 1
        safe = np.where(small, 1.0, np.sin(theta))
        sign = np.where(far, (-1.0) ** (l - 1), 1.0)
        out[:] = sign * np.where(small, 1.0, np.sin(l * theta) / (l * safe))
        return out
    alpha = (sphere_dim - 1) / 2.0
    c_m2 = np.ones_like(u)
    c_m1 = 2.0 * alpha * u
    d_m2 = 1.0
    d_m1 = 2.0 * alpha
    out[0] = 1.0
    if l_max >= 1:
        out[1] = c_m1 / d_m1
    for l in range(2, l_max + 1):
        c = (2.0 * (l - 1 + alpha) * u * c_m1 - (l - 2 + 2 * alpha) * c_m2) / l
        d = (2.0 * (l - 1 + alpha) * d_m1 - (l - 2 + 2 * alpha) * d_m2) / l
        out[l] = c / d
        c_m2, c_m1 = c_m1, c
        d_m2, d_m1 = d_m1, d
    return out


# ---------------------------------------------------------------------------
# the two-point evaluator protocol and the closed form on the gaussian space
# ---------------------------------------------------------------------------


class TwoPointKernel:
    """A kernel supplies ``separation(x, y)``, the ungated ``at(separation,
    t)`` -> (value, error estimate), its quadratures ``mass(t)``,
    ``weighted_l2(t, D)`` and ``compose``, and ``green_at(separation)``: the
    Green's function of -Laplacian + a R (n >= 3, and a R > 0 off the flat
    space) as (value, error estimate, route name). A batched route overrides
    ``column``.
    ``evaluate`` and ``table`` reject times below ``t_min``. Every catalogue
    space is homogeneous, so the mass and the weighted L2 integral of
    H(x, ., t) are the same at every x and take no point."""

    t_min = 0.0

    def _gated(self, t) -> float:
        if t < self.t_min:
            raise TimeDomainError(f"kernel times must be positive and >= t_min = {self.t_min}")
        return float(t)

    def evaluate(self, x: Point, y: Point, t: float) -> tuple[float, float]:
        return self.at(self.separation(x, y), self._gated(t))

    def __call__(self, x: Point, y: Point, t: float) -> float:
        return self.evaluate(x, y, t)[0]

    def column(self, seps, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Values and errors at the separations ``seps`` and one time."""
        cells = np.array([self.at(sep, t) for sep in seps]).reshape(len(seps), 2)
        return cells[:, 0], cells[:, 1]

    def table(self, seps, times) -> tuple[np.ndarray, np.ndarray]:
        """The kernel at the separations ``seps`` x ``times``: (values, errors),
        each of shape (separations, times), one ``column`` per time; each
        entry equals ``evaluate`` at a pair of that separation."""
        h, err = np.empty((2, len(seps), len(times)))
        for k, t in enumerate(times):
            h[:, k], err[:, k] = self.column(seps, self._gated(t))
        return h, err

    def semigroup_defect(self, x: Point, y: Point, t: float, s: float) -> float:
        """Relative defect of the composition identity at (x, y, t, s)."""
        direct = self(x, y, t + s)
        return abs(self.compose(x, y, t, s) - direct) / abs(direct)


@dataclass(frozen=True)
class EuclideanHeatKernel(TwoPointKernel):
    """Classical Gaussian kernel; equal to the Schrodinger kernel for any a
    on the flat space because R vanishes identically. The separation is the
    distance."""

    space: SolitonSpace
    a: float = 0.0
    method = "closed_form"

    def separation(self, x: Point, y: Point) -> float:
        return self.space.distance(x, y)

    def value_at_distance(self, r: float, t: float) -> float:
        if not (math.isfinite(t) and t > 0.0):
            raise TimeDomainError("kernel times must be finite and positive")
        n = self.space.n
        return (4.0 * math.pi * t) ** (-n / 2.0) * math.exp(-r * r / (4.0 * t))

    def at(self, r: float, t: float) -> tuple[float, float]:
        v = self.value_at_distance(r, t)
        # exp turns the rounding of the exponent x = r^2/4t into a relative
        # error of that size times eps
        x = r * r / (4.0 * t)
        err = 4.0 * EPS * abs(v) * (1.0 + x)
        scale = (4.0 * math.pi * t) ** (-self.space.n / 2.0)
        if 0.0 < v < max(scale, 1.0) * DBL_MIN:
            # exp(-x) or the value is subnormal: the relative term is formed
            # before it meets v, and each keeps only its last place
            err = 4.0 * EPS * (1.0 + x) * v + (scale + 1.0) * math.ulp(0.0)
        return v, err

    def green_at(self, r: float):
        """G = Gamma(n/2 - 1) / (4 pi^{n/2}) r^{2-n} for every a, as R = 0; the
        gamma function and the powers each round to a few ulps."""
        n = self.space.n
        v = math.gamma(n / 2.0 - 1.0) / (4.0 * math.pi ** (n / 2.0)) * r ** (2 - n)
        return v, (8 + n) * EPS * v, "closed_form"

    def mass(self, t: float) -> float:
        """Volume integral of H(x, ., t) by radial quadrature."""
        n = self.space.n
        rmax = gaussian_cutoff(math.sqrt(2.0 * t))
        val, _ = quad_ab(
            lambda r: sphere_area(n - 1) * r ** (n - 1) * self.value_at_distance(r, t),
            0.0,
            rmax,
        )
        return val

    def compose(self, x: Point, y: Point, t: float, s: float) -> float:
        """Integral of H(x, z, t) H(z, y, s) dv(z): one line composition per
        coordinate."""
        return math.prod(line_compose(xi, yi, t, s) for xi, yi in zip(x.vector, y.vector))

    def weighted_l2(self, t: float, D: float) -> float:
        """E_D(x, t): integral of H(x, z, t)^2 exp(d(x,z)^2 / (D t)) dv(z)."""
        n = self.space.n
        rmax = gaussian_cutoff(math.sqrt(t * D / max(D - 2.0, 1e-9)))
        val, _ = quad_ab(
            lambda r: sphere_area(n - 1) * r ** (n - 1)
            * self.value_at_distance(r, t) ** 2 * math.exp(r * r / (D * t)),
            0.0,
            rmax,
        )
        return val


def line_compose(p: float, q: float, t: float, s: float) -> float:
    """Quadrature of the line-kernel composition: the integral over z of
    k_t(p - z) k_s(z - q), with k_t the one-dimensional Gaussian kernel."""
    width = math.sqrt(2.0 * max(t, s))
    lo = min(p, q) - gaussian_cutoff(width)
    hi = max(p, q) + gaussian_cutoff(width)
    peak = (s * p + t * q) / (t + s)  # product-bump location, narrow at far separations
    val, _ = quad_ab(
        lambda z: (4.0 * math.pi * t) ** -0.5 * math.exp(-((p - z) ** 2) / (4.0 * t))
        * (4.0 * math.pi * s) ** -0.5 * math.exp(-((z - q) ** 2) / (4.0 * s)),
        lo,
        hi,
        points=[p, q, peak],
    )
    return val


# ---------------------------------------------------------------------------
# zonal series on spheres
# ---------------------------------------------------------------------------


@functools.cache
def _level_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the Laplacian and multiplicities on the model n-sphere
    for l = 0 .. L_MAX + 10000, the reach of the tail estimate: built once per
    dimension and shared, read-only, by every series kernel on it."""
    levels = np.arange(L_MAX + 10001)
    lam = (levels * (levels + n - 1)).astype(float) / make_space("sphere", n).sphere_radius ** 2
    try:
        mult = np.fromiter((float(sphere_multiplicity(n, l)) for l in levels),
                           float, len(levels))
    except OverflowError:  # from S^120 on at this level count
        raise DimensionError(f"the level multiplicities of S^{n} overflow a float "
                             f"within {len(levels)} levels") from None
    lam.flags.writeable = mult.flags.writeable = False
    return lam, mult


# ---------------------------------------------------------------------------
# Green's functions on spheres: the Dirichlet-Mehler integral
# ---------------------------------------------------------------------------


def _gamma2(lam: float, tau2: np.ndarray) -> np.ndarray:
    """|Gamma(lam + i tau)|^2 e^{pi tau} where tau^2 >= 0 (up from pi tau / sinh(pi tau)
    or pi / cosh(pi tau) by |Gamma(z + 1)| = |z Gamma(z)|), else Gamma(lam +- |tau|)."""
    t = np.sqrt(np.abs(tau2))
    x = 2.0 * math.pi * t
    if lam % 1.0 == 0.0:
        out = np.ones_like(t)
        np.divide(x, -np.expm1(-x), out=out, where=x > 0.0)
    else:
        out = 2.0 * math.pi / (1.0 + np.exp(-x))
    for j in np.arange(lam % 1.0 or 1.0, lam):
        out *= j * j + t * t
    out[tau2 < 0.0] = [math.gamma(lam + s) * math.gamma(lam - s) for s in t[tau2 < 0.0]]
    return out


def _sinc(x):
    return np.sinc(x / math.pi)  # sin(x) / x, 1 at x = 0


def sphere_green(n: int, theta: float, M) -> tuple[np.ndarray, np.ndarray]:
    """Green's function of -Laplacian + M on the unit n-sphere at angle theta
    in (0, pi], for an array of M > 0: (values, error estimates). It is the
    Dirichlet-Mehler integral (DLMF 14.12 at n = 2): with lam = (n-1)/2,
    tau^2 = M - lam^2 and g = pi - theta - psi,
        G = |Gamma(lam + i tau)|^2 / (2^{lam+1} Gamma(lam) pi^{lam+1}) (sin theta)^{1-2 lam}
            int_0^{pi-theta} cosh(tau psi) [2 sin(g/2) sin(theta + g/2)]^{lam-1} dpsi,
    cos(|tau| psi) for tau^2 < 0, with cosh scaled by e^{-tau pi} against the
    gamma factor. Up to pi/2, g = 2 theta sinh^2 v makes the integrand 2^{2-lam}
    theta^{2 lam-1} (sinh 2v)^{n-2} [sinc(g/2) sinc(theta cosh^2 v)]^{lam-1},
    analytic in v, on panels of length <= 2; past pi/2, g = phi s^2 with
    phi = pi - theta makes it phi^{2 lam-1} 2s [s^2 (1 - s^2/2) sinc(g/2)
    sinc(phi - g/2)]^{lam-1} for s in [0, 1]. Either power cancels (sin
    theta)^{1-2 lam}, so the antipode is the plain limit. The value is the
    48-node Gauss-Legendre sum on each half panel, the estimate its difference
    from whole panels plus (8 n + 4 pi |tau|) eps of the sum of the modulus."""
    lam, phi = 0.5 * (n - 1), math.pi - theta
    tau2 = np.atleast_1d(np.asarray(M, dtype=float)) - lam * lam
    tau = np.sqrt(np.abs(tau2))[:, None]

    def weight(psi):
        return np.where(tau2[:, None] >= 0.0,
                        0.5 * (np.exp(tau * (psi - math.pi)) + np.exp(-tau * (psi + math.pi))),
                        np.cos(tau * psi))

    if theta <= math.pi / 2:
        reach = math.asinh(math.sqrt(phi / (2.0 * theta)))
        panels = math.ceil(reach / 2.0)
        factor = 2.0 ** (2.0 - lam) * _sinc(theta) ** (1.0 - 2.0 * lam)

        def integrand(v):
            g = 2.0 * theta * np.sinh(v) ** 2
            return weight(phi - g) * np.sinh(2.0 * v) ** (n - 2) * (
                _sinc(0.5 * g) * _sinc(theta * np.cosh(v) ** 2)) ** (lam - 1.0)
    else:
        reach, panels, factor = 1.0, 1, _sinc(phi) ** (1.0 - 2.0 * lam)

        def integrand(s):
            g = phi * s * s
            return weight(phi - g) * 2.0 * s * (
                s * s * (1.0 - 0.5 * s * s) * _sinc(0.5 * g) * _sinc(phi - 0.5 * g)) ** (lam - 1.0)

    # 48 Gauss-Legendre nodes on each panel, then on each half panel, in one call
    x, w = leggauss_ab(48, 0.0, 1.0)
    width = np.repeat([reach / panels, reach / (2 * panels)], [panels, 2 * panels])[:, None]
    lo = np.concatenate([np.arange(panels), 0.5 * np.arange(2 * panels)])[:, None] * (reach / panels)
    f = integrand((lo + width * x).ravel()).reshape(len(tau2), 3 * panels, 48) * (width * w)
    coarse, fine, modulus = (np.sum(part.reshape(len(tau2), -1), axis=1)
                             for part in (f[:, :panels], f[:, panels:], np.abs(f[:, panels:])))
    scale = _gamma2(lam, tau2) * factor / (2.0 ** (lam + 1.0) * math.gamma(lam) * math.pi ** (lam + 1.0))
    rounding = (8.0 * n + 4.0 * math.pi * tau[:, 0]) * EPS * modulus
    return scale * fine, scale * (np.abs(fine - coarse) + rounding)


@dataclass
class SphereHeatKernel(TwoPointKernel):
    """Schrodinger heat kernel on the model n-sphere via its zonal series.

    The separation is the angle d / radius. The series is cut once the
    rigorous term bound mult(l) e^{-lambda_l t}/V drops below ``eps`` while
    decreasing; ``L_MAX`` caps the level. Times below ``t_min`` are rejected
    by ``evaluate`` because the series loses accuracy to cancellation there.
    """

    n: int
    a: float
    eps: float = 1e-12
    t_min: float = 1e-3
    method = "spectral_series"
    space: SolitonSpace = field(init=False)

    def __post_init__(self):
        self.space = make_space("sphere", self.n)
        self._radius2 = self.space.sphere_radius ** 2
        self._V = self.space.volume
        self._aR = self.a * self.space.sup_R
        self._lam, self._mult = _level_table(self.n)

    # -- series machinery ----------------------------------------------------

    def _laplace_series(self, u, t: float) -> tuple[np.ndarray, float, int]:
        """Laplace-kernel series at cos-angles u; returns (values, tail, levels)."""
        u = np.asarray(u, dtype=float)
        cutoff, tail, coef = self._cut(t)
        flat = u.reshape(-1)
        acc = np.empty(flat.shape)
        # the sum runs along the level axis in level order, whatever the
        # number of points, on blocks of at most 2^16 terms (512 kB)
        block = max(1, 2 ** 16 // (cutoff + 1))
        for i in range(0, flat.size, block):
            terms = zonal_values(self.n, cutoff, flat[i:i + block])[:len(coef)]
            terms *= coef[:, None]
            acc[i:i + block] = np.cumsum(terms, axis=0, out=terms)[-1]
        return acc.reshape(u.shape), tail, cutoff

    def _cut(self, t: float) -> tuple[int, float, np.ndarray]:
        """The series cut at time t: (cutoff, tail estimate, coefficients).

        The term bounds mult(l) e^{-lambda_l t}/V run over a prefix of the
        level table that starts at lambda t = 64 and doubles until both the
        cut and the stop of the tail sum lie inside it. The levels with
        lambda t <= 745 (``live`` of them) keep their bounds, which are the
        series coefficients up to the cutoff; the first capped level gets the
        bound at 745, and past it the capped bounds grow with the
        multiplicity. The result does not depend on the prefix.
        """
        size = len(self._lam)
        k = min(int(np.searchsorted(self._lam, 64.0 / t)) + 2, size)
        while True:
            w = self._lam[:k] * t
            live = int(np.searchsorted(w, 745.0, side="right"))
            whole = live < k or k == size  # the prefix holds every bound that is read
            top = min(live + 1, k)
            b = self._mult[:top] * np.fromiter(map(math.exp, memoryview(-np.minimum(w[:top], 745.0))),
                                               float, top) / self._V
            stop = min(L_MAX, top - 1)
            hits = np.flatnonzero((b[1:stop + 1] < self.eps) & (b[1:stop + 1] < b[:stop]))
            if hits.size:
                cutoff = int(hits[0]) + 1
                # tail estimate: sum the rigorous bounds past the cutoff until negligible
                rest = b[cutoff + 1:live]
                run = np.cumsum(rest)
                small = np.flatnonzero(rest < 1e-4 * np.maximum(run, self.eps))
                if small.size or whole:
                    tail = float(run[small[0] if small.size else -1]) if rest.size else 0.0
                    return cutoff, tail, b[:min(cutoff + 1, live)]
            elif whole or stop == L_MAX:
                raise SeriesTruncationError(
                    f"zonal series needs more than L_MAX={L_MAX} levels at t={t}"
                )
            k = min(2 * k, size)

    def profile(self, u, t: float) -> tuple[np.ndarray, float]:
        """Kernel at cos-angle array u (internal: no t_min gate)."""
        if not (math.isfinite(t) and t > 0.0):
            raise TimeDomainError("kernel times must be finite and positive")
        vals, tail, cutoff = self._laplace_series(u, t)
        # rounding relative to the series' size: (4 pi t)^{-n/2} early, 1/V late
        rounding = 1e-15 * (cutoff + 1) * max((4.0 * math.pi * t) ** (-self.n / 2.0), 1.0 / self._V)
        damp = math.exp(-self._aR * t)
        return damp * vals, damp * (tail + rounding)

    def separation(self, x: Point, y: Point) -> float:
        return self.space.distance(x, y) / self.space.sphere_radius

    def at(self, theta: float, t: float) -> tuple[float, float]:
        v, e = self.profile(np.cos(theta), t)
        return float(v), float(e)

    def column(self, thetas, t: float) -> tuple[np.ndarray, np.ndarray]:
        """One series profile at the cos-angles of ``thetas``."""
        return self.profile(np.array([np.cos(th) for th in thetas]), t)

    # -- Green's functions ---------------------------------------------------

    def green_at(self, theta: float):
        """The Dirichlet-Mehler integral ``sphere_green`` at M = a R r^2,
        scaled to the radius r: G = r^{2-n} G_1(theta; M). Needs a R > 0."""
        v, err = sphere_green(self.n, theta, self._aR * self._radius2)
        scale = self._radius2 ** (1.0 - 0.5 * self.n)
        return float(v[0]) * scale, float(err[0]) * scale, "dirichlet_mehler"

    def line_green(self, theta: float, s: float):
        """Green's function on this sphere times the line, at angle theta and
        line offset s: the line resolvent integrates each mode over time, so
        with mu_l = lambda_l + a R it is the sum of b_l Z_l(cos theta),
        b_l = mult_l e^{-sqrt(mu_l) |s|} / (2 sqrt(mu_l) V). As |Z_l| <= 1,
        the tail past a level L is at most b_L q_L / (1 - q_L) once q_L < 1,
        where q_L = (mult_{L+1} / mult_L) e^{-|s| min(sqrt(mu_{L+1}) -
        sqrt(mu_L), 1/r)} bounds every later ratio b_{l+1} / b_l: the
        multiplicity ratio falls with l, and the steps of r sqrt(mu_l) =
        sqrt((l + h)^2 + const) rise with l or fall towards 1. The sum stops at
        the first level whose tail bound is below eps of the bounds so far, on
        a doubling prefix of the level table. None at s = 0, without the gap
        a R > 0, or when that level lies past ``L_MAX``."""
        s = abs(s)
        if s == 0.0 or self._aR <= 0.0:
            return None
        k = 64
        while True:
            k = min(k, L_MAX + 2)
            root = np.sqrt(self._lam[:k] + self._aR)
            b = self._mult[:k] * np.exp(-s * root) / (2.0 * self._V * root)
            step = np.minimum(np.diff(root), 1.0 / self.space.sphere_radius)
            q = self._mult[1:k] / self._mult[:k - 1] * np.exp(-s * step)
            with np.errstate(divide="ignore"):
                tail = np.where(q < 1.0, b[:-1] * q / (1.0 - q), math.inf)
            run = np.cumsum(b[:-1])
            hits = np.flatnonzero(tail <= EPS * run)
            if hits.size:
                cut = int(hits[0])
                break
            if k == L_MAX + 2:
                return None
            k *= 2
        terms = b[:cut + 1] * zonal_values(self.n, cut, math.cos(theta))
        # rounding: the exponent s sqrt(mu_l), the zonal recurrence (l ulps)
        # and the sum, each relative to the term bound
        levels = np.arange(cut + 1)
        rounding = 4.0 * EPS * float(np.sum((levels + 4.0 + s * root[:cut + 1]) * b[:cut + 1]))
        return float(np.sum(terms)), float(tail[cut]) + rounding, "line_resolvent_series"

    # -- zonal quadratures about any point x ----------------------------------

    def _zonal_measure(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gauss-Legendre angles from x, their volume weights, and the kernel there."""
        n, r0 = self.n, self.space.sphere_radius
        u, w = leggauss_ab(400, 0.0, math.pi)
        dv = w * sphere_area(n - 1) * r0 ** n * np.sin(u) ** (n - 1)
        return u, dv, self.profile(np.cos(u), t)[0]

    def mass(self, t: float) -> float:
        """Volume integral of H(x, ., t)."""
        _, dv, vals = self._zonal_measure(t)
        return float(np.sum(dv * vals))

    def weighted_l2(self, t: float, D: float) -> float:
        """E_D(x, t): integral of H(x, z, t)^2 exp(d(x,z)^2 / (D t)) dv(z)."""
        u, dv, vals = self._zonal_measure(t)
        weight = np.exp(np.minimum((self.space.sphere_radius * u) ** 2 / (D * t), 700.0))
        return float(np.sum(dv * vals ** 2 * weight))

    def compose(self, x: Point, y: Point, t: float, s: float) -> float:
        """Integral of H(x, z, t) H(z, y, s) dv(z), by quadrature over the
        zonal angle and azimuth of z about x."""
        n, r0 = self.n, self.space.sphere_radius
        theta = self.separation(x, y)
        ug, wg = leggauss_ab(170, 0.0, math.pi)
        U, V = np.meshgrid(ug, ug, indexing="ij")
        cos_zy = np.cos(U) * math.cos(theta) + np.sin(U) * math.sin(theta) * np.cos(V)
        k1, _ = self.profile(np.cos(ug), t)
        k2, _ = self.profile(cos_zy, s)
        # measure r0^n sin^{n-1}(u) du * A_{n-2} sin^{n-2}(v) dv; at n = 2,
        # A_0 = 2 doubles the azimuthal half [0, pi]
        inner = np.sum(wg * np.sin(ug) ** (n - 2) * k2, axis=1)
        return float(np.sum(wg * k1 * np.sin(ug) ** (n - 1) * inner)
                     * r0 ** n * sphere_area(n - 2))


@dataclass
class CylinderHeatKernel(TwoPointKernel):
    """Schrodinger kernel on S^{n-1} x R, the product of its factors' kernels.

    R = (n-1)/2 is also the scalar curvature of the sphere factor, the model
    (n-1)-sphere, so that factor's kernel carries the whole damping
    e^{-a R t}; the line factor is the one-dimensional Gaussian kernel. The
    separation is (sphere-factor angle, line offset). Values multiply, errors
    follow the product rule e1 v2 + v1 e2, and the mass, weighted L2 integral
    and composition are the factors' products, as exp(d^2 / (D t)) splits.
    """

    n: int
    a: float
    eps: float = 1e-12
    t_min: float = 1e-3
    method = "spectral_series"
    space: SolitonSpace = field(init=False)

    def __post_init__(self):
        if self.n < 3:
            raise DimensionError("cylinder kernels need n >= 3")
        self.space = make_space("cylinder", self.n)
        self.sphere = SphereHeatKernel(self.n - 1, self.a, eps=self.eps)
        self.line = EuclideanHeatKernel(make_space("gaussian", 1))

    def separation(self, x: Point, y: Point) -> tuple[float, float]:
        self.space._check(x)
        self.space._check(y)
        return _angle(x.vector, y.vector), x.s - y.s

    def at(self, sep: tuple[float, float], t: float) -> tuple[float, float]:
        v1, e1 = self.sphere.at(sep[0], t)
        v2, e2 = self.line.at(sep[1], t)
        return v1 * v2, e1 * v2 + v1 * e2

    def column(self, seps, t: float) -> tuple[np.ndarray, np.ndarray]:
        v1, e1 = self.sphere.column([theta for theta, _ in seps], t)
        v2, e2 = self.line.column([ds for _, ds in seps], t)
        return v1 * v2, e1 * v2 + v1 * e2

    def green_at(self, sep: tuple[float, float]):
        """The line series (``line_green``) where it reaches, else ``k_integral``
        at |s| < r theta; nearer the line theta = 0 the query names the distance."""
        theta, s = sep
        series = self.sphere.line_green(theta, s)
        if series is not None:
            return series
        r = self.sphere.space.sphere_radius
        if abs(s) >= r * theta:
            raise SeriesTruncationError(
                f"the Green's function at d={math.hypot(r * theta, s):.6g} with line offset "
                f"|s| >= r theta needs more than L_MAX={L_MAX} levels of its line series")
        return self.k_integral(theta, s)

    def k_integral(self, theta: float, s: float):
        """G = (1/pi) int_0^inf cos(k s) G_S(theta; a R + k^2) dk over the
        sphere factor's Dirichlet-Mehler integral G_S, at angle theta > 0.
        The poles of G_S, k = i sqrt(a R + lambda_l), all lie on Im w = pi/2
        under k = sqrt(a R) sinh w, so the rule in w converges geometrically;
        it stops at k d = sqrt(a R) d + 45 (d = r theta), past which G_S is
        below e^{-45} of its share; cos(k s) oscillates past the rule unless
        |s| < d. The value is the 64-node Gauss-Legendre sum, the estimate
        its difference from 32 nodes plus the integrand's."""
        sphere = self.sphere
        gap = math.sqrt(sphere._aR)
        reach = math.asinh(1.0 + 45.0 / (gap * sphere.space.sphere_radius * theta))
        sums = []
        for k in (32, 64):
            w, dw = leggauss_ab(k, 0.0, reach)
            freq = gap * np.sinh(w)
            g, g_err = sphere_green(sphere.n, theta, (sphere._aR + freq * freq) * sphere._radius2)
            c = np.cos(freq * s) * gap * np.cosh(w) * dw
            sums.append((c @ g, np.abs(c) @ g_err))
        (coarse, _), (fine, fine_err) = sums
        scale = sphere._radius2 ** (1.0 - 0.5 * sphere.n) / math.pi
        return scale * float(fine), scale * (abs(fine - coarse) + float(fine_err)), "k_integral"

    def _factors(self, p: Point) -> tuple[Point, Point]:
        return Point("sphere", p.vector), Point("gaussian", [p.s])

    def mass(self, t: float) -> float:
        """Volume integral of H(x, ., t)."""
        return self.sphere.mass(t) * self.line.mass(t)

    def weighted_l2(self, t: float, D: float) -> float:
        """E_D(x, t): integral of H(x, z, t)^2 exp(d(x,z)^2 / (D t)) dv(z)."""
        return self.sphere.weighted_l2(t, D) * self.line.weighted_l2(t, D)

    def compose(self, x: Point, y: Point, t: float, s: float) -> float:
        """Integral of H(x, z, t) H(z, y, s) dv(z)."""
        (xs, xl), (ys, yl) = self._factors(x), self._factors(y)
        return self.sphere.compose(xs, ys, t, s) * self.line.compose(xl, yl, t, s)


# ---------------------------------------------------------------------------
# finite-difference engine and the Dirichlet kernel on the gaussian space
# ---------------------------------------------------------------------------


def _solve(solver, factors, rhs: np.ndarray) -> np.ndarray:
    """One LAPACK solve on every row of ``rhs``, in place (rows are columns of rhs.T)."""
    x, _ = solver(*factors, np.atleast_2d(rhs).T, overwrite_b=True)
    return x.T.reshape(rhs.shape)


def _crank_nicolson(op: DiscretizedOperator, dt: float):
    """Crank-Nicolson on the conservative operator, as a step on y = W^{1/2} u
    with the symmetric S = W^{1/2} A W^{-1/2}: for M = I + (dt/2) S the step
    M^{-1} (2I - M) y is (M/2)^{-1} y - y, and M/2 is positive definite."""
    from scipy.linalg.lapack import dpttrf, dpttrs
    diag, off = op.symmetric_tridiagonal()
    d, e, _ = dpttrf(0.5 + 0.25 * dt * diag, 0.25 * dt * off)
    return lambda y: _solve(dpttrs, (d, e), y.copy()) - y


def _numerov(size: int, h: float, even: bool, dt: float):
    """Crank-Nicolson on the compact fourth-order (Numerov) form of v_rr over
    ``size`` unknowns; ``even`` folds the ghost v_{-1} = v_1 of an even v
    into the first row. The matrix is strictly diagonally dominant, so its
    LU never breaks down."""
    from scipy.linalg.lapack import dgttrf, dgttrs
    c = dt / (2.0 * h * h)
    off = np.full(size - 1, 1.0 / 12.0 - c)
    upper = off.copy()
    if even:
        upper[0] *= 2.0
    *lu, _ = dgttrf(off, np.full(size, 10.0 / 12.0 + 2.0 * c), upper)
    rdi = 10.0 / 12.0 - 2.0 * c
    roff = 1.0 / 12.0 + c

    def step(v):
        rhs = rdi * v
        rhs[..., :-1] += roff * v[..., 1:]
        rhs[..., 1:] += roff * v[..., :-1]
        if even:
            rhs[..., 0] += roff * v[..., 1]
        return _solve(dgttrs, lu, rhs)

    return step


def graded_steps(t_from: float, t: float, dt_max: float):
    """Steps of min(dt_max, t / 6), at least 1e-6, from t_from to t: data
    marched from sharp initial values evolve on the timescale t itself."""
    t_cur = t_from
    while t_cur < t - 1e-15 * max(t, 1.0):
        dt = min(dt_max, max(t_cur / 6.0, 1e-6), t - t_cur)
        yield dt
        t_cur += dt


class RadialMarch:
    """The finite-difference engine for radial Dirichlet problems.

    A state holds values at the nodes r_0 .. r_{m-1} on its last axis, one
    solution per row, and vanishes at the Dirichlet node r_m = R_max.
    ``state(t)`` fills one time -> state cache, marching from the latest
    cached time before t through the steps ``steps(t_from, t)``, each size
    factored once: Crank-Nicolson on the conservative operator in y = W^{1/2} u
    or, with ``numerov`` (n in {1, 3}), on the compact fourth-order form of
    v = r^{(n-1)/2} u, for which the radial operator is a pure second
    derivative.
    """

    def __init__(self, op: DiscretizedOperator, t0: float, state0: np.ndarray,
                 steps, numerov: bool = False):
        self.op = op
        self.nodes = np.append(op.r, op.R_max)  # the Dirichlet node included
        self.t0 = t0
        self._steps = steps
        self.numerov = numerov
        self._cache = {t0: state0}
        self._factored = {}  # step size -> its factored step

    def state(self, t: float) -> np.ndarray:
        if t < self.t0:
            raise TimeDomainError(f"finite-difference states need t >= t0 = {self.t0}")
        if t not in self._cache:
            t_from = max(s for s in self._cache if s <= t)
            self._cache[t] = self._march(self._cache[t_from], t_from, t)
        return self._cache[t]

    def _advance(self, scheme, w: np.ndarray, t_from: float, t: float) -> np.ndarray:
        """Steps ``steps(t_from, t)`` on w; ``scheme(dt)`` factors a new size."""
        for dt in self._steps(t_from, t):
            if dt not in self._factored:
                self._factored[dt] = scheme(dt)
            w = self._factored[dt](w)
        return w

    def _march(self, u: np.ndarray, t_from: float, t: float) -> np.ndarray:
        op = self.op
        if not self.numerov:
            sw = np.sqrt(op.weights)
            return self._advance(lambda dt: _crank_nicolson(op, dt), sw * u, t_from, t) / sw
        if op.space.n == 1:  # v = u is even: ghost reflection at the origin
            return self._advance(lambda dt: _numerov(op.m, op.h, True, dt), u, t_from, t)
        # n = 3: v = r u vanishes at both ends; the unknowns are nodes 1 .. m-1
        r = op.r[1:]
        out = np.empty(u.shape)
        out[..., 1:] = self._advance(lambda dt: _numerov(op.m - 1, op.h, False, dt),
                                     r * u[..., 1:], t_from, t) / r
        out[..., 0] = (4.0 * out[..., 1] - out[..., 2]) / 3.0  # even extension through r = 0
        return out

    def integrate(self, values: np.ndarray):
        """Simpson's rule over the nodes for the volume integral of nodal
        ``values``, zero at the Dirichlet node: a float, or one per row. Rows
        reduce along their contiguous axis, so each sums as it would alone."""
        n, r = self.op.space.n, self.nodes
        from scipy.integrate import simpson
        values = np.concatenate((values, np.zeros(values.shape[:-1] + (1,))), axis=-1)
        return np.asarray(simpson(values * sphere_area(n - 1) * r ** (n - 1), x=r)).tolist()


class DirichletRadialHeatKernel:
    """Dirichlet kernel on a radial grid, marched from an exact bootstrap.

    The source sits at the origin; u(., t0) is the exact closed-form profile,
    so the comparison against the free kernel carries no initial-layer error.
    ``states`` marches it with Crank-Nicolson (unconditionally stable, second
    order in time), one step size per segment, sized so the time error stays
    inside ``time_tol`` for saddle modes up to r_accuracy / (2 t).

    For n in {1, 3} the march takes the compact fourth-order (Numerov)
    spatial form; the plain second-order stencil at the acceptance grid
    sizes has a far-tail error above one percent, which the error model
    below makes visible. Other dimensions keep the second-order operator.
    """

    method = "fd_dirichlet"

    def __init__(self, op: DiscretizedOperator, t0: float,
                 time_tol: float = 1e-4, r_accuracy: float = 6.0,
                 kappa_mode: str = "tail"):
        if op.space.kind != "gaussian":
            raise KindMismatchError("finite-difference kernels run on gaussian spaces only")
        if t0 <= 0.0:
            raise TimeDomainError("bootstrap time t0 must be positive")
        self.op = op
        self.space = op.space
        self.a = op.a
        self.t0 = float(t0)
        self.time_tol = float(time_tol)
        self.r_accuracy = float(r_accuracy)
        self.kappa_mode = kappa_mode  # "tail": radii up to r_accuracy at any t;
        # "diffusive": radii up to r_accuracy diffusion widths sqrt(t)
        self.n = op.space.n
        self.h = op.h
        self.m = op.m
        self.numerov = self.n in (1, 3)  # compact fourth-order march
        self._segments: list[tuple[float, float, float]] = []
        bootstrap = (4.0 * math.pi * self.t0) ** (-self.n / 2.0) * np.exp(
            -op.r * op.r / (4.0 * self.t0))
        self.states = RadialMarch(op, self.t0, bootstrap, self._segment_steps, self.numerov)

    def _segment_steps(self, t_from: float, t_to: float) -> list[float]:
        """One step size for the segment, recorded for the error model."""
        if self.kappa_mode == "diffusive":
            kappa = self.r_accuracy / math.sqrt(t_to)
        else:
            kappa = self.r_accuracy / (2.0 * t_to)
        om = kappa * kappa
        length = t_to - t_from
        dt = FD_DT_MAX
        if om > 0.0 and length > 0.0:
            dt = min(max(math.sqrt(12.0 * self.time_tol / (length * om ** 3)), FD_DT_MIN),
                     FD_DT_MAX, length)
        steps = max(int(math.ceil(length / dt)), 1)
        dt = length / steps
        self._segments.append((t_from, t_to, dt))
        return [dt] * steps

    def profile(self, t: float) -> np.ndarray:
        """Nodal kernel values at time t, the Dirichlet node included."""
        return np.append(self.states.state(t), 0.0)

    def mass(self, t: float) -> float:
        """Discrete volume integral of the kernel at time t."""
        return self.op.mass(self.states.state(t))

    def semigroup_defect(self, t: float, s: float) -> float:
        """Relative defect of the composition identity on the diagonal at the
        source. Simpson over the nodes, since the cell-volume weights are only
        a second-order quadrature."""
        comp = self.states.integrate(self.states.state(t) * self.states.state(s))
        direct = self(0.0, t + s)
        return abs(comp - direct) / abs(direct)

    def __call__(self, y_radius: float, t: float) -> float:
        return self.evaluate(y_radius, t)[0]

    def evaluate(self, y_radius: float, t: float) -> tuple[float, float]:
        if not 0.0 <= y_radius <= self.op.R_max:
            raise ValueError("query radius outside the truncated domain")
        u = self.profile(t)
        val = self._interp(u, y_radius)
        return val, self._error_estimate(val, y_radius, t)

    def _interp(self, u: np.ndarray, y: float) -> float:
        # cubic Lagrange on the four nearest nodes
        i = int(y / self.h)
        i0 = min(max(i - 1, 0), self.m - 3)
        xs = self.states.nodes[i0:i0 + 4]
        ys = u[i0:i0 + 4]
        val = 0.0
        for j in range(4):
            w = 1.0
            for k in range(4):
                if k != j:
                    w *= (y - xs[k]) / (xs[j] - xs[k])
            val += w * ys[j]
        return float(val)

    def _error_estimate(self, value: float, y: float, t: float) -> float:
        # the effective mode for on- and near-diagonal values sits a few
        # diffusion widths up, not at the bare saddle floor 1/sqrt(t)
        kappa = max(y / (2.0 * t), 2.5 / math.sqrt(t))
        if self.numerov:
            spatial = kappa ** 6 * self.h ** 4 * (t - self.t0) / 360.0
        else:
            spatial = kappa ** 4 * self.h ** 2 * (t - self.t0) / 12.0
        time_exp = sum((min(b, t) - a) * (kappa ** 2) ** 3 * dt * dt / 12.0
                       for (a, b, dt) in self._segments if a < t)
        interp = kappa ** 4 * self.h ** 4 / 24.0
        # roundoff stays relative to the local scale in the graded solve
        rounding = 3e-12
        if spatial + time_exp > 709.0:  # expm1 overflows: the value is uncertified
            return math.inf
        return abs(value) * (math.expm1(spatial + time_exp) + interp + rounding)


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------


def heat_kernel(space: SolitonSpace, a: float, method: str = "auto", **params):
    """Build the evaluator of ``method``, one of ``METHODS``, on a catalogue space.

    ``auto`` picks the closed form on gaussian spaces and the spectral series
    elsewhere; the series takes ``eps`` and ``t_min``, which the closed form
    ignores. ``fd_dirichlet`` takes grid parameters (R_max, m, t0, time_tol).
    """
    if method not in METHODS:
        raise ValueError(f"unknown kernel method {method!r}; choose from {METHODS}")
    if method == "auto":
        method = AUTO[space.kind]
    if method == "closed_form":
        if space.kind != "gaussian":
            raise KindMismatchError("closed form is only available on gaussian spaces")
        return EuclideanHeatKernel(space, a)
    if method == "spectral_series":
        if space.kind == "sphere":
            return SphereHeatKernel(space.n, a, **params)
        if space.kind == "cylinder":
            return CylinderHeatKernel(space.n, a, **params)
        raise KindMismatchError("no spectral series on the gaussian space; use closed_form")
    # fd_dirichlet
    op = discretize_radial(space, params.pop("R_max", 40.0), params.pop("m", 4096), a)
    return DirichletRadialHeatKernel(op, params.pop("t0", 1e-3), **params)


# ---------------------------------------------------------------------------
# Green's functions
# ---------------------------------------------------------------------------


class GreenEvaluator:
    """Green's function of -Laplacian + a R over a two-point heat kernel:
    ``evaluate`` takes, and names, the kernel's route (``green_at``)."""

    def __init__(self, kernel: TwoPointKernel):
        space = kernel.space
        if space.n < 3:
            raise DimensionError("Green's functions need n >= 3")
        self.space = space
        self.a = float(kernel.a)
        if space.kind != "gaussian" and self.a * space.sup_R <= 0.0:
            raise DivergenceError(f"{space.token} has no positive Green's function without "
                                  "the gap a R > 0")
        self.kernel = kernel

    def evaluate(self, x: Point, y: Point) -> tuple[float, float, str]:
        """(value, error estimate, route)."""
        if self.space.distance(x, y) == 0.0:
            raise ValueError("Green's function is singular on the diagonal")
        return self.kernel.green_at(self.kernel.separation(x, y))

    def __call__(self, x: Point, y: Point) -> float:
        return self.evaluate(x, y)[0]


def green(space: SolitonSpace, a: float) -> GreenEvaluator:
    """Green's function evaluator of the Schrodinger operator (n >= 3), over
    the closed-form or series kernel at its default accuracy."""
    return GreenEvaluator(heat_kernel(space, a))


# ---------------------------------------------------------------------------
# volume growth (Green-function existence screen)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VolumeGrowthResult:
    value: float       # integral of t / V_p(t) over [1, T_max]
    divergent: bool    # growth pattern indicates the full integral diverges
    T_max: float
    window_ratios: tuple


def volume_growth_integral(space: SolitonSpace, T_max: float) -> VolumeGrowthResult:
    """Quadrature of t / V_p(t) on [1, T_max] with a divergence flag.

    The ball volume V_p is the same about every point p of the catalogue
    spaces, so the integral takes no point. Doubling windows whose
    contributions stop shrinking geometrically signal a divergent integral
    (no positive Laplace Green's function), which happens on the sphere
    (volume saturates) and on low-dimensional gaussian spaces.
    """
    if T_max <= 1.0:
        raise ValueError("T_max must exceed 1")

    def window(lo, hi):
        # fixed high-order rule; the integrand is smooth but its ball volumes
        # carry quadrature noise the adaptive rule would chase
        x, w = leggauss_ab(64, lo, hi)
        return float(np.sum(w * np.array([t / space.geodesic_ball_volume(t) for t in x])))

    total = 0.0
    ratios = []
    prev = None
    lo = 1.0
    while lo < T_max:
        hi = min(lo * 2.0, T_max)
        v = window(lo, hi)
        total += v
        if hi == lo * 2.0:  # only full doublings are comparable
            if prev is not None and prev > 0.0:
                ratios.append(v / prev)
            prev = v
        lo = hi
    recent = ratios[-3:] if len(ratios) >= 3 else ratios
    divergent = bool(recent and min(recent) >= 0.9)
    return VolumeGrowthResult(total, divergent, float(T_max), tuple(ratios))
