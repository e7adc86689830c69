"""Catalogue of closed-form gradient shrinking solitons.

Three model geometries are supported, each normalized so that the potential
satisfies R + |grad f|^2 = f and R + (Laplacian f) = n/2 identically:

* ``gaussian``  -- flat R^n with f(x) = |x|^2/4 and R = 0, any n >= 1.
* ``sphere``    -- the round n-sphere of radius sqrt(2(n-1)), f = R = n/2, n >= 2.
* ``cylinder``  -- S^{n-1} x R with sphere radius sqrt(2(n-2)),
                   f(theta, s) = s^2/4 + (n-1)/2 and R = (n-1)/2, n >= 3.

These are the rotationally symmetric shrinkers with closed-form geometry, which
is what makes every kernel and entropy quantity in this package checkable
against independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, KindMismatchError
from .quadrature import leggauss_ab

KINDS = ("gaussian", "sphere", "cylinder")

_UNIT_NORM_TOL = 1e-12


def sphere_area(dim: int, radius: float = 1.0) -> float:
    """Riemannian volume of the round ``dim``-sphere of the given radius."""
    if dim < 0:
        raise DimensionError(f"sphere dimension must be >= 0, got {dim}")
    if dim == 0:
        return 2.0  # two points
    try:
        return 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0) * radius ** dim
    except OverflowError:  # radius ** dim does on the model spheres from n = 232 on
        raise DimensionError(f"the volume of the {dim}-sphere of radius {radius} "
                             "overflows a float") from None


def ball_volume(n: int, radius: float) -> float:
    """Volume of the Euclidean ball of the given radius in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * radius ** n


class Point:
    """A point on a catalogue space, tagged with the space kind.

    Storage conventions: ``gaussian`` keeps the position vector in R^n;
    ``sphere`` keeps the unit direction in R^{n+1} (the actual point is
    radius * direction); ``cylinder`` keeps the unit direction of the sphere
    factor in R^n plus the line coordinate ``s``.
    """

    __slots__ = ("kind", "vector", "s")

    def __init__(self, kind: str, vector: np.ndarray, s: float | None = None):
        vector = np.asarray(vector, dtype=float)
        if kind not in KINDS:
            raise KindMismatchError(f"unknown point kind {kind!r}")
        if kind in ("sphere", "cylinder"):
            norm = float(np.linalg.norm(vector))
            if abs(norm - 1.0) > _UNIT_NORM_TOL:
                raise ValueError(
                    f"{kind} direction must have unit norm within {_UNIT_NORM_TOL}, got {norm!r}"
                )
        if kind == "cylinder" and s is None:
            raise ValueError("cylinder point needs a line coordinate s")
        if kind != "cylinder" and s is not None:
            raise ValueError(f"{kind} point takes no line coordinate")
        self.kind = kind
        self.vector = vector
        self.s = None if s is None else float(s)

    def __repr__(self):
        if self.kind == "cylinder":
            return f"Point(cylinder, dir={self.vector.tolist()}, s={self.s})"
        return f"Point({self.kind}, {self.vector.tolist()})"


@dataclass(frozen=True)
class SolitonSpace:
    """One normalized model shrinker; immutable and safe to share."""

    kind: str
    n: int
    sphere_radius: float | None = None
    volume: float = field(default=math.inf)

    # -- basic descriptors ------------------------------------------------

    @property
    def token(self) -> str:
        return f"{self.kind}:{self.n}"

    @property
    def is_compact(self) -> bool:
        return self.kind == "sphere"

    @property
    def sup_R(self) -> float:
        """Supremum of the scalar curvature (finite on the whole catalogue)."""
        if self.kind == "gaussian":
            return 0.0
        if self.kind == "sphere":
            return self.n / 2.0
        return (self.n - 1) / 2.0

    # -- closed-form geometry ---------------------------------------------

    def scalar_curvature(self, p: Point) -> float:
        self._check(p)
        return self.sup_R  # constant on every catalogue space

    def f(self, p: Point) -> float:
        self._check(p)
        if self.kind == "gaussian":
            return float(np.dot(p.vector, p.vector)) / 4.0
        if self.kind == "sphere":
            return self.n / 2.0
        return p.s * p.s / 4.0 + (self.n - 1) / 2.0

    def grad_f_sq(self, p: Point) -> float:
        """|grad f|^2 from the closed form (no numerical differentiation)."""
        self._check(p)
        if self.kind == "gaussian":
            g = p.vector / 2.0
            return float(np.dot(g, g))
        if self.kind == "sphere":
            return 0.0
        return (p.s / 2.0) ** 2

    def laplacian_f(self, p: Point) -> float:
        self._check(p)
        if self.kind == "gaussian":
            return self.n / 2.0
        if self.kind == "sphere":
            return 0.0
        return 0.5

    def distance(self, x: Point, y: Point) -> float:
        self._check(x)
        self._check(y)
        if self.kind == "gaussian":
            return float(np.linalg.norm(x.vector - y.vector))
        if self.kind == "sphere":
            return self.sphere_radius * _angle(x.vector, y.vector)
        arc = self.sphere_radius * _angle(x.vector, y.vector)
        return math.hypot(arc, x.s - y.s)

    # -- point helpers ------------------------------------------------------

    def point(self, coords, s: float | None = None) -> Point:
        """Build a point; sphere/cylinder directions are normalized first."""
        v = np.asarray(coords, dtype=float)
        if self.kind == "gaussian":
            if v.shape != (self.n,):
                raise ValueError(f"expected {self.n} coordinates, got shape {v.shape}")
            return Point("gaussian", v)
        expected = self.n + 1 if self.kind == "sphere" else self.n
        if v.shape != (expected,):
            raise ValueError(f"expected direction with {expected} components, got {v.shape}")
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValueError("zero vector cannot be normalized to a direction")
        if self.kind == "sphere":
            return Point("sphere", v / norm)
        return Point("cylinder", v / norm, s=0.0 if s is None else s)

    def pole(self) -> Point:
        """A fixed reference point: first axis direction (and s = 0)."""
        if self.kind == "gaussian":
            return Point("gaussian", np.zeros(self.n))
        dim = self.n + 1 if self.kind == "sphere" else self.n
        e = np.zeros(dim)
        e[0] = 1.0
        if self.kind == "sphere":
            return Point("sphere", e)
        return Point("cylinder", e, s=0.0)

    def point_at_distance(self, rho: float) -> Point:
        """A point at geodesic distance ``rho`` from the pole (used by grids)."""
        if self.kind == "gaussian":
            v = np.zeros(self.n)
            v[0] = rho
            return Point("gaussian", v)
        if self.kind == "sphere":
            theta = min(rho / self.sphere_radius, math.pi)
            v = np.zeros(self.n + 1)
            v[0], v[1] = math.cos(theta), math.sin(theta)
            return Point("sphere", v)
        # split the displacement between the sphere factor and the line
        arc = min(rho / math.sqrt(2.0), math.pi * self.sphere_radius)
        alpha = arc / self.sphere_radius
        rest = math.sqrt(max(rho * rho - arc * arc, 0.0))
        v = np.zeros(self.n)
        v[0], v[1] = math.cos(alpha), math.sin(alpha)
        return Point("cylinder", v, s=rest)

    def random_point(self, rng: np.random.Generator) -> Point:
        """A seeded random point: coordinates and line offsets are N(0, 2^2),
        directions uniform."""
        if self.kind == "gaussian":
            return Point("gaussian", rng.normal(0.0, 2.0, self.n))
        if self.kind == "sphere":
            v = rng.normal(size=self.n + 1)
            return Point("sphere", v / np.linalg.norm(v))
        v = rng.normal(size=self.n)
        return Point("cylinder", v / np.linalg.norm(v), s=float(rng.normal(0.0, 2.0)))

    def geodesic_ball_volume(self, t: float) -> float:
        """Volume of the geodesic ball of radius t (around any point).

        Closed form on gaussian, cap integral on the sphere (saturating to the
        total volume), and a one-dimensional slice integral on the cylinder;
        the integrals are Gauss-Legendre rules.
        """
        if t <= 0.0:
            return 0.0
        if self.kind == "gaussian":
            return ball_volume(self.n, t)
        r = self.sphere_radius
        if self.kind == "sphere":
            theta_max = min(t / r, math.pi)
            return sphere_area(self.n - 1) * r ** self.n * float(
                _sin_power_integral(theta_max, self.n - 1))

        def cap(rho):  # the sphere factor's ball volume
            return sphere_area(self.n - 2) * r ** (self.n - 1) * _sin_power_integral(
                np.minimum(rho / r, math.pi), self.n - 2)

        # V = integral over |s| <= t of cap(sqrt(t^2 - s^2)); with s = t cos phi
        # the caps saturate past phi*, where t sin phi = pi r
        phi_star = math.asin(min(1.0, math.pi * r / t))
        phi, w = leggauss_ab(64, 0.0, phi_star)
        inner = np.sum(w * cap(t * np.sin(phi)) * np.sin(phi))
        return float(2.0 * t * (inner + math.cos(phi_star) * cap(math.pi * r)))

    def _check(self, p: Point) -> None:
        if p.kind != self.kind:
            raise KindMismatchError(f"point of kind {p.kind!r} on space {self.token}")
        expected = self.n if self.kind != "sphere" else self.n + 1
        if p.vector.shape != (expected,):
            raise KindMismatchError(
                f"point dimension {p.vector.shape} does not match space {self.token}"
            )


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between unit vectors as 2 atan2(|u - v|, |u + v|): exact at
    u = v and at the antipode, and accurate to a few ulps at every angle,
    where acos(u . v) loses eps / theta^2 relative near 0."""
    d, s = u - v, u + v
    return 2.0 * math.atan2(math.sqrt(float(np.dot(d, d))), math.sqrt(float(np.dot(s, s))))


def _sin_power_integral(theta, k: int) -> np.ndarray:
    """Integral of sin^k over [0, theta] (k >= 0, 0 <= theta <= pi) by a
    32-node Gauss-Legendre rule, at each entry of ``theta``."""
    x, w = leggauss_ab(32, 0.0, 1.0)
    theta = np.asarray(theta, dtype=float)[..., None]
    return np.sum(w * theta * np.sin(theta * x) ** k, axis=-1)


def make_space(kind: str, n: int) -> SolitonSpace:
    """Return the unique normalized catalogue space of the given kind and dimension.

    Raises DimensionError when n is outside the kind's valid range
    (gaussian n >= 1, sphere n >= 2, cylinder n >= 3).
    """
    if kind not in KINDS:
        raise KindMismatchError(f"unknown space kind {kind!r}; choose from {KINDS}")
    n = int(n)
    if kind == "gaussian":
        if n < 1:
            raise DimensionError("gaussian space needs n >= 1")
        return SolitonSpace("gaussian", n)
    if kind == "sphere":
        if n < 2:
            raise DimensionError("sphere soliton needs n >= 2")
        radius = math.sqrt(2.0 * (n - 1))
        return SolitonSpace("sphere", n, sphere_radius=radius, volume=sphere_area(n, radius))
    if n < 3:
        raise DimensionError("cylinder soliton needs n >= 3 (the S^{n-1} factor degenerates)")
    return SolitonSpace("cylinder", n, sphere_radius=math.sqrt(2.0 * (n - 2)))


def parse_space(token: str) -> SolitonSpace:
    """Parse a CLI token like ``gaussian:3`` or ``sphere:2``."""
    try:
        kind, dim = token.split(":")
        return make_space(kind.strip(), int(dim))
    except (ValueError, TypeError) as exc:
        if isinstance(exc, (DimensionError, KindMismatchError)):
            raise
        raise ValueError(f"bad space token {token!r}; expected '<kind>:<n>'") from exc


def distance(space: SolitonSpace, x: Point, y: Point) -> float:
    """Geodesic distance between two points of the space."""
    return space.distance(x, y)


@dataclass(frozen=True)
class IdentityReport:
    """Worst-case defects of the two soliton identities over random samples."""

    space: str
    sample_count: int
    seed: int
    max_potential_defect: float  # max |R + |grad f|^2 - f|
    max_trace_defect: float      # max |R + laplacian f - n/2|

    @property
    def passed(self) -> bool:
        return self.max_potential_defect <= 1e-10 and self.max_trace_defect <= 1e-10


def check_soliton_identities(space: SolitonSpace, sample_count: int = 100, seed: int = 0) -> IdentityReport:
    """Sample random points and report the worst defect of both identities.

    All quantities come from closed forms, so the defects are pure rounding
    noise; anything above 1e-10 means the catalogue normalization is broken.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    worst1 = 0.0
    worst2 = 0.0
    for _ in range(sample_count):
        p = space.random_point(rng)
        r = space.scalar_curvature(p)
        worst1 = max(worst1, abs(r + space.grad_f_sq(p) - space.f(p)))
        worst2 = max(worst2, abs(r + space.laplacian_f(p) - space.n / 2.0))
    return IdentityReport(space.token, sample_count, seed, worst1, worst2)
