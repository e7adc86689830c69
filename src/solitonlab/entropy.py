"""Entropy functional on the catalogue spaces.

Every catalogue space is a product of at most two one-dimensional factors
(``factors``): the radial factor of R^n, the zonal factor of a round sphere,
and on the cylinder the zonal factor of S^{n-1} times the line. A factor
carries its measure weight, its coordinate range, its map to geodesic
distance and its part of the potential f. The three consumers are written
once over that list:

* ``mu`` cross-checks the closed-form entropy constant by the quadrature
  (4 pi)^{-n/2} prod_i integral of w_i exp(-f_i);
* ``w_entropy`` evaluates W at a product density (the soliton potential plus
  closed-form perturbations, one per factor) from one-dimensional factor
  moments, W = tau (sum_i E_i|phi_i'|^2 + R) + sum_i E_i[phi_i] + c - n;
* ``TrialFunction`` holds phi = amplitude * prod_i g_i, computes each factor
  integral of its profiles once and combines them with the product rule.

Together they verify the minimizer identity W(g, f + c, 1) = mu, the infimum
property W >= mu, and supply the trial integrals of the entropy-energy and
Sobolev checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import KindMismatchError, NormalizationError
from .quadrature import gaussian_cutoff, quad_ab
from .spaces import SolitonSpace, sphere_area

def mu_closed_form(space: SolitonSpace) -> float:
    """Entropy constant mu of a catalogue space from the closed form.

    Defined through (4 pi)^{-n/2} integral of exp(-f) dv = exp(mu); zero on
    the flat gaussian space and negative on the sphere and cylinder.
    """
    n = space.n
    if space.kind == "gaussian":
        return 0.0
    if space.kind == "sphere":
        return -0.5 * n * math.log(4.0 * math.pi) - 0.5 * n + math.log(space.volume)
    r = space.sphere_radius
    factor_volume = sphere_area(n - 1, r)  # S^{n-1} factor
    line_mass = 2.0 * math.sqrt(math.pi)   # integral of exp(-s^2/4)
    return (
        -0.5 * n * math.log(4.0 * math.pi)
        - 0.5 * (n - 1)
        + math.log(factor_volume * line_mass)
    )


# ---------------------------------------------------------------------------
# the factor list
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factor:
    """One one-dimensional factor of a catalogue space, in its coordinate x.

    ``weight`` is the measure density in x and ``scale * x`` the geodesic
    distance from the pole (signed on the line). x runs over [0, end], or
    over [-end, end] when ``signed``. ``f`` is the factor's part of the
    potential and ``df`` its derivative in arc length; ``tail`` is the
    distance past which exp(-f) is negligible (infinite on a compact factor).
    """

    weight: Callable[[np.ndarray], np.ndarray]
    scale: float
    end: float
    signed: bool
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    tail: float

    def interval(self, radius: float) -> tuple[float, float]:
        """Coordinate range of the points within ``radius`` of the pole."""
        hi = min(radius / self.scale, self.end)
        return (-hi if self.signed else 0.0), hi


def factors(space: SolitonSpace) -> list[Factor]:
    """The space as a product of one-dimensional factors about its pole."""
    n = space.n
    tail = gaussian_cutoff(math.sqrt(2.0))  # exp(-x^2/4) has width sqrt 2 at every tau

    def quarter_square(x):
        return x * x / 4.0

    def half(x):
        return x / 2.0

    if space.kind == "gaussian":
        area = sphere_area(n - 1)
        return [Factor(lambda x: area * x ** (n - 1), 1.0, math.inf, False,
                       quarter_square, half, tail)]
    # the zonal factor of a round S^k of radius sqrt(2(k-1)) carries f = k/2
    k = n if space.kind == "sphere" else n - 1
    r = space.sphere_radius
    area = sphere_area(k - 1) * r ** k
    zonal = Factor(lambda u: area * np.sin(u) ** (k - 1), r, math.pi, False,
                   lambda u: k / 2.0, lambda u: 0.0, math.inf)
    if space.kind == "sphere":
        return [zonal]
    return [zonal, Factor(lambda s: 1.0, 1.0, math.inf, True, quarter_square, half, tail)]


def _product_rule(values, parts) -> float:
    """Sum over i of parts[i] times the product of values[j], j != i."""
    return sum(math.prod(p if j == i else v for j, (v, p) in enumerate(zip(values, parts)))
               for i in range(len(values)))


@dataclass(frozen=True)
class EntropyReport:
    mu: float
    method: str                 # closed_form | quadrature
    quadrature_error: float     # error estimate of that quadrature, over all factors
    normalization_check: float  # quadrature of (4 pi)^{-n/2} e^{-f} dv minus e^mu


def mu(space: SolitonSpace) -> EntropyReport:
    """Closed-form mu together with its quadrature cross-check."""
    closed = mu_closed_form(space)
    pref = (4.0 * math.pi) ** (-space.n / 2.0)
    parts = [quad_ab(lambda x, fac=fac: fac.weight(x) * np.exp(-fac.f(x)),
                     *fac.interval(fac.tail))
             for fac in factors(space)]
    values = [v for v, _ in parts]
    total = pref * math.prod(values)
    err = pref * _product_rule(values, [e for _, e in parts])
    return EntropyReport(closed, "closed_form", err, total - math.exp(closed))


# ---------------------------------------------------------------------------
# radial profiles and trial functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """Closed-form compactly supported radial profile with its derivative.

    kind "bump" is the C^1 polynomial (1 - (d/cutoff)^2)^2; kind "gaussian"
    is exp(-d^2 / (2 sigma^2)) minus its cutoff value, clamped at zero, which
    is Lipschitz with compact support; kind "talenti" is the critical-Sobolev
    extremal shape (1 + (d/sigma)^2)^{-power}, truncated the same way; kind
    "const" is the indicator of the cutoff ball (the constant trial on a
    compact space once the cutoff exceeds the diameter).
    """

    kind: str
    sigma: float
    cutoff: float
    power: float = 0.5

    def _shape(self, d):
        """The profile before its value at the cutoff is subtracted."""
        if self.kind == "bump":
            return (1.0 - (d / self.cutoff) ** 2) ** 2
        if self.kind == "talenti":
            return (1.0 + (d / self.sigma) ** 2) ** -self.power
        return np.exp(-d * d / (2.0 * self.sigma ** 2))

    def value(self, d: np.ndarray) -> np.ndarray:
        # even in d so line profiles can be fed signed coordinates
        v = 1.0 if self.kind == "const" else self._shape(d) - self._shape(self.cutoff)
        return np.where(np.abs(d) < self.cutoff, v, 0.0)

    def deriv(self, d: np.ndarray) -> np.ndarray:
        if self.kind == "const":
            v = 0.0
        elif self.kind == "bump":
            v = -4.0 * d / self.cutoff ** 2 * (1.0 - (d / self.cutoff) ** 2)
        elif self.kind == "talenti":
            v = (-2.0 * self.power * d / self.sigma ** 2
                 * (1.0 + (d / self.sigma) ** 2) ** -(self.power + 1.0))
        else:
            v = -d / self.sigma ** 2 * np.exp(-d * d / (2.0 * self.sigma ** 2))
        return np.where(np.abs(d) < self.cutoff, v, 0.0)


def _xlogx(v: np.ndarray) -> np.ndarray:
    return v * np.log(np.where(v > 0.0, v, 1.0))


@dataclass
class TrialFunction:
    """A normalized trial phi for the entropy-energy inequalities.

    phi = amplitude * prod_i g_i, one profile per factor of the space, each
    in the geodesic distance of its factor from the pole: on gaussian and
    sphere spaces phi(x) = amplitude * g(d(x, pole)); on the cylinder phi is
    a sphere factor profile (in arc length from the pole direction) times a
    line profile (in s). The factor integrals of the profiles (g^2, g'^2,
    g^2 ln g^2, |g|^p) are computed once per trial and combined with the
    product rule; ``normalize`` sets the amplitude and the norm defect.
    """

    space: SolitonSpace
    profile: RadialProfile
    line_profile: RadialProfile | None = None
    amplitude: float = field(init=False)
    norm_defect: float = field(init=False)
    _integrals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.space.kind == "cylinder" and self.line_profile is None:
            raise KindMismatchError("cylinder trials need a line profile")
        if self.space.kind != "cylinder" and self.line_profile is not None:
            raise KindMismatchError("line profile only makes sense on the cylinder")
        self.normalize()

    def _factor_integrals(self, key, h) -> list[float]:
        """Integral of h(profile, distance) over each factor, computed once."""
        if key not in self._integrals:
            self._integrals[key] = [
                quad_ab(lambda x, fac=fac, g=g: fac.weight(x) * h(g, fac.scale * x),
                        *fac.interval(g.cutoff))[0]
                for fac, g in zip(factors(self.space), (self.profile, self.line_profile))]
        return self._integrals[key]

    def _mass(self) -> list[float]:
        return self._factor_integrals("mass", lambda g, d: g.value(d) ** 2)

    def normalize(self) -> None:
        """Scale the amplitude so that the L2 norm is one."""
        total = math.prod(self._mass())
        if total <= 0.0:
            raise NormalizationError("trial function has zero L2 mass")
        self.amplitude = 1.0 / math.sqrt(total)
        self.norm_defect = abs(self.int_phi2() - 1.0)
        if self.norm_defect > 1e-8:
            raise NormalizationError(
                f"trial normalization defect {self.norm_defect:.3e} beyond tolerance"
            )

    def int_phi2(self) -> float:
        return math.prod(self._mass(), start=self.amplitude ** 2)

    def int_grad2(self) -> float:
        """Integral of |grad phi|^2."""
        grad = self._factor_integrals("grad", lambda g, d: g.deriv(d) ** 2)
        return self.amplitude ** 2 * _product_rule(self._mass(), grad)

    def int_R_phi2(self) -> float:
        return self.space.sup_R * self.int_phi2()  # R is constant on the catalogue

    def int_entropy(self) -> float:
        """Integral of phi^2 ln(phi^2), using the normalization ∫phi^2 = 1."""
        a2 = self.amplitude ** 2
        ent = self._factor_integrals("entropy", lambda g, d: _xlogx(g.value(d) ** 2))
        return math.log(a2) + a2 * _product_rule(self._mass(), ent)

    def int_power(self, p: float) -> float:
        """Integral of |phi|^p."""
        powers = self._factor_integrals(("power", p), lambda g, d: np.abs(g.value(d)) ** p)
        return math.prod(powers, start=self.amplitude ** p)

    def dilated(self, lam: float) -> "TrialFunction":
        """u(lam x) rescaling; only meaningful on the flat gaussian space."""
        if self.space.kind != "gaussian":
            raise KindMismatchError("dilation is only defined on the gaussian space")
        p = RadialProfile(self.profile.kind, self.profile.sigma / lam,
                          self.profile.cutoff / lam, power=self.profile.power)
        return TrialFunction(self.space, p)


def random_trials(space: SolitonSpace, count: int, seed: int) -> list[TrialFunction]:
    """Deterministic list of normalized random trial functions, of widths
    sigma in [0.35, 1.6]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        kind = "bump" if rng.random() < 0.5 else "gaussian"
        sigma = float(rng.uniform(0.35, 1.6))
        cutoff = sigma * float(rng.uniform(3.0, 6.0))
        if space.kind != "gaussian":
            cutoff = min(cutoff, 0.95 * math.pi * space.sphere_radius)
        line = None
        if space.kind == "cylinder":
            line = RadialProfile(kind, float(rng.uniform(0.35, 1.6)), float(rng.uniform(1.5, 5.0)))
        out.append(TrialFunction(space, RadialProfile(kind, sigma, cutoff), line))
    return out


# ---------------------------------------------------------------------------
# W functional for soliton-shaped log densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityPerturbation:
    """Additive closed-form perturbation of the soliton log density.

    The perturbed log density is f + c + eps * bump(d) on gaussian/sphere
    spaces; on the cylinder an optional separate line bump in s is added so
    the density stays a product. c is recomputed so the density integrates
    to one.
    """

    eps: float
    bump: RadialProfile
    line_eps: float = 0.0
    line_bump: RadialProfile | None = None

    def __post_init__(self):
        # non-finite parameters would feed inf into the quadrature layer
        if not (math.isfinite(self.eps) and math.isfinite(self.line_eps)):
            raise NormalizationError("perturbation amplitudes must be finite")


def w_entropy(space: SolitonSpace, trial: DensityPerturbation | None, tau: float) -> float:
    """Value of the W functional at the (perturbed) soliton log density.

    The log density is phi = f + c + perturbation with c fixed by the
    constraint that (4 pi tau)^{-n/2} exp(-phi) integrates to one; a
    NormalizationError is raised if an independent re-check of that
    constraint is off by more than 1e-7. The density is a product
    over the factors, so every term of W is a sum of factor moments E_i.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    bumps = [(0.0, None)] * 2 if trial is None else [
        (trial.eps, trial.bump), (trial.line_eps, trial.line_bump)]
    log_z, mass, energy = zip(*(_density_moments(fac, eps, b, tau)
                                for fac, (eps, b) in zip(factors(space), bumps)))
    defect = abs(math.prod(mass) - 1.0)
    if not defect <= 1e-7:  # also catches a non-finite mass
        raise NormalizationError(f"density normalization defect {defect:.3e}")
    # c = ln((4 pi tau)^{-n/2} prod_i Z_i), the log of the density's total mass
    c = sum(log_z) - 0.5 * space.n * math.log(4.0 * math.pi * tau)
    # W = tau (sum_i E_i|phi_i'|^2 + R) + sum_i E_i[phi_i] + c - n
    return sum(energy) + tau * space.sup_R + c - space.n


def _density_moments(fac: Factor, eps: float, b: RadialProfile | None, tau: float):
    """(ln Z, E[1], E[tau phi'^2 + phi]) of the factor density exp(-phi) / Z,
    phi = f + eps * b(distance), with E[1] an independent re-quadrature."""

    def phi(x):
        return fac.f(x) + (eps * b.value(fac.scale * x) if b else 0.0)

    def dphi(x):
        return fac.df(x) + (eps * b.deriv(fac.scale * x) if b else 0.0)

    lo, hi = fac.interval(max(fac.tail, b.cutoff if b else 0.0))
    brk = fac.interval(b.cutoff) if b else None  # the bump's edge is a kink

    def moment(h):
        return quad_ab(lambda x: fac.weight(x) * np.exp(-phi(x)) * h(x), lo, hi, points=brk)[0]

    z = moment(lambda x: 1.0)
    return math.log(z), moment(lambda x: 1.0 / z), moment(lambda x: tau * dphi(x) ** 2 + phi(x)) / z


def minimizer_check(space: SolitonSpace) -> float:
    """|W(g, f + c, 1) - mu|; the soliton potential minimizes W at tau = 1."""
    return abs(w_entropy(space, None, 1.0) - mu_closed_form(space))


def random_perturbations(space: SolitonSpace, count: int, seed: int) -> list[DensityPerturbation]:
    """Seeded perturbations for probing the infimum property of W, of
    amplitudes in [-0.35, 0.35]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        kind = "bump" if rng.random() < 0.5 else "gaussian"
        sigma = float(rng.uniform(0.4, 1.8))
        cutoff = sigma * float(rng.uniform(3.0, 6.0))
        if space.kind != "gaussian":
            cutoff = min(cutoff, 0.95 * math.pi * space.sphere_radius)
        eps = float(rng.uniform(-0.35, 0.35))
        line_eps, line = 0.0, None
        if space.kind == "cylinder" and rng.random() < 0.5:
            line = RadialProfile(kind, float(rng.uniform(0.4, 1.5)), float(rng.uniform(1.5, 4.0)))
            line_eps = float(rng.uniform(-0.35, 0.35))
        out.append(DensityPerturbation(eps, RadialProfile(kind, sigma, cutoff), line_eps, line))
    return out
