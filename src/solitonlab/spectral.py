"""Spectra of the Schrodinger operator -Laplacian + a R.

Analytic spectra on round spheres (harmonic levels with their
multiplicities), symmetric finite-difference discretizations of the
radial operator on truncated Dirichlet balls of the flat gaussian space,
and the partition function, read as the heat-kernel trace.
The discretization is the conservative flux form, which is second-order
accurate and exactly symmetric under the discrete volume weights; the origin
row reduces to the removable-singularity limit n * u''(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, EigenSolveError, KindMismatchError
from .spaces import SolitonSpace, sphere_area


def sphere_multiplicity(n: int, l: int) -> int:
    """Dimension of the degree-l harmonic space on the round n-sphere:
    C(n + l, n) - C(n + l - 2, n), in exact integers."""
    return math.comb(n + l, n) - math.comb(n + l - 2, n)


def sphere_eigenvalue(n: int, a: float, l: int) -> float:
    """Eigenvalue of -Laplacian + a R at harmonic level l on the model
    sphere, of radius sqrt(2(n-1))."""
    r = math.sqrt(2.0 * (n - 1))
    return l * (l + n - 1) / (r * r) + a * n / 2.0


@dataclass
class Spectrum:
    """Sorted eigenvalues of the operator, with multiplicity expanded.

    ``levels`` keeps the (level, eigenvalue, multiplicity) table when the
    spectrum is analytic; discretized spectra have ``levels`` set to None and
    may carry eigenvectors in the nodal basis.
    """

    values: np.ndarray
    a: float
    levels: list[tuple[int, float, int]] | None = None
    eigenvectors: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.values) < -1e-12):
            raise ValueError("spectrum must be ascending")

    def __len__(self):
        return len(self.values)


def sphere_spectrum(n: int, a: float, l_max: int) -> Spectrum:
    """Analytic spectrum of -Laplacian + a R on the model n-sphere up to level l_max."""
    if n < 2:
        raise DimensionError("sphere spectra need n >= 2")
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    levels = [(l, sphere_eigenvalue(n, a, l), sphere_multiplicity(n, l))
              for l in range(l_max + 1)]
    # the eigenvalues ascend with the level, so the expansion is sorted
    _, lam, mult = zip(*levels)
    return Spectrum(np.repeat(lam, mult), a, levels=levels)


@dataclass(frozen=True)
class DiscretizedOperator:
    """Radial discretization of -Laplacian + a R on a Dirichlet ball.

    Nodes sit at r_i = i h for i = 0 .. m-1 with the Dirichlet condition at
    r_m = R_max. ``weights`` are the cell volumes of the radial measure
    (surface area times the integral of r^{n-1} over each cell), under which
    the operator is exactly symmetric.
    """

    space: SolitonSpace
    R_max: float
    m: int
    a: float
    h: float
    r: np.ndarray
    weights: np.ndarray
    lower: np.ndarray   # sub-diagonal of the raw (non-symmetric) action
    diag: np.ndarray
    upper: np.ndarray

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The operator on nodal values along the last axis of u."""
        out = self.diag * u
        out[..., :-1] += self.upper * u[..., 1:]
        out[..., 1:] += self.lower * u[..., :-1]
        return out

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(self.weights * u * v))

    def symmetric_tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, off-diagonal) of W^{1/2} A W^{-1/2}, which is symmetric."""
        sw = np.sqrt(self.weights)
        off = self.upper * sw[:-1] / sw[1:]
        return self.diag.copy(), off

    def mass(self, u: np.ndarray) -> float:
        return float(np.sum(self.weights * u))


def discretize_radial(space: SolitonSpace, R_max: float, m: int, a: float = 0.0) -> DiscretizedOperator:
    """Conservative second-order radial discretization on (0, R_max].

    Only the gaussian space is meshed (its kernels are rotation invariant
    about the source); R vanishes there, so the a R term contributes zero and
    ``a`` is only recorded. Flux form: (A u)_i = (F_{i-1/2} + F_{i+1/2}) / w_i with
    F_{i+1/2} = area * r_{i+1/2}^{n-1} (u_i - u_{i+1})/h and zero flux through
    the origin. The origin row equals the n * u''(0) limit of the operator.
    """
    if space.kind != "gaussian":
        raise KindMismatchError("radial discretization is defined on gaussian spaces only")
    if R_max <= 0.0:
        raise ValueError("R_max must be positive")
    if m < 16:
        raise ValueError("need at least 16 grid points")
    n = space.n
    h = R_max / m
    idx = np.arange(m)
    r = idx * h
    area = sphere_area(n - 1)

    half = (idx + 0.5) * h
    flux = area * half ** (n - 1) / h  # conductance through face i + 1/2
    # cell volumes: integral of area * r^{n-1} over [r_i - h/2, r_i + h/2] ∩ [0, R_max]
    edges_lo = np.maximum((idx - 0.5) * h, 0.0)
    edges_hi = (idx + 0.5) * h
    weights = area * (edges_hi ** n - edges_lo ** n) / n

    diag = np.empty(m)
    diag[0] = flux[0] / weights[0]
    diag[1:] = (flux[:-1] + flux[1:]) / weights[1:]
    upper = -flux[: m - 1] / weights[: m - 1]
    lower = -flux[: m - 1] / weights[1:]

    return DiscretizedOperator(space, float(R_max), int(m), float(a), float(h),
                               r, weights, lower, diag, upper)


def eigen_solve(op: DiscretizedOperator, k: int, eigenvectors: bool = False) -> Spectrum:
    """k smallest eigenvalues of the discretized operator, ascending.

    Deterministic: solved through the symmetrized tridiagonal form with a
    direct method. Eigenvectors, when requested, are returned in the nodal
    basis (columns), normalized in the weighted inner product.
    """
    if not 1 <= k <= op.m:
        raise ValueError(f"k must lie in [1, {op.m}]")
    from scipy.linalg import eigh_tridiagonal
    d, e = op.symmetric_tridiagonal()
    try:
        if eigenvectors:
            vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
        else:
            vals = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1),
                                    eigvals_only=True)
            vecs = None
    except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy rarely fails here
        raise EigenSolveError(f"tridiagonal eigensolver failed: {exc}") from exc
    if vecs is not None:
        # symmetrized coordinates back to nodal values, weighted-normalized
        vecs = vecs / np.sqrt(op.weights)[:, None]
        norms = np.sqrt(np.sum(op.weights[:, None] * vecs ** 2, axis=0))
        vecs = vecs / norms
        residual = _worst_residual(op, vals, vecs)
        if residual > 1e-8 * max(1.0, float(vals[-1])):
            raise EigenSolveError("eigenpair residual too large", residual=residual)
    return Spectrum(vals, op.a, eigenvectors=vecs)


def _worst_residual(op: DiscretizedOperator, vals: np.ndarray, vecs: np.ndarray) -> float:
    worst = 0.0
    for j in range(vecs.shape[1]):
        res = op.apply(vecs[:, j]) - vals[j] * vecs[:, j]
        worst = max(worst, math.sqrt(op.inner(res, res)))
    return worst


def partition_function(kernel, t: float) -> tuple[float, float]:
    """Z(t) = sum_i exp(-lambda_i t) on the homogeneous compact space of
    ``kernel``, read as the heat-kernel trace V H(o, o, t): (V h, V err) from
    the kernel's value and error estimate at the pole. Times the kernel does
    not take raise its TimeDomainError, a ValueError."""
    p = kernel.space.pole()
    h, err = kernel.evaluate(p, p, t)
    V = kernel.space.volume
    return V * h, V * err


def weyl_constant(n: int) -> float:
    """Leading Weyl coefficient c(n) = 4 pi^2 omega_n^{-2/n}."""
    omega = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    return 4.0 * math.pi ** 2 * omega ** (-2.0 / n)


def counting_function(spectrum: Spectrum, lam: float) -> int:
    """Number of eigenvalues (with multiplicity) at or below lam."""
    return int(np.searchsorted(spectrum.values, lam, side="right"))
