"""Internal quadrature helpers.

Thin wrappers around scipy's adaptive Gauss-Kronrod rule (also in the log
variable, for slowly decaying integrands) plus the truncation policy used
everywhere in this package: improper integrals over the line / R^n are cut
at 12 standard widths of the dominating Gaussian factor.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

# absolute tolerance per adaptive integral; entropy defects at 1e-8 must be
# resolvable, so individual integrals are pushed well below that
EPSABS = 1e-12
EPSREL = 1e-11

LIMIT = 200  # subintervals per adaptive integral
TAIL_WIDTHS = 12.0  # Gaussian tails are analytically dominated past this


def quad_ab(f, a: float, b: float, points=None) -> tuple[float, float]:
    """Adaptive integral of f over [a, b]; returns (value, error estimate).

    ``points`` marks interior breakpoints (profile cutoffs and similar kinks)
    so the adaptive rule does not chase spurious roundoff around them.
    """
    if points is not None:
        points = [p for p in points if a < p < b]
        if not points:
            points = None
    val, err = quad(f, a, b, epsabs=EPSABS, epsrel=EPSREL, limit=LIMIT, points=points)
    return val, err


def quad_log(f, a: float, b: float) -> tuple[float, float]:
    """Adaptive integral over [a, b] in the log variable (a, b > 0)."""
    val, err = quad(
        lambda s: f(math.exp(s)) * math.exp(s),
        math.log(a),
        math.log(b),
        epsabs=EPSABS,
        epsrel=EPSREL,
        limit=LIMIT,
    )
    return val, err


@lru_cache(maxsize=32)
def leggauss(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(k)
    return x, w


def leggauss_ab(k: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = leggauss(k)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), w * half


def gaussian_cutoff(width: float) -> float:
    """Truncation radius for integrands dominated by exp(-(x/width)^2 / 2),
    at least 1."""
    return TAIL_WIDTHS * max(width, 1.0 / TAIL_WIDTHS)
