"""Internal quadrature helpers.

Thin wrappers around scipy's adaptive Gauss-Kronrod rule (also in the log
variable, for slowly decaying integrands), imported on first use; cached
Gauss-Legendre rules computed with numpy alone; and the truncation policy used
everywhere in this package: improper integrals over the line / R^n are cut
at 12 standard widths of the dominating Gaussian factor.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# absolute tolerance per adaptive integral; entropy defects at 1e-8 must be
# resolvable, so individual integrals are pushed well below that
EPSABS = 1e-12
EPSREL = 1e-11

LIMIT = 200  # subintervals per adaptive integral
TAIL_WIDTHS = 12.0  # Gaussian tails are analytically dominated past this


def _quad(f, a: float, b: float, points=None) -> tuple[float, float]:
    """scipy's adaptive rule at the package tolerances, imported on first use
    (``scipy.integrate`` loads ``scipy.optimize``)."""
    from scipy.integrate import quad
    return quad(f, a, b, epsabs=EPSABS, epsrel=EPSREL, limit=LIMIT, points=points)


def quad_ab(f, a: float, b: float, points=None) -> tuple[float, float]:
    """Adaptive integral of f over [a, b]; returns (value, error estimate).

    ``points`` marks interior breakpoints (profile cutoffs and similar kinks)
    so the adaptive rule does not chase spurious roundoff around them.
    """
    if points is not None:
        points = [p for p in points if a < p < b]
        if not points:
            points = None
    return _quad(f, a, b, points)


def quad_log(f, a: float, b: float) -> tuple[float, float]:
    """Adaptive integral over [a, b] in the log variable (a, b > 0)."""
    return _quad(lambda s: f(math.exp(s)) * math.exp(s), math.log(a), math.log(b))


def _legendre_rows(k: int, x: np.ndarray) -> np.ndarray:
    """P_0(x) .. P_k(x) by the three-term recurrence, one row per degree."""
    p = np.empty((k + 1,) + x.shape)
    p[0] = 1.0
    p[1] = x
    for j in range(2, k + 1):
        p[j] = ((2 * j - 1) * x * p[j - 1] - (j - 1) * p[j - 2]) / j
    return p


@lru_cache(maxsize=32)
def leggauss(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes and weights on [-1, 1], nodes ascending,
    as read-only arrays.

    Newton's method on P_k, evaluated by its three-term recurrence, from
    Tricomi's asymptotic guesses for the nodes in (0, 1); it stops one step
    after a step below 1e-10, and the rule is mirrored about 0, which is a
    node for odd k. The weights are the Christoffel numbers
    2 / sum_{j<k} (2j + 1) P_j(x)^2, a sum of positive terms that, unlike
    2 (1 - x^2) / (k P_{k-1}(x))^2, does not amplify the node's rounding
    (up to 1e-9 relative at the outermost of 400 nodes).
    """
    if k < 1:
        raise ValueError(f"a Gauss-Legendre rule needs k >= 1 nodes, got {k}")
    i = np.arange(1, k // 2 + 1)
    x = (1.0 - (k - 1) / (8.0 * k ** 3)) * np.cos(math.pi * (4 * i - 1) / (4 * k + 2))
    done = False
    while not done:
        p = _legendre_rows(k, x)
        dx = p[k] * (1.0 - x * x) / (k * (p[k - 1] - x * p[k]))  # P_k / P_k'
        x -= dx
        done = np.max(np.abs(dx), initial=0.0) <= 1e-10
    p = _legendre_rows(k, x)
    x -= p[k] * (1.0 - x * x) / (k * (p[k - 1] - x * p[k]))
    if k % 2:
        x = np.append(x, 0.0)
    p = _legendre_rows(max(k - 1, 1), x)[:k]
    w = 2.0 / np.sum((2.0 * np.arange(k) + 1.0)[:, None] * p * p, axis=0)
    half = k // 2
    x, w = np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))
    x.flags.writeable = w.flags.writeable = False  # shared by every caller
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
