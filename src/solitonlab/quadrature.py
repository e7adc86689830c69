"""Internal quadrature helpers, numpy only.

Every integral a check computes is one fixed composite Gauss-Legendre sum,
``quad_ab`` (``quad_log`` in the log variable), of an integrand on an array
of nodes; march nodes take Simpson weights. Gauss-Legendre rules are cached,
and improper integrals over the line / R^n are cut at 12 standard widths.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

EPS = float(np.finfo(float).eps)
# Gauss-Legendre nodes per panel and equal panels per piece between
# breakpoints; the error estimate is the same rule on half the panels
RULE_NODES, RULE_PANELS = 24, 16
TAIL_WIDTHS = 12.0  # Gaussian tails are analytically dominated past this


@lru_cache(maxsize=1)
def _panel_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on [0, 1] of the rule on RULE_PANELS panels, then on half as
    many, and the weights of each rule."""
    x, w = leggauss(RULE_NODES)
    (fine, wf), (coarse, wc) = (((np.arange(p)[:, None] + 0.5 * (x + 1.0)).ravel() / p,
                                 np.tile(w, p) / (2 * p)) for p in (RULE_PANELS, RULE_PANELS // 2))
    return np.concatenate((fine, coarse)), wf, wc


def quad_ab(f, a: float, b: float, points=None) -> tuple[float, float]:
    """Integral of f over [a, b], split at the ``points`` inside it (kinks):
    (value, error estimate). f is called once, on the nodes of the rule on
    each piece and of the same rule on half the panels; the estimate is the
    difference of the two sums plus 16 eps of the sum of the modulus."""
    cuts = np.array([a, *sorted(p for p in points or () if a < p < b), b], dtype=float)
    u, wf, wc = _panel_rule()
    width = cuts[1:] - cuts[:-1]
    y = f((cuts[:-1, None] + width[:, None] * u).ravel()).reshape(len(width), -1)
    k = len(wf)
    fine, coarse = float(y[:, :k] @ wf @ width), float(y[:, k:] @ wc @ width)
    return fine, abs(fine - coarse) + 16.0 * EPS * abs(float(np.abs(y[:, :k]) @ wf @ width))


def quad_log(f, a: float, b: float) -> tuple[float, float]:
    """``quad_ab`` over [a, b] in the log variable (a, b > 0)."""
    return quad_ab(lambda s: f(np.exp(s)) * np.exp(s), math.log(a), math.log(b))


def simpson_weights(count: int, h: float) -> np.ndarray:
    """Composite Simpson weights of ``count`` >= 3 samples spaced h apart, as
    ``scipy.integrate.simpson`` applies them: h/3 (1, 4, 2, 4, ..., 4, 1) on
    an odd count; on an even count that rule without the last sample, plus
    Cartwright's (-1/12, 2/3, 5/12) h on the last three."""
    odd = count - 1 + count % 2  # samples under the plain rule
    w = np.zeros(count)
    w[:odd] = np.where(np.arange(odd) % 2, 4.0, 2.0)
    w[[0, odd - 1]] = 1.0
    if odd < count:
        w[-3:] += [-0.25, 2.0, 1.25]
    return w * (h / 3.0)


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
