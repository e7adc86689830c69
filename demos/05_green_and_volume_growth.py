#!/usr/bin/env python3
"""Green's functions of the Schrodinger operator and the volume-growth screen.

Each space kind takes one Green's-function route, chosen from the
separation: the closed form on the flat space, the Dirichlet-Mehler integral
on every sphere, and on the cylinder the line-resolvent mode sum or, at line
offset 0, the line's Fourier integral over the sphere factor. Each value
comes with its route and error estimate. On the flat space the closed form
is the inverse-distance law; on the compact spheres the gap a R > 0 makes
the Green's function finite, with the flat blowup theta^{2-n} at small
angles. The volume-growth integral flags the spaces that cannot carry a
positive Laplace Green's function.
"""

import math

import numpy as np

from solitonlab.kernels import green, volume_growth_integral
from solitonlab.spaces import make_space, parse_space

print("flat space, n = 3: G = 1 / (4 pi r)")
print("=" * 72)
sp = make_space("gaussian", 3)
gv = green(sp, 0.25)
x = sp.point([0, 0, 0])
for r in (0.5, 1.0, 2.0, 4.0):
    y = sp.point([r, 0, 0])
    v, err, route = gv.evaluate(x, y)
    print(f"  r = {r:3.1f}:  G = {v:.8f} ({route}, error <= {err:.1e})"
          f"   1/(4 pi r) = {1 / (4 * math.pi * r):.8f}")

print()
print("flat space, n = 4: the standard constant C(4) = 1/(4 pi^2)")
sp4 = make_space("gaussian", 4)
g4 = green(sp4, 0.25)
v = g4(sp4.point([0, 0, 0, 0]), sp4.point([1.0, 0, 0, 0]))
print(f"  G(r=1) = {v:.10f}   vs {1 / (4 * math.pi ** 2):.10f}")

print()
for n in (3, 4, 5):
    print(f"model {n}-sphere with a = 1/4: finite, with the theta^{2 - n} blowup")
    print("=" * 72)
    sn = make_space("sphere", n)
    gs = green(sn, 0.25)
    pole = sn.pole()
    thetas = np.array([0.02, 0.05, 0.1, math.pi / 2, 3.0, math.pi])
    vals = []
    for th in thetas:
        v, err, route = gs.evaluate(pole, sn.point_at_distance(th * sn.sphere_radius))
        vals.append(v)
        print(f"  theta = {th:5.3f}:  G = {v:.10e}  ({route}, error <= {err:.1e})")
    slope = np.polyfit(np.log(thetas[:3]), np.log(vals[:3]), 1)[0]
    print(f"  small-angle log-log slope: {slope:.4f}  (flat: {2 - n})")
    print()

print("cylinder S^2 x R with a = 1/4: the line series off the slice s = 0")
print("=" * 72)
c3 = make_space("cylinder", 3)
gc = green(c3, 0.25)
x = c3.point([1, 0, 0], s=0.0)
for th, s in ((0.5, 0.0), (0.5, 0.5), (0.01, 0.0)):
    v, err, route = gc.evaluate(x, c3.point([math.cos(th), math.sin(th), 0], s=s))
    print(f"  theta = {th:4.2f}, s = {s:3.1f}:  G = {v:.10e}  ({route}, error <= {err:.1e})")

print()
print("volume-growth screen: integral of t / V(ball(t)) over [1, T]")
print("=" * 72)
for tok, tmax in [("gaussian:3", 1e6), ("gaussian:2", 1e5), ("sphere:3", 1e4),
                  ("cylinder:3", 1e4)]:
    res = volume_growth_integral(parse_space(tok), tmax)
    verdict = "divergent -> no positive Laplace Green's function" if res.divergent \
        else f"convergent (value {res.value:.6f})"
    print(f"  {tok:12s} {verdict}")
print(f"  gaussian:3 reference value 3/(4 pi) = {3 / (4 * math.pi):.6f}")
