#!/usr/bin/env python3
"""Green's functions of the Schrodinger operator and the volume-growth screen.

The Green's function takes an exact route where the space has one: the
closed form on the flat space, the sinh form on the 3-sphere and the
line-resolvent mode sum on the cylinder. Elsewhere it is the time integral
of the kernel, split at t = d^2 with a rigorously bounded tail; on the flat
space that integral reproduces the inverse-distance law, and on the compact
sphere the gap a R > 0 makes it converge, with the inverse-separation blowup
at small angles. The volume-growth
integral flags the spaces that cannot carry a positive Laplace Green's
function.
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
    q, q_err = gv.time_integral(x, y)
    print(f"  r = {r:3.1f}:  G = {v:.8f} ({route})   time integral = {q:.8f}"
          f"   integral error <= {q_err:.1e}")

print()
print("flat space, n = 4: the standard constant C(4) = 1/(4 pi^2)")
sp4 = make_space("gaussian", 4)
g4 = green(sp4, 0.25)
v = g4(sp4.point([0, 0, 0, 0]), sp4.point([1.0, 0, 0, 0]))
print(f"  G(r=1) = {v:.10f}   vs {1 / (4 * math.pi ** 2):.10f}")

print()
print("model 3-sphere with a = 1/4: finite, with the 1/theta blowup")
print("=" * 72)
s3 = make_space("sphere", 3)
gs = green(s3, 0.25)
pole = s3.pole()
thetas = np.array([0.02, 0.05, 0.1, math.pi / 2, 3.0])
vals = []
for th in thetas:
    v, _, _ = gs.evaluate(pole, s3.point_at_distance(th * s3.sphere_radius))
    vals.append(v)
    print(f"  theta = {th:5.3f}:  G = {v:.8e}")
slope = np.polyfit(np.log(thetas[:3]), np.log(vals[:3]), 1)[0]
print(f"  small-angle log-log slope: {slope:.4f}  (inverse separation)")

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
