#!/usr/bin/env python3
"""Three evaluation routes for the Schrodinger heat kernel.

Closed form on the flat space, zonal spectral series on the sphere and
cylinder, and a Dirichlet finite-difference march bootstrapped from the
exact profile. The routes are compared where they overlap, and the kernel
axioms (positivity, mass, semigroup) are verified on each.
"""

import math

from solitonlab import verify
from solitonlab.entropy import mu_closed_form
from solitonlab.kernels import (
    CylinderHeatKernel,
    DirichletRadialHeatKernel,
    EuclideanHeatKernel,
    SphereHeatKernel,
)
from solitonlab.spaces import make_space, parse_space
from solitonlab.spectral import discretize_radial

print("flat space closed form (this IS the Schrodinger kernel: R vanishes)")
print("=" * 72)
ek = EuclideanHeatKernel(make_space("gaussian", 3))
x0 = ek.space.point([0, 0, 0])
print(f"  H(x, x, 1)      = {ek(x0, x0, 1.0):.9f}   = (4 pi)^(-3/2)")
print(f"  H at |x-y| = 2  = {ek(x0, ek.space.point([2, 0, 0]), 1.0):.9f}")

print()
print("sphere:2 zonal series (a = 1/4)")
print("=" * 72)
sk = SphereHeatKernel(2, 0.25)
for theta in (0.0, 1.0, math.pi):
    v, err = sk.at(theta, 0.5)
    print(f"  theta = {theta:5.3f}, t = 0.5:  H = {v: .9e}   series error <= {err:.1e}")
v, _ = sk.at(1.0, 60.0)
print(f"  long time projects onto the gap mode: H(t=60) = {v:.3e}"
      f"  vs e^(-t/4)/V = {math.exp(-15.0) / (8 * math.pi):.3e}")

print()
print("cylinder:3 product kernel (a = 1/4)")
print("=" * 72)
ck = CylinderHeatKernel(3, 0.25)
xc = ck.space.point([1, 0, 0], s=0.0)
yc = ck.space.point([0, 1, 0], s=1.0)
print(f"  H(x, y, 0.7) = {ck(xc, yc, 0.7):.9e}   (swap: {ck(yc, xc, 0.7):.9e})")

print()
print("Dirichlet finite differences on the flat ball (R_max = 20, m = 1024)")
print("=" * 72)
op = discretize_radial(make_space("gaussian", 3), 20.0, 1024)
fdk = DirichletRadialHeatKernel(op, 1e-3, r_accuracy=4.5)
print("  t      r    fd kernel        closed form      rel err")
for t in (0.1, 1.0):
    for r in (0.0, 2.0, 4.0):
        v, _ = fdk.evaluate(r, t)
        exact = (4 * math.pi * t) ** -1.5 * math.exp(-r * r / (4 * t))
        print(f"  {t:4.1f} {r:4.1f}   {v: .6e}   {exact: .6e}   {abs(v / exact - 1):.1e}")
print(f"  discrete mass at t = 1: {fdk.mass(1.0):.8f}  (<= 1 up to the fd tolerance)")

print()
print("kernel axioms on every route")
print("=" * 72)
for label, ev, tol in [("gaussian closed form", EuclideanHeatKernel(make_space("gaussian", 2)),
                        verify.ANALYTIC_TOL),
                       ("sphere series", sk, verify.ANALYTIC_TOL),
                       ("cylinder product", ck, verify.ANALYTIC_TOL),
                       ("fd dirichlet", fdk, verify.FD_TOL)]:
    rep = verify.kernel_axioms(ev, seed=3, tol=tol)
    worst = {r["x_id"]: r["lhs"] for r in rep.points}
    print(f"  {label:22s} passed={rep.passed}  " +
          "  ".join(f"{k}={v:.1e}" for k, v in worst.items()))
