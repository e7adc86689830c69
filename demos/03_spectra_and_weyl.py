#!/usr/bin/env python3
"""Spectra of the Schrodinger operator and the Weyl window.

Analytic harmonic levels on the model sphere, Dirichlet eigenvalues of the
radial discretization on truncated flat balls, the partition function read
as the heat-kernel trace V H(o, o, t) beside an explicit level sum, and the
Weyl ratio over a mid-spectrum window.
"""

import math

import numpy as np

from solitonlab.kernels import SphereHeatKernel
from solitonlab.spaces import make_space
from solitonlab.spectral import (
    discretize_radial,
    eigen_solve,
    partition_function,
    sphere_eigenvalue,
    sphere_multiplicity,
    sphere_spectrum,
    weyl_constant,
)

print("model 2-sphere, coupling a = 1/4: first harmonic levels")
print("=" * 72)
spec = sphere_spectrum(2, 0.25, 6)
for (l, lam, mult) in spec.levels:
    print(f"  level {l}:  lambda = {lam:8.4f}   multiplicity {mult}")

print()
print("radial Dirichlet discretization on flat balls")
print("=" * 72)
op = discretize_radial(make_space("gaussian", 1), math.pi, 2048)
vals = eigen_solve(op, 4).values
print("interval (-pi, pi), even modes:", np.round(vals, 6), " exact: (j+1/2)^2")
op3 = discretize_radial(make_space("gaussian", 3), math.pi, 2048)
print("unit-rate ball, n = 3 ground state:", eigen_solve(op3, 2).values,
      " exact: (j pi / R)^2 = 1, 4")

print()
print("domain monotonicity: growing the ball never raises an eigenvalue")
small = eigen_solve(discretize_radial(make_space("gaussian", 3), 6.0, 192), 5).values
large = eigen_solve(discretize_radial(make_space("gaussian", 3), 12.0, 384), 5).values
for k in range(5):
    print(f"  lambda_{k+1}:  R=6 -> {small[k]:.6f}   R=12 -> {large[k]:.6f}")

print()
print("partition function on sphere:2 (a = 1/4): trace V H(o, o, t) vs level sum")
print("=" * 72)
kernel = SphereHeatKernel(2, 0.25)
for t in (0.01, 0.1, 1.0, 10.0):
    z, err = partition_function(kernel, t)
    # levels to l = 400: the first omitted term is below 1e-300 at t = 0.01
    levels = math.fsum(sphere_multiplicity(2, l) * math.exp(-sphere_eigenvalue(2, 0.25, l) * t)
                       for l in range(401))
    print(f"  t = {t:5.2f}:  trace = {z:12.6f} +- {err:.1e}   level sum = {levels:12.6f}"
          f"   |diff| = {abs(z - levels):.1e}")

print()
print("Weyl window: lambda_k vs c(2) k / V for k in [200, 400]")
print("=" * 72)
spec = sphere_spectrum(2, 0.25, 40)
V = 8.0 * math.pi
cw = weyl_constant(2)
ratios = [spec.values[k - 1] / (cw * k / V) for k in range(200, 401)]
print(f"  c(2) = {cw:.6f} = 4 pi;  ratio range [{min(ratios):.4f}, {max(ratios):.4f}]"
      "  (inside [0.9, 1.1])")
