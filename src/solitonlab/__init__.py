"""solitonlab: numerical checks for Schrodinger heat kernels on model shrinkers.

The package is organized as a small numpy/scipy library:

* :mod:`solitonlab.spaces`   -- the closed-form catalogue (gaussian, sphere,
  cylinder) with geometry primitives and identity self-checks.
* :mod:`solitonlab.entropy`  -- the entropy constant mu, the W functional,
  and normalized trial functions.
* :mod:`solitonlab.spectral` -- analytic sphere spectra, radial Dirichlet
  discretizations, the partition function as the heat-kernel trace.
* :mod:`solitonlab.kernels`  -- heat-kernel evaluators (closed form, zonal
  series, finite differences), Green's functions, volume growth.
* :mod:`solitonlab.verify`   -- the theorem suite producing verification
  reports with worst-case slacks and extracted constants.
* :mod:`solitonlab.cli`      -- config-driven experiment runner.
"""

__version__ = "0.1.0"

from .spaces import (  # noqa: F401
    Point,
    SolitonSpace,
    check_soliton_identities,
    distance,
    make_space,
    parse_space,
)
