#!/usr/bin/env python3
"""Run the full verification suite on each catalogue space.

Every sharp inequality becomes a grid check with a worst-case slack or
ratio; non-explicit constants are extracted and must stabilize under grid
refinement. The final section sweeps the coupling below the 1/4 threshold:
those runs only record outcomes and never gate anything, since nothing is
claimed there.
"""

import math

from solitonlab import verify
from solitonlab.cli import ExperimentConfig, run_suite
from solitonlab.entropy import mu_closed_form
from solitonlab.kernels import SphereHeatKernel
from solitonlab.spaces import parse_space

for tok in ("gaussian:3", "sphere:2", "cylinder:3"):
    cfg = ExperimentConfig(space=tok, a=0.25, seed=7,
                           pairs=16, times=24, trials=25, probe_m=512,
                           m=512, r_max=16.0, c_values=(4.5, 8.0))
    doc, code = run_suite(cfg)
    print(f"suite on {tok}   (exit code {code})")
    print("=" * 72)
    for key in sorted(doc["checks"]):
        chk = doc["checks"][key]
        status = "pass" if chk.get("passed") else "FAIL"
        consts = chk.get("extracted_constants", {})
        shown = {k: round(v, 6) for k, v in consts.items()
                 if isinstance(v, float) and abs(v) < 1e6}
        print(f"  {status}  {key:24s} {shown if shown else ''}")
    print()

print("exploratory sweep below the 1/4 threshold (records only, never gates)")
print("=" * 72)
sp = parse_space("sphere:2")
mu0 = mu_closed_form(sp)
rows = verify.exploratory_a_sweep(sp, [0.0, 0.05, 0.1, 0.2, 0.25],
                                  lambda a: SphereHeatKernel(2, a), mu0, seed=7)
for row in rows:
    verdict = "<= 1 (bound shape holds)" if row["max_ratio"] <= 1 + 1e-6 else \
        "> 1 (on-diagonal bound shape fails at this coupling)"
    print(f"  a = {row['a']:4.2f}:  max ratio = {row['max_ratio']:10.4f}   {verdict}")
print()
print("the gap at a >= 1/4 is exactly what the long-time tail needs on a")
print("compact space: below it the ratio grows linearly in t.")
