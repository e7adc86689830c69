"""In-memory span tracing of solitonlab, installed from outside the package.

``Tracer.install()`` replaces public functions and methods of the package's
modules with timing wrappers and ``Tracer.uninstall()`` puts the originals
back. Every wrapped call becomes one span (id, name, start, end, parent id,
request id); the request id is whatever the caller set in
``Tracer.request`` (the suite check id or the query index). A span's self
time is its duration minus the durations of its direct children, which in a
single thread never overlap. Calls that are only counted (the banded solver,
quadrature integrand evaluations) make no span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, request)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.distinct_evals = set()
        self.request = None
        self._stack = []         # [span id, child seconds] of open spans
        self._next_id = 0
        self._patched = []       # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, before=None):
        """Timing wrapper around ``fn``; ``before(args, kwargs)`` may count."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.self_s[name] += dur - frame[1]
                self.total_s[name] += dur
                self.calls[name] += 1
                self.spans.append((span_id, name, start, end, parent, self.request))

        return traced

    def counted(self, key, fn):
        """Wrapper that only counts calls of ``fn`` under ``key``."""
        counts = self.counts

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return inner

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, modules, attr, new, original):
        """Replace ``original`` wherever a module bound it under ``attr``."""
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._set(mod, attr, new)

    def install(self):
        import scipy.linalg

        from solitonlab import cli, entropy, kernels, quadrature, spaces, spectral, verify

        modules = (cli, entropy, kernels, quadrature, spaces, spectral, verify)
        plain_distance = spaces.SolitonSpace.distance

        # cli: the whole command, the report writers and one span per check
        self._set(cli, "main", self.wrap("cli.suite", cli.main))
        for attr in ("_write_json", "emit_plot_data"):
            if hasattr(cli, attr):
                self._set(cli, attr, self.wrap("cli.write", getattr(cli, attr)))
        run_theorem = cli.run_theorem

        def theorem_span(theorem_id, cfg, **kw):
            c = kw.get("c")
            self.request = theorem_id if c is None else f"{theorem_id}:c={c:g}"
            name = "verify." + theorem_id.replace("-", "_")
            try:
                return self.wrap(name, run_theorem)(theorem_id, cfg, **kw)
            finally:
                self.request = None

        self._set(cli, "run_theorem", functools.wraps(run_theorem)(theorem_span))

        # kernels
        def count_eval(args, kwargs):
            ev, x, y, t = args[:4]
            self.distinct_evals.add(
                (ev.space.token, ev.a, plain_distance(ev.space, x, y), float(t)))
            if isinstance(self.request, str) and self.request.startswith("gaussian-bound"):
                self.counts["verify.gaussian_bound.evals"] += 1

        for cls in (kernels.EuclideanHeatKernel, kernels.SphereHeatKernel,
                    kernels.CylinderHeatKernel):
            self._set(cls, "evaluate", self.wrap("kernels.evaluate", cls.evaluate, count_eval))

        def count_points(args, kwargs):
            self.counts["kernels.profile.points"] += int(np.size(args[1]))

        self._set(kernels.SphereHeatKernel, "profile",
                  self.wrap("kernels.profile", kernels.SphereHeatKernel.profile, count_points))

        def count_terms(args, kwargs):
            self.counts["kernels.zonal_values.terms"] += (args[1] + 1) * int(np.size(args[2]))

        self._rebind(modules, "zonal_values",
                     self.wrap("kernels.zonal_values", kernels.zonal_values, count_terms),
                     kernels.zonal_values)
        self._set(kernels.GreenEvaluator, "evaluate",
                  self.wrap("kernels.green", kernels.GreenEvaluator.evaluate))
        self._set(kernels.DirichletRadialHeatKernel, "profile",
                  self.wrap("kernels.fd.profile", kernels.DirichletRadialHeatKernel.profile))

        # finite-difference probe and the banded solver under both marchers
        self._set(verify.GrigoryanProbe, "state",
                  self.wrap("verify.probe_state", verify.GrigoryanProbe.state))
        banded = scipy.linalg.solve_banded
        counted_banded = self.counted("scipy.solve_banded.calls", banded)
        self._set(scipy.linalg, "solve_banded", counted_banded)
        self._rebind(modules, "solve_banded", counted_banded, banded)

        # quadrature: adaptive rules, with their integrands counted
        for attr in ("quad_ab", "quad_log"):
            original = getattr(quadrature, attr)

            def adaptive(f, *args, _original=original, **kwargs):
                return _original(self.counted("quadrature.integrand.evals", f), *args, **kwargs)

            self._rebind(modules, attr,
                         self.wrap("quadrature.adaptive", functools.wraps(original)(adaptive)),
                         original)

        # spectral
        self._rebind(modules, "sphere_spectrum",
                     self.wrap("spectral.sphere_spectrum", spectral.sphere_spectrum),
                     spectral.sphere_spectrum)
        self._rebind(modules, "partition_function",
                     self.wrap("spectral.partition_function", spectral.partition_function),
                     spectral.partition_function)

        # entropy: the trial-function integrals
        for attr in ("normalize", "int_phi2", "int_grad2", "int_R_phi2",
                     "int_entropy", "int_power"):
            self._set(entropy.TrialFunction, attr,
                      self.wrap("entropy.trial_integrals", getattr(entropy.TrialFunction, attr)))

        # spaces
        self._set(spaces.SolitonSpace, "distance", self.wrap("spaces.distance", plain_distance))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path):
        """Write the spans as CSV, times relative to the first span's start."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,request\n")
            for span_id, name, start, end, parent, request in sorted(self.spans):
                fh.write(f"{span_id},{name},{start - t0:.9f},{end - t0:.9f},{parent},"
                         f"{'' if request is None else request}\n")


VERIFY_CHECKS = ("kernel_axioms", "ultracontractivity", "gaussian_bound", "cr_bound",
                 "green_bound", "eigenvalue_bound", "log_sobolev", "sobolev",
                 "energy_monotonicity", "weighted_energy")


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer numbers from one traced pass; layers the pass never entered read 0."""
    m = {
        "cli.suite.self_s": tr.self_s["cli.suite"],
        "cli.write_s": tr.total_s["cli.write"],
        "cli.report_mb": 0.0,
    }
    for name in VERIFY_CHECKS:
        m[f"verify.{name}.s"] = tr.total_s[f"verify.{name}"]
    calls = tr.calls["kernels.evaluate"]
    m.update({
        "verify.gaussian_bound.evals": tr.counts["verify.gaussian_bound.evals"],
        "kernels.evaluate.calls": calls,
        "kernels.evaluate.self_s": tr.self_s["kernels.evaluate"],
        "kernels.evaluate.distinct_frac": len(tr.distinct_evals) / calls if calls else 0.0,
        "kernels.profile.calls": tr.calls["kernels.profile"],
        "kernels.profile.points": tr.counts["kernels.profile.points"],
        "kernels.profile.self_s": tr.self_s["kernels.profile"],
        "kernels.zonal_values.terms": tr.counts["kernels.zonal_values.terms"],
        "kernels.zonal_values.self_s": tr.self_s["kernels.zonal_values"],
        "kernels.green.calls": tr.calls["kernels.green"],
        "kernels.green.self_s": tr.self_s["kernels.green"],
        "kernels.fd.profile.calls": tr.calls["kernels.fd.profile"],
        "kernels.fd.self_s": tr.self_s["kernels.fd.profile"],
        "verify.probe_state.self_s": tr.self_s["verify.probe_state"],
        "scipy.solve_banded.calls": tr.counts["scipy.solve_banded.calls"],
        "quadrature.adaptive.calls": tr.calls["quadrature.adaptive"],
        "quadrature.integrand.evals": tr.counts["quadrature.integrand.evals"],
        "quadrature.adaptive.self_s": tr.self_s["quadrature.adaptive"],
        "spectral.sphere_spectrum.self_s": tr.self_s["spectral.sphere_spectrum"],
        "spectral.partition_function.calls": tr.calls["spectral.partition_function"],
        "spectral.partition_function.self_s": tr.self_s["spectral.partition_function"],
        "entropy.trial_integrals.calls": tr.calls["entropy.trial_integrals"],
        "entropy.trial_integrals.self_s": tr.self_s["entropy.trial_integrals"],
        "spaces.distance.calls": tr.calls["spaces.distance"],
        "spaces.distance.self_s": tr.self_s["spaces.distance"],
    })
    return m
