"""The benchmark's span tracer wraps package names that exist and restores them."""

import importlib.util
from pathlib import Path

import scipy.linalg

from solitonlab import entropy, kernels, verify

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _wrapped_names():
    trial = entropy.TrialFunction
    return (kernels.EuclideanHeatKernel.evaluate, kernels.SphereHeatKernel.evaluate,
            kernels.CylinderHeatKernel.evaluate, kernels.SphereHeatKernel.profile,
            kernels.GreenEvaluator.evaluate, verify.partition_function,
            kernels.DirichletRadialHeatKernel.profile, verify.GrigoryanProbe.state,
            scipy.linalg.solve_banded, kernels.solve_banded,
            trial.normalize, trial.int_phi2, trial.int_grad2, trial.int_R_phi2,
            trial.int_entropy, trial.int_power)


def test_tracer_install_and_uninstall_restore_the_originals():
    spans = _load_spans()
    originals = _wrapped_names()
    tracer = spans.Tracer()
    try:
        tracer.install()
        # the engine's banded solver is the one the tracer counts
        assert all(new is not old for new, old in zip(_wrapped_names(), originals))
    finally:
        tracer.uninstall()
    assert all(new is old for new, old in zip(_wrapped_names(), originals))


def test_traced_cylinder_value_is_one_evaluate_and_one_profile():
    # the product kernel reaches its sphere factor below ``evaluate``, so a
    # traced cylinder query is counted once
    spans = _load_spans()
    ck = kernels.CylinderHeatKernel(3, 0.25)
    x, y = ck.space.pole(), ck.space.point_at_distance(1.0)
    tracer = spans.Tracer()
    try:
        tracer.install()
        ck.evaluate(x, y, 0.5)
    finally:
        tracer.uninstall()
    assert tracer.calls["kernels.evaluate"] == 1
    assert tracer.calls["kernels.profile"] == 1
