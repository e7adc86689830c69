"""The benchmark's span tracer wraps package names that exist, restores them
and has a span name for each check, and every function under src/solitonlab
reads each of its parameters."""

import ast
import importlib.util
from pathlib import Path

import scipy.linalg

from solitonlab import entropy, kernels, spectral, verify

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
            kernels.GreenEvaluator.evaluate, spectral.partition_function,
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


def test_every_theorem_has_its_span_name():
    # the tracer names the span of each check ``verify.<theorem id>``, and the
    # per-layer metrics read the names in VERIFY_CHECKS
    from solitonlab.cli import THEOREM_IDS

    spans = _load_spans()
    names = {t.replace("-", "_") for t in THEOREM_IDS if t != "grigoryan-constants"}
    assert names <= set(spans.VERIFY_CHECKS)


SRC = Path(__file__).resolve().parent.parent / "src" / "solitonlab"


def _unread_parameters(tree: ast.AST) -> list:
    """``function.parameter`` for each parameter, other than self and cls,
    that no expression in its function's body reads."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None and p.arg not in ("self", "cls")]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{node.name}.{p}" for p in params if p not in read]
    return unread


def test_every_parameter_under_src_is_read():
    unread = {path.name: _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(SRC.glob("*.py"))}
    assert {name: params for name, params in unread.items() if params} == {}
