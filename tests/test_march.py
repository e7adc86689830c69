"""The finite-difference engine's factored steps against the banded march
they replaced, kept here as the reference: each step built its banded matrix
and explicit side and went through ``scipy.linalg.solve_banded``, which
refactors the matrix on every call."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from solitonlab import kernels, verify
from solitonlab.cli import ExperimentConfig
from solitonlab.kernels import RadialMarch, graded_steps
from solitonlab.spaces import make_space
from solitonlab.spectral import discretize_radial


def _banded_march(scheme, w, dts):
    built = None
    for dt in dts:
        if dt != built:
            ab, explicit = scheme(dt)
            built = dt
        w = solve_banded((1, 1), ab, explicit(w).T).T
    return w


def _banded_crank_nicolson(op, dt):
    ab = np.zeros((3, op.m))
    ab[0, 1:] = 0.5 * dt * op.upper
    ab[1, :] = 1.0 + 0.5 * dt * op.diag
    ab[2, :-1] = 0.5 * dt * op.lower
    return ab, lambda w: w - 0.5 * dt * op.apply(w)


def _banded_numerov(size, h, even, dt):
    c = dt / (2.0 * h * h)
    ab = np.empty((3, size))
    ab[[0, 2]] = 1.0 / 12.0 - c
    ab[1] = 10.0 / 12.0 + 2.0 * c
    if even:
        ab[0, 1] *= 2.0
    rdi = 10.0 / 12.0 - 2.0 * c
    roff = 1.0 / 12.0 + c

    def explicit(v):
        rhs = rdi * v
        rhs[..., :-1] += roff * v[..., 1:]
        rhs[..., 1:] += roff * v[..., :-1]
        if even:
            rhs[..., 0] += roff * v[..., 1]
        return rhs

    return ab, explicit


def _banded_state(op, numerov, u, dts):
    """One march of the reference engine from state u through the steps dts."""
    if not numerov:
        return _banded_march(lambda dt: _banded_crank_nicolson(op, dt), u, dts)
    if op.space.n == 1:
        return _banded_march(lambda dt: _banded_numerov(op.m, op.h, True, dt), u, dts)
    r = op.r[1:]
    out = np.empty(u.shape)
    out[..., 1:] = _banded_march(lambda dt: _banded_numerov(op.m - 1, op.h, False, dt),
                                 r * u[..., 1:], dts) / r
    out[..., 0] = (4.0 * out[..., 1] - out[..., 2]) / 3.0
    return out


TIMES = (0.004, 0.011, 0.03, 0.1)


def _pairs(engine, steps, numerov, times=TIMES):
    """(engine state, reference state) at each of ``times``, each marched
    from the one before as the engine's cache does."""
    ref, t_prev = engine.state(engine.t0), engine.t0
    pairs = []
    for t in times:
        ref = _banded_state(engine.op, numerov, ref, list(steps(t_prev, t)))
        pairs.append((engine.state(t), ref))
        t_prev = t
    return pairs


def _graded(t_from, t):
    # graded sizes t/6 up to 2e-3, then 2e-3 repeated: many distinct sizes,
    # and the same size again in later marches
    return graded_steps(t_from, t, 2e-3)


def _data(op, rows):
    data = verify.random_dirichlet_data(op, max(rows, 1), seed=3)
    return data[0] if rows == 1 else data


@pytest.mark.parametrize("rows", [1, 6])
@pytest.mark.parametrize("n", [1, 3])
def test_numerov_steps_are_bit_identical_to_the_banded_march(n, rows):
    op = discretize_radial(make_space("gaussian", n), 8.0, 256)
    engine = RadialMarch(op, 1e-3, _data(op, rows), _graded, numerov=True)
    for state, ref in _pairs(engine, _graded, True):
        assert state.shape == ref.shape
        assert np.array_equal(state, ref)


def _probe_engines(n):
    """The weighted-energy source kernel's engine at the default settings,
    and the step rule of a second one, so the reference march adds no
    segment to the first one's error model."""
    cfg = ExperimentConfig(space=f"gaussian:{n}")
    op = discretize_radial(make_space("gaussian", n), cfg.probe_r_max, cfg.probe_m)
    return (verify.GrigoryanProbe(op, cfg.t0)._engine,
            verify.GrigoryanProbe(op, cfg.t0)._engine._steps)


PROBE_TIMES = np.geomspace(1e-2, 1.0, 10)


@pytest.mark.parametrize("n", [1, 3])
def test_numerov_kernel_states_are_bit_identical_to_the_banded_march(n):
    engine, steps = _probe_engines(n)
    assert engine.numerov
    for state, ref in _pairs(engine, steps, True, PROBE_TIMES):
        assert np.array_equal(state, ref)


def _assert_close(state, ref, rel):
    scale = np.max(np.abs(ref), axis=-1, keepdims=True)
    assert np.all(np.abs(state - ref) <= rel * scale)


def test_crank_nicolson_trials_stay_within_roundoff_of_the_banded_march():
    # the symmetric variable y = W^{1/2} u changes the rounding, not the scheme
    op = discretize_radial(make_space("gaussian", 3), 8.0, 512)
    engine = RadialMarch(op, 1e-3, _data(op, 6), _graded)
    for state, ref in _pairs(engine, _graded, False):
        _assert_close(state, ref, 1e-13)


def test_crank_nicolson_kernel_stays_within_roundoff_of_the_banded_march():
    # the weighted-energy source kernel of gaussian:2 takes 3 792 steps; the
    # rounding of the two marches parts by up to 1.3e-13 of a state's
    # largest value
    engine, steps = _probe_engines(2)
    assert not engine.numerov
    for state, ref in _pairs(engine, steps, False, PROBE_TIMES):
        _assert_close(state, ref, 1e-12)


@pytest.mark.parametrize("numerov, factor", [(True, "dgttrf"), (False, "dpttrf")])
def test_each_step_size_is_factored_once(monkeypatch, numerov, factor):
    calls = []
    original = getattr(kernels, factor)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, factor, counted)
    op = discretize_radial(make_space("gaussian", 3), 8.0, 128)
    engine = RadialMarch(op, 1e-3, _data(op, 2), _graded, numerov=numerov)
    sizes, t_prev = set(), engine.t0
    for t in TIMES + (0.2, 0.3):
        sizes.update(_graded(t_prev, t))
        engine.state(t)
        t_prev = t
    assert 2e-3 in sizes  # a size the later marches take again
    assert len(calls) == len(sizes)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_default_energy_differences_are_far_below_roundoff(n):
    # energy-monotonicity reports max(0, max difference); at the default
    # settings every normalized difference sits below -1e-3, so a change of
    # the march's rounding (relative 1e-13) cannot move a row
    cfg = ExperimentConfig(space=f"gaussian:{n}")
    op = discretize_radial(make_space("gaussian", n), cfg.probe_r_max, cfg.probe_m)
    ts = np.linspace(0.02, 0.8, 14)
    probe = verify.GrigoryanProbe(
        op, ts[0], data0=verify.random_dirichlet_data(op, min(cfg.trials, 20), cfg.seed),
        dt=cfg.probe_dt)
    energies = np.array([probe.weighted_energy(float(t), 2.0, 1.0) for t in ts]).T
    diffs = np.diff(energies, axis=1) / energies[:, :1]
    assert math.isfinite(diffs.max()) and diffs.max() < -1e-3
