import pytest

from solitonlab import verify


@pytest.fixture
def default_table():
    """``build(ev, hi=1e2, refined=False)``: the kernel table of a ratio
    check's default grid, 24 separations x 40 log-spaced times in [1e-3, hi];
    ``refined`` inserts the midpoint separations and the log-midpoint times,
    the grid ``gaussian_bound`` reads."""

    def build(ev, hi=1e2, refined=False):
        grid = verify.separation_grid(ev.space, 24, refined)
        times = verify.time_grid(hi=hi)
        return verify.kernel_table(ev, grid, verify.refine_times(times) if refined else times)

    return build
