import pytest

from solitonlab import verify


@pytest.fixture
def default_table():
    """``build(ev, seed, hi=1e2, refined=False)``: the kernel table of a ratio
    check's default grid, 24 seeded pairs x 40 log-spaced times in [1e-3, hi];
    ``refined`` doubles the pairs and inserts the log-midpoint times, the
    grid ``gaussian_bound`` reads."""

    def build(ev, seed, hi=1e2, refined=False):
        grid = verify.pair_grid(ev.space, 48 if refined else 24, seed)
        times = verify.time_grid(hi=hi)
        return verify.kernel_table(ev, grid, verify.refine_times(times) if refined else times)

    return build
