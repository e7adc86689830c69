"""Tests of the benchmark's own code: python3 -m pytest -q perfbench"""

import json
import math

import mpmath as mp
import pytest

import checks
import oracles
from spans import Tracer
from stats import percentile


@pytest.mark.parametrize("theta,s", [
    (0.0, 0.05), (0.3, 0.01), (1.0, 0.2), (2.0, 0.05), (math.pi, 0.2),
    (2.9, 1.0), (0.7, 25.0),
])
def test_s3_image_sum_matches_zonal_series(theta, s):
    with mp.workdps(oracles.DPS):
        a = oracles.s3_image_sum(theta, s)
        b = oracles.s3_zonal_series(theta, s)
        assert abs(a - b) <= mp.mpf(10) ** -30 * max(abs(b), 1)


def test_s3_image_sum_resolves_the_deep_tail():
    # the zonal series cannot reach this value; the image sum is positive
    v = oracles.s3_image_sum(3.0, 2.5e-4)
    assert 0 < v < mp.mpf(10) ** -3000


@pytest.mark.parametrize("s", [0.02, 0.3, 2.0])
def test_s2_legendre_has_unit_mass(s):
    with mp.workdps(30):
        mass = 2 * mp.pi * mp.quad(lambda th: oracles.s2_legendre(th, s) * mp.sin(th),
                                   [0, 0.5, 1.5, mp.pi])
    assert abs(mass - 1) < mp.mpf(10) ** -20


def test_s2_legendre_tends_to_inverse_volume():
    with mp.workdps(40):
        inv_volume = 1 / (4 * mp.pi)
        for theta in (0.0, 1.3, math.pi):
            assert abs(oracles.s2_legendre(theta, 40.0) - inv_volume) < mp.mpf(10) ** -30


def test_s2_legendre_matches_mpmath_legendre():
    theta, s = 0.9, 0.05
    with mp.workdps(40):
        x = mp.cos(theta)
        ref = mp.fsum((2 * l + 1) * mp.exp(-l * (l + 1) * mp.mpf(s)) * mp.legendre(l, x)
                      for l in range(80)) / (4 * mp.pi)
        assert abs(oracles.s2_legendre(theta, s) - ref) < mp.mpf(10) ** -30


def test_percentile_refuses_a_thin_tail():
    assert percentile(range(1000), 99) == 989  # 990th smallest
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    with pytest.raises(ValueError):
        percentile(range(50), 10)
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0  # a median needs no tail


def test_report_parser_accepts_nan_tokens_and_null(tmp_path):
    text = ('{"checks": {"cr-bound": {"a": 0.0, "points": ['
            '{"ratio": 0.5}, {"ratio": NaN}, {"ratio": Infinity}, {"ratio": null}]},'
            ' "log-sobolev": {"a": null, "points": [{"ratio": 0.1}]}}}')
    path = tmp_path / "r.json"
    path.write_text(text)
    doc = checks.load_report(str(path))
    assert [r["ratio"] for _, _, r in checks.certified_rows(doc)] == [0.5]
    json.dumps(doc)  # NaN and inf survive a round trip in the default dialect


def test_self_time_subtracts_children():
    tr = Tracer()

    def inner():
        return sum(range(20000))

    inner_traced = tr.wrap("inner", inner)

    def outer():
        return inner_traced() + inner_traced()

    tr.request = "req"
    tr.wrap("outer", outer)()
    spans = {s[0]: s for s in tr.spans}
    outer_span = next(s for s in tr.spans if s[1] == "outer")
    children = [s for s in tr.spans if s[4] == outer_span[0]]
    assert len(children) == 2 and all(s[5] == "req" for s in spans.values())
    child_time = sum(s[3] - s[2] for s in children)
    assert tr.self_s["outer"] == pytest.approx(outer_span[3] - outer_span[2] - child_time)
    assert tr.calls["inner"] == 2 and tr.self_s["inner"] == pytest.approx(child_time)
