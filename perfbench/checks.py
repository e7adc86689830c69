"""Output checks: every result is compared with oracles.py or a required property.

Each check function returns a list of error strings; an empty list means
the outputs are correct.
"""

from __future__ import annotations

import json
import math
import os

import mpmath as mp

import oracles

EPS = 2.0 ** -52
DBL_MIN = 2.0 ** -1022  # below this a double keeps no relative accuracy
RATIO_CHECKS = ("ultracontractivity", "cr-bound", "gaussian-bound")


def load_report(path):
    """Parse a report; accepts bare NaN/Infinity tokens as well as null."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.loads(fh.read())


def finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def certified_rows(doc):
    """(check id, coupling, row) for every row with a finite ratio in the ratio checks."""
    out = []
    for check_id, rep in sorted(doc["checks"].items()):
        if check_id.split(":")[0] in RATIO_CHECKS:
            out.extend((check_id, rep["a"], r) for r in rep.get("points", [])
                       if finite(r.get("ratio")))
    return out


def rounding_allowance(o, d, t):
    """Error a double evaluation of ~exp(-d^2/4t) carries from rounding alone.

    The exponent x = d^2/(4t) is computed with relative error ~eps, which
    exp turns into a relative error ~x eps; values under DBL_MIN are
    subnormal and keep only absolute accuracy.
    """
    return 4.0 * EPS * (d * d / (4.0 * t) + 4.0) * abs(o) + DBL_MIN


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def check_suite(token, pass_dirs, codes):
    """Returns (errors, certified rows, checks attempted, checks failed)."""
    errors = []
    docs = [load_report(os.path.join(d, "report.json")) for d in pass_dirs]
    csvs = [_csv_bytes(d) for d in pass_dirs]
    failed = 0
    for i, (doc, code) in enumerate(zip(docs, codes)):
        for check_id, rep in doc["checks"].items():
            if "error" in rep:  # the check raised: a failed operation
                failed += 1
            elif not rep.get("passed"):
                errors.append(f"pass {i}: {check_id} did not pass")
        expected = 0 if all(rep.get("passed") for rep in doc["checks"].values()) else 1
        if code != expected:
            errors.append(f"pass {i} exited {code}, its report says {expected}")
    for i in range(1, len(csvs)):
        if csvs[i] != csvs[0]:
            errors.append(f"pass {i} CSVs differ from pass 0")
    doc = docs[0]
    rows = certified_rows(doc)
    if token == "sphere:3":
        errors += _sphere3_rows(rows)
        errors += _green_rows(doc, oracles.sphere3_green, 1e-8)
        errors += _sphere3_eigenvalues(doc)
    elif token == "gaussian:3":
        errors += _gaussian3_rows(rows)
        errors += _green_rows(doc, oracles.gaussian3_green, 1e-10)
        for check_id, rep in doc["checks"].items():
            if check_id.startswith("gaussian-bound"):
                for key in ("A_emp", "A_emp_base"):
                    v = rep["extracted_constants"].get(key)
                    if not (finite(v) and abs(v - 1.0) <= 1e-12):
                        errors.append(f"{check_id} {key} = {v}, expected 1 to 1e-12")
    attempted = sum(len(d["checks"]) for d in docs)
    return errors, len(rows), attempted, failed


def _csv_bytes(out_dir):
    csv_dir = os.path.join(out_dir, "csv")
    out = {}
    for name in sorted(os.listdir(csv_dir)):
        with open(os.path.join(csv_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _sphere3_rows(rows):
    """Certified kernel values against the S^3 image sum.

    The series' own rounding term is 1e-15 (levels + 1) (4 pi t)^{-3/2}, a
    few 1e-13 of the diagonal scale at the grid's smallest t; 1e-11 of that
    scale leaves a wide margin. A certified ratio must also bound the true
    one from above: ratio * rhs is the value the check vouched for.
    """
    errors = []
    cache = {}
    for check_id, a, r in rows:
        key = (r["d"], r["t"], a)
        if key not in cache:
            cache[key] = oracles.sphere3_kernel(*key)
        o = cache[key]
        tol = 1e-11 * (4.0 * math.pi * r["t"]) ** -1.5
        if abs(mp.mpf(r["lhs"]) - o) > tol or o - mp.mpf(r["ratio"]) * r["rhs"] > tol:
            errors.append(f"{check_id} row d={r['d']} t={r['t']}: {r['lhs']} vs image sum "
                          f"{mp.nstr(o, 17)}")
    return errors[:5]


def _gaussian3_rows(rows):
    errors = []
    for check_id, _, r in rows:
        o = float(oracles.gaussian_kernel(3, r["d"], r["t"]))
        if abs(r["lhs"] - o) > rounding_allowance(o, r["d"], r["t"]):
            errors.append(f"{check_id} row d={r['d']} t={r['t']}: {r['lhs']} vs {o}")
    return errors[:5]


def _green_rows(doc, oracle, rel):
    rep = doc["checks"].get("green-bound")
    if rep is None:
        return ["no green-bound report"]
    errors = []
    for r in rep["points"]:
        o = oracle(r["d"], rep["a"])
        if not abs(mp.mpf(r["lhs"]) - o) <= rel * o:
            errors.append(f"green d={r['d']}: {r['lhs']} vs {mp.nstr(o, 17)}")
    return errors


def _sphere3_eigenvalues(doc):
    rep = doc["checks"].get("eigenvalue-bound")
    if rep is None:
        return ["no eigenvalue-bound report"]
    rows = [r for r in rep["points"] if str(r["x_id"]).startswith("k=")]
    ref = oracles.sphere3_eigenvalues(rep["a"], len(rows))
    bad = [r["x_id"] for r, lam in zip(rows, ref) if abs(r["rhs"] - lam) > 1e-12 * lam]
    if not rows or bad:
        return [f"eigenvalues differ from l(l+2)/4 + 3a/2 at {bad[:5]} of {len(rows)}"]
    return []


# ---------------------------------------------------------------------------
# point queries
# ---------------------------------------------------------------------------


def query_oracle(tok, px, py, t, a):
    """(oracle value, geodesic distance) from the query's coordinates."""
    with mp.workdps(40):
        if tok == "gaussian:3":
            d = mp.sqrt(mp.fsum((mp.mpf(u) - mp.mpf(v)) ** 2 for u, v in zip(px.vector, py.vector)))
            return oracles.gaussian_kernel(3, d, t), float(d)
        c = mp.fsum(mp.mpf(u) * mp.mpf(v) for u, v in zip(px.vector, py.vector))
        c /= mp.sqrt(mp.fsum(mp.mpf(u) ** 2 for u in px.vector)
                     * mp.fsum(mp.mpf(v) ** 2 for v in py.vector))
        theta = mp.acos(max(min(c, 1), -1))
        if tok == "sphere:3":
            d = oracles.SPHERE3_RADIUS * theta
            return oracles.sphere3_kernel(d, t, a), float(d)
        r = math.sqrt(oracles.SPHERE2_RADIUS2)
        if tok == "sphere:2":
            return oracles.sphere2_kernel(theta, t, a), float(r * theta)
        ds = px.s - py.s
        return oracles.cylinder3_kernel(theta, ds, t, a), math.hypot(float(r * theta), ds)


def check_queries(records, a):
    """Every value within its error estimate (plus input rounding) of its oracle."""
    errors = []
    for k, (tok, px, py, t, value, err, _, exc) in enumerate(records):
        if exc is not None:
            continue  # counted as failed by the caller
        o, d = query_oracle(tok, px, py, t, a)
        if not abs(mp.mpf(value) - o) <= err + rounding_allowance(float(o), d, t):
            errors.append(f"query {k} {tok} t={t}: {value} +- {err} vs {mp.nstr(o, 17)}")
    return errors[:5]


def certified(records):
    """Queries whose value exceeds ten times its own error estimate."""
    return sum(1 for r in records if r[7] is None and r[4] > 10.0 * r[5])
