"""Check-report formatting and the named battery registry."""

import json

import numpy as np
import pytest

from toda2 import (
    BATTERY_NAMES,
    CheckReport,
    all_pass,
    build_sl,
    emit_report,
    expected_rank,
    run_battery,
)
from toda2.reports import worst


def test_line_format():
    r = CheckReport(
        check="demo",
        anchor="unit",
        algebra="sl2",
        params={"samples": 3},
        measured=1.5e-12,
        expected=1e-11,
        verdict=True,
        detail="spot",
    )
    line = r.line()
    assert line.startswith("[PASS] demo")
    assert "sl2" in line and "(unit)" in line and "spot" in line
    bad = CheckReport(check="demo", anchor="unit", algebra="sl2", verdict=False)
    assert bad.line().startswith("[FAIL]")


@pytest.mark.parametrize("residual", [3e-12, 2e-9, np.float64(5e-10), float("nan")])
def test_below_is_the_hand_built_residual_report(residual):
    tol = 1e-9
    hand = CheckReport(
        check="casimir-P1", anchor="psi1-pullback-casimir", algebra="sl2",
        params={"samples": 5, "seed": 42, "tol": tol, "generator": 1},
        measured=residual, expected=f"< {tol:g}", verdict=residual < tol, detail="d",
    )
    made = CheckReport.below("casimir-P1", "psi1-pullback-casimir", "sl2", residual, tol,
                             {"samples": 5, "seed": 42, "generator": 1}, detail="d")
    assert made.to_dict() == hand.to_dict()
    assert made.line() == hand.line()
    assert made.verdict is bool(residual < tol)     # a NaN residual fails, as `<` does
    assert emit_report([made], "json") == emit_report([hand], "json")


@pytest.mark.parametrize("values, want", [
    ([], 0.0),
    ([[1e-12, 3e-10], [2e-11, 0.0]], 3e-10),
    ([float("nan")], float("nan")),
    ([1e-12, float("nan"), 5e-13], float("nan")),
])
def test_worst_propagates_nan(values, want):
    # a residual stack with a NaN entry is not shown small: its worst value
    # is NaN and the residual check fails, even where every other entry passes
    got = worst(values)
    assert got == want or (np.isnan(got) and np.isnan(want))
    assert CheckReport.below("x", "y", "z", got, 1e-9, {}).verdict is (want < 1e-9)


@pytest.mark.parametrize("measured", [4, 3, np.int64(4)])
def test_equal_is_the_hand_built_count_report(measured):
    hand = CheckReport(
        check="rank-linear", anchor="restricted-poisson-rank", algebra="sl2",
        params={"points": 25}, measured=measured, expected=4, verdict=measured == 4,
    )
    made = CheckReport.equal("rank-linear", "restricted-poisson-rank", "sl2", measured, 4,
                             {"points": 25})
    assert made.to_dict() == hand.to_dict()
    assert made.line() == hand.line()
    assert made.verdict is bool(measured == 4)


def test_all_pass():
    good = CheckReport(check="a", anchor="x", algebra="sl2", verdict=True)
    bad = CheckReport(check="b", anchor="x", algebra="sl2", verdict=False)
    assert all_pass([good])
    assert not all_pass([good, bad])
    assert all_pass([])


def test_emit_text_summary_line():
    rs = [
        CheckReport(check="a", anchor="x", algebra="sl2", verdict=True),
        CheckReport(check="b", anchor="x", algebra="sl2", verdict=True),
    ]
    out = emit_report(rs, "text")
    assert out.splitlines()[-1] == "-- 2 checks, all passed"
    rs[1] = CheckReport(check="b", anchor="x", algebra="sl2", verdict=False)
    out = emit_report(rs, "text")
    assert out.splitlines()[-1] == "-- 2 checks, 1 FAILED"


def test_emit_json_is_plain_and_deterministic(sl2):
    reports = run_battery("mcybe", sl2, samples=10)
    s1 = emit_report(reports, "json")
    s2 = emit_report(run_battery("mcybe", sl2, samples=10), "json")
    assert s1 == s2  # same seed, same bytes
    doc = json.loads(s1)
    assert doc["all_pass"] is True
    assert all("check" in r and "verdict" in r for r in doc["reports"])
    # numpy scalars must have been converted: round-trip through json is exact
    assert json.dumps(doc, sort_keys=True, indent=2) == s1


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report([], "yaml")


def test_battery_registry(sl2):
    assert "mcybe" in BATTERY_NAMES and "toda" in BATTERY_NAMES
    with pytest.raises(KeyError):
        run_battery("nonsense", sl2)
    reports = run_battery("casimir", sl2, samples=5)
    assert reports and all(r.verdict for r in reports)


def test_expected_rank_closed_forms(desk_algebras):
    want = {"sl2": 4, "sl3": 10, "sl4": 18, "gl2": 4, "gl3": 10}
    for name, alg in desk_algebras.items():
        assert expected_rank(alg) == want[name]
