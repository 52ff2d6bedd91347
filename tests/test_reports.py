"""Check-report formatting and the named battery registry."""

import json
import re

import numpy as np
import pytest

from toda2 import (
    BATTERY_NAMES,
    CheckReport,
    all_pass,
    build_sl,
    emit_report,
    expected_rank,
    phase_tp,
    run_battery,
)
from toda2.checks import check_involutivity_battery
from toda2.cli import main
from toda2.invariants import family_gradient_stack, pullback_gradients
from toda2.poisson import bracket_tables, linear_field
from toda2.rmatrix import block_norms


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
def test_below_measures_the_largest_residual(values, want):
    # a residual stack with a NaN entry is not shown small: measured is NaN
    # and the check fails, even where every other entry passes, and the
    # detail names the NaN; no entry at all measures 0.0
    axes = ("point", "pair")[:np.ndim(values)]
    made = CheckReport.below("x", "y", "z", values, 1e-9, {}, axes=axes)
    assert made.measured == want or (np.isnan(made.measured) and np.isnan(want))
    assert made.verdict is (want < 1e-9)
    nan_at = np.flatnonzero(np.isnan(np.ravel(values)))
    assert made.detail == (f"worst at point {nan_at[0]}" if nan_at.size else "")


def test_below_names_the_worst_entry_of_a_failed_check():
    residuals = np.array([[1e-12, -3e-10], [2e-11, 0.0]])
    axes = ("point", "pair")
    assert CheckReport.below("x", "y", "z", residuals, 1e-9, {}, detail="d",
                             axes=axes).detail == "d"
    failed = CheckReport.below("x", "y", "z", residuals, 1e-10, {}, detail="d", axes=axes)
    assert failed.measured == 3e-10 and not failed.verdict
    assert failed.detail == "d; worst at point 0, pair 1"
    # an unnamed residual names no entry
    assert CheckReport.below("x", "y", "z", residuals, 1e-10, {}).detail == ""
    with pytest.raises(ValueError):
        CheckReport.below("x", "y", "z", residuals, 1e-10, {}, axes=("point",))


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


# --------------------------------------------------------------------------
# a FAIL reproduces from its report alone
# --------------------------------------------------------------------------


def worst_entry(detail):
    """The index on each named axis of a FAIL detail's "worst at …"."""
    named = detail.split("worst at ")[1]
    return {axis: int(k) for axis, k in re.findall(r"([a-z ]+?) (\d+)(?:, |$)", named)}


def pair_value(alg, which, M, A, row, column):
    """|{F_row, F_column}| at one point M (2, dim), read off the bracket table
    of the two gradient rows A[row] and A[column] alone: an entry does not
    depend on the other rows of its table."""
    return abs(bracket_tables(alg, which, M, A[[row, column]])[0, 1])


def pencil_value(alg, report):
    """The named entry of an involutivity-pencil report, evaluated again."""
    w, p = worst_entry(report["detail"]), report["params"]
    M = np.random.default_rng(p["seed"]).uniform(-1.0, 1.0, (p["points"], 2, alg.dim))
    m = M[w["point"]][None]
    A = np.stack([pullback_gradients(alg, i, lam, m)[0].ravel()
                  for i in alg.exponents for lam in p["lambdas"]])
    return pair_value(alg, "linear", m[0], A, w["row"], w["column"])


def reevaluated(alg, report):
    """The residual at the entry a FAIL report names, from its params alone."""
    if report["check"] == "involutivity-pencil":
        return pencil_value(alg, report)
    w, p = worst_entry(report["detail"]), report["params"]
    if report["check"].startswith("involutivity-"):
        V = phase_tp(alg).sample_stack(p["seed"], p["points"])[w["point"]]
        A = family_gradient_stack(alg, V[None])[0]
        return pair_value(alg, report["check"].split("-")[1], V.reshape(2, alg.dim), A,
                          w["row"], w["column"])
    M = np.random.default_rng(p["seed"]).uniform(-1.0, 1.0, (p["samples"], 2, alg.dim))
    m = M[w["sample"]][None]
    return block_norms(linear_field(alg, m, pullback_gradients(alg, p["generator"], 1.0, m)))[0]


@pytest.mark.parametrize("battery", ["involutivity", "casimir"])
@pytest.mark.parametrize("name", ["sl3", "gl3"])
def test_a_failed_report_names_the_entry_it_measured(name, battery, request, capsys):
    alg = request.getfixturevalue(name)
    assert main(["check", battery, "--algebra", name, "--tol", "1e-300",
                 "--format", "json"]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    for report in reports:
        if report["measured"] == 0.0:       # gl's central P_0: exactly a Casimir
            assert report["verdict"] and report["detail"] == ""
            continue
        assert not report["verdict"]
        assert reevaluated(alg, report) == report["measured"], report["check"]
    assert any(not r["verdict"] for r in reports)


def test_the_sl7_pencil_fail_reproduces_from_its_report():
    # a real FAIL at the default tolerance: roundoff in the degree-6 pencil
    # pullbacks passes 1e-8 on sl7
    alg = build_sl(7)
    report = next(r for r in check_involutivity_battery(alg)
                  if r.check == "involutivity-pencil").to_dict()
    assert not report["verdict"] and report["measured"] > report["params"]["tol"]
    assert report["detail"].startswith("worst at point ")
    assert pencil_value(alg, report) == report["measured"]
