"""Command-line entry point: exit codes 0 (pass) / 1 (failed check) / 2 (usage)."""

import json

import pytest

from toda2 import checks, load_spec, save_spec, spec_to_document
from toda2.checks import BATTERY_NAMES
from toda2.cli import main


def test_algebra_build_prints_document(capsys):
    assert main(["algebra", "build", "sl2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "sl2" and doc["dim"] == 3


def test_algebra_build_writes_loadable_spec(tmp_path, capsys):
    out = tmp_path / "gl2.json"
    assert main(["algebra", "build", "gl2", "--out", str(out)]) == 0
    capsys.readouterr()
    alg = load_spec(out)
    assert alg.name == "gl2" and alg.associative


def test_algebra_validate(capsys, tmp_path):
    assert main(["algebra", "validate", "sl3"]) == 0
    assert "invariants hold" in capsys.readouterr().out
    # a spec file can be named instead of a builder token
    out = tmp_path / "sl2.json"
    main(["algebra", "build", "sl2", "--out", str(out)])
    capsys.readouterr()
    assert main(["algebra", "validate", str(out)]) == 0


@pytest.mark.parametrize("field, value, invariant", [
    ("e_coords", [1, 1, 0], "e-degree"),
    ("cartan", [[2, 0], [0, 2]], "cartan-shape"),
])
def test_algebra_validate_lists_violations(tmp_path, capsys, sl2, field, value,
                                           invariant):
    doc = spec_to_document(sl2)
    doc[field] = value
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["algebra", "validate", str(path)]) == 1
    assert f"violated: {invariant}" in capsys.readouterr().out


def test_algebra_validate_parse_failure_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["algebra", "validate", str(path)]) == 2
    assert "parse failure" in capsys.readouterr().err


def test_check_pass_and_fail_exit_codes(capsys):
    assert main(["check", "mcybe", "--algebra", "sl2", "--samples", "30"]) == 0
    assert "[PASS]" in capsys.readouterr().out
    # an absurd tolerance forces a FAIL and exit code 1 — checks still run
    assert main(["check", "mcybe", "--algebra", "sl2", "--tol", "1e-30"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_check_rejects_unknown_battery():
    with pytest.raises(SystemExit) as ex:
        main(["check", "nonsense"])
    assert ex.value.code == 2


def test_unknown_algebra_is_usage_error(capsys):
    assert main(["algebra", "build", "xyz9"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_json_output_is_deterministic(capsys):
    args = ["check", "casimir", "--algebra", "sl2", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["all_pass"] is True


def test_check_out_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["check", "rank", "--algebra", "gl2", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert "[PASS]" in text and "rank" in text


def test_check_multiple_algebras(capsys):
    assert main(["check", "mcybe", "--algebra", "sl2", "--algebra", "gl2",
                 "--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert "sl2" in out and "gl2" in out


def test_flow_run_with_csv(tmp_path, capsys):
    csv = tmp_path / "traj.csv"
    code = main([
        "flow", "run", "--algebra", "sl2", "--field", "t",
        "--dt", "0.01", "--T", "0.2", "--csv", str(csv),
    ])
    assert code == 0
    assert "[PASS]" in capsys.readouterr().out
    assert csv.read_text().splitlines()[0].startswith("t, x_1")


def test_flow_run_rejects_fractional_step_count(capsys):
    assert main(["flow", "run", "--algebra", "sl2", "--dt", "0.3", "--T", "1"]) == 2
    assert "whole number of steps" in capsys.readouterr().err


def test_flow_commutation(capsys):
    assert main(["flow", "commutation", "--algebra", "sl2", "--steps", "40"]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_full_battery_runs(capsys):
    assert main(["check", "all", "--algebra", "sl2", "--samples", "10"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].endswith("all passed")


@pytest.mark.parametrize("battery", sorted(BATTERY_NAMES) + ["all"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_check_samples_must_be_positive(battery, count, capsys):
    with pytest.raises(SystemExit) as ex:
        main(["check", battery, "--samples", count])
    assert ex.value.code == 2
    assert "--samples: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_flow_commutation_steps_must_be_positive(count, capsys):
    with pytest.raises(SystemExit) as ex:
        main(["flow", "commutation", "--steps", count])
    assert ex.value.code == 2
    assert "--steps: must be at least 1" in capsys.readouterr().err


def test_program_bug_is_not_a_usage_error(monkeypatch):
    def broken(alg, samples, seed, tol):
        raise ValueError("a bug inside a battery")

    monkeypatch.setitem(checks._BATTERIES, "rais", broken)
    with pytest.raises(ValueError, match="a bug inside a battery"):
        main(["check", "rais", "--algebra", "sl2"])


@pytest.mark.parametrize("algebra, label", [("sl2", "-1"), ("sl2", "0"), ("gl2", "9")])
def test_flow_run_takes_generator_labels_only(algebra, label, capsys):
    code = main(["flow", "run", "--algebra", algebra, "--field", "linear",
                 "--i", label, "--lam", "0.5", "--T", "0.01", "--dt", "0.01"])
    assert code == 2
    assert "not a generator label" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"exponents": 1},
    {"h_coords": [float("nan")] * 4},
    {"e_coords": [float("inf"), 0.0, 0.0, 0.0]},
], ids=["not-an-object", "exponents-not-a-list", "nan-entry", "inf-entry"])
def test_malformed_spec_is_usage_error(doc, tmp_path, gl2, capsys):
    if isinstance(doc, dict):
        doc = {**spec_to_document(gl2), **doc}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for argv in (["algebra", "validate", str(path)],
                 ["check", "mcybe", "--algebra", str(path)]):
        assert main(argv) == 2
        assert "parse failure" in capsys.readouterr().err


def test_morphism_check_passes_on_so5_spec(so5, tmp_path, capsys):
    path = tmp_path / "so5.json"
    save_spec(so5, path)
    assert main(["check", "morphism", "--algebra", str(path)]) == 0
    assert "[PASS] morphism-psi1" in capsys.readouterr().out
