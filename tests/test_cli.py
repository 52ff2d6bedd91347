"""Command-line entry point: exit codes 0 (pass) / 1 (failed check) / 2 (usage) /
3 (program bug)."""

import itertools
import json
import warnings

import numpy as np
import pytest

from toda2 import (AlgebraValidationError, algebra, build_sl, checks, cli, emit_report, load_spec,
                   run_battery, save_spec, spec_to_document)
from toda2.checks import BATTERY_NAMES
from toda2.cli import main, resolve_algebra


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


def test_algebra_build_prints_what_it_writes(tmp_path, capsys):
    for token in ("sl3", "gl2"):
        out = tmp_path / f"{token}.json"
        assert main(["algebra", "build", token, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["algebra", "build", token]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


def test_algebra_validate(capsys, tmp_path):
    assert main(["algebra", "validate", "sl3"]) == 0
    assert "invariants hold" in capsys.readouterr().out
    # a spec file can be named instead of a builder token
    out = tmp_path / "sl2.json"
    main(["algebra", "build", "sl2", "--out", str(out)])
    capsys.readouterr()
    assert main(["algebra", "validate", str(out)]) == 0


def exterior_square_document(alg):
    """The spec document of alg acting on Λ²ℂⁿ: each basis matrix b replaced
    by its action e_i∧e_j ↦ be_i∧e_j + e_i∧be_j, i < j."""
    n = alg.matrix_size
    eye = np.eye(n)
    wedges = np.stack([np.kron(eye[i], eye[j]) - np.kron(eye[j], eye[i])
                       for i, j in itertools.combinations(range(n), 2)], axis=1)
    doc = spec_to_document(alg)
    doc["basis"] = [(wedges.T @ (np.kron(b, eye) + np.kron(eye, b)) @ wedges / 2.0).tolist()
                    for b in alg.basis]
    doc["n"] = wedges.shape[1]
    return doc


def test_a_spec_whose_trace_powers_are_dependent_is_refused(tmp_path, capsys):
    # sl4 on Λ²ℂ⁴ ≅ so6 on ℂ⁶ passes every other invariant, but the odd
    # trace Tr x³ vanishes on so6: the gradients ĝ(x^{m_i}) have rank 2, and
    # the family would have 8 independent members, not 12
    doc = exterior_square_document(build_sl(4))
    with pytest.raises(AlgebraValidationError, match="generator-independence"):
        load_spec(doc)
    path = tmp_path / "sl4-wedge2.json"
    path.write_text(json.dumps(doc))
    assert main(["algebra", "validate", str(path)]) == 1
    assert capsys.readouterr().out == "violated: generator-independence (residual 2)\n"


def test_algebra_validate_runs_the_jacobi_check_once(tmp_path, monkeypatch, capsys, sl2):
    # building or loading validates; the command reads that verdict, it does not
    # validate again.  Counted as validations: closure certifies Jacobi, so a
    # sound spec makes no call to the exhaustive residual at all
    path = tmp_path / "sl2.json"
    save_spec(sl2, path)
    calls = []
    validate = algebra.validate_spec
    monkeypatch.setattr(algebra, "validate_spec", lambda spec: calls.append(1) or validate(spec))
    for token in ("sl3", str(path)):
        calls.clear()
        assert main(["algebra", "validate", token]) == 0
        assert len(calls) == 1, token
    assert capsys.readouterr().out.count("invariants hold") == 2


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


def test_algebra_validate_underflowing_form_has_finite_residual(tmp_path, capsys, sl2):
    # a basis scaled by 1e-200 has a Gram matrix that underflows to 0
    doc = spec_to_document(sl2)
    doc["basis"] = (np.array(doc["basis"]) * 1e-200).tolist()
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["algebra", "validate", str(path)]) == 1
    line = next(s for s in capsys.readouterr().out.splitlines()
                if s.startswith("violated: form-nondegenerate"))
    residual = float(line.split("(residual ")[1].rstrip(")"))
    assert np.isfinite(residual)


def test_algebra_validate_parse_failure_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["algebra", "validate", str(path)]) == 2
    assert "parse failure" in capsys.readouterr().err


def test_check_pass_and_fail_exit_codes(request, capsys):
    assert main(["check", "mcybe", "--algebra", "sl2", "--samples", "30"]) == 0
    assert "[PASS]" in capsys.readouterr().out
    # a bracket field off by 1e-6 forces a FAIL and exit code 1 — checks still run
    request.getfixturevalue("fields_off_by_a_millionth")
    assert main(["check", "casimir", "--algebra", "sl2"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["independence", "rank", "rais", "toda"])
def test_tol_is_refused_by_a_battery_that_keeps_its_own(name, capsys):
    with pytest.raises(SystemExit) as ex:
        main(["check", name, "--algebra", "sl2", "--tol", "1e-3"])
    assert ex.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --tol 1e-3" in err


def test_tol_is_refused_before_any_build(monkeypatch, capsys):
    # the refusal needs no algebra: sl9 is not built, and a bad token does
    # not hide the flag
    def no_build(*args):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(cli, "build_sl", no_build)
    for name, token in (("toda", "sl9"), ("rank", "sl99")):
        with pytest.raises(SystemExit) as ex:
            main(["check", name, "--algebra", token, "--tol", "1e-3"])
        assert ex.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tol 1e-3" in err and token not in err


def test_check_rejects_unknown_battery():
    with pytest.raises(SystemExit) as ex:
        main(["check", "nonsense"])
    assert ex.value.code == 2


def test_unknown_algebra_is_usage_error(capsys):
    assert main(["algebra", "build", "xyz9"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["sl10", "sl20", "sl100", "gl25", "sl1"])
def test_builtin_order_is_bounded_before_any_build(token, monkeypatch, capsys):
    # sl20 would need a ~0.5 GB structure tensor and a ~40 min Jacobi check: never build
    def no_build(n):
        raise AssertionError(f"builder called for order {n}")

    monkeypatch.setattr(cli, "build_sl", no_build)
    monkeypatch.setattr(cli, "build_gl", no_build)
    assert main(["algebra", "build", token]) == 2
    assert "order must be between 2 and 9" in capsys.readouterr().err


def test_builtin_orders_two_to_nine_reach_the_builders(monkeypatch):
    monkeypatch.setattr(cli, "build_sl", lambda n: ("sl", n))
    monkeypatch.setattr(cli, "build_gl", lambda n: ("gl", n))
    for n in range(2, 10):
        assert resolve_algebra(f"sl{n}") == ("sl", n)
        assert resolve_algebra(f"gl{n}") == ("gl", n)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")

    return json.loads(text, parse_constant=reject)


def test_truncated_flow_report_is_strict_json(capsys):
    # the blow-up is reported, not warned about: no numpy RuntimeWarning either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["flow", "run", "--algebra", "gl2", "--field", "quadratic", "--i", "1",
                     "--lam", "0", "--dt", "0.05", "--T", "3", "--format", "json"])
    assert code == 1
    doc = _strict_json(capsys.readouterr().out)
    report = next(r for r in doc["reports"] if r["check"] == "flow-conservation")
    assert report["measured"] is None and report["verdict"] is False
    assert "non-finite state at step" in report["detail"]


@pytest.mark.parametrize("argv, interval", [
    # the sl4 t-flow from the default seed meets a pole between two samples
    (["--algebra", "sl4", "--field", "t", "--dt", "2e-3", "--T", "3"],
     "t = 2.056 and t = 2.058 (steps 1028 and 1029)"),
    # the gl2 s-flow's first pole lies in (1.87, 1.88): a sample step of 100
    # spans many sign changes of a minor, and the run still stops at the first
    (["--algebra", "gl2", "--field", "s", "--dt", "100", "--T", "400"],
     "t = 0 and t = 100 (steps 0 and 1)"),
])
def test_flow_run_names_the_interval_of_a_pole(argv, interval, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["flow", "run", *argv, "--format", "json"])
    assert code == 1
    doc = _strict_json(capsys.readouterr().out)
    report = next(r for r in doc["reports"] if r["check"] == "flow-conservation")
    assert report["verdict"] is False
    assert report["detail"] == f"pole between {interval}; trajectory truncated"


def test_check_json_output_is_deterministic(capsys):
    args = ["check", "casimir", "--algebra", "sl2", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["all_pass"] is True


def test_check_all_json_is_byte_identical_with_warm_caches(capsys):
    # the phase spaces are cached per spec: a second run on the same spec reads
    # them warm, a freshly built spec and the CLI (which builds its own) cold
    alg = build_sl(3)
    first = emit_report(run_battery("all", alg, samples=5), fmt="json")
    warm = emit_report(run_battery("all", alg, samples=5), fmt="json")
    fresh = emit_report(run_battery("all", build_sl(3), samples=5), fmt="json")
    assert main(["check", "all", "--format", "json", "--samples", "5", "--algebra", "sl3"]) == 0
    assert first == warm == fresh
    assert capsys.readouterr().out == first + "\n"


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


@pytest.mark.parametrize("count", ["1001", str(10**30)])
def test_check_samples_are_bounded_before_any_build(count, monkeypatch, capsys):
    # every battery draws its samples as one array: a huge count would allocate
    # its whole stack at once, so it is refused while the arguments are parsed
    def no_build(*args):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(cli, "build_sl", no_build)
    monkeypatch.setattr(cli, "build_gl", no_build)
    with pytest.raises(SystemExit) as ex:
        main(["check", "casimir", "--algebra", "gl3", "--samples", count])
    assert ex.value.code == 2
    assert "--samples: must be at most 1000" in capsys.readouterr().err
    assert cli.build_parser().parse_args(["check", "casimir", "--samples", "1000"]).samples == 1000


@pytest.mark.parametrize("count", ["0", "-1"])
def test_flow_commutation_steps_must_be_positive(count, capsys):
    with pytest.raises(SystemExit) as ex:
        main(["flow", "commutation", "--steps", count])
    assert ex.value.code == 2
    assert "--steps: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["flow", "commutation", "--steps", str(10**30)], "--steps: must be at most 10000"),
    (["flow", "commutation", "--steps", "10001"], "--steps: must be at most 10000"),
    (["flow", "run", "--T", "1e12"],
     "T/dt = 1000000000000000 steps; a flow run takes at most 10000"),
], ids=["steps-1e30", "steps-10001", "run-T-1e12"])
def test_flow_steps_are_bounded_before_any_build(argv, message, monkeypatch, capsys):
    # RK4 keeps every state: a huge step count would hang or exhaust memory
    def no_build(*args):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(cli, "build_sl", no_build)
    monkeypatch.setattr(cli, "build_gl", no_build)
    try:    # argparse refuses --steps, the command refuses T/dt
        code = main(argv + ["--algebra", "gl3"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert cli.build_parser().parse_args(["flow", "commutation", "--steps", "10000"]).steps == 10000


@pytest.mark.parametrize("command", [
    ["check", "mcybe"], ["check", "all"], ["flow", "run"], ["flow", "commutation"],
])
@pytest.mark.parametrize("spelling", ["--tol 1e-3", "--tol=1e-3", "--tol=nan", "--tol=-1",
                                      "--tol=0", "--tol=inf", "--tol=-inf"])
def test_tol_is_an_unknown_argument_of_every_command(command, spelling, monkeypatch, capsys):
    # each check keeps its own tolerance: no command takes --tol, and the
    # refusal comes before sl9 is built
    def no_build(*args):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(cli, "build_sl", no_build)
    with pytest.raises(SystemExit) as ex:
        main(command + ["--algebra", "sl9", *spelling.split()])
    assert ex.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {spelling}" in err


@pytest.mark.parametrize("argv, message", [
    (["check", "mcybe", "--samples", "x"], "--samples: must be a whole number, got 'x'"),
    (["check", "all", "--samples", "2.5"], "--samples: must be a whole number, got '2.5'"),
    (["flow", "commutation", "--steps", "1.5"], "--steps: must be a whole number, got '1.5'"),
    (["flow", "commutation", "--steps", "ten"], "--steps: must be a whole number, got 'ten'"),
])
def test_non_numeric_values_name_the_expected_input(argv, message, capsys):
    with pytest.raises(SystemExit) as ex:
        main(argv)
    assert ex.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "invalid" not in err


def test_program_bug_is_not_a_usage_error(monkeypatch, capsys):
    # a ValueError as numpy raises it is a bug: exit 3 with its traceback,
    # neither a usage error (2) nor a failed check (1)
    def broken(alg, samples, seed):
        raise ValueError("operands could not be broadcast together with shapes (3,) (4,)")

    monkeypatch.setitem(checks._BATTERIES, "rais", broken)
    assert main(["check", "rais", "--algebra", "sl2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" in err and "ValueError: operands could not be broadcast" in err


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


@pytest.mark.parametrize("battery", ["rank", "all"])
def test_rank_checks_run_on_so5_spec(battery, so5, tmp_path, capsys):
    path = tmp_path / "so5.json"
    save_spec(so5, path)
    code = main(["check", battery, "--algebra", str(path), "--samples", "2"])
    assert code in (0, 1)
    assert "cartan-block" in capsys.readouterr().out


def test_cartan_block_not_applicable_when_cartan_does_not_match(sl3, tmp_path, capsys):
    doc = spec_to_document(sl3)
    doc["cartan"] = [[2, -3], [-1, 2]]
    path = tmp_path / "sl3.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "rank", "--algebra", str(path)]) == 0
    line = next(s for s in capsys.readouterr().out.splitlines() if "cartan-block" in s)
    assert "not applicable" in line and "neither cartan nor its transpose" in line


def test_morphism_check_passes_on_so5_spec(so5, tmp_path, capsys):
    path = tmp_path / "so5.json"
    save_spec(so5, path)
    assert main(["check", "morphism", "--algebra", str(path)]) == 0
    assert "[PASS] morphism-psi1" in capsys.readouterr().out


GL1 = {"name": "gl1", "n": 1, "dim": 1, "rank": 1, "basis": [[[1.0]]], "degrees": [0],
       "exponents": [0], "cartan": [[0]], "e_coords": [0.0], "h_coords": [0.0],
       "associative": True}


# each refusal of `checks._simple_system` that a validating spec reaches, with
# the detail of its cartan-block report.  No validating spec reaches "the
# form does not pair degrees 1 and -1": a non-degenerate graded form pairs 𝔤₁
# with 𝔤₋₁, so degrees 1 and −1 also hold equally many basis vectors.  None
# known reaches "a degree-1 basis vector is not a root vector", which needs
# α_i(t_i) = ⟨[t_i, e_i], f_i⟩ = ⟨t_i, t_i⟩ = 0 for t_i = [e_i, f_i] in 𝔤₀, nor
# the first refusal with more degree-1 basis vectors than the rank
# ("neither cartan nor its transpose" is the test above)
@pytest.mark.parametrize("case", ["gl1", "gl3-padded-row", "sl3-mixed"])
def test_cartan_block_refusals_reachable_by_a_validating_spec(case, sl3, gl3, tmp_path, capsys):
    if case == "gl1":       # no builder makes gl(1), but its document validates
        doc, want = GL1, ("degrees 1 and -1 hold 0 and 0 basis vectors; "
                          "a simple system needs equally many, at most rank 1")
    elif case == "gl3-padded-row":
        doc = spec_to_document(gl3)
        doc["cartan"][2][0] = 1
        want = "cartan has nonzero entries outside the 2 simple roots of degree 1"
    else:                   # sl3's degree-1 basis mixed by an invertible 2×2
        up, mix, doc = sl3.degrees == 1, np.array([[1.0, 2.0], [0.0, 1.0]]), spec_to_document(sl3)
        basis, e = np.array(doc["basis"]), np.array(doc["e_coords"])
        basis[up] = np.einsum("ij,jkl->ikl", mix, basis[up])
        e[up] = np.linalg.solve(mix.T, e[up])               # e stays the same matrix
        doc.update(basis=basis.tolist(), e_coords=e.tolist())
        want = "the degree-1 basis vectors are not root vectors (residual 6)"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["algebra", "validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["check", "rank", "--algebra", str(path), "--format", "json"]) == 0
    report = next(r for r in json.loads(capsys.readouterr().out)["reports"]
                  if r["check"] == "cartan-block")
    assert report["detail"] == f"not applicable: {doc['name']}: {want}"


def test_algebra_validate_refuses_a_short_principal_pair_row(sl2, tmp_path, capsys):
    doc = spec_to_document(sl2)
    doc["e_coords"] = doc["e_coords"][:2]
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(doc))
    assert main(["algebra", "validate", str(path)]) == 2
    assert "sl2: coordinate vector has shape (2,), expected (3,)" in capsys.readouterr().err
