"""The CLI exit-code contract as a property: every command line ends in exit 0
(all checks pass), 1 (a check failed) or 2 (usage or configuration error),
never in an uncaught exception.

Only cheap commands run in-process: `algebra validate` and `check rais` on
fuzzed --samples and --algebra tokens, with and without a fuzzed --tol, and
on malformed spec documents, every battery and `check all` on sl2, gl2 and
sl3 with fuzzed --samples (at most 1000 are accepted) and --seed tokens,
without and with a fuzzed --tol, every battery on the same algebras with
fuzzed --seed tokens, and `flow run` and `flow commutation`
on sl2 and gl2 with fuzzed step sizes, horizons, fields and pencil parameters
(at most 10000 steps are accepted, ~0.5 s on gl2), and fuzzed --seed tokens
on `flow commutation`.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from toda2 import BATTERY_NAMES, build_gl, build_sl, spec_to_document
from toda2.cli import main

SL2_DOC = spec_to_document(build_sl(2))
# characters of builder tokens, numbers and paths, plus a few others; an
# explicit alphabet spares hypothesis its Unicode tables
TEXT = st.text(alphabet="slgo0123456789-+.eExXnaif/ _\t\x00é∞", max_size=12)

NUMBER_TOKENS = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "0x10", " 3", "2.5", "-1", "0", "--"]),
    TEXT,
)
ALGEBRA_TOKENS = st.one_of(
    st.sampled_from(["sl2", "gl2", "sl3", "sl1", "gl0", "sl10", "sl99", "so5", "SL2",
                     "sl02", "gl", "sl-2", "", ".", "tests"]),
    TEXT,
)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30),
    st.floats(allow_nan=True, allow_infinity=True), TEXT,
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=12,
)
# values at the edges of int and float conversion, often enough to be drawn
EDGE_VALUES = st.sampled_from([float("inf"), float("-inf"), float("nan"), 10**30, -10**30,
                               1e300, 2**63, -1, 0, "1", None, [], {}])


@st.composite
def spec_documents(draw):
    """A JSON value, or the sl2 document with one field or one entry replaced or dropped."""
    kind = draw(st.sampled_from(["value", "field", "drop", "entry"]))
    if kind == "value":
        return draw(JSON_VALUES)
    key = draw(st.sampled_from(sorted(SL2_DOC)))
    doc = dict(SL2_DOC)
    if kind == "drop":
        del doc[key]
    elif kind == "field" or not isinstance(doc[key], list) or not doc[key]:
        doc[key] = draw(EDGE_VALUES | JSON_VALUES)
    else:
        entries = list(doc[key])
        entries[draw(st.integers(0, len(entries) - 1))] = draw(EDGE_VALUES | JSON_VALUES)
        doc[key] = entries
    return doc


def exit_code(argv) -> int:
    """main(argv) in-process with its output captured; argparse's exit is a code too."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=50)
@given(algebra=ALGEBRA_TOKENS, samples=NUMBER_TOKENS, tol=NUMBER_TOKENS)
def test_fuzzed_tokens_keep_the_exit_code_contract(algebra, samples, tol):
    assert exit_code(["algebra", "validate", algebra]) in (0, 1, 2)
    argv = ["check", "rais", "--algebra", algebra, "--samples", samples]
    assert exit_code(argv) in (0, 1, 2)
    assert exit_code(argv + ["--tol", tol]) in (0, 1, 2)     # refused, or a bad token


SAMPLE_TOKENS = st.one_of(st.integers(-1, 1001).map(str), NUMBER_TOKENS)


@settings(max_examples=50)
@given(name=st.sampled_from(BATTERY_NAMES + ("all",)), algebra=st.sampled_from(["sl2", "gl2", "sl3"]),
       samples=SAMPLE_TOKENS, tol=NUMBER_TOKENS, seed=NUMBER_TOKENS)
@example(name="all", algebra="sl3", samples="1000", tol="1e-9", seed="42")
@example(name="casimir", algebra="gl2", samples=str(10**30), tol="1e-9", seed="42")
@example(name="casimir", algebra="sl2", samples="5", tol="1e-9", seed="-1")  # a seed must be ≥ 0
def test_fuzzed_samples_keep_the_exit_code_contract_on_every_battery(name, algebra, samples, tol,
                                                                     seed):
    # without --tol, then with it: a battery that keeps its own tolerances
    # refuses --tol, so its --samples are fuzzed on the first run only
    argv = ["check", name, "--algebra", algebra, "--samples", samples, f"--seed={seed}"]
    assert exit_code(argv) in (0, 1, 2)
    assert exit_code(argv + ["--tol", tol]) in (0, 1, 2)


@settings(max_examples=20)
@given(algebra=st.sampled_from(["sl2", "gl2", "sl3"]),
       seed=st.integers(0, 10**6).map(str) | NUMBER_TOKENS)
@example(algebra="sl3", seed="126")     # the Toda run meets a pole: exit 1, no warning
def test_fuzzed_seeds_keep_the_exit_code_contract_on_every_battery(algebra, seed):
    for name in BATTERY_NAMES:
        assert exit_code(["check", name, "--algebra", algebra, f"--seed={seed}"]) in (0, 1, 2)


@settings(max_examples=50)
@given(doc=spec_documents(), samples=NUMBER_TOKENS)
@example(doc={**SL2_DOC, "dim": float("inf")}, samples="5")
@example(doc={**SL2_DOC, "degrees": [10**20, 0, 0]}, samples="5")
def test_malformed_spec_documents_keep_the_exit_code_contract(doc, samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(doc))
        assert exit_code(["algebra", "validate", str(path)]) in (0, 1, 2)
        assert exit_code(["check", "rais", "--algebra", str(path), "--samples", samples]) in (0, 1, 2)


def run_on_document(doc, argv, capsys):
    """main(argv + [path]) on doc written to a file: (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(doc))
        code = main(argv + [str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def test_a_stated_matrix_size_must_match_the_basis(capsys):
    # gl3 stated as n = 4 would expect the rank of gl4 (18, measured 10)
    doc = {**spec_to_document(build_gl(3)), "n": 4}
    code, out, err = run_on_document(doc, ["check", "rank", "--algebra"], capsys)
    assert code == 2 and "matrix-size" in err and out == ""
    code, out, _ = run_on_document(doc, ["algebra", "validate"], capsys)
    assert code == 1 and out == "violated: matrix-size\n"
    # n may be left out, or null
    for stated in ({}, {"n": None}):
        doc = {k: v for k, v in SL2_DOC.items() if k != "n"} | stated
        assert run_on_document(doc, ["algebra", "validate"], capsys)[0] == 0


def test_a_stated_dim_or_rank_must_match_basis_and_exponents(capsys):
    for field, value, invariant in (("dim", 4, "basis-shape"), ("rank", 2, "exponents-length")):
        doc = {**SL2_DOC, field: value}
        code, out, _ = run_on_document(doc, ["algebra", "validate"], capsys)
        assert code == 1 and out == f"violated: {invariant}\n"
        code, _, err = run_on_document(doc, ["check", "rais", "--algebra"], capsys)
        assert code == 2 and invariant in err


def test_a_basis_of_one_or_two_axes_is_a_parse_failure(capsys):
    for basis in ([1.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]):
        code, _, err = run_on_document({**SL2_DOC, "basis": basis}, ["algebra", "validate"],
                                       capsys)
        assert code == 2 and "parse failure: basis" in err


def test_integer_fields_are_refused_not_truncated(capsys):
    for field, value in (("degrees", [1.5, -1, 0]), ("exponents", [1.9]), ("dim", 3.7),
                         ("n", "2"), ("rank", True), ("cartan", [[2.0]]),
                         ("degrees", [1, True, 0])):
        code, _, err = run_on_document({**SL2_DOC, field: value}, ["algebra", "validate"],
                                       capsys)
        assert code == 2 and f"parse failure: {field} must be" in err, field


def test_strings_and_booleans_are_refused_where_numbers_or_a_boolean_belong(capsys):
    # each was read through bool() or a float conversion: the first failed
    # product closure (exit 1) and the others validated clean (exit 0)
    gl2_doc = spec_to_document(build_gl(2))
    for doc, field in (({**SL2_DOC, "associative": "false"}, "associative"),
                       ({**gl2_doc, "associative": 1}, "associative"),
                       ({**SL2_DOC, "e_coords": [str(v) for v in SL2_DOC["e_coords"]]}, "e_coords"),
                       ({**SL2_DOC, "h_coords": [str(v) for v in SL2_DOC["h_coords"]]}, "h_coords"),
                       ({**SL2_DOC, "basis": [[[bool(v) for v in row] for row in mat]
                                              for mat in SL2_DOC["basis"]]}, "basis")):
        code, _, err = run_on_document(doc, ["algebra", "validate"], capsys)
        assert code == 2 and f"parse failure: {field} must be" in err, field


# step sizes and horizons that make a few steps, often enough to be drawn, and
# dt = 100, where dt·‖X‖ is in the hundreds
STEP_TOKENS = st.sampled_from(["0.05", "0.1", "0.25", "0.5", "1", "2", "100", "1e5"])


@settings(max_examples=50)
@given(algebra=st.sampled_from(["sl2", "gl2"]),
       field=st.sampled_from(["t", "s", "quadratic", "linear", "x"]),
       dt=STEP_TOKENS | NUMBER_TOKENS, T=STEP_TOKENS | NUMBER_TOKENS,
       i=st.none() | st.integers(-1, 3).map(str) | NUMBER_TOKENS,
       lam=st.none() | st.sampled_from(["0", "1", "2", "-1"]) | NUMBER_TOKENS)
@example(algebra="gl2", field="quadratic", dt="0.05", T="3", i="1", lam="0")
@example(algebra="sl2", field="linear", dt="0.1", T="1", i="1", lam="nan")
@example(algebra="gl2", field="t", dt="1e-5", T="0.1", i=None, lam=None)
@example(algebra="sl2", field="s", dt="1e-300", T="1", i=None, lam=None)
@example(algebra="sl2", field="t", dt="100", T="1e5", i=None, lam=None)    # dt·‖X‖ ≈ 300
@example(algebra="gl2", field="s", dt="100", T="1e5", i=None, lam=None)
def test_fuzzed_flow_run_keeps_the_exit_code_contract(algebra, field, dt, T, i, lam):
    argv = ["flow", "run", "--algebra", algebra, "--field", field, f"--dt={dt}", f"--T={T}"]
    argv += [] if i is None else [f"--i={i}"]
    argv += [] if lam is None else [f"--lam={lam}"]
    assert exit_code(argv) in (0, 1, 2)


@settings(max_examples=50)
@given(algebra=st.sampled_from(["sl2", "gl2"]),
       steps=SAMPLE_TOKENS | st.integers(9990, 10010).map(str), dt=STEP_TOKENS | NUMBER_TOKENS,
       seed=NUMBER_TOKENS)
@example(algebra="gl2", steps="10000", dt="1e-3", seed="42")
@example(algebra="sl2", steps=str(10**30), dt="1e-3", seed="42")
@example(algebra="sl2", steps="--", dt="0.05", seed="42")  # argparse would store [] for --steps=--
@example(algebra="sl2", steps="9", dt="1", seed="42")       # long exact legs: entries reach 3e5
@example(algebra="gl2", steps="1000", dt="100", seed="42")  # dt·‖X‖ in the hundreds
@example(algebra="sl2", steps="10", dt="1e-3", seed="-1")  # a seed must be ≥ 0
def test_fuzzed_flow_commutation_keeps_the_exit_code_contract(algebra, steps, dt, seed):
    argv = ["flow", "commutation", "--algebra", algebra, f"--steps={steps}", f"--dt={dt}",
            f"--seed={seed}"]
    assert exit_code(argv) in (0, 1, 2)
