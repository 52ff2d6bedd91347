"""The CLI exit-code contract as a property: every command line ends in exit 0
(all checks pass), 1 (a check failed) or 2 (usage or configuration error),
never in an uncaught exception.

Only cheap commands run in-process: `algebra validate` and `check rais` on
fuzzed --samples, --tol and --algebra tokens and on malformed spec documents,
`check casimir` on sl2, gl2 and sl3 with fuzzed --samples (at most 1000
are accepted) and --tol tokens, and `flow run` and `flow commutation` on sl2
and gl2 with fuzzed step sizes, horizons, fields and pencil parameters (at
most 10000 steps are accepted, ~0.5 s on gl2).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from toda2 import build_sl, spec_to_document
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
    argv = ["check", "rais", "--algebra", algebra, "--samples", samples, "--tol", tol]
    assert exit_code(argv) in (0, 1, 2)


SAMPLE_TOKENS = st.one_of(st.integers(-1, 1001).map(str), NUMBER_TOKENS)


@settings(max_examples=50)
@given(algebra=st.sampled_from(["sl2", "gl2", "sl3"]), samples=SAMPLE_TOKENS, tol=NUMBER_TOKENS)
@example(algebra="sl3", samples="1000", tol="1e-9")
@example(algebra="gl2", samples=str(10**30), tol="1e-9")
def test_fuzzed_samples_keep_the_exit_code_contract_on_casimir(algebra, samples, tol):
    argv = ["check", "casimir", "--algebra", algebra, "--samples", samples, "--tol", tol]
    assert exit_code(argv) in (0, 1, 2)


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
       steps=SAMPLE_TOKENS | st.integers(9990, 10010).map(str), dt=STEP_TOKENS | NUMBER_TOKENS)
@example(algebra="gl2", steps="10000", dt="1e-3")
@example(algebra="sl2", steps=str(10**30), dt="1e-3")
@example(algebra="sl2", steps="--", dt="0.05")     # argparse would store [] for --steps=--
@example(algebra="sl2", steps="9", dt="1")       # RK4 would blow up here
@example(algebra="gl2", steps="1000", dt="100")  # dt·‖X‖ in the hundreds
def test_fuzzed_flow_commutation_keeps_the_exit_code_contract(algebra, steps, dt):
    argv = ["flow", "commutation", "--algebra", algebra, f"--steps={steps}", f"--dt={dt}"]
    assert exit_code(argv) in (0, 1, 2)
