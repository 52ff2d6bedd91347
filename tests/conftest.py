"""Shared fixtures: the five desk-scale algebras and split so(5), built once per session."""

import ast
import os
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blas_thread_vars() -> tuple:
    """The BLAS thread variables perfbench/run.py pins, read from its source
    so that numpy is not imported by reading them."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "BLAS_THREAD_VARS":
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py defines no BLAS_THREAD_VARS")


# one BLAS thread, as in the benchmark: a BLAS library reads these once, when
# numpy first loads it, and the suite's small products only pay for threads
for _var in _blas_thread_vars():
    os.environ[_var] = "1"

import pytest  # noqa: E402
from hypothesis import HealthCheck, settings  # noqa: E402

from toda2 import build_gl, build_sl, load_spec  # noqa: E402

settings.register_profile(
    "desk",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("desk")


@pytest.fixture(scope="session")
def sl2():
    return build_sl(2)


@pytest.fixture(scope="session")
def sl3():
    return build_sl(3)


@pytest.fixture(scope="session")
def sl4():
    return build_sl(4)


@pytest.fixture(scope="session")
def gl2():
    return build_gl(2)


@pytest.fixture(scope="session")
def gl3():
    return build_gl(3)


@pytest.fixture(scope="session")
def desk_algebras(sl2, sl3, sl4, gl2, gl3):
    """All five, keyed by name, for tests that sweep the whole desk."""
    return {a.name: a for a in (sl2, sl3, sl4, gl2, gl3)}


@pytest.fixture
def fields_off_by_a_millionth(monkeypatch):
    """The linear and quadratic bracket fields X(m) off by 1e-6·m wherever
    `poisson` and `checks` read them: a negative control that makes the
    Casimir and involutivity checks FAIL at their own tolerances."""
    from toda2 import checks, poisson

    for name in ("linear_field", "quadratic_field"):
        field = getattr(poisson, name)

        def off(alg, m, g, field=field):
            return field(alg, m, g) + 1e-6 * m

        for module in (poisson, checks):
            monkeypatch.setattr(module, name, off)


# ---------------------------------------------------------------------------
# so(5), split form: an algebra no builder provides, defined by document
# ---------------------------------------------------------------------------

SCRIPTS = ROOT / "scripts"


@pytest.fixture(scope="session")
def so5():
    """The split so(5) document that scripts/make_so5_spec.py writes."""
    so5_document = runpy.run_path(str(SCRIPTS / "make_so5_spec.py"))["so5_document"]
    return load_spec(so5_document())
