"""Shared fixtures: the five desk-scale algebras and split so(5), built once per session."""

import json
import runpy
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from toda2 import build_gl, build_sl, load_spec

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


# ---------------------------------------------------------------------------
# so(5), split form: an algebra no builder provides, defined by document
# ---------------------------------------------------------------------------

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="session")
def so5():
    """The split so(5) document that scripts/make_so5_spec.py writes."""
    so5_document = runpy.run_path(str(SCRIPTS / "make_so5_spec.py"))["so5_document"]
    return load_spec(json.dumps(so5_document()))
