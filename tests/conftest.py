"""Shared fixtures: the five desk-scale algebras and split so(5), built once per session."""

import json

import numpy as np
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

def so5_document() -> dict:
    """Split so(5): X with Xᵀ S + S X = 0, S the antidiagonal identity.

    Basis X_ij = E_ij − E_{6−j,6−i} over representative index pairs; degree
    of X_ij is j − i; principal grading element diag(4, 2, 0, −2, −4).
    """
    def X(i, j):  # 1-based
        m = np.zeros((5, 5))
        m[i - 1, j - 1] += 1.0
        m[5 - j, 5 - i] -= 1.0
        return m

    pairs = [(1, 1), (2, 2)] + [
        (i, j) for i in range(1, 6) for j in range(1, 6) if i != j and i + j < 6
    ]
    basis = np.array([X(i, j) for i, j in pairs])
    degrees = [j - i for i, j in pairs]
    dim = len(pairs)
    flat = basis.reshape(dim, -1)

    def coords_of(mat):
        c, *_ = np.linalg.lstsq(flat.T, mat.reshape(-1), rcond=None)
        return c

    e = X(1, 2) + X(2, 3)
    h = 4.0 * X(1, 1) + 2.0 * X(2, 2)
    return {
        "name": "so5",
        "n": 5,
        "dim": dim,
        "rank": 2,
        "basis": basis.tolist(),
        "degrees": degrees,
        "exponents": [1, 3],
        "cartan": [[2, -1], [-2, 2]],
        "e_coords": coords_of(e).tolist(),
        "h_coords": coords_of(h).tolist(),
        "associative": False,
    }


@pytest.fixture(scope="session")
def so5():
    return load_spec(json.dumps(so5_document()))
