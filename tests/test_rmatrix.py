"""Splitting operator R = P₊ − P₋ and its pair extension ℛ."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from toda2 import (
    AlgebraError,
    PairPoint,
    RMatrixConfig,
    bracket,
    build_sl,
    check_mcybe,
    decompose_pair,
    form,
    form2,
    pair_bracket,
    r_apply,
    r_bracket,
    rr_apply,
)
from toda2.rmatrix import r_adjoint, random_element, random_pair, rr_adjoint

CFG = RMatrixConfig()


def test_r_apply_on_sl2_basis(sl2):
    e, f, h = (sl2.element(np.eye(3)[a]) for a in range(3))
    assert np.allclose(r_apply(e).coords, e.coords)      # degree 1 → +
    assert np.allclose(r_apply(f).coords, -f.coords)     # degree −1 → −
    assert np.allclose(r_apply(h).coords, h.coords)      # degree 0 sits in P₊
    assert r_apply(e + 2.0 * f - h).coords == pytest.approx([1.0, -2.0, -1.0])


def test_rr_apply_worked_example(sl2):
    # ℛ(x, y) = (R(x−y) + y, R(x−y) + x) at c = 1; for (e, f):
    # R(e−f) = e+f, so ℛ(e, f) = (e + 2f, 2e + f).
    e, f = sl2.element(np.eye(3)[0]), sl2.element(np.eye(3)[1])
    out = rr_apply(PairPoint(e, f))
    assert np.allclose(out.x.coords, (e + 2.0 * f).coords, atol=1e-14)
    assert np.allclose(out.y.coords, (2.0 * e + f).coords, atol=1e-14)


coords = st.lists(
    st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=3, max_size=3
).map(np.array)


@given(coords, coords)
def test_rr_apply_componentwise_formula(a, b):
    # componentwise: x ↦ x₊ − x₋ + 2y₋·(c/1),  y ↦ y₋ − y₊ + 2x₊, at c = 1
    alg = build_sl(2)
    x, y = alg.element(a), alg.element(b)
    out = rr_apply(PairPoint(x, y))
    d = x - y
    assert np.allclose(out.x.coords, (r_apply(d) + y).coords, atol=1e-13)
    assert np.allclose(out.y.coords, (r_apply(d) + x).coords, atol=1e-13)


@given(coords, coords)
def test_decompose_pair_reassembles(a, b):
    alg = build_sl(2)
    p = PairPoint(alg.element(a), alg.element(b))
    plus, minus = decompose_pair(p)
    assert np.allclose((plus - minus).vec(), rr_apply(p).vec(), atol=1e-13)
    # plus lives on the diagonal, minus in 𝔤₋ × 𝔤₊
    assert np.allclose(plus.x.coords, plus.y.coords, atol=1e-13)
    assert np.abs(np.where(alg.degrees < 0, 0.0, minus.x.coords)).max() < 1e-13
    assert np.abs(np.where(alg.degrees >= 0, 0.0, minus.y.coords)).max() < 1e-13


def test_form2_signature(sl3):
    rng = np.random.default_rng(2)
    x = sl3.element(rng.uniform(-1, 1, sl3.dim))
    y = sl3.element(rng.uniform(-1, 1, sl3.dim))
    assert form2(PairPoint(x, sl3.zero()), PairPoint(x, sl3.zero())) == pytest.approx(
        form(x, x)
    )
    assert form2(PairPoint(sl3.zero(), y), PairPoint(sl3.zero(), y)) == pytest.approx(
        -form(y, y)
    )


def test_mcybe_identity_elementwise(sl3):
    # B_R(x, y) := [Rx, Ry] − R([Rx, y] + [x, Ry]) must equal −c²[x, y]
    rng = np.random.default_rng(9)
    for c in (1.0, 2.0):
        for _ in range(20):
            x = sl3.element(rng.uniform(-1, 1, sl3.dim))
            y = sl3.element(rng.uniform(-1, 1, sl3.dim))
            Rx, Ry = c * r_apply(x), c * r_apply(y)
            b = bracket(Rx, Ry) - c * r_apply(bracket(Rx, y) + bracket(x, Ry))
            target = -(c**2) * bracket(x, y)
            assert (b - target).norm() < 1e-12
    # the induced bracket really is ½([Rx,y] + [x,Ry]) for the bare R
    for _ in range(10):
        x = sl3.element(rng.uniform(-1, 1, sl3.dim))
        y = sl3.element(rng.uniform(-1, 1, sl3.dim))
        rb = r_bracket(x, y)
        half = 0.5 * (bracket(r_apply(x), y) + bracket(x, r_apply(y)))
        assert (rb - half).norm() < 1e-13


def test_pair_bracket_componentwise(sl2):
    rng = np.random.default_rng(4)
    p = PairPoint(sl2.element(rng.uniform(-1, 1, 3)), sl2.element(rng.uniform(-1, 1, 3)))
    q = PairPoint(sl2.element(rng.uniform(-1, 1, 3)), sl2.element(rng.uniform(-1, 1, 3)))
    out = pair_bracket(p, q)
    assert np.allclose(out.x.coords, bracket(p.x, q.x).coords)
    assert np.allclose(out.y.coords, bracket(p.y, q.y).coords)


def test_check_mcybe_passes_everywhere(desk_algebras):
    for alg in desk_algebras.values():
        for pair in (False, True):
            report = check_mcybe(alg, pair=pair, samples=60)
            assert report.verdict, report.line()


def test_check_mcybe_rejects_broken_operator(sl2):
    # an operator that is not built from a subalgebra splitting fails
    rng = np.random.default_rng(1)
    M = rng.uniform(-1, 1, (3, 3))
    report = check_mcybe(sl2, R=M, samples=40)
    assert not report.verdict
    assert report.measured > 1e-3


def test_pairpoint_vector_roundtrip(sl3):
    rng = np.random.default_rng(6)
    p = PairPoint(
        sl3.element(rng.uniform(-1, 1, sl3.dim)),
        sl3.element(rng.uniform(-1, 1, sl3.dim)),
    )
    q = PairPoint.from_vec(sl3, p.vec())
    assert (p - q).norm() == 0.0
    assert p.vec().shape == (2 * sl3.dim,)


SPLITTINGS = [RMatrixConfig(c=c, plus_region=p, minus_region=q)
              for c in (1.0, 0.5) for p, q in ((">=0", "<0"), (">0", "<=0"))]


@pytest.mark.parametrize("name", ["sl3", "gl3", "so5"])
def test_adjoints_move_r_across_the_pairings(name, request):
    # ⟨u, Rx⟩ = ⟨R*u, x⟩ and ⟨p, ℛq⟩₂ = ⟨ℛ*p, q⟩₂, R* read off the Gram matrix
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(17)
    for cfg in SPLITTINGS:
        u, x = (alg.element(rng.uniform(-1, 1, alg.dim)) for _ in range(2))
        assert form(u, r_apply(x, cfg)) == pytest.approx(
            form(r_adjoint(u, cfg), x), abs=1e-13)
        p, q = (PairPoint(*(alg.element(rng.uniform(-1, 1, alg.dim)) for _ in range(2)))
                for _ in range(2))
        assert form2(p, rr_apply(q, cfg)) == pytest.approx(
            form2(rr_adjoint(p, cfg), q), abs=1e-13)
    # R is not self-adjoint: the form pairs degree k with degree −k
    e = alg.element(np.eye(alg.dim)[list(alg.degrees).index(1)])
    assert (r_adjoint(e) + e).norm() < 1e-14


def test_signs_are_cached_read_only_and_failures_are_not(sl3):
    first = CFG.signs(sl3)
    assert CFG.signs(sl3) is first
    assert RMatrixConfig(c=0.5).signs(sl3) is first      # keyed by regions, not c
    assert not first.flags.writeable
    assert np.array_equal(first, np.where(sl3.degrees >= 0, 1.0, -1.0))
    # degree 0 lies in both regions: every call re-runs the partition check
    overlap = RMatrixConfig(plus_region=">=0", minus_region="<=0")
    for _ in range(2):
        with pytest.raises(AlgebraError, match="do not partition"):
            overlap.signs(sl3)


def _mcybe_per_sample(alg, R=None, c=1.0, samples=200, seed=42, pair=False):
    """check_mcybe's residual one sample at a time, kept as the reference:
    the same draws, Point arithmetic, centre projection and running max."""
    cfg = RMatrixConfig(c=c)
    rng = np.random.default_rng(seed)

    def op(p):
        if pair:
            return rr_apply(p, cfg)
        return r_apply(p, cfg) if R is None else alg.element(R @ p.coords)

    def centred(z):
        if not alg.associative:
            return z
        iden = alg.identity_coords
        t = float(z.coords @ alg.gram @ iden) / float(iden @ alg.gram @ iden)
        return alg.element(z.coords - t * iden)

    br = pair_bracket if pair else bracket
    worst = 0.0
    for _ in range(samples):
        if pair:
            x, y = random_pair(alg, rng), random_pair(alg, rng)
        else:
            x, y = random_element(alg, rng), random_element(alg, rng)
        Rx, Ry = op(x), op(y)
        res = (br(Rx, Ry) - op(br(Rx, y) + br(x, Ry))) + c * c * br(x, y)
        parts = (res.x, res.y) if pair else (res,)
        worst = max(worst, max(centred(z).norm() for z in parts))
    return worst


@pytest.mark.parametrize("name", ["sl3", "gl3", "so5"])
def test_check_mcybe_stack_matches_per_sample_loop(name, request):
    alg = request.getfixturevalue(name)
    user_R = np.random.default_rng(3).uniform(-1, 1, (alg.dim, alg.dim))
    for kwargs in ({}, {"R": user_R}, {"pair": True}, {"c": 0.5}, {"c": 0.5, "pair": True}):
        report = check_mcybe(alg, samples=50, seed=9, **kwargs)
        assert report.measured == _mcybe_per_sample(alg, samples=50, seed=9, **kwargs)
