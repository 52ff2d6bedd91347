"""Splitting operator R = P₊ − P₋ and its pair extension ℛ."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from toda2 import (
    Element,
    PairPoint,
    build_sl,
    load_spec,
)
from toda2.algebra import bracket_blocks
from toda2.checks import check_mcybe_battery
from toda2.rmatrix import (
    r_adjoint_block,
    r_block,
    r_bracket_blocks,
    rr_adjoint_block,
    rr_block,
)

from pointwise import bracket, decompose_pair, form, form2, point_block, shuffled_and_rescaled, zero


def r_point(x):
    """R on one Element, as its coordinate block action."""
    return Element(x.alg, r_block(x.alg, x.coords))


def rr_point(p):
    """ℛ on one PairPoint, as its pair-block action."""
    return PairPoint.from_vec(p.alg, rr_block(p.alg, point_block(p)).ravel())


def test_r_apply_on_sl2_basis(sl2):
    e, f, h = (Element(sl2, np.eye(3)[a]) for a in range(3))
    assert np.allclose(r_point(e).coords, e.coords)      # degree 1 → +
    assert np.allclose(r_point(f).coords, -f.coords)     # degree −1 → −
    assert np.allclose(r_point(h).coords, h.coords)      # degree 0 sits in P₊
    x = Element(sl2, e.coords + 2.0 * f.coords - h.coords)
    assert r_point(x).coords == pytest.approx([1.0, -2.0, -1.0])


def test_rr_apply_worked_example(sl2):
    # ℛ(x, y) = (R(x−y) + y, R(x−y) + x); for (e, f):
    # R(e−f) = e+f, so ℛ(e, f) = (e + 2f, 2e + f).
    e, f = Element(sl2, np.eye(3)[0]), Element(sl2, np.eye(3)[1])
    out = rr_point(PairPoint(e, f))
    assert np.allclose(out.x.coords, e.coords + 2.0 * f.coords, atol=1e-14)
    assert np.allclose(out.y.coords, 2.0 * e.coords + f.coords, atol=1e-14)


coords = st.lists(
    st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=3, max_size=3
).map(np.array)


@given(coords, coords)
def test_rr_apply_componentwise_formula(a, b):
    # componentwise: x ↦ x₊ − x₋ + 2y₋,  y ↦ y₋ − y₊ + 2x₊
    alg = build_sl(2)
    out = rr_point(PairPoint(Element(alg, a), Element(alg, b)))
    Rd = r_point(Element(alg, a - b)).coords
    assert np.allclose(out.x.coords, Rd + b, atol=1e-13)
    assert np.allclose(out.y.coords, Rd + a, atol=1e-13)


@given(coords, coords)
def test_decompose_pair_reassembles(a, b):
    alg = build_sl(2)
    p = PairPoint(Element(alg, a), Element(alg, b))
    plus, minus = decompose_pair(p)
    assert np.allclose(plus.vec() - minus.vec(), rr_point(p).vec(), atol=1e-13)
    # plus lives on the diagonal, minus in 𝔤₋ × 𝔤₊
    assert np.allclose(plus.x.coords, plus.y.coords, atol=1e-13)
    assert np.abs(np.where(alg.degrees < 0, 0.0, minus.x.coords)).max() < 1e-13
    assert np.abs(np.where(alg.degrees >= 0, 0.0, minus.y.coords)).max() < 1e-13


def test_form2_signature(sl3):
    rng = np.random.default_rng(2)
    x = Element(sl3, rng.uniform(-1, 1, sl3.dim))
    y = Element(sl3, rng.uniform(-1, 1, sl3.dim))
    assert form2(PairPoint(x, zero(sl3)), PairPoint(x, zero(sl3))) == pytest.approx(
        form(x, x)
    )
    assert form2(PairPoint(zero(sl3), y), PairPoint(zero(sl3), y)) == pytest.approx(
        -form(y, y)
    )


def test_mcybe_identity_elementwise(sl3):
    # B_R(x, y) := [Rx, Ry] − R([Rx, y] + [x, Ry]) must equal −c²[x, y]
    rng = np.random.default_rng(9)
    for c in (1.0, 2.0):
        for _ in range(20):
            x = Element(sl3, rng.uniform(-1, 1, sl3.dim))
            y = Element(sl3, rng.uniform(-1, 1, sl3.dim))
            Rx, Ry = (Element(sl3, c * r_point(z).coords) for z in (x, y))
            inner = Element(sl3, bracket(Rx, y).coords + bracket(x, Ry).coords)
            b = bracket(Rx, Ry).coords - c * r_point(inner).coords
            target = -(c**2) * bracket(x, y).coords
            assert np.linalg.norm(b - target) < 1e-12
    # the induced bracket really is ½([Rx,y] + [x,Ry]) for the bare R
    for _ in range(10):
        x = Element(sl3, rng.uniform(-1, 1, sl3.dim))
        y = Element(sl3, rng.uniform(-1, 1, sl3.dim))
        rb = r_bracket_blocks(sl3, point_block(x), point_block(y))[0]
        half = 0.5 * (bracket(r_point(x), y).coords + bracket(x, r_point(y)).coords)
        assert np.linalg.norm(rb - half) < 1e-13


def test_pair_bracket_componentwise(sl2):
    rng = np.random.default_rng(4)
    p = PairPoint(Element(sl2, rng.uniform(-1, 1, 3)), Element(sl2, rng.uniform(-1, 1, 3)))
    q = PairPoint(Element(sl2, rng.uniform(-1, 1, 3)), Element(sl2, rng.uniform(-1, 1, 3)))
    out = bracket_blocks(sl2, point_block(p), point_block(q))
    assert np.allclose(out[0], bracket(p.x, q.x).coords)
    assert np.allclose(out[1], bracket(p.y, q.y).coords)


def test_check_mcybe_passes_everywhere(desk_algebras):
    for alg in desk_algebras.values():
        reports = check_mcybe_battery(alg, samples=60)
        assert [r.check for r in reports] == ["mcybe", "mcybe-pair"]
        for report in reports:
            assert report.verdict, report.line()


def test_check_mcybe_rejects_broken_operator(sl2):
    # a negative control: grade e and f by 0 and h by −1, so that the
    # splitting's 𝔤_{≥0} = span(e, f) is not a subalgebra ([e, f] = h), and
    # R = P₊ − P₋ of that splitting fails mCYBE on 𝔤 and on 𝔤×𝔤
    broken = dataclasses.replace(sl2, degrees=np.where(sl2.degrees == 0, -1, 0))
    for report in check_mcybe_battery(broken, samples=40):
        assert not report.verdict
        assert report.measured > 1e-3


def test_pairpoint_vector_roundtrip(sl3):
    rng = np.random.default_rng(6)
    p = PairPoint(
        Element(sl3, rng.uniform(-1, 1, sl3.dim)),
        Element(sl3, rng.uniform(-1, 1, sl3.dim)),
    )
    q = PairPoint.from_vec(sl3, p.vec())
    assert np.array_equal(q.vec(), p.vec())
    assert p.vec().shape == (2 * sl3.dim,)


@pytest.mark.parametrize("name", ["sl3", "gl3", "so5"])
def test_adjoints_move_r_across_the_pairings(name, request):
    # ⟨u, Rx⟩ = ⟨R*u, x⟩ and ⟨p, ℛq⟩₂ = ⟨ℛ*p, q⟩₂, R* read off the degrees
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(17)
    u, x = (Element(alg, rng.uniform(-1, 1, alg.dim)) for _ in range(2))
    Rs_u = Element(alg, r_adjoint_block(alg, u.coords))
    assert form(u, r_point(x)) == pytest.approx(form(Rs_u, x), abs=1e-13)
    p, q = (PairPoint(*(Element(alg, rng.uniform(-1, 1, alg.dim)) for _ in range(2)))
            for _ in range(2))
    RRs_p = PairPoint.from_vec(alg, rr_adjoint_block(alg, point_block(p)).ravel())
    assert form2(p, rr_point(q)) == pytest.approx(form2(RRs_p, q), abs=1e-13)
    # R is not self-adjoint: the form pairs degree k with degree −k
    e = Element(alg, np.eye(alg.dim)[list(alg.degrees).index(1)])
    assert np.linalg.norm(r_adjoint_block(alg, e.coords) + e.coords) < 1e-14


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "gl2", "gl3", "so5",
                                  "sl3-shuffled", "gl3-shuffled"])
def test_r_adjoint_is_r_conjugated_by_the_gram_matrix(name, request):
    # R* = P_{≤0} − P_{>0} read off the degrees against the adjoint written
    # through the form, G⁻¹·diag(signs)·G, also in a shuffled and rescaled
    # basis, where G is no permutation
    base, _, shuffled = name.partition("-")
    alg = request.getfixturevalue(base)
    if shuffled:
        alg = load_spec(shuffled_and_rescaled(alg, np.random.default_rng(5)))
    X = np.random.default_rng(23).uniform(-1, 1, (7, alg.dim))
    ref = (np.linalg.inv(alg.gram) @ (alg.splitting_signs[:, None] * (alg.gram @ X.T))).T
    assert np.abs(r_adjoint_block(alg, X) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_signs_are_cached_and_read_only(sl3):
    first = sl3.splitting_signs
    assert sl3.splitting_signs is first
    assert not first.flags.writeable
    assert np.array_equal(first, np.where(sl3.degrees >= 0, 1.0, -1.0))


def _mcybe_per_sample(alg, samples=200, seed=42, pair=False):
    """The mCYBE battery's residual one sample at a time, kept as the reference:
    the same draws, one point's coordinates (dim,) or pair block (2, dim) at a
    time, centre projection and running max."""
    rng = np.random.default_rng(seed)

    def op(p):
        return rr_block(alg, p) if pair else r_block(alg, p)

    def centred(z):
        if not alg.associative:
            return z
        iden = alg.identity_coords
        t = float(z @ alg.gram @ iden) / float(iden @ alg.gram @ iden)
        return z - t * iden

    def br(a, b):
        return bracket_blocks(alg, a, b)

    shape = (2, alg.dim) if pair else alg.dim
    worst = 0.0
    for _ in range(samples):
        x, y = rng.uniform(-1.0, 1.0, shape), rng.uniform(-1.0, 1.0, shape)
        Rx, Ry = op(x), op(y)
        res = (br(Rx, Ry) - op(br(Rx, y) + br(x, Ry))) + br(x, y)
        parts = res if pair else (res,)
        worst = max(worst, max(float(np.linalg.norm(centred(z))) for z in parts))
    return worst


@pytest.mark.parametrize("name", ["sl3", "gl3", "so5"])
def test_check_mcybe_stack_matches_per_sample_loop(name, request):
    alg = request.getfixturevalue(name)
    mcybe, mcybe_pair = check_mcybe_battery(alg, samples=50, seed=9)
    assert mcybe.measured == _mcybe_per_sample(alg, samples=50, seed=9, pair=False)
    assert mcybe_pair.measured == _mcybe_per_sample(alg, samples=50, seed=9, pair=True)
