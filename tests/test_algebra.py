"""Graded-algebra layer: builders, structural validation, serialization.

The so(5) tests build the split form from scratch as a spec document and push
it through load/validate, exercising the path a user takes to add an algebra
that no builder covers.
"""

import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from toda2 import (
    AlgebraError,
    AlgebraValidationError,
    Element,
    algebra,
    build_gl,
    build_sl,
    load_spec,
    phase_tp,
    rank_sweep,
    save_spec,
    spec_to_document,
    validate_spec,
)
from toda2.algebra import jacobi_bound, jacobi_residual
from toda2.poisson import _gradient_blocks

from pointwise import bracket, form, mult, project, shuffled_and_rescaled, with_rescaled_basis

# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

EXPECTED_SHAPE = {
    # name: (dim, rank, exponents)
    "sl2": (3, 1, (1,)),
    "sl3": (8, 2, (1, 2)),
    "sl4": (15, 3, (1, 2, 3)),
    "gl2": (4, 2, (0, 1)),
    "gl3": (9, 3, (0, 1, 2)),
}


def test_builder_shapes(desk_algebras):
    for name, (dim, rank, exponents) in EXPECTED_SHAPE.items():
        alg = desk_algebras[name]
        assert alg.dim == dim
        assert alg.rank == rank
        assert tuple(alg.exponents) == exponents
        assert alg.degrees.min() == -(alg.matrix_size - 1)
        assert alg.degrees.max() == alg.matrix_size - 1


def test_all_builders_validate_clean(desk_algebras):
    for alg in desk_algebras.values():
        assert validate_spec(alg) == []


def test_principal_pair_relations(desk_algebras):
    for alg in desk_algebras.values():
        e, h = Element(alg, alg.e_coords), Element(alg, alg.h_coords)
        assert np.allclose(bracket(h, e).coords, 2.0 * e.coords, atol=1e-12)
        # h grades the whole basis: [h, b_a] = 2 deg(b_a) b_a
        for a in range(alg.dim):
            ba = Element(alg, np.eye(alg.dim)[a])
            got = bracket(h, ba).coords
            assert np.allclose(got, 2.0 * alg.degrees[a] * ba.coords, atol=1e-12)
        # e is a sum over the degree-1 slots only
        assert np.abs(np.where(alg.degrees == 1, 0.0, e.coords)).max() == 0.0


def test_gram_is_trace_form_and_graded(sl3, gl3):
    for alg in (sl3, gl3):
        for a in range(alg.dim):
            for b in range(alg.dim):
                tr = float(np.trace(alg.basis[a] @ alg.basis[b]))
                assert alg.gram[a, b] == pytest.approx(tr, abs=1e-13)
                if alg.degrees[a] + alg.degrees[b] != 0:
                    assert alg.gram[a, b] == 0.0


def test_matrix_roundtrip_and_rejection(sl3):
    rng = np.random.default_rng(7)
    c = rng.uniform(-1, 1, sl3.dim)
    back = sl3.from_matrix(sl3.to_matrices(c)[0])
    assert np.allclose(back, c, atol=1e-13)
    with pytest.raises(AlgebraError):
        sl3.from_matrix(np.eye(3))  # not traceless: outside the span


def test_gradient_from_matrix_pairing(gl3):
    # defining property: ⟨ĝ(M), u⟩ = Tr(M · u) for every u
    rng = np.random.default_rng(11)
    M = rng.uniform(-1, 1, (3, 3))
    g = gl3.gradient_from_matrix(M)
    for _ in range(10):
        u = rng.uniform(-1, 1, gl3.dim)
        lhs = float(g @ gl3.gram @ u)
        assert lhs == pytest.approx(float(np.trace(M @ gl3.to_matrices(u)[0])), abs=1e-12)


def test_stack_maps_match_basis_sums(sl3, gl3, so5):
    # to_matrices/to_coords against Σ_a c_a b_a and least squares, on stacks
    rng = np.random.default_rng(5)
    for alg in (sl3, gl3, so5):
        v = rng.uniform(-1, 1, (4, 2 * alg.dim))
        V = alg.to_matrices(v)
        n = alg.matrix_size
        assert V.shape == (4, 2, n, n)
        want = np.einsum("Nka,aij->Nkij", v.reshape(4, 2, alg.dim), alg.basis)
        assert np.abs(V - want).max() < 1e-14
        assert np.abs(alg.to_coords(V) - v).max() < 1e-13
        assert np.array_equal(alg.to_matrices(v[0, : alg.dim]), V[0, :1])
        assert np.abs(alg.to_coords(V[0, 0]) - v[0, : alg.dim]).max() < 1e-13


def test_trace_projector_is_cached_and_serves_stacks(sl3, gl3, so5):
    rng = np.random.default_rng(13)
    for alg in (sl3, gl3, so5):
        P = alg.trace_projector
        assert alg.trace_projector is P and not P.flags.writeable
        n = alg.matrix_size
        M = rng.uniform(-1, 1, (3, 2, n, n))
        g = alg.gradient_from_matrix(M)
        assert g.shape == (3, 2, alg.dim)
        for idx in np.ndindex(3, 2):
            assert np.array_equal(g[idx], alg.gradient_from_matrix(M[idx]))
            # ⟨ĝ(M), b_a⟩ = Tr(M b_a) for every basis vector, via a Gram solve
            ref = np.linalg.solve(alg.gram, np.einsum("ij,aji->a", M[idx], alg.basis))
            assert np.abs(g[idx] - ref).max() < 1e-13


def test_strip_centre_removes_the_identity_on_gl_only(gl3, sl3):
    rng = np.random.default_rng(17)
    z = rng.uniform(-1, 1, (5, gl3.dim))
    s = gl3.strip_centre(z)
    assert np.abs(np.trace(gl3.to_matrices(s.reshape(-1)), axis1=1, axis2=2)).max() < 1e-14
    d = gl3.to_matrices((z - s).reshape(-1))
    assert np.abs(d - np.trace(d, axis1=1, axis2=2)[:, None, None] / 3 * np.eye(3)).max() < 1e-14
    x = rng.uniform(-1, 1, (5, sl3.dim))
    assert sl3.strip_centre(x) is x


def test_project_splits_by_degree(sl3):
    rng = np.random.default_rng(3)
    x = Element(sl3, rng.uniform(-1, 1, sl3.dim))
    lo, hi = project(x, False), project(x, True)
    assert np.allclose(lo.coords + hi.coords, x.coords)
    assert np.abs(np.where(sl3.degrees < 0, 0.0, lo.coords)).max() == 0.0
    assert np.abs(np.where(sl3.degrees >= 0, 0.0, hi.coords)).max() == 0.0


def test_mult_closed_on_gl_only(gl2, sl2, sl3, so5):
    rng = np.random.default_rng(5)
    x = Element(gl2, rng.uniform(-1, 1, 4))
    y = Element(gl2, rng.uniform(-1, 1, 4))
    X, Y, XY = gl2.to_matrices(np.concatenate([x.coords, y.coords, mult(x, y).coords]))
    assert np.allclose(XY, X @ Y, atol=1e-13)
    for alg in (sl2, sl3, so5):
        with pytest.raises(AlgebraError, match=r"non-associative spec \(associative=False\)"):
            mult(Element(alg, np.ones(alg.dim)), Element(alg, np.ones(alg.dim)))


@pytest.mark.parametrize("n", range(2, 7))
def test_mult_blocks_matches_the_product_tensor(n):
    # the product tensor P[a,b] = φ⁺(b_a b_b), built here from the basis
    # products: contracting with it gives the coordinates of the matrix product
    alg = build_gl(n)
    P = alg._basis_products() @ alg._flat_pinv.T
    X, Y = np.random.default_rng(n).uniform(-1, 1, (2, 7, 2, alg.dim))
    want = np.einsum("...a,...b,abc->...c", X, Y, P)
    got = algebra.mult_blocks(alg, X, Y)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_mult_blocks_stack_gives_the_bits_of_its_rows(gl3):
    X, Y = np.random.default_rng(3).uniform(-1, 1, (2, 6, 2, gl3.dim))
    rows = np.array([[algebra.mult_blocks(gl3, x, y) for x, y in zip(xs, ys)]
                     for xs, ys in zip(X, Y)])
    assert np.array_equal(algebra.mult_blocks(gl3, X, Y), rows)
    # one point against a stack of gradients broadcasts, as in a bracket table
    rows = np.array([algebra.mult_blocks(gl3, X[0], y) for y in Y])
    assert np.array_equal(algebra.mult_blocks(gl3, X[0], Y), rows)


@pytest.fixture(scope="module")
def sl9():
    return build_sl(9)


def _einsum_bracket(alg, X, Y):
    # the oracle: the three-operand einsum whose bits the blocked kernel keeps
    return np.einsum("...a,...b,abc->...c", X, Y, alg.struct)


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "gl2", "gl3", "so5", "sl9"])
def test_bracket_blocks_is_the_einsum_bit_for_bit(request, name):
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(alg.dim)
    per_block = max(1, algebra._OUTER_BLOCK // alg.dim ** 2)
    scaled = np.eye(alg.dim) * rng.uniform(0.5, 2.0, alg.dim)
    E, H = scaled[alg.degrees == 1], scaled[alg.degrees == 0]
    X, Y = rng.uniform(-1, 1, (2, 3 * per_block + 2, alg.dim))
    cases = [
        (X[0], Y[0]),                        # one row
        (H[None], E[:, None]),               # the broadcast pair [h_j, e_i]
        (X, Y),                              # a stack over several 64 KB blocks
        (X[:0], Y[:0]),                      # an empty stack
    ]
    for A, B in cases:
        want = _einsum_bracket(alg, A, B)
        got = algebra.bracket_blocks(alg, A, B)
        assert got.shape == want.shape and np.array_equal(got, want)
    # a stack gives the bits of its rows, across the block boundaries too
    rows = np.array([algebra.bracket_blocks(alg, x, y) for x, y in zip(X, Y)])
    assert np.array_equal(algebra.bracket_blocks(alg, X, Y), rows)


def test_bracket_blocks_memory_is_one_block_beyond_its_output(sl9):
    # unblocked, the outer products x⊗y of 1000 sl9 rows would take 51 MB
    X, Y = np.random.default_rng(9).uniform(-1, 1, (2, 1000, sl9.dim))
    sl9.struct
    tracemalloc.start()
    try:
        out = algebra.bracket_blocks(sl9, X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 2 ** 20


def test_validate_flags_product_closure(sl3):
    # sl3 marked associative: H₁H₁ = E₁₁ + E₂₂ has trace 2, and its nearest
    # traceless matrix is off by the identity times 2/3
    vs = validate_spec(replace(sl3, associative=True))
    assert [v["invariant"] for v in vs] == ["product-closure"]
    assert vs[0]["residual"] == pytest.approx(2 / 3, rel=1e-12)


# ---------------------------------------------------------------------------
# bracket/form properties (hypothesis)
# ---------------------------------------------------------------------------

coords3 = st.lists(
    st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=8, max_size=8
).map(np.array)


@given(coords3, coords3)
def test_bracket_antisymmetric(a, b):
    alg = build_sl(3)
    x, y = Element(alg, a), Element(alg, b)
    assert np.allclose(bracket(x, y).coords, -bracket(y, x).coords, atol=1e-12)


@given(coords3, coords3, coords3)
def test_bracket_jacobi(a, b, c):
    alg = build_sl(3)
    x, y, z = Element(alg, a), Element(alg, b), Element(alg, c)
    s = (
        bracket(x, bracket(y, z)).coords
        + bracket(y, bracket(z, x)).coords
        + bracket(z, bracket(x, y)).coords
    )
    assert np.linalg.norm(s) < 1e-11


@given(coords3, coords3, coords3)
def test_form_ad_invariant(a, b, c):
    alg = build_sl(3)
    x, y, z = Element(alg, a), Element(alg, b), Element(alg, c)
    assert form(bracket(x, y), z) + form(y, bracket(x, z)) == pytest.approx(
        0.0, abs=1e-11
    )


@given(coords3, st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_bracket_bilinear(a, t):
    alg = build_sl(3)
    x = Element(alg, a)
    e = Element(alg, alg.e_coords)
    assert np.allclose(
        bracket(Element(alg, t * a), e).coords, t * bracket(x, e).coords, atol=1e-11
    )


# ---------------------------------------------------------------------------
# validation catches tampering, with named invariants and indices
# ---------------------------------------------------------------------------

def test_validate_flags_broken_grading(sl2):
    degs = sl2.degrees.copy()
    degs[0] = 3
    bad = replace(sl2, degrees=degs)
    vs = validate_spec(bad)
    names = {v["invariant"] for v in vs}
    assert "grading" in names
    graded = [v for v in vs if v["invariant"] == "grading"]
    assert all("indices" in v and "residual" in v for v in graded)
    assert (0, 1) in {v["indices"] for v in graded}


def _broken_closure(sl2):
    basis = sl2.basis.copy()
    basis[2, 0, 0] = 0.5  # h no longer diag(1, −1): brackets leave the span
    return replace(sl2, basis=basis)


def test_validate_flags_broken_closure(sl2):
    names = {v["invariant"] for v in validate_spec(_broken_closure(sl2))}
    assert "bracket-closure" in names


def test_validate_flags_wrong_exponents(sl3):
    bad = replace(sl3, exponents=(1, 3))
    names = {v["invariant"] for v in validate_spec(bad)}
    assert "exponents-count" in names


@pytest.mark.parametrize("eps", [1e-9, 1e-11, 1e-13])
def test_a_nearly_dependent_basis_is_refused_at_the_one_rank_cut(eps, sl3):
    # the coroot H₂ replaced by H₁ + εH₂: LAPACK's default cut counts 8
    # independent basis matrices and `rank_cuts` 7, so the spec is refused as
    # dependent, not for the closure residuals of its blown-up pseudo-inverse
    doc = spec_to_document(sl3)
    h1, h2 = np.flatnonzero(sl3.degrees == 0)
    basis = np.array(doc["basis"])
    basis[h2] = basis[h1] + eps * basis[h2]
    doc["basis"] = basis.tolist()
    assert np.linalg.matrix_rank(basis.reshape(8, -1)) == 8
    with pytest.raises(AlgebraValidationError) as err:
        load_spec(doc)
    assert err.value.violations == [{"invariant": "basis-independence"}]


def _dense_jacobi_residual(C):
    # reference: the three dim⁴ contractions, summed and maximized at once
    jac = (
        np.einsum("abe,ecd->abcd", C, C)
        + np.einsum("bce,ead->abcd", C, C)
        + np.einsum("cae,ebd->abcd", C, C)
    )
    return np.abs(jac).max()


@pytest.mark.parametrize("dim", [4, 5, 6, 7])
def test_jacobi_residual_matches_dense_formula(dim):
    # random tensors are neither antisymmetric nor Lie: every term counts
    rng = np.random.default_rng(dim)
    for _ in range(3):
        C = rng.uniform(-1, 1, (dim, dim, dim))
        assert jacobi_residual(C) == pytest.approx(_dense_jacobi_residual(C), abs=1e-12)


def test_closure_certifies_jacobi_without_the_exhaustive_residual(monkeypatch, sl2, sl3,
                                                                  gl3, so5):
    calls = []
    monkeypatch.setattr(algebra, "jacobi_residual",
                        lambda C: calls.append(1) or jacobi_residual(C))
    for n in range(2, 10):
        build_sl(n), build_gl(n)
    rng = np.random.default_rng(0)
    load_spec(spec_to_document(so5))
    for alg in (sl3, gl3):
        load_spec(shuffled_and_rescaled(alg, rng))
        load_spec(spec_to_document(with_rescaled_basis(alg, 1e-3)))
    assert calls == []
    # a spec whose closure fails cannot be certified: one exhaustive run,
    # with the records of the broken closure (the Gram matrix is derived from
    # the broken basis, so the form stays invariant)
    vs = validate_spec(_broken_closure(sl2))
    assert calls == [1]
    assert [(v["invariant"], v.get("indices")) for v in vs] == [
        ("bracket-closure", (0, 1)), ("bracket-closure", (1, 0)), ("he-relation", None)]
    assert [v["residual"] for v in vs] == pytest.approx([0.4, 0.4, 0.5], rel=1e-12)


@given(which=st.integers(0, 2), exponent=st.floats(-15.0, -6.0), seed=st.integers(0, 2**32 - 1))
def test_jacobi_certificate_is_sound_on_perturbed_bases(sl3, gl3, so5, which, exponent, seed):
    # a basis perturbed off closure by 1e-15…1e-6: wherever the certificate
    # holds, it bounds the exhaustive residual and gives the same verdicts
    alg = (sl3, gl3, so5)[which]
    rng = np.random.default_rng(seed)
    basis = alg.basis + 10.0 ** exponent * rng.uniform(-1.0, 1.0, alg.basis.shape)
    spec = replace(alg, basis=basis)
    bounds = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "jacobi_bound",
                   lambda s, r: bounds.append(jacobi_bound(s, r)) or bounds[-1])
        certified = [v["invariant"] for v in validate_spec(spec)]
        mp.setattr(algebra, "jacobi_bound", lambda s, r: np.inf)
        exhaustive = [v["invariant"] for v in validate_spec(spec)]
    assert certified == exhaustive
    C = spec.struct
    cmax2 = np.abs(C).max() ** 2
    if bounds[0] < 1e-11 * (1.0 + cmax2) / 2:
        assert jacobi_residual(C) <= bounds[0] + 3 * spec.dim * np.finfo(float).eps * cmax2


def test_validate_fails_closed_on_non_finite_residuals(sl2, gl3):
    # a basis scaled by 1e140 overflows ⟨[b_a, b_b], b_d⟩ to ±inf, and form
    # invariance reads inf − inf = NaN: a residual not shown within its
    # tolerance is a violation, and no RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for alg in (sl2, gl3):
            vs = validate_spec(with_rescaled_basis(alg, 1e280))
            assert [v["invariant"] for v in vs] == ["form-invariance"]
            assert np.isnan(vs[0]["residual"])
        # nor does a NaN closure residual certify Jacobi
        assert not jacobi_bound(sl2, float("nan")) < 1.0


def test_validate_records_a_non_finite_ad_e_instead_of_raising(sl2, gl3):
    # a basis scaled by 1e160 overflows the basis products, so ad_e is not
    # finite and has no SVD: regular-nilpotent is recorded with a NaN
    # residual, next to the records of the earlier checks
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for alg in (sl2, gl3):
            vs = validate_spec(replace(alg, basis=alg.basis * 1e160))
            nilpotent = [v for v in vs if v["invariant"] == "regular-nilpotent"]
            assert len(nilpotent) == 1 and np.isnan(nilpotent[0]["residual"])
            assert "bracket-closure" in {v["invariant"] for v in vs}


def test_jacobi_residual_propagates_nan(sl2):
    # a basis scaled by 1e160 overflows the basis products, so the structure
    # constants hold inf and NaN: the residual is NaN, not a NaN dropped from
    # a running max, and validation records jacobi with it
    spec = replace(sl2, basis=sl2.basis * 1e160)
    with np.errstate(all="ignore"):
        assert np.isnan(jacobi_residual(spec.struct))
    jacobi = [v for v in validate_spec(spec) if v["invariant"] == "jacobi"]
    assert len(jacobi) == 1 and np.isnan(jacobi[0]["residual"])


def test_validate_spec_stays_below_dim4_memory():
    alg = build_sl(7)
    tracemalloc.start()
    try:
        assert validate_spec(build_sl(7)) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < alg.dim ** 4 * 8
    # the basis products and commutators are released once both closure
    # checks have read them, so the later dim³ steps do not stack on top of
    # them: 4.2 structure tensors measured (7.3 while they lived to the end)
    assert peak < 4.5 * alg.struct.nbytes
    # validation reads the structure tensor bracket and ad use, not a copy
    struct = alg.struct
    assert validate_spec(alg) == [] and alg.struct is struct


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path, desk_algebras):
    for alg in desk_algebras.values():
        p = tmp_path / f"{alg.name}.json"
        save_spec(alg, p)
        back = load_spec(p)
        assert back.name == alg.name
        # floats are written as their repr: the round trip keeps every bit
        for field in ("basis", "e_coords", "h_coords", "gram", "degrees", "cartan"):
            assert np.array_equal(getattr(back, field), getattr(alg, field)), field
        assert back.exponents == alg.exponents
        assert back.associative == alg.associative


def test_save_is_deterministic(tmp_path, sl3):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_spec(sl3, p1)
    save_spec(sl3, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_corrupt_document(sl2):
    doc = spec_to_document(sl2)
    doc["degrees"][0] = 3
    with pytest.raises(AlgebraValidationError, match="grading"):
        load_spec(doc)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "spec.json"
    for text in (b"{not json", b"", b"\x80\x81 not utf-8"):
        path.write_bytes(text)
        with pytest.raises(AlgebraError, match="algebra spec parse failure"):
            load_spec(path)


def test_load_reads_a_path_or_a_document_and_nothing_else(tmp_path, sl2):
    # a missing file is an OSError, not a document that failed to parse; JSON
    # text is not a document, so it is read as the path it is not
    with pytest.raises(FileNotFoundError):
        load_spec(tmp_path / "missing.json")
    with pytest.raises(OSError):
        load_spec(json.dumps(spec_to_document(sl2)))
    path = tmp_path / "sl2.json"
    save_spec(sl2, path)
    for source in (path, str(path), spec_to_document(sl2)):
        assert np.array_equal(load_spec(source).basis, sl2.basis)


def test_rescaled_spec_still_validates(sl3):
    r = with_rescaled_basis(sl3, 2.0)
    assert validate_spec(r) == []
    assert np.allclose(r.gram, 2.0 * sl3.gram, atol=1e-13)
    assert np.allclose(r.to_matrices(r.e_coords), sl3.to_matrices(sl3.e_coords), atol=1e-13)


def test_rescale_rejects_nonpositive_or_nonfinite_scale(sl3):
    for s in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(AlgebraError):
            with_rescaled_basis(sl3, s)


def test_element_vector_protocol(gl2):
    x = Element(gl2, np.array([1.0, -2.0, 0.5, 3.0]))
    y = type(x).from_vec(gl2, x.vec())
    assert np.array_equal(y.coords, x.coords) and y.coords is not x.coords
    g = _gradient_blocks(gl2, x.vec()[None])[0]      # the gradient of the covector x
    assert np.allclose(gl2.gram @ g, x.coords, atol=1e-13)


# ---------------------------------------------------------------------------
# so(5), split form: an algebra no builder provides, defined by document
# ---------------------------------------------------------------------------

def test_so5_builds_and_validates(so5):
    assert validate_spec(so5) == []
    assert so5.dim == 10
    assert so5.rank == 2
    assert tuple(so5.exponents) == (1, 3)
    e, h = Element(so5, so5.e_coords), Element(so5, so5.h_coords)
    assert np.allclose(bracket(h, e).coords, 2 * so5.e_coords, atol=1e-12)


def test_so5_rank_and_count_identity(so5):
    # same structural identities the desk algebras satisfy, off the desk:
    # rank of the restricted linear structure = dim + rank, and the conserved
    # family has dim T_P − rank/2 members.
    from toda2 import family

    ps = phase_tp(so5)
    assert ps.dim == 14
    r = rank_sweep(ps, "linear").rank
    assert r == 12
    assert len(family(so5)) == ps.dim - r // 2 == 8
