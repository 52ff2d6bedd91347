"""Poisson brackets on 𝔤×𝔤, phase-space restriction, ranks.

The gl(3) quadratic tests pin down behaviour at a point where the frozen
superdiagonal is NOT preserved by generic quadratic flows: `poisson_matrix`
must take the induced (constraint-corrected) structure there, report
`corrected=True`, and expose the size of the naive tangency failure through
`invariance_defect`.  Those asserts keep the correction visible — do not
weaken them.
"""

import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from toda2 import (
    CapabilityError,
    Element,
    PairPoint,
    PhaseSpace,
    PreconditionError,
    ScalarFunction,
    build_gl,
    build_sl,
    phase_tp,
    poisson_matrix,
    rank_sweep,
)
from toda2 import poisson
from toda2.algebra import bracket_blocks, mult_blocks
from toda2.checks import _cartan_block, check_jacobi_battery, check_morphism_battery
from toda2.invariants import pullback_gradients, trace_gradients
from toda2.poisson import (
    _block_pairing,
    _gradient_blocks,
    block_field,
    bracket_tables,
    linear_field,
    numerical_rank,
)
from toda2.rmatrix import block_norms, r_block, rr_block

from pointwise import (
    AnalyticFunction, bracket, bracket_value, field_at, form, form2, gradient2, linear_function, mult,
    point_block, psi1, pullback, trace_function, with_rescaled_basis,
)


def random_pair(alg, rng):
    return PairPoint(
        Element(alg, rng.uniform(-1, 1, alg.dim)),
        Element(alg, rng.uniform(-1, 1, alg.dim)),
    )


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_matches_finite_differences(sl3):
    rng = np.random.default_rng(0)
    a, b = random_pair(sl3, rng), random_pair(sl3, rng)

    def val(m):
        return form2(a, m) * form2(b, m)

    F = ScalarFunction("quad", val)  # no analytic gradient: FD path
    m = random_pair(sl3, rng)
    an = form2(b, m) * a.vec() + form2(a, m) * b.vec()
    assert np.abs(gradient2(F, m).vec() - an).max() < 1e-9


coords2 = st.lists(
    st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=3, max_size=3
).map(np.array)


@given(coords2, coords2)
def test_gradient_of_pairing_is_sign_flipped(a, b):
    # ⟨·,·⟩₂ is indefinite: ∇⟨(p,q), ·⟩₂ = (p, −q) ... realised as the pair
    # whose pairing with any direction reproduces the linear functional.
    alg = build_sl(2)
    p = PairPoint(Element(alg, a), Element(alg, b))
    F = ScalarFunction("lin", lambda m: form2(p, m))
    rng = np.random.default_rng(1)
    m = random_pair(alg, rng)
    g = gradient2(F, m)
    v = random_pair(alg, rng)
    assert form2(g, v) == pytest.approx(form2(p, v), abs=1e-7)


# ---------------------------------------------------------------------------
# bracket algebraic laws
# ---------------------------------------------------------------------------

def _random_linear(alg, rng, name):
    p = random_pair(alg, rng)
    return ScalarFunction(name, lambda m, p=p: form2(p, m))


def test_brackets_antisymmetric(gl2):
    rng = np.random.default_rng(2)
    F, G = _random_linear(gl2, rng, "F"), _random_linear(gl2, rng, "G")
    for _ in range(5):
        m = random_pair(gl2, rng)
        assert bracket_value("linear", F, G, m) == pytest.approx(
            -bracket_value("linear", G, F, m), abs=1e-10
        )
        assert bracket_value("quadratic", F, G, m) == pytest.approx(
            -bracket_value("quadratic", G, F, m), abs=1e-10
        )


def test_linear_bracket_leibniz(sl3):
    rng = np.random.default_rng(3)
    F, G, H = (_random_linear(sl3, rng, n) for n in "FGH")
    FG = ScalarFunction("FG", lambda m: F(m) * G(m))
    for _ in range(5):
        m = random_pair(sl3, rng)
        lhs = bracket_value("linear", FG, H, m)
        rhs = F(m) * bracket_value("linear", G, H, m) + G(m) * bracket_value("linear", F, H, m)
        assert lhs == pytest.approx(rhs, abs=1e-7)


def test_brackets_jacobi_spot(gl2):
    # function-level Jacobi via nested finite differences; coarse tolerance
    rng = np.random.default_rng(4)
    F, G, H = (_random_linear(gl2, rng, n) for n in "FGH")
    m = random_pair(gl2, rng)
    for which in ("linear", "quadratic"):
        def pb(A, B, mm, which=which):
            return bracket_value(which, A, B, mm)

        def two(A, B, pb=pb):
            return ScalarFunction("n", lambda mm: pb(A, B, mm))

        s = pb(two(F, G), H, m) + pb(two(G, H), F, m) + pb(two(H, F), G, m)
        assert abs(s) < 1e-6


def test_jacobi_battery_passes_at_former_roundoff_seeds(gl3):
    # these seeds once put the nested finite-difference roundoff above 1e-9
    for seed in (12, 13):
        for r in check_jacobi_battery(gl3, samples=5, seed=seed):
            assert r.verdict, r.line()


# one term of each field, ½[ℛg, m] of the linear and ½[ℛ(mg + gm), m] of the quadratic
_FIELD_TERMS = {
    "linear": lambda alg, m, g: 0.5 * bracket_blocks(alg, rr_block(alg, g), m),
    "quadratic": lambda alg, m, g: 0.5 * bracket_blocks(
        alg, rr_block(alg, mult_blocks(alg, m, g) + mult_blocks(alg, g, m)), m),
}


@pytest.mark.parametrize("name, which", [("sl3", "linear"), ("gl3", "linear"),
                                         ("gl3", "quadratic")])
def test_jacobi_battery_fails_a_field_with_one_term_off_by_one_part_in_a_million(
        name, which, request, monkeypatch):
    # a negative control: the battery reads each bracket off its field alone
    # (`poisson.block_field`), and with one term scaled by 1 + 1e-6 the field
    # is no longer that of a Poisson bracket; scaling the whole field by
    # 1 + 1e-6 scales the bracket, which stays Poisson
    alg = request.getfixturevalue(name)
    field, term = getattr(poisson, f"{which}_field"), _FIELD_TERMS[which]

    def jacobi(changed):
        monkeypatch.setattr(poisson, f"{which}_field", changed)
        return next(r for r in check_jacobi_battery(alg) if r.check == f"jacobi-{which}-bracket")

    report = jacobi(lambda alg, m, g: field(alg, m, g) + 1e-6 * term(alg, m, g))
    assert not report.verdict and report.measured > 1e-6, report.line()
    report = jacobi(lambda alg, m, g: field(alg, m, g) * (1.0 + 1e-6))
    assert report.verdict, report.line()


def test_quadratic_needs_associative(sl3):
    rng = np.random.default_rng(5)
    F, G = _random_linear(sl3, rng, "F"), _random_linear(sl3, rng, "G")
    with pytest.raises(CapabilityError):
        bracket_value("quadratic", F, G, random_pair(sl3, rng))


def test_hamiltonian_field_reproduces_bracket(gl2):
    rng = np.random.default_rng(6)
    F, K = _random_linear(gl2, rng, "F"), _random_linear(gl2, rng, "K")
    for which in ("linear", "quadratic"):
        m = random_pair(gl2, rng)
        gF, gK = gradient2(F, m), gradient2(K, m)
        X = field_at(which, m, gF)
        # X_F[K] = {K, F}: pair ∇K against the field
        table = bracket_tables(gl2, which, point_block(m), np.stack([gK.vec(), gF.vec()]))
        assert form2(gK, X) == pytest.approx(table[0, 1], abs=1e-7)


def test_bracket_kinds_are_checked_in_one_place(sl3, gl2):
    rng = np.random.default_rng(7)
    m = random_pair(gl2, rng)
    A = rng.uniform(-1, 1, (2, 2 * gl2.dim))
    with pytest.raises(ValueError, match="unknown bracket kind"):
        bracket_tables(gl2, "cubic", point_block(m), A)
    x = Element(gl2, rng.uniform(-1, 1, gl2.dim))
    gf = trace_gradients(gl2, x.coords, 1)[None]
    # the quadratic bracket lives on 𝔤×𝔤 only, and only over gl
    with pytest.raises(CapabilityError):
        bracket_tables(gl2, "quadratic", point_block(x), gf)
    with pytest.raises(CapabilityError):
        block_field("quadratic", gl2, 1)
    with pytest.raises(CapabilityError):
        bracket_tables(sl3, "quadratic", point_block(random_pair(sl3, rng)),
                       rng.uniform(-1, 1, (2, 2 * sl3.dim)))


@pytest.mark.parametrize("name", ["sl3", "gl2"])
def test_single_algebra_bracket_matches_inline_formula(name, request):
    # {f, g}_R(x) = ½⟨x, [R∇f, ∇g] + [∇f, R∇g]⟩, spelled out independently of
    # r_bracket; the field's a-th coordinate is {z_a, f}_R with ∇z_a = G⁻¹e_a
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(8)
    f, g = trace_function(alg, 1), trace_function(alg, 2)

    def R(x):
        return Element(alg, r_block(alg, x.coords))

    def inline(x, gf, gg):
        term = Element(alg, bracket(R(gf), gg).coords + bracket(gf, R(gg)).coords)
        return 0.5 * form(x, term)

    for _ in range(3):
        x = Element(alg, rng.uniform(-1, 1, alg.dim))
        gf, gg = (Element(alg, trace_gradients(alg, x.coords, i)) for i in (1, 2))
        assert bracket_value("linear", f, g, x) == pytest.approx(inline(x, gf, gg), abs=1e-13)
        X = field_at("linear", x, gg)
        assert isinstance(X, Element)
        want = [inline(x, Element(alg, alg.gram_inv[:, a]), gg) for a in range(alg.dim)]
        assert np.allclose(X.coords, want, atol=1e-13)
        # X_g[f] = {f, g}_R
        assert form(gf, X) == pytest.approx(bracket_value("linear", f, g, x), abs=1e-12)


@pytest.mark.parametrize("name", ["gl2", "gl3", "so5"])
def test_pair_brackets_match_inline_formulas(name, request):
    # {F, G}(m) = ½⟨m, [ℛa, b] + [a, ℛb]⟩₂ and
    # {F, G}^Q(m) = ½⟨[m, a], ℛ(mb + bm)⟩₂ − (a ↔ b), a = ∇F, b = ∇G, spelled
    # out with ℛ's pair-block action and Element brackets and products,
    # independently of the closed-form fields
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(18)

    def rr(p):
        return PairPoint.from_vec(alg, rr_block(alg, point_block(p)).ravel())

    def pbr(p, q):
        return PairPoint(bracket(p.x, q.x), bracket(p.y, q.y))

    def pmul(p, q):
        return PairPoint(mult(p.x, q.x), mult(p.y, q.y))

    def linear(m, a, b):
        term = PairPoint.from_vec(alg, pbr(rr(a), b).vec() + pbr(a, rr(b)).vec())
        return 0.5 * form2(m, term)

    def quadratic(m, a, b):
        def half(a, b):
            s = PairPoint.from_vec(alg, pmul(m, b).vec() + pmul(b, m).vec())
            return 0.5 * form2(pbr(m, a), rr(s))
        return half(a, b) - half(b, a)

    kinds = {"linear": linear}
    if alg.associative:
        kinds["quadratic"] = quadratic
    p, q = random_pair(alg, rng), random_pair(alg, rng)
    fns = [linear_function(p), linear_function(q),
           AnalyticFunction("pq", lambda m: form2(p, m) * form2(q, m),
                            lambda m: PairPoint.from_vec(
                                alg, form2(q, m) * p.vec() + form2(p, m) * q.vec())),
           pullback(alg, alg.exponents[-1], -0.5)]
    unit = [PairPoint.from_vec(alg, g.ravel())
            for g in _gradient_blocks(alg, np.eye(2 * alg.dim).reshape(-1, 2, alg.dim))]
    m = random_pair(alg, rng)
    grads = [gradient2(F, m) for F in fns]
    for which, inline in kinds.items():
        for F, a in zip(fns, grads):
            for G, b in zip(fns, grads):
                assert abs(bracket_value(which, F, G, m) - inline(m, a, b)) < 1e-13
            # X_F[K] = {K, F} for every basis coordinate K
            X = field_at(which, m, a).vec()
            want = [inline(m, k, a) for k in unit]
            assert np.abs(X - want).max() < 1e-13
        A = np.stack([g.vec() for g in grads])
        table = bracket_tables(alg, which, point_block(m), A)
        want = [[inline(m, a, b) for b in grads] for a in grads]
        assert np.abs(table - want).max() < 1e-13


# ---------------------------------------------------------------------------
# phase spaces
# ---------------------------------------------------------------------------

def test_phase_tp_dimensions(desk_algebras):
    for alg in desk_algebras.values():
        ps = phase_tp(alg)
        if alg.associative:
            n = alg.matrix_size
            assert ps.dim == n**2 + 2 * n - 1
        else:
            assert ps.dim == alg.dim + 2 * alg.rank
        assert len(ps.normal_covectors) == 2 * alg.dim - ps.dim


def test_phase_tp_membership_and_coords(sl3):
    ps = phase_tp(sl3)
    V = ps.sample_stack(seed=8, count=5)
    assert ps.membership_residuals(V).max() < 1e-12
    back = ps.points_from_coords((V - ps.base) @ ps.duals)
    assert np.abs(back - V).max() < 1e-12
    off = np.ones(2 * sl3.dim)
    assert ps.membership_residuals(off) > 0.1
    with pytest.raises(PreconditionError):
        ps.require_members(off[None])


def test_phase_tp_base_point_structure(gl3):
    # base point: unit superdiagonal in x, zero y
    ps = phase_tp(gl3)
    m0 = PairPoint.from_vec(gl3, ps.points_from_coords(np.zeros(ps.dim)))
    x = gl3.to_matrices(m0.x.coords)[0]
    assert np.allclose(np.diag(x, 1), 1.0)
    assert np.allclose(x - np.diag(np.diag(x, 1), 1), 0.0)
    assert np.linalg.norm(m0.y.coords) == 0.0


def test_phase_full_is_unconstrained(sl2):
    # all of 𝔤×𝔤 as a PhaseSpace: base 0, the full tangent basis, no normals
    ps = PhaseSpace("g×g", sl2, np.zeros(2 * sl2.dim), np.eye(2 * sl2.dim))
    assert ps.dim == 2 * sl2.dim
    assert len(ps.normal_covectors) == 0


# ---------------------------------------------------------------------------
# restricted Poisson matrices and ranks
# ---------------------------------------------------------------------------

def test_poisson_matrix_antisymmetric(sl3):
    ps = phase_tp(sl3)
    m = ps.sample_points(seed=9, count=1)[0]
    P = poisson_matrix(ps, m)
    assert np.abs(P.matrix + P.matrix.T).max() < 1e-12


def test_linear_restriction_needs_no_correction(desk_algebras):
    for alg in desk_algebras.values():
        ps = phase_tp(alg)
        m = ps.sample_points(seed=10, count=1)[0]
        P = poisson_matrix(ps, m, "linear")
        assert not P.corrected
        assert P.invariance_defect < 1e-11


def test_quadratic_restriction_gl2_is_naive(gl2):
    ps = phase_tp(gl2)
    for m in ps.sample_points(seed=11, count=3):
        P = poisson_matrix(ps, m, "quadratic")
        assert not P.corrected
        assert P.invariance_defect < 1e-11


def test_quadratic_restriction_gl3_needs_correction(gl3):
    # generic quadratic flows move the frozen superdiagonal at n = 3; the
    # induced structure must kick in, and the defect must stay visible
    ps = phase_tp(gl3)
    hits = 0
    for m in ps.sample_points(seed=12, count=3):
        P = poisson_matrix(ps, m, "quadratic")
        if P.corrected:
            hits += 1
            assert P.invariance_defect > 0.1
            assert np.abs(P.matrix + P.matrix.T).max() < 1e-12
    assert hits == 3


def test_rank_values_and_parity(sl2, sl3, gl2, gl3):
    for alg, expect in ((sl2, 4), (sl3, 10), (gl2, 4), (gl3, 10)):
        ps = phase_tp(alg)
        assert rank_sweep(ps, "linear").rank == expect
        m = ps.sample_points(seed=13, count=1)[0]
        assert numerical_rank(poisson_matrix(ps, m).matrix) % 2 == 0
    for alg, expect in ((gl2, 4), (gl3, 10)):
        assert rank_sweep(phase_tp(alg), "quadratic").rank == expect


def test_rank_can_drop_at_special_points(sl3):
    ps = phase_tp(sl3)
    base = PairPoint.from_vec(sl3, ps.points_from_coords(np.zeros(ps.dim)))
    r = numerical_rank(poisson_matrix(ps, base).matrix)
    assert r % 2 == 0
    assert r <= rank_sweep(ps).rank


def test_rank_invariant_under_form_rescale(sl3):
    r2 = with_rescaled_basis(sl3, 2.0)
    assert rank_sweep(phase_tp(r2)).rank == rank_sweep(phase_tp(sl3)).rank
    # Casimir verdict survives the rescale too
    rng = np.random.default_rng(14)
    m = point_block(random_pair(r2, rng))
    assert block_norms(linear_field(r2, m, pullback_gradients(r2, 1, 1.0, m))) < 1e-9


def test_poisson_matrix_rejects_bad_inputs(sl3):
    ps = phase_tp(sl3)
    m = ps.sample_points(seed=15, count=1)[0]
    with pytest.raises(ValueError):
        poisson_matrix(ps, m, "cubic")
    off = PairPoint(Element(sl3, np.ones(8)), Element(sl3, np.ones(8)))
    with pytest.raises(PreconditionError):
        poisson_matrix(ps, off)


def test_cartan_block_values(sl2, gl3):
    assert np.allclose(_cartan_block(sl2)[0], [[0, -2], [2, 0]], atol=1e-10)
    C = np.array([[2.0, -1.0], [-1.0, 2.0]])
    want = np.block(
        [[np.zeros((2, 2)), -C.T], [C, np.zeros((2, 2))]]
    )
    assert np.allclose(_cartan_block(gl3)[0], want, atol=1e-10)


def test_cartan_block_from_so5_spec_data(so5):
    # the simple system comes from the degree ±1 basis vectors, not from
    # type-A matrices; C[i, j] = α_i(h_j) is the stored cartan transposed
    C = np.array([[2.0, -2.0], [-1.0, 2.0]])
    assert np.array_equal(so5.cartan, C.T)
    want = np.block([[np.zeros((2, 2)), -C.T], [C, np.zeros((2, 2))]])
    assert np.allclose(_cartan_block(so5)[0], want, atol=1e-10)


# ---------------------------------------------------------------------------
# diagonal-difference map
# ---------------------------------------------------------------------------

def test_psi1_is_difference(sl3):
    rng = np.random.default_rng(16)
    m = random_pair(sl3, rng)
    assert np.array_equal(psi1(m).coords, m.x.coords - m.y.coords)


def test_psi1_morphism_check(sl2, gl2):
    for alg in (sl2, gl2):
        [report] = check_morphism_battery(alg, samples=40)
        assert report.verdict, report.line()


def test_psi1_morphism_check_passes_on_so5(so5):
    # with finite-difference gradients of the quadratic monomials at step 1e-5
    # the roundoff once measured 1.13e-9 against the 1e-9 tolerance
    [report] = check_morphism_battery(so5)
    assert report.verdict, report.line()
    assert report.measured < 1e-12


# ---------------------------------------------------------------------------
# block fields
# ---------------------------------------------------------------------------

def _point_closed_forms(alg):
    """The two closed-form fields one point at a time, kept as the reference.

    Brackets and products are taken in the matrix representation and R, R*
    read off the degree masks and the Gram matrix, independently of the
    structure-tensor contractions and block actions the fields use.
    """
    signs = np.where(alg.degrees >= 0, 1.0, -1.0)       # R = P₊ − P₋ on 𝔤_{≥0} ⊕ 𝔤_{<0}
    G, Gi = alg.gram, alg.gram_inv

    def br(x, y):
        X, Y = alg.to_matrices(np.concatenate([x, y]))
        return alg.from_matrix(X @ Y - Y @ X)

    def mul(x, y):
        X, Y = alg.to_matrices(np.concatenate([x, y]))
        return alg.from_matrix(X @ Y)

    def R(x):
        return signs * x

    def Rs(x):
        return Gi @ (signs * (G @ x))

    def RR(p):
        d = R(p[0] - p[1])
        return np.stack([d + p[1], d + p[0]])

    def RRs(p):
        d = Rs(p[0] - p[1])
        return np.stack([d - p[1], d - p[0]])

    def pbr(p, q):
        return np.stack([br(a, b) for a, b in zip(p, q)])

    def pmul(p, q):
        return np.stack([mul(a, b) for a, b in zip(p, q)])

    def linear(m, g):                      # blocks (k, dim), k = 1 or 2
        if len(m) == 1:
            return 0.5 * (Rs(br(g[0], m[0])) + br(R(g[0]), m[0]))[None]
        return 0.5 * (RRs(pbr(g, m)) + pbr(RR(g), m))

    def quadratic(m, g):
        w = RRs(pbr(m, g))
        s = RR(pmul(m, g) + pmul(g, m))
        return 0.5 * (pbr(s, m) - pmul(w, m) - pmul(m, w))

    return {"linear": linear, "quadratic": quadratic}


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "gl2", "gl3", "so5"])
def test_block_fields_match_point_closed_forms(name, request):
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(31)
    reference = _point_closed_forms(alg)
    for k in (1, 2):
        kinds = ["linear"] + (["quadratic"] if k == 2 and alg.associative else [])
        for which in kinds:
            m = rng.uniform(-1, 1, (k, alg.dim))
            grads = rng.uniform(-1, 1, (4, k, alg.dim))
            points = rng.uniform(-1, 1, (4, k, alg.dim))
            field = block_field(which, alg, k)
            ref = reference[which]
            # one gradient, a gradient stack at one point, a point stack
            one = field(alg, m, grads[0])
            assert np.abs(one - ref(m, grads[0])).max() < 1e-13
            stack = field(alg, m, grads)
            assert stack.shape == (4, k, alg.dim)
            moved = field(alg, points, grads[0])
            for j in range(4):
                assert np.abs(stack[j] - ref(m, grads[j])).max() < 1e-13
                assert np.abs(moved[j] - ref(points[j], grads[0])).max() < 1e-13
                # one point at a time gives the bits of the stack rows
                assert np.array_equal(field(alg, m, grads[j]), stack[j])
                assert np.array_equal(field(alg, points[j], grads[0]), moved[j])


def test_pairing_matrix_is_cached_read_only(gl2, sl3):
    for alg in (gl2, sl3):
        P = alg.pair_gram
        assert alg.pair_gram is P and not P.flags.writeable
        assert np.array_equal(P, np.kron(np.diag([1.0, -1.0]), alg.gram))
        assert _block_pairing(alg, 2) is P
        assert _block_pairing(alg, 1) is alg.gram


@pytest.mark.parametrize("name", ["sl4", "gl3", "gl4"])
def test_a_bracket_table_entry_does_not_depend_on_the_other_rows(name, request):
    # the involutivity-pencil gradient rows at one point: every entry {F_i, F_j}
    # of their table has the bits of the table of the rows i and j alone, for
    # each bracket, so a FAIL's entry reproduces from its two rows
    alg = request.getfixturevalue(name) if name != "gl4" else built(name)
    m = np.random.default_rng(42).uniform(-1.0, 1.0, (1, 2, alg.dim))
    A = np.stack([pullback_gradients(alg, i, lam, m)[0].ravel()
                  for i in alg.exponents for lam in (0.0, 0.5, 1.0, 2.0, -1.0)])
    i, j = np.triu_indices(len(A), 1)
    for which in poisson.brackets(alg):
        table = bracket_tables(alg, which, m[0], A)
        pairs = bracket_tables(alg, which, m[0], np.stack([A[i], A[j]], axis=1))
        assert np.array_equal(pairs[:, 0, 1], table[i, j]), which


# ---------------------------------------------------------------------------
# Poisson matrices from the coordinate fields; the shift law on gl
# ---------------------------------------------------------------------------

@functools.cache
def built(name):
    """sl_n or gl_n, built once per session."""
    return (build_sl if name.startswith("sl") else build_gl)(int(name[2:]))


def reference_matrices(ps, V, which):
    """The full-table formula: every bracket of the 2·dim gradient rows, coordinates
    ζ then normals χ, split into M = {ζ, ζ}, D = {ζ, χ} and C = {χ, χ}, and the
    Dirac correction M + D C⁺ Dᵀ at the points whose defect calls for it."""
    alg, kt = ps.alg, ps.dim
    A = np.concatenate([ps.coord_gradients, ps.normal_gradients])
    full = bracket_tables(alg, which, V.reshape(len(V), -1, alg.dim), A)
    M, D, C = full[:, :kt, :kt].copy(), full[:, :kt, kt:], full[:, kt:, kt:]
    defect = np.abs(D).max(axis=(1, 2))
    corrected = ~(defect <= 1e-12 * (1.0 + np.abs(M).max(axis=(1, 2))))
    for k in np.flatnonzero(corrected):
        Mc = M[k] + D[k] @ np.linalg.pinv(C[k], rcond=1e-12) @ D[k].T
        M[k] = 0.5 * (Mc - Mc.T)
    return M, corrected, defect


def mixed_stack(ps, seed):
    """Three seeded points with the base point (e, 0), whose defect is exactly 0,
    before the first and the third."""
    S = ps.sample_stack(seed, 3)
    return np.stack([ps.base, S[0], S[1], ps.base, S[2]])


def matches_the_reference(ps, V, which):
    """The corrected flags of `poisson_matrices` at V, once its flags equal the
    reference's, its matrices agree to a relative 1e-13 and its defects to
    roundoff."""
    M, corrected, defect = poisson.poisson_matrices(ps, V, which)
    ref, ref_corrected, ref_defect = reference_matrices(ps, V, which)
    assert np.array_equal(corrected, ref_corrected)
    scale = 1.0 + np.abs(ref).max()
    assert np.abs(M - ref).max() <= 1e-13 * scale, which
    assert np.abs(defect - ref_defect).max() <= 1e-14 * scale, which
    return corrected


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "sl5", "sl6",
                                  "gl2", "gl3", "gl4", "gl5", "so5"])
def test_poisson_matrices_match_the_full_table(name, request):
    alg = request.getfixturevalue(name) if name == "so5" else built(name)
    ps = phase_tp(alg)
    for which in poisson.brackets(alg):
        matches_the_reference(ps, ps.sample_stack(21, 4), which)
    if name in ("gl3", "gl4"):
        corrected = matches_the_reference(ps, mixed_stack(ps, 23), "quadratic")
        assert corrected.tolist() == [False, True, True, False, True]


_FIELDS = {"linear": poisson.linear_field, "quadratic": poisson.quadratic_field}


def counted_fields(ps, monkeypatch):
    """Wrap both block fields; each call records (points, coordinate rows, normal
    rows): the points of its stack and the gradient rows it gets per point."""
    calls = []

    def rows_in(g, table):
        rows = g.reshape(-1, table.shape[-1])
        return int((rows[:, None] == table).all(axis=-1).any(axis=-1).sum())

    for which, field in _FIELDS.items():
        def counting(alg, m, g, field=field):
            calls.append((int(np.prod(m.shape[:-3])), rows_in(g, ps.coord_gradients),
                          rows_in(g, ps.normal_gradients)))
            return field(alg, m, g)

        monkeypatch.setattr(poisson, f"{which}_field", counting)
    return calls


def test_poisson_matrices_evaluate_normal_fields_only_where_corrected(sl4, gl3, monkeypatch):
    # the linear bracket leaves T_P invariant: dim T_P coordinate fields per
    # point and no normal field, where the full table would take 2·dim
    ps = phase_tp(sl4)
    calls = counted_fields(ps, monkeypatch)
    _, corrected, _ = poisson.poisson_matrices(ps, ps.sample_stack(24, 5), "linear")
    assert not corrected.any()
    assert calls == [(5, ps.dim, 0)]
    # a mixed quadratic stack: the normal fields at its corrected points, in one call
    ps = phase_tp(gl3)
    calls = counted_fields(ps, monkeypatch)
    _, corrected, _ = poisson.poisson_matrices(ps, mixed_stack(ps, 23), "quadratic")
    normals = 2 * gl3.dim - ps.dim
    assert calls == [(5, ps.dim, 0), (int(corrected.sum()), 0, normals)]
    assert 0 < corrected.sum() < 5


def shifted(alg, m, mu):
    """m + μ(𝟙, 𝟙) on pair blocks (…, 2, dim)."""
    return m + mu * alg.identity_coords


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_quadratic_field_shifts_to_the_linear_field(n):
    # X^Q_G(m + μ(𝟙, 𝟙)) = X^Q_G(m) + 2μ·X^L_G(m), exactly: no μ² term
    alg = built(f"gl{n}")
    rng = np.random.default_rng(25 + n)
    m, g = rng.uniform(-1, 1, (2, 6, 2, alg.dim))
    for mu in (0.5, 10.0):
        lhs = poisson.quadratic_field(alg, shifted(alg, m, mu), g)
        terms = (poisson.quadratic_field(alg, m, g), 2 * mu * linear_field(alg, m, g))
        scale = max(np.abs(t).max() for t in (lhs, *terms))
        assert np.abs(lhs - terms[0] - terms[1]).max() <= 1e-12 * scale


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_corrected_quadratic_matrix_shifts_to_the_linear_matrix(n):
    # Q(m + μe) = Q(m) + 2μ·L(m) on T_P at μ = 10: the shift keeps T_P, since
    # the identity has degree 0, and ties the Dirac-corrected quadratic matrix,
    # which reads the normal fields, to the linear one, which never does
    alg, mu = built(f"gl{n}"), 10.0
    ps = phase_tp(alg)
    V = ps.sample_stack(26, 4)
    moved = shifted(alg, V.reshape(4, 2, alg.dim), mu).reshape(V.shape)
    Q, corrected, _ = poisson.poisson_matrices(ps, moved, "quadratic")
    terms = (poisson.poisson_matrices(ps, V, "quadratic")[0],
             2 * mu * poisson.poisson_matrices(ps, V, "linear")[0])
    assert corrected.all()
    scale = max(np.abs(t).max() for t in (Q, *terms))
    assert np.abs(Q - terms[0] - terms[1]).max() <= 1e-12 * scale


def test_shift_law_fails_a_quadratic_field_with_one_term_off(gl3, monkeypatch):
    # a negative control: one term of the quadratic field off by 1e-6 breaks
    # the field law, and on T_P such a field already fails the range condition
    alg, mu = gl3, 10.0
    field, term = poisson.quadratic_field, _FIELD_TERMS["quadratic"]
    monkeypatch.setattr(poisson, "quadratic_field",
                        lambda alg, m, g: field(alg, m, g) + 1e-6 * term(alg, m, g))
    rng = np.random.default_rng(27)
    m, g = rng.uniform(-1, 1, (2, 6, 2, alg.dim))
    lhs = poisson.quadratic_field(alg, shifted(alg, m, mu), g)
    rhs = poisson.quadratic_field(alg, m, g) + 2 * mu * linear_field(alg, m, g)
    assert np.abs(lhs - rhs).max() > 1e-7 * np.abs(lhs).max()
    ps = phase_tp(alg)
    with pytest.raises(PreconditionError, match="range condition"):
        poisson.poisson_matrices(ps, ps.sample_stack(26, 4), "quadratic")
