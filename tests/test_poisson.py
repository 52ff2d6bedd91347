"""Poisson brackets on 𝔤×𝔤, phase-space restriction, ranks.

The gl(3) quadratic tests pin down behaviour at a point where the frozen
superdiagonal is NOT preserved by generic quadratic flows: `poisson_matrix`
must take the induced (constraint-corrected) structure there, report
`corrected=True`, and expose the size of the naive tangency failure through
`invariance_defect`.  Those asserts keep the correction visible — do not
weaken them.
"""

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
    bracket,
    build_sl,
    check_morphism_psi1,
    form,
    form2,
    mult,
    phase_tp,
    poisson_matrix,
    psi1,
    rank_sweep,
    with_rescaled_basis,
)
from toda2.checks import _cartan_block
from toda2.invariants import pullback_gradients, trace_gradients
from toda2.poisson import (
    _block_field,
    _pairing_matrix,
    bracket_tables,
    inner_bracket_gradients,
    linear_field,
    numerical_rank,
    quadratic_field,
)
from toda2.rmatrix import block_norms, point_block, r_block, rr_block

from pointwise import (
    bracket_value, field_at, gradient2, linear_function, pullback, trace_function,
)


def random_pair(alg, rng):
    return PairPoint(
        alg.element(rng.uniform(-1, 1, alg.dim)),
        alg.element(rng.uniform(-1, 1, alg.dim)),
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
    G = ScalarFunction(
        "quad*",
        val,
        gradient=lambda m: form2(b, m) * a + form2(a, m) * b,
    )
    m = random_pair(sl3, rng)
    fd, an = gradient2(F, m), G.gradient(m)
    assert (fd - an).norm() < 1e-9


coords2 = st.lists(
    st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=3, max_size=3
).map(np.array)


@given(coords2, coords2)
def test_gradient_of_pairing_is_sign_flipped(a, b):
    # ⟨·,·⟩₂ is indefinite: ∇⟨(p,q), ·⟩₂ = (p, −q) ... realised as the pair
    # whose pairing with any direction reproduces the linear functional.
    alg = build_sl(2)
    p = PairPoint(alg.element(a), alg.element(b))
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
    from toda2.checks import check_jacobi_battery

    for seed in (12, 13):
        for r in check_jacobi_battery(gl3, samples=5, seed=seed):
            assert r.verdict, r.line()


@pytest.mark.parametrize("name", ["sl3", "gl2", "gl3", "so5"])
def test_jacobi_inner_bracket_gradients_match_finite_differences(name, request):
    # the inner bracket of two linear functions has degree ≤ 2 in m, so unit-step
    # central differences are exact on it up to roundoff
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(23)
    kinds = ["linear"] + (["quadratic"] if alg.associative else [])
    for _ in range(3):
        m = random_pair(alg, rng)
        G, H = (linear_function(random_pair(alg, rng)) for _ in range(2))
        for which in kinds:
            inner = ScalarFunction("{G,H}", lambda mm, w=which: bracket_value(w, G, H, mm))
            fd = gradient2(inner, m, step=1.0)
            exact = PairPoint.from_vec(alg, inner_bracket_gradients(
                alg, which, point_block(m), point_block(G.gradient(m)),
                point_block(H.gradient(m))).ravel())
            assert (fd - exact).norm() < 1e-12 * (1.0 + exact.norm())


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
    x = gl2.element(rng.uniform(-1, 1, gl2.dim))
    gf = trace_gradients(gl2, x.coords, 1)[None]
    # the quadratic bracket lives on 𝔤×𝔤 only, and only over gl
    with pytest.raises(CapabilityError):
        bracket_tables(gl2, "quadratic", point_block(x), gf)
    with pytest.raises(CapabilityError):
        _block_field("quadratic", gl2, 1)
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
        term = bracket(R(gf), gg) + bracket(gf, R(gg))
        return 0.5 * form(x, term)

    for _ in range(3):
        x = alg.element(rng.uniform(-1, 1, alg.dim))
        gf, gg = f.gradient(x), g.gradient(x)
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
        term = pbr(rr(a), b) + pbr(a, rr(b))
        return 0.5 * form2(m, term)

    def quadratic(m, a, b):
        def half(a, b):
            return 0.5 * form2(pbr(m, a), rr(pmul(m, b) + pmul(b, m)))
        return half(a, b) - half(b, a)

    kinds = {"linear": linear}
    if alg.associative:
        kinds["quadratic"] = quadratic
    p, q = random_pair(alg, rng), random_pair(alg, rng)
    fns = [linear_function(p), linear_function(q),
           ScalarFunction("pq", lambda m: form2(p, m) * form2(q, m),
                          lambda m: form2(q, m) * p + form2(p, m) * q),
           pullback(alg, alg.exponents[-1], -0.5)]
    unit = [PairPoint.from_covector(alg, e) for e in np.eye(2 * alg.dim)]
    m = random_pair(alg, rng)
    grads = [F.gradient(m) for F in fns]
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
            assert ps.dim == alg.n**2 + 2 * alg.n - 1
        else:
            assert ps.dim == alg.dim + 2 * alg.rank
        assert len(ps.normal_covectors) == 2 * alg.dim - ps.dim


def test_phase_tp_membership_and_coords(sl3):
    ps = phase_tp(sl3)
    V = ps.sample_stack(seed=8, count=5)
    assert ps.membership_residuals(V).max() < 1e-12
    back = ps.points_from_coords((V - ps.base.vec()) @ ps.duals)
    assert np.abs(back - V).max() < 1e-12
    off = PairPoint(sl3.element(np.ones(8)), sl3.element(np.ones(8))).vec()
    assert ps.membership_residuals(off) > 0.1
    with pytest.raises(PreconditionError):
        ps.require_members(off[None])


def test_phase_tp_base_point_structure(gl3):
    # base point: unit superdiagonal in x, zero y
    ps = phase_tp(gl3)
    m0 = PairPoint.from_vec(gl3, ps.points_from_coords(np.zeros(ps.dim)))
    x = m0.x.matrix()
    assert np.allclose(np.diag(x, 1), 1.0)
    assert np.allclose(x - np.diag(np.diag(x, 1), 1), 0.0)
    assert m0.y.norm() == 0.0


def test_phase_full_is_unconstrained(sl2):
    # all of 𝔤×𝔤 as a PhaseSpace: base 0, the full tangent basis, no normals
    zero, unit = sl2.zero(), np.eye(sl2.dim)
    tangent = [PairPoint(Element(sl2, v), zero) for v in unit] + [
        PairPoint(zero, Element(sl2, v)) for v in unit]
    ps = PhaseSpace("g×g", PairPoint(zero, zero), tuple(tangent))
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
        assert rank_sweep(ps, "linear", points=8).rank == expect
        m = ps.sample_points(seed=13, count=1)[0]
        assert numerical_rank(poisson_matrix(ps, m).matrix) % 2 == 0
    for alg, expect in ((gl2, 4), (gl3, 10)):
        assert rank_sweep(phase_tp(alg), "quadratic", points=8).rank == expect


def test_rank_can_drop_at_special_points(sl3):
    ps = phase_tp(sl3)
    base = PairPoint.from_vec(sl3, ps.points_from_coords(np.zeros(ps.dim)))
    r = numerical_rank(poisson_matrix(ps, base).matrix)
    assert r % 2 == 0
    assert r <= rank_sweep(ps, points=8).rank


def test_rank_invariant_under_form_rescale(sl3):
    r2 = with_rescaled_basis(sl3, 2.0)
    assert rank_sweep(phase_tp(r2), points=8).rank == rank_sweep(phase_tp(sl3), points=8).rank
    # Casimir verdict survives the rescale too
    rng = np.random.default_rng(14)
    m = point_block(random_pair(r2, rng))
    assert block_norms(linear_field(r2, m, pullback_gradients(r2, 1, 1.0, m))) < 1e-9


def test_poisson_matrix_rejects_bad_inputs(sl3):
    ps = phase_tp(sl3)
    m = ps.sample_points(seed=15, count=1)[0]
    with pytest.raises(ValueError):
        poisson_matrix(ps, m, "cubic")
    off = PairPoint(sl3.element(np.ones(8)), sl3.element(np.ones(8)))
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
    assert (psi1(m) - (m.x - m.y)).norm() == 0.0


def test_psi1_morphism_check(sl2, gl2):
    for alg in (sl2, gl2):
        report = check_morphism_psi1(alg, samples=40)
        assert report.verdict, report.line()


def test_psi1_morphism_check_passes_on_so5(so5):
    # with finite-difference gradients of the quadratic monomials at step 1e-5
    # the roundoff once measured 1.13e-9 against the 1e-9 tolerance
    report = check_morphism_psi1(so5)
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
        X, Y = alg.to_matrix(x), alg.to_matrix(y)
        return alg.from_matrix(X @ Y - Y @ X)

    def mul(x, y):
        return alg.from_matrix(alg.to_matrix(x) @ alg.to_matrix(y))

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
            block_field = {"linear": linear_field, "quadratic": quadratic_field}[which]
            ref = reference[which]
            # one gradient, a gradient stack at one point, a point stack
            one = block_field(alg, m, grads[0])
            assert np.abs(one - ref(m, grads[0])).max() < 1e-13
            stack = block_field(alg, m, grads)
            assert stack.shape == (4, k, alg.dim)
            moved = block_field(alg, points, grads[0])
            for j in range(4):
                assert np.abs(stack[j] - ref(m, grads[j])).max() < 1e-13
                assert np.abs(moved[j] - ref(points[j], grads[0])).max() < 1e-13
                # one point at a time gives the bits of the stack rows
                assert np.array_equal(block_field(alg, m, grads[j]), stack[j])
                assert np.array_equal(block_field(alg, points[j], grads[0]), moved[j])


def test_pairing_matrix_is_cached_read_only(gl2, sl3):
    for alg in (gl2, sl3):
        P = alg.pair_gram
        assert alg.pair_gram is P and not P.flags.writeable
        assert np.array_equal(P, np.kron(np.diag([1.0, -1.0]), alg.gram))
        m = PairPoint(alg.zero(), alg.zero())
        assert _pairing_matrix(m) is P
        assert _pairing_matrix(alg.zero()) is alg.gram
