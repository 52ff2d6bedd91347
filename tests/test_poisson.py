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
    PreconditionError,
    RMatrixConfig,
    ScalarFunction,
    bracket,
    build_sl,
    cartan_block,
    check_morphism_psi1,
    form,
    form2,
    gradient2,
    hamiltonian_field,
    linear_bracket,
    pencil_pullback,
    phase_full,
    phase_tp,
    poisson_matrix,
    psi1,
    quadratic_bracket,
    rank_at,
    r_apply,
    rank_sweep,
    trace_invariant,
    with_rescaled_basis,
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
        assert linear_bracket(F, G, m) == pytest.approx(
            -linear_bracket(G, F, m), abs=1e-10
        )
        assert quadratic_bracket(F, G, m) == pytest.approx(
            -quadratic_bracket(G, F, m), abs=1e-10
        )


def test_linear_bracket_leibniz(sl3):
    rng = np.random.default_rng(3)
    F, G, H = (_random_linear(sl3, rng, n) for n in "FGH")
    FG = ScalarFunction("FG", lambda m: F(m) * G(m))
    for _ in range(5):
        m = random_pair(sl3, rng)
        lhs = linear_bracket(FG, H, m)
        rhs = F(m) * linear_bracket(G, H, m) + G(m) * linear_bracket(F, H, m)
        assert lhs == pytest.approx(rhs, abs=1e-7)


def test_brackets_jacobi_spot(gl2):
    # function-level Jacobi via nested finite differences; coarse tolerance
    rng = np.random.default_rng(4)
    F, G, H = (_random_linear(gl2, rng, n) for n in "FGH")
    m = random_pair(gl2, rng)
    for pb in (linear_bracket, quadratic_bracket):
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


def test_quadratic_needs_associative(sl3):
    rng = np.random.default_rng(5)
    F, G = _random_linear(sl3, rng, "F"), _random_linear(sl3, rng, "G")
    with pytest.raises(CapabilityError):
        quadratic_bracket(F, G, random_pair(sl3, rng))


def test_hamiltonian_field_reproduces_bracket(gl2):
    rng = np.random.default_rng(6)
    F, K = _random_linear(gl2, rng, "F"), _random_linear(gl2, rng, "K")
    for which in ("linear", "quadratic"):
        m = random_pair(gl2, rng)
        X = hamiltonian_field(F, m, which)
        # X_F[K] = {K, F}: pair ∇K against the field
        gK = gradient2(K, m)
        assert form2(gK, X) == pytest.approx(
            {"linear": linear_bracket, "quadratic": quadratic_bracket}[which](
                K, F, m
            ),
            abs=1e-7,
        )


def test_bracket_kinds_are_checked_in_one_place(sl3, gl2):
    rng = np.random.default_rng(7)
    F, G = _random_linear(gl2, rng, "F"), _random_linear(gl2, rng, "G")
    m = random_pair(gl2, rng)
    with pytest.raises(ValueError, match="unknown bracket kind"):
        hamiltonian_field(F, m, "cubic")
    f = trace_invariant(gl2, 1)
    x = gl2.element(rng.uniform(-1, 1, gl2.dim))
    # the quadratic bracket lives on 𝔤×𝔤 only, and only over gl
    with pytest.raises(CapabilityError):
        quadratic_bracket(f, f, x)
    with pytest.raises(CapabilityError):
        hamiltonian_field(f, x, "quadratic")
    Fs = _random_linear(sl3, rng, "F")
    with pytest.raises(CapabilityError):
        hamiltonian_field(Fs, random_pair(sl3, rng), "quadratic")


@pytest.mark.parametrize("name", ["sl3", "gl2"])
def test_single_algebra_bracket_matches_inline_formula(name, request):
    # {f, g}_R(x) = ½⟨x, [R∇f, ∇g] + [∇f, R∇g]⟩, spelled out independently of
    # r_bracket; the field's a-th coordinate is {z_a, f}_R with ∇z_a = G⁻¹e_a
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(8)
    f, g = trace_invariant(alg, 1), trace_invariant(alg, 2)

    def inline(x, gf, gg):
        term = bracket(r_apply(gf), gg) + bracket(gf, r_apply(gg))
        return 0.5 * form(x, term)

    for _ in range(3):
        x = alg.element(rng.uniform(-1, 1, alg.dim))
        gf, gg = f.gradient(x), g.gradient(x)
        assert linear_bracket(f, g, x) == pytest.approx(inline(x, gf, gg), abs=1e-13)
        X = hamiltonian_field(g, x)
        assert isinstance(X, Element)
        want = [inline(x, Element(alg, alg.gram_inv[:, a]), gg) for a in range(alg.dim)]
        assert np.allclose(X.coords, want, atol=1e-13)
        # X_g[f] = {f, g}_R
        assert form(gf, X) == pytest.approx(linear_bracket(f, g, x), abs=1e-12)


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
    for m in ps.sample_points(seed=8, count=5):
        assert ps.membership_residual(m) < 1e-12
        back = ps.point_from_coords(ps.coords_of(m))
        assert (back - m).norm() < 1e-12
    off = PairPoint(sl3.element(np.ones(8)), sl3.element(np.ones(8)))
    assert ps.membership_residual(off) > 0.1
    with pytest.raises(PreconditionError):
        ps.require_member(off)


def test_phase_tp_base_point_structure(gl3):
    # base point: unit superdiagonal in x, zero y
    ps = phase_tp(gl3)
    m0 = ps.point_from_coords(np.zeros(ps.dim))
    x = m0.x.matrix()
    assert np.allclose(np.diag(x, 1), 1.0)
    assert np.allclose(x - np.diag(np.diag(x, 1), 1), 0.0)
    assert m0.y.norm() == 0.0


def test_phase_full_is_unconstrained(sl2):
    ps = phase_full(sl2)
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
        assert rank_sweep(ps, "linear", points=8) == expect
        m = ps.sample_points(seed=13, count=1)[0]
        assert rank_at(ps, m) % 2 == 0
    for alg, expect in ((gl2, 4), (gl3, 10)):
        assert rank_sweep(phase_tp(alg), "quadratic", points=8) == expect


def test_rank_can_drop_at_special_points(sl3):
    ps = phase_tp(sl3)
    base = ps.point_from_coords(np.zeros(ps.dim))
    r = rank_at(ps, base)
    assert r % 2 == 0
    assert r <= rank_sweep(ps, points=8)


def test_rank_invariant_under_form_rescale(sl3):
    r2 = with_rescaled_basis(sl3, 2.0)
    assert rank_sweep(phase_tp(r2), points=8) == rank_sweep(phase_tp(sl3), points=8)
    # Casimir verdict survives the rescale too
    C = pencil_pullback(r2, 1, 1.0)
    rng = np.random.default_rng(14)
    m = random_pair(r2, rng)
    assert hamiltonian_field(C, m).norm() < 1e-9


def test_poisson_matrix_rejects_bad_inputs(sl3):
    ps = phase_tp(sl3)
    m = ps.sample_points(seed=15, count=1)[0]
    with pytest.raises(ValueError):
        poisson_matrix(ps, m, "cubic")
    off = PairPoint(sl3.element(np.ones(8)), sl3.element(np.ones(8)))
    with pytest.raises(PreconditionError):
        poisson_matrix(ps, off)


def test_cartan_block_values(sl2, gl3):
    assert np.allclose(cartan_block(sl2), [[0, -2], [2, 0]], atol=1e-10)
    C = np.array([[2.0, -1.0], [-1.0, 2.0]])
    want = np.block(
        [[np.zeros((2, 2)), -C.T], [C, np.zeros((2, 2))]]
    )
    assert np.allclose(cartan_block(gl3), want, atol=1e-10)


def test_cartan_block_from_so5_spec_data(so5):
    # the simple system comes from the degree ±1 basis vectors, not from
    # type-A matrices; C[i, j] = α_i(h_j) is the stored cartan transposed
    C = np.array([[2.0, -2.0], [-1.0, 2.0]])
    assert np.array_equal(so5.cartan, C.T)
    want = np.block([[np.zeros((2, 2)), -C.T], [C, np.zeros((2, 2))]])
    assert np.allclose(cartan_block(so5), want, atol=1e-10)


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
    with pytest.raises(PreconditionError):
        check_morphism_psi1(sl2, cfg=RMatrixConfig(c=2.0))


def test_psi1_morphism_check_passes_on_so5(so5):
    # the quadratic monomials get exact unit-step central differences; at the
    # FD step 1e-5 their roundoff measured 1.13e-9 against the 1e-9 tolerance
    report = check_morphism_psi1(so5)
    assert report.verdict, report.line()
    assert report.measured < 1e-12
