"""Conserved family F_{j,i} from the pencil expansion of Tr-power invariants.

The oracle here is deliberately independent of the pencil recurrence behind
`family_values`: evaluate P_i(λx − y) at distinct nodes and solve the
(signed) Vandermonde system for the coefficients.  Everything else must agree
with that.
"""

import tracemalloc

import numpy as np
import pytest

from toda2 import (
    Element,
    PairPoint,
    ScalarFunction,
    build_gl,
    build_sl,
    family,
    family_labels,
    family_values,
    phase_tp,
    rais_vectors,
)
from toda2.invariants import (
    _pencil_powers,
    family_gradient_stack,
    pullback_gradients,
    require_generator_label,
    trace_gradients,
    trace_values,
)
from toda2.poisson import linear_field
from toda2.rmatrix import block_norms

from pointwise import form, gradient2, point_block

EXPECTED_CARD = {"sl2": 3, "sl3": 7, "sl4": 12, "gl2": 5, "gl3": 9}


def random_pair(alg, rng):
    return PairPoint(
        Element(alg, rng.uniform(-1, 1, alg.dim)),
        Element(alg, rng.uniform(-1, 1, alg.dim)),
    )


def principal_pair(alg):
    """The point (e, h) of 𝔤×𝔤."""
    return PairPoint.from_vec(alg, np.concatenate([alg.e_coords, alg.h_coords]))


# ---------------------------------------------------------------------------
# generators P_i
# ---------------------------------------------------------------------------

def test_trace_invariant_values(sl3, gl2):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, sl3.dim)
    X = sl3.to_matrices(x)[0]
    assert trace_values(sl3, x, 1) == pytest.approx(0.5 * np.trace(X @ X))
    assert trace_values(sl3, x, 2) == pytest.approx(np.trace(X @ X @ X) / 3.0)
    g = rng.uniform(-1, 1, gl2.dim)
    assert trace_values(gl2, g, 0) == pytest.approx(np.trace(gl2.to_matrices(g)[0]))


def test_trace_invariant_gradient_is_projected_power(sl3):
    # ⟨∇P_i(x), u⟩ = Tr(xⁱ u) for every direction u
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, sl3.dim)
    g = Element(sl3, trace_gradients(sl3, x, 2))
    X = sl3.to_matrices(x)[0]
    for _ in range(6):
        u = rng.uniform(-1, 1, sl3.dim)
        assert form(g, Element(sl3, u)) == pytest.approx(
            float(np.trace(X @ X @ sl3.to_matrices(u)[0])), abs=1e-12
        )


# ---------------------------------------------------------------------------
# pencil expansion against the Vandermonde oracle
# ---------------------------------------------------------------------------

def vandermonde_coefficients(alg, i, m):
    """Solve for F_{j,i} from values of P_i(λx − y) at distinct nodes."""
    d = i + 1
    nodes = np.linspace(-1.1, 1.7, d + 1)
    A = np.array(
        [[(-1.0) ** (d - j) * lam**j for j in range(d + 1)] for lam in nodes]
    )
    vals = trace_values(alg, np.stack([lam * m.x.coords - m.y.coords for lam in nodes]), i)
    return np.linalg.solve(A, vals)


def members(alg, i, m):
    """The values F_{0,i} … F_{m_i+1,i} and their gradients at m, from the
    family stacks on the one-row stack of m."""
    labels = family_labels(alg)
    cols = [labels.index((j, i)) for j in range(i + 2)]
    row = m.vec()[None]
    grads = family_gradient_stack(alg, row)[0, cols]
    return family_values(alg, row)[0, cols], [PairPoint.from_vec(alg, g) for g in grads]


def test_expansion_matches_vandermonde(sl3, sl4, gl3):
    rng = np.random.default_rng(2)
    for alg in (sl3, sl4, gl3):
        for i in alg.exponents:
            m = random_pair(alg, rng)
            coeffs, _ = members(alg, i, m)
            want = vandermonde_coefficients(alg, i, m)
            assert len(coeffs) == i + 2
            assert np.allclose(coeffs, want, atol=1e-10), (alg.name, i)


def test_family_values_batch_is_rowwise_and_memberwise(desk_algebras):
    # a trajectory's values come from one batch; one member at a time must
    # give the same bits, row by row
    for alg in desk_algebras.values():
        pts = phase_tp(alg).sample_points(seed=11, count=201)
        states = np.stack([m.vec() for m in pts])
        batch = family_values(alg, states)
        assert batch.shape == (201, len(family_labels(alg)))
        rows = np.concatenate([family_values(alg, states[k:k + 1]) for k in range(201)])
        fam = family(alg)
        members = np.array([[F(m) for F in fam] for m in pts])
        assert np.array_equal(batch, rows), alg.name
        assert np.array_equal(batch, members), alg.name


def formed_power_traces(alg, states, k):
    """Tr of every λ-coefficient of (λX − Y)^k at each row of `states`, each
    coefficient formed by matmul, multiplying (λX − Y) on the left."""
    V = alg.to_matrices(states)
    X, Y = V[:, 0], V[:, 1]
    zero = np.zeros_like(X)
    W = [np.broadcast_to(np.eye(X.shape[-1]), X.shape)]
    for _ in range(k):
        W = [X @ a - Y @ b for a, b in zip([zero, *W], [*W, zero])]
    return [np.trace(w, axis1=1, axis2=2) for w in W]


@pytest.mark.parametrize("name", [f"{kind}{n}" for kind in ("sl", "gl") for n in range(2, 7)]
                         + ["so5"])
def test_family_values_match_the_traces_of_formed_powers(name, request):
    # family_values takes its top power only through its traces; every member
    # within 1e-14 of its column's largest value (the gap was at most 4.6e-16
    # with the top power formed)
    alg = request.getfixturevalue(name) if name == "so5" else \
        {"sl": build_sl, "gl": build_gl}[name[:2]](int(name[2:]))
    for seed in (1, 2, 3):
        states = phase_tp(alg).sample_stack(seed, 20)
        traces = {i: formed_power_traces(alg, states, i + 1) for i in alg.exponents}
        want = np.stack([(-1.0) ** (i + 1 - j) * traces[i][j] / (i + 1)
                         for (j, i) in family_labels(alg)], axis=1)
        gap = np.abs(family_values(alg, states) - want)
        assert np.all(gap <= 1e-14 * np.abs(want).max(axis=0)), (name, seed)


def test_the_first_pencil_power_is_read_off(sl3, gl3):
    # (λX − Y)¹ = (−Y, X) with no product, the same bits as the products by
    # the identity that formed it
    for alg in (sl3, gl3):
        V = alg.to_matrices(phase_tp(alg).sample_stack(1, 20))
        X, Y = V[:, 0], V[:, 1]
        (_, one), = [(k, W) for k, W in _pencil_powers(V, 1) if k == 1]
        eye = np.broadcast_to(np.eye(X.shape[-1]), X.shape)
        assert np.array_equal(one[0], -Y) and np.array_equal(one[1], X)
        assert np.array_equal(one[0], eye @ -Y) and np.array_equal(one[1], eye @ X)


def test_family_values_stream_the_pencil_powers():
    # the recurrence hands each power on and drops it: two powers of at most
    # top + 1 coefficient stacks are alive at a time, not all (top + 1)(top + 2)/2
    alg = build_gl(5)
    states = np.random.default_rng(0).uniform(-1.0, 1.0, (2000, 2 * alg.dim))
    top = max(alg.exponents) + 1
    stack = len(states) * alg.matrix_size ** 2 * 8       # one (N, n, n) array
    family_values(alg, states[:2])
    tracemalloc.start()
    try:
        family_values(alg, states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 14.6 stacks measured; 23 while every power's list was kept to the end
    assert peak < 3 * (top + 1) * stack


def test_expand_pencil_takes_generator_labels_only(sl3):
    for i in (-1, 0, 3):
        with pytest.raises(ValueError):
            require_generator_label(sl3, i)


def test_pencil_value_consistency(sl3):
    rng = np.random.default_rng(3)
    m = random_pair(sl3, rng)
    coeffs, _ = members(sl3, 2, m)
    for lam in (-1.0, 0.0, 0.5, 2.0):
        # Σ_j (−1)^{m_i+1−j} λ^j F_{j,i} is P_i(λx − y)
        value = float(sum((-1.0) ** (3 - j) * lam**j * coeffs[j] for j in range(4)))
        w = lam * m.x.coords - m.y.coords
        assert value == pytest.approx(float(trace_values(sl3, w, 2)), abs=1e-12)


def test_gradient_coefficients_match_fd(gl3):
    rng = np.random.default_rng(4)
    m = random_pair(gl3, rng)
    _, grads = members(gl3, 2, m)
    fam, labels = family(gl3), family_labels(gl3)
    for j in range(len(grads)):
        F = fam[labels.index((j, 2))]       # no analytic gradient: the FD path
        assert np.abs(gradient2(F, m).vec() - grads[j].vec()).max() < 1e-8


def test_low_coefficients_are_classical(sl3):
    # F_{2,1} = ½⟨x,x⟩, F_{1,1} = ⟨x,y⟩, F_{0,1} = ½⟨y,y⟩
    rng = np.random.default_rng(5)
    m = random_pair(sl3, rng)
    coeffs, _ = members(sl3, 1, m)
    assert coeffs[2] == pytest.approx(0.5 * form(m.x, m.x), abs=1e-12)
    assert coeffs[1] == pytest.approx(form(m.x, m.y), abs=1e-12)
    assert coeffs[0] == pytest.approx(0.5 * form(m.y, m.y), abs=1e-12)
    # and ∇F_{1,1} = (y, −x): at (e, h) that is (h, −e)
    g = members(sl3, 1, principal_pair(sl3))[1][1]
    assert np.allclose(g.x.coords, sl3.h_coords, atol=1e-13)
    assert np.allclose(g.y.coords, -sl3.e_coords, atol=1e-13)


# ---------------------------------------------------------------------------
# the family: cardinality, Casimir at λ = 1, independence
# ---------------------------------------------------------------------------

def test_family_cardinalities(desk_algebras):
    for name, alg in desk_algebras.items():
        fam = family(alg)
        assert len(fam) == EXPECTED_CARD[name]
        assert len(family_labels(alg)) == len(fam)
        assert sum(mi + 2 for mi in alg.exponents) == len(fam)


def test_pullback_at_one_is_casimir(sl3):
    rng = np.random.default_rng(6)
    for i in sl3.exponents:
        for _ in range(4):
            m = point_block(random_pair(sl3, rng))
            assert block_norms(linear_field(sl3, m, pullback_gradients(sl3, i, 1.0, m))) < 1e-9


def independence_rank(ps, points, extra=()):
    """Max over points of the Jacobian rank along ps of the family, with the
    gradients of each point's one-row stack, and of the functions `extra`,
    with gradients from `gradient2`."""
    G = np.stack([[*family_gradient_stack(ps.alg, m.vec()[None])[0],
                   *(gradient2(F, m).vec() for F in extra)] for m in points])
    return int(ps.jacobian_ranks(G).max())


def test_family_independent_at_principal_point(desk_algebras):
    for name, alg in desk_algebras.items():
        assert independence_rank(phase_tp(alg), [principal_pair(alg)]) == EXPECTED_CARD[name]


def test_constant_adds_no_rank(sl3):
    ps = phase_tp(sl3)
    pts = ps.sample_points(seed=7, count=5)
    base = independence_rank(ps, pts)
    assert independence_rank(ps, pts, [ScalarFunction("const", lambda m: 4.0)]) == base


def test_independence_battery_reads_the_family_once_per_stack(sl3, monkeypatch):
    # one family_gradient_stack pass at (e, h) and one on the whole sweep stack,
    # ranked in one stacked product with the tangent matrix; the same rank as
    # the member-by-member Jacobian
    from toda2 import checks
    from toda2.invariants import family_gradient_stack

    calls = []

    def counted(alg, states):
        calls.append(len(states))
        return family_gradient_stack(alg, states)

    monkeypatch.setattr(checks, "family_gradient_stack", counted)
    at_eh, sweep = checks.check_independence_battery(sl3, points=4, seed=7)
    assert calls == [1, 4]
    ps, pts = phase_tp(sl3), phase_tp(sl3).sample_points(7, 4)
    assert sweep.measured == independence_rank(ps, pts) == 7
    assert at_eh.measured == independence_rank(ps, [principal_pair(sl3)]) == 7


# ---------------------------------------------------------------------------
# Raïs vectors V_{k,i} = k!·∂_x F_{k+1,i}(e, h)
# ---------------------------------------------------------------------------

def test_rais_vectors(desk_algebras):
    expected_count = {"sl2": 2, "sl3": 5, "sl4": 9, "gl2": 3, "gl3": 6}
    for name, alg in desk_algebras.items():
        rd = rais_vectors(alg)
        assert rd.count == expected_count[name]
        assert rd.count == (alg.dim + alg.rank) // 2
        assert rd.rank == rd.count          # linearly independent
        assert rd.max_negative_component < 1e-12   # span inside 𝔤_{≥0}
        assert all(d >= 0 for d in rd.degree_profile)


def test_first_rais_vector_is_grading_element(sl3, gl3):
    # V_{0,1} = ∂_x⟨x,y⟩ at (e, h) = h
    for alg in (sl3, gl3):
        rd = rais_vectors(alg)
        by_label = {(k, i): v for (k, i, v) in rd.vectors}
        assert np.allclose(by_label[(0, 1)], alg.h_coords, atol=1e-12)
