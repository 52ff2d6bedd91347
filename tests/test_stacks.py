"""Batteries on point stacks against their per-point loops.

Every battery draws its samples as one array and evaluates them as one stack.
Each test below keeps the per-point loop the battery replaced as the
reference: one Element or PairPoint at a time (the block forms on one-point
blocks, `pointwise`), draws interleaved as the loop makes them.  The block
fields give a stack the bits of its points one at a time, so the measured
values must agree bit for bit.
"""

import math

import numpy as np
import pytest

from toda2 import (
    Element,
    PairPoint,
    phase_tp,
    poisson_matrix,
)
from toda2 import checks, poisson, toda
from toda2.invariants import family, family_gradient_stack, family_labels
from toda2.poisson import _gradient_blocks, bracket_tables, numerical_rank
from toda2.rmatrix import r_bracket_blocks

from pointwise import (
    AnalyticFunction,
    bracket,
    field_at,
    flow_at,
    form,
    form2,
    linear_function,
    point_block,
    psi1,
    pullback,
    trace_function,
    zero,
)

ALGEBRAS = ["sl3", "gl3", "so5"]


@pytest.fixture(params=ALGEBRAS)
def alg(request):
    return request.getfixturevalue(request.param)


def measured(reports, check):
    return next(r.measured for r in reports if r.check == check)


def same(a, b):
    """Bit-for-bit equality of two measured values."""
    return np.array_equal(np.asarray(a), np.asarray(b))


def random_pair(alg, rng):
    return PairPoint(Element(alg, rng.uniform(-1.0, 1.0, alg.dim)),
                     Element(alg, rng.uniform(-1.0, 1.0, alg.dim)))


def table_at(m, grads, which):
    """The bracket table of the functions with gradients grads at one point."""
    return bracket_tables(m.alg, which, point_block(m), np.stack([g.vec() for g in grads]))


def hamiltonian_field(F, m, which="linear"):
    """X_F(m) of bracket `which` at one point, from F's analytic gradient."""
    return field_at(which, m, F.gradient(m))


def gradients_at(alg, m):
    """∇F_{j,i}(m) of every family member, from the one-row stack of m."""
    return [PairPoint.from_vec(alg, g) for g in family_gradient_stack(alg, m.vec()[None])[0]]


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------


def test_one_array_draw_equals_interleaved_draws():
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    stacked = a.uniform(-1.0, 1.0, (7, 3))
    assert np.array_equal(stacked, [b.uniform(-1.0, 1.0, 3) for _ in range(7)])


def test_psi1_draws_are_the_interleaved_draws(alg):
    # every fifth sample draws four unit vectors instead of two covectors
    M, gf, gg = poisson._psi1_samples(alg, seed=42, samples=23)
    rng, gi = np.random.default_rng(42), alg.gram_inv
    for k in range(23):
        m = PairPoint(Element(alg, rng.uniform(-1, 1, alg.dim)),
                      Element(alg, rng.uniform(-1, 1, alg.dim)))
        w = psi1(m)
        if k % 5 == 4:
            def unit():
                v = rng.uniform(-1, 1, alg.dim)
                return Element(alg, v / np.linalg.norm(v))
            a, b, c, d = unit(), unit(), unit(), unit()
            f = form(b, w) * a.coords + form(a, w) * b.coords
            g = form(d, w) * c.coords + form(c, w) * d.coords
        else:
            f = gi @ rng.uniform(-1, 1, alg.dim)
            g = gi @ rng.uniform(-1, 1, alg.dim)
        assert np.array_equal(M[k].ravel(), m.vec())
        assert np.array_equal(gf[k], f) and np.array_equal(gg[k], g)


def test_intersection_population_is_the_interleaved_draws(alg):
    # 200 draws cycling through four modes of different widths, grouped by mode
    ps, dps = phase_tp(alg), toda.diag_phase_space(alg)
    rng = np.random.default_rng(42)
    points = []
    for k in range(200):
        mode = k % 4
        if mode == 0:
            p = PairPoint.from_vec(alg, dps.points_from_coords(rng.uniform(-1, 1, dps.dim)))
        elif mode == 1:
            p = PairPoint.from_vec(alg, ps.points_from_coords(rng.uniform(-1, 1, ps.dim)))
        elif mode == 2:
            x = Element(alg, rng.uniform(-1, 1, alg.dim))
            p = PairPoint(x, x)
        else:
            p = random_pair(alg, rng)
        points.append(p.vec())
    by_mode = np.concatenate([points[mode::4] for mode in range(4)])
    assert np.array_equal(checks._intersection_population(alg, 42), by_mode)


# ---------------------------------------------------------------------------
# poisson.py: bracket tables, Poisson matrices, rank sweep, ψ₁
# ---------------------------------------------------------------------------


def test_poisson_matrices_match_the_point_loop(alg):
    ps = phase_tp(alg)
    points = poisson._RANK_POINTS        # the points of a rank sweep
    for which in poisson.brackets(alg):
        M, corrected, defect = poisson.poisson_matrices(ps, ps.sample_stack(3, points), which)
        matrices = [poisson_matrix(ps, m, which) for m in ps.sample_points(3, points)]
        for k, pm in enumerate(matrices):
            assert np.array_equal(M[k], pm.matrix)
            assert corrected[k] == pm.corrected and defect[k] == pm.invariance_defect
        sweep = poisson.rank_sweep(ps, which, seed=3)
        assert sweep.rank == max(numerical_rank(pm.matrix) for pm in matrices)
        assert sweep.points == points
        assert sweep.corrected == int(corrected.sum())
        assert sweep.invariance_defect == defect.max()


def test_rank_evidence_is_in_the_rank_reports(gl3, sl3):
    # gl3's quadratic bracket moves T_P (every point corrected); sl3's linear one does not
    quad = next(r for r in checks.check_rank_battery(gl3) if r.check == "rank-quadratic")
    lin = next(r for r in checks.check_rank_battery(sl3) if r.check == "rank-linear")
    assert "Dirac-corrected points 25/25" in quad.detail
    assert "Dirac-corrected points 0/25" in lin.detail
    for r in (quad, lin):
        margin = float(r.detail.split("sv margin min ")[1].split(",")[0])
        assert margin > 1e6    # the smallest counted σ clears the rank cut widely
        assert "invariance defect max " in r.detail


def test_morphism_psi1_matches_the_point_loop(alg):
    M, gf, gg = poisson._psi1_samples(alg, seed=42, samples=100)
    worst = 0.0
    for m_blk, f, g in zip(M, gf, gg):
        m = PairPoint(Element(alg, m_blk[0]), Element(alg, m_blk[1]))
        f, g = Element(alg, f), Element(alg, g)
        lhs = form2(PairPoint(f, f), field_at("linear", m, PairPoint(g, g)))
        rhs = form(psi1(m), bracket(f, g))
        worst = max(worst, abs(lhs - rhs))
    assert same(poisson.check_morphism_psi1(alg).measured, worst)


# ---------------------------------------------------------------------------
# checks.py batteries
# ---------------------------------------------------------------------------


def test_casimir_battery_matches_the_point_loop(alg):
    rng = np.random.default_rng(42)
    pts = [random_pair(alg, rng) for _ in range(20)]
    reports = checks.check_casimir_battery(alg)
    for i in alg.exponents:
        C = pullback(alg, i, 1.0)
        worst = max(np.abs(hamiltonian_field(C, m).vec()).max() for m in pts)
        assert same(measured(reports, f"casimir-P{i}"), worst)


def test_jacobi_battery_matches_the_point_loop(alg):
    rng = np.random.default_rng(42)
    reports = checks.check_jacobi_battery(alg)
    def r_bracket(x, y):
        B = r_bracket_blocks(alg, point_block(x), point_block(y))
        return type(x).from_vec(alg, B.ravel())

    for name, k in (("r", 1), ("rr", 2)):
        worst = 0.0
        for _ in range(20):
            x, y, z = (Element(alg, rng.uniform(-1.0, 1.0, alg.dim)) if k == 1
                       else random_pair(alg, rng) for _ in range(3))
            cyc = (r_bracket(r_bracket(x, y), z).vec() + r_bracket(r_bracket(y, z), x).vec()
                   + r_bracket(r_bracket(z, x), y).vec())
            # Euclidean on 𝔤, max abs on 𝔤×𝔤, as the battery measures
            worst = max(worst, np.linalg.norm(cyc) if k == 1 else np.abs(cyc).max())
        assert same(measured(reports, f"jacobi-{name}-bracket"), worst)
    for which in ("linear", "quadratic") if alg.associative else ("linear",):
        worst = 0.0
        for _ in range(20):
            m = random_pair(alg, rng)
            f, g, h = (random_pair(alg, rng) for _ in range(3))

            def nested(a, b, c):
                # {A, {B, C}}(m) = −⟨b, dX_C(m)[X_A(m)]⟩ for linear A, B, C with
                # gradients a, b, c; X_C has degree ≤ 2, so the unit central
                # difference is its exact derivative
                v = field_at(which, m, a).vec()
                up, down = (field_at(which, PairPoint.from_vec(alg, w), c).vec()
                            for w in (m.vec() + v, m.vec() - v))
                return -form2(b, PairPoint.from_vec(alg, (up - down) * 0.5))
            worst = max(worst, abs(nested(f, g, h) + nested(g, h, f) + nested(h, f, g)))
        assert same(measured(reports, f"jacobi-{which}-bracket"), worst)


def test_involutivity_battery_matches_the_point_loop(alg):
    ps = phase_tp(alg)
    reports = checks.check_involutivity_battery(alg)
    for which in ("linear", "quadratic") if alg.associative else ("linear",):
        worst = max(float(np.abs(table_at(m, gradients_at(alg, m), which)).max())
                    for m in ps.sample_points(42, 20))
        assert same(measured(reports, f"involutivity-{which}"), worst)
    rng, worst = np.random.default_rng(42), 0.0
    for _ in range(5):
        m = random_pair(alg, rng)
        grads = [pullback(alg, i, lam).gradient(m)
                 for i in alg.exponents for lam in (0.0, 0.5, 1.0, 2.0, -1.0)]
        worst = max(worst, float(np.abs(table_at(m, grads, "linear")).max()))
    assert same(measured(reports, "involutivity-pencil"), worst)


def test_family_gradient_stack_matches_the_point_loop(alg):
    ps = phase_tp(alg)
    G = family_gradient_stack(alg, ps.sample_stack(8, 4))
    for k, m in enumerate(ps.sample_points(8, 4)):
        assert np.array_equal(G[k], family_gradient_stack(alg, m.vec()[None])[0])


def test_independence_battery_matches_the_point_loop(alg):
    ps = phase_tp(alg)
    at_eh, sweep = checks.check_independence_battery(alg)

    def jacobian_rank(grads):
        return int(ps.jacobian_ranks(np.stack([g.vec() for g in grads])))

    eh = PairPoint.from_vec(alg, np.concatenate([alg.e_coords, alg.h_coords]))
    assert at_eh.measured == jacobian_rank(gradients_at(alg, eh))
    assert sweep.measured == max(jacobian_rank(gradients_at(alg, m))
                                 for m in ps.sample_points(42, 20))


def test_field_identities_match_the_point_loop(alg):
    pts = phase_tp(alg).sample_points(42, 5)
    reports = checks.check_field_battery(alg)
    H = AnalyticFunction("H", lambda m: 0.0, lambda m: PairPoint(m.x, zero(alg)))
    Ht = AnalyticFunction("H~", lambda m: 0.0,
                          lambda m: PairPoint(zero(alg), Element(alg, -m.y.coords)))
    # a pair's residual is measured in the max abs of its row
    assert same(measured(reports, "field-t-hamiltonian"), max(
        np.abs(hamiltonian_field(H, m).vec() - flow_at("t", m).vec()).max() for m in pts))
    assert same(measured(reports, "field-s-hamiltonian"), max(
        np.abs(hamiltonian_field(Ht, m).vec() + flow_at("s", m).vec()).max() for m in pts))
    worst = max(
        np.abs(flow_at("linear", m, i=i, lam=lam).vec()
               - hamiltonian_field(pullback(alg, i, lam), m).vec()).max()
        for m in pts[:3] for i in alg.exponents for lam in (0.0, 2.0, -1.0))
    assert same(measured(reports, "field-pencil-closed-form"), worst)


def test_quadratic_relations_match_the_point_loop(gl3):
    alg = gl3
    pts = phase_tp(alg).sample_points(42, 5)
    reports = checks.check_field_battery(alg)
    lams = (0.0, 2.0, -1.0)
    # each residual is the max abs of a pair row
    worst = max(
        np.abs(flow_at("quadratic", m, i=i, lam=lam).vec()
               - hamiltonian_field(pullback(alg, i, lam), m, "quadratic").vec()).max()
        for m in pts[:3] for i in alg.exponents for lam in lams)
    assert same(measured(reports, "field-quadratic-closed-form"), worst)
    # the bracket fields of both sides, not the closed forms, which are one formula
    worst = max(np.abs(hamiltonian_field(pullback(alg, i, lam), m, "quadratic").vec()
                       - (2.0 / (lam - 1.0))
                       * hamiltonian_field(pullback(alg, i + 1, lam), m).vec()).max()
                for m in pts for i in alg.exponents for lam in lams)
    assert same(measured(reports, "relquad"), worst)
    at = {label: k for k, label in enumerate(family_labels(alg))}

    def x(j, i, which, m):
        return field_at(which, m, gradients_at(alg, m)[at[(j, i)]]).vec()

    lines = {1: 0.0, 2: 0.0, 3: 0.0}
    for m in pts[:3]:
        for i in range(alg.matrix_size - 1):
            r = x(0, i, "quadratic", m) - 2.0 * x(0, i + 1, "linear", m)
            lines[1] = max(lines[1], np.abs(r).max())
            for j in range(1, i + 2):
                r = x(j, i, "quadratic", m) + x(j - 1, i, "quadratic", m) - 2.0 * x(j, i + 1, "linear", m)
                lines[2] = max(lines[2], np.abs(r).max())
            r = x(i + 1, i, "quadratic", m) - 2.0 * x(i + 2, i + 1, "linear", m)
            lines[3] = max(lines[3], np.abs(r).max())
    for k, value in lines.items():
        assert same(measured(reports, f"relquadline-{k}"), value)


# ---------------------------------------------------------------------------
# toda.py batteries
# ---------------------------------------------------------------------------


def test_poisson_iso_matches_the_point_loop(alg):
    ts, dps = toda.toda_space(alg), toda.diag_phase_space(alg)
    rng, worst = np.random.default_rng(42), 0.0
    for _ in range(100):
        x = Element(alg, ts.points_from_coords(rng.uniform(-1.0, 1.0, ts.dim)))
        ts.require_members(x.vec()[None])
        p = PairPoint(x, x)
        lhs = table_at(p, [PairPoint.from_vec(alg, g) for g in dps.coord_gradients], "linear")
        rhs = table_at(x, [Element(alg, g) for g in ts.coord_gradients], "linear")
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert same(toda.check_poisson_iso(alg).measured, worst)


def test_binomial_identity_matches_the_point_loop(alg):
    xs = toda.toda_space(alg).sample_points(42, 20)
    worst = 0.0
    for x in xs:
        values = family(alg)
        for (k, i), F in zip(family_labels(alg), values):
            worst = max(worst, abs(F(PairPoint(x, x)) - math.comb(i + 1, k) * trace_function(alg, i)(x)))
    assert same(toda.check_binomial_identity(alg).measured, worst)


def test_toda_suite_matches_the_point_loop(alg):
    ts = toda.toda_space(alg)
    points = ts.sample_points(42, 20)
    reports = toda.toda_suite(alg)
    coords = [linear_function(Element(alg, g[0]))
              for g in _gradient_blocks(alg, np.eye(alg.dim)[:, None])]
    assert same(measured(reports, "toda-submanifold"),
                max(float(ts.normal_residuals(hamiltonian_field(z, x).vec()))
                    for x in points[:5] for z in coords))
    p1 = trace_function(alg, 1)
    # a point of 𝔤 is measured in the Euclidean norm of its row, a pair in the max abs
    assert same(measured(reports, "toda-lax-form"), max(
        np.linalg.norm(hamiltonian_field(p1, x).coords - flow_at("t", x).coords) for x in points))
    gens = [trace_function(alg, i) for i in alg.exponents]
    assert same(measured(reports, "toda-involutivity"), max(
        float(np.abs(table_at(x, [P.gradient(x) for P in gens], "linear")).max())
        for x in points))
    assert measured(reports, "toda-independence") == max(
        int(ts.jacobian_ranks(np.stack([P.gradient(x).vec() for P in gens]))) for x in points)
    worst = max(np.abs(flow_at("t", PairPoint(x, x)).vec()
                       - np.tile(hamiltonian_field(p1, x).coords, 2)).max()
                for x in points)
    assert same(measured(reports, "toda-diagonal-consistency"), worst)


def test_phase_spaces_are_built_once_per_spec_and_read_only(sl3, gl3):
    for alg in (sl3, gl3):
        for build in (phase_tp, toda.toda_space, toda.diag_phase_space):
            ps = build(alg)
            assert build(alg) is ps
            for name in ("tangent_matrix", "_pinv", "duals", "coord_gradients",
                         "normal_gradients"):
                A = getattr(ps, name)
                assert getattr(ps, name) is A and not A.flags.writeable
                with pytest.raises(ValueError):
                    A[0, 0] = 1.0
    assert phase_tp(sl3) is not phase_tp(gl3)
