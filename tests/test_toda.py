"""Classical Toda reduction: diagonal embedding, R-bracket isomorphism,
binomial collapse of the conserved family."""

import math

import numpy as np
import pytest

from toda2 import (
    Element,
    PairPoint,
    PhaseSpace,
    PreconditionError,
    ScalarFunction,
    bracket,
    check_binomial_identity,
    check_poisson_iso,
    family_labels,
    family_values,
    form,
    integrate_toda,
    phase_tp,
    project,
    toda_space,
    toda_suite,
)
from toda2.flows import field_rows
from toda2.invariants import trace_values

from pointwise import gradient2, trace_function


def test_toda_space_dimensions(desk_algebras):
    for alg in desk_algebras.values():
        ts = toda_space(alg)
        if alg.associative:
            assert ts.dim == 2 * alg.n - 1
        else:
            assert ts.dim == 2 * (alg.n - 1)
        for x in ts.sample_points(seed=0, count=3):
            assert ts.membership_residuals(x.vec()) < 1e-12
            # superdiagonal stays pinned at the unit Jacobi shape
            assert np.allclose(np.diag(x.matrix(), 1), 1.0)


def test_toda_space_is_a_phase_space_of_elements(sl3, gl3):
    # dual coordinates pair to δ_ab with the tangent basis under ⟨·,·⟩, and
    # the normal covectors annihilate it
    for alg in (sl3, gl3):
        ts = toda_space(alg)
        assert isinstance(ts, PhaseSpace) and ts.alg is alg
        x = ts.sample_points(seed=0, count=1)[0]
        G = np.array([[form(z.gradient(x), t) for t in ts.tangent] for z in ts.coords])
        assert np.allclose(G, np.eye(ts.dim), atol=1e-13)
        u = ts.duals.T @ (x.vec() - ts.base.vec())   # coordinates of x
        assert np.allclose(u, [z(x) for z in ts.coords], atol=1e-13)
        for nv in ts.normal_covectors:
            assert max(abs(form(nv, t)) for t in ts.tangent) < 1e-13


def test_element_gradient2_fd_matches_analytic(sl3, gl3):
    # the finite-difference path of gradient2 on single-algebra points
    for alg in (sl3, gl3):
        x = toda_space(alg).sample_points(seed=6, count=1)[0]
        for i in alg.exponents:
            P = trace_function(alg, i)
            fd = gradient2(ScalarFunction("fd-only", P.evaluator), x)
            assert (fd - P.gradient(x)).norm() < 1e-8, (alg.name, i)


def test_embed_phi_doubles_the_point(sl3):
    # φ(x) = (x, x) of a Toda point lies on T_P
    x = toda_space(sl3).sample_stack(seed=1, count=1)
    assert phase_tp(sl3).membership_residuals(np.concatenate([x, x], axis=1)) < 1e-12


def test_embed_phi_rejects_off_space(sl3):
    ts = toda_space(sl3)
    x = ts.sample_stack(seed=1, count=1)
    a = int(np.where(sl3.degrees == -2)[0][0])
    with pytest.raises(PreconditionError):
        ts.require_members(x + np.eye(sl3.dim)[a])


def test_field_toda_is_lax_bracket(sl3, gl3, so5):
    for alg in (sl3, gl3, so5):
        ts = toda_space(alg)
        for x in ts.sample_points(seed=2, count=3):
            v = Element(alg, field_rows(alg, "t", x.coords))
            assert (v - bracket(project(x, ">=0"), x)).norm() < 1e-13
            # tangent: the flow stays on the Jacobi stratum
            assert ts.membership_residuals((x + v).vec()) < 1e-12


def test_toda_flow_is_isospectral(sl3):
    ts = toda_space(sl3)
    x0 = ts.sample_points(seed=3, count=1)[0]
    times, states = integrate_toda(x0, dt=1e-3, T=0.5)
    assert times.shape[0] == states.shape[0]
    lam0 = np.sort(np.linalg.eigvals(sl3.to_matrix(states[0])).real)
    lamT = np.sort(np.linalg.eigvals(sl3.to_matrix(states[-1])).real)
    assert np.abs(lam0 - lamT).max() < 1e-8


def test_toda_horizon_must_be_whole_number_of_steps(sl3):
    x0 = toda_space(sl3).sample_points(seed=3, count=1)[0]
    with pytest.raises(PreconditionError, match="whole number of steps"):
        integrate_toda(x0, dt=0.3, T=1.0)
    times, states = integrate_toda(x0, dt=0.25, T=1.0)
    assert times[-1] == 1.0 and states.shape == (5, sl3.dim)


def test_poisson_iso_check(sl2, sl3, gl2):
    for alg in (sl2, sl3, gl2):
        r = check_poisson_iso(alg, samples=50)
        assert r.verdict, r.line()


def test_binomial_identity_explicit(sl3):
    # F_{k,i}(φ(x)) = C(m_i+1, k)·(−... the collapse leaves binomial weights
    ts = toda_space(sl3)
    labels = family_labels(sl3)
    for x in ts.sample_stack(seed=4, count=5):
        values = family_values(sl3, np.concatenate([x, x])[None])[0]   # at φ(x) = (x, x)
        for i in sl3.exponents:
            Pi = float(trace_values(sl3, x, i))
            for k in range(i + 2):
                want = math.comb(i + 1, k) * Pi
                assert values[labels.index((k, i))] == pytest.approx(want, abs=1e-10)


def test_binomial_identity_check(desk_algebras):
    for alg in desk_algebras.values():
        r = check_binomial_identity(alg, samples=10)
        assert r.verdict, r.line()


def test_toda_conservation_batch_matches_per_state_loop(sl3, gl3):
    for alg in (sl3, gl3):
        report = next(r for r in toda_suite(alg) if r.check == "toda-conservation")
        ts = toda_space(alg)
        u0 = np.random.default_rng(42).uniform(-1.0, 1.0, ts.dim)
        x0 = Element(alg, ts.points_from_coords(u0))
        _, states = integrate_toda(x0, dt=1e-3, T=1.0)
        worst = 0.0
        for i in alg.exponents:
            P = trace_function(alg, i)
            vals = np.array([P(alg.element(v)) for v in states])
            worst = max(worst, np.abs(vals - vals[0]).max() / (1.0 + abs(vals[0])))
        assert abs(report.measured - worst) < 1e-14


def test_toda_suite_passes(sl2, sl3):
    for alg in (sl2, sl3):
        reports = toda_suite(alg)
        assert len(reports) == 6
        assert all(r.verdict for r in reports), [r.line() for r in reports]


def test_diagonal_membership_agreement(sl3):
    # x sits on T_T  ⇔  (x, x) sits on T_P with equal components
    ts, ps = toda_space(sl3), phase_tp(sl3)
    rng = np.random.default_rng(5)
    for k in range(40):
        if k % 2 == 0:
            x = ts.sample_points(seed=k, count=1)[0]
        else:
            x = sl3.element(rng.uniform(-1, 1, sl3.dim))
        m = PairPoint(x, x)
        in_tt = ts.membership_residuals(x.vec()) < 1e-10
        in_tp = ps.membership_residuals(m.vec()) < 1e-10
        assert in_tt == in_tp
