"""Classical Toda reduction: diagonal embedding, R-bracket isomorphism,
binomial collapse of the conserved family."""

import json
import math

import numpy as np
import pytest

from toda2 import (
    Element,
    PairPoint,
    PhaseSpace,
    PreconditionError,
    ScalarFunction,
    build_sl,
    check_binomial_identity,
    check_poisson_iso,
    family_labels,
    family_values,
    phase_tp,
    toda_space,
    toda_suite,
)
from toda2 import toda
from toda2.cli import main
from toda2.flows import field_rows
from toda2.invariants import trace_gradients, trace_values

from pointwise import bracket, form, gradient2, project, toda_run, trace_function


def test_toda_space_dimensions(desk_algebras):
    for alg in desk_algebras.values():
        ts = toda_space(alg)
        if alg.associative:
            assert ts.dim == 2 * alg.matrix_size - 1
        else:
            assert ts.dim == 2 * (alg.matrix_size - 1)
        for x in ts.sample_points(seed=0, count=3):
            assert ts.membership_residuals(x.vec()) < 1e-12
            # superdiagonal stays pinned at the unit Jacobi shape
            assert np.allclose(np.diag(alg.to_matrices(x.coords)[0], 1), 1.0)


def test_toda_space_is_a_phase_space_of_elements(sl3, gl3):
    # dual coordinates pair to δ_ab with the tangent basis under ⟨·,·⟩, and
    # the normal covectors annihilate it
    for alg in (sl3, gl3):
        ts = toda_space(alg)
        assert isinstance(ts, PhaseSpace) and ts.alg is alg
        x = ts.sample_points(seed=0, count=1)[0]
        tangent = [Element(alg, t) for t in ts.tangent_matrix.T]
        G = np.array([[form(Element(alg, g), t) for t in tangent] for g in ts.coord_gradients])
        assert np.allclose(G, np.eye(ts.dim), atol=1e-13)
        u = ts.duals.T @ (x.vec() - ts.base)   # coordinates of x
        assert np.allclose(u, [z(x) for z in ts.coords], atol=1e-13)
        for nv in ts.normal_covectors:
            assert max(abs(form(nv, t)) for t in tangent) < 1e-13


def test_element_gradient2_fd_matches_analytic(sl3, gl3):
    # the finite-difference path of gradient2 on single-algebra points
    for alg in (sl3, gl3):
        x = toda_space(alg).sample_points(seed=6, count=1)[0]
        for i in alg.exponents:
            P = trace_function(alg, i)
            fd = gradient2(ScalarFunction("fd-only", P.evaluator), x)
            assert np.linalg.norm(fd.coords - trace_gradients(alg, x.coords, i)) < 1e-8, (alg.name, i)


def test_building_toda_space_leaves_the_spec_rows_writeable():
    # T_T's base is read-only, as every phase-space base is; it is a copy of
    # e_coords, so building T_T does not freeze the spec's own row
    alg = build_sl(3)
    assert alg.e_coords.flags.writeable
    ts = toda_space(alg)
    assert alg.e_coords.flags.writeable and alg.h_coords.flags.writeable
    assert not ts.base.flags.writeable
    assert np.array_equal(ts.base, alg.e_coords)


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
            v = field_rows(alg, "t", x.coords)
            assert np.linalg.norm(v - bracket(project(x, True), x).coords) < 1e-13
            # tangent: the flow stays on the Jacobi stratum
            assert ts.membership_residuals(x.coords + v) < 1e-12


def test_toda_flow_is_isospectral(sl3):
    ts = toda_space(sl3)
    x0 = ts.sample_stack(seed=3, count=1)[0]
    states, note = toda_run(sl3, x0, dt=1e-3, T=0.5)
    assert states.shape == (501, sl3.dim) and note == ""
    lam0 = np.sort(np.linalg.eigvals(sl3.to_matrices(states[0])[0]).real)
    lamT = np.sort(np.linalg.eigvals(sl3.to_matrices(states[-1])[0]).real)
    assert np.abs(lam0 - lamT).max() < 1e-8


def test_toda_horizon_must_be_whole_number_of_steps(sl3):
    x0 = toda_space(sl3).sample_stack(seed=3, count=1)[0]
    with pytest.raises(PreconditionError, match="whole number of steps"):
        toda_run(sl3, x0, dt=0.3, T=1.0)
    states, note = toda_run(sl3, x0, dt=0.25, T=1.0)
    assert states.shape == (5, sl3.dim) and note == ""


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
        states, _ = toda_run(alg, ts.points_from_coords(u0))
        worst = 0.0
        for i in alg.exponents:
            P = trace_function(alg, i)
            vals = np.array([P(Element(alg, v)) for v in states])
            worst = max(worst, np.abs(vals - vals[0]).max() / (1.0 + abs(vals[0])))
        assert abs(report.measured - worst) < 1e-14


def test_a_toda_run_through_a_pole_fails_closed(sl3, capsys):
    # from the seed-126 start the Toda run, the exact one-block t-flow, has a
    # pole between t = 0.882 and 0.883: the run stops before it, and the
    # conservation check fails on it and names the pole
    ts = toda_space(sl3)
    x0 = ts.points_from_coords(np.random.default_rng(126).uniform(-1.0, 1.0, ts.dim))
    states, note = toda_run(sl3, x0)
    assert note == ("pole between t = 0.882 and t = 0.883 (steps 882 and 883); "
                    "trajectory truncated")
    assert len(states) == 883 and np.isfinite(states).all()
    code = main(["check", "toda", "--algebra", "sl3", "--seed=126", "--format", "json"])
    out, err = capsys.readouterr()
    report = next(r for r in json.loads(out)["reports"] if r["check"] == "toda-conservation")
    assert code == 1 and err == ""      # no RuntimeWarning escapes
    assert report["measured"] is None and not report["verdict"] and report["detail"] == note


@pytest.mark.parametrize("name, seed", [("sl4", 92), ("sl5", 53), ("sl6", 12)])
def test_toda_conservation_holds_through_large_excursions(name, seed, capsys):
    # from these starts the entries of A grow to 9e2–8e4 within T = 1; an
    # RK4 run at dt 1e-3 drifts past the 1e-6 tolerance there (sl6 seed 12:
    # 5.8e-5), while the exact run conserves the P_i to roundoff
    code = main(["check", "toda", "--algebra", name, f"--seed={seed}", "--format", "json"])
    out, err = capsys.readouterr()
    report = next(r for r in json.loads(out)["reports"] if r["check"] == "toda-conservation")
    assert code == 0 and err == "" and report["detail"] == ""
    assert report["measured"] < 1e-9


def test_toda_suite_passes(sl2, sl3):
    for alg in (sl2, sl3):
        reports = toda_suite(alg)
        assert len(reports) == 6
        assert all(r.verdict for r in reports), [r.line() for r in reports]


def test_diagonal_consistency_fails_a_linear_field_off_by_one_part_in_a_million(sl3,
                                                                                monkeypatch):
    # a negative control: the t-flow on the diagonal is compared with the
    # bracket field of P₁, so a linear field off by a factor 1 + 1e-6 fails it
    field = toda.linear_field
    monkeypatch.setattr(toda, "linear_field", lambda alg, m, g: field(alg, m, g) * (1.0 + 1e-6))
    report = next(r for r in toda_suite(sl3) if r.check == "toda-diagonal-consistency")
    assert not report.verdict and report.measured > 1e-7


def test_diagonal_membership_agreement(sl3):
    # x sits on T_T  ⇔  (x, x) sits on T_P with equal components
    ts, ps = toda_space(sl3), phase_tp(sl3)
    rng = np.random.default_rng(5)
    for k in range(40):
        if k % 2 == 0:
            x = ts.sample_points(seed=k, count=1)[0]
        else:
            x = Element(sl3, rng.uniform(-1, 1, sl3.dim))
        m = PairPoint(x, x)
        in_tt = ts.membership_residuals(x.vec()) < 1e-10
        in_tp = ps.membership_residuals(m.vec()) < 1e-10
        assert in_tt == in_tp
