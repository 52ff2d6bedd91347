"""Lax flows: closed-form fields, RK4 integration, conservation, CSV export."""

import numpy as np
import pytest

from toda2 import (
    FlowConfig,
    PairPoint,
    PreconditionError,
    bracket,
    expand_pencil,
    family,
    field_linear_pencil,
    field_quadratic,
    field_s,
    field_t,
    flow_commutation,
    integrate,
    pencil_eigenvalue_drift,
    phase_tp,
    project,
    trajectory_to_csv,
)


def seed_point(alg, seed=42):
    return phase_tp(alg).sample_points(seed=seed, count=1)[0]


# ---------------------------------------------------------------------------
# the two defining fields
# ---------------------------------------------------------------------------

def test_field_t_is_projected_lax_bracket(sl3):
    m = seed_point(sl3)
    xp = project(m.x, ">=0")
    want = PairPoint(bracket(xp, m.x), bracket(xp, m.y))
    assert (field_t(m) - want).norm() < 1e-13


def test_field_s_is_projected_lax_bracket(sl3):
    m = seed_point(sl3)
    yn = project(m.y, "<0")
    want = PairPoint(bracket(yn, m.x), bracket(yn, m.y))
    assert (field_s(m) - want).norm() < 1e-13


def test_fields_are_tangent_to_phase_space(sl3, gl3):
    for alg in (sl3, gl3):
        ps = phase_tp(alg)
        for m in ps.sample_points(seed=3, count=4):
            for f in (field_t, field_s):
                v = f(m)
                shifted = PairPoint(m.x + v.x, m.y + v.y)
                assert ps.membership_residual(shifted) < 1e-12


def test_pencil_fields_exist_and_are_tangent(gl2):
    ps = phase_tp(gl2)
    m = ps.sample_points(seed=4, count=1)[0]
    for field in (
        lambda m: field_quadratic(1, 0.0, m),
        lambda m: field_linear_pencil(1, 2.0, m),
    ):
        v = field(m)
        shifted = PairPoint(m.x + v.x, m.y + v.y)
        assert ps.membership_residual(shifted) < 1e-11


# ---------------------------------------------------------------------------
# integration quality
# ---------------------------------------------------------------------------

def test_conservation_and_tangency(sl3):
    traj = integrate(FlowConfig(field="t", dt=1e-3, T=0.5), seed_point(sl3))
    assert not traj.truncated
    assert traj.conservation_drift().max() < 1e-8
    assert traj.tangency_drift(phase_tp(sl3)) < 1e-9
    assert traj.conserved_names == tuple(f.name for f in family(sl3))


def test_isospectral_pencil_eigenvalues(sl3):
    traj = integrate(FlowConfig(field="s", dt=1e-3, T=0.5), seed_point(sl3))
    for lam0 in (0.0, 1.0, 2.0):
        assert pencil_eigenvalue_drift(traj, lam0) < 1e-8


def test_rk4_order_via_step_halving(sl3):
    m0 = seed_point(sl3)
    ref = integrate(FlowConfig(field="t", dt=0.005, T=2.0), m0).points[-1]

    def err(dt):
        end = integrate(FlowConfig(field="t", dt=dt, T=2.0), m0).points[-1]
        return (end - ref).norm()

    ratio = err(0.04) / err(0.02)
    assert ratio > 8.0  # a 4th-order scheme gives ≈ 16; >8 rules out 3rd


def test_flows_commute(sl3, gl2):
    for alg in (sl3, gl2):
        defect = flow_commutation(seed_point(alg), dt=1e-3, n_steps=50)
        assert defect < 1e-6


def test_quadratic_flow_conserves_family(gl2):
    traj = integrate(
        FlowConfig(field="quadratic", i=1, lam=0.0, dt=1e-3, T=0.3),
        seed_point(gl2),
    )
    assert traj.conservation_drift().max() < 1e-8


def test_horizon_must_be_whole_number_of_steps():
    with pytest.raises(PreconditionError):
        FlowConfig(dt=0.3, T=1.0)
    for dt, T in ((1e-3, 0.2), (1e-3, 1.0), (0.005, 2.0), (0.04, 2.0), (0.02, 2.0),
                  (0.05, 3.0), (1e-3, 1e-3 * 100)):
        assert FlowConfig(dt=dt, T=T).n_steps == round(T / dt)


def test_explicit_empty_conserved_list(sl2):
    traj = integrate(FlowConfig(dt=0.01, T=0.1), seed_point(sl2), conserved=[])
    assert traj.conserved.shape == (11, 0) and traj.conserved_names == ()


def test_blowup_is_truncated_with_note(gl2):
    ps = phase_tp(gl2)
    big = ps.point_from_coords(40.0 * np.ones(ps.dim))
    traj = integrate(FlowConfig(field="quadratic", i=1, lam=0.0, dt=0.05, T=3.0), big)
    assert traj.truncated
    assert "non-finite" in traj.note and "truncated" in traj.note
    assert len(traj.times) == len(traj.states)
    assert np.all(np.isfinite(traj.states))


# ---------------------------------------------------------------------------
# configuration errors
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(PreconditionError):
        FlowConfig(dt=-1.0)
    with pytest.raises(PreconditionError):
        FlowConfig(dt=0.5, T=0.1)
    with pytest.raises(PreconditionError):
        FlowConfig(integrator="euler")


def test_field_selector_validation(gl2):
    m0 = seed_point(gl2)
    with pytest.raises(PreconditionError):
        integrate(FlowConfig(field="warp", dt=0.1, T=0.2), m0)
    with pytest.raises(PreconditionError):
        integrate(FlowConfig(field="quadratic", dt=0.1, T=0.2), m0)  # no i, λ


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_csv_layout_and_roundtrip(tmp_path, sl2):
    traj = integrate(FlowConfig(field="t", dt=0.01, T=0.1), seed_point(sl2))
    p = tmp_path / "run.csv"
    trajectory_to_csv(traj, p)
    lines = p.read_text().splitlines()
    header = lines[0].split(", ")
    assert header[0] == "t"
    assert header[1:4] == ["x_1", "x_2", "x_3"]
    assert header[4:7] == ["y_1", "y_2", "y_3"]
    assert header[7:] == list(traj.conserved_names)
    assert len(lines) == len(traj.times) + 1
    # values round-trip through the text at full precision
    row = np.array([float(v) for v in lines[-1].split(", ")])
    assert row[0] == traj.times[-1]
    assert np.array_equal(row[1:7], traj.states[-1])
    assert np.array_equal(row[7:], traj.conserved[-1])
