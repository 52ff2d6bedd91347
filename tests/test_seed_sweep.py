"""No false FAIL at any seed: the reports of `toda2 flow run` for the t- and
s-flows and of `toda2 flow commutation` at the seeds 1–20, on the so5
document and on sl3, gl3 and sl4.

Every report passes, or the run stopped at a pole that its note names, and
then its five drift reports, none measured over the horizon, fail with the
note for their detail.
The poles found are pinned, so that a pole that appears or goes away shows
here.  No seed is left out.
"""

import dataclasses
import math

import numpy as np
import pytest

from toda2 import FlowConfig, integrate, phase_tp
from toda2.checks import flow_commutation_reports, flow_run_reports
from toda2.flows import factor_states

SEEDS = range(1, 21)
# the runs that stop at a pole before T = 1, by (algebra, field)
POLES = {("sl4", "t"): [12, 16]}


@pytest.mark.parametrize("field", ["t", "s"])
@pytest.mark.parametrize("name", ["so5", "sl3", "gl3", "sl4"])
def test_flow_run_passes_at_every_seed_or_stops_at_a_pole(name, field, request):
    ps, cfg = phase_tp(request.getfixturevalue(name)), FlowConfig(field=field)
    poles = []
    for seed in SEEDS:     # at the dt and T that `flow run` defaults to
        traj = integrate(cfg, ps.sample_points(seed, 1)[0])
        reports = flow_run_reports(ps, cfg, traj, seed)
        failed = [r for r in reports if not r.verdict]
        if traj.note:
            assert traj.note.startswith("pole between"), (seed, traj.note)
            assert failed == reports and len(failed) == 5, (seed, failed)
            assert all(r.detail == traj.note and math.isnan(r.measured) for r in failed)
            poles.append(seed)
        else:
            assert failed == [], (seed, [r.check for r in failed])
    assert poles == POLES.get((name, field), [])


@pytest.mark.parametrize("field", ["t", "s"])
def test_a_pencil_moved_off_its_orbit_still_fails(field, so5):
    # the last state scaled by 1 + 1e-6 moves each eigenvalue μ of λ₀L − M by
    # 1e-6·|μ|: the isospectral reports read that move at its full size, the
    # spectral radius ρ at t = 0 times 1e-6, and FAIL where it reaches 1e-6
    ps, cfg = phase_tp(so5), FlowConfig(field=field)
    failed = 0
    for seed in SEEDS[:5]:
        traj = integrate(cfg, ps.sample_points(seed, 1)[0])
        states = traj.states.copy()
        states[-1] *= 1.0 + 1e-6
        moved = dataclasses.replace(traj, states=states)
        L, M = so5.to_matrices(traj.states[0])
        for r in flow_run_reports(ps, cfg, moved, seed)[2:]:
            rho = np.abs(np.linalg.eigvals(r.params["lambda0"] * L - M)).max()
            assert r.measured == pytest.approx(1e-6 * rho, abs=1e-13), (seed, r.check)
            assert r.verdict == (1e-6 * rho < 1e-6)
            failed += not r.verdict
    assert failed > 0


def commutation_defect(m0, dt, steps, longer):
    """‖Φ_t∘Φ_s − Φ_s∘Φ_t‖∞ from m0 by four exact legs of `steps` steps dt,
    the last leg of the second order `longer` steps more."""
    alg = m0.alg

    def leg(field, V, n):
        states, note, _ = factor_states(alg, field, V, dt, n)
        assert note == "", note
        return states[-1]

    V0 = alg.to_matrices(m0.vec())
    st = leg("t", leg("s", V0, steps), steps)
    ts = leg("s", leg("t", V0, steps), steps + longer)
    return np.abs(alg.to_coords(st) - alg.to_coords(ts)).max()


@pytest.mark.parametrize("name", ["so5", "sl3", "gl3", "sl4"])
def test_flow_commutation_passes_at_every_seed(name, request):
    # at the dt and step count that `flow commutation` defaults to; the
    # negative control runs the same legs with the second order one step
    # longer, a defect of about dt·‖[Π₋M, ·]‖ that must FAIL
    ps = phase_tp(request.getfixturevalue(name))
    for seed in SEEDS:
        m0 = ps.sample_points(seed, 1)[0]
        (report,) = flow_commutation_reports(m0, 1e-3, 100, seed)
        assert report.verdict, (seed, report.measured)
        assert commutation_defect(m0, 1e-3, 100, 0) == report.measured
        assert commutation_defect(m0, 1e-3, 100, 1) >= 1e-6, seed
