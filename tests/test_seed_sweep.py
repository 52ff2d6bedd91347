"""No false FAIL at any seed: the reports of `toda2 flow run` for the t- and
s-flows, of `toda2 flow commutation` and of `toda2 check all` at the seeds
1–20 (1–30 for `check all`, seeds past 3 behind the `sweep` marker), on the
so5 document and on sl3, gl3 and sl4; and `flow commutation` against the
defect of whole runs on sl2 and gl2 at steps long enough to stop its legs.

Every report passes, or the run stopped at a pole that its note names, and
then its five drift reports, none measured over the horizon, fail with the
note for their detail.
The poles found are pinned, so that a pole that appears or goes away shows
here.  No seed is left out.  Negative controls show that each sweep can
fail: a pencil moved off its orbit, a family member moved by a term that is
not conserved, and commutation legs of unequal length.
"""

import dataclasses
import math

import numpy as np
import pytest

from toda2 import FlowConfig, flow_commutation, integrate, phase_tp
from toda2.checks import flow_commutation_reports, flow_run_reports, run_battery
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


@pytest.mark.parametrize("name", ["so5", "sl3", "gl3", "sl4"])
def test_a_family_member_moved_off_its_value_fails_at_every_seed(name, request):
    # one member, cycling with the seed, plus 1e-6·(1 + |F(0)|)·u, u a
    # coordinate that the flow moves, scaled so that its change has mean
    # size 1 over the run: the drift reads the change's largest size, above
    # its mean, and FAILs at the 1e-6 tolerance
    ps, cfg = phase_tp(request.getfixturevalue(name)), FlowConfig(field="t")
    moved = 0
    for seed in SEEDS:
        traj = integrate(cfg, ps.sample_points(seed, 1)[0])
        if traj.note:
            continue         # a stopped run FAILs its drift reports anyway
        j = seed % len(traj.conserved_names)
        change = traj.states - traj.states[0]
        u = change[:, np.abs(change).max(axis=0).argmax()]
        values = traj.conserved.copy()
        values[:, j] += 1e-6 * (1.0 + abs(values[0, j])) * u / np.abs(u).mean()
        (report, *_) = flow_run_reports(ps, cfg, dataclasses.replace(traj, conserved=values),
                                        seed)
        assert report.check == "flow-conservation" and not report.verdict, (seed, j)
        assert report.measured >= 1e-6 * np.abs(u).max() / np.abs(u).mean() * (1 - 1e-6)
        moved += 1
    assert moved == len(SEEDS) - len(POLES.get((name, "t"), []))


def reference_defect(m0, dt, steps, longer=0):
    """‖Φ_t∘Φ_s − Φ_s∘Φ_t‖∞ from m0 by four exact legs of `steps` steps dt,
    each the last state of a whole `factor_states` run, the last leg of the
    second order `longer` steps more; infinite where a leg stops early."""
    alg = m0.alg

    def leg(field, V, n):
        states, note, _ = factor_states(alg, field, V, dt, n)
        return None if note else states[-1]

    V0 = alg.to_matrices(m0.vec())
    ends = []
    for (first, second), extra in (("st", 0), ("ts", longer)):    # Φ_t∘Φ_s, Φ_s∘Φ_t
        V = leg(first, V0, steps)
        V = None if V is None else leg(second, V, steps + extra)
        if V is None:
            return math.inf
        ends.append(alg.to_coords(V))
    return float(np.abs(ends[0] - ends[1]).max())


@pytest.mark.parametrize("name", ["so5", "sl3", "gl3", "sl4"])
def test_flow_commutation_passes_at_every_seed(name, request):
    # at the dt and step count that `flow commutation` defaults to, the
    # defect of the legs that conjugate only their ends is the one of whole
    # runs, bit for bit; the negative control runs the same legs with the
    # second order one step longer, a defect of about dt·‖[Π₋M, ·]‖ that
    # must FAIL
    ps = phase_tp(request.getfixturevalue(name))
    for seed in SEEDS:
        m0 = ps.sample_points(seed, 1)[0]
        (report,) = flow_commutation_reports(m0, 1e-3, 100, seed)
        assert report.verdict, (seed, report.measured)
        assert reference_defect(m0, 1e-3, 100) == report.measured
        assert reference_defect(m0, 1e-3, 100, longer=1) >= 1e-6, seed


# at dt 100 a leg that runs its whole pole grid makes up to MAX_STEPS
# factorizations: tier-1 takes seeds whose first leg stops at a pole at once
# (sl2 seed 1, gl2 seed 7) or whose t-leg reaches a non-finite state after
# ten s-steps (seed 5), and the sweep every seed from 1 to 5
LONG_STEP_SEEDS = {("sl2", 10): (1, 5), ("sl2", 100): (1,),
                   ("gl2", 10): (5, 7), ("gl2", 100): (7,)}


@pytest.mark.parametrize("steps", [10, 100])
@pytest.mark.parametrize("dt", [0.1, 1.0, 100.0])
@pytest.mark.parametrize("name", ["sl2", "gl2"])
def test_flow_commutation_is_the_defect_of_whole_runs(name, dt, steps, request):
    # steps long enough to meet poles, factorizations that are not exact,
    # non-finite states and, at dt 100, a pole grid that runs out: the
    # defect is infinite exactly where a whole run of some leg stops, and
    # bit for bit the whole runs' defect elsewhere
    ps = phase_tp(request.getfixturevalue(name))
    for seed in LONG_STEP_SEEDS[name, steps] if dt == 100.0 else range(1, 6):
        m0 = ps.sample_points(seed, 1)[0]
        assert flow_commutation(m0, dt=dt, n_steps=steps) == reference_defect(m0, dt, steps), seed


@pytest.mark.sweep
@pytest.mark.parametrize("steps", [10, 100])
@pytest.mark.parametrize("name", ["sl2", "gl2"])
def test_flow_commutation_is_the_defect_of_whole_runs_at_long_steps(name, steps, request):
    ps = phase_tp(request.getfixturevalue(name))
    for seed in range(1, 6):
        m0 = ps.sample_points(seed, 1)[0]
        assert flow_commutation(m0, dt=100.0, n_steps=steps) == reference_defect(m0, 100.0, steps)


@pytest.mark.parametrize("seed", [
    pytest.param(seed, marks=() if seed <= 3 else pytest.mark.sweep) for seed in range(1, 31)])
def test_check_all_passes_at_every_seed(seed, so5, sl3, gl3, sl4):
    # every battery of `toda2 check all` at its default sample count
    for alg in (so5, sl3, gl3, sl4):
        failed = [(r.check, r.measured) for r in run_battery("all", alg, samples=20, seed=seed)
                  if not r.verdict]
        assert failed == [], (alg.name, failed)
