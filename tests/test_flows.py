"""Lax flows: closed-form fields, entry masks, the exact factorization path, RK4, conservation, CSV export."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from toda2 import (
    CapabilityError,
    Element,
    FlowConfig,
    PairPoint,
    PreconditionError,
    algebra,
    build_gl,
    build_sl,
    family,
    flow_commutation,
    integrate,
    load_spec,
    pencil_eigenvalue_drift,
    phase_tp,
    save_spec,
    spec_to_document,
    trajectory_to_csv,
    validate_spec,
)
from toda2.cli import main
from toda2 import cli, flows
from toda2.flows import (_expm, _partner, _triangular_order, entry_masks,
                         factor_states, field_rows, rk4_states)
from toda2.poisson import toda_space
from toda2.rmatrix import r_block

from pointwise import (bracket, flow_at, lax_field, project, projector_partner, rk4_reference,
                       sequential_commutation, toda_run)


def seed_point(alg, seed=42):
    return phase_tp(alg).sample_points(seed=seed, count=1)[0]


# ---------------------------------------------------------------------------
# the two defining fields
# ---------------------------------------------------------------------------

# the fields run one matrix commutator; the structure-constant brackets of
# the coordinates are an independent path

def test_field_t_is_projected_lax_bracket(sl3, gl3, so5):
    for alg in (sl3, gl3, so5):
        for m in phase_tp(alg).sample_points(seed=42, count=3):
            xp = project(m.x, True)
            want = PairPoint(bracket(xp, m.x), bracket(xp, m.y))
            assert np.abs(flow_at("t", m).vec() - want.vec()).max() < 1e-13


def test_field_s_is_projected_lax_bracket(sl3, gl3, so5):
    for alg in (sl3, gl3, so5):
        for m in phase_tp(alg).sample_points(seed=42, count=3):
            yn = project(m.y, False)
            want = PairPoint(bracket(yn, m.x), bracket(yn, m.y))
            assert np.abs(flow_at("s", m).vec() - want.vec()).max() < 1e-13


def test_fields_are_tangent_to_phase_space(sl3, gl3):
    for alg in (sl3, gl3):
        ps = phase_tp(alg)
        V = ps.sample_stack(seed=3, count=4)
        for f in ("t", "s"):
            assert ps.membership_residuals(V + field_rows(alg, f, V)).max() < 1e-12


def test_pencil_fields_exist_and_are_tangent(gl2):
    ps = phase_tp(gl2)
    V = ps.sample_stack(seed=4, count=1)
    for field, lam in (("quadratic", 0.0), ("linear", 2.0)):
        v = field_rows(gl2, field, V, i=1, lam=lam)
        assert ps.membership_residuals(V + v).max() < 1e-11


# the coordinate-side closed forms the pencil fields had before they became
# matrix commutators, kept as the reference: the power of λx − y is taken in
# the basis matrices, its coordinates by least squares and ĝ by a Gram solve,
# and the bracket is the structure-tensor one; each gives the field's row


def _pencil_power(m, lam, power):
    alg = m.alg
    X, Y = (np.einsum("a,aij->ij", v.coords, alg.basis) for v in (m.x, m.y))
    return np.linalg.matrix_power(lam * X - Y, power)


def pair_bracket(p, q):
    return PairPoint(bracket(p.x, q.x), bracket(p.y, q.y))


def quadratic_oracle(i, lam, m):
    alg = m.alg
    W = _pencil_power(m, lam, i + 1)
    w = np.linalg.lstsq(alg.basis.reshape(alg.dim, -1).T, W.ravel(), rcond=None)[0]
    Rw = r_block(alg, w)
    return -pair_bracket(m, PairPoint(Element(alg, Rw - w), Element(alg, Rw + w))).vec()


def linear_pencil_oracle(i, lam, m):
    alg = m.alg
    W = _pencil_power(m, lam, i)
    p = np.linalg.solve(alg.gram, np.einsum("ij,aji->a", W, alg.basis))
    Rp = r_block(alg, p)
    u, v = Element(alg, Rp - p), Element(alg, Rp + p)
    return 0.5 * (lam - 1.0) * pair_bracket(PairPoint(u, v), m).vec()


@pytest.mark.parametrize("name", ["sl3", "gl3", "so5"])
def test_pencil_fields_match_coordinate_closed_forms(name, request):
    alg = request.getfixturevalue(name)
    for m in phase_tp(alg).sample_points(seed=8, count=2):
        for i in alg.exponents:
            for lam in (0.0, 0.5, -1.0):
                X = flow_at("linear", m, i, lam).vec()
                assert np.abs(X - linear_pencil_oracle(i, lam, m)).max() < 1e-13
                if alg.associative:
                    X = flow_at("quadratic", m, i, lam).vec()
                    assert np.abs(X - quadratic_oracle(i, lam, m)).max() < 1e-13


def test_quadratic_field_needs_associative_algebra(sl3, so5):
    for alg in (sl3, so5):
        m = seed_point(alg)
        with pytest.raises(CapabilityError, match="associative"):
            flow_at("quadratic", m, i=1, lam=0.0)
        with pytest.raises(CapabilityError, match="associative"):
            integrate(FlowConfig(field="quadratic", i=1, lam=0.0, dt=0.1, T=0.2), m)


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


def test_batched_eigenvalue_drift_matches_row_loop(sl3, gl3, so5):
    # the row loop takes the best matching of each sample's eigenvalues to
    # those at t = 0, over every permutation, whatever order LAPACK returns
    # them in: on so5 at seed 1, sorted spectra set 0 against ±0.511i and
    # read 1.02 at λ₀ = 0
    for alg, (seed, T) in itertools.product((sl3, gl3, so5), [(42, 0.2), (1, 1.0)]):
        m0 = phase_tp(alg).sample_points(seed, 1)[0]
        traj = integrate(FlowConfig(field="t", dt=1e-3, T=T), m0, conserved=[])
        perms = np.array(list(itertools.permutations(range(alg.matrix_size))))
        for lam0 in (0.0, 1.0, 2.0):
            rows = [np.linalg.eigvals(lam0 * X - Y) for X, Y in alg.to_matrices(traj.states)]
            ref = rows[0][perms]                                  # (permutation, n)
            loop = max(float(np.abs(w - ref).max(axis=1).min()) for w in rows)
            assert pencil_eigenvalue_drift(traj, lam0) == loop < 1e-12


def test_rk4_order_via_step_halving(sl3):
    # the error against the exact factorization solution shrinks ~16×
    m0 = seed_point(sl3)
    exact = integrate(FlowConfig(field="t", dt=0.02, T=2.0), m0, conserved=[]).states[-1]
    partner = _partner(sl3, "t")

    def err(dt):
        end = rk4_states(partner, sl3.to_matrices(m0.vec()), dt, round(2.0 / dt))[0][-1]
        return np.abs(sl3.to_coords(end) - exact).max()

    assert 12.0 <= err(0.04) / err(0.02) <= 20.0   # a 4th-order scheme gives ≈ 16


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


def test_a_flow_config_takes_at_most_max_steps():
    # a run keeps every state: 1e15 steps would hang or exhaust memory
    assert FlowConfig(dt=1e-3, T=10.0).n_steps == flows.MAX_STEPS
    with pytest.raises(PreconditionError,
                       match="T/dt = 1000000000000000 steps; a flow run takes at most 10000"):
        FlowConfig(dt=1e-3, T=1e12)


def test_explicit_empty_conserved_list(sl2):
    traj = integrate(FlowConfig(dt=0.01, T=0.1), seed_point(sl2), conserved=[])
    assert traj.conserved.shape == (11, 0) and traj.conserved_names == ()


def test_blowup_is_truncated_with_note(gl2):
    ps = phase_tp(gl2)
    big = PairPoint.from_vec(gl2, ps.points_from_coords(40.0 * np.ones(ps.dim)))
    traj = integrate(FlowConfig(field="quadratic", i=1, lam=0.0, dt=0.05, T=3.0), big)
    assert traj.truncated
    assert "non-finite" in traj.note and "truncated" in traj.note
    assert len(traj.times) == len(traj.states)
    assert np.all(np.isfinite(traj.states))


def test_blowup_is_truncated_from_nearby_starts(gl2):
    # past the blow-up RK4 runs on rounding garbage; from starts a relative
    # 1e-14 apart every run must still end at a non-finite state, not settle
    # where the i = 1, λ = 0 field vanishes (traceless M) and run on to T
    ps = phase_tp(gl2)
    rng = np.random.default_rng(0)
    cfg = FlowConfig(field="quadratic", i=1, lam=0.0, dt=0.05, T=3.0)
    u_seed = ps.duals.T @ (seed_point(gl2).vec() - ps.base)
    for u0 in (u_seed, 40.0 * np.ones(ps.dim)):
        for _ in range(12):
            u = u0 * (1.0 + 1e-14 * rng.standard_normal(u0.shape))
            traj = integrate(cfg, PairPoint.from_vec(gl2, ps.points_from_coords(u)), conserved=[])
            assert traj.truncated, np.abs(traj.states[-1]).max()


# ---------------------------------------------------------------------------
# entry masks: which specs the t- and s-partners serve
# ---------------------------------------------------------------------------

def test_every_shipped_spec_has_its_entry_masks(so5, monkeypatch):
    # the masks read only the basis and its degrees; validating every order
    # is the builders' own test, so the builds here skip it
    monkeypatch.setattr(algebra, "validate_spec", lambda spec: [])
    specs = [build(n) for build in (build_sl, build_gl) for n in range(2, 10)]
    for alg in specs + [so5]:
        plus, minus = entry_masks(alg)
        assert not np.any(plus * minus), alg.name
        if alg is not so5:      # type A: 𝔤_{≥0} is the upper triangle
            n = alg.matrix_size
            assert np.array_equal(plus, np.triu(np.ones((n, n)))), alg.name
            assert np.array_equal(minus, np.tril(np.ones((n, n)), -1)), alg.name
        # one memo entry, shared by every caller, so no caller may edit it
        assert entry_masks(alg)[0] is plus and entry_masks(alg)[1] is minus
        assert not plus.flags.writeable and not minus.flags.writeable
        assert np.array_equal(_triangular_order(alg), np.arange(alg.matrix_size)), alg.name


def rotated_sl2_document():
    """sl2 with every basis matrix conjugated by a plane rotation: the same
    Lie algebra and grading, but 𝔤_{≥0} and 𝔤_{<0} share matrix entries."""
    c, s = np.cos(0.3), np.sin(0.3)
    Q = np.array([[c, -s], [s, c]])
    doc = spec_to_document(build_sl(2))
    doc["basis"] = [(Q @ np.array(b) @ Q.T).tolist() for b in doc["basis"]]
    return doc


def test_flows_refuse_a_spec_not_graded_entry_by_entry(tmp_path, capsys):
    alg = load_spec(rotated_sl2_document())
    assert validate_spec(alg) == []
    m0 = seed_point(alg)
    for field in ("t", "s"):
        with pytest.raises(CapabilityError, match="graded entry by entry"):
            integrate(FlowConfig(field=field, dt=0.1, T=0.2), m0)
    with pytest.raises(CapabilityError, match="graded entry by entry"):
        flow_commutation(m0, dt=0.1, n_steps=2)
    path = tmp_path / "sl2-rotated.json"
    save_spec(alg, path)
    capsys.readouterr()
    assert main(["flow", "run", "--algebra", str(path), "--dt", "0.1", "--T", "0.2"]) == 2
    assert "graded entry by entry" in capsys.readouterr().err
    # a pencil partner reads no entry mask: its run still runs
    assert main(["flow", "run", "--algebra", str(path), "--field", "linear", "--i", "1",
                 "--lam", "2", "--dt", "0.01", "--T", "0.1"]) == 0


def test_check_all_reports_the_batteries_a_spec_cannot_serve(tmp_path, capsys):
    # the flow-reading batteries are not applicable on the rotated basis; the
    # others report as on sl2, and the exit code follows the verdicts
    path = tmp_path / "sl2-rotated.json"
    save_spec(load_spec(rotated_sl2_document()), path)
    capsys.readouterr()
    code = main(["check", "all", "--algebra", str(path), "--samples", "5", "--format", "json"])
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert code == (0 if all(r["verdict"] for r in reports) else 1) == 0
    skipped = {r["check"]: r for r in reports if r["expected"] == "not applicable"}
    assert set(skipped) == {"quadratic-relations", "toda"}
    for r in skipped.values():
        assert r["verdict"] and r["measured"] is None
        assert r["detail"].startswith("not applicable: ") and "graded entry by entry" in r["detail"]
    ran = {r["check"] for r in reports} - set(skipped)
    assert {"mcybe", "jacobi-linear-bracket", "rank-linear", "cartan-block", "rais-span"} <= ran


# ---------------------------------------------------------------------------
# the RK4 loop and the entry-mask partners against their straightforward forms
# ---------------------------------------------------------------------------

def _start(alg, scale=None):
    """The seed point of T_P, or the point with every T_P coordinate = scale."""
    if scale is None:
        return seed_point(alg)
    ps = phase_tp(alg)
    return PairPoint.from_vec(alg, ps.points_from_coords(scale * np.ones(ps.dim)))


# (algebra, field, i, λ, dt, steps, start scale); the last three blow up:
# the quadratic field at step 3, the gl2 t-flow at step 82, which the
# 1000-step run passes by 918 steps
LOOP_CASES = [
    ("gl3", "t", None, None, 1e-3, 200, None),
    ("gl3", "s", None, None, 1e-3, 200, None),
    ("gl4", "t", None, None, 1e-3, 200, None),
    ("gl4", "s", None, None, 1e-3, 200, None),
    ("so5", "s", None, None, 1e-3, 200, None),
    ("sl3", "t", None, None, 1e-3, 200, None),
    ("gl3", "linear", 1, 2.0, 1e-3, 200, None),
    ("gl2", "quadratic", 1, 0.0, 0.05, 60, 40.0),
    ("gl2", "t", None, None, 0.05, 100, None),
    ("gl2", "t", None, None, 0.05, 1000, None),
]


def _algebra(name, request):
    if name == "rotated-sl2":
        return load_spec(rotated_sl2_document())
    return build_gl(4) if name == "gl4" else request.getfixturevalue(name)


@pytest.mark.parametrize("case", LOOP_CASES, ids=lambda c: "-".join(map(str, c[:2] + c[5:6])))
def test_rk4_states_matches_the_reference_loop_bit_for_bit(case, request):
    name, field, i, lam, dt, steps, scale = case
    alg = _algebra(name, request)
    partner = _partner(alg, field, i, lam)
    V0 = alg.to_matrices(_start(alg, scale).vec())
    lean, note, _ = rk4_states(partner, V0, dt, steps)
    ref = rk4_reference(lax_field(partner), V0, dt, steps)
    # the kept states are the reference's bit for bit, and the reference's
    # next state is non-finite exactly when the note names a step, that step
    assert np.array_equal(lean, ref[:len(lean)]) and np.isfinite(lean).all()
    assert len(ref) == len(lean) + bool(note)
    assert np.isfinite(ref[-1]).all() == (note == "")
    assert note in ("", f"non-finite state at step {len(lean)} (t = {len(lean) * dt:g}); "
                        f"trajectory truncated")


@pytest.mark.parametrize("n", range(2, 8))
def test_trace_projection_is_the_coordinate_map_on_gl(n):
    # the quadratic pencil partner reads p = ĝ(W^{i+1}): on gl the
    # trace-form projection is the coordinate map, to the bit
    alg = build_gl(n)
    rng = np.random.default_rng(n)
    W = rng.standard_normal((6, 1, n, n)) * 10.0 ** rng.uniform(-8, 8, (6, 1, 1, 1))
    assert alg.to_coords(W).tobytes() == alg.gradient_from_matrix(W)[..., 0, :].tobytes()


@pytest.mark.parametrize("name", ["gl3", "gl4", "sl3", "sl4", "so5"])
def test_entry_masks_project_like_the_coordinate_projection(name, request):
    # Π(V) = V ∘ m against Π read through the basis and its pseudo-inverse:
    # the same bits where the projection copies entries (gl, and strictly
    # lower entries on sl), roundoff where it reads the diagonal through
    # the pinv (sl's traceless diagonal, so5)
    alg = _algebra(name, request)
    V0 = alg.to_matrices(seed_point(alg).vec())
    for field, block, plus in (("t", 0, True), ("s", 1, False)):
        lean = alg.to_coords(rk4_states(_partner(alg, field), V0, 1e-3, 200)[0])
        ref = alg.to_coords(rk4_reference(lax_field(projector_partner(alg, block, plus)),
                                          V0, 1e-3, 200))
        if alg.associative or (name != "so5" and field == "s"):
            assert np.array_equal(lean, ref), (field, np.abs(lean - ref).max())
        else:
            assert np.abs(lean - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("name", ["sl3", "sl4", "so5"])
def test_toda_run_matches_the_coordinate_projection(name, request):
    # the exact Toda run, split by a triangular order of the matrix indices,
    # against RK4 with Π₊ read through the basis and its pseudo-inverse:
    # the two agree to RK4's truncation error
    alg = request.getfixturevalue(name)
    ts = toda_space(alg)
    x0 = ts.points_from_coords(np.random.default_rng(3).uniform(-1, 1, ts.dim))
    states, note = toda_run(alg, x0, dt=1e-3, T=0.5)
    ref = alg.to_coords(rk4_reference(lax_field(projector_partner(alg, 0, True)),
                                      alg.to_matrices(x0), 1e-3, 500))
    assert note == "" and len(states) == len(ref)
    assert np.abs(states - ref).max() <= 1e-11 * np.abs(ref).max()


def toda_seed_point(alg, seed=42):
    """The start row of the Toda battery's conservation run, its first sample point."""
    return toda_space(alg).sample_stack(seed, 20)[0]


@pytest.mark.parametrize("name, seed", [(name, seed) for seed in (42, 126)
                                        for name in ("sl3", "gl3", "sl4", "so5")])
def test_toda_run_is_the_first_block_of_the_diagonal_t_flow(name, seed, request):
    # the t-flow keeps the diagonal (x, x) and runs the Toda flow on each
    # block; sl3 at seed 126 meets a pole between t = 0.882 and 0.883
    alg = _algebra(name, request)
    x0 = toda_seed_point(alg, seed)
    states, note = toda_run(alg, x0)
    traj = integrate(FlowConfig("t", 1e-3, 1.0), PairPoint.from_vec(alg, np.concatenate([x0, x0])),
                     conserved=False)
    assert len(traj.states) == len(states) and traj.note == note
    assert (note != "") == ((name, seed) == ("sl3", 126))
    first, second = traj.states[:, :alg.dim], traj.states[:, alg.dim:]
    assert np.array_equal(first, second)
    assert np.abs(first - states).max() <= 1e-14 * np.abs(states).max()


# (algebra, field, i, λ, dt, T, step of the first non-finite state or None):
# from the seed point the so5 linear run blows up at step 781 and the gl2
# quadratic run at step 22; the rotated sl2 is not graded entry by entry
INTEGRATE_CASES = [
    ("gl3", "quadratic", 1, 0.5, 1e-3, 1.0, None),
    ("sl3", "linear", 1, 2.0, 1e-3, 1.0, None),
    ("rotated-sl2", "linear", 1, 2.0, 1e-3, 1.0, None),
    ("so5", "linear", 1, 2.0, 1e-3, 1.0, 781),
    ("gl2", "quadratic", 1, 0.0, 0.05, 3.0, 22),
]


@pytest.mark.parametrize("case", INTEGRATE_CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[3]:g}")
def test_integrate_pencil_runs_match_the_reference_loop_bit_for_bit(case, request):
    name, field, i, lam, dt, T, bad = case
    alg = _algebra(name, request)
    cfg = FlowConfig(field=field, i=i, lam=lam, dt=dt, T=T)
    m0 = seed_point(alg)
    traj = integrate(cfg, m0, conserved=[])
    ref = rk4_reference(lax_field(_partner(alg, field, i, lam)), alg.to_matrices(m0.vec()),
                        dt, cfg.n_steps)
    assert len(ref) == (cfg.n_steps if bad is None else bad) + 1
    assert len(traj.states) == len(ref) - (bad is not None)
    assert np.array_equal(traj.states, alg.to_coords(ref[:len(traj.states)]))
    assert traj.note == ("" if bad is None else
                         f"non-finite state at step {bad} (t = {bad * dt:g}); trajectory truncated")


@pytest.mark.parametrize("name", ["sl3", "gl3", "sl4", "gl4"])
def test_toda_rk4_has_order_four_against_the_factor_path(name, request):
    # the Toda flow is the t-flow on one block, solved exactly by
    # factorization; RK4 with the t-partner on the one-block stack cuts its
    # global error ~16× when the step halves
    alg = _algebra(name, request)
    V0 = alg.to_matrices(toda_seed_point(alg))
    exact, note, _ = factor_states(alg, "t", V0, 0.025, 40)
    assert note == ""

    def err(dt):
        end = rk4_states(_partner(alg, "t"), V0, dt, round(1.0 / dt))[0][-1]
        return np.abs(alg.to_coords(end) - alg.to_coords(exact[-1])).max()

    assert 12.0 <= err(0.05) / err(0.025) <= 20.0, err(0.05) / err(0.025)


@pytest.mark.parametrize("name, dt, steps", [
    ("sl3", 1e-3, 100), ("gl3", 1e-3, 100), ("sl4", 1e-3, 100), ("gl4", 1e-3, 100),
    ("so5", 1e-3, 100), ("gl2", 0.05, 100),
    ("sl2", 1.0, 9),
])
def test_exact_commutation_agrees_with_sequential_rk4(name, dt, steps, request):
    # flow_commutation's four exact legs against four sequential RK4 legs
    # (`sequential_commutation`): roundoff where RK4 is
    # finite; gl2 (dt 0.05) meets a true pole on both paths; on sl2 (dt 1)
    # RK4 is unstable at that step size, but no minor of exp(τX) changes
    # sign on either leg, so the exact defect is finite
    alg = _algebra(name, request)
    m0 = phase_tp(alg).sample_points(seed=42, count=1)[0]
    rk4 = sequential_commutation(m0, dt, steps)
    exact = flow_commutation(m0, dt=dt, n_steps=steps)
    if name == "gl2":
        assert math.isinf(rk4) and math.isinf(exact)
    elif name == "sl2":
        assert math.isinf(rk4) and math.isfinite(exact)
    else:
        assert math.isfinite(rk4) and exact <= 1e-12, (rk4, exact)


# ---------------------------------------------------------------------------
# the exact factorization solution (Adler–Kostant–Symes) as an oracle
# ---------------------------------------------------------------------------

def expm(A):
    """exp(A) by scaling and squaring of a Taylor series."""
    norm = np.abs(A).sum(axis=1).max()
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    B = A / 2.0**s
    E = term = np.eye(len(A))
    for k in range(1, 20):      # ‖B‖ ≤ ½: the tail is below 2⁻²⁰/20!
        term = term @ B / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def lu_nopivot(A):
    """A = n₋b₊ with n₋ unit lower-triangular and b₊ upper-triangular."""
    size = len(A)
    lower, upper = np.eye(size), np.array(A, dtype=float)
    for k in range(size - 1):
        lower[k + 1:, k] = upper[k + 1:, k] / upper[k, k]
        upper[k + 1:, :] -= np.outer(lower[k + 1:, k], upper[k, :])
    return lower, np.triu(upper)


def exact_flow(field, m0, T):
    """(L, M)(T) of the t-flow (exp(TL₀) = n₋b₊, conjugate by b₊) or the
    s-flow (exp(−TM₀) = n₋b₊, conjugate by n₋⁻¹)."""
    L0, M0 = m0.alg.to_matrices(m0.vec())
    lower, upper = lu_nopivot(expm(T * L0 if field == "t" else -T * M0))
    g = upper if field == "t" else np.linalg.inv(lower)
    gi = np.linalg.inv(g)
    return g @ L0 @ gi, g @ M0 @ gi


@pytest.mark.parametrize("size", [2, 4, 9])
def test_stacked_expm_matches_the_taylor_oracle(size):
    # one scale and one Taylor degree for the whole stack, the oracle one
    # scale per matrix and degree 19: the same exponentials to roundoff that
    # grows with the squarings, down to the lowest fitted degrees (1e-4, 1e-3)
    rng = np.random.default_rng(size)
    for norm in (1e-4, 1e-3, 0.01, 0.3, 1.0, 5.0, 30.0, 300.0):
        A = rng.standard_normal((6, size, size))
        A *= norm / np.abs(A).sum(axis=-2).max(axis=-1)[:, None, None]
        for got, want in zip(_expm(A), (expm(a) for a in A)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), norm


@pytest.mark.parametrize("m", [1, 2, 3, 255, 256, 257, 512])
def test_each_sample_of_a_stretch_matches_its_own_factorization(m, sl3, gl3, so5):
    # a stretch of m samples τ = k·h takes exp(khX) as a product of the
    # anchors exp(2^j·hX) of k's set bits; the oracle factors each exp(khX)
    # on its own.  h puts the last sample at the stretch limit τ‖X‖₁ = 1
    for alg in (sl3, gl3, so5):
        V = alg.to_matrices(seed_point(alg).vec())
        assert np.array_equal(_triangular_order(alg), np.arange(alg.matrix_size))
        for block, sign in ((0, 1.0), (1, -1.0)):
            X = sign * V[block]
            h = 1.0 / (m * np.abs(X).sum(axis=0).max())
            states, reached, stop = flows._factor_stretch(X, V, block, h, m,
                                                          np.arange(1, m + 1))
            assert stop == "" and reached == len(states) == m
            for k, got in enumerate(states, 1):
                lower, upper = lu_nopivot(expm(k * h * X))
                g = upper if block == 0 else np.linalg.inv(lower)
                want = g @ V @ np.linalg.inv(g)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (alg.name, k)


@pytest.mark.parametrize("seed, bound", [(12, 1.5e-12), (16, 1.5e-13)])
def test_the_last_stretch_before_a_pole_matches_its_own_factorization(seed, bound, sl4,
                                                                      monkeypatch):
    # the sl4 t-flow from these seeds stops at a pole, near which b₊ is worst
    # conditioned.  The states of the last stretch that keeps any, conjugated
    # by b₊ and its inverse by substitution, against the oracle that factors
    # each exp(khX) on its own and inverts b₊ with LAPACK; the bound is the
    # gap measured when the stretch took b₊⁻¹ from LAPACK too (1.42e-12 and
    # 1.47e-13)
    stretches, factor_stretch = [], flows._factor_stretch

    def spy(*args):
        states, reached, stop = factor_stretch(*args)
        stretches.append((args, states))
        return states, reached, stop

    monkeypatch.setattr(flows, "_factor_stretch", spy)
    traj = integrate(FlowConfig(field="t", dt=1e-3, T=1.0), seed_point(sl4, seed), conserved=[])
    assert traj.note.startswith("pole between")
    (X, V, block, h, m, keep), states = [s for s in stretches if len(s[1])][-1]
    assert block == 0 and len(states) == m
    for k, got in enumerate(states, 1):
        upper = lu_nopivot(expm(k * h * X))[1]
        want = upper @ V @ np.linalg.inv(upper)
        assert np.abs(got - want).max() <= bound * np.abs(want).max(), k


def rk4_end(alg, field, m0, dt, T):
    """The last state (L, M) of the RK4 run of the t- or s-field."""
    return rk4_states(_partner(alg, field), alg.to_matrices(m0.vec()), dt, round(T / dt))[0][-1]


@pytest.mark.parametrize("field", ["t", "s"])
def test_rk4_matches_exact_factorization_solution(field, sl3, gl3, sl4):
    for alg in (sl3, gl3, sl4):
        m0 = seed_point(alg)
        end = rk4_end(alg, field, m0, 1e-3, 1.0)
        L, M = exact_flow(field, m0, 1.0)
        err = max(np.abs(end[0] - L).max(), np.abs(end[1] - M).max())
        assert err <= 1e-9, (alg.name, field, err)


@pytest.mark.parametrize("field", ["t", "s"])
@pytest.mark.parametrize("name", ["sl3", "gl3", "sl4", "gl4", "so5"])
def test_factor_path_matches_the_oracle_and_beats_rk4(name, field, request):
    # integrate re-anchors its factorization along the way; the oracle takes
    # one Taylor exp and one loop LU at T.  RK4 at dt/2 is nearer the factor
    # path than RK4 at dt is, down to a roundoff floor
    alg = _algebra(name, request)
    m0 = seed_point(alg)
    for T in (0.37, 1.0):
        traj = integrate(FlowConfig(field=field, dt=1e-3, T=T), m0, conserved=[])
        end = alg.to_matrices(traj.states[-1])
        L, M = exact_flow(field, m0, T)
        assert max(np.abs(end[0] - L).max(), np.abs(end[1] - M).max()) <= 1e-12
    coarse, fine = rk4_end(alg, field, m0, 1e-3, 1.0), rk4_end(alg, field, m0, 5e-4, 1.0)
    floor = 1e-14 * np.abs(fine).max()
    assert np.abs(end - fine).max() <= max(np.abs(coarse - fine).max(), floor)
    assert traj.tangency_drift(phase_tp(alg)) <= 1e-13


@pytest.mark.parametrize("name, first_bad", [("sl4", 1029), ("gl4", 809)])
def test_blowup_stops_before_the_pole(name, first_bad, request):
    # a leading minor of exp(τL) changes sign between two samples: the run
    # stops before it, at most 3 samples before RK4 reaches a non-finite state
    alg = _algebra(name, request)
    dt = 2e-3
    traj = integrate(FlowConfig(field="t", dt=dt, T=3.0), seed_point(alg))
    assert traj.truncated and len(traj.states) == first_bad
    assert traj.note == (f"pole between t = {(first_bad - 1) * dt:g} and t = "
                         f"{first_bad * dt:g} (steps {first_bad - 1} and {first_bad}); "
                         f"trajectory truncated")
    assert np.all(np.isfinite(traj.states)) and np.all(np.isfinite(traj.conserved))
    stack, note, _ = rk4_states(_partner(alg, "t"), alg.to_matrices(seed_point(alg).vec()), dt, 1500)
    assert note and 0 <= len(stack) - first_bad <= 3     # RK4's first non-finite state


def test_no_blowup_where_the_values_only_grow(sl2):
    # the sl2 t-flow from the seed point has no pole; M grows to |V| ≈ 3e5
    # by T = 9 and 1.4e19 by T = 30.  One factorization of exp(30L₀) would
    # lose its second pivot to cancellation near t = 12.6; re-anchored
    # stretches keep every factorization exact
    m0 = seed_point(sl2)
    traj = integrate(FlowConfig(field="t", dt=1e-3, T=9.0), m0, conserved=[])
    assert not traj.truncated and len(traj.states) == 9001
    end, rk4 = sl2.to_matrices(traj.states[-1]), rk4_end(sl2, "t", m0, 1e-3, 9.0)
    assert np.abs(rk4).max() > 1e5
    assert np.abs(end - rk4).max() <= 1e-10 * np.abs(rk4).max()
    traj = integrate(FlowConfig(field="t", dt=0.05, T=30.0), m0, conserved=[])
    assert not traj.truncated and np.abs(traj.states[-1]).max() > 1e19


@pytest.mark.parametrize("name, cfg, work", [
    ("sl4", FlowConfig(field="t", dt=1e-3, T=0.2),
     {"samples": 200, "pivot_tests": 200, "factorizations": 1}),
    # the capped pivot grid: 195 tests per sample, a factorization each,
    # until the grid of MAX_STEPS points runs out before step 52
    ("sl2", FlowConfig(field="s", dt=100.0, T=1e5),
     {"samples": 51, "pivot_tests": 9945, "factorizations": 9945}),
    ("gl2", FlowConfig(field="linear", i=1, lam=0.5, dt=0.25, T=1.0),
     {"steps": 4, "field_evals": 16}),
    # the step that reaches a non-finite state is counted
    ("gl2", FlowConfig(field="linear", i=1, lam=0.5, dt=0.05, T=4.0),
     {"steps": 48, "field_evals": 192}),
], ids=["sl4-t", "sl2-s-dt100", "gl2-linear", "gl2-linear-blowup"])
def test_a_run_carries_the_work_counts_of_its_engine(name, cfg, work, request):
    traj = integrate(cfg, seed_point(request.getfixturevalue(name)), conserved=[])
    assert traj.work == work


@pytest.mark.parametrize("name", ["sl2", "gl2"])
def test_huge_steps_stop_without_an_error(name, request):
    # dt·‖X‖ in the hundreds: the states overflow (sl2 t-flow), the pivot
    # grid runs out (sl2 s-flow), or a minor changes sign on it (gl2); either
    # way the run stops with a note
    alg = request.getfixturevalue(name)
    m0 = seed_point(alg)
    for field in ("t", "s"):
        traj = integrate(FlowConfig(field=field, dt=100.0, T=1e5), m0)
        assert traj.truncated and "trajectory truncated" in traj.note
        assert np.all(np.isfinite(traj.states))
    assert flow_commutation(m0, dt=100.0, n_steps=1000) == math.inf


def _eigenvalue_grid(X, dt):
    """The pivot tests per sample that the eigenvalue rule asks for."""
    return max(1, math.ceil(dt * np.abs(np.linalg.eigvals(X)).sum()))


@pytest.mark.parametrize("name", ["sl2", "sl3", "gl4", "so5"])
def test_the_norm_bound_settles_the_pole_grid_as_the_eigenvalues_do(name, request, monkeypatch):
    # one step at dt across dt·√n·‖X‖_F = 1, below which the bound gives q = 1
    # with no eigensolve, and across dt·Σ|λ(X)| = 1 and 2, where the eigenvalue
    # rule asks for 2 and 3 tests: the pivot tests are the eigenvalue rule's
    alg = _algebra(name, request)
    V0 = alg.to_matrices(seed_point(alg).vec())
    solves = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: solves.append(A) or eigvals(A))
    for field, X in (("t", V0[0]), ("s", -V0[1])):
        bound = math.sqrt(alg.matrix_size) * np.linalg.norm(X)
        spectral = np.abs(eigvals(X)).sum()
        assert spectral <= bound
        for dt in ([c / bound for c in (0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 1.5, 3.0)]
                   + [c / spectral for c in (1 - 1e-9, 1.0, 1 + 1e-9, 2.5)]):
            want = _eigenvalue_grid(X, dt)
            solves.clear()
            _, note, work = factor_states(alg, field, V0, dt, 1)
            assert note == "" and work["pivot_tests"] == want, (field, dt)
            assert len(solves) == (dt * bound > 1 - 1e-12), (field, dt)


@pytest.mark.parametrize("field, V0", [
    # |λ| all equal, Σ|λ| = √n·‖X‖_F: diag(1, −1) for the t-flow, a rotation
    # for the s-flow (X = −M, λ = ±i), and a multiple of the identity
    ("t", np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.3, 0.2], [-0.5, -0.3]]])),
    ("s", np.array([[[0.3, 0.2], [-0.5, -0.3]], [[0.0, 1.0], [-1.0, 0.0]]])),
    ("t", np.array([2.0 * np.eye(4), np.triu(np.ones((4, 4)))])),
], ids=["sl2-real", "sl2-rotation", "gl4-scalar"])
def test_the_norm_bound_is_sharp_where_the_moduli_are_equal(field, V0):
    # at the bound's equality case the slack leaves q to the eigenvalue rule
    alg = build_gl(len(V0[0]))
    X = V0[0] if field == "t" else -V0[1]
    spectral = np.abs(np.linalg.eigvals(X)).sum()
    assert math.isclose(spectral, math.sqrt(len(X)) * np.linalg.norm(X))
    for c in (0.5, 1 - 1e-9, 1 - 1e-13, 1.0, 1 + 1e-13, 1 + 1e-9, 2.0, 2.5):
        dt = c / spectral
        assert flows._pivot_grid(X, dt) == _eigenvalue_grid(X, dt), c
        _, _, work = factor_states(alg, field, V0, dt, 1)
        assert work["pivot_tests"] == _eigenvalue_grid(X, dt), c


def test_a_non_finite_start_takes_one_pivot_test_per_sample(sl2):
    # as before the bound: no eigensolve of a non-finite X, q = 1 at any dt,
    # and the run stops at its first sample
    V0 = sl2.to_matrices(seed_point(sl2).vec())
    for field, block in (("t", 0), ("s", 1)):
        V = V0.copy()
        V[block, 0, 1] = np.nan
        for dt in (1e-3, 100.0, 1e5):
            assert flows._pivot_grid(V[block], dt) == 1
            states, note, work = factor_states(sl2, field, V, dt, 1)
            assert len(states) == 1 and note and work["pivot_tests"] == 1, (field, dt)


def test_a_stretch_that_conjugates_its_end_alone_stops_where_the_full_stretch_does(sl2):
    # M near overflow grows along the t-flow until a state overflows inside a
    # stretch.  The factors cannot vouch for the samples it skips, so the
    # stretch conjugates them all and stops where the full stretch stops, at
    # a sample that is not its end; the factors of a smaller M vouch for them
    L = np.array([[0.5, 1.0], [0.3, -0.5]])
    M = np.array([[0.2, 1.0], [-0.7, -0.2]])
    h = 0.01 / np.abs(L).sum(axis=0).max()
    with np.errstate(over="ignore", invalid="ignore"):
        for scale, first_bad in ((1e290, None), (1e308, 84)):
            V = np.stack([L, scale * M])
            full, reached, stop = flows._factor_stretch(L, V, 0, h, 100, np.arange(1, 101))
            LU = flows._lu(flows._grid_expm(L, h, 100))
            pivots = np.diagonal(LU, axis1=-2, axis2=-1)
            assert flows._conjugates_are_finite(LU, pivots, V) == (first_bad is None)
            end = flows._factor_stretch(L, V, 0, h, 100, np.array([100]))
            some = flows._factor_stretch(L, V, 0, h, 100, np.array([10, 50, 100]))
            if first_bad is None:
                assert (reached, stop) == (100, "")
            else:
                assert (reached, stop) == (first_bad - 1, "non-finite")
            kept = [k for k in (10, 50, 100) if k <= reached]
            assert (end[1:], some[1:]) == ((reached, stop), (reached, stop))
            assert np.array_equal(end[0], full[99:reached])
            assert np.array_equal(some[0], full[np.array(kept, dtype=int) - 1])
    # a whole run, and one that keeps its end alone, stop at the same sample
    V = np.stack([L, 1e308 * M])
    runs = [factor_states(sl2, "t", V, 1e-2, 300, last=last) for last in (False, True)]
    assert runs[0][1] == runs[1][1] == ("non-finite state at step 56 (t = 0.56); "
                                        "trajectory truncated")
    assert runs[0][2] == runs[1][2] and len(runs[1][0]) == 0


@pytest.mark.parametrize("dt, T", [(0.01, 5.0), (1.0, 4.0), (5.0, 20.0), (100.0, 400.0)])
def test_a_pole_does_not_hide_between_long_steps(dt, T, gl2):
    # the gl2 s-flow from the seed point: M₀ has eigenvalues 0.46 ± 0.88i, so
    # the minor e₁₁ of exp(−sM₀) changes sign about every π/0.88 ≈ 3.6, the
    # first time in (1.87, 1.88).  A sample step of 5 or 100 spans several
    # sign changes; the pivots are tested on a grid fine enough for every
    # one of them, and the run stops at the first
    traj = integrate(FlowConfig(field="s", dt=dt, T=T), seed_point(gl2), conserved=[])
    k = int(1.875 // dt)
    assert len(traj.states) == k + 1
    assert traj.note == (f"pole between t = {k * dt:g} and t = {(k + 1) * dt:g} "
                         f"(steps {k} and {k + 1}); trajectory truncated")


def test_a_real_spectrum_pole_pair_does_not_hide_in_one_sample(sl3):
    # L₀ ∈ e + 𝔤_{≤0} has the real spectrum −2.577, −0.108, 2.685, and the
    # minor e₁₁ of exp(uL₀) is negative on ≈ (0.583, 1.026): two poles of the
    # t-flow inside the first sample of 2, with e₁₁ > 0 at both of its ends.
    # A grid spaced by Σ|Im λ(L₀)| = 0 tests the pivots at the ends only; the
    # grid spaced by Σ|λ(L₀)| stops the run before the first pole
    L0 = np.array([[-3.53, 1, 0], [-3, 0.17, 1], [-0.4, -1.96, 3.36]])
    M0 = np.array([[0.5, 0.2, -0.3], [1, -0.1, 0.4], [0, 0.7, -0.4]])
    m0 = PairPoint.from_vec(sl3, np.concatenate([sl3.from_matrix(L0), sl3.from_matrix(M0)]))
    assert phase_tp(sl3).membership_residuals(m0.vec()) == 0.0
    assert np.all(np.linalg.eigvals(L0).imag == 0.0)
    e11 = _expm(np.array([0.0, 0.8, 2.0])[:, None, None] * L0)[:, 0, 0]
    assert e11[0] > 0 and e11[1] < 0 and e11[2] > 0
    traj = integrate(FlowConfig(field="t", dt=2.0, T=6.0), m0)
    assert len(traj.states) == 1
    assert traj.note == "pole between t = 0 and t = 2 (steps 0 and 1); trajectory truncated"
    assert flow_commutation(m0, dt=2.0, n_steps=1) == math.inf


@pytest.mark.parametrize("dt", [1e5, 1.7e308])
def test_a_step_too_long_for_the_pivot_grid_stops_the_run(dt, gl2):
    # q = ⌈dt·Σ|λ(M₀)|⌉ ≈ 2e5 pivot tests for one step, or a count that
    # overflows: more than MAX_STEPS, so the run stops before the step rather
    # than trust one test
    traj = integrate(FlowConfig(field="s", dt=dt, T=dt), seed_point(gl2), conserved=[])
    assert len(traj.states) == 1
    assert traj.note == (f"step too large to resolve poles at step 1 (t = {dt:g}); "
                         f"trajectory truncated")


@pytest.mark.parametrize("dt, note", [
    (20.0, ""),
    (100.0, "non-finite state at step 5 (t = 500); trajectory truncated"),
], ids=["20.0", "100.0"])
def test_a_lost_pivot_is_not_called_a_pole(dt, note, sl2):
    # L₀ = [[a, b], [c, −a]] with ω² = a² + bc > 0 and |a/ω| < 1: the minor
    # e₁₁ of exp(tL₀) = cosh ωt + (a/ω) sinh ωt never vanishes, so the
    # t-flow has no pole.  One factorization over a step of 20 or 100 would
    # lose the second pivot 1/e₁₁ to cancellation; the pivot grid, spaced by
    # Σ|λ(L₀)| = 2ω, factors in short steps instead, so the dt 20 run keeps
    # every pivot and the dt 100 run stops where its states overflow
    m0 = seed_point(sl2)
    (a, b), (c, _) = sl2.to_matrices(m0.x.coords)[0]
    omega = math.sqrt(a * a + b * c)
    assert abs(a / omega) < 1.0
    traj = integrate(FlowConfig(field="t", dt=dt, T=10 * dt), m0)
    assert traj.note == note


def _note_steps(note):
    """The step numbers a truncation note names, None for a whole run."""
    found = re.search(r"steps? (\d+)(?: and (\d+))?", note)
    return found and found.groups()


@pytest.mark.parametrize("c", [0.1, 3.0, 10.0])
def test_factor_path_is_homogeneous_under_scaling(c, sl3, gl3):
    # the Lax flows are homogeneous: from cV₀ at step dt/c they pass through
    # cV(k·dt), so the samples, the pole steps and the states (times c) agree
    starts = [(alg, field, alg.to_matrices(seed_point(alg).vec()))
              for alg in (gl3, sl3) for field in ("t", "s")]
    starts.append((sl3, "t", sl3.to_matrices(toda_seed_point(sl3, 126))))
    for alg, field, V0 in starts:
        base, note, _ = factor_states(alg, field, V0, 1e-3, 1000)
        scaled, scaled_note, _ = factor_states(alg, field, c * V0, 1e-3 / c, 1000)
        assert len(scaled) == len(base) and _note_steps(scaled_note) == _note_steps(note)
        assert np.abs(scaled - c * base).max() <= 1e-12 * c * np.abs(base).max()
    assert _note_steps(note) == ("882", "883")      # the Toda start meets its pole


@pytest.mark.parametrize("name, order", [("sl2", [1, 0]), ("gl3", [2, 0, 1]), ("sl4", [3, 1, 0, 2])])
def test_factor_path_reorders_a_grading_that_is_not_triangular(name, order, request):
    # the builder's basis conjugated by a permutation P: graded entry by entry,
    # but 𝔤_{≥0} no longer upper-triangular.  The factor path runs the flows in
    # the index order that makes it so again: the same trajectories as on the
    # builder's basis, carried over by P
    base = request.getfixturevalue(name) if name != "gl3" else build_gl(3)
    P = np.eye(base.matrix_size)[:, order]
    doc = spec_to_document(base)
    doc["basis"] = [(P @ np.array(b) @ P.T).tolist() for b in doc["basis"]]
    alg = load_spec(doc)
    assert validate_spec(alg) == []
    found = _triangular_order(alg)
    assert np.array_equal(entry_masks(alg)[0][np.ix_(found, found)], entry_masks(base)[0])
    m0 = seed_point(alg)
    V0 = alg.to_matrices(m0.vec())
    m0_base = PairPoint.from_vec(base, base.to_coords(P.T @ V0 @ P))
    for field in ("t", "s"):
        cfg = FlowConfig(field=field, dt=1e-3, T=0.5)
        got = alg.to_matrices(integrate(cfg, m0, conserved=[]).states)
        want = P @ base.to_matrices(integrate(cfg, m0_base, conserved=[]).states) @ P.T
        assert got.shape == want.shape == (501, 2, base.matrix_size, base.matrix_size)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert flow_commutation(m0, dt=1e-3, n_steps=100) <= 1e-12


def test_factor_path_refuses_a_grading_with_no_triangular_order(monkeypatch):
    # E₁₂ and E₂₁ both in 𝔤_{≥0}, a parabolic rather than a Borel: no order
    # of the indices puts both on or above the diagonal, and exp(τX) = n₋b₊
    # does not split the flows
    alg = build_gl(2)
    m0 = seed_point(alg)
    monkeypatch.setattr(flows, "entry_masks", lambda alg: (np.ones((2, 2)), np.zeros((2, 2))))
    for field in ("t", "s"):
        with pytest.raises(CapabilityError, match="no order of the matrix indices"):
            integrate(FlowConfig(field=field, dt=0.1, T=0.2), m0)
    with pytest.raises(CapabilityError, match="no order of the matrix indices"):
        flow_commutation(m0, dt=0.1, n_steps=2)


# ---------------------------------------------------------------------------
# configuration errors
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(PreconditionError):
        FlowConfig(dt=-1.0)
    with pytest.raises(PreconditionError):
        FlowConfig(dt=0.5, T=0.1)


@pytest.mark.parametrize("argv, match", [
    (["--algebra", "sl2", "--field", "linear", "--i", "1", "--lam", "nan"], "λ must be finite"),
    (["--algebra", "gl2", "--field", "quadratic", "--i", "1", "--lam", "inf"], "λ must be finite"),
    (["--algebra", "sl2", "--field", "t", "--i", "7", "--lam", "nan"], "takes no generator label"),
    (["--algebra", "sl2", "--field", "linear", "--i", "1", "--lam", "-inf"], "λ must be finite"),
])
def test_pencil_parameters_are_checked_where_they_are_set(argv, match, capsys):
    # a non-finite λ, or an i or λ given to the t- or s-flow, is a usage error
    assert main(["flow", "run", *argv]) == 2
    assert match in capsys.readouterr().err
    with pytest.raises(PreconditionError, match=match):
        FlowConfig(field=argv[3], i=int(argv[5]), lam=float(argv[7]))
    with pytest.raises(PreconditionError, match="takes no generator label"):
        FlowConfig(field="s", lam=1.0)


def test_lam_takes_every_float_spelling(capsys):
    # argparse reads only -1 and -1.5 as negative numbers on Python 3.11, and
    # would take -1e-3 for an option
    run = ["flow", "run", "--field", "linear", "--i", "1", "--dt", "0.01", "--T", "0.1"]
    assert main([*run, "--lam", "-0.001"]) == 0
    want = capsys.readouterr()
    for lam in (["--lam", "-1e-3"], ["--lam=-1e-3"], ["--lam", "-1E-3"]):
        assert main([*run, *lam]) == 0
        assert capsys.readouterr() == want
    for lam in ("-5.", "-2E+1", "-.5"):
        assert main([*run, "--lam", lam]) in (0, 1)
        assert capsys.readouterr().err == ""


def test_pencil_run_without_its_label_is_refused_before_any_build(monkeypatch, capsys):
    def no_build(*args):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(cli, "build_sl", no_build)
    for extra in ([], ["--i", "1"], ["--lam", "2"]):
        assert main(["flow", "run", "--algebra", "sl3", "--field", "linear", *extra]) == 2
        assert "linear pencil field needs generator label i and λ" in capsys.readouterr().err


def test_field_selector_validation():
    # a config says what it lacks at construction, before any algebra; only
    # whether i is a generator label waits for one (`integrate`)
    for kwargs in ({"field": "x"}, {"field": "quadratic"}, {"field": "linear", "i": 1},
                   {"field": "linear", "lam": 2.0}):
        with pytest.raises(PreconditionError):
            FlowConfig(**kwargs)


def test_an_unknown_field_is_refused_by_the_field_too(sl2):
    # field_rows reads the field name itself, and refuses it as FlowConfig does
    V = phase_tp(sl2).sample_stack(42, 1)
    with pytest.raises(PreconditionError, match="unknown field selector 'bogus'"):
        field_rows(sl2, "bogus", V, 1, 2.0)
    with pytest.raises(PreconditionError, match="unknown field selector 'bogus'"):
        FlowConfig(field="bogus")


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
