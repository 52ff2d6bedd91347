"""Lax flows: closed-form fields, RK4 integration, conservation, CSV export."""

import numpy as np
import pytest

from toda2 import (
    CapabilityError,
    Element,
    FlowConfig,
    PairPoint,
    PreconditionError,
    bracket,
    family,
    flow_commutation,
    integrate,
    pencil_eigenvalue_drift,
    phase_tp,
    project,
    trajectory_to_csv,
)
from toda2.flows import field_rows
from toda2.rmatrix import r_block

from pointwise import flow_at


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
            xp = project(m.x, ">=0")
            want = PairPoint(bracket(xp, m.x), bracket(xp, m.y))
            assert (flow_at("t", m) - want).norm() < 1e-13


def test_field_s_is_projected_lax_bracket(sl3, gl3, so5):
    for alg in (sl3, gl3, so5):
        for m in phase_tp(alg).sample_points(seed=42, count=3):
            yn = project(m.y, "<0")
            want = PairPoint(bracket(yn, m.x), bracket(yn, m.y))
            assert (flow_at("s", m) - want).norm() < 1e-13


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
# and the bracket is the structure-tensor one


def _pencil_power(m, lam, power):
    alg = m.alg
    X, Y = (np.einsum("a,aij->ij", v.coords, alg.basis) for v in (m.x, m.y))
    return np.linalg.matrix_power(lam * X - Y, power)


def pair_bracket(p, q):
    return PairPoint(bracket(p.x, q.x), bracket(p.y, q.y))


def quadratic_oracle(i, lam, m):
    alg = m.alg
    W = _pencil_power(m, lam, i + 1)
    w = Element(alg, np.linalg.lstsq(alg.basis.reshape(alg.dim, -1).T, W.ravel(), rcond=None)[0])
    Rw = Element(alg, r_block(alg, w.coords))
    return -pair_bracket(m, PairPoint(Rw - w, Rw + w))


def linear_pencil_oracle(i, lam, m):
    alg = m.alg
    W = _pencil_power(m, lam, i)
    p = Element(alg, np.linalg.solve(alg.gram, np.einsum("ij,aji->a", W, alg.basis)))
    Rp = Element(alg, r_block(alg, p.coords))
    u, v = Rp - p, Rp + p
    return 0.5 * (lam - 1.0) * pair_bracket(PairPoint(u, v), m)


@pytest.mark.parametrize("name", ["sl3", "gl3", "so5"])
def test_pencil_fields_match_coordinate_closed_forms(name, request):
    alg = request.getfixturevalue(name)
    for m in phase_tp(alg).sample_points(seed=8, count=2):
        for i in alg.exponents:
            for lam in (0.0, 0.5, -1.0):
                X = flow_at("linear", m, i, lam)
                assert (X - linear_pencil_oracle(i, lam, m)).norm() < 1e-13
                if alg.associative:
                    X = flow_at("quadratic", m, i, lam)
                    assert (X - quadratic_oracle(i, lam, m)).norm() < 1e-13


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
    for alg in (sl3, gl3, so5):
        traj = integrate(FlowConfig(field="t", dt=1e-3, T=0.2), seed_point(alg),
                         conserved=[])
        for lam0 in (0.0, 1.0, 2.0):
            def eigs(k):
                m = PairPoint.from_vec(alg, traj.states[k])
                w = np.linalg.eigvals(lam0 * m.x.matrix() - m.y.matrix())
                return np.sort_complex(w)

            ref = eigs(0)
            loop = max(float(np.abs(eigs(k) - ref).max()) for k in range(len(traj.times)))
            assert pencil_eigenvalue_drift(traj, lam0) == loop


def test_rk4_order_via_step_halving(sl3):
    m0 = seed_point(sl3)

    def end(dt):
        traj = integrate(FlowConfig(field="t", dt=dt, T=2.0), m0)
        return PairPoint.from_vec(sl3, traj.states[-1])

    ref = end(0.005)

    def err(dt):
        return (end(dt) - ref).norm()

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
    u_seed = ps.duals.T @ (seed_point(gl2).vec() - ps.base.vec())
    for u0 in (u_seed, 40.0 * np.ones(ps.dim)):
        for _ in range(12):
            u = u0 * (1.0 + 1e-14 * rng.standard_normal(u0.shape))
            traj = integrate(cfg, PairPoint.from_vec(gl2, ps.points_from_coords(u)), conserved=[])
            assert traj.truncated, np.abs(traj.states[-1]).max()


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
    L0, M0 = m0.x.matrix(), m0.y.matrix()
    lower, upper = lu_nopivot(expm(T * L0 if field == "t" else -T * M0))
    g = upper if field == "t" else np.linalg.inv(lower)
    gi = np.linalg.inv(g)
    return g @ L0 @ gi, g @ M0 @ gi


@pytest.mark.parametrize("field", ["t", "s"])
def test_rk4_matches_exact_factorization_solution(field, sl3, gl3, sl4):
    for alg in (sl3, gl3, sl4):
        m0 = seed_point(alg)
        traj = integrate(FlowConfig(field=field, dt=1e-3, T=1.0), m0, conserved=[])
        end = PairPoint.from_vec(alg, traj.states[-1])
        L, M = exact_flow(field, m0, 1.0)
        err = max(np.abs(end.x.matrix() - L).max(), np.abs(end.y.matrix() - M).max())
        assert err <= 1e-9, (alg.name, field, err)


# ---------------------------------------------------------------------------
# configuration errors
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(PreconditionError):
        FlowConfig(dt=-1.0)
    with pytest.raises(PreconditionError):
        FlowConfig(dt=0.5, T=0.1)


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
