"""Point-level views of toda2's block and stack forms, for the tests.

Each helper calls a block form on one point (a one-row block, `point_block`)
and returns a Point or a ScalarFunction, so that a test can state an identity
one point at a time or hand a function to `gradient2`, which falls back on
central differences where a function has no analytic gradient.  A stack
gives the bits of its points one at a time, so these views carry the bits
the stacked batteries must reproduce.

The RK4 driver and the projected partner have their straightforward forms
here too (`rk4_reference`, `projector_partner`): one new array per stage and
per state, a finiteness test at every step, and Π as the coordinate
projection through the basis.  `rk4_trajectory` and `sequential_commutation`
run the t- and s-flows by RK4, a witness independent of the exact
factorization that `integrate` and `flow_commutation` use.
"""

import math

import numpy as np

from toda2 import Element, FlowConfig, PairPoint, ScalarFunction, form, form2
from toda2.flows import Trajectory, _named_field, field_rows, rk4_states
from toda2.invariants import family, family_values
from toda2.invariants import pullback_gradients, trace_gradients, trace_values
from toda2.poisson import _block_field
from toda2.rmatrix import point_block

FD_STEP = 1e-5


def pairing(p, q):
    """⟨p, q⟩ on 𝔤, ⟨p, q⟩₂ on 𝔤×𝔤."""
    return form(p, q) if isinstance(p, Element) else form2(p, q)


def _fd_partials(F, m, step=FD_STEP):
    """Central finite-difference partials of F in the basis coordinates of m."""
    alg, point = m.alg, type(m)
    v0 = m.vec()
    w = np.empty(v0.size)
    for a in range(v0.size):
        vp, vm = v0.copy(), v0.copy()
        vp[a] += step
        vm[a] -= step
        w[a] = (F(point.from_vec(alg, vp)) - F(point.from_vec(alg, vm))) / (2.0 * step)
    return w


def gradient2(F, m, step=FD_STEP):
    """Gradient of F at m: analytic when available, else central differences."""
    if F.gradient is not None:
        return F.gradient(m)
    return type(m).from_covector(m.alg, _fd_partials(F, m, step))


def field_at(which, m, g):
    """X(m) of bracket `which` for the gradient g at one point: the block field
    on one-point blocks, after its capability checks."""
    X = _block_field(which, m.alg, len(point_block(m)))(
        m.alg, point_block(m), point_block(g))
    return type(m).from_vec(m.alg, X.ravel())


def flow_at(field, m, i=0, lam=0.0):
    """The t-, s-, quadratic or linear pencil field at one point, on its
    coordinate row; "t" on a point of 𝔤 is the Toda field."""
    return type(m).from_vec(m.alg, field_rows(m.alg, field, m.vec(), i, lam))


def bracket_value(which, F, G, m):
    """{F, G}(m) = ⟨∇F, X_G(m)⟩, gradients from `gradient2` (analytic, else
    central differences)."""
    return pairing(gradient2(F, m), field_at(which, m, gradient2(G, m)))


def linear_function(p, name="linear"):
    """m ↦ ⟨p, m⟩ (⟨p, m⟩₂ on 𝔤×𝔤), whose gradient is the constant p."""
    return ScalarFunction(name, lambda m: pairing(p, m), lambda m: p)


def trace_function(alg, i):
    """P_i(x) = Tr(x^{i+1})/(i+1) on single Elements, gradient ĝ(x^i)."""
    return ScalarFunction(
        f"P_{i}",
        lambda x: float(trace_values(alg, x.coords, i)),
        lambda x: Element(alg, trace_gradients(alg, x.coords, i)),
    )


def pullback(alg, i, lam):
    """P_i∘ψ_λ as a pair function: m ↦ P_i(λx − y), gradient (λ∇P_i(w), ∇P_i(w))."""
    return ScalarFunction(
        f"P_{i}∘ψ_{lam:g}",
        lambda m: float(trace_values(alg, lam * m.x.coords - m.y.coords, i)),
        lambda m: PairPoint.from_vec(alg, pullback_gradients(alg, i, lam, point_block(m)).ravel()),
    )


def rk4_reference(field, v0, dt, n_steps):
    """Fixed-step RK4 of v̇ = field(v), one state at a time: the states along
    a new first axis, ending at the first non-finite state."""
    v = np.asarray(v0, dtype=float)
    states = [v]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            k1 = field(v)
            k2 = field(v + 0.5 * dt * k1)
            k3 = field(v + 0.5 * dt * k2)
            k4 = field(v + dt * k3)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states.append(v)
            if not np.all(np.isfinite(v)):
                break
    return np.array(states)


def projector_partner(alg, block, region):
    """Z = Π_region(V[block]) as the n²×n² matrix of `project(·, region)` on
    flattened matrices, read through the basis and its pseudo-inverse."""
    n = alg.matrix_size
    flat = alg.basis.reshape(alg.dim, -1).T
    P = (flat * alg.mask(region)) @ np.linalg.pinv(flat)

    def partner(V):
        lead = V.shape[:-3]
        return (P @ V[..., block, :, :].reshape(*lead, n * n, 1)).reshape(*lead, 1, n, n)

    return partner


def rk4_trajectory(cfg, m0):
    """The RK4 run of the configured field from m0 as a Trajectory, with the
    family evaluated on every state; truncated before a non-finite state."""
    alg = m0.alg
    stack = rk4_states(_named_field(cfg, alg), alg.to_matrices(m0.vec()), cfg.dt, cfg.n_steps)
    truncated = not np.all(np.isfinite(stack[-1]))
    states = alg.to_coords(stack[:-1] if truncated else stack)
    return Trajectory(alg=alg, times=np.arange(len(states)) * cfg.dt, states=states,
                      conserved=family_values(alg, states),
                      conserved_names=tuple(F.name for F in family(alg)), truncated=truncated)


def sequential_commutation(m0, dt, n_steps):
    """The commutation defect from four runs of the reference loop: Φ_s then
    Φ_t, and Φ_t then Φ_s, each field on its own."""
    alg = m0.alg
    ft, fs = (_named_field(FlowConfig(field=f, dt=dt, T=dt * n_steps), alg) for f in "ts")

    def run(f, V):
        return rk4_reference(f, V, dt, n_steps)[-1]

    V0 = alg.to_matrices(m0.vec())
    ab, ba = run(ft, run(fs, V0)), run(fs, run(ft, V0))
    if not (np.all(np.isfinite(ab)) and np.all(np.isfinite(ba))):
        return math.inf
    return float(np.abs(alg.to_coords(ab) - alg.to_coords(ba)).max())
