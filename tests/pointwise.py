"""Point-level oracles and views of toda2's block and stack forms, for the tests.

The Point-level formulas (`bracket`, `form`, `project`, `mult`, `form2`,
`decompose_pair`, `psi1`, `with_rescaled_basis`) state the algebra one
`Element` or `PairPoint` at a time, independently of the block actions that
src computes with: ℛ from the ±-decomposition, the pairing on 𝔤×𝔤 from two
forms, the product with its non-associative guard, the rescaled form.

Each view calls a block form on one point (a one-row block, `point_block`)
and returns a Point or an `AnalyticFunction`, a test-side function of one
point with its analytic gradient, so that a test can state an identity one
point at a time or hand a function to `gradient2`, which takes central
differences of any other function (src's ScalarFunctions carry no gradient:
theirs are the rows of `coord_gradients` and `family_gradient_stack`).  A stack
gives the bits of its points one at a time, so these views carry the bits
the stacked batteries must reproduce.  The records carry no arithmetic: an
oracle, or a test, that adds, scales or measures points does so on their
coordinate rows (`.coords`, `.vec()`).

`rk4_reference` is RK4 on a list of states that keeps the first non-finite
state, against which the driver's (states, note) contract is checked, and
`projector_partner` is Π as the coordinate projection through the basis;
`lax_field` turns the driver's partner into the field V ↦ [Z, V] that the
reference loop steps.  `rk4_trajectory` and `sequential_commutation` run the
t- and s-flows by RK4, a witness independent of the exact factorization
that `integrate` and `flow_commutation` use.  `toda_run` is the Toda run of `toda_suite`, the
exact t-flow on a one-block stack, from a start row.
`shuffled_and_rescaled` writes a spec in another basis of the same algebra.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from toda2 import AlgebraError, Element, PairPoint, spec_to_document
from toda2.algebra import bracket_blocks, mult_blocks
from toda2.flows import Trajectory, _partner, factor_states, field_rows, rk4_states, whole_steps
from toda2.invariants import family_names, family_values
from toda2.invariants import pullback_gradients, trace_gradients, trace_values
from toda2.poisson import _gradient_blocks, block_field

FD_STEP = 1e-5


def zero(alg):
    return Element(alg, np.zeros(alg.dim))


def bracket(x, y):
    """Lie bracket [x, y] through the structure constants."""
    return Element(x.alg, bracket_blocks(x.alg, x.coords, y.coords))


def form(x, y):
    """Invariant trace form ⟨x, y⟩ = Tr(xy) through the Gram matrix."""
    return float(x.coords @ x.alg.gram @ y.coords)


def project(x, plus):
    """Projection onto 𝔤_{≥0} (plus) or onto 𝔤_{<0}."""
    return Element(x.alg, np.where((x.alg.degrees >= 0) == plus, x.coords, 0.0))


def mult(x, y):
    """Matrix product xy; AlgebraError on a non-associative spec."""
    return Element(x.alg, mult_blocks(x.alg, x.coords, y.coords))


def form2(p, q):
    """The pairing ⟨(x₁,y₁),(x₂,y₂)⟩₂ = ⟨x₁,x₂⟩ − ⟨y₁,y₂⟩."""
    return form(p.x, q.x) - form(p.y, q.y)


def decompose_pair(p):
    """Split p into its diagonal plus-part and its 𝔤₋×𝔤₊ minus-part."""
    xp, xm = project(p.x, True).coords, project(p.x, False).coords
    yp, ym = project(p.y, True).coords, project(p.y, False).coords
    diag = xp + ym
    return (PairPoint.from_vec(p.alg, np.concatenate([diag, diag])),
            PairPoint.from_vec(p.alg, np.concatenate([xm - ym, yp - xp])))


def psi1(m):
    """ψ₁(x, y) = x − y."""
    return Element(m.alg, m.x.coords - m.y.coords)


def point_block(p):
    """The coordinate block of a point: (1, dim) for an Element, (2, dim) for a pair."""
    return p.vec().reshape(-1, p.alg.dim)


def with_rescaled_basis(spec, s):
    """The same algebra with its basis scaled by √s, so the trace form scales by s."""
    if not (np.isfinite(s) and s > 0):
        raise AlgebraError(f"with_rescaled_basis: scale must be finite and > 0, got {s}")
    r = float(np.sqrt(s))
    return replace(spec, name=f"{spec.name}@scale{s:g}", basis=spec.basis * r,
                   e_coords=spec.e_coords / r, h_coords=spec.h_coords / r)


def shuffled_and_rescaled(alg, rng):
    """The spec document with its basis order shuffled and each basis vector
    rescaled by a factor in [0.5, 2]: the same algebra in another basis."""
    perm, f = rng.permutation(alg.dim), rng.uniform(0.5, 2.0, alg.dim)
    doc = spec_to_document(alg)
    doc.update(basis=(alg.basis[perm] * f[:, None, None]).tolist(),
               degrees=alg.degrees[perm].tolist(),
               e_coords=(alg.e_coords[perm] / f).tolist(),
               h_coords=(alg.h_coords[perm] / f).tolist())
    return doc


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


@dataclass(frozen=True)
class AnalyticFunction:
    """A scalar function of one point record with its analytic gradient,
    taken with respect to the point's own pairing (⟨·,·⟩ on 𝔤, ⟨·,·⟩₂ on 𝔤×𝔤)."""

    name: str
    evaluator: Callable
    gradient: Callable

    def __call__(self, m):
        return float(self.evaluator(m))


def gradient2(F, m, step=FD_STEP):
    """Gradient of F at m: analytic for an AnalyticFunction, else central
    differences."""
    if isinstance(F, AnalyticFunction):
        return F.gradient(m)
    partials = _fd_partials(F, m, step).reshape(point_block(m).shape)
    return type(m).from_vec(m.alg, _gradient_blocks(m.alg, partials).ravel())


def field_at(which, m, g):
    """X(m) of bracket `which` for the gradient g at one point: the block field
    on one-point blocks, after its capability checks."""
    X = block_field(which, m.alg, len(point_block(m)))(
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
    return AnalyticFunction(name, lambda m: pairing(p, m), lambda m: p)


def trace_function(alg, i):
    """P_i(x) = Tr(x^{i+1})/(i+1) on single Elements, gradient ĝ(x^i)."""
    return AnalyticFunction(
        f"P_{i}",
        lambda x: float(trace_values(alg, x.coords, i)),
        lambda x: Element(alg, trace_gradients(alg, x.coords, i)),
    )


def pullback(alg, i, lam):
    """P_i∘ψ_λ as a pair function: m ↦ P_i(λx − y), gradient (λ∇P_i(w), ∇P_i(w))."""
    return AnalyticFunction(
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


def lax_field(partner):
    """V ↦ [Z, V] = ZV − VZ with Z = partner(V), for a partner that
    `rk4_states` takes."""

    def field(V):
        Z = partner(V)
        return Z @ V - V @ Z

    return field


def projector_partner(alg, block, plus):
    """Z = Π±(V[block]) as the n²×n² matrix of `project(·, plus)` on
    flattened matrices, read through the basis and its pseudo-inverse."""
    n = alg.matrix_size
    flat = alg.basis.reshape(alg.dim, -1).T
    P = (flat * ((alg.degrees >= 0) == plus)) @ np.linalg.pinv(flat)

    def partner(V):
        lead = V.shape[:-3]
        return (P @ V[..., block, :, :].reshape(*lead, n * n, 1)).reshape(*lead, 1, n, n)

    return partner


def rk4_trajectory(cfg, m0):
    """The RK4 run of the configured field from m0 as a Trajectory, with the
    family evaluated on every state; truncated before a non-finite state."""
    alg = m0.alg
    stack, note = rk4_states(_partner(alg, cfg.field, cfg.i, cfg.lam), alg.to_matrices(m0.vec()),
                             cfg.dt, cfg.n_steps)
    states = alg.to_coords(stack)
    return Trajectory(alg=alg, times=np.arange(len(states)) * cfg.dt, states=states,
                      conserved=family_values(alg, states),
                      conserved_names=tuple(family_names(alg)), note=note)


def toda_run(alg, x0, dt=1e-3, T=1.0):
    """The Toda run from the coordinate row x0 (dim,): the t-flow on the
    one-block stack (A₀), as coordinate rows (N, dim), and its note."""
    stack, note = factor_states(alg, "t", alg.to_matrices(x0), dt, whole_steps(dt, T))
    return alg.to_coords(stack), note


def sequential_commutation(m0, dt, n_steps):
    """The commutation defect from four runs of the reference loop: Φ_s then
    Φ_t, and Φ_t then Φ_s, each field on its own."""
    alg = m0.alg
    ft, fs = (lax_field(_partner(alg, f)) for f in "ts")

    def run(f, V):
        return rk4_reference(f, V, dt, n_steps)[-1]

    V0 = alg.to_matrices(m0.vec())
    ab, ba = run(ft, run(fs, V0)), run(fs, run(ft, V0))
    if not (np.all(np.isfinite(ab)) and np.all(np.isfinite(ba))):
        return math.inf
    return float(np.abs(alg.to_coords(ab) - alg.to_coords(ba)).max())
