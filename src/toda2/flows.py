"""Time integration of the 2-Toda Lax flows with conservation monitoring.

The two defining flows on T_P are

    t-flow: d(L,M)/dt = [(L₊, L₊), (L, M)],
    s-flow: d(L,M)/ds = [(M₋, M₋), (L, M)],

plus the quadratic-bracket fields of the pencil pullbacks P_i∘φ_λ on
associative algebras and the linear pencil fields used as cross-checks.
Runs work on the stack of n×n matrices (L, M) of the defining representation;
coordinates are converted to matrices once at the start of a run and back
once at the end (`AlgebraSpec.to_matrices`/`to_coords`).

The t- and s-flows are Adler–Kostant–Symes flows and are solved exactly
(Kostant 1979, Symes 1980/82; Ueno–Takasaki 1984 for the 2-Toda lattice):

    t-flow: exp(tL₀) = n₋b₊,   (L, M)(t) = b₊(L₀, M₀)b₊⁻¹,
    s-flow: exp(−sM₀) = n₋b₊,  (L, M)(s) = n₋⁻¹(L₀, M₀)n₋,

with n₋ unit lower-triangular and b₊ upper-triangular, in an order of the
matrix indices that makes 𝔤_{≥0} upper-triangular (`_triangular_order`).
A stretch samples τ = k·h, k = 1…m: one stacked `_expm` of the anchors
exp(2^j·hX), one matrix product per sample for exp(khX) (`_grid_expm`), the
unpivoted `_lu` and a conjugation give every sample, and a new stretch
starts from the last state where τ‖X‖₁ would pass _FACTOR_NORM.  A leading
minor of exp(τX) that changes sign between two pivot tests is a pole of the
flow; the run stops before it, with a note.  The pivots are tested at every
sample, and on a finer grid where the exponents of a minor could drift apart
by more than _TURN between samples.
`factor_states` is the one solver of both flows and of the classical Toda
run of the Toda battery (`checks.check_toda_battery`), which is the t-flow
on the one-block stack (A).  The pencil fields are integrated by a
fixed-step RK4 driver of Lax equations (`rk4_states`), with no re-projection onto the phase space: tangency drift is
a measured signal, not something to suppress.  Both engines return
(states, note, work counts), so `integrate` only picks one; it keeps the
counts on the `Trajectory`, where no report reads them.

Every field is one matrix commutator V ↦ [Z, V] = ZV − VZ on a (k, n, n)
stack; only its partner Z = Z(V) differs:

    t-flow      Z = Π₊L                          (the Toda field on (A): Π₊A)
    s-flow      Z = Π₋M
    pencil      Z = s·((R − 1)p, (R + 1)p),      p = ĝ((λL − M)^k)

with R = Π₊ − Π₋ and ĝ the trace-form projection onto 𝔤; the quadratic
pencil field takes k = i + 1 and s = 1, the linear one k = i and
s = ½(λ − 1).  Π± keeps or zeroes whole matrix entries: Π±(V) = V ∘ m±, with
(m₊, m₋) = `entry_masks`.  The four field names are the one tuple `FIELDS`.
`field_rows` evaluates the commutator at a stack of coordinate rows; one
point is a one-row stack.
"""
from __future__ import annotations

import bisect
import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import AlgebraSpec, read_only
from .invariants import family_names, family_values, require_generator_label
from .poisson import CapabilityError, PhaseSpace, PreconditionError, brackets
from .rmatrix import PairPoint

__all__ = [
    "MAX_STEPS",
    "FIELDS",
    "FlowConfig",
    "Trajectory",
    "field_rows",
    "entry_masks",
    "whole_steps",
    "rk4_states",
    "factor_states",
    "integrate",
    "flow_commutation",
    "trajectory_to_csv",
    "pencil_eigenvalue_drift",
    "relative_drift",
]

# a run keeps every state, +16 KB per sample on gl9, most of it the family's
# pencil powers (the README gives the peak of `flow run` at this bound)
MAX_STEPS = 10_000
# the field names: the exactly solved t- and s-flows, then the pencil fields
FIELDS = ("t", "s", "quadratic", "linear")


# --------------------------------------------------------------------------
# the Lax field on matrix stacks
# --------------------------------------------------------------------------


def entry_masks(alg: AlgebraSpec) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, n) 0/1 masks (m₊, m₋) of the entries the basis vectors
    of 𝔤_{≥0} and of 𝔤_{<0} carry, cached per spec; Π±(V) = V ∘ m± is exact
    on the span when no entry is carried by both (sl, gl, so5: degree j − i),
    and any other spec is refused."""

    def build():
        support, plus = alg.basis != 0.0, alg.degrees >= 0
        here, there = support[plus].any(axis=0), support[~plus].any(axis=0)
        if np.any(here & there):
            raise CapabilityError(f"{alg.name} is not graded entry by entry: the "
                                  f"Lax flows cannot project onto 𝔤_{{≥0}} and 𝔤_{{<0}}")
        return read_only(here.astype(float)), read_only(there.astype(float))

    return alg.memo("entry-masks", build)


def _partner(alg: AlgebraSpec, field: str, i: int = 0, lam: float = 0.0) -> Callable:
    """The partner Z(V) of the t-, s-, quadratic or linear pencil field on (L, M).

    The t- and s-partners are the entry masks Π₊L = L ∘ m₊ and Π₋M = M ∘ m₋,
    one matrix for all blocks of each stack entry.  A pencil partner is
    Z = s·((R − 1)p, (R + 1)p), p = ĝ(W^k), W = λL − M, with k = i + 1,
    s = 1 (quadratic; on gl, ĝ is the coordinate map) or k = i, s = ½(λ−1)
    (linear), less its centre part: kept, that part lets RK4 past a gl(2)
    quadratic blow-up (i = 1, λ = 0) settle on an exactly traceless
    M, where the field vanishes, instead of ending at a non-finite state."""
    if field not in FIELDS:
        raise PreconditionError(f"unknown field selector {field!r}")
    if field in FIELDS[:2]:
        block = FIELDS.index(field)
        mask = entry_masks(alg)[block]
        return lambda V: V[..., block:block + 1, :, :] * mask
    if field == "quadratic" and field not in brackets(alg):
        raise CapabilityError(f"quadratic pencil field needs an associative algebra; "
                              f"{alg.name} has associative=False")
    power, s = (i + 1, 1.0) if field == "quadratic" else (i, 0.5 * (lam - 1.0))
    R = alg.splitting_signs
    lo, hi = R - 1.0, R + 1.0

    def partner(V: np.ndarray) -> np.ndarray:
        # W keeps a block axis of length one, so p is one row (…, 1, dim)
        p = alg.gradient_from_matrix(
            np.linalg.matrix_power(lam * V[..., :1, :, :] - V[..., 1:, :, :], power))
        Z = alg.strip_centre(np.concatenate([lo * p, hi * p], axis=-2))
        return s * alg.to_matrices(Z.reshape(*Z.shape[:-2], -1))

    return partner


def field_rows(alg: AlgebraSpec, field: str, V: np.ndarray, i: int = 0,
               lam: float = 0.0) -> np.ndarray:
    """The t-, s-, quadratic or linear pencil field at coordinate rows V (…, 2·dim);
    the "t" field on rows (…, dim) of 𝔤 is the Toda field [A₊, A]."""
    V = alg.to_matrices(V)
    Z = _partner(alg, field, i, lam)(V)
    return alg.to_coords(Z @ V - V @ Z)


# --------------------------------------------------------------------------
# configuration and the RK4 integrator
# --------------------------------------------------------------------------


def whole_steps(dt: float, T: float) -> int:
    """The number of steps dt in the horizon T, which must be a whole number
    of at most MAX_STEPS."""
    if not (dt > 0):
        raise PreconditionError(f"dt must be positive, got {dt}")
    if T < dt:
        raise PreconditionError(f"horizon T = {T} shorter than dt = {dt}")
    ratio = T / dt
    if not (np.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 * ratio):
        raise PreconditionError(
            f"horizon T = {T} is not a whole number of steps dt = {dt}"
        )
    n = int(round(ratio))
    if n > MAX_STEPS:
        raise PreconditionError(f"T/dt = {n} steps; a flow run takes at most {MAX_STEPS}")
    return n


@dataclass(frozen=True)
class FlowConfig:
    """Field selector, sample step dt and horizon T (the RK4 step of the
    pencil fields), and the pencil's generator label and λ; checked here,
    but for i being a label of the algebra (`integrate` asks it)."""

    field: str = "t"                 # one of FIELDS
    dt: float = 1e-3
    T: float = 1.0
    i: Optional[int] = None          # generator label for pencil fields
    lam: Optional[float] = None      # λ for pencil fields

    def __post_init__(self):
        whole_steps(self.dt, self.T)
        if self.field in FIELDS[:2] and (self.i, self.lam) != (None, None):
            raise PreconditionError(f"the {self.field}-flow takes no generator label i or λ")
        if self.lam is not None and not math.isfinite(self.lam):
            raise PreconditionError(f"λ must be finite, got {self.lam}")
        if self.field not in FIELDS:
            raise PreconditionError(f"unknown field selector {self.field!r}")
        if self.field not in FIELDS[:2] and (self.i is None or self.lam is None):
            raise PreconditionError(f"{self.field} pencil field needs generator label i and λ")

    @property
    def n_steps(self) -> int:
        return whole_steps(self.dt, self.T)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Times, states (rows are vec(PairPoint)), and conserved-family values,
    with the work counts of the engine that ran it, which no report states:
    samples, pivot tests and factorizations of an exact run
    (`factor_states`), steps and field evaluations of an RK4 run
    (`rk4_states`)."""

    alg: AlgebraSpec
    times: np.ndarray                  # (N,)
    states: np.ndarray                 # (N, 2·dim)
    conserved: np.ndarray              # (N, card)
    conserved_names: tuple[str, ...]
    note: str = ""                     # why the run stopped early, if it did
    work: dict = dataclasses.field(default_factory=dict)

    @property
    def truncated(self) -> bool:
        return bool(self.note)

    def conservation_drift(self) -> np.ndarray:
        """Per-function `relative_drift` of the conserved family over the run."""
        return relative_drift(self.conserved, self.note)

    def tangency_drift(self, ps: PhaseSpace) -> float:
        return float(ps.membership_residuals(self.states).max())


def relative_drift(values: np.ndarray, note: str) -> np.ndarray:
    """Max relative drift |F(t) − F(0)| / (1 + |F(0)|) of each column F of
    `values` (N, k), k functions on the N samples of a run; NaN, which fails
    a residual check, for a run that stopped early (its `note` says where),
    as its drift over the horizon was not measured."""
    f0 = values[0]
    if note:
        return np.full(f0.shape, np.nan)
    return np.abs(values - f0).max(axis=0) / (1.0 + np.abs(f0))


def rk4_states(partner: Callable, v0: np.ndarray, dt: float,
               n_steps: int) -> tuple[np.ndarray, str, dict]:
    """Fixed-step RK4 run of the Lax equation V̇ = [Z(V), V] from a stack
    v0 (…, k, n, n); partner(V) returns Z(V), one matrix for all blocks of a
    stack entry or one per block.

    Returns the states stacked along a new first axis, a note and the work
    counts, as `factor_states` does: a run that reaches a non-finite state
    ends before it, and the note names its step (empty when there is
    none).  The counts are the steps made, the one that reached the
    non-finite state included, and their four field evaluations each.
    """
    def field(V):
        Z = partner(V)
        return Z @ V - V @ Z

    states = np.empty((n_steps + 1, *np.shape(v0)))
    states[0] = v0
    v = states[0]
    note, steps = "", n_steps
    # overflow on the way to a detected blow-up is expected, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            k1 = field(v)
            k2 = field(v + 0.5 * dt * k1)
            k3 = field(v + 0.5 * dt * k2)
            k4 = field(v + dt * k3)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(v).all():
                states, steps = states[:step], step
                note = f"non-finite state at step {step} (t = {step * dt:g}); trajectory truncated"
                break
            states[step] = v
    return states, note, {"steps": steps, "field_evals": 4 * steps}


# --------------------------------------------------------------------------
# the exact t- and s-flows: factorization of exp(τX)
# --------------------------------------------------------------------------

# largest τ‖X‖₁ of one factorization: a longer stretch of samples starts a
# new factorization from its last kept state, so that no pivot of exp(τX) is
# lost to cancellation (one factorization of exp(tL₀) on the sl2 seed point
# loses its second pivot near t = 12.6)
_FACTOR_NORM = 1.0
# most samples m of one stretch: its temporaries peak at 7 (m, n, n) stacks,
# its 2 of states included, and ⌊log₂ m⌋ + 1 = 10 anchors exp(2^j·hX) give
# every exp(khX) (`_grid_expm`)
_STRETCH_SAMPLES = 512
# largest τ·Σ|λ(X)| between two pivot tests: no two terms exp(τμ) of a minor
# of exp(τX) turn by more than a radian against each other (a sign change
# takes π) or change their ratio by more than e.  A test, not a certificate:
# two real zeros closer than its step can still hide
_TURN = 1.0
# Taylor degree of `_expm` at ‖B‖₁ < ½, where the tail is below 2⁻¹⁵/15! ≈
# 2.3e-17; a stack of smaller scaled norm θ takes the least degree d whose
# tail θ^(d+1)/(d+1)! stays below that bound: _TAYLOR_NORMS[d − 1] is the
# largest θ of degree d (degree 4 at θ = 1e-3, 12 at θ = ¼)
_TAYLOR_DEGREE = 14
_TAYLOR_NORMS = tuple((math.factorial(d + 1) * 0.5**15 / math.factorial(15)) ** (1.0 / (d + 1))
                      for d in range(1, _TAYLOR_DEGREE + 1))
# largest |log det exp(τX) − τ tr X| of a factorization taken as exact
_DET_TOL = 1e-8


def _expm(A: np.ndarray) -> np.ndarray:
    """exp of each matrix of an (m, n, n) stack: a Taylor series on A/2^s,
    one s for the whole stack so that every ‖A/2^s‖₁ < ½, of the degree
    that the stack's largest ‖A/2^s‖₁ needs (`_TAYLOR_NORMS`), then s
    squarings."""
    norm = float(np.abs(A).sum(axis=-2).max())
    _, e = math.frexp(norm)                           # largest ‖A_k‖₁ < 2^e
    s = max(0, e + 1)
    degree = min(_TAYLOR_DEGREE, 1 + bisect.bisect_left(_TAYLOR_NORMS, norm / 2.0**s))
    terms = A / (2.0**s * np.arange(degree, 0, -1.0))[:, None, None, None]   # B/d, …, B/1
    eye = np.eye(A.shape[-1])
    E = eye + terms[0]
    for term in terms[1:]:                            # Horner: I + B/k·(…)
        E = term @ E
        E += eye
    for _ in range(s):
        E = E @ E
    return E


def _grid_expm(X: np.ndarray, h: float, m: int) -> np.ndarray:
    """exp(khX), k = 1…m, as an (m, n, n) stack: one stacked `_expm` of the
    anchors exp(2^j·hX), j = 0…⌊log₂ m⌋, then one matrix product per
    sample.  exp(khX) is the product of the anchors of k's set bits, formed
    in ⌊log₂ m⌋ stacked products, so each is a product of at most
    ⌊log₂ m⌋ + 1 accurate factors (not exp(hX) multiplied k times, whose
    error grows like k·ε); a one-sample grid is its one anchor."""
    anchors = _expm(np.ldexp(h, np.arange(m.bit_length()))[:, None, None] * X)
    E = anchors[:1]
    for j in range(1, len(anchors)):   # exp((c + i)hX) = exp(i·hX)·exp(c·hX), c = 2^j
        c = 1 << j
        E = np.concatenate([E, anchors[j:j + 1], E[:min(c - 1, m - c)] @ anchors[j]])
    return E


def _lu(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E = n₋b₊ for each matrix of a stack, without pivoting: n₋ unit
    lower-triangular, b₊ upper-triangular.  A vanishing pivot gives
    non-finite entries, not an error."""
    size = E.shape[-1]
    lower, upper = np.zeros_like(E), E.copy()
    for k in range(size - 1):
        lower[..., k + 1:, k] = upper[..., k + 1:, k] / upper[..., k, k, None]
        upper[..., k + 1:, k + 1:] -= lower[..., k + 1:, k, None] * upper[..., None, k, k + 1:]
    lower += np.eye(size)
    return lower, np.triu(upper)


def _triangular_order(alg: AlgebraSpec) -> np.ndarray:
    """An order of the matrix indices that puts the entries of 𝔤_{≥0} on or
    above the diagonal and those of 𝔤_{<0} below it, cached per spec (the
    identity for the builders and so5).  The factor path splits gl(n) as upper ⊕
    strictly lower triangular, so it runs the flows in this order, and a
    spec that has none is refused."""

    def build():
        plus, minus = (m > 0 for m in entry_masks(alg))
        before = plus | minus.T     # before[i, j]: i must come before j
        np.fill_diagonal(before, False)
        order, left = [], list(range(alg.matrix_size))
        free = [] if np.any(np.diagonal(minus)) else left
        while free:     # the first index that no index left must precede
            free = [j for j in left if not before[left, j].any()]
            order += free[:1]
            left = [j for j in left if j not in order]
        if left:
            raise CapabilityError(
                f"{alg.name}: no order of the matrix indices makes 𝔤_{{≥0}} "
                f"upper-triangular and 𝔤_{{<0}} strictly lower-triangular: "
                f"exp(τX) = n₋b₊ does not split the t- and s-flows")
        return read_only(np.array(order))

    return alg.memo("triangular-order", build)


def _factor_stretch(X: np.ndarray, V: np.ndarray, block: int, h: float,
                    m: int) -> tuple[np.ndarray, str]:
    """(L, M)(τ) at the times τ = k·h, k = 1…m, from V = (L, M), one stacked pass.

    exp(τX) = n₋b₊, and block 0, the t-flow (X = L), gives (L, M)(τ) =
    b₊(L, M)b₊⁻¹; block 1, the s-flow (X = −M), (L, M)(τ) = n₋⁻¹(L, M)n₋.
    The flow has a pole where a leading principal minor of exp(τX), a
    cumulative product of the pivots, changes sign.  The product of all
    pivots is det exp(τX) = exp(τ tr X) whatever the minors do, so it
    witnesses that the factorization is exact to _DET_TOL.  The states stop
    before the first time whose pivots are not all positive, or not
    witnessed; the second value says why: "pole", "inexact" or "".
    """
    lower, upper = _lu(_grid_expm(X, h, m))
    taus = h * np.arange(1, m + 1)
    pivots = np.diagonal(upper, axis1=-2, axis2=-1)
    exact = np.abs(np.log(np.abs(pivots)).sum(axis=-1) - taus * np.trace(X)) <= _DET_TOL
    good = exact & np.all(pivots > 0, axis=-1)
    kept = len(taus) if good.all() else int(np.argmin(good))
    # g and g⁻¹ through the inverse of an upper-triangular factor with a
    # positive finite diagonal, which LAPACK never finds singular
    if block == 0:
        g = upper[:kept]
        gi = np.linalg.inv(g)
    else:
        gi = lower[:kept]
        g = np.linalg.inv(gi.swapaxes(-1, -2)).swapaxes(-1, -2)
    states = g[:, None] @ V @ gi[:, None]
    stop = "" if kept == len(taus) else ("pole" if exact[kept] else "inexact")
    return states, stop


def factor_states(alg: AlgebraSpec, field: str, V0: np.ndarray, dt: float,
                  n_steps: int) -> tuple[np.ndarray, str, dict]:
    """The t- or s-flow from the stack V0 = (L, M), or the t-flow from the
    one-block stack (L), sampled at k·dt, k = 0…n_steps, solved exactly with
    the matrix indices taken in the order `_triangular_order(alg)`.

    A stretch of samples whose τ‖X‖₁ would pass _FACTOR_NORM, or that would
    hold more than _STRETCH_SAMPLES samples, starts again from its last
    state, with at least one sample per stretch.  Every minor of exp(τX) is
    a sum of exponentials whose exponents differ by at most Ω = Σ|λ(X)| per
    unit τ, and the flow keeps the spectrum of X: where dt·Ω passes _TURN
    the run steps on a grid of q = ⌈dt·Ω/_TURN⌉ points per sample, tests the
    pivots at each and keeps every q-th state.  A real spectrum needs the
    grid too, since a real exponential sum can change sign twice within one
    sample.  The grid holds at most MAX_STEPS points.

    Returns the states along a new first axis, a note, empty unless the
    run stops before n_steps: at a pole, at a sample whose factorization is
    not exact, at a non-finite state, or where the grid runs out, and the
    work counts: the samples kept after the start, the pivot tests (the
    grid points whose exp(τX) was factored) and the factorizations (the
    stretches).
    """
    order = _triangular_order(alg)
    V0 = V0[..., order[:, None], order]
    # the t-flow factors exp(τL), the s-flow exp(−τM)
    block, sign = (0, 1.0) if field == "t" else (1, -1.0)
    X = sign * V0[block]
    # near and past a pole the factors overflow or divide by a vanishing
    # pivot: the run stops there, and numpy's warnings are expected
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # a non-finite start stops at its first sample, whatever the grid
        turn = dt * float(np.abs(np.linalg.eigvals(X)).sum()) / _TURN \
            if np.isfinite(X).all() else 0.0
        q = max(1, math.ceil(turn)) if turn <= MAX_STEPS else MAX_STEPS + 1
        h, n = dt / q, min(n_steps, MAX_STEPS // q) * q
        states = np.empty((n + 1, *V0.shape))
        states[0] = V0
        k, stop, tests, stretches = 0, "", 0, 0
        while k < n and not stop:
            V = states[k]
            rate = h * float(np.abs(V[block]).sum(axis=0).max())
            m = min(n - k, _STRETCH_SAMPLES)
            if rate * m > _FACTOR_NORM:
                m = max(1, int(_FACTOR_NORM / rate))
            stretch, stop = _factor_stretch(sign * V[block], V, block, h, m)
            tests, stretches = tests + m, stretches + 1
            finite = np.isfinite(stretch).all(axis=(1, 2, 3))
            if not finite.all():
                stretch, stop = stretch[:int(np.argmin(finite))], "non-finite"
            states[k + 1:k + 1 + len(stretch)] = stretch
            k += len(stretch)
    back = np.argsort(order)
    states = states[:k + 1:q][..., back[:, None], back]
    k = len(states) - 1
    at = f"step {k + 1} (t = {(k + 1) * dt:g})"
    note = {
        "": "",
        "pole": f"pole between t = {k * dt:g} and t = {(k + 1) * dt:g} (steps {k} and {k + 1})",
        "inexact": f"exp(τX) cannot be factored exactly at {at}",
        "non-finite": f"non-finite state at {at}",
        "unresolved": f"step too large to resolve poles at {at}",
    }[stop or ("unresolved" if k < n_steps else "")]
    work = {"samples": k, "pivot_tests": tests, "factorizations": stretches}
    return states, note and note + "; trajectory truncated", work


# --------------------------------------------------------------------------
# trajectories
# --------------------------------------------------------------------------


def integrate(cfg: FlowConfig, m0: PairPoint, conserved: bool = True) -> Trajectory:
    """A run of the configured flow sampled every dt: the t- and s-flows
    solved exactly by factorization, the pencil fields by fixed-step RK4.
    A run that reaches a pole or a non-finite state is truncated before it,
    with a note.

    The whole family is evaluated on the state stack in one batch, or
    nothing is when `conserved` is false (False, [] or None alike).
    """
    alg = m0.alg
    V0 = alg.to_matrices(m0.vec())
    if cfg.field in FIELDS[:2]:
        stack, note, work = factor_states(alg, cfg.field, V0, cfg.dt, cfg.n_steps)
    else:
        require_generator_label(alg, cfg.i)
        stack, note, work = rk4_states(_partner(alg, cfg.field, cfg.i, cfg.lam), V0, cfg.dt,
                                       cfg.n_steps)
    states = alg.to_coords(stack)
    names, values = (), np.empty((len(states), 0))
    if conserved:
        names = tuple(family_names(alg))
        # the kept states of a run that blew up may still overflow the
        # pencil powers: the report carries the truncation
        with np.errstate(over="ignore", invalid="ignore"):
            values = family_values(alg, states)
    return Trajectory(
        alg=alg,
        times=np.arange(len(states)) * cfg.dt,
        states=states,
        conserved=values,
        conserved_names=names,
        note=note,
        work=work,
    )


def flow_commutation(m0: PairPoint, dt: float = 1e-3, n_steps: int = 100) -> float:
    """‖(Φ_t∘Φ_s − Φ_s∘Φ_t)(m0)‖∞ for the t- and s-flows run n_steps of dt each.

    Each leg is the exact factorization solution, so the defect is roundoff;
    a leg that meets a pole or a non-finite state makes it infinite.
    """
    alg = m0.alg
    whole_steps(dt, dt * n_steps)

    def leg(field, V):
        states, note, _ = factor_states(alg, field, V, dt, n_steps)
        return None if note else states[-1]

    V0 = alg.to_matrices(m0.vec())
    ends = []
    for first, second in ("st", "ts"):            # Φ_t∘Φ_s, then Φ_s∘Φ_t
        V = leg(first, V0)
        V = None if V is None else leg(second, V)
        if V is None:
            return math.inf     # a leg blew up: no finite defect to measure
        ends.append(alg.to_coords(V))
    return float(np.abs(ends[0] - ends[1]).max())


# --------------------------------------------------------------------------
# diagnostics and export
# --------------------------------------------------------------------------


def pencil_eigenvalue_drift(traj: Trajectory, lam0: float) -> float:
    """Max eigenvalue movement of λ₀L − M along the trajectory (isospectrality)."""
    V = traj.alg.to_matrices(traj.states)
    w = np.sort_complex(np.linalg.eigvals(lam0 * V[:, 0] - V[:, 1]))
    return float(np.abs(w - w[0]).max())


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """CSV export: header "t, x_1..x_dim, y_1..y_dim, F_0_1, …", 17 digits."""
    dim = traj.alg.dim
    header = (
        ["t"]
        + [f"x_{k + 1}" for k in range(dim)]
        + [f"y_{k + 1}" for k in range(dim)]
        + list(traj.conserved_names)
    )
    rows = np.hstack(
        [traj.times[:, None], traj.states, traj.conserved]
    )
    lines = [", ".join(header)]
    for row in rows:
        lines.append(", ".join(format(v, ".17g") for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
