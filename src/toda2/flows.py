"""Time integration of the 2-Toda Lax flows with conservation monitoring.

The two defining flows on T_P are

    t-flow: d(L,M)/dt = [(L₊, L₊), (L, M)],
    s-flow: d(L,M)/ds = [(M₋, M₋), (L, M)],

plus the quadratic-bracket fields of the pencil pullbacks P_i∘φ_λ on
associative algebras and the linear pencil fields used as cross-checks.
Integration is fixed-step RK4 with no re-projection onto the phase space:
tangency drift is a measured signal, not something to suppress.  RK4 runs on
the stack of n×n matrices (L, M) of the defining representation; coordinates
are converted to matrices once at the start of a run and back once at the end
(`AlgebraSpec.to_matrices`/`to_coords`).

Every field is one matrix commutator V ↦ [Z, V] = ZV − VZ on a (k, n, n)
stack (`lax_field`); only its partner Z = Z(V) differs:

    t-flow      Z = Π₊L
    s-flow      Z = Π₋M
    Toda        Z = Π₊A                          (`toda.py`, one block)
    quadratic   Z = (−2Π₋W, 2Π₊W),               W = (λL − M)^{i+1}
    linear      Z = ½(λ−1)(RP − P, RP + P),      P = ĝ((λL − M)^i)

with R = Π₊ − Π₋ and ĝ the trace-form projection onto 𝔤.  Π± keeps or zeroes
whole matrix entries: Π(V) = V ∘ m, m the region's `entry_mask`.
`field_rows` evaluates the same commutator at a stack of coordinate rows; one
point is a one-row stack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import MINUS, PLUS, AlgebraSpec
from .invariants import family, family_values, require_generator_label
from .poisson import CapabilityError, PhaseSpace, PreconditionError, ScalarFunction
from .rmatrix import PairPoint

__all__ = [
    "MAX_STEPS",
    "FlowConfig",
    "Trajectory",
    "lax_field",
    "field_rows",
    "entry_mask",
    "projected_partner",
    "whole_steps",
    "rk4_states",
    "integrate",
    "flow_commutation",
    "trajectory_to_csv",
    "pencil_eigenvalue_drift",
]

# RK4 keeps every state: `flow run` on gl9 at this bound (dt 1e-4, T 1) peaks
# at 214 MB resident in 2.6 s, +16 KB per step; `flow commutation` keeps one
# stacked run of both orders at a time (75 MB on gl9)
MAX_STEPS = 10_000


# --------------------------------------------------------------------------
# the Lax field on matrix stacks
# --------------------------------------------------------------------------


def lax_field(partner: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """V ↦ [Z, V] = ZV − VZ on a (…, k, n, n) stack, with Z = partner(V) one
    matrix for all blocks (…, 1, n, n) or one per block (…, k, n, n)."""

    def field(V: np.ndarray) -> np.ndarray:
        Z = partner(V)
        return Z @ V - V @ Z

    return field


def entry_mask(alg: AlgebraSpec, region: str) -> np.ndarray:
    """Read-only (n, n) 0/1 mask of the entries the basis vectors of `region`
    carry, cached per spec; Π_region(V) = V ∘ mask is exact on the span when
    no entry is carried inside and outside the region (sl, gl, so5: degree
    j − i), and any other spec is refused."""

    def build():
        support, inside = alg.basis != 0.0, alg.mask(region)
        here = support[inside].any(axis=0)
        if np.any(here & support[~inside].any(axis=0)):
            raise CapabilityError(f"{alg.name} is not graded entry by entry: the "
                                  f"Lax flows cannot project onto degree {region}")
        return here.astype(float)

    return alg.memo(("entry-mask", region), build)


def projected_partner(block: int, mask: np.ndarray) -> Callable:
    """Z = V[block] ∘ mask, one matrix for all blocks of each stack entry; one
    (n, n) `entry_mask` for all entries, or one per entry (…, 1, n, n)."""

    def partner(V: np.ndarray) -> np.ndarray:
        return V[..., block:block + 1, :, :] * mask

    return partner


def _partner(alg: AlgebraSpec, field: str, i: int = 0, lam: float = 0.0) -> Callable:
    """The partner Z of the t-, s-, quadratic or linear pencil field on (L, M).

    The t- and s-partners are Π₊L = L ∘ m₊ and Π₋M = M ∘ m₋, entry masks; on
    one block the t-partner is the Toda partner Π₊A.
    A pencil partner is Z = s·((R − 1)p, (R + 1)p) with p the coordinates of
    W^{i+1} (quadratic: s = 1) or ĝ(W^i) (linear: s = ½(λ−1)),
    W = λL − M, less its centre part: kept, that part lets RK4 past a gl(2)
    quadratic blow-up (i = 1, λ = 0) settle on an exactly traceless M, where
    the field vanishes, instead of ending at a non-finite state."""
    if field == "t":
        return projected_partner(0, entry_mask(alg, PLUS))
    if field == "s":
        return projected_partner(1, entry_mask(alg, MINUS))
    if field == "quadratic":
        if not alg.associative:
            raise CapabilityError(
                f"quadratic pencil field needs an associative algebra; "
                f"{alg.name} has associative=False"
            )
        power, coords, s = i + 1, alg.to_coords, 1.0
    else:
        power, s = i, 0.5 * (lam - 1.0)

        def coords(W):
            return alg.gradient_from_matrix(W)[..., 0, :]
    lo, hi = alg.splitting_signs - 1.0, alg.splitting_signs + 1.0     # R − 1, R + 1

    def partner(V: np.ndarray) -> np.ndarray:
        # W keeps a block axis of length one, so each entry is one matrix
        p = coords(np.linalg.matrix_power(lam * V[..., :1, :, :] - V[..., 1:, :, :], power))
        Z = alg.strip_centre(np.stack([lo * p, hi * p], axis=-2))
        return s * alg.to_matrices(Z.reshape(*Z.shape[:-2], -1))

    return partner


def field_rows(alg: AlgebraSpec, field: str, V: np.ndarray, i: int = 0,
               lam: float = 0.0) -> np.ndarray:
    """The t-, s-, quadratic or linear pencil field at coordinate rows V (…, 2·dim);
    the "t" field on rows (…, dim) of 𝔤 is the Toda field [A₊, A]."""
    return alg.to_coords(lax_field(_partner(alg, field, i, lam))(alg.to_matrices(V)))


# --------------------------------------------------------------------------
# the integrator
# --------------------------------------------------------------------------


def _named_field(cfg: "FlowConfig",
                 alg: AlgebraSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The selected field on (2, n, n) stacks (L, M)."""
    if cfg.field not in ("t", "s", "quadratic", "linear"):
        raise PreconditionError(f"unknown field selector {cfg.field!r}")
    if cfg.field in ("quadratic", "linear"):
        if cfg.i is None or cfg.lam is None:
            raise PreconditionError(f"{cfg.field} pencil field needs generator label i and λ")
        require_generator_label(alg, cfg.i)
    return lax_field(_partner(alg, cfg.field, cfg.i, cfg.lam))


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
    """Field selector plus fixed-step RK4 parameters."""

    field: str = "t"                 # t | s | quadratic | linear
    dt: float = 1e-3
    T: float = 1.0
    i: Optional[int] = None          # generator label for pencil fields
    lam: Optional[float] = None      # λ for pencil fields

    def __post_init__(self):
        whole_steps(self.dt, self.T)

    @property
    def n_steps(self) -> int:
        return whole_steps(self.dt, self.T)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Times, states (rows are vec(PairPoint)), and conserved-family values."""

    alg: AlgebraSpec
    times: np.ndarray                  # (N,)
    states: np.ndarray                 # (N, 2·dim)
    conserved: np.ndarray              # (N, card)
    conserved_names: tuple[str, ...]
    truncated: bool = False
    note: str = ""

    def conservation_drift(self) -> np.ndarray:
        """Per-function max relative drift |F(t) − F(0)| / (1 + |F(0)|)."""
        f0 = self.conserved[0]
        dev = np.abs(self.conserved - f0[None, :]).max(axis=0)
        return dev / (1.0 + np.abs(f0))

    def tangency_drift(self, ps: PhaseSpace) -> float:
        return float(ps.membership_residuals(self.states).max())


# steps between finiteness tests; a non-finite entry stays non-finite, so the
# latest state tells for every state before it
_FINITE_EVERY = 64


def rk4_states(field: Callable[[np.ndarray], np.ndarray], v0: np.ndarray,
               dt: float, n_steps: int) -> np.ndarray:
    """Fixed-step RK4 run of v̇ = field(v) from the array v0.

    Returns the states stacked along a new first axis; a run that reaches a
    non-finite state ends there, with that state as its last entry.
    """
    states = np.empty((n_steps + 1, *np.shape(v0)))
    states[0] = v0
    v = states[0]
    half, sixth = 0.5 * dt, dt / 6.0
    # overflow on the way to a detected blow-up is expected, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            k1 = field(v)
            k2 = field(v + half * k1)
            k3 = field(v + half * k2)
            k4 = field(v + dt * k3)
            k = k1 + 2.0 * k2       # k1 + 2k2 + 2k3 + k4, left to right
            k += 2.0 * k3
            k += k4
            v = np.add(v, sixth * k, out=states[step])
            if (step % _FINITE_EVERY == 0 or step == n_steps) and not np.isfinite(v).all():
                finite = np.isfinite(states[:step + 1].reshape(step + 1, -1)).all(axis=1)
                return states[:int(np.argmin(finite)) + 1]
    return states


def integrate(cfg: FlowConfig, m0: PairPoint,
              conserved: Optional[list[ScalarFunction]] = None) -> Trajectory:
    """Fixed-step RK4 run; truncates with a diagnostic on non-finite states.

    Without `conserved` the whole family is evaluated on the state stack in
    one batch; an explicit list is evaluated function by function.
    """
    alg = m0.alg
    stack = rk4_states(_named_field(cfg, alg), alg.to_matrices(m0.vec()),
                       cfg.dt, cfg.n_steps)
    truncated, note = False, ""
    if not np.all(np.isfinite(stack[-1])):
        truncated = True
        k = len(stack) - 1
        note = (f"non-finite state at step {k} "
                f"(t = {k * cfg.dt:g}); trajectory truncated")
        stack = stack[:-1]
    states = alg.to_coords(stack)
    names = tuple(F.name for F in (family(alg) if conserved is None else conserved))
    # the kept states of a run that blew up may still overflow the pencil
    # powers: the same policy as `rk4_states`, the report carries the truncation
    with np.errstate(over="ignore", invalid="ignore"):
        if conserved is None:
            values = family_values(alg, states)
        else:
            values = np.array(
                [[F(PairPoint.from_vec(alg, row)) for F in conserved] for row in states]
            )
    return Trajectory(
        alg=alg,
        times=np.arange(len(states)) * cfg.dt,
        states=states,
        conserved=values,
        conserved_names=names,
        truncated=truncated,
        note=note,
    )


def flow_commutation(m0: PairPoint, dt: float = 1e-3, n_steps: int = 100) -> float:
    """‖(Φ_t∘Φ_s − Φ_s∘Φ_t)(m0)‖∞ for the t- and s-flows run n_steps each.

    The flows commute, so the defect collapses to integrator error.  Both
    orders run as one two-entry stack whose partners read block 0, each with
    its own mask: the s-flow entry holds (M, L).  Between the legs the
    entries trade places and blocks, and so flows.
    """
    alg = m0.alg
    whole_steps(dt, dt * n_steps)
    masks = np.stack([entry_mask(alg, MINUS), entry_mask(alg, PLUS)])[:, None]
    field = lax_field(projected_partner(0, masks))
    V0 = alg.to_matrices(m0.vec())
    S = np.stack([V0[::-1], V0])         # (M, L) for Φ_s first, (L, M) for Φ_t first
    for _ in range(2):
        S = rk4_states(field, S, dt, n_steps)[-1][::-1, ::-1].copy()    # frees the run
        if not np.all(np.isfinite(S)):
            return math.inf     # a run blew up: no finite defect to measure
    ab, ba = S[0][::-1], S[1]   # Φ_t∘Φ_s held as (M, L), Φ_s∘Φ_t as (L, M)
    return float(np.abs(alg.to_coords(ab) - alg.to_coords(ba)).max())


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
