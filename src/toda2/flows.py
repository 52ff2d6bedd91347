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
    linear      Z = ½(λ−1)(RP − cP, RP + cP),    P = ĝ((λL − M)^i)

with R = Π₊ − Π₋ and ĝ the trace-form projection onto 𝔤.  `field_rows`
evaluates the same commutator at a stack of coordinate rows; one point is a
one-row stack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import AlgebraSpec
from .invariants import family, family_values, require_generator_label
from .poisson import CapabilityError, PhaseSpace, PreconditionError, ScalarFunction
from .rmatrix import PairPoint, RMatrixConfig

__all__ = [
    "FlowConfig",
    "Trajectory",
    "lax_field",
    "lax_rows",
    "field_rows",
    "projected_partner",
    "whole_steps",
    "rk4_states",
    "integrate",
    "flow_commutation",
    "trajectory_to_csv",
    "pencil_eigenvalue_drift",
]

_DEFAULT = RMatrixConfig()


# --------------------------------------------------------------------------
# the Lax field on matrix stacks
# --------------------------------------------------------------------------


def lax_field(partner: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """V ↦ [Z, V] = ZV − VZ on a (…, k, n, n) stack, with Z = partner(V) one
    matrix for every block ((n, n), or (…, 1, n, n) on a stack of points) or
    one matrix per block (…, k, n, n)."""

    def field(V: np.ndarray) -> np.ndarray:
        Z = partner(V)
        return Z @ V - V @ Z

    return field


def lax_rows(alg: AlgebraSpec, V: np.ndarray, partner: Callable) -> np.ndarray:
    """The Lax field at coordinate rows V (…, k·dim): one block (k = 1) on 𝔤,
    two on 𝔤×𝔤; matrices in, commutator, coordinates out."""
    return alg.to_coords(lax_field(partner)(alg.to_matrices(V)))


def projected_partner(alg: AlgebraSpec, block: int, region: str) -> Callable:
    """Z = Π_region(V[block]), one matrix for all blocks of each stack entry."""
    P, n = alg.matrix_projector(region), alg.matrix_size

    def partner(V: np.ndarray) -> np.ndarray:
        if V.ndim == 3:     # one point, as RK4 steps it: one matrix-vector product
            return (P @ V[block].reshape(-1)).reshape(n, n)
        lead = V.shape[:-3]     # a stack: the same product for every entry
        return (P @ V[..., block, :, :].reshape(*lead, n * n, 1)).reshape(*lead, 1, n, n)

    return partner


def _partner(alg: AlgebraSpec, field: str, cfg: RMatrixConfig, i: int = 0,
             lam: float = 0.0) -> Callable:
    """The partner Z of the t-, s-, quadratic or linear pencil field on (L, M).

    A pencil partner is Z = s·((R − c)p, (R + c)p) with p the coordinates of
    W^{i+1} (quadratic: c = s = 1) or ĝ(W^i) (linear: c = cfg.c, s = ½(λ−1)),
    W = λL − M, less its centre part: kept, that part lets RK4 past a gl(2)
    quadratic blow-up (i = 1, λ = 0) settle on an exactly traceless M, where
    the field vanishes, instead of ending at a non-finite state.  The t-flow
    partner on one block is the Toda partner Π₊A."""
    if field == "t":
        return projected_partner(alg, 0, cfg.plus_region)
    if field == "s":
        return projected_partner(alg, 1, cfg.minus_region)
    if field == "quadratic":
        if not alg.associative:
            raise CapabilityError(
                f"quadratic pencil field needs an associative algebra; "
                f"{alg.name} has associative=False"
            )
        power, coords, c, s = i + 1, alg.to_coords, 1.0, 1.0
    else:
        power, c, s = i, cfg.c, 0.5 * (lam - 1.0)

        def coords(W):
            return alg.gradient_from_matrix(W)[..., 0, :]
    signs = cfg.signs(alg)

    def partner(V: np.ndarray) -> np.ndarray:
        # W keeps a block axis of length one, so each entry is one matrix
        p = coords(np.linalg.matrix_power(lam * V[..., :1, :, :] - V[..., 1:, :, :], power))
        Z = alg.strip_centre(np.stack([(signs - c) * p, (signs + c) * p], axis=-2))
        return s * alg.to_matrices(Z.reshape(*Z.shape[:-2], -1))

    return partner


def field_rows(alg: AlgebraSpec, field: str, V: np.ndarray, cfg: RMatrixConfig = _DEFAULT,
               i: int = 0, lam: float = 0.0) -> np.ndarray:
    """The t-, s-, quadratic or linear pencil field at coordinate rows V (…, 2·dim);
    the "t" field on rows (…, dim) of 𝔤 is the Toda field [A₊, A]."""
    return lax_rows(alg, V, _partner(alg, field, cfg, i, lam))


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
    return lax_field(_partner(alg, cfg.field, cfg.rmatrix, cfg.i, cfg.lam))


def whole_steps(dt: float, T: float) -> int:
    """The number of steps dt in the horizon T, which must be a whole number."""
    if not (dt > 0):
        raise PreconditionError(f"dt must be positive, got {dt}")
    if T < dt:
        raise PreconditionError(f"horizon T = {T} shorter than dt = {dt}")
    ratio = T / dt
    if not (np.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 * ratio):
        raise PreconditionError(
            f"horizon T = {T} is not a whole number of steps dt = {dt}"
        )
    return int(round(ratio))


@dataclass(frozen=True)
class FlowConfig:
    """Field selector plus fixed-step RK4 parameters."""

    field: str = "t"                 # t | s | quadratic | linear
    dt: float = 1e-3
    T: float = 1.0
    i: Optional[int] = None          # generator label for pencil fields
    lam: Optional[float] = None      # λ for pencil fields
    integrator: str = "rk4"
    rmatrix: RMatrixConfig = _DEFAULT

    def __post_init__(self):
        whole_steps(self.dt, self.T)
        if self.integrator != "rk4":
            raise PreconditionError(f"unknown integrator {self.integrator!r}")

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


def rk4_states(field: Callable[[np.ndarray], np.ndarray], v0: np.ndarray,
               dt: float, n_steps: int) -> np.ndarray:
    """Fixed-step RK4 run of v̇ = field(v) from the array v0.

    Returns the states stacked along a new first axis; a run that reaches a
    non-finite state ends there, with that state as its last entry.
    """
    v = np.asarray(v0, dtype=float)
    states = [v]
    # overflow on the way to a detected blow-up is expected, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            k1 = field(v)
            k2 = field(v + 0.5 * dt * k1)
            k3 = field(v + 0.5 * dt * k2)
            k4 = field(v + dt * k3)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states.append(v)
            # a finite sum means finite entries; only an overflowing sum
            # needs the entrywise test
            if not math.isfinite(v.sum()) and not np.all(np.isfinite(v)):
                break
    return np.array(states)


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

    The flows commute, so the defect collapses to integrator error.
    """
    alg = m0.alg
    fa, fb = (_named_field(FlowConfig(field=f, dt=dt, T=dt * n_steps), alg) for f in "ts")

    def run(fld, V):
        return rk4_states(fld, V, dt, n_steps)[-1]

    V0 = alg.to_matrices(m0.vec())
    ab = run(fa, run(fb, V0))
    ba = run(fb, run(fa, V0))
    if not (np.all(np.isfinite(ab)) and np.all(np.isfinite(ba))):
        return math.inf     # a run blew up: no finite defect to measure
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
