"""The classical Toda lattice as the diagonal restriction of the 2-Toda system.

Single-algebra side: T_T = 𝔤₋₁ ⊕ 𝔤₀ + e carries the R-bracket

    {f, g}_R(x) = ½⟨x, [R∇f, ∇g] + [∇f, R∇g]⟩,

whose flow for H = P₁ is the Toda equation Ȧ = [A₊, A].  The bracket and its
Hamiltonian fields are those of the 2-Toda side (`poisson.linear_field`,
`poisson.bracket_tables`) on one-block coordinate arrays of 𝔤; the Toda field
is the t-flow's Lax commutator (`flows.field_rows` with field "t" on rows of
𝔤), and the Toda run is the t-flow on the one-block stack (A), solved exactly
by the flows' factorization exp(tA₀) = n₋b₊ (`flows.factor_states`); it stops
before a pole or a non-finite state and says so in the note it returns.

The diagonal embedding φ(x) = (x, x) lands in T_T′ = Δ(𝔤₋₁⊕𝔤₀) + (e, e)
⊂ T_P, and matching dual coordinates through φ gives a Poisson isomorphism
between (T_T, {,}_R) and (T_T′, {,}_ℛ).  Restricting the pencil family to
the diagonal collapses it into binomial multiples of the Toda invariants:
F_{k,i}(φ(x)) = C(m_i+1, k)·P_i(x).
"""
from __future__ import annotations

import math

import numpy as np

from .algebra import AlgebraSpec
from .flows import factor_states, field_rows, relative_drift, whole_steps
from .invariants import family_labels, family_values, trace_gradients, trace_values
from .poisson import PhaseSpace, bracket_tables, linear_field
from .reports import CheckReport
from .rmatrix import block_norms

__all__ = [
    "toda_space",
    "diag_phase_space",
    "check_poisson_iso",
    "check_binomial_identity",
    "toda_suite",
]


def toda_space(alg: AlgebraSpec) -> PhaseSpace:
    """The affine space T_T = 𝔤₋₁ ⊕ 𝔤₀ + e inside a single algebra, built once per spec."""

    def build():
        free = (alg.degrees >= -1) & (alg.degrees <= 0)
        # a copy for the base, which PhaseSpace makes read-only: not e_coords itself
        return PhaseSpace("T_T", alg, np.array(alg.e_coords, dtype=float),
                          np.eye(alg.dim)[:, free])

    return alg.memo("T_T", build)


def diag_phase_space(alg: AlgebraSpec) -> PhaseSpace:
    """T_T′ = Δ(𝔤₋₁⊕𝔤₀) + (e, e), the diagonal image of T_T inside 𝔤×𝔤, built once per spec."""

    def build():
        ts = toda_space(alg)
        return PhaseSpace("T_T'", alg, np.concatenate([ts.base, ts.base]),
                          np.concatenate([ts.tangent_matrix, ts.tangent_matrix]))

    return alg.memo("T_T'", build)


# --------------------------------------------------------------------------
# the reduction checks, each on its whole sample stack
# --------------------------------------------------------------------------


def check_poisson_iso(alg: AlgebraSpec, samples: int = 100, seed: int = 42):
    """φ matches the R-bracket on T_T with the ℛ-bracket on T_T′.

    Coordinate functions are the Euclidean duals of the matched tangent
    bases (t_a on the Toda side, (t_a, t_a) on the diagonal side), so
    ξ_a∘φ = ζ_a identically and the residual |{ξ_a,ξ_b}_ℛ(φx) − {ζ_a,ζ_b}_R(x)|
    measures exactly the Poisson property.  Both sides are the raw coordinate
    bracket tables, never a Dirac-corrected `poisson_matrix`.
    """
    ts, dps = toda_space(alg), diag_phase_space(alg)
    X = ts.sample_stack(seed, samples)                  # (samples, dim)
    ts.require_members(X)
    P = np.stack([X, X], axis=1)                        # φ(x) = (x, x) as pair blocks
    lhs = bracket_tables(alg, "linear", P, dps.coord_gradients)
    rhs = bracket_tables(alg, "linear", X[:, None], ts.coord_gradients)
    return CheckReport.below("toda-poisson-iso", "diagonal-embedding-poisson-iso", alg.name,
                             lhs - rhs, 1e-9, {"samples": samples, "seed": seed},
                             axes=("sample", "row", "column"))


def check_binomial_identity(alg: AlgebraSpec, samples: int = 20, seed: int = 42):
    """F_{k,i}(φ(x)) = C(m_i+1, k) · P_i(x) on seeded Toda points, to 1e−10."""
    X = toda_space(alg).sample_stack(seed, samples)
    values = family_values(alg, np.concatenate([X, X], axis=1))
    labels = family_labels(alg)
    P = {i: trace_values(alg, X, i) for i in alg.exponents}
    want = np.stack([math.comb(i + 1, k) * P[i] for (k, i) in labels], axis=1)
    return CheckReport.below("toda-binomial", "diagonal-binomial-collapse", alg.name,
                             values - want, 1e-10, {"samples": samples, "seed": seed},
                             axes=("sample", "function"))


def toda_suite(alg: AlgebraSpec, seed: int = 42) -> list:
    """The Toda-side verification battery; returns a list of CheckReports."""
    ts = toda_space(alg)
    reports = []
    X = ts.sample_stack(seed, 20)                       # (20, dim) Toda points

    # T_T is a Poisson submanifold: every Hamiltonian field is tangent to it;
    # the fields of the basis coordinates x ↦ x_a = ⟨G⁻¹e_a, x⟩ span them all
    coords = alg.gram_inv.T[:, None]            # gradients G⁻¹e_a, the rows of (G⁻¹)ᵀ
    fields = linear_field(alg, X[:5, None, None], coords)
    reports.append(CheckReport.below("toda-submanifold", "toda-space-poisson-submanifold",
                                     alg.name, ts.normal_residuals(fields[..., 0, :]), 1e-9,
                                     {"points": 5, "seed": seed}, axes=("point", "coordinate")))

    # the P₁ flow is the Toda equation [A₊, A]
    toda = field_rows(alg, "t", X)
    x_p1 = linear_field(alg, X[:, None], trace_gradients(alg, X, 1)[:, None])
    reports.append(CheckReport.below("toda-lax-form", "toda-flow-is-lax-bracket", alg.name,
                                     block_norms(x_p1 - toda[:, None]), 1e-9,
                                     {"points": len(X), "seed": seed}, axes=("point",)))

    # involutivity of the P_i on (𝔤, R-bracket)
    grads = np.stack([trace_gradients(alg, X, i) for i in alg.exponents], axis=1)
    reports.append(CheckReport.below("toda-involutivity", "toda-invariants-involutive", alg.name,
                                     bracket_tables(alg, "linear", X[:, None], grads), 1e-9,
                                     {"points": len(X), "seed": seed},
                                     axes=("point", "row", "column")))

    # independence of the P_i on T_T
    best = int(ts.jacobian_ranks(grads).max())
    reports.append(CheckReport.equal("toda-independence", "toda-invariants-independent",
                                     alg.name, best, alg.rank, {"points": len(X), "seed": seed}))

    # conservation along the Toda flow, the exact t-flow on the one-block stack (A₀)
    # from the first sample point
    stack, note = factor_states(alg, "t", alg.to_matrices(X[0]), 1e-3, whole_steps(1e-3, 1.0))
    states = alg.to_coords(stack)
    vals = np.stack([trace_values(alg, states, i) for i in alg.exponents], axis=1)
    reports.append(CheckReport.below("toda-conservation", "toda-flow-conserves-invariants",
                                     alg.name, relative_drift(vals, note), 1e-6,
                                     {"dt": 1e-3, "T": 1.0, "seed": seed}, detail=note))

    # the diagonal is t-flow invariant and the pushforward matches the t-flow field:
    # the t-flow at (x, x) is (X_{P₁}(x), X_{P₁}(x))
    gap = field_rows(alg, "t", np.tile(X, 2)) - np.tile(x_p1[:, 0], 2)
    reports.append(CheckReport.below("toda-diagonal-consistency", "t-flow-restricts-to-toda-flow",
                                     alg.name, gap, 1e-10, {"points": len(X), "seed": seed},
                                     axes=("point", "coordinate")))

    return reports
