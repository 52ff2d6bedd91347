"""The classical Toda lattice as the diagonal restriction of the 2-Toda system.

Single-algebra side: T_T = 𝔤₋₁ ⊕ 𝔤₀ + e carries the R-bracket

    {f, g}_R(x) = ½⟨x, [R∇f, ∇g] + [∇f, R∇g]⟩,

whose flow for H = P₁ is the Toda equation Ȧ = [A₊, A].  The bracket and its
Hamiltonian fields are those of the 2-Toda side (`poisson.linear_bracket`,
`poisson.hamiltonian_field`) applied to points of 𝔤; the Toda field is the
t-flow's Lax commutator on a one-matrix stack, run on the same RK4 driver
(`flows.rk4_states`).

The diagonal embedding φ(x) = (x, x) lands in T_T′ = Δ(𝔤₋₁⊕𝔤₀) + (e, e)
⊂ T_P, and matching dual coordinates through φ gives a Poisson isomorphism
between (T_T, {,}_R) and (T_T′, {,}_ℛ).  Restricting the pencil family to
the diagonal collapses it into binomial multiples of the Toda invariants:
F_{k,i}(φ(x)) = C(m_i+1, k)·P_i(x).
"""
from __future__ import annotations

import math

import numpy as np

from .algebra import AlgebraSpec, Element
from .flows import field_t, lax_field, lax_point, projected_partner, rk4_states, whole_steps
from .invariants import family_labels, family_values, independence_rank, trace_invariant
from .poisson import PhaseSpace, _bracket_table, hamiltonian_field, linear_function
from .rmatrix import PairPoint, RMatrixConfig

__all__ = [
    "toda_space",
    "diag_phase_space",
    "embed_phi",
    "field_toda",
    "integrate_toda",
    "check_poisson_iso",
    "check_binomial_identity",
    "toda_suite",
]

_DEFAULT = RMatrixConfig()


def toda_space(alg: AlgebraSpec) -> PhaseSpace:
    """The affine space T_T = 𝔤₋₁ ⊕ 𝔤₀ + e inside a single algebra."""
    tangent = tuple(
        Element(alg, v)
        for v in np.eye(alg.dim)[alg.mask(">=-1") & alg.mask("<=0")]
    )
    return PhaseSpace("T_T", alg.e, tangent)


def diag_phase_space(alg: AlgebraSpec) -> PhaseSpace:
    """T_T′ = Δ(𝔤₋₁⊕𝔤₀) + (e, e), the diagonal image of T_T inside 𝔤×𝔤."""
    ts = toda_space(alg)
    tangent = tuple(PairPoint(t, t) for t in ts.tangent)
    return PhaseSpace("T_T'", PairPoint(alg.e, alg.e), tangent)


def embed_phi(ts: PhaseSpace, x: Element, tol: float = 1e-10) -> PairPoint:
    """φ(x) = (x, x), with a membership check on the Toda space."""
    ts.require_member(x, tol)
    return PairPoint(x, x)


def field_toda(x: Element, cfg: RMatrixConfig = _DEFAULT) -> Element:
    """The Toda equation right-hand side [A₊, A]."""
    return lax_point(x, projected_partner(x.alg, 0, cfg.plus_region))


def integrate_toda(x0: Element, dt: float = 1e-3, T: float = 1.0,
                   cfg: RMatrixConfig = _DEFAULT):
    """RK4 run of Ȧ = [A₊, A]; returns (times, states) coordinate arrays.

    T must be a whole number of steps dt, as for `FlowConfig`.
    """
    alg = x0.alg
    stack = rk4_states(lax_field(projected_partner(alg, 0, cfg.plus_region)),
                       alg.to_matrices(x0.vec()), dt, whole_steps(dt, T))
    return np.arange(len(stack)) * dt, alg.to_coords(stack)


# --------------------------------------------------------------------------
# the reduction checks
# --------------------------------------------------------------------------


def check_poisson_iso(alg: AlgebraSpec, samples: int = 100, seed: int = 42,
                      cfg: RMatrixConfig = _DEFAULT):
    """φ matches the R-bracket on T_T with the ℛ-bracket on T_T′.

    Coordinate functions are the Euclidean duals of the matched tangent
    bases (t_a on the Toda side, (t_a, t_a) on the diagonal side), so
    ξ_a∘φ = ζ_a identically and the residual |{ξ_a,ξ_b}_ℛ(φx) − {ζ_a,ζ_b}_R(x)|
    measures exactly the Poisson property.  Both sides are the raw coordinate
    bracket tables, never a Dirac-corrected `poisson_matrix`.
    """
    from .reports import CheckReport

    ts = toda_space(alg)
    dps = diag_phase_space(alg)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = ts.point_from_coords(rng.uniform(-1.0, 1.0, ts.dim))
        p = embed_phi(ts, x)
        lhs = _bracket_table(p, [xi.gradient(p) for xi in dps.coords], "linear", cfg)
        rhs = _bracket_table(x, [zeta.gradient(x) for zeta in ts.coords], "linear", cfg)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return CheckReport(
        check="toda-poisson-iso",
        anchor="diagonal-embedding-poisson-iso",
        algebra=alg.name,
        params={"samples": samples, "seed": seed, "tol": 1e-9},
        measured=worst,
        expected="< 1e-09",
        verdict=worst < 1e-9,
    )


def check_binomial_identity(alg: AlgebraSpec, samples: int = 20, seed: int = 42):
    """F_{k,i}(φ(x)) = C(m_i+1, k) · P_i(x) on seeded Toda points, to 1e−10."""
    from .reports import CheckReport

    xs = toda_space(alg).sample_points(seed, samples)
    values = family_values(alg, np.stack([PairPoint(x, x).vec() for x in xs]))
    gens = {i: trace_invariant(alg, i) for i in alg.exponents}
    worst = 0.0
    for x, row in zip(xs, values):
        p = {i: P(x) for i, P in gens.items()}
        for (k, i), f in zip(family_labels(alg), row):
            worst = max(worst, abs(f - math.comb(i + 1, k) * p[i]))
    return CheckReport(
        check="toda-binomial",
        anchor="diagonal-binomial-collapse",
        algebra=alg.name,
        params={"samples": samples, "seed": seed, "tol": 1e-10},
        measured=worst,
        expected="< 1e-10",
        verdict=worst < 1e-10,
    )


def toda_suite(alg: AlgebraSpec, seed: int = 42, cfg: RMatrixConfig = _DEFAULT) -> list:
    """The Toda-side verification battery; returns a list of CheckReports."""
    from .reports import CheckReport

    ts = toda_space(alg)
    reports = []
    points = ts.sample_points(seed, 20)

    # T_T is a Poisson submanifold: every Hamiltonian field is tangent to it;
    # the fields of the basis coordinates x ↦ x_a = ⟨G⁻¹e_a, x⟩ span them all
    coords = [linear_function(Element.from_covector(alg, e)) for e in np.eye(alg.dim)]
    worst = max(
        ts.normal_residual(hamiltonian_field(z, x, cfg=cfg))
        for x in points[:5]
        for z in coords
    )
    reports.append(CheckReport(
        check="toda-submanifold",
        anchor="toda-space-poisson-submanifold",
        algebra=alg.name,
        params={"points": 5, "seed": seed, "tol": 1e-9},
        measured=worst, expected="< 1e-09", verdict=worst < 1e-9,
    ))

    # the P₁ flow is the Toda equation [A₊, A]
    p1 = trace_invariant(alg, 1)
    worst = max(
        (hamiltonian_field(p1, x, cfg=cfg) - field_toda(x, cfg)).norm()
        for x in points
    )
    reports.append(CheckReport(
        check="toda-lax-form",
        anchor="toda-flow-is-lax-bracket",
        algebra=alg.name,
        params={"points": len(points), "seed": seed, "tol": 1e-9},
        measured=worst, expected="< 1e-09", verdict=worst < 1e-9,
    ))

    # involutivity of the P_i on (𝔤, R-bracket)
    gens = [trace_invariant(alg, i) for i in alg.exponents]
    worst = max(
        float(np.abs(_bracket_table(x, [P.gradient(x) for P in gens], "linear", cfg)).max())
        for x in points
    )
    reports.append(CheckReport(
        check="toda-involutivity",
        anchor="toda-invariants-involutive",
        algebra=alg.name,
        params={"points": len(points), "seed": seed, "tol": 1e-9},
        measured=worst, expected="< 1e-09", verdict=worst < 1e-9,
    ))

    # independence of the P_i on T_T
    best = independence_rank(gens, ts, points)
    reports.append(CheckReport(
        check="toda-independence",
        anchor="toda-invariants-independent",
        algebra=alg.name,
        params={"points": len(points), "seed": seed},
        measured=best, expected=alg.rank, verdict=best == alg.rank,
    ))

    # conservation along the integrated Toda flow
    x0 = ts.point_from_coords(
        np.random.default_rng(seed).uniform(-1.0, 1.0, ts.dim)
    )
    _, states = integrate_toda(x0, dt=1e-3, T=1.0, cfg=cfg)
    X = alg.to_matrices(states)[:, 0]
    worst = 0.0
    for i in alg.exponents:   # P_i = Tr(x^{i+1})/(i+1) on the whole stack
        vals = np.trace(np.linalg.matrix_power(X, i + 1), axis1=1, axis2=2) / (i + 1)
        worst = max(worst, float(np.abs(vals - vals[0]).max() / (1.0 + abs(vals[0]))))
    reports.append(CheckReport(
        check="toda-conservation",
        anchor="toda-flow-conserves-invariants",
        algebra=alg.name,
        params={"dt": 1e-3, "T": 1.0, "seed": seed, "tol": 1e-6},
        measured=worst, expected="< 1e-06", verdict=worst < 1e-6,
    ))

    # the diagonal is t-flow invariant and the pushforward matches field_t
    worst = 0.0
    for x in points:
        ft = field_t(PairPoint(x, x), cfg)
        xt = field_toda(x, cfg)
        worst = max(worst, (ft - PairPoint(xt, xt)).norm())
    reports.append(CheckReport(
        check="toda-diagonal-consistency",
        anchor="t-flow-restricts-to-toda-flow",
        algebra=alg.name,
        params={"points": len(points), "seed": seed, "tol": 1e-10},
        measured=worst, expected="< 1e-10", verdict=worst < 1e-10,
    ))

    return reports
