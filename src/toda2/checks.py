"""Check batteries: one battery per claim family, shared by the CLI and tests.

Every battery returns a list of CheckReports with the tolerances used by the
acceptance suite.  Sample points are seeded, so reports are deterministic.
No battery writes a bracket's formula again: each reads the bracket fields
of `poisson` (by name through `poisson.block_field`), and the Jacobi sums of
the linear and quadratic brackets are read off those fields alone.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .algebra import AlgebraSpec, bracket_blocks
from .flows import field_rows
from .invariants import (
    family_gradient_stack,
    family_labels,
    pullback_gradients,
    rais_vectors,
)
from .poisson import (
    CapabilityError,
    PreconditionError,
    block_field,
    bracket_tables,
    brackets,
    check_morphism_psi1,
    linear_field,
    phase_tp,
    quadratic_field,
    rank_sweep,
)
from .rmatrix import block_norms, check_mcybe, form_blocks, r_bracket_blocks
from .reports import CheckReport
from .toda import (
    check_binomial_identity,
    check_poisson_iso,
    diag_phase_space,
    toda_suite,
)


def expected_rank(alg: AlgebraSpec) -> int:
    """Generic rank of the restricted linear/quadratic Poisson structure on T_P.

    dim 𝔤 + ℓ on the simple builds; on gl(n) the two central family members
    F_{0,0}, F_{1,0} are Casimirs of the restriction, giving n² + n − 2.
    For type A the two expressions agree numerically.
    """
    if alg.associative:
        n = alg.matrix_size
        return n * n + n - 2
    return alg.dim + alg.rank


# --------------------------------------------------------------------------


def check_mcybe_battery(alg: AlgebraSpec, samples: int = 200, seed: int = 42,
                        tol: float = 1e-11) -> list[CheckReport]:
    return [
        check_mcybe(alg, samples=samples, seed=seed, tol=tol),
        check_mcybe(alg, samples=samples, seed=seed, pair=True, tol=tol),
    ]


def check_jacobi_battery(alg: AlgebraSpec, samples: int = 20, seed: int = 42,
                         tol: float = 1e-9) -> list[CheckReport]:
    """Jacobi identities: R/ℛ-brackets on elements, both function brackets.

    Each identity draws its samples as one stack, in the order of the
    per-sample draws, and evaluates them all at once.  A function bracket is
    read off its field alone (`block_field`): for linear A, B, C,
    {A, {B, C}}(m) = −⟨∇B, dX_C(m)[X_A(m)]⟩, and as X_C has degree ≤ 2 in m,
    dX_C(m)[v] = ½(X_C(m + v) − X_C(m − v)) exactly.
    """
    rng = np.random.default_rng(seed)
    out = []

    def rb(a, b):
        return r_bracket_blocks(alg, a, b)

    # the R-bracket on 𝔤, then the ℛ-bracket on 𝔤×𝔤: x, y, z per sample
    for name, k in (("r", 1), ("rr", 2)):
        x, y, z = np.moveaxis(rng.uniform(-1.0, 1.0, (samples, 3, k, alg.dim)), 1, 0)
        cyc = rb(rb(x, y), z) + rb(rb(y, z), x) + rb(rb(z, x), y)
        out.append(CheckReport.below(
            f"jacobi-{name}-bracket", f"{name}-bracket-jacobi", alg.name,
            block_norms(cyc), 1e-11, {"samples": samples, "seed": seed}, axes=("sample",),
        ))

    for which in brackets(alg):
        field = block_field(which, alg, 2)
        # per sample: the point m, then the gradients (f, g, h) of linear F, G, H
        draw = rng.uniform(-1.0, 1.0, (samples, 4, 2, alg.dim))
        m, A = draw[:, :1], draw[:, 1:]
        # the terms {A, {B, C}} of the cyclic sum: (A, B, C) = (f, g, h), (g, h, f), (h, f, g)
        B, C = np.roll(A, -1, axis=1), np.roll(A, -2, axis=1)
        XA = field(alg, m, A)
        XC = field(alg, np.stack([m + XA, m - XA]), C)
        cyc = -form_blocks(alg, B, 0.5 * (XC[0] - XC[1])).sum(axis=-1)
        out.append(CheckReport.below(
            f"jacobi-{which}-bracket", f"{which}-poisson-jacobi", alg.name,
            cyc, tol, {"samples": samples, "seed": seed}, axes=("sample",),
        ))
    return out


def check_involutivity_battery(alg: AlgebraSpec, points: int = 20, seed: int = 42,
                               tol: float = 1e-8) -> list[CheckReport]:
    """Pairwise brackets of the family vanish on T_P, for every applicable bracket."""
    ps = phase_tp(alg)
    labels = family_labels(alg)
    out = []
    V = ps.sample_stack(seed, points)
    M, A = V.reshape(points, 2, alg.dim), family_gradient_stack(alg, V)
    for which in brackets(alg):
        out.append(CheckReport.below(
            f"involutivity-{which}", f"family-involutive-{which}", alg.name,
            bracket_tables(alg, which, M, A), tol,
            {"points": points, "seed": seed, "pairs": len(labels) * (len(labels) - 1) // 2},
            axes=("point", "row", "column"),
        ))

    # pencil pullbacks at mixed λ, γ are in involution for the linear bracket
    lams = (0.0, 0.5, 1.0, 2.0, -1.0)
    M = np.random.default_rng(seed).uniform(-1.0, 1.0, (5, 2, alg.dim))
    A = np.stack([pullback_gradients(alg, i, lam, M)
                  for i in alg.exponents for lam in lams], axis=1).reshape(5, -1, 2 * alg.dim)
    out.append(CheckReport.below(
        "involutivity-pencil", "pencil-pullbacks-involutive", alg.name,
        bracket_tables(alg, "linear", M, A), tol,
        {"points": 5, "seed": seed, "lambdas": list(lams)}, axes=("point", "row", "column"),
    ))
    return out


def check_casimir_battery(alg: AlgebraSpec, samples: int = 20, seed: int = 42,
                          tol: float = 1e-9) -> list[CheckReport]:
    """X_{P_i∘ψ₁} vanishes identically on 𝔤×𝔤 for every generator."""
    M = np.random.default_rng(seed).uniform(-1.0, 1.0, (samples, 2, alg.dim))
    out = []
    for i in alg.exponents:
        out.append(CheckReport.below(
            f"casimir-P{i}", "psi1-pullback-casimir", alg.name,
            block_norms(linear_field(alg, M, pullback_gradients(alg, i, 1.0, M))), tol,
            {"samples": samples, "seed": seed, "generator": i}, axes=("sample",),
        ))
    return out


def check_independence_battery(alg: AlgebraSpec, points: int = 20,
                               seed: int = 42) -> list[CheckReport]:
    """Jacobian rank of the family = cardinality, at (e, h) and seeded points."""
    ps = phase_tp(alg)
    card = len(family_labels(alg))

    def rank(V):
        return int(ps.jacobian_ranks(family_gradient_stack(alg, V)).max())

    at_eh = rank(np.concatenate([alg.e_coords, alg.h_coords])[None])
    sweep = rank(ps.sample_stack(seed, points))
    return [
        CheckReport.equal("independence-at-eh", "family-independent-at-eh", alg.name,
                          at_eh, card, {"cardinality": card}),
        CheckReport.equal("independence-sweep", "family-independent-generic", alg.name,
                          sweep, card, {"points": points, "seed": seed, "cardinality": card}),
    ]


def check_rais_battery(alg: AlgebraSpec) -> list[CheckReport]:
    data = rais_vectors(alg)
    want = (alg.dim + alg.rank) // 2
    return [
        CheckReport.equal("rais-count", "rais-vector-count", alg.name,
                          data.count, want, {}),
        CheckReport.equal("rais-rank", "rais-vectors-independent", alg.name,
                          data.rank, data.count, {}),
        CheckReport.below("rais-span", "rais-span-nonnegative-degrees", alg.name,
                          data.max_negative_component, 1e-12, {},
                          detail=f"degrees present: {list(data.degree_profile)}"),
    ]


def _simple_system(alg: AlgebraSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, str]:
    """Root vectors e_i, lowering elements f_i and coroots h_i of the simple
    roots, read off the spec data as coordinate rows (one row per root), and
    the Cartan block C[i, j] = α_i(h_j).

    The e_i are the degree-1 basis vectors, the f_i the degree −1 elements
    with ⟨e_j, f_i⟩ = δ_ij, and h_i = 2t_i/α_i(t_i) with t_i = [e_i, f_i].  C
    must be the leading block of `cartan` (further rows and columns, such as
    the centre of gl, are zero), as stored or transposed; the note says which.
    PreconditionError gives the reason when the data do not give the block.
    """
    D, unit = alg.degrees, np.eye(alg.dim)
    up, down = np.flatnonzero(D == 1), np.flatnonzero(D == -1)
    ns = len(up)
    if not 0 < ns <= alg.rank or len(down) != ns:
        raise PreconditionError(
            f"{alg.name}: degrees 1 and -1 hold {ns} and {len(down)} basis vectors; "
            f"a simple system needs equally many, at most rank {alg.rank}")
    cartan = np.asarray(alg.cartan, dtype=float)
    if np.any(cartan[ns:]) or np.any(cartan[:, ns:]):
        raise PreconditionError(
            f"{alg.name}: cartan has nonzero entries outside the {ns} simple roots of degree 1")
    K = alg.gram[np.ix_(up, down)]
    if np.linalg.matrix_rank(K) < ns:
        raise PreconditionError(f"{alg.name}: the form does not pair degrees 1 and -1")

    def pair(X, Y):     # ⟨x, y⟩ of coordinate rows (…, dim), one value per row
        return form_blocks(alg, X[..., None, :], Y[..., None, :])

    E, F = unit[up], np.linalg.solve(K.T, unit[down])
    T = bracket_blocks(alg, E, F)
    lengths = pair(bracket_blocks(alg, T, E), F)                  # α_i(t_i)
    if np.abs(lengths).min() < 1e-12:
        raise PreconditionError(f"{alg.name}: a degree-1 basis vector is not a root vector")
    H = T * (2.0 / lengths)[:, None]
    HE = bracket_blocks(alg, H[None], E[:, None])                  # [i, j] = [h_j, e_i]
    A = pair(HE, F[:, None])
    off_root = np.linalg.norm(HE - A[..., None] * E[:, None], axis=-1).max()
    if off_root > 1e-9:
        raise PreconditionError(
            f"{alg.name}: the degree-1 basis vectors are not root vectors "
            f"(residual {off_root:.3g})")
    block = cartan[:ns, :ns]
    for C, note in ((block, ""), (block.T, " (cartan transposed)")):
        if np.abs(A - C).max() < 1e-9:
            return E, F, H, C, note
    raise PreconditionError(
        f"{alg.name}: the degree-1 root vectors have Cartan integers alpha_i(h_j) = "
        f"{np.round(A).astype(int).tolist()}, neither cartan nor its transpose")


def _cartan_block(alg: AlgebraSpec) -> tuple[np.ndarray, np.ndarray, str]:
    """The measured block, the Cartan block C it should equal, and C's note.

    Coordinates are ψ₁-pullbacks z_j = ⟨h_j, x−y⟩ over the simple coroots and
    z_{ℓ+i} = ⟨f_i, x−y⟩ over the simple lowering elements, with gradients
    (h_j, h_j) and (f_i, f_i), at the point
    (u, 0) with u = Σ e_i + Σ w_k h_k, ⟨h_j, Σ w_k h_k⟩ = 1: all of them are 1.
    """
    E, F, H, C, note = _simple_system(alg)
    gram_h = form_blocks(alg, H[:, None, None], H[None, :, None])
    w = np.linalg.solve(gram_h, np.ones(len(H)))
    u = np.concatenate([E, w[:, None] * H]).sum(axis=0)           # row by row, in order
    m = np.stack([u, np.zeros(alg.dim)])
    HF = np.concatenate([H, F])
    return bracket_tables(alg, "linear", m, np.concatenate([HF, HF], axis=1)), C, note


def check_rank_battery(alg: AlgebraSpec, seed: int = 42) -> list[CheckReport]:
    ps = phase_tp(alg)
    card = len(family_labels(alg))
    want = expected_rank(alg)
    out = []
    for which in brackets(alg):
        sweep = rank_sweep(ps, which, seed=seed)
        got = sweep.rank
        out.append(CheckReport.equal(
            f"rank-{which}", "restricted-poisson-rank", alg.name, got, want,
            {"points": sweep.points, "seed": seed, "phase_space": "T_P"}, detail=sweep.evidence,
        ))
        out.append(CheckReport.equal(
            f"count-identity-{which}", "cardinality-rank-identity", alg.name,
            card, ps.dim - got // 2, {"dim_TP": ps.dim, "rank": got},
        ))

    # the Cartan-matrix block of the 𝔤₀⊕𝔤₁ factor at unit coordinates
    try:
        M, C, note = _cartan_block(alg)
    except PreconditionError as err:
        out.append(CheckReport.not_applicable("cartan-block", "cartan-matrix-block",
                                              alg.name, {"tol": 1e-10}, err))
        return out
    ns = len(C)
    want_M = np.block([
        [np.zeros((ns, ns)), -C.T],
        [C, np.zeros((ns, ns))],
    ])
    out.append(CheckReport.below(
        "cartan-block", "cartan-matrix-block", alg.name, M - want_M, 1e-10, {},
        detail=f"block [[0,-C^T],[C,0]] with C = {C.astype(int).tolist()}{note}",
        axes=("row", "column"),
    ))
    return out


# --------------------------------------------------------------------------
# vector-field identities (criterion 7 territory)
# --------------------------------------------------------------------------


_LAMBDAS = (0.0, 2.0, -1.0)     # the λ of the pencil-field identities


def check_field_battery(alg: AlgebraSpec, seed: int = 42,
                        tol: float = 1e-9) -> list[CheckReport]:
    """Field identities at five seeded T_P points: the t- and s-flows are the
    bracket fields of H and −H̃, and each closed-form pencil field of flows.py
    is the bracket field of P_i∘φ_λ; on an associative algebra also
    X^Q_{P_i∘φ_λ} = 2/(λ−1)·X_{P_{i+1}∘φ_λ} and the recursions of the
    family's fields.

    The bracket field of each pullback is evaluated once per (bracket, i, λ)
    at the five points; the closed-form checks read the first three.
    """
    V = phase_tp(alg).sample_stack(seed, 5)
    M = V.reshape(5, 2, alg.dim)
    zero = np.zeros_like(M[:, 0])
    out = []

    # H = ½⟨x, x⟩ has gradient (x, 0), H̃ = ½⟨y, y⟩ has gradient (0, −y)
    x_h = linear_field(alg, M, np.stack([M[:, 0], zero], axis=1))
    x_ht = linear_field(alg, M, np.stack([zero, -M[:, 1]], axis=1))
    out.append(CheckReport.below(
        "field-t-hamiltonian", "t-flow-is-hamiltonian", alg.name,
        block_norms(x_h - field_rows(alg, "t", V).reshape(M.shape)), tol, {"seed": seed},
        axes=("point",)))
    # the s-flow is the Hamiltonian field of −H̃ under these conventions
    out.append(CheckReport.below(
        "field-s-hamiltonian", "s-flow-is-hamiltonian-of-minus", alg.name,
        block_norms(x_ht + field_rows(alg, "s", V).reshape(M.shape)), tol, {"seed": seed},
        axes=("point",)))

    @functools.cache
    def pullback_field(which, i, lam):      # X_{P_i∘φ_λ} of bracket `which`, (5, 2, dim)
        return block_field(which, alg, 2)(alg, M, pullback_gradients(alg, i, lam, M))

    # the gaps of the pullbacks P_i∘φ_λ: i over alg.exponents, λ over _LAMBDAS, then the points
    pullback_axes = ("exponent index", "lambda index", "point")

    def closed_form_gap(which):             # closed-form pencil fields at the first three points
        return [[block_norms(field_rows(alg, which, V[:3], i, lam).reshape(3, 2, alg.dim)
                             - pullback_field(which, i, lam)[:3]) for lam in _LAMBDAS]
                for i in alg.exponents]

    out.append(CheckReport.below("field-pencil-closed-form", "pencil-field-closed-form", alg.name,
                                 closed_form_gap("linear"), tol,
                                 {"seed": seed, "lambdas": list(_LAMBDAS)}, axes=pullback_axes))
    if "quadratic" not in brackets(alg):
        return out
    out.append(CheckReport.below("field-quadratic-closed-form", "quadratic-field-closed-form",
                                 alg.name, closed_form_gap("quadratic"), tol, {"seed": seed},
                                 axes=pullback_axes))

    out.append(CheckReport.below(
        "relquad", "quadratic-linear-field-ratio", alg.name,
        [[block_norms(pullback_field("quadratic", i, lam)
                      - pullback_field("linear", i + 1, lam) * (2.0 / (lam - 1.0)))
          for lam in _LAMBDAS] for i in alg.exponents],
        tol, {"seed": seed, "lambdas": list(_LAMBDAS)},
        detail="X^Q_{P_i∘φλ} = 2/(λ−1) · X_{P_{i+1}∘φλ}", axes=pullback_axes,
    ))

    # coefficient-level relations between the two field families: every
    # member's field under both brackets at the first three points at once,
    # and a zero member for the X^Q_{F_{j,i}} of j = −1 and j = i + 2
    M = M[:3]
    G = family_gradient_stack(alg, V[:3]).reshape(3, -1, 2, alg.dim)
    XQ, XL = quadratic_field(alg, M[:, None], G), linear_field(alg, M[:, None], G)
    XQ = np.concatenate([XQ, np.zeros_like(XQ[:, :1])], axis=1)
    at = {label: k for k, label in enumerate(family_labels(alg))}

    def xq(j, i):
        return XQ[:, at.get((j, i), -1)]

    # X^Q_{F_{j,i}} + X^Q_{F_{j−1,i}} = 2·X_{F_{j,i+1}}, j = 0…i+2, one report
    # each for j = 0, the j in between and j = i + 2
    gaps = {1: [], 2: [], 3: []}
    for i, i_next in itertools.pairwise(alg.exponents):
        for j in range(i + 3):
            line = 1 if j == 0 else 3 if j == i + 2 else 2
            gaps[line].append(block_norms(xq(j, i) + xq(j - 1, i) - XL[:, at[(j, i_next)]] * 2.0))
    lines = {
        1: ("relquadline-1", "X^Q_{F_0i} = 2·X_{F_0,i+1}"),
        2: ("relquadline-2", "X^Q_{F_ji} + X^Q_{F_j-1,i} = 2·X_{F_j,i+1}"),
        3: ("relquadline-3", "X^Q_{F_i+1,i} = 2·X_{F_i+2,i+1}"),
    }
    for k, (check_id, text) in lines.items():
        out.append(CheckReport.below(check_id, "family-field-recursion", alg.name,
                                     gaps[k], tol, {"seed": seed}, detail=text,
                                     axes=("relation", "point")))
    return out


# --------------------------------------------------------------------------
# Toda battery and the "run everything" entry point
# --------------------------------------------------------------------------


def _intersection_population(alg: AlgebraSpec, seed: int) -> np.ndarray:
    """200 pair rows (200, 2·dim): draw k makes a point of T_T′, of T_P, of the
    diagonal or of 𝔤×𝔤 as k % 4 = 0, 1, 2, 3.  The draws are one array of 50
    rows of the four in turn; the points come out grouped by mode."""
    ps, dps, dim = phase_tp(alg), diag_phase_space(alg), alg.dim
    widths = np.cumsum([dps.dim, ps.dim, dim, 2 * dim])
    U = np.split(np.random.default_rng(seed).uniform(-1, 1, (50, int(widths[-1]))),
                 widths[:-1], axis=1)
    return np.concatenate([
        dps.points_from_coords(U[0]),
        ps.points_from_coords(U[1]),
        np.concatenate([U[2], U[2]], axis=1),
        U[3],
    ])


def check_toda_battery(alg: AlgebraSpec, samples: int = 100,
                       seed: int = 42) -> list[CheckReport]:
    out = [
        check_poisson_iso(alg, samples=samples, seed=seed),
        check_binomial_identity(alg, samples=max(samples // 5, 5), seed=seed),
    ]
    out.extend(toda_suite(alg, seed=seed))

    # T_T' = T_P ∩ Δ: membership verdicts agree on a mixed random population
    ps, dps = phase_tp(alg), diag_phase_space(alg)
    P = _intersection_population(alg, seed)
    dim = alg.dim
    in_ttp = dps.membership_residuals(P) < 1e-10
    diagonal = np.abs(P[:, :dim] - P[:, dim:]).max(axis=1) < 1e-10
    in_tp = ps.membership_residuals(P) < 1e-10
    mism = int(np.sum(in_ttp != (in_tp & diagonal)))
    out.append(CheckReport.equal("toda-intersection", "diagonal-space-is-tp-intersection",
                                 alg.name, mism, 0, {"points": 200, "seed": seed}))
    return out


# `tol` is run_battery's override, {"tol": t} or empty, so that a battery's
# default tolerance is said once, in its signature
_BATTERIES = {
    "mcybe": lambda alg, samples, seed, **tol: check_mcybe_battery(
        alg, samples=max(samples, 200), seed=seed, **tol),
    "jacobi": lambda alg, samples, seed, **tol: check_jacobi_battery(
        alg, samples=samples, seed=seed, **tol),
    "involutivity": lambda alg, samples, seed, **tol: check_involutivity_battery(
        alg, points=samples, seed=seed, **tol),
    "casimir": lambda alg, samples, seed, **tol: check_casimir_battery(
        alg, samples=samples, seed=seed, **tol),
    "morphism": lambda alg, samples, seed, **tol: [check_morphism_psi1(
        alg, samples=max(samples, 100), seed=seed, **tol)],
    "independence": lambda alg, samples, seed: check_independence_battery(
        alg, points=samples, seed=seed),
    "rank": lambda alg, samples, seed: check_rank_battery(alg, seed=seed),
    "rais": lambda alg, samples, seed: check_rais_battery(alg),
    "quadratic-relations": lambda alg, samples, seed, **tol: check_field_battery(
        alg, seed=seed, **tol),
    "toda": lambda alg, samples, seed: check_toda_battery(
        alg, samples=max(samples, 100), seed=seed),
}
# batteries whose checks keep their own tolerances: run alone they refuse an
# override, and "all" runs them without it
_OWN_TOLERANCES = ("independence", "rank", "rais", "toda")


BATTERY_NAMES = tuple(_BATTERIES)


def require_tol_accepted(name: str, tol: float | None) -> None:
    """PreconditionError when `tol` overrides a battery that keeps its own
    tolerances; it needs no algebra, so a caller can refuse before a build."""
    if tol is not None and name in _OWN_TOLERANCES:
        raise PreconditionError(f"battery {name!r} takes no tolerance override (--tol): "
                                f"its checks keep their own tolerances")


def run_battery(name: str, alg: AlgebraSpec, samples: int = 20, seed: int = 42,
                tol: float | None = None) -> list[CheckReport]:
    """The reports of battery `name` ("all": of every battery); `tol` overrides
    their default, and a battery whose checks keep their own tolerances
    refuses it (`require_tol_accepted`)."""
    require_tol_accepted(name, tol)

    def run(key):
        override = {} if tol is None or key in _OWN_TOLERANCES else {"tol": tol}
        return _BATTERIES[key](alg, samples, seed, **override)

    if name == "all":
        # a battery the spec cannot serve (say, flows on a basis not graded
        # entry by entry) reports so, and the others still run
        out = []
        for key in _BATTERIES:
            try:
                out.extend(run(key))
            except CapabilityError as err:
                out.append(CheckReport.not_applicable(key, f"{key}-battery", alg.name, {}, err))
        return out
    return run(name)
