"""Check batteries: the one module that turns a measurement into a verdict.

Every report the program gives is built here, by a CheckReport constructor:
one battery per claim family, shared by the CLI and tests, and the reports of
`toda2 flow run` and `toda2 flow commutation` (`flow_run_reports`,
`flow_commutation_reports`).  The other modules compute arrays; `cli` only
parses, runs and emits.  Each tolerance is written once, at its check, and
no caller can change it; the README's criterion list states the contractual
ones.  Sample points are seeded, so reports are deterministic.
No battery writes a bracket's formula again: each reads the bracket fields
of `poisson` (by name through `poisson.block_field`), and the Jacobi sums of
the linear and quadratic brackets are read off those fields alone.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .algebra import AlgebraSpec, bracket_blocks, numerical_rank
from .flows import (
    FIELDS,
    FlowConfig,
    Trajectory,
    factor_states,
    field_rows,
    flow_commutation,
    pencil_eigenvalue_drift,
    relative_drift,
    whole_steps,
)
from .invariants import (
    family_gradient_stack,
    family_labels,
    family_values,
    pullback_gradients,
    rais_vectors,
    trace_gradients,
    trace_values,
)
from .poisson import (
    CapabilityError,
    PhaseSpace,
    PreconditionError,
    block_field,
    bracket_tables,
    brackets,
    diag_phase_space,
    linear_field,
    phase_tp,
    quadratic_field,
    rank_sweep,
    toda_space,
)
from .rmatrix import (
    PairPoint,
    b_tensor_block,
    block_norms,
    form_blocks,
    r_bracket_blocks,
)
from .reports import CheckReport


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


def check_mcybe_battery(alg: AlgebraSpec, samples: int = 200,
                        seed: int = 42) -> list[CheckReport]:
    """The modified classical Yang–Baxter equation with c = 1: the residual
    B(x, y) + [x, y] of R on 𝔤 ("mcybe"), then of ℛ on 𝔤×𝔤 ("mcybe-pair").

    Each draws its own samples from the seed as one stack, x then y per
    sample, and the residual need only lie in the centre.
    """
    out = []
    for check_id, k in (("mcybe", 1), ("mcybe-pair", 2)):
        XY = np.random.default_rng(seed).uniform(-1.0, 1.0, (samples, 2, k, alg.dim))
        X, Y = XY[:, 0], XY[:, 1]
        Z = alg.strip_centre(b_tensor_block(alg, X, Y) + bracket_blocks(alg, X, Y))
        out.append(CheckReport.below(
            check_id, "mcybe-splitting-exact", alg.name, np.sqrt(np.vecdot(Z, Z)), 1e-11,
            {"samples": samples, "seed": seed, "c": 1.0}, axes=("sample", "block"),
        ))
    return out


def check_jacobi_battery(alg: AlgebraSpec, samples: int = 20,
                         seed: int = 42) -> list[CheckReport]:
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
            cyc, 1e-9, {"samples": samples, "seed": seed}, axes=("sample",),
        ))
    return out


def check_involutivity_battery(alg: AlgebraSpec, points: int = 20,
                               seed: int = 42) -> list[CheckReport]:
    """Pairwise brackets of the family vanish on T_P, for every applicable bracket."""
    tol = 1e-8
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


def check_casimir_battery(alg: AlgebraSpec, samples: int = 20,
                          seed: int = 42) -> list[CheckReport]:
    """X_{P_i∘ψ₁} vanishes identically on 𝔤×𝔤 for every generator."""
    M = np.random.default_rng(seed).uniform(-1.0, 1.0, (samples, 2, alg.dim))
    out = []
    for i in alg.exponents:
        out.append(CheckReport.below(
            f"casimir-P{i}", "psi1-pullback-casimir", alg.name,
            block_norms(linear_field(alg, M, pullback_gradients(alg, i, 1.0, M))), 1e-9,
            {"samples": samples, "seed": seed, "generator": i}, axes=("sample",),
        ))
    return out


def _psi1_samples(alg: AlgebraSpec, seed: int, samples: int):
    """Points m (samples, 2, dim) and the gradients ∇f, ∇g at w = x − y (samples, dim).

    Sample k draws (x, y), then two covectors u, v with ∇f = G⁻¹u, ∇g = G⁻¹v,
    or, at every fifth sample, four unit vectors a, b, c, d with
    f(u) = ⟨a,u⟩⟨b,u⟩ and g(u) = ⟨c,u⟩⟨d,u⟩.  The draws are one array, in
    that order.  G⁻¹ is applied one vector at a time, so a stack gets the
    bits of the single products.
    """
    rng = np.random.default_rng(seed)
    quad = np.arange(samples) % 5 == 4
    rows = np.where(quad, 6, 4)
    start = np.cumsum(rows) - rows
    U = rng.uniform(-1, 1, (int(rows.sum()), alg.dim))
    M = U[start[:, None] + np.arange(2)]
    gf = (alg.gram_inv @ U[start + 2][..., None])[..., 0]
    gg = (alg.gram_inv @ U[start + 3][..., None])[..., 0]
    v = U[start[quad, None] + 2 + np.arange(4)]               # (n_quad, 4, dim)
    a, b, c, d = np.moveaxis(v / np.sqrt(np.vecdot(v, v))[..., None], 1, 0)
    w = M[quad, 0] - M[quad, 1]

    def pair(x, y):
        return form_blocks(alg, x[:, None], y[:, None])[:, None]

    gf[quad] = pair(b, w) * a + pair(a, w) * b
    gg[quad] = pair(d, w) * c + pair(c, w) * d
    return M, gf, gg


def check_morphism_battery(alg: AlgebraSpec, samples: int = 100,
                           seed: int = 42) -> list[CheckReport]:
    """ψ₁(x, y) = x − y is a Poisson morphism: {F∘ψ₁, G∘ψ₁}_ℛ(x,y) = {F, G}_LP(x−y).

    F, G run over random linear functions of 𝔤 plus, at every fifth sample,
    quadratic monomials u ↦ ⟨a,u⟩⟨b,u⟩, with their exact gradients
    (`_psi1_samples`), all evaluated on the sample stack at once.
    """
    M, gf, gg = _psi1_samples(alg, seed, samples)
    w = M[:, 0] - M[:, 1]                                      # ψ₁(m)
    # ∇(f∘ψ₁)(m) = (∇f(w), ∇f(w)), and {F, G} = ⟨∇F, X_G⟩₂
    F2, G2 = np.stack([gf, gf], axis=1), np.stack([gg, gg], axis=1)
    lhs = form_blocks(alg, F2, linear_field(alg, M, G2))
    rhs = form_blocks(alg, w[:, None], bracket_blocks(alg, gf, gg)[:, None])   # {f, g}(w)
    return [CheckReport.below("morphism-psi1", "psi1-poisson-morphism", alg.name,
                              lhs - rhs, 1e-9, {"samples": samples, "seed": seed},
                              axes=("sample",))]


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
    if numerical_rank(K) < ns:
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


def check_field_battery(alg: AlgebraSpec, seed: int = 42) -> list[CheckReport]:
    """Field identities at five seeded T_P points: the t- and s-flows are the
    bracket fields of H and −H̃, and each closed-form pencil field of flows.py
    is the bracket field of P_i∘φ_λ; on an associative algebra also
    X^Q_{P_i∘φ_λ} = 2/(λ−1)·X_{P_{i+1}∘φ_λ} and the recursions of the
    family's fields.

    The bracket field of each pullback is evaluated once per (bracket, i, λ)
    at the five points; the closed-form checks read the first three.
    """
    tol = 1e-9
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
# the classical Toda reduction
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
    """The classical Toda lattice as the diagonal restriction of the 2-Toda system.

    Single-algebra side: T_T = 𝔤₋₁ ⊕ 𝔤₀ + e (`poisson.toda_space`) carries
    the R-bracket

        {f, g}_R(x) = ½⟨x, [R∇f, ∇g] + [∇f, R∇g]⟩,

    whose flow for H = P₁ is the Toda equation Ȧ = [A₊, A].  The bracket and
    its Hamiltonian fields are those of the 2-Toda side (`linear_field`,
    `bracket_tables`) on one-block coordinate arrays of 𝔤; the Toda field is
    the t-flow's Lax commutator (`field_rows` with field "t" on rows of 𝔤),
    and the Toda run is the t-flow on the one-block stack (A), solved exactly
    by the flows' factorization exp(tA₀) = n₋b₊ (`factor_states`); it stops
    before a pole or a non-finite state and says so in its note, and
    toda-conservation then fails on a NaN drift and names the pole.

    The diagonal embedding φ(x) = (x, x) lands in T_T′ = Δ(𝔤₋₁⊕𝔤₀) + (e, e)
    ⊂ T_P (`poisson.diag_phase_space`), and matching dual coordinates through
    φ gives a Poisson isomorphism between (T_T, {,}_R) and (T_T′, {,}_ℛ).
    Restricting the pencil family to the diagonal collapses it into binomial
    multiples of the Toda invariants: F_{k,i}(φ(x)) = C(m_i+1, k)·P_i(x).

    The isomorphism is checked on `samples` Toda points, the binomial
    collapse on max(samples // 5, 5), the Toda suite (submanifold, Lax form,
    involutivity, independence, conservation, diagonal consistency) on 20,
    and T_T′ = T_P ∩ Δ on a mixed population of 200.
    """
    ts, dps, ps = toda_space(alg), diag_phase_space(alg), phase_tp(alg)
    out = []

    # φ matches the R-bracket on T_T with the ℛ-bracket on T_T′.  Coordinate
    # functions are the Euclidean duals of the matched tangent bases (t_a on
    # the Toda side, (t_a, t_a) on the diagonal side), so ξ_a∘φ = ζ_a
    # identically and |{ξ_a,ξ_b}_ℛ(φx) − {ζ_a,ζ_b}_R(x)| measures exactly the
    # Poisson property; both sides are raw coordinate bracket tables, never
    # a Dirac-corrected `poisson_matrix`
    X = ts.sample_stack(seed, samples)                  # (samples, dim)
    ts.require_members(X)
    P = np.stack([X, X], axis=1)                        # φ(x) = (x, x) as pair blocks
    lhs = bracket_tables(alg, "linear", P, dps.coord_gradients)
    rhs = bracket_tables(alg, "linear", X[:, None], ts.coord_gradients)
    out.append(CheckReport.below("toda-poisson-iso", "diagonal-embedding-poisson-iso", alg.name,
                                 lhs - rhs, 1e-9, {"samples": samples, "seed": seed},
                                 axes=("sample", "row", "column")))

    # F_{k,i}(φ(x)) = C(m_i+1, k) · P_i(x)
    count = max(samples // 5, 5)
    X = ts.sample_stack(seed, count)
    values = family_values(alg, np.concatenate([X, X], axis=1))
    trace = {i: trace_values(alg, X, i) for i in alg.exponents}
    want = np.stack([math.comb(i + 1, k) * trace[i] for (k, i) in family_labels(alg)], axis=1)
    out.append(CheckReport.below("toda-binomial", "diagonal-binomial-collapse", alg.name,
                                 values - want, 1e-10, {"samples": count, "seed": seed},
                                 axes=("sample", "function")))

    X = ts.sample_stack(seed, 20)                       # (20, dim) Toda points
    params = {"points": len(X), "seed": seed}

    # T_T is a Poisson submanifold: every Hamiltonian field is tangent to it;
    # the fields of the basis coordinates x ↦ x_a = ⟨G⁻¹e_a, x⟩ span them all
    coords = alg.gram_inv.T[:, None]            # gradients G⁻¹e_a, the rows of (G⁻¹)ᵀ
    fields = linear_field(alg, X[:5, None, None], coords)
    out.append(CheckReport.below("toda-submanifold", "toda-space-poisson-submanifold",
                                 alg.name, ts.normal_residuals(fields[..., 0, :]), 1e-9,
                                 {"points": 5, "seed": seed}, axes=("point", "coordinate")))

    # the P₁ flow is the Toda equation [A₊, A]
    toda = field_rows(alg, "t", X)
    x_p1 = linear_field(alg, X[:, None], trace_gradients(alg, X, 1)[:, None])
    out.append(CheckReport.below("toda-lax-form", "toda-flow-is-lax-bracket", alg.name,
                                 block_norms(x_p1 - toda[:, None]), 1e-9, params,
                                 axes=("point",)))

    # involutivity of the P_i on (𝔤, R-bracket)
    grads = np.stack([trace_gradients(alg, X, i) for i in alg.exponents], axis=1)
    out.append(CheckReport.below("toda-involutivity", "toda-invariants-involutive", alg.name,
                                 bracket_tables(alg, "linear", X[:, None], grads), 1e-9, params,
                                 axes=("point", "row", "column")))

    # independence of the P_i on T_T
    out.append(CheckReport.equal("toda-independence", "toda-invariants-independent", alg.name,
                                 int(ts.jacobian_ranks(grads).max()), alg.rank, params))

    # conservation along the Toda flow, the exact t-flow on the one-block stack (A₀)
    # from the first sample point
    stack, note, _ = factor_states(alg, "t", alg.to_matrices(X[0]), 1e-3, whole_steps(1e-3, 1.0))
    states = alg.to_coords(stack)
    vals = np.stack([trace_values(alg, states, i) for i in alg.exponents], axis=1)
    out.append(CheckReport.below("toda-conservation", "toda-flow-conserves-invariants",
                                 alg.name, tol=1e-6, params={"dt": 1e-3, "T": 1.0, "seed": seed},
                                 **_run_drift(note, lambda: relative_drift(vals, note),
                                              ("function",))))

    # the diagonal is t-flow invariant and the pushforward matches the t-flow field:
    # the t-flow at (x, x) is (X_{P₁}(x), X_{P₁}(x))
    gap = field_rows(alg, "t", np.tile(X, 2)) - np.tile(x_p1[:, 0], 2)
    out.append(CheckReport.below("toda-diagonal-consistency", "t-flow-restricts-to-toda-flow",
                                 alg.name, gap, 1e-10, params, axes=("point", "coordinate")))

    # T_T' = T_P ∩ Δ: membership verdicts agree on a mixed random population
    P = _intersection_population(alg, seed)
    dim = alg.dim
    in_ttp = dps.membership_residuals(P) < 1e-10
    diagonal = np.abs(P[:, :dim] - P[:, dim:]).max(axis=1) < 1e-10
    in_tp = ps.membership_residuals(P) < 1e-10
    mism = int(np.sum(in_ttp != (in_tp & diagonal)))
    out.append(CheckReport.equal("toda-intersection", "diagonal-space-is-tp-intersection",
                                 alg.name, mism, 0, {"points": 200, "seed": seed}))
    return out


# --------------------------------------------------------------------------
# the reports of `toda2 flow run` and `toda2 flow commutation`
# --------------------------------------------------------------------------


def _run_drift(note: str, measure, axes: tuple = ()) -> dict:
    """The residuals, detail and axis names of a drift report of a run:
    measure(), the residual array, with its axis names `axes`.  A run that
    stopped early was not measured over its horizon: its drift is NaN, which
    fails, whatever its kept samples read, and its note, which says where it
    stopped, is the detail."""
    if note:
        return {"residuals": math.nan, "detail": note}
    return {"residuals": measure(), "axes": axes}


def flow_run_reports(ps: PhaseSpace, cfg: FlowConfig, traj: Trajectory,
                     seed: int) -> list[CheckReport]:
    """The drifts of one run from a seeded point of `ps`: the family's
    conservation, tangency to `ps`, and on the t- and s-flows the pencil
    eigenvalues at λ₀ = 0, 1, 2; each NaN on a run that stopped early."""
    alg, note = ps.alg, traj.note
    params = {"field": cfg.field, "dt": cfg.dt, "T": cfg.T, "seed": seed}
    tol = 1e-6
    out = [
        CheckReport.below("flow-conservation", "flow-preserves-family", alg.name, tol=tol,
                          params=params,
                          **_run_drift(note, traj.conservation_drift, ("function",))),
        CheckReport.below("flow-tangency", "flow-tangent-to-phase-space", alg.name, tol=1e-7,
                          params=params, **_run_drift(note, lambda: traj.tangency_drift(ps))),
    ]
    if cfg.field in FIELDS[:2]:
        for lam0 in (0.0, 1.0, 2.0):
            out.append(CheckReport.below(
                f"flow-isospectral-l{lam0:g}", "pencil-eigenvalues-conserved", alg.name,
                tol=tol, params={"field": cfg.field, "lambda0": lam0},
                **_run_drift(note, lambda lam0=lam0: pencil_eigenvalue_drift(traj, lam0)),
            ))
    return out


def flow_commutation_reports(m0: PairPoint, dt: float, steps: int,
                             seed: int) -> list[CheckReport]:
    """The t/s commutation defect from m0, the seeded point of T_P."""
    return [CheckReport.below(
        "flow-commutation", "t-s-flows-commute", m0.alg.name,
        flow_commutation(m0, dt=dt, n_steps=steps), 1e-6,
        {"dt": dt, "steps": steps, "seed": seed},
    )]


# --------------------------------------------------------------------------
# the batteries by name, and the "run everything" entry point
# --------------------------------------------------------------------------


_BATTERIES = {
    "mcybe": lambda alg, samples, seed: check_mcybe_battery(
        alg, samples=max(samples, 200), seed=seed),
    "jacobi": lambda alg, samples, seed: check_jacobi_battery(
        alg, samples=samples, seed=seed),
    "involutivity": lambda alg, samples, seed: check_involutivity_battery(
        alg, points=samples, seed=seed),
    "casimir": lambda alg, samples, seed: check_casimir_battery(
        alg, samples=samples, seed=seed),
    "morphism": lambda alg, samples, seed: check_morphism_battery(
        alg, samples=max(samples, 100), seed=seed),
    "independence": lambda alg, samples, seed: check_independence_battery(
        alg, points=samples, seed=seed),
    "rank": lambda alg, samples, seed: check_rank_battery(alg, seed=seed),
    "rais": lambda alg, samples, seed: check_rais_battery(alg),
    "quadratic-relations": lambda alg, samples, seed: check_field_battery(alg, seed=seed),
    "toda": lambda alg, samples, seed: check_toda_battery(
        alg, samples=max(samples, 100), seed=seed),
}


BATTERY_NAMES = tuple(_BATTERIES)


def run_battery(name: str, alg: AlgebraSpec, samples: int = 20,
                seed: int = 42) -> list[CheckReport]:
    """The reports of battery `name` ("all": of every battery).

    `samples` must be at least 1, for every name: mcybe, morphism and toda
    raise it to their own floors (200, 100, 100), and the other sampling
    batteries draw exactly that many.
    """
    if samples < 1:
        raise PreconditionError(f"a battery needs samples >= 1, got {samples}")
    if name == "all":
        # a battery the spec cannot serve (say, flows on a basis not graded
        # entry by entry) reports so, and the others still run
        out = []
        for key, battery in _BATTERIES.items():
            try:
                out.extend(battery(alg, samples, seed))
            except CapabilityError as err:
                out.append(CheckReport.not_applicable(key, f"{key}-battery", alg.name, {}, err))
        return out
    return _BATTERIES[name](alg, samples, seed)
