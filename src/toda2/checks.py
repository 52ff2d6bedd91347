"""Check batteries: one battery per claim family, shared by the CLI and tests.

Every battery returns a list of CheckReports with the tolerances used by the
acceptance suite.  Sample points are seeded, so reports are deterministic.
"""
from __future__ import annotations

import numpy as np

from .algebra import AlgebraSpec, Element, bracket, form
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
    bracket_tables,
    check_morphism_psi1,
    inner_bracket_gradients,
    linear_field,
    phase_tp,
    quadratic_field,
    rank_sweep,
)
from .rmatrix import (
    PairPoint,
    block_norms,
    check_mcybe,
    form_blocks,
    point_block,
    r_bracket_blocks,
)
from .reports import CheckReport, worst
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
        n = alg.n or alg.matrix_size
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
    per-sample draws, and evaluates them all at once.
    """
    rng = np.random.default_rng(seed)
    out = []

    def rb(a, b):
        return r_bracket_blocks(alg, a, b)

    # the R-bracket on 𝔤, then the ℛ-bracket on 𝔤×𝔤: x, y, z per sample
    for name, k in (("r", 1), ("rr", 2)):
        x, y, z = np.moveaxis(rng.uniform(-1.0, 1.0, (samples, 3, k, alg.dim)), 1, 0)
        cyc = rb(rb(x, y), z) + rb(rb(y, z), x) + rb(rb(z, x), y)
        residual = worst(block_norms(cyc))
        out.append(CheckReport.below(
            f"jacobi-{name}-bracket", f"{name}-bracket-jacobi", alg.name,
            residual, 1e-11, {"samples": samples, "seed": seed},
        ))

    for which in ("linear", "quadratic") if alg.associative else ("linear",):
        field = linear_field if which == "linear" else quadratic_field
        # per sample: the point m, then the gradients of linear F, G, H
        m, f, g, h = np.moveaxis(rng.uniform(-1.0, 1.0, (samples, 4, 2, alg.dim)), 1, 0)

        # {A, {B, C}}(m) = ⟨∇A, X_{B,C}(m)⟩, the inner bracket with its exact gradient
        def outer(a, b, c):
            return form_blocks(alg, a, field(alg, m, inner_bracket_gradients(alg, which, m, b, c)))

        cyc = outer(f, g, h) + outer(g, h, f) + outer(h, f, g)
        residual = worst(np.abs(cyc))
        out.append(CheckReport.below(
            f"jacobi-{which}-bracket", f"{which}-poisson-jacobi", alg.name,
            residual, tol, {"samples": samples, "seed": seed},
        ))
    return out


def check_involutivity_battery(alg: AlgebraSpec, points: int = 20, seed: int = 42,
                               tol: float = 1e-8) -> list[CheckReport]:
    """Pairwise brackets of the family vanish on T_P, for every applicable bracket."""
    ps = phase_tp(alg)
    labels = family_labels(alg)
    out = []
    kinds = ("linear", "quadratic") if alg.associative else ("linear",)
    V = ps.sample_stack(seed, points)
    M, A = V.reshape(points, 2, alg.dim), family_gradient_stack(alg, V)
    for which in kinds:
        residual = worst(np.abs(bracket_tables(alg, which, M, A)))
        out.append(CheckReport.below(
            f"involutivity-{which}", f"family-involutive-{which}", alg.name,
            residual, tol,
            {"points": points, "seed": seed, "pairs": len(labels) * (len(labels) - 1) // 2},
        ))

    # pencil pullbacks at mixed λ, γ are in involution for the linear bracket
    lams = (0.0, 0.5, 1.0, 2.0, -1.0)
    M = np.random.default_rng(seed).uniform(-1.0, 1.0, (5, 2, alg.dim))
    A = np.stack([pullback_gradients(alg, i, lam, M)
                  for i in alg.exponents for lam in lams], axis=1).reshape(5, -1, 2 * alg.dim)
    residual = worst(np.abs(bracket_tables(alg, "linear", M, A)))
    out.append(CheckReport.below(
        "involutivity-pencil", "pencil-pullbacks-involutive", alg.name,
        residual, tol, {"points": 5, "seed": seed, "lambdas": list(lams)},
    ))
    return out


def check_casimir_battery(alg: AlgebraSpec, samples: int = 20, seed: int = 42,
                          tol: float = 1e-9) -> list[CheckReport]:
    """X_{P_i∘ψ₁} vanishes identically on 𝔤×𝔤 for every generator."""
    M = np.random.default_rng(seed).uniform(-1.0, 1.0, (samples, 2, alg.dim))
    out = []
    for i in alg.exponents:
        residual = worst(block_norms(linear_field(alg, M, pullback_gradients(alg, i, 1.0, M))))
        out.append(CheckReport.below(
            f"casimir-P{i}", "psi1-pullback-casimir", alg.name,
            residual, tol, {"samples": samples, "seed": seed, "generator": i},
        ))
    return out


def check_independence_battery(alg: AlgebraSpec, points: int = 20,
                               seed: int = 42) -> list[CheckReport]:
    """Jacobian rank of the family = cardinality, at (e, h) and seeded points."""
    ps = phase_tp(alg)
    card = len(family_labels(alg))

    def rank(V):
        return int(ps.jacobian_ranks(family_gradient_stack(alg, V)).max())

    at_eh = rank(PairPoint(alg.e, alg.h).vec()[None])
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


def _simple_system(alg: AlgebraSpec) -> tuple[list, list, list, np.ndarray, str]:
    """Root vectors e_i, lowering elements f_i and coroots h_i of the simple
    roots, read off the spec data, and the Cartan block C[i, j] = α_i(h_j).

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
    es = [Element(alg, unit[a]) for a in up]
    fs = [Element(alg, c) for c in np.linalg.solve(K.T, unit[down])]
    ts = [bracket(e, f) for e, f in zip(es, fs)]
    lengths = [form(bracket(t, e), f) for t, e, f in zip(ts, es, fs)]   # α_i(t_i)
    if min(abs(c) for c in lengths) < 1e-12:
        raise PreconditionError(f"{alg.name}: a degree-1 basis vector is not a root vector")
    hs = [(2.0 / c) * t for c, t in zip(lengths, ts)]
    A = np.array([[form(bracket(h, e), f) for h in hs] for e, f in zip(es, fs)])
    off_root = max(
        (bracket(h, e) - A[i, j] * e).norm()
        for i, e in enumerate(es) for j, h in enumerate(hs)
    )
    if off_root > 1e-9:
        raise PreconditionError(
            f"{alg.name}: the degree-1 basis vectors are not root vectors "
            f"(residual {off_root:.3g})")
    block = cartan[:ns, :ns]
    for C, note in ((block, ""), (block.T, " (cartan transposed)")):
        if np.abs(A - C).max() < 1e-9:
            return es, fs, hs, C, note
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
    es, fs, hs, C, note = _simple_system(alg)
    w = np.linalg.solve(np.array([[form(a, b) for b in hs] for a in hs]), np.ones(len(hs)))
    u = sum((wk * h for wk, h in zip(w, hs)), sum(es, alg.zero()))
    m = point_block(PairPoint(u, alg.zero()))
    A = np.stack([PairPoint(a, a).vec() for a in hs + fs])
    return bracket_tables(alg, "linear", m, A), C, note


def check_rank_battery(alg: AlgebraSpec, seed: int = 42) -> list[CheckReport]:
    ps = phase_tp(alg)
    card = len(family_labels(alg))
    want = expected_rank(alg)
    out = []
    kinds = ("linear", "quadratic") if alg.associative else ("linear",)
    for which in kinds:
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
    res = float(np.abs(M - want_M).max())
    out.append(CheckReport.below(
        "cartan-block", "cartan-matrix-block", alg.name, res, 1e-10, {},
        detail=f"block [[0,-C^T],[C,0]] with C = {C.astype(int).tolist()}{note}",
    ))
    return out


# --------------------------------------------------------------------------
# vector-field identities (criterion 7 territory)
# --------------------------------------------------------------------------


def relquad_residuals(alg: AlgebraSpec, i: int, lam: float, V: np.ndarray) -> np.ndarray:
    """Residual of X^Q_{P_i∘φ_λ} = (2/(λ−1))·X_{P_{i+1}∘φ_λ} at point rows V (…, 2·dim).

    The two closed-form fields are proportional with ratio 2/(λ−1); λ = 1 is
    excluded (the linear field degenerates there).
    """
    if lam == 1.0:
        raise PreconditionError(
            "the quadratic/linear field relation degenerates at λ = 1"
        )
    xq = field_rows(alg, "quadratic", V, i, lam)
    xl = field_rows(alg, "linear", V, i + 1, lam)
    return np.abs(xq - xl * (2.0 / (lam - 1.0))).max(axis=-1)


_LAMBDAS = (0.0, 2.0, -1.0)     # the λ of the pencil-field identities


def _pencil_field_defect(alg: AlgebraSpec, which: str, V: np.ndarray) -> float:
    """Largest gap between the closed-form pencil field of P_i∘φ_λ (flows.py) and
    the bracket field of its gradient, over the point rows V, every i and λ in _LAMBDAS."""
    M = V.reshape(len(V), 2, alg.dim)
    field = linear_field if which == "linear" else quadratic_field
    gaps = [
        block_norms(field_rows(alg, which, V, i, lam).reshape(M.shape)
                    - field(alg, M, pullback_gradients(alg, i, lam, M)))
        for i in alg.exponents for lam in _LAMBDAS
    ]
    return worst(gaps)


def check_field_identities(alg: AlgebraSpec, seed: int = 42,
                           tol: float = 1e-9) -> list[CheckReport]:
    """Bracket fields of H, H̃ and P_i∘φ_λ equal the flows' closed-form fields."""
    V = phase_tp(alg).sample_stack(seed, 5)
    M = V.reshape(5, 2, alg.dim)
    zero = np.zeros_like(M[:, 0])
    out = []

    # H = ½⟨x, x⟩ has gradient (x, 0), H̃ = ½⟨y, y⟩ has gradient (0, −y)
    x_h = linear_field(alg, M, np.stack([M[:, 0], zero], axis=1))
    x_ht = linear_field(alg, M, np.stack([zero, -M[:, 1]], axis=1))
    worst_t = worst(block_norms(x_h - field_rows(alg, "t", V).reshape(M.shape)))
    out.append(CheckReport.below("field-t-hamiltonian", "t-flow-is-hamiltonian", alg.name,
                                 worst_t, tol, {"seed": seed}))
    # the s-flow is the Hamiltonian field of −H̃ under these conventions
    worst_s = worst(block_norms(x_ht + field_rows(alg, "s", V).reshape(M.shape)))
    out.append(CheckReport.below("field-s-hamiltonian", "s-flow-is-hamiltonian-of-minus",
                                 alg.name, worst_s, tol, {"seed": seed}))

    gap = _pencil_field_defect(alg, "linear", V[:3])
    out.append(CheckReport.below("field-pencil-closed-form", "pencil-field-closed-form", alg.name,
                                 gap, tol, {"seed": seed, "lambdas": list(_LAMBDAS)}))
    return out


def check_quadratic_relations(alg: AlgebraSpec, seed: int = 42,
                              tol: float = 1e-9) -> list[CheckReport]:
    """Quadratic-vs-linear field relations on an associative algebra."""
    if not alg.associative:
        return []
    V = phase_tp(alg).sample_stack(seed, 5)
    out = []

    gap = _pencil_field_defect(alg, "quadratic", V[:3])
    out.append(CheckReport.below("field-quadratic-closed-form", "quadratic-field-closed-form",
                                 alg.name, gap, tol, {"seed": seed}))

    residual = worst([relquad_residuals(alg, i, lam, V)
                      for i in alg.exponents for lam in _LAMBDAS])
    out.append(CheckReport.below(
        "relquad", "quadratic-linear-field-ratio", alg.name,
        residual, tol, {"seed": seed, "lambdas": list(_LAMBDAS)},
        detail="X^Q_{P_i∘φλ} = 2/(λ−1) · X_{P_{i+1}∘φλ}",
    ))

    # coefficient-level relations between the two field families: every
    # member's field under both brackets at the first three points at once
    M = V[:3].reshape(3, 2, alg.dim)
    G = family_gradient_stack(alg, V[:3]).reshape(3, -1, 2, alg.dim)
    XQ, XL = quadratic_field(alg, M[:, None], G), linear_field(alg, M[:, None], G)
    at = {label: k for k, label in enumerate(family_labels(alg))}

    def xq(j, i):
        return XQ[:, at[(j, i)]]

    def xl(j, i):
        return XL[:, at[(j, i)]]

    n = alg.n or alg.matrix_size
    gaps = {1: [], 2: [], 3: []}
    for i in range(n - 1):
        gaps[1].append(block_norms(xq(0, i) - xl(0, i + 1) * 2.0))
        for j in range(1, i + 2):
            gaps[2].append(block_norms(xq(j, i) + xq(j - 1, i) - xl(j, i + 1) * 2.0))
        gaps[3].append(block_norms(xq(i + 1, i) - xl(i + 2, i + 1) * 2.0))
    lines = {
        1: ("relquadline-1", "X^Q_{F_0i} = 2·X_{F_0,i+1}"),
        2: ("relquadline-2", "X^Q_{F_ji} + X^Q_{F_j-1,i} = 2·X_{F_j,i+1}"),
        3: ("relquadline-3", "X^Q_{F_i+1,i} = 2·X_{F_i+2,i+1}"),
    }
    for k, (check_id, text) in lines.items():
        out.append(CheckReport.below(check_id, "family-field-recursion", alg.name,
                                     worst(gaps[k]), tol, {"seed": seed}, detail=text))
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
# default tolerance is said once, in its signature; `**_` drops it
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
    "independence": lambda alg, samples, seed, **_: check_independence_battery(
        alg, points=samples, seed=seed),
    "rank": lambda alg, samples, seed, **_: check_rank_battery(alg, seed=seed),
    "rais": lambda alg, samples, seed, **_: check_rais_battery(alg),
    "quadratic-relations": lambda alg, samples, seed, **tol: (
        check_field_identities(alg, seed=seed, **tol)
        + check_quadratic_relations(alg, seed=seed, **tol)
    ),
    "toda": lambda alg, samples, seed, **_: check_toda_battery(
        alg, samples=max(samples, 100), seed=seed),
}


BATTERY_NAMES = tuple(_BATTERIES)


def run_battery(name: str, alg: AlgebraSpec, samples: int = 20, seed: int = 42,
                tol: float | None = None) -> list[CheckReport]:
    """The reports of battery `name` ("all": of every battery); `tol` overrides their default."""
    override = {} if tol is None else {"tol": tol}
    if name == "all":
        # a battery the spec cannot serve (say, flows on a basis not graded
        # entry by entry) reports so, and the others still run
        out = []
        for key in _BATTERIES:
            try:
                out.extend(_BATTERIES[key](alg, samples, seed, **override))
            except CapabilityError as err:
                out.append(CheckReport.not_applicable(key, f"{key}-battery", alg.name, {}, err))
        return out
    return _BATTERIES[name](alg, samples, seed, **override)
