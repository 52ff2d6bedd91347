"""Check batteries: one battery per claim family, shared by the CLI and tests.

Every battery returns a list of CheckReports with the tolerances used by the
acceptance suite.  Sample points are seeded, so reports are deterministic.
"""
from __future__ import annotations

import numpy as np

from .algebra import AlgebraSpec, Element, bracket, form
from .flows import field_linear_pencil, field_quadratic, field_s, field_t
from .invariants import (
    family,
    family_gradients,
    family_labels,
    pencil_pullback,
    rais_vectors,
)
from .poisson import (
    PreconditionError,
    ScalarFunction,
    _bracket_table,
    degree2_function,
    hamiltonian_field,
    linear_bracket,
    linear_function,
    phase_tp,
    check_morphism_psi1,
    quadratic_bracket,
    rank_sweep,
)
from .rmatrix import (
    PairPoint,
    RMatrixConfig,
    check_mcybe,
    random_element,
    random_pair,
    rr_bracket,
    r_bracket,
)
from .reports import CheckReport
from .toda import (
    check_binomial_identity,
    check_poisson_iso,
    diag_phase_space,
    toda_suite,
)

_DEFAULT = RMatrixConfig()


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
        check_mcybe(alg, R=None, c=1.0, samples=samples, seed=seed, tol=tol),
        check_mcybe(alg, c=1.0, samples=samples, seed=seed, pair=True, tol=tol),
    ]


def check_jacobi_battery(alg: AlgebraSpec, samples: int = 20, seed: int = 42,
                         tol: float = 1e-9) -> list[CheckReport]:
    """Jacobi identities: R/ℛ-brackets on elements, both function brackets."""
    rng = np.random.default_rng(seed)
    out = []

    worst = 0.0
    for _ in range(samples):
        x, y, z = (random_element(alg, rng) for _ in range(3))
        cyc = (
            r_bracket(r_bracket(x, y), z)
            + r_bracket(r_bracket(y, z), x)
            + r_bracket(r_bracket(z, x), y)
        )
        worst = max(worst, cyc.norm())
    out.append(CheckReport(
        check="jacobi-r-bracket", anchor="r-bracket-jacobi", algebra=alg.name,
        params={"samples": samples, "seed": seed, "tol": 1e-11},
        measured=worst, expected="< 1e-11", verdict=worst < 1e-11,
    ))

    worst = 0.0
    for _ in range(samples):
        p, q, r = (random_pair(alg, rng) for _ in range(3))
        cyc = (
            rr_bracket(rr_bracket(p, q), r)
            + rr_bracket(rr_bracket(q, r), p)
            + rr_bracket(rr_bracket(r, p), q)
        )
        worst = max(worst, cyc.norm())
    out.append(CheckReport(
        check="jacobi-rr-bracket", anchor="rr-bracket-jacobi", algebra=alg.name,
        params={"samples": samples, "seed": seed, "tol": 1e-11},
        measured=worst, expected="< 1e-11", verdict=worst < 1e-11,
    ))

    for which in ("linear", "quadratic") if alg.associative else ("linear",):
        val = linear_bracket if which == "linear" else quadratic_bracket
        worst = 0.0
        for _ in range(samples):
            m = random_pair(alg, rng)
            F, G, H = (
                linear_function(random_pair(alg, rng), f"{nm}")
                for nm in "FGH"
            )
            # inner brackets become new functions, differentiated by FD; the
            # bracket of two linear functions has degree ≤ 2 in m
            def pb(A, B):
                return degree2_function(
                    f"{{{A.name},{B.name}}}", lambda mm, A=A, B=B: val(A, B, mm)
                )
            cyc = (
                val(F, pb(G, H), m) + val(G, pb(H, F), m) + val(H, pb(F, G), m)
            )
            worst = max(worst, abs(cyc))
        out.append(CheckReport(
            check=f"jacobi-{which}-bracket", anchor=f"{which}-poisson-jacobi",
            algebra=alg.name,
            params={"samples": samples, "seed": seed, "tol": tol},
            measured=worst, expected=f"< {tol:g}", verdict=worst < tol,
        ))
    return out


def check_involutivity_battery(alg: AlgebraSpec, points: int = 20, seed: int = 42,
                               tol: float = 1e-8) -> list[CheckReport]:
    """Pairwise brackets of the family vanish on T_P, for every applicable bracket."""
    ps = phase_tp(alg)
    labels = family_labels(alg)
    out = []
    kinds = ("linear", "quadratic") if alg.associative else ("linear",)
    for which in kinds:
        worst = 0.0
        for m in ps.sample_points(seed, points):
            table = _bracket_table(m, family_gradients(alg, m), which)
            worst = max(worst, float(np.abs(table).max()))
        out.append(CheckReport(
            check=f"involutivity-{which}", anchor=f"family-involutive-{which}",
            algebra=alg.name,
            params={"points": points, "seed": seed, "tol": tol,
                    "pairs": len(labels) * (len(labels) - 1) // 2},
            measured=worst, expected=f"< {tol:g}", verdict=worst < tol,
        ))

    # pencil pullbacks at mixed λ, γ are in involution for the linear bracket
    lams = (0.0, 0.5, 1.0, 2.0, -1.0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        m = random_pair(alg, rng)
        grads = [pencil_pullback(alg, i, lam).gradient(m)
                 for i in alg.exponents for lam in lams]
        worst = max(worst, float(np.abs(_bracket_table(m, grads, "linear")).max()))
    out.append(CheckReport(
        check="involutivity-pencil", anchor="pencil-pullbacks-involutive",
        algebra=alg.name,
        params={"points": 5, "seed": seed, "lambdas": list(lams), "tol": tol},
        measured=worst, expected=f"< {tol:g}", verdict=worst < tol,
    ))
    return out


def check_casimir_battery(alg: AlgebraSpec, samples: int = 20, seed: int = 42,
                          tol: float = 1e-9) -> list[CheckReport]:
    """X_{P_i∘ψ₁} vanishes identically on 𝔤×𝔤 for every generator."""
    rng = np.random.default_rng(seed)
    pts = [random_pair(alg, rng) for _ in range(samples)]
    out = []
    for i in alg.exponents:
        C = pencil_pullback(alg, i, 1.0)
        worst = max(hamiltonian_field(C, m).norm() for m in pts)
        out.append(CheckReport(
            check=f"casimir-P{i}", anchor="psi1-pullback-casimir", algebra=alg.name,
            params={"samples": samples, "seed": seed, "tol": tol, "generator": i},
            measured=worst, expected=f"< {tol:g}", verdict=worst < tol,
        ))
    return out


def check_independence_battery(alg: AlgebraSpec, points: int = 20,
                               seed: int = 42) -> list[CheckReport]:
    """Jacobian rank of the family = cardinality, at (e, h) and seeded points."""
    ps = phase_tp(alg)
    card = len(family_labels(alg))

    def rank(pts):
        return max(ps.jacobian_rank(family_gradients(alg, m)) for m in pts)

    at_eh = rank([PairPoint(alg.e, alg.h)])
    sweep = rank(ps.sample_points(seed, points))
    return [
        CheckReport(
            check="independence-at-eh", anchor="family-independent-at-eh",
            algebra=alg.name, params={"cardinality": card},
            measured=at_eh, expected=card, verdict=at_eh == card,
        ),
        CheckReport(
            check="independence-sweep", anchor="family-independent-generic",
            algebra=alg.name,
            params={"points": points, "seed": seed, "cardinality": card},
            measured=sweep, expected=card, verdict=sweep == card,
        ),
    ]


def check_rais_battery(alg: AlgebraSpec) -> list[CheckReport]:
    data = rais_vectors(alg)
    want = (alg.dim + alg.rank) // 2
    return [
        CheckReport(
            check="rais-count", anchor="rais-vector-count", algebra=alg.name,
            params={}, measured=data.count, expected=want,
            verdict=data.count == want,
        ),
        CheckReport(
            check="rais-rank", anchor="rais-vectors-independent", algebra=alg.name,
            params={}, measured=data.rank, expected=data.count,
            verdict=data.rank == data.count,
        ),
        CheckReport(
            check="rais-span", anchor="rais-span-nonnegative-degrees",
            algebra=alg.name, params={"tol": 1e-12},
            measured=data.max_negative_component, expected="< 1e-12",
            verdict=data.max_negative_component < 1e-12,
            detail=f"degrees present: {list(data.degree_profile)}",
        ),
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


def _cartan_block(alg: AlgebraSpec,
                  cfg: RMatrixConfig = _DEFAULT) -> tuple[np.ndarray, np.ndarray, str]:
    """The measured block, the Cartan block C it should equal, and C's note.

    Coordinates are ψ₁-pullbacks z_j = ⟨h_j, x−y⟩ over the simple coroots and
    z_{ℓ+i} = ⟨f_i, x−y⟩ over the simple lowering elements, with gradients
    (h_j, h_j) and (f_i, f_i), at the point
    (u, 0) with u = Σ e_i + Σ w_k h_k, ⟨h_j, Σ w_k h_k⟩ = 1: all of them are 1.
    """
    es, fs, hs, C, note = _simple_system(alg)
    w = np.linalg.solve(np.array([[form(a, b) for b in hs] for a in hs]), np.ones(len(hs)))
    u = sum((wk * h for wk, h in zip(w, hs)), sum(es, alg.zero()))
    m = PairPoint(u, alg.zero())
    M = _bracket_table(m, [PairPoint(a, a) for a in hs + fs], "linear", cfg)
    return M, C, note


def cartan_block(alg: AlgebraSpec, cfg: RMatrixConfig = _DEFAULT) -> np.ndarray:
    """The 𝔤₀⊕𝔤₁-factor Poisson block [[0, −Cᵀ], [C, 0]] at unit coordinates."""
    return _cartan_block(alg, cfg)[0]


def check_rank_battery(alg: AlgebraSpec, seed: int = 42,
                       points: int = 25) -> list[CheckReport]:
    ps = phase_tp(alg)
    card = len(family_labels(alg))
    want = expected_rank(alg)
    out = []
    kinds = ("linear", "quadratic") if alg.associative else ("linear",)
    for which in kinds:
        got = rank_sweep(ps, which, seed=seed, points=points)
        out.append(CheckReport(
            check=f"rank-{which}", anchor="restricted-poisson-rank",
            algebra=alg.name,
            params={"points": points, "seed": seed, "phase_space": "T_P"},
            measured=got, expected=want, verdict=got == want,
        ))
        identity_ok = card == ps.dim - got // 2
        out.append(CheckReport(
            check=f"count-identity-{which}", anchor="cardinality-rank-identity",
            algebra=alg.name,
            params={"dim_TP": ps.dim, "rank": got},
            measured=card, expected=ps.dim - got // 2, verdict=identity_ok,
        ))

    # the Cartan-matrix block of the 𝔤₀⊕𝔤₁ factor at unit coordinates
    try:
        M, C, note = _cartan_block(alg)
    except PreconditionError as err:
        out.append(CheckReport(
            check="cartan-block", anchor="cartan-matrix-block", algebra=alg.name,
            params={"tol": 1e-10}, measured=None, expected="not applicable",
            verdict=True, detail=f"not applicable: {err}",
        ))
        return out
    ns = len(C)
    want_M = np.block([
        [np.zeros((ns, ns)), -C.T],
        [C, np.zeros((ns, ns))],
    ])
    res = float(np.abs(M - want_M).max())
    out.append(CheckReport(
        check="cartan-block", anchor="cartan-matrix-block", algebra=alg.name,
        params={"tol": 1e-10},
        measured=res, expected="< 1e-10", verdict=res < 1e-10,
        detail=f"block [[0,-C^T],[C,0]] with C = {C.astype(int).tolist()}{note}",
    ))
    return out


# --------------------------------------------------------------------------
# vector-field identities (criterion 7 territory)
# --------------------------------------------------------------------------


def relquad_residual(alg: AlgebraSpec, i: int, lam: float, m: PairPoint,
                     cfg: RMatrixConfig = _DEFAULT) -> float:
    """Residual of X^Q_{P_i∘φ_λ} = (2/(λ−1))·X_{P_{i+1}∘φ_λ}.

    The two closed-form fields are proportional with ratio 2/(λ−1); λ = 1 is
    excluded (the linear field degenerates there).
    """
    if lam == 1.0:
        raise PreconditionError(
            "the quadratic/linear field relation degenerates at λ = 1"
        )
    xq = field_quadratic(i, lam, m, cfg)
    xl = field_linear_pencil(i + 1, lam, m, cfg)
    return (xq - (2.0 / (lam - 1.0)) * xl).norm()


def check_field_identities(alg: AlgebraSpec, seed: int = 42,
                           tol: float = 1e-9) -> list[CheckReport]:
    """Bracket fields of H, H̃ and P_i∘φ_λ equal the flows' closed-form fields."""
    ps = phase_tp(alg)
    pts = ps.sample_points(seed, 5)
    out = []

    H = ScalarFunction(
        "H", lambda m: 0.5 * form(m.x, m.x),
        lambda m: PairPoint(m.x, m.x.alg.zero()),
    )
    Ht = ScalarFunction(
        "H~", lambda m: 0.5 * form(m.y, m.y),
        lambda m: PairPoint(m.y.alg.zero(), -m.y),
    )
    worst_t = max((hamiltonian_field(H, m) - field_t(m)).norm() for m in pts)
    out.append(CheckReport(
        check="field-t-hamiltonian", anchor="t-flow-is-hamiltonian",
        algebra=alg.name, params={"seed": seed, "tol": tol},
        measured=worst_t, expected=f"< {tol:g}", verdict=worst_t < tol,
    ))
    # the s-flow is the Hamiltonian field of −H̃ under these conventions
    worst_s = max((hamiltonian_field(Ht, m) + field_s(m)).norm() for m in pts)
    out.append(CheckReport(
        check="field-s-hamiltonian", anchor="s-flow-is-hamiltonian-of-minus",
        algebra=alg.name, params={"seed": seed, "tol": tol},
        measured=worst_s, expected=f"< {tol:g}", verdict=worst_s < tol,
    ))

    lams = (0.0, 2.0, -1.0)
    worst = 0.0
    for m in pts[:3]:
        for i in alg.exponents:
            for lam in lams:
                closed = field_linear_pencil(i, lam, m)
                generic = hamiltonian_field(pencil_pullback(alg, i, lam), m)
                worst = max(worst, (closed - generic).norm())
    out.append(CheckReport(
        check="field-pencil-closed-form", anchor="pencil-field-closed-form",
        algebra=alg.name,
        params={"seed": seed, "lambdas": list(lams), "tol": tol},
        measured=worst, expected=f"< {tol:g}", verdict=worst < tol,
    ))
    return out


def check_quadratic_relations(alg: AlgebraSpec, seed: int = 42,
                              tol: float = 1e-9) -> list[CheckReport]:
    """Quadratic-vs-linear field relations on an associative algebra."""
    if not alg.associative:
        return []
    ps = phase_tp(alg)
    pts = ps.sample_points(seed, 5)
    out = []

    worst = 0.0
    for m in pts[:3]:
        for i in alg.exponents:
            for lam in (0.0, 2.0, -1.0):
                closed = field_quadratic(i, lam, m)
                generic = hamiltonian_field(
                    pencil_pullback(alg, i, lam), m, which="quadratic"
                )
                worst = max(worst, (closed - generic).norm())
    out.append(CheckReport(
        check="field-quadratic-closed-form", anchor="quadratic-field-closed-form",
        algebra=alg.name, params={"seed": seed, "tol": tol},
        measured=worst, expected=f"< {tol:g}", verdict=worst < tol,
    ))

    worst = 0.0
    for m in pts:
        for i in alg.exponents:
            for lam in (0.0, 2.0, -1.0):
                worst = max(worst, relquad_residual(alg, i, lam, m))
    out.append(CheckReport(
        check="relquad", anchor="quadratic-linear-field-ratio",
        algebra=alg.name,
        params={"seed": seed, "lambdas": [0.0, 2.0, -1.0], "tol": tol},
        measured=worst, expected=f"< {tol:g}", verdict=worst < tol,
        detail="X^Q_{P_i∘φλ} = 2/(λ−1) · X_{P_{i+1}∘φλ}",
    ))

    # coefficient-level relations between the two field families
    fam = dict(zip(family_labels(alg), family(alg)))

    def xfield(j, i, which):
        return lambda m: hamiltonian_field(fam[(j, i)], m, which=which)

    n = alg.n or alg.matrix_size
    worst_lines = {1: 0.0, 2: 0.0, 3: 0.0}
    for m in pts[:3]:
        for i in range(n - 1):
            r = (xfield(0, i, "quadratic")(m) - 2.0 * xfield(0, i + 1, "linear")(m)).norm()
            worst_lines[1] = max(worst_lines[1], r)
            for j in range(1, i + 2):
                r = (
                    xfield(j, i, "quadratic")(m)
                    + xfield(j - 1, i, "quadratic")(m)
                    - 2.0 * xfield(j, i + 1, "linear")(m)
                ).norm()
                worst_lines[2] = max(worst_lines[2], r)
            r = (
                xfield(i + 1, i, "quadratic")(m)
                - 2.0 * xfield(i + 2, i + 1, "linear")(m)
            ).norm()
            worst_lines[3] = max(worst_lines[3], r)
    lines = {
        1: ("relquadline-1", "X^Q_{F_0i} = 2·X_{F_0,i+1}"),
        2: ("relquadline-2", "X^Q_{F_ji} + X^Q_{F_j-1,i} = 2·X_{F_j,i+1}"),
        3: ("relquadline-3", "X^Q_{F_i+1,i} = 2·X_{F_i+2,i+1}"),
    }
    for k, (check_id, text) in lines.items():
        out.append(CheckReport(
            check=check_id, anchor="family-field-recursion", algebra=alg.name,
            params={"seed": seed, "tol": tol},
            measured=worst_lines[k], expected=f"< {tol:g}",
            verdict=worst_lines[k] < tol, detail=text,
        ))
    return out


# --------------------------------------------------------------------------
# Toda battery and the "run everything" entry point
# --------------------------------------------------------------------------


def check_toda_battery(alg: AlgebraSpec, samples: int = 100,
                       seed: int = 42) -> list[CheckReport]:
    out = [
        check_poisson_iso(alg, samples=samples, seed=seed),
        check_binomial_identity(alg, samples=max(samples // 5, 5), seed=seed),
    ]
    out.extend(toda_suite(alg, seed=seed))

    # T_T' = T_P ∩ Δ: membership verdicts agree on a mixed random population
    ps = phase_tp(alg)
    dps = diag_phase_space(alg)
    rng = np.random.default_rng(seed)
    mism = 0
    for k in range(200):
        mode = k % 4
        if mode == 0:
            p = dps.point_from_coords(rng.uniform(-1, 1, dps.dim))
        elif mode == 1:
            p = ps.point_from_coords(rng.uniform(-1, 1, ps.dim))
        elif mode == 2:
            x = Element(alg, rng.uniform(-1, 1, alg.dim))
            p = PairPoint(x, x)
        else:
            p = random_pair(alg, rng)
        in_ttp = dps.membership_residual(p) < 1e-10
        diagonal = float(np.abs(p.x.coords - p.y.coords).max()) < 1e-10
        in_tp = ps.membership_residual(p) < 1e-10
        if in_ttp != (in_tp and diagonal):
            mism += 1
    out.append(CheckReport(
        check="toda-intersection", anchor="diagonal-space-is-tp-intersection",
        algebra=alg.name, params={"points": 200, "seed": seed},
        measured=mism, expected=0, verdict=mism == 0,
    ))
    return out


_BATTERIES = {
    "mcybe": lambda alg, samples, seed, tol: check_mcybe_battery(
        alg, samples=max(samples, 200), seed=seed, tol=tol or 1e-11),
    "jacobi": lambda alg, samples, seed, tol: check_jacobi_battery(
        alg, samples=samples, seed=seed, tol=tol or 1e-9),
    "involutivity": lambda alg, samples, seed, tol: check_involutivity_battery(
        alg, points=samples, seed=seed, tol=tol or 1e-8),
    "casimir": lambda alg, samples, seed, tol: check_casimir_battery(
        alg, samples=samples, seed=seed, tol=tol or 1e-9),
    "morphism": lambda alg, samples, seed, tol: [check_morphism_psi1(
        alg, samples=max(samples, 100), seed=seed, tol=tol or 1e-9)],
    "independence": lambda alg, samples, seed, tol: check_independence_battery(
        alg, points=samples, seed=seed),
    "rank": lambda alg, samples, seed, tol: check_rank_battery(alg, seed=seed),
    "rais": lambda alg, samples, seed, tol: check_rais_battery(alg),
    "quadratic-relations": lambda alg, samples, seed, tol: (
        check_field_identities(alg, seed=seed, tol=tol or 1e-9)
        + check_quadratic_relations(alg, seed=seed, tol=tol or 1e-9)
    ),
    "toda": lambda alg, samples, seed, tol: check_toda_battery(
        alg, samples=max(samples, 100), seed=seed),
}


BATTERY_NAMES = tuple(_BATTERIES)


def run_battery(name: str, alg: AlgebraSpec, samples: int = 20, seed: int = 42,
                tol: float | None = None) -> list[CheckReport]:
    if name == "all":
        out = []
        for key in _BATTERIES:
            out.extend(_BATTERIES[key](alg, samples, seed, tol))
        return out
    if name not in _BATTERIES:
        raise KeyError(name)
    return _BATTERIES[name](alg, samples, seed, tol)
