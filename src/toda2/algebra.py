"""Graded Lie algebras 𝔤 = ⊕_k 𝔤_k with an invariant trace form.

An :class:`AlgebraSpec` stores a homogeneous basis of a matrix Lie algebra
together with the integer degree of each basis vector, the trace-form Gram
matrix, the exponents m_1 ≤ … ≤ m_ℓ, the Cartan matrix, and the principal
pair (e, h) normalised so that [h, e] = 2e.  Degrees come from the matrix
diagonal: the elementary matrix E_ij sits in degree j − i, so 𝔤₀ is the
diagonal (Cartan) part, 𝔤₁ the first superdiagonal, and so on.

Everything downstream (projections, R-matrices, Poisson brackets) reduces to
coordinate masks and dense tensor contractions against the data cached here.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "AlgebraError",
    "AlgebraValidationError",
    "AlgebraSpec",
    "Element",
    "bracket",
    "bracket_blocks",
    "form",
    "project",
    "mult",
    "mult_blocks",
    "build_sl",
    "build_gl",
    "load_spec",
    "save_spec",
    "validate_spec",
    "describe_violation",
    "parse_region",
]


class AlgebraError(ValueError):
    """Bad algebra input: wrong order, mismatched handles, off-span matrices."""


class AlgebraValidationError(AlgebraError):
    """An algebra-spec document violates a structural invariant."""

    def __init__(self, name: str, violations: list[dict]):
        self.violations = violations
        parts = "; ".join(describe_violation(v) for v in violations)
        super().__init__(f"algebra spec '{name}' violates: {parts}")


def describe_violation(v: dict) -> str:
    """One line for a `validate_spec` record; indices and residual are optional."""
    text = v["invariant"]
    if v.get("indices") is not None:
        text += f" at {v['indices']}"
    if v.get("residual") is not None:
        text += f" (residual {v['residual']:.3g})"
    return text


# --------------------------------------------------------------------------
# degree regions
# --------------------------------------------------------------------------

_REGION_RE = re.compile(r"\s*(>=|<=|==|=|<|>)\s*(-?\d+)\s*$")


def parse_region(region: str) -> tuple[str, int]:
    """Parse a degree predicate like ``'>=0'``, ``'<0'``, ``'=2'``."""
    m = _REGION_RE.match(region)
    if m is None:
        raise AlgebraError(f"cannot parse degree region {region!r}")
    op, k = m.group(1), int(m.group(2))
    if op == "==":
        op = "="
    return op, k


_OPS = {
    ">=": lambda d, k: d >= k,
    "<=": lambda d, k: d <= k,
    "<": lambda d, k: d < k,
    ">": lambda d, k: d > k,
    "=": lambda d, k: d == k,
}


# the paper's splitting 𝔤 = 𝔤_{≥0} ⊕ 𝔤_{<0}: R = P₊ − P₋, the t-flow partner
# Π₊L and the s-flow partner Π₋M all read these two regions
PLUS, MINUS = ">=0", "<0"


def degree_mask(degrees: np.ndarray, region: str) -> np.ndarray:
    op, k = parse_region(region)
    return _OPS[op](degrees, k)


# --------------------------------------------------------------------------
# the algebra container
# --------------------------------------------------------------------------

_SPAN_TOL = 1e-10   # `from_matrix`: largest distance from the span per 1 + ‖mat‖


@dataclass(frozen=True, eq=False)
class AlgebraSpec:
    """A finite-dimensional graded Lie algebra in a faithful matrix rep.

    Fields mirror the on-disk algebra-spec document; derived tensors
    (structure constants, product tensor, Gram inverse) are cached lazily.
    """

    name: str
    dim: int
    rank: int
    basis: np.ndarray            # (dim, n, n)
    degrees: np.ndarray          # (dim,) integers
    gram: np.ndarray             # (dim, dim), ⟨b_a, b_b⟩ = Tr(b_a b_b)
    exponents: tuple[int, ...]   # m_1 ≤ … ≤ m_ℓ
    cartan: np.ndarray           # (ℓ, ℓ) integers
    e_coords: np.ndarray
    h_coords: np.ndarray
    associative: bool
    n: int | None = None         # matrix size of the stored rep, if meaningful

    # -- derived, cached ---------------------------------------------------

    @cached_property
    def matrix_size(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def _flat_basis(self) -> np.ndarray:
        # columns are the flattened basis matrices, shape (n², dim)
        return self.basis.reshape(self.dim, -1).T

    @cached_property
    def _flat_pinv(self) -> np.ndarray:
        return np.linalg.pinv(self._flat_basis)

    def _basis_products(self) -> np.ndarray:
        """All products b_a b_b as flattened matrices, shape (dim, dim, n²).

        One (dim·n, n) @ (n, dim·n) product.  Not cached: it is as large as
        `struct`, and only the two tensors below and validation read it.
        """
        B, n = self.basis, self.matrix_size
        rows = B.reshape(-1, n) @ B.transpose(1, 0, 2).reshape(n, -1)   # [a i, b j]
        return rows.reshape(self.dim, n, self.dim, n).transpose(0, 2, 1, 3).reshape(
            self.dim, self.dim, -1)

    @cached_property
    def struct(self) -> np.ndarray:
        """Structure constants C[a,b,c]: [b_a, b_b] = Σ_c C[a,b,c] b_c."""
        prod = self._basis_products()
        return (prod - prod.transpose(1, 0, 2)) @ self._flat_pinv.T

    @cached_property
    def prod_tensor(self) -> np.ndarray:
        """Associative product tensor P[a,b,c]: b_a b_b = Σ_c P[a,b,c] b_c."""
        if not self.associative:
            raise AlgebraError(
                f"{self.name}: matrix product does not close on a "
                "non-associative spec (associative=False)"
            )
        return self._basis_products() @ self._flat_pinv.T

    @cached_property
    def gram_inv(self) -> np.ndarray:
        return np.linalg.inv(self.gram)

    @cached_property
    def pair_gram(self) -> np.ndarray:
        """Read-only matrix diag(G, −G) of ⟨·,·⟩₂ on 𝔤×𝔤 coordinates, cached:
        every bracket table and Jacobian rank on 𝔤×𝔤 pairs through it."""
        P = np.kron(np.diag([1.0, -1.0]), self.gram)
        P.flags.writeable = False
        return P

    @cached_property
    def identity_coords(self) -> np.ndarray:
        """Coordinates of the identity matrix (associative algebras only)."""
        return self.from_matrix(np.eye(self.matrix_size))

    def strip_centre(self, Z: np.ndarray) -> np.ndarray:
        """Coordinate vectors (…, dim) less their component along the centre.

        On an associative spec (gl) the centre is the span of the identity,
        removed along the trace form; other specs are returned unchanged.
        """
        if not self.associative:
            return Z
        iden = self.identity_coords
        t = (Z[..., None, :] @ self.gram @ iden)[..., 0] / float(iden @ self.gram @ iden)
        return Z - t[..., None] * iden

    # -- element plumbing --------------------------------------------------

    def element(self, coords) -> "Element":
        c = np.asarray(coords, dtype=float)
        if c.shape != (self.dim,):
            raise AlgebraError(
                f"{self.name}: coordinate vector has shape {c.shape}, "
                f"expected ({self.dim},)"
            )
        return Element(self, c)

    def zero(self) -> "Element":
        return Element(self, np.zeros(self.dim))

    @cached_property
    def e(self) -> "Element":
        return Element(self, np.asarray(self.e_coords, dtype=float))

    @cached_property
    def h(self) -> "Element":
        return Element(self, np.asarray(self.h_coords, dtype=float))

    def to_matrices(self, v: np.ndarray) -> np.ndarray:
        """Coordinate rows (…, k·dim) as stacks of k matrices, shape (…, k, n, n)."""
        v = np.asarray(v, dtype=float)
        lead, n = v.shape[:-1], self.matrix_size
        flat = v.reshape(*lead, -1, self.dim) @ self._flat_basis.T
        return flat.reshape(*lead, -1, n, n)

    def to_coords(self, V: np.ndarray) -> np.ndarray:
        """Matrix stacks (…, k, n, n) as coordinate rows, shape (…, k·dim); one
        matrix (n, n) gives (dim,).  No span check: see `from_matrix`."""
        lead = V.shape[:-3]
        flat = V.reshape(*lead, -1, self.matrix_size ** 2) @ self._flat_pinv.T
        return flat.reshape(*lead, -1)

    def to_matrix(self, coords: np.ndarray) -> np.ndarray:
        """The matrix of one coordinate vector (dim,)."""
        return self.to_matrices(coords).reshape(self.matrix_size, self.matrix_size)

    def from_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of a matrix; error if it lies off the basis span."""
        flat = np.asarray(mat, dtype=float).ravel()
        coords = self._flat_pinv @ flat
        residual = np.linalg.norm(self._flat_basis @ coords - flat)
        scale = 1.0 + np.linalg.norm(flat)
        if residual > _SPAN_TOL * scale:
            raise AlgebraError(
                f"{self.name}: matrix lies outside the algebra span "
                f"(reconstruction residual {residual:.3e}, scale {scale:.3e})"
            )
        return coords

    def gradient_from_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of the unique g ∈ 𝔤 with ⟨g, z⟩ = Tr(mat·z) ∀ z ∈ 𝔤.

        This is the trace-form projection ĝ onto the algebra: for gl it is
        plain `from_matrix`, for sl it strips the trace part, and for an
        imported orthogonal algebra it projects along the form-orthogonal
        complement.  `mat` itself need not belong to the span.  A stack
        (…, n, n) gives (…, dim).
        """
        mat = np.asarray(mat, dtype=float)
        flat = mat.reshape(*mat.shape[:-2], self.matrix_size ** 2)
        return flat @ self.trace_projector.T

    @cached_property
    def trace_projector(self) -> np.ndarray:
        """Read-only dim×n² matrix of ĝ from flattened matrices to coordinates,
        G⁻¹·[Tr(b_a ·)], cached: family gradients and the linear pencil field
        apply it at every point."""
        P = np.linalg.solve(self.gram, self.basis.transpose(0, 2, 1).reshape(self.dim, -1))
        P.flags.writeable = False
        return P

    def ad(self, x: "Element") -> np.ndarray:
        """Matrix of ad_x in basis coordinates: (ad_x)_{cb} = Σ_a x_a C[a,b,c]."""
        return np.einsum("a,abc->cb", x.coords, self.struct)

    @cached_property
    def _memo_table(self) -> dict:
        return {}

    def memo(self, key, build):
        """build(), computed once per spec and key and kept; an array result is
        made read-only.  Masks, entry masks and phase spaces are derived data of
        the spec, asked for at every bracket or battery.  A build that raises
        stores nothing, so it raises again on every call."""
        table = self._memo_table
        if key not in table:
            value = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            table[key] = value
        return table[key]

    def mask(self, region: str) -> np.ndarray:
        """Read-only mask of the basis vectors whose degree lies in `region`,
        cached: R and the projections ask for the same regions at every bracket."""
        return self.memo(("mask", region), lambda: degree_mask(self.degrees, region))

    @cached_property
    def splitting_signs(self) -> np.ndarray:
        """Read-only ±1 per basis vector, +1 on 𝔤_{≥0} (`PLUS`) and −1 on 𝔤_{<0},
        cached: the diagonal of R = P₊ − P₋, read at every R and R* application."""
        S = np.where(self.mask(PLUS), 1.0, -1.0)
        S.flags.writeable = False
        return S


@dataclass(frozen=True, eq=False)
class Element:
    alg: AlgebraSpec
    coords: np.ndarray

    def matrix(self) -> np.ndarray:
        return self.alg.to_matrix(self.coords)

    def vec(self) -> np.ndarray:
        return self.coords

    @staticmethod
    def from_vec(alg: AlgebraSpec, v: np.ndarray) -> "Element":
        return Element(alg, np.array(v, dtype=float))

    @staticmethod
    def from_covector(alg: AlgebraSpec, w: np.ndarray) -> "Element":
        """The ⟨·,·⟩-gradient G⁻¹w of a Euclidean covector w."""
        return Element(alg, alg.gram_inv @ w)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __add__(self, other: "Element") -> "Element":
        _same_algebra(self, other)
        return Element(self.alg, self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        _same_algebra(self, other)
        return Element(self.alg, self.coords - other.coords)

    def __neg__(self) -> "Element":
        return Element(self.alg, -self.coords)

    def __mul__(self, s: float) -> "Element":
        return Element(self.alg, self.coords * float(s))

    __rmul__ = __mul__


def _same_algebra(x: Element, y: Element) -> None:
    if x.alg is not y.alg:
        raise AlgebraError(
            f"mismatched algebra handles: {x.alg.name} vs {y.alg.name}"
        )


# --------------------------------------------------------------------------
# the four basic operations
# --------------------------------------------------------------------------


def bracket_blocks(alg: AlgebraSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[X, Y] on coordinate arrays (…, dim), broadcasting over the leading axes."""
    return np.einsum("...a,...b,abc->...c", X, Y, alg.struct)


def mult_blocks(alg: AlgebraSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The matrix product XY on coordinate arrays (…, dim) (needs spec.associative)."""
    return np.einsum("...a,...b,abc->...c", X, Y, alg.prod_tensor)


def bracket(x: Element, y: Element) -> Element:
    """Lie bracket [x, y] via the cached structure constants."""
    _same_algebra(x, y)
    return Element(x.alg, bracket_blocks(x.alg, x.coords, y.coords))


def form(x: Element, y: Element) -> float:
    """Invariant trace form ⟨x, y⟩ = Tr(xy) through the Gram matrix."""
    _same_algebra(x, y)
    return float(x.coords @ x.alg.gram @ y.coords)


def project(x: Element, region: str) -> Element:
    """Projection onto the span of basis vectors whose degree satisfies `region`."""
    return Element(x.alg, np.where(x.alg.mask(region), x.coords, 0.0))


def mult(x: Element, y: Element) -> Element:
    """Associative matrix product xy (needs spec.associative)."""
    _same_algebra(x, y)
    return Element(x.alg, mult_blocks(x.alg, x.coords, y.coords))


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------


def _type_a_cartan(size: int) -> np.ndarray:
    C = 2 * np.eye(size, dtype=int)
    for i in range(size - 1):
        C[i, i + 1] = C[i + 1, i] = -1
    return C


def _assemble(name, mats, degs, exponents, cartan, e_mat, h_mat, associative, n):
    basis = np.array(mats, dtype=float)
    dim = basis.shape[0]
    gram = np.einsum("aij,bji->ab", basis, basis)
    flat = basis.reshape(dim, -1).T
    pinv = np.linalg.pinv(flat)
    spec = AlgebraSpec(
        name=name,
        dim=dim,
        rank=len(exponents),
        basis=basis,
        degrees=np.array(degs, dtype=int),
        gram=gram,
        exponents=tuple(exponents),
        cartan=np.asarray(cartan, dtype=int),
        e_coords=pinv @ np.asarray(e_mat, dtype=float).ravel(),
        h_coords=pinv @ np.asarray(h_mat, dtype=float).ravel(),
        associative=associative,
        n=n,
    )
    violations = validate_spec(spec)
    if violations:
        raise AlgebraValidationError(name, violations)
    return spec


def build_sl(n: int) -> AlgebraSpec:
    """sl(n): traceless n×n matrices, diagonal grading, e = superdiagonal ones."""
    if n < 2:
        raise AlgebraError(f"build_sl: order must be ≥ 2, got {n}")
    mats, degs = [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            E = np.zeros((n, n))
            E[i, j] = 1.0
            mats.append(E)
            degs.append(j - i)
    for k in range(n - 1):
        H = np.zeros((n, n))
        H[k, k], H[k + 1, k + 1] = 1.0, -1.0
        mats.append(H)
        degs.append(0)
    e_mat = np.diag(np.ones(n - 1), k=1)
    h_mat = np.diag([n - 1 - 2 * i for i in range(n)]).astype(float)
    return _assemble(
        f"sl{n}", mats, degs, range(1, n), _type_a_cartan(n - 1),
        e_mat, h_mat, associative=False, n=n,
    )


def build_gl(n: int) -> AlgebraSpec:
    """gl(n): all n×n matrices; exponent labels 0..n−1 so P_i = Tr(x^{i+1})/(i+1).

    The Cartan matrix stores the A_{n−1} matrix of the simple part padded by a
    zero row/column for the extra (central) generator label.
    """
    if n < 2:
        raise AlgebraError(f"build_gl: order must be ≥ 2, got {n}")
    mats, degs = [], []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            mats.append(E)
            degs.append(j - i)
    cartan = np.zeros((n, n), dtype=int)
    cartan[: n - 1, : n - 1] = _type_a_cartan(n - 1)
    e_mat = np.diag(np.ones(n - 1), k=1)
    h_mat = np.diag([n - 1 - 2 * i for i in range(n)]).astype(float)
    return _assemble(
        f"gl{n}", mats, degs, range(0, n), cartan,
        e_mat, h_mat, associative=True, n=n,
    )


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


def jacobi_residual(C: np.ndarray) -> float:
    """max over a, b, c, d of |Σ_e C[a,b,e]C[e,c,d] + C[b,c,e]C[e,a,d] + C[c,a,e]C[e,b,d]|.

    One first index a at a time, so each product is a (dim, dim) @ (dim, dim²)
    or (dim², dim) @ (dim, dim) matmul and no array is larger than dim³: the
    arithmetic stays dim⁵, the memory does not grow to dim⁴.
    """
    dim = C.shape[0]
    rows = C.reshape(dim, -1)             # [e, (c d)]
    cols = C.reshape(-1, dim)             # [(b c), e]
    worst = 0.0
    for a in range(dim):
        Ca = C[:, a, :]                   # [c, e] = C[c, a, e], and [e, d] = C[e, a, d]
        jac = (C[a] @ rows).reshape(dim, dim, dim)                   # [b, c, d]
        jac += (cols @ Ca).reshape(dim, dim, dim)
        jac += (Ca @ rows).reshape(dim, dim, dim).transpose(1, 0, 2)
        worst = max(worst, float(np.abs(jac).max()))
    return worst


def jacobi_bound(spec: AlgebraSpec, closure_residual: float) -> float:
    """An upper bound on `jacobi_residual(spec.struct)` from bracket closure.

    With φ(x) = Σ x_a b_a, its left inverse φ⁺ (`_flat_pinv`) and the closure
    residuals r_ab = [b_a, b_b] − φ(C_ab), the Jacobi identity of the matrix
    commutator leaves φ(J_abc) = −Σ_cyc([r_ab, b_c] + Σ_e C_abe r_ec), so

        max|J| ≤ ‖φ⁺‖_∞ · 3ρ(n·β + max_c ‖b_c‖_∞ + κ),

    with β = max|b|, κ = max_ab Σ_e |C_abe| and ρ ≥ max|r_ab|: the computed
    `closure_residual` plus the γ_k = kε/(1 − kε) rounding of φ(C_ab) and of
    the commutator (Higham), k counting the nonzero terms of one entry.
    Roundoff of order ε·bound (φ⁺ is a left inverse only to roundoff) is left
    to the factor 2 by which `validate_spec` undercuts its tolerance.  A
    non-finite term gives a non-finite bound, which certifies nothing.
    """
    n, absB = spec.matrix_size, np.abs(spec.basis)
    beta, row = absB.max(), absB.sum(axis=2).max()
    kappa = np.abs(spec.struct).sum(axis=2).max()
    k = max(np.count_nonzero(spec.basis, axis=2).max(),      # terms of b_a b_b
            np.count_nonzero(spec._flat_basis, axis=1).max()) + 2   # of φ(C_ab)
    eps = k * np.finfo(float).eps
    rho = closure_residual + eps / (1 - eps) * beta * (kappa + 2 * row)
    return np.abs(spec._flat_pinv).sum(axis=1).max() * 3 * rho * (n * beta + row + kappa)


@np.errstate(all="ignore")
def validate_spec(spec: AlgebraSpec) -> list[dict]:
    """Check every structural invariant; return a list of violation records.

    Each record carries the violated invariant's name, the offending basis
    indices when meaningful, and the numerical residual.  Every residual must
    be shown within its tolerance, so a NaN residual is a violation.
    """
    out: list[dict] = []

    def hit(invariant, residual=None, indices=None):
        rec = {"invariant": invariant}
        if residual is not None:
            rec["residual"] = float(residual)
        if indices is not None:
            rec["indices"] = tuple(int(i) for i in indices)
        out.append(rec)

    B, D = spec.basis, spec.degrees
    dim = spec.dim
    if B.shape[0] != dim or B.shape[1] != B.shape[2]:
        hit("basis-shape")
        return out
    if len(D) != dim:
        hit("degrees-length")
        return out

    flat = spec._flat_basis
    if np.linalg.matrix_rank(flat) < dim:
        hit("basis-independence")
        return out

    # bracket closure, then product closure, basis pair by basis pair; the
    # products and commutators are released before the steps below allocate
    coeffs = spec.struct
    ptensor = spec.prod_tensor if spec.associative else None
    prod = spec._basis_products()
    comm = prod - prod.transpose(1, 0, 2)
    scale = 1.0 + np.abs(comm).max()
    res = coeffs @ flat.T
    res -= comm
    close_res = np.abs(res, out=res).max(axis=2)
    del comm, res
    prod_res = None
    if ptensor is not None:
        res = ptensor @ flat.T
        res -= prod
        pres = np.abs(res, out=res).max()
        if not (pres <= 1e-12 * (1.0 + np.abs(prod).max())):
            prod_res = pres
        del res
    del prod
    bad = np.argwhere(~(close_res <= 1e-12 * scale))
    for a, b in bad[:5]:
        hit("bracket-closure", close_res[a, b], (a, b))

    degsum = D[:, None] + D[None, :]
    off_grade = np.abs(coeffs) * (D[None, None, :] != degsum[:, :, None])
    bad = np.argwhere(~(off_grade.max(axis=2) <= 1e-12))
    for a, b in bad[:5]:
        hit("grading", off_grade[a, b].max(), (a, b))
    del off_grade

    # graded orthogonality of the form and non-degeneracy
    G = spec.gram
    gram_res = np.abs(G) * (degsum != 0)
    bad = np.argwhere(~(gram_res <= 1e-11 * (1.0 + np.abs(G).max())))
    for a, b in bad[:5]:
        hit("graded-orthogonality", gram_res[a, b], (a, b))
    if not (np.abs(G - G.T).max() <= 1e-12 * (1.0 + np.abs(G).max())):
        hit("gram-symmetry", np.abs(G - G.T).max())
    sv = np.linalg.svd(G, compute_uv=False)
    if not (sv[-1] > 1e-10 * sv[0]):
        hit("form-nondegenerate", sv[-1] / sv[0] if sv[0] > 0 else 0.0)

    # form invariance ⟨[x,y],z⟩ + ⟨y,[x,z]⟩ = 0 on basis triples
    bf = coeffs @ G                                  # ⟨[b_a,b_b], b_d⟩
    inv_res = np.abs(bf + bf.transpose(0, 2, 1)).max()
    if not (inv_res <= 1e-11 * (1.0 + np.abs(bf).max())):
        hit("form-invariance", inv_res)
    del bf

    # antisymmetry + Jacobi on the basis; closure certifies Jacobi, and the
    # dim⁵ residual runs only where the certificate falls short
    anti = np.abs(coeffs + coeffs.transpose(1, 0, 2)).max()
    if not (anti <= 1e-11):
        hit("bracket-antisymmetry", anti)
    tol = 1e-11 * (1.0 + np.abs(coeffs).max() ** 2)
    if not (jacobi_bound(spec, close_res.max()) < tol / 2):
        jac_res = jacobi_residual(coeffs)
        if not (jac_res <= tol):
            hit("jacobi", jac_res)

    # principal pair
    e, h = spec.element(spec.e_coords), spec.element(spec.h_coords)
    he = bracket(h, e)
    he_res = np.abs(he.coords - 2.0 * e.coords).max()
    if not (he_res <= 1e-12 * (1.0 + np.abs(e.coords).max())):
        hit("he-relation", he_res)
    if not (np.abs(np.where(D == 1, 0.0, e.coords)).max() <= 1e-12):
        hit("e-degree")
    if not (np.abs(np.where(D == 0, 0.0, h.coords)).max() <= 1e-12):
        hit("h-degree")

    # exponents and Cartan shape
    ex = spec.exponents
    if len(ex) != spec.rank:
        hit("exponents-length")
    elif list(ex) != sorted(ex) or any(m < 0 for m in ex):
        hit("exponents-ordering")
    elif 2 * sum(m + 1 for m in ex) != dim + spec.rank:
        hit("exponents-count", 2 * sum(m + 1 for m in ex) - dim - spec.rank)
    if spec.cartan.shape != (spec.rank, spec.rank):
        hit("cartan-shape")

    # e regular nilpotent: ad_e has rank dim − ℓ (a non-finite ad_e has no SVD)
    ad_e = spec.ad(e)
    if not np.isfinite(ad_e).all():
        hit("regular-nilpotent", np.nan)
    else:
        sv = np.linalg.svd(ad_e, compute_uv=False)
        r = int(np.sum(sv > sv[0] * dim * 1e-10)) if sv[0] > 0 else 0
        if r != dim - spec.rank:
            hit("regular-nilpotent", float(r))

    if prod_res is not None:
        hit("product-closure", prod_res)

    return out


# --------------------------------------------------------------------------
# serialization: the algebra-spec document
# --------------------------------------------------------------------------

_DOC_FIELDS = (
    "name", "n", "dim", "rank", "basis", "degrees",
    "exponents", "cartan", "e_coords", "h_coords", "associative",
)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(w) for w in v) + "]"
    raise TypeError(f"cannot serialize {type(v)}")


def spec_to_document(spec: AlgebraSpec) -> dict:
    return {
        "name": spec.name,
        "n": spec.n,
        "dim": spec.dim,
        "rank": spec.rank,
        "basis": [[list(row) for row in mat] for mat in spec.basis],
        "degrees": [int(d) for d in spec.degrees],
        "exponents": list(spec.exponents),
        "cartan": [[int(v) for v in row] for row in spec.cartan],
        "e_coords": list(spec.e_coords),
        "h_coords": list(spec.h_coords),
        "associative": bool(spec.associative),
    }


def save_spec(spec: AlgebraSpec, path) -> None:
    """Write the algebra-spec document (numbers at 17 significant digits)."""
    doc = spec_to_document(spec)
    lines = ["{"]
    for k, key in enumerate(_DOC_FIELDS):
        sep = "," if k < len(_DOC_FIELDS) - 1 else ""
        lines.append(f'  "{key}": {_fmt(doc[key])}{sep}')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_spec(source) -> AlgebraSpec:
    """Load and validate an algebra-spec document (path, JSON text, or dict)."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            is_file = Path(str(source)).exists()
        except OSError:
            is_file = False
        text = Path(source).read_text() if is_file else str(source)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise AlgebraError(f"algebra spec parse failure: {err}") from err
    try:
        basis = np.array(doc["basis"], dtype=float)
        dim = int(doc["dim"])
        spec = AlgebraSpec(
            name=str(doc["name"]),
            dim=dim,
            rank=int(doc["rank"]),
            basis=basis,
            degrees=np.array(doc["degrees"], dtype=int),
            gram=np.einsum("aij,bji->ab", basis, basis),
            exponents=tuple(int(m) for m in doc["exponents"]),
            cartan=np.array(doc["cartan"], dtype=int),
            e_coords=np.array(doc["e_coords"], dtype=float),
            h_coords=np.array(doc["h_coords"], dtype=float),
            associative=bool(doc["associative"]),
            n=None if doc.get("n") is None else int(doc["n"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        # OverflowError: an infinite or out-of-range number where an int belongs
        raise AlgebraError(f"algebra spec parse failure: {err}") from err
    for field, ndim in (("degrees", 1), ("e_coords", 1), ("h_coords", 1), ("cartan", 2)):
        if getattr(spec, field).ndim != ndim:
            raise AlgebraError(
                f"algebra spec parse failure: {field} must be an array of {ndim} "
                f"dimension{'s' if ndim > 1 else ''}")
    for field in ("basis", "gram", "e_coords", "h_coords"):
        if not np.all(np.isfinite(getattr(spec, field))):
            raise AlgebraError(
                f"algebra spec parse failure: {field} has non-finite entries")
    violations = validate_spec(spec)
    if violations:
        raise AlgebraValidationError(spec.name, violations)
    return spec


def with_rescaled_basis(spec: AlgebraSpec, s: float) -> AlgebraSpec:
    """Same algebra with basis scaled by √s, so the trace form scales by s.

    Used by the form-scale invariance checks: verdicts (ranks, Casimirs,
    involutivity) must not depend on the overall normalisation of ⟨·,·⟩.
    """
    if not (np.isfinite(s) and s > 0):
        raise AlgebraError(f"with_rescaled_basis: scale must be finite and > 0, got {s}")
    r = float(np.sqrt(s))
    basis = spec.basis * r
    return replace(
        spec,
        name=f"{spec.name}@scale{s:g}",
        basis=basis,
        gram=spec.gram * s,
        e_coords=spec.e_coords / r,
        h_coords=spec.h_coords / r,
    )
