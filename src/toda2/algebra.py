"""Graded Lie algebras 𝔤 = ⊕_k 𝔤_k with an invariant trace form.

An :class:`AlgebraSpec` stores a homogeneous basis of a matrix Lie algebra
together with the integer degree of each basis vector, the trace-form Gram
matrix, the exponents m_1 ≤ … ≤ m_ℓ, the Cartan matrix, and the principal
pair (e, h) normalised so that [h, e] = 2e.  Degrees come from the matrix
diagonal: the elementary matrix E_ij sits in degree j − i, so 𝔤₀ is the
diagonal (Cartan) part, 𝔤₁ the first superdiagonal, and so on.

The paper's one splitting 𝔤 = 𝔤_{≥0} ⊕ 𝔤_{<0} is read off `degrees` by
integer comparison: R = P₊ − P₋ is the sign vector `splitting_signs`, and
since the form pairs 𝔤_k only with 𝔤_{−k}, R* = P_{≤0} − P_{>0}.  Everything
downstream (projections, R-matrices, Poisson brackets) reduces to these
degree comparisons, the structure constants and the matrices of the basis
cached here.  On an associative spec (gl) the product of coordinate arrays is
the product of their matrices (`mult_blocks`).

A point of 𝔤 at the API edge is the bare record `Element` (alg, coords); every
computation reads coordinate rows, and every numerical rank in the package,
validation's included, counts the singular values above one cut (`rank_cuts`).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "AlgebraError",
    "AlgebraValidationError",
    "AlgebraSpec",
    "Element",
    "bracket_blocks",
    "mult_blocks",
    "build_sl",
    "build_gl",
    "load_spec",
    "save_spec",
    "spec_to_json",
    "validate_spec",
    "describe_violation",
    "numerical_rank",
    "numerical_ranks",
    "rank_cuts",
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


def read_only(A: np.ndarray) -> np.ndarray:
    """A, made read-only: cached arrays are shared by every caller."""
    A.flags.writeable = False
    return A


# --------------------------------------------------------------------------
# the algebra container
# --------------------------------------------------------------------------

_SPAN_TOL = 1e-10   # `from_matrix`: largest distance from the span per 1 + ‖mat‖


@dataclass(frozen=True, eq=False)
class AlgebraSpec:
    """A finite-dimensional graded Lie algebra in a faithful matrix rep.

    Fields are the defining arrays of the on-disk algebra-spec document;
    everything else (dim, rank, matrix size, Gram matrix, structure
    constants, basis pseudo-inverse) is derived from them and cached lazily.
    """

    name: str
    basis: np.ndarray            # (dim, n, n)
    degrees: np.ndarray          # (dim,) integers
    exponents: tuple[int, ...]   # m_1 ≤ … ≤ m_ℓ
    cartan: np.ndarray           # (ℓ, ℓ) integers
    e_coords: np.ndarray
    h_coords: np.ndarray
    associative: bool

    # -- derived, cached ---------------------------------------------------

    @cached_property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def rank(self) -> int:
        return len(self.exponents)

    @cached_property
    def matrix_size(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """(dim, dim), ⟨b_a, b_b⟩ = Tr(b_a b_b)."""
        return np.einsum("aij,bji->ab", self.basis, self.basis)

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
        `struct`, and only `struct` and validation read it.
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
    def gram_inv(self) -> np.ndarray:
        return np.linalg.inv(self.gram)

    @cached_property
    def pair_gram(self) -> np.ndarray:
        """Read-only matrix diag(G, −G) of ⟨·,·⟩₂ on 𝔤×𝔤 coordinates, cached:
        every bracket table and Jacobian rank on 𝔤×𝔤 pairs through it."""
        return read_only(np.kron(np.diag([1.0, -1.0]), self.gram))

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

    # -- coordinates and matrices ------------------------------------------

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
        return read_only(np.linalg.solve(self.gram,
                                         self.basis.transpose(0, 2, 1).reshape(self.dim, -1)))

    @cached_property
    def _memo_table(self) -> dict:
        return {}

    def memo(self, key, build):
        """build(), computed once per spec and key and kept; an array result is
        made read-only.  Entry masks and phase spaces are derived data of the
        spec, asked for at every flow or battery.  A build that raises
        stores nothing, so it raises again on every call."""
        table = self._memo_table
        if key not in table:
            value = build()
            table[key] = read_only(value) if isinstance(value, np.ndarray) else value
        return table[key]

    @cached_property
    def splitting_signs(self) -> np.ndarray:
        """Read-only ±1 per basis vector, +1 on 𝔤_{≥0} and −1 on 𝔤_{<0}, cached:
        the diagonal of R = P₊ − P₋, read at every R application."""
        return read_only(np.where(self.degrees >= 0, 1.0, -1.0))


@dataclass(frozen=True, eq=False)
class Element:
    """The record (alg, coords) of one point of 𝔤 at the API edge; every
    computation reads its coordinate row."""

    alg: AlgebraSpec
    coords: np.ndarray

    def vec(self) -> np.ndarray:
        return self.coords

    @staticmethod
    def from_vec(alg: AlgebraSpec, v: np.ndarray) -> "Element":
        return Element(alg, np.array(v, dtype=float))


# --------------------------------------------------------------------------
# the bracket and the product on coordinate arrays
# --------------------------------------------------------------------------


# Entries of x⊗y per row block of `bracket_blocks`: 8192 float64 = 64 KB.
# Unblocked, the outer products of an sl9 rank sweep (~6200 rows × 80²)
# would take 317 MB; a block bounds what one call adds to the peak to 64 KB.
# Blocks of 512 KB and 1 MB were not clearly faster on 400-row stacks.
_OUTER_BLOCK = 8192


def bracket_blocks(alg: AlgebraSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[X, Y] on coordinate arrays (…, dim), broadcasting over the leading axes.

    X and Y broadcast to rows (r, dim).  Each block of rows whose outer
    products x⊗y hold at most `_OUTER_BLOCK` entries (64 KB) forms them and
    contracts them with the cached `struct`.  That takes the products
    x_a·y_b·C_abc and sums them in the order of the three-operand einsum
    "…a,…b,abc->…c", so every bit matches it, but in a two-operand einsum,
    which runs 2–2.5× faster.  A stack gives the bits of its rows.
    """
    X, Y = np.broadcast_arrays(X, Y)
    shape, dim = X.shape, alg.dim
    X, Y = X.reshape(-1, dim), Y.reshape(-1, dim)
    out = np.empty((len(X), dim), np.result_type(X, Y, alg.struct))
    step = max(1, _OUTER_BLOCK // (dim * dim))
    for i in range(0, len(X), step):
        rows = slice(i, i + step)
        out[rows] = np.einsum("rab,abc->rc", X[rows, :, None] * Y[rows, None, :], alg.struct)
    return out.reshape(shape)


def mult_blocks(alg: AlgebraSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The matrix product XY on coordinate arrays (…, dim), broadcasting over
    the leading axes: the product of their matrices, which stays in the span
    only on an associative spec (gl)."""
    if not alg.associative:
        raise AlgebraError(
            f"{alg.name}: matrix product does not close on a "
            "non-associative spec (associative=False)"
        )
    return alg.to_coords(alg.to_matrices(X) @ alg.to_matrices(Y))


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------


def _assemble(name, mats, degs, exponents, cartan, e_mat, h_mat, associative):
    basis = np.array(mats, dtype=float)
    pinv = np.linalg.pinv(basis.reshape(len(basis), -1).T)
    spec = AlgebraSpec(
        name=name,
        basis=basis,
        degrees=np.array(degs, dtype=int),
        exponents=tuple(exponents),
        cartan=np.asarray(cartan, dtype=int),
        e_coords=pinv @ np.asarray(e_mat, dtype=float).ravel(),
        h_coords=pinv @ np.asarray(h_mat, dtype=float).ravel(),
        associative=associative,
    )
    violations = validate_spec(spec)
    if violations:
        raise AlgebraValidationError(name, violations)
    return spec


def _build_type_a(n: int, gl: bool) -> AlgebraSpec:
    """sl(n) (gl false) or gl(n) on the matrix units E_ij in row order, graded
    by j − i; sl leaves out the diagonal units and ends with the coroots
    H_k = E_kk − E_{k+1,k+1}.  e is the superdiagonal ones, h = diag(n−1,
    n−3, …, 1−n), and the Cartan matrix is that of A_{n−1}, padded on gl by a
    zero row and column for the central generator label 0."""
    kind = "gl" if gl else "sl"
    if n < 2:
        raise AlgebraError(f"build_{kind}: order must be ≥ 2, got {n}")
    unit = np.eye(n)
    pairs = [(i, j) for i in range(n) for j in range(n) if gl or i != j]
    mats = [np.outer(unit[i], unit[j]) for i, j in pairs]
    degs = [j - i for i, j in pairs]
    if not gl:
        mats += [np.outer(unit[k], unit[k]) - np.outer(unit[k + 1], unit[k + 1])
                 for k in range(n - 1)]
        degs += [0] * (n - 1)
    cartan = np.zeros((n - 1 + gl, n - 1 + gl), dtype=int)
    cartan[:n - 1, :n - 1] = 2 * np.eye(n - 1) - np.eye(n - 1, k=1) - np.eye(n - 1, k=-1)
    return _assemble(f"{kind}{n}", mats, degs, range(0 if gl else 1, n), cartan,
                     np.diag(np.ones(n - 1), k=1), np.diag(np.arange(n - 1, -n, -2.0)),
                     associative=gl)


def build_sl(n: int) -> AlgebraSpec:
    """sl(n): traceless n×n matrices, diagonal grading, e = superdiagonal ones."""
    return _build_type_a(n, gl=False)


def build_gl(n: int) -> AlgebraSpec:
    """gl(n): all n×n matrices; exponent labels 0..n−1 so P_i = Tr(x^{i+1})/(i+1).

    The Cartan matrix stores the A_{n−1} matrix of the simple part padded by a
    zero row/column for the extra (central) generator label.
    """
    return _build_type_a(n, gl=True)


# --------------------------------------------------------------------------
# the rank cut
# --------------------------------------------------------------------------

_RANK_REL = 1e-10   # rank cut: σ > σ_max·size·_RANK_REL counts


def rank_cuts(sv: np.ndarray, size: int) -> np.ndarray:
    """The rank cut σ_max·size·_RANK_REL of each descending row of singular
    values sv (…, k), shape (…, 1), for matrices whose larger side is `size`:
    the values above it count toward the numerical rank."""
    return sv[..., :1] * size * _RANK_REL


def numerical_ranks(M: np.ndarray) -> np.ndarray:
    """`numerical_rank` of every matrix of a stack (…, r, c), one stacked SVD."""
    if M.size == 0:
        return np.zeros(M.shape[:-2], dtype=int)
    sv = np.linalg.svd(M, compute_uv=False)
    return np.sum(sv > rank_cuts(sv, max(M.shape[-2:])), axis=-1)


def numerical_rank(M: np.ndarray) -> int:
    """The number of singular values of M above the rank cut (`rank_cuts`)."""
    return int(numerical_ranks(M))


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


def jacobi_residual(C: np.ndarray) -> float:
    """max over a, b, c, d of |Σ_e C[a,b,e]C[e,c,d] + C[b,c,e]C[e,a,d] + C[c,a,e]C[e,b,d]|.

    One first index a at a time, so each product is a (dim, dim) @ (dim, dim²)
    or (dim², dim) @ (dim, dim) matmul and no array is larger than dim³: the
    arithmetic stays dim⁵, the memory does not grow to dim⁴.  A NaN sum gives
    NaN, which no tolerance passes.
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
        worst = np.maximum(worst, np.abs(jac).max())    # NaN propagates
    return float(worst)


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
    if B.shape[1] != B.shape[2]:
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
    prod = spec._basis_products()
    comm = prod - prod.transpose(1, 0, 2)
    scale = 1.0 + np.abs(comm).max()
    res = coeffs @ flat.T
    res -= comm
    close_res = np.abs(res, out=res).max(axis=2)
    del comm, res
    prod_res = None
    if spec.associative:     # b_a b_b against φ(φ⁺(b_a b_b)), φ⁺ = `_flat_pinv`
        res = prod @ spec._flat_pinv.T @ flat.T
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
    if not np.isfinite(G).all():     # an overflowing form has no SVD
        hit("form-nondegenerate", np.nan)
    else:
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

    # principal pair, each a coordinate row of shape (dim,)
    e, h = (np.asarray(c, dtype=float) for c in (spec.e_coords, spec.h_coords))
    for c in (e, h):
        if c.shape != (dim,):
            raise AlgebraError(f"{spec.name}: coordinate vector has shape {c.shape}, "
                               f"expected ({dim},)")
    he_res = np.abs(bracket_blocks(spec, h, e) - 2.0 * e).max()
    if not (he_res <= 1e-12 * (1.0 + np.abs(e).max())):
        hit("he-relation", he_res)
    if not (np.abs(np.where(D == 1, 0.0, e)).max() <= 1e-12):
        hit("e-degree")
    if not (np.abs(np.where(D == 0, 0.0, h)).max() <= 1e-12):
        hit("h-degree")

    # exponents and Cartan shape
    ex = spec.exponents
    if list(ex) != sorted(ex) or any(m < 0 for m in ex):
        hit("exponents-ordering")
    elif 2 * sum(m + 1 for m in ex) != dim + spec.rank:
        hit("exponents-count", 2 * sum(m + 1 for m in ex) - dim - spec.rank)
    if spec.cartan.shape != (spec.rank, spec.rank):
        hit("cartan-shape")

    # e regular nilpotent: ad_e, (ad_e)_{cb} = Σ_a e_a C[a,b,c], has rank dim − ℓ
    # (a non-finite ad_e has no SVD)
    ad_e = np.einsum("a,abc->cb", e, coeffs)
    if not np.isfinite(ad_e).all():
        hit("regular-nilpotent", np.nan)
    elif (r := numerical_rank(ad_e)) != dim - spec.rank:
        hit("regular-nilpotent", float(r))

    if prod_res is not None:
        hit("product-closure", prod_res)

    # the generators Tr x^{m_i+1} independent: their gradients ĝ(x^{m_i}) at
    # one seeded point of 𝔤, each over ‖x^{m_i}‖, have rank ℓ (the form and
    # the exponents this reads are only trusted when nothing above failed)
    if not out:
        x = spec.to_matrices(np.random.default_rng(42).uniform(-1.0, 1.0, dim))[0]
        with np.errstate(all="ignore"):     # an overflowing power is recorded below
            powers = np.array([np.linalg.matrix_power(x, m) for m in ex])
            rows = spec.gradient_from_matrix(powers)
            rows /= np.linalg.norm(powers, axis=(1, 2))[:, None]
        if not np.isfinite(rows).all():
            hit("generator-independence", np.nan)
        elif (r := numerical_rank(rows)) != spec.rank:
            hit("generator-independence", float(r))

    return out


# --------------------------------------------------------------------------
# serialization: the algebra-spec document
# --------------------------------------------------------------------------

def spec_to_document(spec: AlgebraSpec) -> dict:
    """The algebra-spec document: the defining fields, with the derived n,
    dim and rank written beside them for a reader."""
    return {
        "name": spec.name,
        "n": spec.matrix_size,
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


def spec_to_json(spec: AlgebraSpec) -> str:
    """The document as JSON text, one field a line; floats are written as
    their repr, so a load gives back the same bits."""
    doc = spec_to_document(spec)
    fields = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in doc.items())
    return "{\n" + fields + "\n}\n"


def save_spec(spec: AlgebraSpec, path) -> None:
    """Write the algebra-spec document (`spec_to_json`)."""
    Path(path).write_text(spec_to_json(spec))


# the document's derived fields, by the invariant a mismatch violates
_STATED = {"dim": "basis-shape", "rank": "exponents-length", "n": "matrix-size"}


def _numbers(value, field: str, ndim: int, kind: type) -> np.ndarray:
    """A number field of the document as an ndim-dimensional array of `kind`.

    An int field takes JSON integers only and a float field JSON numbers only:
    a string, bool or null is refused rather than converted, a float rather
    than truncated, and a non-finite float rather than kept.
    """
    a, allowed = np.array(value, dtype=object), (int,) if kind is int else (int, float)
    if a.ndim != ndim or any(isinstance(v, bool) or not isinstance(v, allowed) for v in a.flat):
        raise ValueError(f"{field} must be {ndim}-dimensional and hold "
                         f"{'integers' if kind is int else 'numbers'}")
    try:
        a = a.astype(kind)
    except OverflowError:
        raise ValueError(f"{field} holds a number out of range") from None
    if not np.isfinite(a).all():
        raise ValueError(f"{field} has non-finite entries")
    return a


def load_spec(source) -> AlgebraSpec:
    """Load and validate an algebra-spec document (path, JSON text, or dict).

    The document's dim, rank and n (optional) must equal the values derived
    from its basis and exponents.
    """
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
        if not isinstance(doc["associative"], bool):
            raise ValueError("associative must be true or false")
        spec = AlgebraSpec(
            name=str(doc["name"]),
            basis=_numbers(doc["basis"], "basis", 3, float),
            degrees=_numbers(doc["degrees"], "degrees", 1, int),
            exponents=tuple(int(m) for m in _numbers(doc["exponents"], "exponents", 1, int)),
            cartan=_numbers(doc["cartan"], "cartan", 2, int),
            e_coords=_numbers(doc["e_coords"], "e_coords", 1, float),
            h_coords=_numbers(doc["h_coords"], "h_coords", 1, float),
            associative=doc["associative"],
        )
        stated = {key: int(_numbers(doc[key], key, 0, int)) for key in ("dim", "rank")}
        if doc.get("n") is not None:     # n may be left out
            stated["n"] = int(_numbers(doc["n"], "n", 0, int))
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise AlgebraError(f"algebra spec parse failure: {err}") from err
    derived = {"dim": spec.dim, "rank": spec.rank, "n": spec.matrix_size}
    violations = [{"invariant": _STATED[key]} for key, value in stated.items()
                  if value != derived[key]] or validate_spec(spec)
    if violations:
        raise AlgebraValidationError(spec.name, violations)
    return spec
