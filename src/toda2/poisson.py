"""Linear Poisson R-brackets on 𝔤 and ℛ-brackets on 𝔤×𝔤, quadratic ones on 𝔤×𝔤.

On 𝔤×𝔤 gradients are taken with respect to the pairing
⟨(x₁,y₁),(x₂,y₂)⟩₂ = ⟨x₁,x₂⟩ − ⟨y₁,y₂⟩, so a Euclidean partial-derivative
covector (w_x, w_y) converts to the gradient pair (G⁻¹w_x, −G⁻¹w_y) — note the
sign flip on the second component; on 𝔤 the pairing is ⟨·,·⟩ and w converts
to G⁻¹w.  The brackets are

    {F, G}(m)   = ½⟨m, [ℛ∇F, ∇G] + [∇F, ℛ∇G]⟩₂          (R and ⟨·,·⟩ on 𝔤),
    {F, G}^Q(m) = ½⟨[m, ∇F], ℛ(m∇G + ∇G m)⟩₂ − (F ↔ G)   (𝔤×𝔤 over gl only),

with products taken componentwise.  Each is written once, as its Hamiltonian
field (X_G[F] = ⟨∇F, X_G⟩ = {F, G}); ⟨m, [a, b]⟩ = ⟨[m, a], b⟩ and, on gl,
⟨u, ma + am⟩ = ⟨um + mu, a⟩ move ℛ and the products onto ∇G:

    X_G(m)   = ½(ℛ*[∇G, m] + [ℛ∇G, m]),
    X^Q_G(m) = ½[ℛ(m∇G + ∇G m), m] − ½(wm + mw),   w = ℛ*[m, ∇G],

with ℛ* the ⟨·,·⟩₂-adjoint of ℛ (R* the ⟨·,·⟩-adjoint of R on 𝔤).  Bracket
values, fields and Poisson matrices all read these two fields.

The fields are written once, on coordinate blocks: arrays of shape (…, k, dim)
with k = 1 on 𝔤 and k = 2 on 𝔤×𝔤 (`linear_field`, `quadratic_field`).  Points
and gradients broadcast over the leading axes, so a gradient stack at one
point (the rows of a bracket table) or a stack of points is one call.  The
kernel is that of `algebra.bracket`/`mult` — the einsum of the blocks with
the cached `struct`/`prod_tensor` — and the R-operators are the block actions
of `rmatrix` (`r_block`, `rr_block` and their adjoints).  A stack gives the
same bits as its points one at a time, and one point is a one-row stack.
Bracket values are the pairing of a gradient with a field (`form_blocks`);
`bracket_tables` and `poisson_matrices` take a stack of points, and
`rank_sweep` is one stacked matrix call and one stacked SVD.  `poisson_matrix`
is `poisson_matrices` at one point.

Affine phase spaces (T_P and friends in 𝔤×𝔤, T_T in 𝔤) are a base point plus
a tangent basis; their coordinate functions are Euclidean duals of the tangent
vectors.  For the linear bracket these spaces are genuine Poisson
submanifolds, so the matrix of coordinate brackets is the restricted
structure.  The quadratic bracket does not leave the 2-Toda phase space
invariant for n ≥ 3 (the Hamiltonian flow of a generic function moves the
frozen unit superdiagonal), so `poisson_matrix` computes the canonical
induced structure instead: the coordinate matrix plus the Dirac correction
along the normal directions, which coincides with the naive matrix whenever
the subspace is invariant and exists precisely when the normal bracket
pairings satisfy the usual range condition (validated at every call).
`phase_tp` is built once per algebra spec (`AlgebraSpec.memo`), with its
tangent matrix, pseudo-inverse, duals and coordinate gradients read-only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .algebra import (
    AlgebraError,
    AlgebraSpec,
    Element,
    bracket_blocks,
    mult_blocks,
)
from .reports import CheckReport, worst
from .rmatrix import (
    PairPoint,
    Point,
    _matvec,
    form_blocks,
    point_block,
    r_bracket_blocks,
    rr_adjoint_block,
    rr_block,
)

__all__ = [
    "CapabilityError",
    "PreconditionError",
    "ScalarFunction",
    "PhaseSpace",
    "PoissonMatrixAt",
    "RankSweep",
    "linear_field",
    "quadratic_field",
    "bracket_tables",
    "inner_bracket_gradients",
    "poisson_matrix",
    "poisson_matrices",
    "rank_sweep",
    "numerical_rank",
    "numerical_ranks",
    "check_morphism_psi1",
    "phase_tp",
    "psi1",
]

_MEMBERSHIP_TOL = 1e-10   # largest normal residual of a point on a phase space
_RANK_REL = 1e-10         # rank cut: σ > σ_max·size·_RANK_REL counts


class CapabilityError(ValueError):
    """Operation requires a capability the algebra does not have."""


class PreconditionError(ValueError):
    """A documented precondition of the operation is violated."""


# --------------------------------------------------------------------------
# scalar functions
# --------------------------------------------------------------------------


# a Point (rmatrix.Point) is an Element of 𝔤, paired by ⟨·,·⟩, or a PairPoint
# of 𝔤×𝔤, paired by ⟨·,·⟩₂; both carry vec(), from_vec and from_covector, so
# the code below serves both


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function of a Point with an optional analytic gradient.

    The gradient is taken with respect to the point's own pairing: ⟨·,·⟩ on 𝔤,
    ⟨·,·⟩₂ on 𝔤×𝔤.
    """

    name: str
    evaluator: Callable[[Point], float]
    gradient: Optional[Callable[[Point], Point]] = None

    def __call__(self, m: Point) -> float:
        return float(self.evaluator(m))


def psi1(m: PairPoint) -> Element:
    """ψ₁(x, y) = x − y."""
    return m.x - m.y


# --------------------------------------------------------------------------
# the two brackets
# --------------------------------------------------------------------------


def _block_pairing(alg: AlgebraSpec, k: int) -> np.ndarray:
    """The matrix of the pairing on vec() of blocks (k, dim): G on 𝔤 (k = 1),
    diag(G, −G) on 𝔤×𝔤 (k = 2)."""
    return alg.gram if k == 1 else alg.pair_gram


def _pairing_matrix(m: Point) -> np.ndarray:
    """The matrix of the pairing on m.vec()."""
    return _block_pairing(m.alg, len(point_block(m)))


def linear_field(alg: AlgebraSpec, m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """X(m) = ½(ℛ*[g, m] + [ℛg, m]) on blocks (…, k, dim) of points m and gradients g.

    k = 1 gives R, R* on 𝔤, k = 2 gives ℛ, ℛ* on 𝔤×𝔤; m and g broadcast, so one
    call evaluates the field of a gradient stack at a point, or at a point stack.
    """
    return 0.5 * (rr_adjoint_block(alg, bracket_blocks(alg, g, m))
                  + bracket_blocks(alg, rr_block(alg, g), m))


def quadratic_field(alg: AlgebraSpec, m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """X(m) = ½[ℛ(mg + gm), m] − ½(wm + mw), w = ℛ*[m, g], on pair blocks (…, 2, dim)."""
    w = rr_adjoint_block(alg, bracket_blocks(alg, m, g))
    s = rr_block(alg, mult_blocks(alg, m, g) + mult_blocks(alg, g, m))
    return 0.5 * (bracket_blocks(alg, s, m) - mult_blocks(alg, w, m) - mult_blocks(alg, m, w))


def _block_field(which: str, alg: AlgebraSpec, k: int):
    """The block field of bracket `which` on blocks (…, k, dim), after the capability checks."""
    if which == "linear":
        return linear_field
    if which != "quadratic":
        raise ValueError(f"unknown bracket kind {which!r}")
    if k != 2:
        raise CapabilityError("the quadratic bracket lives on 𝔤×𝔤, not on one algebra")
    if not alg.associative:
        raise CapabilityError(
            f"quadratic bracket needs an associative matrix algebra; "
            f"{alg.name} has associative=False"
        )
    return quadratic_field


def inner_bracket_gradients(alg: AlgebraSpec, which: str, M: np.ndarray, G: np.ndarray,
                            H: np.ndarray) -> np.ndarray:
    """∇ of m ↦ {G, H}(m) for linear G, H with gradients G, H, on pair blocks
    (…, 2, dim) of points M: the ℛ-bracket ½([ℛg, h] + [g, ℛh]) for "linear",
    T(g, h) − T(h, g) for "quadratic" with T(g, h) = ½([g, ℛ(mh + hm)] + hw + wh),
    w = ℛ*[m, g]."""
    if which == "linear":
        return r_bracket_blocks(alg, G, H)

    def T(g, h):
        w = rr_adjoint_block(alg, bracket_blocks(alg, M, g))
        s = rr_block(alg, mult_blocks(alg, M, h) + mult_blocks(alg, h, M))
        return 0.5 * (bracket_blocks(alg, g, s) + mult_blocks(alg, h, w) + mult_blocks(alg, w, h))

    return T(G, H) - T(H, G)


# --------------------------------------------------------------------------
# affine phase spaces
# --------------------------------------------------------------------------


def _read_only(A: np.ndarray) -> np.ndarray:
    A.flags.writeable = False
    return A


@dataclass(frozen=True, eq=False)
class PhaseSpace:
    """An affine subspace base + span(tangent) of 𝔤 or 𝔤×𝔤 with dual coordinates.

    Points, tangent vectors and gradients share the type of `base`.  The
    residual, rank and coordinate methods take stacks of coordinate rows
    (…, D), D = dim 𝔤 or 2·dim 𝔤, as `vec()` gives them; one point is a
    one-row stack.  `coords`, `normal_covectors` and `sample_points` give the
    same data as ScalarFunctions and Points.
    """

    name: str
    base: Point
    tangent: tuple[Point, ...]

    @property
    def alg(self) -> AlgebraSpec:
        return self.base.alg

    @property
    def dim(self) -> int:
        return len(self.tangent)

    @cached_property
    def tangent_matrix(self) -> np.ndarray:
        T = np.stack([t.vec() for t in self.tangent], axis=1)
        if np.linalg.matrix_rank(T) < T.shape[1]:
            raise AlgebraError(f"{self.name}: tangent vectors are linearly dependent")
        return _read_only(T)

    @cached_property
    def _pinv(self) -> np.ndarray:
        return _read_only(np.linalg.pinv(self.tangent_matrix))

    @cached_property
    def duals(self) -> np.ndarray:
        # Euclidean-dual covectors: D^T @ tangent_matrix = identity (read-only)
        return self._pinv.T

    @cached_property
    def coord_gradients(self) -> np.ndarray:
        """Read-only rows vec(∇ζ_a), shape (dim, D): the gradients of the
        coordinate functions, the same at every point."""
        point = type(self.base)
        return _read_only(np.stack(
            [point.from_covector(self.alg, d.copy()).vec() for d in self.duals.T]))

    @cached_property
    def normal_gradients(self) -> np.ndarray:
        """Read-only rows: gradients of a dual basis of the normal directions."""
        T = self.tangent_matrix
        u, s, vt = np.linalg.svd(T, full_matrices=True)
        N = u[:, T.shape[1]:]  # orthonormal basis of the Euclidean complement
        point = type(self.base)
        rows = [point.from_covector(self.alg, N[:, j]).vec() for j in range(N.shape[1])]
        return _read_only(np.stack(rows) if rows else np.zeros((0, T.shape[0])))

    @cached_property
    def coords(self) -> tuple[ScalarFunction, ...]:
        """Coordinate functions ζ_a dual to the tangent basis (constant gradients)."""
        alg, base_vec, point = self.alg, self.base.vec(), type(self.base)
        out = []
        for a in range(self.dim):
            d = self.duals[:, a].copy()
            grad = point.from_vec(alg, self.coord_gradients[a])
            out.append(
                ScalarFunction(
                    f"{self.name}[{a}]",
                    lambda m, d=d, b=base_vec: float(d @ (m.vec() - b)),
                    lambda m, g=grad: g,
                )
            )
        return tuple(out)

    @cached_property
    def normal_covectors(self) -> tuple[Point, ...]:
        """Gradients of a dual basis of the normal directions, as Points."""
        point = type(self.base)
        return tuple(point.from_vec(self.alg, row) for row in self.normal_gradients)

    def normal_residuals(self, V: np.ndarray) -> np.ndarray:
        """Size of the component transverse to the tangent space of every
        *vector* row of V (…, D)."""
        T, pinv = self.tangent_matrix, self._pinv
        return np.abs(V - _matvec(T, _matvec(pinv, V))).max(axis=-1)

    def membership_residuals(self, V: np.ndarray) -> np.ndarray:
        """Distance-like residual of every point row of V (…, D) from the space."""
        return self.normal_residuals(V - self.base.vec())

    def require_members(self, V: np.ndarray) -> None:
        """PreconditionError naming the first point row of V (S, D) off the space."""
        r = self.membership_residuals(V)
        bad = np.flatnonzero(~(r <= _MEMBERSHIP_TOL))
        if bad.size:
            raise PreconditionError(f"point lies off {self.name} (normal residual "
                                    f"{r[bad[0]]:.3e} > {_MEMBERSHIP_TOL:g})")

    def jacobian_ranks(self, G: np.ndarray) -> np.ndarray:
        """Rank along this space of the differentials with gradient rows G (…, n, D),
        one rank per leading index.

        Row k is ⟨∇F_k, t_a⟩ over the tangent basis t_a in the points' pairing:
        one product of the stacked gradients with the tangent matrix, then one
        stacked SVD.
        """
        return numerical_ranks(G @ _pairing_matrix(self.base) @ self.tangent_matrix)

    def points_from_coords(self, U: np.ndarray) -> np.ndarray:
        """Point rows base + T·u for coordinate rows U (…, dim)."""
        return self.base.vec() + _matvec(self.tangent_matrix, np.asarray(U, dtype=float))

    def sample_stack(self, seed: int, count: int) -> np.ndarray:
        """`count` seeded point rows (count, D), coordinates uniform in [−1, 1]."""
        rng = np.random.default_rng(seed)
        return self.points_from_coords(rng.uniform(-1.0, 1.0, (count, self.dim)))

    def sample_points(self, seed: int, count: int) -> list[Point]:
        point = type(self.base)
        return [point.from_vec(self.alg, v) for v in self.sample_stack(seed, count)]


def phase_tp(alg: AlgebraSpec) -> PhaseSpace:
    """T_P = 𝔤_{≤0} × 𝔤_{≥−1} + (e, 0), the 2-Toda phase space, built once per spec."""

    def build():
        zero = alg.zero()
        tangent = [
            PairPoint(Element(alg, v), zero)
            for v in np.eye(alg.dim)[alg.mask("<=0")]
        ] + [
            PairPoint(zero, Element(alg, v))
            for v in np.eye(alg.dim)[alg.mask(">=-1")]
        ]
        return PhaseSpace("T_P", PairPoint(alg.e, zero), tuple(tangent))

    return alg.memo("T_P", build)


# --------------------------------------------------------------------------
# Poisson matrices and rank
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PoissonMatrixAt:
    point: PairPoint
    matrix: np.ndarray
    which: str
    corrected: bool = False          # True iff a Dirac correction was applied
    invariance_defect: float = 0.0   # max |{ζ, χ}| against normal coordinates

    def __post_init__(self):
        skew = np.abs(self.matrix + self.matrix.T).max()
        if skew > 1e-12 * (1.0 + np.abs(self.matrix).max()):
            raise AssertionError(
                f"Poisson matrix not antisymmetric (residual {skew:.3e})"
            )


def bracket_tables(alg: AlgebraSpec, which: str, M: np.ndarray, A: np.ndarray) -> np.ndarray:
    """{F_a, F_b} = ⟨∇F_a, X_{F_b}⟩ at points M (…, k, dim), shape (…, n, n).

    A holds the gradient rows vec(∇F_a), (n, k·dim) shared by every point or
    (…, n, k·dim) one set per point.  One field call on the (…, n, k, dim)
    gradient stack, one product with the pairing per point.
    """
    k = M.shape[-2]
    G = A.reshape(*A.shape[:-1], k, alg.dim)
    X = _block_field(which, alg, k)(alg, M[..., None, :, :], G)
    T = A @ _block_pairing(alg, k) @ X.reshape(*X.shape[:-2], -1).swapaxes(-1, -2)
    return 0.5 * (T - T.swapaxes(-1, -2))


def poisson_matrices(ps: PhaseSpace, V: np.ndarray, which: str = "linear"):
    """Induced Poisson matrices {ζ_a, ζ_b}(m) of the phase-space coordinates at
    the point rows V (S, D): matrices (S, dim, dim), Dirac-corrected flags and
    invariance defects max |{ζ, χ}|, one per point.

    Where the subspace is invariant under the bracket's Hamiltonian flows
    (the normal pairings {ζ, χ} all vanish) this is plainly the matrix of
    coordinate brackets.  Otherwise the canonical induced structure is
    returned: the coordinate matrix plus the Dirac correction
    −{ζ, χ} C⁺ {χ, ζ} with C = {χ, χ} over the normal coordinates χ, which
    is well-defined exactly when range({χ, ζ}) ⊆ range(C).  One bracket-table
    call serves the stack, and one stacked pinv the points that need it.
    """
    ps.require_members(V)
    alg, kt = ps.alg, ps.dim
    A = np.concatenate([ps.coord_gradients, ps.normal_gradients])
    full = bracket_tables(alg, which, V.reshape(len(V), -1, alg.dim), A)
    M, D, C = full[:, :kt, :kt], full[:, :kt, kt:], full[:, kt:, kt:]
    defect = np.abs(D).max(axis=(1, 2)) if D.size else np.zeros(len(V))
    corrected = ~(defect <= 1e-12 * (1.0 + np.abs(M).max(axis=(1, 2))))
    if corrected.any():
        Dc, Cc = D[corrected], C[corrected]
        DT = Dc.swapaxes(1, 2)
        Cp = np.linalg.pinv(Cc, rcond=1e-12)
        range_residual = np.abs(DT - Cc @ (Cp @ DT)).max(axis=(1, 2))
        bad = np.flatnonzero(range_residual > 1e-8 * (1.0 + defect[corrected]))
        if bad.size:
            raise PreconditionError(
                f"{which} bracket does not induce a Poisson structure on "
                f"{ps.name}: the normal pairings violate the range condition "
                f"(residual {range_residual[bad[0]]:.3e})"
            )
        Mc = M[corrected] + Dc @ Cp @ DT
        M = M.copy()
        M[corrected] = 0.5 * (Mc - Mc.swapaxes(1, 2))  # scrub pinv roundoff from the antisymmetry
    return M, corrected, defect


def poisson_matrix(ps: PhaseSpace, m: PairPoint, which: str = "linear") -> PoissonMatrixAt:
    """`poisson_matrices` at one point."""
    M, corrected, defect = poisson_matrices(ps, m.vec()[None], which)
    return PoissonMatrixAt(point=m, matrix=M[0], which=which, corrected=bool(corrected[0]),
                           invariance_defect=float(defect[0]))


def _ranks(sv: np.ndarray, size: int) -> np.ndarray:
    # singular values above the largest times size·_RANK_REL, per stack entry
    return np.sum(sv > sv[..., :1] * size * _RANK_REL, axis=-1)


def numerical_ranks(M: np.ndarray) -> np.ndarray:
    """`numerical_rank` of every matrix of a stack (…, r, c), one stacked SVD."""
    if M.size == 0:
        return np.zeros(M.shape[:-2], dtype=int)
    return _ranks(np.linalg.svd(M, compute_uv=False), max(M.shape[-2:]))


def numerical_rank(M: np.ndarray) -> int:
    return int(numerical_ranks(M))


@dataclass(frozen=True)
class RankSweep:
    """The max rank over a seeded sweep, with the evidence of its rank decisions."""

    rank: int
    points: int
    sv_gap: float              # min over points of σ_r/σ_{r+1}, r the point's rank
    corrected: int             # points whose matrix needed the Dirac correction
    invariance_defect: float   # max |{ζ, χ}| over the sweep

    @property
    def evidence(self) -> str:
        return (f"sv gap min {self.sv_gap:.3e}, Dirac-corrected points "
                f"{self.corrected}/{self.points}, invariance defect max "
                f"{self.invariance_defect:.3e}")


def rank_sweep(ps: PhaseSpace, which: str = "linear", seed: int = 42,
               points: int = 25) -> RankSweep:
    """Max rank over seeded sample points (rank is lower semicontinuous), from
    one stacked Poisson-matrix call and one stacked SVD.

    The gap at a point of rank r is σ_r/σ_{r+1} (σ_0 = ∞, σ_{n+1} = 0, and a
    zero σ_{r+1} reads as the smallest positive float).
    """
    M, corrected, defect = poisson_matrices(ps, ps.sample_stack(seed, points), which)
    sv = np.linalg.svd(M, compute_uv=False)
    ranks = _ranks(sv, M.shape[-1])
    S = len(sv)
    padded = np.concatenate([np.full((S, 1), np.inf), sv, np.zeros((S, 1))], axis=1)
    r = ranks[:, None]
    gaps = np.take_along_axis(padded, r, 1) / np.maximum(
        np.take_along_axis(padded, r + 1, 1), np.finfo(float).tiny)
    return RankSweep(rank=int(ranks.max()), points=points, sv_gap=float(gaps.min()),
                     corrected=int(corrected.sum()), invariance_defect=float(defect.max()))


# --------------------------------------------------------------------------
# the ψ₁ morphism check
# --------------------------------------------------------------------------


def _psi1_samples(alg: AlgebraSpec, seed: int, samples: int):
    """Points m (samples, 2, dim) and the gradients ∇f, ∇g at w = x − y (samples, dim).

    Sample k draws (x, y), then two covectors u, v with ∇f = G⁻¹u, ∇g = G⁻¹v,
    or, at every fifth sample, four unit vectors a, b, c, d with
    f(u) = ⟨a,u⟩⟨b,u⟩ and g(u) = ⟨c,u⟩⟨d,u⟩.  The draws are one array, in
    that order.
    """
    rng = np.random.default_rng(seed)
    quad = np.arange(samples) % 5 == 4
    rows = np.where(quad, 6, 4)
    start = np.cumsum(rows) - rows
    U = rng.uniform(-1, 1, (int(rows.sum()), alg.dim))
    M = U[start[:, None] + np.arange(2)]
    gf, gg = _matvec(alg.gram_inv, U[start + 2]), _matvec(alg.gram_inv, U[start + 3])
    v = U[start[quad, None] + 2 + np.arange(4)]               # (n_quad, 4, dim)
    a, b, c, d = np.moveaxis(v / np.sqrt(np.vecdot(v, v))[..., None], 1, 0)
    w = M[quad, 0] - M[quad, 1]

    def pair(x, y):
        return form_blocks(alg, x[:, None], y[:, None])[:, None]

    gf[quad] = pair(b, w) * a + pair(a, w) * b
    gg[quad] = pair(d, w) * c + pair(c, w) * d
    return M, gf, gg


def check_morphism_psi1(alg: AlgebraSpec, samples: int = 100, seed: int = 42,
                        tol: float = 1e-9):
    """Verify {F∘ψ₁, G∘ψ₁}_ℛ(x,y) = {F, G}_LP(x−y) on random functions.

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
    return CheckReport.below("morphism-psi1", "psi1-poisson-morphism", alg.name,
                             worst(np.abs(lhs - rhs)), tol, {"samples": samples, "seed": seed})
