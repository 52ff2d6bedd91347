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
values, fields, Poisson matrices and the Jacobi sums of `checks` all read
these two fields; no other formula of these brackets is written.

The fields are written once, on coordinate blocks: arrays of shape (…, k, dim)
with k = 1 on 𝔤 and k = 2 on 𝔤×𝔤 (`linear_field`, `quadratic_field`), and a
bracket's name chooses its field in one place (`block_field`).  Points and
gradients broadcast over the leading axes, so a gradient stack at one
point (the rows of a bracket table) or a stack of points is one call.  The
kernels are `algebra.bracket_blocks` (the outer products x⊗y of 64 KB
row blocks contracted with the cached `struct`) and `algebra.mult_blocks`
(the product of the blocks' matrices), and the R-operators are the block
actions of `rmatrix` (`r_block`, `rr_block` and their adjoints).  A stack
gives the same bits as its points one at a time, and one point is a
one-row stack.
Bracket values are the pairing of a gradient with a field (`rmatrix.form_blocks`);
`bracket_tables` and `poisson_matrices` take a stack of points.  A Poisson
matrix evaluates the fields of the coordinate gradients at every point and
those of the normal gradients only at the points that need the Dirac
correction, in one stacked call.  `rank_sweep` is one stacked matrix call and
one stacked SVD, its ranks counted above the one rank cut of `algebra`
(`rank_cuts`).  `poisson_matrix` is `poisson_matrices` at one point, read off
the row of its `PairPoint` record.

Affine phase spaces are a base row plus a tangent matrix: T_P in 𝔤×𝔤
(`phase_tp`), the Toda space T_T = 𝔤₋₁ ⊕ 𝔤₀ + e in 𝔤 (`toda_space`) and
its diagonal image T_T′ in 𝔤×𝔤 (`diag_phase_space`).  Their coordinate
functions are Euclidean duals of the tangent vectors.  For the linear bracket these spaces are genuine Poisson
submanifolds, so the matrix of coordinate brackets is the restricted
structure.  The quadratic bracket does not leave the 2-Toda phase space
invariant for n ≥ 3 (the Hamiltonian flow of a generic function moves the
frozen unit superdiagonal), so `poisson_matrix` computes the canonical
induced structure instead: the coordinate matrix plus the Dirac correction
along the normal directions, which coincides with the naive matrix whenever
the subspace is invariant and exists precisely when the normal bracket
pairings satisfy the usual range condition (validated at every call).
Each space is built once per algebra spec (`AlgebraSpec.memo`), with its
tangent matrix, pseudo-inverse, duals and coordinate gradients read-only.
The checks of these brackets, and their reports, are in `checks`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .algebra import (
    AlgebraSpec,
    Element,
    bracket_blocks,
    mult_blocks,
    numerical_rank,
    numerical_ranks,
    rank_cuts,
    read_only,
)
from .rmatrix import (
    PairPoint,
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
    "brackets",
    "linear_field",
    "quadratic_field",
    "block_field",
    "bracket_tables",
    "poisson_matrix",
    "poisson_matrices",
    "rank_sweep",
    "numerical_rank",      # re-exported from `algebra`: perfbench reads it here
    "phase_tp",
    "toda_space",
    "diag_phase_space",
]

_MEMBERSHIP_TOL = 1e-10   # largest normal residual of a point on a phase space
_RANK_POINTS = 25         # seeded points of a rank sweep


class CapabilityError(ValueError):
    """Operation requires a capability the algebra does not have."""


class PreconditionError(ValueError):
    """A documented precondition of the operation is violated."""


# --------------------------------------------------------------------------
# scalar functions
# --------------------------------------------------------------------------


# a point is a record, an Element of 𝔤 (paired by ⟨·,·⟩) or a PairPoint of 𝔤×𝔤
# (by ⟨·,·⟩₂), read through its row vec() and from_vec: the code below serves both


@dataclass(frozen=True)
class ScalarFunction:
    """A named scalar function of a point record; gradients are read off
    stacks (`PhaseSpace.coord_gradients`, `family_gradient_stack`)."""

    name: str
    evaluator: Callable[[Element | PairPoint], float]

    def __call__(self, m: Element | PairPoint) -> float:
        return float(self.evaluator(m))


# --------------------------------------------------------------------------
# the two brackets
# --------------------------------------------------------------------------


def _matvec(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    # A applied to each coordinate vector of X (…, dim), one matrix-vector
    # product per vector: a stack gets the bits of the single products
    return (A @ X[..., None])[..., 0]


def _block_pairing(alg: AlgebraSpec, k: int) -> np.ndarray:
    """The matrix of the pairing on vec() of blocks (k, dim): G on 𝔤 (k = 1),
    diag(G, −G) on 𝔤×𝔤 (k = 2)."""
    return alg.gram if k == 1 else alg.pair_gram


def _gradient_blocks(alg: AlgebraSpec, W: np.ndarray) -> np.ndarray:
    """The pairing gradients of Euclidean covector blocks W (…, k, dim): G⁻¹w
    on 𝔤 (k = 1), (G⁻¹w_x, −G⁻¹w_y) on 𝔤×𝔤 (k = 2)."""
    g = _matvec(alg.gram_inv, W)
    g[..., 1:, :] *= -1.0
    return g


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


def brackets(alg: AlgebraSpec) -> tuple[str, ...]:
    """The brackets a spec carries: the linear one, and the quadratic one on an
    associative matrix algebra."""
    return ("linear", "quadratic") if alg.associative else ("linear",)


def block_field(which: str, alg: AlgebraSpec, k: int):
    """The block field of bracket `which` on blocks (…, k, dim), after the
    capability checks: the one place a bracket's name chooses its field."""
    if which == "linear":
        return linear_field
    if which != "quadratic":
        raise ValueError(f"unknown bracket kind {which!r}")
    if k != 2:
        raise CapabilityError("the quadratic bracket lives on 𝔤×𝔤, not on one algebra")
    if which not in brackets(alg):
        raise CapabilityError(
            f"quadratic bracket needs an associative matrix algebra; "
            f"{alg.name} has associative=False"
        )
    return quadratic_field


# --------------------------------------------------------------------------
# affine phase spaces
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PhaseSpace:
    """An affine subspace base + span(tangent) of 𝔤 or 𝔤×𝔤 with dual coordinates.

    `base` is a point row and the columns of `tangent_matrix` the tangent
    basis, both in the coordinates (D,) that `vec()` gives, D = dim 𝔤 or
    2·dim 𝔤; both are read-only.  The residual, rank and coordinate methods
    take stacks of coordinate rows (…, D); one point is a one-row stack.
    `coords`, `normal_covectors` and `sample_points` give the same data as
    ScalarFunctions and point records (`Element`, `PairPoint`).
    """

    name: str
    alg: AlgebraSpec
    base: np.ndarray              # (D,)
    tangent_matrix: np.ndarray    # (D, dim)

    def __post_init__(self):
        read_only(self.base)
        read_only(self.tangent_matrix)

    @property
    def dim(self) -> int:
        return self.tangent_matrix.shape[1]

    @property
    def _blocks(self) -> int:
        # k = 1 on 𝔤, 2 on 𝔤×𝔤
        return len(self.base) // self.alg.dim

    def _points(self, rows) -> list:
        point = Element if self._blocks == 1 else PairPoint
        return [point.from_vec(self.alg, v) for v in rows]

    def _gradient_rows(self, W: np.ndarray) -> np.ndarray:
        """Rows vec(∇) of the gradients of Euclidean covector rows W (r, D)."""
        G = _gradient_blocks(self.alg, W.reshape(len(W), self._blocks, self.alg.dim))
        return read_only(G.reshape(W.shape))

    @cached_property
    def _pinv(self) -> np.ndarray:
        return read_only(np.linalg.pinv(self.tangent_matrix))

    @cached_property
    def duals(self) -> np.ndarray:
        # Euclidean-dual covectors: D^T @ tangent_matrix = identity (read-only)
        return self._pinv.T

    @cached_property
    def coord_gradients(self) -> np.ndarray:
        """Read-only rows vec(∇ζ_a), shape (dim, D): the gradients of the
        coordinate functions, the same at every point."""
        return self._gradient_rows(self._pinv)

    @cached_property
    def normal_gradients(self) -> np.ndarray:
        """Read-only rows: gradients of a dual basis of the normal directions."""
        T = self.tangent_matrix
        u, s, vt = np.linalg.svd(T, full_matrices=True)
        # an orthonormal basis of the Euclidean complement, one row each
        return self._gradient_rows(u[:, T.shape[1]:].T)

    @cached_property
    def coords(self) -> tuple[ScalarFunction, ...]:
        """Coordinate functions ζ_a dual to the tangent basis; their gradients
        are the rows of `coord_gradients`."""
        return tuple(
            ScalarFunction(f"{self.name}[{a}]",
                           lambda m, d=d.copy(): float(d @ (m.vec() - self.base)))
            for a, d in enumerate(self.duals.T)
        )

    @cached_property
    def normal_covectors(self) -> tuple[Element | PairPoint, ...]:
        """Gradients of a dual basis of the normal directions, as point records."""
        return tuple(self._points(self.normal_gradients))

    def normal_residuals(self, V: np.ndarray) -> np.ndarray:
        """Size of the component transverse to the tangent space of every
        *vector* row of V (…, D)."""
        T, pinv = self.tangent_matrix, self._pinv
        return np.abs(V - _matvec(T, _matvec(pinv, V))).max(axis=-1)

    def membership_residuals(self, V: np.ndarray) -> np.ndarray:
        """Distance-like residual of every point row of V (…, D) from the space."""
        return self.normal_residuals(V - self.base)

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
        return numerical_ranks(G @ _block_pairing(self.alg, self._blocks) @ self.tangent_matrix)

    def points_from_coords(self, U: np.ndarray) -> np.ndarray:
        """Point rows base + T·u for coordinate rows U (…, dim)."""
        return self.base + _matvec(self.tangent_matrix, np.asarray(U, dtype=float))

    def sample_stack(self, seed: int, count: int) -> np.ndarray:
        """`count` seeded point rows (count, D), coordinates uniform in [−1, 1]."""
        rng = np.random.default_rng(seed)
        return self.points_from_coords(rng.uniform(-1.0, 1.0, (count, self.dim)))

    def sample_points(self, seed: int, count: int) -> list[Element | PairPoint]:
        return self._points(self.sample_stack(seed, count))


def phase_tp(alg: AlgebraSpec) -> PhaseSpace:
    """T_P = 𝔤_{≤0} × 𝔤_{≥−1} + (e, 0), the 2-Toda phase space, built once per spec."""

    def build():
        free = np.concatenate([alg.degrees <= 0, alg.degrees >= -1])
        base = np.concatenate([alg.e_coords, np.zeros(alg.dim)])
        return PhaseSpace("T_P", alg, base, np.eye(2 * alg.dim)[:, free])

    return alg.memo("T_P", build)


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
# Poisson matrices and rank
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PoissonMatrixAt:
    matrix: np.ndarray
    corrected: bool            # True iff a Dirac correction was applied
    invariance_defect: float   # max |{ζ, χ}| against normal coordinates

    def __post_init__(self):
        skew = np.abs(self.matrix + self.matrix.T).max()
        if skew > 1e-12 * (1.0 + np.abs(self.matrix).max()):
            raise AssertionError(
                f"Poisson matrix not antisymmetric (residual {skew:.3e})"
            )


def _field_pairings(alg: AlgebraSpec, which: str, M: np.ndarray, A: np.ndarray,
                    B: np.ndarray) -> np.ndarray:
    """⟨∇F_a, X_{G_b}⟩ = {F_a, G_b} at points M (…, k, dim), shape (…, n, r).

    A holds the row gradients vec(∇F_a) and B the column gradients vec(∇G_b),
    each (n, k·dim) shared by every point or (…, n, k·dim) one set per point.
    One field call on the (…, r, k, dim) column stack, the pairing applied to
    each row gradient, then one dot product per entry: only the columns'
    fields are evaluated, and an entry has the bits of the table of its two
    rows alone, whatever other rows the table holds.
    """
    k = M.shape[-2]
    G = B.reshape(*B.shape[:-1], k, alg.dim)
    X = block_field(which, alg, k)(alg, M[..., None, :, :], G)
    PA = _matvec(_block_pairing(alg, k), A)
    return np.vecdot(PA[..., :, None, :], X.reshape(*X.shape[:-2], -1)[..., None, :, :])


def bracket_tables(alg: AlgebraSpec, which: str, M: np.ndarray, A: np.ndarray) -> np.ndarray:
    """{F_a, F_b} = ⟨∇F_a, X_{F_b}⟩ at points M (…, k, dim), shape (…, n, n),
    antisymmetrised.

    A holds the gradient rows vec(∇F_a), (n, k·dim) shared by every point or
    (…, n, k·dim) one set per point; the field of every row is evaluated.
    """
    T = _field_pairings(alg, which, M, A, A)
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
    is well-defined exactly when range({χ, ζ}) ⊆ range(C).

    Only the coordinate fields X_ζ are evaluated at every point, paired with
    the coordinate and normal gradients: that gives {ζ, ζ} and
    {ζ, χ} = −{χ, ζ}ᵀ.  The normal fields X_χ, which only C reads, are
    evaluated at the points whose defect calls for the correction, in one
    stacked call, and one stacked pinv serves those points.
    """
    ps.require_members(V)
    alg, kt = ps.alg, ps.dim
    P = V.reshape(len(V), -1, alg.dim)
    Z, N = ps.coord_gradients, ps.normal_gradients
    T = _field_pairings(alg, which, P, np.concatenate([Z, N]), Z)   # {F, ζ}, F = ζ then χ
    M = 0.5 * (T[:, :kt] - T[:, :kt].swapaxes(1, 2))
    D = -T[:, kt:].swapaxes(1, 2)                                   # {ζ, χ}
    defect = np.abs(D).max(axis=(1, 2)) if D.size else np.zeros(len(V))
    corrected = ~(defect <= 1e-12 * (1.0 + np.abs(M).max(axis=(1, 2))))
    if corrected.any():
        Dc, Cc = D[corrected], bracket_tables(alg, which, P[corrected], N)
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
        M[corrected] = 0.5 * (Mc - Mc.swapaxes(1, 2))  # scrub pinv roundoff from the antisymmetry
    return M, corrected, defect


def poisson_matrix(ps: PhaseSpace, m: PairPoint, which: str = "linear") -> PoissonMatrixAt:
    """`poisson_matrices` at one point."""
    M, corrected, defect = poisson_matrices(ps, m.vec()[None], which)
    return PoissonMatrixAt(matrix=M[0], corrected=bool(corrected[0]),
                           invariance_defect=float(defect[0]))


@dataclass(frozen=True)
class RankSweep:
    """The max rank over a seeded sweep, with the evidence of its rank decisions."""

    rank: int
    points: int
    sv_margin: float           # min over points of σ_r over its rank cut, r the point's rank
    corrected: int             # points whose matrix needed the Dirac correction
    invariance_defect: float   # max |{ζ, χ}| over the sweep

    @property
    def evidence(self) -> str:
        return (f"sv margin min {self.sv_margin:.3e}, Dirac-corrected points "
                f"{self.corrected}/{self.points}, invariance defect max "
                f"{self.invariance_defect:.3e}")


def rank_sweep(ps: PhaseSpace, which: str = "linear", seed: int = 42) -> RankSweep:
    """Max rank over _RANK_POINTS seeded sample points (rank is lower
    semicontinuous), from one stacked Poisson-matrix call and one stacked SVD.

    The margin at a point of rank r is σ_r/(σ_1·size·10⁻¹⁰), σ_r over the
    rank cut (`algebra.rank_cuts`): how far the smallest counted singular
    value clears the cut (∞ at rank 0).
    Unlike σ_r/σ_{r+1} it does not read the roundoff σ_{r+1}.
    """
    M, corrected, defect = poisson_matrices(ps, ps.sample_stack(seed, _RANK_POINTS), which)
    sv = np.linalg.svd(M, compute_uv=False)
    cuts = rank_cuts(sv, M.shape[-1])
    ranks = np.sum(sv > cuts, axis=-1)
    smallest = np.take_along_axis(sv, np.maximum(ranks, 1)[:, None] - 1, 1)[:, 0]   # σ_r
    margins = np.divide(smallest, cuts[:, 0], out=np.full(len(sv), np.inf), where=ranks > 0)
    return RankSweep(rank=int(ranks.max()), points=_RANK_POINTS, sv_margin=float(margins.min()),
                     corrected=int(corrected.sum()), invariance_defect=float(defect.max()))
