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
of `rmatrix` (`r_block`, `rr_block` and their adjoints).  `hamiltonian_field`,
`bracket_of` and the bracket values are thin Point wrappers over the blocks;
a stack gives the same bits as the points one at a time.

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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import (
    AlgebraError,
    AlgebraSpec,
    Element,
    bracket,
    bracket_blocks,
    form,
    mult_blocks,
)
from .rmatrix import (
    PairPoint,
    Point,
    RMatrixConfig,
    block_point,
    form2,
    point_block,
    r_bracket,
    rr_adjoint_block,
    rr_block,
)

__all__ = [
    "CapabilityError",
    "PreconditionError",
    "ScalarFunction",
    "PhaseSpace",
    "PoissonMatrixAt",
    "gradient2",
    "bracket_of",
    "linear_field",
    "quadratic_field",
    "linear_bracket",
    "quadratic_bracket",
    "hamiltonian_field",
    "poisson_matrix",
    "rank_at",
    "rank_sweep",
    "numerical_rank",
    "check_morphism_psi1",
    "linear_function",
    "phase_tp",
    "phase_full",
    "psi1",
]

_DEFAULT = RMatrixConfig()
FD_STEP = 1e-5


class CapabilityError(ValueError):
    """Operation requires a capability the algebra does not have."""


class PreconditionError(ValueError):
    """A documented precondition of the operation is violated."""


# --------------------------------------------------------------------------
# scalar functions and gradients
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


def _fd_partials(F: ScalarFunction, m: Point, step: float = FD_STEP) -> np.ndarray:
    """Central finite-difference partials of F in the basis coordinates of m."""
    alg, point = m.alg, type(m)
    v0 = m.vec()
    w = np.empty(v0.size)
    for a in range(v0.size):
        vp, vm = v0.copy(), v0.copy()
        vp[a] += step
        vm[a] -= step
        w[a] = (F(point.from_vec(alg, vp)) - F(point.from_vec(alg, vm))) / (2.0 * step)
    return w


def gradient2(F: ScalarFunction, m: Point, step: float = FD_STEP) -> Point:
    """Gradient of F at m: analytic when available, else central differences."""
    if F.gradient is not None:
        return F.gradient(m)
    return type(m).from_covector(m.alg, _fd_partials(F, m, step))


def _pairing(p: Point, q: Point) -> float:
    return form(p, q) if isinstance(p, Element) else form2(p, q)


def linear_function(p: Point, name: str = "linear") -> ScalarFunction:
    """The function m ↦ ⟨p, m⟩ (⟨p, m⟩₂ on 𝔤×𝔤), whose gradient is the constant p."""
    return ScalarFunction(name, lambda m: _pairing(p, m), lambda m: p)


def psi1(m: PairPoint) -> Element:
    """ψ₁(x, y) = x − y."""
    return m.x - m.y


# --------------------------------------------------------------------------
# the two brackets
# --------------------------------------------------------------------------


def _pairing_matrix(m: Point) -> np.ndarray:
    """The matrix of the pairing on vec(): G on 𝔤, diag(G, −G) on 𝔤×𝔤."""
    return m.alg.gram if isinstance(m, Element) else m.alg.pair_gram


def linear_field(alg: AlgebraSpec, m: np.ndarray, g: np.ndarray,
                 cfg: RMatrixConfig = _DEFAULT) -> np.ndarray:
    """X(m) = ½(ℛ*[g, m] + [ℛg, m]) on blocks (…, k, dim) of points m and gradients g.

    k = 1 gives R, R* on 𝔤, k = 2 gives ℛ, ℛ* on 𝔤×𝔤; m and g broadcast, so one
    call evaluates the field of a gradient stack at a point, or at a point stack.
    """
    return 0.5 * (rr_adjoint_block(alg, bracket_blocks(alg, g, m), cfg)
                  + bracket_blocks(alg, rr_block(alg, g, cfg), m))


def quadratic_field(alg: AlgebraSpec, m: np.ndarray, g: np.ndarray,
                    cfg: RMatrixConfig = _DEFAULT) -> np.ndarray:
    """X(m) = ½[ℛ(mg + gm), m] − ½(wm + mw), w = ℛ*[m, g], on pair blocks (…, 2, dim)."""
    w = rr_adjoint_block(alg, bracket_blocks(alg, m, g), cfg)
    s = rr_block(alg, mult_blocks(alg, m, g) + mult_blocks(alg, g, m), cfg)
    return 0.5 * (bracket_blocks(alg, s, m) - mult_blocks(alg, w, m) - mult_blocks(alg, m, w))


def _block_field(which: str, m: Point):
    """The block field of bracket `which` at points like m, after the capability checks."""
    if which == "linear":
        return linear_field
    if which != "quadratic":
        raise ValueError(f"unknown bracket kind {which!r}")
    if not isinstance(m, PairPoint):
        raise CapabilityError("the quadratic bracket lives on 𝔤×𝔤, not on one algebra")
    if not m.alg.associative:
        raise CapabilityError(
            f"quadratic bracket needs an associative matrix algebra; "
            f"{m.alg.name} has associative=False"
        )
    return quadratic_field


def bracket_of(which: str, m: Point) -> Callable[[Point, Point, RMatrixConfig], Point]:
    """The Hamiltonian field (m, ∇F, cfg) ↦ X_F(m) of bracket `which` at points like m.

    "linear" is the R-bracket on 𝔤 or the ℛ-bracket on 𝔤×𝔤; "quadratic"
    exists only on 𝔤×𝔤 over an associative algebra (CapabilityError
    otherwise).  Any other kind is a ValueError.  The field is a Point
    wrapper over `linear_field`/`quadratic_field`.
    """
    field = _block_field(which, m)

    def point_field(m: Point, g: Point, cfg: RMatrixConfig = _DEFAULT) -> Point:
        return block_point(m.alg, field(m.alg, point_block(m), point_block(g), cfg))

    return point_field


def linear_bracket(F: ScalarFunction, G: ScalarFunction, m: Point,
                   cfg: RMatrixConfig = _DEFAULT) -> float:
    """{F, G}(m) = ⟨∇F, X_G(m)⟩ = ½⟨m, [R∇F, ∇G] + [∇F, R∇G]⟩ (ℛ, ⟨·,·⟩₂ on 𝔤×𝔤)."""
    return _pairing(gradient2(F, m), hamiltonian_field(G, m, "linear", cfg))


def quadratic_bracket(F: ScalarFunction, G: ScalarFunction, m: PairPoint,
                      cfg: RMatrixConfig = _DEFAULT) -> float:
    """{F, G}^Q_ℛ(m) = ⟨∇F, X^Q_G(m)⟩₂; requires the algebra to be associative."""
    return form2(gradient2(F, m), hamiltonian_field(G, m, "quadratic", cfg))


def hamiltonian_field(F: ScalarFunction, m: Point, which: str = "linear",
                      cfg: RMatrixConfig = _DEFAULT) -> Point:
    """X_F(m), with X_F[K] = ⟨∇K, X_F(m)⟩ = {K, F}(m)."""
    return bracket_of(which, m)(m, gradient2(F, m), cfg)


def _inner_bracket_gradient(which: str, m: PairPoint, g: PairPoint, h: PairPoint,
                            cfg: RMatrixConfig = _DEFAULT) -> PairPoint:
    """∇ of m ↦ {G, H}(m) for linear G, H with gradients g, h: the ℛ-bracket
    ½([ℛg, h] + [g, ℛh]) for "linear", T(g, h) − T(h, g) for "quadratic" with
    T(g, h) = ½([g, ℛ(mh + hm)] + hw + wh), w = ℛ*[m, g]."""
    if which == "linear":
        return r_bracket(g, h, cfg=cfg)
    alg, M, G, H = m.alg, point_block(m), point_block(g), point_block(h)

    def T(g, h):
        w = rr_adjoint_block(alg, bracket_blocks(alg, M, g), cfg)
        s = rr_block(alg, mult_blocks(alg, M, h) + mult_blocks(alg, h, M), cfg)
        return 0.5 * (bracket_blocks(alg, g, s) + mult_blocks(alg, h, w) + mult_blocks(alg, w, h))

    return block_point(alg, T(G, H) - T(H, G))


# --------------------------------------------------------------------------
# affine phase spaces
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PhaseSpace:
    """An affine subspace base + span(tangent) of 𝔤 or 𝔤×𝔤 with dual coordinates.

    Points, tangent vectors and gradients share the type of `base`.
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
        return T

    @cached_property
    def _pinv(self) -> np.ndarray:
        return np.linalg.pinv(self.tangent_matrix)

    @cached_property
    def duals(self) -> np.ndarray:
        # Euclidean-dual covectors: D^T @ tangent_matrix = identity
        return self._pinv.T

    @cached_property
    def coords(self) -> tuple[ScalarFunction, ...]:
        """Coordinate functions ζ_a dual to the tangent basis (constant gradients)."""
        alg, base_vec = self.alg, self.base.vec()
        out = []
        for a in range(self.dim):
            d = self.duals[:, a].copy()
            grad = type(self.base).from_covector(alg, d)
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
        """Gradients of a dual basis of the normal directions."""
        T = self.tangent_matrix
        u, s, vt = np.linalg.svd(T, full_matrices=True)
        N = u[:, T.shape[1]:]  # orthonormal basis of the Euclidean complement
        point = type(self.base)
        return tuple(point.from_covector(self.alg, N[:, j]) for j in range(N.shape[1]))

    def membership_residual(self, m: Point) -> float:
        v = m.vec() - self.base.vec()
        return float(np.abs(v - self.tangent_matrix @ (self._pinv @ v)).max())

    def require_member(self, m: Point, tol: float = 1e-10) -> None:
        r = self.membership_residual(m)
        if r > tol:
            raise PreconditionError(
                f"point lies off {self.name} (normal residual {r:.3e} > {tol:g})"
            )

    def jacobian_rank(self, grads: Sequence[Point]) -> int:
        """Rank of the differentials along this space of functions with gradients `grads`.

        Row k is ⟨∇F_k, t_a⟩ over the tangent basis t_a in the points' pairing:
        one product of the stacked gradients with the tangent matrix.
        """
        A = np.stack([g.vec() for g in grads])
        return numerical_rank(A @ _pairing_matrix(self.base) @ self.tangent_matrix)

    def normal_residual(self, w: Point) -> float:
        """Size of the component of a *vector* w transverse to the tangent space."""
        v = w.vec()
        return float(np.abs(v - self.tangent_matrix @ (self._pinv @ v)).max())

    def point_from_coords(self, u: Sequence[float]) -> Point:
        v = self.base.vec() + self.tangent_matrix @ np.asarray(u, dtype=float)
        return type(self.base).from_vec(self.alg, v)

    def coords_of(self, m: Point) -> np.ndarray:
        return self._pinv @ (m.vec() - self.base.vec())

    def sample_points(self, seed: int, count: int) -> list[Point]:
        rng = np.random.default_rng(seed)
        return [
            self.point_from_coords(rng.uniform(-1.0, 1.0, self.dim))
            for _ in range(count)
        ]


def phase_tp(alg: AlgebraSpec) -> PhaseSpace:
    """T_P = 𝔤_{≤0} × 𝔤_{≥−1} + (e, 0), the 2-Toda phase space."""
    zero = alg.zero()
    tangent = [
        PairPoint(Element(alg, v), zero)
        for v in np.eye(alg.dim)[alg.mask("<=0")]
    ] + [
        PairPoint(zero, Element(alg, v))
        for v in np.eye(alg.dim)[alg.mask(">=-1")]
    ]
    return PhaseSpace("T_P", PairPoint(alg.e, zero), tuple(tangent))


def phase_full(alg: AlgebraSpec) -> PhaseSpace:
    """All of 𝔤×𝔤 as a PhaseSpace (base 0, full tangent basis)."""
    zero = alg.zero()
    tangent = [PairPoint(Element(alg, v), zero) for v in np.eye(alg.dim)] + [
        PairPoint(zero, Element(alg, v)) for v in np.eye(alg.dim)
    ]
    return PhaseSpace("g×g", PairPoint(zero, zero), tuple(tangent))


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


def _bracket_table(m: Point, grads: Sequence[Point], which: str,
                   cfg: RMatrixConfig = _DEFAULT) -> np.ndarray:
    """{F_a, F_b}(m) for the functions with gradients grads[a]: ⟨∇F_a, X_{F_b}⟩,
    with one field call on the (n_grads, k, dim) gradient stack."""
    A = np.stack([g.vec() for g in grads])
    n, alg = len(grads), m.alg
    X = _block_field(which, m)(alg, point_block(m), A.reshape(n, -1, alg.dim), cfg)
    M = A @ _pairing_matrix(m) @ X.reshape(n, -1).T
    return 0.5 * (M - M.T)


def poisson_matrix(ps: PhaseSpace, m: PairPoint, which: str = "linear",
                   cfg: RMatrixConfig = _DEFAULT,
                   membership_tol: float = 1e-10) -> PoissonMatrixAt:
    """Induced Poisson matrix {ζ_a, ζ_b}(m) of the phase-space coordinates.

    When the subspace is invariant under the bracket's Hamiltonian flows
    (the normal pairings {ζ, χ} all vanish) this is plainly the matrix of
    coordinate brackets.  Otherwise the canonical induced structure is
    returned: the coordinate matrix plus the Dirac correction
    −{ζ, χ} C⁺ {χ, ζ} with C = {χ, χ} over the normal coordinates χ, which
    is well-defined exactly when range({χ, ζ}) ⊆ range(C).
    """
    ps.require_member(m, membership_tol)
    grads_t = [z.gradient(m) for z in ps.coords]
    grads_n = list(ps.normal_covectors)
    full = _bracket_table(m, grads_t + grads_n, which, cfg)
    kt = len(grads_t)
    M, D, C = full[:kt, :kt], full[:kt, kt:], full[kt:, kt:]
    defect = float(np.abs(D).max()) if D.size else 0.0
    if defect <= 1e-12 * (1.0 + float(np.abs(M).max())):
        return PoissonMatrixAt(point=m, matrix=M, which=which,
                               invariance_defect=defect)
    Cp = np.linalg.pinv(C, rcond=1e-12)
    range_residual = float(np.abs(D.T - C @ (Cp @ D.T)).max())
    if range_residual > 1e-8 * (1.0 + defect):
        raise PreconditionError(
            f"{which} bracket does not induce a Poisson structure on "
            f"{ps.name}: the normal pairings violate the range condition "
            f"(residual {range_residual:.3e})"
        )
    M = M + D @ Cp @ D.T
    M = 0.5 * (M - M.T)  # scrub pinv roundoff from the exact antisymmetry
    return PoissonMatrixAt(point=m, matrix=M, which=which, corrected=True,
                           invariance_defect=defect)


def numerical_rank(M: np.ndarray, rel: float = 1e-10) -> int:
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > sv[0] * max(M.shape) * rel))


def rank_at(ps: PhaseSpace, m: PairPoint, which: str = "linear",
            cfg: RMatrixConfig = _DEFAULT) -> int:
    """Numerical rank of the restricted Poisson matrix at one point."""
    return numerical_rank(poisson_matrix(ps, m, which, cfg).matrix)


def rank_sweep(ps: PhaseSpace, which: str = "linear", cfg: RMatrixConfig = _DEFAULT,
               seed: int = 42, points: int = 25) -> int:
    """Max rank over seeded sample points (rank is lower semicontinuous)."""
    return max(rank_at(ps, m, which, cfg) for m in ps.sample_points(seed, points))


# --------------------------------------------------------------------------
# the ψ₁ morphism check
# --------------------------------------------------------------------------


def check_morphism_psi1(alg: AlgebraSpec, samples: int = 100, seed: int = 42,
                        cfg: RMatrixConfig = _DEFAULT, tol: float = 1e-9):
    """Verify {F∘ψ₁, G∘ψ₁}_ℛ(x,y) = {F, G}_LP(x−y) on random functions.

    F, G run over random linear functions of 𝔤 plus a batch of quadratic
    monomials u ↦ ⟨a,u⟩⟨b,u⟩, with their exact gradients.  Requires c = 1.
    """
    from .reports import CheckReport

    if cfg.c != 1.0:
        raise PreconditionError(
            f"psi1 is a Poisson morphism only for c = 1 (configured c = {cfg.c})"
        )
    rng = np.random.default_rng(seed)
    gi = alg.gram_inv
    worst = 0.0
    for k in range(samples):
        m = PairPoint(
            Element(alg, rng.uniform(-1, 1, alg.dim)),
            Element(alg, rng.uniform(-1, 1, alg.dim)),
        )
        w = psi1(m)
        if k % 5 == 4:
            # f(u) = ⟨a,u⟩⟨b,u⟩ and g(u) = ⟨c,u⟩⟨d,u⟩, gradients at u = w
            def unit():
                v = rng.uniform(-1, 1, alg.dim)
                return Element(alg, v / np.linalg.norm(v))
            a, b, c, d = unit(), unit(), unit(), unit()
            gf = form(b, w) * a + form(a, w) * b
            gg = form(d, w) * c + form(c, w) * d
        else:
            gf = Element(alg, gi @ rng.uniform(-1, 1, alg.dim))
            gg = Element(alg, gi @ rng.uniform(-1, 1, alg.dim))
        # ∇(f∘ψ₁)(m) = (∇f(w), ∇f(w)), and {F, G} = ⟨∇F, X_G⟩₂
        lhs = form2(PairPoint(gf, gf), bracket_of("linear", m)(m, PairPoint(gg, gg), cfg))
        rhs = form(w, bracket(gf, gg))             # Lie–Poisson {f, g}(w)
        worst = max(worst, abs(lhs - rhs))
    return CheckReport(
        check="morphism-psi1",
        anchor="psi1-poisson-morphism",
        algebra=alg.name,
        params={"samples": samples, "seed": seed, "tol": tol},
        measured=worst,
        expected=f"< {tol:g}",
        verdict=worst < tol,
    )
