"""The product algebra 𝔤×𝔤, the splitting R on 𝔤, and the induced ℛ on 𝔤×𝔤.

R is the difference of projections P₊ − P₋ for the splitting 𝔤 = 𝔤_{≥0} ⊕ 𝔤_{<0};
the pair operator is ℛ(x, y) = (R(x−y) + cy, R(x−y) + cx).  For c = 1 this is,
componentwise, (x₊ − x₋ + 2y₋, y₋ − y₊ + 2x₊), i.e. plus-part minus minus-part
for the decomposition

    (x, y)₊ = (x₊ + y₋, x₊ + y₋)   (diagonal),
    (x, y)₋ = (x₋ − y₋, y₊ − x₊)   (in 𝔤₋ × 𝔤₊).

Each operator is written once, as a block action on coordinate arrays of
shape (…, k, dim) — k = 1 on 𝔤, k = 2 on 𝔤×𝔤 — broadcasting over the leading
axes; the Element/PairPoint functions are thin wrappers over those actions.
The checkers below measure the modified Yang–Baxter residual
B_R(x,y) + c²[x,y] and its pair analogue on the whole sample stack at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .algebra import AlgebraError, AlgebraSpec, Element, bracket_blocks, form, project

__all__ = [
    "PairPoint",
    "Point",
    "RMatrixConfig",
    "point_block",
    "block_point",
    "r_block",
    "rr_block",
    "r_adjoint_block",
    "rr_adjoint_block",
    "b_tensor_block",
    "r_apply",
    "rr_apply",
    "r_adjoint",
    "rr_adjoint",
    "pair_bracket",
    "form2",
    "decompose_pair",
    "r_bracket",
    "check_mcybe",
    "random_element",
    "random_pair",
]


@dataclass(frozen=True, eq=False)
class PairPoint:
    """A point (x, y) of 𝔤×𝔤, both components over the same AlgebraSpec."""

    x: Element
    y: Element

    def __post_init__(self):
        if self.x.alg is not self.y.alg:
            raise AlgebraError("PairPoint components live in different algebras")

    @property
    def alg(self) -> AlgebraSpec:
        return self.x.alg

    def vec(self) -> np.ndarray:
        return np.concatenate([self.x.coords, self.y.coords])

    @staticmethod
    def from_vec(alg: AlgebraSpec, v: np.ndarray) -> "PairPoint":
        v = np.asarray(v, dtype=float)
        return PairPoint(Element(alg, v[: alg.dim].copy()), Element(alg, v[alg.dim:].copy()))

    @staticmethod
    def from_covector(alg: AlgebraSpec, w: np.ndarray) -> "PairPoint":
        """The ⟨·,·⟩₂-gradient (G⁻¹w_x, −G⁻¹w_y) of a Euclidean covector w."""
        gi = alg.gram_inv
        return PairPoint(Element(alg, gi @ w[: alg.dim]), Element(alg, -(gi @ w[alg.dim:])))

    def norm(self) -> float:
        return float(np.abs(self.vec()).max()) if self.alg.dim else 0.0

    def __add__(self, o: "PairPoint") -> "PairPoint":
        return PairPoint(self.x + o.x, self.y + o.y)

    def __sub__(self, o: "PairPoint") -> "PairPoint":
        return PairPoint(self.x - o.x, self.y - o.y)

    def __neg__(self) -> "PairPoint":
        return PairPoint(-self.x, -self.y)

    def __mul__(self, s: float) -> "PairPoint":
        return PairPoint(self.x * s, self.y * s)

    __rmul__ = __mul__


@dataclass(frozen=True)
class RMatrixConfig:
    """Constant c plus the two degree regions splitting 𝔤 into subalgebras."""

    c: float = 1.0
    plus_region: str = ">=0"
    minus_region: str = "<0"

    def signs(self, alg: AlgebraSpec) -> np.ndarray:
        """Read-only diagonal of R = P₊ − P₋ in basis coordinates, cached per algebra."""
        return alg.splitting_signs(self.plus_region, self.minus_region)


_DEFAULT = RMatrixConfig()

# a point of 𝔤 (an Element, paired by ⟨·,·⟩) or of 𝔤×𝔤 (a PairPoint, by ⟨·,·⟩₂)
Point = Union[Element, PairPoint]

# an R operator is the splitting (None) or a coordinate matrix
ROperator = Union[None, np.ndarray]


def point_block(p: Point) -> np.ndarray:
    """The coordinate block of a point: (1, dim) for an Element, (2, dim) for a pair."""
    return p.vec().reshape(-1, p.alg.dim)


def block_point(alg: AlgebraSpec, B: np.ndarray) -> Point:
    """The Element (B of shape (1, dim)) or PairPoint (shape (2, dim)) with block B."""
    if B.shape[0] == 1:
        return Element(alg, B[0])
    return PairPoint(Element(alg, B[0]), Element(alg, B[1]))


def _matvec(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    # A applied to each coordinate vector of X (…, dim), one matrix-vector
    # product per vector: a stack gets the bits of the single products
    return (A @ X[..., None])[..., 0]


def r_block(alg: AlgebraSpec, X: np.ndarray, cfg: RMatrixConfig = _DEFAULT) -> np.ndarray:
    """R = P₊ − P₋ on coordinate vectors (…, dim): the splitting signs."""
    return cfg.signs(alg) * X


def r_adjoint_block(alg: AlgebraSpec, X: np.ndarray,
                    cfg: RMatrixConfig = _DEFAULT) -> np.ndarray:
    """R*, the ⟨·,·⟩-adjoint of R, on coordinate vectors (…, dim): G⁻¹·diag(signs)·G."""
    return _matvec(alg.gram_inv, cfg.signs(alg) * _matvec(alg.gram, X))


def rr_block(alg: AlgebraSpec, P: np.ndarray, cfg: RMatrixConfig = _DEFAULT) -> np.ndarray:
    """ℛ(x, y) = (R(x−y) + cy, R(x−y) + cx) on pair blocks (…, 2, dim); R itself
    on blocks (…, 1, dim) of 𝔤, so one formula serves the brackets of both."""
    if P.shape[-2] == 1:
        return r_block(alg, P, cfg)
    d = r_block(alg, P[..., 0, :] - P[..., 1, :], cfg)
    return d[..., None, :] + cfg.c * P[..., ::-1, :]


def rr_adjoint_block(alg: AlgebraSpec, P: np.ndarray,
                     cfg: RMatrixConfig = _DEFAULT) -> np.ndarray:
    """ℛ*(u, v) = (R*(u−v) − cv, R*(u−v) − cu), the ⟨·,·⟩₂-adjoint of ℛ, on
    (…, 2, dim); R* itself on blocks (…, 1, dim) of 𝔤."""
    if P.shape[-2] == 1:
        return r_adjoint_block(alg, P, cfg)
    d = r_adjoint_block(alg, P[..., 0, :] - P[..., 1, :], cfg)
    return d[..., None, :] - cfg.c * P[..., ::-1, :]


def _operator(alg: AlgebraSpec, R: ROperator, cfg: RMatrixConfig):
    """The block action of a user matrix R, else of ℛ (R on blocks of 𝔤)."""
    if R is not None:
        A = np.asarray(R, dtype=float)
        return lambda B: _matvec(A, B)
    return lambda B: rr_block(alg, B, cfg)


def r_apply(x: Element, cfg: RMatrixConfig = _DEFAULT) -> Element:
    """Splitting R-matrix: the difference of projections P₊ − P₋."""
    return Element(x.alg, r_block(x.alg, x.coords, cfg))


def rr_apply(p: PairPoint, cfg: RMatrixConfig = _DEFAULT) -> PairPoint:
    """ℛ(x, y) = (R(x−y) + cy, R(x−y) + cx)."""
    return block_point(p.alg, rr_block(p.alg, point_block(p), cfg))


def r_adjoint(x: Element, cfg: RMatrixConfig = _DEFAULT) -> Element:
    """R*, the ⟨·,·⟩-adjoint of R: G⁻¹·diag(signs)·G·x."""
    return Element(x.alg, r_adjoint_block(x.alg, x.coords, cfg))


def rr_adjoint(p: PairPoint, cfg: RMatrixConfig = _DEFAULT) -> PairPoint:
    """ℛ*(u, v) = (R*(u−v) − cv, R*(u−v) − cu), the ⟨·,·⟩₂-adjoint of ℛ."""
    return block_point(p.alg, rr_adjoint_block(p.alg, point_block(p), cfg))


def pair_bracket(p: PairPoint, q: PairPoint) -> PairPoint:
    """Componentwise Lie bracket [(x,y),(z,s)] = ([x,z],[y,s])."""
    return block_point(p.alg, bracket_blocks(p.alg, point_block(p), point_block(q)))


def form2(p: PairPoint, q: PairPoint) -> float:
    """The pairing ⟨(x₁,y₁),(x₂,y₂)⟩₂ = ⟨x₁,x₂⟩ − ⟨y₁,y₂⟩."""
    return form(p.x, q.x) - form(p.y, q.y)


def decompose_pair(p: PairPoint, cfg: RMatrixConfig = _DEFAULT) -> tuple[PairPoint, PairPoint]:
    """Split p into its diagonal plus-part and its 𝔤₋×𝔤₊ minus-part."""
    xp = project(p.x, cfg.plus_region)
    xm = project(p.x, cfg.minus_region)
    yp = project(p.y, cfg.plus_region)
    ym = project(p.y, cfg.minus_region)
    diag = xp + ym
    return PairPoint(diag, diag), PairPoint(xm - ym, yp - xp)


def r_bracket(x: Point, y: Point, R: ROperator = None,
              cfg: RMatrixConfig = _DEFAULT) -> Point:
    """The R-bracket ½([Rx, y] + [x, Ry]); the ℛ-bracket when x, y are pairs."""
    alg, op, X, Y = x.alg, _operator(x.alg, R, cfg), point_block(x), point_block(y)
    return block_point(alg, 0.5 * (bracket_blocks(alg, op(X), Y) + bracket_blocks(alg, X, op(Y))))


def b_tensor_block(alg: AlgebraSpec, X: np.ndarray, Y: np.ndarray, R: ROperator = None,
                   cfg: RMatrixConfig = _DEFAULT) -> np.ndarray:
    """B(X, Y) = [𝒪X, 𝒪Y] − 𝒪([𝒪X, Y] + [X, 𝒪Y]) on blocks (…, k, dim).

    𝒪 is the user matrix R when given, else ℛ on pair blocks (k = 2) and the
    splitting R on blocks of 𝔤 (k = 1).
    """
    op = _operator(alg, R, cfg)
    RX, RY = op(X), op(Y)
    return bracket_blocks(alg, RX, RY) - op(
        bracket_blocks(alg, RX, Y) + bracket_blocks(alg, X, RY))


# --------------------------------------------------------------------------
# sampling + the mCYBE checker
# --------------------------------------------------------------------------


def random_element(alg: AlgebraSpec, rng: np.random.Generator) -> Element:
    return Element(alg, rng.uniform(-1.0, 1.0, alg.dim))


def random_pair(alg: AlgebraSpec, rng: np.random.Generator) -> PairPoint:
    return PairPoint(random_element(alg, rng), random_element(alg, rng))


def check_mcybe(alg: AlgebraSpec, R: ROperator = None, c: float = 1.0,
                samples: int = 200, seed: int = 42, pair: bool = False,
                tol: float = 1e-11):
    """Max residual of B(x,y) + c²[x,y] (mod center) over seeded samples.

    Returns a CheckReport; `pair=True` runs the 𝔤×𝔤 version with the induced
    ℛ of the configured splitting.  The samples are drawn as one stack, in
    the order of `random_element`/`random_pair` calls x, y per sample, and
    the residual is evaluated on the whole stack.
    """
    from .reports import CheckReport

    if samples < 1:
        raise ValueError(f"check_mcybe needs samples ≥ 1, got {samples}")
    cfg = RMatrixConfig(c=c)
    rng = np.random.default_rng(seed)
    k = 2 if pair else 1
    XY = rng.uniform(-1.0, 1.0, (samples, 2, k, alg.dim))
    X, Y = XY[:, 0], XY[:, 1]
    res = b_tensor_block(alg, X, Y, None if pair else R, cfg) + c * c * bracket_blocks(alg, X, Y)
    # residuals are only required to lie in the centre
    Z = alg.strip_centre(res)
    norms = np.sqrt(np.vecdot(Z, Z))            # (samples, k) Euclidean norms
    # a NaN residual is passed over, as a running max(worst, r) from 0 does
    worst = float(np.fmax.reduce(norms, axis=None, initial=0.0))
    return CheckReport(
        check="mcybe-pair" if pair else "mcybe",
        anchor="mcybe-splitting-exact" if R is None else "mcybe-user-operator",
        algebra=alg.name,
        params={"samples": samples, "seed": seed, "c": c, "tol": tol},
        measured=worst,
        expected=f"< {tol:g}",
        verdict=worst < tol,
    )
