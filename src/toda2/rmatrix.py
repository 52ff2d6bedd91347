"""The product algebra 𝔤×𝔤, the splitting R on 𝔤, and the induced ℛ on 𝔤×𝔤.

R is the difference of projections P₊ − P₋ for the splitting 𝔤 = 𝔤_{≥0} ⊕ 𝔤_{<0}
(`algebra.PLUS`/`MINUS`); the pair operator is ℛ(x, y) = (R(x−y) + y, R(x−y) + x),
componentwise (x₊ − x₋ + 2y₋, y₋ − y₊ + 2x₊), i.e. plus-part minus minus-part
for the decomposition

    (x, y)₊ = (x₊ + y₋, x₊ + y₋)   (diagonal),
    (x, y)₋ = (x₋ − y₋, y₊ − x₊)   (in 𝔤₋ × 𝔤₊).

Each operator is written once, as a block action on coordinate arrays of
shape (…, k, dim) — k = 1 on 𝔤, k = 2 on 𝔤×𝔤 — broadcasting over the leading
axes; one point is a one-row block (`point_block`).  `form2` and
`decompose_pair` give the pairing and ℛ as Point-level formulas, independent
of the block actions.  The checker below measures the modified Yang–Baxter
residual B_R(x,y) + [x,y] and its pair analogue on the whole sample stack
at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .algebra import MINUS, PLUS, AlgebraError, AlgebraSpec, Element, bracket_blocks, form, project
from .reports import CheckReport, worst

__all__ = [
    "PairPoint",
    "Point",
    "point_block",
    "r_block",
    "rr_block",
    "r_adjoint_block",
    "rr_adjoint_block",
    "b_tensor_block",
    "r_bracket_blocks",
    "form_blocks",
    "block_norms",
    "form2",
    "decompose_pair",
    "check_mcybe",
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


# a point of 𝔤 (an Element, paired by ⟨·,·⟩) or of 𝔤×𝔤 (a PairPoint, by ⟨·,·⟩₂)
Point = Union[Element, PairPoint]

def point_block(p: Point) -> np.ndarray:
    """The coordinate block of a point: (1, dim) for an Element, (2, dim) for a pair."""
    return p.vec().reshape(-1, p.alg.dim)


def _matvec(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    # A applied to each coordinate vector of X (…, dim), one matrix-vector
    # product per vector: a stack gets the bits of the single products
    return (A @ X[..., None])[..., 0]


def form_blocks(alg: AlgebraSpec, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """⟨p, q⟩ on blocks (…, 1, dim) of 𝔤, ⟨p, q⟩₂ on pair blocks (…, 2, dim): one
    value per block.  Each ⟨x, y⟩ is (x·G)·y as in `form`, one vector product
    per block, so a stack gives the bits of `form`/`form2` one point at a time."""
    f = ((P[..., None, :] @ alg.gram) @ Q[..., :, None])[..., 0, 0]
    return f[..., 0] if f.shape[-1] == 1 else f[..., 0] - f[..., 1]


def block_norms(B: np.ndarray) -> np.ndarray:
    """`Element.norm` (Euclidean) on blocks (…, 1, dim), `PairPoint.norm` (max
    abs) on pair blocks (…, 2, dim), with the bits of the Point norms."""
    if B.shape[-2] == 1:
        return np.sqrt(np.vecdot(B[..., 0, :], B[..., 0, :]))
    return np.abs(B).max(axis=(-2, -1))


def r_block(alg: AlgebraSpec, X: np.ndarray) -> np.ndarray:
    """R = P₊ − P₋ on coordinate vectors (…, dim): the splitting signs."""
    return alg.splitting_signs * X


def r_adjoint_block(alg: AlgebraSpec, X: np.ndarray) -> np.ndarray:
    """R*, the ⟨·,·⟩-adjoint of R, on coordinate vectors (…, dim): G⁻¹·diag(signs)·G."""
    return _matvec(alg.gram_inv, alg.splitting_signs * _matvec(alg.gram, X))


def rr_block(alg: AlgebraSpec, P: np.ndarray) -> np.ndarray:
    """ℛ(x, y) = (R(x−y) + y, R(x−y) + x) on pair blocks (…, 2, dim); R itself
    on blocks (…, 1, dim) of 𝔤, so one formula serves the brackets of both."""
    if P.shape[-2] == 1:
        return r_block(alg, P)
    d = r_block(alg, P[..., 0, :] - P[..., 1, :])
    return d[..., None, :] + P[..., ::-1, :]


def rr_adjoint_block(alg: AlgebraSpec, P: np.ndarray) -> np.ndarray:
    """ℛ*(u, v) = (R*(u−v) − v, R*(u−v) − u), the ⟨·,·⟩₂-adjoint of ℛ, on
    (…, 2, dim); R* itself on blocks (…, 1, dim) of 𝔤."""
    if P.shape[-2] == 1:
        return r_adjoint_block(alg, P)
    d = r_adjoint_block(alg, P[..., 0, :] - P[..., 1, :])
    return d[..., None, :] - P[..., ::-1, :]


def form2(p: PairPoint, q: PairPoint) -> float:
    """The pairing ⟨(x₁,y₁),(x₂,y₂)⟩₂ = ⟨x₁,x₂⟩ − ⟨y₁,y₂⟩."""
    return form(p.x, q.x) - form(p.y, q.y)


def decompose_pair(p: PairPoint) -> tuple[PairPoint, PairPoint]:
    """Split p into its diagonal plus-part and its 𝔤₋×𝔤₊ minus-part."""
    xp, xm = project(p.x, PLUS), project(p.x, MINUS)
    yp, ym = project(p.y, PLUS), project(p.y, MINUS)
    diag = xp + ym
    return PairPoint(diag, diag), PairPoint(xm - ym, yp - xp)


def r_bracket_blocks(alg: AlgebraSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The R-bracket ½([RX, Y] + [X, RY]) on blocks (…, k, dim); ℛ on pair blocks."""
    return 0.5 * (bracket_blocks(alg, rr_block(alg, X), Y)
                  + bracket_blocks(alg, X, rr_block(alg, Y)))


def b_tensor_block(alg: AlgebraSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """B(X, Y) = [RX, RY] − R([RX, Y] + [X, RY]) on blocks (…, k, dim), with
    ℛ in place of R on pair blocks (k = 2)."""
    RX, RY = rr_block(alg, X), rr_block(alg, Y)
    return bracket_blocks(alg, RX, RY) - rr_block(
        alg, bracket_blocks(alg, RX, Y) + bracket_blocks(alg, X, RY))


# --------------------------------------------------------------------------
# sampling + the mCYBE checker
# --------------------------------------------------------------------------


def check_mcybe(alg: AlgebraSpec, samples: int = 200, seed: int = 42,
                pair: bool = False, tol: float = 1e-11):
    """Max residual of B(x,y) + [x,y] (mod center) over seeded samples: the
    modified classical Yang–Baxter equation with c = 1.

    Returns a CheckReport; `pair=True` runs the 𝔤×𝔤 version with ℛ.  The
    samples are drawn as one stack, x then y per sample, and the residual is
    evaluated on the whole stack.
    """
    if samples < 1:
        raise ValueError(f"check_mcybe needs samples ≥ 1, got {samples}")
    rng = np.random.default_rng(seed)
    k = 2 if pair else 1
    XY = rng.uniform(-1.0, 1.0, (samples, 2, k, alg.dim))
    X, Y = XY[:, 0], XY[:, 1]
    res = b_tensor_block(alg, X, Y) + bracket_blocks(alg, X, Y)
    # residuals are only required to lie in the centre
    Z = alg.strip_centre(res)
    norms = np.sqrt(np.vecdot(Z, Z))            # (samples, k) Euclidean norms
    return CheckReport.below(
        "mcybe-pair" if pair else "mcybe",
        "mcybe-splitting-exact", alg.name, worst(norms), tol,
        {"samples": samples, "seed": seed, "c": 1.0},
    )
