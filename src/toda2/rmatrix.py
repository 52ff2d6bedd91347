"""The product algebra 𝔤×𝔤, the splitting R on 𝔤, and the induced ℛ on 𝔤×𝔤.

R is the difference of projections P₊ − P₋ for the splitting 𝔤 = 𝔤_{≥0} ⊕ 𝔤_{<0},
read off the degrees (`AlgebraSpec.splitting_signs`); the form pairs 𝔤_k only
with 𝔤_{−k}, so its adjoint is R* = P_{≤0} − P_{>0}.  The pair operator is
ℛ(x, y) = (R(x−y) + y, R(x−y) + x), componentwise (x₊ − x₋ + 2y₋, y₋ − y₊ + 2x₊),
i.e. plus-part minus minus-part for the decomposition

    (x, y)₊ = (x₊ + y₋, x₊ + y₋)   (diagonal),
    (x, y)₋ = (x₋ − y₋, y₊ − x₊)   (in 𝔤₋ × 𝔤₊).

Each operator is written once, as a block action on coordinate arrays of
shape (…, k, dim) — k = 1 on 𝔤, k = 2 on 𝔤×𝔤 — broadcasting over the leading
axes; one point is a one-row block.  `PairPoint` is the record (x, y) of one
point of 𝔤×𝔤 at the API edge, with no arithmetic: every computation reads its
coordinate row `vec()`.  The mCYBE tensor B(X, Y) (`b_tensor_block`) is the
one the mCYBE battery of `checks` measures, on 𝔤 and on 𝔤×𝔤.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraError, AlgebraSpec, Element, bracket_blocks

__all__ = [
    "PairPoint",
    "r_block",
    "rr_block",
    "r_adjoint_block",
    "rr_adjoint_block",
    "b_tensor_block",
    "r_bracket_blocks",
    "form_blocks",
    "block_norms",
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


def form_blocks(alg: AlgebraSpec, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """⟨p, q⟩ on blocks (…, 1, dim) of 𝔤, ⟨p, q⟩₂ on pair blocks (…, 2, dim): one
    value per block.  Each ⟨x, y⟩ is (x·G)·y, one vector product per block, so a
    stack gives the bits of its points one at a time."""
    f = ((P[..., None, :] @ alg.gram) @ Q[..., :, None])[..., 0, 0]
    return f[..., 0] if f.shape[-1] == 1 else f[..., 0] - f[..., 1]


def block_norms(B: np.ndarray) -> np.ndarray:
    """The Euclidean norm on blocks (…, 1, dim) of 𝔤, the max abs on pair
    blocks (…, 2, dim): the per-sample residuals that the Jacobi, Casimir,
    field and Toda checks hand to `CheckReport.below`.  Two norms, not one,
    so that those reports keep the values they have always measured."""
    if B.shape[-2] == 1:
        return np.sqrt(np.vecdot(B[..., 0, :], B[..., 0, :]))
    return np.abs(B).max(axis=(-2, -1))


def r_block(alg: AlgebraSpec, X: np.ndarray) -> np.ndarray:
    """R = P₊ − P₋ on coordinate vectors (…, dim): the splitting signs."""
    return alg.splitting_signs * X


def r_adjoint_block(alg: AlgebraSpec, X: np.ndarray) -> np.ndarray:
    """R* = P_{≤0} − P_{>0}, the ⟨·,·⟩-adjoint of R, on coordinate vectors (…, dim):
    the form pairs degree k with degree −k only."""
    return np.where(alg.degrees > 0, -X, X)


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


def r_bracket_blocks(alg: AlgebraSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The R-bracket ½([RX, Y] + [X, RY]) on blocks (…, k, dim); ℛ on pair blocks."""
    return 0.5 * (bracket_blocks(alg, rr_block(alg, X), Y)
                  + bracket_blocks(alg, X, rr_block(alg, Y)))


def b_tensor_block(alg: AlgebraSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """B(X, Y) = [RX, RY] − 2·R([X, Y]_R) on blocks (…, k, dim), [X, Y]_R the
    R-bracket, with ℛ in place of R on pair blocks (k = 2)."""
    return (bracket_blocks(alg, rr_block(alg, X), rr_block(alg, Y))
            - 2.0 * rr_block(alg, r_bracket_blocks(alg, X, Y)))
