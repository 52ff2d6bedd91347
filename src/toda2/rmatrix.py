"""The product algebra 𝔤×𝔤, the splitting R on 𝔤, and the induced ℛ on 𝔤×𝔤.

R is the difference of projections P₊ − P₋ for the splitting 𝔤 = 𝔤_{≥0} ⊕ 𝔤_{<0};
the pair operator is ℛ(x, y) = (R(x−y) + cy, R(x−y) + cx).  For c = 1 this is,
componentwise, (x₊ − x₋ + 2y₋, y₋ − y₊ + 2x₊), i.e. plus-part minus minus-part
for the decomposition

    (x, y)₊ = (x₊ + y₋, x₊ + y₋)   (diagonal),
    (x, y)₋ = (x₋ − y₋, y₊ − x₊)   (in 𝔤₋ × 𝔤₊).

The checkers below measure the modified Yang–Baxter residual
B_R(x,y) + c²[x,y] and its pair analogue.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .algebra import AlgebraError, AlgebraSpec, Element, bracket, form, project

__all__ = [
    "PairPoint",
    "RMatrixConfig",
    "r_apply",
    "rr_apply",
    "r_adjoint",
    "rr_adjoint",
    "pair_bracket",
    "form2",
    "decompose_pair",
    "b_tensor",
    "b_tensor_pair",
    "r_bracket",
    "rr_bracket",
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

# an R operator is the splitting (None) or a coordinate matrix
ROperator = Union[None, np.ndarray]


def _apply_R(R: ROperator, x: Element, cfg: RMatrixConfig) -> Element:
    if R is None:
        return r_apply(x, cfg)
    return Element(x.alg, np.asarray(R, dtype=float) @ x.coords)


def r_apply(x: Element, cfg: RMatrixConfig = _DEFAULT) -> Element:
    """Splitting R-matrix: the difference of projections P₊ − P₋."""
    return Element(x.alg, cfg.signs(x.alg) * x.coords)


def rr_apply(p: PairPoint, cfg: RMatrixConfig = _DEFAULT) -> PairPoint:
    """ℛ(x, y) = (R(x−y) + cy, R(x−y) + cx)."""
    d = r_apply(p.x - p.y, cfg)
    return PairPoint(d + cfg.c * p.y, d + cfg.c * p.x)


def r_adjoint(x: Element, cfg: RMatrixConfig = _DEFAULT) -> Element:
    """R*, the ⟨·,·⟩-adjoint of R: G⁻¹·diag(signs)·G·x."""
    alg = x.alg
    return Element(alg, alg.gram_inv @ (cfg.signs(alg) * (alg.gram @ x.coords)))


def rr_adjoint(p: PairPoint, cfg: RMatrixConfig = _DEFAULT) -> PairPoint:
    """ℛ*(u, v) = (R*(u−v) − cv, R*(u−v) − cu), the ⟨·,·⟩₂-adjoint of ℛ."""
    d = r_adjoint(p.x - p.y, cfg)
    return PairPoint(d - cfg.c * p.y, d - cfg.c * p.x)


def pair_bracket(p: PairPoint, q: PairPoint) -> PairPoint:
    """Componentwise Lie bracket [(x,y),(z,s)] = ([x,z],[y,s])."""
    return PairPoint(bracket(p.x, q.x), bracket(p.y, q.y))


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


def r_bracket(x: Element, y: Element, R: ROperator = None,
              cfg: RMatrixConfig = _DEFAULT) -> Element:
    """The R-bracket ½([Rx, y] + [x, Ry])."""
    return 0.5 * (bracket(_apply_R(R, x, cfg), y) + bracket(x, _apply_R(R, y, cfg)))


def rr_bracket(p: PairPoint, q: PairPoint, cfg: RMatrixConfig = _DEFAULT) -> PairPoint:
    """The ℛ-bracket on 𝔤×𝔤: ½([ℛp, q] + [p, ℛq])."""
    return 0.5 * (pair_bracket(rr_apply(p, cfg), q) + pair_bracket(p, rr_apply(q, cfg)))


def b_tensor(x: Element, y: Element, R: ROperator = None,
             cfg: RMatrixConfig = _DEFAULT) -> Element:
    """B_R(x, y) = [Rx, Ry] − R([Rx, y] + [x, Ry])."""
    Rx, Ry = _apply_R(R, x, cfg), _apply_R(R, y, cfg)
    return bracket(Rx, Ry) - _apply_R(R, bracket(Rx, y) + bracket(x, Ry), cfg)


def b_tensor_pair(p: PairPoint, q: PairPoint, cfg: RMatrixConfig = _DEFAULT) -> PairPoint:
    """The pair analogue of B_R for the induced operator ℛ."""
    Rp, Rq = rr_apply(p, cfg), rr_apply(q, cfg)
    return pair_bracket(Rp, Rq) - rr_apply(
        pair_bracket(Rp, q) + pair_bracket(p, Rq), cfg
    )


# --------------------------------------------------------------------------
# sampling + the mCYBE checker
# --------------------------------------------------------------------------


def random_element(alg: AlgebraSpec, rng: np.random.Generator) -> Element:
    return Element(alg, rng.uniform(-1.0, 1.0, alg.dim))


def random_pair(alg: AlgebraSpec, rng: np.random.Generator) -> PairPoint:
    return PairPoint(random_element(alg, rng), random_element(alg, rng))


def _center_projected(alg: AlgebraSpec, z: Element) -> Element:
    # residuals are only required to lie in the center; for gl(n) that is the
    # span of the identity, which we strip before measuring
    if not alg.associative:
        return z
    iden = alg.identity_coords
    t = float(z.coords @ alg.gram @ iden) / float(iden @ alg.gram @ iden)
    return Element(alg, z.coords - t * iden)


def check_mcybe(alg: AlgebraSpec, R: ROperator = None, c: float = 1.0,
                samples: int = 200, seed: int = 42, pair: bool = False,
                tol: float = 1e-11):
    """Max residual of B(x,y) + c²[x,y] (mod center) over seeded samples.

    Returns a CheckReport; `pair=True` runs the 𝔤×𝔤 version with the induced
    ℛ of the configured splitting.
    """
    from .reports import CheckReport

    if samples < 1:
        raise ValueError(f"check_mcybe needs samples ≥ 1, got {samples}")
    cfg = RMatrixConfig(c=c)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        if pair:
            p, q = random_pair(alg, rng), random_pair(alg, rng)
            res = b_tensor_pair(p, q, cfg) + c * c * pair_bracket(p, q)
            r = max(
                _center_projected(alg, res.x).norm(),
                _center_projected(alg, res.y).norm(),
            )
        else:
            x, y = random_element(alg, rng), random_element(alg, rng)
            res = b_tensor(x, y, R, cfg) + c * c * bracket(x, y)
            r = _center_projected(alg, res).norm()
        worst = max(worst, r)
    return CheckReport(
        check="mcybe-pair" if pair else "mcybe",
        anchor="mcybe-splitting-exact" if R is None else "mcybe-user-operator",
        algebra=alg.name,
        params={"samples": samples, "seed": seed, "c": c, "tol": tol},
        measured=worst,
        expected=f"< {tol:g}",
        verdict=worst < tol,
    )
