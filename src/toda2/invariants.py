"""The conserved family F_{j,i} from trace invariants of the pencil λx − y.

For each generator label i (= exponent m_i, so the generator is
P_i(u) = Tr(u^{m_i+1})/(m_i+1)) the expansion

    P_i(λx − y) = Σ_{j=0}^{m_i+1} (−1)^{m_i+1−j} λ^j F_{j,i}(x, y)

defines the family members; their ⟨·,·⟩₂-gradients come from reading
λ-coefficients of the matrix polynomial (λx − y)^{m_i}:

    ∇F_{j,i}(x, y) = (−1)^{m_i+1−j}(ĝ(W_{j−1}), ĝ(W_j)),   W = (λx−y)^{m_i},

with W_{−1} = W_{m_i+1} = 0 and ĝ the trace-form projection onto 𝔤 (for gl
this is the matrix itself, for sl the traceless part).  Everything is exact
polynomial-matrix arithmetic — no λ sampling — so downstream involutivity
residuals sit at machine precision.

Conventions that make the family uniform across sl and gl: on sl(n) the
labels are the exponents 1..n−1; on gl(n) they are 0..n−1 (so F_{0,0} = Tr(y)
and F_{1,0} = Tr(x) join the family).  Function names follow "F_{j}_{i}".
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Element
from .poisson import (
    PhaseSpace,
    Point,
    PreconditionError,
    ScalarFunction,
    gradient2,
    numerical_rank,
)
from .rmatrix import PairPoint

__all__ = [
    "PencilExpansion",
    "RaisData",
    "trace_invariant",
    "expand_pencil",
    "require_generator_label",
    "pencil_pullback",
    "family",
    "family_values",
    "family_gradients",
    "family_labels",
    "rais_vectors",
    "independence_rank",
]


# --------------------------------------------------------------------------
# the pencil recurrence: one pass gives every member's value and gradient
# --------------------------------------------------------------------------


def _pencil_powers(alg: AlgebraSpec, states: np.ndarray, top: int) -> list:
    """λ-coefficients of (λX − Y)^k, k = 0..top, at every row of `states`.

    `states` is an (N, 2·dim) stack of vec(PairPoint) rows.  Entry k of the
    result is the list of k+1 (N, n, n) coefficient stacks of λ⁰…λ^k, built by
    the recurrence W⁽ᵏ⁺¹⁾_c = W⁽ᵏ⁾_{c−1}X − W⁽ᵏ⁾_cY; every product is a
    per-state matmul, so a row's values do not depend on the rest of the stack.
    """
    V = alg.to_matrices(states)
    X, mY = V[:, 0], -V[:, 1]
    W = [np.broadcast_to(np.eye(X.shape[-1]), X.shape)]
    powers = [W]
    for _ in range(top):
        inner = [W[c - 1] @ X + W[c] @ mY for c in range(1, len(W))]
        W = [W[0] @ mY] + inner + [W[-1] @ X]
        powers.append(W)
    return powers


def family_values(alg: AlgebraSpec, states: np.ndarray) -> np.ndarray:
    """F_{j,i} at every row of an (N, 2·dim) state stack, shape (N, card).

    Columns follow `family_labels`: F_{j,i} = (−1)^{m_i+1−j} Tr(W_j)/(m_i+1)
    with W = (λx − y)^{m_i+1}.
    """
    W = _pencil_powers(alg, states, max(alg.exponents) + 1)
    cols = [
        (-1.0) ** (i + 1 - j) * np.trace(W[i + 1][j], axis1=1, axis2=2) / (i + 1)
        for (j, i) in family_labels(alg)
    ]
    return np.stack(cols, axis=1)


def family_gradients(alg: AlgebraSpec, m: PairPoint) -> tuple[PairPoint, ...]:
    """∇F_{j,i}(m) for every member, in `family_labels` order.

    ∇F_{j,i} = (−1)^{m_i+1−j}(ĝ(V_{j−1}), ĝ(V_j)) with V = (λx − y)^{m_i} and
    V_{−1} = V_{m_i+1} = 0, ĝ read from the cached `trace_projector`.
    """
    W = _pencil_powers(alg, m.vec()[None], max(alg.exponents))
    zero = np.zeros_like(W[0][0])
    out = []
    for i in alg.exponents:   # ĝ of V_{−1}, V_0, …, V_{m_i+1}: i + 3 matrices
        g = alg.gradient_from_matrix(np.concatenate([zero, *W[i], zero]))
        for j in range(i + 2):
            sgn = (-1.0) ** (i + 1 - j)
            out.append(PairPoint(Element(alg, sgn * g[j]), Element(alg, sgn * g[j + 1])))
    return tuple(out)


# --------------------------------------------------------------------------
# generators and views of the family
# --------------------------------------------------------------------------


def trace_invariant(alg: AlgebraSpec, i: int) -> ScalarFunction:
    """P_i(x) = Tr(x^{i+1})/(i+1) on 𝔤, with trace-form gradient ĝ(x^i).

    Returned as a ScalarFunction over single Elements (evaluator and gradient
    both take and return Elements).
    """
    if i < 0:
        raise ValueError(f"trace_invariant: generator label must be ≥ 0, got {i}")

    def evaluate(x: Element) -> float:
        return float(np.trace(np.linalg.matrix_power(x.matrix(), i + 1))) / (i + 1)

    def gradient(x: Element) -> Element:
        p = np.linalg.matrix_power(x.matrix(), i)
        return Element(alg, alg.gradient_from_matrix(p))

    return ScalarFunction(f"P_{i}", evaluate, gradient)


@dataclass(frozen=True)
class PencilExpansion:
    """Coefficients F_{j,i} and gradients ∇F_{j,i} of P_i(λx−y) at one point."""

    i: int                                # generator label (the exponent m_i)
    degree: int                           # m_i + 1
    coeffs: np.ndarray                    # length m_i + 2
    grad_coeffs: tuple[PairPoint, ...]    # length m_i + 2

    def pencil_value(self, lam: float) -> float:
        """Σ_j (−1)^{m_i+1−j} λ^j coeffs[j] — should equal P_i(λx − y)."""
        d = self.degree
        return float(
            sum((-1.0) ** (d - j) * lam**j * self.coeffs[j] for j in range(d + 1))
        )


def require_generator_label(alg: AlgebraSpec, i: int) -> None:
    """A generator label is one of the exponents m_i of the algebra."""
    if i not in alg.exponents:
        raise PreconditionError(
            f"{i} is not a generator label of {alg.name} (exponents {alg.exponents})"
        )


def expand_pencil(alg: AlgebraSpec, i: int, m: PairPoint) -> PencilExpansion:
    """The members F_{·,i} of one generator label i and their gradients at m."""
    require_generator_label(alg, i)
    k = family_labels(alg).index((0, i))
    members = slice(k, k + i + 2)
    return PencilExpansion(
        i=i,
        degree=i + 1,
        coeffs=family_values(alg, m.vec()[None])[0, members],
        grad_coeffs=family_gradients(alg, m)[members],
    )


def pencil_pullback(alg: AlgebraSpec, i: int, lam: float) -> ScalarFunction:
    """P_i∘ψ_λ as a pair function: m ↦ P_i(λx − y), gradient (λ∇P_i(w), ∇P_i(w)).

    λ = 1 gives the Casimir pullbacks of the linear bracket.
    """
    P = trace_invariant(alg, i)

    def evaluate(m: PairPoint) -> float:
        return P(lam * m.x - m.y)

    def gradient(m: PairPoint) -> PairPoint:
        g = P.gradient(lam * m.x - m.y)
        return PairPoint(lam * g, g)

    return ScalarFunction(f"P_{i}∘ψ_{lam:g}", evaluate, gradient)


def family_labels(alg: AlgebraSpec) -> list[tuple[int, int]]:
    """(j, i) index pairs of the family, in generator-major order."""
    return [(j, i) for i in alg.exponents for j in range(i + 2)]


def family(alg: AlgebraSpec) -> list[ScalarFunction]:
    """The full conserved family as ScalarFunctions named F_{j}_{i}.

    Member k reads column k of `family_values` and entry k of
    `family_gradients`, so it agrees bit for bit with a batch evaluation.
    """
    return [
        ScalarFunction(
            f"F_{j}_{i}",
            lambda m, k=k: family_values(m.alg, m.vec()[None])[0, k],
            lambda m, k=k: family_gradients(m.alg, m)[k],
        )
        for k, (j, i) in enumerate(family_labels(alg))
    ]


# --------------------------------------------------------------------------
# Raïs vectors and independence
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RaisData:
    """The vectors V_{k,i} = k!·∂_x F_{k+1,i}(e, h), their rank and degrees."""

    vectors: tuple[tuple[int, int, Element], ...]   # (k, i, V_{k,i})
    rank: int
    degree_profile: tuple[int, ...]
    max_negative_component: float

    @property
    def count(self) -> int:
        return len(self.vectors)


def rais_vectors(alg: AlgebraSpec) -> RaisData:
    grads = family_gradients(alg, PairPoint(alg.e, alg.h))
    vectors = [
        (j - 1, i, math.factorial(j - 1) * g.x)
        for (j, i), g in zip(family_labels(alg), grads)
        if j >= 1
    ]
    stack = np.stack([v.coords for (_, _, v) in vectors])
    rank = numerical_rank(stack)
    degrees = alg.degrees
    present = sorted(
        {int(d) for (_, _, v) in vectors for d in degrees[np.abs(v.coords) > 1e-12]}
    )
    neg = max(
        (float(np.abs(v.coords[degrees < 0]).max()) if np.any(degrees < 0) else 0.0)
        for (_, _, v) in vectors
    )
    return RaisData(
        vectors=tuple(vectors),
        rank=rank,
        degree_profile=tuple(present),
        max_negative_component=neg,
    )


def independence_rank(functions: list[ScalarFunction], ps: PhaseSpace,
                      points: list[Point]) -> int:
    """Max over points of the Jacobian rank of the functions restricted to ps."""
    if not points:
        raise ValueError("independence_rank needs at least one point")
    return max(ps.jacobian_rank([gradient2(F, m) for F in functions]) for m in points)
