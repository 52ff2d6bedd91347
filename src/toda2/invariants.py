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
residuals sit at machine precision.  Values and gradients are evaluated on
(N, 2·dim) state stacks (`family_values`, `family_gradient_stack`), the
generators P_i and their gradients on coordinate rows of 𝔤 (`trace_values`,
`trace_gradients`, `pullback_gradients`).

Conventions that make the family uniform across sl and gl: on sl(n) the
labels are the exponents 1..n−1; on gl(n) they are 0..n−1 (so F_{0,0} = Tr(y)
and F_{1,0} = Tr(x) join the family).  Function names follow "F_{j}_{i}".
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, numerical_rank
from .poisson import PreconditionError, ScalarFunction
from .rmatrix import PairPoint

__all__ = [
    "RaisData",
    "trace_values",
    "trace_gradients",
    "pullback_gradients",
    "require_generator_label",
    "family",
    "family_values",
    "family_gradient_stack",
    "family_labels",
    "family_names",
    "rais_vectors",
]


# --------------------------------------------------------------------------
# the pencil recurrence: one pass gives every member's value and gradient
# --------------------------------------------------------------------------


def _pencil_powers(alg: AlgebraSpec, states: np.ndarray, top: int):
    """λ-coefficients of (λX − Y)^k, k = 0..top, at every row of `states`.

    `states` is an (N, 2·dim) stack of vec(PairPoint) rows.  Yields (k, W),
    W the list of k+1 (N, n, n) coefficient stacks of λ⁰…λ^k, built by the
    recurrence W⁽ᵏ⁺¹⁾_c = W⁽ᵏ⁾_{c−1}X − W⁽ᵏ⁾_cY, two powers alive at a time;
    every product is a per-state matmul, so a row's values do not depend on
    the rest of the stack.
    """
    V = alg.to_matrices(states)
    X, mY = V[:, 0], -V[:, 1]
    W = [np.broadcast_to(np.eye(X.shape[-1]), X.shape)]
    yield 0, W
    for k in range(1, top + 1):
        inner = [W[c - 1] @ X + W[c] @ mY for c in range(1, len(W))]
        W = [W[0] @ mY] + inner + [W[-1] @ X]
        yield k, W


def family_values(alg: AlgebraSpec, states: np.ndarray) -> np.ndarray:
    """F_{j,i} at every row of an (N, 2·dim) state stack, shape (N, card).

    Columns follow `family_labels`: F_{j,i} = (−1)^{m_i+1−j} Tr(W_j)/(m_i+1)
    with W = (λx − y)^{m_i+1}.
    """
    traces = {k: [np.trace(w, axis1=1, axis2=2) for w in W]
              for k, W in _pencil_powers(alg, states, max(alg.exponents) + 1)
              if k - 1 in alg.exponents}
    cols = [
        (-1.0) ** (i + 1 - j) * traces[i + 1][j] / (i + 1)
        for (j, i) in family_labels(alg)
    ]
    return np.stack(cols, axis=1)


def family_gradient_stack(alg: AlgebraSpec, states: np.ndarray) -> np.ndarray:
    """∇F_{j,i} at every row of an (N, 2·dim) state stack, as rows vec(∇F_{j,i})
    in `family_labels` order: shape (N, card, 2·dim).

    ∇F_{j,i} = (−1)^{m_i+1−j}(ĝ(V_{j−1}), ĝ(V_j)) with V = (λx − y)^{m_i} and
    V_{−1} = V_{m_i+1} = 0, ĝ read from the cached `trace_projector`.
    """
    blocks = {}
    for i, W in _pencil_powers(alg, states, max(alg.exponents)):
        if i in alg.exponents:  # ĝ of V_{−1}, V_0, …, V_{m_i+1}: i + 3 matrices per state
            zero = np.zeros_like(W[0])
            g = alg.gradient_from_matrix(np.stack([zero, *W, zero], axis=1))
            sgn = (-1.0) ** (i + 1 - np.arange(i + 2))
            blocks[i] = sgn[:, None] * np.concatenate([g[:, :-1], g[:, 1:]], axis=2)
    return np.concatenate([blocks[i] for i in alg.exponents], axis=1)


# --------------------------------------------------------------------------
# generators and views of the family
# --------------------------------------------------------------------------


def trace_values(alg: AlgebraSpec, X: np.ndarray, i: int) -> np.ndarray:
    """P_i(x) = Tr(x^{i+1})/(i+1) at every coordinate row of X (…, dim)."""
    P = np.linalg.matrix_power(alg.to_matrices(X), i + 1)
    return np.trace(P, axis1=-2, axis2=-1)[..., 0] / (i + 1)


def trace_gradients(alg: AlgebraSpec, X: np.ndarray, i: int) -> np.ndarray:
    """∇P_i(x) = ĝ(x^i) at every coordinate row of X (…, dim), shape (…, dim)."""
    P = np.linalg.matrix_power(alg.to_matrices(X), i)
    return alg.gradient_from_matrix(P)[..., 0, :]


def require_generator_label(alg: AlgebraSpec, i: int) -> None:
    """A generator label is one of the exponents m_i of the algebra."""
    if i not in alg.exponents:
        raise PreconditionError(
            f"{i} is not a generator label of {alg.name} (exponents {alg.exponents})"
        )


def pullback_gradients(alg: AlgebraSpec, i: int, lam: float, M: np.ndarray) -> np.ndarray:
    """∇(P_i∘ψ_λ) = (λ∇P_i(w), ∇P_i(w)), w = λx − y, on pair blocks M (…, 2, dim)."""
    g = trace_gradients(alg, lam * M[..., 0, :] - M[..., 1, :], i)
    return np.stack([g * lam, g], axis=-2)


def family_labels(alg: AlgebraSpec) -> list[tuple[int, int]]:
    """(j, i) index pairs of the family, in generator-major order."""
    return [(j, i) for i in alg.exponents for j in range(i + 2)]


def family_names(alg: AlgebraSpec) -> list[str]:
    """The names F_{j}_{i} of the family members, in `family_labels` order."""
    return [f"F_{j}_{i}" for (j, i) in family_labels(alg)]


def family(alg: AlgebraSpec) -> list[ScalarFunction]:
    """The full conserved family as ScalarFunctions named F_{j}_{i}.

    Member k reads column k of `family_values` and row k of
    `family_gradient_stack` on the one-row stack of its point, so it agrees
    bit for bit with a batch evaluation.
    """
    return [
        ScalarFunction(
            name,
            lambda m, k=k: family_values(m.alg, m.vec()[None])[0, k],
            lambda m, k=k: PairPoint.from_vec(
                m.alg, family_gradient_stack(m.alg, m.vec()[None])[0, k]),
        )
        for k, name in enumerate(family_names(alg))
    ]


# --------------------------------------------------------------------------
# Raïs vectors
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RaisData:
    """The vectors V_{k,i} = k!·∂_x F_{k+1,i}(e, h), their rank and degrees."""

    vectors: tuple[tuple[int, int, np.ndarray], ...]   # (k, i, coordinate row of V_{k,i})
    rank: int
    degree_profile: tuple[int, ...]
    max_negative_component: float

    @property
    def count(self) -> int:
        return len(self.vectors)


def rais_vectors(alg: AlgebraSpec) -> RaisData:
    grads = family_gradient_stack(alg, np.concatenate([alg.e_coords, alg.h_coords])[None])[0]
    vectors = tuple((j - 1, i, g[: alg.dim] * float(math.factorial(j - 1)))
                    for (j, i), g in zip(family_labels(alg), grads) if j >= 1)
    stack = np.stack([v for (_, _, v) in vectors])
    degrees = alg.degrees
    present = np.unique(degrees[(np.abs(stack) > 1e-12).any(axis=0)])
    negative = np.abs(stack[:, degrees < 0])
    return RaisData(
        vectors=vectors,
        rank=numerical_rank(stack),
        degree_profile=tuple(int(d) for d in present),
        max_negative_component=float(negative.max()) if negative.size else 0.0,
    )

