"""Point-level views of toda2's block and stack forms, for the tests.

Each helper calls a block form on one point (a one-row block, `point_block`)
and returns a Point or a ScalarFunction, so that a test can state an identity
one point at a time or hand a function to `gradient2`.  A stack gives the
bits of its points one at a time, so these views carry the bits the stacked
batteries must reproduce.
"""

from toda2 import Element, PairPoint, ScalarFunction, form, form2, gradient2
from toda2.flows import field_rows
from toda2.invariants import pullback_gradients, trace_gradients, trace_values
from toda2.poisson import _block_field
from toda2.rmatrix import point_block


def pairing(p, q):
    """⟨p, q⟩ on 𝔤, ⟨p, q⟩₂ on 𝔤×𝔤."""
    return form(p, q) if isinstance(p, Element) else form2(p, q)


def field_at(which, m, g):
    """X(m) of bracket `which` for the gradient g at one point: the block field
    on one-point blocks, after its capability checks."""
    X = _block_field(which, m.alg, len(point_block(m)))(
        m.alg, point_block(m), point_block(g))
    return type(m).from_vec(m.alg, X.ravel())


def flow_at(field, m, i=0, lam=0.0):
    """The t-, s-, quadratic or linear pencil field at one point, on its
    coordinate row; "t" on a point of 𝔤 is the Toda field."""
    return type(m).from_vec(m.alg, field_rows(m.alg, field, m.vec(), i, lam))


def bracket_value(which, F, G, m):
    """{F, G}(m) = ⟨∇F, X_G(m)⟩, gradients from `gradient2` (analytic, else
    central differences)."""
    return pairing(gradient2(F, m), field_at(which, m, gradient2(G, m)))


def linear_function(p, name="linear"):
    """m ↦ ⟨p, m⟩ (⟨p, m⟩₂ on 𝔤×𝔤), whose gradient is the constant p."""
    return ScalarFunction(name, lambda m: pairing(p, m), lambda m: p)


def trace_function(alg, i):
    """P_i(x) = Tr(x^{i+1})/(i+1) on single Elements, gradient ĝ(x^i)."""
    return ScalarFunction(
        f"P_{i}",
        lambda x: float(trace_values(alg, x.coords, i)),
        lambda x: Element(alg, trace_gradients(alg, x.coords, i)),
    )


def pullback(alg, i, lam):
    """P_i∘ψ_λ as a pair function: m ↦ P_i(λx − y), gradient (λ∇P_i(w), ∇P_i(w))."""
    return ScalarFunction(
        f"P_{i}∘ψ_{lam:g}",
        lambda m: float(trace_values(alg, lam * m.x.coords - m.y.coords, i)),
        lambda m: PairPoint.from_vec(alg, pullback_gradients(alg, i, lam, point_block(m)).ravel()),
    )
