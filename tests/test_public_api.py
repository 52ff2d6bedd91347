"""Every name a toda2 module exports in `__all__` resolves, and has a caller."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import toda2

MODULES = [toda2] + [
    importlib.import_module(f"toda2.{info.name}")
    for info in pkgutil.iter_modules(toda2.__path__)
]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src/toda2", "scripts", "perfbench")

# independent formulas the tests hold the stacked forms against: finite
# differences, ℛ from the ±-decomposition, the rescaled form, the product
# with its non-associative guard, the pairing on 𝔤×𝔤 and ψ₁
TEST_ORACLES = (
    "gradient2", "_fd_partials", "decompose_pair", "project",
    "with_rescaled_basis", "mult", "form2", "psi1",
)


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _references(tree: ast.AST) -> set:
    """Names read by a Name or Attribute node, outside the definition of that name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_caller_outside_the_tests():
    # a name only tests call is a duplicate of the stacked form it wraps,
    # unless it is one of the test oracles
    used = set()
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).glob("*.py")):
            used |= _references(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = [f"{m.__name__}.{n}" for m in EXPORTING for n in m.__all__
                if n not in used and n not in TEST_ORACLES]
    assert uncalled == []
