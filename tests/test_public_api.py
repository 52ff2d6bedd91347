"""Every name a toda2 module exports in `__all__` resolves, and has a caller;
every public method has a caller, and every default a caller that sets it."""

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

# independent formulas the tests hold the stacked forms against: ℛ from the
# ±-decomposition, the rescaled form, the product with its non-associative
# guard, the pairing on 𝔤×𝔤 and ψ₁ (finite differences live in
# tests/pointwise.py)
TEST_ORACLES = (
    "decompose_pair", "project", "with_rescaled_basis", "mult", "form2", "psi1",
)


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _caller_trees():
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).glob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"))


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


def _used_names() -> set:
    """Every name read in src/toda2, scripts and perfbench."""
    return set().union(*(_references(tree) for tree in _caller_trees()))


def test_every_export_has_a_caller_outside_the_tests():
    # a name only tests call is a duplicate of the stacked form it wraps,
    # unless it is one of the test oracles
    used = _used_names()
    uncalled = [f"{m.__name__}.{n}" for m in EXPORTING for n in m.__all__
                if n not in used and n not in TEST_ORACLES]
    assert uncalled == []


# --------------------------------------------------------------------------
# every public method has a caller, and every default is set by one
# --------------------------------------------------------------------------

FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _public_definitions():
    """(qualified name, FunctionDef, is a method) of every public function of
    a module, the names in its `__all__` where it has one, and every public
    method of a public class."""
    for module in MODULES[1:]:
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        exported = getattr(module, "__all__", None)
        for node in tree.body:
            name = getattr(node, "name", "_")
            if not (name in exported if exported is not None else not name.startswith("_")):
                continue
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module.__name__}.{node.name}.{item.name}", item, True
            elif isinstance(node, ast.FunctionDef):
                yield f"{module.__name__}.{node.name}", node, False


def _param_names(fn) -> list:
    a = fn.args
    return [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]


def _positional_index(fn, param):
    """Where a call puts `param` among its positional arguments; a method
    called as obj.f(…) gets self from obj.  None for keyword-only."""
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args]
    if param not in names:
        return None
    return names.index(param) - (names[:1] in (["self"], ["cls"]))


def _defaulted(fn) -> list:
    """Names of the parameters of fn that have a default."""
    a = fn.args
    positional = a.posonlyargs + a.args
    named = positional[len(positional) - len(a.defaults):] if a.defaults else []
    named += [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return [p.arg for p in named]


def _callee_key(func):
    """The name a call reaches its callee by: f(…), obj.f(…), or TABLE[k](…)
    for a function stored in the dict literal bound to TABLE."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
        return f"{func.value.id}[]"
    return None


class _CallGraph:
    """Every call in src/toda2, scripts and perfbench, by callee name, with
    the function it sits in, and the name callers reach each function by."""

    def __init__(self):
        self.calls = {}          # callee key -> [(Call, enclosing function or None)]
        self.key_of = {}         # function node -> callee key
        self.dicts = {}          # function node -> {local name: [Dict literal]}
        for tree in _caller_trees():
            self._visit(tree, None)

    def _visit(self, node, scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name, value = node.targets[0].id, node.value
            # a table of functions: TABLE = {"key": lambda …: …, …}
            if isinstance(value, ast.Dict):
                for v in value.values:
                    if isinstance(v, FUNCTION_NODES):
                        self.key_of[v] = f"{name}[]"
            # a keyword dict a call may unpack: kw = {…} or {…} if … else {…}
            literals = [value.body, value.orelse] if isinstance(value, ast.IfExp) else [value]
            if scope is not None and all(isinstance(v, ast.Dict) for v in literals):
                self.dicts.setdefault(scope, {}).setdefault(name, []).extend(literals)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.key_of[node] = node.name
        if isinstance(node, FUNCTION_NODES):
            scope = node
        if isinstance(node, ast.Call):
            key = _callee_key(node.func)
            if key is not None:
                self.calls.setdefault(key, []).append((node, scope))
        for child in ast.iter_child_nodes(node):
            self._visit(child, scope)

    def _values(self, call, scope, param, index):
        """The expressions a call passes for `param` (at positional `index`),
        and whether it forwards its scope's **kwargs, which may hold it."""
        values, forwards = [], False
        if index is not None and index < len(call.args) \
                and not any(isinstance(a, ast.Starred) for a in call.args[:index + 1]):
            values.append(call.args[index])
        for kw in call.keywords:
            if kw.arg == param:
                values.append(kw.value)
            elif kw.arg is None:
                literals = [kw.value] if isinstance(kw.value, ast.Dict) else []
                if isinstance(kw.value, ast.Name):
                    literals = self.dicts.get(scope, {}).get(kw.value.id, [])
                    kwarg = scope.args.kwarg if scope is not None else None
                    forwards |= kwarg is not None and kwarg.arg == kw.value.id
                for d in literals:
                    values += [v for k, v in zip(d.keys, d.values)
                               if isinstance(k, ast.Constant) and k.value == param]
        return values, forwards

    def is_set(self, key, param, index, seen=frozenset()):
        """True when some call to `key` passes `param` a value that is not a
        parameter of the caller's own, or passes that parameter on and some
        call sets it in turn."""
        if (key, param) in seen:
            return False
        seen = seen | {(key, param)}
        for call, scope in self.calls.get(key, ()):
            values, forwards = self._values(call, scope, param, index)
            if forwards and self.is_set(self.key_of.get(scope), param, None, seen):
                return True
            for value in values:
                own = _param_names(scope) if scope is not None else []
                if not (isinstance(value, ast.Name) and value.id in own):
                    return True          # a real setter
                outer = self.key_of.get(scope)
                if outer is not None and self.is_set(
                        outer, value.id, _positional_index(scope, value.id), seen):
                    return True
        return False


def test_every_public_method_has_a_caller_outside_the_tests():
    used = _used_names()
    uncalled = [name for name, fn, method in _public_definitions()
                if method and fn.name not in used and fn.name not in TEST_ORACLES]
    assert uncalled == []


def test_every_default_is_set_by_a_caller_outside_the_tests():
    # a default no caller overrides is a knob: the value belongs in the
    # body, said once, not in the signature
    graph = _CallGraph()
    unset = []
    for name, fn, _ in _public_definitions():
        if fn.name not in TEST_ORACLES:
            unset += [f"{name}({p}=…)" for p in _defaulted(fn)
                      if not graph.is_set(fn.name, p, _positional_index(fn, p))]
    assert unset == []
