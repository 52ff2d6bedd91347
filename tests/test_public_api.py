"""Every name a toda2 module exports in `__all__` resolves, and has a caller
outside the tests; every public method has a caller, and every default a
caller in src or the benchmark that sets it; no tolerance is a parameter or
an option; every name the benchmark reads off the package resolves."""

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
# a script is an example, as a test is: it calls exports, but the value it
# sets for a default does not make that default an option
SETTER_DIRS = ("src/toda2", "perfbench")

@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _caller_trees(folders=CALLER_DIRS):
    for folder in folders:
        for path in sorted((ROOT / folder).glob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"))


def _chain_root(node: ast.Attribute) -> ast.AST:
    """The node an attribute chain a.b.c… starts at."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _references(tree: ast.AST) -> set:
    """Names read by a Name or Attribute node, outside the definition of that
    name.  An attribute read off an imported module (np.linalg.norm,
    math.inf) names that module's function, never a toda2 method."""
    found = set()
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            root = _chain_root(node)
            if not (isinstance(root, ast.Name) and root.id in modules):
                found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def _used_names() -> set:
    """Every name read in src/toda2, scripts and perfbench."""
    return set().union(*(_references(tree) for tree in _caller_trees()))


def test_every_export_has_a_caller_outside_the_tests():
    # a name only tests call is a duplicate of the stacked form it wraps, or
    # an oracle that belongs in tests/pointwise.py
    used = _used_names()
    uncalled = [f"{m.__name__}.{n}" for m in EXPORTING for n in m.__all__ if n not in used]
    assert uncalled == []


def test_no_module_imports_a_private_name_from_another():
    # a `_` name is its module's own: a second module that needs it needs a
    # public name, or the thing the private one computes
    imported = []
    for path in sorted((ROOT / "src/toda2").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "toda2"
                                                     or node.module.startswith("toda2.")):
                imported += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                             if alias.name.startswith("_")]
    assert imported == []


def test_only_reports_builds_a_check_report_by_hand():
    # every other module goes through a CheckReport constructor (below, equal,
    # not_applicable), so that each verdict rule is written once, in reports.py
    built = []
    for path in sorted((ROOT / "src/toda2").glob("*.py")):
        if path.name == "reports.py":
            continue
        built += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "CheckReport"]
    assert built == []


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
    """Every call in src/toda2 and perfbench, by callee name, with the
    function it sits in, and the name callers reach each function by."""

    def __init__(self):
        self.calls = {}          # callee key -> [(Call, enclosing function or None)]
        self.key_of = {}         # function node -> callee key
        for tree in _caller_trees(SETTER_DIRS):
            self._visit(tree, None)

    def _visit(self, node, scope):
        # a table of functions: TABLE = {"key": lambda …: …, …}
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Dict):
            for v in node.value.values:
                if isinstance(v, FUNCTION_NODES):
                    self.key_of[v] = f"{node.targets[0].id}[]"
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

    @staticmethod
    def _values(call, param, index):
        """The expressions a call passes for `param` (at positional `index`);
        a value unpacked from **kwargs is not read, so it sets nothing."""
        values = [kw.value for kw in call.keywords if kw.arg == param]
        if index is not None and index < len(call.args) \
                and not any(isinstance(a, ast.Starred) for a in call.args[:index + 1]):
            values.append(call.args[index])
        return values

    def is_set(self, key, param, index, seen=frozenset()):
        """True when some call to `key` passes `param` a value that is not a
        parameter of the caller's own, or passes that parameter on and some
        call sets it in turn."""
        if (key, param) in seen:
            return False
        seen = seen | {(key, param)}
        for call, scope in self.calls.get(key, ()):
            for value in self._values(call, param, index):
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
                if method and fn.name not in used]
    assert uncalled == []


def test_every_default_is_set_by_a_caller_outside_the_tests():
    # a default that no caller in src or the benchmark overrides is a knob:
    # the value belongs in the body, said once, not in the signature
    graph = _CallGraph()
    unset = []
    for name, fn, _ in _public_definitions():
        unset += [f"{name}({p}=…)" for p in _defaulted(fn)
                  if not graph.is_set(fn.name, p, _positional_index(fn, p))]
    assert unset == []


def test_no_tolerance_is_a_parameter_or_an_option():
    # each tolerance is written once, at its check: only CheckReport.below
    # (reports.py) takes one, and no command line sets one
    takes = []
    for path in sorted((ROOT / "src/toda2").glob("*.py")):
        if path.name == "reports.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, FUNCTION_NODES):
                a = node.args
                names = _param_names(node) + [p.arg for p in (a.vararg, a.kwarg) if p]
                if "tol" in names:
                    takes.append(f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}")
    cli = ast.parse((ROOT / "src/toda2/cli.py").read_text(encoding="utf-8"))
    options = [node.lineno for node in ast.walk(cli)
               if isinstance(node, ast.Call) and _callee_key(node.func) == "add_argument"
               and any(isinstance(v, ast.Constant) and str(v.value).lstrip("-") == "tol"
                       for v in node.args + [kw.value for kw in node.keywords])]
    assert takes == [] and options == []


# --------------------------------------------------------------------------
# the names perfbench reads off the package
# --------------------------------------------------------------------------


def _chains(tree: ast.AST, root: str) -> set:
    """Every dotted attribute chain `root.a.b…` read in tree, outermost first."""
    found = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == root:
            found.add(".".join(reversed(parts)))
    return found


def test_every_name_perfbench_reads_off_the_package_resolves():
    # perfbench takes the package as `tk`; its smoke run is slow, so this
    # static check stands guard for it in the fast suite
    chains = set().union(*(_chains(ast.parse(path.read_text(encoding="utf-8")), "tk")
                           for path in sorted((ROOT / "perfbench").glob("*.py"))))
    assert "cli.build_parser" in chains

    def resolves(chain):
        obj = toda2
        for attr in chain.split("."):
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True

    assert sorted(c for c in chains if not resolves(c)) == []
