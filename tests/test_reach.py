"""Every definition of the package is reached from a command, a gate or a
workload, or is named below as an oracle; and the two walk engines reach none
of each other's code.

One reach graph over ``src/anyonwalk``, read from the sources with ``ast``.
Its definitions are the top-level functions and classes of each module and
their methods and properties.  A definition's edges are the names its code
loads:

* a name resolves through its module's globals and through ``from .x import
  y``, imports inside a function included;
* ``module.attr`` resolves to that module's ``attr``;
* any other ``x.attr`` resolves to every method or property of the package
  named ``attr``, except on an outside module (``np``, ``math``, ...);
* a class reaches its body and its dunders, not its other methods.

This over-approximates reach: a dead definition may be missed, but a live one
is never flagged, and the independence check may fail falsely but never pass
falsely.  The roots are all of ``cli.py``, the top-level code of every module,
and the code of ``SCRIPTS``, which is only read.
"""

import ast
import functools
from collections import defaultdict
from pathlib import Path

import anyonwalk
from test_benchmark_hooks import _load

_REPO = Path(__file__).resolve().parents[1]

#: root code outside the package: the acceptance gates and the benchmark's workloads
SCRIPTS = ("tests/test_acceptance.py", "perfbench/workloads.py", "perfbench/run.py")

#: definitions no root reaches that a test keeps as an oracle: definition ->
#: (the test, what it checks with it).  They are roots too, so their helpers are reached.
ORACLES = {
    "abelian.two_state_coefficients": (
        "test_abelian.py::test_product_coefficients_at_zero_phase",
        "at phi = 0 the four-state walk's long-time coefficients are the two-state walk's",
    ),
    "abelian._momentum_operators": (
        "test_abelian.py::test_batched_eigenphases_are_the_closed_form_pairs",
        "the closed-form eigenphase pairs are the eigenvalues of M_k",
    ),
    "tl.is_planar_matching": (
        "test_tl.py::test_compose_results_stay_planar_and_associative",
        "stacked diagrams stay planar matchings",
    ),
    "models.AnyonModel.fusion": (
        "test_fusion.py::test_dimension_saturates_at_catalan",
        "the fusion basis is the brute-force list of the paths the fusion tensor admits",
    ),
}

#: definitions kept only because perfbench/tracer.py patches them: no root reaches them
HOOKED = {"nonabelian.coin_trace", "tl.anyon_trace"}

_DENSE_ONLY = (
    "fusion",
    "nonabelian._evolve",
    "nonabelian._walk_plan",
    "nonabelian._WalkPlan",
    "nonabelian._dense_levels",
    "nonabelian._gather_index",
    "nonabelian._qubit_rep",
    "nonabelian._sizes",
    "nonabelian.distribution_dense",
)
_PATHSUM_ONLY = (
    "tl.skein_act",
    "tl._cycle_count",
    "tl._evolve",
    "nonabelian._pathsum_plan",
    "nonabelian.distribution_pathsum",
)
#: what each definition must not reach: a module, or a definition and its members
APART = {
    "nonabelian.distribution_pathsum": _DENSE_ONLY,
    "nonabelian.distribution_dense": _PATHSUM_ONLY,
    "nonabelian.closed_form_distribution": _DENSE_ONLY + _PATHSUM_ONLY,
}

_OUTSIDE = object()  # a name bound to an outside module or imported from one


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in (_REPO / "src" / "anyonwalk").glob("*.py")}


def script_sources() -> dict[str, str]:
    return {name: (_REPO / name).read_text() for name in SCRIPTS}


class ReachGraph:
    """The definitions of the modules in ``package`` ({module: source}) and the
    definitions each one names; ``scripts`` ({path: source}) is root code
    that imports the package as ``anyonwalk``."""

    def __init__(self, package: dict[str, str], scripts: dict[str, str]):
        trees = {module: ast.parse(source) for module, source in package.items()}
        self.modules = set(trees)
        self.globals: dict[str, set[str]] = defaultdict(set)  # module -> its top-level definitions
        self.imports = {scope: self._bindings(tree) for scope, tree in trees.items()}
        self.methods: dict[str, set[str]] = defaultdict(set)  # name -> the members so named
        code: dict[str, list[ast.AST]] = {}  # definition, module or script -> its code
        scope: dict[str, str] = {}  # the same keys -> the module its names resolve in
        dunders: dict[str, set[str]] = defaultdict(set)
        for module, tree in trees.items():
            code[module], scope[module] = [], module  # a module's top-level code
            for stmt in tree.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    code[module].append(stmt)
                    continue
                key = f"{module}.{stmt.name}"
                scope[key] = module
                self.globals[module].add(stmt.name)
                if not isinstance(stmt, ast.ClassDef):
                    code[key] = [stmt]
                    continue
                code[key] = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        member = f"{key}.{item.name}"
                        code[member], scope[member] = [item], module
                        self.methods[item.name].add(member)
                        if item.name.startswith("__") and item.name.endswith("__"):
                            dunders[key].add(member)
                    else:
                        code[key].append(item)
        for path, source in scripts.items():
            tree = ast.parse(source)
            self.imports[path] = self._bindings(tree)
            code[path], scope[path] = [tree], path
        self.definitions = set(code) - self.modules - set(scripts)
        self.tops = self.modules | set(scripts)
        self.edges = {key: self._names(scope[key], nodes) | dunders[key]
                      for key, nodes in code.items()}

    def _bindings(self, tree: ast.Module) -> dict[str, object]:
        """Each imported name: a package module's name, (module, name) for a
        name imported from one, or ``_OUTSIDE``."""
        out: dict[str, object] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head, _, rest = alias.name.partition(".")
                    if head != "anyonwalk":
                        out[alias.asname or head] = _OUTSIDE
                    else:
                        out[alias.asname or head] = (rest if alias.asname else "") or "__init__"
            elif isinstance(node, ast.ImportFrom):
                head, _, rest = (node.module or "").partition(".")
                if node.level:
                    module = node.module or "__init__"
                elif head == "anyonwalk":
                    module = rest or "__init__"
                else:
                    module = _OUTSIDE
                for alias in node.names:
                    name = alias.asname or alias.name
                    if module is _OUTSIDE:
                        out[name] = _OUTSIDE
                    elif module == "__init__" and alias.name in self.modules:
                        out[name] = alias.name
                    else:
                        out[name] = (module, alias.name)
        return out

    def _resolve(self, scope: str, name: str) -> str | None:
        """The definition ``name`` denotes in the globals of ``scope``, if any."""
        while name not in self.globals[scope]:
            target = self.imports[scope].get(name)
            if not isinstance(target, tuple):
                return None
            scope, name = target
        return f"{scope}.{name}"

    def _module(self, scope: str, expr: ast.expr):
        """The package module ``expr`` denotes, ``_OUTSIDE`` for an outside
        module or a name from one, else None."""
        if isinstance(expr, ast.Name):
            target = self.imports[scope].get(expr.id)
            return target if target is _OUTSIDE or isinstance(target, str) else None
        if isinstance(expr, ast.Attribute):
            base = self._module(scope, expr.value)
            if base is _OUTSIDE:
                return _OUTSIDE
            if base is not None and expr.attr in self.modules:
                return expr.attr
        return None

    def _names(self, scope: str, nodes: list[ast.AST]) -> set[str]:
        out: set[str] = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    out.add(self._resolve(scope, sub.id))
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    base = self._module(scope, sub.value)
                    if base is None:
                        out |= self.methods[sub.attr]
                    elif base is not _OUTSIDE:
                        out.add(self._resolve(base, sub.attr))
        out.discard(None)
        return out

    def roots(self) -> set[str]:
        """All of ``cli.py`` and all top-level code."""
        return {key for key in self.definitions if key.startswith("cli.")} | self.tops

    def reach(self, starts) -> set[str]:
        seen, todo = set(starts), list(starts)
        while todo:
            for key in self.edges[todo.pop()] - seen:
                seen.add(key)
                todo.append(key)
        return seen


def unlisted(graph: ReachGraph) -> list[str]:
    """Definitions that no root or oracle reaches and that neither table lists."""
    reached = graph.reach(graph.roots() | ORACLES.keys())
    return sorted(graph.definitions - reached - ORACLES.keys() - HOOKED)


def crossings(graph: ReachGraph) -> list[str]:
    """Each definition of ``APART`` that a start reaches, as "start reaches key"."""
    return [
        f"{start} reaches {key}"
        for start, banned in APART.items()
        for key in sorted(graph.reach({start}))
        if any(key == name or key.startswith(name + ".") for name in banned)
    ]


@functools.cache
def _graph() -> ReachGraph:
    return ReachGraph(package_sources(), script_sources())


def _qualified(fn) -> str:
    return f"{fn.__module__.removeprefix('anyonwalk.')}.{fn.__qualname__}"


def _names_in_test(test: str) -> set[str]:
    """The names and attributes a test function ("file.py::name") loads; empty
    if there is no such function."""
    file, _, name = test.partition("::")
    tree = ast.parse((_REPO / "tests" / file).read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            loaded = ast.walk(node)
            return {getattr(sub, "id", None) or getattr(sub, "attr", None) for sub in loaded}
    return set()


def test_every_definition_is_reached_or_listed():
    assert unlisted(_graph()) == []


def test_each_oracle_is_reached_only_through_its_test():
    graph = _graph()
    reached = graph.reach(graph.roots())
    wrong = []
    for name, (test, _) in ORACLES.items():
        if name not in graph.definitions or name in reached:
            wrong.append(f"{name} is not an unreached definition")
        if name.rsplit(".", 1)[1] not in _names_in_test(test):
            wrong.append(f"{test} does not use {name}")
    assert wrong == []


def test_hooked_definitions_are_the_patched_ones_no_root_reaches():
    graph = _graph()
    patches = _load("tracer").Tracer()._patches()
    patched = {_qualified(owner.__dict__[attr]) for owner, attr, _ in patches}
    assert patched <= graph.definitions
    assert patched - graph.reach(graph.roots()) == HOOKED


def test_the_engines_stay_independent():
    assert crossings(_graph()) == []


def test_the_independence_table_names_what_exists():
    # a deleted or renamed name would make its line of APART pass unread
    graph = _graph()
    named = set(APART).union(*APART.values())
    assert sorted(named - graph.definitions - graph.modules) == []


def test_the_package_exports_what_it_imports():
    tree = ast.parse(package_sources()["__init__"])
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert sorted(anyonwalk.__all__) == sorted(imported)


def test_an_unused_definition_is_named():
    package = package_sources()
    package["tl"] += "\n\ndef _unused():\n    pass\n"
    assert unlisted(ReachGraph(package, script_sources())) == ["tl._unused"]


def test_a_fusion_call_in_the_pathsum_engine_is_caught():
    package = package_sources()
    tree = ast.parse(package["nonabelian"])
    engine = next(node for node in tree.body
                  if getattr(node, "name", None) == "distribution_pathsum")
    engine.body.insert(1, ast.parse("tl_rows(space, range(1, n))").body[0])  # after the docstring
    package["nonabelian"] = ast.unparse(tree)
    found = crossings(ReachGraph(package, script_sources()))
    assert "nonabelian.distribution_pathsum reaches fusion.tl_rows" in found
