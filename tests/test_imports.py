"""The package's own import graph: every qgosim import is at module level,
and no chain of imports leads from a module back to itself.  Also a scan
of the package's tolerance calls and of how the replay step builds states,
and the names the benchmark's tooling and the step predicates rely on."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from qgosim.harness.scenarios import BaseAlgorithm

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PKG = SRC / "qgosim"


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(p): p for p in sorted(PKG.rglob("*.py"))}


def from_target(node: ast.ImportFrom, module: str, modules=MODULES) -> str:
    """The absolute name of the module a ``from … import`` in ``module`` reads."""
    if not node.level:
        return node.module or ""
    base = module.split(".")
    if modules[module].name != "__init__.py":
        base = base[:-1]
    base = base[: len(base) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def imported_modules(node, module: str) -> list[str]:
    """The qgosim modules an import statement in ``module`` names."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "qgosim"]
    if not isinstance(node, ast.ImportFrom):
        return []
    target = from_target(node, module)
    if target.split(".")[0] != "qgosim":
        return []
    # ``from . import a, b`` names submodules; ``from .a import f`` names a.
    subs = [f"{target}.{a.name}" for a in node.names if f"{target}.{a.name}" in MODULES]
    return subs or [target]


def scan():
    """(edges, function-level imports) over every module of the package."""
    edges: dict[str, set[str]] = {m: set() for m in MODULES}
    local: list[str] = []
    for module, path in MODULES.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            edges[module].update(imported_modules(node, module))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    for target in imported_modules(inner, module):
                        local.append(f"{module}.{node.name} imports {target}")
    return edges, local


def find_cycle(edges: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a path that ends where it starts, or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(m):
        state[m] = 1
        path.append(m)
        for n in sorted(edges.get(m, ())):
            if state.get(n) == 1:
                return path[path.index(n):] + [n]
            if n not in state:
                cycle = visit(n)
                if cycle:
                    return cycle
        path.pop()
        state[m] = 2
        return None

    for m in sorted(edges):
        if m not in state:
            cycle = visit(m)
            if cycle:
                return cycle
    return None


def test_scan_sees_the_package_imports():
    edges, _ = scan()
    assert "qgosim.sysmodel" in edges["qgosim.executions"]
    assert "qgosim.executions" in edges["qgosim.specmachine"]
    assert "qgosim.harness.scenarios" in edges["qgosim.harness.traceio"]
    assert "qgosim.verifier" in edges["qgosim.harness.traceio"]


def test_find_cycle_reports_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_no_function_level_imports_of_qgosim():
    _, local = scan()
    assert local == []


def test_import_graph_is_acyclic():
    edges, _ = scan()
    assert find_cycle(edges) is None


def test_tolerance_calls_name_both_tolerances():
    """Every ``allclose``/``isclose`` call in the package passes ``rtol`` and
    ``atol`` by keyword, so no comparison falls back to numpy's defaults."""
    bare = []
    for module, path in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            given = {k.arg for k in node.keywords}
            if name in ("allclose", "isclose") and not {"rtol", "atol"} <= given:
                bare.append(f"{module}:{node.lineno}")
    assert bare == []


def test_only_qcore_and_traceio_read_dense_entries():
    """A state is its factor; its D×D ``entries`` are read by ``qcore`` and
    by the trace serializer, and nowhere else in the package."""
    readers = set()
    for module, path in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "entries":
                readers.add(module)
    assert readers <= {"qgosim.qcore", "qgosim.harness.traceio"}
    assert "qgosim.harness.traceio" in readers


STEP_MODULES = ("qgosim.sysmodel", "qgosim.executions", "qgosim.specmachine")


def test_step_path_builds_states_with_one_helper():
    """The modules of the replay step never call ``dataclasses.replace``,
    and build a ``SystemState`` only in ``sysmodel.initial_state`` and in
    ``sysmodel.evolve``, the one constructor of every step's next state."""
    found = []
    for module in STEP_MODULES:
        tree = ast.parse(MODULES[module].read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found += [f"{module}:{node.lineno} imports replace"
                          for a in node.names if a.name == "replace"]
            elif isinstance(node, ast.Attribute) and node.attr == "replace" and \
                    getattr(node.value, "id", "") == "dataclasses":
                found.append(f"{module}:{node.lineno} calls dataclasses.replace")
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", "") == \
                        "SystemState" and f"{module}.{func.name}" not in (
                            "qgosim.sysmodel.initial_state", "qgosim.sysmodel.evolve"):
                    found.append(f"{module}.{func.name}:{node.lineno} builds a SystemState")
    assert found == []


def load_tracer(monkeypatch):
    """``bench/tracer.py`` as a module, loaded without writing under ``bench``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_name_functions(monkeypatch):
    """Every function the benchmark's traced run wraps still exists under
    its name, so a refactor cannot silently drop a layer from
    ``bench.py --trace 1``."""
    tracer = load_tracer(monkeypatch)
    missing = [
        t.name for t in tracer.TARGETS
        if not inspect.isfunction(getattr(importlib.import_module(t.module), t.func, None))
    ]
    assert tracer.TARGETS
    assert missing == []


def uncalled_functions(modules=MODULES) -> dict[str, ast.FunctionDef]:
    """The top-level functions of ``modules`` that no code in them refers to
    outside the function's own body, by ``module.name``.

    Names resolve per module: a top-level def and ``from m import f`` bind
    ``f`` (an import is not itself a reference); ``import m`` and ``from p
    import m`` bind a module, so ``m.f`` refers to ``f`` of that module, and
    a re-export is followed to its source.  An attribute of anything else,
    such as ``state.validate()``, refers to no module's function.
    """
    trees = {m: ast.parse(p.read_text(), filename=str(p)) for m, p in modules.items()}
    defs, binds = {}, {}
    for m, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{m}.{node.name}"] = node
        bound = {d.rpartition(".")[2]: d for d in defs if d.rpartition(".")[0] == m}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                target = from_target(node, m, modules)
                bound.update({a.asname or a.name: f"{target}.{a.name}" for a in node.names})
            elif isinstance(node, ast.Import):
                bound.update({a.asname: a.name for a in node.names if a.asname})
                bound.update({a.name.split(".")[0]: a.name.split(".")[0]
                              for a in node.names if not a.asname})
        binds[m] = bound

    def resolve(name: str) -> str:
        while True:
            module, _, attr = name.rpartition(".")
            nxt = binds.get(module, {}).get(attr)
            if nxt is None or nxt == name:
                return name
            name = nxt

    def qualify(node, m):
        if isinstance(node, ast.Name):
            return resolve(binds[m][node.id]) if node.id in binds[m] else None
        if isinstance(node, ast.Attribute):
            owner = qualify(node.value, m)
            return owner and resolve(f"{owner}.{node.attr}")
        return None

    referenced = set()
    for m, tree in trees.items():
        for top in tree.body:
            own = f"{m}.{top.name}" if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                name = qualify(node, m)
                if name and name != own:
                    referenced.add(name)
    return {name: node for name, node in defs.items() if name not in referenced}


def registered_update(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", "") == "register_update"
               for d in node.decorator_list)


def test_every_src_function_has_a_caller(monkeypatch):
    """Every top-level function in ``src/`` is referenced from ``src/``, so
    code that only the tests call does not grow back.  Exempt: the classical
    updates, which the registry calls by name; the functions the benchmark's
    traced run wraps; and ``executions.validate``, the replay that asks a
    step predicate about each step, which the tests run on every scenario
    and ROADMAP item 1 makes the first stage of ``verify``."""
    tracer = load_tracer(monkeypatch)
    exempt = {f"{t.module}.{t.func}" for t in tracer.TARGETS} | {"qgosim.executions.validate"}
    flagged = [name for name, node in uncalled_functions().items()
               if name not in exempt and not registered_update(node)]
    assert flagged == []


def test_caller_scan_names_an_uncalled_function(tmp_path):
    """The scan resolves names per module: a method of the same name, a
    recursive call or an unused import does not make a function called."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        "def used(): pass\n"
        "def unused(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class State:\n"
        "    def unused(self): pass\n"
    )
    (pkg / "b.py").write_text(
        "from . import a\n"
        "from .a import recursive, used as u\n"
        "def main(): return u(), a.State().unused()\n"
        "main()\n"
    )
    modules = {f"pkg.{p.stem}": p for p in sorted(pkg.glob("*.py"))}
    modules["pkg"] = modules.pop("pkg.__init__")
    assert sorted(uncalled_functions(modules)) == ["pkg.a.recursive", "pkg.a.unused"]


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


def test_no_base_algorithm_restates_its_step_predicate():
    """``BaseAlgorithm.allows`` rebuilds the event with the algorithm's own
    ``build``; a subclass that overrides it would restate the rules."""
    subclasses = list(all_subclasses(BaseAlgorithm))
    assert subclasses
    assert [c.__qualname__ for c in subclasses if "allows" in vars(c)] == []
