"""The package's own import graph: every qgosim import is at module level,
and no chain of imports leads from a module back to itself.  Also a scan
of the package's tolerance calls and of how the replay step builds states,
of the one module that maps an action to its block, the modules that may
read a replay's full list of states, the names the benchmark's tooling and
the step predicates rely on, the package's unread names and unpassed
parameters, and its exception classes that nothing raises or catches."""

import ast
import builtins
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
    """A state is its factor or its nonzero rows.  No module reads a D×D
    ``entries``, and only ``qcore`` and the trace serializer read a state's
    distinct rows, a block at a time."""
    readers = {}
    for module, path in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("entries", "distinct_rows"):
                readers.setdefault(node.attr, set()).add(module)
    assert "entries" not in readers
    assert "qgosim.harness.traceio" in readers["distinct_rows"]
    assert readers["distinct_rows"] <= {"qgosim.qcore", "qgosim.harness.traceio"}


STEP_MODULES = ("qgosim.sysmodel", "qgosim.executions", "qgosim.specmachine")


def test_step_path_builds_states_with_one_helper():
    """The modules of the replay step never call ``dataclasses.replace``,
    and no module builds a ``SystemState`` but in ``sysmodel.initial_state``,
    the one constructor of a first state, and in ``sysmodel.evolve``, the
    one constructor of every step's next state."""
    found = []
    for module in MODULES:
        tree = ast.parse(MODULES[module].read_text())
        for node in ast.walk(tree) if module in STEP_MODULES else ():
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


# Each ``src/`` name kept only because a benchmark file reads it, with that
# file.  The caller and unused-import rules exempt these names, and
# ``test_every_bench_pin_is_still_read`` checks that each file still reads
# its name, so an exemption cannot outlive its reader.
BENCH_PINS = {
    "qgosim.causality.CausalRelation.pairs": "bench/tracer.py",
    "qgosim.causality.CausalRelation.prec": "bench/tests/test_bench.py",
    "qgosim.causality.replay": "bench/tests/test_bench.py",
    "qgosim.causality.step": "bench/tests/test_bench.py",
    "qgosim.verifier.compute_causality": "bench/tests/test_bench.py",
}


def loads_attribute(source: str, owner: str | None, attr: str) -> bool:
    """Whether ``source`` reads ``attr`` of the module bound as ``owner``,
    or of anything at all when ``owner`` is None."""
    return any(isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
               and node.attr == attr
               and (owner is None or getattr(node.value, "id", None) == owner)
               for node in ast.walk(ast.parse(source)))


def test_every_bench_pin_is_still_read():
    """Each ``BENCH_PINS`` file reads its name: a module's name through the
    module (``causality.replay``), a class member on any object
    (``rel.prec``).  The files are parsed, not imported, so nothing is
    written under ``bench``."""
    unread = []
    for name, path in BENCH_PINS.items():
        owner, _, attr = name.rpartition(".")
        short = owner.rpartition(".")[2] if owner in MODULES else None
        if not loads_attribute((ROOT / path).read_text(), short, attr):
            unread.append(name)
    assert unread == []


def test_pin_scan_names_an_unread_attribute():
    """A store, a call through another module and a bare name are no read."""
    source = ("import causality, verifier\n"
              "causality.step = None\n"
              "verifier.replay(x)\n"
              "prec(a, b)\n")
    assert not loads_attribute(source, "causality", "step")
    assert not loads_attribute(source, "causality", "replay")
    assert not loads_attribute(source, None, "prec")
    assert loads_attribute(source, "verifier", "replay")
    assert loads_attribute(source, None, "replay")


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


def constants(node: ast.stmt) -> list[str]:
    """The names a top-level assignment binds, tuple targets included;
    dunders such as ``__version__`` are read by the language or by tools,
    so none is listed."""
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def member(node: ast.stmt, cls: ast.ClassDef) -> str | None:
    """The name that ``node`` of ``cls``'s body defines for code to read as
    an attribute: a method or property (a dunder is called by the
    language), or a field when ``cls`` is decorated with ``dataclass``."""
    if isinstance(node, ast.FunctionDef):
        return None if node.name.startswith("__") else node.name
    dataclass = any(getattr(d.func if isinstance(d, ast.Call) else d, "id", "") == "dataclass"
                    for d in cls.decorator_list)
    return node.target.id if dataclass and isinstance(node, ast.AnnAssign) else None


def uncalled_functions(modules=MODULES) -> dict[str, ast.AST]:
    """The top-level functions and constants of ``modules`` that no code in
    them refers to outside the function's own body, by ``module.name``, and
    the methods, properties and dataclass fields of their top-level classes
    whose name no code in them reads as an attribute, by
    ``module.Class.name``.  A constant is a name bound by a top-level
    assignment; binding it again is no read.

    Names resolve per module: a top-level def and ``from m import f`` bind
    ``f`` (an import is not itself a reference); ``import m`` and ``from p
    import m`` bind a module, so ``m.f`` refers to ``f`` of that module, and
    a re-export is followed to its source.  An attribute of anything else,
    such as ``rho.distinct_rows()``, refers to no module's function, but it
    calls every method named ``distinct_rows``, and ``cert.swaps`` reads every
    field named ``swaps``.  Dunder methods are called by the language, so
    none is listed.
    """
    trees = {m: ast.parse(p.read_text(), filename=str(p)) for m, p in modules.items()}
    defs, binds = {}, {}
    for m, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{m}.{node.name}"] = node
            defs.update({f"{m}.{name}": node for name in constants(node)})
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
                if isinstance(getattr(node, "ctx", None), ast.Store):
                    continue
                name = qualify(node, m)
                if name and name != own:
                    referenced.add(name)
    members = {f"{m}.{top.name}.{attr}": node
               for m, tree in trees.items() for top in tree.body
               if isinstance(top, ast.ClassDef) for node in top.body
               if (attr := member(node, top))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {**{name: node for name, node in defs.items() if name not in referenced},
            **{name: node for name, node in members.items()
               if name.rpartition(".")[2] not in read}}


def registered_update(node: ast.AST) -> bool:
    return isinstance(node, ast.FunctionDef) and any(isinstance(d, ast.Call) and getattr(d.func, "id", "") == "register_update"
               for d in node.decorator_list)


def test_every_src_function_has_a_caller(monkeypatch):
    """Every top-level function and constant in ``src/`` is referenced from
    ``src/``, and every method, property or dataclass field of a ``src/``
    class is read there by name, so code, a setting or stored data that
    only the tests use does not grow back.  Exempt: the classical updates,
    which the registry calls by name; the functions the benchmark's traced
    run wraps; the names in ``BENCH_PINS``, which a benchmark file reads;
    ``executions.validate``, the replay that asks a step predicate about
    each step, which the tests run on every scenario and ROADMAP item 1
    makes the first stage of ``verify``; and ``SimulationResult.final_state``,
    the generator's own last state, which the tests hold a replay's last
    state against as an oracle."""
    tracer = load_tracer(monkeypatch)
    exempt = {f"{t.module}.{t.func}" for t in tracer.TARGETS} | set(BENCH_PINS) | {
        "qgosim.executions.validate", "qgosim.harness.scheduler.SimulationResult.final_state"}
    flagged = [name for name, node in uncalled_functions().items()
               if name not in exempt and not registered_update(node)]
    assert flagged == []


def test_caller_scan_names_an_uncalled_function(tmp_path):
    """The scan resolves names per module: a method of the same name, a
    recursive call or an unused import does not make a function called.  A
    method, property or dataclass field is used when some module reads its
    name; an annotated attribute of another class is not a field.  A
    constant is read by name or as a module's attribute, each name of a
    tuple target on its own; binding it again is no read, and a dunder is
    never listed."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "__version__ = '1'\n"
        "LIMIT = 3\n"
        "_HEAD, (_MID, _TAIL) = 'a', ('b', 'c')\n"
        "UNREAD: int = 0\n"
        "UNREAD = 1\n"
        "def used(): return _HEAD, _TAIL\n"
        "def unused(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: int\n"
        "    unread: int = 0\n"
        "class State:\n"
        "    cap: int = 3\n"
        "    def unused(self): pass\n"
        "    def idle(self): return self.size\n"
        "    @property\n"
        "    def size(self): return 0\n"
        "    def __len__(self): return 0\n"
    )
    (pkg / "b.py").write_text(
        "from . import a\n"
        "from .a import recursive, used as u\n"
        "def main(): return u(), a.State().unused(), a.LIMIT, a.Point(1).x\n"
        "main()\n"
    )
    modules = {f"pkg.{p.stem}": p for p in sorted(pkg.glob("*.py"))}
    modules["pkg"] = modules.pop("pkg.__init__")
    assert sorted(uncalled_functions(modules)) == [
        "pkg.a.Point.unread", "pkg.a.State.idle", "pkg.a.UNREAD", "pkg.a._MID",
        "pkg.a.recursive", "pkg.a.unused"]


def unused_imports(modules=MODULES) -> list[str]:
    """The names that a module of ``modules`` binds by import and never
    reads, by ``module.name``.  ``import a.b`` binds ``a``; a ``__future__``
    import is a directive and binds nothing."""
    found = []
    for m, path in modules.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                found += [f"{m}.{name}" for a in node.names
                          if (name := a.asname or a.name.split(".")[0]) not in read]
    return sorted(found)


def test_every_src_import_is_read():
    """No ``src/`` module imports a name it never reads.  Exempt: the
    bindings in ``BENCH_PINS``, which a benchmark file reads through a
    module that does not use them."""
    assert [name for name in unused_imports() if name not in BENCH_PINS] == []


def test_import_scan_names_an_unused_import(tmp_path):
    """A name read anywhere in its module, in an annotation or as the base
    of an attribute, is used; a ``__future__`` import is never listed."""
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Any, Callable\n"
        "from dataclasses import dataclass, field as fld\n"
        "def f(x: Any) -> str: return os.path.join(x)\n"
    )
    assert unused_imports({"pkg.a": tmp_path / "a.py"}) == [
        "pkg.a.Callable", "pkg.a.dataclass", "pkg.a.fld", "pkg.a.js"]


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


def methods(cls) -> set[str]:
    return {n for n, v in vars(cls).items()
            if callable(v) or isinstance(v, (classmethod, property))}


def test_no_base_algorithm_restates_its_step_predicate():
    """The step predicate (``qgo.AugmentedPredicate``) rebuilds a base
    algorithm's blocks with its ``enabled`` and ``build``.  A base algorithm
    has no method besides those of ``BaseAlgorithm``, which has no predicate
    method, so no algorithm can state its rules a second time."""
    interface = {"check_params", "initial", "enabled", "build"}
    assert methods(BaseAlgorithm) == interface
    subclasses = list(all_subclasses(BaseAlgorithm))
    assert subclasses
    assert [(c.__qualname__, m) for c in subclasses for m in sorted(methods(c) - interface)] == []


PROTOCOL_BUILDERS = ("qgo_invoke", "qgo_receive")


def builder_uses(source: str) -> list[int]:
    """The lines of ``source`` that import or read a protocol builder
    (``qgo_invoke``, ``qgo_receive``), or call a ``build`` method of
    anything but the module bound as ``qgo``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [node.lineno for a in node.names if a.name in PROTOCOL_BUILDERS]
        elif isinstance(node, ast.Name) and node.id in PROTOCOL_BUILDERS or \
                isinstance(node, ast.Attribute) and node.attr in PROTOCOL_BUILDERS:
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                node.func.attr == "build" and getattr(node.func.value, "id", "") != "qgo":
            found.append(node.lineno)
    return sorted(found)


def test_only_qgo_maps_an_action_to_its_block():
    """``qgo.build`` is the one map from an action to its block, for
    generation and for the step predicate alike: outside ``qgo``, no
    ``src/`` module reads ``qgo_invoke`` or ``qgo_receive`` or calls a base
    algorithm's ``build``."""
    found = [f"{m}:{line}" for m, path in MODULES.items() if m != "qgosim.qgo"
             for line in builder_uses(path.read_text())]
    assert found == []
    assert builder_uses(MODULES["qgosim.qgo"].read_text())


def test_builder_scan_names_a_dispatch():
    """The scan sees a builder imported, read through its module, and a
    ``build`` called on a base algorithm; ``qgo.build`` and a definition
    named ``build`` are no dispatch."""
    source = ("from .qgo import GenContext, qgo_receive\n"
              "from . import qgo\n"
              "qgo.qgo_invoke(s, p, g, c)\n"
              "base.build(s, p, a, c)\n"
              "self.base.build(s, p, a, c)\n"
              "qgo.build(s, a, b, lib, c)\n"
              "def build(s, p, a, c): return qgo_receive\n")
    assert builder_uses(source) == [1, 3, 4, 5, 7]


def step_references(source: str, module: str) -> tuple[list[ast.AST], list[ast.AST]]:
    """In ``source``, read as ``module``: the nodes that bind or read
    ``executions.step``, and the arguments of its ``executions.checked_step``
    calls."""
    refs, checked = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and \
                from_target(node, module) == "qgosim.executions":
            refs += [node for a in node.names if a.name == "step"]
        elif isinstance(node, ast.Attribute) and node.attr == "step" and \
                getattr(node.value, "id", "") == "executions":
            refs.append(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                node.func.attr == "checked_step" and \
                getattr(node.func.value, "id", "") == "executions":
            checked += node.args
    return refs, checked


def steps_outside_checked_step(source: str, module: str) -> int | None:
    """How many references to ``executions.step`` in ``source`` are not an
    argument of ``executions.checked_step``; None if it never calls that."""
    refs, checked = step_references(source, module)
    if not checked:
        return None
    return sum(not any(ref is arg for arg in checked) for ref in refs)


def test_protocol_builders_only_build_and_generation_steps_through_checked_step():
    """``qgo`` binds no ``executions.step``, so its builders cannot step
    privately; the scheduler passes ``executions.step`` only to
    ``executions.checked_step``, the one step with replay's checks."""
    qgo_source = MODULES["qgosim.qgo"].read_text()
    assert step_references(qgo_source, "qgosim.qgo")[0] == []
    sched = MODULES["qgosim.harness.scheduler"].read_text()
    assert steps_outside_checked_step(sched, "qgosim.harness.scheduler") == 0


def test_step_scan_names_a_private_step():
    """The scan sees a step bound by import, a direct ``executions.step``
    call, and a scheduler that never uses ``checked_step``."""
    assert len(step_references("from .executions import Send, step\n", "qgosim.qgo")[0]) == 1
    assert len(step_references("from . import executions\nexecutions.step(s, e)\n",
                               "qgosim.qgo")[0]) == 1
    private = ("from .. import executions\n"
               "executions.checked_step(s, e, ids, executions.step)\n"
               "executions.step(s, e)\n")
    assert steps_outside_checked_step(private, "qgosim.harness.scheduler") == 1
    assert steps_outside_checked_step("executions.step(s, e)\n",
                                      "qgosim.harness.scheduler") is None


def full_replay_reads(source: str, module: str) -> list[int]:
    """The lines of ``source``, read as ``module``, that import ``replay``
    from ``executions`` or read ``executions.replay``: the full list of a
    replay's states."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and \
                from_target(node, module) == "qgosim.executions":
            found += [node.lineno for a in node.names if a.name == "replay"]
        elif isinstance(node, ast.Attribute) and node.attr == "replay" and \
                getattr(node.value, "id", "") == "executions":
            found.append(node.lineno)
    return sorted(found)


def test_verify_and_the_specification_replay_keep_no_full_replay():
    """``verify`` and the specification replay step through
    ``executions.walk`` and keep only the states they read: neither
    ``verifier`` nor ``specmachine`` reads ``executions.replay``, whose list
    of all n+1 states ``validate`` and the tests read.  ``causality`` still
    binds it, for the benchmark's tests (``BENCH_PINS``)."""
    found = [f"{m}:{line}" for m in ("qgosim.verifier", "qgosim.specmachine")
             for line in full_replay_reads(MODULES[m].read_text(), m)]
    assert found == []
    assert full_replay_reads(MODULES["qgosim.causality"].read_text(), "qgosim.causality")


def test_replay_scan_names_a_full_replay():
    """The scan sees ``replay`` imported from ``executions`` and read through
    it; ``walk``, a definition named ``replay`` and another module's
    ``replay`` are no full replay."""
    source = ("from .executions import Execution, replay\n"
              "from . import executions\n"
              "executions.replay(x)\n"
              "executions.walk(x)\n"
              "def replay(w, span): return causality.replay\n"
              "from .causality import replay\n")
    assert full_replay_reads(source, "qgosim.verifier") == [1, 3]


def passes(call: ast.Call, position: int | None, param: str) -> bool:
    """Whether ``call`` passes the parameter ``param``, at ``position``
    among the positional ones (None for a keyword-only one): by position,
    by keyword, or through ``*`` (a positional one) or ``**`` unpacking."""
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return position is not None and (position < len(call.args) or
                                     any(isinstance(a, ast.Starred) for a in call.args))


def unpassed_parameters(modules=MODULES) -> list[str]:
    """The parameters with a default, of the top-level functions of
    ``modules`` and the methods of their top-level classes, that no call in
    ``modules`` passes, by ``module.function.param`` or
    ``module.Class.method.param``.  Calls match by name: ``f(…)`` and
    ``x.f(…)`` both call every ``f``, and a class's name calls its
    ``__init__``.  A method's ``self`` or ``cls`` takes no position of a
    call.  Other dunders are called by the language, so none is listed."""
    trees = {m: ast.parse(p.read_text(), filename=str(p)) for m, p in modules.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                calls.setdefault(name, []).append(node)
    defs = []  # (qualified name, the name calls use, the def, positions self takes)
    for m, tree in trees.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                defs.append((f"{m}.{top.name}", top.name, top, 0))
            for node in top.body if isinstance(top, ast.ClassDef) else ():
                if isinstance(node, ast.FunctionDef) and \
                        (node.name == "__init__" or not node.name.startswith("__")):
                    static = any(getattr(d, "id", "") == "staticmethod"
                                 for d in node.decorator_list)
                    defs.append((f"{m}.{top.name}.{node.name}",
                                 top.name if node.name == "__init__" else node.name,
                                 node, 0 if static else 1))
    found = []
    for qualname, called_as, fn, skip in defs:
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        defaulted = [(k - skip, p.arg) for k, p in enumerate(positional) if k >= first]
        defaulted += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        found += [f"{qualname}.{param}" for position, param in defaulted
                  if not any(passes(c, position, param) for c in calls.get(called_as, ()))]
    return sorted(found)


def test_every_src_parameter_is_passed():
    """Every parameter with a default in ``src/`` is passed by some ``src/``
    call, so no setting that only the tests set grows back.  Exempt:
    ``cli.main``'s ``argv``, through which the tests drive the command line,
    and ``run_simulation``'s ``decisions``, through which the benchmark
    replays its pinned schedules."""
    exempt = ["qgosim.harness.cli.main.argv",
              "qgosim.harness.scheduler.run_simulation.decisions"]
    assert [name for name in unpassed_parameters() if name not in exempt] == []


def test_parameter_scan_names_an_unpassed_parameter(tmp_path):
    """A parameter is passed by position, by keyword, or by ``*``/``**``
    unpacking, by any call of its function's name; ``self`` and ``cls``
    take no position, a static method's first parameter does, a class's
    name calls its ``__init__``, and a nested function is not scanned."""
    (tmp_path / "a.py").write_text(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(a=1, b=2): pass\n"
        "def h(a=1): pass\n"
        "def outer():\n"
        "    def inner(a=1): pass\n"
        "class C:\n"
        "    def __init__(self, start=0): pass\n"
        "    def m(self, a, b=1): pass\n"
        "    @classmethod\n"
        "    def make(cls, a, b=1): pass\n"
        "    @staticmethod\n"
        "    def s(a=1): pass\n"
        "    def __eq__(self, other=None): pass\n"
    )
    (tmp_path / "b.py").write_text(
        "f(0, 1, d=2)\n"
        "g(*[1])\n"
        "h(**{})\n"
        "C().m(0, 1)\n"
        "C.make(0)\n"
        "C.s(0)\n"
    )
    assert unpassed_parameters({"pkg.a": tmp_path / "a.py", "pkg.b": tmp_path / "b.py"}) == [
        "pkg.a.C.__init__.start", "pkg.a.C.make.b", "pkg.a.f.c", "pkg.a.f.e"]


def unnamed_exceptions(modules=MODULES) -> list[str]:
    """The exception classes at the top level of ``modules`` that no code
    in them raises or catches by name, by ``module.Class``.  A class is
    named by a ``raise`` of it or of a call to it, and by an ``except``
    clause that reads it alone, in a tuple, or through a top-level tuple
    constant such as ``executions.STEP_ERRORS``; a name and a module's
    attribute both count.  A class is an exception class when one of its
    bases is a builtin exception or another such class of ``modules``."""
    trees = {m: ast.parse(p.read_text(), filename=str(p)) for m, p in modules.items()}

    def name(node) -> str:
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")

    classes = {f"{m}.{top.name}": top for m, tree in trees.items() for top in tree.body
               if isinstance(top, ast.ClassDef)}
    errors = {n for n in dir(builtins)
              if isinstance(getattr(builtins, n), type) and
              issubclass(getattr(builtins, n), BaseException)}
    grown = True
    while grown:
        found = {q.rpartition(".")[2] for q, c in classes.items()
                 if any(name(b) in errors for b in c.bases)}
        grown = not found <= errors
        errors |= found
    tuples = {t.id: node.value.elts for tree in trees.values() for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
              for t in node.targets if isinstance(t, ast.Name)}

    def caught(node) -> list[str]:
        if isinstance(node, ast.Tuple):
            return [n for e in node.elts for n in caught(e)]
        if name(node) in tuples:
            return [n for e in tuples[name(node)] for n in caught(e)]
        return [name(node)]

    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                named.add(name(node.exc))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                named.update(caught(node.type))
    return sorted(q for q in classes
                  if q.rpartition(".")[2] in errors and q.rpartition(".")[2] not in named)


def test_every_src_exception_is_raised_or_caught():
    """Every exception class in ``src/`` is raised or caught by name, so no
    class stands only as a base that nothing catches."""
    assert unnamed_exceptions() == []


def test_exception_scan_names_an_unused_class(tmp_path):
    """A base class whose subclasses alone are raised is not named; a class
    caught in a tuple, through a tuple constant or as a module's attribute
    is; a class that is no exception is never listed."""
    (tmp_path / "a.py").write_text(
        "class BaseError(Exception): pass\n"
        "class Raised(BaseError): pass\n"
        "class Caught(BaseError): pass\n"
        "class InTuple(ValueError): pass\n"
        "class Constant(KeyError): pass\n"
        "class Attribute(Exception): pass\n"
        "class Unused(Raised): pass\n"
        "class Plain: pass\n"
        "ERRORS = (Constant, TypeError)\n"
        "def f():\n"
        "    try:\n"
        "        raise Raised('x')\n"
        "    except Caught:\n"
        "        pass\n"
        "    except (InTuple, OSError):\n"
        "        pass\n"
        "    except ERRORS:\n"
        "        raise\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "try:\n"
        "    pass\n"
        "except a.Attribute:\n"
        "    pass\n"
    )
    assert unnamed_exceptions({"pkg.a": tmp_path / "a.py", "pkg.b": tmp_path / "b.py"}) == [
        "pkg.a.BaseError", "pkg.a.Unused"]
