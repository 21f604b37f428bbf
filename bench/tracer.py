"""Span recorder for the benchmark's traced run.

The recorder wraps the public functions of each qgosim layer at every
place a qgosim module binds them: ``executions.step`` is also reached as
``causality.step`` and ``qgo.step``, ``compute_causality`` as
``verifier.compute_causality``, and so on.  Each call becomes a span with
its name, start, end, parent span and the id of the execution it belongs
to.  Spans stay in memory; ``write_spans`` writes them out at the end.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    func: str

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.func}"


def _targets(layer, module, *funcs):
    return [Target(layer, module, f) for f in funcs]


TARGETS = (
    _targets("scheduler", "qgosim.harness.scheduler", "run_simulation")
    + _targets("traceio", "qgosim.harness.traceio", "serialize_run", "parse_run")
    + _targets("qgo", "qgosim.qgo", "qgo_invoke", "qgo_receive", "choose_outcome")
    + _targets("executions", "qgosim.executions", "step", "replay", "run_update")
    + _targets("sysmodel", "qgosim.sysmodel",
               "send", "receive", "apply_local", "states_equal")
    + _targets("qcore", "qgosim.qcore",
               "apply_outcome", "canonical_form", "partial_trace", "tensor_product")
    + _targets("causality", "qgosim.causality",
               "compute_causality", "equicausal", "swap_adjacent_cached")
    + _targets("specmachine", "qgosim.specmachine",
               "validate_spec_execution", "apply_atomic")
    + _targets("verifier", "qgosim.verifier",
               "verify", "decompose", "classify", "eliminate_inversions",
               "reorder_message_ops", "build_spec_execution", "histories_correspond")
)

# Functions whose span also reports total (inclusive) time.
TOTAL_TIME = (
    "verifier.verify", "verifier.decompose", "verifier.classify",
    "verifier.eliminate_inversions", "verifier.reorder_message_ops",
    "verifier.build_spec_execution", "specmachine.validate_spec_execution",
    "traceio.serialize_run", "traceio.parse_run",
)


def _dim(args, kwargs, result):
    rho = args[0] if args else kwargs["rho"]
    return rho.space.total_dim


def _pairs(args, kwargs, result):
    return len(result.pairs)


# A size recorded on the span: the state dimension D of each apply_outcome
# call and the number of causal pairs each compute_causality call builds.
SIZES = {"qcore.apply_outcome": _dim, "causality.compute_causality": _pairs}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    execution: int | None
    size: int | None = None


class Recorder:
    """Wraps the targets while installed (use it as a context manager)."""

    def __init__(self, targets=TARGETS, modules=None, clock=time.perf_counter):
        self.targets = tuple(targets)
        self.modules = modules
        self.clock = clock
        self.spans: list[Span] = []
        self.execution: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _bound_modules(self):
        if self.modules is not None:
            return list(self.modules)
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "qgosim" or n.startswith("qgosim."))]

    def __enter__(self):
        if self._patched:
            raise RuntimeError("recorder is already installed")
        wrappers = {}
        for t in self.targets:
            fn = getattr(importlib.import_module(t.module), t.func)
            wrappers[id(fn)] = (fn, self._wrap(t.name, fn))
        for mod in self._bound_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        size_of = SIZES.get(name)
        clock = self.clock
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            size = size_of(args, kwargs, result) if size_of is not None else None
            spans.append(Span(sid, name, start, end, parent, self.execution, size))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper


@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def summarize(spans) -> dict[str, Layer]:
    """Calls, self time and total time per span name.

    Self time is a span's duration minus the time its child spans cover.
    Total time sums the spans that have no ancestor of the same name, so
    a recursive call is not counted twice.
    """
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, Layer] = {}
    for s in spans:
        layer = out.setdefault(s.name, Layer())
        dur = s.end - s.start
        layer.calls += 1
        layer.self_s += dur - child_time.get(s.id, 0.0)
        if _ancestor_named(by_id, s, s.name) is None:
            layer.total_s += dur
    return out


def _ancestor_named(by_id, span, name):
    p = span.parent
    while p is not None:
        anc = by_id[p]
        if anc.name == name:
            return anc
        p = anc.parent
    return None


def applies_per_draw(spans) -> tuple[int, int]:
    """(apply_outcome calls made inside choose_outcome, draws).

    A draw is a choose_outcome call that applied at least one outcome; a
    call that returns a fixed outcome draws nothing.
    """
    by_id = {s.id: s for s in spans}
    per_draw: dict[int, int] = {}
    for s in spans:
        if s.name == "qcore.apply_outcome":
            draw = _ancestor_named(by_id, s, "qgo.choose_outcome")
            if draw is not None:
                per_draw[draw.id] = per_draw.get(draw.id, 0) + 1
    return sum(per_draw.values()), len(per_draw)


def write_spans(path, spans) -> None:
    """One JSON array per line: id, name, start, end, parent, execution, size."""
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = min((s.start for s in spans), default=0.0)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for s in spans:
            fh.write(json.dumps([s.id, s.name, s.start - t0, s.end - t0,
                                 s.parent, s.execution, s.size]) + "\n")
