"""Tests of the benchmark's recorder, workloads and correctness gate.

Run from the root of the repository:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import bench  # noqa: E402

bench.import_qgosim()

import tracer  # noqa: E402
import workloads  # noqa: E402
from qgosim import causality, executions, verifier  # noqa: E402
from qgosim.harness import scheduler  # noqa: E402
from qgosim.harness.scenarios import ScenarioConfig  # noqa: E402

TINY = ScenarioConfig(
    base="token-ring", procs=2, base_params={"epr_pair": True, "max_hops": 2},
    invocations=[{"gid": "snapshot-measure", "leader": "p0", "after_step": 1}],
    seed=7,
)


class TickClock:
    """Each reading is one second after the previous one."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def synthetic(monkeypatch):
    mod = types.ModuleType("synthetic_layer")
    exec(
        "def inner(n):\n"
        "    return n + 1\n"
        "def outer(n):\n"
        "    return inner(inner(n))\n",
        mod.__dict__,
    )
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_self_time_is_total_minus_child_time(synthetic):
    targets = [tracer.Target("syn", synthetic.__name__, f) for f in ("outer", "inner")]
    rec = tracer.Recorder(targets, modules=[synthetic], clock=TickClock())
    rec.execution = 5
    with rec:
        assert synthetic.outer(1) == 3
    assert synthetic.outer.__name__ == "outer" and not hasattr(synthetic.outer, "__wrapped__")

    spans = {s.name: [] for s in rec.spans}
    for s in rec.spans:
        spans[s.name].append(s)
    (outer,) = spans["syn.outer"]
    assert [s.parent for s in spans["syn.inner"]] == [outer.id, outer.id]
    assert {s.execution for s in rec.spans} == {5}

    summary = tracer.summarize(rec.spans)
    child = sum(s.end - s.start for s in spans["syn.inner"])
    assert summary["syn.outer"].calls == 1
    assert summary["syn.inner"].calls == 2
    assert summary["syn.outer"].total_s == outer.end - outer.start == 5.0
    assert summary["syn.outer"].self_s == outer.end - outer.start - child == 3.0
    assert summary["syn.inner"].self_s == summary["syn.inner"].total_s == child == 2.0


def test_replay_counts_every_step_through_by_name_bindings():
    x = scheduler.run_simulation(TINY).execution
    rel = causality.compute_causality(x)
    i = next(i for i in range(len(x.events) - 1)
             if x.events[i].label != x.events[i + 1].label
             and not rel.prec(x.events[i].eid, x.events[i + 1].eid))

    rec = tracer.Recorder()
    with rec:
        assert hasattr(causality.step, "__wrapped__")
        # ``causality`` binds ``replay`` and ``step`` by name.
        states = causality.replay(x)
        causality.swap_adjacent_cached(x, states, i, rel)
    calls = {name: layer.calls for name, layer in tracer.summarize(rec.spans).items()}
    assert calls["executions.replay"] == 1
    assert calls["executions.step"] == len(x.events) + 2
    assert calls["causality.swap_adjacent_cached"] == 1
    assert causality.step is executions.step
    assert verifier.compute_causality is causality.compute_causality


def test_flipped_outcome_fails_the_gate():
    text, _ = bench.run_half(workloads.Item(TINY))
    parsed, cert, _ = bench.verify_half(text)
    good = bench.Sample(0.0, 0.0, text, parsed, cert)
    assert bench.gate(good, None) == []
    assert bench.gate(good, good.fingerprint()) == []

    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines):
        rec = json.loads(line)
        if rec.get("k") == "apply" and rec["name"].startswith("gop-self:"):
            others = [o for o in rec["qop"]["outs"] if o != rec["outcome"]]
            lines[k] = json.dumps({**rec, "outcome": others[0]}, sort_keys=True) + "\n"
            break
    else:
        pytest.fail("no local snapshot application in the tiny trace")
    flipped = "".join(lines)
    parsed, cert, _ = bench.verify_half(flipped)
    bad = bench.Sample(0.0, 0.0, flipped, parsed, cert)
    assert bench.gate(bad, None)
    assert bench.gate(bad, good.fingerprint())


def test_default_seed_replays_the_pinned_schedule():
    cfg = workloads.ring_quantum_wide_config()
    (item,) = workloads.build_items("ring-quantum-wide", 0)
    assert item.cfg.seed == cfg.seed and item.cfg.policy == "replay"
    assert item.decisions == scheduler.run_simulation(cfg).decisions



def test_host_clock_runs_slower_when_the_host_does(monkeypatch):
    paces = iter([2.0, 4.0])
    monkeypatch.setattr(bench, "host_pace", lambda: next(paces))
    wall = iter([10.0, 10.0, 10.0, 11.0, 11.0, 12.0, 14.0])
    monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=lambda: next(wall)))
    monkeypatch.setattr(bench.signal, "setitimer", lambda *args: None)
    clock = bench.HostClock()
    clock._tick()  # at wall 10: pace 2
    assert clock.now() == 0.5  # at wall 11: 1 s at pace 2
    clock._tick()  # at wall 11: pace 4, timed until wall 12
    assert clock.now() == 0.5 + 2 / 4  # at wall 14: the timing is left out
    assert clock.paces == [2.0, 4.0]


def test_half_times_are_means_of_item_medians():
    timings = [(0, 1.0, 10.0), (1, 5.0, 30.0), (0, 3.0, 20.0), (1, 7.0, 50.0), (0, 2.0, 90.0)]
    assert bench.item_medians(timings, 1) == [2.0, 6.0]
    assert bench.item_medians(timings, 2) == [20.0, 40.0]
