"""Pinned workloads of the benchmark, built from the benchmark's seed.

A workload is a fixed list of items; the closed loop in ``bench.py`` runs
the list, and repeats it while time remains.  With the default seed (0)
each workload reproduces its pinned configuration.

* ``batch-small``: 200 executions; scenario seed ``s`` uses config
  ``s % 4``.  The benchmark seed ``n`` selects scenario seeds
  ``200*n .. 200*n + 199``.
* ``ring-classical-long`` and ``ring-quantum-wide``: one execution each.
  Its schedule is the one the pinned configuration draws, replayed with
  the ``replay`` policy; the benchmark seed moves the scenario seed and
  with it only the outcome draws.  Schedules of these two configurations
  differ widely in cost: verify took 4.1-5.7 s on the classical ring
  (scenario seeds 0-5) and 5.2-9.8 s on the quantum ring (seeds 0-3), on a
  2-vCPU x86 VM with OpenBLAS.  A pinned schedule keeps one run comparable
  with the next.  The classical ring draws no outcomes, so its inputs
  differ between seeds only in the seed written to the trace header.
"""

from __future__ import annotations

from dataclasses import dataclass

from qgosim.harness import scheduler
from qgosim.harness.scenarios import ScenarioConfig

BATCH_SMALL_SIZE = 200


@dataclass(frozen=True)
class Item:
    """One execution: a scenario config, plus a schedule to replay."""

    cfg: ScenarioConfig
    decisions: list | None = None


def _inv(gid, leader, after_step):
    return {"gid": gid, "leader": leader, "after_step": after_step}


def batch_small_config(scenario_seed: int) -> ScenarioConfig:
    kind = scenario_seed % 4
    if kind == 0:  # ROADMAP scenario (a)
        d = dict(base="token-ring", procs=2,
                 base_params={"epr_pair": True, "max_hops": 6},
                 invocations=[_inv("snapshot-measure", "p0", 2),
                              _inv("snapshot-measure", "p0", 6)])
    elif kind == 1:
        d = dict(base="teleport", procs=2,
                 invocations=[_inv("snapshot-measure", "p1", 1),
                              _inv("global-encrypt", "p0", 3)])
    elif kind == 2:  # D=64, 16 outcomes per encrypt component
        d = dict(base="token-ring", procs=3,
                 base_params={"qubits_per_proc": 2, "max_hops": 6},
                 invocations=[_inv("global-encrypt", "p0", 2)])
    else:
        d = dict(base="ping", procs=3, base_params={"n_msgs": 6},
                 invocations=[_inv("record-only", "p2", 2),
                              _inv("snapshot-measure", "p1", 5)])
    return ScenarioConfig.from_dict({**d, "seed": scenario_seed})


def ring_classical_long_config(scenario_seed: int = 3) -> ScenarioConfig:
    """ROADMAP scenario (c): 1,540 events with scenario seed 3."""
    return ScenarioConfig(
        base="token-ring", procs=12, base_params={"max_hops": 96},
        invocations=[_inv("record-only", "p0", a) for a in (2, 7, 12, 17)],
        seed=scenario_seed, max_steps=20000,
    )


def ring_quantum_wide_config(scenario_seed: int = 1) -> ScenarioConfig:
    """ROADMAP scenario (d): 91 events and D=1024 with scenario seed 1."""
    return ScenarioConfig(
        base="token-ring", procs=5,
        base_params={"qubits_per_proc": 2, "max_hops": 10},
        invocations=[_inv("snapshot-measure", "p0", 2)],
        seed=scenario_seed,
    )


def pinned_schedule(cfg: ScenarioConfig) -> list:
    """The decisions ``cfg`` draws under its own policy.

    Token-ring schedules never depend on quantum state, so they are drawn
    on the classical twin of ``cfg`` (no qubits), which costs milliseconds
    where the D=1024 original costs seconds.
    """
    params = dict(cfg.base_params, qubits_per_proc=0)
    twin = ScenarioConfig.from_dict({**cfg.to_dict(), "base_params": params})
    return scheduler.run_simulation(twin).decisions


def _replayed(cfg: ScenarioConfig, seed: int) -> list[Item]:
    decisions = pinned_schedule(cfg)
    replay = ScenarioConfig.from_dict(
        {**cfg.to_dict(), "policy": "replay", "seed": cfg.seed + seed})
    return [Item(replay, decisions)]


def build_items(workload: str, seed: int) -> list[Item]:
    if workload == "batch-small":
        base = BATCH_SMALL_SIZE * seed
        return [Item(batch_small_config(base + i)) for i in range(BATCH_SMALL_SIZE)]
    if workload == "ring-classical-long":
        return _replayed(ring_classical_long_config(), seed)
    if workload == "ring-quantum-wide":
        return _replayed(ring_quantum_wide_config(), seed)
    raise KeyError(f"unknown workload {workload!r}")


def warmup_items(workload: str) -> list[Item]:
    """Small executions that take the workload's code paths, run untimed
    during set-up so lazy imports and the BLAS thread pool are ready."""
    if workload == "batch-small":
        return [Item(batch_small_config(s)) for s in range(4)]
    small = ScenarioConfig(
        base="token-ring", procs=3,
        base_params={"max_hops": 6,
                     "qubits_per_proc": int(workload == "ring-quantum-wide")},
        invocations=[_inv("record-only" if workload == "ring-classical-long"
                          else "snapshot-measure", "p0", 2)],
    )
    return _replayed(small, 0)

