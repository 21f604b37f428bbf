"""Randomized generation of protocol executions.

At each step the scheduler enumerates the enabled actions — deliverable
channel heads, base-algorithm actions, and the next scheduled invocation —
and picks one according to the configured policy.  The chosen action keys
are recorded so a run can be replayed exactly from its trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import executions, qgo, sysmodel
from ..executions import Event, Execution
from ..qgo import GenContext
from .scenarios import ScenarioConfig, build_scenario


class SchedulerError(Exception):
    pass


@dataclass
class SimulationResult:
    execution: Execution
    config: ScenarioConfig
    decisions: list  # chosen action keys, in order
    final_state: sysmodel.SystemState


def _enabled_actions(state, base, next_inv, cfg, steps):
    actions = []
    for chan in sorted(state.channels):
        if state.channels[chan]:
            actions.append(("recv", chan))
    for proc in sorted(state.procs):
        for name in base.enabled(state, proc):
            actions.append(("base", proc, name))
    if next_inv < len(cfg.invocations):
        idle = all(not qgo.is_active(state.ext[p]) for p in state.procs)
        after = int(cfg.invocations[next_inv].get("after_step", 0))
        if idle and (steps >= after or not actions):
            actions.append(("invoke", next_inv))
    return actions


class _Policy:
    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator, script=None):
        self.kind = cfg.policy
        self.rng = rng
        self.counter = 0
        self.script = list(script) if script is not None else None
        if self.kind not in (
            "uniform-random", "round-robin", "channel-delay-biased", "replay"
        ):
            raise SchedulerError(f"unknown policy {cfg.policy!r}")
        if self.kind == "replay" and self.script is None:
            raise SchedulerError("replay policy needs a recorded decision list")

    def choose(self, actions):
        if self.kind == "replay":
            if not self.script:
                raise SchedulerError("recorded decisions exhausted")
            want = tuple(self.script.pop(0))
            if want not in actions:
                raise SchedulerError(f"recorded action {want} not enabled")
            return want
        if self.kind == "round-robin":
            pick = actions[self.counter % len(actions)]
            self.counter += 1
            return pick
        if self.kind == "channel-delay-biased":
            # Receives are reluctant, so messages tend to linger in flight.
            w = np.array([0.25 if a[0] == "recv" else 1.0 for a in actions])
            return actions[self.rng.choice(len(actions), p=w / w.sum())]
        return actions[self.rng.integers(len(actions))]


def run_simulation(cfg: ScenarioConfig, decisions=None) -> SimulationResult:
    """Generate one execution of the configured scenario.

    With ``decisions`` (and policy "replay") the recorded schedule is
    followed exactly; otherwise the policy drives the choices.  Each chosen
    action's block is built on the state before it, by the protocol's
    builders or the base algorithm's, and each of its events is stepped
    once through ``executions.checked_step``, as replay steps it.  A block
    the system model refuses (``SysmodelError``: a reused message id, an
    outcome of zero probability) raises SchedulerError, naming the step.
    """
    state, base, library = build_scenario(cfg)
    initial = state
    ss = np.random.SeedSequence(cfg.seed)
    sched_seed, outcome_seed = ss.spawn(2)
    policy = _Policy(cfg, np.random.default_rng(sched_seed), decisions)
    ctx = GenContext(np.random.default_rng(outcome_seed))

    events: list[Event] = []
    seen_ids = initial.message_ids()
    chosen: list = []
    next_inv = 0
    starved: dict = {}
    for steps in range(cfg.max_steps):
        actions = _enabled_actions(state, base, next_inv, cfg, steps)
        if not actions:
            break
        # Fairness: a receive left enabled too long gets forced.
        recvs = [a for a in actions if a[0] == "recv"]
        starved = {a: starved.get(a, 0) + 1 for a in recvs}
        overdue = [a for a in recvs if starved[a] > cfg.fairness]
        pick = policy.choose(overdue or actions)
        starved.pop(pick, None)
        chosen.append(list(pick))

        try:
            if pick[0] == "invoke":
                inv = cfg.invocations[pick[1]]
                block = qgo.qgo_invoke(state, inv["leader"], library[inv["gid"]], ctx)
                next_inv += 1
            elif pick[0] == "recv":
                chan = pick[1]
                dst = sysmodel.chan_endpoints(chan)[1]
                block = qgo.qgo_receive(state, dst, chan, library, ctx)
            else:
                block = base.build(state, pick[1], pick[2], ctx)
            for ev in block:
                state = executions.checked_step(state, ev, seen_ids, executions.step)
        except sysmodel.SysmodelError as exc:
            raise SchedulerError(f"step {steps}: {exc}") from exc
        events.extend(block)
    else:
        raise SchedulerError(f"no quiescence within {cfg.max_steps} steps")

    if next_inv < len(cfg.invocations):
        raise SchedulerError("scenario quiesced before all invocations ran")
    return SimulationResult(
        execution=Execution(initial, tuple(events)),
        config=cfg,
        decisions=chosen,
        final_state=state,
    )
