"""Randomized generation of protocol executions.

At each step the scheduler offers the enabled actions — deliverable
channel heads by sorted channel, base-algorithm actions by sorted
processor, and the next scheduled invocation — and picks one according to
the configured policy.  The chosen action keys are recorded so a run can be
replayed exactly from its trace.

The enabled actions are kept up to date from each block stepped, not
enumerated again at every step, so a step costs the size of its block and
of the action list, not of the system.  A base algorithm's
``enabled(proc, sigma)`` reads only the processor's classical state, so
each processor's actions are kept under the ``sigma`` object they came
from and asked for again only when a block gives it a new one.  The
non-empty channels are kept with the step since which each one's receive
has been enabled and not picked, oldest first, so the receives that
fairness forces become overdue from the front; they are then kept in
sorted order until picked.  The invocation's idle test reads the ``ext``
of the processors a block touched.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .. import executions, qgo, sysmodel
from ..executions import Event, Execution, Receive, Send
from ..qgo import GenContext
from .scenarios import ScenarioConfig, build_scenario


class SchedulerError(Exception):
    pass


@dataclass
class SimulationResult:
    execution: Execution
    decisions: list  # chosen action keys, in order
    final_state: sysmodel.SystemState


def _discard(keys: list, key) -> None:
    """Remove ``key`` from the sorted list ``keys`` if it is there."""
    i = bisect.bisect_left(keys, key)
    if i < len(keys) and keys[i] == key:
        del keys[i]


def _insert(keys: list, key) -> bool:
    """Insert ``key`` into the sorted list ``keys``; whether it was not there."""
    i = bisect.bisect_left(keys, key)
    if i < len(keys) and keys[i] == key:
        return False
    keys.insert(i, key)
    return True


class _Enabled:
    """The enabled receives and base actions of a run, and which processors
    run a global operation, updated block by block."""

    def __init__(self, state: sysmodel.SystemState, base):
        self.base = base
        self.procs = sorted(state.procs)
        self.recvs = [("recv", c) for c in sorted(state.channels)]
        # Each enabled receive is either waiting, under the step since which
        # it has been enabled and not picked, in insertion order (so oldest
        # first), or late: overdue, in sorted order.
        self.waiting = {key[1]: 0 for key in self.recvs}
        self.late = []
        self.by_proc = {}  # proc -> (sigma, its base actions)
        self.active = set()
        self._update_procs(state, self.procs)

    def _update_procs(self, state, procs) -> None:
        changed = False
        for proc in procs:
            sigma = state.classical[proc]
            cached = self.by_proc.get(proc)
            if cached is None or cached[0] is not sigma:
                actions = [("base", proc, a) for a in self.base.enabled(proc, sigma)]
                changed |= cached is None or actions != cached[1]
                self.by_proc[proc] = (sigma, actions)
            if qgo.is_active(state.ext[proc]):
                self.active.add(proc)
            else:
                self.active.discard(proc)
        if changed:
            self.base_actions = [a for p in self.procs for a in self.by_proc[p][1]]

    def update(self, state, block: list[Event], pick, steps: int) -> None:
        """Take in the block of ``pick``, stepped at ``steps`` into ``state``."""
        procs, chans = set(), set()
        for ev in block:
            procs.add(ev.label)
            if isinstance(ev, Send):
                chans.add(ev.msg.channel)
            elif isinstance(ev, Receive):
                chans.add(ev.chan)
        self._update_procs(state, procs)
        picked = pick[1] if pick[0] == "recv" else None
        for chan in chans:
            key, enabled = ("recv", chan), bool(state.queue(chan))
            if chan == picked or not enabled:
                if self.waiting.pop(chan, None) is None:
                    _discard(self.late, key)
                if not enabled:
                    _discard(self.recvs, key)
                else:  # the picked receive waits afresh, as the newest
                    self.waiting[chan] = steps + 1
            elif _insert(self.recvs, key):
                self.waiting[chan] = steps + 1

    def overdue(self, steps: int, fairness: int) -> list:
        """The receives enabled and not picked for more than ``fairness``
        steps, by sorted channel: the late ones, joined by the oldest
        waiting ones that have now waited that long."""
        due = []
        for chan, since in self.waiting.items():
            if steps - since < fairness:
                break
            due.append(chan)
        for chan in due:
            del self.waiting[chan]
            bisect.insort(self.late, ("recv", chan))
        return self.late

    def actions(self, steps: int, next_inv: int, cfg: ScenarioConfig) -> list:
        actions = self.recvs + self.base_actions
        if next_inv < len(cfg.invocations) and not self.active:
            after = int(cfg.invocations[next_inv].get("after_step", 0))
            if steps >= after or not actions:
                actions.append(("invoke", next_inv))
        return actions


class _Policy:
    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator, script=None):
        self.kind = cfg.policy
        self.rng = rng
        self.counter = 0
        self.script = iter(script) if script is not None else None
        if self.kind not in (
            "uniform-random", "round-robin", "channel-delay-biased", "replay"
        ):
            raise SchedulerError(f"unknown policy {cfg.policy!r}")
        if self.kind == "replay" and self.script is None:
            raise SchedulerError("replay policy needs a recorded decision list")

    def choose(self, actions):
        if self.kind == "replay":
            try:
                want = tuple(next(self.script))
            except StopIteration:
                raise SchedulerError("recorded decisions exhausted") from None
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


def _build(state, pick, cfg: ScenarioConfig, base, library, ctx: GenContext) -> list[Event]:
    """The block of action ``pick``, built on ``state``."""
    if pick[0] == "invoke":
        inv = cfg.invocations[pick[1]]
        return qgo.qgo_invoke(state, inv["leader"], library[inv["gid"]], ctx)
    if pick[0] == "recv":
        dst = sysmodel.chan_endpoints(pick[1])[1]
        return qgo.qgo_receive(state, dst, pick[1], library, ctx)
    return base.build(state, pick[1], pick[2], ctx)


def run_simulation(cfg: ScenarioConfig, decisions=None) -> SimulationResult:
    """Generate one execution of the configured scenario.

    With ``decisions`` (and policy "replay") the recorded schedule is
    followed exactly; otherwise the policy drives the choices.  A receive
    enabled and not picked for more than ``cfg.fairness`` steps is overdue,
    and the policy then picks among the overdue receives only.  Each chosen
    action's block is built on the state before it, by the protocol's
    builders or the base algorithm's, and each of its events is stepped
    once through ``executions.checked_step``, as replay steps it.  The
    enabled actions are then updated from the block's processors and
    channels alone (see the module docstring).  A block the system model
    refuses (``SysmodelError``: a reused message id, an outcome of zero
    probability) raises SchedulerError, naming the step.
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
    enabled = _Enabled(state, base)
    for steps in range(cfg.max_steps):
        actions = enabled.overdue(steps, cfg.fairness) or \
            enabled.actions(steps, next_inv, cfg)
        if not actions:
            break
        pick = policy.choose(actions)
        chosen.append(list(pick))

        try:
            block = _build(state, pick, cfg, base, library, ctx)
            for ev in block:
                state = executions.checked_step(state, ev, seen_ids, executions.step)
        except sysmodel.SysmodelError as exc:
            raise SchedulerError(f"step {steps}: {exc}") from exc
        next_inv += pick[0] == "invoke"
        enabled.update(state, block, pick, steps)
        events.extend(block)
    else:
        raise SchedulerError(f"no quiescence within {cfg.max_steps} steps")

    if next_inv < len(cfg.invocations):
        raise SchedulerError("scenario quiesced before all invocations ran")
    return SimulationResult(
        execution=Execution(initial, tuple(events)),
        decisions=chosen,
        final_state=state,
    )
