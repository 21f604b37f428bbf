"""Events, executions, and deterministic replay.

An event records everything needed to reproduce its effect: measurement
outcomes, the concrete quantum operation, and a named classical-update
descriptor resolved through a registry.  Replaying an execution is therefore
fully deterministic and needs no random source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from . import qcore, sysmodel
from .qcore import ZERO_TRACE, QuantumOperation, RegisterId
from .sysmodel import MessageInstance, SystemState


class ReplayError(Exception):
    def __init__(self, index: int, reason: str):
        super().__init__(f"invalid step at index {index}: {reason}")
        self.index = index
        self.reason = reason


class UpdateFailed(sysmodel.SysmodelError):
    """A classical update raised on the state it was given."""


class BlockRefused(Exception):
    """A step predicate refuses the block that starts at an event; the
    message says why."""


# ---------------------------------------------------------------------------
# Classical updates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalUpdate:
    """A named, serializable classical state transformation."""

    name: str
    params: tuple = ()


_UPDATES: dict[str, Callable] = {}


def register_update(name: str):
    """Register ``fn(sigma, ext, outcome, params) -> (sigma, ext)`` as
    ``name``.  An update is pure: it builds its results from its arguments
    and never mutates them, so states may share classical values."""
    def deco(fn):
        _UPDATES[name] = fn
        return fn
    return deco


def run_update(update: ClassicalUpdate, sigma, ext, outcome):
    """Apply a pure update (see ``register_update``) to (sigma, ext) as given."""
    fn = _UPDATES.get(update.name)
    if fn is None:
        raise KeyError(f"unknown classical update {update.name!r}")
    try:
        return fn(sigma, ext, outcome, update.params)
    except DATA_ERRORS as exc:
        raise UpdateFailed(f"classical update {update.name!r} failed: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Invoke:
    eid: int
    label: str
    gid: str
    protocol: bool = False  # invocations always pass the history filter


@dataclass(frozen=True)
class Respond:
    eid: int
    label: str
    record: Any  # response record, a JSON-able dict
    update: ClassicalUpdate | None = None
    protocol: bool = False


@dataclass(frozen=True)
class Apply:
    eid: int
    label: str
    name: str
    outcome: str
    qop: QuantumOperation | None = None
    in_regs: tuple[RegisterId, ...] = ()
    out_regs: tuple[RegisterId, ...] = ()
    update: ClassicalUpdate | None = None
    target_msg: int | None = None
    protocol: bool = False


@dataclass(frozen=True)
class Send:
    eid: int
    label: str
    msg: MessageInstance
    update: ClassicalUpdate | None = None
    protocol: bool = False


@dataclass(frozen=True)
class Receive:
    eid: int
    label: str
    chan: str
    msg_id: int
    update: ClassicalUpdate | None = None
    protocol: bool = False


@dataclass(frozen=True)
class AtomicExecute:
    """Specification-only event: the global operation hits every processor
    and every in-flight message in one step.  It carries the outcomes only;
    the specification machine builds the components from the operation."""

    eid: int
    label: str  # leader processor
    gid: str
    proc_outcomes: tuple = ()  # (proc, outcome) pairs
    msg_outcomes: tuple = ()  # (msg_id, outcome) pairs
    protocol: bool = True


Event = Invoke | Respond | Apply | Send | Receive | AtomicExecute


def in_filter(event: Event) -> bool:
    """The history filter: invocations, responses, and base-algorithm events."""
    if isinstance(event, (Invoke, Respond)):
        return True
    return not event.protocol


# ---------------------------------------------------------------------------
# Executions and replay
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Execution:
    """Initial state plus a totally ordered finite event sequence."""

    initial: SystemState
    events: tuple[Event, ...]

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))


# What an invalid step raises: a replay reports any of these as a ReplayError.
STEP_ERRORS = (sysmodel.SysmodelError, qcore.QcoreError, KeyError)
# What an update or a predicate raises on a state it cannot read: a refused step.
DATA_ERRORS = (TypeError, ValueError, KeyError, IndexError, AttributeError)


def _run_on(state: SystemState, proc: str, update, outcome) -> SystemState:
    """Run ``update`` on ``proc``'s (sigma, ext) and store the result."""
    if update is None:
        return state
    sigma, ext = run_update(update, state.classical[proc], state.ext[proc], outcome)
    return sysmodel.evolve(state, classical={**state.classical, proc: sigma},
                           ext={**state.ext, proc: ext})


def step(state: SystemState, event: Event) -> SystemState:
    """Apply a single event under the distributed-algorithm semantics.

    Every event runs on its label: an Apply's input registers must belong
    to it, and each event's own classical update runs once, at the end, on
    its state, with an Apply's outcome or a Respond's record as the update's
    outcome.  An Apply whose ``target_msg`` is still in flight must carry
    the message's owner token, ``msg:<id>``, as its label, which no parsed
    or generated event does, so only the verifier's reordered execution has
    one.  Its outcome is filed in the receiver's record of the channel in
    the same step, as the atomic step files it; its own update does not
    run.  Once the message is received, the token owns no register and has
    no classical state, so such an Apply is refused if it reads a register
    (by the locality check) or runs an update.
    """
    if isinstance(event, Invoke):
        # Invocation touches only the extension state; the bookkeeping is
        # carried by the operation event that follows it.
        return state

    proc, outcome = event.label, None
    if isinstance(event, Apply):
        outcome = event.outcome
        msg = None if event.target_msg is None else state.find_message(event.target_msg)
        if msg is not None and proc != msg.owner_token:
            raise sysmodel.SysmodelError(
                f"event {event.eid} acts on message {event.target_msg} in flight")
        state = sysmodel.apply_local(state, proc, event.qop, event.in_regs,
                                     event.out_regs, outcome)
        if event.qop is not None:
            prob = state.quantum.trace
            if not math.isfinite(prob):
                raise sysmodel.SysmodelError(f"outcome {outcome!r} has probability {prob}")
            if prob < ZERO_TRACE:
                raise sysmodel.SysmodelError(f"outcome {outcome!r} has zero probability")
        if msg is not None:
            record = ClassicalUpdate("qgo.record", (msg.channel,))
            return _run_on(state, msg.dst, record, outcome)
    elif isinstance(event, Send):
        state = sysmodel.send(state, proc, event.msg)
    elif isinstance(event, Receive):
        state = sysmodel.receive(state, proc, event.chan, event.msg_id)
    elif isinstance(event, Respond):
        outcome = event.record
    else:
        raise sysmodel.SysmodelError(f"event type {type(event).__name__} cannot be stepped")
    return _run_on(state, proc, event.update, outcome)


def checked_step(state: SystemState, event: Event, seen_ids: set,
                 step_fn: Callable) -> SystemState:
    """``step_fn(state, event)`` unless the event is a Send that reuses an
    id of ``seen_ids`` (in flight initially or sent before), which gains the
    Send's id.  Replay and generation both step here; ``send`` checks no ids."""
    if isinstance(event, Send):
        if event.msg.msg_id in seen_ids:
            raise sysmodel.SysmodelError(f"message id {event.msg.msg_id} reused")
        seen_ids.add(event.msg.msg_id)
    return step_fn(state, event)


def walk(x: Execution, step_fn: Callable | None = None) -> Iterator[SystemState]:
    """Replay ``x``, yielding the states Ψ^0 .. Ψ^n one at a time, so that a
    caller keeps only the states it reads.

    ``step_fn`` is the machine's step function: ``step`` unless given, so
    the specification machine passes its own.  Each event goes through
    ``checked_step``.  Deterministic: every outcome is fixed inside its
    event.  Raises ReplayError (with the failing index) on any invalid step,
    including receive-before-send, FIFO violations, reused message ids, and
    zero-probability outcomes.
    """
    if step_fn is None:
        step_fn = step
    seen_ids = x.initial.message_ids()
    state = x.initial
    yield state
    for i, event in enumerate(x.events):
        try:
            state = checked_step(state, event, seen_ids, step_fn)
        except STEP_ERRORS as exc:
            raise ReplayError(i, str(exc)) from exc
        yield state


def replay(x: Execution) -> list[SystemState]:
    """``walk``'s states under ``step`` as one list, Ψ^0 .. Ψ^n, for a
    caller that reads them by position."""
    return list(walk(x))


# ---------------------------------------------------------------------------
# Transition predicates
# ---------------------------------------------------------------------------

def _agreeing(block: list[Event], events: tuple[Event, ...], i: int) -> int:
    """How many leading events of ``block`` equal ``events[i:]``."""
    n = 0
    while n < len(block) and i + n < len(events) and block[n] == events[i + n]:
        n += 1
    return n


def validate(predicate, x: Execution) -> SystemState:
    """The final state of ``x`` if it is well formed and is a sequence of
    local steps the step predicate allows; else a ReplayError, as ``replay``
    raises, with the index of the step refused.

    A local step is a block of events, atomic on its processor, and
    contiguous in x.  ``predicate.blocks(pre, x.events, i)`` gives the
    blocks that may start at event i on its pre-state, built with the ids
    and outcomes of ``x.events[i:]`` in order; the first one whose events
    all equal x's next events is taken.  Generation emits each block whole,
    so its executions always split this way.  A refusal names the first
    event that differs from the block that agrees longest, or, where the
    predicate raises ``BlockRefused``, event i and the predicate's reason.
    """
    try:
        states = replay(x)
    except ReplayError as exc:
        raise ReplayError(exc.index, f"not well formed: {exc.reason}") from exc
    i = 0
    while i < len(x.events):
        try:
            blocks = predicate.blocks(states[i], x.events, i)
        except BlockRefused as exc:
            raise ReplayError(i, f"step {i} not allowed by predicate: {exc}") from exc
        except DATA_ERRORS as exc:
            raise ReplayError(i, f"step {i} not allowed by predicate: {exc!r}") from exc
        agree = [_agreeing(b, x.events, i) for b in blocks]
        match = next((n for b, n in zip(blocks, agree) if n == len(b) > 0), None)
        if match is None:
            j = i + max(agree, default=0)
            raise ReplayError(j, f"step {j} not allowed by predicate")
        i += match
    return states[-1]
