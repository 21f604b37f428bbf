"""Events, executions, and deterministic replay.

An event records everything needed to reproduce its effect: measurement
outcomes, the concrete quantum operation, and a named classical-update
descriptor resolved through a registry.  Replaying an execution is therefore
fully deterministic and needs no random source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

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


def run_update(update: ClassicalUpdate | None, sigma, ext, outcome):
    """Apply a pure update (see ``register_update``) to (sigma, ext) as given."""
    if update is None:
        return sigma, ext
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


@dataclass(frozen=True, eq=False)
class Apply:
    eid: int
    label: str
    proc: str
    name: str
    outcome: str
    qop: QuantumOperation | None = None
    in_regs: tuple[RegisterId, ...] = ()
    out_regs: tuple[RegisterId, ...] = ()
    update: ClassicalUpdate | None = None
    target_msg: int | None = None
    protocol: bool = False


@dataclass(frozen=True, eq=False)
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
    if isinstance(event, AtomicExecute):
        return False
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

    Each event's own classical update runs once, at the end, on the
    processor named by its label (an Apply's ``proc``).
    """
    if isinstance(event, Invoke):
        # Invocation touches only the extension state; the bookkeeping is
        # carried by the operation event that follows it.
        return state

    proc, outcome = event.label, None
    if isinstance(event, Apply):
        proc, outcome = event.proc, event.outcome
        in_flight = (None if event.target_msg is None
                     else state.find_message(event.target_msg))
        state = sysmodel.apply_local(
            state, proc, event.qop, event.in_regs, event.out_regs, outcome, in_flight,
        )
        if event.qop is not None and state.quantum.trace < ZERO_TRACE:
            raise sysmodel.SysmodelError(f"outcome {outcome!r} has zero probability")
        if in_flight is not None:
            # Outcome parked in the message's pending slot; it is filed in
            # the receiver's channel record when the message is received.
            return state
    elif isinstance(event, Send):
        state = sysmodel.send(state, proc, event.msg)
    elif isinstance(event, Receive):
        state, msg = sysmodel.receive(state, proc, event.chan, event.msg_id)
        if msg.pending is not None:
            # The outcome recorded in flight, filed as if recorded now.
            record = ClassicalUpdate("qgo.record", (event.chan,))
            state = _run_on(state, proc, record, msg.pending)
    elif not isinstance(event, Respond):
        raise TypeError(f"unknown event type {type(event)!r}")
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


def replay(x: Execution, step_fn: Callable | None = None) -> list[SystemState]:
    """Replay, returning the full state sequence Ψ^0 .. Ψ^n.

    ``step_fn`` is the machine's step function: ``step`` unless given, so
    the specification machine passes its own.  Each event goes through
    ``checked_step``.  Deterministic: every outcome is fixed inside its
    event.  Raises ReplayError (with the failing index) on any invalid step,
    including receive-before-send, FIFO violations, reused message ids, and
    zero-probability outcomes.
    """
    if step_fn is None:
        step_fn = step
    states = [x.initial]
    seen_ids = x.initial.message_ids()
    state = x.initial
    for i, event in enumerate(x.events):
        try:
            state = checked_step(state, event, seen_ids, step_fn)
        except STEP_ERRORS as exc:
            raise ReplayError(i, str(exc)) from exc
        states.append(state)
    return states


# ---------------------------------------------------------------------------
# Transition predicates
# ---------------------------------------------------------------------------

class TransitionPredicate:
    """A step predicate assembled from per-processor local predicates."""

    def allows(self, pre: SystemState, event: Event, post: SystemState) -> bool:
        raise NotImplementedError


@dataclass
class ValidationResult:
    valid: bool
    first_failure: int | None = None
    reason: str = ""
    final: SystemState | None = None  # the replay's last state, once it completed

    def __bool__(self):
        return self.valid


def validate(predicate: TransitionPredicate, x: Execution) -> ValidationResult:
    """True iff the execution is well formed and every step is allowed."""
    try:
        states = replay(x)
    except ReplayError as exc:
        return ValidationResult(False, exc.index, f"not well formed: {exc.reason}")
    for i, event in enumerate(x.events):
        try:
            if not predicate.allows(states[i], event, states[i + 1]):
                return ValidationResult(False, i, f"step {i} not allowed by predicate")
        except DATA_ERRORS as exc:
            return ValidationResult(False, i, f"step {i} not allowed by predicate: {exc!r}")
    return ValidationResult(True, final=states[-1])
