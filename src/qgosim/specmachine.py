"""The atomic specification of a global operation.

In the specification machine, a leader invokes the operation, a single
AtomicExecute event applies every per-processor and per-in-flight-message
component in one step, and each processor then responds with its share of
the outcomes: its own plus those of the messages that were in flight
towards it, per channel in FIFO order.  The event supplies the outcomes
only: each component is built from the operation on the pre-state.
"""

from __future__ import annotations

from . import executions
from .executions import (
    Apply,
    AtomicExecute,
    Event,
    Execution,
    Invoke,
    Receive,
    Respond,
    Send,
)
from .qcore import ZERO_TRACE
from .qgo import QgoError, global_op_library, incoming_channels, response_record
from .sysmodel import SysmodelError, SystemState, apply_local, evolve


class SpecViolation(SysmodelError):
    """A step the specification machine does not allow; a replay reports it
    as a ReplayError, like any other invalid step."""


def spec_idle_ext(procs) -> dict:
    return {p: None for p in procs}


def apply_atomic(state: SystemState, event: AtomicExecute) -> SystemState:
    """Apply every component of the global operation in one step and hand
    each processor its response record.  The event's outcome for each
    component must be one the component can give."""
    leader = event.label
    if state.ext.get(leader) != {"phase": "invoked", "gid": event.gid}:
        raise SpecViolation(f"leader {leader} has no open invocation of {event.gid}")
    for p in state.procs:
        if p != leader and state.ext.get(p) is not None:
            raise SpecViolation(f"processor {p} busy during atomic execution")
    if sorted(p for p, _ in event.proc_outcomes) != sorted(state.procs):
        raise SpecViolation("per-processor outcomes do not cover the processors")
    msg_ids, in_flight = sorted(m for m, _ in event.msg_outcomes), sorted(state.message_ids())
    if msg_ids != in_flight:
        raise SpecViolation(
            f"message outcomes {msg_ids} do not cover the in-flight messages {in_flight}")

    try:
        gop = global_op_library([event.gid])[event.gid]
        comps = [(p, gop.proc_component(state, p), out) for p, out in event.proc_outcomes]
        for m, out in event.msg_outcomes:
            msg = state.find_message(m)
            comps.append((msg.owner_token, gop.msg_component(state, msg), out))
    except QgoError as exc:  # an unknown gid, or a component it cannot build
        raise SpecViolation(str(exc)) from exc
    for owner, spec, outcome in comps:
        outcomes = spec.qop.outcome_set if spec.qop is not None else (spec.fixed_outcome,)
        if outcome not in outcomes:
            raise SpecViolation(f"{event.gid} on {owner} cannot give outcome {outcome!r}")
        state = apply_local(state, owner, spec.qop, spec.in_regs, spec.out_regs, outcome)
    if state.quantum.trace < ZERO_TRACE:
        raise SpecViolation("atomic outcome combination has zero probability")

    self_outcome = dict(event.proc_outcomes)
    msg_outcome = dict(event.msg_outcomes)
    ext = {}
    for p in state.procs:
        channels = {c: [msg_outcome[m.msg_id] for m in state.queue(c)]
                    for c in incoming_channels(state.procs, p)}
        record = response_record(p, event.gid, self_outcome[p], channels)
        ext[p] = {"phase": "executed", "gid": event.gid, "record": record}
    return evolve(state, ext=ext)


def spec_step(state: SystemState, event: Event) -> SystemState:
    """One guarded step of the specification machine."""
    if isinstance(event, Invoke):
        for p in state.procs:
            if state.ext.get(p) is not None:
                raise SpecViolation(
                    f"invocation while {p} has an operation in progress"
                )
        invoked = {"phase": "invoked", "gid": event.gid}
        return evolve(state, ext={**state.ext, event.label: invoked})

    if isinstance(event, AtomicExecute):
        return apply_atomic(state, event)

    if isinstance(event, Respond):
        cur = state.ext.get(event.label)
        if not (isinstance(cur, dict) and cur.get("phase") == "executed"):
            raise SpecViolation(f"{event.label} has nothing to respond with")
        if event.record != cur["record"]:
            raise SpecViolation(
                f"response record of {event.label} differs from its share"
            )
        return evolve(state, ext={**state.ext, event.label: None})

    if isinstance(event, (Apply, Send, Receive)):
        if event.protocol:
            raise SpecViolation("protocol event in a specification execution")
        if isinstance(event, Send) and event.msg.marker is not None:
            raise SpecViolation("marker message in a specification execution")
        return executions.step(state, event)

    raise SpecViolation(f"event type {type(event).__name__} not allowed here")


def validate_spec_execution(x: Execution) -> SystemState:
    """Replay under the specification machine, keeping only the running
    state: the final state, or a ReplayError at the first failure.  An
    operation still open at the end fails at step n, after the last event."""
    for state in executions.walk(x, spec_step):
        pass
    for p in x.initial.procs:
        if state.ext.get(p) is not None:
            raise executions.ReplayError(len(x.events), f"{p} ends with an open operation")
    return state
