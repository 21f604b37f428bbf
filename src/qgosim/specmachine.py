"""The atomic specification of a global operation.

In the specification machine, a leader invokes the operation, a single
AtomicExecute event applies every per-processor and per-in-flight-message
component in one step, and each processor then responds with its share of
the outcomes: its own plus those of the messages that were in flight
towards it, per channel in FIFO order.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

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
    ValidationResult,
    run_update,
)
from .qcore import ZERO_TRACE
from .qgo import incoming_channels, response_record
from .sysmodel import SysmodelError, SystemState, apply_quantum


class SpecViolation(SysmodelError):
    """A step the specification machine does not allow; a replay reports it
    as a ReplayError, like any other invalid step."""


def spec_idle_ext(procs) -> dict:
    return {p: None for p in procs}


def apply_atomic(state: SystemState, event: AtomicExecute) -> SystemState:
    """Apply every component of the global operation in one step and hand
    each processor its response record."""
    leader = event.label
    if state.ext.get(leader) != {"phase": "invoked", "gid": event.gid}:
        raise SpecViolation(f"leader {leader} has no pending invocation of {event.gid}")
    for p in state.procs:
        if p != leader and state.ext.get(p) is not None:
            raise SpecViolation(f"processor {p} busy during atomic execution")

    comp_procs = [c[0] for c in event.proc_comps]
    if sorted(comp_procs) != sorted(state.procs) or len(set(comp_procs)) != len(comp_procs):
        raise SpecViolation("per-processor components do not cover the processors")
    in_flight = state.message_ids()
    comp_msgs = [c[0] for c in event.msg_comps]
    if set(comp_msgs) != in_flight or len(set(comp_msgs)) != len(comp_msgs):
        raise SpecViolation(
            f"message components {sorted(comp_msgs)} do not cover the "
            f"in-flight messages {sorted(in_flight)}"
        )

    classical = dict(state.classical)
    for proc, qop, in_regs, out_regs, outcome, cop_update in event.proc_comps:
        state = apply_quantum(state, qop, in_regs, out_regs, outcome, proc)
        sigma, _ = run_update(cop_update, classical[proc], None, outcome)
        classical[proc] = sigma
    for msg_id, qop, in_regs, out_regs, outcome in event.msg_comps:
        msg = state.find_message(msg_id)
        state = apply_quantum(state, qop, in_regs, out_regs, outcome, msg.owner_token)

    if state.quantum.trace < ZERO_TRACE:
        raise SpecViolation("atomic outcome combination has zero probability")

    self_outcome = {c[0]: c[4] for c in event.proc_comps}
    msg_outcome = {c[0]: c[4] for c in event.msg_comps}
    ext = {}
    for p in state.procs:
        channels = {c: [msg_outcome[m.msg_id] for m in state.channels[c]]
                    for c in incoming_channels(state.procs, p)}
        record = response_record(p, event.gid, self_outcome[p], channels)
        ext[p] = {"phase": "executed", "gid": event.gid, "record": record}
    return dc_replace(state, classical=classical, ext=ext)


def spec_step(state: SystemState, event: Event) -> SystemState:
    """One guarded step of the specification machine."""
    if isinstance(event, Invoke):
        for p in state.procs:
            if state.ext.get(p) is not None:
                raise SpecViolation(
                    f"invocation while {p} has an operation in progress"
                )
        invoked = {"phase": "invoked", "gid": event.gid}
        return dc_replace(state, ext={**state.ext, event.label: invoked})

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
        return dc_replace(state, ext={**state.ext, event.label: None})

    if isinstance(event, (Apply, Send, Receive)):
        if event.protocol:
            raise SpecViolation("protocol event in a specification execution")
        if isinstance(event, Send) and event.msg.marker is not None:
            raise SpecViolation("marker message in a specification execution")
        return executions.step(state, event)

    raise SpecViolation(f"event type {type(event).__name__} not allowed here")


def validate_spec_execution(x: Execution) -> ValidationResult:
    """Replay under the specification machine, reporting the first failure."""
    try:
        state = executions.replay(x, spec_step)[-1]
    except executions.ReplayError as exc:
        return ValidationResult(False, exc.index, exc.reason)
    for p in x.initial.procs:
        if state.ext.get(p) is not None:
            return ValidationResult(False, None, f"{p} ends with an open operation")
    return ValidationResult(True)
