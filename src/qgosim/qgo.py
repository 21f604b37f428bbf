"""Decomposable global operations and the marker protocol that implements
them on top of any base algorithm.

The protocol augments a base algorithm with three procedures: invocation by
a leader, processing a newly seen global operation (apply the local
component, open channel records, broadcast markers), and reception handling
(first marker triggers processing, later markers close channels, messages on
open channels get the operation applied and recorded).  Each procedure
builds a block of events that is atomic on its processor, from the state
before the block, and steps nothing: the scheduler steps each event once
through ``executions.checked_step``.  The step predicate rebuilds each
recorded block once, with the same builders, on the state before it, and
compares it event by event with the record.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import executions, qcore
from .executions import (
    Apply,
    ClassicalUpdate,
    Event,
    Invoke,
    Receive,
    Respond,
    Send,
    register_update,
)
from .qcore import QuantumOperation, RegisterId
from .sysmodel import MessageInstance, SystemState, chan_key, encode_classical


class QgoError(Exception):
    pass


class ConcurrentInvocation(QgoError):
    pass


class AlreadyActive(QgoError):
    pass


class UnknownGlobalOp(QgoError):
    pass


# ---------------------------------------------------------------------------
# Extension state (the per-processor protocol register)
# ---------------------------------------------------------------------------

def idle_ext():
    return {"op": None, "self": None, "res": {}, "waitset": []}


def is_active(ext) -> bool:
    return bool(ext) and ext.get("op") is not None


def incoming_channels(procs, proc) -> list[str]:
    return sorted(chan_key(p, proc) for p in procs)


def response_record(proc, gid, self_outcome, channels) -> dict:
    """A processor's response: its own outcome and, per incoming channel,
    the outcomes of the messages recorded on it."""
    return {
        "proc": proc,
        "gid": gid,
        "self": self_outcome,
        "channels": dict(sorted(channels.items())),
    }


@register_update("qgo.start")
def _qgo_start(sigma, ext, outcome, params):
    gid, trigger, incoming = params
    waitset = [c for c in incoming if c != trigger]
    ext = {
        "op": gid,
        "self": outcome,
        "res": {c: [] for c in incoming},
        "waitset": waitset,
    }
    return sigma, ext


@register_update("qgo.marker_close")
def _qgo_marker_close(sigma, ext, outcome, params):
    (chan,) = params
    return sigma, {**ext, "waitset": [c for c in ext["waitset"] if c != chan]}


@register_update("qgo.record")
def _qgo_record(sigma, ext, outcome, params):
    (chan,) = params
    res = ext["res"]
    return sigma, {**ext, "res": {**res, chan: res.get(chan, []) + [outcome]}}


@register_update("qgo.respond")
def _qgo_respond(sigma, ext, outcome, params):
    return sigma, idle_ext()


# ---------------------------------------------------------------------------
# Decomposable global operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalOpSpec:
    """One component of a decomposable global operation, instantiated for a
    concrete processor or message.

    ``qop`` is None for purely classical components, in which case
    ``fixed_outcome`` supplies the (deterministic) recorded outcome.
    """

    qop: QuantumOperation | None
    in_regs: tuple[RegisterId, ...] = ()
    out_regs: tuple[RegisterId, ...] = ()
    fixed_outcome: str | None = None


class DecomposableGlobalOp:
    """A global operation factoring into per-processor and per-message parts:
    each is the one local operation ``local`` states for a component's
    classical state and registers."""

    gid: str

    def local(self, classical, regs: tuple[RegisterId, ...]) -> LocalOpSpec:
        raise NotImplementedError

    def proc_component(self, state: SystemState, proc: str) -> LocalOpSpec:
        return self.local(state.classical[proc], state.owned_by(proc))

    def msg_component(self, state: SystemState, msg: MessageInstance) -> LocalOpSpec:
        return self.local(msg.classical, msg.quantum_regs)


def outcome_label(classical_part, quantum_part) -> str:
    return json.dumps({"c": classical_part, "q": quantum_part}, sort_keys=True)


class SnapshotMeasure(DecomposableGlobalOp):
    """Measure every register in the standard basis and record every
    classical state: the quantum analogue of a global snapshot."""

    gid = "snapshot-measure"

    def local(self, classical, regs):
        enc = encode_classical(classical)
        if not regs:
            return LocalOpSpec(None, fixed_outcome=outcome_label(enc, None))
        meas = qcore.standard_basis_measurement([r.dim for r in regs])
        meas = qcore.relabel_outcomes(meas, lambda q: outcome_label(enc, q))
        return LocalOpSpec(meas, regs, regs)


class RecordOnly(DecomposableGlobalOp):
    """Record classical states without disturbing anything: the classical
    snapshot special case."""

    gid = "record-only"

    def local(self, classical, regs):
        return LocalOpSpec(None, fixed_outcome=outcome_label(encode_classical(classical), None))


class GlobalEncrypt(DecomposableGlobalOp):
    """One-time-pad every register with a uniformly sampled Pauli; the
    sampled key is the recorded outcome."""

    gid = "global-encrypt"

    @staticmethod
    @functools.cache
    def _pad(n_qubits: int) -> QuantumOperation:
        """The pad on ``n_qubits`` qubits, built once per count."""
        pad = qcore.pauli_pad_operation(n_qubits)
        return qcore.relabel_outcomes(pad, lambda k: outcome_label(None, k))

    def local(self, classical, regs):
        if any(r.dim != 2 for r in regs):
            raise QgoError("pauli pad requires qubit registers")
        if not regs:
            return LocalOpSpec(None, fixed_outcome=outcome_label(None, ""))
        return LocalOpSpec(self._pad(len(regs)), regs, regs)


BUILTIN_GLOBAL_OPS = {
    SnapshotMeasure.gid: SnapshotMeasure,
    RecordOnly.gid: RecordOnly,
    GlobalEncrypt.gid: GlobalEncrypt,
}


def library_op(library: dict, gid):
    """The entry ``gid`` of ``library``; UnknownGlobalOp if it has none."""
    if gid not in library:
        raise UnknownGlobalOp(f"unknown global operation {gid!r}")
    return library[gid]


def global_op_library(gids) -> dict[str, DecomposableGlobalOp]:
    return {gid: library_op(BUILTIN_GLOBAL_OPS, gid)() for gid in gids}


# ---------------------------------------------------------------------------
# Event generation context
# ---------------------------------------------------------------------------

def _take(it: Iterator, what: str):
    """The next value of ``it``; QgoError once it is exhausted, which a
    recorded execution is when it ends inside a block."""
    try:
        return next(it)
    except StopIteration:
        raise QgoError(f"no {what} left to build the block with") from None


@dataclass
class GenContext:
    """Where built events take their ids and outcomes from, in order.

    Generation counts ids from 0 and draws each outcome with ``rng``.  The
    step predicate rebuilds a recorded block from ``recorded``, which
    yields the recorded ids and outcomes instead, so it draws nothing.
    """

    rng: np.random.Generator | None
    eids: Iterator[int] = field(default_factory=itertools.count)
    msg_ids: Iterator[int] = field(default_factory=itertools.count)
    outcomes: Iterator[str | None] = field(default_factory=lambda: itertools.repeat(None))

    @classmethod
    def recorded(cls, events) -> "GenContext":
        """The eids of ``events``, the ids of the messages they send and the
        outcomes of their Applies."""
        return cls(
            None,
            eids=(e.eid for e in events),
            msg_ids=(e.msg.msg_id for e in events if isinstance(e, Send)),
            outcomes=(e.outcome for e in events if isinstance(e, Apply)),
        )

    def eid(self) -> int:
        return _take(self.eids, "event id")

    def msg_id(self) -> int:
        return _take(self.msg_ids, "message id")


def choose_outcome(state: SystemState, spec: LocalOpSpec, ctx: GenContext) -> str:
    """The fixed outcome of a classical component; otherwise the context's
    next outcome, or, where it has none, a draw with its physical
    probability (every builtin component with an operation has at least
    two outcomes)."""
    outcome = _take(ctx.outcomes, "outcome")
    if spec.qop is None:
        assert spec.fixed_outcome is not None
        return spec.fixed_outcome
    if outcome is not None:
        return outcome
    return qcore.draw_outcome(state.quantum, spec.qop, spec.in_regs, spec.out_regs, ctx.rng)


# ---------------------------------------------------------------------------
# The protocol's events, built once for generation and for the predicate
# ---------------------------------------------------------------------------

def _component_apply(state: SystemState, proc: str, kind: str, gop: DecomposableGlobalOp,
                     spec: LocalOpSpec, update: ClassicalUpdate, target: int | None,
                     ctx: GenContext) -> Apply:
    """The Apply on ``proc`` of ``gop``'s ``kind`` component ("self" or
    "msg", on message ``target``), built by the caller as ``spec``; it
    takes its eid from ``ctx``, then its outcome."""
    return Apply(eid=ctx.eid(), label=proc, name=f"gop-{kind}:{gop.gid}",
                 outcome=choose_outcome(state, spec, ctx), qop=spec.qop,
                 in_regs=spec.in_regs, out_regs=spec.out_regs, update=update,
                 target_msg=target, protocol=True)


def gop_self_apply(
    state: SystemState,
    proc: str,
    gop: DecomposableGlobalOp,
    trigger: str | None,
    ctx: GenContext,
) -> Apply:
    """The local component of ``gop`` on idle ``proc``, opening its records;
    ``trigger`` is the incoming channel of the marker that started it, if
    any."""
    if is_active(state.ext[proc]):
        raise AlreadyActive(f"processor {proc} already running {state.ext[proc]['op']}")
    incoming = tuple(incoming_channels(state.procs, proc))
    if trigger is not None and trigger not in incoming:
        raise QgoError(f"trigger {trigger!r} is not an incoming channel of {proc}")
    spec = gop.proc_component(state, proc)
    start = ClassicalUpdate("qgo.start", (gop.gid, trigger, incoming))
    return _component_apply(state, proc, "self", gop, spec, start, None, ctx)


def marker_send(proc: str, dest: str, gid: str | None, ctx: GenContext) -> Send:
    """The marker of operation ``gid`` from ``proc`` to ``dest``; a marker of
    no operation (``gid`` None, an idle processor's) is refused."""
    if gid is None:
        raise QgoError(f"processor {proc} runs no operation to send a marker for")
    msg = MessageInstance(
        msg_id=ctx.msg_id(),
        src=proc,
        dst=dest,
        classical={"kind": "marker", "gid": gid},
        marker=gid,
    )
    return Send(eid=ctx.eid(), label=proc, msg=msg, protocol=True)


def respond(proc: str, ext, ctx: GenContext) -> Respond:
    """The response of ``proc`` once all its channels are closed."""
    if not is_active(ext):
        raise QgoError(f"processor {proc} runs no operation to respond to")
    if ext["waitset"]:
        raise QgoError(f"processor {proc} still waits on {ext['waitset'][0]}")
    record = response_record(proc, ext["op"], ext["self"], ext["res"])
    return Respond(eid=ctx.eid(), label=proc, record=record,
                   update=ClassicalUpdate("qgo.respond"))


class AugmentedPredicate:
    """Step predicate of the base algorithm augmented with the marker
    protocol, as the blocks ``executions.validate`` asks for.  An Invoke or
    a Receive starts the block its procedure builds on the pre-state; a
    procedure that raises ``QgoError`` refuses it, with the error's message
    as the reason.  Any other event starts a block of one of the base
    algorithm's actions enabled at its label that the record's ids and
    outcomes can build."""

    def __init__(self, base, library: dict[str, DecomposableGlobalOp]):
        self.base = base
        self.library = library

    def blocks(self, pre, events, i):
        event, rest = events[i], events[i:]
        try:
            if isinstance(event, Invoke):
                gop = library_op(self.library, event.gid)
                return [qgo_invoke(pre, event.label, gop, GenContext.recorded(rest))]
            if isinstance(event, Receive):
                return [qgo_receive(pre, event.label, event.chan, self.library,
                                    GenContext.recorded(rest))]
        except QgoError as exc:
            raise executions.BlockRefused(str(exc)) from exc
        label, blocks = event.label, []
        for action in self.base.enabled(label, pre.classical[label]):
            try:
                blocks.append(self.base.build(pre, label, action, GenContext.recorded(rest)))
            except QgoError:  # the record holds no block of this action
                continue
        return blocks


# ---------------------------------------------------------------------------
# The three protocol procedures
# ---------------------------------------------------------------------------

def qgo_process_new_global_op(
    state: SystemState,
    proc: str,
    gop: DecomposableGlobalOp,
    chan: str | None,
    ctx: GenContext,
) -> list[Event]:
    """Apply the local component, open records, broadcast markers.

    ``chan`` is the channel the triggering marker arrived on, or None for
    the invoking leader; that channel's record is closed empty.
    """
    return [gop_self_apply(state, proc, gop, chan, ctx),
            *(marker_send(proc, dest, gop.gid, ctx) for dest in sorted(state.procs))]


def qgo_invoke(
    state: SystemState,
    proc: str,
    gop: DecomposableGlobalOp,
    ctx: GenContext,
) -> list[Event]:
    """Leader invocation: the Invoke event plus the processing block."""
    for p in state.procs:
        if is_active(state.ext[p]):
            raise ConcurrentInvocation(
                f"processor {p} still running {state.ext[p]['op']}"
            )
    invoke = Invoke(eid=ctx.eid(), label=proc, gid=gop.gid)
    return [invoke] + qgo_process_new_global_op(state, proc, gop, None, ctx)


def qgo_receive(
    state: SystemState,
    proc: str,
    chan: str,
    library: dict[str, DecomposableGlobalOp],
    ctx: GenContext,
) -> list[Event]:
    """Reception handling for the head of non-empty ``chan``, per the marker
    protocol; the step of the Receive checks the channel.

    A Receive moves no quantum entries, and a marker's changes no classical
    state, so the rest of the block is built on ``state`` as well.
    """
    msg = state.queue(chan)[0]
    ext = state.ext[proc]

    if msg.marker is not None:
        gop = library_op(library, msg.marker)
        if not is_active(ext):  # The first marker starts the operation.
            recv = Receive(eid=ctx.eid(), label=proc, chan=chan, msg_id=msg.msg_id,
                           protocol=True)
            return [recv] + qgo_process_new_global_op(state, proc, gop, chan, ctx)
        # A later one closes its channel, and the processor responds once
        # all are closed.
        if chan not in ext["waitset"]:
            raise QgoError(f"processor {proc} does not wait for a marker on {chan}")
        close = ClassicalUpdate("qgo.marker_close", (chan,))
        recv = Receive(eid=ctx.eid(), label=proc, chan=chan, msg_id=msg.msg_id,
                       update=close, protocol=True)
        _, ext = executions.run_update(close, state.classical[proc], ext, None)
        return [recv, respond(proc, ext, ctx)] if not ext["waitset"] else [recv]

    # Regular message.
    recv = Receive(eid=ctx.eid(), label=proc, chan=chan, msg_id=msg.msg_id)
    if not (is_active(ext) and chan in ext["waitset"]):
        return [recv]
    gop = library[ext["op"]]
    spec = gop.msg_component(state, msg)
    record = ClassicalUpdate("qgo.record", (chan,))
    return [recv, _component_apply(state, proc, "msg", gop, spec, record, msg.msg_id, ctx)]
