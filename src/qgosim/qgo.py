"""Decomposable global operations and the marker protocol that implements
them on top of any base algorithm.

The protocol augments a base algorithm with three procedures: invocation by
a leader, processing a newly seen global operation (apply the local
component, open channel records, broadcast markers), and reception handling
(first marker triggers processing, later markers close channels, messages on
open channels get the operation applied and recorded).  Each procedure emits
a block of events that is atomic on its processor.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields

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
    step,
)
from .qcore import OP_ATOL, OP_RTOL, QuantumOperation, RegisterId, RegisterMap
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
    """A global operation factoring into per-processor and per-message parts."""

    gid: str

    def proc_component(self, state: SystemState, proc: str) -> LocalOpSpec:
        raise NotImplementedError

    def msg_component(self, state: SystemState, msg: MessageInstance) -> LocalOpSpec:
        raise NotImplementedError


def outcome_label(classical_part, quantum_part) -> str:
    return json.dumps({"c": classical_part, "q": quantum_part}, sort_keys=True)


class SnapshotMeasure(DecomposableGlobalOp):
    """Measure every register in the standard basis and record every
    classical state: the quantum analogue of a global snapshot."""

    gid = "snapshot-measure"

    def _component(self, enc, regs):
        if not regs:
            return LocalOpSpec(None, fixed_outcome=outcome_label(enc, None))
        meas = qcore.standard_basis_measurement([r.dim for r in regs])
        meas = qcore.relabel_outcomes(meas, lambda q: outcome_label(enc, q))
        return LocalOpSpec(meas, tuple(regs), tuple(regs))

    def proc_component(self, state, proc):
        return self._component(encode_classical(state.classical[proc]), state.owned_by(proc))

    def msg_component(self, state, msg):
        return self._component(encode_classical(msg.classical), msg.quantum_regs)


class RecordOnly(DecomposableGlobalOp):
    """Record classical states without disturbing anything: the classical
    snapshot special case."""

    gid = "record-only"

    def proc_component(self, state, proc):
        enc = encode_classical(state.classical[proc])
        return LocalOpSpec(None, fixed_outcome=outcome_label(enc, None))

    def msg_component(self, state, msg):
        enc = encode_classical(msg.classical)
        return LocalOpSpec(None, fixed_outcome=outcome_label(enc, None))


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

    def _component(self, regs):
        if any(r.dim != 2 for r in regs):
            raise QgoError("pauli pad requires qubit registers")
        if not regs:
            return LocalOpSpec(None, fixed_outcome=outcome_label(None, ""))
        return LocalOpSpec(self._pad(len(regs)), tuple(regs), tuple(regs))

    def proc_component(self, state, proc):
        return self._component(state.owned_by(proc))

    def msg_component(self, state, msg):
        return self._component(msg.quantum_regs)


BUILTIN_GLOBAL_OPS = {
    SnapshotMeasure.gid: SnapshotMeasure,
    RecordOnly.gid: RecordOnly,
    GlobalEncrypt.gid: GlobalEncrypt,
}


def global_op_library(gids) -> dict[str, DecomposableGlobalOp]:
    lib = {}
    for gid in gids:
        if gid not in BUILTIN_GLOBAL_OPS:
            raise UnknownGlobalOp(f"unknown global operation {gid!r}")
        lib[gid] = BUILTIN_GLOBAL_OPS[gid]()
    return lib


# ---------------------------------------------------------------------------
# Event generation context
# ---------------------------------------------------------------------------

@dataclass
class GenContext:
    """Counters and the outcome RNG used while generating events.

    ``outcome`` is set only to rebuild a given event (``rebuilding``); it
    then replaces the random draw.  Generation leaves it None.
    """

    rng: np.random.Generator
    next_eid: int = 0
    next_msg_id: int = 0
    outcome: str | None = None

    @classmethod
    def rebuilding(cls, event: Event) -> "GenContext":
        """Counters that start at the event's ids, and its outcome forced.
        The RNG draws only for an outcome the operation cannot give; any
        draw then differs from the event's."""
        msg = getattr(event, "msg", None)
        return cls(
            np.random.default_rng(0),
            next_eid=event.eid,
            next_msg_id=msg.msg_id if msg is not None else 0,
            outcome=getattr(event, "outcome", None),
        )

    def eid(self) -> int:
        e = self.next_eid
        self.next_eid += 1
        return e

    def msg_id(self) -> int:
        m = self.next_msg_id
        self.next_msg_id += 1
        return m


def choose_outcome(state: SystemState, spec: LocalOpSpec, ctx: GenContext) -> str:
    """Draw an outcome with its physical probability (or take the fixed one).
    A forced outcome replaces the draw when the operation can give it."""
    if spec.qop is None:
        assert spec.fixed_outcome is not None
        return spec.fixed_outcome
    if ctx.outcome is not None and ctx.outcome in spec.qop.outcome_set:
        return ctx.outcome
    if len(spec.qop.outcome_set) == 1:
        return spec.qop.outcome_set[0]
    regmap = RegisterMap(spec.in_regs, spec.out_regs)
    return qcore.draw_outcome(state.quantum, spec.qop, regmap, ctx.rng)


def same_operation(a: QuantumOperation | None, b: QuantumOperation | None) -> bool:
    if a is None or b is None:
        return a is b
    if a.outcome_set != b.outcome_set or a.in_dims != b.in_dims or a.out_dims != b.out_dims:
        return False
    for r in a.outcome_set:
        ka, kb = a.kraus_by_outcome[r], b.kraus_by_outcome[r]
        if len(ka) != len(kb):
            return False
        if not all(np.allclose(x, y, rtol=OP_RTOL, atol=OP_ATOL) for x, y in zip(ka, kb)):
            return False
    return True


def same_event(a: Event, b: Event) -> bool:
    """Field-by-field equality, with ``same_operation`` for the quantum
    operation."""
    if type(a) is not type(b):
        return False
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not (same_operation(x, y) if f.name == "qop" else x == y):
            return False
    return True


# ---------------------------------------------------------------------------
# The protocol's events, built once for generation and for the predicate
# ---------------------------------------------------------------------------

def gop_self_apply(
    state: SystemState,
    proc: str,
    gop: DecomposableGlobalOp,
    trigger: str | None,
    ctx: GenContext,
) -> Apply:
    """The local component of ``gop`` on ``proc``, opening its records;
    ``trigger`` is the channel of the marker that started it, if any."""
    spec = gop.proc_component(state, proc)
    incoming = tuple(incoming_channels(state.procs, proc))
    return Apply(
        eid=ctx.eid(),
        label=proc,
        proc=proc,
        name=f"gop-self:{gop.gid}",
        outcome=choose_outcome(state, spec, ctx),
        qop=spec.qop,
        in_regs=spec.in_regs,
        out_regs=spec.out_regs,
        update=ClassicalUpdate("qgo.start", (gop.gid, trigger, incoming)),
        protocol=True,
    )


def marker_send(proc: str, dest: str, gid: str, ctx: GenContext) -> Send:
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
    record = response_record(proc, ext["op"], ext["self"], ext["res"])
    return Respond(eid=ctx.eid(), label=proc, record=record,
                   update=ClassicalUpdate("qgo.respond"))


class AugmentedPredicate(executions.TransitionPredicate):
    """Step predicate of the base algorithm augmented with the marker
    protocol: a protocol event must pass its guards on the pre-state and
    be the event the protocol builds there; everything else must be
    allowed by the base algorithm."""

    def __init__(self, base, library: dict[str, DecomposableGlobalOp]):
        self.base = base
        self.library = library

    def _check_gop_self(self, pre, event) -> bool:
        gid = event.name.split(":", 1)[1]
        if gid not in self.library or is_active(pre.ext[event.proc]):
            return False
        params = event.update.params if event.update is not None else ()
        trigger = params[1] if len(params) == 3 else None
        if trigger is not None and trigger not in incoming_channels(pre.procs, event.proc):
            return False
        built = gop_self_apply(pre, event.proc, self.library[gid], trigger,
                               GenContext.rebuilding(event))
        return same_event(built, event)

    def _check_gop_msg(self, pre, event) -> bool:
        gid = event.name.split(":", 1)[1]
        ext = pre.ext[event.proc]
        if gid not in self.library or not is_active(ext) or ext["op"] != gid:
            return False
        u = event.update
        if u is None or u.name != "qgo.record":
            return False
        (chan,) = u.params
        return chan in ext["waitset"]

    def allows(self, pre, event, post) -> bool:
        if isinstance(event, Invoke):
            return event.gid in self.library and not any(
                is_active(pre.ext[p]) for p in pre.procs
            )
        if isinstance(event, Respond):
            ext = pre.ext[event.label]
            return (
                is_active(ext)
                and not ext["waitset"]
                and same_event(respond(event.label, ext, GenContext.rebuilding(event)), event)
            )
        if isinstance(event, Apply) and event.protocol:
            if event.name.startswith("gop-self:"):
                return self._check_gop_self(pre, event)
            if event.name.startswith("gop-msg:"):
                return self._check_gop_msg(pre, event)
            return False
        if isinstance(event, Send) and event.protocol:
            ext = pre.ext[event.label]
            if not is_active(ext):
                return False
            built = marker_send(event.label, event.msg.dst, ext["op"],
                                GenContext.rebuilding(event))
            return same_event(built, event)
        if isinstance(event, Receive):
            contents = pre.channels.get(event.chan, ())
            if not contents or contents[0].msg_id != event.msg_id:
                return False
            head = contents[0]
            ext = pre.ext[event.label]
            if event.protocol:
                if head.marker is None:
                    return False
                if event.update is None:
                    return not is_active(ext)  # first marker, starts the block
                return (
                    event.update == ClassicalUpdate("qgo.marker_close", (event.chan,))
                    and is_active(ext)
                    and event.chan in ext["waitset"]
                )
            return head.marker is None and event.update is None
        if getattr(event, "protocol", False):
            return False
        return self.base.allows(pre, event, post)


# ---------------------------------------------------------------------------
# The three protocol procedures
# ---------------------------------------------------------------------------

def qgo_process_new_global_op(
    state: SystemState,
    proc: str,
    gop: DecomposableGlobalOp,
    chan: str | None,
    ctx: GenContext,
) -> tuple[list[Event], SystemState]:
    """Apply the local component, open records, broadcast markers.

    ``chan`` is the channel the triggering marker arrived on, or None for
    the invoking leader; that channel's record is closed empty.
    """
    if is_active(state.ext[proc]):
        raise AlreadyActive(f"processor {proc} already running {state.ext[proc]['op']}")
    events: list[Event] = [gop_self_apply(state, proc, gop, chan, ctx)]
    events += [marker_send(proc, dest, gop.gid, ctx) for dest in sorted(state.procs)]
    for ev in events:
        state = step(state, ev)
    return events, state


def qgo_invoke(
    state: SystemState,
    proc: str,
    gop: DecomposableGlobalOp,
    ctx: GenContext,
) -> tuple[list[Event], SystemState]:
    """Leader invocation: the Invoke event plus the processing block."""
    for p in state.procs:
        if is_active(state.ext[p]):
            raise ConcurrentInvocation(
                f"processor {p} still running {state.ext[p]['op']}"
            )
    invoke = Invoke(eid=ctx.eid(), label=proc, gid=gop.gid)
    state = step(state, invoke)
    block, state = qgo_process_new_global_op(state, proc, gop, None, ctx)
    return [invoke] + block, state


def qgo_receive(
    state: SystemState,
    proc: str,
    chan: str,
    library: dict[str, DecomposableGlobalOp],
    ctx: GenContext,
) -> tuple[list[Event], SystemState]:
    """Reception handling for the head of non-empty ``chan``, per the marker
    protocol; the step of the Receive checks the channel."""
    msg = state.channels[chan][0]
    ext = state.ext[proc]

    if msg.marker is not None:
        gop = library.get(msg.marker)
        if gop is None:
            raise UnknownGlobalOp(f"marker names unknown operation {msg.marker!r}")
        # The first marker starts the operation.  A later one closes its
        # channel, and the processor responds once all are closed.
        first = not is_active(ext)
        close = None if first else ClassicalUpdate("qgo.marker_close", (chan,))
        recv = Receive(eid=ctx.eid(), label=proc, chan=chan, msg_id=msg.msg_id,
                       update=close, protocol=True)
        state = step(state, recv)
        if first:
            block, state = qgo_process_new_global_op(state, proc, gop, chan, ctx)
            return [recv] + block, state
        if state.ext[proc]["waitset"]:
            return [recv], state
        resp = respond(proc, state.ext[proc], ctx)
        return [recv, resp], step(state, resp)

    # Regular message.
    recording = is_active(ext) and chan in ext["waitset"]
    recv = Receive(eid=ctx.eid(), label=proc, chan=chan, msg_id=msg.msg_id)
    state = step(state, recv)
    events = [recv]
    if recording:
        gop = library[ext["op"]]
        spec = gop.msg_component(state, msg)
        outcome = choose_outcome(state, spec, ctx)
        apply = Apply(
            eid=ctx.eid(),
            label=proc,
            proc=proc,
            name=f"gop-msg:{gop.gid}",
            outcome=outcome,
            qop=spec.qop,
            in_regs=spec.in_regs,
            out_regs=spec.out_regs,
            update=ClassicalUpdate("qgo.record", (chan,)),
            target_msg=msg.msg_id,
            protocol=True,
        )
        state = step(state, apply)
        events.append(apply)
    return events, state
