"""Distributed-system state: processors, FIFO channels, register ownership.

Each processor and each in-flight message has a classical part (a plain
JSON-able value) and zero or more quantum registers.  The quantum state of
the whole system is a single density matrix; ownership of its registers is
tracked explicitly, so sending and receiving relabel registers without ever
touching the matrix entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from . import qcore
from .qcore import DensityMatrix, RegisterId, RegisterMap, QuantumOperation

ChannelKey = str  # "src->dst"


class SysmodelError(Exception):
    pass


class OwnershipViolation(SysmodelError):
    pass


class EmptyChannel(SysmodelError):
    pass


class NotRecipient(SysmodelError):
    pass


class LocalityViolation(SysmodelError):
    pass


def chan_key(src: str, dst: str) -> ChannelKey:
    return f"{src}->{dst}"


def chan_endpoints(key: ChannelKey) -> tuple[str, str]:
    src, dst = key.split("->")
    return src, dst


def all_channels(procs) -> list[ChannelKey]:
    """Every ordered pair of processors, including self-channels."""
    return [chan_key(p, q) for p in procs for q in procs]


def encode_classical(value: Any) -> str:
    """Deterministic structural encoding of a classical value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class MessageInstance:
    msg_id: int
    src: str
    dst: str
    classical: Any = None
    quantum_regs: tuple[RegisterId, ...] = ()
    marker: str | None = None
    # Transient slot for the outcome of a global operation applied to this
    # message while it is still in flight; filed on reception.
    pending: str | None = None

    @property
    def channel(self) -> ChannelKey:
        return chan_key(self.src, self.dst)

    @property
    def owner_token(self) -> str:
        return f"msg:{self.msg_id}"


@dataclass(frozen=True)
class SystemState:
    """Immutable snapshot of the full hybrid state.

    ``classical`` maps processor name to its base-algorithm state (a dict
    holding at least an "inbox" list).  ``ext`` holds the per-processor
    protocol or specification extension state.  ``ownership`` maps every
    register of ``quantum`` to a processor name or a message owner token.
    Nothing mutates a state's values: steps and classical updates build new
    ones, so states, events and messages share structure without copies.
    """

    procs: tuple[str, ...]
    classical: Mapping[str, Any]
    ext: Mapping[str, Any]
    channels: Mapping[ChannelKey, tuple[MessageInstance, ...]]
    ownership: Mapping[RegisterId, str]
    quantum: DensityMatrix

    def check_ownership_partition(self) -> None:
        owned = set(self.ownership)
        live = set(self.quantum.space.registers)
        if owned != live:
            raise OwnershipViolation(
                f"ownership keys {owned} do not partition live registers {live}"
            )
        for chan in self.channels.values():
            for msg in chan:
                for reg in msg.quantum_regs:
                    if self.ownership.get(reg) != msg.owner_token:
                        raise OwnershipViolation(
                            f"register {reg} of message {msg.msg_id} owned by "
                            f"{self.ownership.get(reg)}"
                        )

    def owned_by(self, owner: str) -> tuple[RegisterId, ...]:
        regs = [r for r in self.quantum.space.registers if self.ownership[r] == owner]
        return tuple(sorted(regs, key=lambda r: r.id))

    def message_ids(self) -> set[int]:
        return {m.msg_id for chan in self.channels.values() for m in chan}

    def find_message(self, msg_id: int) -> MessageInstance | None:
        for chan in self.channels.values():
            for m in chan:
                if m.msg_id == msg_id:
                    return m
        return None


def initial_state(procs, classical, quantum, ownership, ext=None) -> SystemState:
    procs = tuple(procs)
    channels = {c: () for c in all_channels(procs)}
    state = SystemState(
        procs=procs,
        classical=dict(classical),
        ext=dict(ext) if ext is not None else {p: None for p in procs},
        channels=channels,
        ownership=dict(ownership),
        quantum=quantum,
    )
    state.check_ownership_partition()
    return state


def evolve(state: SystemState, *, classical=None, ext=None, channels=None,
           ownership=None, quantum=None) -> SystemState:
    """``state`` with the given parts replaced: the one constructor of every
    step's next state (a plain constructor call, cheaper per step than
    ``dataclasses.replace``)."""
    return SystemState(
        state.procs,
        state.classical if classical is None else classical,
        state.ext if ext is None else ext,
        state.channels if channels is None else channels,
        state.ownership if ownership is None else ownership,
        state.quantum if quantum is None else quantum,
    )


def send(state: SystemState, sender: str, msg: MessageInstance) -> SystemState:
    """Append ``msg`` to the channel sender->dst, moving register ownership.

    Checks that ``sender`` is the source, that no outcome is pending (only
    an operation applied in flight sets one) and that ``sender`` owns each
    register sent.  Ids are not checked here: see ``executions.replay``.
    The quantum matrix entries are unchanged; only ownership labels move.
    """
    if msg.src != sender:
        raise OwnershipViolation(f"message src {msg.src} does not match sender {sender}")
    if msg.pending is not None:
        raise SysmodelError(f"message {msg.msg_id} is sent with a pending outcome")
    for reg in msg.quantum_regs:
        if state.ownership.get(reg) != sender:
            raise OwnershipViolation(
                f"register {reg} not owned by sender {sender}"
            )
    key = msg.channel
    ownership = dict(state.ownership)
    for reg in msg.quantum_regs:
        ownership[reg] = msg.owner_token
    channels = dict(state.channels)
    channels[key] = channels[key] + (msg,)
    return evolve(state, channels=channels, ownership=ownership)


def receive(state: SystemState, receiver: str, chan: ChannelKey,
            msg_id: int) -> tuple[SystemState, MessageInstance]:
    """Pop message ``msg_id``, the head of ``chan``, and deliver it to ``receiver``.

    Checks that ``chan`` is a channel of ``state``, ends at ``receiver`` and
    is not empty, and that its head is ``msg_id``.  Ownership of the
    message's registers moves to the receiver; non-marker classical contents
    join its inbox.  The message is returned as it left the channel, so the
    caller files any pending outcome it carries.
    """
    contents = state.channels.get(chan)
    if contents is None:
        raise SysmodelError(f"no channel {chan!r}")
    if chan_endpoints(chan)[1] != receiver:
        raise NotRecipient(f"channel {chan} does not end at {receiver}")
    if not contents:
        raise EmptyChannel(f"channel {chan} is empty")
    msg, rest = contents[0], contents[1:]
    if msg.msg_id != msg_id:
        raise SysmodelError(f"expected message {msg_id} at head of {chan}, "
                            f"found {msg.msg_id}")
    ownership = dict(state.ownership)
    for reg in msg.quantum_regs:
        ownership[reg] = receiver
    channels = dict(state.channels)
    channels[chan] = rest

    classical = dict(state.classical)
    if msg.marker is None:
        sigma = classical[receiver]
        inbox = sigma.get("inbox", []) + [[chan, msg.classical]]
        classical[receiver] = {**sigma, "inbox": inbox}
    return evolve(state, classical=classical, channels=channels, ownership=ownership), msg


def apply_quantum(
    state: SystemState,
    qop: QuantumOperation | None,
    in_regs: tuple[RegisterId, ...],
    out_regs: tuple[RegisterId, ...],
    outcome: str,
    owner: str,
) -> SystemState:
    """Apply one outcome of ``qop`` with no locality check.

    Ownership follows the register change: consumed registers are dropped
    and created ones go to ``owner``.  A None ``qop`` leaves the state as is.
    """
    if qop is None:
        return state
    regmap = RegisterMap(tuple(in_regs), tuple(out_regs))
    quantum = qcore.apply_outcome(state.quantum, qop, regmap, outcome)
    ownership = dict(state.ownership)
    for reg in in_regs:
        if reg not in out_regs:
            del ownership[reg]
    for reg in out_regs:
        if reg not in in_regs:
            ownership[reg] = owner
    return evolve(state, quantum=quantum, ownership=ownership)


def apply_local(
    state: SystemState,
    proc: str,
    qop: QuantumOperation | None,
    in_regs: tuple[RegisterId, ...],
    out_regs: tuple[RegisterId, ...],
    outcome: str,
    in_flight: MessageInstance | None = None,
) -> SystemState:
    """Apply one outcome of a local operation and update the quantum state.

    When ``in_flight`` is given (a message of ``state``'s channels), the
    operation acts on that message's registers and the outcome is parked in
    its pending slot; otherwise the registers must belong to ``proc``.
    Classical updates are applied by the caller, which knows the event's
    classical-update descriptor.
    """
    required_owner = proc if in_flight is None else in_flight.owner_token
    for reg in in_regs:
        if state.ownership.get(reg) != required_owner:
            raise LocalityViolation(
                f"register {reg} not owned by {required_owner} (owner: "
                f"{state.ownership.get(reg)})"
            )

    new_state = apply_quantum(state, qop, in_regs, out_regs, outcome, required_owner)
    if in_flight is not None:
        msg = in_flight
        parked = MessageInstance(msg.msg_id, msg.src, msg.dst, msg.classical,
                                 msg.quantum_regs, msg.marker, pending=outcome)
        queue = new_state.channels[msg.channel]
        channels = {**new_state.channels,
                    msg.channel: tuple(parked if m is msg else m for m in queue)}
        new_state = evolve(new_state, channels=channels)
    return new_state


def states_equal(a: SystemState, b: SystemState, tol: float) -> bool:
    """Structural equality of the classical side, quantum within ``tol``
    (``qcore.states_close``: max absolute difference of the density
    matrices; a NaN or infinite entry never compares equal)."""
    if a.procs != b.procs:
        return False
    if a.classical != b.classical:
        return False
    if a.ext != b.ext:
        return False
    if a.channels != b.channels:
        return False
    if a.ownership != b.ownership:
        return False
    ca = qcore.canonical_form(a.quantum)
    cb = qcore.canonical_form(b.quantum)
    if ca.space.registers != cb.space.registers:
        return False
    return qcore.states_close(ca, cb, tol)
