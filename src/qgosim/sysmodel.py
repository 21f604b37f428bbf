"""Distributed-system state: processors, FIFO channels, register ownership.

Each processor and each in-flight message has a classical part (a plain
JSON-able value) and zero or more quantum registers.  The quantum state of
the whole system is a single density matrix; ownership of its registers is
tracked explicitly, so sending and receiving relabel registers without ever
touching the matrix entries.  Every quantum step is ``apply_local`` by the
owner of its input registers: a processor, or a message in flight under its
token ``msg:<id>``.  Both the distributed and the specification machine
step through it.

Every ordered pair of processors, self-pairs included, is a FIFO channel,
but a state holds only the queues of messages in transit: ``initial_state``
drops empty queues, ``send`` opens one and ``receive`` deletes the one it
empties.  Other modules read a queue through ``SystemState.queue``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from . import qcore
from .qcore import DensityMatrix, RegisterId, QuantumOperation

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


def is_channel(procs, key) -> bool:
    """Whether ``key`` names a channel of ``procs``, self-channels included."""
    ends = key.split("->") if isinstance(key, str) else ()
    return len(ends) == 2 and ends[0] in procs and ends[1] in procs


def msg_token(msg_id) -> str:
    """The owner token of message ``msg_id``; ``msg_token("")`` is its prefix."""
    return f"msg:{msg_id}"


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

    @property
    def channel(self) -> ChannelKey:
        return chan_key(self.src, self.dst)

    @property
    def owner_token(self) -> str:
        return msg_token(self.msg_id)


@dataclass(frozen=True)
class SystemState:
    """Immutable snapshot of the full hybrid state.

    ``classical`` maps processor name to its base-algorithm state (a dict
    holding at least an "inbox" list).  ``ext`` holds the per-processor
    protocol or specification extension state.  ``channels`` holds only the
    non-empty queues.  ``ownership`` maps every register of ``quantum`` to a
    processor name or a message owner token.
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
        """Every owner is a processor, or the token of the in-flight message
        that carries the register.  No processor is named like a token
        (``msg:<id>``).  That the ownership keys are the live registers is
        the callers' part: ``scenarios`` builds the space from the map's
        keys, and the trace parser refuses a register without an owner and
        an owner without a register."""
        tokens = [p for p in self.procs if p.startswith(msg_token(""))]
        if tokens:
            raise OwnershipViolation(f"processor {tokens[0]!r} is named like a message")
        carried = set()
        for chan in self.channels.values():
            for msg in chan:
                for reg in msg.quantum_regs:
                    if self.ownership.get(reg) != msg.owner_token:
                        raise OwnershipViolation(
                            f"register {reg} of message {msg.msg_id} owned by "
                            f"{self.ownership.get(reg)}"
                        )
                    carried.add(reg)
        for reg, owner in self.ownership.items():
            if reg not in carried and owner not in self.procs:
                raise OwnershipViolation(
                    f"register {reg} owned by {owner!r}, neither a processor nor "
                    f"a message that carries it")

    def queue(self, key: ChannelKey) -> tuple[MessageInstance, ...]:
        """The messages in transit on channel ``key``, oldest first."""
        return self.channels.get(key, ())

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


def initial_state(procs, classical, quantum, ownership, ext=None,
                  channels=None) -> SystemState:
    """A first state; the caller checks the keys of ``channels`` (``is_channel``)."""
    procs = tuple(procs)
    state = SystemState(
        procs=procs,
        classical=dict(classical),
        ext=dict(ext) if ext is not None else {p: None for p in procs},
        channels={k: q for k, q in (channels or {}).items() if q},
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

    Checks that ``sender`` is the source, that the channel exists and that
    ``sender`` owns each register sent; ``executions.replay`` checks ids.
    The quantum matrix entries are unchanged; only ownership labels move.
    """
    if msg.src != sender:
        raise OwnershipViolation(f"message src {msg.src} does not match sender {sender}")
    for reg in msg.quantum_regs:
        if state.ownership.get(reg) != sender:
            raise OwnershipViolation(
                f"register {reg} not owned by sender {sender}"
            )
    key = msg.channel
    queue = state.channels.get(key)
    if queue is None and not is_channel(state.procs, key):
        raise SysmodelError(f"no channel {key!r}")
    ownership = None  # shared with ``state`` unless a register moves
    if msg.quantum_regs:
        ownership = {**state.ownership, **dict.fromkeys(msg.quantum_regs, msg.owner_token)}
    channels = {**state.channels, key: (queue or ()) + (msg,)}
    return evolve(state, channels=channels, ownership=ownership)


def receive(state: SystemState, receiver: str, chan: ChannelKey,
            msg_id: int) -> SystemState:
    """Pop message ``msg_id``, the head of ``chan``, and deliver it to ``receiver``.

    Checks that ``chan`` is a channel of ``state``, ends at ``receiver`` and
    is not empty, and that its head is ``msg_id``.  Ownership of the
    message's registers moves to the receiver; non-marker classical contents
    join its inbox.
    """
    contents = state.channels.get(chan)
    if contents is None and not is_channel(state.procs, chan):
        raise SysmodelError(f"no channel {chan!r}")
    if chan_endpoints(chan)[1] != receiver:
        raise NotRecipient(f"channel {chan} does not end at {receiver}")
    if not contents:
        raise EmptyChannel(f"channel {chan} is empty")
    msg, rest = contents[0], contents[1:]
    if msg.msg_id != msg_id:
        raise SysmodelError(f"expected message {msg_id} at head of {chan}, "
                            f"found {msg.msg_id}")
    ownership = classical = None  # shared with ``state`` unless they change
    if msg.quantum_regs:
        ownership = {**state.ownership, **dict.fromkeys(msg.quantum_regs, receiver)}
    channels = {**state.channels, chan: rest}
    if not rest:
        del channels[chan]
    if msg.marker is None:
        sigma = state.classical[receiver]
        inbox = sigma.get("inbox", []) + [[chan, msg.classical]]
        classical = {**state.classical, receiver: {**sigma, "inbox": inbox}}
    return evolve(state, classical=classical, channels=channels, ownership=ownership)


def apply_local(
    state: SystemState,
    owner: str,
    qop: QuantumOperation | None,
    in_regs: tuple[RegisterId, ...],
    out_regs: tuple[RegisterId, ...],
    outcome: str,
) -> SystemState:
    """Apply one outcome of ``qop`` as a local step of ``owner``: a
    processor, or the token of a message in flight (``msg:<id>``).

    ``owner`` must own every input register.  Ownership follows the
    register change: consumed registers are dropped and created ones go to
    ``owner``.  A None ``qop`` leaves the state as is.  Classical updates
    are applied by the caller, which knows the event's classical-update
    descriptor.
    """
    for reg in in_regs:
        if state.ownership.get(reg) != owner:
            raise LocalityViolation(
                f"register {reg} not owned by {owner} (owner: "
                f"{state.ownership.get(reg)})"
            )
    if qop is None:
        return state
    quantum = qcore.apply_outcome(state.quantum, qop, in_regs, out_regs, outcome)
    ownership = dict(state.ownership)
    for reg in in_regs:
        if reg not in out_regs:
            del ownership[reg]
    for reg in out_regs:
        if reg not in in_regs:
            ownership[reg] = owner
    return evolve(state, quantum=quantum, ownership=ownership)


def states_equal(a: SystemState, b: SystemState, tol: float) -> bool:
    """Structural equality of the classical side, quantum within ``tol``
    (``qcore.states_close``: max absolute difference of the density
    matrices; a NaN or infinite entry never compares equal).  ``a`` and
    ``b`` share their ``procs``, as the states of an execution and of its
    reorderings do.  The ownership keys are the live registers, so equal
    ownership means equal registers in canonical order."""
    if a.classical != b.classical:
        return False
    if a.ext != b.ext:
        return False
    if a.channels != b.channels:
        return False
    if a.ownership != b.ownership:
        return False
    return qcore.states_close(qcore.canonical_form(a.quantum),
                              qcore.canonical_form(b.quantum), tol)
