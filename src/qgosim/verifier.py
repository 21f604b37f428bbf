"""Mechanized check that every protocol execution implements the atomic
specification.

For each completed invocation the verifier (1) tripartitions the events
into pre-snapshot, snapshot-block, and post-snapshot classes, (2) sorts
them by class using only checked causally-independent adjacent swaps,
(3) commutes each recorded message's operation back across its reception —
the one step that changes the causal order, justified by an explicit state
comparison — and bubbles it to the end of the snapshot region, and (4)
replaces the snapshot region by a single AtomicExecute event and replays
the result under the specification machine, which builds every component
from the named operation and must end where the reordered execution ends.
The histories (invocations, responses, base events) of the
original and the specification execution correspond event for event.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from . import executions, specmachine, sysmodel
from .causality import (
    CausalDependency,
    CausalRelation,
    LemmaViolation,
    compute_causality,
    equicausal,
    swap_in_place,
)
from .executions import (
    Apply,
    AtomicExecute,
    Event,
    Execution,
    Invoke,
    Receive,
    Respond,
    Send,
    in_filter,
    replay,
)
from .qcore import EPS_CHAIN


class VerifierError(Exception):
    pass


class HypothesisViolation(VerifierError):
    """The input execution does not satisfy the verifier's hypotheses
    (sequential, completed invocations)."""


class ProtocolIncomplete(VerifierError):
    """An invocation's protocol events are missing or malformed."""


class ClaimViolation(VerifierError):
    """A reordering step the construction relies on failed: the execution
    does not implement the atomic specification."""


# ---------------------------------------------------------------------------
# Decomposition and classification
# ---------------------------------------------------------------------------

@dataclass
class FragmentInfo:
    """One completed invocation: its position range and event classes."""

    lo: int
    hi: int  # inclusive
    gid: str = ""
    leader: str = ""
    # eid -> "pre" | "op" | "post"
    classes: dict = field(default_factory=dict)
    proc_apply_eids: dict = field(default_factory=dict)  # proc -> eid
    msg_apply_eids: list = field(default_factory=list)


def decompose(x: Execution) -> list[FragmentInfo]:
    """Split into main fragments, one per completed invocation.

    Raises HypothesisViolation if invocations overlap, are incomplete, or
    protocol events occur outside any invocation.
    """
    procs = x.initial.procs
    frags: list[FragmentInfo] = []
    open_frag: FragmentInfo | None = None
    responds = 0
    for i, ev in enumerate(x.events):
        if isinstance(ev, Invoke):
            if open_frag is not None:
                raise HypothesisViolation(
                    f"invocation at {i} overlaps the one at {open_frag.lo}"
                )
            open_frag = FragmentInfo(lo=i, hi=i, gid=ev.gid, leader=ev.label)
            responds = 0
        elif isinstance(ev, Respond):
            if open_frag is None:
                raise HypothesisViolation(f"response at {i} outside any invocation")
            responds += 1
            if responds == len(procs):
                open_frag.hi = i
                frags.append(open_frag)
                open_frag = None
        elif getattr(ev, "protocol", False) and open_frag is None:
            raise HypothesisViolation(f"protocol event at {i} outside any invocation")
    if open_frag is not None:
        raise HypothesisViolation(f"invocation at {open_frag.lo} never completes")
    return frags


def classify(x: Execution, frag: FragmentInfo) -> None:
    """Assign every event in the fragment range to pre, op, or post.

    The op class is each processor's snapshot block: the event that made it
    join the operation (the invocation or the first marker reception), the
    local-component application, and the marker broadcast.  Recorded-message
    operations start in post, adjacent to their reception, and are moved
    into the snapshot region later.
    """
    events = x.events[frag.lo: frag.hi + 1]
    procs = x.initial.procs

    apply_pos: dict[str, int] = {}
    for i, ev in enumerate(events):
        if isinstance(ev, Apply) and ev.name.startswith("gop-self:"):
            if ev.proc in apply_pos:
                raise ProtocolIncomplete(f"{ev.proc} applies the operation twice")
            apply_pos[ev.proc] = i
    missing = set(procs) - set(apply_pos)
    if missing:
        raise ProtocolIncomplete(f"no local application on {sorted(missing)}")
    frag.proc_apply_eids = {p: events[i].eid for p, i in apply_pos.items()}

    op_eids: set[int] = set()
    for p, i in sorted(apply_pos.items()):
        trigger = events[i - 1] if i > 0 else None
        leader_trigger = isinstance(trigger, Invoke) and trigger.label == p
        marker_trigger = (
            isinstance(trigger, Receive) and trigger.protocol and trigger.label == p
        )
        if not (leader_trigger or marker_trigger):
            raise ProtocolIncomplete(
                f"local application on {p} is not preceded by its trigger"
            )
        block = [trigger.eid, events[i].eid]
        sends = events[i + 1: i + 1 + len(procs)]
        if len(sends) < len(procs) or not all(
            isinstance(s, Send) and s.protocol and s.label == p for s in sends
        ):
            raise ProtocolIncomplete(f"marker broadcast on {p} is not contiguous")
        block += [s.eid for s in sends]
        op_eids |= set(block)

    frag.msg_apply_eids = [
        ev.eid
        for ev in events
        if isinstance(ev, Apply) and ev.name.startswith("gop-msg:")
    ]

    classes: dict[int, str] = {}
    pos_in_proc: dict[str, int] = {}
    for i, ev in enumerate(events):
        if ev.eid in op_eids:
            classes[ev.eid] = "op"
            continue
        p = ev.label
        if p not in apply_pos:
            raise ProtocolIncomplete(f"event with unknown label {p!r} in fragment")
        classes[ev.eid] = "pre" if i < apply_pos[p] else "post"
    frag.classes = classes


# ---------------------------------------------------------------------------
# Reordering
# ---------------------------------------------------------------------------

_RANK = {"pre": 0, "op": 1, "post": 2}


def eliminate_inversions(
    x: Execution, states: list, frag: FragmentInfo, rel: CausalRelation
) -> tuple[Execution, list, int]:
    """Sort the fragment's events by class with adjacent independent swaps.

    One insertion pass: each event moves left past every neighbour of a
    higher class.  A sort by adjacent swaps of inverted pairs swaps each
    inverted pair exactly once, so the result is the stable class order and
    the swap count is the inversion count.  A causal dependency across an
    inverted pair means the execution does not tripartition and is reported
    as a ClaimViolation.  ``rel`` is the causal relation of ``x``; valid
    swaps leave it unchanged.

    ``states`` is the replay of ``x``.  Each swap is checked by
    ``swap_in_place`` on one copy of the event list and of ``states``;
    the sorted execution is built once, and with no swap ``x`` and
    ``states`` come back as given.
    """
    events, new_states = list(x.events), list(states)
    nswaps = 0
    for j in range(frag.lo + 1, frag.hi + 1):
        i = j
        while i > frag.lo and (
            _RANK[frag.classes[events[i - 1].eid]]
            > _RANK[frag.classes[events[i].eid]]
        ):
            try:
                swap_in_place(events, new_states, i - 1, rel)
            except CausalDependency as exc:
                raise ClaimViolation(
                    f"cannot sort fragment at {frag.lo}: {exc}"
                ) from exc
            nswaps += 1
            i -= 1
    if nswaps == 0:
        return x, states, 0
    return Execution(x.initial, events), new_states, nswaps


def reorder_message_ops(
    x: Execution, states: list, frag: FragmentInfo
) -> tuple[Execution, list, int]:
    """Commute each recorded message's operation before its reception and
    bubble it back to the end of the snapshot region.

    Relabelling the operation as acting on the message detaches it from the
    processor's causal chain.  That changes the causal order, so the first
    swap's state check must justify it: applying the operation in flight,
    then delivering the message, reaches the same state (within EPS_EXACT)
    as delivering first and applying after.

    Like ``eliminate_inversions``, it swaps in place on one copy of the
    event list and of ``states`` (the replay of ``x``), builds the result
    once, and returns ``x`` and ``states`` as given when it makes no swap.
    """
    if not frag.msg_apply_eids:
        return x, states, 0
    events, new_states = list(x.events), list(states)
    nswaps = 0
    op_end = 1 + max(
        (i for i in range(frag.lo, frag.hi + 1)
         if frag.classes[events[i].eid] == "op"),
        default=frag.lo - 1,
    )
    for j, apply_eid in enumerate(frag.msg_apply_eids):
        pos = [e.eid for e in events].index(apply_eid)
        apply_ev = events[pos]
        recv = events[pos - 1]
        if not (isinstance(recv, Receive) and recv.msg_id == apply_ev.target_msg):
            raise ClaimViolation(
                f"recorded-message operation {apply_eid} is not adjacent to "
                f"its reception"
            )
        events[pos] = dc_replace(apply_ev, label=f"msg:{apply_ev.target_msg}")
        rel = compute_causality(Execution(x.initial, events))
        try:
            swap_in_place(events, new_states, pos - 1, rel)
        except (CausalDependency, LemmaViolation) as exc:
            raise ClaimViolation(
                f"applying to message {apply_ev.target_msg} in flight does "
                f"not commute with its reception: {exc}"
            ) from exc
        nswaps += 1
        for k in range(pos - 1, op_end + j, -1):
            try:
                swap_in_place(events, new_states, k - 1, rel)
            except CausalDependency as exc:
                raise ClaimViolation(
                    f"cannot move message operation {apply_eid} back: {exc}"
                ) from exc
            nswaps += 1
    return Execution(x.initial, events), new_states, nswaps


# ---------------------------------------------------------------------------
# Specification execution and histories
# ---------------------------------------------------------------------------

def history(x: Execution) -> list[Event]:
    return [e for e in x.events if in_filter(e)]


def histories_correspond(h1: list[Event], h2: list[Event]) -> bool:
    """Pointwise correspondence: invocations and responses match by label
    and content, base events are the same events."""
    if len(h1) != len(h2):
        return False
    for a, b in zip(h1, h2):
        if isinstance(a, Invoke) and isinstance(b, Invoke):
            if (a.label, a.gid) != (b.label, b.gid):
                return False
        elif isinstance(a, Respond) and isinstance(b, Respond):
            if a.label != b.label or a.record != b.record:
                return False
        elif type(a) is type(b):
            if a.eid != b.eid:
                return False
        else:
            return False
    return True


def build_spec_execution(z: Execution, frags: list[FragmentInfo]) -> Execution:
    """Project the reordered execution onto the specification: drop protocol
    events, replace each snapshot region by one AtomicExecute that carries
    the outcomes of the region's component applications."""
    next_eid = max((e.eid for e in z.events), default=-1) + 1
    insert_after: dict[int, AtomicExecute] = {}
    for frag in frags:
        procs = [z.events[z.index_of(eid)] for _, eid in sorted(frag.proc_apply_eids.items())]
        msg_pos = [z.index_of(eid) for eid in frag.msg_apply_eids]
        # The atomic point follows the last message operation and the last
        # event of the snapshot blocks, marker broadcasts included.
        last_pos = max(msg_pos + [i for i in range(frag.lo, frag.hi + 1)
                                  if frag.classes.get(z.events[i].eid) == "op"])
        insert_after[last_pos] = AtomicExecute(
            eid=next_eid,
            label=frag.leader,
            gid=frag.gid,
            proc_outcomes=tuple((e.proc, e.outcome) for e in procs),
            msg_outcomes=tuple((z.events[i].target_msg, z.events[i].outcome) for i in msg_pos),
        )
        next_eid += 1

    out: list[Event] = []
    for i, ev in enumerate(z.events):
        keep = isinstance(ev, (Invoke, Respond)) or not getattr(ev, "protocol", False)
        if keep:
            out.append(ev)
        if i in insert_after:
            out.append(insert_after[i])
    initial = dc_replace(z.initial, ext=specmachine.spec_idle_ext(z.initial.procs))
    return Execution(initial, tuple(out))


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------

@dataclass
class Certificate:
    """The verifier's output: the intermediate executions and one verdict
    per checked step."""

    accepted: bool
    verdicts: dict
    reason: str = ""
    x: Execution | None = None
    y: Execution | None = None  # class-sorted
    z: Execution | None = None  # message operations moved
    spec: Execution | None = None  # atomic specification execution
    swaps: int = 0

    def __bool__(self):
        return self.accepted


def verify(x: Execution) -> Certificate:
    """Check that ``x`` implements the atomic specification of each of its
    invocations; every transformation step is individually validated."""
    verdicts: dict = {}

    def fail(stage: str, reason: str) -> Certificate:
        verdicts[stage] = False
        return Certificate(False, verdicts, reason=reason, x=x)

    try:
        states = replay(x)
    except executions.ReplayError as exc:
        return fail("well-formed", str(exc))
    if len({e.eid for e in x.events}) != len(x.events):
        return fail("well-formed", "event ids are not unique")
    verdicts["well-formed"] = True

    try:
        frags = decompose(x)
        for frag in frags:
            classify(x, frag)
    except (HypothesisViolation, ProtocolIncomplete) as exc:
        return fail("decompose", str(exc))
    verdicts["decompose"] = True

    x_final = states[-1]
    y = x
    nswaps = 0
    rel = compute_causality(x)
    try:
        for frag in frags:
            y, states, n = eliminate_inversions(y, states, frag, rel)
            nswaps += n
    except ClaimViolation as exc:
        return fail("sort-classes", str(exc))
    if not equicausal(x, y):
        return fail("sort-classes", "sorted execution is not equicausal")
    y_final = replay(y)[-1]
    if not sysmodel.states_equal(y_final, x_final, EPS_CHAIN):
        return fail("sort-classes", "sorted execution ends in a different state")
    verdicts["sort-classes"] = True

    z = y
    try:
        for frag in frags:
            z, states, n = reorder_message_ops(z, states, frag)
            nswaps += n
    except ClaimViolation as exc:
        return fail("move-message-ops", str(exc))
    # Replay is deterministic: when no operation moved, z is y and ends in y_final.
    z_final = y_final if z is y else replay(z)[-1]
    if not sysmodel.states_equal(z_final, y_final, EPS_CHAIN):
        return fail("move-message-ops", "moved operations changed the final state")
    if not histories_correspond(history(y), history(z)):
        return fail("move-message-ops", "moving operations changed the history")
    verdicts["move-message-ops"] = True

    spec_x = build_spec_execution(z, frags)
    res = specmachine.validate_spec_execution(spec_x)
    if not res:
        return fail(
            "spec-replay",
            f"specification machine rejects step {res.first_failure}: {res.reason}",
        )
    # Each machine keeps its own phases in ext; the rest of the state must agree.
    if not sysmodel.states_equal(dc_replace(res.final, ext=z_final.ext), z_final, EPS_CHAIN):
        return fail("spec-replay", "specification ends in a different state")
    verdicts["spec-replay"] = True

    if not histories_correspond(history(z), history(spec_x)):
        return fail("histories", "histories of execution and specification differ")
    verdicts["histories"] = True

    return Certificate(
        True, verdicts, x=x, y=y, z=z, spec=spec_x, swaps=nswaps
    )
