"""Mechanized check that every protocol execution implements the atomic
specification.

For each completed invocation the verifier (1) tripartitions the events
into pre-snapshot, snapshot-block, and post-snapshot classes, (2) sorts
them by class as one checked permutation, (3) moves each recorded message's
operation, relabelled as acting on its message, to the end of the snapshot
region as a second one, and (4) replaces the snapshot region by a single
AtomicExecute event and replays the result under the specification machine,
which builds every component from the named operation and must end where
the reordered execution ends.  The histories (invocations, responses, base
events) of the original and the specification execution correspond event
for event.

Each reordering is proved once, in two halves.  ``causality.plan_window``
sorts a window on its events alone: the class sort inverts no dependent
pair, which the window checks on the primitive causal edges inside it;
then x and the sorted execution have the same edges, so the same
happens-before, and no vector clock is built.  ``causality.replay_span``
replays the span a sort changes and compares the state after it at
EPS_EXACT: for the move, whose crossing of the reception is the one step
that changes the causal order, that comparison is the whole proof.  So the
sorted and moved executions end where x ends, and the only final state
compared is the specification's.  Every sort is planned before x's one
replay, which therefore keeps only the states the spans and the final
comparison read, not all n+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from . import executions, specmachine, sysmodel
from .causality import CausalDependency, LemmaViolation, plan_window, replay_span
# ``compute_causality`` is unused here; bench/tests/test_bench.py asserts
# ``verifier.compute_causality is causality.compute_causality``.
from .causality import compute_causality  # noqa: F401
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
    walk,
)
from .qcore import EPS_CHAIN


class HypothesisViolation(Exception):
    """The input execution does not satisfy the verifier's hypotheses
    (sequential, completed invocations)."""


class ProtocolIncomplete(Exception):
    """An invocation's protocol events are missing or malformed."""


class ClaimViolation(Exception):
    """A reordering step the construction relies on failed: the execution
    does not implement the atomic specification."""


# ---------------------------------------------------------------------------
# Decomposition and classification
# ---------------------------------------------------------------------------

@dataclass
class FragmentInfo:
    """One completed invocation: its position range, and what ``classify``
    finds in it: its event classes, where the snapshot region ends once
    they are sorted, and the outcomes the atomic step carries."""

    lo: int
    hi: int  # inclusive
    gid: str = ""
    leader: str = ""
    # eid -> "pre" | "op" | "post"
    classes: dict = field(default_factory=dict)
    op_end: int = 0  # the first post position once the classes are sorted
    proc_outcomes: tuple = ()  # (proc, outcome) of each local application, by proc
    msg_ops: tuple = ()  # the gop-msg Applies, in order


def decompose(x: Execution) -> list[FragmentInfo]:
    """Split into main fragments, one per completed invocation.

    Raises HypothesisViolation if invocations overlap or are incomplete
    (each processor responds once), or protocol events occur outside any.
    """
    procs = x.initial.procs
    frags: list[FragmentInfo] = []
    open_frag: FragmentInfo | None = None
    responded: set[str] = set()
    for i, ev in enumerate(x.events):
        if isinstance(ev, Invoke):
            if open_frag is not None:
                raise HypothesisViolation(
                    f"invocation at {i} overlaps the one at {open_frag.lo}"
                )
            open_frag = FragmentInfo(lo=i, hi=i, gid=ev.gid, leader=ev.label)
            responded = set()
        elif isinstance(ev, Respond):
            if open_frag is None:
                raise HypothesisViolation(f"response at {i} outside any invocation")
            if ev.label in responded:
                raise HypothesisViolation(
                    f"{ev.label} responds twice to the invocation at {open_frag.lo}")
            responded.add(ev.label)
            if len(responded) == len(procs):
                open_frag.hi = i
                frags.append(open_frag)
                open_frag = None
        elif ev.protocol and open_frag is None:
            raise HypothesisViolation(f"protocol event at {i} outside any invocation")
    if open_frag is not None:
        raise HypothesisViolation(f"invocation at {open_frag.lo} never completes")
    return frags


def classify(x: Execution, frag: FragmentInfo) -> None:
    """Assign every event in the fragment range to pre, op, or post.

    The op class is each processor's snapshot block: the event that made it
    join the operation (the invocation or the first marker reception), the
    local-component application, and the marker broadcast.  Recorded-message
    operations must come after their processor's local application, so
    they start in post, and are moved into the snapshot region later.
    """
    events = x.events[frag.lo: frag.hi + 1]
    procs = x.initial.procs

    apply_pos: dict[str, int] = {}
    for i, ev in enumerate(events):
        if isinstance(ev, Apply) and ev.name.startswith("gop-self:"):
            if ev.label in apply_pos:
                raise ProtocolIncomplete(f"{ev.label} applies the operation twice")
            apply_pos[ev.label] = i
    missing = set(procs) - set(apply_pos)
    if missing:
        raise ProtocolIncomplete(f"no local application on {sorted(missing)}")
    frag.proc_outcomes = tuple((p, events[i].outcome) for p, i in sorted(apply_pos.items()))

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

    classes: dict[int, str] = {}
    for i, ev in enumerate(events):
        if ev.eid in op_eids:
            classes[ev.eid] = "op"
            continue
        p = ev.label
        if p not in apply_pos:
            raise ProtocolIncomplete(f"event with unknown label {p!r} in fragment")
        classes[ev.eid] = "pre" if i < apply_pos[p] else "post"
    frag.msg_ops = tuple(ev for ev in events if _is_msg_op(ev))
    for ev in frag.msg_ops:
        if classes[ev.eid] == "pre":
            raise ProtocolIncomplete(f"recorded-message operation {ev.eid} comes before "
                                     f"the local application on {ev.label}")
    frag.classes = classes
    frag.op_end = frag.lo + sum(c != "post" for c in classes.values())


def _is_msg_op(ev: Event) -> bool:
    return isinstance(ev, Apply) and ev.name.startswith("gop-msg:")


# ---------------------------------------------------------------------------
# Reordering
# ---------------------------------------------------------------------------

_RANK = {"pre": 0, "op": 1, "post": 2}


def eliminate_inversions(x: Execution, frag: FragmentInfo) -> tuple[Execution, range, int]:
    """Plan the stable sort of the fragment's events by class with
    ``plan_window``; a dependent inverted pair means the execution does not
    tripartition (a ClaimViolation)."""
    try:
        return plan_window(x, frag.lo, frag.hi + 1, lambda e: _RANK[frag.classes[e.eid]])
    except CausalDependency as exc:
        raise ClaimViolation(f"cannot sort fragment at {frag.lo}: {exc}") from exc


def reorder_message_ops(
    y: Execution, frags: list[FragmentInfo]
) -> tuple[Execution, list[range], int]:
    """Relabel each recorded message's operation in the class-sorted ``y``
    as ``msg:<id>``, acting on its message; then plan the move of each
    fragment's to the end of its snapshot region with one ``plan_window``
    over its post class.  Returns the moved execution, the span each
    fragment's move changes (none when no fragment records a message) and
    the inversion count.  The dependency test cannot refuse the move: the
    relabelled operations are the only events with ``msg:<id>`` labels, all
    of rank 0, and none is a Receive, so no edge enters one from rank 1.
    Crossing its message's reception changes the causal order, and the one
    proof of the move is the replay of its span in ``verify``: applying the
    operation in flight as a step of the message's token, which files the
    outcome in the receiver's record at once, then delivering, must reach
    the same state (within EPS_EXACT) as delivering first and applying
    after.  The reception is always inside the span, since the operation
    overtakes it.  ``classify`` puts every such operation of a fragment in
    its post class, so only the post classes are scanned."""
    if not any(frag.msg_ops for frag in frags):
        return y, [], 0
    events, spans, nswaps = list(y.events), [], 0
    for frag in frags:
        for i in range(frag.op_end, frag.hi + 1):
            ev = events[i]
            if _is_msg_op(ev):
                recv = events[i - 1]
                if not (isinstance(recv, Receive) and recv.msg_id == ev.target_msg):
                    raise ClaimViolation(
                        f"recorded-message operation {ev.eid} is not adjacent to its reception"
                    )
                events[i] = dc_replace(ev, label=sysmodel.msg_token(ev.target_msg))
    z = Execution(y.initial, tuple(events))
    for frag in frags:
        z, span, n = plan_window(z, frag.op_end, frag.hi + 1,
                                 lambda e: 0 if _is_msg_op(e) else 1)
        spans.append(span)
        nswaps += n
    return z, spans, nswaps


# ---------------------------------------------------------------------------
# Specification execution and histories
# ---------------------------------------------------------------------------

def history(x: Execution) -> list[Event]:
    return [e for e in x.events if in_filter(e)]


def histories_correspond(h1: list[Event], h2: list[Event]) -> bool:
    """Pointwise correspondence: the same events, field for field, in the
    same order.  ``verify`` builds every history it compares from the same
    event objects, so an event differs only where a stage changed it."""
    return h1 == h2


def build_spec_execution(z: Execution, frags: list[FragmentInfo]) -> Execution:
    """Project the reordered execution onto the specification: drop protocol
    events, replace each snapshot region by one AtomicExecute that carries
    the outcomes of the region's component applications."""
    next_eid = max((e.eid for e in z.events), default=-1) + 1
    insert_after: dict[int, AtomicExecute] = {}
    for frag in frags:
        # The atomic point follows the snapshot blocks, marker broadcasts
        # included, and the message operations moved after them.
        insert_after[frag.op_end + len(frag.msg_ops) - 1] = AtomicExecute(
            eid=next_eid,
            label=frag.leader,
            gid=frag.gid,
            proc_outcomes=frag.proc_outcomes,
            msg_outcomes=tuple((e.target_msg, e.outcome) for e in frag.msg_ops),
        )
        next_eid += 1

    out: list[Event] = []
    for i, ev in enumerate(z.events):
        if in_filter(ev):
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
    y: Execution | None = None  # class-sorted
    z: Execution | None = None  # message operations moved
    spec: Execution | None = None  # atomic specification execution
    swaps: int = 0


def verify(x: Execution) -> Certificate:
    """Check that ``x`` implements the atomic specification of each of its
    invocations; every transformation step is individually validated.

    Every reordering is planned on the events alone before ``x`` is
    replayed, so its one replay keeps only the states that a span's replay
    or the final comparison reads: each sorted span's first and end
    position, and position n.  A refusal met while planning is held and
    reported at its own stage, once the stages before it pass, so each
    rejection keeps the stage and the reason it has on its own."""
    verdicts: dict = {}

    def fail(stage: str, reason: str) -> Certificate:
        verdicts[stage] = False
        return Certificate(False, verdicts, reason=reason)

    # ``stage`` ends where planning stopped: the stage of ``held``, or the last.
    frags, class_spans, move_spans, nswaps = [], [], [], 0
    y = z = x
    stage, held = "decompose", None
    try:
        frags = decompose(x)
        for frag in frags:
            classify(x, frag)
        stage = "sort-classes"
        for frag in frags:
            y, span, swaps = eliminate_inversions(y, frag)
            class_spans.append(span)
            nswaps += swaps
        stage = "move-message-ops"
        z, move_spans, swaps = reorder_message_ops(y, frags)
        nswaps += swaps
    except (HypothesisViolation, ProtocolIncomplete, ClaimViolation) as exc:
        held = (stage, str(exc))

    n = len(x.events)
    kept = dict.fromkeys([n] + [i for span in class_spans + move_spans if span
                                for i in (span.start, span.stop)])
    try:
        for i, state in enumerate(walk(x)):
            if i in kept:
                kept[i] = state
    except executions.ReplayError as exc:
        return fail("well-formed", str(exc))
    if len({e.eid for e in x.events}) != len(x.events):
        return fail("well-formed", "event ids are not unique")
    verdicts["well-formed"] = True

    def check(w: Execution, span: range) -> None:
        # A span's states replace x's at the kept positions, as a later span reads them.
        if span:
            kept.update(replay_span(w, span, kept[span.start], kept[span.stop], kept))

    if stage == "decompose":
        return fail(*held)
    verdicts["decompose"] = True

    try:
        for span in class_spans:
            check(y, span)
    except LemmaViolation as exc:
        return fail("sort-classes", str(exc))
    if stage == "sort-classes":
        return fail(*held)
    verdicts["sort-classes"] = True

    if held:
        return fail(*held)
    for frag, span in zip(frags, move_spans):
        try:
            check(z, span)
        except LemmaViolation as exc:
            return fail("move-message-ops",
                        f"a message operation of the fragment at {frag.lo} applied in "
                        f"flight does not commute with its reception: {exc}")
    if not histories_correspond(history(y), history(z)):
        return fail("move-message-ops", "moving operations changed the history")
    verdicts["move-message-ops"] = True

    spec_x = build_spec_execution(z, frags)
    try:
        spec_final = specmachine.validate_spec_execution(spec_x)
    except executions.ReplayError as exc:
        return fail("spec-replay",
                    f"specification machine rejects step {exc.index}: {exc.reason}")
    # Each machine keeps its own phases in ext; the rest of the state must agree.
    z_final = kept[n]
    if not sysmodel.states_equal(dc_replace(spec_final, ext=z_final.ext), z_final, EPS_CHAIN):
        return fail("spec-replay", "specification ends in a different state")
    verdicts["spec-replay"] = True

    if not histories_correspond(history(z), history(spec_x)):
        return fail("histories", "histories of execution and specification differ")
    verdicts["histories"] = True

    return Certificate(True, verdicts, y=y, z=z, spec=spec_x, swaps=nswaps)
