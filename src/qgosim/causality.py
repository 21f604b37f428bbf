"""Causal order over executions and checked reordering transformations.

Causality is the transitive closure of two primitive edge kinds: consecutive
events carrying the same label, and the send/receive pair of one message.
The reordering operations (adjacent swap, move-to-end, substitution) verify
their own postconditions; a postcondition failure raises LemmaViolation,
which indicates a bug rather than a property of the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import executions, sysmodel
from .executions import STEP_ERRORS, Execution, Receive, Send, replay, step
from .qcore import EPS_CHAIN, EPS_EXACT


class CausalityError(Exception):
    pass


class CausalDependency(CausalityError):
    """A reordering was attempted across a causal edge."""


class NotComparable(CausalityError):
    """Equicausality asked of executions over different event sets."""


class SubstitutionMismatch(CausalityError):
    pass


class LemmaViolation(AssertionError):
    """A checked transformation postcondition failed: an internal bug."""


@dataclass(frozen=True)
class CausalRelation:
    """Happens-before as vector clocks by label (Fidge 1988; Mattern 1989).
    ``seq[eid] = (label, k)`` makes the event the k-th of its label, from 1;
    ``clock[eid][label]`` counts that label's events in its causal past,
    itself included.  So a happens before b iff a != b and clock[b] reaches a.
    """

    seq: dict
    clock: dict

    def prec(self, a: int, b: int) -> bool:
        label, k = self.seq[a]
        return a != b and self.clock[b].get(label, 0) >= k

    @property
    def pair_count(self) -> int:
        """len(pairs) in O(n·L): clock[b] sums to b's causal past plus b."""
        return sum(sum(vc.values()) for vc in self.clock.values()) - len(self.clock)

    @property
    def pairs(self) -> frozenset:
        """Every (a, b) with a happening before b, in O(|pairs| + n·L)."""
        chains: dict[str, list[int]] = {}
        for eid, (label, _) in self.seq.items():  # in execution order
            chains.setdefault(label, []).append(eid)
        return frozenset(
            (a, b)
            for b, vc in self.clock.items()
            for label, count in vc.items()
            for a in chains[label][:count]
            if a != b
        )


def primitive_edges(x: Execution) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    last_by_label: dict[str, int] = {}
    send_of_msg: dict[int, int] = {}
    for ev in x.events:
        if ev.label in last_by_label:
            edges.add((last_by_label[ev.label], ev.eid))
        last_by_label[ev.label] = ev.eid
        if isinstance(ev, Send):
            send_of_msg[ev.msg.msg_id] = ev.eid
        elif isinstance(ev, Receive) and ev.msg_id in send_of_msg:
            edges.add((send_of_msg[ev.msg_id], ev.eid))
    return edges


def compute_causality(x: Execution) -> CausalRelation:
    """Vector clocks from the primitive edges in one forward sweep:
    O(n·L) time and memory for n events over L labels."""
    preds: dict[int, list[int]] = {}
    for a, b in primitive_edges(x):
        preds.setdefault(b, []).append(a)
    seq, clock, counts = {}, {}, {}
    for ev in x.events:  # edges point forward: predecessors come first
        k = counts[ev.label] = counts.get(ev.label, 0) + 1
        vc: dict[str, int] = {}
        for a in preds.get(ev.eid, ()):
            for label, c in clock[a].items():
                vc[label] = max(c, vc.get(label, 0))
        vc[ev.label] = k
        seq[ev.eid] = (ev.label, k)
        clock[ev.eid] = vc
    return CausalRelation(seq, clock)


def equicausal(x: Execution, y: Execution) -> bool:
    """Same events, same happens-before: with each eid naming one event, the
    closures agree iff the primitive edges do (Mazurkiewicz 1977)."""
    if {e.eid for e in x.events} != {e.eid for e in y.events}:
        raise NotComparable("executions have different event sets")
    return primitive_edges(x) == primitive_edges(y)


def lightcones(x: Execution, eids) -> tuple[set[int], set[int]]:
    """(past, future) of the event set: everything causally before/after it.

    From the clocks in O(n·L): a is in the past when some event of the set
    reaches it, so when the set's largest clock entry for a's label does;
    b is in the future when its clock reaches the set's earliest event of
    some label.
    """
    eids = set(eids)
    rel = compute_causality(x)
    reach: dict[str, int] = {}
    first: dict[str, int] = {}
    for e in eids & rel.seq.keys():
        for label, c in rel.clock[e].items():
            reach[label] = max(c, reach.get(label, 0))
        label, k = rel.seq[e]
        first[label] = min(k, first.get(label, k))
    past = {a for a, (label, k) in rel.seq.items()
            if a not in eids and k <= reach.get(label, 0)}
    fut = {b for b, vc in rel.clock.items()
           if b not in eids and any(vc.get(label, 0) >= k for label, k in first.items())}
    return past, fut


def swap_adjacent(x: Execution, i: int, relation: CausalRelation | None = None) -> Execution:
    """Swap the causally independent events at positions i and i+1.

    Precondition (CausalDependency otherwise): events[i] does not happen
    before events[i+1].  Postconditions: those of ``swap_adjacent_cached``,
    and, by a fresh replay of the result, that it is well formed,
    equicausal with ``x``, and ends in the same state (within EPS_EXACT).
    """
    rel = relation if relation is not None else compute_causality(x)
    states = replay(x)
    y, _ = swap_adjacent_cached(x, states, i, rel)
    try:
        final_y = replay(y)[-1]
    except executions.ReplayError as exc:
        raise LemmaViolation(f"swap produced ill-formed execution: {exc}") from exc
    if not equicausal(x, y):
        raise LemmaViolation("swap changed the causal relation")
    if not sysmodel.states_equal(states[-1], final_y, EPS_EXACT):
        raise LemmaViolation("swap changed the final state")
    return y


def swap_in_place(events: list, states: list, i: int, relation: CausalRelation) -> None:
    """Swap the causally independent events at positions i and i+1 of
    ``events``, updating ``states``, its replay, to the replay of the result.

    The checks come first and mutate nothing: events[i] does not happen
    before events[i+1] (CausalDependency otherwise), and both steps of the
    swapped pair are valid from states[i] and end in states[i+2] within
    EPS_EXACT (LemmaViolation otherwise).  So a raise leaves both lists as
    they were.  Only the two events and the two states after them change;
    the later states are reused (they agree with a fresh replay to
    floating-point noise, far below EPS_EXACT).  A valid swap leaves the
    causal relation unchanged, so ``relation`` stays usable.
    """
    a, b = events[i], events[i + 1]
    if relation.prec(a.eid, b.eid):
        raise CausalDependency(f"event {a.eid} happens before {b.eid}")
    try:
        mid = step(states[i], b)
        end = step(mid, a)
    except STEP_ERRORS as exc:
        raise LemmaViolation(f"swap produced invalid step: {exc}") from exc
    if not sysmodel.states_equal(end, states[i + 2], EPS_EXACT):
        raise LemmaViolation("swap changed the state after the pair")
    events[i], events[i + 1] = b, a
    states[i + 1], states[i + 2] = mid, end


def swap_adjacent_cached(
    x: Execution,
    states: list,
    i: int,
    relation: CausalRelation,
) -> tuple[Execution, list]:
    """``swap_in_place`` on copies: the swapped execution and its replay,
    leaving ``x`` and ``states`` (the replay of ``x``) as they were."""
    events, new_states = list(x.events), list(states)
    swap_in_place(events, new_states, i, relation)
    return Execution(x.initial, events), new_states


def move_to_end(x: Execution, i: int, j: int) -> Execution:
    """Move the event at position i to position j by repeated swaps.

    Precondition: no event in positions i+1..j causally depends on the
    event at i (each individual swap checks this).
    """
    if not (0 <= i <= j < len(x.events)):
        raise IndexError(f"move bounds {i}:{j} out of range")
    rel = compute_causality(x)
    states = replay(x)
    for k in range(i, j):
        x, states = swap_adjacent_cached(x, states, k, rel)
    final = replay(x)[-1]
    if not sysmodel.states_equal(final, states[-1], EPS_EXACT):
        raise LemmaViolation("move-to-end drifted from replayed state")
    return x


def substitute(x: Execution, i: int, j: int, y0: Execution) -> Execution:
    """Replace the fragment at 1-based positions i..j with ``y0``.

    ``y0`` must be equicausal with the fragment it replaces and end in the
    same state (within EPS_EXACT).
    """
    frag = executions.slice_execution(x, i, j)
    try:
        if not equicausal(frag, y0):
            raise SubstitutionMismatch("replacement is not equicausal with fragment")
    except NotComparable as exc:
        raise SubstitutionMismatch(str(exc)) from exc
    if not sysmodel.states_equal(
        executions.final_state(frag), executions.final_state(y0), EPS_EXACT
    ):
        raise SubstitutionMismatch("replacement ends in a different state")
    if not sysmodel.states_equal(frag.initial, y0.initial, EPS_EXACT):
        raise SubstitutionMismatch("replacement starts from a different state")
    events = x.events[: i - 1] + y0.events + x.events[j:]
    result = Execution(x.initial, events)
    if not executions.well_formed(result):
        raise LemmaViolation("substitution produced ill-formed execution")
    return result


def check_equiv_theorem(x: Execution, y: Execution, tol: float = EPS_CHAIN) -> bool:
    """Equicausal executions from the same initial state end in the same
    state: the reordering theorem, checked concretely."""
    if not sysmodel.states_equal(x.initial, y.initial, 0.0):
        return False
    if not equicausal(x, y):
        return False
    return sysmodel.states_equal(
        executions.final_state(x), executions.final_state(y), tol
    )
