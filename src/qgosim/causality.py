"""Causal order over executions and the checked swap that reorders them.

Causality is the transitive closure of two primitive edge kinds: consecutive
events carrying the same label, and the send/receive pair of one message.
``predecessors`` yields both over any events; ``verify`` reads only it,
over each sorted window.  The vector clocks and the edge set, built from it
alone, serve ``inspect --causality``, the benchmark's tracer and the tests.
A swap of two adjacent events verifies its own postconditions; a failure
raises LemmaViolation.  ``verify`` does not call ``swap_in_place``: its
reorderings are ``verifier.sort_window``'s checked permutations.  The tests
state the swap lemma with it, and ``swap_adjacent_cached``, its copying
form, stays because the benchmark's traced run wraps it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sysmodel
# ``replay`` is unused here; bench/tests/test_bench.py replays as ``causality.replay``.
from .executions import STEP_ERRORS, Execution, Receive, Send, replay, step  # noqa: F401
from .qcore import EPS_EXACT


class CausalityError(Exception):
    pass


class CausalDependency(CausalityError):
    """A reordering was attempted across a causal edge."""


class NotComparable(CausalityError):
    """Equicausality asked of executions over different event sets."""


class LemmaViolation(AssertionError):
    """A checked transformation's postcondition failed: the reordered
    execution does not step, or ends in another state."""


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


def predecessors(events):
    """Each of ``events`` in order, with the positions in ``events`` of its
    immediate causal predecessors among them, None where it has none: the
    previous event of its label, and, for a Receive, its message's Send."""
    last: dict[str, int] = {}  # label -> position of its latest event
    sent: dict[int, int] = {}  # message id -> position of its Send
    for i, ev in enumerate(events):
        send = sent.get(ev.msg_id) if isinstance(ev, Receive) else None
        yield ev, last.get(ev.label), send
        last[ev.label] = i
        if isinstance(ev, Send):
            sent[ev.msg.msg_id] = i


def primitive_edges(x: Execution) -> set[tuple[int, int]]:
    return {(x.events[p].eid, ev.eid)
            for ev, *preds in predecessors(x.events) for p in preds if p is not None}


def compute_causality(x: Execution) -> CausalRelation:
    """Vector clocks in one forward sweep: an event's clock joins the clocks
    of its predecessors and counts the event itself.  O(n·L) time and
    memory for n events over L labels."""
    seq, clock, clocks = {}, {}, []
    for ev, prev, send in predecessors(x.events):
        vc = {} if prev is None else dict(clocks[prev])
        if send is not None:
            for label, c in clocks[send].items():
                vc[label] = max(c, vc.get(label, 0))
        k = vc.get(ev.label, 0) + 1
        vc[ev.label] = k
        seq[ev.eid] = (ev.label, k)
        clock[ev.eid] = vc
        clocks.append(vc)
    return CausalRelation(seq, clock)


def equicausal(x: Execution, y: Execution) -> bool:
    """Same events, same happens-before: with each eid naming one event, the
    closures agree iff the primitive edges do (Mazurkiewicz 1977)."""
    if {e.eid for e in x.events} != {e.eid for e in y.events}:
        raise NotComparable("executions have different event sets")
    return primitive_edges(x) == primitive_edges(y)


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
