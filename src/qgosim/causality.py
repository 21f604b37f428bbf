"""Causal order over executions and the one checked reordering.

Causality is the transitive closure of two primitive edge kinds: consecutive
events carrying the same label, and the send/receive pair of one message.
``predecessors`` yields both over any events.  A checked sort has two
halves.  ``plan_window`` permutes a window of an execution by rank and
refuses a dependent inverted pair on those edges inside the window, reading
no state; ``replay_span`` replays the span the sort changes from the state
before it, and a failed postcondition raises LemmaViolation.  ``verify``
plans every sort before its one replay of the execution, so it keeps only
the states the spans read.  ``swap_adjacent_cached`` joins the halves for
a window of two events on a full replay; with it the tests state the
paper's swap lemma.  No ``src/`` path builds the vector clocks or the edge
set: they serve the benchmark's tracer and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import executions, sysmodel
# ``replay`` and ``step`` are unused here; bench/tests/test_bench.py replays
# as ``causality.replay`` and asserts ``causality.step is executions.step``.
from .executions import Execution, Receive, Send, replay, step  # noqa: F401
from .qcore import EPS_EXACT


class CausalDependency(Exception):
    """A reordering was attempted across a causal edge."""


class NotComparable(Exception):
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


def plan_window(x: Execution, lo: int, hi: int, rank) -> tuple[Execution, range, int]:
    """Stably sort positions [lo, hi) of ``x`` by ``rank(event)``, reading
    no state: the sorted execution, the span of positions it changes (from
    its first to its last moved position; empty, with ``x`` itself, when it
    inverts nothing) and its inversion count.

    The first event b with a higher-ranked immediate predecessor a in the
    window (``predecessors`` over the window alone) raises
    CausalDependency.  That is the whole dependency test: happens-before
    respects position, so a causal path between two events of the window
    stays inside it.  Take the first b that an earlier, higher-ranked a
    happens before, and the last edge c -> b of a path from a.  Were
    rank(c) <= rank(b), c would be an earlier such b.  So an inverted
    dependent pair exists iff an edge in the window drops in rank, and
    both tests stop at the same first b.  With no edge dropping, each label
    keeps its order and each message its Send before its Receive, so the
    sorted execution has x's primitive edges, hence x's happens-before."""
    window = x.events[lo:hi]
    ranks = [rank(e) for e in window]
    seen: dict = {}  # rank -> the number of its events before b
    nswaps = 0
    for (b, *preds), r in zip(predecessors(window), ranks):
        for a in preds:
            if a is not None and ranks[a] > r:
                raise CausalDependency(f"event {window[a].eid} happens before {b.eid}")
        nswaps += sum(count for ra, count in seen.items() if ra > r)
        seen[r] = seen.get(r, 0) + 1
    if nswaps == 0:
        return x, range(0), 0
    order = sorted(window, key=rank)
    changed = [lo + i for i, (a, b) in enumerate(zip(window, order)) if a is not b]
    events = x.events[:lo] + tuple(order) + x.events[hi:]
    return Execution(x.initial, events), range(changed[0], changed[-1] + 1), nswaps


def replay_span(y: Execution, span: range, pre, post, keep) -> dict:
    """The checked half of a sort: replay the events of the sorted ``y`` in
    ``span`` from ``pre``, the state before it, and require the state
    reached to equal ``post``, the unsorted execution's state after it,
    within EPS_EXACT, else LemmaViolation.  Outside the span the sorted
    execution steps as the unsorted one does.  Returns the states reached
    at the positions in ``keep``, after the span's first, up to its end."""
    state, reached = pre, {}
    try:
        for i in span:
            state = executions.step(state, y.events[i])
            if i + 1 in keep:
                reached[i + 1] = state
    except executions.STEP_ERRORS as exc:
        raise LemmaViolation(f"sorted window produced invalid step: {exc}") from exc
    if not sysmodel.states_equal(state, post, EPS_EXACT):
        raise LemmaViolation("sorting changed the state after the window")
    return reached


def swap_adjacent_cached(
    x: Execution,
    states: list,
    i: int,
    relation: CausalRelation,
) -> tuple[Execution, list]:
    """Swap the events at positions i and i+1 of ``x``: the checked sort of
    the window [i, i+2) with the later event ranked first, on ``states``,
    the full replay of ``x``.  Returns the swapped execution and its full
    replay, leaving ``x`` and ``states`` as they were.  The window reads
    its own edges, so ``relation`` is not read; the benchmark's tests call
    this four-argument form."""
    later = x.events[i + 1]
    y, span, _ = plan_window(x, i, i + 2, lambda e: e is not later)
    reached = replay_span(y, span, states[span.start], states[span.stop], range(len(states)))
    return y, [reached.get(k, state) for k, state in enumerate(states)]
