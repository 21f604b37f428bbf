import itertools

import numpy as np
import pytest

from qgosim import executions, sysmodel
from qgosim.causality import (
    CausalDependency,
    LemmaViolation,
    NotComparable,
    compute_causality,
    equicausal,
    swap_adjacent_cached,
)
from qgosim.executions import Apply, Execution, Receive, Send
from qgosim.qcore import (
    EPS_CHAIN,
    EPS_EXACT,
    NO_OUTCOME,
    DensityMatrix,
    RegisterId,
    RegisterSpace,
)
from qgosim.sysmodel import MessageInstance

# The paper's reordering lemmas, stated over the primitives ``verify`` runs.


def assert_reordering(x, y, tol=EPS_CHAIN):
    """The reordering theorem on one pair: ``y`` reorders ``x`` from the same
    initial state, equicausally, and a fresh replay of each ends in the same
    state within ``tol``."""
    assert y.initial is x.initial
    assert equicausal(x, y)
    assert sysmodel.states_equal(executions.replay(x)[-1], executions.replay(y)[-1], tol)


def moved(x, i, j):
    """The move lemma: the event at position i moved to position j by the
    checked swaps ``verify`` runs, two-event ``sort_window``s
    (``CausalDependency`` if it crosses a successor); the swap lemma is the
    case j = i + 1.  The window reads its own edges, so no relation is
    passed."""
    y, states = x, executions.replay(x)
    for k in range(i, j):
        y, states = swap_adjacent_cached(y, states, k, None)
    assert_reordering(x, y, EPS_EXACT)
    return y


def substituted(x, i, j, reorder):
    """The substitution lemma: the fragment of positions i..j-1, started from
    x's state there, replaced by ``reorder(fragment)``, which must be an
    equicausal reordering of it that ends in the same state."""
    frag = Execution(executions.replay(x)[i], x.events[i:j])
    alt = reorder(frag)
    assert_reordering(frag, alt, EPS_EXACT)
    y = Execution(x.initial, x.events[:i] + alt.events + x.events[j:])
    assert_reordering(x, y)
    return y


def closure_oracle(x):
    """Direct definition: primitive edges closed under transitivity
    (Floyd-Warshall over event positions)."""
    n = len(x.events)
    adj = [[False] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        a, b = x.events[i], x.events[j]
        if a.label == b.label and not any(
            x.events[k].label == a.label for k in range(i + 1, j)
        ):
            adj[i][j] = True
        if isinstance(a, Send) and isinstance(b, Receive) and b.msg_id == a.msg.msg_id:
            adj[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                adj[i][j] = adj[i][j] or (adj[i][k] and adj[k][j])
    return {
        (x.events[i].eid, x.events[j].eid)
        for i in range(n) for j in range(n) if adj[i][j]
    }


def three_proc_execution():
    regs = [RegisterId(i, 2) for i in range(3)]
    quantum = DensityMatrix.basis_state(RegisterSpace(tuple(regs)))
    procs = ("p0", "p1", "p2")
    st = sysmodel.initial_state(
        procs, {p: {"inbox": []} for p in procs}, quantum,
        {r: p for r, p in zip(regs, procs)},
    )
    events = (
        Send(eid=0, label="p0", msg=MessageInstance(0, "p0", "p1", classical=0)),
        Apply(eid=1, label="p2", name="a", outcome=NO_OUTCOME),
        Receive(eid=2, label="p1", chan="p0->p1", msg_id=0),
        Send(eid=3, label="p1", msg=MessageInstance(1, "p1", "p2", classical=1)),
        Apply(eid=4, label="p0", name="b", outcome=NO_OUTCOME),
        Receive(eid=5, label="p2", chan="p1->p2", msg_id=1),
    )
    return Execution(st, events)


class TestCausality:
    def test_against_oracle(self):
        x = three_proc_execution()
        rel = compute_causality(x)
        assert set(rel.pairs) == closure_oracle(x)

    def test_message_chain(self):
        rel = compute_causality(three_proc_execution())
        assert rel.prec(0, 2)   # send before receive
        assert rel.prec(0, 5)   # transitively through p1
        assert rel.prec(1, 5)   # same-label succession on p2
        assert not rel.prec(5, 1)

    def test_independent_events(self):
        rel = compute_causality(three_proc_execution())
        assert not rel.prec(0, 1)
        assert not rel.prec(1, 0)
        assert not rel.prec(4, 5)

    def test_oracle_on_every_permutation(self):
        x = three_proc_execution()
        eids = [e.eid for e in x.events]
        for order in itertools.permutations(x.events):
            y = Execution(x.initial, order)
            rel, oracle = compute_causality(y), closure_oracle(y)
            assert rel.pairs == oracle
            for a, b in itertools.product(eids, eids):
                assert rel.prec(a, b) == ((a, b) in oracle), (order, a, b)


class TestEquicausal:
    def test_swap_of_independent_pair(self):
        x = three_proc_execution()
        y = Execution(x.initial, (x.events[1], x.events[0]) + x.events[2:])
        assert equicausal(x, y)

    def test_reordered_message_differs(self):
        x = three_proc_execution()
        # moving the receive before its send changes (indeed breaks) causality
        ev = list(x.events)
        ev[0], ev[2] = ev[2], ev[0]
        assert not equicausal(x, Execution(x.initial, tuple(ev)))

    def test_agrees_with_closure_on_every_permutation(self):
        x = three_proc_execution()
        base = closure_oracle(x)
        same = 0
        for order in itertools.permutations(x.events):
            y = Execution(x.initial, order)
            assert equicausal(x, y) == (closure_oracle(y) == base), order
            same += equicausal(x, y)
        assert 1 < same < 720

    def test_different_event_sets_not_comparable(self):
        x = three_proc_execution()
        y = Execution(x.initial, x.events[:-1])
        with pytest.raises(NotComparable):
            equicausal(x, y)


class TestSwapAdjacent:
    def test_valid_swap(self):
        x = three_proc_execution()
        y = moved(x, 0, 1)
        assert [e.eid for e in y.events][:2] == [1, 0]
        assert sysmodel.states_equal(
            executions.replay(x)[-1], executions.replay(y)[-1], 1e-12
        )

    def test_causal_pair_rejected(self):
        x = three_proc_execution()
        with pytest.raises(CausalDependency):
            moved(x, 2, 3)  # receive then dependent send on p1

    def test_chain_of_swaps_preserves_final(self):
        x = three_proc_execution()
        rng = np.random.default_rng(3)
        y = x
        for _ in range(30):
            i = int(rng.integers(len(y.events) - 1))
            try:
                y = moved(y, i, i + 1)
            except CausalDependency:
                continue
        assert_reordering(x, y)


def same_items(a, b):
    return len(a) == len(b) and all(u is v for u, v in zip(a, b))


def refused_swaps():
    """(execution, its states, i, error, its message) for each way a swap of
    positions i and i+1 is refused: a causal pair (p1's reception, then its
    send); a step that cannot run (p1's reception moved before p2's step,
    from a state before the message was sent); a pair that ends in another
    state than the cached one."""
    x = three_proc_execution()
    states = executions.replay(x)
    unsent, stale = list(states), list(states)
    unsent[1] = states[0]
    stale[2] = states[0]
    return [
        (x, states, 2, CausalDependency, "^event 2 happens before 3$"),
        (x, unsent, 1, LemmaViolation, "^sorted window produced invalid step: "),
        (x, stale, 0, LemmaViolation, "^sorting changed the state after the window$"),
    ]


REFUSED = pytest.mark.parametrize("case", range(3), ids=["causal", "invalid-step",
                                                        "other-state"])


class TestSwapInPlace:
    """``swap_adjacent_cached``, the adjacent swap on copies."""

    def test_valid_swap_changes_the_pair_and_the_two_states_after_it(self):
        """The pair is swapped, the two states inside it are replayed, and
        the states outside it are reused."""
        x = three_proc_execution()
        states = executions.replay(x)
        y, new_states = swap_adjacent_cached(x, states, 0, None)
        assert [e.eid for e in y.events] == [1, 0, 2, 3, 4, 5]
        assert same_items(new_states[:1] + new_states[3:], states[:1] + states[3:])
        assert sysmodel.states_equal(new_states[1], executions.step(states[0], x.events[1]),
                                     0.0)
        assert sysmodel.states_equal(new_states[2],
                                     executions.step(new_states[1], x.events[0]), 0.0)
        assert new_states[2] is not states[2]
        assert sysmodel.states_equal(new_states[2], states[2], 1e-12)

    def test_copying_adapter_leaves_its_inputs_unchanged(self):
        x = three_proc_execution()
        states = executions.replay(x)
        before_events, before_states = x.events, list(states)
        y, y_states = swap_adjacent_cached(x, states, 0, None)
        assert [e.eid for e in y.events][:2] == [1, 0]
        assert x.events is before_events and same_items(states, before_states)
        assert not same_items(y_states, states)

    @REFUSED
    def test_refused_copying_adapter_leaves_its_inputs_unchanged(self, case):
        x, states, i, error, message = refused_swaps()[case]
        before_events, before_states = x.events, list(states)
        with pytest.raises(error, match=message):
            swap_adjacent_cached(x, states, i, None)
        assert x.events is before_events and same_items(states, before_states)


class TestMoveToEnd:
    def test_move_valid(self):
        x = three_proc_execution()
        y = moved(x, 1, 4)
        assert y.events[4].eid == 1
        assert sysmodel.states_equal(
            executions.replay(x)[-1], executions.replay(y)[-1], 1e-12
        )

    def test_move_blocked_by_successor(self):
        x = three_proc_execution()
        with pytest.raises(CausalDependency):
            moved(x, 0, 3)  # would cross its own receive


class TestSubstitute:
    def test_substitute_reordered_fragment(self):
        x = three_proc_execution()
        y = substituted(x, 0, 2, lambda frag: moved(frag, 0, 1))
        assert [e.eid for e in y.events] == [1, 0, 2, 3, 4, 5]

    def test_wrong_events_rejected(self):
        x = three_proc_execution()
        with pytest.raises(NotComparable):
            substituted(x, 0, 2, lambda frag: Execution(frag.initial, x.events[3:5]))
