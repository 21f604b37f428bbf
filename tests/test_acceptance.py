"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line."""

import itertools
import json
from contextlib import contextmanager

import numpy as np
import pytest

from qgosim import causality, executions, qcore, specmachine, sysmodel, verifier
from qgosim.causality import CausalDependency, NotComparable, compute_causality, swap_in_place
from qgosim.executions import Execution
from qgosim.harness import traceio
from qgosim.harness.scenarios import ScenarioConfig
from qgosim.harness.scheduler import run_simulation
from qgosim.qcore import (
    DensityMatrix,
    RegisterAllocator,
    RegisterId,
    RegisterMap,
    RegisterSpace,
)
from test_causality import assert_reordering, moved, substituted


@contextmanager
def criterion(n, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} ({name}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {n} ({name}): PASS", flush=True)


def epr_density():
    r0, r1 = RegisterId(0, 2), RegisterId(1, 2)
    vec = np.zeros(4, complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    return DensityMatrix.from_vector(RegisterSpace((r0, r1)), vec), r0, r1


# ---------------------------------------------------------------------------
# 1. EPR measurement example
# ---------------------------------------------------------------------------

def test_acceptance_1_epr_example():
    with criterion(1, "EPR measurement example"):
        rho, r0, r1 = epr_density()
        meas = qcore.standard_basis_measurement([2])
        for out in ("0", "1"):
            post = qcore.apply_outcome(rho, meas, RegisterMap((r0,)), out)
            assert abs(post.trace - 0.5) < 1e-12
            expect = np.zeros((4, 4), complex)
            idx = 0 if out == "0" else 3
            expect[idx, idx] = 0.5
            assert np.allclose(post.entries, expect, atol=1e-12)
        reduced = qcore.partial_trace(rho, [r1])
        assert np.allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)


# ---------------------------------------------------------------------------
# 2. Commutation of operations on disjoint registers
# ---------------------------------------------------------------------------

def random_operation(rng, dims):
    kind = rng.integers(3)
    total = int(np.prod(dims))
    if kind == 0:
        z = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
        u, _ = np.linalg.qr(z)
        return qcore.unitary_channel(u, dims)
    if kind == 1:
        return qcore.standard_basis_measurement(dims)
    if all(d == 2 for d in dims):
        return qcore.pauli_pad_operation(len(dims))
    return qcore.standard_basis_measurement(dims)


def test_acceptance_2_disjoint_commutation():
    with criterion(2, "disjoint-register commutation, 500 pairs"):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            n = int(rng.integers(2, 5))  # total dim 4..16
            regs = tuple(RegisterId(i, 2) for i in range(n))
            space = RegisterSpace(regs)
            z = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
            rho = DensityMatrix.from_vector(space, z / np.linalg.norm(z))
            k = int(rng.integers(1, n))
            perm = rng.permutation(n)
            ra = tuple(regs[i] for i in sorted(perm[:k]))
            rb = tuple(regs[i] for i in sorted(perm[k:]))
            opa = random_operation(rng, [r.dim for r in ra])
            opb = random_operation(rng, [r.dim for r in rb])
            outa = opa.outcome_set[rng.integers(len(opa.outcome_set))]
            outb = opb.outcome_set[rng.integers(len(opb.outcome_set))]
            ab = qcore.apply_outcome(
                qcore.apply_outcome(rho, opa, RegisterMap(ra), outa),
                opb, RegisterMap(rb), outb,
            )
            ba = qcore.apply_outcome(
                qcore.apply_outcome(rho, opb, RegisterMap(rb), outb),
                opa, RegisterMap(ra), outa,
            )
            ca, cb = qcore.canonical_form(ab), qcore.canonical_form(ba)
            assert ca.space.registers == cb.space.registers
            assert np.allclose(ca.entries, cb.entries, atol=1e-12)


# ---------------------------------------------------------------------------
# Shared execution corpora
# ---------------------------------------------------------------------------

def tiny_configs():
    """Scenario configs whose executions stay within 6 events."""
    cfgs = []
    for n in (1, 2):
        cfgs.append(ScenarioConfig(base="ping", procs=2,
                                   base_params={"n_msgs": n}))
    for hops in (1, 2):
        cfgs.append(ScenarioConfig(base="token-ring", procs=2,
                                   base_params={"max_hops": hops}))
    for gid in ("record-only", "snapshot-measure", "global-encrypt"):
        cfgs.append(ScenarioConfig(
            base="empty", procs=1, base_params={"qubits_per_proc": 1},
            invocations=[{"gid": gid, "leader": "p0", "after_step": 0}],
        ))
    return cfgs


def medium_corpus():
    """200 seeded executions of at most 40 events."""
    shapes = [
        ("token-ring", 2, {"max_hops": 3, "epr_pair": True}),
        ("teleport", 2, {}),
        ("ping", 2, {"n_msgs": 3}),
        ("token-ring", 3, {"max_hops": 3}),
    ]
    gops = ["snapshot-measure", "global-encrypt", "record-only"]
    out = []
    s = 0
    while len(out) < 200:
        base, procs, params = shapes[s % len(shapes)]
        gid = gops[s % len(gops)]
        cfg = ScenarioConfig(
            base=base, procs=procs, base_params=params,
            invocations=[{"gid": gid, "leader": "p0", "after_step": 2}],
            seed=s,
        )
        x = run_simulation(cfg).execution
        if len(x.events) <= 40:
            out.append(x)
        s += 1
    return out


@pytest.fixture(scope="module")
def corpus():
    return medium_corpus()


# ---------------------------------------------------------------------------
# 3. Reordering theorem, exhaustively on tiny executions
# ---------------------------------------------------------------------------

def test_acceptance_3_reordering_exhaustive():
    with criterion(3, "reordering theorem, exhaustive on <=6 events"):
        generations = 0
        for cfg in tiny_configs():
            for seed in range(8):
                cfg.seed = seed
                x = run_simulation(cfg).execution
                assert len(x.events) <= 6
                assert x.initial.quantum.space.total_dim <= 16
                generations += 1
                base_rel = compute_causality(x).pairs
                final = executions.replay(x)[-1]
                for order in itertools.permutations(range(len(x.events))):
                    y = Execution(x.initial, tuple(x.events[i] for i in order))
                    try:
                        states = executions.replay(y)
                    except executions.ReplayError:
                        continue  # ill-formed orderings are rejected outright
                    if compute_causality(y).pairs == base_rel:
                        assert sysmodel.states_equal(states[-1], final, 1e-9)
                    # otherwise the changed relation itself is the flag
        assert generations >= 50


# ---------------------------------------------------------------------------
# 4. Reordering theorem, randomized
# ---------------------------------------------------------------------------

def test_acceptance_4_reordering_randomized(corpus):
    with criterion(4, "reordering theorem, randomized chains"):
        rng = np.random.default_rng(4)
        for xi, x in enumerate(corpus):
            base_states = executions.replay(x)
            rel = compute_causality(x)
            for chain in range(20):
                events, states = list(x.events), list(base_states)
                for _ in range(15):
                    i = int(rng.integers(len(events) - 1))
                    try:
                        swap_in_place(events, states, i, rel)
                    except CausalDependency:
                        continue
                assert sysmodel.states_equal(states[-1], base_states[-1], 1e-9)
                if chain == 0:
                    # fresh replay, independent of the incremental states
                    assert_reordering(x, Execution(x.initial, events))


# ---------------------------------------------------------------------------
# 5. Lemma suite
# ---------------------------------------------------------------------------

def test_acceptance_5_lemma_suite(corpus):
    with criterion(5, "reordering lemmas and their preconditions"):
        rng = np.random.default_rng(5)
        causal_hits = swap_ok = 0
        for x in corpus:
            rel = compute_causality(x)
            # adjacent swaps: allowed pairs never violate, causal pairs raise
            for _ in range(6):
                i = int(rng.integers(len(x.events) - 1))
                a, b = x.events[i], x.events[i + 1]
                if rel.prec(a.eid, b.eid):
                    with pytest.raises(CausalDependency):
                        moved(x, i, i + 1, rel)
                    causal_hits += 1
                else:
                    moved(x, i, i + 1, rel)  # LemmaViolation would propagate
                    swap_ok += 1
            # move an event with no successors in a short window
            n = len(x.events)
            for i in range(n - 1):
                j = min(i + 4, n - 1)
                if not any(rel.prec(x.events[i].eid, x.events[k].eid)
                           for k in range(i + 1, j + 1)):
                    moved(x, i, j, rel)
                    break
            # substitution round trip on a reorderable slice
            for i in range(n - 1):
                a, b = x.events[i], x.events[i + 1]
                if not rel.prec(a.eid, b.eid):
                    substituted(x, i, i + 2, lambda frag: moved(frag, 0, 1))
                    break
        assert causal_hits > 0 and swap_ok > 0
        # declared errors on bad inputs
        x = corpus[0]
        with pytest.raises(NotComparable):
            causality.equicausal(x, Execution(x.initial, x.events[:-1]))
        with pytest.raises(NotComparable):
            substituted(x, 0, 2, lambda frag: Execution(frag.initial, x.events[2:4]))


def test_class_sort_is_stable_with_one_swap_per_inversion(corpus):
    rank = {"pre": 0, "op": 1, "post": 2}
    sorted_frags = 0
    for x in corpus:
        frags = verifier.decompose(x)
        states, rel = executions.replay(x), compute_causality(x)
        y = x
        for frag in frags:
            verifier.classify(x, frag)
            before = [frag.classes[e.eid] for e in y.events[frag.lo: frag.hi + 1]]
            eids = [e.eid for e in y.events[frag.lo: frag.hi + 1]]
            inversions = sum(rank[a] > rank[b]
                             for a, b in itertools.combinations(before, 2))
            y, states, nswaps = verifier.eliminate_inversions(y, states, frag, rel)
            assert nswaps == inversions
            assert [e.eid for e in y.events[frag.lo: frag.hi + 1]] == sorted(
                eids, key=lambda eid: rank[frag.classes[eid]])
            sorted_frags += nswaps > 0
    assert sorted_frags > 0


# ---------------------------------------------------------------------------
# 6. End-to-end verification batch
# ---------------------------------------------------------------------------

def test_acceptance_6_verification_batch():
    with criterion(6, "200-seed verification batch"):
        gops = ["snapshot-measure", "global-encrypt", "record-only"]
        accepted = 0
        for seed in range(200):
            if seed % 2 == 0:
                base, procs, params = "token-ring", 2, {"max_hops": 3, "epr_pair": True}
            else:
                base, procs, params = "teleport", 2, {}
            gid = gops[(seed // 2) % 3]
            ninv = seed % 3 + 1
            cfg = ScenarioConfig(
                base=base, procs=procs, base_params=params,
                invocations=[{"gid": gid, "leader": f"p{k % procs}",
                              "after_step": 2 + 3 * k} for k in range(ninv)],
                seed=seed,
            )
            x = run_simulation(cfg).execution
            cert = verifier.verify(x)
            assert cert.accepted, (seed, base, gid, ninv, cert.reason)
            accepted += 1
            if seed % 40 == 0:
                # spot-check the certificate's own claims
                assert causality.equicausal(x, cert.y)
                assert sysmodel.states_equal(
                    executions.replay(x)[-1], executions.replay(cert.y)[-1], 1e-9
                )
                assert verifier.histories_correspond(
                    verifier.history(cert.y), verifier.history(cert.z)
                )
                assert specmachine.validate_spec_execution(cert.spec)
                assert verifier.histories_correspond(
                    verifier.history(cert.z), verifier.history(cert.spec)
                )
        assert accepted == 200


# ---------------------------------------------------------------------------
# 7. Classical-snapshot degeneration
# ---------------------------------------------------------------------------

def test_acceptance_7_classical_snapshot():
    with criterion(7, "classical snapshot degeneration"):
        for seed in range(20):
            cfg = ScenarioConfig(
                base="token-ring", procs=3, base_params={"max_hops": 4},
                invocations=[{"gid": "record-only", "leader": "p1",
                              "after_step": 2}],
                seed=seed,
            )
            x = run_simulation(cfg).execution
            cert = verifier.verify(x)
            assert cert.accepted
            states = executions.replay(cert.spec, specmachine.spec_step)
            pos = next(i for i, e in enumerate(cert.spec.events)
                       if isinstance(e, executions.AtomicExecute))
            snap = states[pos + 1]
            for p in snap.procs:
                rec = snap.ext[p]["record"]
                recorded_sigma = json.loads(json.loads(rec["self"])["c"])
                assert recorded_sigma == snap.classical[p]
                for chan, outs in rec["channels"].items():
                    recorded = [json.loads(json.loads(o)["c"]) for o in outs]
                    assert recorded == [m.classical for m in snap.channels[chan]]


# ---------------------------------------------------------------------------
# 8. Encryption round trip
# ---------------------------------------------------------------------------

def test_acceptance_8_encrypt_roundtrip():
    with criterion(8, "one-time-pad round trip"):
        for seed in range(10):
            def run(gid):
                cfg = ScenarioConfig(
                    base="token-ring", procs=2,
                    base_params={"max_hops": 3, "epr_pair": True,
                                 "qubits_per_proc": 1},
                    invocations=[{"gid": gid, "leader": "p0", "after_step": 3}],
                    seed=seed,
                )
                return run_simulation(cfg)

            enc, plain = run("global-encrypt"), run("record-only")
            # the scheduler draws from its own stream: both runs interleave
            # identically, so the quantum states are directly comparable
            assert enc.decisions == plain.decisions
            cert = verifier.verify(enc.execution)
            assert cert.accepted
            # every pad the execution applied, each undone with its key
            rho = enc.final_state.quantum
            pads = [e for e in enc.execution.events
                    if isinstance(e, executions.Apply) and e.name.startswith("gop-")]
            assert len(pads) >= 2
            for pad in pads:
                if pad.qop is None:
                    continue
                key = json.loads(pad.outcome)["q"]
                undo = qcore.unitary_channel(
                    qcore.pauli_string_matrix(key), [r.dim for r in pad.in_regs]
                )
                rho = qcore.apply_outcome(
                    rho, undo, RegisterMap(pad.in_regs), qcore.NO_OUTCOME
                )
            a = qcore.canonical_form(rho)
            b = qcore.canonical_form(plain.final_state.quantum)
            assert a.space.registers == b.space.registers
            # encryption subnormalizes by the key probability; compare the
            # physical (renormalized) states
            assert np.allclose(a.entries / a.trace, b.entries / b.trace,
                               atol=1e-9)


# ---------------------------------------------------------------------------
# 9. Determinism and trace I/O
# ---------------------------------------------------------------------------

def test_acceptance_9_determinism_and_io():
    with criterion(9, "deterministic runs and trace round trips"):
        shapes = [
            ("token-ring", 2, {"max_hops": 3, "epr_pair": True}, "snapshot-measure"),
            ("teleport", 2, {}, "global-encrypt"),
            ("ping", 2, {"n_msgs": 2}, "record-only"),
            ("token-ring", 3, {"max_hops": 3}, "record-only"),
        ]
        for base, procs, params, gid in shapes:
            for seed in (0, 1, 2):
                cfg = ScenarioConfig(
                    base=base, procs=procs, base_params=params,
                    invocations=[{"gid": gid, "leader": "p0", "after_step": 2}],
                    seed=seed,
                )
                a, b = run_simulation(cfg), run_simulation(cfg)
                ta = traceio.serialize_run(a.execution, cfg, a.decisions)
                tb = traceio.serialize_run(b.execution, cfg, b.decisions)
                assert ta == tb
                x, c2, d2 = traceio.parse_run(ta)
                assert traceio.serialize_run(x, c2, d2) == ta
                final = executions.replay(x)[-1]
                assert final.quantum.space.registers == a.final_state.quantum.space.registers
                assert sysmodel.states_equal(final, a.final_state, 0.0)
