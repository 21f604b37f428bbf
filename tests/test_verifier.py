import dataclasses
import json

import numpy as np
import pytest

from qgosim import causality, executions, qcore, specmachine, sysmodel, verifier
from qgosim.executions import Apply, Execution, Invoke, Respond, Send
from qgosim.harness import traceio
from qgosim.harness.scenarios import ScenarioConfig
from qgosim.harness.scheduler import run_simulation
from qgosim.qgo import outcome_label
from qgosim.sysmodel import encode_classical


def generate(seed=0, base="token-ring", gid="snapshot-measure", invocations=1,
             procs=2, params=None):
    if params is None:
        params = {"max_hops": 3, "epr_pair": True} if base == "token-ring" else {}
    cfg = ScenarioConfig(
        base=base, procs=procs, base_params=params,
        invocations=[{"gid": gid, "leader": f"p{k % procs}", "after_step": 2 + 3 * k}
                     for k in range(invocations)],
        seed=seed,
    )
    return run_simulation(cfg).execution


class TestAccept:
    def test_accepts_and_certifies(self):
        x = generate(seed=11)
        cert = verifier.verify(x)
        assert cert.accepted
        assert all(cert.verdicts.values())
        # the sorted execution is an equicausal reordering of the original
        assert causality.equicausal(x, cert.y)
        assert sysmodel.states_equal(
            executions.final_state(x), executions.final_state(cert.y), 1e-9
        )
        # histories survive every stage
        assert verifier.histories_correspond(
            verifier.history(cert.y), verifier.history(cert.z)
        )
        assert verifier.histories_correspond(
            verifier.history(cert.z), verifier.history(cert.spec)
        )
        assert specmachine.validate_spec_execution(cert.spec)

    def test_spec_execution_has_one_atomic_per_invocation(self):
        x = generate(seed=3, invocations=2, gid="record-only")
        cert = verifier.verify(x)
        assert cert.accepted
        atomics = [e for e in cert.spec.events
                   if isinstance(e, executions.AtomicExecute)]
        assert len(atomics) == 2
        assert not any(
            getattr(e, "protocol", False) and not isinstance(
                e, (Invoke, Respond, executions.AtomicExecute))
            for e in cert.spec.events
        )

    def test_teleport_with_encrypt(self):
        x = generate(seed=5, base="teleport", gid="global-encrypt")
        cert = verifier.verify(x)
        assert cert.accepted

    def test_three_processors(self):
        x = generate(seed=9, procs=3, gid="snapshot-measure",
                     params={"max_hops": 5})
        assert verifier.verify(x).accepted


def relabelled_identity(x, i, outcome):
    """``x`` with event ``i``, an Apply, replaced by the identity on its
    registers that gives ``outcome``."""
    ev = list(x.events)
    qop = qcore.relabel_outcomes(qcore.identity_operation(ev[i].qop.in_dims),
                                 lambda _: outcome)
    ev[i] = dataclasses.replace(ev[i], qop=qop, outcome=outcome)
    return Execution(x.initial, tuple(ev))


def anticorrelated_epr_snapshot(seed):
    """Token ring with an EPR pair shared by p0 and p1, snapshot-measured by
    p0.  p0's own measurement is replaced by the identity that reports the
    flipped bit, and its response agrees: the two halves of the pair then
    seem to measure differently, which no execution of the operation can
    give."""
    cfg = ScenarioConfig(
        base="token-ring", procs=2, base_params={"epr_pair": True, "max_hops": 6},
        invocations=[{"gid": "snapshot-measure", "leader": "p0", "after_step": 2}],
        seed=seed,
    )
    x = run_simulation(cfg).execution
    i = next(k for k, e in enumerate(x.events)
             if isinstance(e, Apply) and e.name.startswith("gop-self:") and e.proc == "p0")
    label = json.loads(x.events[i].outcome)
    flipped = json.dumps({**label, "q": "1" if label["q"] == "0" else "0"}, sort_keys=True)
    x = relabelled_identity(x, i, flipped)
    ev = [dataclasses.replace(e, record={**e.record, "self": flipped})
          if isinstance(e, Respond) and e.label == "p0" else e for e in x.events]
    return Execution(x.initial, tuple(ev))


def unmeasured_teleport_message(seed):
    """Teleport, snapshot-measured by p1 after one step: event 7 measures the
    qubit that was in flight.  It is replaced by the identity reporting the
    same outcome, so the execution never collapses that qubit."""
    cfg = ScenarioConfig(
        base="teleport", procs=2,
        invocations=[{"gid": "snapshot-measure", "leader": "p1", "after_step": 1}],
        seed=seed,
    )
    x = run_simulation(cfg).execution
    assert x.events[7].name == "gop-msg:snapshot-measure"
    return relabelled_identity(x, 7, x.events[7].outcome)


def unitary_pad(cfg, name):
    """``cfg`` run, with the first ``global-encrypt`` component named ``name``
    applying the unitary P_k where its Kraus matrix is P_k/2^n, under the
    same outcome label.  The post-state is the same up to scale: only the
    history's probability, 1 instead of 4^-n, tells them apart."""
    x = run_simulation(cfg).execution
    i = next(k for k, e in enumerate(x.events)
             if isinstance(e, Apply) and e.name == f"{name}:global-encrypt")
    e = x.events[i]
    (kraus,) = e.qop.kraus_by_outcome[e.outcome]
    unitary = kraus * 2 ** len(e.qop.in_dims)
    assert np.allclose(unitary @ unitary.conj().T, np.eye(len(unitary)))
    qop = qcore.QuantumOperation(e.qop.outcome_set,
                                 {**e.qop.kraus_by_outcome, e.outcome: (unitary,)},
                                 e.qop.in_dims, e.qop.out_dims)
    ev = list(x.events)
    ev[i] = dataclasses.replace(e, qop=qop)
    return Execution(x.initial, tuple(ev))


def unitary_pad_self(seed):
    """The pad forgery on p0's own component: token ring with an EPR pair."""
    return unitary_pad(ScenarioConfig(
        base="token-ring", procs=2, base_params={"epr_pair": True, "max_hops": 6},
        invocations=[{"gid": "global-encrypt", "leader": "p0", "after_step": 2}],
        seed=seed), "gop-self")


def unitary_pad_msg(seed):
    """The pad forgery on a recorded message's component: teleport."""
    return unitary_pad(ScenarioConfig(
        base="teleport", procs=2,
        invocations=[{"gid": "global-encrypt", "leader": "p1", "after_step": 1}],
        seed=seed), "gop-msg")


def renamed_operation(text, gid="nonesuch"):
    """A trace whose invocation, markers, records and component names all
    name ``gid``, an operation that does not exist."""
    return text.replace('"snapshot-measure"', f'"{gid}"').replace(
        "gop-self:snapshot-measure", f"gop-self:{gid}").replace(
        "gop-msg:snapshot-measure", f"gop-msg:{gid}")


def forged_fixed_outcome(text):
    """A record-only trace whose leader reports a classical state it never
    had, in its local application and in its response."""
    recs = [json.loads(line) for line in text.splitlines()]
    apply = next(d for d in recs if d.get("name") == "gop-self:record-only")
    forged = outcome_label(encode_classical({"forged": True}), None)
    for d in recs:
        if d is apply:
            d["outcome"] = forged
        if d.get("k") == "respond" and d["label"] == apply["proc"]:
            d["record"]["self"] = forged
    return "".join(json.dumps(d, sort_keys=True) + "\n" for d in recs)


def trace_text(cfg):
    res = run_simulation(cfg)
    return traceio.serialize_run(res.execution, cfg, res.decisions)


SNAPSHOT_RING = ScenarioConfig(
    base="token-ring", procs=2, base_params={"epr_pair": True, "max_hops": 3},
    invocations=[{"gid": "snapshot-measure", "leader": "p0", "after_step": 2}], seed=1,
)
RECORD_PING = ScenarioConfig(
    base="ping", procs=2, base_params={"n_msgs": 2},
    invocations=[{"gid": "record-only", "leader": "p0", "after_step": 1}], seed=0,
)
# Trace edits that only the specification machine can refuse: the atomic
# step names no operation, or an outcome its component cannot give.
REFUSED_ATOMIC_STEPS = pytest.mark.parametrize("edit, cfg, reason", [
    (renamed_operation, SNAPSHOT_RING, "unknown global operation 'nonesuch'"),
    (forged_fixed_outcome, RECORD_PING, "record-only on p0 cannot give outcome"),
], ids=["unknown-gid", "outcome-outside-component"])


class TestDecompose:
    def test_fragment_bounds(self):
        x = generate(seed=2)
        frags = verifier.decompose(x)
        assert len(frags) == 1
        (f,) = frags
        assert isinstance(x.events[f.lo], Invoke)
        assert isinstance(x.events[f.hi], Respond)

    def test_classification_partitions_fragment(self):
        x = generate(seed=2)
        (f,) = verifier.decompose(x)
        verifier.classify(x, f)
        assert set(f.classes) == {e.eid for e in x.events[f.lo: f.hi + 1]}
        assert set(f.classes.values()) <= {"pre", "op", "post"}
        assert len(f.proc_apply_eids) == len(x.initial.procs)

    def test_incomplete_invocation_rejected(self):
        x = generate(seed=2)
        last_respond = max(i for i, e in enumerate(x.events)
                           if isinstance(e, Respond))
        truncated = Execution(x.initial, x.events[:last_respond])
        with pytest.raises(verifier.HypothesisViolation):
            verifier.decompose(truncated)

    def test_protocol_event_outside_invocation_rejected(self):
        x = generate(seed=2)
        (f,) = verifier.decompose(x)
        marker_send = next(
            e for e in x.events if isinstance(e, Send) and e.protocol
        )
        # a stray copy of a protocol event after everything completed
        from qgosim.sysmodel import MessageInstance
        stray = Send(eid=999, label=marker_send.label,
                     msg=MessageInstance(999, marker_send.label,
                                         marker_send.msg.dst, marker="x"),
                     protocol=True)
        bad = Execution(x.initial, x.events + (stray,))
        with pytest.raises(verifier.HypothesisViolation):
            verifier.decompose(bad)


class TestReject:
    def test_missing_marker_send(self):
        x = generate(seed=4)
        drop = next(e for e in x.events if isinstance(e, Send) and e.protocol)
        bad = Execution(x.initial, tuple(e for e in x.events if e is not drop))
        cert = verifier.verify(bad)
        assert not cert.accepted

    def test_forged_response_record(self):
        x = generate(seed=4)
        ev = []
        for e in x.events:
            if isinstance(e, Respond):
                e = Respond(eid=e.eid, label=e.label,
                            record={**e.record, "self": "forged"}, update=e.update)
            ev.append(e)
        cert = verifier.verify(Execution(x.initial, tuple(ev)))
        assert not cert.accepted
        assert cert.verdicts.get("spec-replay") is False

    def test_tampered_local_outcome(self):
        x = generate(seed=6, gid="global-encrypt")
        ev = list(x.events)
        for i, e in enumerate(ev):
            if isinstance(e, Apply) and e.name.startswith("gop-self:") and e.qop:
                other = next(o for o in e.qop.outcome_set if o != e.outcome)
                ev[i] = Apply(eid=e.eid, label=e.label, proc=e.proc, name=e.name,
                              outcome=other, qop=e.qop, in_regs=e.in_regs,
                              out_regs=e.out_regs, update=e.update, protocol=True)
                break
        cert = verifier.verify(Execution(x.initial, tuple(ev)))
        assert not cert.accepted

    def test_dependent_inverted_pair_stops_the_class_sort(self):
        procs = ("p0", "p1")
        st = sysmodel.initial_state(
            procs, {p: {"inbox": []} for p in procs}, qcore.DensityMatrix.empty(), {},
        )
        # eid 0 (post) and eid 2 (pre) share p0, so 0 happens before 2; the
        # independent pair (0, 1) is swapped first.
        events = tuple(
            Apply(eid=i, label=p, proc=p, name=f"a{i}", outcome=qcore.NO_OUTCOME)
            for i, p in enumerate(("p0", "p1", "p0"))
        )
        x = Execution(st, events)
        frag = verifier.FragmentInfo(lo=0, hi=2, classes={0: "post", 1: "pre", 2: "pre"})
        with pytest.raises(verifier.ClaimViolation, match="event 0 happens before 2"):
            verifier.eliminate_inversions(
                x, executions.replay(x), frag, causality.compute_causality(x)
            )

    def test_repeated_event_id(self):
        x = generate(seed=4)
        ev = list(x.events)
        ev[0] = dataclasses.replace(ev[0], eid=ev[-1].eid)
        cert = verifier.verify(Execution(x.initial, tuple(ev)))
        assert cert.verdicts == {"well-formed": False}
        assert cert.reason == "event ids are not unique"

    def test_message_operation_on_a_processor_register(self):
        # The recorded-message operation acts on the receiver's own register:
        # fine after the reception, but not while the message is in flight.
        x = generate(seed=1)
        ev = list(x.events)
        i = next(k for k, e in enumerate(ev)
                 if isinstance(e, Apply) and e.name.startswith("gop-msg:"))
        reg = next(r for r, p in x.initial.ownership.items() if p == ev[i].proc)
        qop = qcore.relabel_outcomes(qcore.identity_operation((2,)),
                                     lambda _: ev[i].outcome)
        ev[i] = dataclasses.replace(ev[i], qop=qop, in_regs=(reg,), out_regs=(reg,))
        cert = verifier.verify(Execution(x.initial, tuple(ev)))
        assert cert.verdicts["sort-classes"]
        assert cert.verdicts["move-message-ops"] is False
        assert "in flight does not commute with its reception" in cert.reason
        assert "not owned by msg:" in cert.reason

    @pytest.mark.parametrize("forge, seeds", [
        (anticorrelated_epr_snapshot, range(20)),
        (unmeasured_teleport_message, [0]),
        (unitary_pad_self, [3]),
        (unitary_pad_msg, [0]),
    ], ids=["anticorrelated-epr", "unmeasured-teleport-message", "unitary-pad-gop-self",
            "unitary-pad-gop-msg"])
    def test_forged_component_rejected_at_spec_replay(self, forge, seeds):
        for seed in seeds:
            x = forge(seed)
            assert executions.well_formed(x), seed
            cert = verifier.verify(x)
            assert cert.verdicts["spec-replay"] is False, (seed, cert.verdicts)
            assert all(cert.verdicts[k] for k in cert.verdicts if k != "spec-replay")

    @REFUSED_ATOMIC_STEPS
    def test_atomic_step_the_operation_refuses(self, edit, cfg, reason):
        x, _, _ = traceio.parse_run(edit(trace_text(cfg)))
        cert = verifier.verify(x)
        assert cert.verdicts["spec-replay"] is False, cert.verdicts
        assert reason in cert.reason

    def test_ill_formed_input(self):
        x = generate(seed=4)
        cert = verifier.verify(Execution(x.initial, x.events[::-1]))
        assert not cert.accepted
        assert cert.verdicts.get("well-formed") is False


class TestHistories:
    def test_correspondence_is_positional(self):
        x = generate(seed=8)
        h = verifier.history(x)
        assert verifier.histories_correspond(h, h)
        assert not verifier.histories_correspond(h, h[:-1])
        rotated = h[1:] + h[:1]
        assert not verifier.histories_correspond(h, rotated)
