import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgosim import causality, executions, qcore, qgo, specmachine, sysmodel, verifier
from qgosim.executions import Apply, Execution, Invoke, Receive, Respond, Send
from qgosim.harness import cli, scenarios, traceio
from qgosim.harness.scenarios import ScenarioConfig, build_scenario
from qgosim.harness.scheduler import run_simulation
from qgosim.qcore import RegisterId
from qgosim.qgo import outcome_label
from qgosim.sysmodel import encode_classical

from dense import identity_operation
from test_executions import batch_small


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
            executions.replay(x)[-1], executions.replay(cert.y)[-1], 1e-9
        )
        # histories survive every stage
        assert verifier.histories_correspond(
            verifier.history(cert.y), verifier.history(cert.z)
        )
        assert verifier.histories_correspond(
            verifier.history(cert.z), verifier.history(cert.spec)
        )
        specmachine.validate_spec_execution(cert.spec)  # raises ReplayError if it fails

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

    def test_base_apply_that_replaces_a_register(self, tmp_path):
        """A base identity Apply that consumes p0's register 0 and creates
        register 9, after the snapshot: ownership follows the change, and
        the specification steps the same event."""
        x = generate(params=ONE_QUBIT_RING)
        r0, r9 = RegisterId(0, 2), RegisterId(9, 2)
        replace = Apply(eid=len(x.events), label="p0", name="replace",
                        outcome=qcore.NO_OUTCOME, qop=identity_operation((2,)),
                        in_regs=(r0,), out_regs=(r9,))
        y = Execution(x.initial, x.events + (replace,))
        assert executions.replay(y)[-1].ownership == {r9: "p0", RegisterId(1, 2): "p1"}
        assert verifier.verify(y).accepted
        trace = tmp_path / "replace.jsonl"
        trace.write_text(traceio.serialize_run(y))
        assert cli.main(["verify", str(trace)]) == 0


def relabelled_identity(x, i, outcome):
    """``x`` with event ``i``, an Apply, replaced by the identity on its
    registers that gives ``outcome``."""
    ev = list(x.events)
    qop = qcore.relabel_outcomes(identity_operation(ev[i].qop.in_dims),
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
             if isinstance(e, Apply) and e.name.startswith("gop-self:") and e.label == "p0")
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


FORGED_IN_FLIGHT = ScenarioConfig(
    base="teleport", procs=2,
    invocations=[{"gid": "snapshot-measure", "leader": "p0", "after_step": 1}], seed=0,
)


def forged_apply_in_flight(drained=False):
    """Teleport, snapshot-measured by p0, which then sends the EPR half; p1
    applies a forged operation to the half in flight, and every channel is
    drained.  By default p0 sends before any marker is received and p1's
    operation is the identity; ``drained`` completes the snapshot before the
    send, and p1 applies X.  The forged Apply is built on the state it
    leaves under the message's own label, the only one that may act in
    flight, so that the events after it can be built at all."""
    state, base, library = build_scenario(FORGED_IN_FLIGHT)
    ctx = qgo.GenContext(np.random.default_rng(0))
    events = []

    def step(block):
        nonlocal state
        for ev in block:
            state = executions.step(state, ev)
            events.append(ev)

    def drain():
        while chans := [c for c, msgs in sorted(state.channels.items()) if msgs]:
            step(qgo.qgo_receive(state, chans[0].split("->")[1], chans[0], library, ctx))

    step(qgo.qgo_invoke(state, "p0", library["snapshot-measure"], ctx))
    if drained:
        drain()
    step(base.build(state, "p0", "send_half", ctx))
    half = events[-1].msg
    qop = (qcore.unitary_channel(np.array([[0, 1], [1, 0]]), (2,)) if drained
           else identity_operation((2,)))
    forged = Apply(eid=ctx.eid(), label="p1", name="forged",
                   outcome=qop.outcome_set[0], qop=qop, in_regs=half.quantum_regs,
                   out_regs=half.quantum_regs, target_msg=half.msg_id)
    state = executions.step(state, dataclasses.replace(forged, label=half.owner_token))
    events.append(forged)
    drain()
    return Execution(build_scenario(FORGED_IN_FLIGHT)[0], tuple(events))


def in_flight_refusal(x):
    """The reason replay refuses ``x``'s forged Apply, naming its position
    and the event."""
    i, ev = next((i, e) for i, e in enumerate(x.events) if getattr(e, "name", "") == "forged")
    return (f"invalid step at index {i}: event {ev.eid} acts on message "
            f"{ev.target_msg} in flight")


FORGED_IN_FLIGHT_CASES = pytest.mark.parametrize(
    "drained", [False, True], ids=["before-the-markers", "after-the-snapshot"])


def break_steps_after_the_replay(monkeypatch):
    """From the moment ``verify``'s one pass over x ends, every
    ``executions.step`` fails: so the first reordering that replays a span
    fails, as a forged trace would make it."""
    real = executions.walk

    def broken(state, ev):
        raise sysmodel.SysmodelError(f"injected failure at event {ev.eid}")

    def walk_then_break(x):
        yield from real(x)
        monkeypatch.setattr(executions, "step", broken)

    monkeypatch.setattr(verifier, "walk", walk_then_break)


def class_sort(x, states, frag):
    """``verify``'s class sort of one fragment on ``states``, x's full
    replay: the plan, then the checked replay of its span.  Returns the
    sorted execution, its full replay and the inversion count; with no
    inversion, ``x`` and ``states`` as given."""
    y, span, nswaps = verifier.eliminate_inversions(x, frag)
    if not span:
        return x, states, nswaps
    reached = causality.replay_span(y, span, states[span.start], states[span.stop],
                                    range(len(states)))
    return y, [reached.get(k, s) for k, s in enumerate(states)], nswaps


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


# A two-processor token ring with one qubit each and no EPR pair.
ONE_QUBIT_RING = {"qubits_per_proc": 1, "max_hops": 2}


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


def noop(eid, label, protocol=False, **kw):
    return Apply(eid=eid, label=label, name="noop", outcome=qcore.NO_OUTCOME,
                 protocol=protocol, **kw)


def response_rule_refusal(index, rule="response record differs from the processor's record"):
    """``verify``'s reason for a Respond at ``index`` that breaks the
    ``qgo.respond`` update's rule."""
    return (f"invalid step at index {index}: classical update 'qgo.respond' failed: "
            f"ValueError({rule!r})")


def forged_record_after_the_message_operation(seed):
    """Batch-small item ``seed`` whose receiver files a forged outcome in its
    channel record, by a protocol no-op run right after its first message
    operation, and the reason ``verify`` refuses it: the record its Respond
    hands out is no longer the processor's."""
    x = run_simulation(batch_small(seed)).execution
    ev = list(x.events)
    i = next(k for k, e in enumerate(ev)
             if isinstance(e, Apply) and e.name.startswith("gop-msg:"))
    recv = ev[i - 1]
    ev.insert(i + 1, noop(max(e.eid for e in ev) + 1, recv.label, protocol=True,
                          update=executions.ClassicalUpdate("qgo.record", (recv.chan,))))
    j = next(k for k in range(i, len(ev))
             if isinstance(ev[k], Respond) and ev[k].label == recv.label)
    return Execution(x.initial, tuple(ev)), response_rule_refusal(j)


def response_before_its_last_closing_marker(seed):
    """Batch-small item ``seed`` with its first Respond swapped with the
    reception, right before it, of the marker that closes its processor's
    last channel, and the reason ``verify`` refuses it: the processor still
    waits on that channel."""
    x = run_simulation(batch_small(seed)).execution
    ev = list(x.events)
    k = next(i for i, e in enumerate(ev) if isinstance(e, Respond))
    close = ev[k - 1]
    assert isinstance(close, Receive) and close.update.name == "qgo.marker_close"
    ev[k - 1], ev[k] = ev[k], close
    return Execution(x.initial, tuple(ev)), response_rule_refusal(
        k - 1, f"processor still waits on {close.chan}")


def restarted(proc, gid, eid, protocol):
    """A no-op whose forged ``qgo.start`` makes ``proc`` run ``gid`` again,
    waiting on no channel, and the Respond that closes it: the pair keeps
    the response rule, so it replays wherever ``proc`` is idle."""
    start = executions.ClassicalUpdate("qgo.start", (gid, None, ()))
    record = qgo.response_record(proc, gid, qcore.NO_OUTCOME, {})
    return [noop(eid, proc, protocol=protocol, update=start),
            Respond(eid=eid + 1, label=proc, record=record,
                    update=executions.ClassicalUpdate("qgo.respond"))]


def decompose_forgery(kind):
    """``generate(seed=4)``, a two-processor snapshot, with one edit that
    breaks the shape ``decompose`` or ``classify`` expects: the edited
    execution, the exception it raises and its reason.  Every edit but
    those of ``RESPONSE_RULE_FORGERIES`` replays."""
    x = generate(seed=4)
    ev = list(x.events)
    eid = max(e.eid for e in ev) + 1
    (f,) = verifier.decompose(x)
    i = next(k for k, e in enumerate(ev) if isinstance(e, Apply)
             and e.name.startswith("gop-self:") and e.label == "p1")
    send = next(k for k, e in enumerate(ev) if isinstance(e, Send) and not e.protocol
                and k > f.lo)
    msg = ev[send].msg
    first, respond = [k for k, e in enumerate(ev) if isinstance(e, Respond)]
    hv, pi = verifier.HypothesisViolation, verifier.ProtocolIncomplete
    events, exc, reason = {
        "applies-twice": (ev[:i + 1] + [dataclasses.replace(ev[i], eid=eid)] + ev[i + 1:],
                          pi, "p1 applies the operation twice"),
        "no-local-application": (ev[:i] + [dataclasses.replace(ev[i], name="local")] +
                                 ev[i + 1:], pi, "no local application on ['p1']"),
        "no-trigger": (ev[:i] + [noop(eid, "p1")] + ev[i:], pi,
                       "local application on p1 is not preceded by its trigger"),
        "broadcast-broken": (ev[:i + 1] + [noop(eid, "p1")] + ev[i + 1:], pi,
                             "marker broadcast on p1 is not contiguous"),
        "unknown-label": (ev[:send + 1] + [noop(eid, msg.owner_token)] + ev[send + 1:], pi,
                          f"event with unknown label '{msg.owner_token}' in fragment"),
        "record-in-flight": (ev[:send + 1] + [noop(eid, msg.owner_token, target_msg=msg.msg_id)]
                             + ev[send + 1:], pi,
                             f"event with unknown label '{msg.owner_token}' in fragment"),
        "overlap": (ev[:f.lo + 1] + [Invoke(eid=eid, label="p1", gid="record-only")] +
                    ev[f.lo + 1:], hv, f"invocation at {f.lo + 1} overlaps the one at {f.lo}"),
        "response-outside": (ev + restarted("p0", f.gid, eid, protocol=False), hv,
                             f"response at {len(ev) + 1} outside any invocation"),
        "idle-response": (ev + [dataclasses.replace(ev[respond], eid=eid)], hv,
                          f"response at {len(ev)} outside any invocation"),
        "responds-twice": (ev[:first + 1] + restarted(ev[first].label, f.gid, eid, protocol=True)
                           + ev[first + 1:], hv,
                           f"{ev[first].label} responds twice to the invocation at {f.lo}"),
        "protocol-outside": (ev + [noop(eid, "p0", protocol=True)], hv,
                             f"protocol event at {len(ev)} outside any invocation"),
        "never-completes": (ev[:respond], hv, f"invocation at {f.lo} never completes"),
        "early-message-operation": (
            ev[:i - 1] + [dataclasses.replace(noop(eid, "p1"), name="gop-msg:snapshot-measure")]
            + ev[i - 1:], pi,
            f"recorded-message operation {eid} comes before the local application on p1"),
    }[kind]
    return Execution(x.initial, tuple(events)), exc, reason


DECOMPOSE_FORGERIES = ["applies-twice", "no-local-application", "no-trigger",
                       "broadcast-broken", "unknown-label", "overlap", "response-outside",
                       "responds-twice", "protocol-outside", "never-completes",
                       "early-message-operation"]
# Edits that replayed before the response rule: a no-op on a message in
# flight files a record in its receiver's channel, and the last Respond
# repeated by a processor that is idle again.  The rule refuses each at the
# Respond whose record it falsifies: p0's, at 19, and the copy, at 23.
RESPONSE_RULE_FORGERIES = {"record-in-flight": 19, "idle-response": 23}


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
        assert [p for p, _ in f.proc_outcomes] == sorted(x.initial.procs)

    def test_incomplete_invocation_rejected(self):
        x = generate(seed=2)
        last_respond = max(i for i, e in enumerate(x.events)
                           if isinstance(e, Respond))
        truncated = Execution(x.initial, x.events[:last_respond])
        with pytest.raises(verifier.HypothesisViolation):
            verifier.decompose(truncated)

    @pytest.mark.parametrize("seed", range(8))
    def test_second_response_from_one_processor_rejected(self, seed):
        """The invocation's second Respond becomes a second one of the first
        responder's: the fragment must not close until every processor has
        responded, so decompose refuses, naming the processor.  The first
        responder is idle by then, so the response rule refuses the copy
        first, at ``well-formed``; ``responds-twice`` above still reaches
        decompose, by restarting the processor."""
        x = generate(seed=seed, procs=2 + seed % 2)
        ev = list(x.events)
        first, second = [i for i, e in enumerate(ev) if isinstance(e, Respond)][:2]
        ev[second] = dataclasses.replace(ev[first], eid=ev[second].eid)
        forged = Execution(x.initial, tuple(ev))
        (f, *_) = verifier.decompose(x)
        with pytest.raises(verifier.HypothesisViolation,
                           match=f"^{ev[first].label} responds twice to the "
                                 f"invocation at {f.lo}$"):
            verifier.decompose(forged)
        cert = verifier.verify(forged)
        assert (cert.verdicts, cert.reason) == ({"well-formed": False},
                                                response_rule_refusal(second))

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

    @pytest.mark.parametrize("kind", DECOMPOSE_FORGERIES)
    def test_refusal_names_its_stage_and_reason(self, kind):
        """Every refusal of ``decompose`` and ``classify`` is reached by an
        execution that replays, so ``verify`` reports it at ``decompose``."""
        x, exc, reason = decompose_forgery(kind)
        executions.replay(x)  # raises ReplayError if it does not replay
        cert = verifier.verify(x)
        assert (cert.verdicts, cert.reason) == ({"well-formed": True, "decompose": False},
                                                reason)
        with pytest.raises(exc, match=f"^{re.escape(reason)}$"):
            for frag in verifier.decompose(x):
                verifier.classify(x, frag)

    @pytest.mark.parametrize("kind", sorted(RESPONSE_RULE_FORGERIES))
    def test_response_rule_refuses_first(self, kind):
        """The edit still breaks the fragment's shape, but the replay
        refuses it first, so ``verify`` reports it at ``well-formed``."""
        x, exc, reason = decompose_forgery(kind)
        cert = verifier.verify(x)
        assert (cert.verdicts, cert.reason) == (
            {"well-formed": False}, response_rule_refusal(RESPONSE_RULE_FORGERIES[kind]))
        with pytest.raises(exc, match=f"^{re.escape(reason)}$"):
            for frag in verifier.decompose(x):
                verifier.classify(x, frag)


class TestReject:
    def test_missing_marker_send(self):
        """p0's marker to itself is never sent, so its reception finds the
        channel empty."""
        x = generate(seed=4)
        drop = next(e for e in x.events if isinstance(e, Send) and e.protocol)
        bad = Execution(x.initial, tuple(e for e in x.events if e is not drop))
        cert = verifier.verify(bad)
        assert (cert.verdicts, cert.reason) == (
            {"well-formed": False}, "invalid step at index 7: channel p0->p0 is empty")

    def test_forged_response_record(self):
        """Every Respond reports a forged outcome of its own: the response
        rule refuses the first, at ``well-formed``."""
        x = generate(seed=4)
        ev = []
        for e in x.events:
            if isinstance(e, Respond):
                e = Respond(eid=e.eid, label=e.label,
                            record={**e.record, "self": "forged"}, update=e.update)
            ev.append(e)
        cert = verifier.verify(Execution(x.initial, tuple(ev)))
        first = next(i for i, e in enumerate(ev) if isinstance(e, Respond))
        assert (cert.verdicts, cert.reason) == ({"well-formed": False},
                                                response_rule_refusal(first))

    @pytest.mark.parametrize("seed", [3, 4, 5, 6, 12])
    def test_forged_record_after_the_message_operation(self, seed):
        x, reason = forged_record_after_the_message_operation(seed)
        cert = verifier.verify(x)
        assert (cert.verdicts, cert.reason) == ({"well-formed": False}, reason)

    @pytest.mark.parametrize("seeds", [range(k, 120, 4) for k in range(4)],
                             ids=["scenario-a", "teleport", "encrypt-d64", "ping"])
    def test_response_before_its_last_closing_marker(self, seeds):
        for seed in seeds:
            x, reason = response_before_its_last_closing_marker(seed)
            cert = verifier.verify(x)
            assert (cert.verdicts, cert.reason) == ({"well-formed": False}, reason), seed

    def test_tampered_local_outcome(self):
        x = generate(seed=6, gid="global-encrypt")
        ev = list(x.events)
        for i, e in enumerate(ev):
            if isinstance(e, Apply) and e.name.startswith("gop-self:") and e.qop:
                other = next(o for o in e.qop.outcome_set if o != e.outcome)
                ev[i] = Apply(eid=e.eid, label=e.label, name=e.name,
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
        # inverted pair (0, 1) is independent, so the sort refuses at 2.
        events = tuple(
            Apply(eid=i, label=p, name=f"a{i}", outcome=qcore.NO_OUTCOME)
            for i, p in enumerate(("p0", "p1", "p0"))
        )
        x = Execution(st, events)
        frag = verifier.FragmentInfo(lo=0, hi=2, classes={0: "post", 1: "pre", 2: "pre"})
        with pytest.raises(verifier.ClaimViolation, match="event 0 happens before 2"):
            verifier.eliminate_inversions(x, frag)

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
        reg = next(r for r, p in x.initial.ownership.items() if p == ev[i].label)
        qop = qcore.relabel_outcomes(identity_operation((2,)),
                                     lambda _: ev[i].outcome)
        ev[i] = dataclasses.replace(ev[i], qop=qop, in_regs=(reg,), out_regs=(reg,))
        cert = verifier.verify(Execution(x.initial, tuple(ev)))
        assert cert.verdicts["sort-classes"]
        assert cert.verdicts["move-message-ops"] is False
        assert "in flight does not commute with its reception" in cert.reason
        assert "not owned by msg:" in cert.reason

    def test_record_between_the_moved_operation_and_its_reception(self):
        """A forged record of the receiver's on the message's channel, just
        before the reception, changes the record that its Respond must hand
        out, so the response rule refuses that Respond.  Made to agree, the
        Respond keeps the forgery to the move: the moved operation files its
        outcome where it now stands, so the forged record lands in the other
        order than in x."""
        x = run_simulation(ScenarioConfig(
            base="teleport", procs=2,
            invocations=[{"gid": "snapshot-measure", "leader": "p1", "after_step": 1},
                         {"gid": "global-encrypt", "leader": "p0", "after_step": 3}],
            seed=17)).execution
        ev = list(x.events)
        i = next(k for k, e in enumerate(ev)
                 if isinstance(e, Apply) and e.name.startswith("gop-msg:"))
        recv = ev[i - 1]
        ev.insert(i - 1, Apply(eid=max(e.eid for e in ev) + 1, label=recv.label,
                               name="forged", outcome=qcore.NO_OUTCOME,
                               update=executions.ClassicalUpdate("qgo.record", (recv.chan,)),
                               protocol=True))
        j = next(k for k in range(i, len(ev))
                 if isinstance(ev[k], Respond) and ev[k].label == recv.label)
        cert = verifier.verify(Execution(x.initial, tuple(ev)))
        assert (cert.verdicts, cert.reason) == ({"well-formed": False},
                                                response_rule_refusal(j))
        ext = executions.replay(Execution(x.initial, tuple(ev[:j])))[-1].ext[recv.label]
        ev[j] = dataclasses.replace(ev[j], record=qgo.response_record(
            recv.label, ext["op"], ext["self"], ext["res"]))
        cert = verifier.verify(Execution(x.initial, tuple(ev)))
        assert cert.verdicts == {"well-formed": True, "decompose": True,
                                 "sort-classes": True, "move-message-ops": False}
        assert cert.reason.endswith("sorting changed the state after the window")

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
            executions.replay(x)  # raises ReplayError if it does not replay
            cert = verifier.verify(x)
            assert cert.verdicts["spec-replay"] is False, (seed, cert.verdicts)
            assert all(cert.verdicts[k] for k in cert.verdicts if k != "spec-replay")

    def test_failed_class_sort_replay_is_a_rejection(self, monkeypatch):
        x = generate(seed=11)
        break_steps_after_the_replay(monkeypatch)
        cert = verifier.verify(x)
        assert cert.verdicts == {"well-formed": True, "decompose": True,
                                 "sort-classes": False}
        assert re.fullmatch(r"sorted window produced invalid step: "
                            r"injected failure at event \d+", cert.reason)

    def test_planning_first_keeps_a_replay_refusal_at_well_formed(self):
        """``verify`` plans its reorderings before it replays x.  A second
        Invoke inside the first invocation, then a Receive of a message never
        sent: ``decompose`` refuses the overlap, but the rejection is still
        the replay's, at ``well-formed``."""
        x = generate(seed=11)
        ev = list(x.events)
        i = next(k for k, e in enumerate(ev) if isinstance(e, Invoke))
        eid = max(e.eid for e in ev) + 1
        ev[i + 1: i + 1] = [dataclasses.replace(ev[i], eid=eid),
                            Receive(eid=eid + 1, label="p1", chan="p0->p1", msg_id=999)]
        forged = Execution(x.initial, tuple(ev))
        with pytest.raises(verifier.HypothesisViolation, match="overlaps"):
            verifier.decompose(forged)
        with pytest.raises(executions.ReplayError) as refusal:
            executions.replay(forged)
        assert refusal.value.index == i + 2
        cert = verifier.verify(forged)
        assert (cert.verdicts, cert.reason) == ({"well-formed": False}, str(refusal.value))

    def test_planning_first_keeps_a_failed_class_sort_before_a_move_refusal(
            self, monkeypatch):
        """Batch-small item 11 with its ``gop-msg`` Apply moved off its
        reception, as in ``test_message_operation_away_from_its_reception``:
        planning refuses the move, but a class sort whose replay fails is
        still the rejection, at ``sort-classes``."""
        x = run_simulation(batch_small(11)).execution
        ev = list(x.events)
        ev[21], ev[22] = ev[22], ev[21]
        break_steps_after_the_replay(monkeypatch)
        cert = verifier.verify(Execution(x.initial, tuple(ev)))
        assert cert.verdicts == {"well-formed": True, "decompose": True,
                                 "sort-classes": False}
        assert re.fullmatch(r"sorted window produced invalid step: "
                            r"injected failure at event \d+", cert.reason)

    @FORGED_IN_FLIGHT_CASES
    def test_apply_to_a_message_in_flight_is_not_well_formed(self, drained):
        x = forged_apply_in_flight(drained)
        cert = verifier.verify(x)
        assert (cert.verdicts, cert.reason) == ({"well-formed": False}, in_flight_refusal(x))

    @REFUSED_ATOMIC_STEPS
    def test_atomic_step_the_operation_refuses(self, edit, cfg, reason):
        x, _, _ = traceio.parse_run(edit(trace_text(cfg)))
        cert = verifier.verify(x)
        assert cert.verdicts["spec-replay"] is False, cert.verdicts
        assert reason in cert.reason

    @pytest.mark.parametrize("seed", [5, 17])
    def test_moved_operation_in_the_history(self, seed):
        """A recorded message's operation that claims to be a base event
        enters the history; relabelled by the move, it no longer matches."""
        x = run_simulation(ScenarioConfig(
            base="teleport", procs=2,
            invocations=[{"gid": "snapshot-measure", "leader": "p1", "after_step": 1},
                         {"gid": "global-encrypt", "leader": "p0", "after_step": 3}],
            seed=seed)).execution
        ev = list(x.events)
        i = next(k for k, e in enumerate(ev)
                 if isinstance(e, Apply) and e.name.startswith("gop-msg:"))
        ev[i] = dataclasses.replace(ev[i], protocol=False)
        cert = verifier.verify(Execution(x.initial, tuple(ev)))
        assert cert.verdicts == {"well-formed": True, "decompose": True,
                                 "sort-classes": True, "move-message-ops": False}
        assert cert.reason == "moving operations changed the history"

    def test_message_operation_away_from_its_reception(self):
        """Batch-small item 11's ``gop-msg`` Apply, at position 21, swapped with
        the next event: it no longer follows the reception of its message."""
        x = run_simulation(batch_small(11)).execution
        ev = list(x.events)
        assert ev[21].name.startswith("gop-msg:")
        ev[21], ev[22] = ev[22], ev[21]
        cert = verifier.verify(Execution(x.initial, tuple(ev)))
        assert cert.verdicts == {"well-formed": True, "decompose": True,
                                 "sort-classes": True, "move-message-ops": False}
        assert cert.reason == "recorded-message operation 21 is not adjacent to its reception"

    def test_base_marker_message(self):
        """A base Send from p0 to p1 that carries a marker, and its reception,
        after batch-small item 3's last invocation: the protocol never sent it."""
        x = run_simulation(batch_small(3)).execution
        eid = len(x.events)
        msg_id = 1 + max(e.msg.msg_id for e in x.events if isinstance(e, Send))
        msg = sysmodel.MessageInstance(msg_id, "p0", "p1", marker="record-only")
        y = Execution(x.initial, x.events + (
            Send(eid=eid, label="p0", msg=msg),
            Receive(eid=eid + 1, label="p1", chan="p0->p1", msg_id=msg_id)))
        cert = verifier.verify(y)
        assert cert.verdicts["spec-replay"] is False
        assert cert.reason == ("specification machine rejects step 22: marker message "
                               "in a specification execution")

    def test_response_before_the_atomic_step(self):
        """Batch-small item 3's first Respond, p1's, moved to position 11, before the
        invocation's atomic point: p1 has not joined there, so the response
        rule refuses it.  Restarted there by a forged ``qgo.start``, with its
        own Respond dropped, p1 keeps the rule, and the specification
        machine refuses its response."""
        x = run_simulation(batch_small(3)).execution
        ev = list(x.events)
        k = next(i for i, e in enumerate(ev) if isinstance(e, Respond))
        moved = ev[:k] + ev[k + 1:]
        moved.insert(11, ev[k])
        cert = verifier.verify(Execution(x.initial, tuple(moved)))
        assert (cert.verdicts, cert.reason) == ({"well-formed": False},
                                                response_rule_refusal(11))
        forged = ev[:11] + restarted("p1", "record-only", len(ev), protocol=True) + \
            ev[11:k] + ev[k + 1:]
        cert = verifier.verify(Execution(x.initial, tuple(forged)))
        assert cert.verdicts["spec-replay"] is False
        assert cert.reason == ("specification machine rejects step 6: p1 has nothing "
                               "to respond with")

    def test_local_application_that_claims_to_be_a_base_event(self):
        """p1's ``gop-self`` Apply marked as a base event stays in the
        history, between the invocation and the atomic step, and its
        ``qgo.start`` update makes p1 busy there."""
        x = generate(seed=4)
        ev = list(x.events)
        i = next(k for k, e in enumerate(ev) if isinstance(e, Apply)
                 and e.name.startswith("gop-self:") and e.label == "p1")
        ev[i] = dataclasses.replace(ev[i], protocol=False)
        cert = verifier.verify(Execution(x.initial, tuple(ev)))
        assert cert.verdicts["spec-replay"] is False
        assert cert.reason == ("specification machine rejects step 6: processor p1 busy "
                               "during atomic execution")

    def test_component_that_replaces_its_register(self):
        """p0's snapshot measurement writes its outcome to a new register 9:
        x ends with another ownership than the specification."""
        x = generate(params=ONE_QUBIT_RING)
        ev = list(x.events)
        i = next(k for k, e in enumerate(ev) if isinstance(e, Apply)
                 and e.name.startswith("gop-self:") and e.label == "p0")
        ev[i] = dataclasses.replace(ev[i], out_regs=(RegisterId(9, 2),))
        cert = verifier.verify(Execution(x.initial, tuple(ev)))
        assert cert.verdicts == {"well-formed": True, "decompose": True,
                                 "sort-classes": True, "move-message-ops": True,
                                 "spec-replay": False}
        assert cert.reason == "specification ends in a different state"

    def test_snapshot_whose_digit_labels_collide(self, tmp_path, monkeypatch):
        """p0 owns registers of dimensions 12 and 11, in an equal
        superposition of (1, 10) and (11, 0), whose digit strings would both
        read "110".  The snapshot measures them as "1,10" or "11,0", and the
        trace verifies.  Seeds 0 and 1 record one outcome each."""
        big = (RegisterId(0, 12), RegisterId(1, 11))
        regs = big + (RegisterId(2, 2), RegisterId(3, 2))
        vec = np.zeros(12 * 11 * 2 * 2)
        vec[[(1 * 11 + 10) * 4, (11 * 11 + 0) * 4]] = np.sqrt(0.5)
        procs = ("p0", "p1")
        initial = sysmodel.initial_state(
            procs, {p: {"inbox": []} for p in procs},
            qcore.DensityMatrix.from_vector(qcore.RegisterSpace(regs), vec),
            {r: "p0" if r in big else "p1" for r in regs},
            ext={p: qgo.idle_ext() for p in procs})
        monkeypatch.setattr(scenarios.EmptyAlgorithm, "initial", lambda self, cfg: initial)
        seen = set()
        for seed in range(2):
            x = run_simulation(ScenarioConfig(
                base="empty", procs=2,
                invocations=[{"gid": "snapshot-measure", "leader": "p0", "after_step": 0}],
                seed=seed)).execution
            assert x.events[1].name == "gop-self:snapshot-measure"
            assert x.events[1].label == "p0"
            seen.add(json.loads(x.events[1].outcome)["q"])
            trace = tmp_path / f"big-{seed}.jsonl"
            trace.write_text(traceio.serialize_run(x))
            assert cli.main(["verify", str(trace)]) == 0
        assert seen == {"1,10", "11,0"}

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

    @pytest.mark.parametrize("field, value", [("label", "p1"), ("outcome", "forged")])
    def test_a_base_event_corresponds_only_to_itself(self, field, value):
        """A base event with the same eid but another label or outcome is
        another event."""
        h = verifier.history(generate(seed=8))
        i = next(k for k, e in enumerate(h) if isinstance(e, Apply) and e.label == "p0")
        other = h[:i] + [dataclasses.replace(h[i], **{field: value})] + h[i + 1:]
        assert not verifier.histories_correspond(h, other)

    def test_spec_execution_keeps_the_history_of_z(self):
        """``build_spec_execution`` keeps z's history and adds only one
        AtomicExecute per fragment, so the ``histories`` stage cannot fail.
        Checked on 40 generated executions over both bases and every global
        operation, among them fragments in which a base event of z sits
        between two protocol events."""
        gids = ["snapshot-measure", "global-encrypt", "record-only"]
        interleaved = 0
        for seed in range(40):
            x = generate(seed=seed, base="token-ring" if seed % 2 == 0 else "teleport",
                         gid=gids[(seed // 2) % 3], invocations=seed % 3 + 1)
            frags = verifier.decompose(x)
            for frag in frags:
                verifier.classify(x, frag)
            z = verifier.verify(x).z
            spec = verifier.build_spec_execution(z, frags)
            assert verifier.history(spec) == verifier.history(z)
            kept = {id(e) for e in z.events}
            added = [e for e in spec.events if id(e) not in kept]
            assert [type(e) for e in added] == [executions.AtomicExecute] * len(frags)
            assert [e.gid for e in added] == [frag.gid for frag in frags]
            for frag in frags:
                protocol = [e.protocol for e in z.events[frag.lo: frag.hi + 1]]
                first, last = protocol.index(True), len(protocol) - protocol[::-1].index(True)
                interleaved += not all(protocol[first:last])
        assert interleaved > 0


# ---------------------------------------------------------------------------
# The class sort against its reference, an insertion sort by checked swaps
# ---------------------------------------------------------------------------

RANK = {"pre": 0, "op": 1, "post": 2}


def insertion_sort(x, frag, rel):
    """The reference class sort: one insertion pass in which each event
    moves left past every neighbour of a higher class by adjacent swaps.
    Its own dependency test is the vector clocks' ``rel.prec``, not the
    window's edges: a dependent pair raises ClaimViolation, worded as
    ``eliminate_inversions`` words it.  Returns the sorted events and the
    number of swaps."""
    events = list(x.events)
    nswaps = 0
    for j in range(frag.lo + 1, frag.hi + 1):
        i = j
        while i > frag.lo and (RANK[frag.classes[events[i - 1].eid]]
                               > RANK[frag.classes[events[i].eid]]):
            a, b = events[i - 1], events[i]
            if rel.prec(a.eid, b.eid):
                raise verifier.ClaimViolation(
                    f"cannot sort fragment at {frag.lo}: event {a.eid} happens before {b.eid}")
            events[i - 1], events[i] = b, a
            nswaps += 1
            i -= 1
    return events, nswaps


def classical_initial(procs):
    return sysmodel.initial_state(
        procs, {p: {"inbox": []} for p in procs}, qcore.DensityMatrix.empty(), {},
    )


@st.composite
def classed_windows(draw):
    """A classical execution of 2 to 10 events over 2 or 3 processors (local
    steps, sends, and receptions of the message at the head of a channel),
    a window [lo, hi] of two events or more, and a random class for each
    event in the window."""
    procs = tuple(f"p{i}" for i in range(draw(st.integers(2, 3))))
    in_flight: dict = {}  # channel -> ids of the messages on it, oldest first
    events = []
    for eid in range(draw(st.integers(2, 10))):
        p = draw(st.sampled_from(procs))
        ready = [c for c, ids in in_flight.items() if ids and c.endswith(f"->{p}")]
        kind = draw(st.sampled_from(["apply", "send"] + ["receive"] * bool(ready)))
        if kind == "apply":
            events.append(Apply(eid=eid, label=p, name=f"a{eid}",
                                outcome=qcore.NO_OUTCOME))
        elif kind == "send":
            msg = sysmodel.MessageInstance(eid, p, draw(st.sampled_from(procs)),
                                           classical=eid)
            in_flight.setdefault(msg.channel, []).append(eid)
            events.append(Send(eid=eid, label=p, msg=msg))
        else:
            chan = draw(st.sampled_from(ready))
            events.append(Receive(eid=eid, label=p, chan=chan,
                                  msg_id=in_flight[chan].pop(0)))
    lo = draw(st.integers(0, len(events) - 2))
    hi = draw(st.integers(lo + 1, len(events) - 1))
    classes = {e.eid: draw(st.sampled_from(sorted(RANK))) for e in events[lo: hi + 1]}
    x = Execution(classical_initial(procs), tuple(events))
    return x, verifier.FragmentInfo(lo=lo, hi=hi, classes=classes)


def happens_before(exc):
    """(a, b) of a refusal that names "event a happens before b"."""
    a, b = re.search(r"event (\d+) happens before (\d+)$", str(exc)).groups()
    return int(a), int(b)


@given(classed_windows())
@settings(max_examples=300, deadline=None)
def test_class_sort_agrees_with_the_insertion_sort(case):
    """Same order and swap count as the reference; a refusal exactly when it
    refuses, at the same b, naming an earlier event of a higher class that
    happens before b.  A sorted window keeps x's happens-before."""
    x, frag = case
    states, rel = executions.replay(x), causality.compute_causality(x)
    try:
        want, want_swaps = insertion_sort(x, frag, rel)
    except verifier.ClaimViolation as exc:
        with pytest.raises(verifier.ClaimViolation,
                           match=f"^cannot sort fragment at {frag.lo}: ") as got:
            verifier.eliminate_inversions(x, frag)
        a, b = happens_before(got.value)
        assert b == happens_before(exc)[1]
        pos = {e.eid: i for i, e in enumerate(x.events)}
        assert pos[a] < pos[b] and rel.prec(a, b)
        assert RANK[frag.classes[a]] > RANK[frag.classes[b]]
        return
    y, y_states, nswaps = class_sort(x, states, frag)
    assert ([e.eid for e in y.events], nswaps) == ([e.eid for e in want], want_swaps)
    assert causality.equicausal(x, y)
    assert (y is x and y_states is states) == (nswaps == 0)
    assert all(sysmodel.states_equal(s, t, 0.0)
               for s, t in zip(y_states, executions.replay(y), strict=True))


class TestSortWindowChecks:
    """p0 sends to p1 and steps; p1 receives.  With classes pre, post, pre,
    the independent pair (1, 2) is the one inversion."""

    def setup_method(self):
        procs = ("p0", "p1")
        self.x = Execution(classical_initial(procs), (
            Send(eid=0, label="p0", msg=sysmodel.MessageInstance(0, "p0", "p1", classical=0)),
            Apply(eid=1, label="p0", name="a", outcome=qcore.NO_OUTCOME),
            Receive(eid=2, label="p1", chan="p0->p1", msg_id=0),
        ))
        self.states = executions.replay(self.x)
        self.frag = verifier.FragmentInfo(lo=0, hi=2,
                                          classes={0: "pre", 1: "post", 2: "pre"})

    def test_sorts_with_one_swap(self):
        y, _, nswaps = class_sort(self.x, self.states, self.frag)
        assert ([e.eid for e in y.events], nswaps) == ([0, 2, 1], 1)

    def test_dependency_carried_by_the_earliest_event_of_a_label(self):
        """The send (0) happens before the reception (2); the later p0 step (1)
        does not.  Both are post and 2 is pre, so the sort refuses at 2."""
        frag = verifier.FragmentInfo(lo=0, hi=2, classes={0: "post", 1: "post", 2: "pre"})
        with pytest.raises(verifier.ClaimViolation, match="event 0 happens before 2$"):
            verifier.eliminate_inversions(self.x, frag)

    def test_replays_only_the_span_the_sort_changes(self, monkeypatch):
        """A post p1 step (3) after the window's one inversion stays in place:
        only positions 1 and 2 are replayed, and the states before and after
        them are reused."""
        x = Execution(self.x.initial, self.x.events + (
            Apply(eid=3, label="p1", name="b", outcome=qcore.NO_OUTCOME),))
        states = executions.replay(x)
        frag = verifier.FragmentInfo(lo=0, hi=3,
                                     classes={0: "pre", 1: "post", 2: "pre", 3: "post"})
        steps = []
        real = executions.step
        monkeypatch.setattr(executions, "step",
                            lambda *args: steps.append(args) or real(*args))
        y, y_states, nswaps = class_sort(x, states, frag)
        assert ([e.eid for e in y.events], nswaps) == ([0, 2, 1, 3], 1)
        assert [args[1].eid for args in steps] == [2, 1]
        assert y_states[0] is states[0] and y_states[1] is states[1]
        assert y_states[4] is states[4]

    def test_state_after_the_window_that_does_not_match(self):
        states = list(self.states)
        states[3] = states[1]  # the message still in flight
        with pytest.raises(causality.LemmaViolation,
                           match="sorting changed the state after the window"):
            class_sort(self.x, states, self.frag)

    def test_window_step_that_fails(self):
        states = list(self.states)
        states[1] = states[0]  # an empty channel: the reception cannot step
        frag = verifier.FragmentInfo(lo=1, hi=2, classes={1: "post", 2: "pre"})
        with pytest.raises(causality.LemmaViolation,
                           match="sorted window produced invalid step"):
            class_sort(self.x, states, frag)
