import json
import sys
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from qgosim import executions, qcore, qgo, sysmodel
from qgosim.executions import Apply, AtomicExecute, Invoke, Receive, Respond, Send
from qgosim.harness.scenarios import BASE_ALGORITHMS, ScenarioConfig, build_scenario
from qgosim.harness.scheduler import run_simulation
from qgosim.qcore import DensityMatrix, RegisterId, RegisterSpace
from qgosim.sysmodel import MessageInstance

from dense import identity_operation
from test_executions import PURITY_CORPUS


def epr_two_procs():
    r0, r1 = RegisterId(0, 2), RegisterId(1, 2)
    vec = np.zeros(4, complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    quantum = DensityMatrix.from_vector(RegisterSpace((r0, r1)), vec)
    procs = ("p0", "p1")
    return sysmodel.initial_state(
        procs, {p: {"inbox": []} for p in procs}, quantum,
        {r0: "p0", r1: "p1"},
        ext={p: qgo.idle_ext() for p in procs},
    )


def stepped(state, block):
    """``block`` and the state after it, each event stepped once."""
    for ev in block:
        state = executions.step(state, ev)
    return block, state


def drain(state, library, ctx, rng):
    """Deliver channel heads in random order until quiescent."""
    events = []
    while True:
        nonempty = [c for c in sorted(state.channels) if state.channels[c]]
        if not nonempty:
            return events, state
        c = nonempty[rng.integers(len(nonempty))]
        evs, state = stepped(state, qgo.qgo_receive(
            state, sysmodel.chan_endpoints(c)[1], c, library, ctx
        ))
        events += evs


class TestExtState:
    def test_record_update_is_pure(self):
        sigma = {"inbox": []}
        ext = qgo.idle_ext()
        ext["res"] = {"a->b": []}
        record = executions.ClassicalUpdate("qgo.record", ("a->b",))
        out_sigma, out = executions.run_update(record, sigma, ext, "r")
        assert ext["res"]["a->b"] == []
        assert out["res"]["a->b"] == ["r"]
        assert out_sigma == sigma

    def test_incoming_channels_include_self(self):
        chans = qgo.incoming_channels(("p0", "p1"), "p1")
        assert chans == ["p0->p1", "p1->p1"]


class TestProtocolBlocks:
    def test_invoke_emits_block(self):
        st = epr_two_procs()
        ctx = qgo.GenContext(np.random.default_rng(0))
        lib = qgo.global_op_library(["record-only"])
        events, state = stepped(st, qgo.qgo_invoke(st, "p0", lib["record-only"], ctx))
        kinds = [type(e).__name__ for e in events]
        assert kinds == ["Invoke", "Apply", "Send", "Send"]
        assert state.ext["p0"]["op"] == "record-only"
        # waitset: every incoming channel except the (absent) trigger
        assert state.ext["p0"]["waitset"] == ["p0->p0", "p1->p0"]
        assert all(m.marker == "record-only"
                   for c in state.channels.values() for m in c)

    def test_concurrent_invocation_rejected(self):
        st = epr_two_procs()
        ctx = qgo.GenContext(np.random.default_rng(0))
        lib = qgo.global_op_library(["record-only"])
        _, state = stepped(st, qgo.qgo_invoke(st, "p0", lib["record-only"], ctx))
        with pytest.raises(qgo.ConcurrentInvocation):
            qgo.qgo_invoke(state, "p1", lib["record-only"], ctx)

    def test_full_round_reaches_quiescence(self):
        st = epr_two_procs()
        ctx = qgo.GenContext(np.random.default_rng(1))
        lib = qgo.global_op_library(["snapshot-measure"])
        events, state = stepped(st, qgo.qgo_invoke(st, "p0", lib["snapshot-measure"], ctx))
        more, state = drain(state, lib, ctx, np.random.default_rng(2))
        events += more
        responds = [e for e in events if isinstance(e, Respond)]
        assert {r.label for r in responds} == {"p0", "p1"}
        assert all(not qgo.is_active(state.ext[p]) for p in state.procs)
        # EPR halves measured through the snapshot agree
        outs = {
            r.label: json.loads(r.record["self"])["q"] for r in responds
        }
        assert outs["p0"] == outs["p1"]

    def test_record_covers_all_incoming_channels(self):
        st = epr_two_procs()
        ctx = qgo.GenContext(np.random.default_rng(1))
        lib = qgo.global_op_library(["record-only"])
        events, state = stepped(st, qgo.qgo_invoke(st, "p1", lib["record-only"], ctx))
        more, _ = drain(state, lib, ctx, np.random.default_rng(0))
        for r in (e for e in events + more if isinstance(e, Respond)):
            assert sorted(r.record["channels"]) == qgo.incoming_channels(
                st.procs, r.label
            )

    def test_in_flight_message_recorded(self):
        st = epr_two_procs()
        ctx = qgo.GenContext(np.random.default_rng(4))
        lib = qgo.global_op_library(["record-only"])
        msg = MessageInstance(ctx.msg_id(), "p0", "p1", classical={"v": 9})
        send = Send(eid=ctx.eid(), label="p0", msg=msg)
        state = executions.step(st, send)
        # p1 leads, so it is already recording when the message arrives
        events, state = stepped(state, qgo.qgo_invoke(state, "p1", lib["record-only"], ctx))
        more, state = drain(state, lib, ctx, np.random.default_rng(0))
        (resp,) = [e for e in events + more
                   if isinstance(e, Respond) and e.label == "p1"]
        recorded = resp.record["channels"]["p0->p1"]
        assert [json.loads(r)["c"] for r in recorded] == ['{"v":9}']

    def test_message_after_marker_not_recorded(self):
        st = epr_two_procs()
        ctx = qgo.GenContext(np.random.default_rng(4))
        lib = qgo.global_op_library(["record-only"])
        events, state = stepped(st, qgo.qgo_invoke(st, "p0", lib["record-only"], ctx))
        # p0 sends a regular message after its marker on the same channel
        msg = MessageInstance(ctx.msg_id(), "p0", "p1", classical={"late": True})
        state = executions.step(state, Send(eid=ctx.eid(), label="p0", msg=msg))
        more, state = drain(state, lib, ctx, np.random.default_rng(5))
        (resp,) = [e for e in events + more
                   if isinstance(e, Respond) and e.label == "p1"]
        assert resp.record["channels"]["p0->p1"] == []
        assert ["p0->p1", {"late": True}] in state.classical["p1"]["inbox"]

    def test_unknown_marker_rejected(self):
        st = epr_two_procs()
        ctx = qgo.GenContext(np.random.default_rng(0))
        lib = qgo.global_op_library(["record-only"])
        _, state = stepped(st, qgo.qgo_invoke(st, "p0", lib["record-only"], ctx))
        with pytest.raises(qgo.UnknownGlobalOp):
            qgo.qgo_receive(state, "p1", "p0->p1", {}, ctx)


def count_steps(monkeypatch) -> list:
    """The events that ``executions.step`` is called with from now on, in
    order, through every qgosim module that binds it."""
    calls, real = [], executions.step

    def counted(state, event):
        calls.append(event)
        return real(state, event)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qgosim":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestBuildersOnlyBuild:
    def test_builders_return_events_and_step_nothing(self, monkeypatch):
        st = epr_two_procs()
        lib = qgo.global_op_library(["snapshot-measure"])
        ctx = qgo.GenContext(np.random.default_rng(0))
        _, state = stepped(st, qgo.qgo_invoke(st, "p0", lib["snapshot-measure"], ctx))
        _, state = stepped(state, qgo.qgo_receive(state, "p1", "p0->p1", lib, ctx))
        calls = count_steps(monkeypatch)
        blocks = [
            qgo.qgo_invoke(st, "p0", lib["snapshot-measure"], ctx),
            qgo.qgo_receive(state, "p0", "p0->p0", lib, ctx),  # a later marker
            qgo.qgo_receive(state, "p1", "p1->p1", lib, ctx),  # p1's last marker
        ]
        assert all(type(b) is list for b in blocks)
        assert [[type(e).__name__ for e in b] for b in blocks] == [
            ["Invoke", "Apply", "Send", "Send"], ["Receive"], ["Receive", "Respond"]]
        assert calls == []

    @pytest.mark.parametrize("cfg", [PURITY_CORPUS[0], PURITY_CORPUS[2]],
                             ids=["scenario-a", "encrypt-d64"])
    def test_generation_steps_each_event_once(self, monkeypatch, cfg):
        calls = count_steps(monkeypatch)
        events = run_simulation(ScenarioConfig.from_dict(cfg)).execution.events
        assert len(calls) == len(events)
        assert all(a is b for a, b in zip(calls, events))


def refused_at(pred, state, events):
    """The index at which ``pred`` refuses ``events`` run from ``state``,
    which they must replay from; None if it allows them."""
    try:
        executions.validate(pred, executions.Execution(state, tuple(events)))
    except executions.ReplayError as exc:
        assert exc.reason.startswith(f"step {exc.index} not allowed"), exc
        return exc.index
    return None


class TestBuilderGuards:
    """A protocol event's guards are its builder's: the builder raises a
    QgoError, and the predicate refuses the event it cannot build."""

    def invoked(self):
        """p0 has invoked record-only on the EPR pair: it waits on p0->p0
        and p1->p0, and p1 is idle."""
        st = epr_two_procs()
        lib = qgo.global_op_library(["record-only"])
        ctx = qgo.GenContext(np.random.default_rng(0))
        _, state = stepped(st, qgo.qgo_invoke(st, "p0", lib["record-only"], ctx))
        pred = qgo.AugmentedPredicate(BASE_ALGORITHMS["empty"], lib)
        return state, lib, ctx, pred

    def test_later_marker_outside_the_waitset(self):
        state, lib, ctx, pred = self.invoked()
        _, state = stepped(state, qgo.qgo_receive(state, "p0", "p0->p0", lib, ctx))
        # A second marker on the channel p0 has just closed.
        _, state = stepped(state, [qgo.marker_send("p0", "p0", "record-only", ctx)])
        with pytest.raises(qgo.QgoError, match="does not wait for a marker on p0->p0"):
            qgo.qgo_receive(state, "p0", "p0->p0", lib, ctx)
        close = executions.ClassicalUpdate("qgo.marker_close", ("p0->p0",))
        recv = Receive(eid=ctx.eid(), label="p0", chan="p0->p0",
                       msg_id=state.channels["p0->p0"][0].msg_id, update=close,
                       protocol=True)
        assert refused_at(pred, state, [recv]) == 0
        with pytest.raises(executions.ReplayError) as err:
            executions.validate(pred, executions.Execution(state, (recv,)))
        assert err.value.reason == ("step 0 not allowed by predicate: "
                                    "processor p0 does not wait for a marker on p0->p0")

    def test_gop_self_on_a_channel_that_is_not_incoming(self):
        state, lib, ctx, pred = self.invoked()
        gop = lib["record-only"]
        with pytest.raises(qgo.QgoError, match="not an incoming channel of p1"):
            qgo.gop_self_apply(state, "p1", gop, "p1->p0", ctx)
        # p1's first marker: its Receive, its gop-self Apply, its markers.
        built = qgo.qgo_receive(state, "p1", "p0->p1", lib, ctx)
        assert built[1].name == "gop-self:record-only"
        gid, _, incoming = built[1].update.params
        forged = dc_replace(built[1], update=executions.ClassicalUpdate(
            "qgo.start", (gid, "p1->p0", incoming)))
        assert refused_at(pred, state, built) is None
        assert refused_at(pred, state, [built[0], forged, *built[2:]]) == 1

    def test_gop_self_on_an_active_processor(self):
        state, lib, ctx, pred = self.invoked()
        with pytest.raises(qgo.AlreadyActive):
            qgo.gop_self_apply(state, "p0", lib["record-only"], None, ctx)

    @pytest.mark.parametrize("proc, message", [
        ("p1", "runs no operation to respond to"), ("p0", "still waits on p0->p0")])
    def test_respond_while_idle_or_waiting(self, proc, message):
        state, lib, ctx, pred = self.invoked()
        with pytest.raises(qgo.QgoError, match=message):
            qgo.respond(proc, state.ext[proc], ctx)
        record = qgo.response_record(proc, "record-only", None, {})
        forged = Respond(eid=ctx.eid(), label=proc, record=record,
                         update=executions.ClassicalUpdate("qgo.respond"))
        assert refused_at(pred, state, [forged]) == 0

    def test_marker_from_an_idle_processor(self):
        state, lib, ctx, pred = self.invoked()
        with pytest.raises(qgo.QgoError, match="p1 runs no operation"):
            qgo.marker_send("p1", "p0", state.ext["p1"]["op"], ctx)
        forged = dc_replace(qgo.marker_send("p0", "p0", "record-only", ctx), label="p1")
        forged = dc_replace(forged, msg=dc_replace(forged.msg, src="p1", dst="p0"))
        assert refused_at(pred, state, [forged]) == 0


class TestGlobalOps:
    def test_snapshot_outcome_encodes_sigma(self):
        st = epr_two_procs()
        spec = qgo.SnapshotMeasure().proc_component(st, "p0")
        for out in spec.qop.outcome_set:
            parsed = json.loads(out)
            assert json.loads(parsed["c"]) == {"inbox": []}
            assert parsed["q"] in ("0", "1")

    def test_record_only_leaves_quantum_untouched(self):
        st = epr_two_procs()
        spec = qgo.RecordOnly().proc_component(st, "p0")
        assert spec.qop is None
        assert json.loads(spec.fixed_outcome)["q"] is None

    def test_encrypt_key_per_register(self):
        st = epr_two_procs()
        spec = qgo.GlobalEncrypt().proc_component(st, "p0")
        keys = [json.loads(o)["q"] for o in spec.qop.outcome_set]
        assert sorted(keys) == sorted("IXYZ")

    def test_library_rejects_unknown_gid(self):
        with pytest.raises(qgo.UnknownGlobalOp):
            qgo.global_op_library(["nonesuch"])


def forge(x, pick, change):
    """``x`` with its first event that ``pick`` accepts replaced by
    ``change(event)``, and that event's index; None if ``pick`` accepts
    no event."""
    i = next((i for i, e in enumerate(x.events) if pick(e)), None)
    if i is None:
        return None
    events = list(x.events)
    events[i] = change(events[i])
    return executions.Execution(x.initial, tuple(events)), i


def is_correction(e):
    """A teleport correction other than the identity, which bits "00" ask for."""
    return isinstance(e, Apply) and e.name == "tp.fix" and e.outcome != "00"


def relabelled_identity(e):
    """The Apply ``e`` with the identity on its registers in place of its
    operation, relabelled to the same outcome."""
    ident = qcore.relabel_outcomes(identity_operation(e.qop.in_dims),
                                   lambda _: e.outcome)
    return dc_replace(e, qop=ident)


def perturbed_entry(e):
    """The Apply ``e`` with one nonzero entry of its recorded outcome's Kraus
    matrix scaled by 1 + 1e-9: within numpy's ``allclose`` tolerances, but
    another operation."""
    (kraus,) = e.qop.kraus_by_outcome[e.outcome]
    kraus = kraus.copy()
    kraus.flat[np.flatnonzero(kraus)[0]] *= 1 + 1e-9
    return dc_replace(e, qop=qcore.QuantumOperation(
        e.qop.outcome_set, {**e.qop.kraus_by_outcome, e.outcome: (kraus,)},
        e.qop.in_dims, e.qop.out_dims))


def unitary_pad(e):
    """The ``global-encrypt`` Apply ``e`` with the unitary P_k in place of
    its Kraus matrix P_k/2^n under its outcome k."""
    (kraus,) = e.qop.kraus_by_outcome[e.outcome]
    kraus_by_outcome = {**e.qop.kraus_by_outcome, e.outcome: (kraus * 2 ** len(e.qop.in_dims),)}
    return dc_replace(e, qop=qcore.QuantumOperation(
        e.qop.outcome_set, kraus_by_outcome, e.qop.in_dims, e.qop.out_dims))


def is_gop_msg(gid):
    """Picks a message component of ``gid`` that acts on a qubit in flight."""
    return lambda e: isinstance(e, Apply) and e.name == f"gop-msg:{gid}" and e.qop is not None


def marker_for_another_gid(e):
    return dc_replace(e, msg=dc_replace(e.msg, classical={"kind": "marker",
                                                          "gid": "global-encrypt"}))


def token_skipping_a_hop(e):
    hops = e.msg.classical["hops"]
    return dc_replace(e, msg=dc_replace(e.msg, classical={"kind": "token", "hops": hops + 1}))


# Scenario (a) and the teleport configuration of the batch-small benchmark.
SCENARIO_A, TELEPORT = PURITY_CORPUS[0], PURITY_CORPUS[1]
TOKEN_RING_EPR = dict(
    base="token-ring", procs=2, base_params={"max_hops": 3, "epr_pair": True},
    invocations=[{"gid": "snapshot-measure", "leader": "p0", "after_step": 2}],
)
# Teleport with one global operation invoked by p1 after one step, as in
# repro 2 of ROADMAP item 1 and its pad.  Receptions are reluctant, so in 9
# of seeds 0-9 the EPR half is still in flight and gets a message component.
TELEPORT_SNAPSHOT, TELEPORT_ENCRYPT = (dict(
    base="teleport", procs=2, policy="channel-delay-biased",
    invocations=[{"gid": gid, "leader": "p1", "after_step": 1}])
    for gid in ("snapshot-measure", "global-encrypt"))
EMPTY_WITH_QUBITS = dict(
    base="empty", procs=3, base_params={"qubits_per_proc": 1},
    invocations=[{"gid": "snapshot-measure", "leader": "p0", "after_step": 0},
                 {"gid": "global-encrypt", "leader": "p2", "after_step": 0}],
)


class TestAugmentedPredicate:
    def scenario(self, cfg, seed):
        cfg = ScenarioConfig.from_dict({**cfg, "seed": seed})
        res = run_simulation(cfg)
        _, base, lib = build_scenario(cfg)
        return res.execution, qgo.AugmentedPredicate(base, lib)

    # The four batch-small kinds cover scenario seeds 0-399 between them:
    # kind k runs the seeds s with s % 4 == k, as the benchmark does.
    @pytest.mark.parametrize("cfg, seeds", [
        (TOKEN_RING_EPR, range(5)),
        *((PURITY_CORPUS[k], range(k, 400, 4)) for k in range(4)),
        (EMPTY_WITH_QUBITS, range(20)),
    ], ids=["token-ring-epr", "scenario-a", "teleport", "encrypt-d64", "ping", "empty"])
    def test_generated_execution_validates(self, cfg, seeds):
        for seed in seeds:
            cfg_s = ScenarioConfig.from_dict({**cfg, "seed": seed})
            res = run_simulation(cfg_s)
            pred = qgo.AugmentedPredicate(*build_scenario(cfg_s)[1:])
            starts = []
            blocks = pred.blocks
            pred.blocks = lambda pre, events, i: starts.append(i) or blocks(pre, events, i)
            executions.validate(pred, res.execution)  # raises ReplayError if refused
            # One block per scheduler decision: the predicate splits x as
            # the scheduler built it.
            assert len(starts) == len(res.decisions), seed

    # Each forged step still replays, so only the predicate can refuse it.
    @pytest.mark.parametrize("cfg, pick, change", [
        (TELEPORT, is_correction, relabelled_identity),
        (SCENARIO_A, lambda e: isinstance(e, Send) and e.protocol, marker_for_another_gid),
        (SCENARIO_A, lambda e: isinstance(e, Send) and not e.protocol, token_skipping_a_hop),
        (SCENARIO_A, lambda e: isinstance(e, Respond),
         lambda e: dc_replace(e, record={**e.record, "self": "forged"})),
        (SCENARIO_A, lambda e: isinstance(e, Apply) and e.name.startswith("gop-self:"),
         lambda e: dc_replace(e, name="gop-self:record-only")),
        (SCENARIO_A, lambda e: isinstance(e, Receive) and e.update is not None,
         lambda e: dc_replace(e, update=None)),
        (SCENARIO_A, lambda e: isinstance(e, Invoke),
         lambda e: dc_replace(e, gid="global-encrypt")),
        (TELEPORT_SNAPSHOT, is_gop_msg("snapshot-measure"), relabelled_identity),
        (TELEPORT_ENCRYPT, is_gop_msg("global-encrypt"), unitary_pad),
        (TELEPORT, lambda e: isinstance(e, Apply) and e.name == "tp.bell", perturbed_entry),
    ], ids=["identity-correction", "marker-payload", "token-hops", "forged-record",
            "foreign-gop-self", "unclosed-marker", "foreign-invoke",
            "unmeasured-gop-msg", "unitary-pad-gop-msg", "perturbed-kraus-entry"])
    def test_forged_step_rejected_at_its_index(self, cfg, pick, change):
        forged_runs = 0
        for seed in range(10):
            x, pred = self.scenario(cfg, seed)
            if (case := forge(x, pick, change)) is None:
                continue
            forged, i = case
            executions.replay(forged)  # raises ReplayError if it does not replay
            with pytest.raises(executions.ReplayError) as err:
                executions.validate(pred, forged)
            assert err.value.index == i, (seed, err.value.reason)
            forged_runs += 1
        assert forged_runs >= 5

    def test_predicate_that_raises_refuses_the_step(self):
        # p0 starts with the hop count "0": the execution still replays, but
        # the token ring cannot compare it with its bound when p0 passes.
        x, pred = self.scenario(TOKEN_RING_EPR, 0)
        p0 = {**x.initial.classical["p0"], "hops": "0"}
        x = executions.Execution(
            dc_replace(x.initial, classical={**x.initial.classical, "p0": p0}), x.events)
        executions.replay(x)
        i = next(k for k, e in enumerate(x.events)
                 if e.label == "p0" and not getattr(e, "protocol", False))
        with pytest.raises(executions.ReplayError) as err:
            executions.validate(pred, x)
        assert err.value.index == i
        assert err.value.reason.startswith(f"step {i} not allowed by predicate: TypeError(")

    def leader_block(self, seed):
        """Repro 1's setup (ROADMAP item 1), with ``seed``: the execution,
        its predicate and the index of the leader's Invoke, whose block is
        the Invoke, the gop-self Apply and two marker Sends."""
        x, pred = self.scenario({**TOKEN_RING_EPR, "base_params": {
            "max_hops": 6, "epr_pair": True}}, seed)
        i = next(k for k, e in enumerate(x.events) if isinstance(e, Invoke))
        assert [type(e) for e in x.events[i:i + 4]] == [Invoke, Apply, Send, Send]
        return x, pred, i

    def test_execution_cut_inside_a_block_is_refused(self):
        x, pred, i = self.leader_block(7)
        cut = executions.Execution(x.initial, x.events[:i + 2])
        with pytest.raises(executions.ReplayError) as err:
            executions.validate(pred, cut)
        assert err.value.index == i
        # The builder's reason reaches the refusal, so a cut block is told
        # apart from a guard's refusal (see the waitset case above).
        assert err.value.reason == (f"step {i} not allowed by predicate: "
                                    "no message id left to build the block with")
        # The ids run out inside the generator of marker Sends: a QgoError,
        # not the RuntimeError that a bare StopIteration would become there.
        pre = executions.replay(cut)[i]
        with pytest.raises(qgo.QgoError, match="left to build the block"):
            qgo.qgo_invoke(pre, "p0", pred.library["snapshot-measure"],
                           qgo.GenContext.recorded(cut.events[i:]))

    def test_base_action_the_record_cannot_build_is_no_candidate(self):
        # p1 starts with a token of its own, so at its take it may also
        # pass.  The record holds no message id for a pass: building it
        # raises a QgoError, which makes it no candidate, and the take alone
        # is the block.
        cfg = dict(base="token-ring", procs=2, base_params={"max_hops": 2})
        x, pred = self.scenario(cfg, 0)
        assert [(type(e), e.label) for e in x.events[:3]] == \
            [(Send, "p0"), (Receive, "p1"), (Apply, "p1")]
        p1 = {**x.initial.classical["p1"], "has_token": True}
        initial = dc_replace(x.initial, classical={**x.initial.classical, "p1": p1})
        cut = executions.Execution(initial, x.events[:3])
        assert pred.base.enabled("p1", executions.replay(cut)[2].classical["p1"]) == \
            ["pass", "take"]
        executions.validate(pred, cut)  # raises ReplayError if refused

    def test_event_that_cannot_be_stepped_is_refused(self):
        # A specification-only event in x: ``step`` raises a SysmodelError,
        # so replay reports it and validate refuses x.
        x, pred = self.scenario(TOKEN_RING_EPR, 0)
        n = len(x.events)
        atomic = AtomicExecute(eid=n, label="p0", gid="record-only")
        forged = executions.Execution(x.initial, x.events + (atomic,))
        with pytest.raises(executions.ReplayError,
                           match=f"index {n}: event type AtomicExecute cannot be stepped"):
            executions.replay(forged)
        with pytest.raises(executions.ReplayError) as err:
            executions.validate(pred, forged)
        assert (err.value.index, err.value.reason) == (
            n, "not well formed: event type AtomicExecute cannot be stepped")

    def test_event_of_another_processor_inside_a_block_is_refused(self):
        forged_runs = 0
        for seed in range(10):
            x, pred, i = self.leader_block(seed)
            # p1's next base event, moved between p0's gop-self Apply and its
            # markers.
            j = next(k for k in range(i + 4, len(x.events))
                     if x.events[k].label == "p1" and not x.events[k].protocol)
            ev = list(x.events)
            ev.insert(i + 2, ev.pop(j))
            forged = executions.Execution(x.initial, tuple(ev))
            try:
                executions.replay(forged)
            except executions.ReplayError:
                continue
            with pytest.raises(executions.ReplayError) as err:
                executions.validate(pred, forged)
            assert err.value.index == i + 2, (seed, err.value.reason)
            forged_runs += 1
        assert forged_runs >= 5

    @pytest.mark.parametrize("cfg", [
        dict(base="token-ring", procs=5, base_params={"qubits_per_proc": 2, "max_hops": 10},
             invocations=[{"gid": "snapshot-measure", "leader": "p0", "after_step": 2}],
             seed=1),
        PURITY_CORPUS[2],
    ], ids=["ring-quantum-wide", "encrypt-d64"])
    def test_validate_draws_no_outcome(self, cfg, monkeypatch):
        x, pred = self.scenario(cfg, cfg["seed"])

        def no_draw(*args):
            raise AssertionError("validate drew an outcome")
        monkeypatch.setattr(qcore, "draw_outcome", no_draw)
        executions.validate(pred, x)  # raises ReplayError if refused
