import json
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from qgosim import executions, qcore, qgo, sysmodel
from qgosim.executions import Apply, Respond, Send
from qgosim.harness.scenarios import ScenarioConfig, build_scenario
from qgosim.harness.scheduler import run_simulation
from qgosim.qcore import DensityMatrix, RegisterAllocator, RegisterSpace
from qgosim.sysmodel import MessageInstance
from test_executions import PURITY_CORPUS


def epr_two_procs():
    alloc = RegisterAllocator()
    r0, r1 = alloc.fresh(2), alloc.fresh(2)
    vec = np.zeros(4, complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    quantum = DensityMatrix.from_vector(RegisterSpace((r0, r1)), vec)
    procs = ("p0", "p1")
    return sysmodel.initial_state(
        procs, {p: {"inbox": []} for p in procs}, quantum,
        {r0: "p0", r1: "p1"},
        ext={p: qgo.idle_ext() for p in procs},
    )


def drain(state, library, ctx, rng):
    """Deliver channel heads in random order until quiescent."""
    events = []
    while True:
        nonempty = [c for c in sorted(state.channels) if state.channels[c]]
        if not nonempty:
            return events, state
        c = nonempty[rng.integers(len(nonempty))]
        evs, state = qgo.qgo_receive(
            state, sysmodel.chan_endpoints(c)[1], c, library, ctx
        )
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
        events, state = qgo.qgo_invoke(st, "p0", lib["record-only"], ctx)
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
        _, state = qgo.qgo_invoke(st, "p0", lib["record-only"], ctx)
        with pytest.raises(qgo.ConcurrentInvocation):
            qgo.qgo_invoke(state, "p1", lib["record-only"], ctx)

    def test_full_round_reaches_quiescence(self):
        st = epr_two_procs()
        ctx = qgo.GenContext(np.random.default_rng(1))
        lib = qgo.global_op_library(["snapshot-measure"])
        events, state = qgo.qgo_invoke(st, "p0", lib["snapshot-measure"], ctx)
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
        events, state = qgo.qgo_invoke(st, "p1", lib["record-only"], ctx)
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
        events, state = qgo.qgo_invoke(state, "p1", lib["record-only"], ctx)
        more, state = drain(state, lib, ctx, np.random.default_rng(0))
        (resp,) = [e for e in events + more
                   if isinstance(e, Respond) and e.label == "p1"]
        recorded = resp.record["channels"]["p0->p1"]
        assert [json.loads(r)["c"] for r in recorded] == ['{"v":9}']

    def test_message_after_marker_not_recorded(self):
        st = epr_two_procs()
        ctx = qgo.GenContext(np.random.default_rng(4))
        lib = qgo.global_op_library(["record-only"])
        events, state = qgo.qgo_invoke(st, "p0", lib["record-only"], ctx)
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
        _, state = qgo.qgo_invoke(st, "p0", lib["record-only"], ctx)
        with pytest.raises(qgo.UnknownGlobalOp):
            qgo.qgo_receive(state, "p1", "p0->p1", {}, ctx)


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


def identity_fix(e):
    """The teleport correction with the identity in place of its unitary,
    relabelled to the same bits."""
    ident = qcore.relabel_outcomes(qcore.identity_operation([2]), lambda _: e.outcome)
    return dc_replace(e, qop=ident)


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
            x, pred = self.scenario(cfg, seed)
            res = executions.validate(pred, x)
            assert res, (seed, res.reason)

    # Each forged step still replays, so only the predicate can refuse it.
    @pytest.mark.parametrize("cfg, pick, change", [
        (TELEPORT, is_correction, identity_fix),
        (SCENARIO_A, lambda e: isinstance(e, Send) and e.protocol, marker_for_another_gid),
        (SCENARIO_A, lambda e: isinstance(e, Send) and not e.protocol, token_skipping_a_hop),
        (SCENARIO_A, lambda e: isinstance(e, Respond),
         lambda e: dc_replace(e, record={**e.record, "self": "forged"})),
        (SCENARIO_A, lambda e: isinstance(e, Apply) and e.name.startswith("gop-self:"),
         lambda e: dc_replace(e, name="gop-self:record-only")),
    ], ids=["identity-correction", "marker-payload", "token-hops", "forged-record",
            "foreign-gop-self"])
    def test_forged_step_rejected_at_its_index(self, cfg, pick, change):
        forged_runs = 0
        for seed in range(10):
            x, pred = self.scenario(cfg, seed)
            if (case := forge(x, pick, change)) is None:
                continue
            forged, i = case
            executions.replay(forged)  # raises ReplayError if it does not replay
            res = executions.validate(pred, forged)
            assert not res and res.first_failure == i, (seed, res)
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
        res = executions.validate(pred, x)
        assert not res and res.first_failure == i
        assert res.reason.startswith(f"step {i} not allowed by predicate: TypeError(")
