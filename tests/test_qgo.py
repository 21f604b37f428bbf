import copy
import json

import numpy as np
import pytest

from qgosim import executions, qgo, sysmodel
from qgosim.executions import Receive, Respond, Send
from qgosim.harness.scenarios import ScenarioConfig, build_scenario
from qgosim.harness.scheduler import run_simulation
from qgosim.qcore import DensityMatrix, RegisterAllocator, RegisterSpace
from qgosim.sysmodel import MessageInstance


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


class TestAugmentedPredicate:
    def scenario(self, seed=0):
        cfg = ScenarioConfig(
            base="token-ring", procs=2,
            base_params={"max_hops": 3, "epr_pair": True},
            invocations=[{"gid": "snapshot-measure", "leader": "p0", "after_step": 2}],
            seed=seed,
        )
        res = run_simulation(cfg)
        _, base, lib = build_scenario(cfg)
        return res.execution, qgo.qgo_augment(base, lib)

    def test_generated_execution_validates(self):
        for seed in range(5):
            x, pred = self.scenario(seed)
            assert executions.validate(pred, x)

    def test_tampered_record_rejected(self):
        x, pred = self.scenario()
        ev = []
        for e in x.events:
            if isinstance(e, Respond):
                bad = copy.deepcopy(e.record)
                bad["self"] = "forged"
                e = Respond(eid=e.eid, label=e.label, record=bad, update=e.update)
            ev.append(e)
        res = executions.validate(pred, executions.Execution(x.initial, tuple(ev)))
        assert not res

    def test_foreign_protocol_apply_rejected(self):
        x, pred = self.scenario()
        ev = list(x.events)
        for i, e in enumerate(ev):
            if isinstance(e, executions.Apply) and e.name.startswith("gop-self:"):
                ev[i] = executions.Apply(
                    eid=e.eid, label=e.label, proc=e.proc, name="gop-self:record-only",
                    outcome=e.outcome, qop=e.qop, in_regs=e.in_regs,
                    out_regs=e.out_regs, update=e.update, protocol=True,
                )
                break
        res = executions.validate(pred, executions.Execution(x.initial, tuple(ev)))
        assert not res
