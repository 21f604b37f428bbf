import dataclasses

import numpy as np
import pytest

from qgosim import executions, qcore, qgo, specmachine, sysmodel, verifier
from qgosim.executions import (
    Apply,
    ClassicalUpdate,
    Execution,
    Receive,
    ReplayError,
    Send,
    replay,
)
from qgosim.harness.scenarios import ScenarioConfig
from qgosim.harness.scheduler import run_simulation
from qgosim.qcore import NO_OUTCOME, DensityMatrix, RegisterId, RegisterSpace
from qgosim.sysmodel import MessageInstance


def make_state():
    r0, r1 = RegisterId(0, 2), RegisterId(1, 2)
    vec = np.zeros(4, complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    quantum = DensityMatrix.from_vector(RegisterSpace((r0, r1)), vec)
    st = sysmodel.initial_state(
        ("p0", "p1"),
        {"p0": {"inbox": []}, "p1": {"inbox": []}},
        quantum,
        {r0: "p0", r1: "p0"},
    )
    return st, r0, r1


def quantum_ping() -> Execution:
    """p0 sends one EPR half to p1, which measures it."""
    st, r0, r1 = make_state()
    msg = MessageInstance(0, "p0", "p1", classical={"kind": "half"}, quantum_regs=(r1,))
    meas = qcore.standard_basis_measurement([2])
    events = (
        Send(eid=0, label="p0", msg=msg),
        Receive(eid=1, label="p1", chan="p0->p1", msg_id=0),
        Apply(eid=2, label="p1", name="measure", outcome="0",
              qop=meas, in_regs=(r1,), out_regs=(r1,)),
    )
    return Execution(st, events)


class TestReplay:
    def test_deterministic_and_traces(self):
        x = quantum_ping()
        states = replay(x)
        assert len(states) == 4
        assert states[-1].quantum.trace == pytest.approx(0.5)
        states2 = replay(x)
        assert states[-1].quantum.space.registers == states2[-1].quantum.space.registers
        assert sysmodel.states_equal(states[-1], states2[-1], 0.0)

    def test_receive_before_send_ill_formed(self):
        x = quantum_ping()
        swapped = Execution(x.initial, (x.events[1], x.events[0], x.events[2]))
        with pytest.raises(ReplayError) as err:
            replay(swapped)
        assert err.value.index == 0

    def test_failing_update_is_an_invalid_step(self):
        x = quantum_ping()
        recv = x.events[1]
        bad = Receive(eid=recv.eid, label=recv.label, chan=recv.chan,
                      msg_id=recv.msg_id,
                      update=executions.ClassicalUpdate("qgo.marker_close", ("c",)))
        # p1's extension state is None, which marker_close cannot index.
        with pytest.raises(ReplayError, match="'qgo.marker_close' failed") as err:
            replay(Execution(x.initial, (x.events[0], bad) + x.events[2:]))
        assert err.value.index == 1
        assert isinstance(err.value.__cause__, executions.UpdateFailed)

    def test_fifo_violation_detected(self):
        st, r0, r1 = make_state()
        m0 = MessageInstance(0, "p0", "p1", classical=0)
        m1 = MessageInstance(1, "p0", "p1", classical=1)
        events = (
            Send(eid=0, label="p0", msg=m0),
            Send(eid=1, label="p0", msg=m1),
            Receive(eid=2, label="p1", chan="p0->p1", msg_id=1),  # out of order
        )
        with pytest.raises(ReplayError) as err:
            replay(Execution(st, events))
        assert err.value.index == 2

    @pytest.mark.parametrize("second", [
        Receive(eid=1, label="p1", chan="p0->p1", msg_id=0),
        Send(eid=1, label="p0", msg=MessageInstance(1, "p0", "p1")),
    ], ids=["after-reception", "in-flight"])
    def test_reused_message_id(self, second):
        """Message 0 is sent again after it was received, or while it is
        still in flight: replay refuses the reuse at the second Send."""
        st, *_ = make_state()
        events = (
            Send(eid=0, label="p0", msg=MessageInstance(0, "p0", "p1")),
            second,
            Send(eid=2, label="p0", msg=MessageInstance(0, "p0", "p1")),
        )
        with pytest.raises(ReplayError, match="message id 0 reused") as err:
            replay(Execution(st, events))
        assert err.value.index == 2

    @pytest.mark.parametrize("chan", ["p0->p9", "bogus"])
    def test_receive_on_no_channel(self, chan):
        st, *_ = make_state()
        events = (
            Send(eid=0, label="p0", msg=MessageInstance(0, "p0", "p1")),
            Receive(eid=1, label="p1", chan=chan, msg_id=0),
        )
        with pytest.raises(ReplayError) as err:
            replay(Execution(st, events))
        assert err.value.index == 1
        assert isinstance(err.value.__cause__, sysmodel.SysmodelError)

    def test_send_on_no_channel(self):
        """A Send to a processor the state does not have opens no queue."""
        st, *_ = make_state()
        send = Send(eid=0, label="p0", msg=MessageInstance(0, "p0", "p9"))
        with pytest.raises(ReplayError, match="no channel 'p0->p9'") as err:
            replay(Execution(st, (send,)))
        assert err.value.index == 0

    def test_zero_probability_outcome(self):
        st, r0, r1 = make_state()
        # project r0 to |0> then demand outcome 1 on the correlated r1
        meas = qcore.standard_basis_measurement([2])
        events = (
            Apply(eid=0, label="p0", name="m0", outcome="0",
                  qop=meas, in_regs=(r0,), out_regs=(r0,)),
            Apply(eid=1, label="p0", name="m1", outcome="1",
                  qop=meas, in_regs=(r1,), out_regs=(r1,)),
        )
        with pytest.raises(ReplayError) as err:
            replay(Execution(st, events))
        assert err.value.index == 1

    def test_probability_that_is_not_finite(self):
        """A Kraus matrix of finite but huge entries overflows the trace."""
        st, r0, _ = make_state()
        huge = qcore.unitary_channel(np.eye(2) * 1e200, (2,))
        ev = Apply(eid=0, label="p0", name="huge", outcome=NO_OUTCOME,
                   qop=huge, in_regs=(r0,), out_regs=(r0,))
        with pytest.raises(ReplayError, match="^invalid step at index 0: outcome '⊥' "
                                              "has probability inf$"):
            replay(Execution(st, (ev,)))

    def test_unknown_update_name(self):
        st, *_ = make_state()
        ev = Apply(eid=0, label="p0", name="nop", outcome=NO_OUTCOME,
                   update=ClassicalUpdate("no-such-update"))
        with pytest.raises(ReplayError):
            replay(Execution(st, (ev,)))


class TestSliceConcat:
    def test_slice_concat_identity(self):
        """Replay composes at a cut: the fragment after position 2, started
        from the replayed state there, ends where the whole execution does."""
        x = quantum_ping()
        states = replay(x)
        a = replay(Execution(x.initial, x.events[:2]))
        b = replay(Execution(a[-1], x.events[2:]))
        assert sysmodel.states_equal(a[-1], states[2], 0.0)
        assert sysmodel.states_equal(b[-1], states[-1], 0.0)


class TestInFlightRecord:
    def in_flight_ping(self):
        """A state where p1 records channel p0->p1, the Send of a message
        carrying r1, its reception, and the receiver's recording Apply."""
        st, r0, r1 = make_state()
        recording = dict(qgo.idle_ext(), op="g", res={"p0->p1": []},
                         waitset=["p0->p1"])
        st = sysmodel.initial_state(st.procs, st.classical, st.quantum,
                                    st.ownership, ext={"p0": None, "p1": recording})
        msg = MessageInstance(0, "p0", "p1", classical={"kind": "half"}, quantum_regs=(r1,))
        send = Send(eid=0, label="p0", msg=msg)
        recv = Receive(eid=1, label="p1", chan="p0->p1", msg_id=0)
        apply = Apply(eid=2, label="p1", name="gop-msg:g", outcome="1",
                      qop=qcore.standard_basis_measurement([2]),
                      in_regs=(r1,), out_regs=(r1,),
                      update=ClassicalUpdate("qgo.record", ("p0->p1",)),
                      target_msg=0)
        return st, msg, send, recv, apply

    def test_apply_in_flight_then_receive_matches_receive_then_apply(self):
        """An operation on a message in flight, relabelled with the
        message's token as the verifier's move relabels it, files its
        outcome in the receiver's channel record in the same step, and the
        state after the reception is the one the receiver's own Apply after
        the reception reaches."""
        st, msg, send, recv, apply = self.in_flight_ping()
        in_flight = dataclasses.replace(apply, label="msg:0")
        after = replay(Execution(st, (send, recv, apply)))
        before = replay(Execution(st, (send, in_flight, recv)))
        assert before[2].ext["p1"]["res"] == {"p0->p1": ["1"]}
        assert before[2].find_message(0) == msg
        assert after[-1].ext["p1"]["res"] == {"p0->p1": ["1"]}
        assert before[-1].ext == after[-1].ext
        assert sysmodel.states_equal(before[-1], after[-1], qcore.EPS_EXACT)

    def test_token_apply_after_the_reception_is_refused(self):
        """Once its message is received, the token owns no register, so an
        Apply labelled with it does not run."""
        st, msg, send, recv, apply = self.in_flight_ping()
        in_flight = dataclasses.replace(apply, label="msg:0")
        with pytest.raises(ReplayError, match=r"not owned by msg:0 \(owner: p1\)") as exc:
            replay(Execution(st, (send, recv, in_flight)))
        assert exc.value.index == 2


class TestFilter:
    def test_protocol_events_filtered(self):
        from qgosim.executions import AtomicExecute, Invoke, Respond
        assert executions.in_filter(Invoke(eid=0, label="p0", gid="g"))
        assert executions.in_filter(Respond(eid=1, label="p0", record={}))
        assert not executions.in_filter(AtomicExecute(eid=2, label="p0", gid="g"))
        m = MessageInstance(0, "p0", "p1", marker="g")
        assert not executions.in_filter(Send(eid=3, label="p0", msg=m, protocol=True))
        assert executions.in_filter(Send(eid=4, label="p0", msg=m))


class TestValidate:
    def test_validate_reports_first_failure(self):
        class RejectApplies:
            def blocks(self, pre, events, i):
                return [] if isinstance(events[i], Apply) else [[events[i]]]

        x = quantum_ping()
        with pytest.raises(ReplayError) as err:
            executions.validate(RejectApplies(), x)
        assert (err.value.index, err.value.reason) == (2, "step 2 not allowed by predicate")

    def test_validate_ill_formed(self):
        x = quantum_ping()
        bad = Execution(x.initial, (x.events[1],))

        class Anything:
            def blocks(self, pre, events, i):
                return [[events[i]]]

        with pytest.raises(ReplayError) as err:
            executions.validate(Anything(), bad)
        assert (err.value.index, err.value.reason) == (
            0, "not well formed: channel p0->p1 is empty")

    @pytest.mark.parametrize("block, first_failure", [
        (lambda ev: [ev[0], ev[1]], None),
        (lambda ev: [ev[0], dataclasses.replace(ev[1], msg_id=7)], 1),
        (lambda ev: [ev[0], ev[1], ev[2], ev[2]], 3),
    ], ids=["whole", "second-differs", "longer-than-the-execution"])
    def test_validate_names_the_first_event_that_differs_from_a_block(
            self, block, first_failure):
        """An allowed execution gives its final state; a refused one raises
        at the first event that differs from the block."""
        x = quantum_ping()

        class FirstTwoThenOne:
            def blocks(self, pre, events, i):
                return [block(events)] if i == 0 else [[events[i]]]

        if first_failure is None:
            final = executions.validate(FirstTwoThenOne(), x)
            assert sysmodel.states_equal(final, replay(x)[-1], 0.0)
            return
        with pytest.raises(ReplayError) as err:
            executions.validate(FirstTwoThenOne(), x)
        assert (err.value.index, err.value.reason) == (
            first_failure, f"step {first_failure} not allowed by predicate")


# ---------------------------------------------------------------------------
# Purity: no step or classical update changes a state that already exists
# ---------------------------------------------------------------------------

def _inv(gid, leader, after_step):
    return {"gid": gid, "leader": leader, "after_step": after_step}


# One execution of each configuration kind of the batch-small benchmark
# workload, with its scenario seed: between them they run every classical
# update the package registers.
PURITY_CORPUS = [
    dict(base="token-ring", procs=2, base_params={"epr_pair": True, "max_hops": 6},
         invocations=[_inv("snapshot-measure", "p0", 2),
                      _inv("snapshot-measure", "p0", 6)], seed=0),
    dict(base="teleport", procs=2,
         invocations=[_inv("snapshot-measure", "p1", 1),
                      _inv("global-encrypt", "p0", 3)], seed=1),
    dict(base="token-ring", procs=3, base_params={"qubits_per_proc": 2, "max_hops": 6},
         invocations=[_inv("global-encrypt", "p0", 2)], seed=2),
    dict(base="ping", procs=3, base_params={"n_msgs": 6},
         invocations=[_inv("record-only", "p2", 2),
                      _inv("snapshot-measure", "p1", 5)], seed=3),
]


def batch_small(seed: int) -> ScenarioConfig:
    """Item ``seed`` of the batch-small workload: its kind's config with that seed."""
    return ScenarioConfig.from_dict({**PURITY_CORPUS[seed % 4], "seed": seed})


def _encoded(state):
    """The classical side of ``state`` as text: sigma, ext and messages."""
    enc = sysmodel.encode_classical
    messages = {c: [m.classical for m in msgs] for c, msgs in state.channels.items()}
    return enc(state.classical), enc(state.ext), enc(messages)


def test_replay_never_mutates_an_earlier_state(monkeypatch):
    ran = set()
    for name, fn in list(executions._UPDATES.items()):
        def counted(*args, name=name, fn=fn):
            ran.add(name)
            return fn(*args)
        monkeypatch.setitem(executions._UPDATES, name, counted)

    def check(x, step_fn):
        seen = [(x.initial, _encoded(x.initial))]

        def recording_step(state, event):
            new = step_fn(state, event)
            seen.append((new, _encoded(new)))
            return new

        list(executions.walk(x, recording_step))
        assert len(seen) == len(x.events) + 1
        for i, (state, encoded) in enumerate(seen):
            assert _encoded(state) == encoded, f"state {i} changed after it was built"

    for cfg in PURITY_CORPUS:
        x = run_simulation(ScenarioConfig.from_dict(cfg)).execution
        check(x, executions.step)
        cert = verifier.verify(x)
        assert cert.accepted, cert.reason
        check(cert.z, executions.step)
        check(cert.spec, specmachine.spec_step)
    assert ran == set(executions._UPDATES)


# ROADMAP scenario (c): 1,540 classical events over 144 channels.
RING_CLASSICAL_LONG = dict(
    base="token-ring", procs=12, base_params={"max_hops": 96},
    invocations=[_inv("record-only", "p0", a) for a in (2, 7, 12, 17)],
    seed=3, max_steps=20000)


@pytest.mark.parametrize("cfg", [*PURITY_CORPUS, RING_CLASSICAL_LONG],
                         ids=["scenario-a", "teleport", "encrypt-d64", "ping", "ring-c"])
def test_no_state_holds_an_empty_queue(cfg):
    """A state's channel map holds the messages in transit and nothing else."""
    x = run_simulation(ScenarioConfig.from_dict(cfg)).execution
    states = replay(x)
    assert all(all(st.channels.values()) for st in states)
    assert any(st.channels for st in states)
