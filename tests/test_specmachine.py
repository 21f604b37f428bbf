import json

import numpy as np
import pytest

from qgosim import executions, qcore, specmachine, sysmodel
from qgosim.executions import AtomicExecute, Execution, Invoke, Receive, Respond, Send
from qgosim.qcore import DensityMatrix, RegisterAllocator, RegisterSpace
from qgosim.specmachine import SpecViolation, spec_step, validate_spec_execution
from qgosim.sysmodel import MessageInstance


def spec_state(with_msg=False):
    alloc = RegisterAllocator()
    r0, r1 = alloc.fresh(2), alloc.fresh(2)
    vec = np.zeros(4, complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    quantum = DensityMatrix.from_vector(RegisterSpace((r0, r1)), vec)
    procs = ("p0", "p1")
    st = sysmodel.initial_state(
        procs, {p: {"inbox": []} for p in procs}, quantum,
        {r0: "p0", r1: "p0" if with_msg else "p1"},
        ext=specmachine.spec_idle_ext(procs),
    )
    return st, r0, r1


def meas(reg):
    return qcore.standard_basis_measurement([reg.dim])


def atomic(gid="g", leader="p0", proc_comps=(), msg_comps=()):
    return AtomicExecute(eid=90, label=leader, gid=gid,
                         proc_comps=tuple(proc_comps), msg_comps=tuple(msg_comps))


class TestAtomicExecute:
    def full_exec(self):
        """Message in flight at the atomic point, measured along with both
        processors' registers."""
        st, r0, r1 = spec_state(with_msg=True)
        msg = MessageInstance(0, "p0", "p1", classical={"h": 1}, quantum_regs=(r1,))
        ev = (
            Send(eid=0, label="p0", msg=msg),
            Invoke(eid=1, label="p0", gid="g"),
            atomic(proc_comps=[
                ("p0", meas(r0), (r0,), (r0,), "0", None),
                ("p1", None, (), (), "none", None),
            ], msg_comps=[
                (0, meas(r1), (r1,), (r1,), "0", ),
            ]),
        )
        return Execution(st, ev)

    def test_records_assigned(self):
        x = self.full_exec()
        states = executions.replay(x, spec_step)
        final = states[-1]
        assert final.quantum.trace == pytest.approx(0.5)
        r0rec = final.ext["p0"]["record"]
        r1rec = final.ext["p1"]["record"]
        assert r0rec["self"] == "0"
        assert r0rec["channels"] == {"p0->p0": [], "p1->p0": []}
        # the in-flight message's outcome lands in p1's channel record
        assert r1rec["channels"]["p0->p1"] == ["0"]

    def test_responds_must_match_records(self):
        x = self.full_exec()
        final = executions.replay(x, spec_step)[-1]
        good = Respond(eid=3, label="p0", record=final.ext["p0"]["record"])
        spec_step(final, good)
        bad = Respond(eid=3, label="p0", record={"forged": True})
        with pytest.raises(SpecViolation):
            spec_step(final, bad)

    def test_requires_invocation(self):
        st, r0, r1 = spec_state()
        ev = atomic(proc_comps=[("p0", None, (), (), "a", None),
                                ("p1", None, (), (), "b", None)])
        with pytest.raises(SpecViolation):
            spec_step(st, ev)

    def test_missing_processor_component(self):
        st, *_ = spec_state()
        st = spec_step(st, Invoke(eid=0, label="p0", gid="g"))
        ev = atomic(proc_comps=[("p0", None, (), (), "a", None)])
        with pytest.raises(SpecViolation):
            spec_step(st, ev)

    def test_message_components_must_cover_in_flight(self):
        x = self.full_exec()
        incomplete = atomic(proc_comps=x.events[2].proc_comps, msg_comps=())
        st = executions.replay(Execution(x.initial, x.events[:2]), spec_step)[-1]
        with pytest.raises(SpecViolation):
            spec_step(st, incomplete)

    def test_nonconcurrency(self):
        st, *_ = spec_state()
        st = spec_step(st, Invoke(eid=0, label="p0", gid="g"))
        with pytest.raises(SpecViolation):
            spec_step(st, Invoke(eid=1, label="p1", gid="g"))


class TestSpecValidation:
    def test_complete_execution_validates(self):
        st, r0, r1 = spec_state(with_msg=True)
        msg = MessageInstance(0, "p0", "p1", classical={"h": 1}, quantum_regs=(r1,))
        head = (
            Send(eid=0, label="p0", msg=msg),
            Invoke(eid=1, label="p0", gid="g"),
            atomic(proc_comps=[
                ("p0", meas(r0), (r0,), (r0,), "1", None),
                ("p1", None, (), (), "none", None),
            ], msg_comps=[(0, meas(r1), (r1,), (r1,), "1")]),
        )
        mid = executions.replay(Execution(st, head), spec_step)[-1]
        tail = (
            Respond(eid=4, label="p0", record=mid.ext["p0"]["record"]),
            Respond(eid=5, label="p1", record=mid.ext["p1"]["record"]),
            Receive(eid=6, label="p1", chan="p0->p1", msg_id=0),
        )
        assert validate_spec_execution(Execution(st, head + tail))

    def test_protocol_event_rejected(self):
        st, *_ = spec_state()
        marker = MessageInstance(0, "p0", "p1", marker="g")
        x = Execution(st, (Send(eid=0, label="p0", msg=marker, protocol=True),))
        res = validate_spec_execution(x)
        assert not res and res.first_failure == 0

    def test_violation_is_a_replay_error_with_its_index(self):
        st, *_ = spec_state()
        x = Execution(st, (Invoke(eid=0, label="p0", gid="g"),
                           Invoke(eid=1, label="p1", gid="g")))
        with pytest.raises(executions.ReplayError) as err:
            executions.replay(x, spec_step)
        assert err.value.index == 1
        assert isinstance(err.value.__cause__, SpecViolation)
        res = validate_spec_execution(x)
        assert not res and res.first_failure == 1

    def test_open_operation_at_end_rejected(self):
        st, *_ = spec_state()
        x = Execution(st, (Invoke(eid=0, label="p0", gid="g"),))
        res = validate_spec_execution(x)
        assert not res
