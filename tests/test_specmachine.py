import numpy as np
import pytest

from qgosim import executions, qcore, specmachine, sysmodel
from qgosim.executions import AtomicExecute, Execution, Invoke, Receive, Respond, Send
from qgosim.qcore import DensityMatrix, RegisterId, RegisterSpace
from qgosim.qgo import outcome_label
from qgosim.specmachine import SpecViolation, spec_step, validate_spec_execution
from qgosim.sysmodel import MessageInstance, encode_classical

SIGMA = {"inbox": []}
MSG_CLASSICAL = {"h": 1}


def spec_state(with_msg=False, dims=(2, 2)):
    """An EPR pair (|00> + |11>) on r0 (p0's) and r1 (p1's, or p0's when
    it is to be sent)."""
    r0, r1 = RegisterId(0, dims[0]), RegisterId(1, dims[1])
    vec = np.zeros(dims[0] * dims[1], complex)
    vec[0] = vec[dims[1] + 1] = 1 / np.sqrt(2)
    quantum = DensityMatrix.from_vector(RegisterSpace((r0, r1)), vec)
    procs = ("p0", "p1")
    st = sysmodel.initial_state(
        procs, {p: SIGMA for p in procs}, quantum,
        {r0: "p0", r1: "p0" if with_msg else "p1"},
        ext=specmachine.spec_idle_ext(procs),
    )
    return st, r0, r1


def snap(classical, q):
    """A snapshot-measure outcome: the encoded classical state and the
    measured digits (None when there is no register)."""
    return outcome_label(encode_classical(classical), q)


def atomic(gid="snapshot-measure", leader="p0", procs=(), msgs=()):
    return AtomicExecute(eid=90, label=leader, gid=gid,
                         proc_outcomes=tuple(procs), msg_outcomes=tuple(msgs))


def in_flight_head(gid="snapshot-measure"):
    """p0 sends r1 to p1 and invokes ``gid``; the message is in flight."""
    st, r0, r1 = spec_state(with_msg=True)
    msg = MessageInstance(0, "p0", "p1", classical=MSG_CLASSICAL, quantum_regs=(r1,))
    return st, (Send(eid=0, label="p0", msg=msg), Invoke(eid=1, label="p0", gid=gid))


def measure_both(q0="0", q1="0"):
    """Snapshot-measure p0's register and the in-flight one; p1 holds none."""
    return atomic(procs=[("p0", snap(SIGMA, q0)), ("p1", snap(SIGMA, None))],
                  msgs=[(0, snap(MSG_CLASSICAL, q1))])


class TestAtomicExecute:
    def full_exec(self):
        """Message in flight at the atomic point, measured along with both
        processors' registers."""
        st, head = in_flight_head()
        return Execution(st, head + (measure_both(),))

    def test_records_assigned(self):
        x = self.full_exec()
        states = list(executions.walk(x, spec_step))
        final = states[-1]
        assert final.quantum.trace == pytest.approx(0.5)
        r0rec = final.ext["p0"]["record"]
        r1rec = final.ext["p1"]["record"]
        assert r0rec["self"] == snap(SIGMA, "0")
        assert r0rec["channels"] == {"p0->p0": [], "p1->p0": []}
        # the in-flight message's outcome lands in p1's channel record
        assert r1rec["channels"]["p0->p1"] == [snap(MSG_CLASSICAL, "0")]

    def test_components_come_from_the_operation(self):
        # Both halves of the pair are measured, so they cannot disagree,
        # whatever operation an execution claims it applied.
        st, head = in_flight_head()
        before = list(executions.walk(Execution(st, head), spec_step))[-1]
        assert spec_step(before, measure_both("1", "1")).quantum.trace == pytest.approx(0.5)
        with pytest.raises(SpecViolation, match="zero probability"):
            spec_step(before, measure_both("0", "1"))

    def test_responds_must_match_records(self):
        x = self.full_exec()
        final = list(executions.walk(x, spec_step))[-1]
        good = Respond(eid=3, label="p0", record=final.ext["p0"]["record"])
        spec_step(final, good)
        bad = Respond(eid=3, label="p0", record={"forged": True})
        with pytest.raises(SpecViolation):
            spec_step(final, bad)

    def test_requires_invocation(self):
        st, *_ = spec_state()
        ev = atomic("record-only", procs=[("p0", snap(SIGMA, None)),
                                          ("p1", snap(SIGMA, None))])
        with pytest.raises(SpecViolation):
            spec_step(st, ev)

    def test_missing_processor_component(self):
        st, *_ = spec_state()
        st = spec_step(st, Invoke(eid=0, label="p0", gid="record-only"))
        ev = atomic("record-only", procs=[("p0", snap(SIGMA, None))])
        with pytest.raises(SpecViolation, match="do not cover the processors"):
            spec_step(st, ev)

    def test_message_components_must_cover_in_flight(self):
        st, head = in_flight_head()
        incomplete = atomic(procs=measure_both().proc_outcomes, msgs=())
        before = list(executions.walk(Execution(st, head), spec_step))[-1]
        with pytest.raises(SpecViolation, match="in-flight messages"):
            spec_step(before, incomplete)

    def test_unknown_gid(self):
        st, *_ = spec_state()
        st = spec_step(st, Invoke(eid=0, label="p0", gid="nonesuch"))
        ev = atomic("nonesuch", procs=[("p0", "x"), ("p1", "x")])
        with pytest.raises(SpecViolation, match="unknown global operation 'nonesuch'"):
            spec_step(st, ev)

    @pytest.mark.parametrize("gid, procs", [
        ("snapshot-measure", [("p0", snap(SIGMA, "2")), ("p1", snap(SIGMA, "0"))]),
        ("record-only", [("p0", snap({"inbox": ["forged"]}, None)),
                         ("p1", snap(SIGMA, None))]),
        ("global-encrypt", [("p0", outcome_label(None, "IX")),
                            ("p1", outcome_label(None, "X"))]),
    ], ids=["measured-digit", "fixed-outcome", "pad-key"])
    def test_outcome_outside_the_component(self, gid, procs):
        st, *_ = spec_state()
        st = spec_step(st, Invoke(eid=0, label="p0", gid=gid))
        with pytest.raises(SpecViolation, match="on p0 cannot give outcome"):
            spec_step(st, atomic(gid, procs=procs))

    def test_component_that_cannot_be_built(self):
        st, *_ = spec_state(dims=(3, 2))
        st = spec_step(st, Invoke(eid=0, label="p0", gid="global-encrypt"))
        ev = atomic("global-encrypt", procs=[("p0", outcome_label(None, "X")),
                                             ("p1", outcome_label(None, "X"))])
        with pytest.raises(SpecViolation, match="requires qubit registers"):
            spec_step(st, ev)

    def test_nonconcurrency(self):
        st, *_ = spec_state()
        st = spec_step(st, Invoke(eid=0, label="p0", gid="record-only"))
        with pytest.raises(SpecViolation):
            spec_step(st, Invoke(eid=1, label="p1", gid="record-only"))


class TestSpecValidation:
    def test_complete_execution_validates(self):
        st, head = in_flight_head()
        head += (measure_both("1", "1"),)
        mid = list(executions.walk(Execution(st, head), spec_step))[-1]
        tail = (
            Respond(eid=4, label="p0", record=mid.ext["p0"]["record"]),
            Respond(eid=5, label="p1", record=mid.ext["p1"]["record"]),
            Receive(eid=6, label="p1", chan="p0->p1", msg_id=0),
        )
        final = validate_spec_execution(Execution(st, head + tail))
        # the final state: the pair measured as 11, and its second half
        # delivered to p1
        r0, r1 = st.quantum.space.registers
        assert final.ownership == {r0: "p0", r1: "p1"}
        ket11 = np.zeros(4, complex)
        ket11[3] = 1 / np.sqrt(2)
        expect = DensityMatrix.from_vector(st.quantum.space, ket11)
        assert qcore.states_close(final.quantum, expect, qcore.EPS_EXACT)

    def test_protocol_event_rejected(self):
        st, *_ = spec_state()
        marker = MessageInstance(0, "p0", "p1", marker="record-only")
        x = Execution(st, (Send(eid=0, label="p0", msg=marker, protocol=True),))
        with pytest.raises(executions.ReplayError) as err:
            validate_spec_execution(x)
        assert (err.value.index, err.value.reason) == (
            0, "protocol event in a specification execution")

    def test_violation_is_a_replay_error_with_its_index(self):
        st, *_ = spec_state()
        x = Execution(st, (Invoke(eid=0, label="p0", gid="record-only"),
                           Invoke(eid=1, label="p1", gid="record-only")))
        with pytest.raises(executions.ReplayError) as err:
            list(executions.walk(x, spec_step))
        assert err.value.index == 1
        assert isinstance(err.value.__cause__, SpecViolation)
        with pytest.raises(executions.ReplayError) as err:
            validate_spec_execution(x)
        assert (err.value.index, err.value.reason) == (
            1, "invocation while p0 has an operation in progress")

    def test_open_operation_at_end_rejected(self):
        """An operation still open after the last event fails at step n."""
        st, *_ = spec_state()
        x = Execution(st, (Invoke(eid=0, label="p0", gid="record-only"),))
        with pytest.raises(executions.ReplayError) as err:
            validate_spec_execution(x)
        assert (err.value.index, err.value.reason) == (1, "p0 ends with an open operation")
