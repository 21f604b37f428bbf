import numpy as np
import pytest

from qgosim import qcore, sysmodel
from qgosim.qcore import DensityMatrix, RegisterId, RegisterSpace
from qgosim.sysmodel import MessageInstance, chan_key

from dense import dense, dense_state


def two_proc_state(n_qubits_each=1):
    regs, ownership = [], {}
    for p in ("p0", "p1"):
        for _ in range(n_qubits_each):
            r = RegisterId(len(regs), 2)
            regs.append(r)
            ownership[r] = p
    quantum = DensityMatrix.basis_state(RegisterSpace(tuple(regs)))
    return sysmodel.initial_state(
        ("p0", "p1"),
        {"p0": {"inbox": []}, "p1": {"inbox": []}},
        quantum,
        ownership,
    ), regs


class TestOwnershipPartition:
    def test_processor_named_like_a_message(self):
        st, _ = two_proc_state()
        with pytest.raises(sysmodel.OwnershipViolation,
                           match="processor 'msg:0' is named like a message"):
            sysmodel.initial_state(("p0", "msg:0"), st.classical, st.quantum,
                                   st.ownership)

    @pytest.mark.parametrize("owner", ["ghost", "msg:0"])
    def test_register_owned_by_no_processor_or_carrying_message(self, owner):
        """Neither a name that is no processor's nor the token of a message
        that does not carry the register owns it."""
        st, regs = two_proc_state()
        with pytest.raises(sysmodel.OwnershipViolation,
                           match=f"owned by '{owner}', neither a processor nor"):
            sysmodel.initial_state(st.procs, st.classical, st.quantum,
                                   {**st.ownership, regs[1]: owner})


class TestChannels:
    def test_all_channels_include_self(self):
        procs = ("a", "b")
        assert all(sysmodel.is_channel(procs, c) for c in ("a->a", "a->b", "b->a", "b->b"))
        assert not any(sysmodel.is_channel(procs, c) for c in ("a->c", "a", "a->b->a", 1))

    def test_endpoints_roundtrip(self):
        assert sysmodel.chan_endpoints(chan_key("p0", "p1")) == ("p0", "p1")


class TestSendReceive:
    def test_send_moves_ownership_not_entries(self):
        st, regs = two_proc_state()
        msg = MessageInstance(0, "p0", "p1", classical={"x": 1}, quantum_regs=(regs[0],))
        st2 = sysmodel.send(st, "p0", msg)
        assert st2.ownership[regs[0]] == "msg:0"
        assert np.array_equal(dense(st2.quantum), dense(st.quantum))
        assert st2.channels["p0->p1"][0].msg_id == 0
        st2.check_ownership_partition()

    def test_receive_delivers_to_inbox(self):
        st, regs = two_proc_state()
        msg = MessageInstance(0, "p0", "p1", classical={"x": 1}, quantum_regs=(regs[0],))
        st2 = sysmodel.send(st, "p0", msg)
        st3 = sysmodel.receive(st2, "p1", "p0->p1", 0)
        assert st3.ownership[regs[0]] == "p1"
        assert st3.classical["p1"]["inbox"] == [["p0->p1", {"x": 1}]]
        assert st3.queue("p0->p1") == ()

    def test_fifo_order(self):
        st, _ = two_proc_state()
        for i in range(3):
            st = sysmodel.send(st, "p0", MessageInstance(i, "p0", "p1", classical=i))
        inbox = []
        for i in range(3):
            st = sysmodel.receive(st, "p1", "p0->p1", i)
            inbox.append(st.classical["p1"]["inbox"][-1][1])
        assert inbox == [0, 1, 2]

    def test_send_unowned_register_rejected(self):
        st, regs = two_proc_state()
        bad = MessageInstance(0, "p0", "p1", quantum_regs=(regs[1],))  # p1's register
        with pytest.raises(sysmodel.OwnershipViolation):
            sysmodel.send(st, "p0", bad)

    def test_receive_wrong_recipient(self):
        st, _ = two_proc_state()
        st = sysmodel.send(st, "p0", MessageInstance(0, "p0", "p1"))
        with pytest.raises(sysmodel.NotRecipient):
            sysmodel.receive(st, "p0", "p0->p1", 0)

    def test_receive_empty_channel(self):
        st, _ = two_proc_state()
        with pytest.raises(sysmodel.EmptyChannel):
            sysmodel.receive(st, "p1", "p0->p1", 0)

    def test_receive_names_the_head(self):
        st, _ = two_proc_state()
        for i in range(2):
            st = sysmodel.send(st, "p0", MessageInstance(i, "p0", "p1"))
        with pytest.raises(sysmodel.SysmodelError, match="expected message 1"):
            sysmodel.receive(st, "p1", "p0->p1", 1)

    def test_marker_skips_inbox(self):
        st, _ = two_proc_state()
        st = sysmodel.send(st, "p0", MessageInstance(0, "p0", "p1", marker="g"))
        st2 = sysmodel.receive(st, "p1", "p0->p1", 0)
        assert st2.classical["p1"]["inbox"] == []


class TestApplyLocal:
    def test_locality_enforced(self):
        st, regs = two_proc_state()
        op = qcore.standard_basis_measurement([2])
        with pytest.raises(sysmodel.LocalityViolation):
            sysmodel.apply_local(st, "p0", op, (regs[1],), (regs[1],), "0")

    def test_apply_on_own_register(self):
        st, regs = two_proc_state()
        op = qcore.standard_basis_measurement([2])
        st2 = sysmodel.apply_local(st, "p0", op, (regs[0],), (regs[0],), "0")
        assert st2.quantum.trace == pytest.approx(1.0)

    def test_message_token_owns_its_registers_in_flight(self):
        """An operation on a message in flight is a local step of its token:
        the token may apply it, a processor, the receiver included, may not."""
        st, regs = two_proc_state()
        msg = MessageInstance(0, "p0", "p1", quantum_regs=(regs[0],))
        st = sysmodel.send(st, "p0", msg)
        op = qcore.standard_basis_measurement([2])
        for proc in ("p0", "p1"):
            with pytest.raises(sysmodel.LocalityViolation,
                               match=f"not owned by {proc} \\(owner: msg:0\\)"):
                sysmodel.apply_local(st, proc, op, (regs[0],), (regs[0],), "0")
        st2 = sysmodel.apply_local(st, "msg:0", op, (regs[0],), (regs[0],), "0")
        assert st2.quantum.trace == pytest.approx(1.0)
        # the register still belongs to the message, not to either processor
        assert st2.ownership[regs[0]] == "msg:0"
        assert st2.find_message(0) == msg


class TestStateEquality:
    def test_equal_after_roundtrip(self):
        st, regs = two_proc_state()
        msg = MessageInstance(0, "p0", "p1", quantum_regs=(regs[0],))
        st2 = sysmodel.receive(sysmodel.send(st, "p0", msg), "p1", "p0->p1", 0)
        assert not sysmodel.states_equal(st, st2, 1e-12)  # ownership moved
        assert sysmodel.states_equal(st2, st2, 0.0)

    def test_quantum_tolerance(self):
        st, _ = two_proc_state()
        bumped = dense(st.quantum).copy()
        bumped[0, 0] += 1e-13
        from dataclasses import replace
        st2 = replace(st, quantum=dense_state(st.quantum.space, bumped))
        assert sysmodel.states_equal(st, st2, 1e-12)
        assert not sysmodel.states_equal(st, st2, 1e-14)
