import numpy as np
import pytest

from qgosim import qcore, sysmodel
from qgosim.qcore import DensityMatrix, RegisterAllocator, RegisterSpace
from qgosim.sysmodel import MessageInstance, chan_key


def two_proc_state(n_qubits_each=1):
    alloc = RegisterAllocator()
    regs, ownership = [], {}
    for p in ("p0", "p1"):
        for _ in range(n_qubits_each):
            r = alloc.fresh(2)
            regs.append(r)
            ownership[r] = p
    quantum = DensityMatrix.basis_state(RegisterSpace(tuple(regs)))
    return sysmodel.initial_state(
        ("p0", "p1"),
        {"p0": {"inbox": []}, "p1": {"inbox": []}},
        quantum,
        ownership,
    ), regs


class TestChannels:
    def test_all_channels_include_self(self):
        chans = sysmodel.all_channels(("a", "b"))
        assert set(chans) == {"a->a", "a->b", "b->a", "b->b"}

    def test_endpoints_roundtrip(self):
        assert sysmodel.chan_endpoints(chan_key("p0", "p1")) == ("p0", "p1")


class TestSendReceive:
    def test_send_moves_ownership_not_entries(self):
        st, regs = two_proc_state()
        msg = MessageInstance(0, "p0", "p1", classical={"x": 1}, quantum_regs=(regs[0],))
        st2 = sysmodel.send(st, "p0", msg)
        assert st2.ownership[regs[0]] == "msg:0"
        assert np.array_equal(st2.quantum.entries, st.quantum.entries)
        assert st2.channels["p0->p1"][0].msg_id == 0
        st2.check_ownership_partition()

    def test_receive_delivers_to_inbox(self):
        st, regs = two_proc_state()
        msg = MessageInstance(0, "p0", "p1", classical={"x": 1}, quantum_regs=(regs[0],))
        st2 = sysmodel.send(st, "p0", msg)
        st3, got = sysmodel.receive(st2, "p1", "p0->p1", 0)
        assert st3.ownership[regs[0]] == "p1"
        assert st3.classical["p1"]["inbox"] == [["p0->p1", {"x": 1}]]
        assert st3.channels["p0->p1"] == ()
        assert got.msg_id == 0

    def test_fifo_order(self):
        st, _ = two_proc_state()
        for i in range(3):
            st = sysmodel.send(st, "p0", MessageInstance(i, "p0", "p1", classical=i))
        order = []
        for _ in range(3):
            st, m = sysmodel.receive(st, "p1", "p0->p1", len(order))
            order.append(m.msg_id)
        assert order == [0, 1, 2]

    def test_send_unowned_register_rejected(self):
        st, regs = two_proc_state()
        bad = MessageInstance(0, "p0", "p1", quantum_regs=(regs[1],))  # p1's register
        with pytest.raises(sysmodel.OwnershipViolation):
            sysmodel.send(st, "p0", bad)

    def test_send_with_pending_outcome_rejected(self):
        st, _ = two_proc_state()
        with pytest.raises(sysmodel.SysmodelError):
            sysmodel.send(st, "p0", MessageInstance(0, "p0", "p1", pending="0"))

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
        st2, _ = sysmodel.receive(st, "p1", "p0->p1", 0)
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

    def test_in_flight_apply_parks_outcome(self):
        st, regs = two_proc_state()
        msg = MessageInstance(0, "p0", "p1", quantum_regs=(regs[0],))
        st = sysmodel.send(st, "p0", msg)
        op = qcore.standard_basis_measurement([2])
        st2 = sysmodel.apply_local(st, "p1", op, (regs[0],), (regs[0],), "0",
                                   in_flight=st.find_message(0))
        assert st2.find_message(0).pending == "0"
        # the register still belongs to the message, not to either processor
        assert st2.ownership[regs[0]] == "msg:0"


class TestStateEquality:
    def test_equal_after_roundtrip(self):
        st, regs = two_proc_state()
        msg = MessageInstance(0, "p0", "p1", quantum_regs=(regs[0],))
        st2, _ = sysmodel.receive(sysmodel.send(st, "p0", msg), "p1", "p0->p1", 0)
        assert not sysmodel.states_equal(st, st2, 1e-12)  # ownership moved
        assert sysmodel.states_equal(st2, st2, 0.0)

    def test_quantum_tolerance(self):
        st, _ = two_proc_state()
        bumped = st.quantum.entries.copy()
        bumped[0, 0] += 1e-13
        from dataclasses import replace
        st2 = replace(st, quantum=DensityMatrix(st.quantum.space, bumped))
        assert sysmodel.states_equal(st, st2, 1e-12)
        assert not sysmodel.states_equal(st, st2, 1e-14)
