import numpy as np
import pytest

from qgosim import qcore
from qgosim.qcore import (
    NO_OUTCOME,
    BadOutcome,
    DensityMatrix,
    IdCollision,
    RegisterAllocator,
    RegisterId,
    RegisterMap,
    RegisterSpace,
    UnknownRegister,
    apply_outcome,
    canonical_form,
    draw_outcome,
    partial_trace,
    standard_basis_measurement,
    tensor_product,
    unitary_channel,
)


def qubits(n, start=0):
    return tuple(RegisterId(start + i, 2) for i in range(n))


def epr_state(regs=None):
    regs = regs or qubits(2)
    space = RegisterSpace(regs)
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix.from_vector(space, v)


def random_state(space, rng):
    d = space.total_dim
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T
    return DensityMatrix(space, m / np.trace(m))


def partial_trace_oracle(mat, dims, keep):
    """Direct index-loop partial trace, independent of the library path."""
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    keep_dim = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((keep_dim, keep_dim), dtype=complex)

    def digits(flat):
        ds = []
        for d in reversed(dims):
            ds.append(flat % d)
            flat //= d
        return list(reversed(ds))

    def flat_of(ds, axes):
        f = 0
        for i in axes:
            f = f * dims[i] + ds[i]
        return f

    full = int(np.prod(dims))
    for row in range(full):
        for col in range(full):
            dr, dc = digits(row), digits(col)
            if all(dr[i] == dc[i] for i in traced):
                out[flat_of(dr, keep), flat_of(dc, keep)] += mat[row, col]
    return out


class TestTensorProduct:
    def test_identity_case(self):
        a = DensityMatrix(RegisterSpace(qubits(1)), np.eye(2) / 2)
        b = DensityMatrix(RegisterSpace(qubits(1, start=1)), np.eye(2) / 2)
        out = tensor_product(a, b)
        assert np.allclose(out.entries, np.eye(4) / 4)

    def test_basis_projectors(self):
        s0 = RegisterSpace(qubits(1))
        s1 = RegisterSpace(qubits(1, start=1))
        a = DensityMatrix.basis_state(s0, 0)
        b = DensityMatrix.basis_state(s1, 1)
        out = tensor_product(a, b)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1
        assert np.allclose(out.entries, expected)

    def test_epr_corners(self):
        rho = epr_state()
        expected = np.zeros((4, 4))
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            expected[i, j] = 0.5
        assert np.allclose(rho.entries, expected)

    def test_id_collision(self):
        a = DensityMatrix(RegisterSpace(qubits(1)), np.eye(2) / 2)
        with pytest.raises(IdCollision):
            tensor_product(a, a)


class TestPartialTrace:
    def test_epr_reduced(self):
        rho = epr_state()
        out = partial_trace(rho, [rho.space.registers[1]])
        assert np.allclose(out.entries, np.eye(2) / 2, atol=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(1)
        a = random_state(RegisterSpace(qubits(1)), rng)
        b = random_state(RegisterSpace(qubits(1, start=1)), rng)
        joint = tensor_product(a, b)
        out = partial_trace(joint, b.space.registers)
        assert np.allclose(out.entries, a.entries * b.trace, atol=1e-12)

    def test_random_three_qubit_against_oracle(self):
        rng = np.random.default_rng(7)
        space = RegisterSpace(qubits(3))
        rho = random_state(space, rng)
        out = partial_trace(rho, [space.registers[1]])
        expected = partial_trace_oracle(rho.entries, [2, 2, 2], keep=[0, 2])
        assert np.allclose(out.entries, expected, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        space = RegisterSpace(qubits(3))
        rho = random_state(space, rng)
        out = partial_trace(rho, [space.registers[0], space.registers[2]])
        assert abs(out.trace - rho.trace) < 1e-12

    def test_unknown_register(self):
        rho = epr_state()
        with pytest.raises(UnknownRegister):
            partial_trace(rho, [RegisterId(99, 2)])


class TestApplyOutcome:
    def test_epr_measurement_outcome_zero(self):
        rho = epr_state()
        meas = standard_basis_measurement([2])
        regmap = RegisterMap((rho.space.registers[0],))
        out = apply_outcome(rho, meas, regmap, "0")
        expected = np.zeros((4, 4))
        expected[0, 0] = 0.5
        assert np.allclose(out.entries, expected, atol=1e-12)
        assert abs(out.trace - 0.5) < 1e-12

    def test_identity_leaves_state(self):
        rng = np.random.default_rng(5)
        space = RegisterSpace(qubits(2))
        rho = random_state(space, rng)
        out = apply_outcome(
            rho,
            qcore.identity_operation((2,)),
            RegisterMap((space.registers[1],)),
            NO_OUTCOME,
        )
        assert np.allclose(out.entries, rho.entries, atol=1e-12)

    def test_outcome_traces_sum_to_state_trace(self):
        rng = np.random.default_rng(11)
        space = RegisterSpace(qubits(2))
        rho = random_state(space, rng)
        meas = standard_basis_measurement([2, 2])
        regmap = RegisterMap(space.registers)
        total = sum(
            apply_outcome(rho, meas, regmap, r).trace for r in meas.outcome_set
        )
        assert abs(total - rho.trace) < 1e-12

    def test_psd_preserved(self):
        rng = np.random.default_rng(13)
        space = RegisterSpace(qubits(2))
        rho = random_state(space, rng)
        meas = standard_basis_measurement([2])
        out = apply_outcome(rho, meas, RegisterMap((space.registers[0],)), "1")
        evals = np.linalg.eigvalsh(out.entries)
        assert evals.min() >= -1e-9

    def test_bad_outcome(self):
        rho = epr_state()
        meas = standard_basis_measurement([2])
        with pytest.raises(BadOutcome):
            apply_outcome(rho, meas, RegisterMap((rho.space.registers[0],)), "7")

    def test_dim_mismatch(self):
        rho = epr_state()
        meas = standard_basis_measurement([2, 2])
        with pytest.raises(qcore.ShapeError):
            apply_outcome(rho, meas, RegisterMap((rho.space.registers[0],)), "00")

    def test_shrinking_operation(self):
        # Trace-out expressed as an operation with fewer output slots.
        rng = np.random.default_rng(17)
        space = RegisterSpace(qubits(2))
        rho = random_state(space, rng)
        bra0 = np.array([[1, 0]], dtype=complex)
        bra1 = np.array([[0, 1]], dtype=complex)
        discard = qcore.QuantumOperation(
            (NO_OUTCOME,), {NO_OUTCOME: (bra0, bra1)}, (2,), ()
        )
        regmap = RegisterMap((space.registers[0],), ())
        out = apply_outcome(rho, discard, regmap, NO_OUTCOME)
        expected = partial_trace(rho, [space.registers[0]])
        assert np.allclose(out.entries, expected.entries, atol=1e-12)

    def test_disjoint_operations_commute(self):
        # 500 random pairs on disjoint registers, both orders equal.
        rng = np.random.default_rng(23)
        space = RegisterSpace(qubits(4))
        meas = standard_basis_measurement([2])
        for _ in range(50):
            rho = random_state(space, rng)
            m_a = RegisterMap((space.registers[0],))
            m_b = RegisterMap((space.registers[2],))
            ra = str(rng.integers(2))
            rb = str(rng.integers(2))
            ab = apply_outcome(apply_outcome(rho, meas, m_a, ra), meas, m_b, rb)
            ba = apply_outcome(apply_outcome(rho, meas, m_b, rb), meas, m_a, ra)
            assert np.allclose(ab.entries, ba.entries, atol=1e-12)


class TestSampleOutcome:
    def test_epr_frequency(self):
        rho = epr_state()
        meas = standard_basis_measurement([2])
        regmap = RegisterMap((rho.space.registers[0],))
        rng = np.random.default_rng(42)
        zeros = sum(
            draw_outcome(rho, meas, regmap, rng) == "0" for _ in range(10000)
        )
        assert 0.48 <= zeros / 10000 <= 0.52

    def test_single_outcome(self):
        rho = epr_state()
        op = qcore.identity_operation((2,))
        regmap = RegisterMap((rho.space.registers[0],))
        r = draw_outcome(rho, op, regmap, np.random.default_rng(0))
        assert r == NO_OUTCOME
        out = apply_outcome(rho, op, regmap, r)
        assert np.allclose(out.entries, rho.entries)

    def test_seed_determinism(self):
        rho = epr_state()
        meas = standard_basis_measurement([2])
        regmap = RegisterMap((rho.space.registers[0],))

        def run():
            rng = np.random.default_rng(777)
            return [draw_outcome(rho, meas, regmap, rng) for _ in range(50)]

        assert run() == run()


def trace_preserving(op, eps=qcore.EPS_VALIDATE) -> bool:
    """Σ K†K over every outcome is the identity within ``eps``; complete
    positivity holds by construction of the Kraus form."""
    acc = sum(k.conj().T @ k for r in op.outcome_set for k in op.kraus_by_outcome[r])
    return float(np.abs(acc - np.eye(op.in_dim)).max()) <= eps


class TestValidateOperation:
    def test_measurement_valid(self):
        assert trace_preserving(standard_basis_measurement([2]))

    def test_half_resolution_invalid(self):
        meas = standard_basis_measurement([2])
        half = qcore.QuantumOperation(
            ("0",), {"0": meas.kraus_by_outcome["0"]}, (2,), (2,)
        )
        assert not trace_preserving(half)

    def test_random_unitary_channel(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(a)
        assert np.allclose(q.conj().T @ q, np.eye(4), atol=1e-12)
        assert trace_preserving(unitary_channel(q, (2, 2)))

    def test_pauli_pad_valid(self):
        assert trace_preserving(qcore.pauli_pad_operation(2))


class TestValidateState:
    SPACE = RegisterSpace((RegisterId(0, 2), RegisterId(1, 2)))

    def state(self, diag):
        # the diagonal, rotated by a random unitary
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)) + 0j)
        return DensityMatrix(self.SPACE, q @ np.diag(diag) @ q.conj().T)

    def test_states_within_tolerance_pass(self):
        epr_state().validate()
        self.state([0.5, 0.5, 0.0, 0.0]).validate()
        self.state([0.5, 0.5, -0.5e-9, 0.0]).validate()
        DensityMatrix(self.SPACE, np.zeros((4, 4))).validate()

    @pytest.mark.parametrize("diag, message", [
        ([2.0, -1.0, 0.0, 0.0], r"eigenvalue -(0\.99|1)"),
        ([0.5, 0.5, -2e-9, 0.0], r"eigenvalue -(1\.99|2)"),
        ([0.75, 0.75, 0.0, 0.0], r"trace 1\.(49|5)"),
    ])
    def test_indefinite_or_overfull_state_rejected(self, diag, message):
        with pytest.raises(qcore.ShapeError, match=message):
            self.state(diag).validate()

    @pytest.mark.parametrize("entry, message", [
        (0.1j, "not Hermitian"),
        (np.inf, "not finite"),
        (np.nan, "not finite"),
    ])
    def test_bad_entry_rejected(self, entry, message):
        a = np.diag([0.5, 0.5, 0, 0]).astype(complex)
        a[0, 1] = a[1, 0] = entry
        with pytest.raises(qcore.ShapeError, match=message):
            DensityMatrix(self.SPACE, a).validate()


class TestCanonicalForm:
    def test_sorted_space_unchanged(self):
        rho = epr_state()
        out = canonical_form(rho)
        assert out.space == rho.space
        assert np.array_equal(out.entries, rho.entries)

    def test_swap_conjugates(self):
        space = RegisterSpace((RegisterId(1, 2), RegisterId(0, 2)))
        v = np.array([0, 1, 0, 0], dtype=complex)  # |0>_1 |1>_0
        rho = DensityMatrix.from_vector(space, v)
        out = canonical_form(rho)
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert np.allclose(out.entries, swap @ rho.entries @ swap)

    def test_tensor_order_irrelevant(self):
        # Brute-force permutation oracle on small dims.
        rng = np.random.default_rng(31)
        a = random_state(RegisterSpace((RegisterId(0, 2), RegisterId(2, 3))), rng)
        b = random_state(RegisterSpace((RegisterId(1, 2),)), rng)
        ab = canonical_form(tensor_product(a, b))
        ba = canonical_form(tensor_product(b, a))
        assert ab.space == ba.space
        assert np.allclose(ab.entries, ba.entries, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(37)
        space = RegisterSpace((RegisterId(5, 2), RegisterId(1, 2), RegisterId(3, 2)))
        rho = random_state(space, rng)
        once = canonical_form(rho)
        twice = canonical_form(once)
        assert np.array_equal(once.entries, twice.entries)


class TestSpaceInvariants:
    def test_allocator_monotonic(self):
        alloc = RegisterAllocator()
        a = alloc.fresh(2)
        b = alloc.fresh(3)
        assert b.id > a.id

    def test_duplicate_ids_rejected(self):
        with pytest.raises(IdCollision):
            RegisterSpace((RegisterId(0, 2), RegisterId(0, 2)))

    def test_dim_cap(self, monkeypatch):
        monkeypatch.setenv("QGO_DIM_CAP", "4")
        with pytest.raises(qcore.CapacityError):
            RegisterSpace(qubits(3))
