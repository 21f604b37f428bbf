"""Property-based checks of the algebraic invariants."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from qgosim import qcore, sysmodel
from qgosim.harness import traceio
from qgosim.qcore import DensityMatrix, RegisterId, RegisterMap, RegisterSpace

amplitudes = st.lists(
    st.tuples(st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)),
    min_size=2, max_size=8,
).filter(lambda xs: any(abs(a) + abs(b) > 1e-3 for a, b in xs))


def state_from(amps):
    n = max(1, int(np.ceil(np.log2(len(amps)))))
    vec = np.zeros(2 ** n, complex)
    for i, (a, b) in enumerate(amps):
        vec[i] = a + 1j * b
    vec /= np.linalg.norm(vec)
    regs = tuple(RegisterId(i, 2) for i in range(n))
    return DensityMatrix.from_vector(RegisterSpace(regs), vec)


@given(amplitudes)
@settings(max_examples=60, deadline=None)
def test_outcome_traces_sum_to_input_trace(amps):
    rho = state_from(amps)
    reg = rho.space.registers[0]
    meas = qcore.standard_basis_measurement([2])
    total = sum(
        qcore.apply_outcome(rho, meas, RegisterMap((reg,)), r).trace
        for r in meas.outcome_set
    )
    assert abs(total - rho.trace) < 1e-10


@given(amplitudes)
@settings(max_examples=60, deadline=None)
def test_partial_trace_preserves_trace(amps):
    rho = state_from(amps)
    if len(rho.space.registers) < 2:
        return
    reduced = qcore.partial_trace(rho, [rho.space.registers[-1]])
    assert abs(reduced.trace - rho.trace) < 1e-10


@given(amplitudes)
@settings(max_examples=60, deadline=None)
def test_canonical_form_idempotent_and_sorted(amps):
    rho = state_from(amps)
    once = qcore.canonical_form(rho)
    twice = qcore.canonical_form(once)
    assert list(once.space.registers) == sorted(once.space.registers,
                                                key=lambda r: r.id)
    assert once.space.registers == twice.space.registers
    assert np.array_equal(once.entries, twice.entries)


@given(st.dictionaries(st.text(max_size=5), st.integers(-5, 5), max_size=4))
@settings(max_examples=80, deadline=None)
def test_classical_encoding_is_stable(d):
    a = sysmodel.encode_classical(d)
    b = sysmodel.encode_classical(dict(reversed(list(d.items()))))
    assert a == b


@given(st.from_regex(r"[a-z]{1,4}", fullmatch=True),
       st.from_regex(r"[a-z]{1,4}", fullmatch=True))
def test_channel_key_roundtrip(src, dst):
    assert sysmodel.chan_endpoints(sysmodel.chan_key(src, dst)) == (src, dst)


# ---------------------------------------------------------------------------
# The local-contraction kernel against the Kronecker-product definition
# ---------------------------------------------------------------------------

def _oracle_apply(rho, op, regmap, outcome):
    """kron(K, I_rest) · ρ · kron(K, I_rest)† on the full basis: O(D³), kept
    here as the reference definition of ``apply_outcome``."""
    regs = list(rho.space.registers)
    dims = [r.dim for r in regs]

    def perm_of(dims, order):
        if not dims:
            return np.array([0])
        idx = np.arange(int(np.prod(dims))).reshape(dims)
        return np.transpose(idx, order).reshape(-1)

    positions = [regs.index(r) for r in regmap.in_regs]
    rest = [i for i in range(len(regs)) if i not in positions]
    perm = perm_of(dims, positions + rest)
    front = rho.entries[np.ix_(perm, perm)]
    rest_regs = [regs[i] for i in rest]
    eye = np.eye(int(np.prod([r.dim for r in rest_regs])))
    out = np.zeros((op.out_dim * len(eye),) * 2, dtype=complex)
    for k in op.kraus_by_outcome[outcome]:
        big = np.kron(k, eye)
        out = out + big @ front @ big.conj().T
    cur = list(regmap.out_regs) + rest_regs
    if regmap.out_regs == regmap.in_regs:
        order = [cur.index(r) for r in regs]
        perm = perm_of([r.dim for r in cur], order)
        return DensityMatrix(rho.space, out[np.ix_(perm, perm)])
    return DensityMatrix(RegisterSpace(tuple(cur)), out)


@st.composite
def kernel_cases(draw):
    """A random state on 1-4 registers of dimension 2 or 3, and a random
    multi-Kraus operation (an outcome may have no Kraus matrix at all) on
    registers at random positions in random slot order; the operation keeps,
    discards, reorders or grows its registers."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4))
    regs = tuple(RegisterId(10 + i, d) for i, d in enumerate(dims))
    order = draw(st.permutations(range(len(regs))))
    kind = draw(st.sampled_from(["same", "discard", "reorder", "grow"]))
    m = draw(st.integers(0 if kind == "grow" else 1, len(regs)))
    in_regs = tuple(regs[i] for i in order[:m])
    if kind == "same":
        out_regs = in_regs
    elif kind == "discard":
        out_regs = ()
    elif kind == "reorder":
        out_regs = in_regs[::-1]
    else:
        out_regs = in_regs + (RegisterId(99, draw(st.sampled_from([2, 3]))),)
    n_kraus = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    rho = DensityMatrix(RegisterSpace(regs), rho / np.trace(rho).real)
    in_dims = tuple(r.dim for r in in_regs)
    out_dims = tuple(r.dim for r in out_regs)
    din, dout = int(np.prod(in_dims)), int(np.prod(out_dims))
    outcomes = tuple(str(i) for i in range(len(n_kraus)))
    scale = 1 / np.sqrt(din * max(sum(n_kraus), 1))
    kraus = {
        r: tuple(scale * (rng.normal(size=(dout, din)) + 1j * rng.normal(size=(dout, din)))
                 for _ in range(c))
        for r, c in zip(outcomes, n_kraus)
    }
    op = qcore.QuantumOperation(outcomes, kraus, in_dims, out_dims)
    return rho, op, RegisterMap(in_regs, out_regs)


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
def test_apply_outcome_matches_kronecker_oracle(case):
    rho, op, regmap = case
    for r in op.outcome_set:
        got = qcore.apply_outcome(rho, op, regmap, r)
        want = _oracle_apply(rho, op, regmap, r)
        assert got.space.registers == want.space.registers
        assert np.allclose(got.entries, want.entries, atol=qcore.EPS_EXACT, rtol=0)


def test_apply_outcome_row_blocks_cover_every_row():
    """Every block size, including those that leave a partial last block in
    either index around the mapped register, gives the oracle's result."""
    regs = (RegisterId(0, 3), RegisterId(1, 2), RegisterId(2, 3))
    rng = np.random.default_rng(5)
    a = rng.normal(size=(18, 18)) + 1j * rng.normal(size=(18, 18))
    rho = DensityMatrix(RegisterSpace(regs), a @ a.conj().T / np.trace(a @ a.conj().T).real)
    kraus = tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
    op = qcore.QuantumOperation(("k",), {"k": kraus}, (2,), (2,))
    regmap = RegisterMap((regs[1],))
    want = _oracle_apply(rho, op, regmap, "k")
    for block_entries in range(1, 18 * 18 + 1):
        with mock.patch.object(qcore, "_BLOCK_ENTRIES", block_entries):
            got = qcore.apply_outcome(rho, op, regmap, "k")
        assert np.allclose(got.entries, want.entries, atol=qcore.EPS_EXACT, rtol=0)


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
def test_outcome_probabilities_are_outcome_traces(case):
    rho, op, regmap = case
    probs = qcore.outcome_probabilities(rho, op, regmap)
    assert probs.shape == (len(op.outcome_set),)
    for i, r in enumerate(op.outcome_set):
        assert abs(probs[i] - qcore.apply_outcome(rho, op, regmap, r).trace) \
            < qcore.EPS_EXACT


# ---------------------------------------------------------------------------
# The zero-aware matrix codec against the per-entry comprehensions
# ---------------------------------------------------------------------------

def _oracle_matrix(m):
    return [[traceio._c(z) for z in row] for row in m]


def _oracle_parse_matrix(rows):
    return np.array([[traceio._parse_c(s) for s in row] for row in rows],
                    dtype=np.complex128)


_SPECIAL = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
            5e-324, -5e-324, 1.1125369292536007e-308, 1.0, -1.0]
_parts = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True))


@st.composite
def codec_matrices(draw):
    """Matrices of 0x0 to 5x5, some as transposed or sliced views."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    view = draw(st.sampled_from(["plain", "transposed", "sliced", "reversed"]))
    shape = {"plain": (r, c), "transposed": (c, r), "sliced": (2 * r, 2 * c),
             "reversed": (r, c)}[view]
    n = shape[0] * shape[1]
    z = draw(st.lists(st.builds(complex, _parts, _parts), min_size=n, max_size=n))
    base = np.array(z, dtype=np.complex128).reshape(shape)
    return {"plain": base, "transposed": base.T, "sliced": base[::2, 1::2],
            "reversed": base[::-1, ::-1]}[view]


@given(codec_matrices())
@settings(max_examples=200, deadline=None)
def test_matrix_codec_matches_per_entry_oracle(m):
    rows = traceio._matrix(m)
    assert rows == _oracle_matrix(m)
    got = traceio._parse_matrix(rows)
    # a matrix with no rows is written as [], whatever its width
    assert got.shape == (m.shape if m.shape[0] else (0, 0))
    want = _oracle_parse_matrix(rows).reshape(got.shape)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
