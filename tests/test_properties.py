"""Property-based checks of the algebraic invariants."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from qgosim import qcore, sysmodel
from qgosim.harness import traceio
from qgosim.qcore import DensityMatrix, RegisterId, RegisterSpace

from dense import dense, dense_state

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
        qcore.apply_outcome(rho, meas, (reg,), (reg,), r).trace
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
    assert np.array_equal(dense(once), dense(twice))


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

def _oracle_apply(rho, op, in_regs, out_regs, outcome):
    """kron(K, I_rest) · ρ · kron(K, I_rest)† on the full basis: O(D³), kept
    here as the reference definition of ``apply_outcome``.  Returns the
    space and the matrix, not a state: arbitrary Kraus lists can give a
    trace above 1, which a state made from its rows refuses."""
    regs = list(rho.space.registers)
    dims = [r.dim for r in regs]

    def perm_of(dims, order):
        if not dims:
            return np.array([0])
        idx = np.arange(int(np.prod(dims))).reshape(dims)
        return np.transpose(idx, order).reshape(-1)

    positions = [regs.index(r) for r in in_regs]
    rest = [i for i in range(len(regs)) if i not in positions]
    perm = perm_of(dims, positions + rest)
    front = dense(rho)[np.ix_(perm, perm)]
    rest_regs = [regs[i] for i in rest]
    eye = np.eye(int(np.prod([r.dim for r in rest_regs])))
    out = np.zeros((op.out_dim * len(eye),) * 2, dtype=complex)
    for k in op.kraus_by_outcome[outcome]:
        big = np.kron(k, eye)
        out = out + big @ front @ big.conj().T
    cur = list(out_regs) + rest_regs
    if out_regs == in_regs:
        order = [cur.index(r) for r in regs]
        perm = perm_of([r.dim for r in cur], order)
        return rho.space, out[np.ix_(perm, perm)]
    return RegisterSpace(tuple(cur)), out


@st.composite
def kernel_cases(draw):
    """A random state of random rank on 1-4 registers of dimension 2 or 3
    (ids in random order), built from its rows or from a factor, and a
    random multi-Kraus operation (an outcome may have no Kraus matrix at all) on
    registers at random positions in random slot order; the operation keeps,
    discards, reorders or grows its registers."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4))
    ids = draw(st.permutations(range(len(dims))))
    regs = tuple(RegisterId(10 + i, d) for i, d in zip(ids, dims))
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
    rank = draw(st.integers(1, d))
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    a /= np.linalg.norm(a)
    if draw(st.booleans()):
        rho = dense_state(RegisterSpace(regs), a @ a.conj().T)
    else:
        rho = DensityMatrix(RegisterSpace(regs), factor=a)
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
    return rho, op, in_regs, out_regs


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
def test_apply_outcome_matches_kronecker_oracle(case):
    rho, op, *regs = case
    for r in op.outcome_set:
        got = qcore.apply_outcome(rho, op, *regs, r)
        space, want = _oracle_apply(rho, op, *regs, r)
        assert got.space.registers == space.registers
        assert np.allclose(dense(got), want, atol=qcore.EPS_EXACT, rtol=0)


def test_row_blocks_cover_every_row():
    """Every block size, including those that leave a partial last block,
    gives the dense results: the factorization's residual and both
    branches of ``states_close``.  Each check below fails if the last row
    block is skipped."""
    space = RegisterSpace((RegisterId(0, 3), RegisterId(1, 2), RegisterId(2, 3)))
    rng = np.random.default_rng(5)
    v = rng.normal(size=(18, 2)) + 1j * rng.normal(size=(18, 2))
    v /= np.linalg.norm(v)
    m = v @ v.conj().T
    # Pivoted Cholesky never pivots on a negative diagonal entry, so the
    # residual of this one is nonzero at [17, 17] only.
    indefinite = m.copy()
    indefinite[17, 17] -= 0.5
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    far = v.copy()
    far[17, 1] += 10  # the largest change is at ρ[17, 17]
    gap = np.abs(m - far @ far.conj().T).max()
    a = DensityMatrix(space, factor=v)
    # one more column than ``a``, so only the exact branch can compare them
    b = DensityMatrix(space, factor=np.concatenate([far, far[:, :1] * 0], axis=1))
    for block_entries in range(1, 18 * 18 + 1):
        with mock.patch.object(qcore, "_BLOCK_ENTRIES", block_entries):
            f, bound = qcore._factorize(m, np.arange(18))
            assert np.abs(f @ f.conj().T - m).max() <= qcore.EPS_EXACT
            assert -qcore.EPS_EXACT <= bound <= 0
            assert qcore._factorize(indefinite, np.arange(18))[1] < -0.1
            assert qcore.states_close(a, DensityMatrix(space, factor=v @ u), qcore.EPS_EXACT)
            assert qcore.states_close(a, b, 2 * gap)
            assert not qcore.states_close(a, b, gap / 2)


# ---------------------------------------------------------------------------
# The row-aware state check against the dense one it replaced
# ---------------------------------------------------------------------------

def _dense_factorize(m, eps):
    """Pivoted Cholesky over every row and column of ``m``, with the residual
    formed as one D×D matrix: the dense ``qcore._factorize``."""
    d = m.shape[0]
    diag = m.diagonal().real.copy()
    stop = d * np.finfo(float).eps * max(diag.max(), 0.0)
    cols = []
    for _ in range(d):
        j = int(diag.argmax())
        if not diag[j] > stop:
            break
        col = m[:, j].copy()
        if cols:
            done = np.array(cols).T
            col -= done @ done[j].conj()
        col /= np.sqrt(diag[j])
        diag -= np.abs(col) ** 2
        cols.append(col)
    v = np.array(cols, dtype=np.complex128).T.reshape(d, len(cols))
    residual = np.sqrt(float(np.sum(np.abs(m - v @ v.conj().T) ** 2)))
    if residual <= eps:
        return v, -residual
    w, u = np.linalg.eigh(m)
    keep = w > 0
    return u[:, keep] * np.sqrt(w[keep]), float(w.min())


def _dense_validate(m, eps=qcore.EPS_VALIDATE):
    """The dense checks of ``DensityMatrix.from_rows``: O(D²) work and D×D
    temporaries on every matrix.  Returns the factor or raises its
    ``ShapeError``."""
    if not np.isfinite(m).all():
        raise qcore.ShapeError("matrix has an entry that is not finite")
    if np.abs(m - m.conj().T).max() > eps:
        raise qcore.ShapeError("matrix is not Hermitian within tolerance")
    v, lowest = _dense_factorize(m, eps)
    if lowest < -eps:
        raise qcore.ShapeError(f"matrix has eigenvalue {lowest} below -{eps}")
    trace = float(np.real(np.trace(m)))
    if not (-eps <= trace <= 1 + eps):
        raise qcore.ShapeError(f"trace {trace} outside [0, 1]")
    return v


_ROW_CASES = ["psd", "non-hermitian", "non-finite", "negative-zero",
              "negative-eigenvalue", "trace-above-1", "zero", "coupled-zero-rows"]


@st.composite
def matrices_with_zero_rows(draw):
    """A D×D matrix (D ≤ 24) that is a random PSD matrix of trace 1 on the
    rows and columns of a random set R (empty, some or all rows) and zero
    elsewhere, edited by one of ``_ROW_CASES``: an entry off Hermitian in a
    zero row's column, a NaN or inf in a zero row, zero rows of -0.0, a
    negative eigenvalue, a trace above 1, every entry zero, or one row that
    only a residual over its full width refuses: Hermitian within
    EPS_VALIDATE, PSD on its own diagonal entry, and indefinite through its
    entries in zero rows' columns."""
    d = draw(st.integers(1, 24))
    rows = sorted(draw(st.sets(st.integers(0, d - 1))))
    zero = [i for i in range(d) if i not in rows]
    case = draw(st.sampled_from(_ROW_CASES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = np.zeros((d, d), dtype=np.complex128)
    if rows and case != "zero":
        a = rng.normal(size=(len(rows), draw(st.integers(1, len(rows))))) * (1 + 0j)
        a += 1j * rng.normal(size=a.shape)
        a /= np.linalg.norm(a)
        m[np.ix_(rows, rows)] = a @ a.conj().T
    if case == "non-hermitian" and zero:
        # above EPS_VALIDATE it is refused; below EPS_EXACT it is accepted
        m[draw(st.integers(0, d - 1)), draw(st.sampled_from(zero))] = draw(
            st.sampled_from([1.0, 1e-6j, -1e-13, 1e-13j]))
    elif case == "non-finite" and zero:
        z = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        m[draw(st.sampled_from(zero)), draw(st.integers(0, d - 1))] = (
            complex(z, 0) if draw(st.booleans()) else complex(0, z))
    elif case == "negative-zero":
        for i in zero:
            m[i] = draw(st.sampled_from([complex(-0.0, 0.0), complex(0.0, -0.0),
                                         complex(-0.0, -0.0)]))
    elif case == "negative-eigenvalue" and rows:
        e = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
        e /= np.linalg.norm(e)
        m[np.ix_(rows, rows)] -= draw(st.sampled_from([0.5, 2.0])) * np.outer(e, e.conj())
    elif case == "trace-above-1":
        m *= draw(st.sampled_from([1 + 1e-8, 1.5, 10.0]))
    elif case == "coupled-zero-rows" and d >= 5:
        # eigh reads the lower triangle: its lowest eigenvalue is about -1.8e-9
        m[:] = 0
        m[d - 1, d - 1] = 1e-12
        m[d - 1, :4] = 0.9 * qcore.EPS_VALIDATE
    return m


def _verdict(check, m):
    try:
        return check(m), None
    except qcore.ShapeError as exc:
        return None, str(exc)


@given(matrices_with_zero_rows())
@settings(max_examples=200, deadline=None)
def test_row_aware_validate_matches_dense_oracle(m):
    """``from_rows`` on the nonzero rows gives the dense verdict and message;
    an accepted state's factor keeps ``m`` to EPS_EXACT, zero rows and all."""
    space = RegisterSpace((RegisterId(0, m.shape[0]),))

    def row_aware(m):
        return dense_state(space, m).factor

    (v, got), (want_v, want) = _verdict(row_aware, m.copy()), _verdict(_dense_validate, m)
    assert got == want
    if want is None:
        assert v.shape[0] == m.shape[0] and v.shape[1] <= m.shape[0]
        assert np.abs(v @ v.conj().T - m).max(initial=0.0) <= qcore.EPS_EXACT
        assert np.abs(v @ v.conj().T - want_v @ want_v.conj().T).max(
            initial=0.0) <= qcore.EPS_EXACT


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
def test_outcome_probabilities_are_outcome_traces(case):
    rho, op, *regs = case
    probs = qcore.outcome_probabilities(rho, op, *regs)
    assert probs.shape == (len(op.outcome_set),)
    for i, r in enumerate(op.outcome_set):
        assert abs(probs[i] - qcore.apply_outcome(rho, op, *regs, r).trace) \
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
    """Matrices of 0x0 to 64x64, some as transposed or sliced views.  A row
    of the drawn matrix is all +0 (the shared zero row), all -0.0 (which
    must still be written "-0,0"), or drawn: every entry when the matrix
    is at most 5 wide, else a few drawn entries among +0."""
    r, c = draw(st.integers(0, 64)), draw(st.integers(0, 64))
    view = draw(st.sampled_from(["plain", "transposed", "sliced", "reversed"]))
    if view == "sliced":
        r, c = r // 2, c // 2
    shape = {"plain": (r, c), "transposed": (c, r), "sliced": (2 * r, 2 * c),
             "reversed": (r, c)}[view]
    entries = st.builds(complex, _parts, _parts)
    base = np.zeros(shape, dtype=np.complex128)
    for i in range(shape[0]):
        kind = draw(st.sampled_from(["zero", "negative-zero", "drawn", "drawn"]))
        if kind == "negative-zero":
            base[i] = complex(-0.0, 0.0)
        elif kind == "drawn" and shape[1] <= 5:
            base[i] = draw(st.lists(entries, min_size=shape[1], max_size=shape[1]))
        elif kind == "drawn":
            for j in draw(st.lists(st.integers(0, shape[1] - 1), max_size=4)):
                base[i, j] = draw(entries)
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


# ---------------------------------------------------------------------------
# A state's trace rows, read as distinct rows, against the block path
# ---------------------------------------------------------------------------

def _block_path_rows(v):
    """The ``qrow`` rows of a rank-1 factor ``v`` as they were written
    before distinct rows: every row of V·V†, a block of
    ``_BLOCK_ENTRIES`` entries at a time (the rank-1 ``_gram``), each block
    through ``_matrix``."""
    step = max(1, qcore._BLOCK_ENTRIES // len(v))
    return [row for lo in range(0, len(v), step)
            for row in traceio._matrix(np.multiply.outer(v[lo:lo + step], v.conj()))]


_ROW_PARTS = [0.0, -0.0, 1e-300, -1e-300, float("nan"), -float("nan"), 0.5]


@st.composite
def rank1_factors(draw):
    """A vector of D = 1..64 entries drawn from a pool of at most four, so
    that rows repeat, with signed zero, tiny and NaN parts; and a block size
    that may split its rows."""
    parts = st.one_of(st.sampled_from(_ROW_PARTS), st.floats(-2, 2))
    entries = st.builds(complex, parts, parts)
    pool = draw(st.lists(entries, min_size=1, max_size=4))
    d = draw(st.integers(1, 64))
    v = np.array(draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d)),
                 dtype=np.complex128)
    return v, draw(st.integers(1, d * d))


@given(rank1_factors())
@settings(max_examples=200, deadline=None)
def test_state_rows_match_the_block_path(case):
    v, block_entries = case
    space = RegisterSpace((RegisterId(0, len(v)),))
    rho = DensityMatrix.from_vector(space, v)
    state = sysmodel.initial_state(("p0",), {"p0": {}}, rho, {space.registers[0]: "p0"})
    with mock.patch.object(qcore, "_BLOCK_ENTRIES", block_entries):
        rows = [d["v"] for d in traceio.encode_state(state) if d["t"] == "qrow"]
        assert rows == _block_path_rows(v)
        assert traceio._matrix(dense(rho)) == rows


# ---------------------------------------------------------------------------
# The factored state against the dense kernel it replaced
# ---------------------------------------------------------------------------

def _dense_permute(mat, dims, order):
    n = len(dims)
    order = list(order)
    if order == list(range(n)):
        return mat
    d = mat.shape[0]
    return mat.reshape(tuple(dims) * 2).transpose(order + [n + i for i in order]).reshape(d, d)


def _dense_reduced(rho, regs):
    """The reduced state on ``regs``, in their order, from the D×D entries."""
    dims = rho.space.dims
    slot = {rho.space.registers.index(r): j for j, r in enumerate(regs)}
    n = len(dims)
    cols = [n + i if i in slot else i for i in range(n)]
    keep = [i for _, i in sorted((slot[i], i) for i in slot)]
    d = int(np.prod([r.dim for r in regs]))
    t = dense(rho).reshape(list(dims) * 2)
    return np.einsum(t, list(range(n)) + cols, keep + [n + i for i in keep]).reshape(d, d)


def _dense_apply(rho, op, in_regs, out_regs, outcome):
    """The D×D local-contraction kernel: each Kraus matrix K contracts the
    middle factor of a (p, d_in, s) split of the row index, and K̄ the
    matching factor of the column index; returns (registers, entries)."""
    regs, dims = rho.space.registers, rho.space.dims
    pos = [regs.index(r) for r in in_regs]
    slots = sorted(range(len(pos)), key=pos.__getitem__)
    first = pos[slots[0]] if pos else 0
    before = [i for i in range(first) if i not in pos]
    after = [i for i in range(first, len(regs)) if i not in pos]
    mat = _dense_permute(dense(rho), dims, before + sorted(pos) + after)
    same = out_regs == in_regs
    out_slots = slots if same else list(range(len(op.out_dims)))
    axes = out_slots + [len(op.out_dims) + j for j in slots]
    p = int(np.prod([dims[i] for i in before]))
    s = int(np.prod([dims[i] for i in after]))
    d, din, dout = mat.shape[0], op.in_dim, op.out_dim
    d_new = p * dout * s
    out = np.zeros((p, dout, s, d_new), dtype=complex)
    for k in op.kraus_by_outcome[outcome]:
        k = k.reshape(op.out_dims + op.in_dims).transpose(axes).reshape(dout, din)
        rows = np.matmul(k, mat.reshape(p, din, s * d)).reshape(p * dout * s, d)
        out += np.matmul(k.conj(), rows.reshape(-1, din, s)).reshape(p, dout, s, d_new)
    cur = ([regs[i] for i in before] + [out_regs[j] for j in out_slots]
           + [regs[i] for i in after])
    target = list(regs) if same else list(out_regs) + [regs[i] for i in before + after]
    out = _dense_permute(out.reshape(d_new, d_new), [r.dim for r in cur],
                         [cur.index(r) for r in target])
    return tuple(target), out


def _system(rho):
    return sysmodel.initial_state(("p0",), {"p0": {"inbox": []}}, rho,
                                  {r: "p0" for r in rho.space.registers})


def _close(a, b):
    return np.abs(a - b).max() <= qcore.EPS_EXACT


@given(kernel_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_factored_state_matches_dense_kernel(case, data):
    """apply_outcome, outcome_probabilities, canonical_form, partial_trace
    and the states_equal verdicts agree with the dense kernel at EPS_EXACT."""
    rho, op, in_regs, out_regs = case
    probs = qcore.outcome_probabilities(rho, op, in_regs, out_regs)
    rho_a = _dense_reduced(rho, in_regs)
    for i, r in enumerate(op.outcome_set):
        want = sum((float(np.vdot(k, k @ rho_a).real) for k in op.kraus_by_outcome[r]), 0.0)
        assert abs(probs[i] - max(want, 0.0)) <= qcore.EPS_EXACT
        got = qcore.apply_outcome(rho, op, in_regs, out_regs, r)
        regs, entries = _dense_apply(rho, op, in_regs, out_regs, r)
        assert got.space.registers == regs
        assert got.factor.shape[1] <= got.space.total_dim
        assert _close(dense(got), entries)

    canon = qcore.canonical_form(got)
    assert list(canon.space.registers) == sorted(regs, key=lambda reg: reg.id)
    order = [regs.index(reg) for reg in canon.space.registers]
    assert _close(dense(canon), _dense_permute(entries, [reg.dim for reg in regs], order))

    keep = [reg for reg in rho.space.registers if data.draw(st.booleans())]
    reduced = qcore.partial_trace(rho, [reg for reg in rho.space.registers if reg not in keep])
    assert reduced.space.registers == tuple(keep)
    assert reduced.factor.shape[1] <= reduced.space.total_dim
    assert _close(dense(reduced), _dense_reduced(rho, keep))

    # The same state from another factor (mixed columns, one more zero
    # column) and in another register order: equal, by the exact branch.
    v = got.factor
    u, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(v.shape[1],) * 2) + 0j)
    mixed = DensityMatrix(got.space, factor=np.concatenate([v @ u, v[:, :1] * 0], axis=1))
    assert sysmodel.states_equal(_system(got), _system(mixed), qcore.EPS_EXACT)
    assert sysmodel.states_equal(_system(got), _system(canon), qcore.EPS_EXACT)
    assert sysmodel.states_equal(_system(got), _system(got), 0.0)
    # A perturbed state: the verdict at tolerances on either side of the
    # dense difference is the dense verdict.
    noise = np.random.default_rng(1).normal(size=v.shape) * data.draw(
        st.sampled_from([1e-4, 1e-7, 1e-10]))
    other = DensityMatrix(got.space, factor=v + noise)
    gap = np.abs(dense(got) - dense(other)).max()
    if gap > 1e-13:
        for tol in (gap / 2, 2 * gap):
            assert sysmodel.states_equal(_system(got), _system(other), tol) == (gap <= tol)
