"""Complex linear algebra over a dynamically labeled tensor-product register space.

States are subnormalized density matrices: Hermitian, positive semidefinite,
trace at most one.  The trace of a state carries the probability of the
measurement-outcome history that produced it.  Basis indices decompose
big-endian in register-list order, so ``np.kron`` in list order is the
canonical tensor product.

A state is held as a factor V of shape D×r with ρ = V·V† (r ≤ D), the
quantum-trajectory picture: every builtin outcome has one Kraus matrix and
every scenario starts from a vector, so r stays 1.  Applying an outcome,
reading outcome probabilities, permuting registers, tracing out and
comparing two states cost O(D·r) times the local dimensions, not O(D²) or
more.

A state made from its rows (``DensityMatrix.from_rows``, a parsed trace's
initial state) holds only the rows R whose bits are not all zero.  It is
checked and factored as it is made, over the rows that hold an entry other
than zero, in O(|R|·D).  No D×D matrix is made on the way from a vector to
a trace and back: ``distinct_rows`` maps each row of either kind of state
to one of its distinct rows, and gives those a block at a time.  A vector
with two distinct entry values, such as a basis state, has two distinct
rows, whatever D.  Only ``_factorize``'s ``eigh`` fallback forms a D×D matrix,
for a state that pivoted Cholesky does not factor within ``EPS_VALIDATE``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

# Outcome label meaning "no measurement was performed".
NO_OUTCOME = "⊥"

# Numeric tolerances, all in one place.
# Validation of accumulated quantities: a density matrix's hermiticity, PSD
# and trace.  No operation is checked for trace preservation (ROADMAP item 12).
EPS_VALIDATE = 1e-9
# One freshly computed algebraic identity, such as a single checked swap.
EPS_EXACT = 1e-12
# Identities accumulated over long chains of transformations.
EPS_CHAIN = 1e-9
# A state whose trace (its history's probability) is below this is an
# impossible history: replay and the atomic step refuse it.
ZERO_TRACE = 1e-15

# Cap on a space's total dimension D; it limits the input: a trace is O(D²) bytes.
DIM_CAP = 4096


class QcoreError(Exception):
    """Base class for register-space and operator errors."""


class IdCollision(QcoreError):
    """A register id appears more than once in a space."""


class UnknownRegister(QcoreError):
    """A referenced register is not part of the space."""


class BadOutcome(QcoreError):
    """Outcome label not in the operation's outcome set."""


class ShapeError(QcoreError):
    """Operator dimensions are incompatible with the mapped registers."""


class CapacityError(QcoreError):
    """A register space's total dimension would exceed ``DIM_CAP``."""


@dataclass(frozen=True, order=True)
class RegisterId:
    """A stable, globally unique label for one tensor factor, of dimension
    ``dim`` >= 1: ``scenarios`` makes qubits, and the trace parser refuses
    a smaller dimension."""

    id: int
    dim: int


@dataclass(frozen=True)
class RegisterSpace:
    """An ordered list of registers; the joint space is their tensor product."""

    registers: tuple[RegisterId, ...]

    def __post_init__(self):
        object.__setattr__(self, "registers", tuple(self.registers))
        ids = [r.id for r in self.registers]
        if len(set(ids)) != len(ids):
            raise IdCollision(f"duplicate register ids in {ids}")
        dim = self.total_dim
        if dim > DIM_CAP:
            # A dimension too long to print in decimal is given as a power of 2.
            shown = dim if dim.bit_length() <= 64 else f"at least 2**{dim.bit_length() - 1}"
            raise CapacityError(f"total dimension {shown} exceeds cap {DIM_CAP}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    @property
    def total_dim(self) -> int:
        d = 1
        for r in self.registers:
            d *= r.dim
        return d

    def __contains__(self, reg: RegisterId) -> bool:
        return reg in self.registers


class DensityMatrix:
    """Subnormalized density matrix ρ = V·V† over a register space.

    The factor V has one row per basis state and r ≤ D columns, so
    ``trace`` = ‖V‖_F².  A state is made from its ``factor``, or by
    ``from_rows`` from the rows parsed from a trace, which checks and
    factors them and keeps them exactly.  ``distinct_rows`` gives ρ's
    distinct rows, a block at a time, and which of them each row is.
    """

    __slots__ = ("space", "factor", "_rows")

    def __init__(self, space: RegisterSpace, factor: np.ndarray):
        d = space.total_dim
        factor = np.ascontiguousarray(factor, dtype=np.complex128)
        if factor.ndim != 2 or factor.shape[0] != d:
            raise ShapeError(f"factor shape {factor.shape} does not match dim {d}")
        self.space = space
        self.factor = factor
        self._rows = None

    @classmethod
    def from_rows(cls, space: RegisterSpace, held: np.ndarray,
                  block: np.ndarray) -> "DensityMatrix":
        """The state whose rows ``held`` are ``block`` (|R|×D) and whose
        other rows are zero, once its entries are Hermitian, PSD, and
        subnormalized, each within ``EPS_VALIDATE``; raises ``ShapeError``.

        The PSD test is the factorization: it proves that no eigenvalue is
        below -EPS_VALIDATE, or else ``eigh`` finds one (see ``_factorize``).
        Every check reads only the rows R holding an entry other than zero,
        and their columns: O(|R|·D), with temporaries of at most one block
        of rows.  An entry outside them is 0 - 0 in the Hermitian check, so
        its maximum is the dense one.
        """
        d = space.total_dim
        keep = block.view(np.float64).any(axis=1)  # a NaN or an inf is nonzero
        m, rows = block[keep], held[keep]
        blocks = list(_row_blocks(np.arange(len(rows)), d))
        if not all(np.isfinite(m[p]).all() for p in blocks):
            raise ShapeError("matrix has an entry that is not finite")

        def asymmetry(p):  # max |ρ[r] - ρ[:, r]†| over the rows r = rows[p]
            diff = m[p]
            diff[:, rows] -= m[:, rows[p]].conj().T
            return np.abs(diff).max()
        if max(map(asymmetry, blocks), default=0.0) > EPS_VALIDATE:
            raise ShapeError("matrix is not Hermitian within tolerance")
        v, lowest = _factorize(m, rows)
        if lowest < -EPS_VALIDATE:
            raise ShapeError(f"matrix has eigenvalue {lowest} below -{EPS_VALIDATE}")
        diag = np.zeros(d, dtype=np.complex128)
        diag[rows] = m[np.arange(len(rows)), rows]
        trace = float(np.real(diag.sum()))  # O(D), and summed as the dense trace
        if not (-EPS_VALIDATE <= trace <= 1 + EPS_VALIDATE):
            raise ShapeError(f"trace {trace} outside [0, 1]")
        rho = cls(space, v)
        rho._rows = held, block
        return rho

    def distinct_rows(self) -> tuple[Sequence[int], Iterable[np.ndarray]]:
        """(index, blocks): row i of ρ is distinct row ``index[i]``, and
        ``blocks`` gives the distinct rows in order, a block of rows at a
        time (``_row_blocks``), so no D×D array is made.

        A state made from its rows gives them, then one zero row, the row of
        every index it does not hold.  A rank-1 factor v gives one row per
        distinct bit pattern of its entries: row i is v[i]·v†, and the one
        ufunc loop over the same v† gives rows of entries with the same
        bits the same bits, signed zeros included (only a NaN's sign may
        differ from one block to another).  A factor of any other rank
        gives every row.
        """
        d = self.space.total_dim
        if self._rows is not None:
            held, block = self._rows
            index = np.full(d, len(held))
            index[held] = np.arange(len(held))
            zero = np.zeros((1, d), dtype=np.complex128)
            return index.tolist(), (*_row_blocks(block, d), zero)
        u = v = self.factor
        index = range(d)
        if v.shape[1] == 1:
            first = {}  # an entry's 16 bytes -> its distinct row
            index = [first.setdefault(bits, len(first))
                     for bits in np.ascontiguousarray(v[:, 0]).view("V16").tolist()]
            u = np.frombuffer(b"".join(first), dtype=np.complex128)[:, None]
        return index, (_gram(rows, v) for rows in _row_blocks(u, d))

    @property
    def trace(self) -> float:
        v = self.factor
        return float(np.vdot(v, v).real)

    @classmethod
    def from_vector(cls, space: RegisterSpace, vec: Sequence[complex]) -> "DensityMatrix":
        v = np.array(vec, dtype=np.complex128).reshape(-1)  # the factor keeps it
        if v.shape[0] != space.total_dim:
            raise ShapeError("vector length does not match space dimension")
        return cls(space, v[:, None])

    @classmethod
    def basis_state(cls, space: RegisterSpace) -> "DensityMatrix":
        v = np.zeros(space.total_dim, dtype=np.complex128)
        v[0] = 1.0
        return cls.from_vector(space, v)

    @classmethod
    def empty(cls) -> "DensityMatrix":
        """The trivial state over zero registers (a 1x1 matrix holding 1)."""
        return cls.from_vector(RegisterSpace(()), [1.0])


# Row blocks of D×D products hold about this many entries (4 MB), so no
# D×D temporary is made.
_BLOCK_ENTRIES = 1 << 18


def _row_blocks(rows, d: int):
    """``rows`` (rows of width ``d``, or their indices) in consecutive
    blocks of at most ``_BLOCK_ENTRIES`` entries, or of one row."""
    step = max(1, _BLOCK_ENTRIES // d)
    return (rows[i:i + step] for i in range(0, len(rows), step))


def _gram(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The rows of V·V†, the dense matrix of a factor, whose rows of V are
    ``rows``.  A rank-1 factor's rows are those of ``np.outer(v, v.conj())``,
    one product per entry."""
    if v.shape[1] == 1:
        return np.multiply.outer(rows[:, 0], v[:, 0].conj())
    return rows @ v.conj().T


def _factorize(m: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """A factor V of a Hermitian matrix and a lower bound on its lowest
    eigenvalue, from ``m``, its rows ``rows``: the rows R that hold an
    entry other than zero.

    V is zero outside R.  Pivoted Cholesky (Higham 1990) on those rows and
    their columns pivots on the largest remaining diagonal entry and stops
    once none is above D·ε·max diag (the rank tolerance of LAPACK's ?pstrf),
    so VV† keeps the matrix to rounding.  It costs O(|R|²·r) for rank r, and
    the residual below O(|R|·D·r).  By Weyl's inequality, λ_min ≥
    -‖m - VV†‖_F, and that is the bound returned when it is at least
    -EPS_VALIDATE.  Otherwise ``eigh`` decides on the dense matrix: the
    bound is the lowest eigenvalue, and the factor holds the eigenvectors
    scaled by the square roots of the positive eigenvalues.
    """
    d = m.shape[1]
    if not rows.size:  # the zero matrix
        return np.zeros((d, 0), dtype=np.complex128), 0.0
    diag = m[np.arange(len(rows)), rows].real
    stop = d * np.finfo(float).eps * max(diag.max(), 0.0)
    cols: list[np.ndarray] = []
    for _ in range(d):
        j = int(diag.argmax())
        if not diag[j] > stop:
            break
        col = m[:, rows[j]].copy()
        if cols:
            done = np.array(cols).T
            col -= done @ done[j].conj()
        col /= np.sqrt(diag[j])
        diag -= np.abs(col) ** 2
        cols.append(col)
    v = np.zeros((d, len(cols)), dtype=np.complex128)
    v[rows] = np.array(cols, dtype=np.complex128).T
    vh = v.conj().T
    residual = np.sqrt(sum(float(np.sum(np.abs(m[p] - v[rows[p]] @ vh) ** 2))
                           for p in _row_blocks(np.arange(len(rows)), d)))
    if residual <= EPS_VALIDATE:
        return v, -residual
    dense = np.zeros((d, d), dtype=np.complex128)
    dense[rows] = m
    w, u = np.linalg.eigh(dense)
    keep = w > 0
    return u[:, keep] * np.sqrt(w[keep]), float(w.min())


def _capped(v: np.ndarray) -> np.ndarray:
    """A factor of V·V† with at most D columns: for r > D, V† = QR gives
    V·V† = R†R, and R† has D columns."""
    if v.shape[1] <= v.shape[0]:
        return v
    return np.linalg.qr(v.conj().T, mode="r").conj().T


def states_close(a: DensityMatrix, b: DensityMatrix, tol: float) -> bool:
    """max |ρ_a - ρ_b| <= tol for two states over the same space; a NaN or
    infinite entry never compares close.

    ‖V - W‖_F·(‖V‖_F + ‖W‖_F) bounds max |VV† - WW†|, so factors of the
    same shape that agree or nearly agree pass in O(D·r).  Otherwise
    VV† - WW† is formed as [V W]·[V -W]†, one block of rows at a time.
    """
    v, w = a.factor, b.factor
    if v.shape == w.shape:
        diff = v - w
        if not np.count_nonzero(diff):  # NaN - NaN and inf - inf are NaN
            return True
        bound = np.sqrt(np.vdot(diff, diff).real) * (
            np.sqrt(np.vdot(v, v).real) + np.sqrt(np.vdot(w, w).real))
        if bound <= tol:
            return True
    left = np.concatenate([v, w], axis=1)
    right = np.concatenate([v, -w], axis=1).conj().T
    return all(np.abs(left[b] @ right).max(initial=0.0) <= tol
               for b in _row_blocks(range(len(left)), len(left)))


@dataclass(frozen=True, eq=False)
class QuantumOperation:
    """A quantum operation with a classical outcome set, in Kraus form.

    ``kraus_by_outcome[r]`` lists the Kraus matrices of the CP map for outcome
    ``r``.  ``in_dims`` and ``out_dims`` are the local dimensions of the
    operation's input and output slots; they may differ, letting an operation
    grow or shrink the system.  Construction refuses an outcome listed
    twice, and checks each matrix's shape and that its entries are finite.
    It does not check that the sum over all outcomes is trace preserving:
    that is ROADMAP item 12's check.

    Operations are equal when their outcomes, dimensions and Kraus matrices
    are, entry for entry by value (-0.0 equals 0.0; no entry is NaN or
    infinite): traces round-trip matrices and builders are deterministic,
    so any difference is a forgery.  An operation cannot be hashed.
    """

    outcome_set: tuple[str, ...]
    kraus_by_outcome: Mapping[str, tuple[np.ndarray, ...]]
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcome_set", tuple(self.outcome_set))
        object.__setattr__(self, "in_dims", tuple(self.in_dims))
        object.__setattr__(self, "out_dims", tuple(self.out_dims))
        din, dout = self.in_dim, self.out_dim
        fixed = {}
        for r in self.outcome_set:
            if r in fixed:
                raise BadOutcome(f"outcome {r!r} is repeated")
            ks = tuple(
                np.ascontiguousarray(k, dtype=np.complex128)
                for k in self.kraus_by_outcome[r]
            )
            for k in ks:
                if k.shape != (dout, din):
                    raise ShapeError(
                        f"Kraus matrix shape {k.shape} incompatible with "
                        f"in dim {din}, out dim {dout}"
                    )
                if not np.isfinite(k).all():
                    raise ShapeError(f"Kraus matrix of outcome {r!r} has an entry "
                                     f"that is not finite")
            fixed[r] = ks
        object.__setattr__(self, "kraus_by_outcome", fixed)

    def __eq__(self, other):
        if not isinstance(other, QuantumOperation):
            return NotImplemented
        # kraus_by_outcome holds the outcomes in outcome_set order
        mine, theirs = self.kraus_by_outcome.values(), other.kraus_by_outcome.values()
        return ((self.outcome_set, self.in_dims, self.out_dims)
                == (other.outcome_set, other.in_dims, other.out_dims)
                and all(len(a) == len(b) and all(map(np.array_equal, a, b))
                        for a, b in zip(mine, theirs)))

    @property
    def in_dim(self) -> int:
        return int(np.prod(self.in_dims)) if self.in_dims else 1

    @property
    def out_dim(self) -> int:
        return int(np.prod(self.out_dims)) if self.out_dims else 1


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states; register lists are concatenated.
    V_a ⊗ V_b is a factor of ρ_a ⊗ ρ_b."""
    shared = {r.id for r in a.space.registers} & {r.id for r in b.space.registers}
    if shared:
        raise IdCollision(f"register ids {sorted(shared)} appear on both sides")
    space = RegisterSpace(a.space.registers + b.space.registers)
    return DensityMatrix(space, np.kron(a.factor, b.factor))


def _tensor(rho: DensityMatrix) -> np.ndarray:
    """The factor as a tensor: an axis per register in space order, then the columns."""
    v = rho.factor
    return v.reshape(*rho.space.dims, v.shape[1])


def _fold(rho: DensityMatrix, regs: Sequence[RegisterId]) -> np.ndarray:
    """The factor with ``regs``, in their order, as the row index and every
    other register folded into the columns: M with M·M† the reduced state
    on ``regs``, moved to the front of ``_tensor``.  One O(D·r) copy at most."""
    pos = [rho.space.registers.index(r) for r in regs]
    t = np.moveaxis(_tensor(rho), pos, range(len(pos)))
    d = int(np.prod([r.dim for r in regs]))
    return t.reshape(d, t.size // d)


def partial_trace(rho: DensityMatrix, discard: Iterable[RegisterId]) -> DensityMatrix:
    """Trace out the given registers, returning the reduced state."""
    discard = list(discard)
    for reg in discard:
        if reg not in rho.space:
            raise UnknownRegister(f"register {reg} not in space")
    keep = tuple(r for r in rho.space.registers if r not in discard)
    return DensityMatrix(RegisterSpace(keep), _capped(_fold(rho, keep)))


def _check_regmap(rho: DensityMatrix, op: QuantumOperation,
                  in_regs: tuple[RegisterId, ...], out_regs: tuple[RegisterId, ...]) -> None:
    """Raise unless ``in_regs`` name the operation's input slots, in slot
    order, and ``out_regs`` the registers that replace them: each list
    without a repeated id and of the slots' dims, every input in the space
    and every output either an input or new to it."""
    if len({r.id for r in in_regs}) != len(in_regs):
        raise IdCollision("register map inputs must be injective")
    if len({r.id for r in out_regs}) != len(out_regs):
        raise IdCollision("register map outputs must be injective")
    if tuple(r.dim for r in in_regs) != op.in_dims:
        raise ShapeError("mapped register dims do not match operation input dims")
    if tuple(r.dim for r in out_regs) != op.out_dims:
        raise ShapeError("output register dims do not match operation output dims")
    for reg in in_regs:
        if reg not in rho.space:
            raise UnknownRegister(f"register {reg} not in space")
    for reg in out_regs:
        if reg not in in_regs and reg in rho.space:
            raise IdCollision(f"output register {reg} already present in space")


def apply_outcome(
    rho: DensityMatrix,
    op: QuantumOperation,
    in_regs: Sequence[RegisterId],
    out_regs: Sequence[RegisterId],
    outcome: str,
) -> DensityMatrix:
    """Apply the CP map for one outcome to the registers ``in_regs``, in
    slot order (see ``_check_regmap``).

    The result is subnormalized: its trace is the probability of the outcome
    given ``rho``.  The registers ``out_regs`` replace the inputs; when they
    are the inputs the register order of the space is preserved exactly,
    otherwise the outputs are placed first followed by the untouched rest.

    The outcome's Kraus matrices K₁…Kₖ map the factor V to [K₁V, …, KₖV].
    Each K, as a tensor over its output then input slots, is contracted
    with the tensor view of V (``_tensor``) by one ``np.tensordot``: its
    input slots with the mapped registers' axes, in slot order.  The
    product's axes are the output slots, the untouched registers in space
    order and the r columns; when the outputs replace the inputs, each
    output slot is moved back to its input's axis.  That costs D·r·d_out
    multiply-adds per Kraus matrix, O(D·r·d_in·d_out) in all, for input
    dimension D and rank r, and needs no D×D array.  When k·r exceeds the
    output dimension D', a QR step cuts the rank back to D'.
    """
    if outcome not in op.outcome_set:
        raise BadOutcome(f"outcome {outcome!r} not in {op.outcome_set}")
    in_regs, out_regs = tuple(in_regs), tuple(out_regs)
    _check_regmap(rho, op, in_regs, out_regs)

    regs = rho.space.registers
    pos = [regs.index(r) for r in in_regs]
    same = out_regs == in_regs
    space = rho.space if same else RegisterSpace(
        out_regs + tuple(r for r in regs if r not in in_regs))
    v = _tensor(rho)
    n_out = len(op.out_dims)
    cols = [np.empty((space.total_dim, 0), dtype=np.complex128)]  # for k = 0
    for k in op.kraus_by_outcome[outcome]:
        y = np.tensordot(k.reshape(op.out_dims + op.in_dims), v,
                         axes=(range(n_out, n_out + len(pos)), pos))
        if same:
            y = np.moveaxis(y, range(n_out), pos)
        cols.append(y.reshape(space.total_dim, v.shape[-1]))
    return DensityMatrix(space, _capped(np.concatenate(cols, axis=1)))


def outcome_probabilities(
    rho: DensityMatrix,
    op: QuantumOperation,
    in_regs: Sequence[RegisterId],
    out_regs: Sequence[RegisterId],
) -> np.ndarray:
    """p(r) = Σ_K tr(K ρ_A K†) for each outcome r, in outcome-set order.

    ρ_A = M·M† is the reduced state on ``in_regs`` (see ``_fold``), so no
    outcome is applied to the whole state: the cost is O(D·r·d_in) for ρ_A
    plus O(d_in²·d_out) per Kraus matrix.  Each p(r) equals the trace of
    ``apply_outcome(rho, op, in_regs, out_regs, r)`` and is clipped at 0.
    """
    in_regs, out_regs = tuple(in_regs), tuple(out_regs)
    _check_regmap(rho, op, in_regs, out_regs)
    m = _fold(rho, in_regs)
    rho_a = m @ m.conj().T
    return np.array([
        max(sum(float(np.vdot(k, k @ rho_a).real) for k in op.kraus_by_outcome[r]), 0.0)
        for r in op.outcome_set
    ])


def draw_outcome(
    rho: DensityMatrix,
    op: QuantumOperation,
    in_regs: Sequence[RegisterId],
    out_regs: Sequence[RegisterId],
    rng: np.random.Generator,
) -> str:
    """Draw an outcome label with its physical probability; nothing is applied."""
    probs = outcome_probabilities(rho, op, in_regs, out_regs)
    probs = probs / probs.sum()
    return op.outcome_set[rng.choice(len(op.outcome_set), p=probs)]


def canonical_form(rho: DensityMatrix) -> DensityMatrix:
    """Sort registers by id and transpose the factor's tensor view
    (``_tensor``) to match; idempotent."""
    regs = rho.space.registers
    order = sorted(range(len(regs)), key=lambda i: regs[i].id)
    if order == list(range(len(regs))):
        return rho
    t = np.moveaxis(_tensor(rho), order, range(len(regs)))
    return DensityMatrix(RegisterSpace(tuple(regs[i] for i in order)),
                         t.reshape(rho.factor.shape))


def standard_basis_measurement(dims: Sequence[int]) -> QuantumOperation:
    """Projective measurement of every slot in the computational basis.

    Outcomes are big-endian digit strings over the slot dimensions, e.g.
    "01" for a two-qubit measurement.  Where a slot's dimension is above
    10, a digit may take two characters, so the digits are joined by ","
    ("1,10" and "11,0" for dimensions 12 and 11), and every label stays
    distinct.
    """
    dims = tuple(dims)
    sep = "," if any(d > 10 for d in dims) else ""
    outcomes = tuple(sep.join(map(str, digits))
                     for digits in itertools.product(*map(range, dims)))
    eye = np.eye(len(outcomes), dtype=np.complex128)
    kraus = {label: (np.diag(eye[flat]),) for flat, label in enumerate(outcomes)}
    return QuantumOperation(outcomes, kraus, dims, dims)


def unitary_channel(u: np.ndarray, dims: Sequence[int]) -> QuantumOperation:
    """Deterministic operation applying a unitary on slots ``dims``; single outcome ⊥."""
    u = np.asarray(u, dtype=np.complex128)
    return QuantumOperation((NO_OUTCOME,), {NO_OUTCOME: (u,)}, tuple(dims), tuple(dims))


def relabel_outcomes(op: QuantumOperation, fn) -> QuantumOperation:
    """Rename outcome labels with ``fn``; the maps themselves are unchanged.
    Two outcomes ``fn`` maps to one label raise ``BadOutcome``."""
    outcomes = tuple(fn(r) for r in op.outcome_set)
    kraus = {fn(r): op.kraus_by_outcome[r] for r in op.outcome_set}
    return QuantumOperation(outcomes, kraus, op.in_dims, op.out_dims)


# Single-qubit Pauli matrices, used by the one-time-pad operation library.
PAULIS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli_string_matrix(s: str) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for ch in s:
        m = np.kron(m, PAULIS[ch])
    return m


def pauli_pad_operation(n_qubits: int) -> QuantumOperation:
    """Uniformly random Pauli one-time pad on ``n_qubits`` >= 1 qubits.

    Each outcome is a Pauli string (the sampled key); every key occurs with
    probability 4^-n, carried by the 2^-n scaling of the Kraus matrices.
    """
    keys = ["".join(k) for k in itertools.product("IXYZ", repeat=n_qubits)]
    scale = 1.0 / (2 ** n_qubits)
    kraus = {k: (scale * pauli_string_matrix(k),) for k in keys}
    dims = (2,) * n_qubits
    return QuantumOperation(tuple(keys), kraus, dims, dims)
