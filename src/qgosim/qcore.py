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
more; the D×D matrix is formed only when ``DensityMatrix.entries`` is read.

A state given by its D×D rows (a parsed trace's initial state) is checked
and factored over the rows R that hold an entry other than zero, found in
one read-only pass: ``validate`` and ``_factorize`` cost O(|R|·D) and make
no D×D temporary.  A dense matrix is the case R = every row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "NO_OUTCOME",
    "RegisterId",
    "RegisterAllocator",
    "RegisterSpace",
    "DensityMatrix",
    "QuantumOperation",
    "RegisterMap",
    "IdCollision",
    "UnknownRegister",
    "BadOutcome",
    "ShapeError",
    "CapacityError",
    "tensor_product",
    "partial_trace",
    "apply_outcome",
    "outcome_probabilities",
    "draw_outcome",
    "canonical_form",
    "states_close",
    "standard_basis_measurement",
    "unitary_channel",
    "identity_operation",
    "relabel_outcomes",
    "dim_cap",
]

# Outcome label meaning "no measurement was performed".
NO_OUTCOME = "⊥"

# Numeric tolerances, all in one place.
# Validation of accumulated quantities: hermiticity, PSD, trace preservation.
EPS_VALIDATE = 1e-9
# One freshly computed algebraic identity, such as a single checked swap.
EPS_EXACT = 1e-12
# Identities accumulated over long chains of transformations.
EPS_CHAIN = 1e-9
# A state whose trace (its history's probability) is below this is an
# impossible history: replay and the atomic step refuse it.
ZERO_TRACE = 1e-15
# Relative tolerance of same_operation: Kraus entries a, b agree when
# |a - b| <= OP_ATOL + OP_RTOL * |b| (numpy's allclose defaults).
OP_RTOL = 1e-5
# Absolute tolerance of same_operation: the bound's floor for entries near zero.
OP_ATOL = 1e-8

DEFAULT_DIM_CAP = 4096


def dim_cap() -> int:
    """Global cap on the total dimension of a register space.

    Overridable through the QGO_DIM_CAP environment variable.
    """
    return int(os.environ.get("QGO_DIM_CAP", DEFAULT_DIM_CAP))


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
    """The configured total-dimension cap would be exceeded."""


@dataclass(frozen=True, order=True)
class RegisterId:
    """A stable, globally unique label for one tensor factor."""

    id: int
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError(f"register dimension must be >= 1, got {self.dim}")


class RegisterAllocator:
    """Hands out register ids from a monotonic counter; ids are never reused."""

    def __init__(self, start: int = 0):
        self._next = start

    def fresh(self, dim: int) -> RegisterId:
        reg = RegisterId(self._next, dim)
        self._next += 1
        return reg


@dataclass(frozen=True)
class RegisterSpace:
    """An ordered list of registers; the joint space is their tensor product."""

    registers: tuple[RegisterId, ...]

    def __post_init__(self):
        object.__setattr__(self, "registers", tuple(self.registers))
        ids = [r.id for r in self.registers]
        if len(set(ids)) != len(ids):
            raise IdCollision(f"duplicate register ids in {ids}")
        if self.total_dim > dim_cap():
            raise CapacityError(
                f"total dimension {self.total_dim} exceeds cap {dim_cap()}"
            )

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    @property
    def total_dim(self) -> int:
        d = 1
        for r in self.registers:
            d *= r.dim
        return d

    def index_of(self, reg: RegisterId) -> int:
        try:
            return self.registers.index(reg)
        except ValueError:
            raise UnknownRegister(f"register {reg} not in space") from None

    def __contains__(self, reg: RegisterId) -> bool:
        return reg in self.registers


class DensityMatrix:
    """Subnormalized density matrix ρ = V·V† over a register space.

    The factor V has one row per basis state and r ≤ D columns, so
    ``trace`` = ‖V‖_F².  ``entries`` is ρ itself, D×D: a state built from
    dense rows (``DensityMatrix(space, entries)``, ``from_vector``) keeps
    those exact rows, any other state computes V·V† once, when asked.  A
    state built from rows is factored when ``factor`` is first read.
    """

    __slots__ = ("space", "_factor", "_entries")

    def __init__(self, space: RegisterSpace, entries: np.ndarray | None = None,
                 factor: np.ndarray | None = None):
        d = space.total_dim
        if entries is not None:
            entries = np.ascontiguousarray(entries, dtype=np.complex128)
            if entries.shape != (d, d):
                raise ShapeError(f"entries shape {entries.shape} does not match dim {d}")
        if factor is not None:
            factor = np.ascontiguousarray(factor, dtype=np.complex128)
            if factor.ndim != 2 or factor.shape[0] != d:
                raise ShapeError(f"factor shape {factor.shape} does not match dim {d}")
        elif entries is None:
            raise ShapeError("a state needs its entries or its factor")
        self.space = space
        self._factor = factor
        self._entries = entries

    @property
    def factor(self) -> np.ndarray:
        if self._factor is None:
            m = self._entries
            self._factor = _factorize(m, _nonzero_rows(m), EPS_VALIDATE)[0]
        return self._factor

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self._entries = _gram(self._factor)
        return self._entries

    @property
    def trace(self) -> float:
        v = self.factor
        return float(np.vdot(v, v).real)

    def validate(self, eps: float = EPS_VALIDATE) -> None:
        """Raise if the entries are not Hermitian, PSD, and subnormalized.

        The PSD test is the factorization: it proves that no eigenvalue is
        below -eps, or else ``eigh`` finds one (see ``_factorize``).  After
        one read-only pass that finds the rows R holding an entry other than
        zero, every check reads only those rows and their columns: O(|R|·D),
        with temporaries of at most one block of rows.  An entry outside
        them is 0 - 0 in the Hermitian check, so its maximum is the dense one.
        """
        m = self.entries
        d = m.shape[0]
        rows = _nonzero_rows(m)
        blocks = list(_row_blocks(rows, d))
        if not all(np.isfinite(m[r]).all() for r in blocks):
            raise ShapeError("matrix has an entry that is not finite")
        if max((np.abs(m[r] - m[:, r].conj().T).max() for r in blocks),
               default=0.0) > eps:
            raise ShapeError("matrix is not Hermitian within tolerance")
        v, lowest = _factorize(m, rows, eps)
        if lowest < -eps:
            raise ShapeError(f"matrix has eigenvalue {lowest} below -{eps}")
        if self._factor is None:
            self._factor = v
        trace = float(np.real(np.trace(m)))  # O(D), and summed as the dense trace
        if not (-eps <= trace <= 1 + eps):
            raise ShapeError(f"trace {trace} outside [0, 1]")

    @classmethod
    def from_vector(cls, space: RegisterSpace, vec: Sequence[complex]) -> "DensityMatrix":
        v = np.array(vec, dtype=np.complex128).reshape(-1)  # the factor keeps it
        if v.shape[0] != space.total_dim:
            raise ShapeError("vector length does not match space dimension")
        return cls(space, np.outer(v, v.conj()), v[:, None])

    @classmethod
    def basis_state(cls, space: RegisterSpace, index: int = 0) -> "DensityMatrix":
        v = np.zeros(space.total_dim, dtype=np.complex128)
        v[index] = 1.0
        return cls.from_vector(space, v)

    @classmethod
    def empty(cls) -> "DensityMatrix":
        """The trivial state over zero registers (a 1x1 matrix holding 1)."""
        return cls.from_vector(RegisterSpace(()), [1.0])


# Row blocks of D×D products hold about this many entries (4 MB), so no
# D×D temporary is made besides a result that is asked for.
_BLOCK_ENTRIES = 1 << 18


def _row_blocks(rows, d: int):
    """``rows`` (indices of rows of width ``d``) in consecutive blocks."""
    step = max(1, _BLOCK_ENTRIES // d)
    return (rows[i:i + step] for i in range(0, len(rows), step))


def _gram(v: np.ndarray) -> np.ndarray:
    """V·V†, the dense matrix of a factor."""
    return v @ v.conj().T


def _nonzero_rows(m: np.ndarray) -> np.ndarray:
    """The indices of the rows of the C-contiguous ``m`` that hold an entry
    other than zero (a NaN or an inf is one), found without a D×D temporary."""
    return np.flatnonzero(m.view(np.float64).any(axis=1))


def _factorize(m: np.ndarray, rows: np.ndarray, eps: float) -> tuple[np.ndarray, float]:
    """A factor V of the Hermitian ``m`` and a lower bound on its lowest eigenvalue.

    ``rows`` are the rows of ``m`` that hold an entry other than zero
    (``_nonzero_rows``); V is zero on every other row.  Pivoted Cholesky
    (Higham 1990) on those rows and their columns pivots on the largest
    remaining diagonal entry and stops once none is above D·ε·max diag (the
    rank tolerance of LAPACK's ?pstrf), so VV† keeps ``m`` to rounding.  It
    costs O(|R|²·r) for rank r, and the residual below O(|R|·D·r).  By
    Weyl's inequality, λ_min(m) ≥ -‖m - VV†‖_F, and that is the bound
    returned when it is at least -eps.  Otherwise ``eigh`` decides on the
    dense ``m``: the bound is the lowest eigenvalue, and the factor holds the
    eigenvectors scaled by the square roots of the positive eigenvalues.
    """
    d = m.shape[0]
    if not rows.size:  # the zero matrix
        return np.zeros((d, 0), dtype=np.complex128), 0.0
    diag = m.diagonal().real[rows]
    stop = d * np.finfo(float).eps * max(diag.max(), 0.0)
    cols: list[np.ndarray] = []
    for _ in range(d):
        j = int(diag.argmax())
        if not diag[j] > stop:
            break
        col = m[rows, rows[j]]
        if cols:
            done = np.array(cols).T
            col -= done @ done[j].conj()
        col /= np.sqrt(diag[j])
        diag -= np.abs(col) ** 2
        cols.append(col)
    v = np.zeros((d, len(cols)), dtype=np.complex128, order="F")
    v[rows] = np.array(cols, dtype=np.complex128).T
    vh = v.conj().T
    residual = np.sqrt(sum(float(np.sum(np.abs(m[r] - v[r] @ vh) ** 2))
                           for r in _row_blocks(rows, d)))
    if residual <= eps:
        return v, -residual
    w, u = np.linalg.eigh(m)
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
    ``r``; the sum over all outcomes must be trace preserving.  ``in_dims`` and
    ``out_dims`` are the local dimensions of the operation's input and output
    slots; they may differ, letting an operation grow or shrink the system.
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
            fixed[r] = ks
        object.__setattr__(self, "kraus_by_outcome", fixed)

    @property
    def in_dim(self) -> int:
        return int(np.prod(self.in_dims)) if self.in_dims else 1

    @property
    def out_dim(self) -> int:
        return int(np.prod(self.out_dims)) if self.out_dims else 1


@dataclass(frozen=True)
class RegisterMap:
    """Assignment of an operation's slots to registers of a space.

    ``in_regs`` name the registers the operation consumes, in slot order.
    ``out_regs`` name the registers that replace them; they default to the
    inputs when the operation does not change dimensions.
    """

    in_regs: tuple[RegisterId, ...]
    out_regs: tuple[RegisterId, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "in_regs", tuple(self.in_regs))
        if self.out_regs is None:
            object.__setattr__(self, "out_regs", self.in_regs)
        else:
            object.__setattr__(self, "out_regs", tuple(self.out_regs))
        if len({r.id for r in self.in_regs}) != len(self.in_regs):
            raise IdCollision("register map inputs must be injective")
        if len({r.id for r in self.out_regs}) != len(self.out_regs):
            raise IdCollision("register map outputs must be injective")


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states; register lists are concatenated.
    V_a ⊗ V_b is a factor of ρ_a ⊗ ρ_b."""
    shared = {r.id for r in a.space.registers} & {r.id for r in b.space.registers}
    if shared:
        raise IdCollision(f"register ids {sorted(shared)} appear on both sides")
    space = RegisterSpace(a.space.registers + b.space.registers)
    return DensityMatrix(space, factor=np.kron(a.factor, b.factor))


def _permute_rows(v: np.ndarray, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Rows of the factor ``v`` with its registers reordered: new register
    ``j`` is old register ``order[j]``.  Returns ``v`` itself for the
    identity order."""
    n = len(dims)
    order = list(order)
    if order == list(range(n)):
        return v
    return v.reshape(*dims, v.shape[1]).transpose(order + [n]).reshape(v.shape)


def _fold(rho: DensityMatrix, regs: Sequence[RegisterId]) -> np.ndarray:
    """The factor with ``regs``, in their order, as the row index and every
    other register folded into the columns: M with M·M† the reduced state
    on ``regs``.  One O(D·r) copy at most."""
    space = rho.space
    pos = [space.registers.index(r) for r in regs]
    rest = [i for i in range(len(space.registers)) if i not in pos]
    v = _permute_rows(rho.factor, space.dims, pos + rest)
    d = int(np.prod([r.dim for r in regs]))
    return v.reshape(d, v.size // d)


def partial_trace(rho: DensityMatrix, discard: Iterable[RegisterId]) -> DensityMatrix:
    """Trace out the given registers, returning the reduced state."""
    discard = list(discard)
    for reg in discard:
        if reg not in rho.space:
            raise UnknownRegister(f"register {reg} not in space")
    keep = tuple(r for r in rho.space.registers if r not in discard)
    return DensityMatrix(RegisterSpace(keep), factor=_capped(_fold(rho, keep)))


def _check_regmap(rho: DensityMatrix, op: QuantumOperation, regmap: RegisterMap) -> None:
    if tuple(r.dim for r in regmap.in_regs) != op.in_dims:
        raise ShapeError("mapped register dims do not match operation input dims")
    if tuple(r.dim for r in regmap.out_regs) != op.out_dims:
        raise ShapeError("output register dims do not match operation output dims")
    for reg in regmap.in_regs:
        if reg not in rho.space:
            raise UnknownRegister(f"register {reg} not in space")
    for reg in regmap.out_regs:
        if reg not in regmap.in_regs and reg in rho.space:
            raise IdCollision(f"output register {reg} already present in space")


# For s below this, a batched matmul over (-1, d_in, s) makes one BLAS call
# per tiny d_in x s slice; moving the d_in axis last and making one call is
# faster (measured on a 2-vCPU x86 VM with OpenBLAS, D=1024 and D=4096).
_MIN_BATCH_COLS = 16


def _contract_middle(k: np.ndarray, x: np.ndarray, s: int) -> np.ndarray:
    """``k`` (o x i) applied to the middle axis of ``x`` viewed as (-1, i, s).

    Returns the (-1, o, s) result, possibly as a non-contiguous view.
    """
    din, dout = k.shape[1], k.shape[0]
    x = x.reshape(-1, din, s)
    if s >= _MIN_BATCH_COLS:
        return np.matmul(k, x)
    y = x.transpose(0, 2, 1).reshape(-1, din) @ k.T
    return y.reshape(-1, s, dout).transpose(0, 2, 1)


def apply_outcome(
    rho: DensityMatrix,
    op: QuantumOperation,
    regmap: RegisterMap,
    outcome: str,
) -> DensityMatrix:
    """Apply the CP map for one outcome to the mapped registers.

    The result is subnormalized: its trace is the probability of the outcome
    given ``rho``.  Output registers replace the inputs; when dimensions are
    unchanged the register order of the space is preserved exactly, otherwise
    the output registers are placed first followed by the untouched rest.

    The outcome's Kraus matrices K₁…Kₖ map the factor V to [K₁V, …, KₖV]:
    with the mapped registers as the middle factor of a (p, d_in, s) split
    of the row index, each K contracts that factor of V viewed as
    (p, d_in, s·r).  That costs D·r·d_out multiply-adds per Kraus matrix,
    O(D·r·d_in·d_out) in all, for input dimension D and rank r, and needs
    no D×D array.  The rows of V are copied into a new register order when
    the mapped registers are not adjacent in the space, and the result's
    rows when they must then be put into the order given above.  When k·r
    exceeds the output dimension D', a QR step cuts the rank back to D'.
    """
    if outcome not in op.outcome_set:
        raise BadOutcome(f"outcome {outcome!r} not in {op.outcome_set}")
    _check_regmap(rho, op, regmap)

    regs = rho.space.registers
    dims = rho.space.dims
    pos = [regs.index(r) for r in regmap.in_regs]
    # Slots sorted by their register's place in the space.
    slots = sorted(range(len(pos)), key=pos.__getitem__)
    first = pos[slots[0]] if pos else 0
    before = [i for i in range(first) if i not in pos]
    after = [i for i in range(first, len(regs)) if i not in pos]
    v = _permute_rows(rho.factor, dims, before + sorted(pos) + after)

    # Reorder the Kraus axes to match: inputs in space order, and outputs too
    # when they take the inputs' place.
    same = regmap.out_regs == regmap.in_regs
    out_slots = slots if same else list(range(len(op.out_dims)))
    axes = out_slots + [len(op.out_dims) + j for j in slots]
    p = int(np.prod([dims[i] for i in before]))
    s = int(np.prod([dims[i] for i in after]))
    din, dout, r = op.in_dim, op.out_dim, v.shape[1]
    kraus = [k.reshape(op.out_dims + op.in_dims).transpose(axes).reshape(dout, din)
             for k in op.kraus_by_outcome[outcome]]
    out = np.empty((p, dout, s, len(kraus), r), dtype=np.complex128)
    for i, k in enumerate(kraus):
        out[:, :, :, i] = _contract_middle(k, v, s * r).reshape(p, dout, s, r)
    out = out.reshape(p * dout * s, len(kraus) * r)

    cur = ([regs[i] for i in before] + [regmap.out_regs[j] for j in out_slots]
           + [regs[i] for i in after])
    target = list(regs) if same else list(regmap.out_regs) + [regs[i] for i in before + after]
    out = _permute_rows(out, [r.dim for r in cur], [cur.index(r) for r in target])
    space = rho.space if same else RegisterSpace(tuple(target))
    return DensityMatrix(space, factor=_capped(out))


def outcome_probabilities(
    rho: DensityMatrix, op: QuantumOperation, regmap: RegisterMap
) -> np.ndarray:
    """p(r) = Σ_K tr(K ρ_A K†) for each outcome r, in outcome-set order.

    ρ_A = M·M† is the reduced state on the mapped registers (see ``_fold``),
    so no outcome is applied to the whole state: the cost is O(D·r·d_in)
    for ρ_A plus O(d_in²·d_out) per Kraus matrix.  Each p(r) equals the
    trace of ``apply_outcome(rho, op, regmap, r)`` and is clipped at 0.
    """
    _check_regmap(rho, op, regmap)
    m = _fold(rho, regmap.in_regs)
    rho_a = m @ m.conj().T
    return np.array([
        max(sum(float(np.vdot(k, k @ rho_a).real) for k in op.kraus_by_outcome[r]), 0.0)
        for r in op.outcome_set
    ])


def draw_outcome(
    rho: DensityMatrix,
    op: QuantumOperation,
    regmap: RegisterMap,
    rng: np.random.Generator,
) -> str:
    """Draw an outcome label with its physical probability; nothing is applied."""
    probs = outcome_probabilities(rho, op, regmap)
    probs = probs / probs.sum()
    return op.outcome_set[rng.choice(len(op.outcome_set), p=probs)]


def canonical_form(rho: DensityMatrix) -> DensityMatrix:
    """Sort registers by id and permute the factor's rows accordingly; idempotent."""
    regs = list(rho.space.registers)
    order = sorted(range(len(regs)), key=lambda i: regs[i].id)
    if order == list(range(len(regs))):
        return rho
    return DensityMatrix(
        RegisterSpace(tuple(regs[i] for i in order)),
        factor=_permute_rows(rho.factor, [r.dim for r in regs], order),
    )


def standard_basis_measurement(dims: Sequence[int]) -> QuantumOperation:
    """Projective measurement of every slot in the computational basis.

    Outcomes are big-endian digit strings over the slot dimensions, e.g.
    "01" for a two-qubit measurement.
    """
    dims = tuple(dims)
    total = int(np.prod(dims)) if dims else 1
    outcomes = []
    kraus = {}
    for flat in range(total):
        digits = []
        rem = flat
        for d in reversed(dims):
            digits.append(rem % d)
            rem //= d
        label = "".join(str(x) for x in reversed(digits))
        proj = np.zeros((total, total), dtype=np.complex128)
        proj[flat, flat] = 1.0
        outcomes.append(label)
        kraus[label] = (proj,)
    return QuantumOperation(tuple(outcomes), kraus, dims, dims)


def unitary_channel(u: np.ndarray, dims: Sequence[int] | None = None) -> QuantumOperation:
    """Deterministic operation applying a unitary; single outcome ⊥."""
    u = np.asarray(u, dtype=np.complex128)
    if dims is None:
        dims = (u.shape[0],)
    return QuantumOperation((NO_OUTCOME,), {NO_OUTCOME: (u,)}, tuple(dims), tuple(dims))


def identity_operation(dims: Sequence[int]) -> QuantumOperation:
    dims = tuple(dims)
    total = int(np.prod(dims)) if dims else 1
    return unitary_channel(np.eye(total, dtype=np.complex128), dims)


def relabel_outcomes(op: QuantumOperation, fn) -> QuantumOperation:
    """Rename outcome labels with ``fn``; the maps themselves are unchanged."""
    outcomes = tuple(fn(r) for r in op.outcome_set)
    if len(set(outcomes)) != len(outcomes):
        raise BadOutcome("relabeling must be injective")
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
    """Uniformly random Pauli one-time pad on ``n_qubits`` qubits.

    Each outcome is a Pauli string (the sampled key); every key occurs with
    probability 4^-n, carried by the 2^-n scaling of the Kraus matrices.
    """
    if n_qubits == 0:
        return identity_operation(())
    keys = [""]
    for _ in range(n_qubits):
        keys = [k + p for k in keys for p in "IXYZ"]
    scale = 1.0 / (2 ** n_qubits)
    kraus = {k: (scale * pauli_string_matrix(k),) for k in keys}
    dims = (2,) * n_qubits
    return QuantumOperation(tuple(keys), kraus, dims, dims)
