"""Test-side forms that ``qcore`` does not make: a state from its D×D
entries, the D×D matrix of a state, and the identity operation."""

import numpy as np

from qgosim.qcore import DensityMatrix, QuantumOperation, ShapeError, unitary_channel


def dense_state(space, m) -> DensityMatrix:
    """The state whose entries are ``m``, held by its rows whose bits are
    not all zero, as a parsed trace holds it; ``from_rows`` checks it."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.shape != (space.total_dim,) * 2:
        raise ShapeError(f"entries shape {m.shape} does not match dim {space.total_dim}")
    held = np.flatnonzero(m.view(np.int64).any(axis=1))
    return DensityMatrix.from_rows(space, held, m[held])


def dense(rho: DensityMatrix) -> np.ndarray:
    """ρ as one D×D array, from its distinct rows."""
    index, blocks = rho.distinct_rows()
    return np.concatenate([*blocks])[index]


def identity_operation(dims) -> QuantumOperation:
    """The identity on slots ``dims``, with the one outcome ⊥."""
    dims = tuple(dims)
    return unitary_channel(np.eye(int(np.prod(dims)), dtype=np.complex128), dims)
