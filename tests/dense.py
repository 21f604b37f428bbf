"""Dense forms of a state, for the tests' oracles: a state from its D×D
entries, and the D×D matrix of a state.  ``qcore`` makes neither."""

import numpy as np

from qgosim.qcore import DensityMatrix, ShapeError


def dense_state(space, m) -> DensityMatrix:
    """The state whose entries are ``m``, held by its rows whose bits are
    not all zero, as a parsed trace holds it."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.shape != (space.total_dim,) * 2:
        raise ShapeError(f"entries shape {m.shape} does not match dim {space.total_dim}")
    held = np.flatnonzero(m.view(np.int64).any(axis=1))
    return DensityMatrix(space, rows=(held, m[held]))


def dense(rho: DensityMatrix) -> np.ndarray:
    """ρ as one D×D array, from its distinct rows."""
    index, blocks = rho.distinct_rows()
    return np.concatenate([*blocks])[index]
