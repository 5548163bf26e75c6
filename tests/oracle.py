"""Reference constructions the tests check the package against. They use
numpy only, so an oracle shares no code with what it checks."""

import numpy as np

# Largest entry of U†U - I that still counts as unitary.
UNITARY_TOL = 1e-12


def swap_matrix(n_spins: int, i: int, j: int) -> np.ndarray:
    """Permutation unitary exchanging the states of spins i and j of an
    n_spins register, spin 0 the most significant bit."""
    idx = np.arange(1 << n_spins)
    shift_i, shift_j = n_spins - 1 - i, n_spins - 1 - j
    differ = ((idx >> shift_i) ^ (idx >> shift_j)) & 1
    perm = idx ^ (differ << shift_i) ^ (differ << shift_j)
    m = np.zeros((idx.size, idx.size), dtype=complex)
    m[perm, idx] = 1.0
    return m


def unitarity_error(u: np.ndarray) -> float:
    """Largest entry of U†U - I, infinite for a non-square array."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return np.inf
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    return unitarity_error(u) <= tol


def check_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    """Return u as a complex array, or raise ValueError if it is not
    unitary to tol."""
    err = unitarity_error(u)
    if not err <= tol:
        raise ValueError(f"matrix is not unitary to tolerance {tol:.1e} "
                         f"(deviation {err:.3e})")
    return np.asarray(u, dtype=complex)
