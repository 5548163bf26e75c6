"""Dense complex matrix kernel: tensor products, Hermitian exponentials,
and global-phase-invariant comparison.

All matrices are square numpy arrays of complex128. Register matrices have
dimension 2**n. Tolerances used across the package live here as named
constants so every module agrees on what "equal" means.
"""

from __future__ import annotations

import math

import numpy as np

# Schedule round trips: a compiled schedule replayed against its circuit.
TOL_COMPILED = 1e-8
# Hermiticity / unitarity admission checks.
TOL_STRUCTURE = 1e-12


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class NotHermitian(ValueError):
    """Matrix fails the Hermiticity check."""


def max_abs(m: np.ndarray) -> float:
    """Largest absolute entry; the package's matrix norm of record."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def max_abs_per_draw(m: np.ndarray) -> np.ndarray:
    """max_abs of each entry of a stack along its leading (draw) axis; a NaN
    entry gives NaN."""
    return np.abs(m).reshape(len(m), -1).max(axis=1)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with a's index major."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"left operand is not square: {a.shape}")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatch(f"right operand is not square: {b.shape}")
    return np.kron(a, b)


def hermitian_expm(h: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-1j * scale * h) for Hermitian h, via eigendecomposition.

    Serves as the generic oracle against which closed-form unitaries are
    cross-checked. Raises NotHermitian if h deviates from h† by more than
    TOL_STRUCTURE in max-abs norm.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"not square: {h.shape}")
    if max_abs(h - h.conj().T) > TOL_STRUCTURE:
        raise NotHermitian(f"deviation {max_abs(h - h.conj().T):.3e}")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * scale * w)) @ v.conj().T


def phase_distance(u: np.ndarray, v: np.ndarray):
    """Global-phase-invariant distance sqrt(max(0, 2 - 2|tr(u†v)|/dim)).

    Computed as the Frobenius distance to the phase-aligned partner,
    norm(u - phi*v)/sqrt(dim) with phi = conj(t)/|t|, t = tr(u†v). This is
    the same quantity but keeps full precision near zero, where the direct
    formula loses half the significant digits to cancellation.

    u and v may carry a leading draw axis, (B, dim, dim): the distance is
    then taken entry by entry and returned as an array of B. Each entry's
    distance is bit-identical to the distance of that pair alone.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim not in (2, 3):
        raise DimensionMismatch(f"{u.shape} vs {v.shape}")
    uf = u.reshape(u.shape[:-2] + (-1,))
    vf = v.reshape(uf.shape)
    t = np.vecdot(uf, vf)  # tr(u†v) without forming the product
    # hypot, not np.abs: on arrays np.abs takes a vectorized path whose last
    # bit can differ from abs of one scalar.
    at = np.hypot(t.real, t.imag)
    zero = at == 0.0  # orthogonal: the distance is sqrt(2), set below
    # u - phi v, formed in one array: the caller already holds u and v.
    w = np.multiply((np.conj(t) / (at + zero))[..., None], vf)
    np.subtract(uf, w, out=w)
    sq = np.vecdot(w.real, w.real) + np.vecdot(w.imag, w.imag)
    dist = np.sqrt(sq) / math.sqrt(u.shape[-2])
    if u.ndim == 2:
        return math.sqrt(2.0) if zero else float(dist)
    dist[zero] = math.sqrt(2.0)
    return dist


def update_phase_normalized(h, m, blocks: int = 1) -> None:
    """Feed hash h the real and then the imaginary parts of m, with the
    phase of its anchor entry removed and rounded to 9 decimals: a
    phase-invariant fingerprint. The arrays are hashed in place, not copied
    to bytes.

    m is a matrix, or a function building row block k of its `blocks` equal
    ones: a first pass finds the largest modulus, a second feeds the real
    parts and stores the imaginary parts, which are hashed last.

    The anchor is the first entry in flat order whose modulus is within
    1e-9 of the largest, so entries tied in modulus up to rounding (a
    rotation's bystander blocks) pick the same anchor whatever the last
    bits of each. Only the first block that reaches it is built again."""
    block = m if callable(m) else lambda k: m
    tops = [np.abs(block(k)).max() for k in range(blocks)]
    top = np.max(tops)
    b = block(next((k for k, t in enumerate(tops) if t >= top - 1e-9), 0))
    anchor = b.flat[int(np.argmax(np.abs(b) >= top - 1e-9))]
    imag = np.empty((blocks,) + b.shape)
    for k in range(blocks):
        normalized = block(k) / (anchor / abs(anchor))
        # +0.0 collapses -0.0 so the byte image is sign-of-zero stable.
        h.update(np.round(normalized.real, 9) + 0.0)
        np.add(np.round(normalized.imag, 9), 0.0, out=imag[k])
    h.update(imag)
