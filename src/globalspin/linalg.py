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


def update_phase_normalized(h, block, tops) -> None:
    """Feed hash h the real and then the imaginary parts of a matrix, with
    the phase of its anchor entry removed and rounded to 9 decimals: a
    phase-invariant fingerprint, hashed in place, not copied to bytes.

    block(k) builds row block k of the len(tops) equal ones, a new array
    each call, and tops[k] is that block's largest modulus to within a few
    ulps. Each block is built once, the anchor's first; its imaginary parts
    are stored and hashed last. The anchor is the first entry in flat order
    within 1e-9 of the largest top, so entries tied in modulus up to
    rounding (a rotation's bystander blocks) pick the same anchor whatever
    their last bits. A block whose top reaches that edge but no entry of
    which does is passed over for the next one that does."""
    edge = np.max(tops) - 1e-9
    for anchored in [*np.flatnonzero(np.asarray(tops) >= edge), 0]:
        b = block(anchored)
        hit = np.abs(b) >= edge
        if hit.any():
            break
    anchor = b.flat[int(np.argmax(hit))]
    real, imag = np.empty(b.shape), np.empty((len(tops),) + b.shape)
    for k in range(len(tops)):
        v = b if k == anchored else block(k)
        np.divide(v, anchor / abs(anchor), out=v)
        np.round(v.real, 9, out=real)
        # +0.0 collapses -0.0 so the byte image is sign-of-zero stable.
        h.update(np.add(real, 0.0, out=real))
        np.round(v.imag, 9, out=imag[k])
    h.update(np.add(imag, 0.0, out=imag))
