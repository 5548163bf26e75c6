"""Dense complex matrix kernel: tensor products, Hermitian exponentials,
and global-phase-invariant comparison.

All matrices are square numpy arrays of complex128. Register matrices have
dimension 2**n. Tolerances used across the package live here as named
constants so every module agrees on what "equal" means.
"""

from __future__ import annotations

import functools
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


def _kept_block(kept, k: int, sums: dict) -> tuple:
    """Row block k's kept products, 1 times one entry per part in the
    parts' order as circuits.join multiplies, and their flat positions."""
    picked = [select(k & mask) for select, mask in kept]
    vals = np.ones(1, dtype=complex)
    for v, _ in picked:  # both 2-d: numpy's (1,) * (1, 1) loop rounds apart
        vals = np.multiply(vals[None], v[:, None]).ravel()
    if (key := tuple(p.tobytes() for _, p in picked)) not in sums:
        sums[key] = functools.reduce(lambda a, p: (a + p[:, None]).ravel(),
                                     [p for _, p in picked], np.zeros(1, int))
    return vals, sums[key]


def update_phase_normalized(h, parts, blocks: int = 1) -> None:
    """Feed hash h the real and then the imaginary parts of the tensor
    product of parts ((group, matrix), ...) on ascending groups that tile
    the spins, its anchor's phase removed and rounded to 9 decimals, from
    one zeroed buffer of a row block of `blocks`. The anchor is the first
    entry in flat order within 1e-9 of the largest block top (the product
    of the parts' row maxima), in a block with such an entry. Only entries
    that can survive rounding are multiplied out: a part entry whose
    modulus times the other parts' largest is under 4e-10 makes products
    under 5e-10, which round to +0.0. For an edge from 8e-10 to 1e5 no such
    product could anchor; elsewhere every entry is taken."""
    n, b = sum(len(g) for g, _ in parts), blocks.bit_length() - 1
    rows = np.prod(np.broadcast_arrays(*(np.abs(f).max(axis=-1).reshape(
        [2 if s in g else 1 for s in range(n)]) for g, f in parts)), axis=0)
    tops = rows.reshape(blocks, -1).max(axis=1)
    edge = np.max(tops) - 1e-9
    cut = 4e-10 if 8e-10 <= edge < 1e5 else 0.0
    peaks, kept, sums = [float(np.abs(f).max()) for _, f in parts], [], {}
    for i, (g, f) in enumerate(parts):
        # w[r]: part row r's register row bits; the top b are its block key.
        w = (np.arange(len(f))[:, None] >> np.arange(len(g))[::-1] & 1) @ (
            1 << n - 1 - np.array(g))
        lo = np.searchsorted(w >> n - b, np.arange(blocks + 1))  # key's rows
        # Each key's rows share their bits below the top b: one placing.
        place = ((w[:lo[1]] % (1 << n - b) << n)[:, None] + w).ravel()
        @functools.lru_cache(maxsize=1)  # the blocks come in order
        def select(key, f=f, lo=lo, place=place,
                   rest=math.prod(peaks[:i] + peaks[i + 1:])):
            sub = f[lo[key]:lo[key + 1]].reshape(-1)
            at = np.flatnonzero(~(np.abs(sub) * rest < cut))  # a NaN is kept
            return sub[at], place[at]
        kept.append((select, w[-1] >> n - b))
    for anchored in [*np.flatnonzero(tops >= edge), 0]:
        vals, pos = first = _kept_block(kept, anchored, sums)
        if (hit := np.abs(vals) >= edge).any():
            break
    anchor = vals[pos == (pos[hit].min() if hit.any() else 0)][0]

    def rounded():  # +0.0 collapses -0.0: the bytes are sign-of-zero stable
        for k in range(blocks):
            vals, pos = first if k == anchored else _kept_block(kept, k, sums)
            vals = vals / (anchor / abs(anchor))
            imag.append((pos, np.round(vals.imag, 9) + 0.0))
            yield pos, np.round(vals.real, 9) + 0.0
        yield from imag  # hashed last

    buf, last, imag = np.zeros((1 << 2 * n) // blocks), np.zeros(0, int), []
    for pos, v in rounded():
        if pos is not last:  # zero what the next block does not overwrite
            buf[last], last = 0.0, pos
        buf[pos] = v
        h.update(buf)
