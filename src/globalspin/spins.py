"""Pulse ops on an N-spin register and the in-place kernel that applies them.

Spin-1/2 operators S^a = sigma^a / 2. Spin 0 occupies the highest-order
tensor factor, so on basis index b the state of spin k is bit (N-1-k).

apply_op applies exchange exp(-i xi S_i.S_j), planar exchange and global
field pulses prod_k exp(-i theta_k S_k^a) in place to the row index of a
2^N x m array (a unitary, or states as columns). On a unitary an op costs
O(N 4^N) rather than the O(8^N) of a dense product: a z field is a row
phase, an x or y field a 2x2 mix per site, and an exchange a mix of the
pair's anti-aligned rows. The dense builders are this kernel applied to
the identity; spin_operator and the eigendecomposition oracle in linalg
build the same unitaries from generators to cross-check it. The kernel
takes a register of any size, so on a wide register circuits.evaluate
plays each group of exchange-linked spins on a register of that group's
size and joins the groups afterwards.

The kernel also takes a leading draw axis: u may be a (B, 2^N, m) batch,
one entry per parameter draw. A field may then carry a (B, N) array of
angles, and an exchange or planar exchange a (B,) array of angles. A field
builds every site's 2x2 factors, for every draw, from one cos/sin pass over
its angles: a z field becomes a (B, 2^N) row phase, an x or y field a
(B, 2, 2) product per site. An exchange mixes the same rows with one
coefficient per draw, broadcast along the draw axis of the view.
An exchange with (B,) spin arrays, one pair per draw, makes one pass over
the batch: a table of each pair's rows, cached per register size, gathers
every draw's rows of its own pair, and the pass mixes them with the same
arithmetic and scatters them back. A 2-D u runs the same code as a batch
of one, so every draw keeps the bits of its own op, entry for entry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .linalg import kron

# Physical constants, pinned so reported device numbers are reproducible
# rather than CODATA-revision-sensitive.
MU_BOHR = 9.27e-24  # J/T
HBAR = 1.0546e-34  # J*s

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
AXES = ("x", "y", "z")


class IndexOutOfRange(IndexError, ValueError):
    """Spin index outside the register.

    Also a ValueError, so an out-of-range index in an input file is
    reported as an input error like every other malformed value.
    """


@dataclass(frozen=True)
class RegisterSpec:
    """N spin-1/2 sites, indices 0..N-1."""

    n_spins: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_spins <= 12:
            raise ValueError(f"register size {self.n_spins} outside 1..12")

    @property
    def dim(self) -> int:
        return 2 ** self.n_spins


def _check_index(reg: RegisterSpec, k: int) -> None:
    if not 0 <= k < reg.n_spins:
        raise IndexOutOfRange(f"spin {k} outside register of {reg.n_spins}")


def _per_draw(*spins) -> bool:
    """Whether spins name a pair per draw: any of them a (B,) array."""
    return any(isinstance(k, np.ndarray) for k in spins)


def _check_pair(reg: RegisterSpec, i, j, draws: int | None = None) -> None:
    """Two distinct spins of reg, or (draws,) int arrays of one per draw."""
    for k in (i, j):
        if isinstance(k, np.ndarray):
            if k.shape != (draws,) or not draws or k.dtype.kind not in "iu":
                raise ValueError(f"spins {k!r} for {draws} draws")
            k = k[np.argmax((k < 0) | (k >= reg.n_spins))]  # first outside
        elif isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"spin {k!r} is not an integer")
        _check_index(reg, k)
    if (np.asarray(i) == j).any() if _per_draw(i, j) else i == j:
        raise ValueError(f"spin indices coincide: {i}")


def site_bits(reg: RegisterSpec, k) -> np.ndarray:
    """Bit of spin k on every basis index: 0 for S^z = +1/2, 1 for -1/2.
    A (B,) array of spins gives one row of bits per draw."""
    shift = reg.n_spins - 1 - np.asarray(k)[..., None]
    return (np.arange(reg.dim) >> shift) & 1


def spin_operator(reg: RegisterSpec, k: int, axis: str) -> np.ndarray:
    """S_k^axis embedded in the full register."""
    _check_index(reg, k)
    if axis not in PAULI:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    m = np.array([[1.0 + 0j]])
    for q in range(reg.n_spins):
        m = kron(m, PAULI[axis] / 2 if q == k else np.eye(2))
    return m


def rotation_2x2(axis: str, angle) -> np.ndarray:
    """exp(-i angle sigma^axis / 2). z-axis result is exactly diagonal.

    angle may also be an array of angles of any shape; the result is then
    one matrix per angle, stacked as (..., 2, 2). Every entry is a cos or a
    sin of half an angle (or its negative, or zero), computed in one pass.
    """
    if axis not in PAULI:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    half = np.asarray(angle, dtype=float) / 2
    c, s = np.cos(half), np.sin(half)
    m = np.zeros(half.shape + (2, 2), dtype=complex)
    re, im = m.real, m.imag
    re[..., 0, 0] = re[..., 1, 1] = c
    if axis == "z":
        im[..., 0, 0], im[..., 1, 1] = -s, s
    elif axis == "x":
        im[..., 0, 1] = im[..., 1, 0] = -s
    else:
        re[..., 0, 1], re[..., 1, 0] = -s, s
    return m


def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only copy of values: per-draw angles, or an index table that
    is safe to cache and share between callers."""
    values = np.array(values, dtype=dtype)
    values.flags.writeable = False
    return values


class _PairOp:
    def __post_init__(self) -> None:
        """Freeze per-draw arrays: angles as floats, spins as given."""
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                object.__setattr__(self, name, _frozen(
                    value, None if name in ("i", "j") else float))


@dataclass(frozen=True)
class Exchange(_PairOp):
    """Isotropic exchange pulse with integrated angle xi on spins (i, j).

    xi may instead be a (B,) array, one angle per parameter draw, and i and
    j (B,) integer arrays, one pair per draw; such an op is played on a
    batch of B unitaries and is not hashed or compared.
    """

    i: int
    j: int
    xi: float


@dataclass(frozen=True)
class XYExchange(_PairOp):
    """Planar (XX+YY) exchange pulse with integrated angle phi; phi, i and j
    may hold one entry per draw as for Exchange."""

    i: int
    j: int
    phi: float


@dataclass(frozen=True)
class GlobalField:
    """One shared-profile field pulse: per-spin angles about one axis.

    angles may instead be a (B, n) array, one row of per-spin angles per
    parameter draw. Such a field is played by apply_op on a batch of B
    unitaries, and a Circuit that holds one plays B draws; it is not
    hashed or compared.
    """

    axis: str
    angles: tuple

    def __post_init__(self) -> None:
        if isinstance(self.angles, np.ndarray) and self.angles.ndim == 2:
            angles = _frozen(self.angles)
        else:
            angles = tuple(float(a) for a in self.angles)
        object.__setattr__(self, "angles", angles)


PulseOp = Union[Exchange, XYExchange, GlobalField]


def op_angles(op: PulseOp):
    """A field's angles or an exchange's angle, as the op holds them."""
    if isinstance(op, GlobalField):
        return op.angles
    if isinstance(op, (Exchange, XYExchange)):
        return op.xi if isinstance(op, Exchange) else op.phi
    raise TypeError(f"not a pulse op: {op!r}")


def op_draws(op: PulseOp) -> list:
    """The per-draw arrays op holds: field rows, exchange angles or spins."""
    return [a for a in vars(op).values()
            if isinstance(a, np.ndarray) and a.ndim]


def check_op(reg: RegisterSpec, op: PulseOp, draws: int | None = None) -> None:
    """Raise unless apply_op can apply op on reg.

    Two-spin ops need distinct spins inside the register; a field needs one
    angle per spin and an axis in x/y/z. An op with per-draw angles needs
    exactly `draws` of them, at least one: a field `draws` rows of that
    length, an exchange `draws` angles. Per-draw spins are `draws` integers,
    each pair distinct and inside the register. Every angle must be finite.
    All failures are ValueErrors; a non-op is a TypeError.
    """
    angles = op_angles(op)
    if isinstance(op, GlobalField):
        if op.axis not in PAULI:
            raise ValueError(f"axis must be one of {AXES}, got {op.axis!r}")
        shape = (draws, reg.n_spins)
        if not isinstance(angles, np.ndarray) and len(angles) != reg.n_spins:
            raise ValueError(
                f"{len(angles)} angles for register of {reg.n_spins}")
    else:
        _check_pair(reg, op.i, op.j, draws)
        angles = angles if isinstance(angles, np.ndarray) else (angles,)
        shape = (draws,)
    if isinstance(angles, np.ndarray):
        if angles.shape != shape or not draws:
            raise ValueError(
                f"angles of shape {angles.shape} for {draws} draws "
                f"on a register of {reg.n_spins}")
        finite = bool(np.isfinite(angles).all())
    else:
        finite = all(math.isfinite(a) for a in angles)
    if not finite:
        # One line whatever the draw count: the op kind, the field's axis
        # and the first bad entry, not the op's repr with all its arrays.
        values = np.asarray(angles, dtype=float)
        spot = np.argwhere(~np.isfinite(values))[0]
        names = (["draw"] if isinstance(angles, np.ndarray) else []) + (
            ["spin"] if isinstance(op, GlobalField) else [])
        where = "".join(f"{', ' if k else ' at '}{n} {i}" for k, (n, i)
                        in enumerate(zip(names, spot.tolist())))
        kind = (f"GlobalField {op.axis}" if isinstance(op, GlobalField)
                else type(op).__name__)
        raise ValueError(f"non-finite angle in {kind}{where}: "
                         f"{values[tuple(spot)]}")


def identity(reg: RegisterSpec, draws: int | None = None) -> np.ndarray:
    """The register's identity, or a (draws, 2^n, 2^n) stack of them, as a
    C-contiguous array that apply_op can update in place."""
    if draws is None:
        return np.eye(reg.dim, dtype=complex)
    u = np.zeros((draws, reg.dim, reg.dim), dtype=complex)
    u.reshape(draws, -1)[:, ::reg.dim + 1] = 1.0
    return u


def _apply_field(u: np.ndarray, axis: str, rows: np.ndarray) -> None:
    """u is (B, 2^n, m); rows is (1, n), one angle per spin shared by every
    draw, or (B, n), one row per draw. Each site's (1 or B, 1, 2, 2) factors
    broadcast against the (B, 2^k, 2, rest) views below."""
    factors = rotation_2x2(axis, rows)[:, :, None]
    if axis == "z":
        # Row phase: the outer product of the per-site diagonals, spin 0
        # the slowest index; one per draw once a site's angles are.
        diag = factors.diagonal(0, -2, -1)
        d = np.ones((1, 1), dtype=complex)
        for k in range(rows.shape[1]):
            d = (d[:, :, None] * diag[:, k]).reshape(len(diag), -1)
        u *= d[:, :, None]
        return
    # Site k is axis 2 of the (B, 2^k, 2, rest) view: one 2x2 product per
    # site (and draw), alternating between u and one scratch array. A site
    # at rest in every draw is skipped.
    src, dst = u, None
    b = len(u)
    for k in np.flatnonzero(rows.any(axis=0)):
        if dst is None:
            dst = np.empty_like(u)
        np.matmul(factors[:, k], src.reshape(b, 1 << k, 2, -1),
                  out=dst.reshape(b, 1 << k, 2, -1))
        src, dst = dst, src
    if src is not u:
        u[...] = src


def _scale(v: np.ndarray, c) -> None:
    """v *= c, but a lone element out of place: numpy multiplies one element
    in place on a scalar path whose complex products round apart from its
    vector path (seen on a 2-spin state of one draw)."""
    if v.size == 1:
        v[...] = v * c
    else:
        v *= c


def _mix(ends, a, b, diag, off, aligned) -> None:
    """In place: scale rows `ends` by `aligned` unless it is None, and mix a
    and b alike by [[diag, off], [off, diag]]; a (B, 1, 1, 1) is per draw."""
    for v in ends if aligned is not None else ():
        _scale(v, aligned)
    t = a * diag
    t += b * off
    _scale(b, diag)
    b += a * off
    a[...] = t


def _apply_pair(u: np.ndarray, i: int, j: int, *coefficients) -> None:
    """_mix on the rows of u, a (B, 2^n, m) batch, where spins i and j hold
    bits 00 and 11 (ends) and 01 and 10 (a and b), through in-place views."""
    i, j = min(i, j), max(i, j)
    v = u.reshape(len(u), 1 << i, 2, 1 << (j - i - 1), 2, -1)
    _mix((v[:, :, 0, :, 0], v[:, :, 1, :, 1]), v[:, :, 0, :, 1],
         v[:, :, 1, :, 0], *coefficients)


@functools.cache
def _pair_rows(dim: int) -> np.ndarray:
    """Entry (:, i, j), i != j, of this (4, n, n, 1, dim / 4) table, dim = 2^n,
    lists the rows where spins i and j hold 00, 01, 10 and 11, in order."""
    n = dim.bit_length() - 1
    bits = site_bits(RegisterSpec(n), np.arange(n))
    rows = np.argsort(2 * bits[:, None] + bits, kind="stable")
    return _frozen(np.moveaxis(rows.reshape(n, n, 4, 1, -1), 2, 0), np.intp)


def _apply_pairs(u: np.ndarray, i, j, *coefficients) -> None:
    """_apply_pair with (B,) spin arrays, one pair per draw, in one pass:
    gather each draw's rows of its (i, j), in either order, mix, scatter."""
    if not _per_draw(i, j):
        return _apply_pair(u, i, j, *coefficients)
    at = np.arange(len(u))[:, None, None], _pair_rows(len(u[0]))[:, i, j]
    g = u[at]
    _mix((g[::3],), g[1], g[2], *coefficients)
    u[at] = g


def apply_op(u: np.ndarray, reg: RegisterSpec, op: PulseOp) -> np.ndarray:
    """Left-multiply u by op's unitary, in place, and return u.

    u is a C-contiguous complex128 array of 2^n rows: a unitary, or states
    as columns. It may also be a (B, 2^n, m) batch, one entry per parameter
    draw: ops with one set of angles act on every entry alike, and an op
    with per-draw angles or spins plays draw b on entry b. op must pass
    check_op; apply_op does not check it again (Circuit checks its ops once,
    when it is built), but does check that per-draw arrays match the batch.
    """
    if (u.dtype != np.complex128 or not u.flags.c_contiguous
            or u.ndim not in (2, 3) or u.shape[-2] != reg.dim):
        raise ValueError(f"need a C-contiguous complex array with {reg.dim} "
                         f"rows, got {u.dtype} {u.shape}")
    angles = op_angles(op)
    held = [len(a) for a in op_draws(op)]
    if held and (u.ndim != 3 or set(held) != {len(u)}):
        raise ValueError(f"{held[0]} draws for a batch of shape {u.shape}")
    batch = u if u.ndim == 3 else u[None]
    if isinstance(op, GlobalField):
        _apply_field(batch, op.axis, angles if held else
                     np.array(angles, dtype=float)[None])
        return u
    # One angle per draw, on the leading axis of the kernel's 4-D views.
    angles = np.reshape(angles, (-1, 1, 1, 1)) if np.ndim(angles) else angles
    if isinstance(op, Exchange):
        # e^{i xi/4} (c I - i s SWAP): SWAP fixes the aligned rows, so they
        # only pick up e^{i xi/4} (c - i s). That product is written out in
        # real parts: numpy may fuse a multiply and an add in a product of
        # complex arrays, but not in one of scalars, and a draw in a batch
        # must get the bits it gets alone.
        phase = np.exp(1j * angles / 4)
        c, s = np.cos(angles / 2), np.sin(angles / 2)
        pr, pi = phase.real, phase.imag
        _apply_pairs(batch, op.i, op.j, phase * c, phase * (-1j * s),
                     (pr * c + pi * s) + 1j * (pi * c - pr * s))
    else:
        c, s = np.cos(angles / 2), np.sin(angles / 2)
        _apply_pairs(batch, op.i, op.j, c, -1j * s, None)
    return u


def exchange_unitary(reg: RegisterSpec, i: int, j: int, xi: float) -> np.ndarray:
    """exp(-i xi S_i.S_j) via the swap decomposition.

    S_i.S_j = (SWAP - I/2)/2, so the evolution closes to
    e^{i xi/4} (cos(xi/2) I - i sin(xi/2) SWAP).
    """
    _check_pair(reg, i, j)
    return apply_op(np.eye(reg.dim, dtype=complex), reg, Exchange(i, j, xi))


def xy_exchange_unitary(reg: RegisterSpec, i: int, j: int, phi: float) -> np.ndarray:
    """exp(-i phi (S_i^x S_j^x + S_i^y S_j^y)).

    The generator vanishes outside the anti-aligned two-spin block and acts
    as half a Pauli-x inside it, so the evolution is the identity on the
    aligned rows and cos(phi/2) I - i sin(phi/2) X on the anti-aligned pair.
    """
    _check_pair(reg, i, j)
    return apply_op(np.eye(reg.dim, dtype=complex), reg, XYExchange(i, j, phi))


def global_field_unitary(reg: RegisterSpec, p: GlobalField) -> np.ndarray:
    """prod_k exp(-i angles[k] S_k^axis): the field kernel on the identity.

    A field with (B, n) angle rows gives the (B, 2^n, 2^n) stack of its
    draws' unitaries."""
    draws = len(p.angles) if isinstance(p.angles, np.ndarray) else None
    check_op(reg, p, draws)
    return apply_op(identity(reg, draws), reg, p)


def zeeman_angles(g: Sequence[float], b_tesla: Sequence[float],
                  profile_integral_s: float) -> tuple:
    """Rotation angles accumulated by each spin over one field pulse.

    The Zeeman term H = g mu_B B S^a drives exp(-i theta S^a) with
    theta = g mu_B B integral(f) / hbar; this is the one place the
    gyromagnetic rate is written.
    """
    if len(g) != len(b_tesla):
        raise ValueError(f"{len(g)} g-factors vs {len(b_tesla)} fields")
    if profile_integral_s < 0:
        raise ValueError(f"profile integral {profile_integral_s}")
    return tuple(gk * MU_BOHR / HBAR * bk * profile_integral_s
                 for gk, bk in zip(g, b_tesla))
