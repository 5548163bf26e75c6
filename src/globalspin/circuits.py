"""Pulse circuits: representation, evaluation, verification, and the
builders for the named gate constructions.

A circuit is an ordered list of elementary pulses; the leftmost op acts
first. A Circuit checks its ops against its register once, when it is
built, so evaluation can fold them into one running unitary with the
in-place kernel spins.apply_op: each op acts on the row index at O(n 4^n),
and no op matrix is formed. Every spin outside an exchange pair is a
bystander of that op, so the spins split into groups no exchange links.
One planner, _parts, splits a circuit into parts: from FACTOR_MIN_SPINS
spins up each such group on its own 2^|g| register, and all 1-spin groups,
which only fields reach, in one batch; below that, and for one group, the
full register. One player, _play, a plain loop of the kernel, plays each
part. join multiplies the parts out by one broadcast product; a digest
multiplies out only the entries that survive its rounding. Given a path
(the states, one per op, of the last play on one register and draw
count), _play resumes after the ops it shares with it; synthesis's
verification keeps one such path per part, and factor none. Builders
return the circuit with its intended gate target, so one verification
path covers hand-built and synthesized ones; a target is built once, on
its first read, from inputs frozen at the call.

A circuit's ops may hold per-draw angles ((B, n) field rows, (B,)
exchange angles) and pairs ((B,) spin arrays) next to shared ones. The
circuit reads its draw count B from them, and evaluate returns the
(B, 2^n, 2^n) stack of the draws' unitaries in one kernel pass per op. The
pair builders take their angles as floats or (B,) arrays, and their pair
as ints or (B,) arrays, so one call covers every layout of a register.
Bystander angles are a map from spin to angle, or for per-draw pairs a
(B, n - 2) array in ascending spin order. Given arrays, each draw is the
circuit and target its floats would give, and a target that every draw
shares stays one matrix. verify_target broadcasts such a target over the
draws, and the bystander check takes the same leading draw axis and each
draw's acted spins.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from typing import Mapping, Optional, Sequence

import numpy as np

from .grammar import fields, walk
from .linalg import (TOL_STRUCTURE, DimensionMismatch, max_abs,
                     max_abs_per_draw, phase_distance)
from .spins import (Exchange, GlobalField, RegisterSpec, XYExchange,
                    _check_pair, _per_draw, apply_op, check_op,
                    global_field_unitary, identity, op_draws, rotation_2x2,
                    site_bits)


class NotUnitary2x2(ValueError):
    """Single-spin compile target is not a 2x2 unitary."""


@dataclass(frozen=True)
class Circuit:
    """Ordered pulse ops on one register, each checked by spins.check_op.

    draws is read from the ops: None when none holds per-draw angles or
    spins, else the length B of the first per-draw array, which every op
    must share; the circuit then plays B parameter draws and evaluates to
    a stack.
    """

    register: RegisterSpec
    ops: tuple
    draws: Optional[int] = field(init=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        draws = next((len(a) for op in self.ops for a in op_draws(op)), None)
        object.__setattr__(self, "draws", draws)
        for op in self.ops:
            check_op(self.register, op, draws)

    @property
    def step_count(self) -> int:
        return len(self.ops)

    @property
    def exchange_count(self) -> int:
        return sum(isinstance(o, (Exchange, XYExchange)) for o in self.ops)

    @property
    def field_count(self) -> int:
        return sum(isinstance(o, GlobalField) for o in self.ops)


class Equivalence(enum.Enum):
    EXACT = "exact"
    GLOBAL_PHASE = "up_to_global_phase"
    LOCAL_Z = "up_to_local_z"


@dataclass(frozen=True)
class GateTarget:
    """A gate's intended unitary, acted spins and equivalence. unitary may
    be given as a function of no arguments, as the builders give it over
    inputs they froze at the call: the first read calls it, once, and keeps
    its array, so a caller that reads only the circuit never builds the
    dense 2^n x 2^n matrix."""

    unitary: np.ndarray  # (2^n, 2^n) shared by all draws, or (B, 2^n, 2^n)
    acted_spins: frozenset  # shared by all draws, or each draw's: (B, n) bool
    equivalence: Equivalence

    def __post_init__(self) -> None:
        if callable(self.unitary):
            object.__setattr__(self, "_build", self.__dict__.pop("unitary"))

    def __getattr__(self, name):  # reached only while unitary is unbuilt
        if name != "unitary":
            raise AttributeError(name)
        object.__setattr__(self, "unitary", self._build())
        return self.unitary


@dataclass(frozen=True)
class VerificationReport:
    # Floats, or (B,) arrays of one value per draw for a circuit of B draws.
    distance: float
    bystander_deviation: float
    equivalence: Equivalence
    tolerance: float
    passed: bool


# Registers this wide and up are evaluated group by group when exchange
# splits them. On the 11-op x rotation (pair 0-1 plus bystanders; best of
# 41, Intel Xeon, numpy 2.4) full-register against grouped evaluate takes
# 0.30 against 0.46 ms at 5 spins, 0.46 against 0.48 at 6, 1.1 against 0.56
# at 7, 5.2 against 1.1 at 8 and 95 against 5.2 at 10.
FACTOR_MIN_SPINS = 7


def evaluate(c: Circuit) -> np.ndarray:
    """Ordered product of the ops' unitaries; first op acts first. For a
    circuit of B draws, the (B, 2^n, 2^n) stack of the draws' products:
    the join of factor(c), or its one part."""
    parts = factor(c)
    return parts[0][1] if len(parts) == 1 else join(parts)


def factor(c: Circuit, groups: Optional[Sequence] = None) -> tuple:
    """c's unitary as parts ((group, unitary), ...), smallest group first:
    c played on each ascending group of spins that its exchanges link (or
    of the coarser partition given), or on the whole register for one
    group or below FACTOR_MIN_SPINS spins."""
    lead, parts = (c.draws,) if c.draws else (), []
    for gs, n, draws, ops in _parts(c, groups):
        u = _play(RegisterSpec(n), draws, ops)
        parts += zip(gs, u.reshape((len(gs),) + lead + u.shape[-2:]))
    return tuple(parts)


def _parts(c: Circuit, groups: Optional[Sequence] = None) -> list:
    """c's parts as entries (groups, spins, draws, ops), ops on a register
    of that many spins: the whole register below FACTOR_MIN_SPINS spins or
    for one group; else the k 1-spin groups as one batch of k·B draws (B = 1
    without draws), a field's angles its (k·B, 1) rows, then each larger
    group, in ascending size, its own entry, its ops mapped on by _on."""
    n = c.register.n_spins
    if n >= FACTOR_MIN_SPINS and groups is None:
        groups = _exchange_groups(n, c.ops)
    if n < FACTOR_MIN_SPINS or len(groups) < 2:
        return [((tuple(range(n)),), n, c.draws, c.ops)]
    lone = [g[0] for g in groups if len(g) == 1]
    k, lead = len(lone), (c.draws,) if c.draws else ()
    batch = [(tuple((s,) for s in lone), 1, k * (c.draws or 1), [
        GlobalField(op.axis, np.broadcast_to(np.asarray(op.angles)[..., lone],
                                             lead + (k,)).T.reshape(-1, 1))
        for op in c.ops if isinstance(op, GlobalField)])] if lone else []
    # Smallest first: every partial product of a join but the last is then
    # at most a quarter of the result.
    return batch + [((g,), len(g), c.draws, [
        _on(g, op) for op in c.ops
        if isinstance(op, GlobalField) or _spins(op)[0] in g])
        for g in sorted((tuple(g) for g in groups if len(g) > 1), key=len)]


def _play(reg: RegisterSpec, draws: Optional[int], ops: Sequence,
          path: Optional[list] = None,
          keep: Optional[int] = None) -> np.ndarray:
    """The ops folded into one running unitary (or one per draw) on reg, as
    a fresh array. path, if given, lists (op, state after it) of the last
    play on reg and draws: the play resumes after the leading ops (the same
    objects) it shares with path, and leaves path holding its own states,
    only the first keep of them if keep is given."""
    keep = len(ops) if keep is None else keep
    done = 0
    if path is not None:
        while done < min(len(ops), len(path)) and ops[done] is path[done][0]:
            done += 1
    u = path[done - 1][1].copy() if done else identity(reg, draws)
    if path is not None:
        del path[min(done, keep):]
    for op in ops[done:]:
        apply_op(u, reg, op)
        if path is not None and len(path) < keep:
            path.append((op, u.copy()))
    return u


def _on(g: tuple, op):
    """op as it acts on the register of the ascending spins g alone."""
    if isinstance(op, GlobalField):
        return GlobalField(op.axis, np.asarray(op.angles)[..., list(g)])
    find = partial(np.searchsorted, g) if _per_draw(op.i, op.j) else g.index
    return replace(op, i=find(op.i), j=find(op.j))


def join(parts: tuple) -> np.ndarray:
    """The tensor product of parts ((group, matrices), ...), factor's or
    any on ascending groups that tile the spins: each entry is 1 times one
    entry per part in the parts' order."""
    n = sum(len(g) for g, _ in parts)
    lead = parts[0][1].shape[:-2]
    u = np.ones(lead + (1,) * (2 * n), dtype=complex)
    for g, f in parts:
        # The group's rows, then its columns, with a 1 at every other site:
        # g is ascending, so the group's own index order is kept.
        shape = [1] * (2 * n)
        for s in g:
            shape[s] = shape[n + s] = 2
        u = u * f.reshape(lead + tuple(shape))
    return u.reshape(lead + (1 << n, 1 << n))


def combined_distance(dg: np.ndarray) -> np.ndarray:
    """phase_distance of a tensor product from its parts' distances dg on
    the last axis: |tr(u†v)|/dim is the product of the parts' 1 - d_g²/2,
    so d² = -2 expm1(sum log1p(-d_g²/2)); + 0.0 reads sqrt(-0.0) as 0.0."""
    with np.errstate(divide="ignore"):  # an orthogonal part: log1p(-1)
        return np.sqrt(-2.0 * np.expm1(
            np.log1p(-np.minimum(dg * dg / 2.0, 1.0)).sum(axis=-1))) + 0.0


def factored_distance(u: tuple, v: tuple) -> float:
    """combined_distance of two factored unitaries on the same groups."""
    return float(combined_distance(np.array(
        [phase_distance(a, b) for (_, a), (_, b) in zip(u, v)])))


def _spins(op) -> list:
    """An exchange's i and j, or for per-draw pairs every i then every j."""
    if _per_draw(op.i, op.j):
        return np.append(op.i, op.j).tolist()
    return [op.i, op.j]


def _exchange_groups(n: int, ops) -> list:
    """The spins 0..n-1 split into the groups that exchange ops link,
    directly or through other spins; each group ascending. An exchange
    with per-draw pairs links every spin that any of its draws uses."""
    label = list(range(n))
    for op in ops:
        if isinstance(op, (Exchange, XYExchange)):
            old = [label[s] for s in _spins(op)]
            label = [old[0] if x in old else x for x in label]
    return [[s for s in range(n) if label[s] == x] for x in sorted(set(label))]


def _local_z_aligned_distance(u: np.ndarray, target: np.ndarray,
                              reg: RegisterSpec, i: int, j: int) -> float:
    """Distance from u to D target minimized over D = diag(p^bit_i q^bit_j).

    Grouping diag(u target†) by the (bit_i, bit_j) classes reduces the
    torus optimization to g(q) = |m00 + q m01| + |m10 + q m11| over
    |q| = 1. A dense scan (one numpy expression over 2049 angles) finds the
    highest peak of g, and alternating the closed-form optimal p for fixed
    q and optimal q for fixed p climbs it. The distance is then the
    Frobenius difference against the explicitly aligned target rather than
    sqrt(2 - 2 f / dim), whose cancellation floors near 1e-8.
    """
    r = (u * target.conj()).sum(axis=1)  # diag(u target†), in O(4^n)
    bi = site_bits(reg, i)
    bj = site_bits(reg, j)
    m = np.zeros((2, 2), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            m[a, b] = r[(bi == a) & (bj == b)].sum()

    angles = np.linspace(0.0, 2 * math.pi, 2049)
    q_conj = np.exp(1j * angles)
    scan = (np.abs(m[0, 0] + q_conj * m[0, 1])
            + np.abs(m[1, 0] + q_conj * m[1, 1]))
    # The scan locates the basin to within one grid step. Alternating
    # closed-form updates of p and q (each an exact coordinate maximizer)
    # climb from its argmax to full precision.
    qv = np.array([1.0, np.exp(-1j * angles[np.argmax(scan)])])
    pv = np.array([1.0, 1.0], dtype=complex)
    for _ in range(100):
        cs = m @ qv.conj()
        pv = np.where(np.abs(cs) > 0, cs / np.where(np.abs(cs) > 0,
                                                    np.abs(cs), 1.0), pv)
        ds = pv.conj() @ m
        qv = np.where(np.abs(ds) > 0, ds / np.where(np.abs(ds) > 0,
                                                    np.abs(ds), 1.0), qv)
    d = np.where(bi == 0, pv[0], pv[1]) * np.where(bj == 0, qv[0], qv[1])
    return float(np.linalg.norm(u - d[:, None] * target)
                 / math.sqrt(reg.dim))


def verify_target(c: Circuit, t: GateTarget, tol: float) -> VerificationReport:
    """Evaluate c and compare with t under its equivalence relation.

    Also measures bystander leakage: for every spin outside t.acted_spins
    the evaluated unitary must commute with that spin's S^z and S^x, which
    holds exactly when its action there is identity up to phase. Both
    commutators are read off u directly (see _commutator_deviation), on the
    draws where the spin is a bystander. Then an EXACT target is subtracted
    into u, evaluate's fresh array, so no difference stack is formed.

    For a circuit of B draws, t.unitary is the (B, 2^n, 2^n) stack of
    targets or one matrix broadcast over the draws (any other shape raises
    DimensionMismatch), and t.acted_spins may be a (B, n) mask of each
    draw's acted spins; the report then holds one distance and one
    deviation per draw, and passes only if every draw does. Values fold
    with numpy's max, so a NaN anywhere fails the report.
    """
    u = evaluate(c)
    try:
        target = np.broadcast_to(t.unitary, u.shape)
    except ValueError:
        raise DimensionMismatch(f"{u.shape} vs {t.unitary.shape}") from None
    u3, t3 = (u, target) if c.draws else (u[None], target[None])
    acted = t.acted_spins
    if not isinstance(acted, np.ndarray):
        acted = [k in acted for k in range(c.register.n_spins)]
    acted = np.broadcast_to(acted, (len(u3), c.register.n_spins))
    if t.equivalence is Equivalence.LOCAL_Z and (acted.sum(axis=1) != 2).any():
        raise ValueError("local-z factoring needs exactly two acted spins")
    byst = np.zeros(len(u3))
    for k in np.flatnonzero(~acted.all(axis=0)):
        rows = np.flatnonzero(~acted[:, k])
        byst[rows] = np.maximum(byst[rows], _commutator_deviation(
            u3 if len(rows) == len(u3) else u3[rows], c.register, k))
    if t.equivalence is Equivalence.EXACT:
        dist = max_abs_per_draw(np.subtract(u3, t3, out=u3))
    elif t.equivalence is Equivalence.GLOBAL_PHASE:
        dist = phase_distance(u3, t3)
    else:
        dist = np.array([_local_z_aligned_distance(
            ub, tb, c.register, *np.flatnonzero(a).tolist())
            for ub, tb, a in zip(u3, t3, acted)])
    passed = bool((dist <= tol).all() and (byst <= tol).all())
    if not c.draws:
        dist, byst = float(dist[0]), float(byst[0])
    return VerificationReport(dist, byst, t.equivalence, tol, passed)


def _commutator_deviation(u: np.ndarray, reg: RegisterSpec,
                          k: int) -> np.ndarray:
    """max(max_abs([u_b, S_k^z]), max_abs([u_b, S_k^x])) for every entry u_b
    of a (B, 2^n, 2^n) stack, as a (B,) array, without forming S_k.

    With rows and columns split at spin k's bit, [u, S^z] is +-u on the
    blocks where the row and column bits differ and 0 elsewhere, and
    [u, S^x] = (u F - F u)/2 for the bit flip F. Its rows where the bit is
    1 are its rows where the bit is 0 negated, columns flipped, so it is
    read off the latter, and halving the difference once gives the bits of
    the dense products u S - S u (halving is exact short of subnormals).
    """
    high, low = 1 << k, 1 << (reg.n_spins - 1 - k)
    v = u.reshape(len(u), high, 2, low, high, 2, low)
    dz = np.maximum(max_abs_per_draw(v[:, :, 0, :, :, 1]),
                    max_abs_per_draw(v[:, :, 1, :, :, 0]))
    dx = max_abs_per_draw(v[:, :, 0, :, :, ::-1] - v[:, :, 1]) * 0.5
    return np.maximum(dz, dx)


def _at(reg: RegisterSpec, k) -> np.ndarray:
    """Which spin is k: an (n,) mask, or a (B, n) mask for (B,) spins."""
    return np.arange(reg.n_spins) == np.asarray(k)[..., None]


def _acted(reg: RegisterSpec, *spins):
    """A target's acted spins: a frozenset, or a (B, n) mask for (B,) spins."""
    if not _per_draw(*spins):
        return frozenset(spins)
    return reduce(np.logical_or, (_at(reg, k) for k in spins))


def _angle_vector(reg: RegisterSpec, i, j, a_i, a_j, others=None,
                  default=0.0):
    """a_i at spin i, a_j at j, and at each other spin its bystander angle
    in others (in either form the module docstring gives) or default."""
    many = _per_draw(i, j)
    if others is not None and isinstance(others, Mapping) == many:
        raise ValueError(f"bystander angles as {type(others).__name__}, not "
                         f"{'an array' if many else 'a map'}")
    if many:
        at_i, at_j = _at(reg, i), _at(reg, j)
        col = lambda a: np.asarray(a, dtype=float)[..., None]
        rows = np.where(at_i, col(a_i), np.where(at_j, col(a_j), col(default)))
        if others is not None:
            rows[~(at_i | at_j)] = np.broadcast_to(
                others, (len(rows), reg.n_spins - 2)).ravel()
        return rows
    vec = [default] * reg.n_spins
    vec[i], vec[j] = a_i, a_j
    for k, val in (others or {}).items():
        if k in (i, j):
            raise ValueError(f"spin {k} is not a bystander here")
        _check_pair(reg, i, k)  # k is an integer spin of reg
        vec[k] = val
    return _field_angles(vec)


def _field_angles(vec: list) -> np.ndarray:
    """One angle per spin, each a float or a (B,) array of per-draw angles,
    as a GlobalField takes them: the (n,) angles when no entry is an array,
    else the (B, n) rows. Filled by column: np.stack is 2.5x slower here."""
    rows = np.empty(np.broadcast(*vec).shape + (len(vec),))
    for k, a in enumerate(vec):
        rows[..., k] = a
    return rows


def _diag_zz_phase(reg: RegisterSpec, i: int, j: int, coeff) -> np.ndarray:
    """exp(-i coeff S_i^z S_j^z), computed on the diagonal directly; a (B,)
    array of coefficients or of spins gives the (B, 2^n, 2^n) stack."""
    bi = site_bits(reg, i)
    bj = site_bits(reg, j)
    # S^z eigenvalue is +1/2 for bit 0, -1/2 for bit 1; product is +-1/4.
    prod = np.where(bi == bj, 0.25, -0.25)
    diag = np.exp(-1j * np.asarray(coeff)[..., None] * prod)
    out = np.zeros(diag.shape + (reg.dim,), dtype=complex)
    out[..., np.arange(reg.dim), np.arange(reg.dim)] = diag
    return out


def swap_conjugation(reg: RegisterSpec, i, j, angle_i, angle_j,
                     bystander_angles=None):
    """Exchange conjugation of a z pulse; swaps which spin gets which angle.

    Returns the 3-op circuit and its exact target: the same field pulse with
    the pair angles interchanged (bystander angles ride through unchanged).
    Every angle may be a (B,) array of per-draw angles instead of a float.
    """
    vec = _angle_vector(reg, i, j, angle_i, angle_j, bystander_angles)
    swapped = _angle_vector(reg, i, j, angle_j, angle_i, bystander_angles)
    ops = (Exchange(i, j, -math.pi),
           GlobalField("z", vec),
           Exchange(i, j, math.pi))
    target = partial(global_field_unitary, reg, GlobalField("z", swapped))
    return (Circuit(reg, ops),
            GateTarget(target, frozenset(range(reg.n_spins)), Equivalence.EXACT))


def dressed_swap_phase_conjugation(reg: RegisterSpec, i, j, angle, z_i, z_j):
    """Doubled dressed-swap conjugation of a z phase pulse.

    The dressed swap is an exchange conjugated by x pulses whose pair
    angles differ by pi; bystanders take the same angle, which cancels
    between the pulse and its inverse. Its exchange angle is -pi: that sign
    makes the doubled conjugation come out with scalar factor +i, not -i.

    Returns the 7-op circuit and its target, the expected matrix
    1j * exp(+i (z_i S_j^z + z_j S_i^z)): the pair phases swap, flip sign,
    and pick up a literal scalar factor i. The target is EXACT over every
    spin, so verify_target compares it entrywise, not up to phase, because
    the factor is part of the claim. Per-draw (B,) z angles give the
    (B, 2^n, 2^n) stack of expected matrices.
    """
    vec = _angle_vector(reg, i, j, angle, angle + math.pi, default=angle)
    dressed = (GlobalField("x", vec), Exchange(i, j, -math.pi),
               GlobalField("x", -vec))
    middle = GlobalField("z", _angle_vector(reg, i, j, z_i, z_j))
    swapped = GlobalField("z", _angle_vector(reg, i, j, -z_j, -z_i))
    return (Circuit(reg, dressed + (middle,) + dressed),
            GateTarget(lambda: 1j * global_field_unitary(reg, swapped),
                       frozenset(range(reg.n_spins)), Equivalence.EXACT))


def controlled_phase_circuit(reg: RegisterSpec, i, j, angle=0.0,
                             bystander_angles=None):
    """Four-step controlled-phase construction.

    A z pulse with pair angles (angle, angle+pi), exchange by pi/2, the
    inverse pulse, exchange by pi/2. Equals exp(-i pi S_i^z S_j^z) exactly,
    including global phase, for every value of angle; per-draw (B,) angles
    give that target once per draw.
    """
    vec = _angle_vector(reg, i, j, angle, angle + math.pi, bystander_angles,
                        default=angle)
    ex = Exchange(i, j, math.pi / 2)
    ops = (GlobalField("z", vec), ex, GlobalField("z", -vec), ex)
    return (Circuit(reg, ops),
            GateTarget(partial(_diag_zz_phase, reg, ex.i, ex.j, math.pi),
                       _acted(reg, i, j), Equivalence.EXACT))


def controlled_phase_local_z_target(reg: RegisterSpec, i: int, j: int) -> GateTarget:
    """diag(1,1,1,-1) on the pair, for the up-to-local-z comparison."""
    diag = np.where((site_bits(reg, i) == 1) & (site_bits(reg, j) == 1),
                    -1.0 + 0j, 1.0 + 0j)
    return GateTarget(np.diag(diag), frozenset((i, j)), Equivalence.LOCAL_Z)


def _single_spin_rotation(reg: RegisterSpec, axis: str, i, angle):
    """exp(-i angle S_i^axis), built when called from a global field with
    one nonzero angle, at spin i or at each draw's spin for (B,) spins."""
    rows = np.where(_at(reg, i), np.asarray(angle)[..., None], 0.0)
    return partial(global_field_unitary, reg, GlobalField(axis, rows))


def xy_x_rotation_circuit(reg: RegisterSpec, i, j, angle_i, angle_j,
                          bystander_angles=None):
    """Single-spin x rotation from two x pulses and two z pi flips on spin i.

    Target is exp(+i 2 angle_i S_i^x) up to global phase; direct evaluation
    carries a residual overall factor of -1, measured in the tests. Angles
    may be (B,) arrays of per-draw angles.
    """
    _check_pair(reg, i, j, max(np.size(i), np.size(j)))  # no exchange checks it
    vec = _angle_vector(reg, i, j, angle_i, angle_j, bystander_angles)
    flip = _angle_vector(reg, i, j, -math.pi, 0.0)
    ops = (GlobalField("z", flip),
           GlobalField("x", vec),
           GlobalField("z", flip),
           GlobalField("x", -vec))
    target = _single_spin_rotation(reg, "x", i, -2.0 * angle_i)
    return (Circuit(reg, ops),
            GateTarget(target, _acted(reg, i), Equivalence.GLOBAL_PHASE))


def xy_controlled_phase_circuit(reg: RegisterSpec, i, j, phi):
    """Controlled phase from planar exchange, echoed by x pi flips on spin i
    and wrapped in opposite y quarter turns on the pair.

    The measured action is exp(+i 2 phi S_i^z S_j^z) times an overall -1;
    the target records the +2 phi normalization and the comparison runs up
    to global phase. phi may be a (B,) array of per-draw angles.
    """
    y_vec = _angle_vector(reg, i, j, math.pi / 2, -math.pi / 2)
    flip = _angle_vector(reg, i, j, -math.pi, 0.0)
    xy = XYExchange(i, j, phi)
    ops = (GlobalField("y", y_vec), GlobalField("x", flip), xy,
           GlobalField("x", flip), xy, GlobalField("y", -y_vec))
    target = partial(_diag_zz_phase, reg, xy.i, xy.j, -2.0 * xy.phi)
    return (Circuit(reg, ops),
            GateTarget(target, _acted(reg, i, j), Equivalence.GLOBAL_PHASE))


_CONJUGATE_AXIS = {"z": "x", "x": "z"}


def refocused_rotation_circuit(reg: RegisterSpec, axis: str, i: int, j: int,
                               angle: float, profiles: Mapping[str, Sequence[float]]):
    """Eleven-step single-spin rotation exp(-i angle S_i^axis) from global
    pulses and four exchange-pi steps.

    profiles maps each field axis to the per-site amplitude ratios the
    hardware imposes; every pulse in the sequence is proportional to one of
    the two profiles, so the whole circuit is device-realizable. Bystander
    action cancels identically: the opening pulse carries the combined
    angles that the two later inverse pulses remove, and the pi-offset
    pulses cancel in adjacent inverse pairs around the exchanges.
    """
    _check_pair(reg, i, j)
    if axis not in _CONJUGATE_AXIS:
        raise ValueError(f"axis must be x or z, got {axis!r}")
    conj_axis = _CONJUGATE_AXIS[axis]
    a = tuple(float(v) for v in profiles[axis])[:reg.n_spins]
    ac = tuple(float(v) for v in profiles[conj_axis])[:reg.n_spins]
    if len(a) < reg.n_spins or len(ac) < reg.n_spins:
        raise ValueError("profiles shorter than the register")
    if abs(a[i] - a[j]) < 1e-15 or abs(ac[i] - ac[j]) < 1e-15:
        raise ValueError("profile must separate the pair amplitudes")
    primary = tuple((angle / 2.0) * ak / (a[i] - a[j]) for ak in a)
    ratio = (a[i] - a[j]) / (a[i] + a[j])
    companion = tuple(ratio * t for t in primary)
    merged = tuple(t + f for t, f in zip(primary, companion))
    # Pi-offset pulse pinned to the conjugate profile: lam*(ac_j - ac_i) = pi.
    lam = math.pi / (ac[j] - ac[i])
    offset = tuple(lam * v for v in ac)
    neg = lambda v: tuple(-x for x in v)
    ex = Exchange(i, j, math.pi)
    ops = (GlobalField(axis, merged),
           ex,
           GlobalField(axis, neg(primary)),
           ex,
           GlobalField(conj_axis, offset),
           ex,
           GlobalField(conj_axis, neg(offset)),
           GlobalField(axis, neg(companion)),
           GlobalField(conj_axis, offset),
           ex,
           GlobalField(conj_axis, neg(offset)))
    target = _single_spin_rotation(reg, axis, i, angle)
    return (Circuit(reg, ops),
            GateTarget(target, frozenset((i,)), Equivalence.GLOBAL_PHASE))


def parallel_apply(template: Circuit, pairs: Sequence, reg: RegisterSpec) -> Circuit:
    """Replicate a two-spin template across disjoint pairs of the register.

    Field steps become single pulses carrying the template angles at every
    pair; exchange steps are emitted per pair and commute, so the circuit
    equals the tensor product of the per-pair gate. The template's per-draw
    angles ride along, so on one pair or more a template of B draws gives a
    circuit of B draws. Each pair is checked as an exchange's is; a
    template exchange with per-draw pairs is refused.
    """
    if template.register.n_spins != 2:
        raise ValueError("template must act on a register of 2")
    seen = set()
    for p, q in pairs:
        _check_pair(reg, p, q)
        for s in (p, q):
            if s in seen:
                raise ValueError(f"spin {s} appears in two pairs")
            seen.add(s)
    ops = []
    for k, op in enumerate(template.ops):
        if isinstance(op, GlobalField):
            # Per template spin, a float or a (B,) column of per-draw angles.
            a_0, a_1 = np.transpose(op.angles)
            vec = [0.0] * reg.n_spins
            for p, q in pairs:
                vec[p] = a_0
                vec[q] = a_1
            ops.append(GlobalField(op.axis, _field_angles(vec)))
        elif _per_draw(op.i, op.j):
            raise ValueError(f"template op {k} ({type(op).__name__}) has a "
                             f"pair per draw")
        else:
            for p, q in pairs:
                ops.append(replace(op, i=p if op.i == 0 else q,
                                   j=p if op.j == 0 else q))
    return Circuit(reg, tuple(ops))


def euler_zxz(u: np.ndarray):
    """Factor a 2x2 unitary as e^{i delta} Rz(gamma) Rx(beta) Rz(alpha).

    Rz(t) = exp(-i t sigma_z / 2) and likewise for Rx; beta lies in [0, pi].
    Returns (delta, alpha, beta, gamma); recomposition is checked to 1e-10.
    Both checks fail on a NaN or inf entry, so one raises NotUnitary2x2.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise NotUnitary2x2(f"shape {u.shape}")
    if not max_abs(u.conj().T @ u - np.eye(2)) <= TOL_STRUCTURE:
        raise NotUnitary2x2("not unitary to tolerance")
    beta = 2.0 * math.atan2(abs(u[1, 0]), abs(u[0, 0]))
    if abs(u[1, 0]) < 1e-12:
        alpha = cmath.phase(u[1, 1] / u[0, 0])
        gamma = 0.0
        delta = cmath.phase(u[0, 0]) + alpha / 2.0
    elif abs(u[0, 0]) < 1e-12:
        alpha = cmath.phase(u[0, 1] / u[1, 0])
        gamma = 0.0
        delta = cmath.phase(u[0, 1]) + math.pi / 2.0 - alpha / 2.0
    else:
        # u01/u00 = -i tan(beta/2) e^{i alpha} and u10/u00 the same with
        # gamma, so both angles come out whole; halving a wrapped phase
        # sum here would be ambiguous by pi.
        alpha = cmath.phase(u[0, 1] / u[0, 0]) + math.pi / 2.0
        gamma = cmath.phase(u[1, 0] / u[0, 0]) + math.pi / 2.0
        delta = cmath.phase(u[0, 0]) + (alpha + gamma) / 2.0
    recomposed = (cmath.exp(1j * delta)
                  * rotation_2x2("z", gamma) @ rotation_2x2("x", beta)
                  @ rotation_2x2("z", alpha))
    if not max_abs(recomposed - u) <= 1e-10:
        raise ValueError("euler factoring failed to recompose")
    return delta, alpha, beta, gamma


def su2_compile(target: np.ndarray, reg: RegisterSpec, i: int, j: int,
                profiles: Mapping[str, Sequence[float]]) -> Circuit:
    """Compile an arbitrary single-spin unitary on spin i into at most three
    eleven-step rotation blocks (z, x, z Euler order), 21 field pulses max.

    Blocks whose Euler angle is a multiple of 2 pi act as a global phase and
    are dropped. j names the exchange partner used by the blocks. Each
    block is the ops of refocused_rotation_circuit's circuit; its target,
    built only when read, is not read.
    """
    _, alpha, beta, gamma = euler_zxz(target)
    ops = []
    for block_angle, block_axis in ((alpha, "z"), (beta, "x"), (gamma, "z")):
        # Rotations by 2 pi k are global phases on spin-1/2.
        if abs(block_angle - 2.0 * math.pi * round(block_angle / (2.0 * math.pi))) < 1e-12:
            continue
        ops.extend(refocused_rotation_circuit(
            reg, block_axis, i, j, block_angle, profiles)[0].ops)
    return Circuit(reg, tuple(ops))


def circuit_to_text(c: Circuit) -> str:
    """Line format: REG header, then one op per line (EX / XY / GF)."""
    lines = [f"REG {c.register.n_spins}"]
    for op in c.ops:
        if isinstance(op, Exchange):
            lines.append(f"EX {op.i} {op.j} {op.xi:.17g}")
        elif isinstance(op, XYExchange):
            lines.append(f"XY {op.i} {op.j} {op.phi:.17g}")
        else:
            angles = " ".join(f"{a:.17g}" for a in op.angles)
            lines.append(f"GF {op.axis} {angles}")
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Read what circuit_to_text writes, checking each op at its line."""
    parts = []  # the header's circuit with no ops, then the ops

    def line(lineno, words):
        if words[0] == "REG":
            parts.append(Circuit(RegisterSpec(*fields(words, int)), ()))
            return
        reg = parts[0].register
        if words[0] == "GF":
            axis, *angles = fields(words, str, *(float,) * reg.n_spins)
            op = GlobalField(axis, tuple(angles))
        elif words[0] in ("EX", "XY"):
            kind = Exchange if words[0] == "EX" else XYExchange
            op = kind(*fields(words, int, int, float))
        else:
            raise ValueError(f"unknown directive {words[0]!r}")
        check_op(reg, op)
        parts.append(op)

    walk(text, "REG", line)
    return replace(parts[0], ops=tuple(parts[1:]))
