"""Sequence synthesis: exhaustive search for pulse orderings that realize a
target gate family for every generic parameter draw, not just one instance.

A candidate sequence interleaves letters from a field-pulse alphabet with a
fixed number of exchange steps. The search factorizes: the bystander action
of a word is independent of where the exchanges sit, so words are first
filtered on a single-bystander register, then surviving words are scored on
the acted pair for every exchange placement, and finally the few candidates
are re-verified on a wider register with fresh draws. Every stage reads one
draw table (_draw_table): per symbol, one angle vector over the acted pair
and MAX_BYSTANDER_DRAWS bystanders, the pair's 4x4 gate and each
bystander's 2x2 gate, so the stages cannot disagree about what a letter is.

Both filters meet in the middle (after Amy, Maslov, Mosca and Roetteler,
IEEE TCAD 32, 818 (2013)): a sequence's product is S·P, a suffix times a
prefix, so its overlap with a target, tr(F·S·P) = tr(S·(P·F)), is a dot
product of two precomputed halves. 2x2 products are formed on planar
stacks, entries leading and rows trailing, as whole-stack multiply-adds
(_product_2x2, which the Hadamard search shares for its 4x4s), the
bystander filter's dot products as elementwise ones (_dot4). The
bystander filter looks its first sample's words up: a sorted join of the
halves on a phase-invariant key (_key_pairs) finds the few pairs within
reach, and only those are scored, as later only the words still alive,
from their prefix and suffix columns split once, a _CHUNK of words at a
time. Past its result and the columns, the filter holds one chunk's
arrays, and its first sample's hits twice only while it joins them.
The pair filter scores cells. It reads each exchange as a·I + c·SWAP, so
a placement of k exchanges sums up to 2^k terms a^(k-j)·c^j·SWAP^j·(A ⊗
B), whose 2x2 strands A and B take each letter's factors in an order set
by the SWAP parity before it (the relay of the source paper's swap
steps); terms alike in j and parity pattern are one cell, and a
coefficient within rounding of 0 drops its terms (at xi ≡ π a placement
is one all-SWAP term, at xi ≡ 0 one identity term). It takes the words
_SURVIVOR_BLOCK at a time, so the arrays that grow with them stay within
a block's, and scores a block's rows of (sample, live word) in passes:
the first sample alone, then the later samples together, as many to a
pass as fit in as many rows as the block has words and in as many table
rows as its first pass built. A pass folds each row's
F = a^(k-j)·c^j·T†·SWAP^j into one table of prefix halves, a row per
distinct (sample, prefix), built a slice of prefixes at a time, and
scores its rows in suffix order within each sample, building suffix
halves once per distinct (sample, suffix) of a block. Its chunks and
blocks take their rows from the bytes a row gathers (_pair_rows), and a
chunk's hits are tested per trace, a cell where each placement is one,
and mapped to placements only for the rows near one.

Filters use loose thresholds and exist only to cut the space; membership in
the result is decided solely by final verification at the problem
tolerance, after sequences alike slot by slot in their letters'
unitary_digest are dropped, in the loop reverify shares (_verdicts), on
verify_samples draws taken once per search from one seed. Exchange links
only spins 0 and 1, so the pair plays on a (B, 4, 4) stack and every
bystander of every draw on one stack of B·(n - 2) 1-spin draws, each part
is scored against its own gates, and circuits.combined_distance joins them:
no pulse plays on more than 2 spins. Each part plays its distinct words in
sorted order through circuits._play, each resuming along the states of the
word before, so a prefix they share is played once. The worst distance over
every draw is reported with its index.

The Hadamard search fits the (structure, start) members of one length in
batched Levenberg-Marquardt solves (minimize), on numpy alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
import time
from collections import Counter, namedtuple
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .circuits import (Circuit, Exchange, GlobalField, _play,
                       combined_distance, controlled_phase_circuit, join)
from .grammar import fields, keyed, walk
from .linalg import phase_distance
from .schedule import unitary_digest
from .spins import (AXES, RegisterSpec, _frozen, exchange_unitary,
                    global_field_unitary, rotation_2x2, site_bits)

DEFAULT_BUDGET = 10 ** 9
# Squared-distance cutoffs for the staged filters; generous against rounding,
# tight against the order-1 distances of generically wrong words.
STAGE1_DIST_SQ = 1e-12
STAGE2_DIST_SQ = 1e-13
# Bystander draws held per sample; registers up to this many spins beyond the
# acted pair can be bound from one sample.
MAX_BYSTANDER_DRAWS = 10
# Draws per search or verification. On z_difference_rotation (2 cores) a
# search sample adds about 1.2-1.4 ms to the scans and a verification draw
# 0.25-0.5 ms over its 48 solutions, so 4096 of either take 1-6 s.
MAX_SAMPLES = 4096
# Slots per word, checked first: past 62 field letters two letters overflow
# the int64 word index, and under it every count the budget reads is an int.
MAX_LENGTH = 62
# Words per stage-1 chunk, which bounds its working set.
_CHUNK = 1 << 15
# Stage 1 joins prefix P and folded suffix A = T†S on the key k(M) =
# M00·conj(M11), which ignores a global phase. For 2x2 unitaries, min over
# phi of |P - e^{i phi} A†|_F^2 = 2(2 - |tr(PA)|), and |k(P) - k(Q)| <=
# sqrt2·|P - Q|_F, so a pair with 2 - |tr(PA)| <= STAGE1_DIST_SQ has keys
# within 2·sqrt(STAGE1_DIST_SQ); the window is twice that.
_KEY_RADIUS = 4 * math.sqrt(STAGE1_DIST_SQ)
# Bytes a pair-scan chunk gathers (_pair_rows), and a prefix-table slice's
# halves; a first-pass block of four chunks shares its suffix halves.
_PAIR_BYTES = 1 << 19
# The budget's floor of survivors, the 128-row chunk the pair scan was first
# priced at. It stays 128 whatever _pair_rows gives: a price in counts alone,
# so refusals and pinned needed values do not move with a cell's chunk rows.
_PAIR_CHUNK = 128
_SURVIVOR_BLOCK = 1 << 16  # words per pair-scan block, which bounds its arrays
_LM_CHUNK = 1024  # Hadamard-search members per minimize call: bounds memory
# Price cap of a Hadamard search: members x (10 set-up + maxiter + 1 fits of
# depth blocks). On a 2-core x86 box, depth 1, 194,000 starts, maxiter 1 (7e6)
# ran 16 s; depth 15, maxiter 2 (5.4e6) 10 s; depth 3, 4000 starts (6.1e6) 6 s.
_HADAMARD_BUDGET = 7_000_000
# A problem's name is its default result file's stem: no directory, not hidden.
_PLAIN_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")


class BudgetExceeded(RuntimeError):
    def __init__(self, needed: int, budget: int) -> None:
        super().__init__(f"search needs {needed} candidate checks, budget {budget}")
        self.needed, self.budget = needed, budget  # exact ints


@dataclass(frozen=True)
class PulseTemplate:
    """One field letter: a signed symbol about one axis.

    The symbol names which device-tied angle set of a family draw the letter
    plays, and the sign selects the pulse or its inverse.
    """
    axis: str  # "x" or "z"
    symbol: str
    sign: int = 1


@dataclass(frozen=True)
class SynthesisProblem:
    name: str
    family: str
    length: int
    n_exchange: int
    alphabet: tuple  # field PulseTemplates, in enumeration order
    xi: float  # angle of every exchange step
    tolerance: float = 1e-10
    search_samples: int = 20
    verify_samples: int = 100
    verify_spins: int = 4

    @property
    def n_field(self) -> int:
        return self.length - self.n_exchange

    @property
    def labels(self) -> tuple:
        """One result label per letter: symbol and sign, plus the axis when
        another letter shares both."""
        shared = Counter((tpl.symbol, tpl.sign) for tpl in self.alphabet)
        return tuple(f"{tpl.symbol}{'+' if tpl.sign > 0 else '-'}"
                     + (tpl.axis if shared[tpl.symbol, tpl.sign] > 1 else "")
                     for tpl in self.alphabet)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one "
                             f"of {', '.join(FAMILIES)}")
        for tpl in self.alphabet:
            if (tpl.symbol not in FAMILIES[self.family].symbols
                    or tpl.axis not in AXES or tpl.sign not in (1, -1)):
                raise ValueError(f"family {self.family} has no letter "
                                 f"{tpl.symbol} {tpl.axis} {tpl.sign:+d}")
        for ok, message in (
                (_PLAIN_NAME.fullmatch(self.name), "name must be letters, "
                 "digits, _, - and ., and must not start with ."),
                (math.isfinite(self.xi), "xi must be finite"),
                (0 < self.tolerance < math.inf,
                 "tolerance must be finite and positive"),
                (self.length >= 0, "length must be nonnegative"),
                (0 <= self.n_exchange <= self.length,
                 f"exchange must be in 0..{self.length}"),
                (all(1 <= n <= MAX_SAMPLES for n in (self.search_samples,
                                                     self.verify_samples)),
                 f"search_samples and verify_samples must be in 1..{MAX_SAMPLES}"),
                (2 <= self.verify_spins <= 2 + MAX_BYSTANDER_DRAWS,
                 f"verify_spins must be in 2..{2 + MAX_BYSTANDER_DRAWS}")):
            if not ok:
                raise ValueError(message)


@dataclass(frozen=True)
class SequenceSolution:
    letters: tuple  # one label per slot, exchange slots as "EX"
    max_distance: float  # worst full-register distance over fresh draws
    worst_draw: int  # index of that draw among the verification seed's

    @property
    def exchange_slots(self) -> tuple:
        """The 0-based slots of "EX", ascending."""
        return tuple(k for k, lab in enumerate(self.letters) if lab == "EX")


@dataclass(frozen=True)
class StageRecord:
    """One search, schedule or verify stage: what went in, what came out,
    and its wall and process CPU time between two clock() marks."""
    name: str
    n_in: int
    n_out: int
    seconds: float
    cpu_s: float


def clock() -> tuple:
    """A stage mark: (time.perf_counter(), time.process_time())."""
    return time.perf_counter(), time.process_time()


class Stages:
    """A run's StageRecords in order. The recorder is made at a clock()
    mark, each mark closes the stage since the one before, and elapsed_s
    is the wall time from the first mark to the last."""

    def __init__(self) -> None:
        self.first = self.last = clock()
        self.records, self.elapsed_s = (), 0.0

    def mark(self, name: str, n_in: int, n_out: int) -> None:
        now = clock()
        self.records += (StageRecord(name, n_in, n_out,
                                     *np.subtract(now, self.last).tolist()),)
        self.last, self.elapsed_s = now, now[0] - self.first[0]


@dataclass(frozen=True)
class SearchStats:
    """A search's placements and its stages, bystander_scan, pair_scan,
    dedup and verification, whose times tile elapsed_s (drawing the search
    samples counts toward the first). The funnel is their counts."""
    placements: int
    elapsed_s: float
    stages: tuple

    words_total = property(lambda self: self.stages[0].n_in)
    bystander_survivors = property(lambda self: self.stages[0].n_out)
    pair_candidates = property(lambda self: self.stages[1].n_out)
    deduplicated = property(lambda self: self.stages[2].n_out)
    verified = property(lambda self: self.stages[3].n_out)


@dataclass(frozen=True)
class SynthesisResult:
    problem_name: str
    solutions: tuple
    stats: SearchStats


@dataclass(frozen=True)
class Family:
    """sample(rng, n) draws n parameter draws of the family: each symbol's
    angles (n, 2 + MAX_BYSTANDER_DRAWS), on the pair (spins 0 and 1) and
    then on the bystanders, of which a letter plays sign * angles about its
    axis; the 4x4 gates (n, 4, 4) the pair must see; and the 2x2 gates (n,
    MAX_BYSTANDER_DRAWS, 2, 2) each bystander must see. It reads rng as n
    calls of one draw each would, so it draws the same values."""
    name: str
    symbols: tuple
    sample: Callable[[np.random.Generator, int], tuple]


def _draws(rng: np.random.Generator, n: int, high: float,
           n_more: int) -> np.ndarray:
    """(n, 2 + n_more) values, a draw per row: a pair uniform in (0.1,
    high), drawn again until its entries differ by over 0.05, then n_more
    uniform in (0.1, 3.0) from one call."""
    out = np.empty((n, 2 + n_more))
    for row in out:
        row[:2] = rng.uniform(0.1, high, size=2)
        while abs(row[0] - row[1]) <= 0.05:
            row[:2] = rng.uniform(0.1, high, size=2)
        row[2:] = rng.uniform(0.1, 3.0, size=n_more)
    return out


@functools.cache
def _shared_gates() -> tuple:
    """Bystanders at rest and the controlled phase on the pair, built once,
    on first use: at import they would cost every command memory."""
    return (_frozen(rotation_2x2("z", np.zeros(MAX_BYSTANDER_DRAWS)), complex),
            _frozen(controlled_phase_circuit(RegisterSpec(2), 0, 1)[1].unitary,
                    complex))


def _rotation_sample(rng: np.random.Generator, n: int) -> tuple:
    """Single-spin z rotation on spin 0 of the pair, spin 1 untouched.

    The primary symbol carries independent pair angles (t_i, t_j); the
    companion scales them by (t_i - t_j)/(t_i + t_j), mirroring amplitude
    ratios a hardware profile would impose, so the merged symbol is their
    sum realized as one pulse. Dark symbols put a pi between the pair
    entries and draw their own bystander angles.
    """
    m = MAX_BYSTANDER_DRAWS
    v = _draws(rng, n, math.pi - 0.1, 3 * m + 2)
    primary, c, d, e, f = np.split(v, [m + 2, 2 * m + 2, 2 * m + 3, 2 * m + 4],
                                   axis=1)
    t_i, t_j = primary[:, :1], primary[:, 1:2]
    ratio = (t_i - t_j) / (t_i + t_j)
    x_dark = np.hstack([d, d + math.pi, c])
    return ({"primary": primary, "companion": ratio * primary,
             "merged": (1.0 + ratio) * primary, "pi_step": x_dark,
             "x_dark": x_dark, "z_dark": np.hstack([e, e + math.pi, f])},
            global_field_unitary(RegisterSpec(2), GlobalField("z", np.hstack(
                [2.0 * (t_i - t_j), np.zeros((n, 1))]))),
            np.repeat(_shared_gates()[0][None], n, axis=0))


def _swap_sample(rng: np.random.Generator, n: int) -> tuple:
    """Exchange conjugation of one z pulse: the pair angles trade places."""
    v = _draws(rng, n, 3.0, MAX_BYSTANDER_DRAWS)
    return ({"primary": v}, global_field_unitary(RegisterSpec(2), GlobalField(
        "z", v[:, 1::-1])), rotation_2x2("z", v[:, 2:]))


def _controlled_phase_sample(rng: np.random.Generator, n: int) -> tuple:
    """Ising-type pair phase from two half exchanges around a flipped pulse."""
    v = rng.uniform(0.1, 3.0, size=(n, 1 + MAX_BYSTANDER_DRAWS))
    at_rest, pair = _shared_gates()
    return ({"primary": np.hstack([v[:, :1], v[:, :1] + math.pi, v[:, 1:]])},
            np.repeat(pair[None], n, axis=0),
            np.repeat(at_rest[None], n, axis=0))


FAMILIES = {f.name: f for f in (
    Family("z_difference_rotation", ("primary", "companion", "merged",
                                     "pi_step", "x_dark", "z_dark"),
           _rotation_sample),
    Family("swap_pair_exchange", ("primary",), _swap_sample),
    Family("controlled_phase", ("primary",), _controlled_phase_sample))}


def _word_digits(idx: np.ndarray, n_field: int, n_letters: int) -> np.ndarray:
    """Mixed-radix decode; digit 0 is the first letter in time order and the
    most significant, so ascending index is lexicographic word order. Digits
    take the narrowest unsigned type that holds them: one byte, not eight,
    for an alphabet of up to 256 letters."""
    digits = np.empty((idx.size, n_field),
                      dtype=np.min_scalar_type(n_letters - 1))
    rem = idx.copy()
    for pos in range(n_field - 1, -1, -1):
        digits[:, pos] = rem % n_letters
        rem //= n_letters
    return digits


def _slot_letters(word: Sequence[int], slots: tuple, length: int) -> list:
    """The letter index at each slot in time order, None at exchange slots."""
    letters = iter(word)
    return [None if s in slots else int(next(letters)) for s in range(length)]


def _slot_order(letters: Sequence) -> list:
    """The sort key of slot letters: an exchange (None) before any letter."""
    return [-1 if x is None else x for x in letters]


def _product_2x2(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b over planar stacks of square complex matrices, 2x2 or larger,
    entries leading: a[i, j] and b[i, j] are stacks of one rank, broadcast
    against each other. Each entry is the sum over k of a[i, k]·b[k, j],
    one whole-stack multiply per k into out (if given) and in-place adds:
    no BLAS call, the same in any batch."""
    out = np.multiply(a[:, :1], b[0], out=out)
    for k in range(1, len(b)):
        out += a[:, k:k + 1] * b[k]
    return out


def _word_products(mats: np.ndarray, length: int) -> np.ndarray:
    """Products of every word of `length` 2x2 letters in ascending word
    index, the first letter acting first, as a planar stack (2, 2, words)."""
    planar = mats.transpose(1, 2, 0)[:, :, None]
    prods = np.eye(2, dtype=complex)[:, :, None]
    for _ in range(length):
        prods = _product_2x2(planar, prods[:, :, :, None]).reshape(2, 2, -1)
    return prods


def _half_word_factors(mats: np.ndarray, target: np.ndarray,
                       n_field: int) -> tuple:
    """Prefix columns P and T†-folded suffix columns (T†S)^T of every
    n_field-letter word, each 2x2 flattened down a column. Word idx =
    prefix * n_suffix + suffix, and tr(T†·S·P) is the _dot4 of the two."""
    k = n_field // 2
    suf = _product_2x2(target.conj().T[:, :, None],
                       _word_products(mats, n_field - k))
    return (_word_products(mats, k).reshape(4, -1),
            suf.transpose(1, 0, 2).reshape(4, -1))


def _dot4(a: Iterable, b: Iterable) -> np.ndarray:
    """Σ_k a_k·b_k over the four entries of flattened 2x2s, broadcast, one
    a_k and b_k at a time, as elementwise multiply-adds: a matmul would use
    threaded BLAS, which can stall on a machine of few cores."""
    pairs = zip(a, b)
    tr = np.multiply(*next(pairs))
    for x, y in pairs:
        tr += x * y
    return tr


def _key_pairs(pre: np.ndarray, suf: np.ndarray) -> Iterator[np.ndarray]:
    """Word indices, at most _CHUNK at a time, of the prefix-suffix pairs of
    the _half_word_factors columns whose keys lie within _KEY_RADIUS of
    each other in real and imaginary part: a sorted join, the prefix keys
    sorted by real part and each suffix key's window found by searchsorted.
    Every word that passes the stage-1 test is among them."""
    kp, ks = pre[0] * pre[3].conj(), suf[0].conj() * suf[3]
    order = np.argsort(kp.real)
    lo, hi = (np.searchsorted(kp.real[order], ks.real + r, side) for r, side
              in ((-_KEY_RADIUS, "left"), (_KEY_RADIUS, "right")))
    ends = np.cumsum(hi - lo)  # where each suffix's window ends, flattened
    for start in range(0, ends[-1], _CHUNK):
        at = np.arange(start, min(start + _CHUNK, ends[-1]))
        cols = np.searchsorted(ends, at, "right")
        rows = order[at + (hi - ends)[cols]]
        near = np.abs(kp.imag[rows] - ks.imag[cols]) <= _KEY_RADIUS
        idx = rows[near] * suf.shape[1] + cols[near]
        del at, cols, rows, near  # not held while the caller scores idx
        yield idx


def _bystander_scan(n_field: int, bys_mats: Sequence[np.ndarray],
                    bys_targets: Sequence[np.ndarray]) -> np.ndarray:
    """Ascending indices of the words that hit the bystander target on every
    search sample, one sample's half-word factors held at a time. The first
    sample scores the pairs that _key_pairs finds, a chunk at a time. Its
    hits are joined once, the chunks freed with the join, and split into
    prefix and suffix columns _CHUNK words at a time, each column in the
    narrowest unsigned type that holds it; later samples score the words
    still alive from those, _CHUNK words at a time."""
    alive = None
    for mats, tgt in zip(bys_mats, bys_targets):
        pre, suf = _half_word_factors(mats, tgt, n_field)
        if alive is None:
            alive = np.concatenate([np.empty(0, np.int64)] + [
                idx[_bystander_hits(pre, suf, *np.divmod(idx, suf.shape[1]))]
                for idx in _key_pairs(pre, suf)])
            alive.sort()  # in place: the join's order is not ascending
            columns = [np.empty(alive.size, np.min_scalar_type(h.shape[1] - 1))
                       for h in (pre, suf)]
            for s in range(0, alive.size, _CHUNK):
                np.divmod(alive[s:s + _CHUNK], suf.shape[1],
                          *(c[s:s + _CHUNK] for c in columns), casting="unsafe")
        else:
            hit = np.concatenate([_bystander_hits(
                pre, suf, *(c[s:s + _CHUNK] for c in columns))
                for s in range(0, alive.size, _CHUNK)])
            if not hit.all():
                alive, columns = alive[hit], [c[hit] for c in columns]
        if alive.size == 0:
            break
    return alive


def _bystander_hits(pre: np.ndarray, suf: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """Whether each word, prefix column rows and suffix column cols of the
    _half_word_factors, hits: its squared phase distance on 2x2, 2 - |tr|,
    within STAGE1_DIST_SQ."""
    tr = _dot4((c.take(rows) for c in pre), (c.take(cols) for c in suf))
    return 2.0 - np.abs(tr) <= STAGE1_DIST_SQ


def _strand_trie(patterns: list) -> tuple:
    """The trie that builds one strand's product for every parity pattern
    of a half and for its complement. A path picks, for each field letter,
    the factor of spin 0 or spin 1: strand A of a pattern walks the pattern
    and strand B its complement. Returns, per level, each node's parent row
    and spin bit, then the leaf rows of strand A and of strand B for each
    pattern."""
    flip = [tuple(1 - b for b in p) for p in patterns]
    leaves = sorted(set(patterns) | set(flip))
    levels, heads = [], [()]
    for step in range(len(patterns[0])):
        row = {h: i for i, h in enumerate(heads)}
        heads = sorted({leaf[:step + 1] for leaf in leaves})
        levels.append((_frozen([row[h[:-1]] for h in heads], np.int64),
                       _frozen([h[-1] for h in heads], np.int64)))
    row = {h: i for i, h in enumerate(heads)}
    return (tuple(levels), _frozen([row[p] for p in patterns], np.int64),
            _frozen([row[p] for p in flip], np.int64))


@functools.lru_cache(maxsize=None)
def _parity_cells(length: int, n_exchange: int, sizes: tuple) -> tuple:
    """Exchange placements as sums of parity-pattern terms. Each exchange is
    read as a·I or c·SWAP; a term takes SWAP at j of a placement's
    exchanges, j in sizes, and bit f of its pattern is the parity of those
    SWAPs before field letter f. Terms are tallied gap by gap (the exchanges
    before one field letter or after the last): i SWAPs among a gap's m
    exchanges add i to j in C(m, i) ways, and a tally that can no longer
    reach sizes is dropped. So a placement costs its distinct cells, not its
    2^k terms. Patterns are cut at field letter split = n_field // 2 into
    sorted distinct prefix and suffix parts, each with its strand trie, and
    a term's cell is (suffix row * len(sizes) + size index) * n_prefix +
    prefix row. cells[t, c] is placement c's t-th cell (-1 pads t > 0) and
    counts[t][c] its number of terms there, counts[t] None for all ones.
    With only j = k the 330 placements of 4 exchanges in 11 slots have 99
    patterns, in 8 x 16 cells."""
    n_field = length - n_exchange
    low, high = min(sizes), max(sizes)
    placements = []
    for slots in itertools.combinations(range(length), n_exchange):
        field = [s for s in range(length) if s not in slots]
        tally, left = {((), 0): 1}, n_exchange
        for g, (a, b) in enumerate(zip([-1] + field, field + [length])):
            m = b - a - 1
            left -= m
            grown = Counter()
            for (pattern, j), n in tally.items():
                for i in range(max(0, low - j - left), min(m, high - j) + 1):
                    bit = ((j + i) % 2,) if g < n_field else ()
                    grown[pattern + bit, j + i] += n * math.comb(m, i)
            tally = grown
        # Cells taken once first, so leading rows need no count.
        placements.append(sorted((n != 1, sizes.index(j), p, n)
                                 for (p, j), n in tally.items() if j in sizes))
    split = n_field // 2
    prefixes = sorted({p[:split] for row in placements for *_, p, _ in row})
    suffixes = sorted({p[split:] for row in placements for *_, p, _ in row})
    pre_row = {p: i for i, p in enumerate(prefixes)}
    suf_row = {p: i for i, p in enumerate(suffixes)}
    cells = np.full((max(map(len, placements)), len(placements)), -1)
    counts = np.ones(cells.shape + (1,))
    for c, row in enumerate(placements):
        for t, (_, g, p, n) in enumerate(row):
            cells[t, c] = ((suf_row[p[split:]] * len(sizes) + g)
                           * len(prefixes) + pre_row[p[:split]])
            counts[t, c] = n
    for a in (cells, counts):
        a.setflags(write=False)
    return (split, (_strand_trie(prefixes), _strand_trie(suffixes)), cells,
            tuple(None if np.all(n == 1) else n for n in counts))


def _term_weights(ex: np.ndarray, n_exchange: int) -> dict:
    """{j: a^(k-j)·c^j} over the SWAP counts j whose weight is nonzero, for
    the pair exchange ex = a·I + c·SWAP taken k = n_exchange times. A
    coefficient within rounding of 0 counts as 0: a at xi ≡ π (mod 2π)
    leaves only j = k, c at xi ≡ 0 only j = 0."""
    a, c = (complex(v) if abs(v) > 1e-15 else 0j for v in (ex[1, 1], ex[1, 2]))
    weights = {j: a ** (n_exchange - j) * c ** j for j in range(n_exchange + 1)}
    return {j: w for j, w in weights.items() if w != 0}


def _strand_halves(factors: np.ndarray, digits: np.ndarray,
                   trie: tuple) -> np.ndarray:
    """A ⊗ B, (rows, patterns, 4, 4), for each row of letter digits (letter
    l's spin-0 and spin-1 factors are factors[l]) and each parity pattern
    of the half whose _strand_trie is trie. It is a view of planar stacks,
    (16, patterns, rows) in memory: each trie level is one _product_2x2
    and A ⊗ B one multiply, on whole stacks."""
    levels, rows_a, rows_b = trie
    n_letters = len(factors)
    planar = factors.transpose(2, 3, 1, 0).reshape(4, -1)  # ij, spin·letter
    # The trie's leaf products, (i, j, nodes, rows) per level; later letters
    # multiply on the left.
    prods = np.broadcast_to(np.eye(2, dtype=complex)[:, :, None, None],
                            (2, 2, 1, len(digits)))
    for step, (parents, spins) in enumerate(levels):
        prods = _product_2x2(planar.take(
            spins[:, None] * n_letters + digits[:, step], axis=1).reshape(
                2, 2, len(parents), -1), prods.take(parents, axis=2))
    a, b = prods.take(rows_a, axis=2), prods.take(rows_b, axis=2)
    # (A ⊗ B)[2i + k, 2j + l] = A[i, j]·B[k, l], the order circuits.join keeps.
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        16, *a.shape[2:]).T.reshape(-1, len(rows_a), 4, 4)


def _folded_prefixes(factors: np.ndarray, digits: np.ndarray, trie: tuple,
                     weights: dict, targets: np.ndarray) -> np.ndarray:
    """The _strand_halves P of each row of prefix letter digits, folded
    with each term's F = weight·T†·SWAP^j as (P·F)^T and flattened into
    columns, (rows, 16, terms x patterns): tr(F·S·P) = tr(S·(P·F)) is then
    a flattened suffix half S times a column. targets holds each row's T,
    (rows, 4, 4). The halves are built and folded into the table a slice
    of rows at a time, each slice's halves and strand products about
    _PAIR_BYTES (128 of the rotation's 510 first-sample prefixes), so the
    build holds the table and one slice, not a second full-size copy: it
    peaks at 1.97 MB traced there, against 2.74 MB built whole."""
    table = np.zeros((len(digits), 4, 4, len(weights), len(trie[1])), complex)
    step = max(1, _PAIR_BYTES // (512 * len(trie[1])))  # rows of a slice
    for s in range(0, len(digits), step):
        rows = slice(s, s + step)
        half = _strand_halves(factors, digits[rows], trie)
        t_dag = targets[rows].conj().transpose(0, 2, 1)
        folds = np.stack([w * (t_dag[..., [0, 2, 1, 3]] if j % 2 else t_dag)
                          for j, w in weights.items()], axis=1)  # ·SWAP
        # (P·F)^T[a, b] = Σ_c F[c, a]·P[b, c], elementwise, with temporaries
        # a sixteenth of the slice's (rows, a, b, terms, patterns) table.
        for a, b, c in itertools.product(range(4), repeat=3):
            table[rows, a, b] += folds[:, :, c, a, None] * half[:, None, :, b, c]
        del half  # before the next slice builds its own
    return table.reshape(len(digits), 16, -1)


def _strand_traces(pre: np.ndarray, suf: np.ndarray, cells: np.ndarray,
                   counts: tuple) -> tuple:
    """(traces, cols): tr(T†·U) on the acted pair of each word and placement
    is traces[:, cols]. A word's flattened suffix halves suf (patterns, 16)
    times its _folded_prefixes columns pre is its grid of cells, and a
    placement sums its cells, each times its count of terms there; where
    each placement is one term, traces is the grid, so each cell is scored
    once."""
    grid = np.matmul(suf, pre).reshape(len(pre), -1)
    if len(cells) == 1 and counts[0] is None:
        return grid, cells[0]
    grid = np.hstack([grid, np.zeros((len(grid), 1))])  # cell -1 reads 0
    return sum(grid[:, cell] * (1 if n is None else n.T)
               for cell, n in zip(cells, counts)), slice(None)


def _pair_rows(tries: tuple, weights: dict) -> int:
    """Rows of a pair-scan chunk: as many as gather _PAIR_BYTES, a row's
    suffix halves (16 entries per suffix pattern of tries), its table
    columns (16 per term and prefix pattern) and its grid of cells."""
    n_suf, n_cols = len(tries[1][1]), len(weights) * len(tries[0][1])
    return max(1, _PAIR_BYTES // (256 * (n_suf + n_cols) + 16 * n_suf * n_cols))


def _pair_scan(idx: np.ndarray, pair_factors: np.ndarray,
               pair_targets: np.ndarray, weights: dict,
               length: int, n_exchange: int) -> list:
    """(row, placement index) pairs, ascending, where the word of index
    idx[row] hits the pair target on every search sample, for the exchange
    whose _term_weights are weights. The words are scanned _SURVIVOR_BLOCK at
    a time (_pair_block), so the arrays that grow with them are bounded by
    the block, not by len(idx): the rotation's 16,968 survivors at its
    default search are one block, and at (10, 0) the scan of 3.7 M
    survivors peaks at 33.7 MB (32.1 MiB) traced, its 29.7 MB input and
    what the search already held included."""
    return [(lo + row, p) for lo in range(0, len(idx), _SURVIVOR_BLOCK)
            for row, p in _pair_block(idx[lo:lo + _SURVIVOR_BLOCK], pair_factors,
                                      pair_targets, weights, length, n_exchange)]


def _pair_block(idx: np.ndarray, pair_factors: np.ndarray,
                pair_targets: np.ndarray, weights: dict,
                length: int, n_exchange: int) -> list:
    """_pair_scan on one block of words. Each index is split by divmod at the
    _parity_cells split, so only the distinct prefixes and the suffixes are
    decoded to digits, and each per-word array takes the narrowest unsigned
    type that holds it. It scores rows of (sample, live word) in passes. The
    first sample's pass has a row per word; each later pass a row per live word
    on each of as many samples as fit, sample after sample, in len(idx) rows
    and in as many table rows as the first pass built, so the later samples of
    a search that keeps few words take one pass. A pass builds one table of
    folded prefix halves, a row per distinct (sample, prefix) of its rows, and
    scores its rows in blocks, in suffix order within each sample, each block
    building its suffix halves once per distinct (sample, suffix) in it, and
    each chunk of _pair_rows rows gathering its table rows and halves. The
    first pass's blocks hold four chunks; a later pass's, whose rows share a
    suffix only within a sample, one, which bounds their halves. A chunk
    tests its hits per trace. On the first pass only a chunk with a trace
    near the target maps its near rows to placements, and a row lives on
    when one of its placements hits; a chunk with none appends nothing. At
    the rotation a chunk is 64 rows, its gathers and grid about 0.5 MB, and
    the scan's traced peak 2.35 MB: the 1 MB first table, a block's halves
    and a chunk's gathers."""
    split, tries, cells, counts = _parity_cells(length, n_exchange,
                                                tuple(weights))
    n_samples, n_letters = pair_factors.shape[:2]
    n_suf, chunk = length - n_exchange - split, _pair_rows(tries, weights)
    distinct, pre_of = np.unique(idx // n_letters ** n_suf, return_inverse=True)
    codes = idx % n_letters ** n_suf
    live = np.argsort(codes, kind="stable")
    pre_of, codes, live = (a.astype(np.min_scalar_type(n - 1)) for a, n in (
        (pre_of, distinct.size), (codes, n_letters ** n_suf), (live, len(idx))))
    prefixes = _word_digits(distinct, split, n_letters)
    suffixes = _word_digits(codes, n_suf, n_letters)
    alive = None  # per live word, its placements still hit
    s = 0
    while s < n_samples and live.size:
        n = live.size
        used, row_of = np.unique(pre_of[live], return_inverse=True)
        g = 1 if alive is None else min(n_samples - s, len(idx) // n,
                                        len(prefixes) // used.size)
        # Row r of the pass is word live[r % n] on sample s + r // n, and
        # table row k·len(used) + u prefix used[u] on sample s + k. Sample
        # k's letter l is row k·n_letters + l of the pass's factors.
        factors = pair_factors[s:s + g].reshape(-1, *pair_factors.shape[2:])
        on = np.arange(g).repeat(used.size)
        digits = np.tile(prefixes[used], (g, 1)) + (on * n_letters)[:, None]
        table = _folded_prefixes(factors, digits, tries[0], weights,
                                 pair_targets[s + on])
        if alive is None:
            kept = [(live[:0], np.empty((0, cells.shape[1]), dtype=bool))]
        else:
            group = np.empty((g * n, alive.shape[1]), dtype=bool)
        size = 4 * chunk if alive is None else chunk
        for start in range(0, g * n, size):
            k, i = np.divmod(np.arange(start, min(start + size, g * n)), n)
            code = codes[live[i]]
            new = np.ones(i.size, dtype=bool)
            new[1:] = (code[1:] != code[:-1]) | (k[1:] != k[:-1])
            at = np.flatnonzero(new)
            # A view: a chunk's gather hands np.matmul each row's halves in
            # column order, which BLAS reads transposed, to the same bits as
            # a copy in row order would, without the copy's memory.
            suf = _strand_halves(
                factors, suffixes[live[i[at]]] + (k[at] * n_letters)[:, None],
                tries[1]).reshape(at.size, -1, 16)
            suf_of, pre_at = np.cumsum(new) - 1, k * used.size + row_of[i]
            for b in range(0, i.size, chunk):
                c = slice(b, b + chunk)
                traces, cols = _strand_traces(table[pre_at[c]], suf[suf_of[c]],
                                              cells, counts)
                # 2 - |tr|/2 (squared 4x4 phase distance) <= STAGE2_DIST_SQ,
                # tested per trace: per cell where each placement is one.
                near = np.abs(traces) >= 4 - 2 * STAGE2_DIST_SQ
                del traces  # before the next chunk gathers its own
                if alive is not None:
                    group[start + b:start + b + chunk] = near[:, cols]
                elif near.any():  # only rows near a cell map to placements
                    rows = np.flatnonzero(near.any(axis=1))
                    kept.append((live[i[c]][rows], near[rows][:, cols]))
            del suf  # before the next block builds its own
        del table  # before the next pass builds its own
        if alive is None:
            live, alive = (np.concatenate(a) for a in zip(*kept))
        else:
            alive &= group.reshape(g, n, -1).all(axis=0)
        keep = alive.any(axis=1)
        live, alive = live[keep], alive[keep]
        s += g
    order = np.argsort(live)
    rows, cols = np.nonzero(alive[order])
    return list(zip(live[order][rows].tolist(), cols.tolist()))


def _draw_table(problem: SynthesisProblem, n: int,
                rng: np.random.Generator) -> tuple:
    """n family draws from rng, in sampling order: each letter's signed
    angles (n_letters, n, 2 + MAX_BYSTANDER_DRAWS), the pair gates
    (n, 4, 4) and the bystander gates (n, MAX_BYSTANDER_DRAWS, 2, 2)."""
    angles, pairs, bystanders = FAMILIES[problem.family].sample(rng, n)
    return (np.array([tpl.sign * angles[tpl.symbol]
                      for tpl in problem.alphabet]), pairs, bystanders)


def _verify_table(problem: SynthesisProblem, n_samples: int,
                  seed: int) -> tuple:
    """Final verification's n_samples draws from seed as parts (register,
    one field per letter, gates): the pair's B draws on 2 spins, then each
    bystander of each draw as one of B·(n - 2) draws on 1 spin. Each part's
    fields are checked once, as the ops of one Circuit."""
    angles, pairs, bystanders = _draw_table(problem, n_samples,
                                            np.random.default_rng(seed))
    n = problem.verify_spins - 2
    parts = [(RegisterSpec(2), angles[..., :2], pairs)]
    if n:
        parts.append((RegisterSpec(1), angles[..., 2:2 + n].reshape(
            len(angles), -1, 1), bystanders[:, :n].reshape(-1, 2, 2)))
    return tuple((reg, Circuit(reg, [GlobalField(tpl.axis, a) for tpl, a
                                     in zip(problem.alphabet, part)]).ops,
                  gates) for reg, part, gates in parts)


def _draw_distances(problem: SynthesisProblem, table: tuple,
                    sequences: Sequence) -> Iterator[np.ndarray]:
    """Per sequence in turn (letter index per slot, None at exchange), its
    phase distance on problem.verify_spins spins for every draw of the
    table. Each part plays its distinct words (a bystander's drop the
    exchanges) in sorted order, its op objects in their slots, along its
    one path, of its register and len(gates) draws: _play resumes each
    word after the ops it shares with the word before, so each distinct
    prefix plays once, and keeps only the states of the ops it shares with
    the word after, since no later word shares more. combined_distance
    joins the parts."""
    ex, n_draws, parts = Exchange(0, 1, problem.xi), len(table[0][2]), []
    for reg, fields, gates in table:
        words = [tuple(x for x in letters if x is not None or reg.n_spins == 2)
                 for letters in sequences]
        path, dists, ordered = [], {}, sorted(set(words), key=_slot_order)
        for w, after in zip(ordered, ordered[1:] + [()]):
            shared = os.path.commonprefix([_slot_order(w), _slot_order(after)])
            u = _play(reg, len(gates), [ex if x is None else fields[x]
                                        for x in w], path, len(shared))
            dists[w] = phase_distance(u, gates).reshape(n_draws, -1)
        parts.append([dists[w] for w in words])
    for part in zip(*parts):
        yield combined_distance(np.hstack(part))


def _verdicts(problem: SynthesisProblem, sequences: Sequence, n_samples: int,
              seed: int) -> Iterator[tuple]:
    """(worst distance, its draw, within problem.tolerance) per sequence, over
    one table of n_samples draws from seed, drawn only if there are any."""
    if sequences:
        for dists in _draw_distances(
                problem, _verify_table(problem, n_samples, seed), sequences):
            worst = int(np.argmax(dists))
            yield (float(dists[worst]), worst,
                   bool(dists[worst] <= problem.tolerance))


def enumerate_sequences(problem: SynthesisProblem,
                        budget: int = DEFAULT_BUDGET,
                        prune: bool = True,
                        seed: int = 0) -> SynthesisResult:
    """Exhaustively search sequence space and return every verified ordering.

    The search is deterministic for a given seed: words and exchange
    placements are enumerated lexicographically, batching never reorders
    results, and duplicate sequences are removed keeping the first: those
    alike slot by slot in the schedule.unitary_digest of each letter's
    pair matrix on the first search sample and of the exchange's.
    prune=False skips the bystander pre-filter and scores every word, which
    is only sensible for small planted problems; both paths return
    identical results. MAX_LENGTH is checked first; the budget then bounds
    words x placements, and later survivors x placements x terms, each an
    exact int.
    """
    stages = Stages()
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if not problem.alphabet:
        raise ValueError(f"problem {problem.name} has no letters")
    length, k, n_field = problem.length, problem.n_exchange, problem.n_field
    if length > MAX_LENGTH:
        raise ValueError(f"length {length} is over the cap {MAX_LENGTH}")
    n_letters = len(problem.alphabet)
    n_placements, words_total = math.comb(length, k), n_letters ** n_field
    needed = words_total * n_placements
    if needed > budget:
        raise BudgetExceeded(needed, budget)

    angles, pair_targets, bystanders = _draw_table(
        problem, problem.search_samples, np.random.default_rng(seed))
    # Each letter's factors on spins 0, 1 and 2: a contiguous (S, n_letters,
    # 2, 2) stack per spin; strided views cost the scan 1.3 MB of peak RSS.
    spin = np.stack([rotation_2x2(tpl.axis, a[:, :3].T)
                     for tpl, a in zip(problem.alphabet, angles)], axis=2)
    pair_factors = np.stack(spin[:2], axis=2)
    ex4 = exchange_unitary(RegisterSpec(2), 0, 1, problem.xi)
    weights = _term_weights(ex4, k)

    if prune and n_field > 0:
        survivors = _bystander_scan(n_field, spin[2], bystanders[:, 0])
    else:
        survivors = np.arange(words_total, dtype=np.int64)
    # At most this many strand terms per placement, and at least _PAIR_CHUNK
    # words: a chunk's table rows are gathered whole, however few words.
    terms = min(sum(math.comb(k, j) for j in weights),
                len(weights) << min(k, n_field))
    needed = max(survivors.size, _PAIR_CHUNK) * n_placements * terms
    if needed > budget:
        raise BudgetExceeded(needed, budget)
    stages.mark("bystander_scan", words_total, int(survivors.size))

    placements = list(itertools.combinations(range(length), k))
    hits = _pair_scan(survivors, pair_factors, pair_targets, weights, length, k)
    words = _word_digits(survivors[[row for row, _ in hits]], n_field, n_letters)
    candidates = [_slot_letters(word, placements[p], length)
                  for word, (_, p) in zip(words, hits)]
    stages.mark("pair_scan", int(survivors.size), len(candidates))

    # With candidates, each letter's pair matrix on the first sample, then the
    # exchange's, is fingerprinted once; sequences alike in these slot by slot
    # collapse, and the rest take the result's order, where shared slots meet.
    classes = candidates and [unitary_digest(m) for m in (
        *join((((0,), spin[0, 0]), ((1,), spin[1, 0]))), ex4)]
    unique = {}
    for letters in candidates:
        unique.setdefault(tuple(classes[-1 if x is None else x]
                                for x in letters), letters)
    kept = sorted(unique.values(), key=_slot_order)
    stages.mark("dedup", len(candidates), len(kept))

    labels, solutions = problem.labels, []
    for letters, (dist, worst, passed) in zip(kept, _verdicts(
            problem, kept, problem.verify_samples, seed + 1_000_003)):
        if passed:
            solutions.append(SequenceSolution(tuple(
                "EX" if x is None else labels[x] for x in letters), dist, worst))
    stages.mark("verification", len(kept), len(solutions))
    return SynthesisResult(problem.name, tuple(solutions), SearchStats(
        n_placements, stages.elapsed_s, stages.records))


@dataclass(frozen=True)
class ReverifyCheck:
    letters: tuple
    max_distance: float  # worst over every draw, not the first failure
    worst_draw: int  # index of that draw among the seed's
    passed: bool


def reverify(result: SynthesisResult, problem: SynthesisProblem,
             n_samples: int = 100, seed: int = 1) -> tuple:
    """Re-test each reported solution on fresh draws, from its letters alone.

    Every solution is scored as a search's are (_verdicts), on n_samples
    draws from seed. Letters off the problem's slots or labels: ValueError."""
    label_to_index = dict(zip(problem.labels, itertools.count()), EX=None)
    sequences = []
    for sol in result.solutions:
        if (len(sol.letters), len(sol.exchange_slots)) != (
                problem.length, problem.n_exchange):
            raise ValueError(f"problem {problem.name} needs {problem.length} "
                             f"letters, {problem.n_exchange} of them EX")
        try:
            sequences.append([label_to_index[lab] for lab in sol.letters])
        except KeyError as exc:
            raise ValueError(f"problem {problem.name} has no letter "
                             f"{exc.args[0]!r}") from None
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"n_samples must be in 1..{MAX_SAMPLES}, got "
                         f"{n_samples}")
    return tuple(ReverifyCheck(sol.letters, *verdict) for sol, verdict in zip(
        result.solutions, _verdicts(problem, sequences, n_samples, seed)))


def problem_to_text(p: SynthesisProblem) -> str:
    lines = [f"PROBLEM name={p.name} family={p.family} length={p.length} "
             f"exchange={p.n_exchange} xi={p.xi:.17g} "
             f"tolerance={p.tolerance:.17g} search_samples={p.search_samples} "
             f"verify_samples={p.verify_samples} verify_spins={p.verify_spins}"]
    for tpl in p.alphabet:
        lines.append(f"LETTER {tpl.symbol} {tpl.axis} "
                     f"{'+' if tpl.sign > 0 else '-'}")
    return "\n".join(lines) + "\n"


_PROBLEM_KEYS = {"name": str, "family": str, "length": int, "exchange": int,
                 "xi": float, "tolerance": float, "search_samples": int,
                 "verify_samples": int, "verify_spins": int}


def problem_from_text(text: str) -> SynthesisProblem:
    """Read what problem_to_text writes; keys left out take the defaults."""
    parts = []  # the header's problem with no letters, then the letters

    def line(lineno, words):
        if words[0] == "PROBLEM":
            head = keyed(words[1:], _PROBLEM_KEYS, {},
                         ("name", "family", "length", "exchange", "xi"))
            head["n_exchange"] = head.pop("exchange")
            parts.append(SynthesisProblem(alphabet=(), **head))
        elif words[0] == "LETTER":
            symbol, axis, sign = fields(words, str, str, str)
            if sign not in ("+", "-"):
                raise ValueError(f"sign must be + or -, got {sign!r}")
            tpl = PulseTemplate(axis, symbol, 1 if sign == "+" else -1)
            replace(parts[0], alphabet=(tpl,))  # checks tpl at its line
            parts.append(tpl)
        else:
            raise ValueError(f"unknown directive {words[0]!r}")

    walk(text, "PROBLEM", line)
    return replace(parts[0], alphabet=tuple(parts[1:]))


def result_to_text(r: SynthesisResult) -> str:
    st = r.stats
    lines = [f"RESULT problem={r.problem_name} solutions={len(r.solutions)} "
             f"words={st.words_total} placements={st.placements} "
             f"survivors={st.bystander_survivors} candidates={st.pair_candidates} "
             f"elapsed_s={st.elapsed_s:.3f}"]
    for sol in r.solutions:
        slots = ",".join(str(s) for s in sol.exchange_slots)
        lines.append(f"SOLUTION max_distance={sol.max_distance:.3e} "
                     f"slots={slots} letters={','.join(sol.letters)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class HadamardSearchReport:
    found: bool
    best_distance: float  # phase_distance of the rebuilt best product
    structure: str  # block types, e.g. "ZXEXZ"
    parameters: tuple
    depth: int
    starts: int
    n_structures: int
    tolerance: float
    profiles: tuple  # ((axis, per-site ratios), ...) the blocks assumed
    nfev: int  # residual evaluations summed over the members optimized
    elapsed_s: float
    stages: tuple  # per length: members optimized, within tolerance

    # (structure, start) members optimized
    n_minimize = property(lambda self: sum(st.n_in for st in self.stages))


# Per member: final x, f = |r|^2 and trial steps; nfev sums evaluations.
MinimizeResult = namedtuple("MinimizeResult", "x fun nit nfev")
# Stall window and gain. Over the depth-8 Hadamard search at seeds 0-31
# (preset ratios, starts=3) they cut nfev from 293,746 to 148,062 and left
# every other report field as it was; 5 steps changed seeds 23 and 24.
_STALL_STEPS, _STALL_GAIN = 10, 0.1


def minimize(fun: Callable, x0: np.ndarray, maxiter: int = 300,
             fmin: float = 0.0) -> MinimizeResult:
    """Levenberg-Marquardt (Marquardt, SIAM J. Appl. Math. 11, 431 (1963))
    from each row of x0, member by member: fun(x, rows) gives members rows'
    residuals r (L, R) and Jacobian J (L, m, R) at x (L, m). A step solves
    (J J^T + lam I) d = -J r, lam from 1e-2, x10 on a rejected step and /10
    (not below 1e-12: J J^T can be singular) on an accepted one. A member
    stops at f = |r|^2 <= fmin, at an accepted step lowering f by at most
    1e-4 of it or leaving f over 1 - _STALL_GAIN of its value _STALL_STEPS
    accepted steps back (a stall; Moré, Lect. Notes Math. 630, 105 (1978)),
    at lam > 1e6 or after maxiter steps. Between evaluations it holds, per
    member, x, f and the one array that r and J view; a step's Jacobian
    rows and normal matrix go before fun runs, and fun's result once its
    accepted rows are copied in."""
    x = np.array(x0, dtype=float)
    r, jac = fun(x, np.arange(len(x)))
    f, lam, nit = np.vecdot(r, r), np.full(len(x), 1e-2), np.zeros(len(x), int)
    # Column k % _STALL_STEPS of a member's row: its f after accepted step k.
    past, n_ok = np.where(np.arange(_STALL_STEPS), np.inf, f[:, None]), nit.copy()
    live = np.flatnonzero(f > fmin)
    while live.size:
        jl, fl = jac[live], f[live]
        a = (np.vecdot(jl[:, :, None], jl[:, None])
             + lam[live, None, None] * np.eye(x.shape[1]))
        xt = x[live] - np.linalg.solve(
            a, np.vecdot(jl, r[live][:, None])[..., None])[..., 0]
        del jl, a  # freed before fun allocates the trial step's arrays
        rt, jt = fun(xt, live)
        ft = np.vecdot(rt, rt)
        nit[live] += 1
        ok = ft < fl
        lam[live] = np.where(ok, np.maximum(lam[live] / 10, 1e-12), lam[live] * 10)
        n_ok[live] += ok
        col = n_ok[live] % _STALL_STEPS
        stall = ft > (1 - _STALL_GAIN) * past[live, col]
        done = np.where(ok, (ft <= fmin) | (fl - ft <= 1e-4 * fl) | stall,
                        lam[live] > 1e6) | (nit[live] >= maxiter)
        acc = live[ok]
        x[acc], r[acc], jac[acc], f[acc] = xt[ok], rt[ok], jt[ok], ft[ok]
        past[acc, col[ok]] = ft[ok]
        live = live[~done]
        del rt, jt
    return MinimizeResult(x, f, nit, len(x) + int(nit.sum()))


def _hadamard_target() -> np.ndarray:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return np.kron(h, h)


def _hadamard_blocks(az: Sequence[float], ax: Sequence[float]) -> tuple:
    """The block table of the Hadamard search, kinds in "EXZ" order: real
    orthogonal eigenbases V, eigenvalues w and generators G = V diag(w) V^T,
    so that a block of angle v is exp(-i v G) = V diag(exp(-i v w)) V^T.

    E has G = S_0.S_1 = (SWAP - I/2)/2: 1/4 on the triplet, -3/4 on the
    singlet. Z has G = az0 S_0^z + az1 S_1^z, already diagonal. X has
    G = ax0 S_0^x + ax1 S_1^x, which H(x)H turns into the same form in az's
    place. Every block is therefore a symmetric matrix.
    """
    pair = RegisterSpec(2)
    sz = [0.5 - site_bits(pair, k) for k in range(2)]
    r = math.sqrt(0.5)
    # SWAP eigenbasis: |00>, (|01>+|10>)/sqrt2, |11> and the singlet.
    swap_basis = [[1, 0, 0, 0], [0, r, 0, r], [0, r, 0, -r], [0, 0, 1, 0]]
    bases = np.array([swap_basis, _hadamard_target(), np.eye(4)])
    eigs = np.array([[0.25, 0.25, 0.25, -0.75],
                     ax[0] * sz[0] + ax[1] * sz[1],
                     az[0] * sz[0] + az[1] * sz[1]])
    return bases, eigs, (bases * eigs[:, None, :]) @ bases.transpose(0, 2, 1)


def _hadamard_residuals(structures: Sequence[str], table: tuple,
                        target: np.ndarray) -> tuple:
    """(fun, product) over members of one length, member b with the blocks
    structures[b] and x[b] = (v_1..v_n, theta). fun(x, rows) gives minimize
    the real and imaginary parts of (e^{-i theta} U - T)/2, U = B_n...B_1 =
    product(v), B_k = exp(-i v_k G_k), whose |r|^2 at the best theta is
    phase_distance(U, T)^2, and the Jacobian -(i/2) e^{-i theta} times U for
    theta and S_k G_k P_k for v_k, P_k = B_k...B_1 and S_k = U P_k^dag (GRAPE;
    Khaneja et al., J. Magn. Reson. 172, 296 (2005)).

    The arrays are planar stacks, entries leading and member axis last, so
    each product is one _product_2x2. The chunk holds its kinds and the
    3-kind table only. A call on R members of length n takes their blocks
    from the table, forms their n prefixes, and writes the Jacobian blocks,
    cu and the residual into one (4, 4, n + 2, R) buffer, which it returns
    as one member-major copy: at its peak about 5n + 1 complex 4x4s per
    member (31 at n = 6), past minimize's n + 2."""
    # Each call's blocks, taken from the 3-kind table as contiguous planar
    # stacks, member axis last; complex, so no product casts, but real w.
    kinds = np.transpose([["EXZ".index(c) for c in s] for s in structures])
    bases, eigs, gens = (np.moveaxis(a, 0, -1)
                         for a in (table[0] + 0j, table[1], table[2] + 0j))

    def prefixes(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
        vb = bases.take(kinds[:, rows], -1)  # B_k = V diag(exp(-i v_k w)) V^T
        pre = _product_2x2(vb * np.exp(-1j * v.T * eigs.take(
            kinds[:, rows], -1)), vb.swapaxes(0, 1))
        for k in range(1, len(kinds)):
            pre[:, :, k] = _product_2x2(pre[:, :, k], pre[:, :, k - 1])
        return pre

    def fun(x: np.ndarray, rows: np.ndarray) -> tuple:
        pre, n = prefixes(x[:, :-1], rows), len(kinds)
        cu = np.exp(-1j * x[:, -1]) * pre[:, :, -1]
        gp = _product_2x2(gens.take(kinds[:, rows], -1), pre)
        herm = _product_2x2(np.conj(pre, out=pre).swapaxes(0, 1), gp)
        del pre, gp
        out = np.empty((4, 4, n + 2, len(x)), dtype=complex)  # J blocks, cu, r
        _product_2x2(cu[:, :, None], herm, out=out[:, :, :n])
        out[:, :, n], out[:, :, n + 1] = cu, (cu - target[..., None]) / 2
        out[:, :, :n + 1] *= -0.5j
        out = np.ascontiguousarray(out.reshape(16, n + 2, -1).T).view(float)
        return out[:, -1], out[:, :-1]  # per member

    return fun, lambda v: prefixes(v, np.arange(len(v)))[:, :, -1].transpose(2, 0, 1)


def _hadamard_structures(depth: int) -> list:
    """Block strings up to depth, no type twice in a row, in (length, string)
    order: each length's are the last's grown by each letter but its last."""
    level, out = [""], []
    for _ in range(depth):
        level = [s + b for s in level for b in "EXZ" if s[-1:] != b]
        out += level
    return out


def global_hadamard_search(profiles: Mapping[str, Sequence[float]],
                           depth: int = 8, tolerance: float = 1e-6,
                           starts: int = 3, seed: int = 0,
                           maxiter: int = 300) -> HadamardSearchReport:
    """Bounded numeric search for a both-spin Hadamard on a two-spin register
    from exchange steps and profile-constrained field pulses.

    profiles maps "z" and "x" to per-site amplitude ratios; the first two of
    each set the Z and X blocks. Every block structure up to the given depth
    (no two adjacent blocks of the same type, since those merge) is
    optimized from several seeded starts, a length at a time, by minimize
    on chunks of _LM_CHUNK (structure, start) members, at most maxiter steps
    each. The first member in that order within the tolerance wins, and no
    later chunk runs. Every block is a symmetric matrix and H(x)H is real and
    symmetric, so a structure and its reverse (with reversed parameters)
    score the same: only the one that sorts first is searched, and
    n_structures counts those (405 of 765 at depth 8). A structure's start
    seeds depend on its index in the full (length, string) order. The
    outcome is deterministic for a seed whether or not anything is found,
    and a negative report means only that this bounded search failed, not
    that no sequence exists. Malformed arguments, or a search priced over
    _HADAMARD_BUDGET, raise ValueError. n_minimize counts the members
    optimized, nfev their evaluations; stages has a StageRecord per length.
    """
    stages = Stages()
    ratios = {}
    for axis in ("z", "x"):
        ratios[axis] = tuple(float(v) for v in profiles.get(axis, ()))
        if len(ratios[axis]) < 2 or not all(map(math.isfinite, ratios[axis])):
            raise ValueError(f"{axis} profile needs at least two ratios, all "
                             f"finite, got {ratios[axis]}")
    counts = {"depth": depth, "starts": starts, "maxiter": maxiter, "seed": seed}
    for name, value in counts.items():
        least = int(name != "seed")
        if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                or value < least):
            raise ValueError(f"{name} must be an integer of at least {least}, "
                             f"got {value!r}")
    depth, starts, maxiter, seed = map(int, counts.values())
    for ok, message in (
            (0 < tolerance < math.inf,
             "tolerance must be finite and positive"),
            (starts * 3 * (2 ** min(depth, 64) - 1)
             * (10 + (maxiter + 1) * depth) <= _HADAMARD_BUDGET,
             f"starts x 3(2^depth - 1) x (10 + (maxiter + 1) x depth) must be "
             f"at most {_HADAMARD_BUDGET:,}")):
        if not ok:
            raise ValueError(message)
    az, ax = ratios["z"][:2], ratios["x"][:2]
    target = _hadamard_target()
    table = _hadamard_blocks(az, ax)

    structures = _hadamard_structures(depth)
    searched = [(i, s) for i, s in enumerate(structures) if s <= s[::-1]]

    best, nfev = (math.inf, "", ()), 0
    for n in range(1, depth + 1):
        of_n, n_out = [(i, s) for i, s in searched if len(s) == n], 0
        for c in range(0, len(of_n) * starts, _LM_CHUNK):  # a chunk at a time
            chunk = [of_n[m // starts] + (m % starts,) for m in
                     range(c, min(c + _LM_CHUNK, len(of_n) * starts))]
            fun, product = _hadamard_residuals([m[1] for m in chunk], table, target)
            v0 = np.array([np.random.default_rng(
                seed * 1_000_003 + i * 1009 + start).uniform(
                    -math.pi, math.pi, size=len(s)) for i, s, start in chunk])
            x0 = np.column_stack([v0, np.angle(np.vecdot(
                target.ravel(), product(v0).reshape(-1, 16)))])
            res = minimize(fun, x0, maxiter=maxiter, fmin=(1e-6 * tolerance) ** 2)
            nfev, v = nfev + res.nfev, res.x[:, :-1]
            dists = phase_distance(product(v), np.resize(target, (len(v), 4, 4)))
            n_out += int(np.count_nonzero(dists <= tolerance))
            for (_, structure, _), dist, params in zip(chunk, dists, v):
                if dist < best[0]:
                    best = (float(dist), structure, tuple(params.tolist()))
                if dist <= tolerance:
                    break
            if best[0] <= tolerance:
                break
        # The chunks run hold c + len(chunk) members.
        stages.mark(f"length_{n}", c + len(chunk), n_out)
        if best[0] <= tolerance:
            break
    return HadamardSearchReport(
        found=best[0] <= tolerance, best_distance=best[0], structure=best[1],
        parameters=best[2], depth=depth, starts=starts,
        n_structures=len(searched), tolerance=tolerance,
        profiles=(("z", az), ("x", ax)), nfev=nfev,
        elapsed_s=stages.elapsed_s, stages=stages.records)
