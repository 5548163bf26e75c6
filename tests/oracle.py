"""Reference constructions the tests check the package against. The
independent ones use numpy only, so they share no code with what they
check.

Nine references are the package's own earlier code paths, kept here once
the package replaced them, and call the package where those paths did: the
verify suites run one draw at a time, which call the package's builders
with floats and draw with one Generator call at a time (pair_draws,
against cli._pair_draws' raw words); the local-z distance with its
2049-point scan evaluated one angle at a time and golden-section
refinement; final verification's word loop, which plays every word on the
whole register with the pulse kernel, never group by group or part by part
and never sharing a prefix between words; the unitary digest taken over
the whole matrix at once, never row block by row block; the full-register
loop (play) of identity and apply_op, with no planner and no shared
prefix; circuits.factor playing every group alone through that loop, each
1-spin group on its own register, the groups split here, not by the
package's planner; the bystander filter's scan, which gathers each word's
two halves on the first sample as on later ones, from halves formed by
batched matmul, not by elementwise 2x2 products, and scores them by
einsum; the pair filter's strand halves, built on stacks of 2x2s with
their rows leading (product_2x2) and joined by circuits.join
(strand_halves); and the pair filter's scan, which builds both strand
halves once per word, batch by batch in row order, with matmul products
and T† folded into the suffix half. A synthesis target is built as the Kronecker product of a family draw's
pair and bystander gates, against final verification's factored parts,
which factored_draw_distances scores one draw at a time."""

import cmath
import contextlib
import hashlib
import io
import json
import math
import resource
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from globalspin import circuits, cli, grammar, synth
from globalspin.linalg import phase_distance
from globalspin.spins import (Exchange, GlobalField, RegisterSpec, apply_op,
                              identity)

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


# The verify command's suites, one draw at a time.
DRAWS_PER_SUITE = 60
# Per pair suite: the builder, the number of angles drawn before the
# bystander angles, and whether bystander angles are drawn.
PAIR_SUITES = {
    "swap": (circuits.swap_conjugation, 2, True),
    "dressed": (circuits.dressed_swap_phase_conjugation, 3, False),
    "cp": (circuits.controlled_phase_circuit, 1, True),
    "xy": (circuits.xy_x_rotation_circuit, 2, True),
    "xycp": (circuits.xy_controlled_phase_circuit, 1, False),
}
PARALLEL_PAIRS = {4: ((0, 1), (2, 3)), 6: ((0, 1), (2, 3), (4, 5))}


@dataclass(frozen=True)
class Draw:
    """One draw of a suite: its layout, the builder's angle arguments
    (floats, then the bystander angles by spin) and its value."""

    n: int
    i: int
    j: int
    args: tuple
    value: float


def _angle(rng):
    return float(rng.uniform(-3, 3))


def draw_value(suite, n, i, j, args, tol=1e-10):
    """A draw's value, built with floats: the larger of the distance and the
    bystander deviation. A parallel draw's args hold the template angle,
    its n the register, and its target is the product of the pair gates,
    EXACT over every spin."""
    if suite == "parallel":
        template, _ = circuits.controlled_phase_circuit(RegisterSpec(2), 0, 1,
                                                        *args)
        reg = RegisterSpec(n)
        c = circuits.parallel_apply(template, PARALLEL_PAIRS[n], reg)
        target = np.eye(reg.dim, dtype=complex)
        for p, q in PARALLEL_PAIRS[n]:
            target = circuits._diag_zz_phase(reg, p, q, math.pi) @ target
        target = circuits.GateTarget(target, frozenset(range(n)),
                                     circuits.Equivalence.EXACT)
    else:
        c, target = PAIR_SUITES[suite][0](RegisterSpec(n), i, j, *args)
    rep = circuits.verify_target(c, target, tol)
    return max(rep.distance, rep.bystander_deviation)


def pair_draws(rng, n_angles, bystanders, draws=DRAWS_PER_SUITE):
    """[(n, i, j, row)] of a pair suite, one Generator call at a time: n
    spins, the pair (i, j), then row, a tuple of n_angles angles and, with
    bystanders, one angle per other spin in ascending order."""
    out = []
    for _ in range(draws):
        n = int(rng.integers(2, 5))
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        k = n_angles + (n - 2 if bystanders else 0)
        out.append((n, i, j, tuple(_angle(rng) for _ in range(k))))
    return out


def verify_draws(seed, suites, tol=1e-10):
    """{suite: [Draw]} for `verify --seed seed`, the suites run in order on
    one generator, in the command's draw order."""
    rng = np.random.default_rng(seed)
    out = {}
    for suite in suites:
        draws = []
        if suite == "parallel":
            for _ in range(DRAWS_PER_SUITE // 4):
                args = (_angle(rng),)
                for n in PARALLEL_PAIRS:
                    draws.append(Draw(n, 0, 1, args,
                                      draw_value(suite, n, 0, 1, args, tol)))
        else:
            _, n_angles, bystanders = PAIR_SUITES[suite]
            for n, i, j, row in pair_draws(rng, n_angles, bystanders):
                args = row[:n_angles]
                if bystanders:
                    spins = [k for k in range(n) if k not in (i, j)]
                    args += (dict(zip(spins, row[n_angles:])),)
                draws.append(Draw(n, i, j, args,
                                  draw_value(suite, n, i, j, args, tol)))
        out[suite] = draws
    return out


def suite_worst(draws):
    """The suite's value as the one-draw-at-a-time loop folded it."""
    worst = 0.0
    for d in draws:
        worst = max(worst, d.value)
    return worst


def verify_records_digest(seeds) -> str:
    """sha256 of every check record's name, repr(measured) and worst_draw
    of `verify --suite all --seed s` for each s in seeds, in order. Every
    draw keeps its bits while this holds; over seeds 0-299, from the root
    of a checkout:

        PYTHONPATH=src:tests python -c "import oracle; print(oracle.verify_records_digest(range(300)))"
    """
    digest = hashlib.sha256()
    for seed in seeds:
        for line in filter(str.strip, _verify_all(seed).splitlines()):
            r = json.loads(line)
            if r["kind"] == "check":
                worst = json.dumps(r["worst_draw"], sort_keys=True)
                digest.update(
                    f"{r['name']} {r['measured']!r} {worst}\n".encode())
    return digest.hexdigest()


def _verify_all(seed) -> str:
    """The output of `verify --suite all --seed seed --format json-lines`,
    run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--suite", "all", "--seed", str(seed),
                         "--format", "json-lines"])
    assert code == 0, (seed, code)
    return out.getvalue()


def verify_minor_faults(seeds) -> float:
    """Mean minor page faults (ru_minflt) per in-process `verify --suite
    all` call over seeds, after three warm-up calls at the first seed. The
    count depends on the allocator and its trim threshold, so no tier-1 test
    pins it; over seeds 100-129, from the root of a checkout:

        PYTHONPATH=src:tests python -c "import oracle; print(oracle.verify_minor_faults(range(100, 130)))"
    """
    seeds = list(seeds)
    for _ in range(3):
        _verify_all(seeds[0])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for seed in seeds:
        _verify_all(seed)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            - before) / len(seeds)


def search_stage_seconds(problem, seeds) -> dict:
    """{stage: (seconds, faults)}: the median over seeds of each stage's
    wall seconds and minor page faults (ru_minflt) in one in-process
    synth.enumerate_sequences(problem, seed=s), and under "search" the
    whole search's, after one warm-up search at the first seed. The faults
    are read at the search's own stage marks. problem is a SynthesisProblem
    or a bundled preset's name. Over seeds 100-129, from the root of a
    checkout:

        PYTHONPATH=src:tests python -c "import oracle; print(oracle.search_stage_seconds('z_difference_rotation', range(100, 130)))"
    """
    if isinstance(problem, str):
        with open(grammar.preset_path(problem)) as fh:
            problem = synth.problem_from_text(fh.read())
    real, faults = synth.clock, []

    def clock():
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return real()

    seeds, rows = list(seeds), []
    synth.clock = clock
    try:
        for seed in seeds[:1] + seeds:
            del faults[:]
            stats = synth.enumerate_sequences(problem, seed=seed).stats
            rows.append([(st.name, st.seconds, n - m) for st, m, n in zip(
                stats.stages, faults, faults[1:])]
                + [("search", stats.elapsed_s, faults[-1] - faults[0])])
    finally:
        synth.clock = real
    return {col[0][0]: tuple(float(np.median([c[k] for c in col]))
                             for k in (1, 2)) for col in zip(*rows[1:])}


def local_z_aligned_distance(u, target, n_spins, i, j):
    """Distance from u to D target over D = diag(p^bit_i q^bit_j): the
    2049-point scan of g evaluated one angle at a time, golden-section
    refinement and the closed-form alternation."""
    r = np.diag(u @ target.conj().T)
    idx = np.arange(1 << n_spins)
    bi = (idx >> (n_spins - 1 - i)) & 1
    bj = (idx >> (n_spins - 1 - j)) & 1
    m = np.zeros((2, 2), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            m[a, b] = r[(bi == a) & (bj == b)].sum()

    def g(ang):
        q = cmath.exp(-1j * ang)
        return abs(m[0, 0] + q.conjugate() * m[0, 1]) \
            + abs(m[1, 0] + q.conjugate() * m[1, 1])

    angles = np.linspace(0.0, 2 * math.pi, 2049)
    best = max(angles, key=g)
    lo, hi = best - 2 * math.pi / 2048, best + 2 * math.pi / 2048
    golden = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c1 = b - golden * (b - a)
    c2 = a + golden * (b - a)
    for _ in range(80):
        if g(c1) < g(c2):
            a, c1 = c1, c2
            c2 = a + golden * (b - a)
        else:
            b, c2 = c2, c1
            c1 = b - golden * (b - a)
    ang = max((a, b, best), key=g)
    qv = np.array([1.0, cmath.exp(-1j * ang)], dtype=complex)
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
                 / math.sqrt(1 << n_spins))


def family_draw(family, rng):
    """One draw of a synthesis family, sampled alone (n = 1): its angles
    by symbol, its pair gate and its bystander gates."""
    angles, pairs, bystanders = family.sample(rng, 1)
    return SimpleNamespace(angles={s: a[0] for s, a in angles.items()},
                           pair=pairs[0], bystanders=bystanders[0])


def register_target(draw, n_spins):
    """A synthesis family draw's target on the pair and its first
    n_spins - 2 bystanders: the Kronecker product of its gates."""
    target = draw.pair
    for gate in draw.bystanders[:n_spins - 2]:
        target = np.kron(target, gate)
    return target


def draw_distances(problem, table, letters):
    """Phase distance of a sequence (letter index per slot, None at
    exchange) for every draw of a synthesis verification table, whose parts
    are the pair and the bystanders: the word played on the whole
    register, one batched kernel pass per slot, against the Kronecker
    product of each draw's gates."""
    n_draws = len(table[0][2])
    fields = [GlobalField(letter[0].axis, np.hstack(
        [f.angles.reshape(n_draws, -1) for f in letter]))
        for letter in zip(*(part_fields for _, part_fields, _ in table))]
    gates = [g.reshape(n_draws, -1, *g.shape[1:]) for _, _, g in table]
    targets = []
    for b in range(n_draws):
        target = np.eye(1)
        for part in gates:
            for gate in part[b]:
                target = np.kron(target, gate)
        targets.append(target)
    reg = RegisterSpec(fields[0].angles.shape[1])
    ex = Exchange(0, 1, problem.xi)
    u = identity(reg, n_draws)
    for letter in letters:
        apply_op(u, reg, ex if letter is None else fields[letter])
    return phase_distance(u, np.array(targets))


def factored_draw_distances(problem, letters, n_samples, seed):
    """Final verification's distances of a sequence (letter index per slot,
    None at exchange) over the n_samples draws of seed, each draw built and
    scored alone: the word on the pair, its field letters on each
    bystander, each part against its own gate, combined by
    circuits.combined_distance."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_samples):
        draw = family_draw(synth.FAMILIES[problem.family], rng)
        angles = [tpl.sign * draw.angles[tpl.symbol]
                  for tpl in problem.alphabet]
        parts = [((0, 1), draw.pair)] + [
            ((k,), gate) for k, gate in enumerate(
                draw.bystanders[:problem.verify_spins - 2], start=2)]
        dists = []
        for sites, gate in parts:
            ops = [Exchange(0, 1, problem.xi) if x is None else GlobalField(
                problem.alphabet[x].axis, tuple(angles[x][list(sites)]))
                for x in letters if x is not None or len(sites) == 2]
            u = circuits.evaluate(circuits.Circuit(RegisterSpec(len(sites)),
                                                   ops))
            dists.append(phase_distance(u, gate))
        out.append(circuits.combined_distance(np.array(dists)))
    return np.array(out)


def play(reg, ops, draws=None):
    """The ops folded into one running unitary (or one per draw) on the
    whole register reg, with the pulse kernel."""
    u = identity(reg, draws)
    for op in ops:
        apply_op(u, reg, op)
    return u


def factor(c, groups=None):
    """circuits.factor with each group played alone on its own register,
    every 1-spin group by itself: the same parts in the same order, the
    groups split here from circuits._exchange_groups."""
    n = c.register.n_spins
    if n >= circuits.FACTOR_MIN_SPINS and groups is None:
        groups = circuits._exchange_groups(n, c.ops)
    if n < circuits.FACTOR_MIN_SPINS or len(groups) < 2:
        return ((tuple(range(n)), play(c.register, c.ops, c.draws)),)
    return tuple((tuple(g), play(RegisterSpec(len(g)), [
        circuits._on(tuple(g), op) for op in c.ops
        if isinstance(op, GlobalField) or op.i in g], c.draws))
        for g in sorted(groups, key=len))


def dense_digest(u):
    """The schedule digest of a matrix, hashed whole: the phase of the
    first entry within 1e-9 of the largest modulus removed, then the real
    and the imaginary parts rounded to 9 decimals, -0.0 read as 0.0."""
    u = np.asarray(u, dtype=complex)
    h = hashlib.sha256(str(u.shape).encode())
    mag = np.abs(u)
    anchor = u.flat[int(np.argmax(mag >= mag.max() - 1e-9))]
    normalized = u / (anchor / abs(anchor))
    h.update(np.round(normalized.real, 9) + 0.0)
    h.update(np.round(normalized.imag, 9) + 0.0)
    return h.hexdigest()


def word_products(mats, length):
    """Products of every word of `length` letters in ascending word index,
    the first letter acting first, each a batched matmul."""
    d = mats.shape[-1]
    prods = np.eye(d, dtype=complex)[None]
    for _ in range(length):
        prods = np.matmul(mats[None], prods[:, None]).reshape(-1, d, d)
    return prods


def half_word_factors(mats, target, n_field):
    """synth._half_word_factors with matmul products, its columns as
    rows: prefix rows P and transposed T†-folded suffix rows (T†S)^T of
    every n_field-letter word."""
    k = n_field // 2
    d = mats.shape[-1]
    pre = word_products(mats, k).reshape(-1, d * d)
    suf = target.conj().T @ word_products(mats, n_field - k)
    return pre, suf.transpose(0, 2, 1).reshape(-1, d * d)


def bystander_scan(n_field, bys_mats, bys_targets):
    """synth._bystander_scan with every sample gathered: each block of
    word indices takes its prefix and suffix rows one word at a time,
    from half_word_factors."""
    total = bys_mats[0].shape[0] ** n_field
    blocks = (np.arange(s, min(s + synth._CHUNK, total), dtype=np.int64)
              for s in range(0, total, synth._CHUNK))
    for mats, tgt in zip(bys_mats, bys_targets):
        pre, suf = half_word_factors(mats, tgt, n_field)
        kept = []
        for idx in blocks:
            tr = np.einsum("nk,nk->n", pre[idx // suf.shape[0]],
                           suf[idx % suf.shape[0]])
            kept.append(idx[2.0 - np.abs(tr) <= synth.STAGE1_DIST_SQ])
        alive = np.concatenate(kept)
        if alive.size == 0:
            break
        blocks = [alive[s:s + synth._CHUNK]
                  for s in range(0, alive.size, synth._CHUNK)]
    return alive


def product_2x2(a, b):
    """a @ b over broadcast stacks of 2x2s, rows leading, each entry
    formed as a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for i in range(2):
        for j in range(2):
            np.add(a[..., i, 0] * b[..., 0, j], a[..., i, 1] * b[..., 1, j],
                   out=out[..., i, j])
    return out


def strand_halves(factors, digits, trie):
    """synth._strand_halves with each trie level's products on stacks of
    2x2s, rows leading, by product_2x2, and A ⊗ B by circuits.join."""
    levels, rows_a, rows_b = trie
    half = factors[digits]
    prods = np.broadcast_to(np.eye(2, dtype=complex), (len(digits), 1, 2, 2))
    for step, (parents, spins) in enumerate(levels):
        prods = product_2x2(half[:, step, spins], prods[:, parents])
    return circuits.join((((0,), prods[:, rows_a]), ((1,), prods[:, rows_b])))


def strand_traces(factors, weights, target, length, n_exchange):
    """synth._strand_traces from each word's own factors (a row of factors
    per word: each field letter's spin-0 and spin-1 factor), so both
    strand halves are built once per word."""
    n_words = factors.shape[0]
    split, tries, cells, counts = synth._parity_cells(length, n_exchange,
                                                      tuple(weights))
    halves = []
    for (levels, rows_a, rows_b), half in zip(tries, (factors[:, :split],
                                                      factors[:, split:])):
        prods = np.broadcast_to(np.eye(2, dtype=complex), (n_words, 1, 2, 2))
        for step, (parents, spins) in enumerate(levels):
            prods = half[:, step, spins] @ prods[:, parents]
        halves.append(circuits.join((((0,), prods[:, rows_a]),
                                     ((1,), prods[:, rows_b]))))
    pre = halves[0].reshape(n_words, -1, 16)
    # The cells (suffix pattern, j, prefix pattern) as rows, and a zero row
    # last for the padding cell -1.
    grid = np.zeros((halves[1].shape[1], len(weights), pre.shape[1], n_words),
                    dtype=complex)
    for g, (j, weight) in enumerate(weights.items()):
        fold = weight * target.conj().T
        if j % 2:
            fold = fold[:, [0, 2, 1, 3]]
        suf = (fold @ halves[1]).swapaxes(2, 3).reshape(n_words, -1, 16)
        grid[:, g] = np.matmul(pre, suf.swapaxes(1, 2)).transpose(2, 1, 0)
    rows = np.vstack([grid.reshape(-1, n_words), np.zeros((1, n_words))])
    traces = None
    for cell, n in zip(cells, counts):
        part = rows[cell]
        if n is not None:
            part *= n
        traces = part if traces is None else np.add(traces, part, out=traces)
    return traces.T


def pair_scan(words, pair_factors, pair_targets, weights, length, n_exchange):
    """synth._pair_scan in batches of words in row order, each batch
    rescoring its live words on every sample from their own factors."""
    n_placements = math.comb(length, n_exchange)
    hits = []
    for start in range(0, words.shape[0], synth._PAIR_CHUNK):
        batch = words[start:start + synth._PAIR_CHUNK]
        alive = np.ones((batch.shape[0], n_placements), dtype=bool)
        for factors, tgt in zip(pair_factors, pair_targets):
            live = np.flatnonzero(alive.any(axis=1))
            if live.size == 0:
                break
            tr = strand_traces(factors[batch[live]], weights, tgt, length,
                               n_exchange)
            alive[live] &= 2.0 - np.abs(tr) / 2.0 <= synth.STAGE2_DIST_SQ
        rows, cols = np.nonzero(alive)
        hits.extend(zip((start + rows).tolist(), cols.tolist()))
    return hits
