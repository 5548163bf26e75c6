import dataclasses
import itertools
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from globalspin import circuits, synth
from globalspin.circuits import Circuit, Exchange, evaluate, join
from globalspin.device import (ANTIPARALLEL, PARALLEL, device_constants,
                               field_profile, twin_wire_preset)
from globalspin.grammar import preset_path
from globalspin.linalg import hermitian_expm, max_abs, phase_distance
from globalspin.spins import (AXES, GlobalField, RegisterSpec, apply_op,
                              exchange_unitary, global_field_unitary,
                              rotation_2x2, spin_operator)
from globalspin.synth import (BudgetExceeded, PulseTemplate,
                              SynthesisProblem, enumerate_sequences,
                              global_hadamard_search, problem_from_text,
                              problem_to_text, result_to_text, reverify)

import oracle

PROFILES = {"z": (1.0, 0.75), "x": (1.0, 0.5)}
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
# Planted cores: the swap plant and the controlled-phase plant.
PLANTS = {"swap_pair_exchange": (math.pi, ("EX", ("z", 1), "EX")),
          "controlled_phase": (math.pi / 2.0,
                               ("EX", ("z", 1), "EX", ("z", -1)))}


def test_rotation_problem_shape(bundled):
    p = bundled("z_difference_rotation")
    assert p.length == 11
    assert p.n_exchange == 4
    assert p.n_field == 7
    assert len(p.alphabet) == 8
    assert p.xi == math.pi
    labels = set(p.labels)
    assert labels == {"merged+", "merged-", "primary+", "primary-",
                      "companion+", "companion-", "pi_step+", "pi_step-"}


def test_rotation_problem_literal_alphabet(bundled):
    p = bundled("z_difference_rotation_literal")
    labels = set(p.labels)
    assert labels == {"primary+", "primary-", "companion+", "companion-",
                      "x_dark+", "x_dark-", "z_dark+", "z_dark-"}


def test_planted_swap_finds_exactly_the_plant(bundled):
    p = bundled("planted_swap")
    r = enumerate_sequences(p, seed=3)
    assert len(r.solutions) == 1
    sol = r.solutions[0]
    assert sol.letters == ("EX", "primary+", "EX")
    assert sol.exchange_slots == (0, 2)
    assert sol.max_distance <= p.tolerance


def test_planted_cp_solutions(bundled):
    p = bundled("planted_cp")
    r = enumerate_sequences(p, seed=3)
    # Diagonal target and z pulses commute, so every cyclic variant of the
    # planted word also lands on it; the plant itself must be among them.
    assert len(r.solutions) >= 1
    assert all(s.max_distance <= p.tolerance for s in r.solutions)
    planted = [s for s in r.solutions if s.letters[0] != "EX"]
    assert planted


def test_dedup_keeps_one_of_each_realized_sequence(bundled):
    # With every letter listed twice, each solution is found once per
    # spelling, and all spellings realize the same pair matrices slot by
    # slot, so dedup keeps one: the solutions are those of the plain
    # alphabet, their labels naming the (shared) axis.
    p = bundled("planted_cp")
    once = enumerate_sequences(p, seed=0)
    twice = enumerate_sequences(
        dataclasses.replace(p, alphabet=p.alphabet + p.alphabet), seed=0)
    assert twice.stats.pair_candidates == 4 * len(once.solutions)
    assert twice.stats.deduplicated == len(once.solutions)
    assert [tuple(lab if lab == "EX" else lab[:-1] for lab in s.letters)
            for s in twice.solutions] == [s.letters for s in once.solutions]


def test_dedup_fingerprints_letters_only_for_candidates(bundled, monkeypatch):
    # Dedup fingerprints each letter and the exchange once per search, and
    # only if the pair scan kept a candidate: the literal twin keeps none,
    # and its 8 letters' and exchange's 9 digests would be a third of its
    # search.
    digests = []
    digest = synth.unitary_digest
    monkeypatch.setattr(synth, "unitary_digest",
                        lambda m: digests.append(m) or digest(m))
    literal = enumerate_sequences(bundled("z_difference_rotation_literal"),
                                  seed=0)
    assert (literal.stats.pair_candidates, len(digests)) == (0, 0)
    p = bundled("planted_cp")
    assert enumerate_sequences(p, seed=0).solutions
    assert len(digests) == len(p.alphabet) + 1


def test_search_counts_are_its_stage_records(bundled):
    # The funnel is read off the stage records, each count from the stage
    # that produced it: with every letter twice dedup drops candidates, and
    # a tolerance under every distance but 0 leaves verification none, so
    # each stage's in and out differ and a count read off the wrong end
    # or stage shows.
    p = bundled("planted_cp")
    st = enumerate_sequences(dataclasses.replace(
        p, alphabet=p.alphabet + p.alphabet, tolerance=1e-300), seed=0).stats
    assert [(s.name, s.n_in, s.n_out) for s in st.stages] == [
        ("bystander_scan", 16, 8), ("pair_scan", 8, 16), ("dedup", 16, 4),
        ("verification", 4, 0)]
    assert (st.words_total, st.bystander_survivors, st.pair_candidates,
            st.deduplicated, st.verified) == (16, 8, 16, 4, 0)


def test_prune_equals_exhaustive(bundled):
    for p in (bundled("planted_swap"), bundled("planted_cp")):
        pruned = enumerate_sequences(p, prune=True, seed=0)
        full = enumerate_sequences(p, prune=False, seed=0)
        assert pruned.solutions == full.solutions
        assert pruned.stats.words_total == full.stats.words_total
        # The filter may only discard words, never solutions.
        assert pruned.stats.bystander_survivors <= full.stats.bystander_survivors


def test_same_seed_reproduces(bundled):
    p = bundled("planted_swap")
    a = enumerate_sequences(p, seed=7)
    b = enumerate_sequences(p, seed=7)
    assert a.solutions == b.solutions


def test_budget_enforced_before_search(bundled):
    p = bundled("planted_swap")
    with pytest.raises(BudgetExceeded) as info:
        enumerate_sequences(p, budget=3)
    assert info.value.needed > info.value.budget == 3


def test_sample_and_table_caps(bundled):
    p = bundled("planted_swap")
    dataclasses.replace(p, search_samples=synth.MAX_SAMPLES,
                        verify_samples=synth.MAX_SAMPLES)
    for key in ("search_samples", "verify_samples"):
        with pytest.raises(ValueError, match=r"must be in 1\.\.4096$"):
            dataclasses.replace(p, **{key: synth.MAX_SAMPLES + 1})
    result = enumerate_sequences(p)
    # reverify's draws take the problem's range: 262,145 draws on 3 spins
    # would build about 240 MB of gates.
    for n_samples in (0, -3, synth.MAX_SAMPLES + 1, 262_145):
        with pytest.raises(ValueError, match=rf"^n_samples must be in "
                                             rf"1\.\.4096, got {n_samples}$"):
            reverify(result, p, n_samples=n_samples)


def test_twelve_spins_verify_at_the_sample_cap(bundled):
    # Verification holds the pair's gates and each bystander's, never a
    # register's target: 12 spins search and reverify at 4096 draws,
    # where joined targets would take 4096 x 4096^2 entries (1.1 TB).
    p = dataclasses.replace(bundled("planted_swap"), verify_spins=12,
                            verify_samples=synth.MAX_SAMPLES)
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        result = enumerate_sequences(p)
        checks = reverify(result, p, n_samples=synth.MAX_SAMPLES)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 10.0
    assert peak <= 32 << 20, peak
    assert [s.letters for s in result.solutions] == [("EX", "primary+", "EX")]
    assert [c.passed for c in checks] == [True]


def test_empty_alphabet(bundled):
    p = dataclasses.replace(bundled("planted_swap"), alphabet=())
    with pytest.raises(ValueError,
                       match=r"^problem planted_swap has no letters$"):
        enumerate_sequences(p)


def test_reverify_passes_genuine_and_rejects_corrupt(bundled):
    p = bundled("planted_swap")
    r = enumerate_sequences(p, seed=0)
    checks = reverify(r, p, n_samples=30, seed=11)
    assert all(c.passed for c in checks)
    sol = r.solutions[0]
    wrong = dataclasses.replace(
        sol, letters=tuple("primary-" if l == "primary+" else l
                      for l in sol.letters))
    corrupt = dataclasses.replace(r, solutions=(wrong,))
    checks = reverify(corrupt, p, n_samples=30, seed=11)
    assert not checks[0].passed
    assert checks[0].max_distance > 1e-3


def test_reverify_plays_where_the_letters_put_ex(bundled):
    # A solution is its letters: the exchange slots are where "EX" stands,
    # so moving an EX changes what is played, and letters that do not fit
    # the problem are refused.
    p = bundled("planted_swap")
    r = enumerate_sequences(p, seed=0)
    moved = dataclasses.replace(r.solutions[0],
                                letters=("EX", "EX", "primary+"))
    assert moved.exchange_slots == (0, 1)
    (check,) = reverify(dataclasses.replace(r, solutions=(moved,)), p,
                        n_samples=30, seed=11)
    assert not check.passed
    assert check.max_distance > 1e-3
    for letters in (("EX", "primary+"), ("EX", "primary+", "EX", "primary+"),
                    ("EX", "primary+", "primary-")):
        bad = dataclasses.replace(r.solutions[0], letters=letters)
        with pytest.raises(ValueError, match="needs 3 letters") as info:
            reverify(dataclasses.replace(r, solutions=(bad,)), p)
        assert "\n" not in str(info.value)


def test_labels_name_the_axis_when_symbol_and_sign_repeat(bundled):
    # z and x letters of one symbol and sign need the axis in their labels,
    # or the result cannot say which letter it used and reverify plays the
    # wrong one.
    p = dataclasses.replace(bundled("planted_swap"),
                            alphabet=(PulseTemplate("z", "primary", 1),
                                      PulseTemplate("x", "primary", 1)))
    assert p.labels == ("primary+z", "primary+x")
    r = enumerate_sequences(p, seed=0)
    assert [sol.letters for sol in r.solutions] == [("EX", "primary+z", "EX")]
    checks = reverify(r, p, n_samples=30, seed=11)
    assert all(c.passed for c in checks)


def search_samples(p, rng, n=1):
    """The search's matrices for n draws from rng: per draw, each letter's
    first-bystander factor (n, L, 2, 2) and pair factors (n, L, 2, 2, 2),
    then the bystander target (n, 2, 2) and the pair target (n, 4, 4)."""
    angles, pairs, bystanders = synth._draw_table(p, n, rng)
    f = np.stack([rotation_2x2(tpl.axis, a[:, :3])
                  for tpl, a in zip(p.alphabet, angles)], axis=1)
    return f[:, :, 2], f[:, :, :2], bystanders[:, 0], pairs


def family_problem(name, spins):
    """Every letter of a family, on a register of spins."""
    alphabet = tuple(PulseTemplate(axis, symbol, sign)
                     for symbol in synth.FAMILIES[name].symbols
                     for axis in "xz" for sign in (1, -1))
    return SynthesisProblem(name="tables", family=name, length=1,
                            n_exchange=0, alphabet=alphabet, xi=math.pi,
                            verify_spins=spins)


def play_parts(table, li):
    """Letter li of a verification table played on each part's register,
    one stack per part."""
    out = []
    for reg, fields, gates in table:
        played = np.broadcast_to(np.eye(reg.dim, dtype=complex),
                                 gates.shape).copy()
        out.append(apply_op(played, reg, fields[li]))
    return out


def test_family_draw_tables_agree_across_registers():
    # Every stage reads one draw table: the 3-spin field a letter plays in
    # final verification, on the pair and on its bystander, is the
    # search's pair factors times its first bystander factor, and the
    # 3-spin target is the pair gate times the first bystander gate.
    for name, family in synth.FAMILIES.items():
        p = family_problem(name, 3)
        table = synth._verify_table(p, 3, seed=31)
        (_, _, pairs), (_, _, sides) = table
        bm, pf, _, _ = search_samples(p, np.random.default_rng(31), 3)
        rng = np.random.default_rng(31)
        for k in range(3):
            draw = oracle.family_draw(family, rng)
            for li in range(len(p.alphabet)):
                pair, side = play_parts(table, li)
                want = np.kron(np.kron(pf[k, li, 0], pf[k, li, 1]), bm[k, li])
                assert max_abs(np.kron(pair[k], side[k]) - want) <= 1e-14
            assert max_abs(np.kron(pairs[k], sides[k])
                           - oracle.register_target(draw, 3)) <= 1e-14


@pytest.mark.parametrize("spins", range(2, 9))
def test_joined_targets_equal_the_kron_oracle_bit_for_bit(spins):
    # Final verification scores the pair gate and the bystander gates as
    # parts, whose tensor product is the register's target; the oracle
    # takes their Kronecker product. Both multiply the same entries in the
    # same order, so only the sign of a zero may differ (join starts from
    # ones).
    for name, family in synth.FAMILIES.items():
        p = family_problem(name, spins)
        gates = [g.reshape(4, -1, *g.shape[1:])
                 for _, _, g in synth._verify_table(p, 4, seed=spins)]
        targets = join((((0, 1), gates[0][:, 0]), *(
            ((k + 2,), gates[1][:, k]) for k in range(spins - 2))))
        rng = np.random.default_rng(spins)
        want = np.array([oracle.register_target(
            oracle.family_draw(family, rng), spins) for _ in range(4)])
        assert (targets + 0.0).tobytes() == (want + 0.0).tobytes(), name


def draw_circuit(p, word, slots, draw):
    """One draw of a sequence as a Circuit on p.verify_spins spins: the
    per-draw oracle of final verification."""
    n = p.verify_spins
    ops = []
    for letter in synth._slot_letters(word, slots, p.length):
        if letter is None:
            ops.append(Exchange(0, 1, p.xi))
        else:
            tpl = p.alphabet[letter]
            ops.append(GlobalField(tpl.axis, tuple(
                tpl.sign * draw.angles[tpl.symbol][:n])))
    return Circuit(RegisterSpec(n), tuple(ops))


def oracle_distances(p, word, slots, n_samples, seed):
    """Per-draw loop: every draw of the seed built and scored alone."""
    rng = np.random.default_rng(seed)
    reg = RegisterSpec(p.verify_spins)
    out = []
    for _ in range(n_samples):
        draw = oracle.family_draw(synth.FAMILIES[p.family], rng)
        out.append(phase_distance(evaluate(draw_circuit(p, word, slots, draw)),
                                  oracle.register_target(draw, reg.n_spins)))
    return np.array(out)


def solution_word(p, sol):
    index = {lab: i for i, lab in enumerate(p.labels)}
    return [index[lab] for lab in sol.letters if lab != "EX"]


@pytest.fixture(scope="module")
def rotation_seed0(bundled):
    return enumerate_sequences(bundled("z_difference_rotation"), seed=0)


def test_verification_matches_per_draw_oracle_on_seed0(bundled,
                                                       rotation_seed0):
    p = bundled("z_difference_rotation")
    r = rotation_seed0
    assert len(r.solutions) == 48
    table = synth._verify_table(p, p.verify_samples, 1_000_003)
    sequences = [synth._slot_letters(solution_word(p, sol), sol.exchange_slots,
                                     p.length) for sol in r.solutions]
    for sol, got in zip(r.solutions,
                        synth._draw_distances(p, table, sequences)):
        want = oracle_distances(p, solution_word(p, sol), sol.exchange_slots,
                                p.verify_samples, 1_000_003)
        assert max_abs(got - want) <= 1e-15, sol
        assert sol.max_distance == got.max()
        assert sol.worst_draw == int(np.argmax(got))


@pytest.mark.parametrize("spins", range(2, 9))
@pytest.mark.parametrize("name", ["planted_swap", "planted_cp"])
def test_wide_verification_matches_the_full_register_loop(bundled, monkeypatch,
                                                          name, spins):
    # Final verification plays the pair on 2 spins and the bystanders on 1
    # each, and combines the parts' distances; the full-register loop plays
    # every word on all 2^n states against the Kronecker product of the
    # gates. Every word at every placement is compared too: the wrong ones
    # are wrong on the bystanders as well, where only verification looks.
    p = dataclasses.replace(bundled(name), verify_spins=spins)
    factored = synth._draw_distances
    table = synth._verify_table(p, 10, seed=spins)
    sequences = [synth._slot_letters(word, slots, p.length)
                 for word in itertools.product(range(len(p.alphabet)),
                                               repeat=p.n_field)
                 for slots in itertools.combinations(range(p.length),
                                                     p.n_exchange)]
    for letters, got in zip(sequences, factored(p, table, sequences)):
        assert max_abs(got - oracle.draw_distances(p, table, letters)) <= 1e-13
    got = enumerate_sequences(p, seed=0).solutions
    monkeypatch.setattr(synth, "_draw_distances", lambda p, table, sequences: (
        oracle.draw_distances(p, table, letters) for letters in sequences))
    want = enumerate_sequences(p, seed=0).solutions
    assert got
    assert ([(s.letters, s.exchange_slots) for s in got]
            == [(s.letters, s.exchange_slots) for s in want])
    for g, w in zip(got, want):
        assert abs(g.max_distance - w.max_distance) <= 1e-13


def test_verification_plays_each_distinct_prefix_once(bundled, rotation_seed0,
                                                     monkeypatch):
    # On 2 spins the pair plays every word; on 1 spin the bystanders play
    # it without its exchanges. Each part's kernel calls are its distinct
    # nonempty prefixes, counted here from the 48 solutions alone.
    p = bundled("z_difference_rotation")
    sequences = [synth._slot_letters(solution_word(p, sol), sol.exchange_slots,
                                     p.length)
                 for sol in rotation_seed0.solutions]
    words = {2: sequences,
             1: [[x for x in s if x is not None] for s in sequences]}
    want = {n: len({tuple(w[:d]) for w in part for d in range(1, len(w) + 1)})
            for n, part in words.items()}
    calls = {1: 0, 2: 0}
    real = circuits.apply_op

    def counting(u, reg, op):
        calls[reg.n_spins] += 1
        return real(u, reg, op)

    monkeypatch.setattr(circuits, "apply_op", counting)
    table = synth._verify_table(p, p.verify_samples, 1_000_003)
    assert len(list(synth._draw_distances(p, table, sequences))) == 48
    assert calls == want == {2: 303, 1: 131}


def test_verification_keeps_only_the_states_a_later_word_resumes_from(
        bundled, rotation_seed0, monkeypatch):
    # Each part plays its words in sorted order, so no later word shares
    # more leading ops with a word than the next one does: after each play
    # the path holds just those states, and after the last play none.
    p = bundled("z_difference_rotation")
    sequences = [synth._slot_letters(solution_word(p, sol), sol.exchange_slots,
                                     p.length)
                 for sol in rotation_seed0.solutions]
    plays, real = {1: [], 2: []}, synth._play

    def recording(reg, draws, ops, path=None, keep=None):
        u = real(reg, draws, ops, path, keep)
        plays[reg.n_spins].append((tuple(map(id, ops)), len(path)))
        return u

    monkeypatch.setattr(synth, "_play", recording)
    table = synth._verify_table(p, p.verify_samples, 1_000_003)
    assert len(list(synth._draw_distances(p, table, sequences))) == 48
    for part in plays.values():
        words = [w for w, _ in part] + [()]
        assert [held for _, held in part] == [
            len(os.path.commonprefix([a, b])) for a, b in zip(words, words[1:])]
        assert max(held for _, held in part) < len(words[0])


def replay_worst_draw(p, sol, seed):
    """Draw number sol.worst_draw of the seed, rebuilt and scored alone."""
    rng = np.random.default_rng(seed)
    for _ in range(sol.worst_draw + 1):
        draw = oracle.family_draw(synth.FAMILIES[p.family], rng)
    c = draw_circuit(p, solution_word(p, sol), sol.exchange_slots, draw)
    return phase_distance(evaluate(c),
                          oracle.register_target(draw, p.verify_spins))


def test_worst_draw_replays_alone(bundled, rotation_seed0):
    cases = [(bundled("z_difference_rotation"), rotation_seed0, 0)]
    cases += [(p, enumerate_sequences(p, seed=5), 5)
              for p in (bundled("planted_swap"), bundled("planted_cp"))]
    for p, r, seed in cases:
        assert r.solutions
        for sol in r.solutions:
            assert 0 <= sol.worst_draw < p.verify_samples
            replayed = replay_worst_draw(p, sol, seed + 1_000_003)
            assert abs(replayed - sol.max_distance) <= 1e-15
        for check, sol in zip(reverify(r, p, n_samples=40, seed=9),
                              r.solutions):
            assert check.passed
            assert abs(replay_worst_draw(
                p, dataclasses.replace(sol, worst_draw=check.worst_draw), 9)
                - check.max_distance) <= 1e-15


def test_reverify_reports_the_worst_of_all_draws(bundled):
    # No early stop: a wrong word's distance is its worst over every draw.
    p = bundled("planted_swap")
    r = enumerate_sequences(p, seed=0)
    wrong = dataclasses.replace(r.solutions[0],
                                letters=("EX", "primary-", "EX"))
    # At seed 12 the worst of the 30 draws is not the first one.
    (check,) = reverify(dataclasses.replace(r, solutions=(wrong,)), p,
                        n_samples=30, seed=12)
    want = oracle.factored_draw_distances(
        p, synth._slot_letters([1], wrong.exchange_slots, p.length), 30, 12)
    dense = oracle_distances(p, [1], wrong.exchange_slots, 30, 12)
    assert not check.passed
    assert check.worst_draw > 0
    assert check.max_distance == want.max()
    assert check.worst_draw == int(np.argmax(want))
    assert abs(check.max_distance - dense.max()) <= 1e-15


def test_reverify_scores_an_all_exchange_word_on_every_draw(bundled):
    # A word with no field letter plays one matrix that every draw shares;
    # it is scored against each draw's target, not refused.
    p = dataclasses.replace(bundled("planted_swap"), length=2, n_exchange=2)
    r = enumerate_sequences(p, seed=0)
    only_ex = synth.SequenceSolution(letters=("EX", "EX"), max_distance=0.0,
                                     worst_draw=0)
    (check,) = reverify(dataclasses.replace(r, solutions=(only_ex,)), p,
                        n_samples=30, seed=12)
    want = oracle.factored_draw_distances(p, [None, None], 30, 12)
    dense = oracle_distances(p, [], (0, 1), 30, 12)
    assert not check.passed
    assert check.max_distance == want.max()
    assert check.worst_draw == int(np.argmax(want))
    assert abs(check.max_distance - dense.max()) <= 1e-15


def test_reverify_rejects_unknown_label(bundled):
    p = bundled("planted_swap")
    r = enumerate_sequences(p, seed=0)
    stray = dataclasses.replace(r.solutions[0],
                                letters=("EX", "merged+", "EX"))
    with pytest.raises(ValueError, match="merged\\+") as info:
        reverify(dataclasses.replace(r, solutions=(stray,)), p)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("column", [0, 2])
def test_reverify_refuses_a_draw_with_a_nan_letter_angle(bundled, monkeypatch,
                                                        column):
    # Each part's letter fields are checked where the table is built: a NaN
    # in one draw's angle, on the pair (column 0) or on the bystander
    # (column 2), is a ValueError before anything is played.
    p = bundled("planted_swap")
    r = enumerate_sequences(p, seed=0)
    family = synth.FAMILIES[p.family]

    def sample(rng, n):
        angles, pairs, bystanders = family.sample(rng, n)
        angles["primary"][3, column] = math.nan
        return angles, pairs, bystanders

    monkeypatch.setitem(synth.FAMILIES, p.family,
                        dataclasses.replace(family, sample=sample))
    with pytest.raises(ValueError, match="^non-finite angle in GlobalField"):
        reverify(r, p, n_samples=30, seed=11)


def test_stage_records_tile_the_search(bundled):
    for p, seed in ((bundled("planted_swap"), 0), (bundled("planted_cp"), 3)):
        for prune in (True, False):
            st = enumerate_sequences(p, prune=prune, seed=seed).stats
            assert [s.name for s in st.stages] == [
                "bystander_scan", "pair_scan", "dedup", "verification"]
            funnel = [st.stages[0].n_in] + [s.n_out for s in st.stages]
            assert funnel == [st.words_total, st.bystander_survivors,
                              st.pair_candidates, st.deduplicated, st.verified]
            assert all(s.seconds >= 0.0 and s.cpu_s >= 0.0
                       for s in st.stages)
            assert abs(sum(s.seconds for s in st.stages)
                       - st.elapsed_s) <= 1e-9


@pytest.mark.parametrize("name", ["z_difference_rotation",
                                  "z_difference_rotation_literal",
                                  "planted_swap", "planted_cp"])
def test_bundled_problem_file_round_trips(name):
    # The preset files are the only definition of the bundled problems, and
    # their sha256 is in every synthesize report: writing back what was
    # read must give the same bytes.
    with open(preset_path(name)) as fh:
        text = fh.read()
    assert problem_to_text(problem_from_text(text)) == text


def test_problem_text_round_trip(bundled):
    p = dataclasses.replace(bundled("planted_swap"), tolerance=1.23456789e-10)
    assert problem_from_text(problem_to_text(p)) == p


def test_problem_header_defaults_are_the_dataclass_defaults():
    p = problem_from_text("PROBLEM name=p family=swap_pair_exchange "
                          "length=3 exchange=2 xi=1.5\nLETTER primary z +\n")
    assert p == SynthesisProblem(name="p", family="swap_pair_exchange",
                                 length=3, n_exchange=2,
                                 alphabet=(PulseTemplate("z", "primary"),),
                                 xi=1.5)


def test_problem_text_errors(bundled):
    with pytest.raises(ValueError):
        problem_from_text("LETTER p z +\n")
    text = problem_to_text(bundled("planted_swap"))
    with pytest.raises(ValueError):
        problem_from_text(text + "WHAT 1\n")
    with pytest.raises(ValueError, match="line 4: duplicate PROBLEM line"):
        problem_from_text(text + text)
    negative = text.replace("length=3 ", "length=-1 ", 1)
    assert negative != text
    with pytest.raises(ValueError, match="line 1: length must be nonnegative"):
        problem_from_text(negative)


def test_result_text_lists_solutions(bundled):
    p = bundled("planted_swap")
    r = enumerate_sequences(p, seed=0)
    text = result_to_text(r)
    assert "RESULT" in text.splitlines()[0]
    assert any(line.startswith("SOLUTION") for line in text.splitlines())
    assert "EX,primary+,EX" in text


def test_word_digit_order_is_lexicographic():
    # Index 0 maps to the all-first-letter word and the most significant
    # digit moves slowest, so sorted indices mean sorted words.
    digits = synth._word_digits(np.array([0, 1, 8], dtype=np.int64), 3, 8)
    assert digits.tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 0]]


def test_hadamard_search_smoke_depth_two():
    # Depth two cannot reach the target; the point is determinism and a
    # complete, honest report.
    a = global_hadamard_search(PROFILES, depth=2, tolerance=1e-6, starts=1,
                               seed=0, maxiter=60)
    b = global_hadamard_search(PROFILES, depth=2, tolerance=1e-6, starts=1,
                               seed=0, maxiter=60)
    assert not a.found
    assert a.best_distance > 1e-6
    assert a.structure == b.structure
    assert a.best_distance == b.best_distance
    assert a.parameters == b.parameters
    assert a.n_structures == b.n_structures


def _random_structure(rng, length):
    kinds = [str(rng.choice(list("EXZ")))]
    while len(kinds) < length:
        kinds.append(str(rng.choice([c for c in "EXZ" if c != kinds[-1]])))
    return "".join(kinds)


def _hadamard_residuals(structures):
    az, ax = PROFILES["z"], PROFILES["x"]
    return synth._hadamard_residuals(structures, synth._hadamard_blocks(az, ax),
                                     synth._hadamard_target())[0]


def _residuals_at(fun, x):
    r, jac = fun(x, np.arange(len(x)))
    return np.vecdot(r, r), jac, r


def _hadamard_product(structure, v):
    u = np.eye(4, dtype=complex)
    pair = RegisterSpec(2)
    for kind, a in zip(structure, v):
        if kind == "E":
            u = exchange_unitary(pair, 0, 1, a) @ u
        else:
            ratios = PROFILES[kind.lower()]
            u = global_field_unitary(pair, GlobalField(
                kind.lower(), (a * ratios[0], a * ratios[1]))) @ u
    return u


def test_hadamard_blocks_are_generator_exponentials():
    # Oracle: each generator built from Pauli matrices and exponentiated by
    # eigendecomposition, against the block table and the spins kernels.
    pair = RegisterSpec(2)
    az, ax = PROFILES["z"], PROFILES["x"]
    gens = {"E": sum(spin_operator(pair, 0, a) @ spin_operator(pair, 1, a)
                     for a in AXES),
            "Z": az[0] * spin_operator(pair, 0, "z")
            + az[1] * spin_operator(pair, 1, "z"),
            "X": ax[0] * spin_operator(pair, 0, "x")
            + ax[1] * spin_operator(pair, 1, "x")}
    bases, eigs, table_gens = synth._hadamard_blocks(az, ax)
    for v in (0.0, 0.37, -2.9, 7.5):
        kernels = {"E": exchange_unitary(pair, 0, 1, v),
                   "Z": global_field_unitary(
                       pair, GlobalField("z", (v * az[0], v * az[1]))),
                   "X": global_field_unitary(
                       pair, GlobalField("x", (v * ax[0], v * ax[1])))}
        for k, kind in enumerate("EXZ"):
            block = (bases[k] * np.exp(-1j * v * eigs[k])) @ bases[k].T
            assert max_abs(table_gens[k] - gens[kind]) <= 1e-15, kind
            assert max_abs(block - hermitian_expm(gens[kind], v)) <= 1e-13
            assert max_abs(block - kernels[kind]) <= 1e-13, (kind, v)


def test_hadamard_jacobian_matches_central_differences():
    # The same 40 random structures as the GRAPE gradient's test, five of
    # each length batched together, each at its optimal phase and away
    # from it.
    rng = np.random.default_rng(7)
    eps = 1e-6
    draws = []
    for length in list(range(1, 9)) * 5:
        structure = _random_structure(rng, length)
        draws.append((structure, rng.uniform(-math.pi, math.pi, size=length)))
    target = synth._hadamard_target()
    for length in range(1, 9):
        structures, vs = zip(*[d for d in draws if len(d[0]) == length])
        fun = _hadamard_residuals(structures)
        dists = [phase_distance(_hadamard_product(s, v), target)
                 for s, v in zip(structures, vs)]
        theta = [np.angle(np.trace(target @ _hadamard_product(s, v)))
                 for s, v in zip(structures, vs)]
        f, _, _ = _residuals_at(fun, np.column_stack([vs, theta]))
        assert max_abs(f - np.square(dists)) <= 1e-14, length
        x = np.column_stack([vs, np.add(theta, 0.7)])
        _, jac, _ = _residuals_at(fun, x)
        for k in range(length + 1):
            step = np.zeros_like(x)
            step[:, k] = eps
            central = (_residuals_at(fun, x + step)[2]
                       - _residuals_at(fun, x - step)[2]) / (2 * eps)
            assert max_abs(jac[:, k] - central) <= 1e-7, (structures, k)


def test_hadamard_residuals_are_reversal_symmetric():
    # Every block is symmetric and H(x)H is real symmetric, so
    # tr(T B_n...B_1) = tr((T B_n...B_1)^T) = tr(B_1...B_n T).
    rng = np.random.default_rng(11)
    for _ in range(100):
        length = int(rng.integers(1, 9))
        structure = _random_structure(rng, length)
        v = rng.uniform(-2 * math.pi, 2 * math.pi, size=length)
        theta = rng.uniform(-math.pi, math.pi)
        x, x_rev = [np.append(w, theta)[None] for w in (v, v[::-1])]
        f, jac, r = _residuals_at(_hadamard_residuals([structure]), x)
        f_rev, jac_rev, r_rev = _residuals_at(
            _hadamard_residuals([structure[::-1]]), x_rev)
        # The gradients of f, 2 J r, with theta last in both.
        grad, grad_rev = (2 * np.vecdot(j, q[:, None])[0]
                          for j, q in ((jac, r), (jac_rev, r_rev)))
        assert abs(f[0] - f_rev[0]) <= 1e-14, structure
        assert max_abs(grad - np.append(grad_rev[-2::-1], grad_rev[-1])) <= 1e-12, structure


@pytest.mark.parametrize("seed", [0, 1])
def test_hadamard_search_depth8_finds_the_six_block_sequence(seed):
    # The benchmark's input: the bundled preset's ratios on two spins.
    geometry = twin_wire_preset(2)
    profiles = {axis: device_constants(field_profile(geometry, config)).ratios
                for axis, config in (("z", PARALLEL), ("x", ANTIPARALLEL))}
    report = global_hadamard_search(profiles, depth=8, tolerance=1e-6,
                                    starts=3, seed=seed)
    assert report.found
    assert report.structure == "XZXZXZ"
    assert report.best_distance <= 1e-10
    assert report.n_structures == 405
    assert phase_distance(_hadamard_product("XZXZXZ", report.parameters),
                          synth._hadamard_target()) <= 1e-10


def _preset_profiles():
    geometry = twin_wire_preset(2)
    return {axis: device_constants(field_profile(geometry, config)).ratios
            for axis, config in (("z", PARALLEL), ("x", ANTIPARALLEL))}


# (structure, repr(best_distance), n_minimize) at depth 8, preset ratios,
# starts=3, as found before members stopped on a stall. Seeds 23 and 24 are
# where a stall window of 5 or 3 steps, or a gain of 0.5, changes the result.
PINNED_HADAMARD = {
    0: ("XZXZXZ", "1.3274444142366894e-15", 315),
    1: ("XZXZXZ", "1.1251248015222524e-15", 315),
    2: ("XZXZXZ", "6.853686623946602e-13", 315),
    3: ("XZXZXZ", "1.215924660366315e-15", 315),
    4: ("XZXZXZ", "8.435859231549843e-15", 315),
    5: ("XZXZXZ", "1.270887923003082e-15", 315),
    6: ("XZXZXZ", "1.1477668626001196e-13", 315),
    7: ("XZXZXZ", "1.2471902408759559e-15", 315),
    23: ("XZXZXZ", "2.0839529515508742e-15", 315),
    24: ("XZXZXZ", "1.2965627505663674e-15", 315),
}


def test_hadamard_search_reports_hold_at_pinned_seeds():
    # The stall stop ends only members that could not have won: every pinned
    # report is the one that members run to the old stops gave.
    for seed, want in PINNED_HADAMARD.items():
        r = global_hadamard_search(_preset_profiles(), depth=8, tolerance=1e-6,
                                   starts=3, seed=seed)
        assert (r.structure, repr(r.best_distance), r.n_minimize) == want, seed


def test_hadamard_stage_records_tile_the_search():
    # One stage per length searched, up to the one that finds; members in
    # sum to n_minimize, only the stage that finds has members out, and the
    # stage times tile the search.
    for depth, found in ((3, False), (8, True)):
        r = global_hadamard_search(_preset_profiles(), depth=depth,
                                   tolerance=1e-6, starts=3, seed=1)
        assert r.found is found
        assert [s.name for s in r.stages] == [
            f"length_{n}" for n in range(1, len(r.stages) + 1)]
        assert len(r.stages) == (6 if found else depth)
        assert sum(s.n_in for s in r.stages) == r.n_minimize
        assert [s.n_out > 0 for s in r.stages] == [False] * (
            len(r.stages) - found) + [True] * found
        assert all(s.seconds >= 0.0 and s.cpu_s >= 0.0 for s in r.stages)
        assert abs(sum(s.seconds for s in r.stages) - r.elapsed_s) <= (
            0.05 * r.elapsed_s)


def test_minimize_stops_a_member_stalled_above_a_floor():
    # r = (cos x, sin x + c) runs round a circle of radius 1 whose nearest
    # point to (0, -c) leaves the floor f = (1 - c)^2 > 0. Gauss-Newton moves
    # x by about -c cos x a step, so from x = 0 f falls about 2.4e-4 of
    # itself per step: more than the 1e-4 stop, so without the stall stop
    # the member takes all 30 steps and ends at f = 0.99311017731924...
    c = 0.011

    def fun(p, rows):
        x = p[:, 0]
        return (np.stack([np.cos(x), np.sin(x) + c], axis=1),
                np.stack([-np.sin(x), np.cos(x)], axis=1)[:, None])

    res = synth.minimize(fun, np.zeros((1, 1)), maxiter=30)
    assert res.nit[0] <= 10
    assert abs(res.fun[0] / 0.9931101773192476 - 1) <= 0.01
    assert res.fun[0] > (1 - c) ** 2


def test_hadamard_structures_equal_the_filtered_product():
    # Grown letter by letter, the structures are every string of the full
    # product with no repeated adjacent block, in (length, string) order,
    # so structure indices and start seeds are unchanged.
    for depth in range(1, 11):
        want = sorted(("".join(c) for n in range(1, depth + 1)
                       for c in itertools.product("EXZ", repeat=n)
                       if all(a != b for a, b in zip(c, c[1:]))),
                      key=lambda s: (len(s), s))
        assert synth._hadamard_structures(depth) == want, depth
    searched = [s for s in synth._hadamard_structures(8) if s <= s[::-1]]
    assert len(searched) == 405


@pytest.mark.parametrize("change", [
    pytest.param({"profiles": {"z": (1.0, 0.75), "x": (1.0, math.nan)}},
                 id="nan_x_ratio"),
    pytest.param({"profiles": {"z": (1.0,), "x": (1.0, 0.5)}},
                 id="one_z_ratio"),
    pytest.param({"profiles": {"z": (1.0, 0.75)}}, id="no_x_profile"),
    pytest.param({"profiles": {"z": (math.inf, 0.75), "x": (1.0, 0.5)}},
                 id="inf_z_ratio"),
    pytest.param({"depth": 0}, id="depth_0"),
    pytest.param({"starts": 0}, id="starts_0"),
    pytest.param({"maxiter": 0}, id="maxiter_0"),
    pytest.param({"tolerance": math.nan}, id="nan_tolerance"),
    pytest.param({"tolerance": 0.0}, id="zero_tolerance"),
    pytest.param({"tolerance": -1e-6}, id="negative_tolerance"),
    pytest.param({"tolerance": math.inf}, id="inf_tolerance"),
    # Refused by price before a structure is built: 3(2^60 - 1) of them.
    pytest.param({"depth": 60}, id="depth_60"),
    pytest.param({"starts": 10 ** 5}, id="priced_over_the_cap"),
])
def test_hadamard_search_rejects_malformed_input(change):
    kwargs = dict(profiles=PROFILES, depth=2, tolerance=1e-6, starts=1,
                  seed=0, maxiter=60)
    kwargs.update(change)
    with pytest.raises(ValueError):
        global_hadamard_search(**kwargs)


@pytest.mark.parametrize("name, value", [
    ("depth", 2.5), ("starts", 1.5), ("maxiter", 2.5), ("seed", 1.5),
    ("depth", np.float64(2.0)), ("seed", -1), ("seed", np.int64(-1)),
    ("depth", True), ("starts", True), ("maxiter", True), ("seed", True),
])
def test_hadamard_search_refuses_non_integer_counts(name, value):
    # One line that names the argument: a float otherwise reaches range or
    # the start seeds, a negative seed numpy, and a bool runs as 0 or 1.
    kwargs = dict(profiles=PROFILES, depth=2, tolerance=1e-6, starts=1,
                  seed=0, maxiter=60)
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"^{name} ") as refused:
        global_hadamard_search(**kwargs)
    assert "\n" not in str(refused.value)


def test_hadamard_search_takes_numpy_integers():
    # Read as ints: a uint8 seed would overflow in the start seeds.
    plain = global_hadamard_search(PROFILES, depth=2, tolerance=1e-6,
                                   starts=1, seed=3, maxiter=60)
    numpy_ints = global_hadamard_search(
        PROFILES, depth=np.int64(2), tolerance=1e-6, starts=np.int32(1),
        seed=np.uint8(3), maxiter=np.int16(60))
    assert (numpy_ints.best_distance, numpy_ints.parameters, numpy_ints.nfev,
            numpy_ints.depth, numpy_ints.starts) == (
        plain.best_distance, plain.parameters, plain.nfev, 2, 1)


def test_hadamard_search_calls_minimize_by_module_name(monkeypatch):
    # The benchmark counts optimizer calls and objective evaluations by
    # wrapping synth.minimize: one call per length searched, on every
    # (structure, start) member of that length.
    seen = []
    original = synth.minimize

    def counting(fun, x0, *args, **kwargs):
        seen.append(original(fun, x0, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(synth, "minimize", counting)
    report = global_hadamard_search(PROFILES, depth=2, tolerance=1e-6,
                                    starts=1, seed=0, maxiter=60)
    assert [res.x.shape for res in seen] == [(3, 2), (3, 3)]
    assert report.n_minimize == report.n_structures == 6
    assert report.nfev == sum(res.nfev for res in seen)
    assert report.nfev >= report.n_minimize
    for res in seen:
        assert np.all(np.isfinite(res.fun))
        assert np.all((1 <= res.nit) & (res.nit <= 60))


def test_hadamard_members_optimize_alike_in_any_batch(monkeypatch):
    # Seed 1's length-6 batch, up to and including XZXZXZ at its hitting
    # start: each member ends with the same x, f and step count, to the
    # bit, in the full batch, in chunks of 7 and alone.
    calls = []
    original = synth.minimize

    def recording(fun, x0, **kwargs):
        calls.append((fun, x0, kwargs, original(fun, x0, **kwargs)))
        return calls[-1][-1]

    monkeypatch.setattr(synth, "minimize", recording)
    geometry = twin_wire_preset(2)
    profiles = {axis: device_constants(field_profile(geometry, config)).ratios
                for axis, config in (("z", PARALLEL), ("x", ANTIPARALLEL))}
    report = global_hadamard_search(profiles, depth=6, tolerance=1e-6,
                                    starts=3, seed=1)
    fun, x0, kwargs, full = calls[-1]
    assert report.structure == "XZXZXZ" and len(x0) == 144
    assert report.n_minimize == 57 * 3 + 144  # every member of lengths 1-6
    hit = int(np.flatnonzero(full.fun <= 1e-12)[0])
    assert report.parameters == tuple(full.x[hit, :-1].tolist())

    calls.clear()
    monkeypatch.setattr(synth, "_LM_CHUNK", 7)
    again = global_hadamard_search(profiles, depth=6, tolerance=1e-6,
                                   starts=3, seed=1)
    assert (again.structure, again.best_distance, again.parameters) == (
        report.structure, report.best_distance, report.parameters)
    sixes = [c for c in calls if c[1].shape[1] == 7]
    assert len(sixes) == hit // 7 + 1
    for k in sorted({*range(0, hit, 10), hit}):
        fun7, x7, _, res7 = sixes[k // 7]
        j = k % 7
        assert np.array_equal(x7[j], x0[k]), k
        alone = original(lambda x, rows: fun7(x, rows + j), x0[k:k + 1],
                         **kwargs)
        for res, i in ((res7, j), (alone, 0)):
            assert np.array_equal(res.x[i], full.x[k]), k
            assert (res.fun[i], res.nit[i]) == (full.fun[k], full.nit[k]), k


def test_minimize_steps_past_a_singular_normal_matrix():
    # r = (p0 + p1)^2 has two equal Jacobian columns, so J J^T is singular,
    # and it converges only linearly, so lam keeps falling: without its
    # floor, lam drops under the rounding of J J^T and the solve raises.
    def fun(p, rows):
        x = p[:, :1] + p[:, 1:]
        return x * x, np.stack([2 * x, 2 * x], axis=1)

    res = synth.minimize(fun, np.array([[0.5, 0.5]]))
    assert np.all(np.isfinite(res.x)) and res.fun[0] < 1e-20
    assert res.nfev == 1 + res.nit[0]


def test_hadamard_search_holds_one_chunk_of_members_at_a_time():
    # 4000 starts put 36,000 members at length 3, whose products held at
    # once would take hundreds of MB. The peak comes while a chunk is
    # full, in its first steps, so a few steps per member show it.
    tracemalloc.start()
    try:
        report = global_hadamard_search(PROFILES, depth=3, tolerance=1e-6,
                                        starts=4000, seed=0, maxiter=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.n_minimize == 15 * 4000
    # Each chunk's state held once, and the members listed a chunk at a
    # time, peak at 5.5e6 B (6.3e6 B in a fresh process); ten copies of
    # each member's 4x4 stacks and every member listed at once took 14.9e6 B.
    assert peak < 8e6, peak


def test_hadamard_search_holds_each_members_state_once():
    # The benchmark's search: each evaluation holds its chunk's blocks,
    # prefixes and Jacobian once, 1.58e6 B traced at its peak, where about
    # ten copies of each member's 4x4 stacks took 3.11e6 B. The first search
    # in a process also imports modules, about 0.7e6 B, so a small one runs
    # untraced first.
    profiles = _preset_profiles()
    global_hadamard_search(profiles, depth=1, tolerance=1e-6, starts=1)
    tracemalloc.start()
    try:
        report = global_hadamard_search(profiles, depth=8, tolerance=1e-6,
                                        starts=3, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (report.structure, report.nfev) == ("XZXZXZ", 4474)
    assert peak < 2.0e6, peak


def _random_problem(rng, planted):
    """A small random problem over one of the three families. A planted one
    holds a known solution: a planted core with, at random, one cancelling
    pair of opposite pulses spliced in, over the plant's letters plus
    possibly one more. Returns (problem, plant labels or None)."""
    if planted:
        family = str(rng.choice(sorted(PLANTS)))
        xi, seq = PLANTS[family]
        seq = list(seq)
        if rng.random() < 0.7:
            axis, sign = str(rng.choice(["x", "z"])), int(rng.choice([1, -1]))
            at = int(rng.integers(0, len(seq) + 1))
            seq[at:at] = [(axis, sign), (axis, -sign)]
        letters = {slot for slot in seq if slot != "EX"}
        if rng.random() < 0.5:
            letters.add((str(rng.choice(["x", "z"])),
                         int(rng.choice([1, -1]))))
        alphabet = tuple(PulseTemplate(axis, "primary", sign)
                         for axis, sign in sorted(letters))
        length, n_exchange = len(seq), 2
    else:
        family = str(rng.choice(sorted(synth.FAMILIES)))
        symbols = synth.FAMILIES[family].symbols
        length, n_exchange = int(rng.integers(3, 7)), int(rng.integers(1, 4))
        alphabet = tuple(PulseTemplate(str(rng.choice(["x", "z"])),
                                       str(rng.choice(symbols)),
                                       int(rng.choice([1, -1])))
                         for _ in range(int(rng.integers(1, 4))))
        xi = float(rng.choice([math.pi, math.pi / 2.0, 0.0,
                               rng.uniform(-2.0 * math.pi, 2.0 * math.pi)]))
    problem = SynthesisProblem(
        name="random", family=family, length=length, n_exchange=n_exchange,
        alphabet=alphabet, xi=xi,
        search_samples=4, verify_samples=10, verify_spins=3)
    plant = None if not planted else tuple(
        "EX" if slot == "EX" else
        problem.labels[alphabet.index(PulseTemplate(slot[0], "primary",
                                                    slot[1]))]
        for slot in seq)
    return problem, plant


def test_two_by_two_products_equal_matmul():
    # The scans' left factors are x and z rotations, which are symmetric,
    # so a transposed left factor would pass every scan test: the helper
    # is checked on general complex stacks, broadcast both ways, planar
    # (entries leading), and so is the rows-leading oracle the reference
    # halves are built with.
    rng = np.random.default_rng(22)
    a, b = (rng.normal(size=(2, 5, 2, 2)) + 1j * rng.normal(size=(2, 5, 2, 2))
            for _ in range(2))
    for x, y in ((a, b), (a[:, :1], b), (a[:1, :1], b), (a, b[1:2, 2:3])):
        got = synth._product_2x2(*(np.moveaxis(m, (2, 3), (0, 1))
                                   for m in (x, y)))
        assert max_abs(np.moveaxis(got, (0, 1), (2, 3)) - x @ y) <= 1e-14
        assert max_abs(oracle.product_2x2(x, y) - x @ y) <= 1e-14


def test_half_word_traces_equal_slot_products():
    # The bystander filter scores tr(T†·U) from a prefix and a T†-folded
    # suffix half; the value must be the slot-by-slot product's for every
    # word, on any family and length.
    rng = np.random.default_rng(20240)
    for k in range(24):
        p, _ = _random_problem(rng, planted=k % 2 == 0)
        bm, _, bt, _ = (m[0] for m in search_samples(
            p, np.random.default_rng(int(rng.integers(1 << 30)))))
        n_letters = len(p.alphabet)
        idx = np.arange(n_letters ** p.n_field, dtype=np.int64)
        words = synth._word_digits(idx, p.n_field, n_letters)

        pre, suf = synth._half_word_factors(bm, bt, p.n_field)
        n_suf = suf.shape[1]
        half = (pre[:, idx // n_suf] * suf[:, idx % n_suf]).sum(axis=0)
        for w, word in enumerate(words):
            prod = np.eye(2, dtype=complex)
            for letter in word:
                prod = bm[letter] @ prod
            assert abs(half[w] - np.trace(bt.conj().T @ prod)) <= 1e-12


def test_strand_traces_equal_slot_products():
    # The pair scan reads each exchange as a·I + c·SWAP and scores words as
    # two 2x2 strands per term; its traces, phase included, must be the
    # slot-by-slot 4x4 products' for every word and placement, where a
    # (xi ≡ π) or c (xi ≡ 0) is dropped and where both are kept, down to
    # words of one field letter and of none.
    rng = np.random.default_rng(8086)
    for xi in (math.pi, 3.0 * math.pi, -math.pi, math.pi / 2.0,
               math.pi + 1e-9, 0.0, 2.0 * math.pi,
               float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))):
        shapes = [(1, 0), (1, 1), (3, 3), (4, 4), (11, 4)]
        for _ in range(3):
            length = int(rng.integers(1, 12))
            shapes.append((length, int(rng.integers(0, min(4, length) + 1))))
        for length, n_exchange in shapes:
            family = str(rng.choice(sorted(synth.FAMILIES)))
            symbols = synth.FAMILIES[family].symbols
            alphabet = tuple(PulseTemplate(str(rng.choice(["x", "z"])),
                                           str(rng.choice(symbols)),
                                           int(rng.choice([1, -1])))
                             for _ in range(int(rng.integers(1, 4))))
            p = SynthesisProblem(name="random", family=family, length=length,
                                 n_exchange=n_exchange, alphabet=alphabet,
                                 xi=xi)
            angles, (pt,), _ = synth._draw_table(p, 1, rng)
            pf = np.array([[rotation_2x2(tpl.axis, v) for v in a[0, :2]]
                           for tpl, a in zip(alphabet, angles)])
            pm = [global_field_unitary(RegisterSpec(2), GlobalField(
                tpl.axis, a[0, :2])) for tpl, a in zip(alphabet, angles)]
            ex4 = exchange_unitary(RegisterSpec(2), 0, 1, xi)
            words = rng.integers(len(alphabet), size=(5, p.n_field))
            weights = synth._term_weights(ex4, n_exchange)
            split, tries, cells, counts = synth._parity_cells(
                length, n_exchange, tuple(weights))
            pre = synth._folded_prefixes(pf, words[:, :split], tries[0],
                                         weights, np.broadcast_to(
                                             pt, (len(words), 4, 4)))
            suf = synth._strand_halves(pf, words[:, split:], tries[1])
            traces, cols = synth._strand_traces(
                pre, suf.reshape(len(words), -1, 16), cells, counts)
            traces = traces[:, cols]
            placements = list(itertools.combinations(range(length),
                                                     n_exchange))
            assert traces.shape == (len(words), len(placements))
            for w, word in enumerate(words):
                for c, slots in enumerate(placements):
                    prod = np.eye(4, dtype=complex)
                    for letter in synth._slot_letters(word, slots, length):
                        prod = (ex4 if letter is None else pm[letter]) @ prod
                    want = np.trace(pt.conj().T @ prod)
                    assert abs(traces[w, c] - want) <= 1e-12, (p, word, slots)


@pytest.mark.parametrize("seed", [0, 3])
def test_planar_strand_halves_equal_the_joined_ones(bundled, seed):
    # _strand_halves forms its trie products and A ⊗ B on planar stacks,
    # the oracle on stacks of 2x2s joined by circuits.join: each entry is
    # the same products of the same factors, so the halves are equal, not
    # only close. On the rotation's distinct prefixes and suffixes, on
    # planted_cp's tries, whose xi = π/2 keeps every SWAP count, also at
    # length 8, and on three samples' factors stacked, as a later pass of
    # the pair scan reads them.
    cp = bundled("planted_cp")
    cases = [(bundled("z_difference_rotation"), True), (cp, False),
             (dataclasses.replace(cp, length=8, alphabet=tuple(
                 PulseTemplate(axis, "primary", sign)
                 for axis in "zx" for sign in (1, -1))), False)]
    for p, prune in cases:
        bm, bt, pf, pt, weights = scan_inputs(p, seed)
        n_letters = len(p.alphabet)
        idx = (synth._bystander_scan(p.n_field, bm, bt) if prune
               else np.arange(n_letters ** p.n_field))
        words = synth._word_digits(idx, p.n_field, n_letters)
        split, tries, _, _ = synth._parity_cells(p.length, p.n_exchange,
                                                 tuple(weights))
        assert prune or len(weights) == 3
        stacked = pf[:3].reshape(-1, *pf.shape[2:])
        for trie, half in zip(tries, (words[:, :split], words[:, split:])):
            half = np.unique(half, axis=0)
            assert len(trie[0]) == half.shape[1]
            for factors, digits in (
                    (pf[0], half), (pf[1], half),
                    (stacked, np.vstack([half + k * n_letters
                                         for k in range(3)]))):
                got = synth._strand_halves(factors, digits, trie)
                assert np.array_equal(
                    got, oracle.strand_halves(factors, digits, trie)), p


def test_exchange_pi_scores_one_term_per_placement():
    # At xi = π the a·I part of the exchange rounds to 0, so each placement
    # is its one all-SWAP term: the scan never pays for the 2^k expansion.
    # Other angles keep every SWAP count whose weight is nonzero.
    def weights(xi, n_exchange):
        ex4 = exchange_unitary(RegisterSpec(2), 0, 1, xi)
        return synth._term_weights(ex4, n_exchange)

    assert list(weights(math.pi, 7)) == [7]
    _, _, cells, counts = synth._parity_cells(14, 7, (7,))
    assert cells.shape == (1, math.comb(14, 7)) and counts == (None,)
    assert list(weights(0.0, 7)) == list(weights(2.0 * math.pi, 7)) == [0]
    assert list(weights(math.pi / 2.0, 3)) == [0, 1, 2, 3]


def _cell_counts(length, n_exchange, sizes, placement):
    """{cell: count of terms} of one placement in the _parity_cells table."""
    _, _, cells, counts = synth._parity_cells(length, n_exchange, sizes)
    return {int(cell[placement]): 1 if n is None else float(n[placement, 0])
            for cell, n in zip(cells, counts) if cell[placement] >= 0}


def test_terms_on_one_cell_are_counted_once():
    # Terms that land on one cell are one table entry with their count:
    # k exchanges with no field letter between them are k + 1 cells, one
    # per SWAP count j, taken C(k, j) times each, while k exchanges in k
    # gaps are 2^k cells taken once.
    sizes = tuple(range(25))
    assert _cell_counts(24, 24, sizes, 0) == {
        j: math.comb(24, j) for j in sizes}
    placements = list(itertools.combinations(range(7), 3))
    spread = _cell_counts(7, 3, (0, 1, 2, 3), placements.index((0, 2, 4)))
    assert len(spread) == 8 and set(spread.values()) == {1}
    run = _cell_counts(7, 3, (0, 1, 2, 3), placements.index((1, 2, 3)))
    assert sorted(run.values()) == [1, 1, 3, 3]


def test_generic_exchange_angle_is_charged_its_terms():
    # At a generic xi the budget charges the pair scan up to 2^k strand
    # terms per placement, fewer where the exchanges share gaps: a run of
    # 24 exchanges is 25 cells and searches at once, while 10 exchanges
    # among 10 letters may take 2^10 terms each and stop before the pair
    # scan, even with one letter (one word). At xi = π each placement is
    # one term.
    run = SynthesisProblem(name="run", family="swap_pair_exchange",
                           length=24, n_exchange=24, xi=1.0,
                           alphabet=(PulseTemplate("z", "primary", 1),))
    batch = synth._PAIR_CHUNK
    result = enumerate_sequences(run, budget=batch * 25)
    assert (result.stats.words_total, result.stats.placements) == (1, 1)
    with pytest.raises(BudgetExceeded):
        enumerate_sequences(run, budget=batch * 25 - 1)
    spread = dataclasses.replace(
        run, length=20, n_exchange=10,
        alphabet=(PulseTemplate("z", "primary", 1),
                  PulseTemplate("x", "primary", 1)))
    for xi, terms, budget in ((math.pi, 1, 3), (1.0, 2 ** 10, 10 ** 9)):
        with pytest.raises(BudgetExceeded) as info:
            enumerate_sequences(dataclasses.replace(spread, xi=xi),
                                budget=budget, prune=False)
        assert info.value.needed == 2 ** 10 * math.comb(20, 10) * terms
    with pytest.raises(BudgetExceeded) as info:
        enumerate_sequences(dataclasses.replace(spread, alphabet=run.alphabet))
    assert info.value.needed == batch * math.comb(20, 10) * 2 ** 10


def test_budget_refuses_before_listing_placements(bundled, monkeypatch):
    # Both budget checks read counts, so a refused search never lists its
    # placements: C(60, 30) of them would not fit in memory.
    def listing(*args):
        raise AssertionError("placements listed before the budget check")

    monkeypatch.setattr(synth.itertools, "combinations", listing)
    wide = SynthesisProblem(name="wide", family="swap_pair_exchange",
                            length=60, n_exchange=30, xi=math.pi,
                            alphabet=(PulseTemplate("z", "primary", 1),))
    spread = dataclasses.replace(wide, length=20, n_exchange=10, xi=1.0)
    for p in (wide, spread, bundled("z_difference_rotation")):
        with pytest.raises(BudgetExceeded):
            enumerate_sequences(p, budget=10 ** 9 if p is spread else 3)


def test_length_cap_refuses_before_the_budget(bundled):
    # A problem over MAX_LENGTH slots is refused on the cap at any budget,
    # before the budget prices it: C(100, 2) x 2^98 checks would exceed a
    # budget of 1, but no budget could make the search run.
    long = dataclasses.replace(bundled("planted_cp"), length=100)
    for budget in (1, 10 ** 40):
        with pytest.raises(ValueError, match="^length 100 is over the cap 62$"):
            enumerate_sequences(long, budget=budget)


def _every_term(ex, n_exchange):
    """_term_weights with no coefficient rounded to 0."""
    a, c = complex(ex[1, 1]), complex(ex[1, 2])
    return {j: a ** (n_exchange - j) * c ** j for j in range(n_exchange + 1)}


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_pair_scan_hits_alike_with_every_term_kept(bundled, seed):
    # The rotation search's stage-2 hits, (row, placement) in order, are
    # the same whether the exchange's vanishing a·I part is dropped (one
    # term per placement) or kept (all 16).
    p = bundled("z_difference_rotation")
    rng = np.random.default_rng(seed)
    bm, pf, bt, pt = search_samples(p, rng, p.search_samples)
    survivors = synth._bystander_scan(p.n_field, bm, bt)
    ex4 = exchange_unitary(RegisterSpec(2), 0, 1, p.xi)
    args = (p.length, p.n_exchange)
    dropped = synth._pair_scan(survivors, pf, pt,
                               synth._term_weights(ex4, p.n_exchange), *args)
    kept = _every_term(ex4, p.n_exchange)
    assert len(kept) == 5 and all(w != 0 for w in kept.values())
    assert synth._pair_scan(survivors, pf, pt, kept, *args) == dropped
    assert len(dropped) == 48


def scan_inputs(p, seed):
    """What enumerate_sequences hands its two scans for p at seed: the
    bystander samples and targets, the pair samples and targets, and the
    exchange's _term_weights."""
    bm, pf, bt, pt = search_samples(p, np.random.default_rng(seed),
                                    p.search_samples)
    ex4 = exchange_unitary(RegisterSpec(2), 0, 1, p.xi)
    return bm, bt, pf, pt, synth._term_weights(ex4, p.n_exchange)


def assert_scans_equal_the_oracle(p, seed, prune=True):
    """The shared-half scans equal the per-word ones bit for bit: the same
    survivors, the same stage-2 hits in the same order."""
    bm, bt, pf, pt, weights = scan_inputs(p, seed)
    if prune and p.n_field > 0:
        survivors = synth._bystander_scan(p.n_field, bm, bt)
        assert np.array_equal(
            survivors, oracle.bystander_scan(p.n_field, bm, bt)), (p, seed)
    else:
        survivors = np.arange(len(p.alphabet) ** p.n_field, dtype=np.int64)
    words = synth._word_digits(survivors, p.n_field, len(p.alphabet))
    args = (pf, pt, weights, p.length, p.n_exchange)
    hits = synth._pair_scan(survivors, *args)
    assert hits == oracle.pair_scan(words, *args), (p, seed)
    return survivors, hits


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 11])
@pytest.mark.parametrize("name", ["z_difference_rotation",
                                  "z_difference_rotation_literal"])
def test_scans_equal_the_per_word_oracle_on_the_rotation(bundled, name,
                                                          seed):
    # The oracle forms its 2x2 products by matmul, the scans elementwise:
    # the bits differ by ulps, the survivors and hits not at all.
    survivors, hits = assert_scans_equal_the_oracle(bundled(name), seed)
    if name.endswith("literal"):
        assert (survivors.size, hits) == (0, [])
    else:
        assert survivors.size > 0 and len(hits) == 48


def test_scans_equal_the_per_word_oracle_on_cells_with_counts(bundled):
    # planted_cp's xi = π/2 keeps every SWAP count, so its placements sum
    # cells taken more than once; every word is scored, pruned or not.
    p = bundled("planted_cp")
    assert any(n is not None for n in synth._parity_cells(
        p.length, p.n_exchange, tuple(scan_inputs(p, 0)[-1]))[3])
    for seed in (0, 3, 11):
        for prune in (True, False):
            assert assert_scans_equal_the_oracle(p, seed, prune)[1]


def test_scans_equal_the_per_word_oracle_across_blocks_and_weights(bundled):
    # planted_cp's xi = π/2 keeps every SWAP count. With four letters and
    # six field slots its 4096 words fill 19 blocks of suffix halves and 75
    # chunks of 55 rows, so each block's halves serve several chunks and a
    # suffix may straddle two blocks; the plant with two cancelling pairs
    # hits.
    p = dataclasses.replace(
        bundled("planted_cp"), length=8,
        alphabet=tuple(PulseTemplate(axis, "primary", sign)
                       for axis in "zx" for sign in (1, -1)))
    weights = scan_inputs(p, 0)[-1]
    assert len(weights) == 3
    tries = synth._parity_cells(p.length, p.n_exchange, tuple(weights))[1]
    assert synth._pair_rows(tries, weights) == 55
    assert len(p.alphabet) ** p.n_field == 4096
    for seed in (0, 3):
        assert assert_scans_equal_the_oracle(p, seed, prune=False)[1]


def test_scans_equal_the_per_word_oracle_on_random_problems():
    rng = np.random.default_rng(4242)
    for k in range(20):
        p, _ = _random_problem(rng, planted=k % 2 == 0)
        seed = int(rng.integers(1 << 20))
        for prune in (True, False):
            assert_scans_equal_the_oracle(p, seed, prune)


def planted_bystander_samples(rng, n_letters, n_field, n_samples, word,
                              gap):
    """Per sample, letters rotating about random axes by random angles and
    a target T = e^{i phi}·W·R at a random phase phi, W the product of the
    word's letters and R a rotation by delta about a random axis, where
    2 - |tr(T†W)| = 4 sin^2(delta/4) = gap·STAGE1_DIST_SQ."""
    delta = 4 * math.asin(math.sqrt(gap * synth.STAGE1_DIST_SQ) / 2)
    mats, targets = [], []
    for _ in range(n_samples):
        axes = rng.choice(AXES, size=n_letters + 1)
        mats.append(np.array([rotation_2x2(str(a), v) for a, v in zip(
            axes, rng.uniform(-math.pi, math.pi, n_letters))]))
        w = oracle.word_products(mats[-1], n_field)[word]
        targets.append(np.exp(1j * rng.uniform(-math.pi, math.pi))
                       * w @ rotation_2x2(str(axes[-1]), delta))
    return mats, targets


@pytest.mark.parametrize("gap", [0.9, 1.1])
def test_bystander_scan_equals_scoring_every_pair_at_the_threshold(gap):
    # The first sample scores only the pairs its key window finds; the
    # oracle scores every word. A word planted at 0.9 or 1.1 times the
    # threshold puts its edge in the data: the key window must hold the
    # one, and the test on each pair must drop the other (with any word of
    # the same product, as letters about one axis commute). Random
    # alphabets, one to three samples, one to six field letters.
    rng = np.random.default_rng(round(gap * 10))
    for k in range(18):
        n_letters, n_field = int(rng.integers(2, 7)), 1 + k % 6
        word = int(rng.integers(n_letters ** n_field))
        mats, targets = planted_bystander_samples(rng, n_letters, n_field,
                                                  1 + k % 3, word, gap)
        got = synth._bystander_scan(n_field, mats, targets)
        assert np.array_equal(got, oracle.bystander_scan(n_field, mats,
                                                         targets)), k
        assert (word in got) == (gap < 1), k


def test_bystander_scan_equals_scoring_every_pair_on_degenerate_alphabets():
    # Where many words share one product, the key window holds many pairs
    # and spans chunks: 5 letters of one z angle, so every one of the
    # 78,125 words hits (3 chunks of candidates), and a z lattice of angles
    # -2θ..2θ, where the words whose steps sum to 2 hit. Each target also
    # at a random phase, and a random target that no word hits.
    rng = np.random.default_rng(9)
    theta, n_field = 0.7, 7
    repeated = np.repeat(rotation_2x2("z", theta)[None], 5, axis=0)
    lattice = rotation_2x2("z", theta * np.arange(-2, 3))
    on_lattice = sum(sum(w) == 2 for w in itertools.product(range(-2, 3),
                                                            repeat=n_field))
    cases = [(repeated, rotation_2x2("z", n_field * theta), 5 ** n_field),
             (lattice, rotation_2x2("z", 2 * theta), on_lattice),
             (lattice, rotation_2x2("x", 0.3) @ rotation_2x2("z", 1.1), 0)]
    assert 5 ** n_field > 2 * synth._CHUNK and 0 < on_lattice < 5 ** n_field
    for mats, target, n_hits in cases:
        for phase in (1.0, np.exp(1j * rng.uniform(-math.pi, math.pi))):
            for n_samples in (1, 2):
                args = (n_field, [mats] * n_samples,
                        [phase * target] * n_samples)
                got = synth._bystander_scan(*args)
                assert np.array_equal(got, oracle.bystander_scan(*args))
                assert got.size == n_hits


def test_draw_tables_equal_one_draw_at_a_time():
    # A table draws its n draws in one batch per family: the values and the
    # gates are each draw's own, sampled alone, bit for bit.
    for name, family in synth.FAMILIES.items():
        p = family_problem(name, 12)
        for seed in (0, 7, 1_000_003):
            angles, pairs, bystanders = synth._draw_table(
                p, 100, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            draws = [oracle.family_draw(family, rng) for _ in range(100)]
            assert np.array_equal(angles, [[tpl.sign * d.angles[tpl.symbol]
                                            for d in draws]
                                           for tpl in p.alphabet]), name
            assert np.array_equal(pairs, [d.pair for d in draws]), name
            assert np.array_equal(bystanders,
                                  [d.bystanders for d in draws]), name


def test_draw_distances_play_each_distinct_word_once(bundled, monkeypatch,
                                                     rotation_seed0):
    # The bystanders drop the exchanges, so the seed-0 solutions hold 32
    # distinct bystander words; they are played once each in sorted order,
    # one 1-spin field pass per node of their trie. Any order of the
    # sequences, repeats included, gives each its distances alone.
    p = bundled("z_difference_rotation")
    table = synth._verify_table(p, p.verify_samples, 1_000_003)
    sequences = [synth._slot_letters(solution_word(p, sol), sol.exchange_slots,
                                     p.length)
                 for sol in rotation_seed0.solutions]
    words = {tuple(x for x in s if x is not None) for s in sequences}
    trie = {w[:k] for w in words for k in range(1, len(w) + 1)}
    assert (len(sequences), len(words), len(trie)) == (48, 32, 131)
    passes = []
    play = circuits.apply_op

    def counting(u, reg, op):
        passes.append(reg.n_spins)
        return play(u, reg, op)

    monkeypatch.setattr(circuits, "apply_op", counting)
    list(synth._draw_distances(p, table, sequences))
    assert passes.count(1) == len(trie)
    monkeypatch.undo()
    rng = np.random.default_rng(3)
    shuffled = [sequences[i] for i in rng.integers(len(sequences), size=60)]
    for letters, got in zip(shuffled,
                            synth._draw_distances(p, table, shuffled)):
        alone, = synth._draw_distances(p, table, [letters])
        assert np.array_equal(got, alone)


def test_pair_scan_keeps_a_placement_only_if_every_sample_hits_it(
        monkeypatch):
    # A word lives on through the samples by any placement, but a hit is a
    # placement that every sample hits: placement a on the first sample and
    # b on a later one is no hit, while a on all is. With three samples the
    # two later ones are scored in one pass, which must not let either
    # stand for the other.
    p = SynthesisProblem(name="mixed", family="z_difference_rotation",
                         length=5, n_exchange=2, xi=1.0, search_samples=3,
                         alphabet=(PulseTemplate("x", "primary", 1),
                                   PulseTemplate("z", "companion", -1)))
    _, _, pf, _, weights = scan_inputs(p, 5)
    words = synth._word_digits(np.arange(8), 3, 2)
    placements = list(itertools.combinations(range(5), 2))
    ex4 = exchange_unitary(RegisterSpec(2), 0, 1, p.xi)

    def product(sample, slots):
        u = np.eye(4, dtype=complex)
        for letter in synth._slot_letters(words[5], slots, p.length):
            u = (ex4 if letter is None else np.kron(*pf[sample, letter])) @ u
        return u

    passes = []
    folded = synth._folded_prefixes

    def counting(*args):
        passes.append(len(args[1]))
        return folded(*args)

    monkeypatch.setattr(synth, "_folded_prefixes", counting)
    a, b = 2, 7
    for n_samples in (2, 3):
        for second in (a, b):
            pt = np.array([product(0, placements[a])]
                          + [product(k, placements[a if k < n_samples - 1
                                                   else second])
                             for k in range(1, n_samples)])
            args = (pf[:n_samples], pt, weights, p.length, p.n_exchange)
            del passes[:]
            hits = synth._pair_scan(np.arange(8), *args)
            assert len(passes) == 2
            assert hits == oracle.pair_scan(words, *args)
            assert ((5, a) in hits, (5, b) in hits) == (second == a, False)


def test_scans_hold_one_batch_at_a_time(bundled):
    # Each stage's traced peak on the rotation stays a few MB. Suffix halves
    # are built per block or per batch of words, never as one table over
    # every suffix of a sample, which would take over 40 MB; the pair
    # scan's largest table is its first sample's, the 510 prefixes' halves,
    # 1 MB, built 128 prefixes at a time, and the pass of its 19 later
    # samples has 266 rows. The pair scan peaked at 2.35 MB on numpy 2.4,
    # set by chunk scoring (the table, a block's suffix halves and a 64-row
    # chunk's gathers); its bound is that plus 0.4 MB, under the 3.34 MB it
    # took with 128-row chunks and its table built beside a second full copy
    # of its halves, and the 4.05 MB with int64 per-word arrays and with
    # each pass's table and chunk's traces held into the next. Final
    # verification holds its open branches and one result at a time, on
    # parts of 2 spins and 1. The bystander scan's own bound: its first
    # sample's join peaks at 2.67 MB when _key_pairs drops each chunk's
    # expansion arrays before handing the chunk out, 3.24 MB when it holds
    # them while the chunk is scored.
    p = bundled("z_difference_rotation")

    def traced_peak(scan):
        tracemalloc.start()
        try:
            scan()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for seed in (3, 0):  # seed 0's inputs feed the later stages
        bm, bt, pf, pt, weights = scan_inputs(p, seed)
        peak = traced_peak(lambda: synth._bystander_scan(p.n_field, bm, bt))
        assert peak <= 2_950_000, (seed, peak)
    survivors = synth._bystander_scan(p.n_field, bm, bt)
    words = synth._word_digits(survivors, p.n_field, len(p.alphabet))
    synth._parity_cells(p.length, p.n_exchange, tuple(weights))
    hits = synth._pair_scan(survivors, pf, pt, weights, p.length, p.n_exchange)
    placements = list(itertools.combinations(range(p.length), p.n_exchange))
    sequences = sorted((synth._slot_letters(words[row], placements[c],
                                            p.length) for row, c in hits),
                       key=lambda s: [-1 if x is None else x for x in s])
    table = synth._verify_table(p, p.verify_samples, 1_000_003)
    assert len(sequences) == 48

    def verification():
        for dists in synth._draw_distances(p, table, sequences):
            assert dists.max() <= p.tolerance

    for scan, bound in ((lambda: synth._pair_scan(
            survivors, pf, pt, weights, p.length, p.n_exchange), 2_750_000),
                        (verification, 8 << 20)):
        peak = traced_peak(scan)
        assert peak <= bound, peak


def test_pair_scan_holds_one_block_of_words_at_a_time(bundled, monkeypatch):
    # The arrays that grow with the words (their prefix and suffix codes and
    # digits, their sort order, the live rows) are held one _SURVIVOR_BLOCK
    # of words at a time. Blocks cut anywhere, mid-prefix too, find the
    # one-block scan's hits on the seed-0 rotation. On 65,536 words of the
    # rotation's (7, 1) cell, blocks of 4096 words peaked at 0.46 MB, one
    # block at 3.2 MB, and one block of int64 per-word arrays at 5.5 MB.
    p = bundled("z_difference_rotation")
    bm, bt, pf, pt, weights = scan_inputs(p, 0)
    survivors = synth._bystander_scan(p.n_field, bm, bt)
    args = (pf, pt, weights, p.length, p.n_exchange)
    whole = synth._pair_scan(survivors, *args)
    assert len(whole) == 48 and len(survivors) <= synth._SURVIVOR_BLOCK
    monkeypatch.setattr(synth, "_SURVIVOR_BLOCK", 1000)
    assert synth._pair_scan(survivors, *args) == whole
    cell = dataclasses.replace(p, length=7, n_exchange=1)
    _, _, pf, pt, weights = scan_inputs(cell, 0)
    words = np.arange(0, len(p.alphabet) ** cell.n_field, 4)
    args = (pf, pt, weights, cell.length, cell.n_exchange)
    synth._parity_cells(cell.length, cell.n_exchange, tuple(weights))
    monkeypatch.setattr(synth, "_SURVIVOR_BLOCK", 4096)
    tracemalloc.start()
    try:
        hits = synth._pair_scan(words, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == [] and peak <= 2_000_000, peak


def test_no_shorter_rotation_over_the_alphabet(bundled):
    # A minimality certificate over the preset alphabets, xi = π and the
    # stage thresholds, at search seed 0: of every (length, exchange count)
    # cell up to length 11 that the default budget admits, only the
    # rotation's own (11, 4) has solutions, the pinned 48, and every other
    # cell's pair scan keeps no candidate, the literal twin's included.
    # The budget refuses six cells of each; tests/sweep_rotation.py runs
    # them at a budget of 10^12, and they are empty too.
    with open(os.path.join(FIXTURES, "rotation_seed0.solutions.txt")) as fh:
        pinned = [ln.strip() for ln in fh
                  if ln.strip() and not ln.startswith("#")]
    for name in ("z_difference_rotation", "z_difference_rotation_literal"):
        refused = []
        for length in range(1, 12):
            for k in range(length + 1):
                cell = dataclasses.replace(bundled(name), length=length,
                                           n_exchange=k)
                try:
                    r = enumerate_sequences(cell, seed=0)
                except BudgetExceeded:
                    refused.append((length, k))
                    continue
                got = [f"slots={','.join(map(str, sol.exchange_slots))} "
                       f"letters={','.join(sol.letters)}"
                       for sol in r.solutions]
                if (name, length, k) == ("z_difference_rotation", 11, 4):
                    assert got == pinned
                else:
                    assert (r.stats.pair_candidates, got) == (0, []), (
                        name, length, k)
        assert refused == [(10, 0), (10, 1), (11, 0), (11, 1), (11, 2),
                           (11, 3)], (name, refused)


def test_pair_scan_later_passes_build_no_larger_table(bundled, monkeypatch):
    # A first sample that keeps hundreds of words over hundreds of prefixes:
    # its letters are each one z rotation, by a multiple of 2π/16, on both
    # spins, which commutes with the exchange, so a word hits its target
    # E^k iff its digits sum to 0 mod 16. The later samples are the
    # rotation's. Their pass groups no more samples than keep its prefix
    # table within the first pass's rows: 17 samples to a pass would build
    # a table of 4,930 rows, 10 MB.
    p = bundled("z_difference_rotation")
    _, _, pf, pt, weights = scan_inputs(p, 0)
    ex4 = exchange_unitary(RegisterSpec(2), 0, 1, p.xi)
    n_letters = len(p.alphabet)
    pf, pt = pf.copy(), pt.copy()
    for letter in range(n_letters):
        angle = np.pi * letter / 16
        pf[0, letter] = np.diag(np.exp([-1j * angle, 1j * angle]))
    pt[0] = np.linalg.matrix_power(ex4, p.n_exchange)
    idx = np.sort(np.random.default_rng(1).choice(
        n_letters ** p.n_field, 8000, replace=False))
    words = synth._word_digits(idx, p.n_field, n_letters)
    keep = words[words.astype(int).sum(axis=1) % 16 == 0]
    split = synth._parity_cells(p.length, p.n_exchange, tuple(weights))[0]
    tables = []
    folded = synth._folded_prefixes

    def counting(*args):
        tables.append(len(args[1]))
        return folded(*args)

    monkeypatch.setattr(synth, "_folded_prefixes", counting)
    tracemalloc.start()
    try:
        synth._pair_scan(idx, pf, pt, weights, p.length, p.n_exchange)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The first pass builds all 512 prefixes and keeps the 461 words; the
    # next, one sample's, builds their 290 prefixes, and none of them hits.
    assert tables == [len(np.unique(words[:, :split], axis=0)),
                      len(np.unique(keep[:, :split], axis=0))], tables
    assert 2 * tables[1] > tables[0], tables
    assert peak <= 8 << 20, peak


def test_rotation_stages_build_what_they_need_once(bundled, monkeypatch,
                                                  rotation_seed0):
    # Guards that do not rely on timing, on the seed-0 rotation. The pair
    # scan builds two prefix tables: the first sample's, then one for the
    # 19 later samples together, as the first keeps 32 of 16,968 words. A
    # pass builds a (sample, suffix)'s halves at most once per block of
    # its rows: at most distinct (sample, suffix) pairs + blocks rows
    # (2784 + 67 on the first sample, in blocks of four 64-row chunks;
    # 304 + 10 on the later ones, whose 32 words hold 16 suffixes, in
    # blocks of one chunk).
    # Final verification plays no op on a register of more than 2 spins,
    # at 4 spins or at 12.
    p = bundled("z_difference_rotation")
    bm, bt, pf, pt, weights = scan_inputs(p, 0)
    survivors = synth._bystander_scan(p.n_field, bm, bt)
    words = synth._word_digits(survivors, p.n_field, len(p.alphabet))
    split, tries = synth._parity_cells(p.length, p.n_exchange,
                                       tuple(weights))[:2]
    live = np.unique([row for row, _ in synth._pair_scan(
        survivors, pf[:1], pt[:1], weights, p.length, p.n_exchange)])
    rows = (p.search_samples - 1) * live.size
    assert (live.size, rows) == (32, 608)
    chunk = synth._pair_rows(tries, weights)
    assert chunk == 64

    def suffixes(at):
        return len(np.unique(words[at, split:], axis=0))

    bounds = [suffixes(slice(None)) + -(-len(words) // (4 * chunk)),
              (p.search_samples - 1) * suffixes(live) + -(-rows // chunk)]
    built = []
    halves, folded = synth._strand_halves, synth._folded_prefixes

    def opening(*args):
        built.append(0)  # a pass's prefix table opens it
        return folded(*args)

    def counting(factors, digits, trie):
        if digits.shape[1] != split:
            built[-1] += len(digits)
        return halves(factors, digits, trie)

    monkeypatch.setattr(synth, "_folded_prefixes", opening)
    monkeypatch.setattr(synth, "_strand_halves", counting)
    hits = synth._pair_scan(survivors, pf, pt, weights, p.length,
                            p.n_exchange)
    assert len(hits) == 48 and len(built) == 2
    assert all(n <= bound for n, bound in zip(built, bounds)), (built, bounds)

    sizes = set()
    play = circuits.apply_op

    def recording(u, reg, op):
        sizes.add(reg.n_spins)
        return play(u, reg, op)

    monkeypatch.setattr(circuits, "apply_op", recording)
    sequences = [synth._slot_letters(solution_word(p, sol), sol.exchange_slots,
                                     p.length)
                 for sol in rotation_seed0.solutions]
    for spins in (4, 12):
        wide = dataclasses.replace(p, verify_spins=spins)
        for dists in synth._draw_distances(
                wide, synth._verify_table(wide, 100, 1_000_003), sequences):
            assert dists.max() <= p.tolerance
    assert sizes == {1, 2}


def test_prune_equals_exhaustive_on_random_problems():
    # The staged thresholds may only discard what verification would reject:
    # over random and planted problems, pruned results equal exhaustive ones,
    # and every plant is found.
    rng = np.random.default_rng(77)
    found = 0
    for k in range(30):
        p, plant = _random_problem(rng, planted=k % 2 == 0)
        seed = int(rng.integers(1 << 20))
        pruned = enumerate_sequences(p, prune=True, seed=seed)
        full = enumerate_sequences(p, prune=False, seed=seed)
        assert pruned.solutions == full.solutions, p
        if plant is not None:
            assert plant in [sol.letters for sol in pruned.solutions], p
            found += 1
    assert found == 15


def test_rotation_search_seed0_is_pinned(bundled):
    r = enumerate_sequences(bundled("z_difference_rotation"), seed=0)
    st = r.stats
    assert (st.words_total, st.bystander_survivors, st.pair_candidates,
            st.deduplicated, st.verified) == (2_097_152, 16_968, 48, 48, 48)
    with open(os.path.join(FIXTURES, "rotation_seed0.solutions.txt")) as fh:
        expected = [ln.strip() for ln in fh
                    if ln.strip() and not ln.startswith("#")]
    got = [f"slots={','.join(str(v) for v in sol.exchange_slots)} "
           f"letters={','.join(sol.letters)}" for sol in r.solutions]
    assert got == expected
