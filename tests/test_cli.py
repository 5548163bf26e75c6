import argparse
import ast
import dataclasses
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import oracle
from globalspin import circuits, cli
from globalspin import schedule as sched
from globalspin.circuits import (circuit_to_text, controlled_phase_circuit,
                                 parallel_apply, refocused_rotation_circuit)
from globalspin.device import (ANTIPARALLEL, PARALLEL, device_constants,
                               field_profile, geometry_to_text,
                               twin_wire_preset)
from globalspin.grammar import preset_path
from globalspin.spins import RegisterSpec, zeeman_angles


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse refuses from inside parse_args
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def by_name(records):
    return {r["name"]: r for r in records if r["kind"] == "check"}


def write_tied_cp_circuit(path):
    c, _ = controlled_phase_circuit(RegisterSpec(2), 0, 1, -4.0 * math.pi)
    path.write_text(circuit_to_text(c))
    return path


def test_verify_single_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "swap")
    assert code == 0
    assert "swap_conjugation_exact" in out
    assert re.search(r"stage swap_conjugation_exact +60 -> 60 +"
                     r"\d+\.\d{3} s  cpu \d+\.\d{3} s\n", out)
    assert out.strip().endswith("overall: PASS")


def test_verify_all_suites_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--format", "json-lines")
    assert code == 0
    records = json_lines(out)
    assert records[0]["kind"] == "header"
    assert records[0]["command"] == "verify"
    assert records[-1] == {"kind": "summary", "ok": True,
                           "wall_time_s": records[-1]["wall_time_s"]}
    checks = by_name(records)
    assert set(checks) == {"swap_conjugation_exact",
                           "dressed_swap_phase_factor",
                           "controlled_phase_exact", "xy_x_rotation_phase",
                           "xy_controlled_phase", "parallel_pair_replication"}
    assert all(r["pass"] for r in checks.values())
    assert all(r["measured"] <= r["threshold"] for r in checks.values())


def test_verify_unattainable_tolerance_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "swap",
                           "--tol", "1e-18")
    assert code == 1
    assert "FAIL" in out


def test_verify_seed_changes_draws(capsys):
    _, out_a, _ = run_cli(capsys, "verify", "--suite", "swap",
                          "--format", "json-lines")
    _, out_b, _ = run_cli(capsys, "verify", "--suite", "swap", "--seed", "5",
                          "--format", "json-lines")
    a = by_name(json_lines(out_a))["swap_conjugation_exact"]["measured"]
    b = by_name(json_lines(out_b))["swap_conjugation_exact"]["measured"]
    assert a != b


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", "bogus"])
    assert info.value.code == 2


def test_verify_catches_broken_dressed_factor(capsys, monkeypatch):
    # Mutation probe: flip the claimed scalar from +i to -i and the dressed
    # suite must fail, proving the entrywise comparison has teeth.
    original = circuits.dressed_swap_phase_conjugation

    def flipped(*a, **kw):
        c, t = original(*a, **kw)
        return c, dataclasses.replace(t, unitary=-t.unitary)

    monkeypatch.setattr(circuits, "dressed_swap_phase_conjugation", flipped)
    code, out, _ = run_cli(capsys, "verify", "--suite", "dressed")
    assert code == 1


def test_verify_fails_on_a_nan_draw(capsys, monkeypatch):
    # One entry of the 5th draw's expected matrix, in the order the builder
    # sees the draws, is NaN: never the suite's first draw, so a fold that
    # starts from a finite value and drops NaN would pass the suite.
    original = circuits.dressed_swap_phase_conjugation
    seen = [0]

    def nan_fifth(*a, **kw):
        c, t = original(*a, **kw)
        expected = np.array(t.unitary)
        stack = expected.reshape((-1,) + expected.shape[-2:])
        if 0 <= 4 - seen[0] < len(stack):
            stack[4 - seen[0], 0, 1] = math.nan
        seen[0] += len(stack)
        return c, dataclasses.replace(t, unitary=expected)

    monkeypatch.setattr(circuits, "dressed_swap_phase_conjugation", nan_fifth)
    code, out, _ = run_cli(capsys, "verify", "--suite", "dressed",
                           "--format", "json-lines")
    assert seen[0] == cli.DRAWS_PER_SUITE
    assert code == 1

    def bare_constant(word):
        raise ValueError(f"{word} is not JSON")

    records = [json.loads(line, parse_constant=bare_constant)
               for line in out.splitlines()]
    check = by_name(records)["dressed_swap_phase_factor"]
    assert check["measured"] == "nan" and not check["pass"]
    assert check["worst_draw"]["index"] > 0


def verify_checks(capsys, seed, suite="all"):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--seed",
                           str(seed), "--format", "json-lines")
    assert code == 0
    return [r for r in json_lines(out) if r["kind"] == "check"]


SUITE_OF_CHECK = {"swap_conjugation_exact": "swap",
                  "dressed_swap_phase_factor": "dressed",
                  "controlled_phase_exact": "cp",
                  "xy_x_rotation_phase": "xy",
                  "xy_controlled_phase": "xycp",
                  "parallel_pair_replication": "parallel"}


@pytest.mark.parametrize("seed", range(10))
def test_verify_matches_one_draw_at_a_time_loops(capsys, seed):
    # The batched suites give the values the per-draw loops give, to the
    # last bit, and name the first draw that has the worst one.
    draws = oracle.verify_draws(seed, cli.VERIFY_SUITES)
    records = verify_checks(capsys, seed)
    assert [SUITE_OF_CHECK[r["name"]] for r in records] == list(draws)
    for r in records:
        suite_draws = draws[SUITE_OF_CHECK[r["name"]]]
        assert repr(r["measured"]) == repr(oracle.suite_worst(suite_draws))
        values = [d.value for d in suite_draws]
        k = values.index(max(values))
        d = suite_draws[k]
        assert r["worst_draw"] == {"index": k, "n": d.n, "i": d.i, "j": d.j}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("suite", cli.VERIFY_SUITES)
def test_worst_draw_replays_the_measured_value(capsys, seed, suite):
    # The report alone names the draw to rebuild: its index in the suite's
    # draw order and its layout. Built with floats, that one draw gives the
    # measured value.
    (r,) = verify_checks(capsys, seed, suite)
    w = r["worst_draw"]
    d = oracle.verify_draws(seed, (suite,))[suite][w["index"]]
    assert (d.n, d.i, d.j) == (w["n"], w["i"], w["j"])
    value = oracle.draw_value(suite, d.n, d.i, d.j, d.args)
    assert repr(value) == repr(r["measured"])


def test_verify_calls_each_builder_once_per_register_size(capsys,
                                                          monkeypatch):
    # One builder call per register size and suite, on (B,) pair arrays
    # that hold exactly the suite's layouts of that size, draw by draw in
    # the suite's draw order.
    draws = oracle.verify_draws(0, cli.VERIFY_SUITES)
    calls = {suite: [] for suite in oracle.PAIR_SUITES}
    for suite, (builder, _, _) in oracle.PAIR_SUITES.items():
        def counted(reg, i, j, *a, _calls=calls[suite], _build=builder,
                    **kw):
            _calls.append((reg.n_spins, np.ravel(i).tolist(),
                           np.ravel(j).tolist()))
            return _build(reg, i, j, *a, **kw)
        monkeypatch.setattr(circuits, builder.__name__, counted)
    verify_checks(capsys, 0)
    # The parallel suite, which runs last, builds its one template with the
    # controlled-phase builder.
    assert calls["cp"].pop() == (2, [0], [1])
    for suite, got in calls.items():
        assert sorted(n for n, _, _ in got) == [2, 3, 4], suite
        for n, i, j in got:
            assert list(zip(i, j)) == [(d.i, d.j) for d in draws[suite]
                                       if d.n == n], (suite, n)


# sha256 of every check record's name, repr(measured) and worst_draw of
# verify --seed 0 to 49, taken from the code before the pair builders took
# a pair per draw: the batched suites keep their bits.
VERIFY_RECORDS_SHA256 = (
    "34739402bccefdc367b53595aa38cd79318290e0e85acfd3c3f03136ee8e6c94")


def test_verify_records_keep_their_bits():
    assert oracle.verify_records_digest(range(50)) == VERIFY_RECORDS_SHA256


def assert_same_draws(got, want):
    # Equal layouts as Python ints (worst_draw goes through json.dumps) and
    # rows equal to the last bit.
    assert len(got) == len(want)
    for (n, i, j, row), (n2, i2, j2, row2) in zip(got, want):
        assert all(type(v) is int for v in (n, i, j))
        assert (n, i, j) == (n2, i2, j2)
        assert np.array_equal(row, row2) and len(row) == len(row2)


def test_pair_draws_equal_the_generator_calls():
    # Every pair suite's shape, run in verify's order on one generator per
    # seed, so that suites start with and without a kept 32-bit half: the
    # raw-word draws give the per-draw calls' values and leave the
    # generator in the same state, kept half included.
    shapes = [spec[2:] for spec in cli._PAIR_SUITES.values()]
    kept = 0
    for seed in range(1000):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for n_angles, bystanders in shapes:
            kept += rng.bit_generator.state["has_uint32"]
            assert_same_draws(cli._pair_draws(rng, n_angles, bystanders),
                              oracle.pair_draws(ref, n_angles, bystanders))
            assert rng.bit_generator.state == ref.bit_generator.state, seed
        assert np.array_equal(rng.uniform(-3, 3, 15), ref.uniform(-3, 3, 15))
    assert 0 < kept < 5000


# PCG64's 128-bit LCG multiplier: a step is s -> s * PCG_MULT + inc.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def zero_word_state(inc, skip, has_uint32=0):
    """A PCG64 state dict whose raw word after the next `skip` words is 0:
    the state after that step has equal 64-bit halves, so XSL-RR outputs
    0."""
    s, mask = 0x0123456789ABCDEF * (1 << 64 | 1), (1 << 128) - 1
    for _ in range(skip + 1):
        s = (s - inc) * pow(PCG_MULT, -1, 1 << 128) & mask
    return {"bit_generator": "PCG64", "state": {"state": s, "inc": inc},
            "has_uint32": has_uint32, "uinteger": 0x9E3779B9 * has_uint32}


def generator_at(state):
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


class Counting:
    """Forwards every attribute to target and counts each read and write
    by name in counts; its bit_generator is counted the same way."""

    def __init__(self, target, counts):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_counts", counts)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if name == "bit_generator":
            return Counting(value, self._counts)
        self._counts[name] = self._counts.get(name, 0) + 1
        return value

    def __setattr__(self, name, value):
        self._counts[name] = self._counts.get(name, 0) + 1
        setattr(self._target, name, value)


def test_pair_draws_redraw_zero_halves_as_numpy_does():
    inc = np.random.default_rng(5).bit_generator.state["state"]["inc"]
    assert generator_at(zero_word_state(inc, 0)).bit_generator.random_raw() == 0
    # integers(2, 5) rejects both zero halves and reads a third word: its
    # draw leaves the generator two raw words on.
    rng = generator_at(zero_word_state(inc, 0))
    rng.integers(2, 5)
    twin = generator_at(zero_word_state(inc, 0))
    twin.bit_generator.random_raw(2)
    assert (rng.bit_generator.state["state"]
            == twin.bit_generator.state["state"])
    # A zero word at each of the first words, read as a half or as an
    # angle, with and without a kept half on entry.
    for n_angles, bystanders in {spec[2:] for spec in
                                 cli._PAIR_SUITES.values()}:
        for skip in range(12):
            for has in (0, 1):
                state = zero_word_state(inc, skip, has)
                rng, ref = generator_at(state), generator_at(state)
                assert_same_draws(cli._pair_draws(rng, n_angles, bystanders),
                                  oracle.pair_draws(ref, n_angles, bystanders))
                assert rng.bit_generator.state == ref.bit_generator.state
    # One draw with no bystander angles is sized 2 + n_angles words; a
    # zero first word makes it read 3 + n_angles, so a second block is
    # taken, and the generator still ends where the calls leave it.
    for n_angles in (1, 3):
        counts = {}
        rng = generator_at(zero_word_state(inc, 0))
        ref = generator_at(zero_word_state(inc, 0))
        assert_same_draws(cli._pair_draws(Counting(rng, counts), n_angles,
                                          False, draws=1),
                          oracle.pair_draws(ref, n_angles, False, draws=1))
        assert counts["random_raw"] == 2
        assert rng.bit_generator.state == ref.bit_generator.state


def test_verify_makes_a_few_generator_calls_per_pair_suite(capsys,
                                                           monkeypatch):
    # Each pair suite reads its draws off one block of raw words: a few
    # Generator and bit-generator calls, not three or more per draw. The
    # counted run prints the same records.
    code, plain, _ = run_cli(capsys, "verify", "--format", "json-lines")
    counts, per_suite = {}, []
    make, real_suite = np.random.default_rng, cli._pair_suite
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: Counting(make(seed), counts))

    def suite(*args):
        before = sum(counts.values())
        try:
            return real_suite(*args)
        finally:
            per_suite.append(sum(counts.values()) - before)

    monkeypatch.setattr(cli, "_pair_suite", suite)
    code2, counted, _ = run_cli(capsys, "verify", "--format", "json-lines")
    assert code == code2 == 0
    checks = lambda out: [r for r in json_lines(out) if r["kind"] == "check"]
    assert checks(counted) == checks(plain)
    assert len(per_suite) == len(cli._PAIR_SUITES)
    assert all(k <= 6 for k in per_suite), per_suite
    assert "integers" not in counts and "choice" not in counts


def test_verify_stage_records_tile_its_suites(capsys, monkeypatch):
    # One stage per suite in VERIFY_SUITES order: its draws in, the draws
    # within --tol out (the per-draw loops' count), and seconds between
    # consecutive marks, which tile the run from the first mark to the last.
    marks, clock = [], time.perf_counter

    def mark():
        marks.append(clock())
        return marks[-1]

    tol = 5e-16
    monkeypatch.setattr(time, "perf_counter", mark)
    code, out, _ = run_cli(capsys, "verify", "--tol", str(tol), "--format",
                           "json-lines")
    monkeypatch.undo()
    records = json_lines(out)
    stages = [r for r in records if r["kind"] == "stage"]
    draws = oracle.verify_draws(0, cli.VERIFY_SUITES)
    assert [SUITE_OF_CHECK[r["name"]] for r in stages] == list(draws)
    for r in stages:
        suite_draws = draws[SUITE_OF_CHECK[r["name"]]]
        assert r["in"] == len(suite_draws)
        assert r["out"] == sum(d.value <= tol for d in suite_draws)
    assert 0 < sum(r["out"] for r in stages) < sum(r["in"] for r in stages)
    assert code == 1
    # main marks the start and the end; verify one mark and one per suite.
    assert len(marks) == len(stages) + 3
    seconds = [r["s"] for r in stages]
    assert all(s >= 0 for s in seconds)
    assert all(r["cpu_s"] >= 0 for r in stages)
    assert abs(sum(seconds) - (marks[-2] - marks[1])) <= 1e-9
    assert sum(seconds) <= records[-1]["wall_time_s"]


def test_synthesize_planted_swap(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "synthesize", "--problem", "planted_swap",
                           "--require-solution", "--format", "json-lines")
    assert code == 0
    checks = by_name(json_lines(out))
    assert checks["solutions_found"]["measured"] == 1
    assert checks["solution_0_distance"]["pass"]
    result_file = checks["result_file"]["measured"]
    assert os.path.isfile(result_file)
    assert "EX,primary+,EX" in open(result_file).read()


def test_synthesize_emits_stage_records(capsys, tmp_path):
    out_file = tmp_path / "rotation.result.txt"
    code, out, _ = run_cli(capsys, "synthesize", "--problem",
                           "z_difference_rotation", "--seed", "0",
                           "--format", "json-lines", "--out", str(out_file))
    assert code == 0
    records = json_lines(out)
    stages = [r for r in records if r["kind"] == "stage"]
    assert [r["name"] for r in stages] == [
        "bystander_scan", "pair_scan", "dedup", "verification"]
    assert [stages[0]["in"]] + [r["out"] for r in stages] == [
        2_097_152, 16_968, 48, 48, 48]
    assert all(a["out"] == b["in"] for a, b in zip(stages, stages[1:]))
    header = out_file.read_text().splitlines()[0]
    elapsed = float(dict(kv.split("=") for kv in header.split()[1:])["elapsed_s"])
    assert abs(sum(r["s"] for r in stages) - elapsed) <= 0.05 * elapsed
    assert all(r["cpu_s"] >= 0 for r in stages)
    checks = by_name(records)
    for k in range(48):
        assert checks[f"solution_{k}_worst_draw"]["threshold"] is None
        assert 0 <= checks[f"solution_{k}_worst_draw"]["measured"] < 100


def test_synthesize_budget_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "synthesize", "--problem", "planted_swap",
                           "--budget", "3")
    assert code == 3
    assert "budget" in err.lower()


# Each row: planted_cp's length and exchange count, and how many of its
# two letters stay. Each is over the length cap, which refuses it before
# the budget prices it: no budget could hold any of these searches.
@pytest.mark.parametrize("length, exchange, letters", [
    ("100000", 2, 2), ("99999999999999999999", 2, 2),
    ("1" + "0" * 400, 2, 2), ("100000000000000000000", 5000, 1)])
def test_synthesize_refuses_a_long_search_on_the_cap(capsys, tmp_path, length,
                                                     exchange, letters):
    with open(preset_path("planted_cp")) as fh:
        lines = fh.read().splitlines(keepends=True)
    text = lines[0].replace("length=4 exchange=2 ",
                            f"length={length} exchange={exchange} ")
    text += "".join(lines[1:1 + letters])
    path = tmp_path / "long.txt"
    path.write_text(text)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "synthesize", "--problem", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith(f"error: length {length} is over the cap 62")


def test_synthesize_verifies_twelve_spins(capsys, tmp_path):
    # 12 spins verify on the pair's and the bystanders' gates alone: 25
    # draws of joined 4096 x 4096 targets would take 6.7 GB.
    with open(preset_path("planted_swap")) as fh:
        text = fh.read().replace("verify_spins=3", "verify_spins=12")
    path = tmp_path / "wide.txt"
    path.write_text(text)
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "synthesize", "--problem", str(path),
                                 "--require-solution",
                                 "--out", str(tmp_path / "out.txt"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak <= 8 << 20, peak
    assert (code, err) == (0, "")
    assert "letters=EX,primary+,EX" in (tmp_path / "out.txt").read_text()


# Each row: a preset, an edit of its header, how many of its letters stay,
# and what the one-line refusal says. The first two ran out of memory or
# time before their caps: words of 3,000,000 slots that the budget prices
# as one word.
@pytest.mark.parametrize("name, old, new, letters, says", [
    ("planted_cp", "length=4 exchange=2 ", "length=3000000 exchange=0 ", 1,
     "length 3000000 is over the cap 62"),
    ("planted_swap", "length=3 exchange=2 ",
     "length=3000000 exchange=2999999 ", 1, "length 3000000 is over the cap 62"),
    ("planted_cp", "name=planted_cp", "name=empty", 0,
     "problem empty has no letters"),
])
def test_synthesize_refuses_what_it_cannot_hold(capsys, tmp_path, name, old,
                                                new, letters, says):
    with open(preset_path(name)) as fh:
        lines = fh.read().splitlines(keepends=True)
    path = tmp_path / "big.txt"
    path.write_text(lines[0].replace(old, new) + "".join(lines[1:1 + letters]))
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "synthesize", "--problem", str(path),
                             "--out", str(tmp_path / "out.txt"))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert says in err


def test_synthesize_missing_problem(capsys):
    code, _, err = run_cli(capsys, "synthesize", "--problem", "no_such_thing")
    assert code == 2
    assert "no_such_thing" in err


def test_readme_command_lines_parse():
    # The README's command-line block may name only commands and options
    # the parser has.
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [shlex.split(line, comments=True)
             for line in block.split("```", 1)[0].splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["globalspin"]]
    assert len(commands) == 10
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)


def readme_text():
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md")) as fh:
        return fh.read()


def test_readme_documents_the_whole_cli():
    # The other direction: every subcommand, option, output format, exit
    # code, preset and file format header is named in README, quoted.
    readme = readme_text()
    parser = cli._build_parser()
    subparsers = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    parsers = [parser] + [p for sub in subparsers for p in sub.choices.values()]
    names = [name for sub in subparsers for name in sub.choices]
    names += [opt for p in parsers for a in p._actions
              for opt in a.option_strings]
    names += ["human", "json-lines"]
    names += [os.path.splitext(f)[0] for f in
              os.listdir(os.path.dirname(preset_path("twin_wire_zigzag")))]
    names += ["REG", "PROBLEM", "SCHEDULE", "[wire]", "[site]"]
    assert "--budget" in names
    assert [n for n in names if f"`{n}`" not in readme] == []
    # The exit codes as cli's docstring states them, one table row each.
    doc = " ".join(cli.__doc__.split()).split("Exit codes: ", 1)[1]
    codes = re.findall(r"(\d) ([a-z ]+)[,.]", doc)
    assert [int(c) for c, _ in codes] == list(range(5))
    assert [c for c in codes if f"| {c[0]} | {c[1]} |" not in readme] == []


def test_readme_commands_run_as_written(capsys, tmp_path, monkeypatch):
    # The README's command-line block, in order, from a directory holding
    # the circuit and the layout it names; each command passes.
    write_rotation_circuit(tmp_path / "gate.circuit.txt", 4)
    (tmp_path / "my_layout.txt").write_text(
        geometry_to_text(twin_wire_preset(12)))
    monkeypatch.chdir(tmp_path)
    block = readme_text().split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [shlex.split(line, comments=True)
             for line in block.split("```", 1)[0].splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["globalspin"]]
    assert len(commands) == 10
    for argv in commands:
        assert run_cli(capsys, *argv)[0] == 0, argv


def test_every_option_has_a_caller():
    # Each option a subcommand defines is passed to that subcommand
    # somewhere: by a test, or by a benchmark workload. A caller is one
    # function that names both the subcommand and the option. An option no
    # function passes to its subcommand is one to delete.
    here = os.path.dirname(__file__)
    paths = [os.path.join(here, f) for f in os.listdir(here)
             if f.endswith(".py")]
    paths.append(os.path.join(here, os.pardir, "perfbench", "workloads.py"))
    callers = []
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        callers += [{n.value for n in ast.walk(f) if isinstance(n, ast.Constant)
                     and isinstance(n.value, str)}
                    for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    subparsers = [a for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    arguments = [(name, a) for sub in subparsers
                 for name, p in sub.choices.items() for a in p._actions
                 if a.dest != "help"]
    options = {(name, opt) for name, a in arguments for opt in a.option_strings}
    assert ("schedule", "--geometry") in options
    unused = sorted(pair for pair in options
                    if not any(set(pair) <= names for names in callers))
    assert unused == []
    assert len(arguments) == 20  # schedule's input among them


def test_device_preset_report(capsys):
    code, out, _ = run_cli(capsys, "device", "--format", "json-lines")
    assert code == 0
    checks = by_name(json_lines(out))
    assert abs(checks["ratio_site1"]["measured"] - 0.75) < 0.01
    assert abs(checks["grad_01_mT"]["measured"] - 0.28) < 0.05 * 0.28
    assert abs(checks["duration_pi_full_gyromagnetic_ns"]["measured"]
               - 63.8) < 0.7
    assert abs(checks["gate_time_21_us"]["measured"] - 1.34) < 0.01
    assert checks["wire0_current_margin_mA"]["pass"]
    assert checks["twin_wire_layout"]["pass"]


def test_device_antiparallel_and_csv(capsys, tmp_path):
    csv = tmp_path / "fields.csv"
    code, out, _ = run_cli(capsys, "device", "--config", "antiparallel",
                           "--csv", str(csv), "--format", "json-lines")
    assert code == 0
    checks = by_name(json_lines(out))
    assert abs(checks["ratio_site1"]["measured"] - 0.5) < 0.01
    rows = csv.read_text().splitlines()
    assert rows[0] == "site,Bx_mT,Bz_mT"
    assert len(rows) == 13


# Each row: the sites kept from the preset geometry, and whether the
# report has a wire placement tolerance (it needs a neighbor pair).
@pytest.mark.parametrize("n_sites, tolerance", [(3, True), (1, False)])
def test_device_custom_geometry_file(capsys, tmp_path, n_sites, tolerance):
    path = tmp_path / "geom.txt"
    path.write_text(geometry_to_text(twin_wire_preset(n_sites)))
    code, out, err = run_cli(capsys, "device", "--geometry", str(path),
                             "--format", "json-lines")
    assert code == 0
    assert err == ""
    header = json_lines(out)[0]
    assert header["inputs"][0]["path"] == str(path)
    checks = by_name(json_lines(out))
    assert ("position_tolerance_angstrom" in checks) == tolerance
    assert checks["twin_wire_layout"]["pass"]


def test_device_geometry_takes_a_preset_name(capsys):
    reports = [json_lines(run_cli(capsys, *argv, "--format", "json-lines")[1])
               for argv in (("device",),
                            ("device", "--geometry", "twin_wire_zigzag"))]
    assert [by_name(r) for r in reports[1:]] == [by_name(reports[0])]
    assert reports[1][0]["inputs"] == reports[0][0]["inputs"]


def two_wire_geometry(current_ma, site_xs):
    """Geometry text: two wires of current_ma at x = -100 and 100 nm on
    z = 0, and a site on z = 0 at each x of site_xs, in nm."""
    wires = "".join(f"[wire]\ncenter_x_nm = {x}\ncenter_z_nm = 0.0\n"
                    f"width_nm = 100.0\nheight_nm = 400.0\n"
                    f"current_mA = {current_ma}\n"
                    f"jc_A_per_m2 = 22000000000.0\n\n" for x in (-100.0, 100.0))
    return wires + "".join(f"[site]\nx_nm = {x}\nz_nm = 0.0\ng = 2.0\n"
                           f"row = 0\n\n" for x in site_xs)


def test_device_reports_a_zero_field_site_as_undefined(capsys, tmp_path):
    # Parallel currents cancel midway between the wires, so the site there
    # has no field to take a ratio against.
    path = tmp_path / "zero.txt"
    path.write_text(two_wire_geometry(0.7, (0.0,)))
    code, out, err = run_cli(capsys, "device", "--geometry", str(path),
                             "--format", "json-lines")
    assert (code, err) == (0, "")
    checks = by_name(json_lines(out))
    assert checks["site0_Bz_mT"]["measured"] == 0.0
    assert checks["ratio_sites"]["measured"] == "undefined (zero-field site)"


def test_schedule_geometry_names_the_preset_or_custom(capsys, tmp_path):
    circ = write_tied_cp_circuit(tmp_path / "cp.circuit.txt")
    copy = tmp_path / "copy.geometry.txt"
    with open(preset_path("twin_wire_zigzag")) as fh:
        copy.write_text(fh.read())
    texts = []
    for k, geom in enumerate(([], ["--geometry", "twin_wire_zigzag"],
                              ["--geometry", str(copy)])):
        out_file = tmp_path / f"out{k}.schedule.txt"
        code, _, _ = run_cli(capsys, "schedule", str(circ), "--out",
                             str(out_file), *geom)
        assert code == 0
        texts.append(out_file.read_text())
    assert "geometry=twin_wire_zigzag " in texts[0]
    assert texts[1] == texts[0]
    assert texts[2] == texts[0].replace("geometry=twin_wire_zigzag ",
                                        "geometry=custom ")


@pytest.mark.parametrize("command", [("device",), ("schedule", "{circuit}")])
def test_geometry_neither_file_nor_preset_exits_2(capsys, tmp_path, command):
    circuit = write_tied_cp_circuit(tmp_path / "cp.circuit.txt")
    code, out, err = run_cli(capsys, *(a.format(circuit=circuit)
                                       for a in command),
                             "--geometry", "no_such_layout")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "'no_such_layout' is neither a file nor a preset" in err


def write_rotation_circuit(path, n, axis="z"):
    """The 11-op rotation on spins 0 and 1 of the first n preset sites;
    returns the circuit path."""
    geom = twin_wire_preset(n)
    profiles = {"z": device_constants(field_profile(geom, PARALLEL)).ratios,
                "x": device_constants(field_profile(geom, ANTIPARALLEL)).ratios}
    c, _ = refocused_rotation_circuit(RegisterSpec(n), axis, 0, 1, 1.0,
                                      profiles)
    path.write_text(circuit_to_text(c))
    return path


def compile_then_simulate_only(capsys, circ):
    """Compile circ to a file, replay that file, and check both reports."""
    out_file = circ.with_name("out.schedule.txt")
    code, out, _ = run_cli(capsys, "schedule", str(circ),
                           "--out", str(out_file), "--format", "json-lines")
    assert code == 0
    records = json_lines(out)
    compiled = by_name(records)
    assert compiled["round_trip_distance"]["pass"]
    assert compiled["non_overlap"]["pass"]
    stages = [r for r in records if r["kind"] == "stage"]
    assert [r["name"] for r in stages] == ["compile", "replay_check", "write",
                                           "digest"]
    events = compiled["events"]["measured"]
    assert [r["out"] for r in stages] == [events, 1, events, 1]
    assert all(r["s"] >= 0 and r["cpu_s"] >= 0 for r in stages)
    code, out, _ = run_cli(capsys, "schedule", str(out_file),
                           "--simulate-only", "--format", "json-lines")
    assert code == 0
    records = json_lines(out)
    replayed = by_name(records)
    assert (replayed["unitary_digest"]["measured"]
            == compiled["unitary_digest"]["measured"])
    assert replayed["events"]["measured"] == compiled["events"]["measured"]
    assert [r["name"] for r in records if r["kind"] == "stage"] == [
        "replay", "digest"]


def test_schedule_compile_and_simulate_digests_agree(capsys, tmp_path):
    circ = write_tied_cp_circuit(tmp_path / "cp.circuit.txt")
    compile_then_simulate_only(capsys, circ)


def test_schedule_compile_and_simulate_digests_agree_at_8_spins(capsys,
                                                                tmp_path):
    # The rotation's bystanders are evaluated as groups of their own, and
    # many entries of its unitary tie in modulus.
    circ = write_rotation_circuit(tmp_path / "rot.circuit.txt", 8)
    compile_then_simulate_only(capsys, circ)


def test_schedule_of_6_spins_at_the_default_geometry(capsys, tmp_path):
    # The default geometry holds the preset's 12 sites, and a register uses
    # the first n: the events are those of a file with just those sites.
    circ = write_rotation_circuit(tmp_path / "rot.circuit.txt", 6)
    six = tmp_path / "zigzag6.geometry.txt"
    six.write_text(geometry_to_text(twin_wire_preset(6)))
    events = []
    for k, geom in enumerate(([], ["--geometry", str(six)])):
        out_file = tmp_path / f"out{k}.schedule.txt"
        code, _, err = run_cli(capsys, "schedule", str(circ), "--out",
                               str(out_file), *geom)
        assert (code, err) == (0, "")
        events.append(out_file.read_text().splitlines()[1:])
    assert len(events[0]) == 11
    assert events[1] == events[0]


def write_tied_cp_pairs(path, n):
    """The tied controlled phase on pairs (0, 1), (2, 3), ... of n spins;
    returns the circuit path."""
    tpl, _ = controlled_phase_circuit(RegisterSpec(2), 0, 1, -4.0 * math.pi)
    c = parallel_apply(tpl, [(k, k + 1) for k in range(0, n, 2)],
                       RegisterSpec(n))
    path.write_text(circuit_to_text(c))
    return path


@pytest.mark.parametrize("kind", ["x_rotation", "tied_cp"])
def test_schedule_at_12_spins_holds_no_register_matrix(capsys, tmp_path,
                                                       kind):
    # A 2^12 x 2^12 complex array is 268 MB. The replay and the replay
    # check keep the unitary factored, and the digest multiplies out only
    # the entries that survive its rounding, one row block at a time.
    path = tmp_path / f"{kind}.circuit.txt"
    circ = (write_rotation_circuit(path, 12, "x") if kind == "x_rotation"
            else write_tied_cp_pairs(path, 12))
    out_file = tmp_path / "out.schedule.txt"
    for argv in (["schedule", str(circ), "--out", str(out_file)],
                 ["schedule", str(out_file), "--simulate-only"]):
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, out
        assert peak < 200e6


def test_schedule_replays_and_digests_once_per_run(capsys, tmp_path,
                                                   monkeypatch):
    # perfbench times these two names as the tracer wraps them, on the
    # module; each run should show one call of each.
    calls = []

    def counting(name):
        real = getattr(sched, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("simulate_schedule", "unitary_digest"):
        monkeypatch.setattr(sched, name, counting(name))
    circ = write_rotation_circuit(tmp_path / "rot.circuit.txt", 8)
    out_file = tmp_path / "out.schedule.txt"
    for argv in (["schedule", str(circ), "--out", str(out_file)],
                 ["schedule", str(out_file), "--simulate-only"]):
        calls.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert sorted(calls) == ["simulate_schedule", "unitary_digest"]


@pytest.mark.parametrize("text", ["REG 2\n", "REG 1\nGF z 0.5\n"])
def test_exact_round_trip_reads_positive_zero(capsys, tmp_path, text):
    # Every part of these replays equals its circuit's exactly, so the
    # distance is 0, and printed as 0.0, not -0.0.
    path = tmp_path / "exact.circuit.txt"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "schedule", str(path), "--format",
                           "json-lines")
    assert code == 0
    measured = by_name(json_lines(out))["round_trip_distance"]["measured"]
    assert measured == 0.0 and math.copysign(1.0, measured) == 1.0


def test_one_process_runs_commands_as_separate_processes_do(capsys, tmp_path,
                                                           monkeypatch):
    # main parses with one parser per process. A run of verify, a refused
    # argument and schedule in one process gives each command's records
    # (timings aside) and exit code as a fresh process does.
    circuit = write_tied_cp_circuit(tmp_path / "cp.circuit.txt")
    runs = [("verify", "--suite", "cp", "--format", "json-lines"),
            ("verify", "--seed", "x"),
            ("schedule", str(circuit), "--format", "json-lines")]

    def untimed(out):
        return [{k: v for k, v in rec.items()
                 if k not in ("s", "cpu_s", "wall_time_s")}
                for rec in json_lines(out)]

    def refuse():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    together = []
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        together.append((code, untimed(out), err))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    apart = []
    for argv in runs:
        done = subprocess.run(
            [sys.executable, "-m", "globalspin.cli", *argv],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src})
        apart.append((done.returncode, untimed(done.stdout), done.stderr))
    assert [code for code, _, _ in together] == [0, 2, 0]
    assert together == apart


def test_schedule_unrealizable_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.circuit.txt"
    path.write_text("REG 2\nGF y 1 0.75\n")
    code, _, err = run_cli(capsys, "schedule", str(path))
    assert code == 4
    assert "op 0" in err


def test_schedule_without_field_at_any_site_exits_4(capsys, tmp_path):
    # The one site sits midway between the wires, where their parallel
    # fields cancel, so no pulse duration fits a z angle there.
    wire = ("[wire]\ncenter_x_nm = 200.0\ncenter_z_nm = {z}\nwidth_nm = 100.0"
            "\nheight_nm = 100.0\ncurrent_mA = 0.7\n"
            "jc_A_per_m2 = 22000000000.0\n\n")
    geom = tmp_path / "midpoint.geometry.txt"
    geom.write_text(wire.format(z=100.0) + wire.format(z=-100.0)
                    + "[site]\nx_nm = 200.0\nz_nm = 0.0\ng = 2.0\nrow = 0\n")
    path = tmp_path / "one.circuit.txt"
    path.write_text("REG 1\nGF z 0.5\n")
    code, out, err = run_cli(capsys, "schedule", str(path),
                             "--geometry", str(geom))
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: op 0: ") and "Traceback" not in err


def test_schedule_report_says_why_a_check_failed(capsys, tmp_path):
    # Two field events overlap: the report carries validation's reason.
    path = tmp_path / "overlap.schedule.txt"
    path.write_text(SCHEDULE_HEADER + F_EVENT
                    + "F 5.000000 10.000000 parallel +1 0.7\n")
    code, out, _ = run_cli(capsys, "schedule", str(path), "--simulate-only",
                           "--format", "json-lines")
    assert code == 1
    check = by_name(json_lines(out))["non_overlap"]
    assert not check["pass"]
    assert check["detail"] == "overlap at t=5e-09"
    code, out, _ = run_cli(capsys, "schedule", str(path), "--simulate-only")
    assert code == 1
    (line,) = [ln for ln in out.splitlines() if "non_overlap" in ln]
    assert "overlap at t=5e-09" in line and line.endswith("FAIL")


def test_schedule_duration_cap_exit_code(capsys, tmp_path):
    # A 2e-5 s z pulse on the 2-site preset: twice the 1e-5 s field cap.
    geom = twin_wire_preset(2)
    angles = zeeman_angles([s.g_factor for s in geom.sites],
                           field_profile(geom, PARALLEL).component("z"), 2e-5)
    path = tmp_path / "long.circuit.txt"
    path.write_text(circuit_to_text(
        circuits.Circuit(RegisterSpec(2), (circuits.GlobalField("z", angles),))))
    code, out, err = run_cli(capsys, "schedule", str(path))
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert "op 0" in err and "over cap" in err


def test_schedule_missing_input(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "schedule", str(tmp_path / "absent.txt"))
    assert code == 2


SCHEDULE_HEADER = ("SCHEDULE register=2 geometry=twin_wire_zigzag "
                   "convention=full_gyromagnetic active_row=0\n")


F_EVENT = "F 0.000000 10.000000 parallel +1 0.7\n"


# Each row: the input, whether it is a schedule (--simulate-only) rather
# than a circuit, and the line its error names.
@pytest.mark.parametrize("text, simulate_only, line", [
    ("REG 4\nEX 0 9 3.141592653589793\n", False, 2),
    ("REG 2\nEX 1 1 0.5\n", False, 2),
    ("REG 2\nXY 0 2 0.5\n", False, 2),
    ("REG 2\nEX 0 1 nan\n", False, 2),
    ("REG 2\nGF w 0.1 0.2\n", False, 2),
    ("REG 3\nGF z 0.1 0.2\n", False, 2),
    ("REG 4\nGF z nan nan nan nan\n", False, 2),
    ("REG 2\nGF x inf 0.5\n", False, 2),
    ("REG 2\nEX 0 1 3.14 junk\n", False, 2),
    ("REG 2\nXY 0 1 3.14 junk\n", False, 2),
    ("REG 2 junk\nEX 0 1 3.14\n", False, 1),
    ("EX 0 1 3.14\nREG 2\n", False, 1),
    ("# ops\n\nREG 2\nEX 0 5 3.14\n", False, 4),
    ("REG 13\n", False, 1),
    ("REG 0\n", False, 1),
    (SCHEDULE_HEADER + "F 0.000000 nan parallel -1 0.7\n", True, 2),
    (SCHEDULE_HEADER + "F nan 10 parallel +1 0.7\n", True, 2),
    (SCHEDULE_HEADER + "E 0 -5 (0,1,3.14)\n", True, 2),
    (SCHEDULE_HEADER + "E 0 nan (0,1,3.14)\n", True, 2),
    (SCHEDULE_HEADER + "E 0.000000 10.000000 (0,5,3.14)\n", True, 2),
    (SCHEDULE_HEADER + "F 0.000000 10.000000 bogus +1 0.7\n", True, 2),
    (SCHEDULE_HEADER + "F 0.000000 10.000000 parallel +3 0.7\n", True, 2),
    (SCHEDULE_HEADER + "F 0.000000 10.000000 parallel +1 nan\n", True, 2),
    (SCHEDULE_HEADER + "F 0 20000 parallel +1 0.7\n", True, 2),
    (SCHEDULE_HEADER + "F 0 1e300 parallel +1 0.7\n", True, 2),
    (SCHEDULE_HEADER + "E 0 20000 (0,1,3.14)\n", True, 2),
    (SCHEDULE_HEADER.replace("full_gyromagnetic", "half_gyromagnetic")
     + F_EVENT, True, 1),
    (SCHEDULE_HEADER + SCHEDULE_HEADER.replace("register=2", "register=3")
     + F_EVENT, True, 2),
    (SCHEDULE_HEADER.replace("\n", " bogus=1\n") + F_EVENT, True, 1),
    (SCHEDULE_HEADER.replace("\n", " register=2\n") + F_EVENT, True, 1),
    (F_EVENT + SCHEDULE_HEADER, True, 1),
    (SCHEDULE_HEADER + "F 0 10 parallel +1 0.7 junk\n", True, 2),
    (SCHEDULE_HEADER + "E 0 10 (0,1,3.14) junk\n", True, 2),
    (SCHEDULE_HEADER + "E 0 10 (0,1,3.14\n", True, 2),
    (SCHEDULE_HEADER + "E 0 10 0,1,3.14\n", True, 2),
    (SCHEDULE_HEADER + "E 0 10 ((0,1,3.14))\n", True, 2),
    (SCHEDULE_HEADER.replace("geometry=twin_wire_zigzag", "geometry")
     + F_EVENT, True, 1),
    (SCHEDULE_HEADER.replace("register=2 ", "") + F_EVENT, True, 1),
])
def test_malformed_input_exits_2_with_one_line(capsys, tmp_path, text,
                                               simulate_only, line):
    path = tmp_path / "input.txt"
    path.write_text(text)
    argv = ["schedule", str(path)] + (["--simulate-only"] if simulate_only
                                      else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: line {line}: ")
    assert "Traceback" not in err


# Each row: an input of 8 spins, and whether it is a schedule
# (--simulate-only) rather than a circuit.
@pytest.mark.parametrize("text, simulate_only", [
    ("REG 8\nEX 0 5 3.14\n", False),
    (SCHEDULE_HEADER.replace("register=2", "register=8")
     + "E 0.000000 10.000000 (0,5,3.14)\n", True),
])
def test_register_beyond_a_custom_geometry_exits_2(capsys, tmp_path, text,
                                                   simulate_only):
    geom = tmp_path / "zigzag4.geometry.txt"
    geom.write_text(geometry_to_text(twin_wire_preset(4)))
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "schedule", str(path), "--geometry",
                             str(geom), *(["--simulate-only"] if simulate_only
                                          else []))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert err.endswith("geometry has 4 sites, register needs 8\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("device", "--geometry", "{nan_g}"),
    pytest.param(("device", "--geometry", "{zero_g}"), id="zero_g"),
    pytest.param(("device", "--geometry", "{negative_g}"), id="negative_g"),
    pytest.param(("device", "--geometry", "{flat_g}"), id="flat_g"),
    ("verify", "--tol", "nan"),
    ("verify", "--tol", "-1"),
    ("schedule", "{circuit}", "--exchange-ns", "nan"),
    ("schedule", "{circuit}", "--exchange-ns", "0"),
    ("schedule", "{circuit}", "--exchange-ns", "-5"),
    ("schedule", "{circuit}", "--exchange-ns", "1e300"),
    ("synthesize", "--problem", "planted_swap", "--budget", "-3"),
    ("synthesize", "--problem", "planted_swap", "--budget", "0"),
    ("verify", "--seed", "-1"),
    ("synthesize", "--problem", "planted_swap", "--seed", "-1"),
    ("verify", "--seed", "x"),
    ("synthesize", "--problem", "planted_swap", "--budget", "1.5"),
    ("schedule", "{circuit}", "--exchange-ns", "abc"),
    ("bogus",),
    (),
    ("verify", "--suite", "bogus"),
    ("device", "--config", "sideways"),
    ("verify", "--bogus"),
    ("synthesize",),
])
def test_bad_number_exits_2_with_one_line(capsys, tmp_path, argv):
    geometries = {}
    for name, g in (("nan_g", "nan"), ("zero_g", "0.0"),
                    ("negative_g", "-2.0")):
        geometries[name] = tmp_path / f"{name}.txt"
        geometries[name].write_text(geometry_to_text(twin_wire_preset(2))
                                    .replace("g = 2.0", f"g = {g}", 1))
    # No current, so no wire position moves the gradient.
    geometries["flat_g"] = tmp_path / "flat_g.txt"
    geometries["flat_g"].write_text(two_wire_geometry(0.0, (0.0, 20.0)))
    circuit = write_tied_cp_circuit(tmp_path / "cp.circuit.txt")
    code, out, err = run_cli(capsys, *(a.format(circuit=circuit, **geometries)
                                       for a in argv))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--seed", "-1"),
    ("synthesize", "--problem", "planted_swap", "--seed", "-1"),
])
def test_negative_seed_names_its_flag(capsys, argv):
    # Refused before any draw, in the flag's own words; numpy's refusal
    # ("expected non-negative integer") named no flag.
    assert run_cli(capsys, *argv) == (
        2, "", "error: --seed must be a non-negative integer, got -1\n")


# Each row: an edit of the 2-site preset geometry's text (first match) and
# the line its error names. The text has [wire] blocks at lines 1 and 9 and
# [site] blocks at 17 and 23; the first site's keys are at 18-21.
@pytest.mark.parametrize("old, new, line", [
    ("g = 2.0", "gg = 2.0", 20),
    ("g = 2.0", "g = 2.0\ng = 3.0", 21),
    ("g = 2.0", "g = -2.0", 20),
    ("row = 0", "row = 0.7", 21),
    ("[wire]", "[wire", 1),
    ("[site]", "[site] [wire]", 17),
    ("x_nm = 0.0", "x_nm = abc", 18),
    ("x_nm = 0.0", "x_nm = 0.0 1.0", 18),
    ("x_nm = 0.0", "x_nm 0.0", 18),
    ("width_nm = 200.0\n", "", 1),
    ("height_nm = 200.0", "height_nm = -1.0", 1),
])
def test_malformed_geometry_exits_2_naming_its_line(capsys, tmp_path, old,
                                                    new, line):
    path = tmp_path / "geometry.txt"
    path.write_text(geometry_to_text(twin_wire_preset(2)).replace(old, new, 1))
    code, out, err = run_cli(capsys, "device", "--geometry", str(path))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: line {line}: ")
    assert "Traceback" not in err


PROBLEM_HEADER = ("PROBLEM name=p family=swap_pair_exchange length=3 "
                  "exchange=2 xi=3.1415926535897931 tolerance=1e-10 "
                  "search_samples=8 verify_samples=25 verify_spins=3\n")
GOOD_LETTER = "LETTER primary z +\n"


# Each row: the input and the line its error names.
@pytest.mark.parametrize("text, line", [
    (PROBLEM_HEADER.replace("swap_pair_exchange", "no_such_family")
     + GOOD_LETTER, 1),
    (PROBLEM_HEADER + "LETTER nosuch z +\n", 2),
    (PROBLEM_HEADER + "LETTER primary z x\n", 2),
    (PROBLEM_HEADER + "LETTER primary z 1\n", 2),
    (PROBLEM_HEADER + "LETTER primary w +\n", 2),
    (PROBLEM_HEADER.replace("xi=3.1415926535897931", "xi=nan") + GOOD_LETTER,
     1),
    (PROBLEM_HEADER.replace("tolerance=1e-10", "tolerance=nan") + GOOD_LETTER,
     1),
    (PROBLEM_HEADER.replace("tolerance=1e-10", "tolerance=inf") + GOOD_LETTER,
     1),
    (PROBLEM_HEADER.replace("exchange=2", "exchange=4") + GOOD_LETTER, 1),
    (PROBLEM_HEADER.replace("exchange=2", "exchange=-1") + GOOD_LETTER, 1),
    (PROBLEM_HEADER.replace("search_samples=8", "search_samples=0")
     + GOOD_LETTER, 1),
    (PROBLEM_HEADER.replace("verify_samples=25", "verify_samples=0")
     + GOOD_LETTER, 1),
    (PROBLEM_HEADER.replace("search_samples=8", "search_samples=100000000")
     + GOOD_LETTER, 1),
    (PROBLEM_HEADER.replace("verify_samples=25", "verify_samples=30000000")
     + GOOD_LETTER, 1),
    (PROBLEM_HEADER.replace("verify_spins=3", "verify_spins=1") + GOOD_LETTER,
     1),
    (PROBLEM_HEADER.replace("verify_spins=3", "verify_spins=13")
     + GOOD_LETTER, 1),
    (PROBLEM_HEADER.replace("xi=3.1415926535897931 ", "") + GOOD_LETTER, 1),
    (PROBLEM_HEADER.replace("tolerance=1e-10", "tolerance=0") + GOOD_LETTER,
     1),
    (PROBLEM_HEADER.replace("search_samples=8", "search_samples=-1")
     + GOOD_LETTER, 1),
    (PROBLEM_HEADER + PROBLEM_HEADER + GOOD_LETTER, 2),
    (PROBLEM_HEADER.replace("tolerance=", "tolerence=") + GOOD_LETTER, 1),
    (PROBLEM_HEADER.replace("\n", " xi=3.1415926535897931\n") + GOOD_LETTER,
     1),
    (PROBLEM_HEADER.replace("\n", " verify_spins\n") + GOOD_LETTER, 1),
    (PROBLEM_HEADER + "LETTER primary z + junk\n", 2),
    (PROBLEM_HEADER + "LETTER primary z\n", 2),
    (PROBLEM_HEADER.replace("length=3", "length=abc") + GOOD_LETTER, 1),
    (PROBLEM_HEADER.replace("length=3", "length=-1") + GOOD_LETTER, 1),
    (PROBLEM_HEADER.replace("name=p", "name=../escaped") + GOOD_LETTER, 1),
    (PROBLEM_HEADER.replace("name=p", "name=a/b") + GOOD_LETTER, 1),
    (PROBLEM_HEADER.replace("name=p", "name=.hidden") + GOOD_LETTER, 1),
    (GOOD_LETTER + PROBLEM_HEADER, 1),
    ("# a problem\n\n" + PROBLEM_HEADER + GOOD_LETTER + "LETTER primary z\n",
     5),
])
def test_malformed_problem_exits_2_with_one_line(capsys, tmp_path, text, line):
    path = tmp_path / "input.problem.txt"
    path.write_text(text)
    out_file = tmp_path / "out.result.txt"
    code, out, err = run_cli(capsys, "synthesize", "--problem", str(path),
                             "--out", str(out_file))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: line {line}: ")
    assert "Traceback" not in err
    assert not out_file.exists()


# The seeded mutation test: MUTANTS_PER_SOURCE one-change mutants of each
# bundled input, each run through its command in-process.
MUTATION_SEED = 2023
MUTANTS_PER_SOURCE = 50
MUTANT_WALL_S = 1.0
MUTANT_TOKENS = ("nan", "inf", "-inf", "0", "-0", "1e308", "1e-320",
                 str(2 ** 66), "", "junk")


def mutate(text, rng):
    """text with one change: a token (a run between spaces, =, commas and
    parentheses) replaced by one of MUTANT_TOKENS, or a line deleted,
    duplicated or swapped with the next."""
    lines = text.splitlines(keepends=True)
    k = int(rng.integers(len(lines)))
    kind = int(rng.integers(5))
    if kind == 0:
        del lines[k]
    elif kind == 1:
        lines.insert(k, lines[k])
    elif kind == 2 and k + 1 < len(lines):
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    else:
        spans = [m.span() for line in lines[k:k + 1]
                 for m in re.finditer(r"[^\s=,()]+", line)]
        if spans:
            a, b = spans[int(rng.integers(len(spans)))]
            token = MUTANT_TOKENS[int(rng.integers(len(MUTANT_TOKENS)))]
            lines[k] = lines[k][:a] + token + lines[k][b:]
    return "".join(lines)


class _Overrun(Exception):
    pass


def _raise_overrun(signum, frame):
    raise _Overrun


def test_mutated_inputs_run_or_exit_with_one_line(capsys, tmp_path):
    # Every mutant runs (exit 0, or 1 for a failed check) or is refused
    # with exit 2, 3 or 4 and one stderr line, within MUTANT_WALL_S. An
    # exception out of main is a traceback, and fails the test.
    circuit = write_rotation_circuit(tmp_path / "rotation.circuit.txt", 4)
    out = str(tmp_path / "out.txt")
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    sources = [
        (preset_path("planted_swap"), ["synthesize", "--problem", "{path}",
                                       "--out", out]),
        (preset_path("planted_cp"), ["synthesize", "--problem", "{path}",
                                     "--out", out]),
        (preset_path("twin_wire_zigzag"), ["device", "--geometry", "{path}"]),
        (os.path.join(fixtures, "cp_tied.schedule.txt"),
         ["schedule", "{path}", "--simulate-only"]),
        (os.path.join(fixtures, "rotation11.schedule.txt"),
         ["schedule", "{path}", "--simulate-only"]),
        (str(circuit), ["schedule", "{path}", "--out", out]),
    ]
    rng = np.random.default_rng(MUTATION_SEED)
    mutant = tmp_path / "mutant.txt"
    previous = signal.signal(signal.SIGALRM, _raise_overrun)
    try:
        for source, argv in sources:
            with open(source) as fh:
                text = fh.read()
            for k in range(MUTANTS_PER_SOURCE):
                mutant.write_text(mutate(text, rng))
                case = (source, k, mutant.read_text())
                signal.setitimer(signal.ITIMER_REAL, 2 * MUTANT_WALL_S)
                t0 = time.perf_counter()
                try:
                    code, _, err = run_cli(capsys, *(a.format(path=mutant)
                                                     for a in argv))
                except _Overrun:
                    pytest.fail(f"over {2 * MUTANT_WALL_S} s: {case}")
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                assert time.perf_counter() - t0 <= MUTANT_WALL_S, case
                assert code in (0, 1, 2, 3, 4), case
                if code >= 2:
                    assert err.count("\n") == 1 and err.startswith("error: "), (
                        case, err)
    finally:
        signal.signal(signal.SIGALRM, previous)
