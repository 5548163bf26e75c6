"""Command line front end: identity verification, sequence synthesis, device
analysis, and schedule compilation as reproducible commands.

Every report embeds the sha256 of each input file, and a drawing command
(verify, synthesize) its seed, so any number it prints can be re-derived
from the command line alone. Exit codes: 0 all checks pass, 1 check
failure, 2 input error, 3 search budget exceeded, 4 unschedulable circuit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import circuits, device, schedule as sched, synth
from .grammar import preset_path
from .linalg import TOL_COMPILED
from .spins import RegisterSpec

DRAWS_PER_SUITE = 60


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: object  # float, or str for identifiers like digests
    threshold: Optional[float]  # None marks an informational value
    passed: bool
    # verify: the first draw with the suite's worst value, as its index in
    # the suite's draw order and its layout {index, n, i, j}.
    worst_draw: Optional[dict] = None
    # schedule: why a constraint check holds or fails, as validation says.
    detail: Optional[str] = None


@dataclass(frozen=True)
class RunReport:
    command: str
    seed: Optional[int]  # None for a command that draws nothing
    inputs: tuple  # (path, sha256) pairs
    checks: tuple
    wall_time_s: float
    stages: tuple = ()  # synth.StageRecord per search or schedule stage

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _read_input(name: str, parse, *args):
    """parse(text, *args) of the file named, and (path, sha256 of the
    bytes). A name that is no file resolves as a preset (preset_path)."""
    path = name if os.path.isfile(name) else preset_path(name)
    with open(path, "rb") as fh:
        data = fh.read()
    return parse(data.decode(), *args), (path, hashlib.sha256(data).hexdigest())


def _json_value(x):
    """x in strict JSON: a non-finite float as its text, "nan" or "inf"."""
    return str(x) if isinstance(x, float) and not math.isfinite(x) else x


def _emit(report: RunReport, fmt: str) -> None:
    if fmt == "json-lines":
        line = lambda rec: print(json.dumps(rec, allow_nan=False))
        line({"kind": "header", "command": report.command,
              "seed": report.seed,
              "inputs": [{"path": p, "sha256": d} for p, d in report.inputs]})
        for c in report.checks:
            rec = {"kind": "check", "name": c.name,
                   "measured": _json_value(c.measured),
                   "threshold": _json_value(c.threshold), "pass": c.passed}
            if c.worst_draw is not None:
                rec["worst_draw"] = c.worst_draw
            if c.detail is not None:
                rec["detail"] = c.detail
            line(rec)
        for st in report.stages:
            line({"kind": "stage", "name": st.name, "in": st.n_in,
                  "out": st.n_out, "s": st.seconds, "cpu_s": st.cpu_s})
        line({"kind": "summary", "ok": report.ok,
              "wall_time_s": report.wall_time_s})
        return
    print(f"globalspin {report.command}")
    if report.seed is not None:
        print(f"seed = {report.seed}")
    for p, d in report.inputs:
        print(f"input {p} sha256={d}")
    for c in report.checks:
        measured = (f"{c.measured:.6e}" if isinstance(c.measured, float)
                    else str(c.measured))
        if c.worst_draw is not None:
            measured += "  draw {index} (n={n} i={i} j={j})".format(
                **c.worst_draw)
        if c.detail is not None:
            measured += f"  {c.detail}"
        if c.threshold is None:
            print(f"  {c.name:42s} {measured:>26s}  INFO")
        else:
            verdict = "PASS" if c.passed else "FAIL"
            print(f"  {c.name:42s} {measured:>26s}  threshold={c.threshold:g}"
                  f"  {verdict}")
    for st in report.stages:
        print(f"  stage {st.name:36s} {st.n_in:>12d} -> {st.n_out:<12d}"
              f"{st.seconds:.3f} s  cpu {st.cpu_s:.3f} s")
    print(f"wall_time_s = {report.wall_time_s:.3f}")
    print(f"overall: {'PASS' if report.ok else 'FAIL'}")


def _value(name: str, measured) -> CheckResult:
    return CheckResult(name, measured, None, True)


def _bounded_check(name: str, measured: float, threshold: float) -> CheckResult:
    return CheckResult(name, measured, threshold, measured <= threshold)


# Pair suites: check name, builder, the number of angles each draw takes
# before its bystander angles, and whether it takes bystander angles. Every
# builder takes its pair and angles per draw and returns (circuit,
# GateTarget), and a draw's value is the larger of verify_target's distance
# and bystander deviation. Builders are looked up in circuits when a suite
# runs.
_PAIR_SUITES = {
    "swap": ("swap_conjugation_exact", "swap_conjugation", 2, True),
    "dressed": ("dressed_swap_phase_factor",
                "dressed_swap_phase_conjugation", 3, False),
    "cp": ("controlled_phase_exact", "controlled_phase_circuit", 1, True),
    "xy": ("xy_x_rotation_phase", "xy_x_rotation_circuit", 2, True),
    "xycp": ("xy_controlled_phase", "xy_controlled_phase_circuit", 1, False),
}


def _pair_draws(rng, n_angles, bystanders, draws=DRAWS_PER_SUITE) -> list:
    """The draws rng.integers, choice and uniform give _pair_suite, as [(n,
    i, j, row)], read off PCG64 raw words; rng ends as after those calls."""
    bg = rng.bit_generator
    saved = bg.state
    has, half, pos, words = saved["has_uint32"], saved["uinteger"], 0, []

    def take(k):  # the next k words; redraws may use up a block
        nonlocal pos
        while pos + k > len(words):
            words.extend(bg.random_raw(
                draws * (2 + n_angles + 2 * bystanders)).tolist())
        pos += k
        return words[pos - k:pos]

    def below(m):  # numpy's Lemire draw on 32-bit halves, low half first
        nonlocal has, half
        while True:
            if has:
                x, has = half, 0
            else:
                has, (half, x) = 1, divmod(*take(1), 1 << 32)
            if x * m & 0xFFFFFFFF >= (1 << 32) % m:
                return x * m >> 32

    out = []
    for _ in range(draws):
        n = 2 + below(3)
        a, b = below(n - 1) if n > 2 else 0, below(n)  # Floyd's pair
        i, j = (a, n - 1 if b == a else b)[::1 if below(2) else -1]
        out.append((n, i, j, [-3.0 + 6.0 * ((w >> 11) * 2.0 ** -53)
                              for w in take(n_angles + (n - 2) * bystanders)]))
    bg.advance(pos - len(words) + 2 ** 128)  # back over the unused words
    bg.state = {**bg.state, "has_uint32": has, "uinteger": half}
    return out


def _pair_suite(rng, tol, check, builder, n_angles, bystanders) -> tuple:
    """DRAWS_PER_SUITE draws, each a register of 2 to 4 spins, a pair, and
    then its angles in the builder's argument order, bystander angles in
    ascending spin order: the check name and the draws' values and (n, i, j)
    layouts. One builder call per register size, on (B,) pair and angle
    arrays and a (B, n - 2) array of bystander angles, verifies that size's
    draws, each against its own target and acted spins. A draw is n = 2 +
    below(3), Floyd's pair, reversed if below(2) is 0, and its angles,
    read off PCG64's raw words, which numpy keeps stable across releases."""
    draws = _pair_draws(rng, n_angles, bystanders)
    values = np.empty(DRAWS_PER_SUITE)
    for n in {d[0] for d in draws}:
        index = [k for k, d in enumerate(draws) if d[0] == n]
        i, j, rows = (np.array([draws[k][c] for k in index])
                      for c in (1, 2, 3))
        args = list(rows[:, :n_angles].T)
        if bystanders:
            args.append(rows[:, n_angles:])
        rep = circuits.verify_target(*getattr(circuits, builder)(
            RegisterSpec(n), i, j, *args), tol)
        values[index] = np.maximum(rep.distance, rep.bystander_deviation)
    return check, values, [d[:3] for d in draws]


def _suite_parallel(rng, tol) -> tuple:
    """The controlled phase replicated on 2 and 3 pairs, for
    DRAWS_PER_SUITE // 4 template angles: one builder call and two batched
    verifications, EXACT over every spin. Draw 2k is angle k on 4 spins,
    draw 2k + 1 the same angle on 6; a draw's layout names its register and
    its first pair."""
    angles = rng.uniform(-3, 3, size=DRAWS_PER_SUITE // 4)
    template, pair_target = circuits.controlled_phase_circuit(
        RegisterSpec(2), 0, 1, angles)
    values = np.empty((len(angles), 2))
    for col, (n, pairs) in enumerate(((4, ((0, 1), (2, 3))),
                                      (6, ((0, 1), (2, 3), (4, 5))))):
        reg = RegisterSpec(n)
        c = circuits.parallel_apply(template, pairs, reg)
        target = circuits.join(tuple((pair, pair_target.unitary)
                                     for pair in pairs))
        rep = circuits.verify_target(c, circuits.GateTarget(
            target, frozenset(range(n)), circuits.Equivalence.EXACT), tol)
        values[:, col] = np.maximum(rep.distance, rep.bystander_deviation)
    return ("parallel_pair_replication", values.ravel(),
            [(4, 0, 1), (6, 0, 1)] * len(angles))


VERIFY_SUITES = tuple(_PAIR_SUITES) + ("parallel",)


def cmd_verify(args) -> RunReport:
    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    names = VERIFY_SUITES if args.suite == "all" else (args.suite,)
    checks, stages = [], synth.Stages()
    for name in names:
        check, values, layouts = (
            _suite_parallel(rng, args.tol) if name == "parallel"
            else _pair_suite(rng, args.tol, *_PAIR_SUITES[name]))
        # The worst value (NaN if any is NaN) and the first draw with it.
        k = int(np.argmax(values))
        n, i, j, worst = *layouts[k], float(values[k])
        checks.append(CheckResult(check, worst, args.tol, worst <= args.tol,
                                  {"index": k, "n": n, "i": i, "j": j}))
        stages.mark(check, len(values), int((values <= args.tol).sum()))
    return RunReport(command="verify", seed=args.seed, inputs=(),
                     checks=tuple(checks), wall_time_s=0.0,
                     stages=stages.records)


def cmd_synthesize(args) -> RunReport:
    problem, entry = _read_input(args.problem, synth.problem_from_text)
    result = synth.enumerate_sequences(problem, budget=args.budget,
                                       seed=args.seed)
    out = args.out or (problem.name + ".result.txt")
    with open(out, "w") as fh:
        fh.write(synth.result_to_text(result))
    st = result.stats
    rate = (st.words_total * st.placements) / max(st.elapsed_s, 1e-9)
    checks = [
        _value("words_total", st.words_total),
        _value("placements", st.placements),
        _value("bystander_survivors", st.bystander_survivors),
        _value("pair_candidates", st.pair_candidates),
        _value("candidates_per_second", float(rate)),
        _value("result_file", out),
    ]
    n_sol = len(result.solutions)
    if args.require_solution:
        checks.append(CheckResult("solutions_found", n_sol, 1.0, n_sol >= 1))
    else:
        checks.append(_value("solutions_found", n_sol))
    for k, sol in enumerate(result.solutions):
        checks.append(_bounded_check(f"solution_{k}_distance",
                                     sol.max_distance, problem.tolerance))
        checks.append(_value(f"solution_{k}_worst_draw", sol.worst_draw))
    return RunReport(command="synthesize", seed=args.seed,
                     inputs=(entry,), checks=tuple(checks), wall_time_s=0.0,
                     stages=st.stages)


def _load_geometry(args):
    """The geometry, its name for a schedule header (the preset's, or
    custom for a file) and its input entry."""
    geom, entry = _read_input(args.geometry, device.geometry_from_text)
    return geom, "custom" if entry[0] == args.geometry else args.geometry, entry


def cmd_device(args) -> RunReport:
    geom, _, entry = _load_geometry(args)
    fp = device.field_profile(geom, args.config)
    axis = device.ACTIVE_AXIS[args.config]
    comp = fp.component(axis)
    checks = []
    rows = []
    for k, (bx, bz) in enumerate(fp.site_fields):
        checks.append(_value(f"site{k}_B{axis}_mT", comp[k] * 1e3))
        rows.append((k, bx * 1e3, bz * 1e3))
    for k in range(len(comp) - 1):
        checks.append(_value(f"grad_{k}{k + 1}_mT", abs(comp[k] - comp[k + 1]) * 1e3))
    try:
        const = device.device_constants(fp)
        for k, r in enumerate(const.ratios):
            checks.append(_value(f"ratio_site{k}", r))
    except device.ZeroFieldSite:
        checks.append(_value("ratio_sites", "undefined (zero-field site)"))
    if len(comp) >= 2 and abs(comp[0] - comp[1]) > 0:
        db = abs(comp[0] - comp[1])
        dur = device.pulse_duration(math.pi, db, geom.sites[0].g_factor)
        checks.append(_value("duration_pi_full_gyromagnetic_ns", dur * 1e9))
        checks.append(_value("gate_time_21_us",
                             device.gate_time_estimate(21, dur) * 1e6))
    budget = device.error_budget(21, 1e-4)
    checks.append(_value("per_pulse_budget_21", budget))
    if geom.is_twin_wire:
        try:
            tol_m = device.position_sensitivity(geom, budget, args.config)
            checks.append(_value("position_tolerance_angstrom", tol_m * 1e10))
        except device.NonpositiveGradient:
            pass
    for k, w in enumerate(device.validate_currents(geom)):
        checks.append(CheckResult(f"wire{k}_current_margin_mA",
                                  w.margin_a * 1e3, 0.0,
                                  w.ok))
    checks.append(CheckResult("twin_wire_layout", len(geom.wires), 2.0,
                              geom.is_twin_wire))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("site,Bx_mT,Bz_mT\n")
            for k, bx, bz in rows:
                fh.write(f"{k},{bx:.9g},{bz:.9g}\n")
    return RunReport(command="device", seed=None,
                     inputs=(entry,), checks=tuple(checks), wall_time_s=0.0)


def cmd_schedule(args) -> RunReport:
    geom, name, geom_entry = _load_geometry(args)
    checks, stages = [], synth.Stages()
    if args.simulate_only:
        s, entry = _read_input(args.input, sched.schedule_from_text, geom)
        u = sched.simulate_schedule(s)
        stages.mark("replay", len(s.events), 1)
    else:
        c, entry = _read_input(args.input, circuits.circuit_from_text)
        s = sched.compile_schedule(c, geom,
                                   exchange_duration=args.exchange_ns * 1e-9,
                                   geometry_name=name)
        stages.mark("compile", len(c.ops), len(s.events))
        # Check and digest the schedule as serialized: the check then sees
        # what was written, and the digest is the number a later
        # --simulate-only run on the written file prints.
        text = sched.schedule_to_text(s)
        s = sched.schedule_from_text(text, geom)
        # Replay and circuit, factored on one partition, part by part.
        u = sched.simulate_schedule(s, c)
        d = circuits.factored_distance(u, circuits.factor(c, [g for g, _ in u]))
        checks.append(_bounded_check("round_trip_distance", d, TOL_COMPILED))
        stages.mark("replay_check", len(s.events), int(d <= TOL_COMPILED))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            checks.append(_value("schedule_file", args.out))
        stages.mark("write", len(s.events), len(s.events) if args.out else 0)
    checks.append(_value("events", len(s.events)))
    checks.append(_value("total_time_us", s.total_time * 1e6))
    checks.append(_value("unitary_digest", sched.unitary_digest(u)))
    stages.mark("digest", 1, 1)
    for item in sched.validate_schedule(s).checks:
        checks.append(CheckResult(item.name, 1.0 if item.ok else 0.0, 1.0,
                                  item.ok, detail=item.detail))
    return RunReport(command="schedule", seed=None,
                     inputs=(geom_entry, entry), checks=tuple(checks),
                     wall_time_s=0.0, stages=stages.records)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Refuse in one line, as every other input error is: no usage
        block before it."""
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="globalspin",
                     description="Global-field spin-chain control toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p, seeded=False):
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("human", "json-lines"),
                       default="human")

    p = sub.add_parser("verify", help="run the pulse identity suites")
    p.add_argument("--suite", choices=("all",) + VERIFY_SUITES, default="all")
    p.add_argument("--tol", type=float, default=1e-10)
    common(p, seeded=True)

    p = sub.add_parser("synthesize", help="search for pulse sequences")
    p.add_argument("--problem", required=True,
                   help="problem file path or preset name")
    p.add_argument("--budget", type=int, default=synth.DEFAULT_BUDGET)
    p.add_argument("--require-solution", action="store_true")
    p.add_argument("--out", default=None)
    common(p, seeded=True)

    geometry = {"default": "twin_wire_zigzag",
                "help": "geometry file path or preset name"}
    p = sub.add_parser("device", help="field table and device constants")
    p.add_argument("--geometry", **geometry)
    p.add_argument("--config", choices=(device.PARALLEL, device.ANTIPARALLEL),
                   default=device.PARALLEL)
    p.add_argument("--csv", default=None)
    common(p)

    p = sub.add_parser("schedule", help="compile a circuit to a schedule")
    p.add_argument("input", help="circuit file, or schedule file with "
                                 "--simulate-only")
    p.add_argument("--geometry", **geometry)
    p.add_argument("--exchange-ns", type=float,
                   default=sched.DEFAULT_EXCHANGE_DURATION * 1e9)
    p.add_argument("--simulate-only", action="store_true")
    p.add_argument("--out", default=None)
    common(p)
    return parser


_PARSER = _build_parser()  # one per process: parsing leaves it unchanged
_COMMANDS = {"verify": cmd_verify, "synthesize": cmd_synthesize,
             "device": cmd_device, "schedule": cmd_schedule}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    t0 = time.perf_counter()
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's refusal names no flag
            raise ValueError(f"--seed must be a non-negative integer, got "
                             f"{args.seed}")
        report = _COMMANDS[args.command](args)
    except synth.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (sched.UnrealizableAngles, sched.DurationCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = replace(report, wall_time_s=time.perf_counter() - t0)
    _emit(report, args.format)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
