"""The four workloads: their inputs, their operations and their checks.

A workload is built once per process (set-up: inputs generated from the
workload seed and written to its work directory), then runs rounds. A round
is a fixed list of operations, the same kinds in every round, so the share
of failed operations does not depend on how many rounds a run fits. The
operations call the package the way a user does: the CLI entry point
in-process, or the library where no command wraps a search.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import checks


@dataclass
class Outcome:
    """Result of one operation. failed: the program raised, or exited with
    another code than the operation expects."""

    kind: str
    failed: bool
    code: object = None
    stdout: str = ""
    stderr: str = ""
    error: str = ""
    value: object = None


@dataclass
class Op:
    kind: str
    argv: list = field(default_factory=list)  # CLI arguments, if a command
    call: object = None  # zero-argument library call, otherwise
    # Input-contract operations pass only with exit 2 and a one-line
    # message; all others only with exit 0.
    contract: bool = False


def run_op(gs, op: Op) -> Outcome:
    if op.call is not None:
        try:
            return Outcome(op.kind, False, value=op.call())
        except Exception as exc:  # the library rejected a valid input
            return Outcome(op.kind, True, error=f"{type(exc).__name__}: {exc}")
    out, err = io.StringIO(), io.StringIO()
    error = ""
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = gs.cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # what the globalspin script shows as a traceback
        code, error = 1, f"{type(exc).__name__}: {exc}"
    failed = code != (2 if op.contract else 0)
    if op.contract and not failed:
        failed = len(err.getvalue().strip().splitlines()) != 1
    return Outcome(op.kind, failed, code, out.getvalue(), err.getvalue(), error)


def cli_checks(o: Outcome) -> tuple:
    """(checks by name, errors) from a --format json-lines report."""
    recs = [json.loads(ln) for ln in o.stdout.splitlines() if ln.startswith("{")]
    by_name = {r["name"]: r for r in recs if r.get("kind") == "check"}
    errors = [f"{o.kind}: check {n} failed ({r['measured']})"
              for n, r in by_name.items() if not r["pass"]]
    summary = [r for r in recs if r.get("kind") == "summary"]
    if not summary or not summary[-1]["ok"]:
        errors.append(f"{o.kind}: report is not ok")
    return by_name, errors


def preset_profiles(gs, n: int) -> dict:
    """Per-axis site amplitude ratios of the n-site twin-wire preset."""
    dev = gs.device
    g = dev.twin_wire_preset(n)
    return {"z": dev.device_constants(dev.field_profile(g, dev.PARALLEL)).ratios,
            "x": dev.device_constants(dev.field_profile(g, dev.ANTIPARALLEL)).ratios}


def _seeds(seed: int, salt: int, count: int) -> list:
    rng = np.random.default_rng([seed, salt])
    return [int(s) for s in rng.integers(0, 1_000_000, size=count)]


class Workload:
    name = ""
    # Rounds whose inputs set-up generates; a run stops after this many.
    MAX_ROUNDS = 12
    # How wall_s is taken from the rounds (run.batch_wall_s): the mean round
    # time, or the sum of each operation's fastest repeat.
    FASTEST_REPEAT = False

    def __init__(self, gs, seed: int, workdir: str) -> None:
        self.gs = gs
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, text: str) -> str:
        p = self.path(name)
        with open(p, "w") as fh:
            fh.write(text)
        return p

    def check_rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 7919, r])

    def round_ops(self, r: int) -> list:
        raise NotImplementedError

    def check(self, r: int, outcomes: list) -> list:
        raise NotImplementedError


# Unknown family: the search must reject the file as an input error.
BAD_FAMILY_PROBLEM = """\
PROBLEM name=bad_family family=no_such_family length=11 exchange=4 xi=3.1415926535897931 tolerance=1e-10 search_samples=20 verify_samples=100 verify_spins=4
LETTER primary z +
LETTER primary z -
"""


class RotationSearch(Workload):
    """synthesize on the 11-step rotation problem and its literal twin."""

    name = "rotation_search"

    def __init__(self, gs, seed, workdir) -> None:
        super().__init__(gs, seed, workdir)
        self.search_seeds = _seeds(seed, 1, self.MAX_ROUNDS)
        self.bad_problem = self.write("bad_family.problem.txt", BAD_FAMILY_PROBLEM)

    def round_ops(self, r):
        s = str(self.search_seeds[r])
        common = ["--seed", s, "--format", "json-lines"]
        return [
            Op("synthesize", ["synthesize", "--problem", "z_difference_rotation",
                              "--require-solution", "--out",
                              self.path(f"rotation-{r}.result.txt")] + common),
            Op("synthesize_literal",
               ["synthesize", "--problem", "z_difference_rotation_literal",
                "--out", self.path(f"literal-{r}.result.txt")] + common),
            Op("synthesize_bad_family",
               ["synthesize", "--problem", self.bad_problem,
                "--out", self.path(f"bad-{r}.result.txt")] + common,
               contract=True),
        ]

    def check(self, r, outcomes):
        main, literal, _ = outcomes
        errors = []
        if not main.failed:
            by_name, errs = cli_checks(main)
            errors += errs
            sols = []
            with open(self.path(f"rotation-{r}.result.txt")) as fh:
                for line in fh:
                    if line.startswith("SOLUTION"):
                        kv = dict(p.split("=", 1) for p in line.split()[1:])
                        sols.append((tuple(kv["letters"].split(",")),
                                     tuple(int(v) for v in kv["slots"].split(","))))
            if len(sols) != by_name["solutions_found"]["measured"]:
                errors.append("synthesize: result file and report disagree")
            errors += checks.check_rotation_solutions(sols, self.check_rng(r))
        if not literal.failed:
            by_name, errs = cli_checks(literal)
            errors += errs
            if by_name["solutions_found"]["measured"] != 0:
                errors.append("synthesize_literal: found solutions")
            if by_name["bystander_survivors"]["measured"] != 0:
                errors.append("synthesize_literal: bystander survivors")
        return errors


class HadamardSearch(Workload):
    """global_hadamard_search at depth 8 with 3 starts, preset device ratios.

    Every round runs the same search: the fixed search seed 1. The
    optimizer's work depends strongly on the search seed (3.7 s to 6.3 s
    per seed over seeds 0-32), so seeds drawn anew would make wall time
    follow the draw rather than the code. So the workload seed does not
    change this workload's input. One search per round (about 4 s) gives a
    run several rounds to average over.
    """

    name = "hadamard_search"
    SEARCH_SEED = 1
    DEPTH = 8

    def __init__(self, gs, seed, workdir) -> None:
        super().__init__(gs, seed, workdir)
        self.profiles = preset_profiles(gs, 2)

    def round_ops(self, r):
        # Looked up at call time, so a traced round sees the traced function.
        return [Op("hadamard_search",
                   call=lambda: self.gs.synth.global_hadamard_search(
                       self.profiles, depth=self.DEPTH, tolerance=1e-6,
                       starts=3, seed=self.SEARCH_SEED))]

    def check(self, r, outcomes):
        errors = []
        for o in outcomes:
            if not o.failed:
                errors += checks.check_hadamard(o.value, self.DEPTH)
        return errors


# An exchange on a spin the 8-site geometry does not have.
BAD_EXCHANGE_CIRCUIT = "REG 8\nEX 0 9 3.1415926535897931\n"


@dataclass
class _ScheduleCase:
    n: int
    circuit: str
    ops: list  # ("F", axis, angles) / ("E", i, j, xi)
    targets: list  # (unitary, sites)


class ScheduleWide(Workload):
    """schedule compile plus --simulate-only replay on 8- to 10-spin
    zig-zag registers."""

    name = "schedule_wide"
    # A round takes about 6 s, so a run fits four; building the circuits is
    # most of set-up, so no more are built than a run can use.
    MAX_ROUNDS = 4
    # (register size, circuit kinds) per round; 11 spins and up are left
    # out for the time one dense replay takes there (see README).
    LAYOUT = ((8, ("rotation", "su2", "parallel_cp")),
              (9, ("rotation", "su2")),
              (10, ("rotation", "parallel_cp")))

    def __init__(self, gs, seed, workdir) -> None:
        super().__init__(gs, seed, workdir)
        self.geometries, self.geometry_paths, profiles = {}, {}, {}
        for n, _ in self.LAYOUT:
            g = gs.device.twin_wire_preset(n)
            self.geometries[n] = g
            self.geometry_paths[n] = self.write(f"zigzag{n}.geometry.txt",
                                                gs.device.geometry_to_text(g))
            profiles[n] = preset_profiles(gs, n)
        rng = np.random.default_rng([seed, 3])
        self.cases = []
        for r in range(self.MAX_ROUNDS):
            cases = []
            for n, kinds in self.LAYOUT:
                for kind in kinds:
                    c, targets = self._circuit(kind, n, profiles[n], rng)
                    path = self.write(f"r{r}-{len(cases)}-{kind}{n}.circuit.txt",
                                      gs.circuits.circuit_to_text(c))
                    cases.append(_ScheduleCase(n, path, checks.circuit_ops(c),
                                               targets))
            self.cases.append(cases)
        self.bad_circuit = self.write("bad_exchange.circuit.txt",
                                      BAD_EXCHANGE_CIRCUIT)

    def _circuit(self, kind, n, profiles, rng):
        cir = self.gs.circuits
        reg = self.gs.spins.RegisterSpec(n)
        if kind == "parallel_cp":
            # The tied controlled phase: pair angles -4 pi and -3 pi follow
            # the 1 : 0.75 site ratios, so every pair pulse is playable.
            tpl, _ = cir.controlled_phase_circuit(self.gs.spins.RegisterSpec(2),
                                                  0, 1, -4.0 * math.pi)
            pairs = [(k, k + 1) for k in range(0, n, 2)]
            gate = checks.evolve(checks.zz(2, 0, 1), math.pi)
            return cir.parallel_apply(tpl, pairs, reg), [(gate, p) for p in pairs]
        i = int(rng.integers(0, n))
        j = i + 1 if i + 1 < n and (i == 0 or rng.random() < 0.5) else i - 1
        if kind == "rotation":
            axis = "z" if rng.random() < 0.5 else "x"
            angle = float(rng.uniform(0.3, 3.0))
            c, _ = cir.refocused_rotation_circuit(reg, axis, i, j, angle, profiles)
            return c, [(checks.evolve(checks.PAULI[axis] / 2.0, angle), (i,))]
        u = checks.haar_su2(rng)
        return cir.su2_compile(u, reg, i, j, profiles), [(u, (i,))]

    def round_ops(self, r):
        ops = []
        for k, case in enumerate(self.cases[r]):
            geom = ["--geometry", self.geometry_paths[case.n], "--format",
                    "json-lines"]
            out = self.path(f"r{r}-{k}.schedule.txt")
            ops.append(Op("schedule", ["schedule", case.circuit, "--out", out]
                          + geom))
            ops.append(Op("schedule_simulate",
                          ["schedule", out, "--simulate-only"] + geom))
        ops.append(Op("schedule_bad_exchange",
                      ["schedule", self.bad_circuit, "--out",
                       self.path(f"r{r}-bad.schedule.txt"), "--geometry",
                       self.geometry_paths[8], "--format", "json-lines"],
                      contract=True))
        return ops

    # Every compile report carries these, and round_trip_distance too.
    REPORTED = ("non_overlap", "current_limits", "pair_disjointness",
                "row_addressing", "event_kinds", "unitary_digest")

    def check(self, r, outcomes):
        errors = []
        rng = self.check_rng(r)
        for k, case in enumerate(self.cases[r]):
            comp, sim = outcomes[2 * k], outcomes[2 * k + 1]
            if comp.failed or sim.failed:
                continue
            comp_checks, errs = cli_checks(comp)
            sim_checks, errs2 = cli_checks(sim)
            missing = ([f"schedule: no {n} check" for n in
                        self.REPORTED + ("round_trip_distance",)
                        if n not in comp_checks]
                       + [f"schedule_simulate: no {n} check"
                          for n in self.REPORTED if n not in sim_checks])
            errors += errs + errs2 + missing
            if missing:
                continue
            if (comp_checks["unitary_digest"]["measured"]
                    != sim_checks["unitary_digest"]["measured"]):
                errors.append(f"schedule: digests differ for {case.circuit}")
            with open(self.path(f"r{r}-{k}.schedule.txt")) as fh:
                text = fh.read()
            errors += checks.check_schedule(text, case.ops, case.n,
                                            self.geometries[case.n],
                                            case.targets, rng)
        return errors


class IdentitySuites(Workload):
    """verify --suite all over a list of seeds drawn from the workload seed."""

    name = "identity_suites"
    SEEDS_PER_ROUND = 30
    # 30 operations of about 0.1 s, each repeated in every round: their
    # fastest repeats land in the host's fast seconds.
    FASTEST_REPEAT = True
    SAMPLE_PER_ROUND = 2  # independent rebuilds of each construction

    def __init__(self, gs, seed, workdir) -> None:
        super().__init__(gs, seed, workdir)
        self.verify_seeds = _seeds(seed, 4, self.MAX_ROUNDS * self.SEEDS_PER_ROUND)

    def round_ops(self, r):
        k = self.SEEDS_PER_ROUND
        return [Op("verify", ["verify", "--suite", "all", "--format",
                              "json-lines", "--seed", str(s)])
                for s in self.verify_seeds[r * k:(r + 1) * k]]

    def check(self, r, outcomes):
        errors = []
        for o in outcomes:
            if not o.failed:
                by_name, errs = cli_checks(o)
                errors += errs
                if len(by_name) != 6:
                    errors.append(f"verify: {len(by_name)} checks, expected 6")
        rng = self.check_rng(r)
        for _ in range(self.SAMPLE_PER_ROUND):
            for kind, u, target in self._sample(rng):
                errors += [f"{e} ({kind})" for e in
                           checks.check_identity(kind, u, target)]
        return errors

    def _sample(self, rng):
        """Each construction, built through its public builder, evaluated and
        compared with its claim, both computed with expm."""
        cir, RegisterSpec = self.gs.circuits, self.gs.spins.RegisterSpec
        ev, spin, zz = checks.evolve, checks.spin, checks.zz
        n = int(rng.integers(2, 5))
        reg = RegisterSpec(n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        a1, a2, a3 = (float(v) for v in rng.uniform(-3, 3, size=3))
        bys = {k: float(rng.uniform(-3, 3)) for k in range(n) if k not in (i, j)}
        out = []
        c, _ = cir.swap_conjugation(reg, i, j, a1, a2, bys)
        swapped = [bys.get(k, 0.0) for k in range(n)]
        swapped[i], swapped[j] = a2, a1
        out.append(("exact", c, checks.field_pulse(n, "z", swapped)))
        c, _ = cir.dressed_swap_phase_conjugation(reg, i, j, a1, a2, a3)
        out.append(("exact", c, 1j * ev(a2 * spin(n, j, "z") + a3 * spin(n, i, "z"), -1.0)))
        c, _ = cir.controlled_phase_circuit(reg, i, j, a1, bys)
        out.append(("exact", c, ev(zz(n, i, j), math.pi)))
        c, _ = cir.xy_x_rotation_circuit(reg, i, j, a1, a2, bys)
        out.append(("phase", c, ev(spin(n, i, "x"), -2.0 * a1)))
        c, _ = cir.xy_controlled_phase_circuit(reg, i, j, a1)
        out.append(("phase", c, ev(zz(n, i, j), -2.0 * a1)))
        tpl, _ = cir.controlled_phase_circuit(RegisterSpec(2), 0, 1, a2)
        m = 4 if rng.random() < 0.5 else 6
        pairs = [(p, p + 1) for p in range(0, m, 2)]
        c = cir.parallel_apply(tpl, pairs, RegisterSpec(m))
        target = np.eye(2 ** m, dtype=complex)
        for p, q in pairs:
            target = ev(zz(m, p, q), math.pi) @ target
        out.append(("exact", c, target))
        return [(kind, checks.circuit_unitary(c), t) for kind, c, t in out]


WORKLOADS = {w.name: w for w in (RotationSearch, HadamardSearch, ScheduleWide,
                                 IdentitySuites)}
