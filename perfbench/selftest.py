"""Self-test of the benchmark's independent checks: each one accepts a true
output of globalspin and rejects the same output with one corruption.

Run from the root of a checkout (takes about ten seconds):

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise. It also confirms that the
metric names the benchmark prints are the ones BENCHMARK.json declares.
"""

import dataclasses
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import globalspin as gs  # noqa: E402
from workloads import preset_profiles  # noqa: E402


def rotation_cases():
    canon = checks.CANONICAL_ROTATION
    slots = tuple(k for k, lab in enumerate(canon) if lab == "EX")
    flipped = list(canon)
    flipped[2] = "primary+"  # one letter's sign flipped
    rng = np.random.default_rng(11)
    yield "rotation: paper's ordering", checks.check_rotation_solutions(
        [(canon, slots)], rng), True
    yield "rotation: one sign flipped", checks.check_rotation_solutions(
        [(canon, slots), (tuple(flipped), slots)], rng), False


def hadamard_cases():
    report = gs.synth.global_hadamard_search(preset_profiles(gs, 2), depth=8,
                                             starts=3, seed=0)
    yield "hadamard: search seed 0", checks.check_hadamard(report, 8), True
    shifted = list(report.parameters)
    shifted[1] += 1e-4  # one parameter shifted
    bad = dataclasses.replace(report, parameters=tuple(shifted))
    yield "hadamard: one parameter shifted", checks.check_hadamard(bad, 8), False


def schedule_cases():
    n = 4
    geom = gs.device.twin_wire_preset(n)
    reg = gs.spins.RegisterSpec(n)
    c, _ = gs.circuits.refocused_rotation_circuit(reg, "x", 1, 2, 1.1,
                                                  preset_profiles(gs, n))
    ops = checks.circuit_ops(c)
    targets = [(checks.evolve(checks.PAULI["x"] / 2.0, 1.1), (1,))]
    text = gs.schedule.schedule_to_text(gs.schedule.compile_schedule(c, geom))
    rng = np.random.default_rng(5)
    yield "schedule: compiled rotation", checks.check_schedule(
        text, ops, n, geom, targets, rng), True
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("F "))
    parts = lines[k].split()
    parts[2] = f"{float(parts[2]) + 1e-3:.6f}"  # one duration longer by 1 ps
    perturbed = "\n".join(lines[:k] + [" ".join(parts)] + lines[k + 1:]) + "\n"
    yield "schedule: one duration perturbed", checks.check_schedule(
        perturbed, ops, n, geom, targets, rng), False
    parts[2] = "nan"
    nan_text = "\n".join(lines[:k] + [" ".join(parts)] + lines[k + 1:]) + "\n"
    yield "schedule: a NaN duration", checks.check_schedule(
        nan_text, ops, n, geom, targets, rng), False


def identity_cases():
    reg = gs.spins.RegisterSpec(3)
    c, _ = gs.circuits.controlled_phase_circuit(reg, 0, 2, 0.4, {1: 0.9})
    u = checks.circuit_unitary(c)
    target = checks.evolve(checks.zz(3, 0, 2), math.pi)
    yield "identity: controlled phase", checks.check_identity("exact", u, target), True
    yield "identity: controlled phase with -1", checks.check_identity(
        "exact", -u, target), False


def metric_names_match() -> list:
    import run
    import spans
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [m["name"] for m in spec["per_layer"]]
    printed = list(run.per_layer_metrics(spans.Tracer(), 0.0, 0.0, 0.0))
    if declared != printed:
        return [f"per-layer names differ: only declared "
                f"{sorted(set(declared) - set(printed))}, only printed "
                f"{sorted(set(printed) - set(declared))}"]
    return []


def main() -> int:
    bad = []
    for group in (rotation_cases, hadamard_cases, schedule_cases, identity_cases):
        for name, errors, should_pass in group():
            ok = not errors
            verdict = "accepts" if ok else f"rejects: {errors[0]}"
            print(f"{name:40s} {verdict}")
            if ok != should_pass:
                bad.append(name)
    bad += metric_names_match()
    for b in bad:
        print(f"FAIL: {b}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
