"""End-to-end acceptance suite: one test per shipped claim, at the stated
tolerance and within the stated runtime. Run with -v for one line per
criterion."""

import hashlib
import math
import os
import time

import numpy as np

from globalspin import circuits as cir
from globalspin.circuits import (Equivalence, GateTarget, evaluate, join,
                                 refocused_rotation_circuit, su2_compile,
                                 verify_target)
from globalspin.device import (ANTIPARALLEL, PARALLEL, DeviceGeometry,
                               WireSpec, device_constants, error_budget,
                               field_profile, gate_time_estimate,
                               geometry_to_text, position_sensitivity,
                               pulse_duration, twin_wire_preset,
                               validate_currents)
from globalspin.linalg import hermitian_expm, kron, max_abs, phase_distance
from globalspin.schedule import (compile_schedule, schedule_from_text,
                                 schedule_to_text, simulate_schedule,
                                 unitary_digest)
from globalspin.spins import (AXES, GlobalField, RegisterSpec,
                              exchange_unitary, global_field_unitary,
                              spin_operator, xy_exchange_unitary)
from globalspin.synth import enumerate_sequences, global_hadamard_search

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

IDENTITY_TOL = 1e-12
COMPOSITE_TOL = 1e-10
BYSTANDER_TOL = 1e-10


def preset_profiles(n):
    g = twin_wire_preset(max(n, 2))
    par = device_constants(field_profile(g, PARALLEL))
    anti = device_constants(field_profile(g, ANTIPARALLEL))
    return {"z": par.ratios[:n], "x": anti.ratios[:n]}


def random_su2(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.sqrt(np.linalg.det(q).astype(complex))


def test_criterion_1_pulse_identity_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        reg = RegisterSpec(n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        bys = {k: float(rng.uniform(-3, 3))
               for k in range(n) if k not in (i, j)}
        a1, a2, a3 = (float(v) for v in rng.uniform(-3, 3, size=3))

        c, t = cir.swap_conjugation(reg, i, j, a1, a2, bys)
        rep = verify_target(c, t, IDENTITY_TOL)
        assert rep.passed, ("swap_conjugation", n, i, j, rep)

        c, t = cir.dressed_swap_phase_conjugation(reg, i, j, a1, a2, a3)
        assert max_abs(evaluate(c) - t.unitary) <= IDENTITY_TOL, \
            ("dressed_swap_literal_factor", n, i, j)

        c, t = cir.controlled_phase_circuit(reg, i, j, a1, bys)
        rep = verify_target(c, t, IDENTITY_TOL)
        assert rep.passed, ("controlled_phase_exact", n, i, j, rep)
        t_lz = cir.controlled_phase_local_z_target(reg, i, j)
        rep = verify_target(c, t_lz, COMPOSITE_TOL)
        assert rep.passed, ("controlled_phase_local_z", n, i, j, rep)

        c, t = cir.xy_x_rotation_circuit(reg, i, j, a1, a2, bys)
        rep = verify_target(c, t, IDENTITY_TOL)
        assert rep.passed, ("xy_x_rotation", n, i, j, rep)

        c, t = cir.xy_controlled_phase_circuit(reg, i, j, a1)
        rep = verify_target(c, t, COMPOSITE_TOL)
        assert rep.passed, ("xy_controlled_phase", n, i, j, rep)
        if n == 4:
            assert rep.bystander_deviation <= BYSTANDER_TOL
    assert time.perf_counter() - t0 < 60.0


def test_criterion_2_eleven_step_rotation_search(bundled):
    t0 = time.perf_counter()
    problem = bundled("z_difference_rotation")
    assert problem.verify_samples == 100
    assert problem.verify_spins == 4
    assert problem.tolerance == 1e-10
    result = enumerate_sequences(problem, seed=0)
    assert len(result.solutions) >= 1
    for sol in result.solutions:
        assert len(sol.letters) == 11
        assert len(sol.exchange_slots) == 4
        assert sol.max_distance <= 1e-10
    # The hand-built refocused ordering must be among the verified ones.
    canonical = ("merged+", "EX", "primary-", "EX", "pi_step+", "EX",
                 "pi_step-", "companion-", "pi_step+", "EX", "pi_step-")
    assert any(s.letters == canonical for s in result.solutions)
    # Over the literal four-symbol alphabet no word of seven same-sign-free
    # pulses can cancel its bystander action; the empty outcome doubles as
    # the non-existence certificate for that alphabet.
    literal = enumerate_sequences(bundled("z_difference_rotation_literal"),
                                  seed=0)
    assert literal.solutions == ()
    assert literal.stats.bystander_survivors == 0
    assert time.perf_counter() - t0 < 1800.0


def test_criterion_3_device_numbers():
    t0 = time.perf_counter()
    geom = twin_wire_preset(4)

    par = field_profile(geom, PARALLEL)
    anti = field_profile(geom, ANTIPARALLEL)
    for bx, _ in par.site_fields:
        assert abs(bx) <= 1e-15
    for _, bz in anti.site_fields:
        assert abs(bz) <= 1e-15
    for fp in (par, anti):
        c = device_constants(fp)
        db = c.amplitude_tesla * abs(c.ratios[0] - c.ratios[1])
        assert abs(db - 0.28e-3) <= 0.05 * 0.28e-3

    t_amp = pulse_duration(math.pi, 1.8e-3, 2.0)
    assert abs(t_amp - 10e-9) <= 0.02 * 10e-9
    dbz = device_constants(par).amplitude_tesla * (1.0 - device_constants(par).ratios[1])
    t_inc = pulse_duration(math.pi, dbz, 2.0)
    assert abs(t_inc - 64e-9) <= 0.02 * 64e-9
    # The field-duration product for a pi flip is convention-fixed.
    product_amp = round(1.8 * (t_amp * 1e9), 1)
    product_inc = round(dbz * 1e3 * (t_inc * 1e9), 1)
    assert product_amp == product_inc
    assert 17.9 <= product_amp <= 18.0

    checks = validate_currents(geom)
    assert all(w.ok for w in checks)
    assert abs(checks[0].limit_a - 0.88e-3) <= 1e-12
    hot = DeviceGeometry(tuple(
        WireSpec(w.center, w.cross_section, 1.0e-3,
                 w.critical_current_density) for w in geom.wires),
        geom.sites)
    assert not all(w.ok for w in validate_currents(hot))

    assert round(gate_time_estimate(21, t_inc) * 1e6, 2) == 1.34
    budget = error_budget(21, 1e-4)
    assert abs(budget - 4.76e-4) <= 2e-6
    tol_m = position_sensitivity(geom, budget)
    assert 0.5e-10 <= tol_m <= 2.0e-10
    assert time.perf_counter() - t0 < 10.0


def test_criterion_4_su2_compilation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    reg2 = RegisterSpec(2)
    reg4 = RegisterSpec(4)
    p2 = preset_profiles(2)
    p4 = preset_profiles(4)
    eye8 = np.eye(8)
    for _ in range(100):
        u = random_su2(rng)
        c = su2_compile(u, reg2, 0, 1, p2)
        assert c.field_count <= 21
        assert c.step_count <= 33
        assert phase_distance(evaluate(c), kron(u, np.eye(2))) <= 1e-8
        c4 = su2_compile(u, reg4, 0, 1, p4)
        rep = verify_target(c4, GateTarget(kron(u, eye8), frozenset((0,)),
                                           Equivalence.GLOBAL_PHASE), 1e-8)
        assert rep.passed, rep
    assert time.perf_counter() - t0 < 120.0


def test_criterion_5_schedule_round_trip_and_goldens():
    t0 = time.perf_counter()
    geom = twin_wire_preset(4)
    # The preset's first four sites are the geometry the goldens were made
    # on: the sha256 of its text when the preset file held only them.
    assert hashlib.sha256(geometry_to_text(geom).encode()).hexdigest() == (
        "be4781e87e2d42cef3b227507e6711575cf21df6352375a1ff77814abd510471")

    goldens = {}
    with open(os.path.join(FIXTURES, "golden_digests.txt")) as fh:
        for line in fh:
            name, digest = line.split()
            goldens[name] = digest

    cp, _ = cir.controlled_phase_circuit(RegisterSpec(2), 0, 1,
                                         -4.0 * math.pi)
    s = compile_schedule(cp, geom, geometry_name="twin_wire_zigzag")
    assert phase_distance(join(simulate_schedule(s)), evaluate(cp)) <= 1e-8
    text = schedule_to_text(s)
    with open(os.path.join(FIXTURES, "cp_tied.schedule.txt")) as fh:
        assert text == fh.read()
    replay = simulate_schedule(schedule_from_text(text, geom))
    assert unitary_digest(replay) == goldens["cp_tied"]

    rot, _ = refocused_rotation_circuit(RegisterSpec(4), "z", 0, 1,
                                        math.pi / 2.0, preset_profiles(4))
    s = compile_schedule(rot, geom, geometry_name="twin_wire_zigzag")
    assert phase_distance(join(simulate_schedule(s)), evaluate(rot)) <= 1e-8
    text = schedule_to_text(s)
    with open(os.path.join(FIXTURES, "rotation11.schedule.txt")) as fh:
        assert text == fh.read()
    replay = simulate_schedule(schedule_from_text(text, geom))
    assert unitary_digest(replay) == goldens["rotation11"]
    assert time.perf_counter() - t0 < 10.0


def test_criterion_6_closed_forms_match_oracle(bundled):
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    for k in range(500):
        n = int(rng.integers(2, 5))
        reg = RegisterSpec(n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        kind = k % 3
        if kind == 0:
            xi = float(rng.uniform(-7, 7))
            h = sum(spin_operator(reg, i, a) @ spin_operator(reg, j, a)
                    for a in AXES)
            d = max_abs(exchange_unitary(reg, i, j, xi) - hermitian_expm(h, xi))
        elif kind == 1:
            phi = float(rng.uniform(-7, 7))
            h = (spin_operator(reg, i, "x") @ spin_operator(reg, j, "x")
                 + spin_operator(reg, i, "y") @ spin_operator(reg, j, "y"))
            d = max_abs(xy_exchange_unitary(reg, i, j, phi)
                        - hermitian_expm(h, phi))
        else:
            axis = AXES[k % len(AXES)]
            angles = tuple(float(a) for a in rng.uniform(-4, 4, size=n))
            h = sum(a * spin_operator(reg, m, axis)
                    for m, a in enumerate(angles))
            d = max_abs(global_field_unitary(reg, GlobalField(axis, angles))
                        - hermitian_expm(h))
        assert d <= 1e-12, (kind, n, i, j, d)
    for problem in (bundled("planted_swap"), bundled("planted_cp")):
        pruned = enumerate_sequences(problem, prune=True, seed=0)
        full = enumerate_sequences(problem, prune=False, seed=0)
        assert pruned.solutions == full.solutions
        assert len(pruned.solutions) >= 1
    assert time.perf_counter() - t0 < 120.0


def test_criterion_7_bounded_hadamard_search_is_deterministic():
    # No construction is shipped for this one; the claim under test is that
    # the bounded search runs to completion and reports the same outcome on
    # every run. That it does find a six-block sequence is recorded by the
    # assertions below.
    profiles = preset_profiles(2)
    first = global_hadamard_search(profiles, depth=8, tolerance=1e-6,
                                   starts=3, seed=0)
    second = global_hadamard_search(profiles, depth=8, tolerance=1e-6,
                                    starts=3, seed=0)
    assert first.found == second.found
    assert first.structure == second.structure
    assert first.best_distance == second.best_distance
    assert first.parameters == second.parameters
    assert first.n_structures == second.n_structures > 0
    assert first.depth == 8
    assert first.found
    assert first.best_distance <= 1e-6
    assert len(first.structure) <= 8
