import itertools
import math
import tracemalloc

import numpy as np
import pytest

from globalspin import circuits as cir
from globalspin import cli, spins
from globalspin.circuits import (Circuit, Equivalence, Exchange, GateTarget,
                                 GlobalField, NotUnitary2x2,
                                 XYExchange, circuit_from_text,
                                 circuit_to_text, evaluate, euler_zxz,
                                 parallel_apply, su2_compile, verify_target)
from globalspin.linalg import kron, max_abs, phase_distance
from globalspin.spins import (IndexOutOfRange, RegisterSpec,
                             global_field_unitary, rotation_2x2)

import oracle

REG2 = RegisterSpec(2)
REG3 = RegisterSpec(3)
REG4 = RegisterSpec(4)

PROFILES2 = {"z": (1.0, 0.75), "x": (1.0, 0.5)}
PROFILES4 = {"z": (1.0, 0.75, 1.0, 0.75), "x": (1.0, 0.5, 1.0, 0.5)}


def random_su2(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.sqrt(np.linalg.det(q).astype(complex))


def bystanders(rng, n, i, j):
    return {k: float(rng.uniform(-3, 3)) for k in range(n) if k not in (i, j)}


def test_evaluate_applies_first_op_first():
    c = Circuit(REG2, (GlobalField("z", (0.7, 0.0)),
                       GlobalField("x", (1.1, 0.0))))
    want = kron(rotation_2x2("x", 1.1) @ rotation_2x2("z", 0.7), np.eye(2))
    assert max_abs(evaluate(c) - want) < 1e-15


def test_circuit_counts():
    c = Circuit(REG2, (Exchange(0, 1, math.pi), GlobalField("z", (0.1, 0.2)),
                       XYExchange(0, 1, 0.3)))
    assert c.step_count == 3
    assert c.exchange_count == 2
    assert c.field_count == 1


def test_swap_conjugation_exact():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        reg = RegisterSpec(n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        c, t = cir.swap_conjugation(reg, i, j, float(rng.uniform(-3, 3)),
                                    float(rng.uniform(-3, 3)),
                                    bystanders(rng, n, i, j))
        rep = verify_target(c, t, 1e-12)
        assert rep.passed, rep
        assert rep.equivalence is Equivalence.EXACT


def test_dressed_swap_literal_factor_is_plus_i():
    # Compared entrywise: the scalar i is part of the identity.
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        reg = RegisterSpec(n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        c, t = cir.dressed_swap_phase_conjugation(
            reg, i, j, float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
            float(rng.uniform(-3, 3)))
        assert max_abs(evaluate(c) - t.unitary) < 1e-12


def test_dressed_swap_factor_flips_with_exchange_sign():
    # Same construction with exchange +pi instead of -pi lands on -i; the
    # entrywise comparison must be able to see the difference.
    c, t = cir.dressed_swap_phase_conjugation(REG2, 0, 1, 0.4, 0.9, -1.2)
    expected = t.unitary
    flipped = []
    for op in c.ops:
        if isinstance(op, Exchange):
            flipped.append(Exchange(op.i, op.j, -op.xi))
        else:
            flipped.append(op)
    got = evaluate(Circuit(REG2, tuple(flipped)))
    assert max_abs(got - expected) > 1.0
    assert max_abs(got + expected) < 1e-12


def test_controlled_phase_exact_for_any_dressing_angle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        reg = RegisterSpec(n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        c, t = cir.controlled_phase_circuit(reg, i, j,
                                            float(rng.uniform(-3, 3)),
                                            bystanders(rng, n, i, j))
        rep = verify_target(c, t, 1e-12)
        assert rep.passed, rep


def test_controlled_phase_local_z_target_structure():
    t = cir.controlled_phase_local_z_target(REG2, 0, 1)
    assert max_abs(t.unitary - np.diag([1, 1, 1, -1]).astype(complex)) == 0.0
    assert t.equivalence is Equivalence.LOCAL_Z


def test_controlled_phase_matches_local_z_target():
    # Regression: the aligned-distance path must sit at machine precision
    # for an exact circuit, not at the 1e-8 floor of the naive formula.
    c, _ = cir.controlled_phase_circuit(REG3, 0, 2, 0.7, {1: 0.4})
    t = cir.controlled_phase_local_z_target(REG3, 0, 2)
    rep = verify_target(c, t, 1e-9)
    assert rep.passed
    assert rep.distance < 1e-12


def test_local_z_verification_absorbs_pair_z_only():
    c, _ = cir.controlled_phase_circuit(REG3, 0, 2, 0.7, {1: 0.4})
    t = cir.controlled_phase_local_z_target(REG3, 0, 2)
    dressed = Circuit(REG3, c.ops + (GlobalField("z", (0.9, 0.0, -1.3)),))
    assert verify_target(dressed, t, 1e-9).passed
    tilted = Circuit(REG3, c.ops + (GlobalField("x", (0.03, 0.0, 0.0)),))
    rep = verify_target(tilted, t, 1e-9)
    assert not rep.passed
    assert rep.distance > 1e-3


def test_local_z_needs_two_acted_spins():
    t = GateTarget(np.eye(8), frozenset((0,)), Equivalence.LOCAL_Z)
    with pytest.raises(ValueError):
        verify_target(Circuit(REG3, ()), t, 1e-9)


def test_verify_target_reports_bystander_leakage():
    # A pulse on a spin outside acted_spins must show up as leakage even
    # when the acted-pair action is perfect.
    c, t = cir.controlled_phase_circuit(REG3, 0, 1, 0.0)
    leaky = Circuit(REG3, c.ops + (GlobalField("x", (0.0, 0.0, 0.2)),))
    rep = verify_target(leaky, t, 1e-10)
    assert rep.bystander_deviation > 1e-3
    assert not rep.passed


def test_verify_target_reports_a_nan_draw(monkeypatch):
    # A NaN in one draw's unitary is that draw's distance and bystander
    # deviation, whatever the order of the values folded, and fails the
    # report; the other draws keep their values.
    angles = np.array([0.1, 0.2, 0.3, 0.4])
    c, t = cir.controlled_phase_circuit(REG3, 0, 1, angles, {2: angles})
    clean = verify_target(c, t, 1e-10)
    play = cir.evaluate

    def nan_draw(circuit):
        u = play(circuit)
        u[2, 5, 6] = math.nan  # rows 101, columns 110: spin 2 flips
        return u

    monkeypatch.setattr(cir, "evaluate", nan_draw)
    rep = verify_target(c, t, 1e-10)
    assert clean.passed and not rep.passed
    for got, want in ((rep.distance, clean.distance),
                      (rep.bystander_deviation, clean.bystander_deviation)):
        assert math.isnan(got[2])
        assert np.array_equal(np.delete(got, 2), np.delete(want, 2))


def test_verify_target_broadcasts_only_a_shared_target():
    # One matrix is shared by every draw; a stack must have one entry per
    # draw, and a circuit without draws takes no stack at all.
    angles = np.array([0.1, 0.2, 0.3])
    c, t = cir.controlled_phase_circuit(REG3, 0, 1, angles)
    assert t.unitary.shape == (8, 8) and verify_target(c, t, 1e-10).passed
    for target, circuit in ((np.stack([t.unitary] * 2), c),
                            (np.stack([t.unitary] * 3), Circuit(REG3, ()))):
        with pytest.raises(cir.DimensionMismatch):
            verify_target(circuit, GateTarget(target, t.acted_spins,
                                              t.equivalence), 1e-10)


def test_verify_target_dimension_mismatch():
    c, _ = cir.controlled_phase_circuit(REG3, 0, 1, 0.0)
    t = GateTarget(np.eye(4), frozenset((0, 1)), Equivalence.EXACT)
    with pytest.raises(cir.DimensionMismatch):
        verify_target(c, t, 1e-10)


def test_exact_verification_holds_no_difference_stack():
    # The EXACT distance subtracts the target into the evaluated stack:
    # a (15, 64, 64) difference beside it was 983 KB more, and pushed
    # verify's heap past the allocator's trim threshold on every call.
    # verify's parallel check: the controlled phase on three pairs for 15
    # template angles, against its joined target.
    angles = np.random.default_rng(39).uniform(-3, 3, 15)
    template, pair = cir.controlled_phase_circuit(REG2, 0, 1, angles)
    pairs = ((0, 1), (2, 3), (4, 5))
    c = parallel_apply(template, pairs, RegisterSpec(6))
    t = GateTarget(cir.join(tuple((p, pair.unitary) for p in pairs)),
                   frozenset(range(6)), Equivalence.EXACT)
    stack_bytes = 15 * 64 * 64 * 16
    want = cir.max_abs_per_draw(evaluate(c) - t.unitary)
    tracemalloc.start()
    try:
        rep = verify_target(c, t, 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * stack_bytes, peak / stack_bytes
    assert rep.passed and np.array_equal(rep.distance, want)


def test_verify_target_writes_none_of_its_inputs():
    # The in-place subtraction writes only evaluate's fresh stack: a shared
    # target, a per-draw stack and a read-only target keep their bytes, a
    # second call reports the same, and an empty circuit is the identity.
    angles = np.array([0.1, -0.7, 2.3])
    c, t = cir.controlled_phase_circuit(REG3, 0, 2, angles, {1: angles})
    shared = t.unitary.copy()
    frozen = t.unitary.copy()
    frozen.flags.writeable = False
    for target in (shared, np.stack([shared] * 3), frozen):
        kept = target.copy()
        gt = GateTarget(target, t.acted_spins, Equivalence.EXACT)
        first, second = verify_target(c, gt, 1e-10), verify_target(c, gt,
                                                                   1e-10)
        assert np.array_equal(target, kept)
        assert first.passed and np.array_equal(first.distance,
                                                second.distance)
        assert np.array_equal(first.bystander_deviation,
                              second.bystander_deviation)
    rep = verify_target(Circuit(REG3, ()), GateTarget(
        np.eye(8), frozenset(range(3)), Equivalence.EXACT), 1e-15)
    assert rep.passed and rep.distance == 0.0


def test_bystander_check_reads_the_stack_before_the_subtraction():
    # Each draw's bystander deviation is the commutators of its evaluated
    # unitary, not of that unitary minus its target. The controlled phase's
    # target commutes with its bystanders' S^z and S^x, so the draws would
    # agree either way; a dense target that does not pins the order.
    rng = np.random.default_rng(40)
    for n in (3, 4):
        reg = RegisterSpec(n)
        i = rng.integers(0, n, 40)
        j = (i + rng.integers(1, n, 40)) % n
        angles = rng.uniform(-3, 3, 40)
        c, t = cir.controlled_phase_circuit(reg, i, j, angles,
                                            rng.uniform(-3, 3, (40, n - 2)))
        u = evaluate(c)
        want = np.zeros(40)
        for k in range(n):
            by = (i != k) & (j != k)
            want[by] = np.maximum(want[by], cir._commutator_deviation(
                u[by], reg, k))
        dense = rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape)
        for target in (t.unitary, dense):
            rep = verify_target(c, GateTarget(target, t.acted_spins,
                                              Equivalence.EXACT), 1e-10)
            assert np.array_equal(rep.bystander_deviation, want), n


def test_xy_x_rotation_identity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        reg = RegisterSpec(n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        c, t = cir.xy_x_rotation_circuit(reg, i, j, float(rng.uniform(-3, 3)),
                                         float(rng.uniform(-3, 3)),
                                         bystanders(rng, n, i, j))
        rep = verify_target(c, t, 1e-12)
        assert rep.passed, rep


def test_xy_x_rotation_literal_overall_minus_one():
    c, t = cir.xy_x_rotation_circuit(REG2, 0, 1, 0.8, -0.3)
    assert max_abs(evaluate(c) + t.unitary) < 1e-13


def test_xy_controlled_phase_identity():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        reg = RegisterSpec(n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        c, t = cir.xy_controlled_phase_circuit(reg, i, j,
                                               float(rng.uniform(-3, 3)))
        rep = verify_target(c, t, 1e-12)
        assert rep.passed, rep


def test_xy_controlled_phase_literal_overall_minus_one():
    c, t = cir.xy_controlled_phase_circuit(REG2, 0, 1, 0.9)
    assert max_abs(evaluate(c) + t.unitary) < 1e-13


def test_refocused_rotation_shape():
    c, t = cir.refocused_rotation_circuit(REG4, "z", 0, 1, 1.234, PROFILES4)
    assert c.step_count == 11
    exchanges = [op for op in c.ops if isinstance(op, Exchange)]
    assert len(exchanges) == 4
    assert all(op.xi == math.pi for op in exchanges)
    assert c.field_count == 7
    assert t.equivalence is Equivalence.GLOBAL_PHASE


def test_refocused_rotation_pulses_follow_profiles():
    # Device constraint: every field pulse is a scalar multiple of the
    # profile for its axis, otherwise the hardware cannot play it.
    c, _ = cir.refocused_rotation_circuit(REG4, "x", 0, 1, -0.77, PROFILES4)
    for op in c.ops:
        if not isinstance(op, GlobalField):
            continue
        prof = np.array(PROFILES4[op.axis])
        ang = np.array(op.angles)
        scale = ang @ prof / (prof @ prof)
        assert max_abs(ang - scale * prof) < 1e-12


def test_refocused_rotation_identity_both_axes():
    rng = np.random.default_rng(5)
    for axis in ("z", "x"):
        for _ in range(10):
            angle = float(rng.uniform(-6, 6))
            c, t = cir.refocused_rotation_circuit(REG4, axis, 0, 1, angle,
                                                  PROFILES4)
            rep = verify_target(c, t, 1e-12)
            assert rep.passed, (axis, angle, rep)


def test_refocused_rotation_other_pair_positions():
    c, t = cir.refocused_rotation_circuit(REG4, "z", 2, 3, 0.9, PROFILES4)
    assert verify_target(c, t, 1e-12).passed


def test_refocused_rotation_input_checks():
    with pytest.raises(ValueError):
        cir.refocused_rotation_circuit(REG4, "y", 0, 1, 1.0, PROFILES4)
    flat = {"z": (1.0, 1.0, 1.0, 1.0), "x": (1.0, 0.5, 1.0, 0.5)}
    with pytest.raises(ValueError):
        cir.refocused_rotation_circuit(REG4, "z", 0, 1, 1.0, flat)


def test_parallel_apply_equals_tensor_product():
    rng = np.random.default_rng(6)
    for _ in range(5):
        angle = float(rng.uniform(-3, 3))
        template, _ = cir.controlled_phase_circuit(REG2, 0, 1, angle)
        pair_gate = evaluate(template)
        c = parallel_apply(template, ((0, 1), (2, 3)), REG4)
        assert max_abs(evaluate(c) - kron(pair_gate, pair_gate)) < 1e-12


def random_linked_circuit(rng, n, n_ops, n_links=3):
    """Fields on every axis (about a third of the angles zero) and
    exchanges of both kinds over a few fixed pairs, so the register falls
    into several linked groups."""
    links = [tuple(int(s) for s in rng.choice(n, 2, replace=False))
             for _ in range(n_links)]
    ops = []
    for _ in range(n_ops):
        kind = int(rng.integers(4))
        if kind < 2:
            angles = rng.uniform(-3, 3, n) * (rng.random(n) < 0.7)
            ops.append(GlobalField(str(rng.choice(["x", "y", "z"])),
                                   tuple(angles)))
        else:
            i, j = links[int(rng.integers(n_links))]
            op = Exchange if kind == 2 else XYExchange
            ops.append(op(i, j, float(rng.uniform(-4, 4))))
    return Circuit(RegisterSpec(n), ops)


def test_grouped_evaluate_matches_full_register_loop():
    # evaluate plays linked groups on their own registers from
    # FACTOR_MIN_SPINS up; the full-register loop is the reference.
    rng = np.random.default_rng(13)
    cases = [random_linked_circuit(rng, n, 12)
             for n in (7, 7, 8, 8, 9, 10, 11) for _ in range(2)]
    # At 12 spins, z fields only: an x or y field needs a scratch unitary.
    z = GlobalField("z", tuple(rng.uniform(-3, 3, 12)))
    cases.append(Circuit(RegisterSpec(12), (z, Exchange(3, 7, 0.8),
                                            XYExchange(7, 10, -1.1), z)))
    cp, _ = cir.controlled_phase_circuit(REG2, 0, 1, 0.4)
    xy, _ = cir.xy_controlled_phase_circuit(REG2, 0, 1, 0.9)
    pairs = ((0, 1), (2, 3), (5, 4), (6, 7))
    cases += [parallel_apply(t, pairs, RegisterSpec(8)) for t in (cp, xy)]
    for c in cases:
        assert len(cir._exchange_groups(c.register.n_spins, c.ops)) > 1
        u = evaluate(c)
        u -= oracle.play(c.register, c.ops)
        assert max_abs(u) <= 1e-13
    # No ops: every spin is its own group, and the product is exact.
    reg9 = RegisterSpec(9)
    assert np.array_equal(evaluate(Circuit(reg9, ())),
                          np.eye(reg9.dim, dtype=complex))
    # One group spanning the register, and a register below the crossover,
    # run the loop itself.
    chain = random_linked_circuit(rng, 7, 12)
    chain = Circuit(chain.register, chain.ops + tuple(
        Exchange(k, k + 1, 0.3) for k in range(6)))
    narrow = random_linked_circuit(rng, cir.FACTOR_MIN_SPINS - 1, 12)
    for c in (chain, narrow):
        assert np.array_equal(evaluate(c), oracle.play(c.register, c.ops))


def one_draw(op, b):
    """Draw b of an op that may hold per-draw angles, as a plain op."""
    if isinstance(op, GlobalField):
        a = op.angles
        return GlobalField(op.axis, tuple(a[b]) if isinstance(
            a, np.ndarray) else a)
    angle = op.xi if isinstance(op, Exchange) else op.phi
    return type(op)(op.i, op.j, float(angle[b]) if np.ndim(angle) else angle)


PAIR_BUILDERS = [
    (cir.swap_conjugation, 2, True),
    (cir.dressed_swap_phase_conjugation, 3, False),
    (cir.controlled_phase_circuit, 1, True),
    (cir.xy_x_rotation_circuit, 2, True),
    (cir.xy_controlled_phase_circuit, 1, False),
]


@pytest.mark.parametrize("build, n_angles, bystanders", PAIR_BUILDERS)
def test_batched_builders_equal_their_draws_built_alone(build, n_angles,
                                                        bystanders):
    # Given (B,) angle columns, a builder's circuit and target hold, draw by
    # draw, the circuit and target its floats give, and the circuit
    # evaluates to their unitaries bit for bit. A target every draw shares
    # is one matrix. These are the verify command's builders, and each
    # returns a Circuit and a GateTarget for floats and for columns alike.
    assert ({f.__name__ for f, _, _ in PAIR_BUILDERS}
            == {b for _, b, _, _ in cli._PAIR_SUITES.values()})
    rng = np.random.default_rng(5)
    b = 5
    for n in (2, 3, 4):
        reg = RegisterSpec(n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        cols = list(rng.uniform(-3, 3, size=(n_angles, b)))
        spins = [k for k in range(n) if k not in (i, j)]
        bys = dict(zip(spins, rng.uniform(-3, 3, size=(len(spins), b))))
        c, t = build(reg, i, j, *cols, *([bys] if bystanders else []))
        assert isinstance(c, Circuit) and isinstance(t, GateTarget)
        assert c.draws == b
        u = evaluate(c)
        for k in range(b):
            args = [float(col[k]) for col in cols]
            if bystanders:
                args.append({s: float(v[k]) for s, v in bys.items()})
            ck, tk = build(reg, i, j, *args)
            assert isinstance(ck, Circuit) and isinstance(tk, GateTarget)
            assert ck.draws is None
            assert tuple(one_draw(op, k) for op in c.ops) == ck.ops
            assert np.array_equal(u[k], evaluate(ck))
            assert np.array_equal(np.broadcast_to(t.unitary, u.shape)[k],
                                  tk.unitary)
            rep, rep_k = verify_target(c, t, 1e-10), verify_target(ck, tk,
                                                                   1e-10)
            assert rep.distance[k] == rep_k.distance
            assert rep.bystander_deviation[k] == rep_k.bystander_deviation


# What each builder's target code computes from the builder's arguments,
# written out so that the target a builder defers can be checked against it.
TARGET_CODE = {
    "swap_conjugation": lambda reg, i, j, a_i, a_j, bys=None:
        global_field_unitary(reg, GlobalField(
            "z", cir._angle_vector(reg, i, j, a_j, a_i, bys))),
    "dressed_swap_phase_conjugation": lambda reg, i, j, angle, z_i, z_j:
        1j * global_field_unitary(reg, GlobalField(
            "z", cir._angle_vector(reg, i, j, -z_j, -z_i))),
    "controlled_phase_circuit": lambda reg, i, j, angle=0.0, bys=None:
        cir._diag_zz_phase(reg, i, j, math.pi),
    "xy_x_rotation_circuit": lambda reg, i, j, a_i, a_j, bys=None:
        cir._single_spin_rotation(reg, "x", i, -2.0 * a_i)(),
    "xy_controlled_phase_circuit": lambda reg, i, j, phi:
        cir._diag_zz_phase(reg, i, j, -2.0 * phi),
    "refocused_rotation_circuit": lambda reg, axis, i, j, angle, profiles:
        cir._single_spin_rotation(reg, axis, i, angle)(),
}


def builder_calls(rng, n, b=5):
    """(builder, arguments) for each builder that returns a target, on a
    register of n: the pair builders on floats and on (b,) angle columns,
    bystander angles included, and the rotation, which takes floats."""
    reg = RegisterSpec(n)
    i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
    spins = [k for k in range(n) if k not in (i, j)]
    for shape in (None, (b,)):
        def angle():
            a = rng.uniform(-3, 3, size=shape)
            return a if shape else float(a)
        for build, n_angles, bystanders in PAIR_BUILDERS:
            args = [reg, i, j] + [angle() for _ in range(n_angles)]
            yield build, args + ([{k: angle() for k in spins}]
                                 if bystanders else [])
    profiles = {a: tuple(rng.uniform(0.5, 1.0, n)) for a in "zx"}
    yield cir.refocused_rotation_circuit, [reg, str(rng.choice(["x", "z"])),
                                           i, j, float(rng.uniform(-3, 3)),
                                           profiles]


def test_deferred_targets_equal_their_target_code():
    # Read after the call, each builder's target holds the bits that its
    # target code computes from the same arguments.
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        for build, args in builder_calls(rng, n):
            _, t = build(*args)
            want = TARGET_CODE[build.__name__](*args)
            assert np.array_equal(t.unitary, want), (build.__name__, n)


def test_deferred_targets_keep_the_angles_of_the_call():
    # A caller that changes its angle columns after the call does not
    # change the target: the builder froze what the target is built from.
    rng = np.random.default_rng(18)
    for build, args in builder_calls(rng, 4):
        columns = [a for arg in args
                   for a in (arg.values() if isinstance(arg, dict) else [arg])
                   if isinstance(a, np.ndarray)]
        want = TARGET_CODE[build.__name__](*args)
        _, t = build(*args)
        for a in columns:
            a += 1.0
        assert np.array_equal(t.unitary, want), build.__name__


def test_rotation_builds_no_dense_target_until_it_is_read():
    # On 12 spins the target is a 4096 x 4096 complex matrix: built at the
    # call, the builder traced 537 MB. Deferred, the call traces the ops.
    profiles = {"z": (1.0, 0.75) * 6, "x": (1.0, 0.5) * 6}
    tracemalloc.start()
    try:
        c, t = cir.refocused_rotation_circuit(RegisterSpec(12), "x", 4, 5,
                                              1.1, profiles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert c.step_count == 11 and t.acted_spins == frozenset((4,))


def test_builders_raise_input_errors_at_the_call():
    # No input error waits for the target's first read: the call raises it.
    p4 = {"z": (1.0, 0.75, 1.0, 0.75), "x": (1.0, 0.5, 1.0, 0.5)}
    bad = [
        (ValueError, cir.swap_conjugation, (REG3, 0, 1, 0.3, 0.4, {1: 0.2}),
         "^spin 1 is not a bystander here$"),
        (ValueError, cir.swap_conjugation, (REG3, 0, 1, math.nan, 0.4)),
        (IndexError, cir.swap_conjugation, (REG3, 0, 3, 0.3, 0.4)),
        (ValueError, cir.dressed_swap_phase_conjugation,
         (REG3, 0, 1, np.zeros(3), np.zeros(4), 0.1)),
        (ValueError, cir.dressed_swap_phase_conjugation,
         (REG3, 1, 1, 0.2, 0.1, 0.1)),
        (ValueError, cir.controlled_phase_circuit, (REG3, 2, 2, 0.3)),
        (ValueError, cir.controlled_phase_circuit,
         (REG3, 0, 1, 0.3, {2: math.inf})),
        (IndexOutOfRange, cir.controlled_phase_circuit, (REG3, -1, 1, 0.3)),
        (ValueError, cir.xy_x_rotation_circuit,
         (REG3, 0, 1, np.array([0.1, math.nan]), 0.2)),
        (ValueError, cir.xy_x_rotation_circuit,
         (REG3, 0, 1, 0.1, 0.2, {0: 1.0})),
        (ValueError, cir.xy_controlled_phase_circuit, (REG3, 0, 1, math.inf)),
        (ValueError, cir.xy_controlled_phase_circuit, (REG3, 0, 0, 0.5)),
        (IndexOutOfRange, cir.xy_x_rotation_circuit, (REG3, -1, 1, 0.1, 0.2)),
        # Per-draw pairs: spin 3 of 3, a pair that coincides, floats, and
        # bystander angles of the wrong shape.
        (IndexOutOfRange, cir.xy_x_rotation_circuit,
         (REG3, np.array([0, 3]), np.array([1, 1]), 0.1, 0.2)),
        (ValueError, cir.controlled_phase_circuit,
         (REG3, np.array([0, 1]), np.array([1, 1]), 0.3)),
        (ValueError, cir.xy_controlled_phase_circuit,
         (REG3, np.array([0.0, 1.0]), np.array([1, 2]), 0.3)),
        (ValueError, cir.swap_conjugation,
         (REG3, np.array([0, 1]), np.array([1, 2]), 0.3, 0.4, np.zeros(2))),
        (ValueError, cir.refocused_rotation_circuit,
         (REG4, "y", 0, 1, 1.0, p4)),
        (ValueError, cir.refocused_rotation_circuit,
         (REG4, "z", 0, 2, 1.0, p4)),
        (ValueError, cir.refocused_rotation_circuit,
         (REG4, "z", 0, 1, 1.0, {"z": (1.0, 0.5), "x": (1.0, 0.5)})),
        (ValueError, cir.refocused_rotation_circuit,
         (REG4, "z", 0, 1, math.nan, p4)),
        (IndexError, cir.refocused_rotation_circuit,
         (REG4, "x", 0, 4, 1.0, p4)),
        # The pair is checked before the profiles are read at it.
        (IndexOutOfRange, cir.refocused_rotation_circuit,
         (REG3, "z", 0, 5, 1.0, p4)),
        (ValueError, cir.refocused_rotation_circuit,
         (REG3, "z", 0, 0, 1.0, p4), "^spin indices coincide: 0$"),
        # Bystander maps: a key outside the register (-1 is not spin 2) or
        # not an integer, and a map or array where the pair wants the other.
        (IndexOutOfRange, cir.swap_conjugation,
         (REG3, 0, 2, 0.1, 0.2, {-1: 0.7})),
        (IndexOutOfRange, cir.swap_conjugation,
         (REG3, 0, 2, 0.1, 0.2, {5: 0.1})),
        (ValueError, cir.swap_conjugation, (REG3, 0, 1, 0.1, 0.2, {2.0: 0.5}),
         "^spin 2.0 is not an integer$"),
        (ValueError, cir.swap_conjugation, (REG3, 0, 2, 0.1, 0.2, [0.7]),
         "^bystander angles as list, not a map$"),
        (ValueError, cir.controlled_phase_circuit,
         (REG3, 0, 1, 0.3, np.array([0.7])), "^bystander angles as ndarray"),
        (ValueError, cir.xy_x_rotation_circuit,
         (REG3, np.array([0, 1]), np.array([2, 2]), 0.1, 0.2, {1: 0.3}),
         "^bystander angles as dict, not an array$"),
    ]
    for error, build, args, *match in bad:
        with pytest.raises(error, match=match[0] if match else None):
            build(*args)


def test_targets_are_built_once_on_first_read(monkeypatch):
    # Every builder's target comes from global_field_unitary or
    # _diag_zz_phase. The call builds none, the first read builds it, and
    # every later read returns that same array.
    built = []
    for name in ("global_field_unitary", "_diag_zz_phase"):
        monkeypatch.setattr(cir, name, lambda *a, f=getattr(cir, name):
                            built.append(f) or f(*a))
    rng = np.random.default_rng(19)
    for build, args in builder_calls(rng, 3):
        built.clear()
        _, t = build(*args)
        assert built == [], build.__name__
        u = t.unitary
        assert len(built) == 1 and t.unitary is u and len(built) == 1
    u = np.eye(4)
    assert GateTarget(u, frozenset(), Equivalence.EXACT).unitary is u


def test_parallel_apply_keeps_the_template_draws():
    angles = np.array([0.3, -1.2, 2.5])
    template, _ = cir.controlled_phase_circuit(REG2, 0, 1, angles)
    c = parallel_apply(template, ((0, 1), (3, 2)), REG4)
    assert c.draws == 3
    u = evaluate(c)
    for k, a in enumerate(angles):
        tk, _ = cir.controlled_phase_circuit(REG2, 0, 1, float(a))
        ck = parallel_apply(tk, ((0, 1), (3, 2)), REG4)
        assert tuple(one_draw(op, k) for op in c.ops) == ck.ops
        assert np.array_equal(u[k], evaluate(ck))


def test_grouped_evaluate_takes_the_draw_axis():
    # From FACTOR_MIN_SPINS up a circuit of B draws is played group by
    # group too; each draw equals the same circuit built with its floats.
    rng = np.random.default_rng(31)
    b = 4
    for n in (cir.FACTOR_MIN_SPINS, 8):
        ops = [GlobalField("x", rng.uniform(-3, 3, size=(b, n))),
               Exchange(0, 2, rng.uniform(-3, 3, size=b)),
               GlobalField("z", tuple(rng.uniform(-3, 3, size=n))),
               XYExchange(3, n - 1, rng.uniform(-3, 3, size=b)),
               Exchange(1, 4, 0.7),
               GlobalField("y", rng.uniform(-3, 3, size=(b, n)))]
        c = Circuit(RegisterSpec(n), ops)
        assert len(cir._exchange_groups(n, c.ops)) > 1
        u = evaluate(c)
        assert u.shape == (b, 2 ** n, 2 ** n)
        for k in range(b):
            ck = Circuit(c.register, tuple(one_draw(op, k) for op in ops))
            assert np.array_equal(u[k], evaluate(ck))


def lone_spin_cases(rng):
    """Circuits of 7 to 10 spins with no, one and many 1-spin groups, with
    and without draws: pairs that cover every spin, pairs that leave one
    out, random linked circuits, a rotation, an all-exchange circuit, and x
    and y fields that leave one lone spin at rest while the others turn."""
    cp, _ = cir.controlled_phase_circuit(REG2, 0, 1, 0.4)
    xy, _ = cir.xy_controlled_phase_circuit(REG2, 0, 1, 0.9)
    cp3, _ = cir.controlled_phase_circuit(REG2, 0, 1, rng.uniform(-3, 3, 3))
    cases = [parallel_apply(cp, ((0, 1), (2, 3), (4, 5), (6, 7)),
                            RegisterSpec(8)),
             parallel_apply(xy, ((0, 1), (2, 3), (5, 4)), RegisterSpec(7)),
             parallel_apply(cp3, ((0, 1), (3, 2), (4, 6)), RegisterSpec(8))]
    cases += [random_linked_circuit(rng, n, 14, n_links)
              for n in (7, 9, 10) for n_links in (1, 3)]
    cases.append(cir.refocused_rotation_circuit(
        RegisterSpec(10), "x", 3, 4, 1.3,
        {"z": tuple(rng.uniform(0.5, 1.0, 10)),
         "x": tuple(rng.uniform(0.5, 1.0, 10))})[0])
    cases.append(Circuit(RegisterSpec(8), (Exchange(0, 1, 0.7),
                                           XYExchange(2, 5, -1.2))))
    b, n = 4, 9
    rest = rng.uniform(-3, 3, size=(b, n))
    rest[:, 6] = 0.0  # spin 6 at rest in every draw, spin 7 in one
    rest[1, 7] = 0.0
    still = np.array(rest[0])
    still[[5, 8]] = 0.0
    cases.append(Circuit(RegisterSpec(n), (
        GlobalField("x", rest), Exchange(0, 2, rng.uniform(-3, 3, size=b)),
        GlobalField("z", tuple(rng.uniform(-3, 3, size=n))),
        GlobalField("y", tuple(still)), XYExchange(1, 3, 0.4),
        GlobalField("y", rng.uniform(-3, 3, size=(b, n))))))
    cases.append(Circuit(RegisterSpec(n), (GlobalField("x", tuple(still)),
                                           Exchange(0, 1, 0.3))))
    return cases


def test_lone_spins_play_in_one_batch_as_each_alone():
    # factor plays every 1-spin group as one batch; the oracle plays each
    # group alone. A batch also plays a site at rest that a lone play
    # skips, so a zero there may differ in sign: the check is on values.
    rng = np.random.default_rng(41)
    lone_counts = {None: set(), 3: set(), 4: set()}  # by draw count
    for c in lone_spin_cases(rng):
        n = c.register.n_spins
        want = oracle.factor(c)
        got = cir.factor(c)
        assert [g for g, _ in got] == [g for g, _ in want]
        lone_counts[c.draws].add(sum(len(g) == 1 for g, _ in got))
        for (_, a), (_, b) in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)
        # On a coarser partition, as the replay check asks for.
        groups = cir._exchange_groups(n, c.ops + (Exchange(n - 2, n - 1,
                                                           0.0),))
        got = cir.factor(c, groups)
        for (g, a), (h, b) in zip(got, oracle.factor(c, groups), strict=True):
            assert g == h and np.array_equal(a, b)
    assert {0, 1} < lone_counts[None] and max(lone_counts[None]) >= 8
    assert min(lone_counts[3]) >= 2 and min(lone_counts[4]) >= 5


def test_lone_spins_take_one_kernel_pass_per_field(monkeypatch):
    rng = np.random.default_rng(42)
    cp3, _ = cir.controlled_phase_circuit(REG2, 0, 1, rng.uniform(-3, 3, 3))
    cases = [c for c in lone_spin_cases(rng) if c.register.n_spins == 10]
    cases.append(parallel_apply(cp3, ((0, 1), (3, 2)), RegisterSpec(10)))
    one_spin = []
    real = cir.apply_op

    def counting(u, reg, op):
        one_spin.append(reg.n_spins == 1)
        return real(u, reg, op)

    monkeypatch.setattr(cir, "apply_op", counting)
    for c in cases:
        one_spin.clear()
        parts = cir.factor(c)
        assert sum(len(g) == 1 for g, _ in parts) >= 1
        assert sum(one_spin) == c.field_count
    assert len(cases) == 4 and cases[-1].draws == 3


def per_draw_layouts(rng, n):
    """(B,) arrays of pairs: on 2 to 4 spins every layout, in shuffled
    order with (i, j) next to (j, i); on 8 spins four spins' pairs, which
    leave the other four spins lone."""
    spins = range(n) if n <= 4 else (1, 2, 4, 6)
    pairs = list(itertools.combinations(spins, 2))
    pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    return np.array([p for a, b in pairs for p in ((a, b), (b, a))]).T


@pytest.mark.parametrize("suite", oracle.PAIR_SUITES)
def test_pair_builders_take_a_pair_per_draw(suite):
    # Every builder on (B,) pair arrays that hold all 20 layouts of 2 to 4
    # spins: each draw's unitary and target are those of the float-built
    # circuit of its layout, and its acted spins too. The xy controlled
    # phase's y field rests a site in some layouts only. On 8 spins the
    # circuit plays group by group: the exchanges link every spin a draw
    # pairs, and each draw equals its float-built circuit played on those
    # groups.
    build, n_angles, takes_bystanders = oracle.PAIR_SUITES[suite]
    rng = np.random.default_rng(43)
    for n in (2, 3, 4, 8):
        reg = RegisterSpec(n)
        i, j = per_draw_layouts(rng, n)
        args = list(rng.uniform(-3, 3, size=(n_angles, len(i))))
        if takes_bystanders:
            args.append(rng.uniform(-3, 3, size=(len(i), n - 2)))
        c, t = build(reg, i, j, *args)
        assert c.draws == len(i)
        groups = [g for g, _ in cir.factor(c)]
        assert len(groups) == (1 if n < 8 else 5 if c.exchange_count else 8)
        u = evaluate(c)
        target = np.broadcast_to(t.unitary, u.shape)
        acted = np.broadcast_to([k in t.acted_spins for k in range(n)]
                                if isinstance(t.acted_spins, frozenset)
                                else t.acted_spins, (len(u), n))
        for k, (p, q) in enumerate(zip(i.tolist(), j.tolist())):
            floats = [float(a[k]) for a in args[:n_angles]]
            if takes_bystanders:
                floats.append(dict(zip((s for s in range(n) if s not in (p, q)),
                                       args[-1][k].tolist())))
            ck, tk = build(reg, p, q, *floats)
            assert ck.draws is None
            assert np.array_equal(u[k], cir.join(cir.factor(ck, groups))), (
                suite, n, k)
            assert np.array_equal(target[k], tk.unitary), (suite, n, k)
            assert acted[k].tolist() == [s in tk.acted_spins
                                         for s in range(n)], (suite, n, k)
    assert sum(n * (n - 1) for n in (2, 3, 4)) == 20


def test_verify_plays_one_pass_per_position_and_size(monkeypatch, capsys):
    # In one verify --suite all, a pair suite plays each field position once
    # per register size, whatever its number of layouts there. At each
    # exchange position the kernel makes one gathered pass over all of the
    # size's draws, and each draw mixes the anti-aligned rows of its own
    # pair: no draw is played at angle 0 or on another draw's pair.
    fields, suite, played = {}, [None], {}
    for check, builder, n_angles, _ in cli._PAIR_SUITES.values():
        c, _ = getattr(cir, builder)(REG2, 0, 1, *[0.1] * n_angles)
        fields[check] = c.field_count
    position, draws, passes, held = {}, {}, {}, []
    real_apply, real_pairs, real_mix, real_suite = (
        cir.apply_op, spins._apply_pairs, spins._mix, cli._pair_suite)

    def counting(u, reg, op):
        key = (suite[0], reg.n_spins)
        if suite[0]:
            position[key] = position.get(key, -1) + 1
            draws.setdefault(key, len(u))
        if suite[0] and isinstance(op, GlobalField):
            played[key] = played.get(key, 0) + 1
        return real_apply(u, reg, op)

    def gathered(u, i, j, *coefficients):
        if suite[0] and (isinstance(i, np.ndarray)
                         or isinstance(j, np.ndarray)):
            held.append((u.copy(), *np.broadcast_arrays(i, j)))
        return real_pairs(u, i, j, *coefficients)

    def mix(ends, a, b, *coefficients):
        if held:
            u, i, j = held.pop()
            n = len(u[0]).bit_length() - 1
            key = (suite[0], n)
            passes.setdefault(key + (position[key],), []).append(
                set(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist())))
            assert len(a) == len(b) == len(u) == draws[key]
            reg, m = RegisterSpec(n), u.shape[-1]
            for k, (p, q) in enumerate(zip(i.tolist(), j.tolist())):
                row = {r.tobytes(): x for x, r in enumerate(u[k])}
                mixed = sorted(row[r.tobytes()] for r in (
                    *a[k].reshape(-1, m), *b[k].reshape(-1, m)))
                assert mixed == np.flatnonzero(
                    spins.site_bits(reg, p) != spins.site_bits(reg, q)
                ).tolist(), (key, k)
        return real_mix(ends, a, b, *coefficients)

    def tagged(rng, tol, check, *spec):
        suite[0] = check
        try:
            return real_suite(rng, tol, check, *spec)
        finally:
            suite[0] = None

    monkeypatch.setattr(cir, "apply_op", counting)
    monkeypatch.setattr(spins, "_apply_pairs", gathered)
    monkeypatch.setattr(spins, "_mix", mix)
    monkeypatch.setattr(cli, "_pair_suite", tagged)
    assert cli.main(["verify", "--suite", "all"]) == 0
    capsys.readouterr()
    assert not held
    assert {check for check, _ in played} == set(fields)
    assert {n for _, n in played} == {2, 3, 4}
    for (check, n), count in played.items():
        assert count <= fields[check], (check, n)
    for check in fields:
        assert sum(b for (c, _), b in draws.items() if c == check) == 60
    exchanges = {c for c, n, _ in passes}
    assert exchanges == set(fields) - {"xy_x_rotation_phase"}
    for (check, n, _), got in passes.items():
        assert len(got) == 1, (check, n, got)
    assert max(len(got[0]) for got in passes.values()) == 6


def test_combined_distance_of_exact_parts_is_positive_zero():
    # sqrt(-2 expm1(0)) is sqrt(-0.0), which is -0.0; the distance of
    # equal parts reads +0.0, and every other value keeps its bits.
    for dg in (np.zeros(1), np.zeros(3), np.zeros((4, 2))):
        d = cir.combined_distance(dg)
        assert np.all(d == 0.0) and not np.signbit(d).any()
    eye = np.eye(2, dtype=complex)
    d = cir.factored_distance((((0,), eye), ((1, 2), np.eye(4))),
                              (((0,), eye), ((1, 2), np.eye(4))))
    assert d == 0.0 and math.copysign(1.0, d) == 1.0
    rng = np.random.default_rng(43)
    scale = np.logspace(-15, 0, 200)[:, None]
    dg = np.abs(rng.standard_normal((200, 3))) * scale
    dg[:20] = [0.0, math.sqrt(2), 1e-12]
    with np.errstate(divide="ignore"):
        old = np.sqrt(-2.0 * np.expm1(
            np.log1p(-np.minimum(dg * dg / 2.0, 1.0)).sum(axis=-1)))
    assert (old > 0).all()
    assert cir.combined_distance(dg).tobytes() == old.tobytes()


def play_each(circuits):
    """Each circuit played in turn part by part (the parts of _parts) by
    _play, along one path per part register and draw count, as synthesis's
    verification plays its parts, and the parts joined as factor joins
    them."""
    paths = {}
    for c in circuits:
        lead, parts = (c.draws,) if c.draws else (), []
        for gs, n, draws, ops in cir._parts(c):
            u = cir._play(RegisterSpec(n), draws, ops,
                          paths.setdefault((n, draws), []))
            parts += zip(gs, u.reshape((len(gs),) + lead + u.shape[-2:]))
        yield parts[0][1] if len(parts) == 1 else cir.join(tuple(parts))


def shared_prefix_set(rng, n, draws):
    """Circuits on n spins, in sorted op order, whose ops come from one
    pool so that runs of leading ops are the same objects: random words,
    words extending the first (so it is a prefix of them), a duplicate, a
    one-op prefix of another word, an all-exchange word and the empty
    circuit. With draws, the fields and one exchange hold per-draw angles,
    while the all-exchange word plays shared angles only, so the set mixes
    circuits of B draws with circuits of one matrix."""
    def angles(*shape):
        return rng.uniform(-3, 3, size=(draws,) + shape if draws else shape)

    a, b = (tuple(int(s) for s in rng.choice(n, 2, replace=False))
            for _ in range(2))
    pool = [GlobalField(axis, angles(n) if draws else tuple(angles(n)))
            for axis in "xyz"]
    pool += [Exchange(*a, angles() if draws else float(angles())),
             XYExchange(*b, 0.9), Exchange(*b, math.pi)]
    words = [tuple(int(x) for x in rng.integers(len(pool), size=size))
             for size in rng.integers(1, 8, size=8)]
    words += [words[0] + tuple(int(x) for x in rng.integers(len(pool), size=3))
              for _ in range(3)]
    words += [words[1], words[2][:1], (4, 5, 4, 5), ()]
    return [Circuit(RegisterSpec(n), [pool[x] for x in w])
            for w in sorted(words)]


@pytest.mark.parametrize("draws", [None, 3])
@pytest.mark.parametrize("n", [2, 3, 5, cir.FACTOR_MIN_SPINS, 8])
def test_shared_prefix_player_equals_evaluate_bit_for_bit(n, draws):
    # Sorted, circuits share every common prefix; shuffled, only those with
    # the circuit before. From FACTOR_MIN_SPINS up each part plays along the
    # path of its own register. Either way each unitary has evaluate's bits.
    rng = np.random.default_rng(10 * n + bool(draws))
    cs = shared_prefix_set(rng, n, draws)
    assert {c.draws for c in cs} == {None, draws}
    for order in (cs, [cs[k] for k in rng.permutation(len(cs))]):
        got = play_each(order)
        for c in order:
            assert np.array_equal(next(got), evaluate(c)), c
        assert next(got, None) is None


def test_shared_prefix_player_plays_each_prefix_once(monkeypatch):
    # In sorted op order every distinct prefix is played once, and one
    # circuit at a time: the first result costs only the first circuit.
    cs = shared_prefix_set(np.random.default_rng(5), 4, 3)
    played = []
    apply_op = cir.apply_op
    monkeypatch.setattr(cir, "apply_op", lambda u, reg, op: (
        played.append(op), apply_op(u, reg, op))[1])
    got = play_each(cs)
    next(got)
    assert len(played) == len(cs[0].ops)
    list(got)
    prefixes = {(c.draws, tuple(map(id, c.ops[:d])))
                for c in cs for d in range(1, len(c.ops) + 1)}
    assert len(played) == len(prefixes) < sum(len(c.ops) for c in cs)


@pytest.mark.parametrize("n, draws", [(3, None), (3, 3),
                                      (cir.FACTOR_MIN_SPINS, 3)])
def test_player_hands_out_fresh_writable_arrays(n, draws):
    # verify_target subtracts into evaluate's array, so each array handed
    # out is the caller's own: filling it with NaN changes no later result.
    # The same circuit twice in a row resumes at its end, and the circuit
    # with no ops after a long one starts from the identity.
    cs = shared_prefix_set(np.random.default_rng(7), n, draws)
    long = max((c for c in cs if c.draws is None), key=lambda c: len(c.ops))
    empty = Circuit(long.register, ())
    order = cs + [cs[-2], cs[-2], long, long, empty, long, empty, empty]
    want = [evaluate(c) for c in order]
    seen = []
    for c, w, u in zip(order, want, play_each(order), strict=True):
        assert u.flags.writeable and np.array_equal(u, w), c
        assert not any(np.shares_memory(u, v) for v in seen + want)
        u[...] = np.nan
        seen.append(u)
    for c, w in zip(order, want):
        u = evaluate(c)
        assert u.flags.writeable and np.array_equal(u, w), c
        u[...] = np.nan
    assert all(np.array_equal(evaluate(c), w) for c, w in zip(order, want))


def test_player_over_thousands_of_runs_equals_evaluate_bit_for_bit():
    # 3000 one-op circuits from a pool of 40 ops: neighbours that share
    # their op are runs that resume and keep states far along the list.
    rng = np.random.default_rng(4)
    pool = [GlobalField(str(axis), (float(a),))
            for axis, a in zip(rng.choice(list("xyz"), 40),
                               rng.uniform(-3, 3, 40))]
    cs = [Circuit(RegisterSpec(1), (pool[k],))
          for k in rng.integers(len(pool), size=3000)]
    got = list(play_each(cs))
    assert len(got) == len(cs)
    assert all(np.array_equal(u, evaluate(c)) for u, c in zip(got, cs))


def test_circuit_draw_count_checks_its_ops():
    # The draw count is read from the ops, and every op must agree with it.
    rows = GlobalField("z", np.zeros((3, 2)))
    assert Circuit(REG2, (rows, Exchange(0, 1, np.ones(3)))).draws == 3
    assert Circuit(REG2, (GlobalField("z", (0.1, 0.2)), rows)).draws == 3
    for ops in ((rows, Exchange(0, 1, np.ones(2))),
                (GlobalField("z", np.zeros((0, 2))),)):
        with pytest.raises(ValueError):
            Circuit(REG2, ops)


def test_local_z_scan_matches_one_angle_at_a_time_on_criterion_1_draws():
    # Criterion 1's local-z checks, drawn as it draws them: the scan as one
    # numpy expression gives the distance the scalar scan gives. The scalar
    # scan costs about 3 ms a draw, so every 4th of the 1000 draws is
    # compared.
    rng = np.random.default_rng(2026)
    worst = 0.0
    for draw in range(1000):
        n = int(rng.integers(2, 5))
        reg = RegisterSpec(n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        bys = {k: float(rng.uniform(-3, 3)) for k in range(n) if k not in (i, j)}
        a1 = float(rng.uniform(-3, 3, size=3)[0])
        if draw % 4:
            continue
        c, _ = cir.controlled_phase_circuit(reg, i, j, a1, bys)
        t = cir.controlled_phase_local_z_target(reg, i, j)
        u = evaluate(c)
        p, q = sorted((i, j))
        got = cir._local_z_aligned_distance(u, t.unitary, reg, p, q)
        want = oracle.local_z_aligned_distance(u, t.unitary, n, p, q)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-12


def test_local_z_scan_matches_one_angle_at_a_time_on_two_peaks():
    # g(q) = |m00 + conj(q) m01| + |m10 + conj(q) m11| with real m of mixed
    # signs peaks at a conjugate pair of angles. Perturbations of 0 to 1e-13
    # leave two maxima within rounding, or nearly, of each other, so the two
    # scans may settle on different peaks; one of 1e-3 leaves one peak the
    # higher, which both scans must find. Generic complex m follow. A
    # diagonal u on two spins against the identity holds m on its diagonal.
    rng = np.random.default_rng(44)
    ms = []
    for trial in range(100):
        eps = (0.0, 1e-16, 1e-15, 1e-13, 1e-3)[trial % 5]
        m = rng.uniform(0.5, 1.5, size=4) * np.array([1, 1, 1, -1])
        m = m + eps * (rng.normal(size=4) + 1j * rng.normal(size=4))
        rng.shuffle(m)
        ms.append(m)
    ms += [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(100)]
    for m in ms:
        u = np.diag(m).astype(complex)
        got = cir._local_z_aligned_distance(u, np.eye(4), REG2, 0, 1)
        want = oracle.local_z_aligned_distance(u, np.eye(4), 2, 0, 1)
        assert abs(got - want) <= 1e-12, m


def test_parallel_apply_rejects_bad_pairs():
    template, _ = cir.controlled_phase_circuit(REG2, 0, 1, 0.0)
    with pytest.raises(ValueError, match=r"^spin 1 appears in two pairs$"):
        parallel_apply(template, ((0, 1), (1, 2)), REG3)
    with pytest.raises(ValueError, match=r"^spin indices coincide: 2$"):
        parallel_apply(template, ((2, 2),), REG3)
    with pytest.raises(IndexOutOfRange):
        parallel_apply(template, ((0, 7),), REG3)
    with pytest.raises(ValueError):
        parallel_apply(template, ((-1, 0),), REG3)
    with pytest.raises(ValueError):
        parallel_apply(Circuit(REG3, ()), ((0, 1),), REG4)
    per_draw, _ = cir.swap_conjugation(REG2, np.array([0, 1]), np.array([1, 0]),
                                       np.ones(2), np.zeros(2))
    with pytest.raises(ValueError,
                       match=r"^template op 0 \(Exchange\) has a pair per draw$"):
        parallel_apply(per_draw, ((0, 1),), REG4)


def euler_recompose(delta, alpha, beta, gamma):
    return (np.exp(1j * delta) * rotation_2x2("z", gamma)
            @ rotation_2x2("x", beta) @ rotation_2x2("z", alpha))


def test_euler_zxz_recomposes_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        u = random_su2(rng)
        if rng.uniform() < 0.3:
            u = u * np.exp(1j * rng.uniform(-math.pi, math.pi))
        delta, alpha, beta, gamma = euler_zxz(u)
        assert 0.0 <= beta <= math.pi + 1e-12
        assert max_abs(euler_recompose(delta, alpha, beta, gamma) - u) < 1e-10


def test_euler_zxz_special_points():
    cases = [np.eye(2),
             np.diag([1j, -1j]),
             np.array([[0, 1], [1, 0]], dtype=complex),
             np.array([[0, -1j], [-1j, 0]]),
             rotation_2x2("x", math.pi),
             rotation_2x2("z", -2.5)]
    for u in cases:
        delta, alpha, beta, gamma = euler_zxz(u)
        assert max_abs(euler_recompose(delta, alpha, beta, gamma) - u) < 1e-10


def test_euler_zxz_rejects_non_unitary():
    with pytest.raises(NotUnitary2x2):
        euler_zxz(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotUnitary2x2):
        euler_zxz(np.eye(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
def test_euler_zxz_rejects_non_finite_entries(bad, entry):
    # A NaN compares false with everything, so a check written as
    # "error > tol" would let it through. inf * 0 makes numpy warn on the
    # way to the same NaN.
    for u in (np.eye(2, dtype=complex), rotation_2x2("x", 0.7)):
        u[entry] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(NotUnitary2x2):
                euler_zxz(u)
            with pytest.raises(NotUnitary2x2):
                su2_compile(u, REG2, 0, 1, PROFILES2)


def test_su2_compile_meets_budget_and_distance():
    rng = np.random.default_rng(8)
    for _ in range(20):
        u = random_su2(rng)
        c = su2_compile(u, REG2, 0, 1, PROFILES2)
        assert c.field_count <= 21
        assert c.step_count <= 33
        full = kron(u, np.eye(2))
        assert phase_distance(evaluate(c), full) < 1e-8


def test_su2_compile_identity_is_empty():
    c = su2_compile(np.eye(2), REG2, 0, 1, PROFILES2)
    assert c.step_count == 0


def test_su2_compile_bystanders_clean_on_wider_register():
    rng = np.random.default_rng(9)
    u = random_su2(rng)
    c = su2_compile(u, REG4, 0, 1, PROFILES4)
    t = GateTarget(kron(u, np.eye(8)), frozenset((0,)),
                   Equivalence.GLOBAL_PHASE)
    rep = verify_target(c, t, 1e-8)
    assert rep.passed, rep


def test_su2_compile_builds_no_dense_target():
    # Its blocks are the rotation builder's ops, op for op, but the
    # builder's 2^n x 2^n targets (8 MB each at 10 spins) are never built.
    rng = np.random.default_rng(10)
    reg10 = RegisterSpec(10)
    profiles = {"z": (1.0, 0.75) * 5, "x": (1.0, 0.5) * 5}
    targets = [random_su2(rng) for _ in range(8)] + [
        rotation_2x2("x", 0.9), rotation_2x2("z", -1.3), np.eye(2)]
    for u in targets:
        i = int(rng.integers(0, 9))
        _, alpha, beta, gamma = euler_zxz(u)
        blocks = [(a, axis) for a, axis in ((alpha, "z"), (beta, "x"),
                                            (gamma, "z"))
                  if abs(a - 2 * math.pi * round(a / (2 * math.pi))) >= 1e-12]
        ops = sum((cir.refocused_rotation_circuit(reg10, axis, i, i + 1, a,
                                                  profiles)[0].ops
                   for a, axis in blocks), ())
        tracemalloc.start()
        try:
            c = su2_compile(u, reg10, i, i + 1, profiles)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert c.ops == ops
        assert peak < 1e6


def test_circuit_text_round_trip_is_exact():
    c, _ = cir.refocused_rotation_circuit(REG4, "z", 0, 1, 0.37712, PROFILES4)
    c = Circuit(REG4, c.ops + (XYExchange(1, 2, -0.25),))
    text = circuit_to_text(c)
    back = circuit_from_text(text)
    assert back == c
    assert circuit_to_text(back) == text


def test_circuit_text_ignores_comments_and_blanks():
    c = circuit_from_text("# header\nREG 2\n\nEX 0 1 3.14  # tail\n")
    assert c.register.n_spins == 2
    assert c.ops == (Exchange(0, 1, 3.14),)


def test_circuit_text_errors():
    with pytest.raises(ValueError):
        circuit_from_text("EX 0 1 1.0\n")
    with pytest.raises(ValueError):
        circuit_from_text("REG 2\nREG 2\n")
    with pytest.raises(ValueError):
        circuit_from_text("REG 2\nZZ 0 1\n")
    with pytest.raises(ValueError):
        circuit_from_text("REG 3\nGF z 0.1 0.2\n")
