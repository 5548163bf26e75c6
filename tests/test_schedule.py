import collections
import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest

from globalspin import circuits as cir
from globalspin import linalg
from globalspin import schedule as sched
from globalspin.circuits import (Circuit, Exchange, GlobalField, XYExchange,
                                 controlled_phase_circuit, evaluate, factor,
                                 factored_distance, join, parallel_apply,
                                 refocused_rotation_circuit)
from globalspin.device import (ANTIPARALLEL, PARALLEL, DeviceGeometry,
                               SpinSite, WireSpec, device_constants,
                               field_profile, twin_wire_preset)
from globalspin.linalg import phase_distance, update_phase_normalized
from globalspin.schedule import (DurationCapExceeded, ExchangeEvent,
                                 FieldEvent, Schedule, UnrealizableAngles,
                                 compile_schedule, schedule_from_text,
                                 schedule_to_text, simulate_schedule,
                                 unitary_digest, validate_schedule)
from globalspin.spins import RegisterSpec, zeeman_angles

import oracle
from test_circuits import random_linked_circuit, random_su2

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

GEOM2 = twin_wire_preset(2)
GEOM4 = twin_wire_preset(4)


def device_profiles(g, n):
    par = device_constants(field_profile(g, PARALLEL))
    anti = device_constants(field_profile(g, ANTIPARALLEL))
    return {"z": par.ratios[:n], "x": anti.ratios[:n]}


def tied_cp_circuit():
    # Pair z angles (theta, theta+pi) proportional to the parallel profile
    # (1, 0.75) force theta = -4 pi.
    c, t = controlled_phase_circuit(RegisterSpec(2), 0, 1, -4.0 * math.pi)
    return c, t


def test_compile_structure_and_realizability():
    c, _ = tied_cp_circuit()
    s = compile_schedule(c, GEOM2)
    kinds = [type(e).__name__ for e in s.events]
    assert kinds == ["FieldEvent", "ExchangeEvent", "FieldEvent",
                     "ExchangeEvent"]
    f0, _, f1, _ = s.events
    assert f0.config == PARALLEL and f1.config == PARALLEL
    assert f0.sign == -f1.sign
    assert abs(f0.duration - f1.duration) < 1e-24
    assert s.total_time > 0
    # Events tile the line with no gaps.
    t = 0.0
    for ev in s.events:
        assert abs(ev.t_start - t) < 1e-18
        t += ev.duration


def test_compile_then_simulate_matches_circuit():
    c, _ = tied_cp_circuit()
    s = compile_schedule(c, GEOM2)
    assert phase_distance(join(simulate_schedule(s)), evaluate(c)) < 1e-10


def test_compile_refocused_rotation():
    reg = RegisterSpec(4)
    c, _ = refocused_rotation_circuit(reg, "z", 0, 1, 1.234,
                                      device_profiles(GEOM4, 4))
    s = compile_schedule(c, GEOM4)
    assert phase_distance(join(simulate_schedule(s)), evaluate(c)) < 1e-10
    # Both configurations appear: z pulses parallel, x pulses antiparallel.
    configs = {e.config for e in s.events if isinstance(e, FieldEvent)}
    assert configs == {PARALLEL, ANTIPARALLEL}
    assert sum(isinstance(e, ExchangeEvent) for e in s.events) == 4


def test_compile_skips_identity_pulses():
    c = Circuit(RegisterSpec(2), (GlobalField("z", (0.0, 0.0)),
                                  Exchange(0, 1, math.pi)))
    s = compile_schedule(c, GEOM2)
    assert len(s.events) == 1
    assert isinstance(s.events[0], ExchangeEvent)


def test_compile_groups_disjoint_exchanges():
    reg = RegisterSpec(4)
    template, _ = tied_cp_circuit()
    c = parallel_apply(template, ((0, 1), (2, 3)), reg)
    s = compile_schedule(c, GEOM4)
    ex = [e for e in s.events if isinstance(e, ExchangeEvent)]
    assert len(ex) == 2
    assert all(len(e.pairs) == 2 for e in ex)
    assert phase_distance(join(simulate_schedule(s)), evaluate(c)) < 1e-10


def test_compile_splits_overlapping_exchanges():
    c = Circuit(RegisterSpec(3), (Exchange(0, 1, math.pi),
                                  Exchange(1, 2, math.pi)))
    s = compile_schedule(c, twin_wire_preset(3))
    assert len(s.events) == 2


def test_compile_honors_exchange_duration():
    s = compile_schedule(Circuit(RegisterSpec(2), (Exchange(0, 1, 1.0),)),
                         GEOM2, exchange_duration=4e-9)
    assert s.events[0].duration == 4e-9


def test_compile_rejects_off_profile_angles():
    c = Circuit(RegisterSpec(2), (Exchange(0, 1, math.pi),
                                  GlobalField("z", (1.0, 1.0))))
    with pytest.raises(UnrealizableAngles) as info:
        compile_schedule(c, GEOM2)
    assert info.value.op_index == 1


def test_compile_rejects_y_axis_and_planar_exchange():
    with pytest.raises(UnrealizableAngles):
        compile_schedule(Circuit(RegisterSpec(2),
                                 (GlobalField("y", (1.0, 0.75)),)), GEOM2)
    with pytest.raises(UnrealizableAngles) as info:
        compile_schedule(Circuit(RegisterSpec(2), (XYExchange(0, 1, 0.5),)),
                         GEOM2)
    assert info.value.op_index == 0


def test_compile_duration_cap():
    # A 2e-5 s z pulse on the 2-site preset, twice the field-duration cap.
    assert sched.DURATION_CAP == 1e-5
    angles = zeeman_angles([s.g_factor for s in GEOM2.sites],
                           field_profile(GEOM2, PARALLEL).component("z"), 2e-5)
    c = Circuit(RegisterSpec(2), (GlobalField("z", angles),))
    with pytest.raises(DurationCapExceeded):
        compile_schedule(c, GEOM2)


def test_compile_rejects_multi_row_exchange():
    sites = tuple(SpinSite(s.position, s.g_factor, row_id=k % 2)
                  for k, s in enumerate(GEOM4.sites))
    split = DeviceGeometry(GEOM4.wires, sites)
    c = Circuit(RegisterSpec(4), (Exchange(0, 1, math.pi),))
    with pytest.raises(ValueError):
        compile_schedule(c, split)


def test_validate_schedule_passes_compiled():
    c, _ = tied_cp_circuit()
    s = compile_schedule(c, GEOM2)
    report = validate_schedule(s)
    assert report.ok, report


def test_validate_schedule_catches_overlap():
    c, _ = tied_cp_circuit()
    s = compile_schedule(c, GEOM2)
    shifted = list(s.events)
    ev = shifted[1]
    shifted[1] = ExchangeEvent(t_start=ev.t_start - 0.9 * s.events[0].duration,
                               duration=ev.duration, pairs=ev.pairs)
    bad = Schedule(s.register, tuple(shifted), s.geometry, s.geometry_name,
                   s.active_row)
    report = validate_schedule(bad)
    assert not report.ok
    assert {c.name for c in report.checks if not c.ok} == {"non_overlap"}


def test_validate_schedule_catches_shared_spin():
    bad = Schedule(RegisterSpec(3), (ExchangeEvent(0.0, 1e-8,
                                                   ((0, 1, 1.0), (1, 2, 1.0))),),
                   twin_wire_preset(3), "custom", 0)
    report = validate_schedule(bad)
    assert not report.ok
    assert {c.name for c in report.checks if not c.ok} == {"pair_disjointness"}


def test_validate_schedule_catches_row_violation():
    sites = tuple(SpinSite(s.position, s.g_factor, row_id=1)
                  for s in GEOM2.sites)
    other_row = DeviceGeometry(GEOM2.wires, sites)
    bad = Schedule(RegisterSpec(2), (ExchangeEvent(0.0, 1e-8, ((0, 1, 1.0),)),),
                   other_row, "custom", 0)
    report = validate_schedule(bad)
    assert not report.ok
    assert {c.name for c in report.checks if not c.ok} == {"row_addressing"}
    # Like every other check, it names its first failure: spin 0 of the
    # first of two offending events.
    geom3 = twin_wire_preset(3)
    other_row = DeviceGeometry(geom3.wires, tuple(
        SpinSite(s.position, s.g_factor, row_id=1) for s in geom3.sites))
    bad = Schedule(RegisterSpec(3), (ExchangeEvent(0.0, 1e-8, ((0, 1, 1.0),)),
                                     ExchangeEvent(1e-8, 1e-8, ((1, 2, 1.0),))),
                   other_row, "custom", 0)
    row = {c.name: c for c in validate_schedule(bad).checks}["row_addressing"]
    assert not row.ok
    assert row.detail == "spin 0 outside row 0"


def test_field_event_at_the_cap_round_trips_and_replays():
    s = Schedule(RegisterSpec(2),
                 (FieldEvent(0.0, sched.DURATION_CAP, PARALLEL, 1,
                             abs(GEOM2.wires[0].current) * 1e3),),
                 GEOM2, "custom", 0)
    text = schedule_to_text(s)
    back = schedule_from_text(text, GEOM2)
    assert back.events[0].duration <= sched.DURATION_CAP
    assert schedule_to_text(back) == text
    assert unitary_digest(simulate_schedule(back)) == unitary_digest(
        simulate_schedule(s))
    assert validate_schedule(back).ok
    with pytest.raises(ValueError, match="line 2: .* over cap"):
        schedule_from_text(text.replace(" 10000 ", " 10000.000000001 "),
                           GEOM2)


def test_validate_schedule_catches_excess_current():
    hot = DeviceGeometry(tuple(
        WireSpec(w.center, w.cross_section, 1.0e-3,
                 w.critical_current_density) for w in GEOM2.wires),
        GEOM2.sites)
    c, _ = tied_cp_circuit()
    s = compile_schedule(c, hot)
    report = validate_schedule(s)
    assert not report.ok
    assert {c.name for c in report.checks if not c.ok} == {"current_limits"}


def test_validate_schedule_catches_current_annotation_mismatch():
    # An edited schedule file can claim any drive current; the claim must
    # agree with what the geometry (and hence the simulation) actually uses.
    c, _ = tied_cp_circuit()
    s = compile_schedule(c, GEOM2, geometry_name="twin_wire_zigzag")
    text = schedule_to_text(s).replace(" 0.7", " 0.95")
    back = schedule_from_text(text, GEOM2)
    report = validate_schedule(back)
    assert not report.ok
    bad = {c.name for c in report.checks if not c.ok}
    assert bad == {"current_limits"}
    detail = next(c.detail for c in report.checks if c.name == "current_limits")
    assert "0.95" in detail and "0.7" in detail


def test_schedule_text_round_trip():
    c, _ = tied_cp_circuit()
    s = compile_schedule(c, GEOM2, geometry_name="twin_wire_zigzag")
    text = schedule_to_text(s)
    back = schedule_from_text(text, GEOM2)
    assert back.register == s.register
    assert "convention=full_gyromagnetic" in text.splitlines()[0]
    assert back.geometry_name == "twin_wire_zigzag"
    assert len(back.events) == len(s.events)
    # Times are written to 17 significant digits of a nanosecond.
    for a, b in zip(back.events, s.events):
        assert abs(a.t_start - b.t_start) < 1e-15
        assert abs(a.duration - b.duration) < 1e-15
    assert schedule_to_text(back) == text


def test_schedule_text_drift_stays_below_criterion():
    # Full-precision times: the written file replays its circuit to
    # rounding, far inside the 1e-8 compile bound.
    c, _ = tied_cp_circuit()
    s = compile_schedule(c, GEOM2)
    text = schedule_to_text(s)
    a = schedule_from_text(text, GEOM2)
    b = schedule_from_text(text, GEOM2)
    assert unitary_digest(simulate_schedule(a)) == unitary_digest(simulate_schedule(b))
    assert phase_distance(join(simulate_schedule(a)), evaluate(c)) < 1e-12
    assert unitary_digest(simulate_schedule(a)) == unitary_digest(evaluate(c))


def test_written_rotation_replays_its_circuit_and_digest_survives_ulp_noise():
    # Written with 6 decimals of a ns, this file would replay 1.3e-7 from
    # its circuit, past the 1e-8 compile bound.
    c, _ = refocused_rotation_circuit(RegisterSpec(4), "z", 0, 1,
                                      math.pi / 2.0, device_profiles(GEOM4, 4))
    text = schedule_to_text(compile_schedule(c, GEOM4))
    u = join(simulate_schedule(schedule_from_text(text, GEOM4)))
    assert phase_distance(u, evaluate(c)) < 1e-12
    digest = unitary_digest(u)
    assert digest == unitary_digest(evaluate(c))
    # Many entries tie in modulus; relative noise of 2e-16 (last-bit
    # differences, as another summation order gives) must not move the
    # digest's phase anchor.
    rng = np.random.default_rng(20)
    for _ in range(20):
        noisy = u * (1.0 + 2e-16 * rng.standard_normal(u.shape))
        assert unitary_digest(noisy) == digest


def test_six_decimal_schedule_text_still_parses():
    # Files written with 6-decimal times must still read.
    text = ("SCHEDULE register=2 geometry=twin_wire_zigzag "
            "convention=full_gyromagnetic active_row=0\n"
            "F 0.000000 63.821922 parallel -1 0.7\n"
            "E 63.821922 10.000000 (0,1,1.5707963267948966)\n"
            "F 73.821922 63.821922 parallel +1 0.7\n"
            "E 137.643844 10.000000 (0,1,1.5707963267948966)\n")
    s = schedule_from_text(text, GEOM2)
    assert [ev.t_start for ev in s.events] == [
        0.0, 63.821922 / 1e9, 73.821922 / 1e9, 137.643844 / 1e9]
    assert s.events[1].duration == 10e-9
    c, _ = tied_cp_circuit()
    assert phase_distance(join(simulate_schedule(s)), evaluate(c)) < 1e-8


def test_schedule_text_errors():
    with pytest.raises(ValueError):
        schedule_from_text("F 0.0 1.0 parallel +1 0.7\n", GEOM2)
    with pytest.raises(ValueError):
        schedule_from_text("SCHEDULE register=2 convention=full_gyromagnetic\n"
                           "Q 0 1\n", GEOM2)


def test_unitary_digest_phase_invariant():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    assert unitary_digest(q) == unitary_digest(np.exp(1j * 0.83) * q)
    assert unitary_digest(q) != unitary_digest(q.conj())
    assert len(unitary_digest(q)) == 64


def test_validate_schedule_fails_non_finite_duration():
    # schedule_from_text rejects this event, so it is built directly.
    text = ("SCHEDULE register=2 convention=full_gyromagnetic\n"
            "F 0.000000 nan parallel -1 0.7\n")
    with pytest.raises(ValueError, match="must be finite"):
        schedule_from_text(text, GEOM2)
    s = Schedule(RegisterSpec(2), (FieldEvent(0.0, math.nan, PARALLEL, -1, 0.7),),
                 GEOM2, "custom", 0)
    checks = {c.name: c for c in validate_schedule(s).checks}
    assert not checks["non_overlap"].ok
    assert "non-finite" in checks["non_overlap"].detail
    assert not validate_schedule(s).ok


def linked_cases(rng):
    """Random linked circuits on 7 to 11 spins (several groups each), one
    group spanning 8 spins, and 9 spins with no ops (every spin a group)."""
    cases = [random_linked_circuit(rng, n, 12) for n in (7, 8, 9, 10, 11)]
    chain = random_linked_circuit(rng, 8, 12)
    cases.append(Circuit(chain.register, chain.ops + tuple(
        Exchange(k, k + 1, 0.3) for k in range(7))))
    return cases + [Circuit(RegisterSpec(9), ())]


def test_streamed_digest_equals_the_whole_matrix_digest(monkeypatch):
    # unitary_digest multiplies out factor's parts one row block at a time,
    # only where an entry can survive rounding; the oracle hashes the
    # evaluated matrix whole, as the package did before.
    rng = np.random.default_rng(31)
    cases = linked_cases(rng)
    for c in cases:
        parts = factor(c)
        u = evaluate(c)
        assert (len(parts) == 1) == (len(cir._exchange_groups(
            c.register.n_spins, c.ops)) == 1)
        want = oracle.dense_digest(u)
        assert unitary_digest(parts) == want
        assert unitary_digest(u) == want
        # In 8 row blocks, each block's kept products hold the whole
        # matrix's bits at their places, each place once, and every entry
        # a block leaves out is under 5e-10, which rounds to +0.0.
        monkeypatch.setattr(sched, "DIGEST_BLOCK", u.size // 8)
        built = recorded_blocks(monkeypatch)
        assert unitary_digest(parts) == want
        whole = join(parts).reshape(8, -1)
        assert sorted({k for k, _, _ in built}) == list(range(8))
        for k, vals, pos in built:
            assert np.unique(pos).size == pos.size
            assert vals.tobytes() == whole[k, pos].tobytes()
            assert np.all(np.abs(np.delete(whole[k], pos)) < 5e-10)
        monkeypatch.undo()
    # Down to one row per block, on a multi-group and a one-group circuit.
    for c in (cases[0], cases[5]):
        want = unitary_digest(evaluate(c))
        for size in (1, 1 << 7, 1 << 11):
            monkeypatch.setattr(sched, "DIGEST_BLOCK", size)
            assert unitary_digest(factor(c)) == want
            assert unitary_digest(evaluate(c)) == want
    monkeypatch.undo()
    # 12 spins: the whole-matrix oracle would hold over 1 GB.
    c = random_linked_circuit(rng, 12, 12)
    want = unitary_digest(factor(c))
    assert unitary_digest(evaluate(c)) == want


def wide_schedule_parts(n, rng):
    """The replays of the circuit kinds a wide schedule run compiles on n
    preset sites, as factor's parts: an 11-op rotation and an SU(2)
    compile on a random pair, and on an even register the tied controlled
    phase on parallel pairs."""
    geom = twin_wire_preset(n)
    profiles = device_profiles(geom, n)
    reg = RegisterSpec(n)
    i = int(rng.integers(0, n - 1))
    tpl, _ = tied_cp_circuit()
    circuits = [
        refocused_rotation_circuit(reg, "x", i, i + 1, 1.7, profiles)[0],
        cir.su2_compile(random_su2(rng), reg, i + 1, i, profiles)]
    if n % 2 == 0:  # the tied pair angles fit only a register of pairs
        circuits.append(parallel_apply(
            tpl, [(k, k + 1) for k in range(0, n, 2)], reg))
    return [simulate_schedule(compile_schedule(c, geom)) for c in circuits]


def test_one_pass_digest_equals_the_dense_digest(monkeypatch):
    # Tensor products of phased Hadamards tie in modulus at every entry,
    # so the anchor is entry 0 whatever the last bits of the tops; the
    # schedule replays' entries tie in blocks. Every row block size gives
    # the digest of the joined matrix hashed whole.
    rng = np.random.default_rng(44)
    had = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    cases = [tuple(((k,), np.exp(1j * rng.uniform(-3, 3)) * had)
                   for k in range(n)) for n in (7, 9)]
    cases += [parts for n in (8, 9, 10)
              for parts in wide_schedule_parts(n, rng)]
    assert any(len(parts) > 4 for parts in cases)
    wants = [oracle.dense_digest(join(parts)) for parts in cases]
    for size in (1, 1 << 7, 1 << 11, 1 << 16):
        monkeypatch.setattr(sched, "DIGEST_BLOCK", size)
        for parts, want in zip(cases, wants):
            assert unitary_digest(parts) == want


def recorded_blocks(monkeypatch):
    """(k, products, positions) of each row block k whose kept entries
    update_phase_normalized builds, in the order it builds them."""
    built, real = [], linalg._kept_block

    def recording(kept, k, sums):
        built.append((k, *real(kept, k, sums)))
        return built[-1][1:]

    monkeypatch.setattr(linalg, "_kept_block", recording)
    return built


@pytest.mark.parametrize("n", [8, 9, 10, 12])
def test_digest_builds_each_row_block_once(monkeypatch, n):
    # Each block's kept entries are built once, the anchor's block first; a
    # block may be built once more only if its top reached the anchor's
    # edge while its entries did not. The rotation is the identity on its
    # bystanders and a z rotation on its pair, so the digest multiplies out
    # the 2^n diagonal entries alone, not the 4^n of the matrix.
    built = recorded_blocks(monkeypatch)
    reg, geom = RegisterSpec(n), twin_wire_preset(n)
    c, _ = refocused_rotation_circuit(reg, "z", n // 2, n // 2 + 1, 0.9,
                                      device_profiles(geom, n))
    unitary_digest(factor(c))
    blocks = max(1, 4 ** n // sched.DIGEST_BLOCK)
    counts = collections.Counter(k for k, _, _ in built)
    assert sorted(counts) == list(range(blocks))
    assert len(built) <= blocks + 1
    assert sum({k: vals.size for k, vals, _ in built}.values()) == 2 ** n


def anchored_hash(u, row, col):
    """The digest of matrix u with the phase of u[row, col] removed."""
    h = hashlib.sha256(str(u.shape).encode())
    w = u / (u[row, col] / abs(u[row, col]))
    h.update(np.round(w.real, 9) + 0.0)
    h.update(np.round(w.imag, 9) + 0.0)
    return h.hexdigest()


def test_anchor_block_without_an_edge_entry_is_passed_over(monkeypatch):
    # A top is a product of the parts' row maxima, which may pass the edge
    # (1e-9 below the largest top) by a few ulps where no product does.
    # Here block 0's top |a00| |c00| reaches the edge but its entry a00 c00
    # lies more than two ulps under it: the anchor is block 1's edge entry,
    # as in the matrix hashed whole, and block 0 is built a second time.
    c = np.array([[np.exp(0.4387839416850339j), 0.3], [0.2, 0.7j]])
    rng = np.random.default_rng(45)
    for alpha in rng.uniform(-3, 3, 4000):
        a = np.array([[(1.0 - 1e-9) * np.exp(1j * alpha), 0.1],
                      [0.2, np.exp(-1.1j)]])
        tops = np.abs(a).max(axis=1) * np.abs(c).max()
        edge = tops.max() - 1e-9
        mag = np.abs(join((((0,), a), ((1,), c))))
        if (tops[0] >= edge and mag[2:].max() >= edge
                and mag[:2].max() < np.nextafter(np.nextafter(edge, 0), 0)):
            break
    else:
        pytest.fail("no planted entry found")
    parts = (((0,), a), ((1,), c))
    m = join(parts)
    built = recorded_blocks(monkeypatch)
    h = hashlib.sha256(str(m.shape).encode())
    update_phase_normalized(h, parts, 2)
    assert h.hexdigest() == oracle.dense_digest(m) == anchored_hash(m, 2, 2)
    assert [k for k, _, _ in built] == [0, 1, 0]
    # Anchored at block 0's largest entry instead, the digest differs.
    assert anchored_hash(m, 0, 0) != oracle.dense_digest(m)
    # With block 1's row lowered by 2e-9, the tops shift: block 0's entry
    # now reaches the edge and anchors, and the digest still differs.
    shifted = (((0,), a * [[1.0], [1.0 - 2e-9]]), ((1,), c))
    built.clear()
    h = hashlib.sha256(str(m.shape).encode())
    update_phase_normalized(h, shifted, 2)
    assert [k for k, _, _ in built] == [0, 1]
    assert h.hexdigest() == oracle.dense_digest(join(shifted)) == (
        anchored_hash(join(shifted), 0, 0))
    assert h.hexdigest() != anchored_hash(join(shifted), 2, 2)


def planted_parts(scale_a=1.0, scale_c=1.0):
    """Parts on groups (1,), (0, 2) and (3,) whose products include planted
    moduli about the rounding cut: 3.9e-10 to 4.1e-10 under it and 4.9e-10
    to 5.1e-10 above it, each 1e-14 relatively either side of the half-step
    1.5e-9, exact zeros and -0.0. a and c are scaled by scale_a and scale_c,
    the plants kept in place, so the products there do not move."""
    b = np.array([[1.0, -0.0], [0.0, -1.0]], dtype=complex)
    a = scale_a * np.array([
        [1.0, 0.3 + 0.1j, -0.0, 0.0],
        [0.2j, 0.8, 0.5 - 0.2j, -0.1],
        [0.0, -0.4, 0.6j, 0.1 + 0.3j],
        [0.3, -0.0, 0.2 - 0.5j, 0.7]])
    c = scale_c * np.array([[1.0, 0.0], [0.0, np.exp(0.3j)]])
    plants = [3.9e-10, -4e-10, 4.1e-10j, 4.9e-10, -5e-10, 5.1e-10j,
              1.5e-9 * (1 - 1e-14), -1.5e-9 * (1 + 1e-14)]
    for (i, j), x in zip([(0, 2), (0, 3), (1, 0), (1, 3), (2, 0), (2, 1),
                          (3, 1), (3, 0)], plants):
        a[i, j] = x / scale_c
    c[0, 1], c[1, 0] = 5.1e-10 / scale_a, 1e-7 / scale_a
    return (((1,), b), ((0, 2), a), ((3,), c))


def test_rounding_cut_keeps_every_entry_that_survives(monkeypatch):
    # An entry is left out only where its modulus falls under 4e-10, which
    # rounds to +0.0: the digest equals the whole matrix's about the cut,
    # the half-step, zeros of either sign, parts scaled by 1e3 and 1e-3
    # (each part's cut moves with the others' scale), a NaN and an inf. The
    # all-zero matrix, whose anchor phase is NaN, hashes as it always has.
    cases = [planted_parts(*scales) for scales in
             [(1.0, 1.0), (1e3, 1.0), (1e-3, 1.0), (1.0, 1e3), (1.0, 1e-3),
              (1e3, 1e-3)]]
    nan = planted_parts()
    nan[1][1][3, 2] = np.nan
    # An inf times a zero is a NaN in the joined matrix that the tops, taken
    # from the parts, do not see: the inf meets no zero component here.
    rng = np.random.default_rng(46)
    inf = tuple((g, rng.uniform(0.1, 1, f.shape) * np.exp(1j * rng.uniform(
        0.1, 1.4, f.shape))) for g, f in planted_parts())
    inf[2][1][1, 1] = np.inf
    zero = tuple((g, np.zeros_like(f)) for g, f in planted_parts())
    cases += [nan, inf, zero]
    with np.errstate(invalid="ignore"):
        wants = [oracle.dense_digest(join(parts)) for parts in cases]
        for size in (1, 1 << 7, 1 << 11, 1 << 16):
            monkeypatch.setattr(sched, "DIGEST_BLOCK", size)
            for parts, want in zip(cases, wants):
                assert unitary_digest(parts) == want
            assert unitary_digest(join(zero)) == wants[-1] == (
                "b6189a77e1c3136231e6097df86288ae"
                "92ebc6b1753a4e3c9a9d6c8ca7262263")
    # The plants lie where the cut runs: some products are left out, and
    # some kept ones round to a nonzero value under 1e-8.
    u = join(cases[0])
    assert np.any((np.abs(u) > 0) & (np.abs(u) < 4e-10))
    assert np.any((np.abs(u) >= 4e-10) & (np.abs(u) < 1e-8))


def test_12_spin_digest_holds_no_dense_array():
    # The digest of a 12-spin rotation multiplies out its 2 x 4096
    # surviving entries, one row block buffer of DIGEST_BLOCK at a time; a
    # 4^12 array of imaginary parts would take 134 MB.
    reg, geom = RegisterSpec(12), twin_wire_preset(12)
    c, _ = refocused_rotation_circuit(reg, "x", 6, 7, 1.7,
                                      device_profiles(geom, 12))
    parts = factor(c)
    tracemalloc.start()
    try:
        unitary_digest(parts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("name, n", [("cp_tied", 2), ("rotation11", 4)])
def test_fixture_digests_in_row_blocks(monkeypatch, name, n):
    with open(os.path.join(FIXTURES, f"{name}.schedule.txt")) as fh:
        parts = simulate_schedule(schedule_from_text(fh.read(),
                                                     twin_wire_preset(4)))
    with open(os.path.join(FIXTURES, "golden_digests.txt")) as fh:
        golden = dict(line.split() for line in fh)[name]
    assert len(parts) == 1 and parts[0][0] == tuple(range(n))
    assert oracle.dense_digest(join(parts)) == golden
    for size in (sched.DIGEST_BLOCK, 16, 1):
        monkeypatch.setattr(sched, "DIGEST_BLOCK", size)
        assert unitary_digest(parts) == golden


def test_factored_distance_matches_the_dense_distance():
    # The replay check compares factors on the groups both circuits link;
    # its value must be the dense phase_distance's, from 1e-14 up to an
    # orthogonal group.
    rng = np.random.default_rng(32)
    seen = []
    for c in linked_cases(rng)[:4]:
        n = c.register.n_spins
        groups = cir._exchange_groups(n, c.ops)
        alone = next(g[0] for g in groups if len(g) == 1)
        for delta in (1e-13, 1e-10, 1e-6, 1e-3, 0.3, 2.0, "two", "flip",
                      "link"):
            angles = np.zeros(n)
            if delta == "two":  # two groups moved: their terms combine
                angles[[groups[0][0], groups[-1][0]]] = 0.9, -1.4
                extra = (GlobalField("y", tuple(angles)),)
            elif delta == "flip":  # pi about x on a lone spin: trace 0
                angles[alone] = math.pi
                extra = (GlobalField("x", tuple(angles)),)
            elif delta == "link":  # a new exchange joins two groups
                extra = (Exchange(groups[0][0], groups[-1][0], 0.2),)
            else:
                angles[int(rng.integers(n))] = delta
                extra = (GlobalField("z", tuple(angles)),)
            other = Circuit(c.register, c.ops + extra)
            both = cir._exchange_groups(n, c.ops + other.ops)
            d = factored_distance(factor(c, both), factor(other, both))
            dense = phase_distance(evaluate(c), evaluate(other))
            assert abs(d - dense) <= 1e-15 + 1e-12 * dense
            seen.append(dense)
    assert min(seen) < 1e-13 and max(seen) > 1.41
    # Exact orthogonality, and a NaN, reach the check as they are.
    eye, flip = np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], complex)
    assert factored_distance((((0,), eye),), (((0,), flip),)) == math.sqrt(2)
    nan = np.full((2, 2), math.nan, dtype=complex)
    with np.errstate(invalid="ignore"):
        assert math.isnan(factored_distance((((0,), eye),), (((0,), nan),)))


def test_replay_is_factored_on_the_groups_both_link():
    # The replay check needs the replay and its circuit on one partition.
    # Here the circuit has one exchange its schedule lacks (by 0, so the
    # unitaries still agree): the replay takes the circuit's pair as a group.
    reg, geom = RegisterSpec(8), twin_wire_preset(8)
    c, _ = refocused_rotation_circuit(reg, "z", 0, 1, 0.8,
                                      device_profiles(geom, 8))
    s = compile_schedule(c, geom)
    wider = Circuit(reg, c.ops + (Exchange(4, 5, 0.0),))
    assert (4, 5) not in [g for g, _ in simulate_schedule(s)]
    parts = simulate_schedule(s, wider)
    groups = [g for g, _ in parts]
    assert (0, 1) in groups and (4, 5) in groups and len(groups) == 6
    d = factored_distance(parts, factor(wider, groups))
    assert d < 1e-12
    assert abs(d - phase_distance(join(parts), evaluate(wider))) <= 1e-15
