import math
from dataclasses import replace

import pytest

from globalspin import device as dev
from globalspin.device import (ANTIPARALLEL, PARALLEL,
                               DeviceGeometry, NonpositiveGradient,
                               WireSpec,
                               ZeroFieldSite, device_constants, error_budget,
                               field_profile, gate_time_estimate,
                               geometry_from_text, geometry_to_text,
                               line_field, position_sensitivity,
                               pulse_duration, twin_wire_preset,
                               validate_currents)
from globalspin.spins import zeeman_angles

MU_0 = 4e-7 * math.pi


def test_line_field_magnitude_and_direction():
    w = WireSpec((0.0, 0.0), (1e-8, 1e-8), 1e-3, 1e12)
    d = 2e-7
    bx, bz = line_field(w, (d, 0.0))
    # Field circles the wire: at +x displacement it points along -z.
    assert bx == 0.0
    assert abs(bz + MU_0 * 1e-3 / (2 * math.pi * d)) < 1e-18
    bx, bz = line_field(w, (0.0, d))
    assert bz == 0.0
    assert abs(bx - MU_0 * 1e-3 / (2 * math.pi * d)) < 1e-18


def test_line_field_rejects_interior_point():
    w = WireSpec((0.0, 0.0), (1e-7, 1e-7), 1e-3, 1e12)
    with pytest.raises(ValueError, match=r"^point \(1e-08, 0\.0\) inside "
                       r"wire at \(0\.0, 0\.0\)$"):
        line_field(w, (1e-8, 0.0))


def test_preset_transverse_components_cancel():
    g = twin_wire_preset(4)
    par = field_profile(g, PARALLEL)
    for bx, bz in par.site_fields:
        # Mirror-symmetric wires with equal currents: x components cancel.
        assert abs(bx) <= 1e-15
        assert abs(bz) > 1e-4
    anti = field_profile(g, ANTIPARALLEL)
    for bx, bz in anti.site_fields:
        assert abs(bz) <= 1e-15
        assert abs(bx) > 1e-4


def test_preset_neighbor_increment_is_0p28_mt():
    g = twin_wire_preset(4)
    for config in (PARALLEL, ANTIPARALLEL):
        c = device_constants(field_profile(g, config))
        db = c.amplitude_tesla * abs(c.ratios[0] - c.ratios[1])
        assert abs(db - 0.28e-3) < 0.05 * 0.28e-3


def test_preset_ratios():
    g = twin_wire_preset(4)
    par = device_constants(field_profile(g, PARALLEL))
    assert par.ratios[0] == 1.0
    assert abs(par.ratios[1] - 0.75) < 0.01
    anti = device_constants(field_profile(g, ANTIPARALLEL))
    assert anti.ratios[0] == 1.0
    assert abs(anti.ratios[1] - 0.5) < 0.01
    # Alternating site positions: ratios repeat with period 2.
    assert abs(par.ratios[2] - par.ratios[0]) < 1e-12
    assert abs(par.ratios[3] - par.ratios[1]) < 1e-12
    assert par.degenerate_neighbor_pairs == ()


def test_field_profile_rejects_unknown_config():
    g = twin_wire_preset(2)
    with pytest.raises(ValueError):
        field_profile(g, "sideways")
    with pytest.raises(ValueError):
        device_constants(dev.FieldProfile("sideways", ((1e-3, 1e-3),)))


def test_device_constants_zero_field_site():
    fp = dev.FieldProfile(PARALLEL, ((0.0, 0.0), (0.0, 1e-3)))
    with pytest.raises(ZeroFieldSite):
        device_constants(fp)


def test_pulse_duration_values():
    # pi at the full site field and at the neighbor increment.
    t_full = pulse_duration(math.pi, 1.8e-3, 2.0)
    assert abs(t_full - 10e-9) < 0.02 * 10e-9
    t_inc = pulse_duration(math.pi, 0.28e-3, 2.0)
    assert abs(t_inc - 64e-9) < 0.02 * 64e-9
    # The duration inverts the Zeeman angle.
    assert abs(zeeman_angles((2.0,), (1.8e-3,), t_full)[0] - math.pi) < 1e-15


def test_pulse_duration_rejects_nonpositive_increment():
    with pytest.raises(NonpositiveGradient):
        pulse_duration(math.pi, 0.0, 2.0)


@pytest.mark.parametrize("g", [0.0, -2.0, math.nan])
def test_pulse_duration_rejects_bad_g(g):
    with pytest.raises(ValueError, match="g must be finite and positive"):
        pulse_duration(1.0, 1e-3, g)


def test_validate_currents_margin():
    g = twin_wire_preset(2)
    checks = validate_currents(g)
    assert all(w.ok for w in checks)
    # 2.2e10 A/m^2 over 200x200 nm caps at 0.88 mA.
    assert abs(checks[0].limit_a - 0.88e-3) < 1e-12
    assert abs(checks[0].margin_a - 0.18e-3) < 1e-10
    hot = DeviceGeometry(tuple(
        WireSpec(w.center, w.cross_section, 1.0e-3,
                 w.critical_current_density) for w in g.wires), g.sites)
    assert not all(w.ok for w in validate_currents(hot))


def test_error_budget():
    # Coherent addition: amplitude errors add linearly, so the per-pulse
    # share of a 1e-4 logical target is sqrt(1e-4)/21 = 4.76e-4.
    assert abs(error_budget(21, 1e-4) - 1e-2 / 21) == 0.0
    assert abs(error_budget(21, 1e-4) - 4.76e-4) < 2e-6
    with pytest.raises(ValueError):
        error_budget(0, 1e-2)


def test_gate_time_estimate():
    t = pulse_duration(math.pi, 0.28e-3, 2.0)
    total = gate_time_estimate(21, t)
    assert abs(total - 1.34e-6) < 0.01e-6
    with pytest.raises(ValueError):
        gate_time_estimate(-1, 1e-9)


def test_position_sensitivity_band():
    g = twin_wire_preset(4)
    tol = position_sensitivity(g, error_budget(21, 1e-4))
    assert 0.5e-10 <= tol <= 2.0e-10
    with pytest.raises(ValueError):
        position_sensitivity(g, 0.0)


def test_position_sensitivity_needs_two_sites():
    g = twin_wire_preset(4)
    for n in (0, 1):
        with pytest.raises(NonpositiveGradient):
            position_sensitivity(replace(g, sites=g.sites[:n]),
                                 error_budget(21, 1e-4))


def test_twin_wire_preset_layout():
    g = twin_wire_preset(12)
    assert g.is_twin_wire
    assert len(g.sites) == 12
    xs = [s.position[0] for s in g.sites]
    assert xs[0] != xs[1]
    assert xs == [xs[k % 2] for k in range(12)]
    assert all(s.position[1] == 0.0 for s in g.sites)
    assert all(s.row_id == 0 for s in g.sites)
    assert g.wires[0].current == g.wires[1].current
    for n in (1, 4):
        assert twin_wire_preset(n) == replace(g, sites=g.sites[:n])
    for n in (0, 13):
        with pytest.raises(ValueError):
            twin_wire_preset(n)


def test_geometry_text_round_trip_is_exact():
    g = twin_wire_preset(4)
    text = geometry_to_text(g)
    back = geometry_from_text(text)
    assert back == g
    assert geometry_to_text(back) == text


def test_geometry_text_errors():
    with pytest.raises(ValueError):
        geometry_from_text("")
    g = twin_wire_preset(2)
    text = geometry_to_text(g)
    with pytest.raises(ValueError):
        geometry_from_text(text + "BOGUS 1 2\n")
