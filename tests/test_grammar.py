"""The line grammar shared by the four text formats, and the round trip of
each format's writer through its strict reader."""

import math
import os

import numpy as np
import pytest

from globalspin.circuits import (Circuit, Exchange, GlobalField, XYExchange,
                                 circuit_from_text, circuit_to_text)
from globalspin.device import (DeviceGeometry, SpinSite, WireSpec,
                               geometry_from_text, geometry_to_text)
from globalspin.grammar import fields, keyed, preset_path, walk
from globalspin.schedule import (ExchangeEvent, FieldEvent, Schedule,
                                 schedule_from_text, schedule_to_text)
from globalspin.spins import AXES, RegisterSpec
from globalspin.synth import (FAMILIES, PulseTemplate, SynthesisProblem,
                              problem_from_text, problem_to_text)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
PRESET_GEOMETRY = preset_path("twin_wire_zigzag")
SCHEDULES = [os.path.join(FIXTURES, name + ".schedule.txt")
             for name in ("cp_tied", "rotation11")]
PROBLEM = ("PROBLEM name=p family=swap_pair_exchange length=3 exchange=2 "
           "xi=3.1415926535897931\nLETTER primary z +\n")


def read(path):
    with open(path, newline="") as fh:
        return fh.read()


def preset_geometry():
    return geometry_from_text(read(PRESET_GEOMETRY))


@pytest.mark.parametrize("path", [PRESET_GEOMETRY] + SCHEDULES,
                         ids=os.path.basename)
def test_bundled_text_file_round_trips(path):
    # The sha256 of these files is in every report that reads them, so
    # writing back what was read must give the same bytes.
    text = read(path)
    if path == PRESET_GEOMETRY:
        assert geometry_to_text(geometry_from_text(text)) == text
    else:
        assert schedule_to_text(schedule_from_text(text,
                                                   preset_geometry())) == text


def test_line_numbers_count_blank_and_comment_lines():
    with pytest.raises(ValueError, match="^line 5: EX takes 3 fields"):
        circuit_from_text("\n# comment\nREG 2\n   \nEX 0 1\n")
    seen = []
    walk("# a\n\nA 1  # b\n\t\nB\n", None, lambda n, w: seen.append((n, w)))
    assert seen == [(3, ["A", "1"]), (5, ["B"])]


def test_crlf_and_tabs_read_like_lf_and_spaces():
    c = Circuit(RegisterSpec(3), (Exchange(0, 2, -0.5), XYExchange(1, 2, 2.0),
                                  GlobalField("x", (0.1, -0.2, 1e-300))))
    texts = [(circuit_from_text, circuit_to_text(c)),
             (geometry_from_text, read(PRESET_GEOMETRY)),
             (problem_from_text, PROBLEM),
             (lambda t: schedule_from_text(t, preset_geometry()),
              read(SCHEDULES[0]))]
    for parse, text in texts:
        odd = text.replace(" ", "\t").replace("\n", "\r\n")
        assert odd != text
        assert parse(odd) == parse(text)


@pytest.mark.parametrize("parse, message", [
    (circuit_from_text, "missing REG header"),
    (problem_from_text, "missing PROBLEM header"),
    (lambda t: schedule_from_text(t, preset_geometry()),
     "missing SCHEDULE header"),
    (geometry_from_text, "at least one wire and one site"),
])
@pytest.mark.parametrize("text", ["", "\n# only a comment\n\n"])
def test_empty_text_raises_the_missing_header_error(parse, message, text):
    with pytest.raises(ValueError, match=message):
        parse(text)


def test_bad_header_value_names_its_line_and_key():
    with pytest.raises(ValueError, match="^line 1: length: invalid literal"):
        problem_from_text(PROBLEM.replace("length=3", "length=abc"))
    with pytest.raises(ValueError, match="^line 1: active_row: invalid"):
        schedule_from_text(read(SCHEDULES[0]).replace("active_row=0",
                                                      "active_row=x"),
                           preset_geometry())
    with pytest.raises(ValueError, match="^line 4: width_nm: could not"):
        geometry_from_text(read(PRESET_GEOMETRY).replace(
            "width_nm = 200.0", "width_nm = wide", 1))


def test_fields_and_keyed_are_exact():
    assert fields(["EX", "0", "1", "2.5"], int, int, float) == (0, 1, 2.5)
    with pytest.raises(ValueError, match="EX takes 3 fields, got 2"):
        fields(["EX", "0", "1"], int, int, float)
    kinds = {"a": int, "b": str}
    assert keyed(["a=1", "b = x"], kinds, {}, ("a",)) == {"a": 1, "b": "x"}
    for words, message in ((["a=1", "a=2"], "repeated key 'a'"),
                           (["c=1"], "expected key=value"),
                           (["a"], "expected key=value"),
                           (["b=x"], "missing key a")):
        with pytest.raises(ValueError, match=message):
            keyed(words, kinds, {}, ("a",))


def random_angle(rng):
    special = (-1e-300, 1e-300, 1e3, -1e3, 0.0, -math.pi)
    if rng.random() < 0.3:
        return special[rng.integers(len(special))]
    return float(rng.uniform(-10.0, 10.0))


def random_circuit(rng):
    n = int(rng.integers(1, 7))
    ops = []
    for _ in range(int(rng.integers(0, 8))):
        kind = "GF" if n == 1 else ("EX", "XY", "GF")[rng.integers(3)]
        if kind == "GF":
            ops.append(GlobalField(AXES[rng.integers(3)],
                                   tuple(random_angle(rng) for _ in range(n))))
        else:
            i, j = (int(k) for k in rng.choice(n, size=2, replace=False))
            ops.append((Exchange if kind == "EX" else XYExchange)(
                i, j, random_angle(rng)))
    return Circuit(RegisterSpec(n), tuple(ops))


def random_geometry(rng):
    # Lengths and currents are drawn in the file's units (nm, mA) and scaled
    # as the reader scales them. An SI value not of that form can come back
    # one ulp off, since the file holds it divided by the scale.
    def nm():
        return float(rng.uniform(-500.0, 500.0)) * 1e-9

    wires = tuple(WireSpec(center=(nm(), nm()),
                           cross_section=(float(rng.uniform(1, 400)) * 1e-9,
                                          float(rng.uniform(1, 400)) * 1e-9),
                           current=float(rng.uniform(-2, 2)) * 1e-3,
                           critical_current_density=float(rng.uniform(1e9,
                                                                      1e11)))
                  for _ in range(int(rng.integers(1, 4))))
    sites = tuple(SpinSite(position=(nm(), nm()),
                           g_factor=float(rng.uniform(0.1, 3.0)),
                           row_id=int(rng.integers(0, 3)))
                  for _ in range(int(rng.integers(1, 6))))
    return DeviceGeometry(wires=wires, sites=sites)


def random_problem(rng):
    family = list(FAMILIES.values())[rng.integers(len(FAMILIES))]
    length = int(rng.integers(1, 12))
    alphabet = tuple(PulseTemplate(AXES[rng.integers(3)],
                                   family.symbols[rng.integers(
                                       len(family.symbols))],
                                   int(rng.choice((1, -1))))
                     for _ in range(int(rng.integers(0, 5))))
    return SynthesisProblem(
        name=f"p{rng.integers(1000)}", family=family.name, length=length,
        n_exchange=int(rng.integers(0, length + 1)), alphabet=alphabet,
        xi=random_angle(rng), tolerance=float(10.0 ** rng.uniform(-14, -1)),
        search_samples=int(rng.integers(1, 50)),
        verify_samples=int(rng.integers(1, 200)),
        verify_spins=int(rng.integers(2, 13)))


@pytest.mark.parametrize("make, write, read_back", [
    (random_circuit, circuit_to_text, circuit_from_text),
    (random_geometry, geometry_to_text, geometry_from_text),
    (random_problem, problem_to_text, problem_from_text),
], ids=("circuit", "geometry", "problem"))
def test_writer_output_reads_back_equal(make, write, read_back):
    rng = np.random.default_rng(20031016)
    for _ in range(200):
        obj = make(rng)
        text = write(obj)
        assert read_back(text) == obj, text
        assert write(read_back(text)) == text


def random_schedule(rng, geometry):
    n = int(rng.integers(2, len(geometry.sites) + 1))
    t, events = 0.0, []
    for _ in range(int(rng.integers(0, 10))):
        d = float(10.0 ** rng.uniform(-12, -5))
        if rng.random() < 0.5:
            events.append(FieldEvent(t, d, ("parallel", "antiparallel")[
                rng.integers(2)], int(rng.choice((1, -1))),
                float(rng.uniform(0, 2))))
        else:
            i, j = (int(k) for k in rng.choice(n, size=2, replace=False))
            events.append(ExchangeEvent(t, d, ((i, j, random_angle(rng)),)))
        t += d
    return Schedule(RegisterSpec(n), tuple(events), geometry, "g", 0)


def test_schedule_times_write_the_same_bytes_after_a_read():
    # Times are written as ns to 17 digits and read back divided by 1e9;
    # multiplying by 1e-9 instead changes about a third of the texts.
    rng = np.random.default_rng(10 ** 9)
    geometry = preset_geometry()
    for _ in range(200):
        s = random_schedule(rng, geometry)
        text = schedule_to_text(s)
        back = schedule_from_text(text, geometry)
        assert schedule_to_text(back) == text
        for a, b in zip(back.events, s.events):
            assert a.t_start == pytest.approx(b.t_start, rel=1e-15, abs=0)
            assert a.duration == pytest.approx(b.duration, rel=1e-15)
