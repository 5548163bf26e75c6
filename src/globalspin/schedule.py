"""Schedule compilation: lower a pulse circuit onto a device geometry as a
timed sequence of current configurations and exchange windows, and replay a
schedule back into a unitary for round-trip verification.

The replay stays factored (circuits.factor), so a check against its circuit
runs part by part and unitary_digest multiplies only surviving entries.

A field pulse is schedulable only when its per-spin angles are proportional
to the device's site fields under one current configuration; that constraint
is the hardware's defining restriction and violating it is a hard error, not
an approximation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .circuits import (Circuit, Exchange, GlobalField, XYExchange,
                       _exchange_groups, factor)
from .device import (ACTIVE_AXIS, DeviceGeometry, field_profile,
                     validate_currents)
from .grammar import fields, finite, keyed, walk
from .linalg import update_phase_normalized
from .spins import RegisterSpec, check_op, zeeman_angles

DEFAULT_EXCHANGE_DURATION = 10e-9  # seconds
DURATION_CAP = 1e-5  # seconds, for every field pulse and exchange window
# Relative residual allowed when fitting angles to the site-field profile.
REALIZABLE_RTOL = 1e-9
DIGEST_BLOCK = 1 << 16  # entries per row block of a digest: 1 MB

CONFIG_FOR_AXIS = {axis: cfg for cfg, axis in ACTIVE_AXIS.items()}
# The header key records the Zeeman convention of spins.zeeman_angles, the
# only one there is; files carrying any other value are rejected.
CONVENTION = "full_gyromagnetic"


class UnrealizableAngles(ValueError):
    """Field pulse angles not proportional to any device profile."""

    def __init__(self, op_index: int, message: str) -> None:
        super().__init__(f"op {op_index}: {message}")
        self.op_index = op_index


class DurationCapExceeded(ValueError):
    def __init__(self, op_index: int, duration: float, cap: float) -> None:
        super().__init__(f"op {op_index}: duration {duration * 1e9:.12g} ns "
                         f"over cap {cap * 1e9:g} ns")
        self.op_index = op_index


@dataclass(frozen=True)
class FieldEvent:
    t_start: float  # seconds
    duration: float
    config: str
    sign: int  # +1 keeps the stored currents, -1 reverses both
    current_ma: float


@dataclass(frozen=True)
class ExchangeEvent:
    t_start: float
    duration: float
    pairs: tuple  # of (i, j, xi), mutually disjoint


@dataclass(frozen=True)
class Schedule:
    register: RegisterSpec
    events: tuple
    geometry: DeviceGeometry
    geometry_name: str
    active_row: int

    def __post_init__(self) -> None:
        n, sites = self.register.n_spins, len(self.geometry.sites)
        if sites < n:
            raise ValueError(f"geometry has {sites} sites, register needs {n}")

    @property
    def total_time(self) -> float:
        if not self.events:
            return 0.0
        last = self.events[-1]
        return last.t_start + last.duration


def _site_fields(g: DeviceGeometry, n: int) -> dict:
    """{config: its active-axis field (T) at the first n sites}."""
    return {cfg: field_profile(g, cfg).component(axis)[:n]
            for cfg, axis in ACTIVE_AXIS.items()}


def compile_schedule(c: Circuit, g: DeviceGeometry,
                     exchange_duration: float = DEFAULT_EXCHANGE_DURATION,
                     geometry_name: str = "custom") -> Schedule:
    """Lower a circuit to a timed schedule on the given geometry.

    Field ops map to the configuration serving their axis (z -> parallel,
    x -> antiparallel); the signed proportionality scalar between the angle
    list and the site rates fixes duration and current direction. Exchange
    ops become windows of exchange_duration; an exchange that follows an
    exchange and shares no spin with the last window's pairs joins that
    window as a simultaneous pair.
    """
    n = c.register.n_spins
    if not 0 < exchange_duration <= DURATION_CAP:
        raise ValueError(f"exchange duration must be positive and at most "
                         f"the cap {DURATION_CAP * 1e9:g} ns, got "
                         f"{exchange_duration * 1e9:.12g} ns")
    start = Schedule(c.register, (), g, geometry_name, 0)  # checks g's sites
    # Per-site angle accumulation rates (rad/s) on each configuration's axis.
    gf = [site.g_factor for site in g.sites[:n]]
    rates = {cfg: zeeman_angles(gf, comp, 1.0)
             for cfg, comp in _site_fields(g, n).items()}
    current_ma = abs(g.wires[0].current) * 1e3
    events = []
    t = 0.0
    for idx, op in enumerate(c.ops):
        if isinstance(op, Exchange):
            pair = (op.i, op.j, op.xi)
            if idx and isinstance(c.ops[idx - 1], Exchange) and not (
                    {op.i, op.j} & {k for p in events[-1].pairs for k in p[:2]}):
                events[-1] = replace(events[-1],
                                     pairs=events[-1].pairs + (pair,))
            else:
                events.append(ExchangeEvent(t, exchange_duration, (pair,)))
                t += exchange_duration
            continue
        if isinstance(op, XYExchange):
            raise UnrealizableAngles(idx, "planar exchange has no device configuration")
        config = CONFIG_FOR_AXIS.get(op.axis)
        if config is None:
            raise UnrealizableAngles(idx, f"no configuration drives axis {op.axis!r}")
        w = rates[config]
        angles = op.angles
        if all(abs(a) < 1e-15 for a in angles):
            continue  # identity pulse, nothing to schedule
        denom = sum(r * r for r in w)
        if not denom > 0:
            raise UnrealizableAngles(idx, f"no site feels the {config} field")
        scale = sum(a * r for a, r in zip(angles, w)) / denom
        worst = max(abs(a - scale * r) for a, r in zip(angles, w))
        if worst > REALIZABLE_RTOL * max(abs(a) for a in angles):
            raise UnrealizableAngles(
                idx, f"angles not proportional to the {config} profile "
                     f"(residual {worst:.3e})")
        duration = abs(scale)
        if duration > DURATION_CAP:
            raise DurationCapExceeded(idx, duration, DURATION_CAP)
        events.append(FieldEvent(t_start=t, duration=duration, config=config,
                                 sign=1 if scale >= 0 else -1,
                                 current_ma=current_ma))
        t += duration
    rows = {g.sites[s].row_id
            for e in events if isinstance(e, ExchangeEvent)
            for (i, j, _) in e.pairs for s in (i, j)}
    if len(rows) > 1:
        raise ValueError(f"exchange pairs span rows {sorted(rows)}; one row only")
    return replace(start, events=tuple(events),
                   active_row=rows.pop() if rows else 0)


def simulate_schedule(s: Schedule, c: Optional[Circuit] = None) -> tuple:
    """Replay the schedule, first event applied first, into the parts of
    circuits.factor: on the groups its exchanges link, or, given the
    circuit c, those the exchanges of both link.

    The events become the ops of a Circuit, so a pair outside the register
    or a non-finite duration is a ValueError.
    """
    n = s.register.n_spins
    gf = [site.g_factor for site in s.geometry.sites[:n]]
    comps = _site_fields(s.geometry, n)
    ops = []
    for ev in s.events:
        if isinstance(ev, FieldEvent):
            signed = [ev.sign * b for b in comps[ev.config]]
            ops.append(GlobalField(ACTIVE_AXIS[ev.config],
                                   zeeman_angles(gf, signed, ev.duration)))
        elif isinstance(ev, ExchangeEvent):
            ops.extend(Exchange(i, j, xi) for (i, j, xi) in ev.pairs)
        else:
            raise TypeError(f"not an event: {ev!r}")
    replay = Circuit(s.register, tuple(ops))
    return factor(replay, None if c is None else _exchange_groups(
        n, replay.ops + c.ops))


@dataclass(frozen=True)
class ScheduleCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ScheduleReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def validate_schedule(s: Schedule) -> ScheduleReport:
    """Itemized constraint report: timing, currents, pair and row addressing."""
    geom = s.geometry
    checks = []
    overlap_ok = True
    detail = "events strictly sequential"
    prev_end = -math.inf
    for ev in s.events:
        if not (math.isfinite(ev.duration) and ev.duration > 0):
            overlap_ok = False
            detail = f"nonpositive or non-finite duration at t={ev.t_start}"
            break
        if ev.t_start < prev_end - 1e-12:
            overlap_ok = False
            detail = f"overlap at t={ev.t_start}"
            break
        prev_end = ev.t_start + ev.duration
    checks.append(ScheduleCheck("non_overlap", overlap_ok, detail))
    cur = validate_currents(geom)
    detail = "; ".join(f"|I|={w.current_a * 1e3:.3f} mA limit={w.limit_a * 1e3:.3f} mA"
                       for w in cur)
    # Field rows carry the drive current only as an annotation; simulation
    # uses the geometry's configured current, so a disagreeing annotation
    # means the file no longer describes this geometry.
    drive_ma = abs(geom.wires[0].current) * 1e3
    mismatched = [ev for ev in s.events
                  if isinstance(ev, FieldEvent)
                  and abs(ev.current_ma - drive_ma) > 1e-9 * max(drive_ma, 1.0)]
    if mismatched:
        ev = mismatched[0]
        detail += (f"; event at t={ev.t_start * 1e9:.6f} ns records "
                   f"{ev.current_ma} mA, geometry drives {drive_ma} mA")
    checks.append(ScheduleCheck(
        "current_limits", all(w.ok for w in cur) and not mismatched, detail))
    disjoint_ok = True
    detail = "exchange pairs disjoint"
    for ev in s.events:
        if isinstance(ev, ExchangeEvent):
            spins = [s_ for (i, j, _) in ev.pairs for s_ in (i, j)]
            if len(spins) != len(set(spins)):
                disjoint_ok = False
                detail = f"shared spin in event at t={ev.t_start}"
                break
    checks.append(ScheduleCheck("pair_disjointness", disjoint_ok, detail))
    off_row = next((spin for ev in s.events if isinstance(ev, ExchangeEvent)
                    for (i, j, _) in ev.pairs for spin in (i, j)
                    if geom.sites[spin].row_id != s.active_row), None)
    checks.append(ScheduleCheck(
        "row_addressing", off_row is None,
        f"active row {s.active_row}" if off_row is None
        else f"spin {off_row} outside row {s.active_row}"))
    mixed_ok = all(isinstance(ev, (FieldEvent, ExchangeEvent)) for ev in s.events)
    checks.append(ScheduleCheck("event_kinds", mixed_ok,
                                "field and exchange windows never overlap"))
    return ScheduleReport(checks=tuple(checks))


def schedule_to_text(s: Schedule) -> str:
    """Header plus one event per line; times in ns to 17 significant
    digits, which schedule_from_text reads back to text that writes the
    same bytes."""
    lines = [f"SCHEDULE register={s.register.n_spins} "
             f"geometry={s.geometry_name} convention={CONVENTION} "
             f"active_row={s.active_row}"]
    for ev in s.events:
        times = f"{ev.t_start * 1e9:.17g} {ev.duration * 1e9:.17g}"
        if isinstance(ev, FieldEvent):
            lines.append(f"F {times} {ev.config} "
                         f"{ev.sign:+d} {ev.current_ma!r}")
        else:
            pairs = ",".join(f"({i},{j},{xi:.17g})" for (i, j, xi) in ev.pairs)
            lines.append(f"E {times} {pairs}")
    return "\n".join(lines) + "\n"


_SCHEDULE_KEYS = {"register": lambda w: RegisterSpec(int(w)), "geometry": str,
                  "convention": str, "active_row": int}


def schedule_from_text(text: str, geometry: DeviceGeometry) -> Schedule:
    """Read what schedule_to_text writes, checking each pair at its line."""
    parts = []  # the header's schedule with no events, then the events

    def line(lineno, words):
        if words[0] == "SCHEDULE":
            head = keyed(words[1:], _SCHEDULE_KEYS, {},
                         ("register", "convention"))
            if head["convention"] != CONVENTION:
                raise ValueError(f"convention must be {CONVENTION}, "
                                 f"got {head['convention']!r}")
            parts.append(Schedule(head["register"], (), geometry,
                                  head.get("geometry", "custom"),
                                  head.get("active_row", 0)))
            return
        if words[0] == "F":
            t_ns, d_ns, config, sign, current_ma = fields(
                words, finite, finite, str, int, finite)
            if config not in ACTIVE_AXIS or sign not in (1, -1):
                raise ValueError(f"config must be {' or '.join(ACTIVE_AXIS)} "
                                 f"and sign +1 or -1, got {config} {words[4]}")
            # finite: validate_schedule compares the current annotation with
            # the geometry's drive, and a NaN would pass that comparison.
            ev = FieldEvent(t_ns / 1e9, d_ns / 1e9, config, sign, current_ma)
        elif words[0] == "E":
            t_ns, d_ns, word = fields(words, finite, finite, str)
            triples = [t.split(",") for t in word[1:-1].split("),(")]
            if word[0] + word[-1] != "()" or any(len(t) != 3 for t in triples):
                raise ValueError(f"expected (i,j,xi) triples joined by commas, "
                                 f"got {word!r}")
            pairs = tuple((int(i), int(j), float(x)) for i, j, x in triples)
            for i, j, xi in pairs:
                check_op(parts[0].register, Exchange(i, j, xi))
            ev = ExchangeEvent(t_ns / 1e9, d_ns / 1e9, pairs)
        else:
            raise ValueError(f"unknown directive {words[0]!r}")
        if d_ns < 0:
            raise ValueError(f"duration must be nonnegative, got {words[2]}")
        # The cap in the file's unit, converted as schedule_to_text converts
        # a duration, so an event at the cap reads back.
        if d_ns > DURATION_CAP * 1e9:
            raise ValueError(f"duration {words[2]} ns over cap "
                             f"{DURATION_CAP * 1e9:g} ns")
        parts.append(ev)

    walk(text, "SCHEDULE", line)
    return replace(parts[0], events=tuple(parts[1:]))


def unitary_digest(u) -> str:
    """Phase-normalized sha256 fingerprint of a unitary, for golden checks:
    a matrix (one part) or factor's parts, whose joined bits are hashed in
    row blocks of DIGEST_BLOCK entries: the form does not matter."""
    if isinstance(u, np.ndarray):
        u = ((tuple(range(len(u).bit_length() - 1)),
              np.asarray(u, dtype=complex)),)
    n = sum(len(g) for g, _ in u)
    h = hashlib.sha256(str((1 << n, 1 << n)).encode())
    update_phase_normalized(h, u, min(1 << n, max(1, (1 << 2 * n) // DIGEST_BLOCK)))
    return h.hexdigest()
