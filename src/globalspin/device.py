"""Twin-wire device model: magnetic fields at the spin sites, per-site
amplitude ratios, pulse durations, current limits, and error budgets.

Geometry lives in the x-z plane; wires run along y, and each wire's field
is the Biot-Savart field of an infinite line through its center. Sites sit
on the z = 0 plane midway between the wires; that choice is what makes one
field component cancel exactly in each current configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

from .grammar import finite, keyed, preset_path, walk
from .spins import zeeman_angles

MU_0 = 4e-7 * math.pi  # T*m/A

PARALLEL = "parallel"
ANTIPARALLEL = "antiparallel"
# Field axis that survives the symmetry cancellation in each configuration.
ACTIVE_AXIS = {PARALLEL: "z", ANTIPARALLEL: "x"}
# Central-difference step of position_sensitivity: 0.01 nm, in meters.
POSITION_STEP = 1e-11


class ZeroFieldSite(ValueError):
    """A site sees no field on the active axis; ratios are undefined."""


class NonpositiveGradient(ValueError):
    """Pulse duration needs a positive field increment."""


@dataclass(frozen=True)
class WireSpec:
    """Current-carrying wire along y. Positions and sizes in meters."""

    center: Tuple[float, float]  # (x, z)
    cross_section: Tuple[float, float]  # (width, height)
    current: float  # amperes, positive along +y
    critical_current_density: float  # A/m^2

    def __post_init__(self) -> None:
        if self.cross_section[0] <= 0 or self.cross_section[1] <= 0:
            raise ValueError(f"cross-section must be positive: {self.cross_section}")

    @property
    def area(self) -> float:
        return self.cross_section[0] * self.cross_section[1]

    def contains(self, point: Tuple[float, float]) -> bool:
        dx = abs(point[0] - self.center[0])
        dz = abs(point[1] - self.center[1])
        return dx <= self.cross_section[0] / 2 and dz <= self.cross_section[1] / 2


@dataclass(frozen=True)
class SpinSite:
    position: Tuple[float, float]  # (x, z) meters
    g_factor: float = 2.0
    row_id: int = 0


@dataclass(frozen=True)
class DeviceGeometry:
    wires: tuple
    sites: tuple

    @property
    def is_twin_wire(self) -> bool:
        return len(self.wires) == 2


@dataclass(frozen=True)
class FieldProfile:
    """Per-site (B^x, B^z) in tesla under one current configuration."""

    config: str
    site_fields: tuple  # of (bx, bz)

    def component(self, axis: str) -> tuple:
        k = 0 if axis == "x" else 1
        return tuple(f[k] for f in self.site_fields)


@dataclass(frozen=True)
class DeviceConstants:
    """Dimensionless per-site ratios a_i (max 1) and the amplitude scale."""

    axis: str
    ratios: tuple
    amplitude_tesla: float
    degenerate_neighbor_pairs: tuple


def line_field(w: WireSpec, point: Tuple[float, float]) -> Tuple[float, float]:
    """Infinite straight-wire field at point: mu0 I/(2 pi |d|^2) (d_z, -d_x)."""
    if w.contains(point):
        raise ValueError(f"point {point} inside wire at {w.center}")
    dx = point[0] - w.center[0]
    dz = point[1] - w.center[1]
    r2 = dx * dx + dz * dz
    coef = MU_0 * w.current / (2.0 * math.pi * r2)
    return (coef * dz, -coef * dx)


def field_profile(g: DeviceGeometry, config: str) -> FieldProfile:
    """Superposed line fields at every site under a current configuration.

    parallel keeps the stored currents; antiparallel negates every wire
    after the first.
    """
    if config not in ACTIVE_AXIS:
        raise ValueError(f"unknown config {config!r}")
    signs = [1.0 if config == PARALLEL or k == 0 else -1.0
             for k in range(len(g.wires))]
    fields = []
    for site in g.sites:
        bx = 0.0
        bz = 0.0
        for w, sign in zip(g.wires, signs):
            fx, fz = line_field(w, site.position)
            bx += sign * fx
            bz += sign * fz
        fields.append((bx, bz))
    return FieldProfile(config=config, site_fields=tuple(fields))


def device_constants(fp: FieldProfile) -> DeviceConstants:
    """Normalize the active-axis site fields to ratios with max 1."""
    axis = ACTIVE_AXIS.get(fp.config)
    if axis is None:
        raise ValueError(f"unknown config {fp.config!r}")
    comp = fp.component(axis)
    mags = [abs(b) for b in comp]
    amp = max(mags) if mags else 0.0
    if amp <= 0.0 or any(m <= 0.0 for m in mags):
        raise ZeroFieldSite(f"axis {axis} field vanishes at some site")
    ratios = tuple(m / amp for m in mags)
    degenerate = tuple(
        (k, k + 1) for k in range(len(ratios) - 1)
        if abs(ratios[k] - ratios[k + 1]) < 1e-12)
    return DeviceConstants(axis=axis, ratios=ratios, amplitude_tesla=amp,
                           degenerate_neighbor_pairs=degenerate)


def pulse_duration(delta_theta: float, delta_b: float, g: float) -> float:
    """Duration for a relative rotation delta_theta across increment delta_b."""
    if not 0.0 < g < math.inf:
        raise ValueError(f"g must be finite and positive, got {g}")
    if delta_b <= 0.0:
        raise NonpositiveGradient(f"delta_b = {delta_b}")
    return delta_theta / zeeman_angles((g,), (delta_b,), 1.0)[0]


@dataclass(frozen=True)
class WireCurrentCheck:
    current_a: float
    limit_a: float
    margin_a: float
    ok: bool


def validate_currents(g: DeviceGeometry) -> tuple:
    """Per-wire check |I| <= J_c * area."""
    checks = []
    for w in g.wires:
        limit = w.critical_current_density * w.area
        checks.append(WireCurrentCheck(current_a=w.current, limit_a=limit,
                                       margin_a=limit - abs(w.current),
                                       ok=abs(w.current) <= limit))
    return tuple(checks)


def error_budget(n_pulses: int, logical_error_target: float) -> float:
    """Per-pulse amplitude accuracy when errors add coherently."""
    if n_pulses < 1:
        raise ValueError(f"n_pulses = {n_pulses}")
    return math.sqrt(logical_error_target) / n_pulses


def gate_time_estimate(n_pulses: int, pulse_duration_s: float) -> float:
    if n_pulses < 0 or pulse_duration_s < 0:
        raise ValueError("inputs must be nonnegative")
    return n_pulses * pulse_duration_s


def _neighbor_gradient(g: DeviceGeometry, config: str) -> float:
    axis = ACTIVE_AXIS[config]
    comp = field_profile(g, config).component(axis)
    return abs(comp[0] - comp[1])


def position_sensitivity(g: DeviceGeometry, per_pulse_error: float,
                         config: str = PARALLEL) -> float:
    """Wire placement tolerance keeping the relative gradient error within
    per_pulse_error.

    Differentiates the neighbor field increment with respect to each wire
    center coordinate by central differences (POSITION_STEP) and divides the
    allowed increment error by the worst sensitivity. A geometry of fewer
    than two sites has no neighbor increment: NonpositiveGradient.
    """
    if per_pulse_error <= 0.0:
        raise ValueError(f"per_pulse_error = {per_pulse_error}")
    if len(g.sites) < 2:
        raise NonpositiveGradient(f"{len(g.sites)} site(s), no neighbor pair")
    base = _neighbor_gradient(g, config)
    worst = 0.0
    for wk in range(len(g.wires)):
        for coord in (0, 1):
            shifted = []
            for sgn in (+1.0, -1.0):
                wires = list(g.wires)
                center = list(wires[wk].center)
                center[coord] += sgn * POSITION_STEP
                wires[wk] = replace(wires[wk], center=tuple(center))
                shifted.append(_neighbor_gradient(
                    DeviceGeometry(tuple(wires), g.sites), config))
            deriv = abs(shifted[0] - shifted[1]) / (2.0 * POSITION_STEP)
            worst = max(worst, deriv)
    if worst == 0.0:
        raise ValueError("gradient insensitive to wire position; check geometry")
    return per_pulse_error * base / worst


def _positive(word: str) -> float:
    value = finite(word)
    if value <= 0:
        raise ValueError(f"must be positive, got {word}")
    return value


# The keys of each block, in the order geometry_to_text writes them.
_BLOCK_KEYS = {
    "wire": dict.fromkeys(("center_x_nm", "center_z_nm", "width_nm",
                           "height_nm", "current_mA", "jc_A_per_m2"), finite),
    "site": {"x_nm": finite, "z_nm": finite, "g": _positive, "row": int},
}


def geometry_to_text(g: DeviceGeometry) -> str:
    # repr gives the shortest digits that parse back to the same float, and
    # dividing by the factor the parser multiplies by keeps the round trip
    # exact; scaling by the reciprocal would lose the last ulp.
    blocks = [("wire", (w.center[0] / 1e-9, w.center[1] / 1e-9,
                        w.cross_section[0] / 1e-9, w.cross_section[1] / 1e-9,
                        w.current / 1e-3, w.critical_current_density))
              for w in g.wires]
    blocks += [("site", (s.position[0] / 1e-9, s.position[1] / 1e-9,
                         s.g_factor, s.row_id)) for s in g.sites]
    return "\n".join(f"[{kind}]\n" + "".join(
        f"{key} = {value!r}\n" for key, value in zip(_BLOCK_KEYS[kind], values))
        for kind, values in blocks)


def geometry_from_text(text: str) -> DeviceGeometry:
    """Read what geometry_to_text writes: `[wire]` and `[site]` blocks."""
    blocks = []  # (lineno, kind, values)

    def line(lineno, words):
        if len(words) == 1 and words[0] in ("[wire]", "[site]"):
            blocks.append((lineno, words[0][1:-1], {}))
        elif not blocks:
            raise ValueError("expected [wire] or [site]")
        else:
            _, kind, values = blocks[-1]
            keyed([" ".join(words)], _BLOCK_KEYS[kind], values)

    walk(text, None, line)
    wires, sites = [], []
    for lineno, kind, v in blocks:
        try:  # g and row may be left out
            keyed((), _BLOCK_KEYS[kind], v, [key for key in _BLOCK_KEYS[kind]
                                             if key not in ("g", "row")])
            if kind == "wire":
                wires.append(WireSpec(
                    center=(v["center_x_nm"] * 1e-9, v["center_z_nm"] * 1e-9),
                    cross_section=(v["width_nm"] * 1e-9,
                                   v["height_nm"] * 1e-9),
                    current=v["current_mA"] * 1e-3,
                    critical_current_density=v["jc_A_per_m2"]))
            else:
                sites.append(SpinSite(
                    position=(v["x_nm"] * 1e-9, v["z_nm"] * 1e-9),
                    g_factor=v.get("g", 2.0), row_id=v.get("row", 0)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: [{kind}] {exc}") from exc
    if not wires or not sites:
        raise ValueError("geometry needs at least one wire and one site")
    return DeviceGeometry(wires=tuple(wires), sites=tuple(sites))


def twin_wire_preset(n_sites: int) -> DeviceGeometry:
    """The zig-zag preset file, the layout's only definition, cut to its
    first n_sites sites; n_sites runs from 1 to the file's site count."""
    with open(preset_path("twin_wire_zigzag")) as fh:
        g = geometry_from_text(fh.read())
    if not 1 <= n_sites <= len(g.sites):
        raise ValueError(f"n_sites must be in 1..{len(g.sites)}, got {n_sites}")
    return replace(g, sites=g.sites[:n_sites])
