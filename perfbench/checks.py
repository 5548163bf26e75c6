"""Independent checks on the outputs of globalspin.

Everything here is rebuilt from Pauli matrices, scipy.linalg.expm and a
phase distance of the benchmark's own, never from the package's pulse
kernels, so a fault in the package cannot pass its own output. Each check
returns a list of failure messages; an empty list means the output holds.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Device constants the package pins (spins.MU_BOHR, spins.HBAR) and the
# vacuum permeability of the line-field model. They define the schedule
# format's time scale, so the replay must use the same values.
MU_BOHR = 9.27e-24
HBAR = 1.0546e-34
MU_0 = 4e-7 * math.pi

# Paper's refocused ordering of the 11-step rotation (merged pulse first).
CANONICAL_ROTATION = ("merged+", "EX", "primary-", "EX", "pi_step+", "EX",
                      "pi_step-", "companion-", "pi_step+", "EX", "pi_step-")
ROTATION_SYMBOL_AXIS = {"primary": "z", "companion": "z", "merged": "z",
                        "pi_step": "x"}


def phase_dist(u: np.ndarray, v: np.ndarray) -> float:
    """min over phi of ||u - e^{i phi} v||_F / sqrt(dim)."""
    t = np.vdot(v, u)
    if abs(t) == 0.0:
        return math.sqrt(2.0)
    return float(np.linalg.norm(u - (t / abs(t)) * v) / math.sqrt(u.shape[0]))


def site_op(n: int, k: int, m: np.ndarray) -> np.ndarray:
    """2x2 operator m on spin k (spin 0 is the leftmost factor)."""
    return np.kron(np.kron(np.eye(2 ** k), m), np.eye(2 ** (n - k - 1)))


def spin(n: int, k: int, axis: str) -> np.ndarray:
    return site_op(n, k, PAULI[axis] / 2.0)


def evolve(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i t h)."""
    return expm(-1j * t * h)


def field_pulse(n: int, axis: str, angles) -> np.ndarray:
    return evolve(sum(a * spin(n, k, axis) for k, a in enumerate(angles)))


def heisenberg(n: int, i: int, j: int) -> np.ndarray:
    return sum(spin(n, i, a) @ spin(n, j, a) for a in "xyz")


def planar(n: int, i: int, j: int) -> np.ndarray:
    return sum(spin(n, i, a) @ spin(n, j, a) for a in "xy")


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.sqrt(np.linalg.det(q).astype(complex))


# --- rotation search ---------------------------------------------------------

def _rotation_draw(rng: np.random.Generator, n: int):
    """Letter unitaries, the exchange and the target for one fresh draw."""
    while True:
        t_i, t_j = rng.uniform(0.2, math.pi - 0.2, size=2)
        if abs(t_i - t_j) > 0.1:
            break
    ratio = (t_i - t_j) / (t_i + t_j)
    b = rng.uniform(0.2, 2.9, size=n - 2)
    c = rng.uniform(0.2, 2.9, size=n - 2)
    d = rng.uniform(0.2, 2.9)
    primary = np.concatenate(([t_i, t_j], b))
    base = {"primary": primary, "companion": ratio * primary,
            "merged": (1.0 + ratio) * primary,
            "pi_step": np.concatenate(([d, d + math.pi], c))}
    letters = {}
    for sym, angles in base.items():
        for sign, mark in ((1.0, "+"), (-1.0, "-")):
            letters[sym + mark] = field_pulse(n, ROTATION_SYMBOL_AXIS[sym],
                                              sign * angles)
    letters["EX"] = evolve(heisenberg(n, 0, 1), math.pi)
    target = evolve(spin(n, 0, "z"), 2.0 * (t_i - t_j))
    return letters, target


def check_rotation_solutions(solutions, rng: np.random.Generator,
                             draws: int = 3, n: int = 4,
                             tol: float = 1e-10) -> list:
    """solutions: (letters, exchange_slots) pairs as the search reports them.

    Each must realize exp(-i 2(t_i - t_j) S_0^z) on n spins, up to global
    phase, for fresh draws of the pulse angles; the paper's ordering must be
    among them and no label sequence may repeat.
    """
    errors = []
    seen = set()
    for letters, slots in solutions:
        if letters in seen:
            errors.append(f"rotation: label sequence repeated: {letters}")
        seen.add(letters)
        ex_at = tuple(k for k, lab in enumerate(letters) if lab == "EX")
        if ex_at != tuple(slots):
            errors.append(f"rotation: slots {slots} disagree with letters {letters}")
    if CANONICAL_ROTATION not in seen:
        errors.append("rotation: the paper's refocused ordering is missing")
    for _ in range(draws):
        mats, target = _rotation_draw(rng, n)
        for letters, _ in solutions:
            if any(lab not in mats for lab in letters):
                errors.append(f"rotation: unknown letter in {letters}")
                continue
            u = np.eye(2 ** n, dtype=complex)
            for lab in letters:
                u = mats[lab] @ u
            d = phase_dist(u, target)
            if not d <= tol:
                errors.append(f"rotation: {','.join(letters)} misses the "
                              f"target by {d:.3e}")
    return errors


# --- Hadamard search ---------------------------------------------------------

def hadamard_distance(structure: str, params, profiles) -> float:
    """Rebuild a block sequence from its generators; distance to H (x) H."""
    prof = dict(profiles)
    az, ax = prof["z"], prof["x"]
    gens = {"E": heisenberg(2, 0, 1),
            "Z": az[0] * spin(2, 0, "z") + az[1] * spin(2, 1, "z"),
            "X": ax[0] * spin(2, 0, "x") + ax[1] * spin(2, 1, "x")}
    u = np.eye(4, dtype=complex)
    for kind, v in zip(structure, params):
        u = evolve(gens[kind], v) @ u
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return phase_dist(u, np.kron(h, h))


def check_hadamard(report, depth: int, tol: float = 1e-6) -> list:
    errors = []
    s = report.structure
    if not report.found:
        errors.append("hadamard: search reports no sequence")
    if not 1 <= len(s) <= depth or set(s) - set("EXZ"):
        errors.append(f"hadamard: structure {s!r} outside depth {depth}")
    if any(a == b for a, b in zip(s, s[1:])):
        errors.append(f"hadamard: structure {s!r} repeats a block type")
    if len(report.parameters) != len(s):
        errors.append("hadamard: one parameter per block expected")
        return errors
    d = hadamard_distance(s, report.parameters, report.profiles)
    if not d <= tol:
        errors.append(f"hadamard: {s} rebuilt is {d:.3e} from H(x)H")
    return errors


# --- schedules -----------------------------------------------------------------

def site_rates(geometry, n: int, config: str, convention: str):
    """Per-site rotation rate (rad/s) on the active axis, from the
    infinite-line Biot-Savart field of each wire."""
    axis_k = 1 if config == "parallel" else 0
    divisor = 2.0 if convention == "half_gyromagnetic" else 1.0
    rates = []
    for site in geometry.sites[:n]:
        b = [0.0, 0.0]
        for w_index, w in enumerate(geometry.wires):
            cur = w.current if (config == "parallel" or w_index == 0) else -w.current
            dx = site.position[0] - w.center[0]
            dz = site.position[1] - w.center[1]
            coef = MU_0 * cur / (2.0 * math.pi * (dx * dx + dz * dz))
            b[0] += coef * dz
            b[1] -= coef * dx
        rates.append(site.g_factor * MU_BOHR * b[axis_k] / (divisor * HBAR))
    return rates


def circuit_ops(c) -> list:
    """A package Circuit of field pulses and exchanges as plain tuples:
    ("F", axis, angles) or ("E", i, j, xi)."""
    return [("F", op.axis, op.angles) if hasattr(op, "axis")
            else ("E", op.i, op.j, op.xi) for op in c.ops]


def parse_schedule(text: str):
    """Header fields and events of a written schedule, in SI units."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    head = dict(p.split("=", 1) for p in lines[0].split()[1:])
    events = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "F":
            events.append(("F", float(parts[2]) * 1e-9, parts[3], int(parts[4])))
        else:
            pairs = []
            for chunk in parts[3].split("),"):
                i, j, xi = chunk.strip("()").split(",")
                pairs.append((int(i), int(j), float(xi)))
            events.append(("E", float(parts[2]) * 1e-9, tuple(pairs)))
    return head, events


def _apply(psi: np.ndarray, n: int, gate: np.ndarray, sites) -> np.ndarray:
    """Apply a 2^k x 2^k gate on the given sites to a batch of states."""
    k = len(sites)
    t = psi.reshape((2,) * n + (psi.shape[-1],))
    t = np.tensordot(gate.reshape((2,) * (2 * k)), t,
                     axes=(list(range(k, 2 * k)), list(sites)))
    t = np.moveaxis(t, list(range(k)), list(sites))
    return t.reshape(psi.shape)


def _states_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance between matching columns after one common phase."""
    t = np.vdot(b[:, 0], a[:, 0])
    phase = t / abs(t)
    return float(np.max(np.linalg.norm(a - phase * b, axis=0)))


# Written durations carry 6 decimals of a nanosecond.
DURATION_QUANTUM_S = 0.5e-15 * (1.0 + 1e-6)


def check_schedule(text: str, circuit_ops, n: int, geometry, target_gates,
                   rng: np.random.Generator, n_states: int = 4) -> list:
    """A written schedule against the circuit it was compiled from.

    circuit_ops: ("F", axis, angles) or ("E", i, j, xi) in circuit order.
    target_gates: (2x2 or 4x4 unitary, sites) whose product, applied in
    order, is the gate the circuit claims. Checks that every duration is
    finite and positive, that each field duration is the one the device
    physics fixes for its angles (to the format's 1 fs quantum), that the
    exchange pairs appear in circuit order, and that replaying the file on
    random states gives the claimed gate up to global phase, within the
    error the quantized durations can cause.
    """
    errors = []
    head, events = parse_schedule(text)
    conv = head["convention"]
    if int(head["register"]) != n:
        errors.append(f"schedule: register {head['register']} != {n}")
        return errors
    for ev in events:
        if not (math.isfinite(ev[1]) and ev[1] > 0.0):
            errors.append(f"schedule: duration {ev[1]!r} not finite and positive")
            return errors
    rates = {cfg: site_rates(geometry, n, cfg, conv)
             for cfg in ("parallel", "antiparallel")}
    fields = [op for op in circuit_ops
              if op[0] == "F" and any(abs(a) >= 1e-15 for a in op[2])]
    written_f = [ev for ev in events if ev[0] == "F"]
    pairs = [op[1:] for op in circuit_ops if op[0] == "E"]
    written_pairs = [p for ev in events if ev[0] == "E" for p in ev[2]]
    if written_pairs != pairs:
        errors.append("schedule: exchange pairs differ from the circuit")
    if len(written_f) != len(fields):
        errors.append(f"schedule: {len(written_f)} field events for "
                      f"{len(fields)} field pulses")
        return errors
    bound = 0.0
    for (_, axis, angles), (_, dur, cfg, sign) in zip(fields, written_f):
        want_cfg = "parallel" if axis == "z" else "antiparallel"
        r = rates[want_cfg]
        scale = sum(a * w for a, w in zip(angles, r)) / sum(w * w for w in r)
        if cfg != want_cfg or sign != (1 if scale >= 0 else -1):
            errors.append(f"schedule: field event {cfg} {sign:+d} for axis {axis}")
        miss = abs(dur - abs(scale))
        if miss > DURATION_QUANTUM_S:
            errors.append(f"schedule: duration {dur:.9e} s, physics fixes "
                          f"{abs(scale):.9e} s")
        bound += sum(abs(w) for w in r) * miss / 2.0
    if errors:
        return errors
    dim = 2 ** n
    psi = rng.normal(size=(dim, n_states)) + 1j * rng.normal(size=(dim, n_states))
    psi /= np.linalg.norm(psi, axis=0)
    got = psi
    for ev in events:
        if ev[0] == "F":
            _, dur, cfg, sign = ev
            axis = "z" if cfg == "parallel" else "x"
            for k, w in enumerate(rates[cfg]):
                got = _apply(got, n, evolve(PAULI[axis] / 2.0, sign * w * dur), (k,))
        else:
            for i, j, xi in ev[2]:
                got = _apply(got, n, evolve(heisenberg(2, 0, 1), xi), (i, j))
    want = psi
    for gate, sites in target_gates:
        want = _apply(want, n, gate, sites)
    d = _states_distance(got, want)
    # Operator-norm bound of the quantized durations, doubled for the
    # phase estimated from one state, plus rounding of the replay itself.
    tol = 2.0 * bound + 1e-10
    if not d <= tol:
        errors.append(f"schedule: replay is {d:.3e} from the target "
                      f"(quantization allows {tol:.3e})")
    return errors


# --- identity suites -----------------------------------------------------------

def circuit_unitary(c) -> np.ndarray:
    """Evaluate a package Circuit from its op fields with expm."""
    n = c.register.n_spins
    u = np.eye(2 ** n, dtype=complex)
    for op in c.ops:
        kind = type(op).__name__
        if kind == "Exchange":
            m = evolve(heisenberg(n, op.i, op.j), op.xi)
        elif kind == "XYExchange":
            m = evolve(planar(n, op.i, op.j), op.phi)
        else:
            m = field_pulse(n, op.axis, op.angles)
        u = m @ u
    return u


def zz(n: int, i: int, j: int) -> np.ndarray:
    return spin(n, i, "z") @ spin(n, j, "z")


def check_identity(kind: str, u: np.ndarray, target: np.ndarray,
                   tol: float = 1e-10) -> list:
    """kind 'exact' compares entrywise, 'phase' up to global phase."""
    d = (float(np.max(np.abs(u - target))) if kind == "exact"
         else phase_dist(u, target))
    return [] if d <= tol else [f"identity: {kind} distance {d:.3e}"]
