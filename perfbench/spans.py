"""Spans around calls into globalspin, recorded from outside the package.

A Tracer replaces public functions by timing wrappers, both in the module
that defines them and in every globalspin module that imported them by
name, records one span (name, start, end, parent, run id, tag) per call in
memory, and puts the originals back when it is closed. A layer's self time
is its spans' time minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# (defining module, attribute, layer). The span name is layer.attribute,
# except for scipy's minimize, which is traced where synth calls it.
TRACED = (
    ("cli", "main", "cli"),
    ("synth", "enumerate_sequences", "synth"),
    ("synth", "global_hadamard_search", "synth"),
    ("synth", "problem_from_text", "synth"),
    ("synth", "result_to_text", "synth"),
    ("synth", "minimize", "scipy.minimize"),
    ("schedule", "compile_schedule", "schedule"),
    ("schedule", "simulate_schedule", "schedule"),
    ("schedule", "schedule_to_text", "schedule"),
    ("schedule", "schedule_from_text", "schedule"),
    ("schedule", "unitary_digest", "schedule"),
    ("schedule", "validate_schedule", "schedule"),
    ("device", "field_profile", "device"),
    ("device", "geometry_from_text", "device"),
    ("device", "device_constants", "device"),
    ("device", "validate_currents", "device"),
    ("circuits", "evaluate", "circuits"),
    ("circuits", "verify_target", "circuits"),
    ("circuits", "circuit_from_text", "circuits"),
    ("circuits", "circuit_to_text", "circuits"),
    ("circuits", "swap_conjugation", "circuits"),
    ("circuits", "dressed_swap_phase_conjugation", "circuits"),
    ("circuits", "controlled_phase_circuit", "circuits"),
    ("circuits", "xy_x_rotation_circuit", "circuits"),
    ("circuits", "xy_controlled_phase_circuit", "circuits"),
    ("circuits", "parallel_apply", "circuits"),
    ("circuits", "refocused_rotation_circuit", "circuits"),
    ("circuits", "su2_compile", "circuits"),
    ("spins", "global_field_unitary", "spins"),
    ("spins", "exchange_unitary", "spins"),
    ("spins", "xy_exchange_unitary", "spins"),
    ("spins", "spin_operator", "spins"),
    ("spins", "zeeman_angles", "spins"),
    ("linalg", "kron", "linalg"),
    ("linalg", "phase_distance", "linalg"),
    ("linalg", "hermitian_expm", "linalg"),
    ("linalg", "max_abs", "linalg"),
)
LAYERS = ("cli", "synth", "schedule", "device", "circuits", "spins", "linalg",
          "scipy.minimize")
MODULES = ("cli", "synth", "schedule", "device", "circuits", "spins", "linalg")
OBJECTIVE_SPAN = "synth.objective"  # the function synth hands to minimize


def _simulate_tag(args, kwargs):
    s = args[0] if args else kwargs["s"]
    return s.register.n_spins


TAGS = {"schedule.simulate_schedule": _simulate_tag}


class Tracer:
    """Install with install(package), run the traced code, then close()."""

    def __init__(self) -> None:
        self.names: list = []
        self.layer_of: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self._stack: list = []
        self._patched: list = []
        self.results: dict = {}  # span name -> results seen, when kept

    def _id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def wrap(self, name: str, layer: str, fn, keep_results: bool = False):
        nid = self._id(name, layer)
        tag_fn = TAGS.get(name)
        perf = time.perf_counter
        stack = self._stack
        kept = self.results.setdefault(name, []) if keep_results else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.tag.append(tag_fn(args, kwargs) if tag_fn else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if kept is not None:
                kept.append(out)
            return out

        return traced

    def install(self, package) -> None:
        mods = {m: getattr(package, m) for m in MODULES}
        for mod_name, attr, layer in TRACED:
            original = getattr(mods[mod_name], attr)
            if layer == "scipy.minimize":
                wrapped = self._wrap_minimize(original)
            else:
                wrapped = self.wrap(f"{layer}.{attr}", layer, original,
                                    keep_results=attr == "enumerate_sequences")
            for mod in list(mods.values()) + [package]:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def _wrap_minimize(self, original):
        tracer = self

        def minimize(fun, *args, **kwargs):
            return original(tracer.wrap(OBJECTIVE_SPAN, "synth", fun),
                            *args, **kwargs)

        return self.wrap("synth.minimize", "scipy.minimize", minimize,
                         keep_results=True)

    def close(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "run": np.frombuffer(self.run, dtype=np.int32),
                "tag": np.frombuffer(self.tag, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            layers=np.array(self.layer_of), **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, total seconds; per layer: self seconds;
        per tagged span name and tag: median seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_by_name = np.bincount(a["name"], weights=self_t, minlength=k)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            layer_self[self.layer_of[nid]] += float(self_by_name[nid])
        tagged = {}
        for name in TAGS:
            if name in self._ids:
                sel = (a["name"] == self._ids[name]) & (a["tag"] >= 0)
                for t in np.unique(a["tag"][sel]):
                    tagged[(name, int(t))] = float(np.median(dur[sel & (a["tag"] == t)]))
        return {"calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
                "seconds": {n: float(total[i]) for i, n in enumerate(self.names)},
                "layer_self": layer_self, "tagged": tagged}
