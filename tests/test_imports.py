"""What the package loads, and what its modules import.

The package runs on numpy alone: no command and no Hadamard search loads
scipy, which only the tests and the benchmark use as an oracle. The AST
scans below keep every import in the package free of scipy, and every
module-level import in the package and the tests in use.
Circuits are played in one module, circuits, and there in one loop,
_play: no other module of the package reaches for the pulse kernel or its
identity stack, and no other function of circuits calls them. _play is
called from two places only, circuits.factor with no path and
synth._draw_distances with one path per part, so no third holder of a
path comes back unseen. A hash is fed in one function,
linalg.update_phase_normalized, so one routine decides the bytes of every
digest, and that function is called from one place, schedule.unitary_digest:
search deduplication fingerprints its letters through unitary_digest too.
"""

import ast
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import globalspin
from globalspin import RegisterSpec, circuit_to_text, controlled_phase_circuit

SRC = pathlib.Path(globalspin.__file__).parent
TESTS = pathlib.Path(__file__).parent

# Runs the four commands and then a small Hadamard search in one fresh
# process, listing the scipy modules loaded after each.
PROBE = """
import json, sys
import globalspin
from globalspin import cli, synth

out, circuit = sys.argv[1:]
codes = [cli.main(argv) for argv in (
    ["verify", "--suite", "all"],
    ["synthesize", "--problem", "planted_swap", "--out", out + "/swap.txt"],
    ["device"],
    ["schedule", circuit, "--out", out + "/cp.schedule.txt"])]
loaded = sorted(m for m in sys.modules
                if m == "scipy" or m.startswith("scipy."))
synth.global_hadamard_search({"z": (1.0, 0.75), "x": (1.0, 0.5)}, depth=2,
                             starts=1, maxiter=60)
print(json.dumps({"codes": codes, "loaded": loaded,
                  "after_search": sorted(m for m in sys.modules
                                         if m.split(".")[0] == "scipy")}))
"""


def test_commands_load_no_scipy(tmp_path):
    circuit = tmp_path / "cp.circuit.txt"
    c, _ = controlled_phase_circuit(RegisterSpec(2), 0, 1, -4.0 * math.pi)
    circuit.write_text(circuit_to_text(c))
    run = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path), str(circuit)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert run.returncode == 0, run.stderr
    probe = json.loads(run.stdout.splitlines()[-1])
    assert probe["codes"] == [0, 0, 0, 0]
    assert probe["loaded"] == []
    assert probe["after_search"] == []


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    return [node.module or ""] if node.level == 0 else []


def _bound_names(node):
    """(name, line) for each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(a.asname or a.name.split(".")[0], node.lineno)
            for a in node.names]


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", sorted(SRC.parent.rglob("*.py")),
                         ids=lambda p: p.name)
def test_package_module_never_imports_scipy(path):
    # Every import statement, function bodies included.
    scipy_lines = [node.lineno for node in ast.walk(_parse(path))
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for module in _imported_modules(node)
                   if module.split(".")[0] == "scipy"]
    assert scipy_lines == []


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    + sorted(TESTS.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_level_imports_are_used(path):
    tree = _parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [(name, line) for stmt in tree.body
              if isinstance(stmt, (ast.Import, ast.ImportFrom))
              for name, line in _bound_names(stmt) if name not in used]
    assert unused == []


# The kernel names only circuits may take from spins; __init__ re-exports
# apply_op as public API and plays nothing.
PLAYERS = {"apply_op", "identity"}


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py"))
     if p.name not in ("circuits.py", "spins.py", "__init__.py")],
    ids=lambda p: p.name)
def test_only_circuits_plays_the_kernel(path):
    tree = _parse(path)
    taken = [(a.name, node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[-1] == "spins"
             for a in node.names if a.name in PLAYERS]
    taken += [(node.attr, node.lineno) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in PLAYERS
              and isinstance(node.value, ast.Name)
              and node.value.id == "spins"]
    assert taken == []


def test_circuits_plays_the_kernel_in_one_loop():
    # In circuits, _play alone calls the kernel and its identity
    # stack, once each; a call anywhere else, or an alias of either name,
    # is one use too many.
    tree = _parse(SRC / "circuits.py")
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in PLAYERS
            or isinstance(node, ast.Attribute) and node.attr in PLAYERS
            or isinstance(node, ast.alias) and node.name in PLAYERS
            and node.asname]
    calls = [(fn.name, node.func.id) for fn in tree.body
             if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in PLAYERS]
    assert sorted(calls) == [("_play", "apply_op"), ("_play", "identity")]
    assert len(uses) == len(calls)


def test_player_has_two_callers():
    # Every use of the name _play in the package, by module and top-level
    # statement: the import synth takes it by, and one call in each of
    # factor and _draw_distances. An alias or a reference that is not a
    # call is one use too many.
    uses, calls = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in _parse(path).body:
            where = (path.stem, getattr(stmt, "name", "<module>"))
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Name) and node.id == "_play"
                        or isinstance(node, ast.Attribute)
                        and node.attr == "_play"
                        or isinstance(node, ast.alias)
                        and node.name == "_play"):
                    uses.append(where)
                if isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None) == "_play"
                        or getattr(node.func, "attr", None) == "_play"):
                    calls.append(where)
    assert sorted(calls) == [("circuits", "factor"),
                             ("synth", "_draw_distances")]
    assert sorted(uses) == sorted(calls + [("synth", "<module>")])


def test_hashes_are_fed_in_one_routine():
    # Every .update call in the package, by the top-level statement that
    # holds it: a hash fed anywhere else is a second digest routine.
    updates = [(path.name, getattr(stmt, "name", "<module>"))
               for path in sorted(SRC.glob("*.py"))
               for stmt in _parse(path).body for node in ast.walk(stmt)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "update"]
    assert updates == [("linalg.py", "update_phase_normalized")]


def test_fingerprint_has_one_caller():
    # Every use of the name update_phase_normalized in the package, by
    # module and top-level statement: its definition, the import schedule
    # takes it by, and one call in unitary_digest. Search deduplication
    # fingerprints its letters through unitary_digest, not a hash of its
    # own.
    name = "update_phase_normalized"
    uses, calls = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in _parse(path).body:
            where = (path.stem, getattr(stmt, "name", "<module>"))
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute) and node.attr == name
                        or isinstance(node, ast.alias) and node.name == name):
                    uses.append(where)
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    calls.append(where)
    assert calls == [("schedule", "unitary_digest")]
    assert sorted(uses) == [("schedule", "<module>"),
                            ("schedule", "unitary_digest")]
