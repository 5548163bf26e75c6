"""The benchmark's span table names functions of the package; a rename or a
deletion there would break `perfbench/run.py --trace 1` without failing any
other test."""

import ast
import importlib
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "spans.py")


def _traced():
    with open(SPANS) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in perfbench/spans.py")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = [(module, attr) for module, attr, _ in traced
               if not callable(getattr(
                   importlib.import_module(f"globalspin.{module}"), attr, None))]
    assert missing == []
