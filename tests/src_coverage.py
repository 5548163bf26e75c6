"""The package's statement lines that no test runs, module by module.

Runs the test suite in this process under `sys.settrace` and lists, per
module of `src/globalspin`, the statement lines that never ran. A statement
line is the first line of an AST statement inside a function; docstrings
and `nonlocal` declarations, which compile to no code, are left out. Code
run in another thread or process is not seen. Run from the repo root
(pytest does not collect this file); arguments after the script go to
pytest:

    python tests/src_coverage.py [pytest arguments]

The tracer makes the suite run about half as long again.
"""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "globalspin"


def statement_lines(source: str) -> set:
    """First lines of the statements inside the source's functions."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in ast.walk(node):
            if (stmt is node or not isinstance(stmt, ast.stmt)
                    or isinstance(stmt, ast.Nonlocal)):
                continue
            if (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                continue  # a docstring, or another bare string: no code
            lines.add(stmt.lineno)
    return lines


def run_traced(pytest_args: list) -> dict:
    """Run pytest under a line tracer; the lines run, per package file."""
    ran, seen = {}, {}  # seen: code file name -> its line set, or None

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            path = pathlib.Path(name).resolve()
            seen[name] = (ran.setdefault(str(path), set())
                          if path.parent == PACKAGE else None)
        return None if seen[name] is None else local

    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
    if code != 0:
        raise SystemExit(f"pytest exited {code}")
    return ran


def main(argv: list) -> int:
    ran = run_traced(argv[1:])
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(statement_lines(path.read_text())
                        - ran.get(str(path), set()))
        total += len(missed)
        if missed:
            print(f"{path.stem}: {', '.join(map(str, missed))}")
    print(f"total: {total} statement lines not run")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
