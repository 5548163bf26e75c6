"""Line counts of the package's modules: wc -l, docstring lines and code lines.

A docstring line is a line of a module, class or function docstring, from
the line its string opens on to the line it closes on; every other line,
blank lines and comments included, is a code line, so the two add up to
wc -l. Run from the repo root (pytest does not collect this file):

    python tests/src_lines.py [package directory]
"""

import ast
import pathlib
import sys

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> int:
    """Lines spanned by the module's, its classes' and its functions'
    docstrings."""
    total = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            total += doc.end_lineno - doc.lineno + 1
    return total


def main(argv: list) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).parents[1] / "src" / "globalspin")
    rows = []
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        lines, docs = source.count("\n"), docstring_lines(source)
        rows.append((path.name, lines, docs, lines - docs))
    rows.append(("total", *(sum(r[k] for r in rows) for k in (1, 2, 3))))
    print(f"{'module':<14}{'wc -l':>7}{'docs':>7}{'code':>7}")
    for name, *counts in rows:
        print(f"{name:<14}" + "".join(f"{n:>7}" for n in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
