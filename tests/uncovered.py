"""List the statements of the package that a test run never executes.

    PYTHONPATH=src python tests/uncovered.py [pytest arguments]

Runs pytest (by default on the whole tests/ directory) under the standard
library's ``trace`` module and prints ``file:line: statement`` for each
statement in src/fusionlab that never ran, docstrings, ``def`` and
``class`` lines and imports left out.  The tests that start a fresh
process run code this process does not see.  Tracing makes the run about
fifteen times slower, so the wall-clock budgets of the acceptance tests
may fail under it; the listing does not depend on them.
"""

import ast
import pathlib
import sys
import trace

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fusionlab"
LEFT_OUT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom)


def statements(path):
    """{line: source line} for each statement of the file worth listing."""
    lines = path.read_text(encoding="utf-8").splitlines()
    out = {}
    for node in ast.walk(ast.parse("\n".join(lines), filename=str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, LEFT_OUT):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue   # a docstring
        out[node.lineno] = lines[node.lineno - 1].strip()
    return out


def main(args):
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider",
                                 *(args or [str(ROOT / "tests")])])
    ran = {(pathlib.Path(name).resolve(), line)
           for name, line in tracer.results().counts}
    for path in sorted(SRC.glob("*.py")):
        for line, text in sorted(statements(path).items()):
            if (path, line) not in ran:
                print(f"{path.relative_to(ROOT)}:{line}: {text}")


if __name__ == "__main__":
    main(sys.argv[1:])
