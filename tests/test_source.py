"""Checks on the package source itself."""

import ast
import pathlib

import fusionlab

SRC = pathlib.Path(fusionlab.__file__).parent


def test_no_bare_assert_in_package():
    """Invariants raise InternalInconsistency, which survives python -O;
    an ``assert`` statement would vanish there."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
