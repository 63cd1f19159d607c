"""Checks on the package source itself."""

import ast
import pathlib

import fusionlab

SRC = pathlib.Path(fusionlab.__file__).parent


def _nodes(kind):
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        yield from ((path.name, node) for node in ast.walk(tree)
                    if isinstance(node, kind))


def test_no_bare_assert_in_package():
    """Invariants raise InternalInconsistency, which survives python -O;
    an ``assert`` statement would vanish there."""
    found = [f"{name}:{node.lineno}" for name, node in _nodes(ast.Assert)]
    assert found == []


def test_no_assertion_error_raised_in_package():
    """A failed invariant is an InternalInconsistency, which the CLI and the
    suite report with their documented exit code and witness dump; a bare
    AssertionError would end in a traceback."""
    found = []
    for name, node in _nodes(ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "AssertionError":
            found.append(f"{name}:{node.lineno}")
    assert found == []


def test_no_aut_enumeration_in_package():
    """Aut(S) is kept as a strong generating set (groups.aut_generators).
    The list of every automorphism, its memo and its cap live on only as
    the reference in tests/oracles.py."""
    banned = {"automorphisms_raw", "DEFAULT_AUT_CAP", "_auts_raw"}
    found = []
    for name, node in _nodes(ast.AST):
        for field in ("id", "attr", "name"):
            if getattr(node, field, None) in banned:
                found.append(f"{name}:{node.lineno}:{getattr(node, field)}")
    assert found == []
