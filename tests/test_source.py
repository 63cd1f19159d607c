"""Checks on the package source itself."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

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


def test_cli_run_loads_no_dataclasses_inspect_or_hashlib():
    """A CLI call is one process, so what the package imports is paid on
    every call: records are namedtuples and the table key is packed with
    array, so neither dataclasses (with inspect) nor hashlib (with
    OpenSSL) is loaded."""
    code = ("import sys\n"
            "from fusionlab import cli\n"
            "code = cli.main(['verify', '--theorem', '2', '--group', 'S4', "
            "'--p', '2'])\n"
            "print(sorted({'dataclasses', 'inspect', 'hashlib', '_hashlib'}"
            " & set(sys.modules)))\n"
            "sys.exit(code)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_cli_run_loads_no_tempfile():
    """tempfile serves only the --report-dir writes of ``fusionlab suite``,
    so other calls do not load it.  The interpreter runs with -S, because
    site-packages .pth files may load tempfile at start-up themselves."""
    code = ("import sys\n"
            "assert 'tempfile' not in sys.modules\n"
            "from fusionlab import cli\n"
            "code = cli.main(['verify', '--theorem', '2', '--group', 'S4', "
            "'--p', '2'])\n"
            "print('tempfile' in sys.modules)\n"
            "sys.exit(code)\n")
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


RECORDS = {"GroupMorphism", "QuotientMap", "ThompsonData", "SubgroupProfile",
           "AxiomReport", "AlperinDecomposition", "Model", "HFreeReport",
           "FamilyMember", "CandidateFamily", "WComputation", "FunctorReport",
           "TheoremReport"}


def _records():
    """name -> namedtuple record class, over every package module."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"fusionlab.{path.stem}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, tuple)
                    and hasattr(obj, "_fields")
                    and obj.__module__ == module.__name__):
                out[name] = obj
    return out


def test_records_are_immutable():
    """Assigning to a field, or adding an attribute, raises AttributeError,
    and no default is an object that instances could share and mutate."""
    records = _records()
    assert set(records) == RECORDS
    for name, cls in records.items():
        record = cls._make(range(len(cls._fields)))
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
        assert all(v is None for v in cls._field_defaults.values()), name


def test_record_equality_hashing_and_repr():
    """Families and members are equal and hash alike by value (they key
    the W cache); a report's detail dict is left out of equality and
    hashing; the repr is the Name(field=value, ...) of the witness dumps."""
    from fusionlab.stellmacher import CandidateFamily, FamilyMember
    from fusionlab.theorems import TheoremReport

    def member():
        return FamilyMember(system="F", identification=(0, 1), j_normal=True,
                            qd_free=False)

    assert member() == member() and hash(member()) == hash(member())
    cache = {CandidateFamily(S="S", p=2, members=(member(),)): "W"}
    assert cache[CandidateFamily(S="S", p=2, members=(member(),))] == "W"
    assert member() != member()._replace(qd_free=True)

    report = TheoremReport(theorem_id="T1.2", instance="S4@p=2",
                           hypotheses_hold=True, conclusion_holds=False,
                           detail={"W_order": 2})
    other = report._replace(detail={})
    assert report == other and hash(report) == hash(other)
    assert report != report._replace(conclusion_holds=True)
    assert repr(report) == (
        "TheoremReport(theorem_id='T1.2', instance='S4@p=2', "
        "hypotheses_hold=True, conclusion_holds=False, "
        "detail={'W_order': 2})")
