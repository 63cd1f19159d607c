
import os
import subprocess
import sys

import pytest

from fusionlab import cli
from fusionlab.cli import main
from fusionlab.errors import InternalInconsistency, ParseError
from fusionlab.groupfile import (
    eval_subgroup_spec,
    parse_group_text,
    perm_to_cycles,
)
from fusionlab.suite import SuiteResult

D8_FILE = """\
# dihedral group of order 8
group D8file
perm 4
(1 2)
(1 3 2 4)
"""

TRIVIAL_TABLE = """\
group triv
table 1
0
"""

S3_FILE = """\
group S3file
perm 3
(1 2)
(1 2 3)
"""


def test_parse_perm_file_gives_order_8():
    g = parse_group_text(D8_FILE)
    assert g.order == 8
    assert g.name == "D8file"


def test_parse_trivial_table():
    g = parse_group_text(TRIVIAL_TABLE)
    assert g.order == 1


def test_parse_malformed_cycle_reports_line():
    bad = "group X\nperm 4\n(1 2\n"
    with pytest.raises(ParseError) as err:
        parse_group_text(bad)
    assert err.value.line == 3


def test_parse_rejects_missing_header():
    with pytest.raises(ParseError):
        parse_group_text("perm 3\n(1 2)\n")


def test_parse_rejects_bad_row_width():
    with pytest.raises(ParseError):
        parse_group_text("group X\ntable 2\n0 1\n1\n")


def test_eval_subgroup_spec_words():
    g = parse_group_text(S3_FILE)
    whole = eval_subgroup_spec(g, "a,b")
    assert whole.order == 6
    rot = eval_subgroup_spec(g, "b")
    assert rot.order == 3
    rot_inv = eval_subgroup_spec(g, "B")
    assert rot_inv.mask == rot.mask
    by_index = eval_subgroup_spec(g, "0")
    assert by_index.order == 1


def test_perm_to_cycles_roundtrip():
    from fusionlab.groupfile import parse_cycles

    p = (1, 0, 3, 2)
    assert parse_cycles(perm_to_cycles(p), 4) == p


@pytest.fixture()
def d8_path(tmp_path):
    path = tmp_path / "d8.grp"
    path.write_text(D8_FILE)
    return str(path)


def test_cli_analyze(capsys, d8_path):
    assert main(["analyze", d8_path]) == 0
    out = capsys.readouterr().out
    assert "order 8" in out


def test_cli_jthompson(capsys, d8_path):
    assert main(["jthompson", d8_path, "2"]) == 0
    out = capsys.readouterr().out
    assert "J(S)" in out and "order 8" in out


def test_cli_fusion_profile(capsys):
    assert main(["fusion", "S4", "2", "--profile-all", "--essentials"]) == 0
    out = capsys.readouterr().out
    assert "essential subgroups: 1" in out


def test_cli_fusion_dump_homs(capsys, d8_path):
    assert main(["fusion", d8_path, "2", "--dump-homs", "a", "ab"]) == 0
    out = capsys.readouterr().out
    assert "morphisms" in out


def test_cli_subsystem(capsys):
    assert main(["subsystem", "S4", "2", "--kind", "normalizer",
                 "--q", "0"]) == 0
    out = capsys.readouterr().out
    assert "carrier order 8" in out


def test_cli_hfree(capsys):
    assert main(["hfree", "SL(2,3)", "2", "--h", "sigma4"]) == 0
    out = capsys.readouterr().out
    assert "S4-free: True" in out


def test_cli_wcompute(capsys, tmp_path, d8_path):
    assert main(["wcompute", d8_path, "2", "--catalog"]) == 0
    out = capsys.readouterr().out
    assert "W(S): order 2" in out


def test_cli_verify_ok(capsys):
    rc = main(["verify", "--theorem", "1", "--group", "SL(2,3)", "--p", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hypotheses=True" in out and "conclusion=True" in out


def test_cli_verify_frobenius(capsys):
    rc = main(["verify", "--theorem", "frobenius", "--group", "A4",
               "--p", "3"])
    assert rc == 0


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("group X\nperm 4\n(1 2\n")
    assert main(["analyze", str(bad)]) == 1


def test_cli_analyze_rejects_a_table_that_is_not_associative(tmp_path,
                                                            capsys):
    """C2^7 with one intercalate swapped (rows 1, 3 and columns 4, 6): the
    identity and inverses are intact, so only the associativity check can
    stop it, and it must do so before any verdict is printed."""
    n = 128
    table = [[a ^ b for b in range(n)] for a in range(n)]
    for row in (table[1], table[3]):
        row[4], row[6] = row[6], row[4]
    path = tmp_path / "loop128.grp"
    path.write_text(f"group loop128\ntable {n}\n"
                    + "".join(" ".join(map(str, row)) + "\n"
                              for row in table))
    assert main(["analyze", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: (") and "!=" in err


def test_cli_cap_exceeded_exit_code(capsys):
    """A catalog name above the cap is refused before any output, as a
    group file above it is."""
    assert main(["--order-cap", "10", "analyze", "S4"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("cap exceeded:")


C3_TABLE = """\
group c3
table 3
0 1 2
1 2 0
2 0 1
"""


@pytest.mark.parametrize("text,cap,reason", [
    (D8_FILE, "5", "closure exceeded order cap 5"),
    (C3_TABLE, "2", "table order 3 exceeds cap 2"),
], ids=["perm", "table"])
def test_cli_group_file_above_cap_exits_3(tmp_path, text, cap, reason):
    """A perm file stops inside the closure, a table file at its size:
    either way a typed error and exit 3, with no traceback."""
    path = tmp_path / "big.grp"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "fusionlab.cli", "--order-cap", cap, "analyze",
         str(path)], capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert run.returncode == 3
    assert run.stderr == f"cap exceeded: {reason}\n"
    assert run.stdout == ""


@pytest.mark.parametrize("argv", [
    ["--bogus", "catalog"],
    ["verify", "--theorem", "9", "--group", "S4", "--p", "2"],
    ["--cache-dir", "somewhere", "catalog"],
    ["--aut-cap", "64", "catalog"],
    ["--order-cap", "0", "suite"],
    ["--order-cap", "-2", "analyze", "S4"],
])
def test_cli_usage_error_exits_1_not_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_cli_help_and_version_exit_0(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0


def _contradicting_theorem(F, family=None):
    raise InternalInconsistency("routes disagree on W")


def test_cli_contradiction_dumps_witness_in_cwd(monkeypatch, tmp_path,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "verify_theorem_1", _contradicting_theorem)
    rc = main(["verify", "--theorem", "1", "--group", "S4", "--p", "2"])
    assert rc == 2
    dump = tmp_path / "contradiction-witness.txt"
    assert dump.read_text() == "routes disagree on W\n"
    assert str(dump) in capsys.readouterr().err


def test_cli_any_subcommand_contradiction_dumps_witness(monkeypatch, tmp_path,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "thompson_data", _contradicting_theorem)
    assert main(["jthompson", "S4", "2"]) == 2
    dump = tmp_path / "contradiction-witness.txt"
    assert dump.read_text() == "routes disagree on W\n"
    assert str(dump) in capsys.readouterr().err


def test_cli_wcompute_failed_functor_check_dumps_witness(monkeypatch,
                                                         tmp_path, capsys,
                                                         d8_path):
    real = cli.functor_checks
    reports = []

    def nontrivial_fails(S, fam):
        reports.append(real(S, fam)._replace(nontrivial=False))
        return reports[-1]

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "functor_checks", nontrivial_fails)
    assert main(["wcompute", d8_path, "2", "--catalog"]) == 2
    dump = tmp_path / "contradiction-witness.txt"
    assert dump.read_text() == repr(reports[-1]) + "\n"


def test_cli_suite_contradiction_dumps_rows(monkeypatch, tmp_path, capsys):
    def one_contradiction(config, groups=(), scope="catalog"):
        res = SuiteResult()
        res.add("axioms", "S3@p=2", "FS1-FS3+category", "pass")
        res.add("theorems", "S4@p=2", "T1.1", "contradiction", "W moved")
        return res

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_suite", one_contradiction)
    assert main(["suite", "--format", "tsv"]) == 2
    dump = tmp_path / "contradiction-witness.txt"
    assert dump.read_text() == ("section\tinstance\tcheck\tstatus\tdetail\n"
                                "theorems\tS4@p=2\tT1.1\tcontradiction\t"
                                "W moved\n")


def test_cli_verify_same_under_python_O(tmp_path):
    argv = ["-m", "fusionlab.cli", "verify", "--theorem", "1", "--group",
            "SL(2,3)", "--p", "2"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                       cwd=tmp_path, env=env, timeout=300)
        for flags in ((), ("-O",)))
    assert plain.returncode == 0, plain.stderr.decode()
    assert (optimized.returncode, optimized.stdout) == (plain.returncode,
                                                        plain.stdout)


def test_cli_unwritable_witness_dump_is_reported(monkeypatch, tmp_path,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "contradiction-witness.txt").mkdir()
    monkeypatch.setattr(cli, "verify_theorem_1", _contradicting_theorem)
    rc = main(["verify", "--theorem", "1", "--group", "S4", "--p", "2"])
    assert rc == 2
    assert "could not be written" in capsys.readouterr().err


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "Qd(3)" in out and "validated 16 entries" in out


def test_cli_catalog_order_mismatch_exits_2_with_dump(monkeypatch, tmp_path,
                                                      capsys):
    import importlib

    catalog = importlib.import_module("fusionlab.catalog")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(catalog, "_cache", {})
    monkeypatch.setitem(catalog.EXPECTED_ORDERS, "D8", 16)
    assert main(["catalog"]) == 2
    dump = tmp_path / "contradiction-witness.txt"
    assert dump.read_text() == ("catalog group D8 has order 8, expected "
                                "16\n")
    assert "CONTRADICTION" in capsys.readouterr().err


Q8_FILE = """\
group Q8file
perm 8
(1 2 5 6)(3 4 7 8)
(1 3 5 7)(2 8 6 4)
"""

SL23_FILE = """\
group SL23file
perm 8
(1 4 7)(2 8 5)
(1 6 2 3)(4 7 8 5)
"""


def test_cli_wcompute_with_family_file(capsys, tmp_path):
    q8 = tmp_path / "q8.grp"
    q8.write_text(Q8_FILE)
    sl = tmp_path / "sl23.grp"
    sl.write_text(SL23_FILE)
    rc = main(["wcompute", str(q8), "2", "--family", str(sl)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "admitted" in out and "W(S): order 2" in out


def test_cli_verify_with_family_file(capsys, tmp_path):
    sl = tmp_path / "sl23.grp"
    sl.write_text(SL23_FILE)
    rc = main(["verify", "--theorem", "2", "--group", str(sl), "--p", "2",
               "--family", str(sl)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "conclusion=True" in out


@pytest.mark.parametrize("text,reason", [
    ("group Cut\nperm 4\n(1 2\n", "line 3: malformed cycle notation"),
    ("group HeaderOnly\n", "line 1: missing 'perm <n>' or 'table <n>'"),
    ("group Short\ntable 2\n0 1\n", "line 3: table has 1 rows, expected 2"),
], ids=["truncated", "header-only", "short-table"])
@pytest.mark.parametrize("argv", [
    ["wcompute", "{q8}", "2", "--family", "{bad}"],
    ["verify", "--theorem", "2", "--group", "{q8}", "--p", "2",
     "--family", "{bad}"],
], ids=["wcompute", "verify"])
def test_cli_bad_family_file_is_a_parse_error(capsys, tmp_path, text, reason,
                                              argv):
    q8 = tmp_path / "q8.grp"
    q8.write_text(Q8_FILE)
    bad = tmp_path / "bad.grp"
    bad.write_text(text)
    argv = [a.format(q8=q8, bad=bad) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {reason}")
    assert "Traceback" not in err
