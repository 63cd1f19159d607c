
import os
import subprocess
import sys

import pytest

from fusionlab import cli
from fusionlab.cli import main
from fusionlab.errors import InternalInconsistency, ParseError
from fusionlab.fusion import realize_fusion
from fusionlab.groupfile import (
    eval_subgroup_spec,
    parse_group_file,
    parse_group_text,
    perm_to_cycles,
)
from fusionlab.groups import build_group
from fusionlab.stellmacher import canonical_family
from fusionlab.suite import SuiteResult
from fusionlab.theorems import verify_theorem_2

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


@pytest.mark.parametrize("name", ["A\tB", "A\x1bB"])
def test_parse_rejects_a_name_that_is_not_printable(name):
    """A tab in the name would split its rows of the suite TSV."""
    with pytest.raises(ParseError) as err:
        parse_group_text(f"# header\ngroup {name}\nperm 2\n(1 2)\n")
    assert err.value.line == 2
    assert "not printable" in str(err.value)


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


D34_FILE = """\
group D34
perm 17
(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17)
(2 17)(3 16)(4 15)(5 14)(6 13)(7 12)(8 11)(9 10)
"""


def test_cli_analyze_reports_every_prime_divisor(capsys, tmp_path):
    """``analyze`` prints one line per prime dividing the order, 17 as well
    as 2; the lines for S4 are those of the fixed list it once walked."""
    path = tmp_path / "d34.grp"
    path.write_text(D34_FILE)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "  p=2: Sylow order 2, O_p order 1\n" in out
    assert "  p=17: Sylow order 17, O_p order 17\n" in out
    assert main(["analyze", "S4"]) == 0
    assert capsys.readouterr().out == (
        "group S4: order 24, nonabelian\n"
        "  center: order 1\n"
        "  derived: order 12\n"
        "  p=2: Sylow order 8, O_p order 4\n"
        "  p=3: Sylow order 3, O_p order 1\n"
        "  subgroups: 30\n")


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


@pytest.mark.parametrize("kind,order", [("product", 8), ("quotient", 2)])
def test_cli_subsystem_product_and_quotient_are_verified(capsys, kind, order):
    """S C_F(Q) and F/Q of a realized system are realized on a Sylow
    subgroup of their own ambient, so they are saturated as built."""
    assert main(["subsystem", "S4", "2", "--kind", kind, "--q", "5,23"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (f"{kind} subsystem at Q of order 4: carrier order "
                      f"{order}, status verified")


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


@pytest.mark.parametrize("argv", [
    ["analyze", "{dir}"],
    ["analyze", "{dir}/ff.grp"],
    ["suite", "--scope", "files", "{dir}/missing.grp"],
], ids=["directory", "not-utf8", "missing"])
def test_cli_unreadable_group_file_is_a_parse_error(tmp_path, argv):
    (tmp_path / "ff.grp").write_bytes(b"group X\xff\n")
    argv = [a.format(dir=tmp_path) for a in argv]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run([sys.executable, "-m", "fusionlab.cli", *argv],
                         capture_output=True, text=True, cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.startswith(f"parse error: cannot read {argv[-1]}: ")
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("body", ["perm 4\n(1 2 3 4)\n(1 3)\n",
                                  "perm 4\n(1 2 5)\n"],
                         ids=["valid", "malformed"])
def test_cli_verify_frobenius_refuses_family(tmp_path, capsys, body):
    """The Frobenius check builds no W(S) family, so a --family file is
    refused before any file is read, a malformed one as well."""
    path = tmp_path / "fam.grp"
    path.write_text("group Fam\n" + body)
    assert main(["verify", "--theorem", "frobenius", "--group", "S4",
                 "--p", "2", "--family", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("specs,prefix", [(["99", "1"], "parse error: "),
                                          (["a", "b"], "error: "),
                                          (["1", "99"], "parse error: ")],
                         ids=["index-out-of-range", "outside-the-carrier",
                              "second-spec"])
def test_cli_fusion_checks_dump_homs_specs_before_output(capsys, specs,
                                                         prefix):
    """A bad --dump-homs spec, the first or the second, ends the call
    with exit 1 before anything is printed: one line on stderr and an
    empty stdout, not the header and the axiom verdict first."""
    assert main(["fusion", "S4", "2", "--dump-homs", *specs]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err


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
    group file above it is; so is a built-in H of ``hfree``."""
    for argv in (["--order-cap", "10", "analyze", "S4"],
                 ["--order-cap", "100", "hfree", "S4", "2", "--h", "qd3"],
                 ["--order-cap", "20", "hfree", "C4", "2", "--h", "sigma4"]):
        assert main(argv) == 3
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


def _cyclic_table(n, short_row=False):
    """A group file with the table of C_n, its first row one entry short
    when ``short_row``."""
    rows = [" ".join(str((a + b) % n) for b in range(n)) for a in range(n)]
    if short_row:
        rows[0] = rows[0].rsplit(" ", 1)[0]
    return f"group c{n}\ntable {n}\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("text,cap,reason", [
    (D8_FILE, "5", "closure exceeded order cap 5"),
    (C3_TABLE, "2", "table order 3 exceeds cap 2"),
    ("group big\ntable 2000\n", "1000", "table order 2000 exceeds cap 1000"),
    (_cyclic_table(12, short_row=True), "10",
     "table order 12 exceeds cap 10"),
    (_cyclic_table(12), "10", "table order 12 exceeds cap 10"),
], ids=["perm", "table", "table-header-only", "table-short-row",
        "table-good-rows"])
def test_cli_group_file_above_cap_exits_3(tmp_path, text, cap, reason):
    """A perm file stops inside the closure, a table file at its
    ``table <n>`` line, before any row is read: whatever its rows hold, a
    typed error and exit 3, with no traceback."""
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


def test_cli_malformed_table_within_the_cap_is_a_parse_error(tmp_path,
                                                            capsys):
    """Within the cap, a short row is still a parse error (exit 1)."""
    path = tmp_path / "c12.grp"
    path.write_text(_cyclic_table(12, short_row=True))
    assert main(["--order-cap", "12", "analyze", str(path)]) == 1
    assert capsys.readouterr().err == (
        "parse error: line 3: table row has 11 entries, expected 12\n")


def test_cli_suite_gives_an_over_cap_table_one_skip_row(tmp_path, capsys):
    """A table file above the cap is refused at its size line, so the
    suite gives it one ``order-cap`` skip row, short rows or not."""
    path = tmp_path / "c12.grp"
    path.write_text(_cyclic_table(12, short_row=True))
    assert main(["--order-cap", "10", "suite", "--scope", "files",
                 "--format", "tsv", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "section\tinstance\tcheck\tstatus\tdetail",
        f"scope\t{path}\torder-cap\tskip\ttable order 12 exceeds cap 10"]


@pytest.mark.parametrize("argv", [
    ["--bogus", "catalog"],
    ["verify", "--theorem", "9", "--group", "S4", "--p", "2"],
    ["--cache-dir", "somewhere", "catalog"],
    ["--aut-cap", "64", "catalog"],
    ["--order-cap", "0", "suite"],
    ["--order-cap", "-2", "analyze", "S4"],
    ["jthompson", "S4", "4"],
    ["fusion", "S4", "4"],
    ["subsystem", "S4", "1", "--kind", "normalizer", "--q", "a"],
    ["hfree", "S4", "6", "--h", "sigma4"],
    ["wcompute", "Q8", "4"],
    ["verify", "--theorem", "2", "--group", "S4", "--p", "9"],
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


def _contradicting_theorem(F, extras=()):
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

    def nontrivial_fails(fam):
        reports.append(real(fam)._replace(nontrivial=False))
        return reports[-1]

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "functor_checks", nontrivial_fails)
    assert main(["wcompute", d8_path, "2", "--catalog"]) == 2
    dump = tmp_path / "contradiction-witness.txt"
    assert dump.read_text() == repr(reports[-1]) + "\n"


def test_cli_suite_contradiction_dumps_rows(monkeypatch, tmp_path, capsys):
    def one_contradiction(config, groups=(), scope="catalog", refused=()):
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


def test_cli_verify_on_a_trivial_sylow_subgroup_builds_no_family(
        capsys, cold_start):
    """C3 at p = 2 has S = 1, so W(S) is undefined: ``canonical_family``
    says so before it builds any group of its pool.  One ``error:`` line
    and exit 1; the only catalog groups built are C3 itself and S4, the
    Qd(2) of the H-freeness test."""
    import importlib

    catalog = importlib.import_module("fusionlab.catalog")
    cold_start()
    assert main(["verify", "--theorem", "2", "--group", "C3", "--p", "2"]) \
        == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: W(S) is defined for nontrivial p-groups only\n"
    assert set(catalog._cache) == {"C3", "S4"}


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "Qd(3)" in out and "validated 16 entries" in out


def test_cli_catalog_builds_no_entry_above_the_cap(capsys, cold_start):
    import importlib

    catalog = importlib.import_module("fusionlab.catalog")
    cold_start()
    assert main(["--order-cap", "100", "catalog"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "Qd(3)" not in catalog._cache
    assert out[-2:] == ["Qd(3)      order  216  skipped: above the order cap",
                        "validated 15 entries (incl. Qd(2) ~ S4)"]
    cold_start()
    assert main(["--order-cap", "20", "catalog"]) == 0
    out = capsys.readouterr().out
    assert "S4" not in catalog._cache and "validated 9 entries\n" in out


def test_cli_catalog_order_mismatch_exits_2_with_dump(monkeypatch, tmp_path,
                                                      capsys, cold_start):
    import importlib

    catalog = importlib.import_module("fusionlab.catalog")
    monkeypatch.chdir(tmp_path)
    cold_start()
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


@pytest.mark.parametrize("argv", [
    ["fusion", "S4", "4"],
    ["wcompute", "Q8", "4"],
    ["verify", "--theorem", "1", "--group", "S4", "--p", "4"],
], ids=["fusion", "wcompute", "verify"])
def test_cli_p_that_is_not_a_prime_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: fusionlab ")
    assert err.endswith("must be a prime, not 4\n")


def test_cli_wcompute_on_s_that_is_not_a_p_group_exits_1(capsys, tmp_path):
    q8 = tmp_path / "q8.grp"
    q8.write_text(Q8_FILE)
    assert main(["wcompute", str(q8), "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: S has order 8, which is not a power of 3\n"


@pytest.mark.parametrize("label,theorem,p,w_order", [
    ("W648", "2", "3", 27), ("F16", "1", "2", 16)])
def test_cli_verify_on_growth_instance_files(capsys, monkeypatch, tmp_path,
                                             growth_files, label, theorem, p,
                                             w_order):
    """A group outside the catalog is a member of its own family, so W
    grows past A(S) without --family and the conclusion holds."""
    monkeypatch.chdir(tmp_path)
    rc = main(["verify", "--theorem", theorem, "--group", growth_files[label],
               "--p", p])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "conclusion=True" in out and f"  W_order: {w_order}\n" in out
    assert "  chain_length: 1\n" in out


def test_cli_verify_with_an_unrelated_family_file(capsys, monkeypatch,
                                                  tmp_path, growth_files):
    monkeypatch.chdir(tmp_path)
    q8 = tmp_path / "q8.grp"
    q8.write_text(Q8_FILE)
    rc = main(["verify", "--theorem", "2", "--group", growth_files["W648"],
               "--p", "3", "--family", str(q8)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "conclusion=True" in out and "  W_order: 27\n" in out


def test_verify_theorem_2_with_extras_matches_cli_family(
        capsys, monkeypatch, tmp_path, group_file, wreath648):
    """C3 wr S3 has W648's Sylow 3-subgroup C3 wr C3 and joins the family
    as an admitted member; the harness given it in ``extras`` reports the
    W order and verdict of ``verify --family`` on its file."""
    c3_wr_s3 = build_group([(1, 2, 0, 3, 4, 5, 6, 7, 8),
                            (3, 4, 5, 6, 7, 8, 0, 1, 2),
                            (3, 4, 5, 0, 1, 2, 6, 7, 8)],
                           name="C3wrS3", kind="perms")
    F = realize_fusion(wreath648, 3)
    rep = verify_theorem_2(F, extras=(c3_wr_s3,))
    fam = canonical_family(F.carrier, 3, extras=(wreath648, c3_wr_s3))
    assert [m.admitted for m in fam.members] == [True, True, True]
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--theorem", "2", "--group", group_file(wreath648),
                 "--p", "3", "--family", group_file(c3_wr_s3)]) == 0
    out = capsys.readouterr().out
    assert f"hypotheses={rep.hypotheses_hold} " \
           f"conclusion={rep.conclusion_holds}\n" in out
    assert f"  W_order: {rep.detail['W_order']}\n" in out
    assert rep.conclusion_holds and rep.detail["W_order"] == 27


@pytest.mark.parametrize("argv", [
    ["wcompute", "{q8}", "2", "--family", "{sl}"],
    ["verify", "--theorem", "2", "--group", "{sl}", "--p", "2", "--family",
     "{sl}"],
], ids=["wcompute", "verify"])
def test_cli_family_file_with_another_sylow_changes_nothing(capsys, tmp_path,
                                                           group_file, cat,
                                                           argv):
    """S4's Sylow 2-subgroup is D8, not Q8: as a --family file it is left
    out, and the output is the output without it."""
    paths = {"q8": tmp_path / "q8.grp", "sl": tmp_path / "sl23.grp"}
    paths["q8"].write_text(Q8_FILE)
    paths["sl"].write_text(SL23_FILE)
    s4 = group_file(cat["S4"])
    argv = [a.format(**paths) for a in argv]
    assert main(argv) == 0
    without = capsys.readouterr().out
    assert main(argv + [s4]) == 0
    assert capsys.readouterr().out == without
    if argv[0] == "wcompute":
        assert "2 members, 2 admitted" in without
        assert "W(S): order 2" in without


def test_printed_names_do_not_depend_on_the_first_caller(
        capsys, monkeypatch, tmp_path, cold_start):
    """A system's name is a label that chooses none of its memos: the
    systems of one (host, p, carrier, ambient) share every memo, and each
    prints the name its caller asked for, whichever caller built the
    system first.  Both orders run in one process, each from cold."""
    from fusionlab.catalog import catalog_group
    from fusionlab.fusion import realize_fusion
    from fusionlab.groups import sylow
    from fusionlab.stellmacher import canonical_family

    verify_3 = ["verify", "--theorem", "3", "--group", "3^(1+2)+", "--p", "3"]
    for family_first in (True, False):
        cold_start()
        S = sylow(catalog_group("3^(1+2)+"), 3)
        if family_first:
            fam = canonical_family(S, 3)
        assert main(verify_3) == 0
        assert "T1.3 on F_27(3^(1+2)+): " in capsys.readouterr().out
        fam = canonical_family(S, 3)
        assert fam.members[0].system.name == "F_S(S)|3^(1+2)+"
        F = realize_fusion(S.parent, 3)
        assert F.name == "F_27(3^(1+2)+)" and F is not fam.members[0].system
        assert F._memo is fam.members[0].system._memo

    path = tmp_path / "d8.grp"
    path.write_text(D8_FILE)
    for realize_first in (True, False):
        cold_start()
        G = parse_group_file(str(path))
        monkeypatch.setattr(cli, "_load_group", lambda spec, cap: G)
        if realize_first:
            realize_fusion(G, 2)
        assert main(["wcompute", str(path), "2", "--catalog"]) == 0
        assert "  F_S(S)|D8file: " in capsys.readouterr().out
        assert realize_fusion(G, 2).name == "F_8(D8file)"
