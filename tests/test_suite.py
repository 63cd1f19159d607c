import ast
import hashlib
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import fusionlab
from fusionlab import groups, suite
from fusionlab.catalog import CATALOG_NAMES, EXPECTED_ORDERS, catalog_group
from fusionlab.cli import main
from fusionlab.errors import InternalInconsistency, MorphismNotInF
from fusionlab.groups import build_group
from fusionlab.suite import RunConfig, SuiteResult, SuiteRunner, run_suite

D8_FILE = """\
group D8file
perm 4
(1 2)
(1 3 2 4)
"""


# sha256 of the stdout of `fusionlab suite --format tsv` over the catalog
SUITE_TSV_SHA256 = (
    "f05c5e04f2e4720a8e6adf2e41d8b9ea8574d674979237bcbba119898442e780")


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_catalog_suite_tsv_is_pinned(flags):
    """A fresh process prints the catalog suite TSV with the pinned digest,
    so a change in any verdict or detail of the sweep fails here, not only
    in the benchmark's reference check; under ``python -O`` too, since the
    invariants must hold in every run mode."""
    src = os.path.dirname(os.path.dirname(fusionlab.__file__))
    run = subprocess.run(
        [sys.executable, *flags, "-m", "fusionlab.cli", "suite", "--format",
         "tsv"],
        capture_output=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == SUITE_TSV_SHA256


def test_empty_files_scope_gives_empty_summary():
    config = RunConfig()
    result = run_suite(config, groups=[], scope="files")
    assert result.rows == []
    assert result.failures == 0


def test_files_scope_runs_only_given_groups():
    config = RunConfig()
    d8 = build_group([(1, 0, 2, 3), (2, 3, 1, 0)], name="D8x", kind="perms")
    result = run_suite(config, groups=[d8], scope="files")
    assert result.rows
    assert all(row[1].startswith("D8x") or row[0] == "wcompute"
               for row in result.rows)
    assert result.contradictions == 0 and result.failures == 0


def test_above_cap_group_skipped_with_note():
    config = RunConfig(order_cap=100)
    qd3 = catalog_group("Qd(3)")
    result = run_suite(config, groups=[qd3], scope="files")
    skips = [r for r in result.rows if r[3] == "skip" and r[0] == "scope"]
    assert len(skips) == 1
    assert "exceeds cap" in skips[0][4]


def test_order_cap_skips_catalog_groups_with_one_row_each(capsys):
    """``--order-cap 100 suite`` prints the default sweep without its 22
    Qd(3) rows, and one skip row for Qd(3) in their place.  Under cap 20
    each catalog group above 20 gets its one skip row and no other row,
    so the goldens and the S4-freeness checks (on groups of order 24) go
    with them."""
    default = run_suite(RunConfig()).to_tsv().splitlines()
    assert main(["--order-cap", "100", "suite", "--format", "tsv"]) == 0
    capped = capsys.readouterr().out.splitlines()
    assert sum("Qd(3)" in row.split("\t")[1] for row in default[1:]) == 22
    assert capped[:3] == default[:2] + [
        "scope\tQd(3)\torder-cap\tskip\torder 216 exceeds cap"]
    assert capped[3:] == [row for row in default[2:]
                          if "Qd(3)" not in row.split("\t")[1]]
    rows = run_suite(RunConfig(order_cap=20)).rows
    above = [n for n in CATALOG_NAMES if EXPECTED_ORDERS[n] > 20]
    assert [r for r in rows if r[0] == "scope"] == [
        ("scope", n, "order-cap", "skip",
         f"order {EXPECTED_ORDERS[n]} exceeds cap") for n in above]
    assert not [r for r in rows if r[0] != "scope"
                and any(n in r[1] for n in above)]
    assert not [r for r in rows if r[0] == "essentials"
                or r[2].startswith(("S4-free", "not-S4-free"))]


def test_order_cap_keeps_the_sweep_from_building_groups_above_it(
        monkeypatch, cold_start):
    """Under cap 100, neither the catalog row (``validate_catalog``) nor
    the sweep's own rows build Qd(3), of order 216: each entry is weighed
    by its expected order before it is built.  (Qd(3) is still built as
    the group H of the Qd(3)-freeness tests at p = 3 and as a member of
    the families at p = 3: those are inputs of the verdicts on the groups
    within the cap.)"""
    catalog = importlib.import_module("fusionlab.catalog")
    cold_start()
    built = []

    def recorded(name, build=catalog.catalog_group):
        built.append(name)
        return build(name)

    assert catalog.validate_catalog(100) == {
        n: (EXPECTED_ORDERS[n], EXPECTED_ORDERS[n]) for n in CATALOG_NAMES
        if n != "Qd(3)"}
    assert "Qd(3)" not in catalog._cache
    monkeypatch.setattr(catalog, "catalog_group", recorded)
    monkeypatch.setattr(suite, "catalog_group", recorded)
    rows = run_suite(RunConfig(order_cap=100)).rows
    assert ("catalog", "builtin", "orders+qd2", "pass", "") in rows
    assert set(built) == set(CATALOG_NAMES) - {"Qd(3)"}


def test_report_files_written_atomically(tmp_path):
    config = RunConfig(report_dir=str(tmp_path / "r"))
    d8 = build_group([(1, 0, 2, 3), (2, 3, 1, 0)], name="D8x", kind="perms")
    run_suite(config, groups=[d8], scope="files")
    reports = sorted(os.listdir(tmp_path / "r"))
    assert reports
    assert all(name.endswith(".tsv") for name in reports)


def test_cli_suite_files_scope(tmp_path, capsys):
    path = tmp_path / "d8.grp"
    path.write_text(D8_FILE)
    rc = main(["suite", "--scope", "files", "--format", "tsv", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "D8file@p=2" in out


def test_cli_suite_on_growth_instance_files(capsys, monkeypatch, tmp_path,
                                            growth_files):
    """The files scope puts each group in its own family: no contradiction,
    and W grows past A(S) on both growth instances."""
    monkeypatch.chdir(tmp_path)
    rc = main(["suite", "--scope", "files", "--format", "tsv",
               growth_files["W648"], growth_files["F16"]])
    out = capsys.readouterr().out
    assert rc == 0, out
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert not [r for r in rows if r[3] == "contradiction"]
    w_rows = {r[1]: r[4] for r in rows if r[0] == "wcompute"}
    assert w_rows["Syl_3(W648)|81"] == "W=27 members=2"
    assert w_rows["Syl_2(F16:(C5:C4))|64"] == "W=16 members=2"


def test_cli_suite_empty_files_scope_exits_zero(capsys):
    rc = main(["suite", "--scope", "files"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


S5_FILE = """\
group S5file
perm 5
(1 2)
(1 2 3 4 5)
"""


def test_cli_suite_gives_a_file_above_the_cap_one_skip_row(capsys,
                                                           tmp_path):
    """A group file that the parser refuses above the cap gets one
    ``scope <path> order-cap skip`` row, with the refusal as its detail,
    after the rows of the catalog entries above the cap; the exit code
    stays 0."""
    path = tmp_path / "s5.grp"
    path.write_text(S5_FILE)
    assert main(["--order-cap", "100", "suite", "--scope", "files",
                 "--format", "tsv", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "section\tinstance\tcheck\tstatus\tdetail",
        f"scope\t{path}\torder-cap\tskip\tclosure exceeded order cap 100"]
    assert main(["--order-cap", "100", "suite", "--format", "tsv",
                 str(path)]) == 0
    scope = [r for r in capsys.readouterr().out.splitlines()
             if r.startswith("scope\t")]
    assert scope == [
        "scope\tQd(3)\torder-cap\tskip\torder 216 exceeds cap",
        f"scope\t{path}\torder-cap\tskip\tclosure exceeded order cap 100"]


def test_suite_result_counts_are_read_from_its_rows():
    """A result built from rows, as the witness dump builds one, counts
    them as ``add`` does; a contradiction is a failure too."""
    rows = [("theorems", "S4@p=2", "T1.1", "contradiction", "W moved"),
            ("axioms", "S3@p=2", "FS1-FS3+category", "pass", ""),
            ("alperin", "Qd(3)@p=3", "roundtrip", "skip", "bound"),
            ("models", "S4@p=2", "Lq-postconditions", "fail", "no model")]
    built = SuiteResult(rows=list(rows))
    added = SuiteResult()
    for row in rows:
        added.add(*row)
    for result in (built, added):
        assert (result.passed, result.failures, result.contradictions,
                result.skipped) == (1, 2, 1, 1)
        assert result.to_text().splitlines()[-1] == (
            "summary: 1 passed, 2 failed, 1 skipped, 1 contradictions")


# the suite-module call each section makes, and the section it reports in
INJECTED_CALLS = {
    "validate_catalog": "catalog", "verify_axioms": "axioms",
    "classify_subgroup": "classify", "essential_subgroups": "essentials",
    "model_group": "models", "sigma3_involvement_check": "hfree",
    "functor_checks": "wcompute", "verify_theorem_2": "theorems",
    "generated_system": "generation", "alperin_decompose": "alperin"}


@pytest.fixture(scope="module")
def passing_sweep():
    return run_suite(RunConfig()).to_tsv().splitlines()


@pytest.mark.parametrize("call", sorted(INJECTED_CALLS))
def test_an_error_in_any_section_becomes_its_rows_status(
        call, passing_sweep, monkeypatch, tmp_path, capsys):
    """An error raised by one section's call becomes the status of that
    section's rows, and the sweep goes on: every (section, instance,
    check) of the passing sweep is still printed, in its order, and every
    other row is unchanged.  An InternalInconsistency is a contradiction,
    with exit 2 and the rows in the witness dump; any other FusionlabError
    is a fail, with exit 1.  A generation check that builds no system
    leaves its normality-propagation row a skip."""
    section = INJECTED_CALLS[call]
    monkeypatch.chdir(tmp_path)
    dump = tmp_path / "contradiction-witness.txt"
    for error, status, code in ((InternalInconsistency, "contradiction", 2),
                                (MorphismNotInF, "fail", 1)):
        def fails(*args, **kwargs):
            raise error(f"{call} injected")

        monkeypatch.setattr(suite, call, fails)
        assert main(["suite", "--format", "tsv"]) == code
        rows = capsys.readouterr().out.splitlines()
        assert ([r.split("\t")[:3] for r in rows]
                == [r.split("\t")[:3] for r in passing_sweep])
        changed = [r.split("\t") for r, before in zip(rows, passing_sweep)
                   if r != before]
        assert changed and {r[0] for r in changed} == {section}
        hit = [r for r in changed if r[4] == f"{call} injected"]
        assert hit and {r[3] for r in hit} == {status}
        assert [r for r in changed if r not in hit] == (
            [r for r in changed if r[2] == "normality-propagation"])
        assert all(r[3:] == ["skip", "no generated system"]
                   for r in changed if r not in hit)
        if code == 2:
            assert dump.read_text().splitlines() == [rows[0]] + [
                "\t".join(r) for r in hit]
            dump.unlink()
        assert not dump.exists()


def test_cold_suite_builds_each_system_and_thompson_datum_once(
        monkeypatch, cold_start):
    """Counts, not timings: on freshly built catalog groups, one suite run
    constructs one conjugation system per (host table, p, carrier,
    ambient), whatever names its callers give it, and computes J(S), A(S)
    and B(S) once per subgroup, however many sections, families and
    theorem harnesses ask for them."""
    from fusionlab import pgroups
    from fusionlab.fusion import FusionSystem

    cold_start()
    systems, bodies, names = [], [], set()
    real_init, real_p_of = FusionSystem.__init__, pgroups.p_of
    real_conjugation = FusionSystem.conjugation.__func__

    def counting_init(self, host, p, carrier, ambient=None, explicit=None,
                      name=None):
        real_init(self, host, p, carrier, ambient=ambient, explicit=explicit,
                  name=name)
        if explicit is None:
            systems.append((host.table_hash(), p, carrier.mask,
                            ambient.mask))

    def counting_conjugation(cls, host, p, carrier, ambient, name=None):
        F = real_conjugation(cls, host, p, carrier, ambient, name=name)
        names.add((host.table_hash(), p, carrier.mask, ambient.mask, F.name))
        return F

    def counting_p_of(S):   # the first step of thompson_data's body
        bodies.append(S)
        return real_p_of(S)

    monkeypatch.setattr(FusionSystem, "__init__", counting_init)
    monkeypatch.setattr(FusionSystem, "conjugation",
                        classmethod(counting_conjugation))
    monkeypatch.setattr(pgroups, "p_of", counting_p_of)
    result = run_suite(RunConfig())
    assert result.failures == 0
    assert systems and len(systems) == len(set(systems))
    # some system is asked for under two names, and is built once
    assert len({key[:4] for key in names}) < len(names)
    assert set(systems) == {key[:4] for key in names}
    assert bodies and len(bodies) == len(set(bodies))


def test_cold_suite_decides_each_group_verdict_once(monkeypatch, cold_start):
    """Counts, not timings: on freshly built catalog groups, one suite run
    computes O_p and O_p' once per (group, p, subgroup), and decides
    involvement and isomorphism once per pair of groups, however many
    quotients, models and harnesses ask.  Derived groups with one table
    are one group, so a repeated table repeats no work."""
    cold_start()
    calls = {"o_pi": [], "involved": [], "isomorphic": []}
    real = {"o_pi": groups._o_pi, "involved": groups._find_section,
            "isomorphic": groups._find_isomorphism}

    def counting_o_pi(G, W, p, prime_to_p):
        calls["o_pi"].append((G, W.mask, p, prime_to_p))
        return real["o_pi"](G, W, p, prime_to_p)

    def counting_involved(H, G):
        calls["involved"].append((H, G))
        return real["involved"](H, G)

    def counting_isomorphic(G, H):
        calls["isomorphic"].append((G, H))
        return real["isomorphic"](G, H)

    tables, real_group = [], groups.FiniteGroup.__init__

    def counting_group(self, *args, **kwargs):
        real_group(self, *args, **kwargs)
        tables.append(self.table_hash())

    monkeypatch.setattr(groups, "_o_pi", counting_o_pi)
    monkeypatch.setattr(groups, "_find_section", counting_involved)
    monkeypatch.setattr(groups, "_find_isomorphism", counting_isomorphic)
    monkeypatch.setattr(groups.FiniteGroup, "__init__", counting_group)
    result = run_suite(RunConfig())
    assert result.failures == 0
    for kind, made in calls.items():
        assert made and len(made) == len(set(made)), kind
    assert tables and len(tables) == len(set(tables))


def test_cold_suite_builds_catalog_groups_from_their_permutations(cold_start):
    """A cold catalog suite registers 38 Cayley tables, each by a group the
    package built or derived: no throwaway group of a multiplication law
    is left among them."""
    cold_start()
    result = run_suite(RunConfig())
    assert result.failures == 0
    names = [G.name for G in groups._by_table.values()]
    assert "tmp" not in names and len(names) == 38


def test_cold_suite_finds_essentials_once_per_system(monkeypatch, cold_start):
    """Counts, not timings: on freshly built catalog groups, one suite run
    finds the essential subgroups of each system once, however many
    morphisms the Alperin roundtrip decomposes and however many sections
    ask for O_p(F)."""
    from fusionlab import fusion

    cold_start()
    bodies = []
    real = fusion._essential_subgroups

    def counting(F):
        bodies.append(F)
        return real(F)

    monkeypatch.setattr(fusion, "_essential_subgroups", counting)
    result = run_suite(RunConfig())
    assert result.failures == 0
    assert bodies and len(bodies) == len({id(F) for F in bodies})


def test_cold_suite_checks_axioms_once_per_system(monkeypatch, cold_start):
    """Counts, not timings: on freshly built catalog groups, one suite run
    checks the axioms of each system once, however many sections ask for
    its report and however often it comes back as a subsystem of
    another."""
    from fusionlab import fusion

    cold_start()
    bodies, calls = [], []
    real_verify, real_axioms = fusion._verify, fusion.verify_axioms

    def counting_verify(F, host, carrier):
        bodies.append(F)
        return real_verify(F, host, carrier)

    def counting_axioms(F):
        calls.append(F)
        return real_axioms(F)

    monkeypatch.setattr(fusion, "_verify", counting_verify)
    for module in ("fusion", "subsystems", "suite"):
        monkeypatch.setattr(f"fusionlab.{module}.verify_axioms",
                            counting_axioms)
    result = run_suite(RunConfig())
    assert result.failures == 0
    assert bodies and len(bodies) == len({id(F) for F in bodies})
    assert {id(F) for F in calls} == {id(F) for F in bodies}
    assert len(calls) > len(bodies)


def test_cold_suite_builds_each_subsystem_once(monkeypatch, cold_start):
    """Counts, not timings: on freshly built catalog groups, one suite run
    walks the extension rule of each subsystem (F, Q, kind) once, however
    many harnesses ask for it."""
    from fusionlab import subsystems

    cold_start()
    bodies, calls = [], []
    real_body, real_kept = subsystems._subsystem, subsystems._kept_subsystem

    def counting_body(F, Q, kind):
        bodies.append((F, Q.mask, kind))
        return real_body(F, Q, kind)

    def counting_kept(F, Q, kind):
        calls.append((F, Q.mask, kind))
        return real_kept(F, Q, kind)

    monkeypatch.setattr(subsystems, "_subsystem", counting_body)
    monkeypatch.setattr(subsystems, "_kept_subsystem", counting_kept)
    result = run_suite(RunConfig())
    assert result.failures == 0
    assert bodies and len(bodies) == len(set(bodies))
    assert set(calls) == set(bodies) and len(calls) > len(bodies)


def test_cold_suite_runs_each_search_filter_and_quotient_once(
        monkeypatch, cold_start):
    """Counts, not timings: on freshly built catalog groups, one suite run
    walks the Alperin search once per (system, domain) however many maps
    it decomposes, filters the maps mapping Q onto Q out of Hom_F(D, S)
    once per (system, D, Q), whether Aut_F(Q), a subsystem rule or the
    normality walk asks, builds B/N once per (group, N, B) however many
    systems, models and sections ask, builds Out_F(Q) once per (system, Q)
    however often the classification and the H-freeness screen ask, and
    walks each subgroup's G-class once per (group, mask).  The names of one
    system share its memo, so the memo stands for the system."""
    from fusionlab import fusion

    cold_start()
    calls = {"alperin": [], "stabilizing": [], "quotient": [],
             "outgroup": [], "classes": []}
    real = {"alperin": fusion._alperin_search,
            "stabilizing": fusion._stabilizing, "quotient": groups._quotient,
            "outgroup": fusion._out_group, "classes": groups._class_walk}

    def counting(kind, key):
        def body(*args):
            calls[kind].append(key(*args))
            return real[kind](*args)
        return body

    monkeypatch.setattr(fusion, "_alperin_search", counting(
        "alperin", lambda F, P: (F._memo, P.mask)))
    monkeypatch.setattr(fusion, "_stabilizing", counting(
        "stabilizing", lambda F, D, Q: (F._memo, D.mask, Q.mask)))
    monkeypatch.setattr(groups, "_quotient", counting(
        "quotient", lambda G, N, B, name: (G, N.mask, B.mask)))
    monkeypatch.setattr(fusion, "_out_group", counting(
        "outgroup", lambda F, Q: (F._memo, Q.mask)))
    monkeypatch.setattr(groups, "_class_walk", counting(
        "classes", lambda G, mask: (G, mask)))
    result = run_suite(RunConfig())
    assert result.failures == 0
    for kind, made in calls.items():
        assert made and len(made) == len(set(made)), kind


def test_cold_suite_computes_w_and_aut_once_per_family(
        monkeypatch, cold_start):
    """Counts, not timings: on freshly built catalog groups, one suite run
    computes W(S) once per distinct family, however many theorem
    harnesses ask for it, and finds the generators of Aut(S) once per
    family model, not once more on a standalone copy of it."""
    from fusionlab import pgroups, stellmacher

    cold_start()
    monkeypatch.setattr(stellmacher, "_w_cache", {})
    families, aut_groups = [], []
    real_w = stellmacher._compute_W_iterative

    def counting_w(family):
        families.append(family)
        return real_w(family)

    def counting_aut(S):
        if S._aut_gens is None:
            aut_groups.append(S)
        return groups.aut_generators(S)

    monkeypatch.setattr(stellmacher, "_compute_W_iterative", counting_w)
    monkeypatch.setattr(stellmacher, "aut_generators", counting_aut)
    monkeypatch.setattr(pgroups, "aut_generators", counting_aut)
    result = run_suite(RunConfig())
    assert result.failures == 0
    assert families and len(families) == len(set(families))
    assert len(aut_groups) == len(set(map(id, aut_groups)))
    assert {id(g) for g in aut_groups} == {id(f.S) for f in families}


def _s_class(F, P):
    """The masks x P x^-1, x in the carrier, by the definition."""
    return {P.conjugate_mask(x) for x in F.carrier.elems}


def _left_s_orbit(F, t):
    """The maps c_y o t, y in the carrier, by the definition."""
    G = F.host
    return {tuple(G.conj(y, v) for v in t) for y in F.carrier.elems}


def test_cold_suite_checks_fs3_per_orbit_and_closes_each_join_once(
        monkeypatch, cold_start):
    """Counts, not timings: on freshly built catalog groups, one suite run
    computes N_phi in each axiom check on one object of each S-class, and
    at most once per left S-orbit {c_y o t : y in S} of its hom-set; and it
    closes a join once per pair of masks where neither contains the other,
    never where one does."""
    from fusionlab import fusion
    from fusionlab.groups import FiniteGroup, Subgroup

    cold_start()
    checks = []   # one (F, [(P, t) with N_phi computed]) per axiom check
    closures = {}   # (parent, smaller mask, larger mask) -> closures
    in_join = []
    real_verify, real_n_phi = fusion._verify, fusion._n_phi_tuple
    real_join, real_closure = Subgroup.join, FiniteGroup.closure_mask

    def counting_verify(F, host, carrier):
        checks.append((F, []))
        return real_verify(F, host, carrier)

    def counting_n_phi(F, P, t):
        if checks and checks[-1][0] is F:
            checks[-1][1].append((P, t))
        return real_n_phi(F, P, t)

    def counting_join(self, other):
        self.generators(), other.generators()   # closures of their own
        a, b = sorted((self.mask, other.mask))
        closures.setdefault((self.parent, a, b), 0)
        in_join.append((self.parent, a, b))
        try:
            return real_join(self, other)
        finally:
            in_join.pop()

    def counting_closure(self, generators, seed_mask=1):
        if in_join:
            closures[in_join[-1]] += 1
        return real_closure(self, generators, seed_mask)

    monkeypatch.setattr(fusion, "_verify", counting_verify)
    monkeypatch.setattr(fusion, "_n_phi_tuple", counting_n_phi)
    monkeypatch.setattr(Subgroup, "join", counting_join)
    monkeypatch.setattr(FiniteGroup, "closure_mask", counting_closure)
    result = run_suite(RunConfig())
    assert result.failures == 0
    assert sum(len(calls) for _, calls in checks) > 0
    for F, calls in checks:
        walked, seen = {}, set()
        for P, t in calls:
            for m in _s_class(F, P):
                assert walked.setdefault(m, P.mask) == P.mask, (F.name, m)
            assert (P.mask, t) not in seen, (F.name, P.mask, t)
            seen |= {(P.mask, u) for u in _left_s_orbit(F, t)}
    assert closures
    for (_, a, b), n in closures.items():
        assert n == (0 if a & ~b == 0 else 1), (a, b, n)


def test_a_catalog_entry_that_fails_to_build_is_a_contradiction_per_row(
        passing_sweep, monkeypatch, cold_start):
    """A catalog entry is built inside the first check that asks for it,
    so an entry that fails its order check makes each of its rows a
    contradiction (its propagation row a skip), and the sweep still plans
    and prints every row."""
    catalog = importlib.import_module("fusionlab.catalog")
    cold_start()
    monkeypatch.setitem(catalog.EXPECTED_ORDERS, "D8", 16)
    result = run_suite(RunConfig())
    assert len(result.rows) == len(passing_sweep) - 1
    d8 = [r for r in result.rows if "D8" in r[1]]
    assert len(d8) == 12
    assert [r[2:] for r in d8 if r[3] != "contradiction"] == [
        ("normality-propagation", "skip", "no generated system")]
    assert ("catalog", "builtin", "orders+qd2", "contradiction",
            "catalog group D8 has order 8, expected 16") in result.rows


def test_every_traced_suite_section_is_a_runner_method():
    """``bench/spans.py`` wraps the ``SuiteRunner`` methods named in its
    ``SUITE_SECTIONS`` for the per-section spans; each must exist.  The
    file is read, not imported."""
    spans = (pathlib.Path(__file__).resolve().parents[1] / "bench"
             / "spans.py")
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    sections = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets]
                    == ["SUITE_SECTIONS"])
    assert len(sections) == 9
    assert [m for m in sections.values()
            if not callable(getattr(SuiteRunner, m, None))] == []
