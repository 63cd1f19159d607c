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


def test_each_walk_has_one_kernel_in_package():
    """Orbits are walked by ``groups.orbit`` alone, so the point-orbit,
    system-orbit and mask-move copies do not come back.  The category
    axioms and ``category_closure`` share ``fusion._category_gaps``, and
    both group builders fill their tables with ``table_along_tree``."""
    banned = {"_point_orbit", "_orbit", "_move_mask"}
    found = []
    for name, node in _nodes(ast.AST):
        for field in ("id", "attr", "name"):
            if getattr(node, field, None) in banned:
                found.append(f"{name}:{node.lineno}:{getattr(node, field)}")
    assert found == []
    callers = {"_category_gaps": {"_verify", "category_closure"},
               "table_along_tree": {"_group_from_perms", "_group_from_maps"}}
    calls = {used: set() for used in callers}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for used, func, _ in _uses(tree, callers):
            if func is not None:
                calls[used].add(func)
    assert calls == callers


def _reads_by_position(comp):
    """(kind, line) if the comprehension ``comp`` reads a map by hand:
    a position map at its loop variable (``pos[g] for g in gens``), or a
    tuple at a loop variable that runs over a list of positions held in a
    name (``t[i] for i in at``)."""
    elt = comp.key if isinstance(comp, ast.DictComp) else comp.elt
    for gen in comp.generators:
        var = gen.target
        if not (isinstance(var, ast.Name) and isinstance(elt, ast.Subscript)
                and isinstance(elt.value, ast.Name)
                and isinstance(elt.slice, ast.Name)
                and elt.slice.id == var.id):
            continue
        if elt.value.id.endswith("pos"):
            return "position-map", comp.lineno
        if isinstance(gen.iter, ast.Name):
            return "positions-list", comp.lineno
    return None


def test_maps_are_read_through_the_subgroup_reader():
    """A map held over D's sorted elements is read at given elements by
    ``D.reader(xs)`` alone, and a map on D is keyed by ``D.key``: outside
    groups.py no comprehension reads a position map at its loop variable
    or a tuple at a list of positions, and the hand-built restriction and
    composition helpers do not come back."""
    found = []
    for name, node in _nodes((ast.ListComp, ast.SetComp, ast.GeneratorExp,
                              ast.DictComp)):
        got = _reads_by_position(node)
        if got is not None and name != "groups.py":
            found.append(f"{name}:{got[1]}:{got[0]}")
    assert found == []
    banned = {"restrict_tuple", "compose_tuples"}
    for name, node in _nodes(ast.AST):
        for field in ("id", "attr", "name"):
            if getattr(node, field, None) in banned:
                found.append(f"{name}:{node.lineno}:{getattr(node, field)}")
    assert found == []


def test_a_system_is_realized_or_explicit_in_package():
    """A system has an ambient (realized) or stored hom-sets (explicit),
    never both, and an F-class is read off one hom-set.  The flag of a
    third kind, the ambient an explicit system could carry, and the
    union-find over every hom-set (kept as the oracle
    ``conjugacy_classes_brute`` in tests/oracles.py) do not come back."""
    banned = {"_explicit", "conjugacy_classes", "_subsystem_ambient"}
    found = []
    for name, node in _nodes(ast.AST):
        for field in ("id", "attr", "name"):
            if getattr(node, field, None) in banned:
                found.append(f"{name}:{node.lineno}:{getattr(node, field)}")
    for name, node in _nodes(ast.FunctionDef):
        if node.name in ("explicit_system", "category_closure"):
            if "ambient" in [a.arg for a in node.args.args]:
                found.append(f"{name}:{node.lineno}:{node.name}(ambient)")
    assert found == []


def test_families_are_built_only_in_stellmacher():
    """``stellmacher.canonical_family`` is the one family builder, so every
    caller gets the same family for the same S, p and pool: no other module
    admits a member or assembles a family itself."""
    banned = {"admit_member", "CandidateFamily"}
    found = []
    for name, node in _nodes(ast.Call):
        func = node.func
        called = getattr(func, "id", None) or getattr(func, "attr", None)
        if called in banned and name != "stellmacher.py":
            found.append(f"{name}:{node.lineno}:{called}")
    assert found == []


def test_theorem_harnesses_build_their_own_family():
    """The theorem harnesses take W(S) from ``canonical_family`` with the
    group under test in its pool: none takes a prebuilt family, which
    could leave that group out, and W reaches S through the embedding of
    S's standalone copy, not through an isomorphism found afresh."""
    tree = ast.parse((SRC / "theorems.py").read_text(encoding="utf-8"))
    funcs = dict(_functions(tree))
    harnesses = ("verify_theorem_1", "verify_theorem_2", "verify_theorem_3",
                 "thompson_group_check")
    params = {name: [a.arg for a in ast.walk(funcs[name].args)
                     if isinstance(a, ast.arg)] for name in harnesses}
    assert {name: args for name, args in params.items()
            if "family" in args} == {}
    assert "_family_for" not in funcs
    assert list(_uses(tree, {"is_isomorphic"})) == []


def test_one_route_per_construction():
    """A catalog entry is built from its permutations alone, and W(S) reads
    a member's images through ``stellmacher._images`` alone: the builder
    of a group from a multiplication law, the regular representation and
    the host-side closure of the growth step (kept as references in
    tests/oracles.py) do not come back, and no other function of
    stellmacher reads a map of a member's system."""
    banned = {"group_from_function", "regular_generators",
              "_member_orbit_closure", "_quaternion_perms",
              "_extraspecial27_exp9"}
    found = []
    for name, node in _nodes(ast.AST):
        for field in ("id", "attr", "name"):
            if getattr(node, field, None) in banned:
                found.append(f"{name}:{node.lineno}:{getattr(node, field)}")
    assert found == []
    tree = ast.parse((SRC / "stellmacher.py").read_text(encoding="utf-8"))
    assert {func for _, func, _ in _uses(tree, {"maps", "reader"})} \
        == {"_images"}


def _uses(node, names, func=None):
    """(name, innermost enclosing function or None, line) for each name in
    ``names`` that the tree under ``node`` reads, calls or imports."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _uses(child, names, child.name)
            continue
        if isinstance(child, ast.alias):
            used = child.name
        else:
            used = getattr(child, "id", None) or getattr(child, "attr", None)
        if used in names:
            yield used, func, getattr(child, "lineno", None)
        yield from _uses(child, names, func)


def test_axioms_and_subsystems_are_computed_only_through_their_memos():
    """``verify_axioms`` keeps the axiom report on F and
    ``_kept_subsystem`` keeps each subsystem on F, so that each is computed
    once per system: ``_verify`` is reached only from the one and
    ``_subsystem`` only from the other."""
    memo_of = {"_verify": "verify_axioms", "_subsystem": "_kept_subsystem"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for used, func, line in _uses(tree, memo_of):
            if func != memo_of[used]:
                found.append(f"{path.name}:{line}:{used} in {func}")
    assert found == []


def test_searches_filters_and_quotients_are_computed_only_through_their_memos():
    """The Alperin search of a domain and the filter of the maps on D that
    map Q onto Q are kept on F, and B/N on G, so that each is computed
    once: ``_alperin_search`` is reached only from ``alperin_decompose``,
    ``_stabilizing`` only from ``FusionSystem.stabilizing`` and
    ``_quotient`` only from ``quotient_group``."""
    memo_of = {"_alperin_search": "alperin_decompose",
               "_stabilizing": "stabilizing", "_quotient": "quotient_group"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for used, func, line in _uses(tree, memo_of):
            if func != memo_of[used]:
                found.append(f"{path.name}:{line}:{used} in {func}")
    assert found == []


def test_normality_reads_the_normalizer_rule():
    """W is normal in F when the rule of N_F(W) gives F's hom-sets, so the
    normality walk and the subsystem hom-sets share one rule kernel,
    ``_rule_extensions``, over the one kept filter ``stabilizing``.  The
    separate normality walk, the Aut_F(Q) filter, the Inn(Q) list and the
    exception of the O_p(F) re-check do not come back."""
    banned = {"_first_unextended", "_aut_tuples", "inn_tuples",
              "JoinNotNormal"}
    found = []
    for name, node in _nodes(ast.AST):
        for field in ("id", "attr", "name"):
            if getattr(node, field, None) in banned:
                found.append(f"{name}:{node.lineno}:{getattr(node, field)}")
    assert found == []
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        callers |= {func for _, func, _ in _uses(tree, {"_rule_extensions"})}
    assert callers == {"_normal_in_F", "_rule_hom_sets"}


def _functions(node, prefix=""):
    """(qualified name, node) of each function defined under ``node``,
    a method qualified by its class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")


def test_order_cap_is_checked_where_groups_enter():
    """The order cap is checked where a group enters the package: the
    group builders, the group-file parser, the catalog check, the CLI's
    loaders and ``RunConfig``.  A group derived from those is no larger than its
    parent, so no search takes a cap.  ``standard_subgroup`` (its callers
    use the kernels) and ``perm_elements`` do not come back."""
    entries = {
        "groups.py:build_group", "groups.py:_group_from_perms",
        "groups.py:_group_from_table", "groupfile.py:parse_group_text",
        "catalog.py:validate_catalog",
        "groupfile.py:parse_group_file", "cli.py:_load_group",
        "cli.py:_catalog_group", "cli.py:_resolve_h",
        "suite.py:RunConfig.__init__"}
    takes_cap = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for qual, func in _functions(tree):
            args = func.args
            params = {a.arg for a in
                      args.posonlyargs + args.args + args.kwonlyargs}
            if params & {"cap", "order_cap"}:
                takes_cap.add(f"{path.name}:{qual}")
    assert takes_cap == entries
    banned = {"standard_subgroup", "perm_elements"}
    found = []
    for name, node in _nodes(ast.AST):
        for field in ("id", "attr", "name", "arg"):
            if getattr(node, field, None) in banned:
                found.append(f"{name}:{node.lineno}:{getattr(node, field)}")
    assert found == []


def test_local_kernels_search_what_f_holds():
    """``fusion._strongly_p_embedded`` works from one Sylow subgroup of
    Out_F(Q) and builds no subgroup lattice, and the well-placing map is
    found in a hom-set of F, so ``subsystems`` imports none of the tuple
    tools that rebuilt it."""
    tree = ast.parse((SRC / "fusion.py").read_text(encoding="utf-8"))
    kernel = dict(_functions(tree))["_strongly_p_embedded"]
    calls = [node.func.attr for node in ast.walk(kernel)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)]
    assert calls and "subgroups" not in calls
    tree = ast.parse((SRC / "subsystems.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "verify_axioms" in imported
    assert imported.isdisjoint({"_n_phi_tuple", "invert_tuple",
                                "compose_tuples"})


def test_derived_groups_come_from_derived_group():
    """A group the package derives (a quotient, a subgroup's standalone
    copy, Aut_F(Q)) comes from ``groups.derived_group``, one object per
    Cayley table with one set of memos: ``FiniteGroup`` is called only
    there and in the builders of groups from outside input."""
    allowed = {"derived_group", "_group_from_perms", "_group_from_table"}
    found = []
    for name, func in _nodes(ast.FunctionDef):
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "FiniteGroup"
                    and func.name not in allowed):
                found.append(f"{name}:{node.lineno}:{func.name}")
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


def _assigned_attributes(tree, cls, method="__init__"):
    """The names of the attributes ``cls.method`` assigns on self."""
    klass = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == cls)
    init = next(node for node in klass.body
                if isinstance(node, ast.FunctionDef) and node.name == method)
    return {target.attr for node in ast.walk(init)
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Attribute)}


def _stored_subscripts(node):
    """The subscripts that the assignment ``node`` stores into."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target])
    todo = list(targets)
    for target in todo:   # grows while it is walked
        if isinstance(target, (ast.Tuple, ast.List)):
            todo.extend(target.elts)
        elif isinstance(target, ast.Subscript):
            yield target


def test_keyed_facts_are_stored_only_through_kept():
    """``groups.kept`` is the one memo kernel: no other function stores
    by subscript into a memo store, which are the dicts of
    ``fusion._Memos`` and of ``FiniteGroup``, the family and W caches and
    the catalog's groups.  Two sites stay inline: the interning
    ``FiniteGroup.subgroup``, which measured slower through the kernel,
    and ``FusionSystem.conjugation``, keyed in two levels.  Each body that
    a memo computes is reached only from that memo, and no
    ``functools`` cache keeps a fact beside them."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    attrs = (_assigned_attributes(trees["fusion.py"], "_Memos")
             | _assigned_attributes(trees["groups.py"], "FiniteGroup"))
    assert {"normal", "outgroups", "_classes", "_joins"} <= attrs
    names = {"_family_cache", "_w_cache", "_cache"}
    allowed = {"groups.py:FiniteGroup.subgroup",
               "fusion.py:FusionSystem.conjugation"}
    stores = set()
    for name, tree in trees.items():
        for qual, func in _functions(tree):
            for node in ast.walk(func):
                if not isinstance(node, (ast.Assign, ast.AugAssign,
                                         ast.AnnAssign)):
                    continue
                for target in _stored_subscripts(node):
                    store = target.value
                    if (getattr(store, "attr", None) in attrs
                            or getattr(store, "id", None) in names):
                        stores.add(f"{name}:{qual}")
    assert stores <= allowed
    memo_of = {
        "_join": {"join"}, "_class_walk": {"_conjugates"},
        "_left_cosets": {"left_cosets"},
        "_canonical_sylow": {"sylow"}, "_o_pi": {"_kept_o_pi"},
        "_quotient": {"quotient_group"},
        "_find_isomorphism": {"is_isomorphic"},
        "_find_section": {"is_involved"}, "_conjugation_maps": {"maps"},
        "_f_class": {"conjugacy_class_of"}, "_aut_group": {"aut_group"},
        "_out_group": {"out_group"},
        "_classify_subgroup": {"classify_subgroup"},
        "_normal_in_F": {"is_normal_in_F"}, "_model_group": {"model_group"},
        "_build_family": {"canonical_family"},
        "_compute_W_iterative": {"compute_W_iterative"},
        "_build": {"catalog_group", "qd2_group"}}
    callers = {body: set() for body in memo_of}
    for tree in trees.values():
        for used, func, _ in _uses(tree, memo_of):
            callers[used].add(func)
    assert callers == memo_of
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{name}:{a.name}" for a in node.names
                          if a.name in ("cache", "lru_cache")]
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("cache", "lru_cache")
                    and getattr(node.value, "id", None) == "functools"):
                found.append(f"{name}:{node.lineno}:functools.{node.attr}")
    assert found == []


def test_conjugations_walk_left_cosets_of_a_centralizer():
    """A conjugation on P <= S depends only on the left coset of a
    subgroup that centralizes P, so F's conjugation loops walk
    ``groups.left_cosets``, the coset walk of ``groups._quotient`` too:
    ``conj_maps`` (behind the realized hom-sets and Aut_S(Q)), FS1 in
    ``_verify``, ``_n_phi_tuple`` and the ``allowed`` set of
    ``_subsystem_kind``.  None of them, nor
    ``_conjugation_maps`` and ``FusionSystem.aut_s_tuples``, reads an
    ``.elems``, so none walks the elements of an ambient or a carrier
    again."""
    loops = {"fusion.py": {"conj_maps", "_conjugation_maps",
                           "FusionSystem.aut_s_tuples", "_verify",
                           "_n_phi_tuple"},
             "subsystems.py": {"_subsystem_kind"}, "groups.py": set()}
    found = []
    callers = set()
    for name, quals in loops.items():
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for qual, func in _functions(tree):
            if qual not in quals:
                continue
            found += [f"{name}:{node.lineno}:{qual}"
                      for node in ast.walk(func)
                      if isinstance(node, ast.Attribute)
                      and node.attr == "elems"]
        callers |= {func for _, func, _ in _uses(tree, {"left_cosets"})
                    if func is not None}
    assert found == []
    assert callers == {"conj_maps", "_verify", "_n_phi_tuple",
                       "_subsystem_kind", "_quotient"}


def test_suite_handles_errors_only_in_its_check_kernel():
    """``SuiteRunner._check`` is the one place where the sweep turns an
    error into a row's status; no other ``try`` in ``suite.py`` catches
    one by a policy of its own."""
    tree = ast.parse((SRC / "suite.py").read_text(encoding="utf-8"))
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))
    kernel = dict(_functions(tree))["SuiteRunner._check"]
    inside = {id(node) for node in ast.walk(kernel)
              if isinstance(node, tries)}
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, tries) and id(node) not in inside]
    assert inside and found == []


def test_each_lattice_is_walked_on_its_own_table():
    """The lattice kernel has two modes, a group's whole lattice and the
    overgroups of seeds, and no ``within``: a subgroup's lattice is its
    standalone copy's, moved along the embedding.  So only
    ``Subgroup.subgroups_within`` (the whole lattice) and ``_find_section``
    (the overgroups) call it, and F's objects are the carrier's kept
    lattice, not a second copy in ``fusion._Memos``."""
    tree = ast.parse((SRC / "groups.py").read_text(encoding="utf-8"))
    args = dict(_functions(tree))["_subgroup_lattice_masks"].args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] \
        == ["G", "seeds"]
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for qual, func in _functions(tree):
            if any(getattr(node, "id", getattr(node, "attr", None))
                   == "_subgroup_lattice_masks" for node in ast.walk(func)):
                callers.add(f"{path.name}:{qual}")
    assert callers == {"groups.py:Subgroup.subgroups_within",
                       "groups.py:_find_section"}
    tree = ast.parse((SRC / "fusion.py").read_text(encoding="utf-8"))
    memos = dict(_functions(tree))["_Memos.__init__"]
    fields = {node.attr for node in ast.walk(memos)
              if isinstance(node, ast.Attribute)}
    assert "maps" in fields and "objects" not in fields
