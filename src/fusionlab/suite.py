"""Catalog-wide invariant and theorem sweep shared by the CLI and tests.

Every check appends one deterministic row (section, instance, check,
status, detail); the TSV rendering of those rows is byte-stable across
runs and hash seeds, which is what the determinism contract requires.
"""

import os
from functools import partial

from .catalog import (
    CATALOG_NAMES,
    EXPECTED_ORDERS,
    catalog_group,
    validate_catalog,
)
from .errors import (
    FusionlabError,
    HypothesisViolated,
    InternalInconsistency,
)
from .fusion import (
    alperin_decompose,
    classify_subgroup,
    essential_subgroups,
    fusion_equal,
    realize_fusion,
    verify_axioms,
    wrap_tuple,
)
from .groups import DEFAULT_ORDER_CAP, o_p, p_part, sylow
from .hfree import (
    centric_radical_fn_subgroups,
    is_fusion_H_free,
    remark67_check,
    sigma3_involvement_check,
)
from .stellmacher import canonical_family, functor_checks
from .subsystems import (
    centralizer_like_system,
    generated_system,
    is_normal_in_F,
    model_group,
    normalizer_system,
    o_p_of_F,
)
from .theorems import (
    frobenius_check,
    thompson_group_check,
    verify_theorem_1,
    verify_theorem_2,
    verify_theorem_3,
)

PRIMES = (2, 3)


class RunConfig:
    """The largest admissible group order, and where per-instance TSV
    reports go (None: nowhere)."""

    def __init__(self, order_cap=DEFAULT_ORDER_CAP, report_dir=None):
        if order_cap <= 0:
            raise ValueError("the order cap must be positive")
        self.order_cap = order_cap
        self.report_dir = report_dir


class SuiteResult:
    """The suite's rows (section, instance, check, status, detail) and
    the count of each status, read from the rows; a contradiction counts
    as a failure too."""

    def __init__(self, rows=None):
        self.rows = [] if rows is None else rows

    def add(self, section, instance, check, status, detail=""):
        self.rows.append((section, instance, check, status, str(detail)))

    def _count(self, *statuses):
        return sum(1 for row in self.rows if row[3] in statuses)

    passed = property(lambda self: self._count("pass"))
    failures = property(lambda self: self._count("fail", "contradiction"))
    contradictions = property(lambda self: self._count("contradiction"))
    skipped = property(lambda self: self._count("skip"))

    def to_tsv(self):
        lines = ["section\tinstance\tcheck\tstatus\tdetail"]
        for row in self.rows:
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"

    def to_text(self):
        lines = []
        for section, instance, check, status, detail in self.rows:
            mark = {"pass": "ok", "fail": "FAIL", "skip": "skip",
                    "contradiction": "CONTRADICTION"}[status]
            extra = f"  [{detail}]" if detail else ""
            lines.append(f"{mark:>13}  {section:<10} {instance:<22} "
                         f"{check}{extra}")
        lines.append(f"summary: {self.passed} passed, {self.failures} "
                     f"failed, {self.skipped} skipped, "
                     f"{self.contradictions} contradictions")
        return "\n".join(lines) + "\n"


def _passes(ok, detail=""):
    """The (status, detail) of a check that passes when ``ok`` holds."""
    return ("pass" if ok else "fail"), detail


def _completes(cross_check, *args):
    """The (status, detail) of a cross-check that raises if it fails."""
    cross_check(*args)
    return "pass", ""


class SuiteRunner:
    """Runs the sweep.  Each check asks ``realize_fusion`` for its system;
    realized systems are interned on their host group, so every section,
    family and theorem harness shares one system per (G, p).  A catalog
    group is built inside the first check that asks for it.

    ``scope`` is "catalog" (built-ins plus any extra groups) or "files"
    (extra groups only; an empty list yields an empty summary).  A group
    above the order cap, built-in or extra, gets one skip row and no check;
    so does each (name, reason) of ``refused``, a file refused at the cap.
    """

    def __init__(self, config: RunConfig, groups=None, scope="catalog",
                 refused=()):
        self.config = config
        self.result = SuiteResult()
        self.extra_groups = list(groups or [])
        self.scope = scope
        self.refused = list(refused)

    def _check(self, section, instance, check, run):
        """Add the row of one check: ``run()`` returns its (status, detail),
        or None for a repeat that adds no row.  The one place the sweep
        handles errors: an InternalInconsistency raised by ``run()`` is a
        contradiction, a HypothesisViolated a skip, any other
        FusionlabError a fail, each with the error's text as detail."""
        try:
            row = run()
        except InternalInconsistency as exc:
            row = "contradiction", exc
        except HypothesisViolated as exc:
            row = "skip", exc
        except FusionlabError as exc:
            row = "fail", exc
        if row is not None:
            self.result.add(section, instance, check, *row)

    # -- sections -----------------------------------------------------

    def run(self):
        cap = self.config.order_cap
        catalog_scope = self.scope == "catalog"
        # (name, order, the group on demand); a catalog group is built by a
        # check, so only once it is known to be within the cap
        sized = [(G.name, G.order, lambda G=G: G) for G in self.extra_groups]
        if catalog_scope:
            self._check("catalog", "builtin", "orders+qd2",
                        lambda: _completes(validate_catalog, cap))
            sized[:0] = [(n, EXPECTED_ORDERS[n], partial(catalog_group, n))
                         for n in CATALOG_NAMES]
        instances = []
        for name, order, group in sized:
            if order > cap:
                self.result.add("scope", name, "order-cap", "skip",
                                f"order {order} exceeds cap")
                continue
            instances += [(name, order, p, group) for p in PRIMES
                          if order % p == 0]
        for name, reason in self.refused:
            self.result.add("scope", name, "order-cap", "skip", reason)

        def each(section):
            for name, _, p, group in instances:
                section(f"{name}@p={p}", p, group)

        each(self._run_axioms)
        each(self._run_classification)
        if catalog_scope:
            self._run_goldens()
        each(self._run_models)
        if catalog_scope:
            self._run_hfree_crosschecks()
        self._run_w_properties(instances)
        each(self._run_theorems)
        each(self._run_generation)
        each(self._run_alperin)
        return self.result

    def _run_axioms(self, instance, p, group):
        def axioms():
            report = verify_axioms(realize_fusion(group(), p))
            return _passes(report, "" if report else report.witness[0])

        self._check("axioms", instance, "FS1-FS3+category", axioms)

    def _run_classification(self, instance, p, group):
        def profiles():
            F = realize_fusion(group(), p)
            count = sum(1 for Q in F.objects()
                        if classify_subgroup(F, Q) is not None)
            return "pass", f"{count} subgroups"

        self._check("classify", instance, "profiles+fn-criterion", profiles)

    def _within_cap(self, *names):
        """Are the catalog entries ``names`` all within the order cap?  It
        is asked before they are built."""
        return all(EXPECTED_ORDERS[n] <= self.config.order_cap for n in names)

    def _run_goldens(self):
        if not self._within_cap("S4", "SL(2,3)"):
            return
        for name, check, want in (
                ("S4", "essentials=={V4n}", lambda G: [o_p(G, 2).mask]),
                ("SL(2,3)", "essentials==empty", lambda G: [])):
            def essentials(name=name, want=want):
                G = catalog_group(name)
                ess, _ = essential_subgroups(realize_fusion(G, 2))
                return _passes([E.mask for E in ess] == want(G),
                               f"{len(ess)} found")

            self._check("essentials", f"{name}@p=2", check, essentials)

    def _run_models(self, instance, p, group):
        def models():
            F = realize_fusion(group(), p)
            built = [model_group(F, Q)
                     for Q in centric_radical_fn_subgroups(F)]
            return "pass", f"{len(built)} models"

        self._check("models", instance, "Lq-postconditions", models)

    def _run_hfree_crosschecks(self):
        for name in CATALOG_NAMES:
            if not self._within_cap(name):
                continue
            for check, cross_check in (
                    ("sigma3-agreement", sigma3_involvement_check),
                    ("O2-quotient-agreement", remark67_check)):
                self._check("hfree", name, check,
                            lambda name=name, cross_check=cross_check:
                            _completes(cross_check, catalog_group(name)))
        if not self._within_cap("S4", "SL(2,3)"):
            return

        def s4_free(name):
            return is_fusion_H_free(realize_fusion(catalog_group(name), 2),
                                    catalog_group("S4"))

        def s4_witnessed():
            rep = s4_free("S4")
            return _passes(not rep.free and rep.witness)

        self._check("hfree", "SL(2,3)@p=2", "S4-free",
                    lambda: _passes(s4_free("SL(2,3)").free))
        self._check("hfree", "S4@p=2", "not-S4-free+witness", s4_witnessed)

    def _run_w_properties(self, instances):
        seen = set()
        for name, order, p, group in instances:
            def functors(p=p, group=group):
                G = group()
                fam = canonical_family(sylow(G, p), p, extras=(G,))
                if fam in seen:
                    return None
                seen.add(fam)
                rep = functor_checks(fam)
                return _passes(rep.all_hold(),
                               f"W={rep.W_iter.order} "
                               f"members={len(fam.admitted_members())}")

            self._check("wcompute", f"Syl_{p}({name})|{p_part(order, p)}",
                        "functor-properties", functors)

    def _run_theorems(self, instance, p, group):
        def verdict(harness):
            G = group()
            report = harness(G, realize_fusion(G, p))
            if report.contradiction:
                return "contradiction", report.detail
            return "pass", (f"hyp={report.hypotheses_hold} "
                            f"conc={report.conclusion_holds}")

        def check(theorem, harness):
            self._check("theorems", instance, theorem,
                        partial(verdict, harness))

        if p == 2:
            check("T1.1", lambda G, F: verify_theorem_1(F))
        check("T1.2", lambda G, F: verify_theorem_2(F))
        if p % 2 == 1:
            check("T1.3", lambda G, F: verify_theorem_3(F))
            check("Thompson", lambda G, F: thompson_group_check(G, p))
        check("Frobenius", lambda G, F: frobenius_check(G, p))

    def _run_generation(self, instance, p, group):
        systems = []   # F, its two parts and the system they generate

        def product():
            F = realize_fusion(group(), p)
            Q = o_p_of_F(F)
            if Q.order == 1:
                return "skip", "O_p(F)=1"
            R = Q.join(F.c_in_carrier(Q))
            f1 = centralizer_like_system(F, Q, "product")
            f2 = normalizer_system(F, R)
            if f2.carrier.mask != F.carrier.mask:
                return "fail", "N_S(R) != S"
            gen = generated_system([f1, f2])
            systems.extend((F, f1, f2, gen))
            return _passes(fusion_equal(gen, F))

        def propagation():
            # normality propagates from the parts to the generated system
            if not systems:
                return "skip", "no generated system"
            F, f1, f2, gen = systems
            for W in F.objects():
                if W.order == 1 or not W.is_normal_in(F.carrier):
                    continue
                in1, _ = is_normal_in_F(f1, W)
                in2, _ = is_normal_in_F(f2, W)
                if in1 and in2 and not is_normal_in_F(gen, W)[0]:
                    return "fail", ""
            return "pass", ""

        self._check("generation", instance, "product+normalizer", product)
        self._check("generation", instance, "normality-propagation",
                    propagation)

    def _run_alperin(self, instance, p, group):
        def roundtrip():
            F = realize_fusion(group(), p)
            if F.carrier.order > 16:
                return "skip", "carrier above the roundtrip bound"
            # each decomposition recomposes to its morphism or raises
            # InternalInconsistency, a contradiction
            count = 0
            for P in F.objects():
                for t in F.maps(P):
                    alperin_decompose(F, wrap_tuple(F, P, F.carrier, t))
                    count += 1
            return "pass", f"{count} morphisms"

        self._check("alperin", instance, "roundtrip", roundtrip)


def run_suite(config: RunConfig, groups=None, scope="catalog",
              refused=()) -> SuiteResult:
    """Execute the sweep; optionally mirror per-instance reports to disk."""
    runner = SuiteRunner(config, groups=groups, scope=scope, refused=refused)
    result = runner.run()
    if config.report_dir:
        _write_reports(config, result)
    return result


def _write_reports(config, result):
    # imported here, so that a run without --report-dir does not load it
    import tempfile

    os.makedirs(config.report_dir, exist_ok=True)
    by_instance = {}
    for row in result.rows:
        by_instance.setdefault((row[0], row[1]), []).append(row)
    for (section, instance), rows in sorted(by_instance.items()):
        safe = f"{section}__{instance}".replace("/", "_").replace(" ", "_")
        path = os.path.join(config.report_dir, safe + ".tsv")
        body = "\n".join("\t".join(r) for r in rows) + "\n"
        fd, tmp = tempfile.mkstemp(dir=config.report_dir, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(body)
        os.replace(tmp, path)
