"""Catalog-wide invariant and theorem sweep shared by the CLI and tests.

Every check appends one deterministic row (section, instance, check,
status, detail); the TSV rendering of those rows is byte-stable across
runs and hash seeds, which is what the determinism contract requires.
"""

import os

from .catalog import CATALOG_NAMES, catalog_group, validate_catalog
from .errors import (
    FusionlabError,
    HypothesisViolated,
    InternalInconsistency,
)
from .fusion import (
    classify_subgroup,
    essential_subgroups,
    realize_fusion,
    verify_axioms,
)
from .groups import DEFAULT_ORDER_CAP, standard_subgroup, sylow
from .hfree import (
    centric_radical_fn_subgroups,
    is_fusion_H_free,
    remark67_check,
    sigma3_involvement_check,
)
from .stellmacher import cached_canonical_family, functor_checks
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
    the count of each non-pass status."""

    def __init__(self, rows=None):
        self.rows = [] if rows is None else rows
        self.contradictions = 0
        self.failures = 0
        self.skipped = 0

    def add(self, section, instance, check, status, detail=""):
        self.rows.append((section, instance, check, status, str(detail)))
        if status == "fail":
            self.failures += 1
        elif status == "contradiction":
            self.contradictions += 1
            self.failures += 1
        elif status == "skip":
            self.skipped += 1

    @property
    def passed(self):
        return sum(1 for r in self.rows if r[3] == "pass")

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


def catalog_instances():
    """(group, p) pairs with p dividing the order, in canonical order."""
    out = []
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        for p in PRIMES:
            if G.order % p == 0:
                out.append((G, p))
    return out


def _instance_name(G, p):
    return f"{G.name}@p={p}"


class SuiteRunner:
    """Runs the sweep.  Each section asks ``realize_fusion`` for its system;
    realized systems are interned on their host group, so every section,
    family and theorem harness shares one system per (G, p).

    ``scope`` is "catalog" (built-ins plus any extra groups) or "files"
    (extra groups only; an empty list yields an empty summary).
    """

    def __init__(self, config: RunConfig, groups=None, scope="catalog"):
        self.config = config
        self.result = SuiteResult()
        self.extra_groups = list(groups or [])
        self.scope = scope

    # -- sections -----------------------------------------------------

    def run(self):
        res = self.result
        catalog_scope = self.scope == "catalog"
        instances = []
        if catalog_scope:
            try:
                validate_catalog()
                res.add("catalog", "builtin", "orders+qd2", "pass")
            except InternalInconsistency as exc:
                res.add("catalog", "builtin", "orders+qd2", "fail", exc)
            instances.extend(catalog_instances())
        for G in self.extra_groups:
            if G.order > self.config.order_cap:
                res.add("scope", G.name, "order-cap", "skip",
                        f"order {G.order} exceeds cap")
                continue
            for p in PRIMES:
                if G.order % p == 0:
                    instances.append((G, p))

        for G, p in instances:
            self._run_axioms(G, p)
        for G, p in instances:
            self._run_classification(G, p)
        if catalog_scope:
            self._run_goldens()
        for G, p in instances:
            self._run_models(G, p)
        if catalog_scope:
            self._run_hfree_crosschecks()
        self._run_w_properties(instances)
        for G, p in instances:
            self._run_theorems(G, p)
        for G, p in instances:
            self._run_generation(G, p)
        for G, p in instances:
            self._run_alperin(G, p)
        return res

    def _run_axioms(self, G, p):
        name = _instance_name(G, p)
        F = realize_fusion(G, p)
        report = verify_axioms(F)
        self.result.add("axioms", name, "FS1-FS3+category",
                        "pass" if report else "fail",
                        "" if report else report.witness[0])

    def _run_classification(self, G, p):
        name = _instance_name(G, p)
        F = realize_fusion(G, p)
        try:
            count = sum(1 for Q in F.objects()
                        if classify_subgroup(F, Q) is not None)
            self.result.add("classify", name, "profiles+fn-criterion",
                            "pass", f"{count} subgroups")
        except InternalInconsistency as exc:
            self.result.add("classify", name, "profiles+fn-criterion",
                            "contradiction", exc)

    def _run_goldens(self):
        res = self.result
        F = realize_fusion(catalog_group("S4"), 2)
        v4n = standard_subgroup(catalog_group("S4"), "O_p", p=2)
        ess, _ = essential_subgroups(F)
        ok = len(ess) == 1 and ess[0].mask == v4n.mask
        res.add("essentials", "S4@p=2", "essentials=={V4n}",
                "pass" if ok else "fail",
                f"{len(ess)} found")
        F2 = realize_fusion(catalog_group("SL(2,3)"), 2)
        ess2, _ = essential_subgroups(F2)
        res.add("essentials", "SL(2,3)@p=2", "essentials==empty",
                "pass" if not ess2 else "fail", f"{len(ess2)} found")

    def _run_models(self, G, p):
        name = _instance_name(G, p)
        F = realize_fusion(G, p)
        count = 0
        try:
            for Q in centric_radical_fn_subgroups(F):
                model_group(F, Q)
                count += 1
            self.result.add("models", name, "Lq-postconditions", "pass",
                            f"{count} models")
        except FusionlabError as exc:
            self.result.add("models", name, "Lq-postconditions", "fail", exc)

    def _run_hfree_crosschecks(self):
        res = self.result
        s4 = catalog_group("S4")
        for name in CATALOG_NAMES:
            G = catalog_group(name)
            if G.order > 216:
                continue
            try:
                sigma3_involvement_check(G)
                res.add("hfree", G.name, "sigma3-agreement", "pass")
            except InternalInconsistency as exc:
                res.add("hfree", G.name, "sigma3-agreement",
                        "contradiction", exc)
            try:
                remark67_check(G)
                res.add("hfree", G.name, "O2-quotient-agreement", "pass")
            except HypothesisViolated:
                res.add("hfree", G.name, "O2-quotient-agreement", "skip",
                        "C_G(O_2) not in O_2")
            except InternalInconsistency as exc:
                res.add("hfree", G.name, "O2-quotient-agreement",
                        "contradiction", exc)
        rep = is_fusion_H_free(realize_fusion(catalog_group("SL(2,3)"), 2), s4)
        res.add("hfree", "SL(2,3)@p=2", "S4-free",
                "pass" if rep.free else "fail")
        rep = is_fusion_H_free(realize_fusion(s4, 2), s4)
        res.add("hfree", "S4@p=2", "not-S4-free+witness",
                "pass" if (not rep.free and rep.witness) else "fail")

    def _run_w_properties(self, instances):
        res = self.result
        seen = set()
        for G, p in instances:
            S = sylow(G, p)
            local, _ = S.as_group()
            key = (local.table_hash(), p)
            if key in seen:
                continue
            seen.add(key)
            label = f"Syl_{p}({G.name})|{S.order}"
            try:
                fam = cached_canonical_family(S, p)
                rep = functor_checks(fam.S, fam)
                ok = rep.all_hold()
                res.add("wcompute", label, "functor-properties",
                        "pass" if ok else "fail",
                        f"W={rep.W_iter.order} members="
                        f"{len(fam.admitted_members())}")
            except FusionlabError as exc:
                res.add("wcompute", label, "functor-properties", "fail", exc)

    def _run_theorems(self, G, p):
        name = _instance_name(G, p)
        F = realize_fusion(G, p)
        res = self.result

        def record(theorem, thunk):
            try:
                report = thunk()
                if report.contradiction:
                    res.add("theorems", name, theorem, "contradiction",
                            report.detail)
                else:
                    res.add("theorems", name, theorem, "pass",
                            f"hyp={report.hypotheses_hold} "
                            f"conc={report.conclusion_holds}")
            except InternalInconsistency as exc:
                res.add("theorems", name, theorem, "contradiction", exc)

        if p == 2:
            record("T1.1", lambda: verify_theorem_1(F))
        record("T1.2", lambda: verify_theorem_2(F))
        if p % 2 == 1:
            record("T1.3", lambda: verify_theorem_3(F))
            record("Thompson", lambda: thompson_group_check(G, p))
        record("Frobenius", lambda: frobenius_check(G, p))

    def _run_alperin(self, G, p):
        name = _instance_name(G, p)
        F = realize_fusion(G, p)
        if F.carrier.order > 16:
            self.result.add("alperin", name, "roundtrip", "skip",
                            "carrier above the roundtrip bound")
            return
        from .fusion import alperin_decompose, wrap_tuple

        count = 0
        try:
            for P in F.objects():
                for t in F.maps(P):
                    deco = alperin_decompose(F, wrap_tuple(F, P, F.carrier, t))
                    if deco.recompose() != dict(zip(P.elems, t)):
                        self.result.add("alperin", name, "roundtrip", "fail",
                                        f"domain order {P.order}")
                        return
                    count += 1
            self.result.add("alperin", name, "roundtrip", "pass",
                            f"{count} morphisms")
        except FusionlabError as exc:
            self.result.add("alperin", name, "roundtrip", "fail", exc)

    def _run_generation(self, G, p):
        name = _instance_name(G, p)
        F = realize_fusion(G, p)
        res = self.result
        Q = o_p_of_F(F)
        if Q.order == 1:
            res.add("generation", name, "product+normalizer", "skip",
                    "O_p(F)=1")
            return
        R = Q.join(F.c_in_carrier(Q))
        try:
            f1 = centralizer_like_system(F, Q, "product")
            f2 = normalizer_system(F, R)
            if f2.carrier.mask != F.carrier.mask:
                res.add("generation", name, "product+normalizer", "fail",
                        "N_S(R) != S")
                return
            gen = generated_system([f1, f2])
            from .fusion import fusion_equal

            ok = fusion_equal(gen, F)
            res.add("generation", name, "product+normalizer",
                    "pass" if ok else "fail")
            # normality propagates from the parts to the generated system
            propagated = True
            for W in F.objects():
                if W.order == 1 or not W.is_normal_in(F.carrier):
                    continue
                in1, _ = is_normal_in_F(f1, W)
                in2, _ = is_normal_in_F(f2, W)
                if in1 and in2 and not is_normal_in_F(gen, W)[0]:
                    propagated = False
                    break
            res.add("generation", name, "normality-propagation",
                    "pass" if propagated else "fail")
        except FusionlabError as exc:
            res.add("generation", name, "product+normalizer", "fail", exc)


def run_suite(config: RunConfig, groups=None, scope="catalog") -> SuiteResult:
    """Execute the sweep; optionally mirror per-instance reports to disk."""
    runner = SuiteRunner(config, groups=groups, scope=scope)
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
