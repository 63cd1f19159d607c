"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion carries the wall-clock budget it must meet.
"""

import os
import subprocess
import sys
import time

import pytest

from fusionlab.catalog import CATALOG_NAMES, catalog_group
from fusionlab.errors import SandwichViolated
from fusionlab.fusion import (
    FusionSystem,
    alperin_decompose,
    classify_subgroup,
    essential_subgroups,
    verify_axioms,
    wrap_tuple,
)
from fusionlab.groups import o_p, sylow
from fusionlab.hfree import (
    is_fusion_H_free,
    remark67_check,
    sigma3_involvement_check,
)
from fusionlab.pgroups import is_characteristic, thompson_data
from fusionlab.stellmacher import (
    CandidateFamily,
    FamilyMember,
    admit_member,
    canonical_family,
    compute_W_iterative,
    functor_checks,
)
from fusionlab.subsystems import (
    category_closure,
    centralizer_like_system,
    generated_system,
    is_normal_in_F,
    model_group,
    normalizer_system,
    o_p_of_F,
)
from fusionlab.theorems import (
    frobenius_check,
    thompson_group_check,
    verify_theorem_1,
    verify_theorem_2,
    verify_theorem_3,
)

from oracles import brute_centric, brute_out_group, brute_strongly_p_embedded


def _verdict(num, desc, elapsed, budget):
    print(f"\nACCEPTANCE {num:>2} [{desc}]: PASS ({elapsed:.1f}s, "
          f"budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def _p_part(n, p):
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def test_criterion_01_axiom_suite(systems):
    t0 = time.monotonic()
    assert len(systems) >= 12
    for (name, p), F in systems.items():
        report = verify_axioms(F)
        assert report.status == "verified", (name, p, report.witness)
    _verdict(1, "axioms verified on every catalog system",
             time.monotonic() - t0, 60)


def test_criterion_02_fully_normalized_characterization(systems):
    t0 = time.monotonic()
    for (name, p), F in systems.items():
        for Q in F.objects():
            fn = F.is_fully_normalized(Q)
            fc = F.is_fully_centralized(Q)
            aut_f = F.aut_tuples(Q)
            aut_s = set(F.aut_s_tuples(Q))
            assert aut_s <= set(aut_f)
            sylow_cond = _p_part(len(aut_f), p) == len(aut_s)
            assert fn == (fc and sylow_cond), (name, p, Q.order)
    _verdict(2, "fully normalized <=> fully centralized + Sylow condition",
             time.monotonic() - t0, 60)


def test_criterion_03_alperin_roundtrip(systems):
    t0 = time.monotonic()
    total = 0
    for (name, p), F in systems.items():
        if F.carrier.order > 16:
            continue
        for P in F.objects():
            for t in F.maps(P):
                phi = wrap_tuple(F, P, F.carrier, t)
                deco = alperin_decompose(F, phi)
                assert deco.recompose() == dict(zip(P.elems, t))
                total += 1
    assert total > 100
    _verdict(3, f"Alperin round-trip on {total} morphisms",
             time.monotonic() - t0, 120)


def test_criterion_04_essential_golden_values(cat, systems):
    t0 = time.monotonic()
    s4 = cat["S4"]
    F = systems[("S4", 2)]
    v4n = o_p(s4, 2)
    ess, _ = essential_subgroups(F)
    assert [E.mask for E in ess] == [v4n.mask]
    ess2, _ = essential_subgroups(systems[("SL(2,3)", 2)])
    assert ess2 == []
    # independent oracle: ambient N/QC quotient + raw strongly-p-embedded
    for key in (("S4", 2), ("SL(2,3)", 2)):
        F = systems[key]
        G = F.host
        expected = set()
        for Q in F.objects():
            if Q.order == 1:
                continue
            if not brute_centric(G, F.carrier, Q):
                continue
            table = brute_out_group(G, F.carrier, Q)
            if brute_strongly_p_embedded(table, 2) is not None:
                expected.add(Q.mask)
        got = {E.mask for E in essential_subgroups(F)[0]}
        assert got == expected
    _verdict(4, "essential golden values vs independent oracle",
             time.monotonic() - t0, 10)


def test_criterion_05_model_validation(systems):
    t0 = time.monotonic()
    count = 0
    for (name, p), F in systems.items():
        for Q in F.objects():
            prof = classify_subgroup(F, Q)
            if prof.centric and prof.fully_normalized:
                model_group(F, Q)   # raises unless all post-conditions hold
                count += 1
    assert count >= 20
    _verdict(5, f"model post-conditions on {count} admissible pairs",
             time.monotonic() - t0, 60)


def test_criterion_06_hfree_crosschecks(cat, systems):
    t0 = time.monotonic()
    from fusionlab.errors import HypothesisViolated

    for name in CATALOG_NAMES:
        G = catalog_group(name)
        if G.order > 216:
            continue
        sigma3_involvement_check(G)       # raises on internal inconsistency
        try:
            remark67_check(G)
        except HypothesisViolated:
            pass
    assert is_fusion_H_free(systems[("SL(2,3)", 2)], cat["S4"]).free
    rep = is_fusion_H_free(systems[("S4", 2)], cat["S4"])
    assert not rep.free and rep.witness is not None
    _verdict(6, "H-free cross-checks over the catalog",
             time.monotonic() - t0, 120)


def test_criterion_07_w_properties(cat, systems, wreath648):
    t0 = time.monotonic()
    seen = set()
    for (name, p), F in systems.items():
        S = sylow(cat[name], p)
        local, _ = S.as_group()
        key = (local.table_hash(), p)
        if key in seen:
            continue
        seen.add(key)
        fam = canonical_family(S, p)
        wc = compute_W_iterative(fam)
        td = thompson_data(fam.S.full_subgroup)
        assert td.A <= wc.W_iter and wc.W_iter <= td.B      # sandwich
        assert td.A.mask == td.B.mask                        # catalog fact
        assert len(wc.chain) == 1                            # chains length 0
        assert is_characteristic(wc.W_iter, fam.S.full_subgroup)
        assert wc.W_oneshot <= wc.W_iter
        for m in fam.admitted_members():
            host_sub = m.system.host.subgroup(m.push_mask(wc.W_iter.mask))
            assert is_normal_in_F(m.system, host_sub)[0]
        rep = functor_checks(fam)
        assert rep.order_independent and rep.identification_independent

    # growth loop: one genuine strictly-increasing step inside B(S)
    G = wreath648
    S = sylow(G, 3)
    model, embed = S.as_group()
    inner = FusionSystem.inner(S, 3)
    jn, _ = is_normal_in_F(inner, thompson_data(S).J)
    member = admit_member(model, G, 3)   # J-normality and Qd(3)-freeness
    assert member.admitted                # computed, not assumed
    members = (
        FamilyMember(system=inner, identification=embed, j_normal=jn,
                     qd_free=True),
        member,
    )
    fam = CandidateFamily(S=model, p=3, members=members)
    wc = compute_W_iterative(fam)
    assert len(wc.chain) == 2 and wc.W_iter.order == 27

    # termination guard: a member whose hom-sets cannot grow W_0 strictly
    v4 = cat["V4"]
    Sv = v4.full_subgroup
    vmodel, vembed = Sv.as_group()
    c2s = [H for H in Sv.subgroups_within() if H.order == 2]
    fake_sys = category_closure(
        v4, 2, Sv, {c2s[0].mask: ((0, c2s[1].elems[1]),)}, name="fake")
    vinner = FusionSystem.inner(Sv, 2)
    fam_bad = CandidateFamily(S=vmodel, p=2, members=(
        FamilyMember(system=vinner, identification=vembed, j_normal=True,
                     qd_free=True),
        FamilyMember(system=fake_sys, identification=vembed, j_normal=True,
                     qd_free=True)))
    with pytest.raises(SandwichViolated):
        compute_W_iterative(fam_bad)
    _verdict(7, "W(S) properties + growth/sandwich fixtures",
             time.monotonic() - t0, 120)


def test_criterion_08_theorem_sweep(cat, systems):
    t0 = time.monotonic()
    contradictions = 0
    for (name, p), F in systems.items():
        reports = []
        if p == 2:
            reports.append(verify_theorem_1(F))
        reports.append(verify_theorem_2(F))
        if p % 2 == 1:
            reports.append(verify_theorem_3(F))
            reports.append(thompson_group_check(cat[name], p))
        reports.append(frobenius_check(cat[name], p))
        contradictions += sum(1 for r in reports if r.contradiction)
    assert contradictions == 0
    _verdict(8, "theorem sweep: no hypotheses-hold/conclusion-fails instance",
             time.monotonic() - t0, 300)


def test_criterion_09_generation_lemmas(systems):
    t0 = time.monotonic()
    from fusionlab.fusion import fusion_equal

    for (name, p), F in systems.items():
        Q = o_p_of_F(F)
        if Q.order == 1:
            continue
        R = Q.join(F.c_in_carrier(Q))
        f1 = centralizer_like_system(F, Q, "product")
        f2 = normalizer_system(F, R)
        assert f2.carrier.mask == F.carrier.mask
        gen = generated_system([f1, f2])
        assert fusion_equal(gen, F), (name, p)
        for W in F.objects():
            if W.order == 1 or not W.is_normal_in(F.carrier):
                continue
            if is_normal_in_F(f1, W)[0] and is_normal_in_F(f2, W)[0]:
                assert is_normal_in_F(gen, W)[0]
    _verdict(9, "generation and normality-propagation lemmas",
             time.monotonic() - t0, 60)


def test_criterion_10_suite_determinism():
    t0 = time.monotonic()
    cmd = [sys.executable, "-m", "fusionlab.cli", "suite", "--format", "tsv"]
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        run = subprocess.run(cmd, capture_output=True, timeout=600, env=env)
        assert run.returncode == 0, run.stderr.decode()
        runs.append(run.stdout)
    assert runs[0] == runs[1]
    for out in runs:
        assert b"contradiction" not in out.lower().replace(
            b"contradictions", b"")
    _verdict(10, "two fresh runs, hash seeds 0 and 1, byte-identical",
             time.monotonic() - t0, 300)
