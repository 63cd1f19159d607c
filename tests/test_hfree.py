import pytest

from fusionlab.errors import HypothesisViolated, UnsupportedPrime
from fusionlab.fusion import FusionSystem
from fusionlab.catalog import qd2_group
from fusionlab.groups import is_isomorphic, o_p
from fusionlab.hfree import (
    centric_radical_fn_subgroups,
    is_fusion_H_free,
    is_group_H_free,
    qd_group,
    remark67_check,
    sigma3_involvement_check,
)
from fusionlab.subsystems import (
    centralizer_like_system,
    is_normal_in_F,
    normalizer_system,
    quotient_system,
)

from oracles import subgroup_of


def test_qd2_is_s4(cat):
    assert qd_group(2) is cat["S4"]
    affine = qd2_group()
    assert affine.order == 24
    ok, _ = is_isomorphic(affine, cat["S4"])
    assert ok


def test_qd3_order_and_translation_core(cat):
    qd3 = qd_group(3)
    assert qd3.order == 216
    assert o_p(qd3, 3).order == 9


def test_qd_unsupported_prime():
    with pytest.raises(UnsupportedPrime):
        qd_group(5)


def test_group_h_free_examples(cat):
    assert is_group_H_free(cat["SL(2,3)"], cat["S4"]).free
    rep = is_group_H_free(cat["S4"], cat["S4"])
    assert not rep.free
    B, A = rep.witness
    assert B.order == 24 and A.order == 1
    assert is_group_H_free(cat["A4"], cat["S3"]).free


def test_fusion_h_free_sl23(cat, systems):
    F = systems[("SL(2,3)", 2)]
    crfn = centric_radical_fn_subgroups(F)
    assert [Q.order for Q in crfn] == [8]
    assert is_fusion_H_free(F, cat["S4"]).free


def test_fusion_h_free_s4_witness(cat, systems):
    rep = is_fusion_H_free(systems[("S4", 2)], cat["S4"])
    assert not rep.free
    Q, L, (B, A) = rep.witness
    assert Q.order == 4 and L.order == 24


def test_fusion_h_free_trivially_when_h_too_big(cat):
    inner = FusionSystem.inner(cat["Q8"].full_subgroup, 2)
    assert is_fusion_H_free(inner, cat["S4"]).free


def test_sigma3_involvement_examples(cat):
    assert sigma3_involvement_check(cat["S4"]) == (True, True)
    assert sigma3_involvement_check(cat["SL(2,3)"]) == (False, False)
    from fusionlab.groups import build_group

    assert sigma3_involvement_check(build_group([], kind="perms")) == \
        (False, False)


def test_remark67_examples(cat):
    assert remark67_check(cat["SL(2,3)"]) == (True, True)
    assert remark67_check(cat["S4"]) == (False, False)
    assert remark67_check(cat["D8"]) == (True, True)


def test_remark67_hypothesis_guard(cat):
    with pytest.raises(HypothesisViolated):
        remark67_check(cat["C3"])


def test_crosschecks_raise_nothing_on_catalog(cat):
    for name, g in cat.items():
        if g.order > 216:
            continue
        sigma3_involvement_check(g)
        try:
            remark67_check(g)
        except HypothesisViolated:
            pass


S4_FREE_AT_2 = ["C2", "C4", "V4", "S3", "D8", "Q8", "A4", "SL(2,3)",
                "Qd(3)"]


def test_prop_3_1_subsystems_inherit_freeness(cat, systems):
    """Normalizer and mixed subsystems of S4-free systems stay S4-free."""
    s4 = cat["S4"]
    for name in S4_FREE_AT_2:
        g = cat[name]
        if g.order % 2:
            continue
        F = systems[(name, 2)]
        assert is_fusion_H_free(F, s4).free
        for Q in F.objects():
            if Q.order == 1 or not F.is_fully_normalized(Q):
                continue
            assert is_fusion_H_free(normalizer_system(F, Q), s4).free
            if F.is_fully_centralized(Q):
                assert is_fusion_H_free(
                    centralizer_like_system(F, Q, "mixed"), s4).free


def test_prop_3_2_quotients_inherit_freeness(cat, systems):
    from fusionlab.subsystems import o_p_of_F

    s4 = cat["S4"]
    for name in ("SL(2,3)", "Q8", "D8"):
        F = systems[(name, 2)]
        assert is_fusion_H_free(F, s4).free
        Q = o_p_of_F(F)
        for W in F.objects():
            if W.order == 1 or not W <= Q:
                continue
            if not is_normal_in_F(F, W)[0]:
                continue
            if not W.is_normal_in(F.ambient):
                continue
            qsys, _ = quotient_system(F, W)
            assert is_fusion_H_free(qsys, s4).free


def test_catalog_groups_are_solvable(cat):
    """Derived series reach 1, so no catalog group has a nonabelian simple
    section; the simple-section freeness check degenerates as expected."""
    for name, g in cat.items():
        current = g.full_subgroup
        for _ in range(10):
            if current.order == 1:
                break
            local, embed = current.as_group()
            der = local.full_subgroup.derived()
            if der.order == current.order:
                pytest.fail(f"{name} has a perfect subgroup: not solvable")
            current = subgroup_of(g, (embed[e] for e in der.elems))
        assert current.order == 1
