import pytest

from fusionlab.catalog import (
    CATALOG_NAMES,
    EXPECTED_ORDERS,
    catalog_group,
    qd2_group,
)
from fusionlab.errors import (
    HypothesisViolated,
    ModelValidationFailed,
    UnsupportedPrime,
)
from fusionlab.fusion import FusionSystem, realize_fusion
from fusionlab.groups import is_involved, is_isomorphic, o_p
from fusionlab.hfree import (
    centric_radical_fn_subgroups,
    is_fusion_H_free,
    is_group_H_free,
    qd_group,
    remark67_check,
    sigma3_involvement_check,
)
from fusionlab.subsystems import (
    category_closure,
    centralizer_like_system,
    is_normal_in_F,
    model_group,
    normalizer_system,
    o_p_of_F,
    quotient_system,
)

from oracles import (
    SCREENED_H,
    assert_H_free_matches_models,
    materialize,
    subgroup_of,
)


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


def _normalizer_subsystems(systems):
    """The normalizer and mixed subsystems of the S4-free catalog systems
    at p = 2 (Proposition 3.1)."""
    for name in S4_FREE_AT_2:
        F = systems[(name, 2)]
        for Q in F.objects():
            if Q.order == 1 or not F.is_fully_normalized(Q):
                continue
            yield normalizer_system(F, Q)
            if F.is_fully_centralized(Q):
                yield centralizer_like_system(F, Q, "mixed")


def _quotient_subsystems(systems):
    """The quotients of S4-free catalog systems F at p = 2 by subgroups of
    O_2(F) normal in F and in the ambient group (Proposition 3.2)."""
    for name in ("SL(2,3)", "Q8", "D8"):
        F = systems[(name, 2)]
        Q = o_p_of_F(F)
        for W in F.objects():
            if W.order == 1 or not W <= Q:
                continue
            if not is_normal_in_F(F, W)[0]:
                continue
            if not W.is_normal_in(F.ambient):
                continue
            yield quotient_system(F, W)[0]


def test_prop_3_1_subsystems_inherit_freeness(cat, systems):
    """Normalizer and mixed subsystems of S4-free systems stay S4-free
    (the systems themselves are in ``test_s4_free_systems_build_no_model``)."""
    for sub in _normalizer_subsystems(systems):
        assert is_fusion_H_free(sub, cat["S4"]).free


def test_prop_3_2_quotients_inherit_freeness(cat, systems):
    for qsys in _quotient_subsystems(systems):
        assert is_fusion_H_free(qsys, cat["S4"]).free


def test_screen_matches_the_models_on_catalog_systems(cat, systems):
    """The screen on Out_F(Q) changes no verdict and no witness of the
    model route, on every catalog system at p = 2 and 3."""
    hs = [cat[h] for h in SCREENED_H]
    involved = sum(assert_H_free_matches_models(F, hs)
                   for F in systems.values())
    assert 0 < involved < len(systems) * len(hs)


def test_screen_matches_the_models_on_inherited_subsystems(cat, systems):
    hs = [cat[h] for h in SCREENED_H]
    subs = {id(sub): sub for sub in _normalizer_subsystems(systems)}
    subs.update((id(q), q) for q in _quotient_subsystems(systems))
    assert all(sub.is_realized() for sub in subs.values())
    involved = sum(assert_H_free_matches_models(sub, hs)
                   for sub in subs.values())
    assert 0 < involved < len(subs) * len(hs)


def test_s4_free_systems_build_no_model(cold_start):
    """At p = 2 the screen for S4 is exact, so deciding an S4-free system
    builds none of its models, and an S4-involving one keeps the model
    that involves S4."""
    cold_start()
    s4 = catalog_group("S4")
    free = []
    for name in CATALOG_NAMES:
        if EXPECTED_ORDERS[name] % 2:
            continue
        F = realize_fusion(catalog_group(name), 2)
        rep = is_fusion_H_free(F, s4)
        if rep.free:
            free.append(name)
            assert F._memo.models == {}, name
        else:
            assert list(F._memo.models) == [rep.witness[0].mask], name
    assert free == S4_FREE_AT_2


@pytest.mark.parametrize("name", ["S4", "SL(2,3)"])
def test_explicit_systems_have_no_model(cat, systems, name):
    """An explicit copy has no ambient group, so it has no model and its
    H-freeness raises at the first Q of the range, also for SL(2,3),
    whose realized system builds no model at all."""
    F = systems[(name, 2)]
    E = category_closure(F.host, 2, F.carrier, materialize(F),
                         name=f"explicit-{name}")
    Q = centric_radical_fn_subgroups(E)[0]
    assert Q.mask == centric_radical_fn_subgroups(F)[0].mask
    with pytest.raises(ModelValidationFailed, match="conjugation source"):
        model_group(E, Q)
    with pytest.raises(ModelValidationFailed, match="conjugation source"):
        is_fusion_H_free(E, cat["S4"])
    if name == "SL(2,3)":
        assert not any(is_involved(cat["S3"], F.out_group(P)[0])[0]
                       for P in centric_radical_fn_subgroups(F))


def test_systems_on_a_non_sylow_subgroup_are_not_screened(cat):
    """F on C2 < C4 realized by C4: the range is Q = C2, whose Out_F(Q) is
    trivial, but C_G(Q) = C4 is not Z(Q) x O_2'(C_G(Q)), so Q has no model
    and the H-freeness test raises where a screen would skip Q."""
    c4 = cat["C4"]
    c2 = c4.subgroup(c4.cyclic_mask(c4.power(c4.gen_indices[0], 2)))
    F = FusionSystem.conjugation(c4, 2, c2, c4.full_subgroup)
    (Q,) = centric_radical_fn_subgroups(F)
    assert Q == c2 and F.out_group(Q)[0].order == 1
    with pytest.raises(ModelValidationFailed, match=r"Z\(Q\) x O_p'"):
        model_group(F, Q)
    for h in ("S4", "S3", "C3"):
        with pytest.raises(ModelValidationFailed, match=r"Z\(Q\) x O_p'"):
            is_fusion_H_free(F, cat[h])


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
