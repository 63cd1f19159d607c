import random

import pytest

from fusionlab.errors import (
    ChainConditionViolated,
    HypothesisViolated,
    InternalInconsistency,
    NotCentric,
    NotNormalInF,
)
from fusionlab.fusion import (
    FusionSystem,
    essential_subgroups,
    fusion_equal,
    realize_fusion,
    verify_axioms,
)
from fusionlab.groups import (
    build_group,
    is_isomorphic,
    mask_of,
    o_p,
)
from fusionlab.subsystems import (
    category_closure,
    centralizer_like_system,
    generated_system,
    is_normal_in_F,
    model_group,
    normalizer_system,
    o_p_of_F,
    quotient_system,
    straighten_chain,
)

from oracles import (
    assert_closure_matches_oracle,
    assert_subsystem_rules_match_brute,
    centralizer_brute,
    closure_seeds,
    looks_like_a4,
    looks_like_s3,
    materialize,
    normal_in_F_brute,
    o_p_brute,
    restrict_brute,
    subsystem_rule_brute,
)


def v4n_of(cat):
    return o_p(cat["S4"], 2)


def verdict(result):
    """(bool, (domain mask, image tuple) of the counterexample or None)."""
    ok, counter = result
    if counter is None:
        return ok, None
    return ok, (counter.domain.mask, counter.as_tuple())


# -- normality in F ------------------------------------------------------------


def test_v4n_normal_in_s4_fusion(cat, systems):
    ok, _ = is_normal_in_F(systems[("S4", 2)], v4n_of(cat))
    assert ok


def test_center_not_normal_in_s4_fusion(cat, systems):
    F = systems[("S4", 2)]
    ok, counter = is_normal_in_F(F, F.carrier.center())
    assert not ok
    assert counter is not None
    # the counterexample really is an F-morphism that moves material
    assert counter.as_tuple() in F.maps(counter.domain)


def test_characteristic_subgroups_normal_in_inner(cat):
    for name in ("D8", "Q8", "3^(1+2)+"):
        g = cat[name]
        p = 2 if g.order % 2 == 0 else 3
        F = FusionSystem.inner(g.full_subgroup, p)
        z = g.full_subgroup.center()
        ok, _ = is_normal_in_F(F, z)
        assert ok


def test_normality_in_F_matches_the_definition(cat, systems):
    """is_normal_in_F gives the verdict and the counterexample of the
    separately written definition in the oracles.  Some counterexample
    lies on an object containing W (where WP = P), and some on one that
    does not."""
    counterexamples = 0
    contains_w = set()
    for key in (("S4", 2), ("SL(2,3)", 2), ("A4", 2), ("GL(2,3)", 2),
                ("S3", 3), ("Qd(3)", 3)):
        F = systems[key]
        for W in F.objects():
            if W.order == 1 or not W.is_normal_in(F.carrier):
                continue
            got = is_normal_in_F(F, W)
            assert verdict(got) == verdict(normal_in_F_brute(F, W))
            ok, counter = got
            if ok:
                continue
            # the counterexample is a morphism of F on some P that no
            # morphism of F on WP extends with W mapped onto W
            P = counter.domain
            t = counter.as_tuple()
            assert t in F.maps(P)
            WP = W.join(P)
            assert all(mask_of(restrict_brute(WP, ext, W)) != W.mask
                       or restrict_brute(WP, ext, P) != t
                       for ext in F.maps(WP))
            counterexamples += 1
            contains_w.add(W <= P)
    assert counterexamples > 0
    assert contains_w == {True, False}


@pytest.mark.parametrize("name", ["SL(2,3)", "Qd(3)"])
def test_normality_in_F_on_subgroups_with_two_generators(cat, name):
    """Each W's generators are read greedily off its sorted elements, two
    for some C4: the test that W is mapped onto W must look at both.  The
    system is built on a fresh copy of the table, so it shares no state
    with the catalog fixture."""
    G = cat[name]
    copy = build_group([G.mul_row(a) for a in range(G.order)],
                       name=f"{name}'", kind="table")
    F = realize_fusion(copy, 2)
    two_gens = 0
    for W in F.objects():
        if W.order == 1 or not W.is_normal_in(F.carrier):
            continue
        assert verdict(is_normal_in_F(F, W)) == \
            verdict(normal_in_F_brute(F, W))
        cyclic = max(copy.elem_orders[x] for x in W.elems) == W.order
        two_gens += cyclic and len(W.generators()) == 2
    assert two_gens > 0


def test_realized_and_explicit_copy_give_the_same_counterexample(systems):
    """One witness rule for every system: first object, then least tuple."""
    for key in (("A4", 2), ("Qd(3)", 2), ("Qd(3)", 3)):
        F = systems[key]
        E = FusionSystem.explicit_system(F.host, F.p, F.carrier,
                                         materialize(F), name="copy")
        for W in F.objects():
            assert verdict(is_normal_in_F(F, W)) == \
                verdict(is_normal_in_F(E, W))


def test_unsaturated_systems_follow_the_definition(cat):
    """A category that is not saturated gets the same verdicts as the
    definition, and O_p(F) refuses it: the closure of one C2 -> C2 swap on V4, and S4 realized on
    its normal Klein four subgroup, which is not a Sylow 2-subgroup."""
    v4 = cat["V4"]
    Sv = v4.full_subgroup
    c2s = [H for H in Sv.subgroups_within() if H.order == 2]
    fake = category_closure(v4, 2, Sv,
                            {c2s[0].mask: ((0, c2s[1].elems[1]),)},
                            name="fake")
    s4 = cat["S4"]
    non_sylow = FusionSystem(s4, 2, v4n_of(cat), ambient=s4.full_subgroup)
    for F in (fake, non_sylow):
        for W in F.objects():
            got, want = is_normal_in_F(F, W), normal_in_F_brute(F, W)
            assert got[0] == want[0]
            if W.is_normal_in(F.carrier):
                assert verdict(got) == verdict(want)
        with pytest.raises(HypothesisViolated):
            o_p_of_F(F)


def test_o_p_of_F(cat, systems):
    assert o_p_of_F(systems[("S4", 2)]).mask == v4n_of(cat).mask
    assert o_p_of_F(systems[("SL(2,3)", 2)]).order == 8
    inner = FusionSystem.inner(cat["D8"].full_subgroup, 2)
    assert o_p_of_F(inner).order == 8
    assert o_p_of_F(systems[("Qd(3)", 3)]).order == 9
    for F in systems.values():
        assert o_p_of_F(F).mask == o_p_brute(F).mask


def test_o_p_of_F_fixpoint_shrinks_on_gl32(gl32):
    """GL(3,2) at p = 2: the fixpoint starts at S meet the two essential
    subgroups, Z(S) of order 2, which their automorphisms move, and ends
    at O_2(F) = 1."""
    F = realize_fusion(gl32, 2)
    assert verify_axioms(F).status == "verified"
    ess, ess_fn = essential_subgroups(F)
    assert len(ess_fn) == len(ess) == 2
    assert all(F.is_fully_normalized(E) for E in ess_fn)
    start = F.carrier.mask & ess_fn[0].mask & ess_fn[1].mask
    assert bin(start).count("1") == 2
    assert o_p_of_F(F).order == 1
    assert o_p_of_F(F).mask == o_p_brute(F).mask


def test_o_p_of_F_verifies_an_explicit_copy_first(systems):
    """An explicit copy starts unchecked; O_p(F) verifies its axioms and
    then agrees with the join of the normal subgroups."""
    for key in (("S4", 2), ("A4", 2), ("Qd(3)", 3)):
        F = systems[key]
        E = FusionSystem.explicit_system(F.host, F.p, F.carrier,
                                         materialize(F), name="copy")
        assert F.saturation_status == "verified"
        assert E.saturation_status == "unchecked"
        assert o_p_of_F(E).mask == o_p_brute(E).mask == o_p_of_F(F).mask
        assert E.saturation_status == "verified"


def test_o_p_of_F_failed_recheck_is_an_internal_inconsistency(
        monkeypatch, systems):
    """The fixpoint is normal in a saturated F, so a failed re-check is a
    bug: it raises InternalInconsistency, which the CLI reports with exit
    code 2 and a witness dump, and names the fixpoint's mask."""
    from fusionlab import subsystems

    F = systems[("S4", 2)]
    core = o_p_of_F(F)
    monkeypatch.setattr(subsystems, "is_normal_in_F",
                        lambda F, W: (False, None))
    with pytest.raises(InternalInconsistency, match=f"{core.mask:#x}"):
        o_p_of_F(F)


# -- normalizer system -----------------------------------------------------------


def test_normalizer_system_of_v4n_is_whole_fusion(cat, systems):
    F = systems[("S4", 2)]
    sub = normalizer_system(F, v4n_of(cat))
    assert fusion_equal(sub, F)
    assert sub.saturation_status == "verified"


def test_normalizer_system_of_trivial_is_f(systems):
    F = systems[("SL(2,3)", 2)]
    sub = normalizer_system(F, F.host.trivial_subgroup)
    assert fusion_equal(sub, F)


def test_normalizer_system_of_center_is_inner_d8(cat, systems):
    F = systems[("S4", 2)]
    sub = normalizer_system(F, F.carrier.center())
    inner = FusionSystem.inner(F.carrier, 2)
    assert fusion_equal(sub, inner)


def test_normalizer_systems_verified_when_fully_normalized(systems):
    for key in (("S4", 2), ("SL(2,3)", 2), ("GL(2,3)", 2)):
        F = systems[key]
        for Q in F.objects():
            if F.is_fully_normalized(Q):
                sub = normalizer_system(F, Q)
                assert sub.saturation_status == "verified"


# -- centralizer-like systems ------------------------------------------------------


def test_centralizer_of_central_subgroup_is_f(systems):
    F = systems[("SL(2,3)", 2)]
    z = F.carrier.center()
    sub = centralizer_like_system(F, z, "centralizer")
    assert sub.carrier.mask == F.carrier.mask    # C_S(Z) = Q8
    assert fusion_equal(sub, F)                  # C_G(Z) = SL(2,3)


def test_product_system_at_trivial_is_f(systems):
    F = systems[("S4", 2)]
    sub = centralizer_like_system(F, F.host.trivial_subgroup, "product")
    assert fusion_equal(sub, F)


def test_product_system_at_v4n_is_inner(cat, systems):
    F = systems[("S4", 2)]
    sub = centralizer_like_system(F, v4n_of(cat), "product")
    inner = FusionSystem.inner(F.carrier, 2)
    assert fusion_equal(sub, inner)              # S C_G(V4n) = D8


def test_product_requires_normal_in_f(cat, systems):
    F = systems[("S4", 2)]
    with pytest.raises(NotNormalInF):
        centralizer_like_system(F, F.carrier.center(), "product")


def test_prop_2_3_instances(systems):
    """Centralizer and mixed systems of fully centralized subgroups verify
    the axioms (normalizer case covered by its own constructor)."""
    for key in (("S4", 2), ("SL(2,3)", 2), ("A4", 2), ("S3", 3)):
        F = systems[key]
        for Q in F.objects():
            if F.is_fully_centralized(Q):
                for kind in ("centralizer", "mixed"):
                    sub = centralizer_like_system(F, Q, kind)
                    assert sub.saturation_status == "verified"


# -- realized or explicit, never both ------------------------------------------------

KIND_KEYS = (("S4", 2), ("SL(2,3)", 2), ("GL(2,3)", 2), ("A4", 2), ("S3", 3),
             ("Qd(3)", 3), ("3^(1+2)+", 3))


def test_a_system_is_realized_or_explicit_never_both(cat):
    v4 = cat["V4"]
    S = v4.full_subgroup
    maps = {P.mask: (P.elems,) for P in S.subgroups_within()}
    with pytest.raises(ValueError):
        FusionSystem(v4, 2, S, ambient=S, explicit=maps)
    with pytest.raises(ValueError):
        FusionSystem(v4, 2, S)


def _kinds(F, Q):
    """kind -> the subsystem of that kind at Q; product and quotient only
    when Q is normal in F."""
    out = {"normalizer": normalizer_system(F, Q)}
    for kind in ("centralizer", "mixed"):
        out[kind] = centralizer_like_system(F, Q, kind)
    if is_normal_in_F(F, Q)[0]:
        out["product"] = centralizer_like_system(F, Q, "product")
        out["quotient"] = quotient_system(F, Q)
    return out


def test_subsystems_of_a_realized_system_are_its_conjugation_systems(
        systems):
    """Each subsystem and quotient of F_S(A) is the interned system of
    conjugation by its own source on its own carrier."""
    for key in KIND_KEYS:
        F = systems[key]
        G, A, S = F.host, F.ambient, F.carrier
        for Q in F.objects():
            C, NS = Q.centralizer_in(A), F.n_in_carrier(Q)
            want = {"normalizer": (NS, Q.normalizer_in(A)),
                    "centralizer": (F.c_in_carrier(Q), C),
                    "mixed": (NS, C.join(NS)),
                    "product": (S, C.join(S))}
            for kind, sub in _kinds(F, Q).items():
                if kind == "quotient":
                    qsys, proj = sub
                    L = qsys.host
                    assert qsys.carrier == proj.push_subgroup(S)
                    assert qsys is FusionSystem.conjugation(
                        L, F.p, qsys.carrier, L.full_subgroup)
                    continue
                carrier, source = want[kind]
                assert sub.carrier == carrier
                assert sub is FusionSystem.conjugation(G, F.p, carrier,
                                                       source)


def _labelled_maps(qsys, proj, F, Q):
    """{P mask: the hom-set of P/Q in qsys}, each map a set of pairs of
    quotient elements labelled by their least preimage in S."""
    label = {}
    for x in F.carrier.elems:
        label.setdefault(proj(x), x)
    out = {}
    for P in F.objects():
        if Q <= P:
            Pbar = proj.push_subgroup(P)
            out[P.mask] = {frozenset((label[a], label[b])
                                     for a, b in zip(Pbar.elems, t))
                           for t in qsys.maps(Pbar)}
    return out


def test_subsystems_of_an_explicit_copy_are_explicit_and_equal(systems):
    for key in KIND_KEYS:
        F = systems[key]
        E = FusionSystem.explicit_system(F.host, F.p, F.carrier,
                                         materialize(F), name="copy")
        for Q in F.objects():
            realized, explicit = _kinds(F, Q), _kinds(E, Q)
            assert realized.keys() == explicit.keys()
            for kind, sub in explicit.items():
                if kind == "quotient":
                    (qe, pe), (qf, pf) = sub, realized[kind]
                    assert not qe.is_realized()
                    assert _labelled_maps(qe, pe, E, Q) == \
                        _labelled_maps(qf, pf, F, Q)
                    continue
                assert not sub.is_realized()
                assert fusion_equal(sub, realized[kind])


def test_subsystem_rules_match_brute_on_catalog_systems(systems):
    """At every object of every catalog system, each subsystem rule gives
    the hom-sets of the whole-tuple oracle, and so does the system that
    the rule's subsystem is."""
    checked = 0
    for F in systems.values():
        checked += assert_subsystem_rules_match_brute(F)
        for Q in F.objects():
            sub = normalizer_system(F, Q)
            assert {R.mask: sub.maps(R) for R in sub.objects()} == \
                subsystem_rule_brute(F, Q, "normalizer")
    assert checked > 0


# -- quotient systems ---------------------------------------------------------------


def test_quotient_sl23_by_center(systems):
    F = systems[("SL(2,3)", 2)]
    z = F.carrier.center()
    qsys, qmap = quotient_system(F, z)
    assert qsys.carrier.order == 4
    assert len(qsys.aut_tuples(qsys.carrier)) == 3   # realized by A4
    assert looks_like_a4(qmap.quotient)
    assert verify_axioms(qsys).status == "verified"


def test_quotient_by_carrier_is_trivial_system(cat):
    inner = FusionSystem.inner(cat["D8"].full_subgroup, 2)
    qsys, _ = quotient_system(inner, inner.carrier)
    assert qsys.carrier.order == 1
    assert len(qsys.objects()) == 1


def test_quotient_of_inner_is_inner(cat):
    g = cat["3^(1+2)+"]
    inner = FusionSystem.inner(g.full_subgroup, 3)
    z = g.full_subgroup.center()
    qsys, _ = quotient_system(inner, z)
    expected = FusionSystem.inner(qsys.carrier, 3)
    assert fusion_equal(qsys, expected)


def test_quotient_requires_normal_in_f(cat, systems):
    F = systems[("S4", 2)]
    with pytest.raises(NotNormalInF):
        quotient_system(F, F.carrier.center())


# -- generated systems ----------------------------------------------------------------


def test_generated_idempotent(systems):
    F = systems[("SL(2,3)", 2)]
    assert fusion_equal(generated_system([F]), F)


def test_generated_rejects_carrier_mismatch(cat, systems):
    from fusionlab.errors import CarrierMismatch

    with pytest.raises(CarrierMismatch):
        generated_system([systems[("SL(2,3)", 2)], systems[("S4", 2)]])
    with pytest.raises(CarrierMismatch):
        generated_system([])


def test_generated_inner_twice(cat):
    inner = FusionSystem.inner(cat["Q8"].full_subgroup, 2)
    assert fusion_equal(generated_system([inner, inner]), inner)


def test_closure_matches_the_fixed_point_oracle(systems):
    """On every catalog system with |S| <= 32, each kind of seed closes to
    the category the whole-tuple fixed point finds.  Every kind of seed
    is one that the closure grows on some system, and the S-conjugations
    on S alone grow on every system."""
    rng = random.Random(20)
    grew = {}
    for key, F in sorted(systems.items()):
        if F.carrier.order > 32:
            continue
        for kind, seed in closure_seeds(F, rng).items():
            grew.setdefault(kind, []).append(
                assert_closure_matches_oracle(F, seed, (key, kind)))
    assert all(grew["inner-on-S"])
    assert len(grew) == 3 and all(map(any, grew.values()))


def test_lemma_3_7_on_catalog(cat, systems):
    """F = <S C_F(Q), N_F(Q C_S(Q))> whenever Q = O_p(F) is nontrivial."""
    for key in (("S4", 2), ("SL(2,3)", 2), ("GL(2,3)", 2), ("A4", 2),
                ("S3", 3), ("Qd(3)", 3)):
        F = systems[key]
        Q = o_p_of_F(F)
        assert Q.order > 1
        R = Q.join(F.c_in_carrier(Q))
        f1 = centralizer_like_system(F, Q, "product")
        f2 = normalizer_system(F, R)
        assert f2.carrier.mask == F.carrier.mask
        gen = generated_system([f1, f2])
        assert fusion_equal(gen, F)


def test_lemma_3_8_normality_propagates(cat, systems):
    F = systems[("SL(2,3)", 2)]
    Q = o_p_of_F(F)
    R = Q.join(F.c_in_carrier(Q))
    f1 = centralizer_like_system(F, Q, "product")
    f2 = normalizer_system(F, R)
    gen = generated_system([f1, f2])
    for W in F.objects():
        if W.order == 1 or not W.is_normal_in(F.carrier):
            continue
        if is_normal_in_F(f1, W)[0] and is_normal_in_F(f2, W)[0]:
            assert is_normal_in_F(gen, W)[0]


def test_prop_3_6_quotient_normalizer_correspondence(cat, systems):
    """When S C_F(Q) = F and Q <= P normal in S: N_F(P) is trivial fusion
    iff N_{F/Q}(P/Q) is trivial fusion in the quotient."""
    from fusionlab.theorems import is_trivial_fusion

    F = systems[("SL(2,3)", 2)]
    Q = F.carrier.center()
    assert fusion_equal(centralizer_like_system(F, Q, "product"), F)
    qsys, qmap = quotient_system(F, Q)
    for P in F.objects():
        if not (Q <= P and P.is_normal_in(F.carrier)):
            continue
        lhs = is_trivial_fusion(normalizer_system(F, P))
        pbar = qmap.push_subgroup(P)
        rhs = is_trivial_fusion(normalizer_system(qsys, pbar))
        assert lhs == rhs


# -- models ------------------------------------------------------------------------


def test_model_of_v4n_is_s4(cat, systems):
    F = systems[("S4", 2)]
    m = model_group(F, v4n_of(cat))
    ok, _ = is_isomorphic(m.L, cat["S4"])
    assert ok
    zq = m.proj.push_subgroup(v4n_of(cat).center())
    from fusionlab.groups import quotient_group

    lbar, _ = quotient_group(m.L, zq)
    assert looks_like_s3(lbar)


def test_model_of_inner_carrier(cat):
    inner = FusionSystem.inner(cat["D8"].full_subgroup, 2)
    m = model_group(inner, inner.carrier)
    ok, _ = is_isomorphic(m.L, cat["D8"])
    assert ok


def test_model_of_q8_in_sl23(cat, systems):
    F = systems[("SL(2,3)", 2)]
    m = model_group(F, F.carrier)
    ok, _ = is_isomorphic(m.L, cat["SL(2,3)"])
    assert ok


def test_model_rejects_non_centric(cat, systems):
    F = systems[("S4", 2)]
    with pytest.raises(NotCentric):
        model_group(F, F.carrier.center())


def test_model_validation_across_catalog(systems):
    """Every admissible (F, Q) passes all four model post-conditions, and
    the model's kernel is the set of p'-elements of C_G(Q)."""
    from fusionlab.hfree import centric_radical_fn_subgroups

    nontrivial = 0
    for F in systems.values():
        orders = F.host.elem_orders
        for Q in centric_radical_fn_subgroups(F):
            m = model_group(F, Q)  # raises on any validation failure
            p_prime = {x for x in centralizer_brute(Q, F.ambient)
                       if orders[x] % F.p}
            assert set(m.kernel.elems) == p_prime
            nontrivial += m.kernel.order > 1
    assert nontrivial > 0


# -- chain straightening ------------------------------------------------------------


def test_straighten_single_fully_normalized(cat, systems):
    F = systems[("S4", 2)]
    phi, images = straighten_chain(F, [v4n_of(cat)])
    assert images[0].mask == v4n_of(cat).mask or \
        F.is_fully_normalized(images[0])


def test_straighten_transposition_in_d8(cat, systems):
    F = systems[("S4", 2)]
    S = F.carrier
    w1 = next(H for H in F.objects()
              if H.order == 2 and H.centralizer_in(S).order == 4
              and H.mask != S.center().mask
              and F.is_fully_normalized(H))
    phi, images = straighten_chain(F, [w1])
    assert F.is_fully_normalized(images[0])
    assert phi.domain.order == 4
    ns_img = mask_of(phi(x) for x in F.n_in_carrier(w1).elems)
    assert ns_img == F.n_in_carrier(images[0]).mask


def test_straighten_moves_non_fully_normalized(cat, systems):
    # a double-transposition subgroup off the center is not fully
    # normalized; straightening must land it on a fully normalized conjugate
    F = systems[("S4", 2)]
    S = F.carrier
    w1 = next(H for H in F.objects()
              if H.order == 2 and not F.is_fully_normalized(H))
    phi, images = straighten_chain(F, [w1])
    assert F.is_fully_normalized(images[0])
    assert images[0].mask != w1.mask


def test_straighten_chain_ending_at_carrier(systems):
    F = systems[("SL(2,3)", 2)]
    z = F.carrier.center()
    phi, images = straighten_chain(F, [z])
    assert phi.domain.mask == F.carrier.mask   # N_S(Z) = S


def test_straightening_makes_every_object_fully_normalized(systems):
    """For each object W of each catalog system with |S| <= 27, the
    straightening map is a map of F on N_S(W) that sends W to a fully
    normalized subgroup, and carries N_S(W) onto N_S(phi(W)) when W is
    already fully normalized."""
    for F in systems.values():
        if F.carrier.order > 27:
            continue
        for W in F.objects():
            phi, (img,) = straighten_chain(F, [W])
            dom = F.n_in_carrier(W)
            assert phi.domain.mask == dom.mask
            assert phi.as_tuple() in F.maps(dom)
            assert img.mask == mask_of(phi(x) for x in W.elems)
            assert F.is_fully_normalized(img)
            if F.is_fully_normalized(W):
                assert mask_of(phi(x) for x in dom.elems) == \
                    F.n_in_carrier(img).mask


def test_straighten_rejects_bad_chain(cat, systems):
    F = systems[("S4", 2)]
    S = F.carrier
    z = S.center()
    c4 = next(H for H in F.objects() if H.order == 4
              and all(cat["S4"].elem_orders[x] in (1, 2, 4)
                      for x in H.elems)
              and any(cat["S4"].elem_orders[x] == 4 for x in H.elems))
    # C4 is not characteristic in N_S(Z) = D8 (it is, actually: unique C4);
    # use a non-characteristic order-2 subgroup instead
    transp = next(H for H in F.objects()
                  if H.order == 2 and H.mask != z.mask)
    with pytest.raises(ChainConditionViolated):
        straighten_chain(F, [z, transp])


# -- memos against systems built from scratch --------------------------------


def test_memoized_verdicts_and_models_match_fresh_systems(cat):
    """After a whole suite run has used the shared realized systems, their
    kept normality verdicts agree with the definition on a system built
    from scratch, for every W normal in S, and their kept models with
    models built from scratch."""
    from fusionlab.hfree import centric_radical_fn_subgroups
    from fusionlab.suite import PRIMES, RunConfig, run_suite

    assert run_suite(RunConfig()).failures == 0
    for G, p in [(G, p) for G in cat.values() for p in PRIMES
                 if G.order % p == 0]:
        F = realize_fusion(G, p)
        fresh = FusionSystem(G, p, F.carrier, ambient=G.full_subgroup)
        assert fresh is not F and realize_fusion(G, p) is F
        for W in F.objects():
            if W.is_normal_in(F.carrier):
                assert verdict(is_normal_in_F(F, W)) == \
                    verdict(normal_in_F_brute(fresh, W))
        for Q in centric_radical_fn_subgroups(F):
            kept, new = model_group(F, Q), model_group(fresh, Q)
            assert model_group(F, Q) is kept
            assert (kept.L.order, kept.kernel.mask) == \
                (new.L.order, new.kernel.mask)
