from itertools import permutations

import pytest

from fusionlab.errors import (
    MorphismNotInF,
    NotASubgroup,
    NotSylow,
    ObjectOutsideS,
    UnsupportedPrime,
)
from fusionlab.fusion import (
    FusionSystem,
    _group_from_maps,
    alperin_decompose,
    centric_objects,
    classify_subgroup,
    essential_subgroups,
    fusion_equal,
    hom_set,
    n_phi,
    realize_fusion,
    verify_axioms,
    wrap_tuple,
)
from fusionlab.groups import (
    build_group,
    GroupMorphism,
    is_hom_tuple,
    mask_of,
    o_p,
    sylow,
)
from fusionlab.subsystems import category_closure

from oracles import (
    alperin_decompose_brute,
    assert_alperin_matches_brute,
    assert_strongly_p_embedded_matches_brute,
    automorphisms_raw,
    brute_centric,
    brute_out_group,
    brute_strongly_p_embedded,
    conjugacy_classes_brute,
    group_from_maps_brute,
    is_hom_brute,
    materialize,
    n_phi_brute,
    verify_axioms_brute,
)


def v4n_of(cat):
    return o_p(cat["S4"], 2)


def center_of_d8(F):
    return F.carrier.center()


# -- realize / hom-sets ------------------------------------------------------


def test_realize_s4_aut_of_v4n(cat, systems):
    F = systems[("S4", 2)]
    assert len(F.aut_tuples(v4n_of(cat))) == 6


def test_inner_fusion_is_conjugation_only(cat):
    for name in ("D8", "Q8", "3^(1+2)+"):
        g = cat[name]
        F = FusionSystem.inner(g.full_subgroup, 2 if g.order % 2 == 0 else 3)
        for P in F.objects():
            expected = {tuple(g.mul(g.mul(u, x), g.inv[u]) for x in P.elems)
                        for u in range(g.order)}
            assert set(F.maps(P)) == expected


def test_realize_sl23_aut_of_q8(systems):
    F = systems[("SL(2,3)", 2)]
    assert len(F.aut_tuples(F.carrier)) == 12


def test_realize_rejects_non_sylow(cat):
    s4 = cat["S4"]
    v4 = v4n_of(cat)
    with pytest.raises(NotSylow):
        realize_fusion(s4, 2, v4)


@pytest.mark.parametrize("p", [1, 4])
def test_realize_refuses_a_p_that_is_not_a_prime(cat, p):
    with pytest.raises(UnsupportedPrime):
        realize_fusion(cat["S4"], p)


def test_hom_set_center_to_v4n_has_three_maps(cat, systems):
    F = systems[("S4", 2)]
    z = center_of_d8(F)
    assert z.order == 2
    ms = hom_set(F, z, v4n_of(cat))
    assert len(ms) == 3
    images = {mask_of(m.images.values()) for m in ms}
    assert len(images) == 3  # the center fuses onto every C2 inside V4n


def test_hom_set_trivial_domain(systems):
    F = systems[("S4", 2)]
    triv = F.host.trivial_subgroup
    assert len(hom_set(F, triv, F.carrier)) == 1


def test_inner_hom_counts_match_coset_oracle(cat):
    g = cat["D8"]
    F = FusionSystem.inner(g.full_subgroup, 2)
    for P in F.objects():
        expected = g.order // P.centralizer_in(g.full_subgroup).order
        assert len(F.maps(P)) == expected


def test_maps_rejects_outside_carrier(cat, systems):
    F = systems[("SL(2,3)", 2)]
    outside = next(H for H in cat["SL(2,3)"].subgroups()
                   if H.order == 3)
    with pytest.raises(ObjectOutsideS):
        F.maps(outside)


# -- classification -----------------------------------------------------------


def test_classify_v4n_essential(cat, systems):
    F = systems[("S4", 2)]
    prof = classify_subgroup(F, v4n_of(cat))
    assert prof.centric and prof.radical and prof.essential
    out, _, _ = F.out_group(v4n_of(cat))
    assert out.order == 6 and not out.full_subgroup.is_abelian()
    M, P = prof.witness["strongly_p_embedded"]
    assert M.order == 2


def test_classify_nonnormal_klein_four_not_essential(cat, systems):
    F = systems[("S4", 2)]
    s4 = cat["S4"]
    v4prime = next(H for H in s4.subgroups()
                   if H.order == 4 and H <= F.carrier
                   and H.mask != v4n_of(cat).mask
                   and all(s4.elem_orders[x] <= 2 for x in H.elems))
    prof = classify_subgroup(F, v4prime)
    assert prof.centric and not prof.essential
    out, _, _ = F.out_group(v4prime)
    assert out.order == 2


def test_aut_group_table_matches_all_pairs_composition(systems):
    """Aut_F(Q), filled by lookups from a generating subset, against
    composing every pair of automorphism tuples.  Handed the tuples with
    the identity last, ``_group_from_maps`` moves it first and keeps the
    others in the order given."""
    for F in systems.values():
        for Q in F.objects():
            autg, tuples, index = F.aut_group(Q)
            assert tuples[0] == Q.elems and len(index) == autg.order
            assert [autg.mul_row(a) for a in range(autg.order)] == \
                group_from_maps_brute(Q, tuples)
            given = tuples[::-1]
            autg, tuples, index = _group_from_maps(Q, given,
                                                   name=f"AutF({Q.order})")
            assert tuples == (Q.elems, *given[:-1]), (F.name, Q.mask)
            assert index == {t: i for i, t in enumerate(tuples)}
            assert [autg.mul_row(a) for a in range(autg.order)] == \
                group_from_maps_brute(Q, tuples), (F.name, Q.mask)


def test_maps_of_F_are_wrapped_without_a_homomorphism_check(
        systems, monkeypatch):
    """F's maps were checked when F got them: decomposing every map of S4
    at p = 2, which wraps each map and each automorphism of its
    decomposition, runs no ``is_hom_tuple``.  A GroupMorphism built from
    outside is still checked, and a bad one is refused."""
    from fusionlab import groups

    calls = []
    real = groups.is_hom_tuple

    def counting(H, P, t):
        calls.append((P.mask, t))
        return real(H, P, t)

    monkeypatch.setattr(groups, "is_hom_tuple", counting)
    F = systems[("S4", 2)]
    for P in F.objects():
        for t in F.maps(P):
            deco = alperin_decompose(F, wrap_tuple(F, P, F.carrier, t))
            assert deco.recompose() == dict(zip(P.elems, t))
    assert calls == []
    S = F.carrier
    orders = S.parent.elem_orders
    x = next(x for x in S.elems if orders[x] == 2)
    y = next(y for y in S.elems if orders[y] == 4)
    images = dict(zip(S.elems, S.elems))
    images[x], images[y] = y, x
    GroupMorphism(S, S, dict(zip(S.elems, S.elems)))
    with pytest.raises(NotASubgroup):
        GroupMorphism(S, S, images)
    assert len(calls) == 2


def test_group_from_maps_rejects_a_set_not_closed(cat, systems):
    F = systems[("S4", 2)]
    Q = v4n_of(cat)
    auts = F.aut_tuples(Q)          # Aut(V4) = S3: six tuples
    order3 = next(t for t in auts
                  if group_from_maps_brute(Q, (Q.elems, t)) is None
                  and group_from_maps_brute(Q, (t,)) is None)
    for subset in ((Q.elems, order3), (order3,), auts[1:]):
        assert group_from_maps_brute(Q, subset) is None
        with pytest.raises(MorphismNotInF):
            _group_from_maps(Q, subset, name="bad")


def test_carrier_is_fully_normalized_and_centralized(systems):
    for F in systems.values():
        prof = classify_subgroup(F, F.carrier)
        assert prof.fully_normalized and prof.fully_centralized


def test_classification_matches_brute_force_oracle(cat, systems):
    """Centric and essential recomputed from the ambient group alone."""
    F = systems[("S4", 2)]
    G = cat["S4"]
    S = F.carrier
    for Q in F.objects():
        prof = classify_subgroup(F, Q)
        assert prof.centric == brute_centric(G, S, Q)
        if Q.order > 1 and prof.centric:
            table = brute_out_group(G, S, Q)
            spe = brute_strongly_p_embedded(table, 2)
            assert prof.essential == (spe is not None)


def _s4_times_d8(cat):
    """S4 x D8 on 8 points, from the catalog's permutations."""
    gens = [tuple(g) + tuple(range(4, 8)) for g in cat["S4"].perm_rep]
    gens += [tuple(range(4)) + tuple(4 + x for x in g)
             for g in cat["D8"].perm_rep]
    return build_group(gens, kind="perms", name="S4xD8")


def test_strongly_p_embedded_matches_the_lattice_search(cat, systems):
    """On Out_F(Q) of every centric Q of every catalog system at p = 2 and
    3, and of S4 x D8 at p = 2, the kernel finds a strongly p-embedded
    subgroup exactly when the lattice search on Out computed from the
    ambient group does, and its witness meets the definition.  Three
    Out_F(Q) of S4 x D8 have order 12 and N(P) < M = Out_F(Q): there a
    kernel that stopped at M = N(P) would find a subgroup that is not
    strongly p-embedded."""
    s4d8 = realize_fusion(_s4_times_d8(cat), 2)
    wide = 0
    for F in [*systems.values(), s4d8]:
        for Q in centric_objects(F):
            out, _, _ = F.out_group(Q)
            table = brute_out_group(F.host, F.carrier, Q)
            spe = assert_strongly_p_embedded_matches_brute(out, F.p, table)
            P = sylow(out, F.p)
            if spe is None and P.normalizer_in(out.full_subgroup) < \
                    out.full_subgroup:
                wide += 1
                assert F is s4d8 and out.order == 12
    assert wide == 3


def test_essential_subgroups_golden(cat, systems):
    ess, ess_fn = essential_subgroups(systems[("S4", 2)])
    assert [E.mask for E in ess] == [v4n_of(cat).mask]
    assert ess == ess_fn
    ess2, _ = essential_subgroups(systems[("SL(2,3)", 2)])
    assert ess2 == []


def test_essentials_gl23_is_quaternion_with_sigma3_outer(cat, systems):
    F = systems[("GL(2,3)", 2)]
    ess, ess_fn = essential_subgroups(F)
    assert len(ess) == 1 and ess[0].order == 8
    local, _ = ess[0].as_group()
    from fusionlab.groups import is_isomorphic

    assert is_isomorphic(local, cat["Q8"])[0]
    out, _, _ = F.out_group(ess[0])
    assert out.order == 6 and not out.full_subgroup.is_abelian()


def test_essentials_qd3_is_translation_subgroup(cat, systems):
    F = systems[("Qd(3)", 3)]
    ess, _ = essential_subgroups(F)
    assert len(ess) == 1
    assert ess[0].order == 9
    assert ess[0].is_normal_in(cat["Qd(3)"].full_subgroup)
    out, _, _ = F.out_group(ess[0])
    assert out.order == 24      # SL(2,3) acting on the translations


def test_inner_systems_have_no_essentials(cat):
    for name in ("D8", "Q8", "C3xC3", "3^(1+2)+"):
        g = cat[name]
        p = 2 if g.order % 2 == 0 else 3
        F = FusionSystem.inner(g.full_subgroup, p)
        ess, _ = essential_subgroups(F)
        assert ess == []


def test_every_class_has_fully_normalized_member(systems):
    for F in systems.values():
        for Q in F.objects():
            assert any(F.is_fully_normalized(R)
                       for R in F.conjugacy_class_of(Q))


def _classes_match_oracle(F):
    want = conjugacy_classes_brute(F)
    for Q in F.objects():
        assert tuple(R.mask for R in F.conjugacy_class_of(Q)) == want[Q.mask]


def test_classes_match_the_union_find_oracle(cat, systems):
    """The class read off one hom-set is the class a union-find over every
    hom-set finds: on every catalog system, on an explicit copy of each,
    and on a category that is not saturated."""
    for F in systems.values():
        _classes_match_oracle(F)
        _classes_match_oracle(FusionSystem.explicit_system(
            F.host, F.p, F.carrier, materialize(F), name="copy"))
    _classes_match_oracle(spliced_d8(cat)[0])


def test_classes_match_the_union_find_oracle_on_growth_instances(
        wreath648, f16c5c4):
    for G, p in ((wreath648, 3), (f16c5c4, 2)):
        _classes_match_oracle(realize_fusion(G, p))


# -- N_phi ---------------------------------------------------------------------


def test_n_phi_identity_is_normalizer(cat, systems):
    F = systems[("S4", 2)]
    q = v4n_of(cat)
    ident = wrap_tuple(F, q, F.carrier, q.elems)
    assert n_phi(F, ident).mask == F.n_in_carrier(q).mask


def test_n_phi_of_carrier_automorphism_is_carrier(systems):
    F = systems[("SL(2,3)", 2)]
    S = F.carrier
    for t in F.aut_tuples(S):
        phi = wrap_tuple(F, S, S, t)
        assert n_phi(F, phi).mask == S.mask


def test_n_phi_matches_elementwise_oracle(systems):
    """N_phi from the images of P's generators against the definition,
    element by element, for every morphism of every catalog system."""
    for F in systems.values():
        for Q in F.objects():
            for t in F.maps(Q):
                got = n_phi(F, wrap_tuple(F, Q, F.carrier, t))
                assert got == n_phi_brute(F, Q, t)


def test_n_phi_sandwich(systems):
    for key in (("S4", 2), ("SL(2,3)", 2), ("GL(2,3)", 2)):
        F = systems[key]
        for Q in F.objects():
            floor = Q.join(F.c_in_carrier(Q)).mask
            ceil = F.n_in_carrier(Q).mask
            for t in F.maps(Q):
                m = n_phi(F, wrap_tuple(F, Q, F.carrier, t)).mask
                assert floor & ~m == 0 and m & ~ceil == 0


def test_n_phi_rejects_foreign_morphism(systems):
    # Aut(Q8) has order 24 but Aut_F(Q8) only 12: any of the missing
    # automorphisms is a valid morphism that does not belong to F
    F = systems[("SL(2,3)", 2)]
    q8 = F.carrier
    in_f = set(F.aut_tuples(q8))
    sub, embed = q8.as_group()
    foreign = next(
        tuple(embed[images[k]] for k in range(q8.order))
        for images in automorphisms_raw(sub)
        if tuple(embed[images[k]] for k in range(q8.order)) not in in_f)
    phi = GroupMorphism(q8, q8, dict(zip(q8.elems, foreign)))
    with pytest.raises(MorphismNotInF):
        n_phi(F, phi)


# -- axioms ---------------------------------------------------------------------


def test_axioms_verified_on_catalog(systems):
    for F in systems.values():
        assert verify_axioms(F).status == "verified"


def spliced_d8(cat):
    """(inner D8 fusion closed up with one map sending a non-central
    subgroup of order 2 onto the center, that subgroup, the map)."""
    d8 = cat["D8"]
    S = d8.full_subgroup
    inner = FusionSystem.inner(S, 2)
    z = S.center()
    transp = next(H for H in S.subgroups_within()
                  if H.order == 2 and H.mask != z.mask
                  and H.centralizer_in(S).order == 4)
    seed = dict(materialize(inner))
    splice = (0, z.elems[1])
    seed[transp.mask] = tuple(sorted(set(seed[transp.mask]) | {splice}))
    spliced = category_closure(d8, 2, S, seed, name="spliced")
    return spliced, transp, splice


def non_sylow_s4(cat):
    """Conjugation by all of S4 on the carrier V4n, which is not Sylow."""
    s4 = cat["S4"]
    v4n = o_p(s4, 2)
    return FusionSystem(s4, 2, v4n, ambient=s4.full_subgroup,
                        name="non-sylow")


def test_axioms_fail_on_spliced_category(cat):
    """Inner D8 fusion plus one extra fusing morphism is not a fusion
    system: the spliced map has no extension to its N_phi."""
    spliced, _, _ = spliced_d8(cat)
    report = verify_axioms(spliced)
    assert report.status == "failed"
    assert report.witness[0] in ("FS3", "FS2")


def test_axioms_verified_on_inner(cat):
    g = cat["3^(1+2)-"]
    F = FusionSystem.inner(g.full_subgroup, 3)
    assert verify_axioms(F).status == "verified"


def test_axioms_fail_on_non_sylow_carrier(cat):
    """Conjugation of the full ambient group on a non-Sylow carrier is a
    category but not a fusion system: the outer automorphisms outnumber
    what the carrier can supply (FS2)."""
    report = verify_axioms(non_sylow_s4(cat))
    assert report.status == "failed"
    assert report.witness[0] == "FS2"


def test_axiom_reports_match_the_oracle(cat, systems):
    """The whole report, status and witness tuple, against the checks
    made on whole image tuples: every catalog system, the spliced D8
    category and the non-Sylow S4 carrier."""
    failing = [spliced_d8(cat)[0], non_sylow_s4(cat)]
    for F in [*systems.values(), *failing]:
        assert verify_axioms(F) == verify_axioms_brute(F), F.name
    assert not any(verify_axioms(F) for F in failing)


def test_a_second_check_returns_the_kept_report(cat, systems):
    """The report is computed once per system and kept on it: a second
    call returns the same report and leaves ``saturation_status`` as the
    first call set it.  On systems built from scratch (not the interned
    ones) and on two failing ones, each report is the oracle's."""
    fresh = [FusionSystem(F.host, F.p, F.carrier, ambient=F.ambient)
             for F in systems.values()]
    failing = [spliced_d8(cat)[0], non_sylow_s4(cat)]
    for F in [*fresh, *failing]:
        report = verify_axioms(F)
        status = F.saturation_status
        assert status == (report.status if report
                          else ("failed", report.witness))
        assert verify_axioms(F) is report
        assert F.saturation_status == status
        assert report == verify_axioms_brute(F), F.name
    assert not any(verify_axioms(F) for F in failing)


def test_verify_decides_full_normality_once_per_image(cat, monkeypatch):
    """Counts, not timings: FS3 asks whether an image is fully normalized
    once per image, not once per morphism."""
    calls = []
    real = FusionSystem.is_fully_normalized

    def counting(self, Q):
        calls.append(Q.mask)
        return real(self, Q)

    monkeypatch.setattr(FusionSystem, "is_fully_normalized", counting)
    for name in ("S4", "GL(2,3)"):
        G = cat[name]   # a system of its own: the report is kept on F
        F = FusionSystem(G, 2, sylow(G, 2), ambient=G.full_subgroup)
        images = {mask_of(t) for P in F.objects() for t in F.maps(P)}
        calls.clear()
        assert verify_axioms(F)
        assert calls and len(calls) == len(set(calls))
        assert set(calls) <= images
        assert len(images) < sum(len(F.maps(P)) for P in F.objects())


def test_normalizer_in_carrier_is_computed_once_per_object(cat, monkeypatch):
    """Counts, not timings: N_S(Q) is computed once per object of F, however
    often the axiom check and the classification ask for it."""
    from fusionlab.groups import Subgroup

    calls = []
    real = Subgroup.normalizer_in

    def counting(self, other):
        calls.append((self.mask, other.mask))
        return real(self, other)

    monkeypatch.setattr(Subgroup, "normalizer_in", counting)
    for name in ("S4", "GL(2,3)"):
        G = cat[name]   # a system of its own: its memos start empty
        F = FusionSystem(G, 2, sylow(G, 2), ambient=G.full_subgroup)
        calls.clear()
        assert verify_axioms(F)
        essential_subgroups(F)
        asked = [q for q, s in calls if s == F.carrier.mask]
        assert asked and len(asked) == len(set(asked))
        assert all(F.n_in_carrier(Q).mask == real(Q, F.carrier).mask
                   for Q in F.objects())


# -- the homomorphism test ---------------------------------------------------


@pytest.mark.parametrize("name", ["S3", "V4"])
def test_hom_test_on_generators_matches_all_pairs(cat, name):
    """Every bijection of the group onto itself: the test on generators
    and the all-pairs test agree, and they find exactly Aut(G)."""
    G = cat[name]
    P = G.full_subgroup
    bijections = list(permutations(P.elems))
    verdicts = [is_hom_tuple(G, P, t) for t in bijections]
    assert verdicts == [is_hom_brute(G, P, t) for t in bijections]
    assert {t for t, ok in zip(bijections, verdicts) if ok} == \
        {tuple(im) for im in automorphisms_raw(G)}


def test_hom_test_rejects_non_injective_tuples(cat):
    G = cat["S3"]
    for P in G.subgroups():
        for v in range(G.order):
            t = (v,) * P.order
            assert is_hom_tuple(G, P, t) == is_hom_brute(G, P, t)
            assert is_hom_tuple(G, P, t) == (P.order == 1 and v == 0)


# -- Alperin ---------------------------------------------------------------------


def test_alperin_one_step_on_s4(cat, systems):
    F = systems[("S4", 2)]
    z = center_of_d8(F)
    targets = [m for m in hom_set(F, z, F.carrier)
               if mask_of(m.images.values()) != z.mask]
    assert targets
    deco = alperin_decompose(F, targets[0])
    assert len(deco.essentials) == 1
    assert deco.essentials[0].mask == v4n_of(cat).mask
    assert deco.recompose() == dict(zip(z.elems, targets[0].as_tuple()))


def test_alperin_inclusion_needs_no_essential_step(systems):
    F = systems[("S4", 2)]
    q = center_of_d8(F)
    incl = wrap_tuple(F, q, F.carrier, q.elems)
    deco = alperin_decompose(F, incl)
    assert len(deco.essentials) == 0


def test_alperin_c4_fusion_in_sl23_uses_maximal_only(systems):
    F = systems[("SL(2,3)", 2)]
    c4s = [H for H in F.objects() if H.order == 4]
    assert len(c4s) == 3
    src = c4s[0]
    moved = [t for t in F.maps(src) if mask_of(t) != src.mask]
    assert moved
    deco = alperin_decompose(F, wrap_tuple(F, src, F.carrier, moved[0]))
    assert len(deco.essentials) == 0   # none exist; Aut_F(Q8) suffices


@pytest.mark.parametrize("key", [("S4", 2), ("SL(2,3)", 2), ("D8", 2),
                                 ("Q8", 2), ("A4", 2), ("S3", 2),
                                 ("GL(2,3)", 2)])
def test_alperin_roundtrip_everywhere(systems, key):
    F = systems[key]
    for P in F.objects():
        for t in F.maps(P):
            phi = wrap_tuple(F, P, F.carrier, t)
            deco = alperin_decompose(F, phi)
            assert deco.recompose() == dict(zip(P.elems, t))


def test_fusion_equal_basics(cat, systems):
    F = systems[("S4", 2)]
    assert fusion_equal(F, F)
    inner = FusionSystem.inner(F.carrier, 2)
    assert not fusion_equal(F, inner)


def test_alperin_raises_not_generated_on_bad_category(cat):
    """The spliced pseudo-category cannot decompose its own extra morphism:
    it has no essentials and inner maximal automorphisms never reach it."""
    from fusionlab.errors import NotGenerated

    spliced, transp, splice = spliced_d8(cat)
    phi = wrap_tuple(spliced, transp, spliced.carrier, splice)
    with pytest.raises(NotGenerated):
        alperin_decompose(spliced, phi)


def test_alperin_search_matches_one_search_per_morphism(systems):
    """The search kept per domain gives every map of every catalog system
    with a carrier of order at most 16 the decomposition that a search for
    that map alone finds: the same chain, essentials and automorphisms."""
    done = 0
    for F in systems.values():
        if F.carrier.order <= 16:
            done += assert_alperin_matches_brute(F)
    assert done > 0


def test_alperin_roundtrip_on_gl32_steps_outside_the_essentials(gl32):
    """GL(3,2) at p = 2 has two essential subgroups, so the search of a
    domain meets states inside only one of them, or neither, and skips
    the other: each of the 44 maps recomposes, and decomposes as a search
    for it alone does."""
    F = realize_fusion(gl32, 2)
    total = 0
    for P in F.objects():
        for t in F.maps(P):
            deco = alperin_decompose(F, wrap_tuple(F, P, F.carrier, t))
            assert deco.recompose() == dict(zip(P.elems, t))
            total += 1
    assert total == 44
    assert assert_alperin_matches_brute(F) == 44


def test_alperin_not_generated_after_other_maps_on_its_domain(cat):
    """The spliced map still raises NotGenerated when the other maps on its
    domain have been decomposed first, so that the kept search of the
    domain, not a search for it alone, answers it."""
    from fusionlab.errors import NotGenerated

    spliced, transp, splice = spliced_d8(cat)
    others = [t for t in spliced.maps(transp) if t != splice]
    assert others
    for t in others:
        deco = alperin_decompose(
            spliced, wrap_tuple(spliced, transp, spliced.carrier, t))
        assert deco.recompose() == dict(zip(transp.elems, t))
    assert transp.mask in spliced._memo.alperin
    phi = wrap_tuple(spliced, transp, spliced.carrier, splice)
    with pytest.raises(NotGenerated):
        alperin_decompose(spliced, phi)
    with pytest.raises(NotGenerated):
        alperin_decompose_brute(spliced, phi)
