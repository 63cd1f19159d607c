"""Explicit systems must behave exactly like their realized counterparts,
and axiom verification must pinpoint each kind of defect."""

import pytest

from fusionlab.errors import CarrierMismatch, HypothesisViolated
from fusionlab.fusion import (
    FusionSystem,
    alperin_decompose,
    classify_subgroup,
    essential_subgroups,
    fusion_equal,
    realize_fusion,
    verify_axioms,
    wrap_tuple,
)
from fusionlab.subsystems import (
    category_closure,
    is_normal_in_F,
    normalizer_system,
    o_p_of_F,
    straighten_chain,
)

from oracles import (
    assert_alperin_matches_brute,
    assert_subsystem_rules_match_brute,
    automorphisms_raw,
    materialize,
    normal_in_F_brute,
    subgroup_of,
    verify_axioms_brute,
)


@pytest.fixture()
def explicit_copy(systems):
    F = systems[("S4", 2)]
    E = FusionSystem.explicit_system(F.host, 2, F.carrier, materialize(F),
                                     name="explicit-copy")
    return F, E


def test_explicit_copy_equals_realized(explicit_copy):
    F, E = explicit_copy
    assert fusion_equal(E, F)
    assert verify_axioms(E).status == "verified"


def test_explicit_copy_classifies_identically(explicit_copy):
    F, E = explicit_copy
    for Q in F.objects():
        pf = classify_subgroup(F, Q)
        pe = classify_subgroup(E, Q)
        assert (pf.fully_normalized, pf.fully_centralized, pf.centric,
                pf.radical, pf.essential) == \
               (pe.fully_normalized, pe.fully_centralized, pe.centric,
                pe.radical, pe.essential)
    assert [x.mask for x in essential_subgroups(F)[0]] == \
           [x.mask for x in essential_subgroups(E)[0]]


def _essentials_unfiltered(F):
    """essential_subgroups without its centric filter: every object
    classified."""
    ess, ess_fn = [], []
    for Q in F.objects():
        prof = classify_subgroup(F, Q)
        if prof.essential:
            ess.append(Q.mask)
            if prof.fully_normalized:
                ess_fn.append(Q.mask)
    return ess, ess_fn


def test_essentials_filtered_by_centric_match_the_unfiltered_loop(systems):
    """essential_subgroups classifies only centric objects; on every
    catalog system and on its explicit copy the two lists and their order
    are those of the loop that classifies every object.  Each list is
    taken on a fresh system, built by the constructor rather than interned
    on the host, so neither run reads the other's profiles."""
    seen = 0
    for (name, p), F in systems.items():
        def fresh(explicit, tag):
            if explicit:
                return FusionSystem.explicit_system(
                    F.host, p, F.carrier, materialize(F), name=tag)
            return FusionSystem(F.host, p, F.carrier, ambient=F.ambient,
                                name=tag)

        for explicit in (False, True):
            ess, ess_fn = essential_subgroups(fresh(explicit, "filtered"))
            assert ([Q.mask for Q in ess], [Q.mask for Q in ess_fn]) == \
                _essentials_unfiltered(fresh(explicit, "unfiltered")), \
                (name, p, explicit)
            seen += len(ess)
    assert seen > 0


def test_explicit_copy_normality_and_core(explicit_copy):
    F, E = explicit_copy
    for W in F.objects():
        assert is_normal_in_F(F, W)[0] == is_normal_in_F(E, W)[0]
    assert o_p_of_F(E).mask == o_p_of_F(F).mask


def test_explicit_copy_alperin(explicit_copy):
    F, E = explicit_copy
    for P in E.objects():
        for t in E.maps(P):
            deco = alperin_decompose(E, wrap_tuple(E, P, E.carrier, t))
            assert deco.recompose() == dict(zip(P.elems, t))


def test_explicit_copy_subsystems(explicit_copy):
    F, E = explicit_copy
    for Q in F.objects():
        if not F.is_fully_normalized(Q):
            continue
        nf = normalizer_system(F, Q)
        ne = normalizer_system(E, Q)
        assert fusion_equal(nf, ne)


def _c4_with_inversion(cat):
    c4 = cat["C4"]
    S = c4.full_subgroup
    inv_tuple = tuple(c4.inv[x] for x in S.elems)
    return category_closure(c4, 2, S, {S.mask: (inv_tuple,)},
                            name="c4-with-inversion")


def test_fs2_failure_detected(cat):
    """C4 with its inversion spliced into Aut(S) fails exactly FS2 (the
    inner automorphisms are no longer a Sylow 2-subgroup of Aut_F(S))."""
    spliced = _c4_with_inversion(cat)
    report = verify_axioms(spliced)
    assert report.status == "failed"
    assert report.witness[0] == "FS2"
    assert report == verify_axioms_brute(spliced)


def _d8xc2_with_outer_automorphisms():
    """Inner fusion of D8 x C2 closed up with one more automorphism of its
    first elementary abelian subgroup of order 8, for the first two such
    automorphisms."""
    from fusionlab.groups import build_group

    g = build_group([[1, 2, 3, 0, 4, 5], [0, 3, 2, 1, 4, 5],
                     [0, 1, 2, 3, 5, 4]], kind="perms", name="D8xC2")
    S = g.full_subgroup
    inner = materialize(FusionSystem.inner(S, 2))
    E = next(Q for Q in S.subgroups_within()
             if Q.order == 8 and all(g.elem_orders[x] <= 2 for x in Q.elems))
    sub, embed = E.as_group()
    outer = [t for t in (tuple(embed[im[k]] for k in range(E.order))
                         for im in automorphisms_raw(sub))
             if t not in inner[E.mask]]
    return [category_closure(g, 2, S, {**inner, E.mask: inner[E.mask] + (t,)},
                             name="d8xc2-spliced")
            for t in outer[:2]]


def test_fs3_failure_on_a_two_generator_domain():
    """Inner fusion of D8 x C2 with one more automorphism of its first
    elementary abelian subgroup E of order 8 fails FS3 on a subgroup of
    order 4: the failing map must be compared with the extensions on both
    generators of its domain, not on one."""
    for spliced in _d8xc2_with_outer_automorphisms():
        report = verify_axioms(spliced)
        assert report == verify_axioms_brute(spliced)
        assert report.witness[0] == "FS3"
        assert len(report.witness[1].generators()) == 2


# FS3 holds or fails on whole S-orbits, so verify_axioms checks one object
# of each S-class and one map of each left S-orbit in its hom-set.  The
# first failure is then on the first object of its S-class; the systems
# below put it behind earlier maps of its hom-set, and behind an earlier
# F-conjugate (not S-conjugate) object on which FS3 holds, where a pruning
# by F-orbits would skip it.


def _spliced(g, E, images):
    """Inner fusion of g plus the automorphism ``images`` (a dict) of E,
    closed into a category."""
    S = g.full_subgroup
    seed = dict(materialize(FusionSystem.inner(S, 2)))
    seed[E.mask] += (tuple(images[x] for x in E.elems),)
    return category_closure(g, 2, S, seed, name=f"{g.name}-spliced")


def _fs3_witness_matches_oracle(F):
    report = verify_axioms(F)
    assert report == verify_axioms_brute(F)
    assert report.witness[0] == "FS3"
    P, t = report.witness[1:3]
    assert F.maps(P).index(t) >= 2
    return P


def _d8xc4_with_an_inversion():
    """(D8 x C4 = <r, s> x <c> with the inversion of E = <sc>, E)."""
    from fusionlab.groups import build_group

    g = build_group([(1, 2, 3, 0, 4, 5, 6, 7), (0, 3, 2, 1, 4, 5, 6, 7),
                     (0, 1, 2, 3, 5, 6, 7, 4)], kind="perms", name="D8xC4")
    r, s, c = g.gen_indices
    E = g.subgroup(g.cyclic_mask(g.mul(s, c)))
    return _spliced(g, E, {x: g.inv[x] for x in E.elems}), E


def test_fs3_failure_behind_its_aut_f_orbit():
    """D8 x C4 = <r, s> x <c> with the inversion of E = <sc>, which is not
    normal: the first failing map sits on the first object of E's S-class
    of two, behind maps that pass and that it is an Aut_F-image of."""
    F, E = _d8xc4_with_an_inversion()
    g = F.host
    P = _fs3_witness_matches_oracle(F)
    s_class = {E.conjugate_mask(x) for x in g.full_subgroup.elems}
    assert len(s_class) == 2 and P.mask == min(s_class)


def _d8xc2_with_a_swap():
    """D8 x C2 = <r, s> x <w> with the automorphism of E = <s, r^2, w>
    that swaps s and w."""
    from fusionlab.groups import build_group

    g = build_group([(1, 2, 3, 0, 4, 5), (0, 3, 2, 1, 4, 5),
                     (0, 1, 2, 3, 5, 4)], kind="perms", name="D8xC2")
    r, s, w = g.gen_indices
    z = g.mul(r, r)
    E = g.subgroup(g.closure_mask([s, z, w]))
    swap = {}
    for a in (0, 1):
        for b in (0, 1):
            for d in (0, 1):
                swap[g.mul(g.mul(g.power(s, a), g.power(z, b)),
                           g.power(w, d))] = g.mul(
                    g.mul(g.power(w, a), g.power(z, b)), g.power(s, d))
    return _spliced(g, E, swap)


def test_fs3_failure_behind_an_earlier_f_conjugate():
    """D8 x C2 = <r, s> x <w> with the automorphism of E = <s, r^2, w>
    that swaps s and w: the first failing map is on <w>, behind maps that
    pass, and <s> is F-conjugate to <w>, earlier, and passes FS3."""
    F = _d8xc2_with_a_swap()
    g = F.host
    r, s, w = g.gen_indices
    P = _fs3_witness_matches_oracle(F)
    earlier = subgroup_of(g, (0, s))
    assert P.mask == subgroup_of(g, (0, w)).mask
    assert earlier.mask < P.mask
    assert earlier in F.conjugacy_class_of(P)


def test_missing_inclusion_detected(cat):
    v4 = cat["V4"]
    S = v4.full_subgroup
    c2 = next(H for H in S.subgroups_within() if H.order == 2)
    maps = {P.mask: ((P.elems),) for P in S.subgroups_within()}
    maps[c2.mask] = ()   # drop every morphism, including the inclusion
    broken = FusionSystem(v4, 2, S, explicit=maps, name="broken")
    report = verify_axioms(broken)
    assert report.status == "failed"
    assert report.witness[0] == "missing-inclusion"
    assert report == verify_axioms_brute(broken)


def _tampered(G, extra):
    """Explicit system on the whole of G: the inclusions, plus ``extra``, a
    list of (domain, images of the domain's sorted elements)."""
    S = G.full_subgroup
    maps = {P.mask: [P.elems] for P in S.subgroups_within()}
    for P, t in extra:
        maps[P.mask].append(tuple(t))
    return FusionSystem(G, 2, S, explicit={m: tuple(ts)
                                           for m, ts in maps.items()},
                        name="tampered")


def _c2_cubed():
    """C2^3 and its subgroups of order 2, keyed by their involution."""
    from fusionlab.groups import build_group

    e8 = build_group([[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5],
                      [0, 1, 2, 3, 5, 4]], kind="perms", name="C2^3")
    return e8, {H.elems[1]: H for H in e8.full_subgroup.subgroups_within()
                if H.order == 2}


# Each tampered system below has several failing maps on one domain, met
# in another order when the hom-set is walked as a sorted tuple than as a
# set, as the oracle walks it; the first witness must be the oracle's.


def test_missing_inverse_detected():
    """<1> -> <v> for every other involution v, with no inverses."""
    e8, c2 = _c2_cubed()
    broken = _tampered(e8, [(c2[1], (0, v)) for v in range(2, 8)])
    report = verify_axioms(broken)
    assert report.witness[0] == "missing-inverse"
    assert report == verify_axioms_brute(broken)


def test_missing_composite_detected():
    """<1> <-> <2> <-> <5> and <1> <-> <7> <-> <6>, each with its inverse,
    but not the composites <1> -> <5> and <1> -> <6>."""
    e8, c2 = _c2_cubed()
    pairs = [(1, 2), (2, 5), (1, 7), (7, 6)]
    broken = _tampered(e8, [(c2[v], (0, w)) for a, b in pairs
                            for v, w in ((a, b), (b, a))])
    report = verify_axioms(broken)
    assert report.witness[0] == "not-composition-closed"
    assert report == verify_axioms_brute(broken)


def test_missing_restriction_detected(cat):
    """All of Aut(V4), without the restrictions of the automorphisms that
    move a subgroup of order 2."""
    v4 = cat["V4"]
    S = v4.full_subgroup
    broken = _tampered(v4, [(S, im) for im in automorphisms_raw(v4)
                            if tuple(im) != S.elems])
    report = verify_axioms(broken)
    assert report.witness[0] == "not-restriction-closed"
    assert report == verify_axioms_brute(broken)


def test_composites_compared_on_every_generator():
    """On C2^3 = <a, b, c>: X (b -> ab) and Y (c -> ac), but not their
    composite.  All three fix a, so a test that compared maps on the first
    generator alone would take the composite for the identity."""
    e8, _ = _c2_cubed()
    S = e8.full_subgroup
    a, b, c = S.generators()

    def on_generators(images):
        t = {0: 0}
        reached = [0]
        for x in reached:   # grows while it is walked
            for g, h in zip((a, b, c), images):
                y = e8.mul(x, g)
                if y not in t:
                    t[y] = e8.mul(t[x], h)
                    reached.append(y)
        return tuple(t[x] for x in S.elems)

    ab, ac = e8.mul(a, b), e8.mul(a, c)
    broken = _tampered(e8, [(S, on_generators((a, ab, c))),
                            (S, on_generators((a, b, ac)))])
    report = verify_axioms(broken)
    assert report.witness[0] == "not-composition-closed"
    assert report == verify_axioms_brute(broken)


def test_normality_compares_maps_on_every_generator(cat):
    """V4 = <a, b> with one more automorphism, a -> a and b -> ab.  It does
    not map <b> onto itself, so <b> is not normal, although the identity,
    which agrees with it on a, does: the definition must compare maps on
    all of V4's generators, not on the first alone."""
    v4 = cat["V4"]
    S = v4.full_subgroup
    a, b = S.generators()
    tamper = _tampered(v4, [(S, tuple({b: v4.mul(a, b),
                                       v4.mul(a, b): b}.get(e, e)
                                      for e in S.elems))])
    for W in S.subgroups_within():
        ok, counter = is_normal_in_F(tamper, W)
        want, want_counter = normal_in_F_brute(tamper, W)
        assert ok == want
        assert (counter and counter.as_tuple()) == \
            (want_counter and want_counter.as_tuple())
    assert not is_normal_in_F(tamper, subgroup_of(v4, (0, b)))[0]


def test_fs1_failure_detected(cat):
    """The inclusions alone on D8: a category, but conjugation by D8 moves
    its non-central subgroups of order 2, and those maps are missing."""
    d8 = cat["D8"]
    S = d8.full_subgroup
    bare = FusionSystem.explicit_system(d8, 2, S, {}, name="inclusions")
    report = verify_axioms(bare)
    assert report.witness[0] == "FS1"
    assert report == verify_axioms_brute(bare)


def test_explicit_map_that_is_not_a_homomorphism_is_rejected(cat):
    """A bijection of D8 that agrees with the identity on the generators
    but swaps two other elements: checks that read only generator images
    would take it for the identity, so it is refused on entry.  So are a
    tuple of the wrong length and a map with its image or its domain
    outside the carrier."""
    d8 = cat["D8"]
    S = d8.full_subgroup
    gens = S.generators()
    i, j = [k for k, x in enumerate(S.elems) if x and x not in gens][:2]
    bad = list(S.elems)
    bad[i], bad[j] = bad[j], bad[i]
    with pytest.raises(CarrierMismatch):
        FusionSystem.explicit_system(d8, 2, S, {S.mask: (S.elems,
                                                         tuple(bad))})
    with pytest.raises(CarrierMismatch):   # wrong length
        FusionSystem.explicit_system(d8, 2, S, {S.mask: (S.elems[:-1],)})
    c4 = next(H for H in S.subgroups_within()
              if H.order == 4 and len(H.generators()) == 1)
    z = next(H for H in c4.subgroups_within() if H.order == 2)
    outside = next(x for x in S.elems
                   if x not in c4 and d8.elem_orders[x] == 2)
    with pytest.raises(CarrierMismatch):   # image outside the carrier
        FusionSystem(d8, 2, c4, explicit={z.mask: ((0, outside),)})
    with pytest.raises(CarrierMismatch):   # domain outside the carrier
        category_closure(d8, 2, c4, {subgroup_of(d8, (0, outside)).mask:
                                     ((0, z.elems[1]),)})


def test_closure_checks_each_seed_map_once(cat, monkeypatch):
    """Counts, not timings: category_closure checks each seed map once,
    on entry, and not the maps it derives from the seeds: an inverse,
    composite or restriction of injective homomorphisms is one."""
    from fusionlab import fusion

    checked = []
    real = fusion.is_hom_tuple

    def counting(H, P, t):
        checked.append((P.mask, t))
        return real(H, P, t)

    monkeypatch.setattr(fusion, "is_hom_tuple", counting)
    g = cat["S4"]
    F = realize_fusion(g, 2)
    seed = {F.carrier.mask: F.aut_tuples(F.carrier)}
    closed = category_closure(g, 2, F.carrier, seed, name="closed")
    assert sorted(checked) == sorted((m, t) for m, ts in seed.items()
                                     for t in ts)
    assert sum(len(closed.maps(P)) for P in closed.objects()) > len(checked)


def test_straighten_two_step_chain(systems):
    """Z(SD16) then its characteristic overgroup C8 = J(SD16)."""
    from fusionlab.pgroups import thompson_data

    F = systems[("GL(2,3)", 2)]
    S = F.carrier
    z = S.center()
    j = thompson_data(S).J
    assert j.order == 8
    phi, images = straighten_chain(F, [z, j])
    assert all(F.is_fully_normalized(img) for img in images)
    assert phi.domain.mask == F.n_in_carrier(j).mask


def _categories(cat, systems):
    """The explicit systems of this file that are categories: the copy of
    F_S(S4), and the closures that fail FS2 or FS3."""
    F = systems[("S4", 2)]
    return [FusionSystem.explicit_system(F.host, 2, F.carrier,
                                         materialize(F), name="explicit-copy"),
            _c4_with_inversion(cat), *_d8xc2_with_outer_automorphisms(),
            _d8xc4_with_an_inversion()[0], _d8xc2_with_a_swap()]


def test_alperin_search_matches_brute_on_explicit_systems(cat, systems):
    """On saturated and unsaturated explicit systems alike, each map gets
    the decomposition, or the error, of a search for that map alone."""
    done = [assert_alperin_matches_brute(F) for F in _categories(cat, systems)]
    assert done[0] == sum(len(ts) for ts in materialize(systems[("S4", 2)])
                          .values())


def test_subsystem_rules_match_brute_on_explicit_systems(cat, systems):
    """An explicit system's subsystems are built from the rule alone, with
    no realized system to check them against: at every object, each rule
    gives the hom-sets of the whole-tuple oracle."""
    checked = sum(assert_subsystem_rules_match_brute(F)
                  for F in _categories(cat, systems))
    assert checked > 0


def test_unsaturated_systems_are_refused_on_every_object(cat, systems):
    """The five closures that fail FS2 or FS3 have their axioms verified
    on first use, and then chain straightening refuses every object, as
    O_p(F) refuses the system: the hypothesis fails, nothing contradicts."""
    for F in _categories(cat, systems)[1:]:
        assert F.saturation_status == "unchecked"
        for W in F.objects():
            with pytest.raises(HypothesisViolated):
                straighten_chain(F, [W])
        assert verify_axioms(F).status == "failed"
        with pytest.raises(HypothesisViolated):
            o_p_of_F(F)
