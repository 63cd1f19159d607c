"""Randomized invariants over small permutation groups."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from fusionlab.catalog import catalog_group
from fusionlab.fusion import (
    FusionSystem,
    conj_tuple,
    realize_fusion,
    verify_axioms,
)
from fusionlab.groups import (
    _iso_search,
    aut_generators,
    bits,
    build_group,
    is_hom_tuple,
    is_involved,
    is_isomorphic,
    mask_of,
    o_p,
    o_p_prime,
    quotient_group,
    sylow,
)
from fusionlab.subsystems import is_normal_in_F, o_p_of_F
from fusionlab.theorems import has_normal_p_complement

from oracles import (
    assert_alperin_matches_brute,
    assert_closure_matches_oracle,
    assert_kept_verdicts_exact,
    assert_reader_reads_at_positions,
    assert_strongly_p_embedded_matches_brute,
    assert_kernels_match_oracles,
    automorphisms_raw,
    closure_of_maps,
    assert_section_matches_copy,
    brute_force_subgroups,
    closure_seeds,
    closure_set,
    conjugacy_classes_brute,
    has_normal_p_complement_brute,
    involved_brute,
    is_bijective,
    is_hom_brute,
    iso_search_brute,
    is_power_of,
    normal_in_F_brute,
    o_p_brute,
    o_pi_brute,
    perm_table_brute,
    verify_axioms_brute,
)

POOL = [
    (1, 0, 2, 3, 4),          # (1 2)
    (0, 2, 1, 3, 4),          # (2 3)
    (1, 2, 0, 3, 4),          # (1 2 3)
    (0, 1, 2, 4, 3),          # (4 5)
    (1, 0, 3, 2, 4),          # (1 2)(3 4)
    (2, 3, 0, 1, 4),          # (1 3)(2 4)
    (1, 2, 3, 0, 4),          # (1 2 3 4)
    (0, 2, 3, 4, 1),          # (2 3 4 5)
]

group_specs = st.lists(st.sampled_from(POOL), min_size=0, max_size=2)

COMMON = dict(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.data_too_large])


@settings(**COMMON)
@given(group_specs)
def test_built_groups_satisfy_axioms(gens):
    g = build_group([list(p) for p in gens], kind="perms", cap=200)
    n = g.order
    assert g.mul(0, 0) == 0
    for x in range(n):
        assert g.mul(x, g.inv[x]) == 0
        for y in range(n):
            for z in (0, min(x, y)):
                assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))


@settings(**COMMON)
@given(group_specs)
def test_perm_table_matches_all_pairs_composition(gens):
    g = build_group([list(p) for p in gens], kind="perms", cap=200)
    table, _, gen_indices = perm_table_brute(gens)
    assert [g.mul_row(a) for a in range(g.order)] == table
    assert g.gen_indices == gen_indices


@settings(**COMMON)
@given(group_specs)
def test_lattice_closed_under_meet_and_conjugation(gens):
    g = build_group([list(p) for p in gens], kind="perms", cap=200)
    subs = g.subgroups()
    masks = {H.mask for H in subs}
    for H in subs:
        for K in subs:
            assert (H.mask & K.mask) in masks
        for x in range(g.order):
            assert H.conjugate_mask(x) in masks


@settings(**COMMON)
@given(group_specs)
def test_reader_and_conjugation_images_match_element_loops(gens):
    g = build_group([list(p) for p in gens], kind="perms", cap=200)
    assert assert_reader_reads_at_positions(g) == len(g.subgroups())


@settings(**COMMON)
@given(group_specs, st.data())
def test_closure_mask_matches_oracle(gens, data):
    g = build_group([list(p) for p in gens], kind="perms", cap=200)
    element = st.integers(0, g.order - 1)
    seeds = [1, g.cyclic_mask(data.draw(element)),
             data.draw(st.sampled_from(g.subgroups())).mask]
    for seed in seeds:
        extra = data.draw(st.lists(element, min_size=1, max_size=3))
        want = mask_of(closure_set(g, list(bits(seed)) + extra))
        assert g.closure_mask(extra, seed) == want


@settings(**COMMON)
@given(group_specs)
def test_lattice_matches_brute_force(gens):
    g = build_group([list(p) for p in gens], kind="perms", cap=200)
    masks = [H.mask for H in g.subgroups()]
    assert len(set(masks)) == len(masks)
    if g.order <= 24:
        assert set(masks) == {mask_of(H) for H in brute_force_subgroups(g)}
    else:
        # the only larger POOL group is S5 (order 120), with 156 subgroups;
        # three generators at a time is out of the oracle's reach there
        assert g.order == 120 and len(masks) == 156


@settings(**COMMON)
@given(group_specs, st.sampled_from([2, 3, 5]))
def test_strongly_p_embedded_matches_the_lattice_search(gens, p):
    """The Sylow-normalizer kernel decides as the lattice search on the
    Cayley table, and its witness meets the definition (S5 is out of the
    search's reach)."""
    g = build_group([list(p_) for p_ in gens], kind="perms", cap=200)
    if g.order <= 48:
        assert_strongly_p_embedded_matches_brute(g, p)


@settings(**COMMON)
@given(group_specs, st.sampled_from([2, 3, 5]))
def test_sylow_is_least_conjugate(gens, p):
    """The canonical Sylow subgroup, taken from its orbit under the
    group's generators, is the least mask over the conjugates by every
    element."""
    g = build_group([list(p_) for p_ in gens], kind="perms", cap=200)
    syl = sylow(g, p)
    assert syl.mask == min(syl.conjugate_mask(x) for x in range(g.order))


@settings(**COMMON)
@given(group_specs, st.sampled_from([2, 3, 5]))
def test_sylow_has_full_p_part(gens, p):
    g = build_group([list(p_) for p_ in gens], kind="perms", cap=200)
    syl = sylow(g, p)
    rest = g.order // syl.order
    assert syl.order * rest == g.order
    assert rest % p != 0
    k = syl.order
    while k > 1:
        assert k % p == 0
        k //= p


@settings(**COMMON)
@given(group_specs)
def test_quotients_by_normal_subgroups_project(gens):
    g = build_group([list(p) for p in gens], kind="perms", cap=200)
    full = g.full_subgroup
    for H in g.subgroups():
        if not H.is_normal_in(full):
            continue
        q, proj = quotient_group(g, H)
        assert q.order * H.order == g.order
        assert proj.kernel_mask() == H.mask


@settings(**COMMON)
@given(group_specs)
def test_section_quotients_match_standalone_copies(gens):
    g = build_group([list(p) for p in gens], kind="perms", cap=200)
    for B in g.subgroups():
        for A in B.subgroups_within():
            if A.is_normal_in(B):
                assert_section_matches_copy(B, A)


@settings(**COMMON)
@given(group_specs)
def test_isomorphism_is_reflexive_and_detects_relabeling(gens):
    g = build_group([list(p) for p in gens], kind="perms", cap=200)
    ok, w = is_isomorphic(g, g)
    assert ok and is_bijective(w)
    # reversing the generator order relabels the BFS indexing
    relabeled = build_group([list(p) for p in reversed(gens)], kind="perms",
                            cap=200)
    ok2, _ = is_isomorphic(g, relabeled)
    assert ok2


@settings(**COMMON)
@given(group_specs)
def test_iso_search_matches_leaf_oracle(gens):
    """Every automorphism, in the oracle's order, of a drawn group."""
    g = build_group([list(p) for p in gens], kind="perms", cap=200)
    assert _iso_search(g, g, True) == iso_search_brute(g, g, True)


@settings(**COMMON)
@given(group_specs)
def test_aut_generators_generate_the_listed_group(gens):
    """|Aut(G)| and the group the generators generate, against the list,
    on a drawn group (Aut(S5) has 120 elements)."""
    g = build_group([list(p) for p in gens], kind="perms", cap=200)
    auts = automorphisms_raw(g)
    found, order = aut_generators(g)
    assert order == len(auts)
    assert closure_of_maps(found, g.order) == set(auts)


@settings(**COMMON)
@given(group_specs, st.sampled_from(["C2", "C3", "C4", "V4", "S3", "D8",
                                     "A4", "S4"]))
def test_involvement_matches_all_b_loop(gens, h_name):
    """Verdict and witness (B, A) of the Sylow-seeded section search
    against trying every B and every A of the lattice."""
    g = build_group([list(p) for p in gens], kind="perms", cap=200)
    H = catalog_group(h_name)
    assert is_involved(H, g) == involved_brute(H, g)


@settings(**COMMON)
@given(group_specs, st.sampled_from([2, 3]))
def test_thompson_anchors_nested(gens, p):
    from fusionlab.pgroups import thompson_data

    g = build_group([list(q) for q in gens], kind="perms", cap=200)
    s = sylow(g, p)
    if s.order == 1:
        return
    td = thompson_data(s)
    assert td.A <= td.B
    assert td.B <= td.J
    assert td.J <= s
    assert td.A.order > 1


@settings(**COMMON)
@given(group_specs, st.sampled_from([2, 3, 5]))
def test_normal_pi_subgroups_match_oracles(gens, p):
    g = build_group([list(q) for q in gens], kind="perms", cap=200)
    for W in g.subgroups():
        assert set(o_p(g, p, within=W).elems) == o_pi_brute(
            g, W.elems, lambda n: is_power_of(n, p))
        assert set(o_p_prime(g, p, within=W).elems) == o_pi_brute(
            g, W.elems, lambda n: n % p != 0)
        assert has_normal_p_complement(W, p) == \
            has_normal_p_complement_brute(g, W.elems, p)


@settings(**COMMON)
@given(group_specs)
def test_kept_verdicts_match_oracles(gens):
    g = build_group([list(q) for q in gens], kind="perms", cap=200)
    assert_kept_verdicts_exact(g, [catalog_group(h) for h in ("C2", "V4",
                                                              "S3", "A4")])


@settings(**COMMON)
@given(group_specs)
def test_normalizer_centralizer_derived_match_oracles(gens):
    g = build_group([list(q) for q in gens], kind="perms", cap=200)
    assert_kernels_match_oracles(g)


@settings(**COMMON)
@given(group_specs, st.sampled_from([2, 3]))
def test_normality_in_F_and_core_match_the_definition(gens, p):
    """Verdict and counterexample against the oracle's definition, and the
    Alperin-set fixpoint O_p(F) against the join of the normal subgroups."""
    g = build_group([list(q) for q in gens], kind="perms", cap=200)
    F = realize_fusion(g, p)
    for W in F.objects():
        if not W.is_normal_in(F.carrier):
            continue
        got = is_normal_in_F(F, W)
        want = normal_in_F_brute(F, W)
        assert got[0] == want[0]
        if not got[0]:
            assert got[1].domain == want[1].domain
            assert got[1].as_tuple() == want[1].as_tuple()
    assert o_p_of_F(F) == o_p_brute(F)


@settings(**COMMON)
@given(group_specs, st.data())
def test_hom_test_on_generators_matches_all_pairs(gens, data):
    """On a drawn subgroup P: a conjugation map, the same map with two
    images swapped, and a random bijection of P."""
    g = build_group([list(q) for q in gens], kind="perms", cap=200)
    P = data.draw(st.sampled_from(g.subgroups()))
    conj = conj_tuple(g, data.draw(st.integers(0, g.order - 1)), P)
    i, j = sorted(data.draw(st.lists(st.integers(0, P.order - 1),
                                     min_size=2, max_size=2)))
    swapped = list(conj)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    shuffled = tuple(data.draw(st.permutations(P.elems)))
    assert is_hom_tuple(g, P, conj)
    for t in (tuple(swapped), shuffled):
        assert is_hom_tuple(g, P, t) == is_hom_brute(g, P, t)


@settings(**COMMON)
@given(group_specs, st.sampled_from([2, 3]))
def test_classes_match_the_union_find_oracle(gens, p):
    """Each F-class, read off one hom-set, against the union-find over
    every hom-set: on F_S(G), and on conjugation by G on every subgroup of
    S as the carrier."""
    g = build_group([list(q) for q in gens], kind="perms", cap=200)
    F = realize_fusion(g, p)
    for Q in F.objects():
        E = FusionSystem(g, p, Q, ambient=g.full_subgroup)
        for X in (F, E):
            want = conjugacy_classes_brute(X)
            for R in X.objects():
                assert tuple(T.mask for T in X.conjugacy_class_of(R)) == \
                    want[R.mask]


@settings(**COMMON)
@given(group_specs, st.sampled_from([2, 3]))
def test_axiom_reports_match_the_oracle(gens, p):
    """The whole AxiomReport against the oracle's checks on whole image
    tuples: on F_S(G), and on conjugation by G on every subgroup of S as
    the carrier, a category that fails FS2 or FS3 on many of them."""
    g = build_group([list(q) for q in gens], kind="perms", cap=200)
    F = realize_fusion(g, p)
    for Q in F.objects():
        E = FusionSystem(g, p, Q, ambient=g.full_subgroup)
        assert verify_axioms(E) == verify_axioms_brute(E)


@settings(**COMMON)
@given(group_specs, st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_closure_matches_the_fixed_point_oracle(gens, p, seed):
    """The closure tested on generator keys against the whole-tuple fixed
    point, on seeds drawn from F_S(G) that are not closed: the
    S-conjugations on S, the generators of Aut_F(S), a random third of
    each hom-set."""
    g = build_group([list(q) for q in gens], kind="perms", cap=200)
    if g.order % p:
        return
    F = realize_fusion(g, p)
    for kind, maps in closure_seeds(F, random.Random(seed)).items():
        assert_closure_matches_oracle(F, maps, kind)


@settings(**COMMON)
@given(group_specs, st.sampled_from([2, 3]))
def test_alperin_search_matches_brute_on_random_groups(gens, p):
    """On the realized system of a random permutation group, every map
    decomposes as a search for that map alone decomposes it."""
    g = build_group([list(p_) for p_ in gens], kind="perms", cap=200)
    if g.order % p:
        return
    F = realize_fusion(g, p)
    if F.carrier.order <= 16:
        assert assert_alperin_matches_brute(F) == sum(
            len(F.maps(P)) for P in F.objects())
