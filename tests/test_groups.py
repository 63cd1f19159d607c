import operator
import random

import pytest

from fusionlab.catalog import CATALOG_NAMES, EXPECTED_ORDERS
from fusionlab.errors import (
    InternalInconsistency,
    NonAssociative,
    NotNormal,
    OrderCapExceeded,
    UnsupportedPrime,
)
from fusionlab.groups import (
    FiniteGroup,
    _conjugates,
    _iso_search,
    _normal_subgroups_of_order,
    aut_generators,
    bits,
    build_group,
    is_hom_tuple,
    is_involved,
    is_isomorphic,
    is_prime,
    kept,
    left_cosets,
    mask_of,
    mask_orbit,
    move_mask,
    o_p,
    o_p_prime,
    omega_mask,
    orbit,
    p_part,
    prime_divisors,
    quotient_group,
    subgroup_class_reps,
    sylow,
)
from fusionlab.hfree import (
    centric_radical_fn_subgroups,
    sigma3_involvement_check,
)

from oracles import (
    assert_kernels_match_oracles,
    assert_lattice_is_the_walk_within,
    assert_reader_reads_at_positions,
    assert_kept_verdicts_exact,
    assert_quotient_matches_brute,
    assert_section_matches_copy,
    automorphisms,
    automorphisms_raw,
    brute_force_subgroups,
    closure_failure_brute,
    closure_of_maps,
    closure_set,
    extraspecial27_perms_by_law,
    group_from_function,
    involved_brute,
    is_bijective,
    is_normal_brute,
    iso_search_brute,
    is_power_of,
    left_cosets_brute,
    looks_like_a4,
    looks_like_s3,
    mask_orbits_brute,
    o_pi_brute,
    order_histogram,
    perm_table_brute,
    quaternion_perms_by_law,
    regular_generators,
    table_check_brute,
)


# -- construction --------------------------------------------------------


def test_build_group_dihedral_from_cycles():
    # (12), (1324) on 4 points
    g = build_group([(1, 0, 2, 3), (2, 3, 1, 0)], kind="perms")
    assert g.order == 8
    assert sorted(order_histogram(g).items()) == [(1, 1), (2, 5), (4, 2)]


def test_build_group_empty_generators_is_trivial():
    g = build_group([], kind="perms")
    assert g.order == 1


def test_build_group_s3_from_two_generators():
    g = build_group([(1, 0, 2), (1, 2, 0)], kind="perms")
    assert g.order == 6
    assert looks_like_s3(g)


def test_build_group_rejects_non_group_table():
    with pytest.raises(NonAssociative):
        build_group([[0, 1], [1, 1]], kind="table")


def test_build_group_reads_n_permutations_on_n_points_as_permutations():
    """A square list of permutations is no Cayley table: the three
    transpositions of S3 and the three elements of C3 on three points."""
    s3 = build_group([(1, 0, 2), (0, 2, 1), (2, 1, 0)], kind="perms")
    assert s3.order == 6 and looks_like_s3(s3)
    assert s3.perm_rep == [(1, 0, 2), (0, 2, 1), (2, 1, 0)]
    c3 = build_group([(1, 2, 0), (2, 0, 1), (0, 1, 2)], kind="perms")
    assert c3.order == 3 and c3.perm_rep is not None
    assert len(c3.gen_indices) == 3


def test_build_group_takes_no_guess_at_the_kind():
    with pytest.raises(TypeError):
        build_group([(1, 0, 2), (0, 2, 1), (2, 1, 0)])
    with pytest.raises(ValueError, match="unknown kind"):
        build_group([(1, 0, 2)], kind="auto")


def _intercalate_swapped(n, op, r, c, d):
    """The table of op on range(n) with the intercalate on rows r, r*d and
    columns c, c*d swapped: a Latin square with the same identity and
    inverses, but no longer a group table."""
    table = [[op(a, b) for b in range(n)] for a in range(n)]
    r2, c2 = op(r, d), op(c, d)
    assert table[r][c] == table[r2][c2] and table[r][c2] == table[r2][c]
    for row in (table[r], table[r2]):
        row[c], row[c2] = row[c2], row[c]
    return table


def _is_associative_brute(table):
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


@pytest.mark.parametrize("n,op,d", [
    (128, operator.xor, 2),
    (256, operator.xor, 2),
    (512, operator.xor, 2),
    (1000, lambda a, b: (a + b) % 1000, 500),
], ids=["C2^7", "C2^8", "C2^9", "C1000"])
def test_one_swapped_intercalate_is_rejected_at_every_order(n, op, d):
    """Four cells away from row and column 0 are wrong; an associativity
    check that samples triples can miss them, Light's test cannot."""
    with pytest.raises(NonAssociative):
        build_group(_intercalate_swapped(n, op, 1, 4, d), kind="table")


@pytest.mark.parametrize("name", ["D8", "Q8"])
def test_associativity_check_matches_brute_force_on_every_swap(cat, name):
    """Every intercalate of a small group table, swapped one at a time
    (rows, columns and products kept off the identity): the verdict of
    ``build_group`` is the verdict of checking all n^3 triples.  So is its
    verdict on C2 times that table, with C2's generator at index 1: there
    the first element of the walk is associative, and only a later one
    shows the fault."""
    def accepts(table):
        try:
            build_group(table, kind="table")
        except NonAssociative:
            return False
        return True

    swaps = 0
    for (r, c, d), tables in _swapped_intercalates(cat[name]):
        swaps += 1
        for t in tables:
            assert accepts(t) == _is_associative_brute(t), (r, c, d)
    assert swaps > 0


def _swapped_intercalates(G):
    """((r, c, d), (table, C2 times table)) for every intercalate of G's
    table on rows r, r*d and columns c, c*d, swapped one at a time, with
    rows, columns and products kept off the identity."""
    n = G.order
    for r in range(1, n):
        for c in range(1, n):
            for d in range(1, n):
                r2, c2 = G.mul(r, d), G.mul(c, d)
                if not (r < r2 and c < c2 and G.mul(r, c) == G.mul(r2, c2)
                        and G.mul(r, c2) == G.mul(r2, c)
                        and 0 not in (G.mul(r, c), G.mul(r, c2))):
                    continue
                table = _intercalate_swapped(n, G.mul, r, c, d)
                doubled = [[(a ^ b) & 1 | table[a >> 1][b >> 1] << 1
                            for b in range(2 * n)] for a in range(2 * n)]
                yield (r, c, d), (table, doubled)


def _table_message(table):
    """The NonAssociative message of FiniteGroup's checks on ``table``, or
    None when the table is accepted."""
    try:
        FiniteGroup(table)
    except NonAssociative as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", ["D8", "Q8"])
def test_swapped_intercalates_name_the_triple_of_the_loops(cat, name):
    """The whole-matrix form of Light's test falls back on the per-x loop,
    so each swapped intercalate fails with the (x*a)*y text of the
    element-by-element test."""
    for where, tables in _swapped_intercalates(cat[name]):
        for t in tables:
            want = table_check_brute(t)
            assert want.startswith("(") and _table_message(t) == want, where


def test_a_row_whose_first_zero_is_one_sided(cat):
    """Row x of a group table gets a second zero at a y before x's inverse,
    where y*x != 1.  The fast inverse test takes the first zero and fails,
    so the scan runs and finds the two-sided one; the table then fails
    later, with the message of the element-by-element checks."""
    cases = 0
    for name in ("S3", "D8", "Q8", "A4", "S4"):
        G = cat[name]
        for x in range(1, G.order):
            for y in range(1, G.inv[x]):
                table = [G.mul_row(a)[:] for a in range(G.order)]
                table[x][y] = 0
                want = table_check_brute(table)
                assert "inverse" not in want
                assert _table_message(table) == want, (name, x, y)
                cases += 1
    assert cases > 0


def test_single_cell_changes_fail_with_the_message_of_the_loops(cat):
    """One cell of a group table set to a random value, out of range too:
    accepted exactly when the element-by-element checks accept, and
    otherwise refused with their message."""
    rng = random.Random(20170)
    messages = set()
    for name in ("S3", "D8", "Q8", "C3xC3", "A4", "S4", "GL(2,3)"):
        G = cat[name]
        n = G.order
        for _ in range(40):
            table = [G.mul_row(a)[:] for a in range(n)]
            table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(-1, n + 1)
            want = table_check_brute(table)
            assert _table_message(table) == want, name
            messages.add(want.split()[0] if want else want)
    assert {"entry", "element", None} <= messages


def test_unvalidated_non_group_table_raises_instead_of_hanging():
    # no power of element 1 is the identity, so its order loop must stop
    with pytest.raises(InternalInconsistency):
        FiniteGroup([[0, 1], [1, 1]], validate=False)


def test_build_group_relabels_identity_to_zero():
    # C2 written with the identity at index 1
    g = build_group([[0, 1], [1, 0]][::-1], kind="table")
    assert g.mul(0, 0) == 0 and g.mul(1, 1) == 0


def test_build_group_order_cap():
    with pytest.raises(OrderCapExceeded):
        build_group([(1, 2, 3, 4, 5, 6, 0)], kind="perms", cap=5)


def test_catalog_groups_of_a_law_keep_their_tables(cat):
    """Q8 and 3^(1+2)- are built from their permutations alone, with the
    Cayley tables the catalog once built from the regular representation
    of the group of their multiplication law."""
    for name, perms in (("Q8", quaternion_perms_by_law()),
                        ("3^(1+2)-", extraspecial27_perms_by_law())):
        old = build_group(perms, name=f"{name} by law", kind="perms")
        assert cat[name].table_hash() == old.table_hash()
        assert cat[name].perm_rep == old.perm_rep


def test_group_axioms_hold_on_catalog(cat):
    for g in cat.values():
        assert g.mul(0, 1 % g.order) == 1 % g.order
        for x in range(g.order):
            assert g.mul(x, g.inv[x]) == 0
            assert g.elem_orders[x] == min(
                k for k in range(1, g.order + 1) if g.power(x, k) == 0)


# -- subgroup lattice -----------------------------------------------------


def test_lattice_s4_has_30_subgroups(cat):
    subs = cat["S4"].subgroups()
    assert len(subs) == 30
    oracle = brute_force_subgroups(cat["S4"])
    assert {frozenset(H.elems) for H in subs} == oracle


def test_lattice_trivial_group():
    g = build_group([], kind="perms")
    assert len(g.subgroups()) == 1


def test_lattice_q8_has_6_subgroups(cat):
    subs = cat["Q8"].subgroups()
    assert len(subs) == 6
    oracle = brute_force_subgroups(cat["Q8"])
    assert {frozenset(H.elems) for H in subs} == oracle


@pytest.mark.parametrize("name", ["V4", "D8", "Q8", "A4", "S4", "SL(2,3)"])
def test_lattice_closed_under_meet_and_conjugation(cat, name):
    g = cat[name]
    subs = g.subgroups()
    masks = {H.mask for H in subs}
    for H in subs:
        for K in subs:
            assert H.mask & K.mask in masks
        for x in range(g.order):
            assert H.conjugate_mask(x) in masks


@pytest.mark.parametrize(
    "name", [n for n in CATALOG_NAMES if EXPECTED_ORDERS[n] <= 24])
def test_lattice_matches_brute_force(cat, name):
    g = cat[name]
    masks = [H.mask for H in g.subgroups()]
    assert len(set(masks)) == len(masks)
    assert set(masks) == {mask_of(H) for H in brute_force_subgroups(g)}


@pytest.mark.parametrize(
    "name", [n for n in CATALOG_NAMES if EXPECTED_ORDERS[n] <= 48])
def test_closure_mask_matches_oracle(cat, name):
    """Seeds that are subgroups (trivial, cyclic, lattice members), each
    with 1-3 extra generators that need not normalize the seed."""
    g = cat[name]
    rng = random.Random(name)
    lattice = g.subgroups()
    seeds = [1, g.cyclic_mask(rng.randrange(g.order)),
             g.cyclic_mask(rng.randrange(g.order))]
    seeds += [H.mask for H in rng.sample(lattice, min(4, len(lattice)))]
    for seed in seeds:
        for k in (1, 2, 3):
            extra = [rng.randrange(g.order) for _ in range(k)]
            want = mask_of(closure_set(g, list(bits(seed)) + extra))
            assert g.closure_mask(extra, seed) == want, (seed, extra)


def test_join_of_non_normalizing_subgroups(cat):
    s4 = cat["S4"]
    two = [H for H in s4.subgroups() if H.order == 2]
    three = [H for H in s4.subgroups() if H.order == 3]
    for H in two:
        for K in three:
            want = mask_of(closure_set(s4, H.elems + K.elems))
            assert H.join(K).mask == K.join(H).mask == want


@pytest.mark.parametrize(
    "name", [n for n in CATALOG_NAMES if EXPECTED_ORDERS[n] <= 24])
def test_join_matches_oracle_on_every_pair(cat, name):
    """On a fresh copy of the table, so that no join is kept yet: A.join(B)
    for every pair of subgroups, in both orders and asked twice, is the
    naive closure of A and B, as the interned subgroup of that mask."""
    G = cat[name]
    copy = build_group([G.mul_row(a) for a in range(G.order)],
                       name=f"{name}'", kind="table")
    subs = copy.subgroups()
    for i, A in enumerate(subs):
        for B in subs[i:]:
            want = mask_of(closure_set(copy, A.elems + B.elems))
            for X, Y in ((A, B), (B, A), (A, B), (B, A)):
                assert X.join(Y) is copy.subgroup(want), (A.mask, B.mask)


def test_lattice_canonical_order(cat):
    subs = cat["D8"].subgroups()
    keys = [(H.order, H.mask) for H in subs]
    assert keys == sorted(keys)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_generators_and_lattices_do_not_depend_on_call_history(cat, name):
    """On two fresh copies of the table, every subgroup is read once before
    ``subgroups()`` has run and once after: its generators and the
    subgroups within it are the same, and the latter are the whole
    lattice filtered to it."""
    G = cat[name]
    masks = [H.mask for H in G.subgroups()]
    before, after = (build_group([G.mul_row(a) for a in range(G.order)],
                                 name=f"{name}'", kind="table")
                     for _ in range(2))

    def read(copy):
        gens = [copy.subgroup(m).generators() for m in masks]
        within = [[H.mask for H in copy.subgroup(m).subgroups_within()]
                  for m in masks]
        return gens, within

    first = read(before)
    after.subgroups()
    assert read(after) == first
    assert first[1] == [[k for k in masks if k & ~m == 0] for m in masks]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_sylow_lattices_are_the_walk_within_on_the_parent(cat, name):
    """The lattice of each Sylow subgroup, moved from its standalone copy
    along the embedding, is the walk within it on G's own table: the same
    masks in the same order.  A relabelled copy of G embeds its Sylow
    subgroups at other indices, and gives the walk within them too."""
    for G in (cat[name], _relabelled(cat[name], 5)):
        for p in prime_divisors(G.order):
            assert_lattice_is_the_walk_within(sylow(G, p))


def test_whole_lattice_is_walked_once_per_table(cat, monkeypatch):
    """A second group with a table met before takes the lattice of the
    first, moved along the identity: no walk, the same masks, and its own
    interned subgroups."""
    from fusionlab import groups

    G = cat["S4"]
    G.subgroups()
    walks = []
    real = groups._subgroup_lattice_masks

    def counting(H, seeds=None):
        walks.append(H)
        return real(H, seeds)

    monkeypatch.setattr(groups, "_subgroup_lattice_masks", counting)
    twin = build_group([G.mul_row(a) for a in range(G.order)], name="S4'",
                       kind="table")
    assert assert_lattice_is_the_walk_within(twin.full_subgroup) == 30
    assert [H.mask for H in twin.subgroups()] == \
        [H.mask for H in G.subgroups()]
    assert all(H.parent is twin for H in twin.subgroups())
    assert walks == []


def test_reader_and_conjugation_images_match_element_loops(cat):
    """``Subgroup.reader`` and ``FiniteGroup.conj_images`` against their
    element-wise definitions on every subgroup of each catalog group of
    order at most 48 (the POOL groups are checked in test_properties)."""
    checked = sum(assert_reader_reads_at_positions(G)
                  for name, G in cat.items() if G.order <= 48)
    assert checked == 195


def test_subgroups_within_paths_agree(cat):
    """Filtering the parent lattice and pulling back the standalone lattice
    must produce identical subgroup sets."""
    from fusionlab.groups import mask_of, sylow

    s4 = cat["S4"]
    syl = sylow(s4, 2)
    via_parent = {H.mask for H in s4.subgroups() if H <= syl}
    local, embed = syl.as_group()
    via_local = {mask_of(embed[e] for e in H.elems)
                 for H in local.subgroups()}
    assert via_parent == via_local


# -- standard subgroups -----------------------------------------------------


def test_center_of_q8(cat):
    assert cat["Q8"].full_subgroup.center().order == 2


def test_o2_of_s4_is_normal_klein_four(cat):
    s4 = cat["S4"]
    o2 = o_p(s4, 2)
    assert o2.order == 4
    assert o2.is_normal_in(s4.full_subgroup)
    # oracle: join of all normal 2-subgroups
    normals = [H for H in s4.subgroups()
               if H.order in (2, 4, 8)
               and all(H.conjugate_mask(x) == H.mask for x in range(24))]
    assert max(H.order for H in normals) == 4


def test_omega1_of_c4(cat):
    c4 = cat["C4"]
    assert c4.subgroup(omega_mask(c4, c4.full_mask, 2)).order == 2


def test_derived_subgroups(cat):
    assert cat["S4"].full_subgroup.derived().order == 12
    assert cat["A4"].full_subgroup.derived().order == 4
    assert cat["Q8"].full_subgroup.derived().order == 2


def test_o_p_prime(cat):
    assert o_p_prime(cat["S3"], 2).order == 3
    assert o_p_prime(cat["S3"], 3).order == 1
    assert o_p_prime(cat["A4"], 3).order == 4


@pytest.mark.parametrize("p", [2, 3, 5])
def test_o_p_and_o_p_prime_match_oracle_within_every_subgroup(cat, p):
    for G in cat.values():
        if G.order > 48:
            continue
        for W in G.subgroups():
            assert set(o_p(G, p, within=W).elems) == o_pi_brute(
                G, W.elems, lambda n: is_power_of(n, p))
            assert set(o_p_prime(G, p, within=W).elems) == o_pi_brute(
                G, W.elems, lambda n: n % p != 0)


def test_subgroup_refuses_every_mask_that_is_not_a_subgroup(cat):
    """A mask handed in from outside is checked when it is first interned:
    every subset of S3 and of D8 is refused with NotASubgroup exactly when
    it differs from the subgroup it generates."""
    from fusionlab.errors import NotASubgroup

    for name in ("S3", "D8"):
        G = cat[name]
        for m in range(1 << G.order):
            elems = set(bits(m))
            closed = elems == closure_set(G, elems)
            if closed:
                assert G.subgroup(m).mask == m
            else:
                with pytest.raises(NotASubgroup):
                    G.subgroup(m)


def test_subgroup_masks_of_large_groups_name_the_pair_of_the_loop(cat):
    """Masks of GL(2,3) and Qd(3) checked on first interning: random ones,
    compared with closure_set, and each subgroup with one element above
    all of its own added or its largest one removed.  A mask is refused
    exactly when it is not closed, with the (x,y) or the x that the
    element-by-element loop names."""
    from fusionlab.errors import NotASubgroup
    from fusionlab.groups import Subgroup

    rng = random.Random(1703)
    refused = 0
    for name, randoms in (("GL(2,3)", 60), ("Qd(3)", 12)):
        G = cat[name]
        n = G.order
        masks = []
        for H in G.subgroups():
            top = H.elems[-1]
            if top + 1 < n:
                masks.append(H.mask | 1 << rng.randrange(top + 1, n))
            if H.order > 1:
                masks.append(H.mask & ~(1 << top))
        for _ in range(randoms):
            elems = [0] + rng.sample(range(1, n), rng.randrange(1, 12))
            closed = set(elems) == closure_set(G, elems)
            assert closed == (closure_failure_brute(G, sorted(elems)) is None)
            masks.append(mask_of(elems))
        for m in masks:
            want = closure_failure_brute(G, list(bits(m)))
            if want is None:
                assert Subgroup(G, m).mask == m
            else:
                with pytest.raises(NotASubgroup) as exc:
                    Subgroup(G, m)
                assert str(exc.value) == want
                refused += 1
    assert refused > 0


def test_standard_subgroups_within_a_subgroup(cat):
    from fusionlab.groups import sylow

    s4 = cat["S4"]
    d8 = sylow(s4, 2)
    # O_2 of D8 viewed inside S4 is D8 itself
    assert o_p(s4, 2, within=d8).mask == d8.mask
    z = d8.center()
    assert z.centralizer_in(d8).mask == d8.mask
    a4 = next(H for H in s4.subgroups() if H.order == 12)
    assert o_p_prime(s4, 2, within=a4).order == 1
    assert o_p_prime(s4, 3, within=a4).order == 4


# -- generator-based kernels against element-wise oracles -------------------


@pytest.mark.parametrize(
    "name", [n for n in CATALOG_NAMES if EXPECTED_ORDERS[n] <= 48])
def test_normalizer_centralizer_derived_match_oracles(cat, name):
    assert_kernels_match_oracles(cat[name])


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_perm_table_matches_all_pairs_composition(cat, name):
    G = cat[name]
    table, _, gen_indices = perm_table_brute(G.perm_rep)
    assert [G.mul_row(a) for a in range(G.order)] == table
    assert G.gen_indices == gen_indices


# -- sylow ---------------------------------------------------------------


def test_sylow_orders(cat):
    assert sylow(cat["S4"], 2).order == 8
    assert sylow(cat["A4"], 3).order == 3
    assert sylow(cat["Qd(3)"], 3).order == 27
    assert sylow(cat["Qd(3)"], 2).order == 8


def test_sylow_of_sl23_is_quaternion(cat):
    syl = sylow(cat["SL(2,3)"], 2)
    local, _ = syl.as_group()
    ok, _ = is_isomorphic(local, cat["Q8"])
    assert ok


def test_sylow_returns_trivial_when_p_does_not_divide(cat):
    assert sylow(cat["S4"], 5).order == 1


def test_is_prime():
    assert [n for n in range(-3, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("p", [-1, 0, 1])
def test_p_part_refuses_p_below_2(p):
    """n % 1 == 0 for every n, so p = 1 would never leave the loop."""
    with pytest.raises(UnsupportedPrime):
        p_part(8, p)


@pytest.mark.parametrize("p", [-2, 0, 1, 4, 6, 9])
def test_sylow_refuses_a_p_that_is_not_a_prime(cat, p):
    """p = 1 would loop for ever, and p = 4 would give a subgroup of order
    4 that is not a Sylow subgroup of anything."""
    with pytest.raises(UnsupportedPrime):
        sylow(cat["S4"], p)


def test_sylow_is_canonical_minimum(cat):
    s4 = cat["S4"]
    syl = sylow(s4, 2)
    assert all(syl.mask <= syl.conjugate_mask(g) for g in range(24))
    assert syl.mask == min(syl.conjugate_mask(g) for g in range(24))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_sylow_is_least_conjugate_in_every_catalog_group(cat, name):
    """The canonical Sylow subgroup, taken from its orbit under G's
    generators, is the least mask over the conjugates by every element."""
    G = cat[name]
    for p in (q for q in range(2, G.order + 1)
              if G.order % q == 0 and all(q % k for k in range(2, q))):
        P = sylow(G, p)
        assert P.order == max(q for q in range(1, G.order + 1)
                              if G.order % q == 0 and is_power_of(q, p))
        assert P.mask == min(P.conjugate_mask(g) for g in range(G.order))


def test_sylow_is_computed_once_per_group_and_prime(cat, monkeypatch):
    """Counts, not timings: a repeat call is a lookup on the group."""
    from fusionlab import groups

    calls = []
    real = groups._canonical_sylow

    def counting(G, p):
        calls.append(p)
        return real(G, p)

    monkeypatch.setattr(groups, "_canonical_sylow", counting)
    G = _relabelled(cat["S4"], 13)
    first = sylow(G, 2)
    assert sylow(G, 2) is first
    assert sylow(G, 3) is sylow(G, 3)
    assert calls == [2, 3]


# -- quotients -------------------------------------------------------------


def test_quotient_s4_by_v4_is_s3(cat):
    s4 = cat["S4"]
    v4 = o_p(s4, 2)
    q, proj = quotient_group(s4, v4)
    assert looks_like_s3(q)
    assert proj.kernel_mask() == v4.mask


def test_quotient_by_whole_group(cat):
    g = cat["A4"]
    q, _ = quotient_group(g, g.full_subgroup)
    assert q.order == 1


def test_quotient_sl23_by_center_is_a4(cat):
    sl = cat["SL(2,3)"]
    z = sl.full_subgroup.center()
    assert z.order == 2
    q, _ = quotient_group(sl, z)
    assert looks_like_a4(q)


def test_quotient_rejects_non_normal(cat):
    s4 = cat["S4"]
    point_stab = next(H for H in s4.subgroups() if H.order == 2)
    if point_stab.is_normal_in(s4.full_subgroup):
        point_stab = next(H for H in s4.subgroups()
                          if H.order == 2
                          and not H.is_normal_in(s4.full_subgroup))
    with pytest.raises(NotNormal):
        quotient_group(s4, point_stab)


def test_quotient_projection_is_surjective_hom(cat):
    g = cat["SL(2,3)"]
    n = o_p(g, 2)
    q, proj = quotient_group(g, n)
    for a in range(g.order):
        for b in range(g.order):
            assert proj(g.mul(a, b)) == q.mul(proj(a), proj(b))
    assert set(proj.coset_of) == set(range(q.order))


@pytest.mark.parametrize(
    "name", [n for n in CATALOG_NAMES if EXPECTED_ORDERS[n] <= 48])
def test_section_quotient_matches_standalone_copy(cat, name):
    """B/A built on G's table against the quotient of B's standalone copy,
    for every B <= G and every A normal in B."""
    for B in cat[name].subgroups():
        for A in B.subgroups_within():
            if A.is_normal_in(B):
                assert_section_matches_copy(B, A)


def test_trivial_quotient_is_the_element_wise_quotient(cat, systems):
    """B/1, taken as B's own copy, against the quotient element by element
    (tables, coset labels, representatives and the group object): for B
    = G and each Sylow subgroup of every catalog group, for every N_G(Q)
    that the suite's models section divides, and Out_F(Q) = Aut_F(Q)/1
    for each abelian object Q of every catalog system."""
    checked = 0
    for G in cat.values():
        for B in [G.full_subgroup] + [sylow(G, p)
                                      for p in prime_divisors(G.order)]:
            assert_quotient_matches_brute(B, G.trivial_subgroup)
            checked += 1
    for F in systems.values():
        G = F.host
        for Q in centric_radical_fn_subgroups(F):
            assert_quotient_matches_brute(Q.normalizer_in(F.ambient),
                                          G.trivial_subgroup)
            checked += 1
        for Q in F.objects():
            if Q.is_abelian():
                out, _, (autg, _, _) = F.out_group(Q)
                assert out is autg
                assert_quotient_matches_brute(autg.full_subgroup,
                                              autg.trivial_subgroup)
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("name", ["S4", "SL(2,3)", "D8", "3^(1+2)+"])
def test_left_cosets_match_every_element(cat, name):
    """``left_cosets(G, A, C)`` against the cosets gC of every g in A, for
    every pair C <= A of subgroups.  In S4, C3 is not normal, so its left
    and right cosets differ."""
    G = cat[name]
    for A in G.subgroups():
        for C in A.subgroups_within():
            assert list(left_cosets(G, A, C)) == left_cosets_brute(G, A, C)


def test_section_quotient_rejects_a_outside_b_or_not_normal(cat):
    s4 = cat["S4"]
    a4 = next(H for H in s4.subgroups() if H.order == 12)
    d8 = next(H for H in s4.subgroups() if H.order == 8)
    with pytest.raises(NotNormal):
        quotient_group(s4, a4, within=d8)        # A4 is not inside D8
    t = next(H for H in d8.subgroups_within()
             if H.order == 2 and not H.is_normal_in(d8))
    with pytest.raises(NotNormal):
        quotient_group(s4, t, within=d8)


# -- isomorphism ------------------------------------------------------------


def test_d8_not_isomorphic_to_q8(cat):
    ok, _ = is_isomorphic(cat["D8"], cat["Q8"])
    assert not ok
    assert order_histogram(cat["D8"])[4] == 2
    assert order_histogram(cat["Q8"])[4] == 6


def test_isomorphic_to_self_with_witness(cat):
    for name in ("S3", "Q8", "A4"):
        ok, w = is_isomorphic(cat[name], cat[name])
        assert ok and is_bijective(w)


def test_sylow_s4_isomorphic_to_abstract_d8(cat):
    # D8 from the abstract presentation <r, s | r^4, s^2, srs = r^-1>
    elems = [(i, j) for j in range(2) for i in range(4)]

    def op(u, v):
        i, j = u
        k, l = v
        return ((i + (k if j == 0 else -k)) % 4, (j + l) % 2)

    d8 = group_from_function(elems, op, name="D8abs")
    syl = sylow(cat["S4"], 2)
    local, _ = syl.as_group()
    ok, w = is_isomorphic(local, d8)
    assert ok and is_bijective(w)


def test_is_isomorphic_equivalence_on_catalog(cat):
    names = list(cat)
    for a in names:
        ok, _ = is_isomorphic(cat[a], cat[a])
        assert ok
    for a in names:
        for b in names:
            ab, _ = is_isomorphic(cat[a], cat[b])
            ba, _ = is_isomorphic(cat[b], cat[a])
            assert ab == ba
    # transitivity over the isomorphic pairs (catalog has none distinct,
    # so check via relabelled copies)
    s3_copy = build_group([(2, 0, 1), (1, 0, 2)], kind="perms")
    ok1, _ = is_isomorphic(cat["S3"], s3_copy)
    ok2, _ = is_isomorphic(s3_copy, cat["S3"])
    assert ok1 and ok2


def _sylow_models(G):
    """The canonical Sylow subgroups of G, one per prime, as groups."""
    return [sylow(G, p).as_group()[0] for p in range(2, G.order + 1)
            if G.order % p == 0 and all(p % q for q in range(2, p))]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_iso_search_matches_leaf_oracle_on_catalog(cat, name):
    """Pruning each prefix keeps exactly the leaves of the search that
    tests only complete tuples of generator images, in the same order."""
    for G in [cat[name]] + _sylow_models(cat[name]):
        assert _iso_search(G, G, True) == iso_search_brute(G, G, True), G


def _disjoint_perms(cycles, points):
    """One permutation per cycle (a tuple of points) on ``points`` points."""
    out = []
    for cyc in cycles:
        p = list(range(points))
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            p[a] = b
        out.append(tuple(p))
    return out


def _product_groups(cat):
    q8 = [g + (8, 9) for g in regular_generators(cat["Q8"])]
    return [
        build_group([(1, 2, 3, 0, 4, 5), (0, 3, 2, 1, 4, 5),
                     (0, 1, 2, 3, 5, 4)], kind="perms", name="D8xC2"),
        build_group(q8 + [tuple(range(8)) + (9, 8)], kind="perms",
                    name="Q8xC2"),
        build_group(_disjoint_perms([(0, 1), (2, 3), (4, 5), (6, 7)], 8),
                    kind="perms", name="C2^4"),
        build_group(_disjoint_perms([(0, 1, 2), (3, 4, 5), (6, 7, 8)], 9),
                    kind="perms", name="C3^3"),
    ]


def test_iso_search_matches_leaf_oracle_on_products(cat):
    """Groups with three and four generators, where a prefix is a proper
    subgroup that is not cyclic."""
    for G, n_auts in zip(_product_groups(cat), (64, 192, 20160, 11232)):
        got = _iso_search(G, G, True)
        assert len(got) == n_auts, G
        assert got == iso_search_brute(G, G, True), G


def test_is_isomorphic_witness_is_the_oracles_first_leaf(cat):
    names = list(cat)
    for a in names:
        for b in names:
            if cat[a].order != cat[b].order:
                continue
            ok, w = is_isomorphic(cat[a], cat[b])
            first = iso_search_brute(cat[a], cat[b])
            assert ok == (first is not None), (a, b)
            if ok:
                assert w.as_tuple() == tuple(first), (a, b)
    assert iso_search_brute(cat["D8"], cat["Q8"]) is None
    assert _iso_search(cat["D8"], cat["Q8"]) is None


def test_automorphisms_of_d8_x_d8(aut_cases):
    """|Aut(D8 x D8)| = |Aut(D8)|^2 * 2 * |Hom(D8, Z(D8))|^2 = 2048."""
    g = aut_cases["D8xD8"]
    assert g.order == 64
    assert len(automorphisms_raw(g)) == 2048


# -- involvement -------------------------------------------------------------


def test_involved_in_self(cat):
    ok, (b, a) = is_involved(cat["S4"], cat["S4"])
    assert ok and b.order == 24 and a.order == 1


def test_s4_not_involved_in_sl23(cat):
    ok, _ = is_involved(cat["S4"], cat["SL(2,3)"])
    assert not ok


def test_s3_involved_in_s4_with_order6_witness(cat):
    ok, (b, a) = is_involved(cat["S3"], cat["S4"])
    assert ok
    assert b.order // a.order == 6


def _relabelled(G, seed):
    """A copy of G with its non-identity elements shuffled."""
    new_of_old = [0] + random.Random(seed).sample(range(1, G.order),
                                                  G.order - 1)
    old_of_new = sorted(range(G.order), key=new_of_old.__getitem__)
    table = [[new_of_old[G.mul(a, b)] for b in old_of_new] for a in old_of_new]
    return build_group(table, name=f"{G.name}'", kind="table")


@pytest.mark.parametrize("name", ["A4", "D8", "S4", "SL(2,3)", "GL(2,3)",
                                  "3^(1+2)-", "C13:C3"])
def test_kept_verdicts_on_relabelled_copies_are_exact(cat, name):
    """O_p, O_p', centres and involvement are kept on the group once
    computed; on a relabelled copy, a group whose memos start empty, each
    kept answer equals a fresh computation and the oracles."""
    G = _relabelled(cat[name], 17)
    assert_kept_verdicts_exact(G, [cat[h] for h in ("C3", "V4", "S3", "A4",
                                                    "S4", "Q8")])


@pytest.mark.parametrize("h_name,g_name,expected", [
    ("S4", "S4", True),
    ("Qd(3)", "Qd(3)", True),
    ("S4", "SL(2,3)", False),
])
def test_involved_same_order_matches_lattice_path(cat, h_name, g_name,
                                                  expected):
    H = cat[h_name]
    G = _relabelled(cat[g_name], 7)   # a fresh object: no cached lattice
    ok, witness = is_involved(H, G)
    assert G.full_subgroup._lattice is None
    assert ok is expected
    assert (ok, witness) == involved_brute(H, G)


SECTION_TARGETS = ("C2", "C3", "C4", "V4", "S3", "D8", "Q8", "C3xC3", "A4",
                   "S4", "SL(2,3)")


@pytest.mark.parametrize("g_name", CATALOG_NAMES)
def test_involved_over_class_reps_matches_all_b_loop(cat, g_name):
    """Trying one B per G-conjugacy class, among the overgroups of the
    Sylow seeds, gives the verdict and the witness of trying every B."""
    G = cat[g_name]
    for h_name in SECTION_TARGETS:
        H = cat[h_name]
        assert is_involved(H, G) == involved_brute(H, G), h_name


def _direct_product(G, H):
    pairs = [(a, b) for a in range(G.order) for b in range(H.order)]
    return group_from_function(
        pairs, lambda x, y: (G.mul(x[0], y[0]), H.mul(x[1], y[1])),
        name=f"{G.name}x{H.name}")


@pytest.mark.parametrize("left,right", [("S3", "S3"), ("C2", "S4"),
                                        ("Q8", "S3")])
def test_involved_in_direct_products_matches_all_b_loop(cat, left, right):
    """Products where the largest prime-power part of |H| is below that of
    |G| for most H, so the seeds are several classes of subgroups of the
    Sylow subgroup."""
    G = _direct_product(cat[left], cat[right])
    for h_name in SECTION_TARGETS:
        H = cat[h_name]
        assert is_involved(H, G) == involved_brute(H, G), h_name


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_normal_subgroups_of_order_match_lattice_filter(cat, name):
    G = cat[name]
    for B in subgroup_class_reps(G, G.subgroups()):
        for k in range(1, B.order + 1):
            if B.order % k:
                continue
            expected = sorted(A.mask for A in B.subgroups_within()
                              if A.order == k and is_normal_brute(A, B))
            assert _normal_subgroups_of_order(G, B, k) == expected, (B, k)


def test_section_search_builds_no_lattice_of_the_ambient_group(cat,
                                                               wreath648):
    """Counts, not timings: a search that tries every class of B, on fresh
    copies, leaves the ambient lattice unbuilt."""
    G = _relabelled(cat["Qd(3)"], 11)
    assert not is_involved(cat["S4"], G)[0]
    assert G.full_subgroup._lattice is None
    G = _relabelled(cat["Qd(3)"], 12)
    assert sigma3_involvement_check(G) == (False, False)
    assert G.full_subgroup._lattice is None
    assert not is_involved(cat["Qd(3)"], wreath648)[0]
    assert wreath648.full_subgroup._lattice is None


def test_involution_monotone_on_subgroups(cat):
    s4 = cat["S4"]
    s3 = cat["S3"]
    for H in s4.subgroups():
        if H.order < 6:
            continue
        local, _ = H.as_group()
        if is_involved(s3, local)[0]:
            assert is_involved(s3, s4)[0]


# -- automorphisms ------------------------------------------------------------


def test_automorphism_counts(cat):
    assert len(automorphisms_raw(cat["C4"])) == 2
    assert len(automorphisms_raw(cat["Q8"])) == 24
    assert len(automorphisms_raw(cat["V4"])) == 6


def test_automorphisms_are_valid_morphisms(cat):
    for m in automorphisms(cat["Q8"]):
        assert is_bijective(m)


def test_automorphism_cap():
    with pytest.raises(OrderCapExceeded):
        automorphisms_raw(build_group([(1, 2, 0)], kind="perms"), cap=2)


def test_automorphism_orders_match_literature(cat):
    from fusionlab.groups import sylow

    assert len(automorphisms_raw(cat["D8"])) == 8
    assert len(automorphisms_raw(cat["C3xC3"])) == 48    # GL(2,3)
    assert len(automorphisms_raw(cat["3^(1+2)+"])) == 432
    assert len(automorphisms_raw(cat["3^(1+2)-"])) == 54
    sd16, _ = sylow(cat["GL(2,3)"], 2).as_group()
    assert len(automorphisms_raw(sd16)) == 16


# -- Aut(S) from a strong generating set ------------------------------------


def test_aut_generators_match_the_listed_oracle(aut_cases):
    """|Aut(S)|, the group the generators generate, and the orbit of every
    subgroup mask, each against the whole list; every orbit member comes
    with an automorphism that maps the mask onto it."""
    for label, S in aut_cases.items():
        auts = automorphisms_raw(S)
        listed = set(auts)
        gens, order = aut_generators(S)
        assert order == len(auts), label
        assert closure_of_maps(gens, S.order) == listed, label
        subgroups = S.subgroups()
        classes = mask_orbits_brute(auts, [H.mask for H in subgroups])
        for H in subgroups:
            walked = mask_orbit(gens, H.mask, S.order)
            assert walked[0][0] == H.mask
            assert len(walked) == len(classes[H.mask]), (label, H.mask)
            assert {m for m, _ in walked} == classes[H.mask], (label, H.mask)
            for m, alpha in walked:
                assert alpha in listed, (label, H.mask, m)
                assert mask_of(alpha[x] for x in H.elems) == m


def test_kept_computes_once_per_key():
    """``kept`` returns store[key], computing it with the given arguments
    on the first call for that key only; a falsy value is kept too."""
    calls = []

    def compute(*args):
        calls.append(args)
        return len(calls) - 1

    store = {}
    assert kept(store, "a", compute, 1, 2) == 0
    assert kept(store, "a", compute, 3) == 0
    assert kept(store, "b", compute, 3) == 1
    assert kept(store, "b", compute) == 1
    assert calls == [(1, 2), (3,)]
    assert store == {"a": 0, "b": 1}


def test_prime_divisors_are_the_primes_dividing_n():
    for n in range(1, 1001):
        want = [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]
        assert prime_divisors(n) == want, n


def test_conjugates_are_the_elementwise_conjugates(cat):
    """``_conjugates`` walks the orbit of a subgroup under conjugation by
    G's generators.  On one subgroup per class of every catalog group of
    order <= 48 it equals {gHg^-1 : g in G}, formed element by element;
    the walk's Schreier tree is breadth-first, and each member is the one
    it was reached from moved by the permutation stored with it."""
    for name, G in cat.items():
        if G.order > 48:
            continue
        on_g = [tuple(G.conj(g, x) for x in range(G.order))
                for g in G.full_subgroup.generators()]
        for H in subgroup_class_reps(G, G.subgroups()):
            want = {mask_of(G.conj(g, x) for x in H.elems)
                    for g in range(G.order)}
            assert _conjugates(G, H.mask) == want, (name, H.mask)
            tree = orbit(H.mask, on_g, move_mask)
            assert set(tree) == want and tree[H.mask] is None
            depth = {H.mask: 0}
            for m, step in list(tree.items())[1:]:
                prev, a = step
                assert move_mask(a, prev) == m, (name, H.mask, m)
                depth[m] = depth[prev] + 1
            assert list(depth.values()) == sorted(depth.values())


@pytest.mark.parametrize("n", range(1, 7))
def test_aut_order_of_elementary_abelian_is_gl(n):
    """|Aut(C2^n)| = |GL(n, 2)|, up to 20,158,709,760 for n = 6, from the
    generators alone."""
    G = build_group(_disjoint_perms([(2 * i, 2 * i + 1) for i in range(n)],
                                    2 * n), kind="perms", name=f"C2^{n}")
    gl = 1
    for i in range(n):
        gl *= 2 ** n - 2 ** i
    gens, order = aut_generators(G)
    assert order == gl
    assert all(is_hom_tuple(G, G.full_subgroup, a) for a in gens)


def test_subgroup_counts_match_literature(cat):
    expected = {"A4": 10, "S3": 6, "SL(2,3)": 15, "GL(2,3)": 55,
                "C13:C3": 16, "3^(1+2)+": 19, "3^(1+2)-": 10, "D8": 10,
                "Q8": 6, "V4": 5, "C4": 3, "S4": 30}
    for name, count in expected.items():
        assert len(cat[name].subgroups()) == count, name


def test_rejects_invalid_permutations():
    from fusionlab.errors import InvalidPermutation

    with pytest.raises(InvalidPermutation):
        build_group([(0, 0, 1)], kind="perms")          # not a bijection
    with pytest.raises(InvalidPermutation):
        build_group([(1, 0), (1, 2, 0)], kind="perms")  # mixed degrees
    with pytest.raises(InvalidPermutation):
        build_group([tuple(range(1, 65)) + (0,)], kind="perms")  # 65 points


def test_group_morphism_validation(cat):
    from fusionlab.errors import NotASubgroup
    from fusionlab.groups import GroupMorphism

    c4 = cat["C4"].full_subgroup
    with pytest.raises(NotASubgroup, match="not multiplicative"):
        GroupMorphism(c4, c4, {0: 0, 1: 2, 2: 1, 3: 3})
    with pytest.raises(NotASubgroup, match="not injective"):
        GroupMorphism(c4, c4, {0: 0, 1: 0, 2: 0, 3: 0})
    with pytest.raises(NotASubgroup, match="keys must equal the domain"):
        GroupMorphism(c4, c4, {0: 0, 1: 1, 2: 2})
    c2 = next(H for H in c4.subgroups_within() if H.order == 2)
    with pytest.raises(NotASubgroup, match="escapes the codomain"):
        GroupMorphism(c4, c2, {x: x for x in c4.elems})
    # across two tables: S3 onto a relabelled copy
    s3, copy = cat["S3"], _relabelled(cat["S3"], 5)
    ok, w = is_isomorphic(s3, copy)
    assert ok and w.codomain.parent is copy
    GroupMorphism(w.domain, w.codomain, dict(w.images))
    swapped = dict(w.images)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    with pytest.raises(NotASubgroup, match="not multiplicative"):
        GroupMorphism(w.domain, w.codomain, swapped)


def test_table_key_is_exact(cat):
    """Two tables get the same key exactly when they are equal: over every
    catalog group, the standalone copy of each of its Sylow subgroups, many
    of which share a table, and a group built afresh from each copy's
    table, a new object with an equal table.  A relabelled copy gets
    another key."""
    groups = []
    for G in cat.values():
        groups.append(G)
        for p in (2, 3, 13):    # every prime dividing a catalog order
            if G.order % p == 0:
                copy = sylow(G, p).as_group()[0]
                groups += [copy, FiniteGroup(copy._mul, name=copy.name)]
    keys = [G.table_hash() for G in groups]
    assert any(A is not B and A._mul == B._mul
               for A in groups for B in groups)
    for A, ka in zip(groups, keys):
        for B, kb in zip(groups, keys):
            assert (ka == kb) == (A._mul == B._mul), (A.name, B.name)
    s4 = cat["S4"]
    assert _relabelled(s4, 5).table_hash() != s4.table_hash()
