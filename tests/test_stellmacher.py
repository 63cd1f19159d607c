import pytest

from fusionlab.errors import (
    NotAPGroup,
    SandwichViolated,
    SylowMismatch,
    UnsupportedPrime,
)
from fusionlab.fusion import FusionSystem
from fusionlab.groups import sylow
from fusionlab.pgroups import is_characteristic, thompson_data
from fusionlab.stellmacher import (
    CandidateFamily,
    FamilyMember,
    admit_member,
    canonical_family,
    compute_W_iterative,
    compute_W_oneshot,
    functor_checks,
)
from fusionlab.subsystems import category_closure, is_normal_in_F

from oracles import w_by_earlier_routes


def make_family(S_sub, p, members):
    model, embed = S_sub.as_group()
    return CandidateFamily(S=model, p=p, members=tuple(members))


def inner_member(S_sub, p):
    model, embed = S_sub.as_group()
    F = FusionSystem.inner(S_sub, p)
    J = thompson_data(S_sub).J
    jn, _ = is_normal_in_F(F, J)
    return FamilyMember(system=F, identification=embed, j_normal=jn,
                        qd_free=True)


# -- admission -----------------------------------------------------------------


def test_admit_rejects_s4_on_d8(cat):
    d8 = cat["D8"]
    member = admit_member(d8, cat["S4"], 2)
    assert not member.j_normal           # J(D8) = D8 is not normal in F
    assert not member.qd_free            # and the system is not S4-free
    assert not member.admitted


def test_admit_inner_like(cat):
    q8 = cat["Q8"]
    member = admit_member(q8, q8, 2)
    assert member.admitted


def test_admit_sl23_on_q8(cat):
    member = admit_member(cat["Q8"], cat["SL(2,3)"], 2)
    assert member.j_normal and member.qd_free and member.admitted


def test_admit_sylow_mismatch(cat):
    with pytest.raises(SylowMismatch):
        admit_member(cat["Q8"], cat["S4"], 2)


def test_canonical_family_q8(cat):
    S = sylow(cat["SL(2,3)"], 2)
    fam = canonical_family(S, 2)
    names = [m.system.host.name for m in fam.admitted_members()]
    assert "SL(2,3)" in names            # admitted
    assert "Qd(3)" in names              # Sylow-2 of Qd(3) is Q8, admitted
    assert all(m.admitted for m in fam.members[:1])


def test_canonical_family_sd16_rejects_gl23(cat):
    # J(SD16) = C8 is fused out of itself and PGL(2,3) is an S4-section,
    # so the GL(2,3) member fails both admission conditions
    S = sylow(cat["GL(2,3)"], 2)
    fam = canonical_family(S, 2)
    rejected = [m for m in fam.members if not m.admitted]
    assert len(rejected) == 1
    assert not rejected[0].j_normal and not rejected[0].qd_free
    assert len(fam.admitted_members()) == 1      # the inner system only
    wc = compute_W_iterative(fam)
    assert wc.W_iter.order == 2                  # Omega(Z(SD16))


# -- W computations ---------------------------------------------------------------


def test_w_abelian_carrier(cat):
    for name, order in (("V4", 4), ("C4", 2), ("C3xC3", 9)):
        g = cat[name]
        p = 2 if g.order % 2 == 0 else 3
        fam = make_family(g.full_subgroup, p, [inner_member(g.full_subgroup, p)])
        wc = compute_W_iterative(fam)
        assert len(wc.chain) == 1        # no growth
        assert wc.W_iter.order == order  # Omega(S)


def test_w_q8_family(cat):
    S = sylow(cat["SL(2,3)"], 2)
    fam = canonical_family(S, 2)
    wc = compute_W_iterative(fam)
    assert wc.W_iter.order == 2          # Z(Q8)
    assert len(wc.chain) == 1
    assert wc.equal


def test_w_d8_inner_only(cat):
    d8 = cat["D8"]
    fam = make_family(d8.full_subgroup, 2, [inner_member(d8.full_subgroup, 2)])
    wc = compute_W_iterative(fam)
    assert wc.W_iter.order == 2          # Z(D8)
    assert wc.W_oneshot.order == 2


def test_w_oneshot_inner_only_is_w0(cat):
    for name in ("D8", "Q8", "3^(1+2)+", "3^(1+2)-"):
        g = cat[name]
        p = 2 if g.order % 2 == 0 else 3
        S = g.full_subgroup
        fam = make_family(S, p, [inner_member(S, p)])
        td = thompson_data(S)
        assert compute_W_oneshot(fam).mask == td.A.mask


def test_canonical_family_is_built_once_per_table_and_pool(cat):
    """One family per (S's table, p, the pool's tables): a second call, an
    extra that repeats a catalog table and an extra of order |S| (which the
    inner system stands for) all return the family already built, while a
    new table in the pool builds a new one."""
    S4, GL23 = cat["S4"], cat["GL(2,3)"]
    S = sylow(S4, 2)
    fam = canonical_family(S, 2)
    assert canonical_family(S, 2) is fam
    assert canonical_family(S, 2, extras=(S4, cat["D8"])) is fam
    alone = canonical_family(S, 2, extras=(S4,), include_catalog=False)
    assert alone is not fam and len(alone.members) == 2
    assert canonical_family(sylow(GL23, 2), 2) is not fam


def test_canonical_family_pool_is_filtered_by_the_p_part_of_the_order(cat):
    """A pool group is kept when the p-part of its order is |S|: GL(2,3),
    whose Sylow 2-subgroup has order 16, is left out of a pool on D8, so
    the family is the one built without it; SL(2,3), whose Sylow
    2-subgroup Q8 has order 8 but is not D8, is kept in the pool and
    admits no member."""
    S = sylow(cat["S4"], 2)
    fam = canonical_family(S, 2)
    assert canonical_family(S, 2, extras=(cat["GL(2,3)"],)) is fam
    alone = canonical_family(S, 2, include_catalog=False)
    mismatch = canonical_family(S, 2, extras=(cat["SL(2,3)"],),
                                include_catalog=False)
    assert mismatch is not alone and mismatch.members == alone.members
    with pytest.raises(SylowMismatch):
        admit_member(fam.S, cat["SL(2,3)"], 2)


def test_canonical_family_rejects_s_that_is_not_a_p_group(cat):
    with pytest.raises(NotAPGroup):
        canonical_family(cat["Q8"].full_subgroup, 3)
    with pytest.raises(NotAPGroup):
        canonical_family(cat["S3"].full_subgroup, 2)


@pytest.mark.parametrize("p", [0, 1])
def test_canonical_family_refuses_p_below_2(cat, p):
    with pytest.raises(UnsupportedPrime):
        canonical_family(cat["D8"].full_subgroup, p)


@pytest.mark.parametrize("fixture,p,order", [("wreath648", 3, 27),
                                             ("f16c5c4", 2, 16)])
def test_growth_instances_hold_with_their_own_system_in_the_family(
        request, fixture, p, order):
    """A(S) < B(S) on both growth instances: with the group's own system in
    the family, W grows one step to ``order``, both constructions agree,
    and the functor properties hold.  The family is kept per table, so
    its member may be realized on another group with G's table."""
    G = request.getfixturevalue(fixture)
    fam = canonical_family(sylow(G, p), p, extras=(G,))
    assert any(m.admitted and m.system.host.table_hash() == G.table_hash()
               and m.system.ambient is m.system.host.full_subgroup
               for m in fam.members)
    wc = compute_W_iterative(fam)
    assert len(wc.chain) == 2 and wc.A.order < wc.W_iter.order == order
    rep = functor_checks(fam)
    assert rep.all_hold() and rep.equal
    assert rep.W_oneshot.mask == rep.W_iter.mask


def test_w_rejects_trivial_s(cat):
    triv = cat["C2"].trivial_subgroup
    from fusionlab.groups import build_group

    t = build_group([], kind="perms")
    fam = CandidateFamily(S=t, p=2, members=())
    with pytest.raises(NotAPGroup):
        compute_W_iterative(fam)


def test_functor_checks_on_catalog_sylows(cat):
    for name, p in (("SL(2,3)", 2), ("S4", 2), ("GL(2,3)", 2),
                    ("Qd(3)", 3), ("C13:C3", 3)):
        S = sylow(cat[name], p)
        fam = canonical_family(S, p)
        rep = functor_checks(fam)
        assert rep.all_hold(), (name, p, rep)
        td = thompson_data(fam.S.full_subgroup)
        assert td.A <= rep.W_iter and rep.W_iter <= td.B


def test_w_matches_the_earlier_image_routes(cat, wreath648, f16c5c4):
    """Both constructions read a member's images through one kernel and
    close them in the model; on every family the catalog suite builds at
    p = 2 and 3, in both member orders, and on the two growth instances,
    the chain, its witnesses and both W values are those of the earlier
    routes, which joined the growth step's images in the member's host and
    read each map on J at W_0 by hand."""
    instances = [(G, p) for G in cat.values() for p in (2, 3)
                 if G.order % p == 0]
    instances += [(wreath648, 3), (f16c5c4, 2)]
    grown = 0
    for G, p in instances:
        fam = canonical_family(sylow(G, p), p, extras=(G,))
        k = len(fam.members)
        for family in (fam, fam.reordered(tuple(reversed(range(k))))):
            wc = compute_W_iterative(family)
            got = (wc.chain, wc.witnesses, wc.W_iter.mask, wc.W_oneshot.mask)
            assert got == w_by_earlier_routes(family), (G.name, p)
            grown += len(wc.witnesses)
    assert grown >= 4


# -- the growth loop ---------------------------------------------------------------


def test_growth_loop_takes_a_real_step(cat, wreath648):
    """Sylow-3 of the 648-order fixture is C3 wr C3 with A(S) < B(S); the
    sign-flip fusion moves Omega(Z(S)), forcing exactly one growth step up
    to the base subgroup."""
    G = wreath648
    S = sylow(G, 3)
    model, embed = S.as_group()
    td = thompson_data(S)
    assert td.A.order == 3 and td.B.order == 27 and td.J.order == 27

    member = admit_member(model, G, 3)   # honest admission incl. Qd(3)-freeness
    assert member.admitted
    fam = CandidateFamily(S=model, p=3,
                          members=(inner_member(S, 3), member))
    wc = compute_W_iterative(fam)
    assert len(wc.chain) == 2            # exactly one growth step
    assert wc.W_iter.order == 27
    assert wc.W_oneshot.order == 27 and wc.equal
    assert is_characteristic(wc.W_iter, fam.S.full_subgroup)
    # final W is normal in every admitted member
    for m in fam.admitted_members():
        host_sub = m.system.host.subgroup(m.push_mask(wc.W_iter.mask))
        assert is_normal_in_F(m.system, host_sub)[0]


def test_growth_is_monotone_in_family(cat, wreath648):
    G = wreath648
    S = sylow(G, 3)
    model, embed = S.as_group()
    small = CandidateFamily(S=model, p=3, members=(inner_member(S, 3),))
    w_small = compute_W_iterative(small).W_iter
    member = FamilyMember(system=FusionSystem.realized(G, 3, S),
                          identification=embed, j_normal=True, qd_free=True)
    big = CandidateFamily(S=model, p=3,
                          members=(inner_member(S, 3), member))
    w_big = compute_W_iterative(big).W_iter
    assert w_small.order == 3
    assert w_small <= w_big


def test_sandwich_violated_on_inconsistent_member(cat):
    """A synthetic member that refuses to normalize W_0 = Omega(Z(S)) = S
    but whose hom-sets cannot grow it strictly must raise SandwichViolated
    (the growth step would stall below B(S))."""
    v4 = cat["V4"]
    S = v4.full_subgroup
    model, embed = S.as_group()
    subs = S.subgroups_within()
    c2s = [H for H in subs if H.order == 2]
    a, b = c2s[0], c2s[1]
    swap = {a.mask: ((0, b.elems[1]),)}
    fake_system = category_closure(v4, 2, S, swap, name="fake")
    fake = FamilyMember(system=fake_system, identification=embed,
                        j_normal=True, qd_free=True)
    fam = CandidateFamily(S=model, p=2,
                          members=(inner_member(S, 2), fake))
    with pytest.raises(SandwichViolated):
        compute_W_iterative(fam)
