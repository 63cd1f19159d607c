import pytest

from fusionlab.errors import NotAPGroup
from fusionlab.groups import mask_of, sylow
from fusionlab.pgroups import is_characteristic, thompson_data

from oracles import automorphisms_raw, mask_orbit_brute, mask_orbits_brute


def test_thompson_data_d8(cat):
    d8 = cat["D8"]
    td = thompson_data(d8.full_subgroup)
    assert td.max_abelian_order == 4
    assert len(td.max_abelian_subgroups) == 3  # one C4, two V4
    assert td.J.order == 8
    z = d8.full_subgroup.center()
    assert td.A.mask == td.B.mask == z.mask
    assert z.order == 2


def test_thompson_data_abelian(cat):
    for name in ("C4", "V4", "C3xC3"):
        g = cat[name]
        td = thompson_data(g.full_subgroup)
        assert td.J.mask == g.full_mask
        assert td.A.mask == td.B.mask
    v4 = thompson_data(cat["V4"].full_subgroup)
    assert v4.A.order == 4
    c4 = thompson_data(cat["C4"].full_subgroup)
    assert c4.A.order == 2


def test_thompson_data_q8(cat):
    q8 = cat["Q8"]
    td = thompson_data(q8.full_subgroup)
    assert td.max_abelian_order == 4
    assert len(td.max_abelian_subgroups) == 3
    assert all(H.order == 4 for H in td.max_abelian_subgroups)
    assert td.J.order == 8
    assert td.A.order == td.B.order == 2


def test_thompson_rejects_non_p_group(cat):
    with pytest.raises(NotAPGroup):
        thompson_data(cat["S3"].full_subgroup)


def test_center_is_characteristic(cat):
    d8 = cat["D8"].full_subgroup
    assert is_characteristic(d8.center(), d8)


def test_c4_inside_q8_is_not_characteristic(cat):
    q8 = cat["Q8"]
    c4 = next(H for H in q8.subgroups() if H.order == 4)
    assert not is_characteristic(c4, q8.full_subgroup)


@pytest.mark.parametrize("name,p", [("D8", 2), ("Q8", 2), ("V4", 2),
                                    ("C4", 2), ("C3xC3", 3),
                                    ("3^(1+2)+", 3), ("3^(1+2)-", 3)])
def test_j_and_anchors_characteristic(cat, name, p):
    s = cat[name].full_subgroup
    td = thompson_data(s)
    assert is_characteristic(td.J, s)
    assert is_characteristic(td.A, s)
    assert is_characteristic(td.B, s)


def test_sylow_anchors_on_catalog(cat):
    """A(S) <= B(S) and both nontrivial for every catalog Sylow subgroup."""
    for name, g in cat.items():
        for p in (2, 3):
            if g.order % p:
                continue
            s = sylow(g, p)
            td = thompson_data(s)
            assert td.A <= td.B
            assert td.J.order > 1
            assert td.A.order > 1


def test_aut_invariance_of_anchors(cat):
    """alpha(A) = A and alpha(B) = B elementwise for every automorphism."""
    for name in ("D8", "Q8", "3^(1+2)+"):
        g = cat[name]
        td = thompson_data(g.full_subgroup)
        for images in automorphisms_raw(g):
            assert mask_of(images[x] for x in td.A.elems) == td.A.mask
            assert mask_of(images[x] for x in td.B.elems) == td.B.mask


def test_is_characteristic_matches_the_list(aut_cases):
    """Every subgroup of every case: characteristic exactly when its orbit
    under the whole list of automorphisms is itself."""
    for label, S in aut_cases.items():
        subgroups = S.subgroups()
        orbits = mask_orbits_brute(automorphisms_raw(S),
                                   [H.mask for H in subgroups])
        for H in subgroups:
            expected = orbits[H.mask] == {H.mask}
            assert is_characteristic(H, S.full_subgroup) == expected, \
                (label, H.mask)


def test_is_characteristic_in_a_sylow_subgroup_matches_the_list(cat):
    """S a proper subgroup of its parent (read on its standalone copy) or
    the whole parent (read on the parent's table): the same verdicts as
    the list on the copy."""
    for name, G in cat.items():
        for p in (2, 3):
            if G.order % p:
                continue
            P = sylow(G, p)
            model, _ = P.as_group()
            auts = automorphisms_raw(model)
            pos = P.pos_map()
            for Q in P.subgroups_within():
                local = mask_of(pos[x] for x in Q.elems)
                expected = mask_orbit_brute(auts, local) == {local}
                assert is_characteristic(Q, P) == expected, (name, p, Q.mask)
