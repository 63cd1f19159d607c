"""Integration sweep over non-catalog groups.

These exercise code paths the catalog cannot: abelian non-cyclic Sylow
subgroups inside direct products, dicyclic 2-Sylows, and the files-only
suite scope end to end.
"""

import pytest

from fusionlab.fusion import realize_fusion, verify_axioms
from fusionlab.groups import (
    build_group,
    o_p,
    sylow,
)
from fusionlab.suite import RunConfig, run_suite
from fusionlab.theorems import (
    frobenius_check,
    has_normal_p_complement,
    thompson_group_check,
    verify_theorem_1,
    verify_theorem_2,
    verify_theorem_3,
)

from oracles import group_from_function


def dicyclic12():
    """C3 : C4 with the order-4 element inverting; order 12."""
    elems = [(a, t) for t in range(4) for a in range(3)]

    def op(u, v):
        a, t = u
        b, s = v
        return ((a + (b if t % 2 == 0 else -b)) % 3, (t + s) % 4)

    return group_from_function(elems, op, name="Dic3")


def c2_x_s3():
    return build_group([(1, 0, 2, 3, 4), (0, 1, 3, 2, 4), (0, 1, 3, 4, 2)],
                       name="C2xS3", kind="perms")


def d12():
    return build_group([(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)],
                       name="D12", kind="perms")


def m16():
    """Modular group of order 16: C8 : C2 with r -> r^5."""
    elems = [(i, j) for j in range(2) for i in range(8)]

    def op(u, v):
        i, j = u
        k, l = v
        return ((i + k * (5 ** j)) % 8, (j + l) % 2)

    return group_from_function(elems, op, name="M16")


def c2_x_d8():
    return build_group([(1, 2, 3, 0, 4, 5), (2, 1, 0, 3, 4, 5),
                        (0, 1, 2, 3, 5, 4)], name="C2xD8", kind="perms")


def c2_x_d8_central_c4():
    """The central product D8 o C4 of order 16: the quotient of D8 x C4 by
    the unique central involution whose quotient is nonabelian with a
    cyclic center."""
    from fusionlab.groups import quotient_group

    elems = [(i, j, k) for k in range(4) for j in range(2) for i in range(4)]

    def op(u, v):
        i, j, k = u
        a, b, c = v
        return ((i + (a if j == 0 else -a)) % 4, (j + b) % 2, (k + c) % 4)

    d8xc4 = group_from_function(elems, op, name="D8xC4")
    center = d8xc4.full_subgroup.center()
    for z in center.elems:
        if d8xc4.elem_orders[z] != 2:
            continue
        q, _ = quotient_group(d8xc4, d8xc4.subgroup(d8xc4.cyclic_mask(z)),
                              name="D8oC4")
        zq = q.full_subgroup.center()
        if not q.full_subgroup.is_abelian() and zq.order == 4 and \
                max(q.elem_orders[x] for x in zq.elems) == 4:
            return q
    raise AssertionError("central product not found")


EXTRAS = [dicyclic12, c2_x_s3, d12, m16, c2_x_d8]


@pytest.fixture(scope="module")
def extra_groups():
    return [make() for make in EXTRAS]


def test_extra_orders(extra_groups):
    assert [g.order for g in extra_groups] == [12, 12, 12, 16, 16]


def test_axioms_and_theorems_on_extras(extra_groups):
    for g in extra_groups:
        for p in (2, 3):
            if g.order % p:
                continue
            F = realize_fusion(g, p)
            assert verify_axioms(F).status == "verified", (g.name, p)
            if p == 2:
                assert not verify_theorem_1(F).contradiction
            assert not verify_theorem_2(F).contradiction
            if p % 2 == 1:
                assert not verify_theorem_3(F).contradiction
                assert not thompson_group_check(g, p).contradiction
            assert not frobenius_check(g, p).contradiction


def test_dicyclic_frobenius_quantifier_nuance():
    """Dic3 has a normal 2-complement, yet N_G(G)/C_G(G) = G/Z is the
    symmetric group on 3 letters: the p-group criterion must quantify over
    subgroups of the Sylow subgroup, not over all subgroups."""
    g = dicyclic12()
    assert has_normal_p_complement(g, 2)
    report = frobenius_check(g, 2)            # must agree 4 ways
    assert report.detail["complement"] is True
    z = g.full_subgroup.center()
    assert z.order == 2
    from fusionlab.groups import quotient_group

    q, _ = quotient_group(g, z)
    # S3, not a 2-group
    assert q.order == 6 and not q.full_subgroup.is_abelian()


def test_files_scope_suite_over_extras(extra_groups):
    config = RunConfig()
    result = run_suite(config, groups=extra_groups, scope="files")
    assert result.contradictions == 0
    assert result.failures == 0
    assert result.rows


def test_c2xd8_w_computation(extra_groups):
    from fusionlab.pgroups import thompson_data
    from fusionlab.stellmacher import canonical_family, compute_W_iterative

    g = next(x for x in extra_groups if x.name == "C2xD8")
    S = sylow(g, 2)
    td = thompson_data(S)
    assert td.A.mask == td.B.mask        # J(C2 x D8) = C2 x D8
    fam = canonical_family(S, 2)
    wc = compute_W_iterative(fam)
    assert wc.W_iter.order == 4          # Omega(Z(C2 x D8)) = C2 x Z(D8)
    assert wc.equal


def test_m16_fusion_is_trivial():
    from fusionlab.theorems import is_trivial_fusion

    g = m16()
    F = realize_fusion(g, 2)
    assert is_trivial_fusion(F)          # the Sylow subgroup is the group
    assert o_p(g, 2).order == 16


def test_central_product_pipeline():
    """D8 o C4 through the p-group and W machinery: J covers the three
    order-8 abelian subgroups, the anchors agree, and the family-relative
    W is the characteristic C2 inside the cyclic center."""
    from fusionlab.pgroups import is_characteristic, thompson_data
    from fusionlab.stellmacher import canonical_family, compute_W_iterative

    g = c2_x_d8_central_c4()
    assert g.order == 16
    S = g.full_subgroup
    td = thompson_data(S)
    assert td.max_abelian_order == 8
    assert td.A.order == 2 and td.A.mask == td.B.mask
    F = realize_fusion(g, 2)
    assert verify_axioms(F).status == "verified"
    fam = canonical_family(S, 2)
    wc = compute_W_iterative(fam)
    assert wc.W_iter.order == 2
    assert is_characteristic(wc.W_iter, fam.S.full_subgroup)
    assert not verify_theorem_1(F).contradiction
    assert not frobenius_check(g, 2).contradiction
