import pytest


from fusionlab.fusion import realize_fusion, verify_axioms
from fusionlab.groups import (
    aut_generators,
    build_group,
    prime_divisors,
    subgroup_class_reps,
    sylow,
)
from fusionlab.stellmacher import canonical_family, functor_checks
from fusionlab.theorems import (
    frobenius_check,
    has_normal_p_complement,
    is_trivial_fusion,
    thompson_group_check,
    verify_theorem_1,
    verify_theorem_2,
    verify_theorem_3,
)

from oracles import (
    centralizer_brute,
    group_from_function,
    has_normal_p_complement_brute,
    is_power_of,
    normalizer_brute,
)


def test_t1_sl23(systems):
    rep = verify_theorem_1(systems[("SL(2,3)", 2)])
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.detail["W_order"] == 2
    assert rep.detail["proof_route"] == "model-checked"


def test_t1_s4_consistent_negative(systems):
    rep = verify_theorem_1(systems[("S4", 2)])
    assert not rep.hypotheses_hold
    assert not rep.conclusion_holds        # Z(D8) is not normal in F
    assert not rep.contradiction


def test_t1_a4(systems):
    rep = verify_theorem_1(systems[("A4", 2)])
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.detail["W_order"] == 4


def test_t2_odd_semidirect_inversion():
    # (C3 x C3) : C2 with the inverting action; order 18, so Qd(3)-free
    elems = [(a, b, e) for e in range(2) for a in range(3) for b in range(3)]

    def op(u, v):
        a, b, e = u
        c, d, f = v
        if e == 0:
            return ((a + c) % 3, (b + d) % 3, f)
        return ((a - c) % 3, (b - d) % 3, (e + f) % 2)

    g = group_from_function(elems, op, name="(C3xC3):C2")
    assert g.order == 18
    F = realize_fusion(g, 3)
    rep = verify_theorem_2(F)
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.detail["W_order"] == 9      # W = S, normal in G


def test_t2_s3_at_3(systems):
    rep = verify_theorem_2(systems[("S3", 3)])
    assert rep.hypotheses_hold and rep.conclusion_holds


def test_t2_delegates_to_t1_at_2(systems):
    """At p = 2 the T1.2 report is T1.1's under its own id, with the
    detail marked as delegated: on an S4-free system (with its model
    route) and on one that is not S4-free.  At p = 3 it is neither."""
    for key in (("SL(2,3)", 2), ("S4", 2)):
        F = systems[key]
        r1 = verify_theorem_1(F)
        r2 = verify_theorem_2(F)
        assert (r1.theorem_id, r2.theorem_id) == ("T1.1", "T1.2")
        assert r2.detail["delegated"] == "T1.1"
        assert r2.detail == dict(r1.detail, delegated="T1.1")
        assert (r1.instance, r1.hypotheses_hold, r1.conclusion_holds) == \
            (r2.instance, r2.hypotheses_hold, r2.conclusion_holds)
        assert ("proof_route" in r1.detail) == r1.hypotheses_hold
    # at odd p the shared body neither delegates nor runs the model route
    r3 = verify_theorem_2(systems[("A4", 3)])
    assert r3.hypotheses_hold
    assert set(r3.detail) == {"W_order", "chain_length", "counterexample"}


def test_t2_qd3_not_free(systems):
    rep = verify_theorem_2(systems[("Qd(3)", 3)])
    assert not rep.hypotheses_hold         # Qd(3) involves itself
    assert not rep.contradiction


def test_t3_a4(systems):
    rep = verify_theorem_3(systems[("A4", 3)])
    assert rep.detail["both_sides"] is True


def test_t3_s3(systems):
    rep = verify_theorem_3(systems[("S3", 3)])
    assert rep.detail["both_sides"] is False


def test_t3_c13c3(systems):
    rep = verify_theorem_3(systems[("C13:C3", 3)])
    assert rep.detail["both_sides"] is True
    assert has_normal_p_complement(systems[("C13:C3", 3)].host, 3)


def test_has_normal_p_complement(cat):
    assert has_normal_p_complement(cat["S3"], 2)
    assert not has_normal_p_complement(cat["S3"], 3)
    assert has_normal_p_complement(cat["A4"], 3)
    assert not has_normal_p_complement(cat["A4"], 2)
    assert has_normal_p_complement(cat["C3"], 3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_has_normal_p_complement_matches_definition(cat, p):
    for G in cat.values():
        if G.order > 48:
            continue
        assert has_normal_p_complement(G, p) == has_normal_p_complement_brute(
            G, range(G.order), p)
        for W in G.subgroups():
            assert has_normal_p_complement(W, p) == \
                has_normal_p_complement_brute(G, W.elems, p)


def test_frobenius_examples(cat):
    assert frobenius_check(cat["S3"], 2).detail["complement"] is True
    assert frobenius_check(cat["S4"], 2).detail["complement"] is False
    assert frobenius_check(cat["A4"], 3).detail["complement"] is True


def test_frobenius_full_catalog(cat):
    for name, g in cat.items():
        for p in (2, 3):
            if g.order % p == 0:
                frobenius_check(g, p)      # raises on any disagreement


def test_frobenius_witnesses_are_the_first_failing_class_reps(cat):
    """nc_witness is the first class representative Q, in the order of
    ``subgroup_class_reps``, with N_G(Q)/C_G(Q) not a p-group, and
    normalizer_witness the first whose N_G(Q) has no normal p-complement;
    both criteria are read element by element."""
    seen = set()
    for name, G in cat.items():
        full = G.full_subgroup
        for p in prime_divisors(G.order):
            S = sylow(G, p)
            reps = subgroup_class_reps(
                G, [Q for Q in S.subgroups_within() if Q.order > 1])
            normalizers = [sorted(normalizer_brute(Q, full)) for Q in reps]
            nc = [Q for Q, N in zip(reps, normalizers) if not is_power_of(
                len(N) // len(centralizer_brute(Q, full)), p)]
            nn = [Q for Q, N in zip(reps, normalizers)
                  if not has_normal_p_complement_brute(G, N, p)]
            detail = frobenius_check(G, p).detail
            assert detail["nc_witness"] == (nc[0] if nc else None), (name, p)
            assert detail["normalizer_witness"] == \
                (nn[0] if nn else None), (name, p)
            seen.update(k for k, found in (("nc", nc), ("nn", nn))
                        if len(found) > 1)
    # a witness other than the first failing representative would show
    assert seen == {"nc", "nn"}


def test_frobenius_matches_trivial_fusion(cat, systems):
    for (name, p), F in systems.items():
        assert is_trivial_fusion(F) == has_normal_p_complement(cat[name], p)


def test_thompson_examples(cat):
    assert thompson_group_check(cat["A4"], 3).detail["both_sides"] is True
    assert thompson_group_check(cat["S3"], 3).detail["both_sides"] is False
    assert thompson_group_check(cat["C3"], 3).detail["both_sides"] is True


def test_thompson_full_odd_catalog(cat):
    for name, g in cat.items():
        if g.order % 3 == 0:
            thompson_group_check(g, 3)     # raises on any disagreement


def test_theorem_sweep_has_no_contradiction(cat, systems):
    for (name, p), F in systems.items():
        if p == 2:
            assert not verify_theorem_1(F).contradiction
        assert not verify_theorem_2(F).contradiction
        if p % 2 == 1:
            assert not verify_theorem_3(F).contradiction
            assert not thompson_group_check(cat[name], p).contradiction
        assert not frobenius_check(cat[name], p).contradiction


@pytest.mark.parametrize("name,p", [("S4", 2), ("GL(2,3)", 2),
                                    ("SL(2,3)", 3), ("Qd(3)", 3)])
def test_verdicts_do_not_depend_on_the_sylow_subgroup(cat, monkeypatch,
                                                      name, p):
    """W is found inside whichever Sylow subgroup carries F, even when the
    cached family was built on another Sylow subgroup with the same table;
    the non-canonical ones go first, into an empty family cache."""
    from fusionlab import groups, stellmacher
    from fusionlab.groups import sylow

    monkeypatch.setattr(stellmacher, "_family_cache", {})
    monkeypatch.setattr(groups, "_by_table", {})
    G = cat[name]
    canonical = sylow(G, p)
    others = [P for P in G.subgroups()
              if P.order == canonical.order and P != canonical]
    assert others
    verify = verify_theorem_1 if p == 2 else verify_theorem_2
    verdicts = []
    for P in others + [canonical]:
        rep = verify(realize_fusion(G, p, P))
        verdicts.append((rep.hypotheses_hold, rep.conclusion_holds,
                         rep.detail["W_order"]))
    assert len(set(verdicts)) == 1


def test_t1_2_on_w648_grows_w_with_the_default_family(wreath648):
    """W648 is outside the catalog; the default family must still hold its
    own system, or W stays at A(S) of order 3, which is not normal in F."""
    rep = verify_theorem_2(realize_fusion(wreath648, 3))
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.detail["W_order"] == 27 and rep.detail["chain_length"] == 1


def test_t1_1_on_f16c5c4_grows_w_with_the_default_family(f16c5c4):
    """The p = 2 growth instance: A(S) = C2 grows to W = C2^4, which the
    constrained model's system normalizes too."""
    rep = verify_theorem_1(realize_fusion(f16c5c4, 2))
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.detail["W_order"] == 16 and rep.detail["chain_length"] == 1
    assert rep.detail["proof_route"] == "model-checked"


def test_thompson_and_t1_3_on_w648_use_the_grown_w(wreath648):
    assert thompson_group_check(wreath648, 3).detail["W_order"] == 27
    rep = verify_theorem_3(realize_fusion(wreath648, 3))
    assert rep.conclusion_holds and rep.detail["W_order"] == 27


def test_theorems_on_gl32(gl32):
    """GL(3,2) = PSL(2,7): at p = 2 its system involves S4 and moves
    W = Z(D8) of order 2, so neither side of Theorem 1.2 holds; at p = 3,
    W is the Sylow C3, and neither G nor N_G(W) = S3 has a normal
    3-complement."""
    F2 = realize_fusion(gl32, 2)
    assert verify_axioms(F2).status == "verified"
    rep = verify_theorem_2(F2)
    assert (rep.hypotheses_hold, rep.conclusion_holds) == (False, False)
    assert rep.detail["W_order"] == 2
    F3 = realize_fusion(gl32, 3)
    rep = verify_theorem_2(F3)
    assert (rep.hypotheses_hold, rep.conclusion_holds) == (True, True)
    for rep in (verify_theorem_3(F3), thompson_group_check(gl32, 3)):
        assert rep.detail["both_sides"] is False
        assert rep.detail["W_order"] == 3


def test_theorem_1_and_functor_checks_on_a4_x_a4_x_c2():
    """The Sylow 2-subgroup of A4 x A4 x C2 is C2^5, whose automorphism
    group GL(5, 2) has 9,999,360 elements: Theorem 1 and the functor checks
    run on its generators, without listing it."""
    a4 = [(1, 2, 0, 3), (1, 0, 3, 2)]

    def placed(perm, at):
        return tuple(range(at)) + tuple(x + at for x in perm) \
            + tuple(range(at + len(perm), 10))

    G = build_group([placed(a, 0) for a in a4] + [placed(a, 4) for a in a4]
                    + [placed((1, 0), 8)], kind="perms", name="A4xA4xC2")
    assert G.order == 288
    F = realize_fusion(G, 2)
    rep = verify_theorem_1(F)
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.detail["W_order"] == 32      # W = Omega(Z(S)) = S
    fam = canonical_family(F.carrier, 2, extras=(G,))
    assert aut_generators(fam.S)[1] == 9999360
    assert len(fam.admitted_members()) == 2
    report = functor_checks(fam)
    assert report.all_hold() and report.W_iter.order == 32
