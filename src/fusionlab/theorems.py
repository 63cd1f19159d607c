"""Verification harnesses for the normality and p-complement theorems.

Each harness computes hypotheses and conclusion independently and compares;
``hypotheses_hold and not conclusion_holds`` is a hard contradiction.  The
harnesses never assume the statements they check, so a full catalog sweep
doubles as a regression oracle for every lower module.

Each harness builds its own family: W(S) is taken from
``canonical_family`` on S, with the group under test (F's host, or G) and
the groups ``extras`` in its pool, so the system under test is always a
candidate member.
"""

from collections import namedtuple

from .errors import HypothesisViolated, InternalInconsistency
from .fusion import FusionSystem, classify_subgroup, fusion_equal
from .groups import (
    DetailRecord,
    Subgroup,
    move_mask,
    o_p_prime,
    p_part,
    subgroup_class_reps,
    sylow,
)
from .hfree import is_fusion_H_free, qd_group
from .stellmacher import canonical_family, compute_W_iterative
from .subsystems import is_normal_in_F, model_group, normalizer_system, o_p_of_F


class TheoremReport(DetailRecord, namedtuple(
        "TheoremReport",
        "theorem_id instance hypotheses_hold conclusion_holds detail")):
    """One theorem instance; ``detail`` is a dict that equality and
    hashing leave out."""

    __slots__ = ()

    @property
    def contradiction(self):
        """True when hypotheses hold but the conclusion fails; the suite
        runner aborts with a witness dump on any such report."""
        return self.hypotheses_hold and not self.conclusion_holds


def _w_in(S, p, extras):
    """(W(S) as a subgroup of S's parent, the W computation), relative to
    the canonical family on S with the groups ``extras`` in its pool.

    The family's model is S's standalone copy, since such copies are one
    derived group per table; W reaches S through that copy's embedding."""
    fam = canonical_family(S, p, extras=extras)
    wc = compute_W_iterative(fam)
    local, embed = S.as_group()
    if fam.S is not local:
        raise InternalInconsistency("family model is not S's standalone copy")
    return S.parent.subgroup(move_mask(embed, wc.W_iter.mask)), wc


def is_trivial_fusion(F):
    """F = F_S(S): every hom-set reduces to carrier-conjugation maps."""
    return fusion_equal(F, FusionSystem.inner(F.carrier, F.p))


def verify_theorem_1(F, extras=()) -> TheoremReport:
    """S4-free systems at p = 2 normalize the characteristic subgroup W(S)."""
    if F.p != 2:
        raise HypothesisViolated("this statement is specific to p = 2")
    return _normality_report("T1.1", F, extras)


def _normality_report(theorem_id, F, extras):
    """Is F Qd(p)-free (S4-free at p = 2), and is W(S) normal in F?  At
    p = 2, a free F also has its model route checked."""
    hyp = is_fusion_H_free(F, qd_group(F.p)).free
    W, wc = _w_in(F.carrier, F.p, (F.host, *extras))
    conc, counter = is_normal_in_F(F, W)
    detail = {"W_order": W.order, "chain_length": len(wc.chain) - 1,
              "counterexample": counter}
    if hyp and F.p == 2:
        detail["proof_route"] = _constrained_route(F, W)
    return TheoremReport(theorem_id=theorem_id, instance=F.name,
                         hypotheses_hold=hyp, conclusion_holds=conc,
                         detail=detail)


def _constrained_route(F, W):
    """When F is constrained, exercise the model route: W must be normal in
    the fusion system of the model of O_p(F)."""
    Q = o_p_of_F(F)
    if Q.order == 1:
        return "not-constrained"
    if not classify_subgroup(F, Q).centric:
        return "not-constrained"
    model = model_group(F, Q)
    SL = model.proj.push_subgroup(F.carrier)
    WL = model.proj.push_subgroup(W)
    FL = FusionSystem.realized(model.L, F.p, SL)
    ok, _ = is_normal_in_F(FL, WL)
    if not ok:
        raise InternalInconsistency(
            "W is not normal in the constrained model's fusion system")
    return "model-checked"


def verify_theorem_2(F, extras=()) -> TheoremReport:
    """Qd(p)-free systems normalize W(S); at p = 2 this is the S4
    statement (Qd(2) is the symmetric group on 4 letters)."""
    report = _normality_report("T1.2", F, extras)
    if F.p == 2:
        report.detail["delegated"] = "T1.1"
    return report


def verify_theorem_3(F, extras=()) -> TheoremReport:
    """For odd p: F is trivial fusion iff N_F(W(S)) is trivial fusion."""
    if F.p % 2 == 0:
        raise HypothesisViolated("this statement requires an odd prime")
    W, _ = _w_in(F.carrier, F.p, (F.host, *extras))
    lhs = is_trivial_fusion(F)
    nf = normalizer_system(F, W)
    if nf.carrier.mask != F.carrier.mask:
        raise InternalInconsistency("N_S(W) != S for a characteristic W")
    rhs = is_trivial_fusion(nf)
    if lhs != rhs:
        raise InternalInconsistency(
            f"T1.3 biconditional fails on {F.name}: F trivial={lhs}, "
            f"N_F(W) trivial={rhs}")
    return TheoremReport(theorem_id="T1.3", instance=F.name,
                         hypotheses_hold=True, conclusion_holds=True,
                         detail={"both_sides": lhs, "W_order": W.order})


# -- p-complement machinery ---------------------------------------------------


def has_normal_p_complement(G, p) -> bool:
    """|O_p'(G)| equals the p'-part of |G| (G a group or a Subgroup)."""
    W = G if isinstance(G, Subgroup) else G.full_subgroup
    complement = o_p_prime(W.parent, p, within=W)
    return complement.order * p_part(G.order, p) == G.order


def frobenius_check(G, p) -> TheoremReport:
    """Four equivalent normal p-complement criteria, checked to agree:
    (a) the complement exists, (b) N/C is a p-group for nontrivial
    subgroups of S, (c) normalizers of nontrivial p-subgroups have normal
    p-complements, (d) the Sylow subgroup controls fusion."""
    S = sylow(G, p)
    full = G.full_subgroup
    a = has_normal_p_complement(G, p)

    reps = subgroup_class_reps(
        G, [Q for Q in S.subgroups_within() if Q.order > 1])
    b_witness = c_witness = None
    for Q in reps:
        N = Q.normalizer_in(full)
        if b_witness is None:
            index = N.order // Q.centralizer_in(full).order
            if p_part(index, p) != index:
                b_witness = Q
        if c_witness is None and not has_normal_p_complement(N, p):
            c_witness = Q
        if b_witness is not None and c_witness is not None:
            break
    b, c = b_witness is None, c_witness is None

    F = FusionSystem.realized(G, p, S)
    d = is_trivial_fusion(F)

    agree = a == b == c == d
    if not agree:
        raise InternalInconsistency(
            f"Frobenius criteria disagree on {G.name} at p={p}: "
            f"a={a} b={b} c={c} d={d}")
    return TheoremReport(theorem_id="Frobenius", instance=f"{G.name}@p={p}",
                         hypotheses_hold=True, conclusion_holds=agree,
                         detail={"complement": a, "nc_witness": b_witness,
                                 "normalizer_witness": c_witness})


def thompson_group_check(G, p, extras=()) -> TheoremReport:
    """For odd p: G has a normal p-complement iff N_G(W(S)) has one."""
    if p % 2 == 0:
        raise HypothesisViolated("this statement requires an odd prime")
    S = sylow(G, p)
    W, _ = _w_in(S, p, (G, *extras))
    NW = W.normalizer_in(G.full_subgroup)
    lhs = has_normal_p_complement(G, p)
    rhs = has_normal_p_complement(NW, p)
    if lhs != rhs:
        raise InternalInconsistency(
            f"Thompson criterion fails on {G.name} at p={p}: "
            f"G={lhs}, N_G(W)={rhs}")
    return TheoremReport(theorem_id="Thompson", instance=f"{G.name}@p={p}",
                         hypotheses_hold=True, conclusion_holds=True,
                         detail={"both_sides": lhs, "W_order": W.order,
                                 "normalizer_order": NW.order})
