"""H-freeness of groups and fusion systems.

A group is H-free when no section B/A is isomorphic to H.  A fusion system
is H-free when H is involved in none of the constrained models L_Q, for Q
running over the centric, radical, fully normalized subgroups (the range is
conjunctive).  Witnesses are always materialized so failures are auditable.
"""

from collections import namedtuple

from .catalog import catalog_group
from .errors import (
    HypothesisViolated,
    InternalInconsistency,
    UnsupportedPrime,
)
from .fusion import centric_objects, classify_subgroup
from .groups import (
    FiniteGroup,
    is_involved,
    o_p,
    quotient_group,
    subgroup_class_reps,
    sylow,
)
from .subsystems import model_group


def qd_group(p) -> FiniteGroup:
    """Qd(p) = (Z_p x Z_p) : SL(2,p): the catalog's Qd(3), or its S4 for
    Qd(2) (``catalog.validate_catalog`` checks that the affine Qd(2) is
    isomorphic to it)."""
    if p == 3:
        return catalog_group("Qd(3)")
    if p == 2:
        return catalog_group("S4")
    raise UnsupportedPrime(f"Qd({p}) is beyond desk scale")


class HFreeReport(namedtuple("HFreeReport", "target H free witness",
                             defaults=(None,))):
    """Outcome of an H-freeness test with a materialized witness if not
    free: (B, A) for a group, (Q, L, (B, A)) for a fusion system."""

    __slots__ = ()

    def __bool__(self):
        return self.free


def is_group_H_free(G, H) -> HFreeReport:
    involved, section = is_involved(H, G)
    return HFreeReport(target=G.name, H=H, free=not involved, witness=section)


def centric_radical_fn_subgroups(F):
    """The model range: the centric objects that are fully normalized and
    radical.  Only those that pass the cheap test are classified: building
    Out_F(Q) is needed for radicality alone."""
    return [Q for Q in centric_objects(F)
            if F.is_fully_normalized(Q) and classify_subgroup(F, Q).radical]


def is_fusion_H_free(F, H) -> HFreeReport:
    """H-freeness through the models L_Q, never through the ambient group.

    A model is built only for a Q whose Out_F(Q) involves H/O_p(H).  Let
    B/A = H be a section of L_Q and O the image of Q, normal in L_Q.  Then
    (O n B)A/A is a normal p-subgroup of B/A, so it lies in O_p(B/A), and
    H/O_p(H) is a quotient of B/A(O n B) = BO/AO, a section of L_Q/O.  The
    model's validation gives C_G(Q) = Z(Q) x O_p'(C_G(Q)), so L_Q/O =
    N_G(Q)/Q C_G(Q) = Out_F(Q) (the model theorem of Broto, Castellana,
    Grodal, Levi and Oliver, 2005).  So the screen keeps every Q whose
    model involves H, and the first such Q and its witness (Q, L_Q, (B, A))
    do not change.  At p = 2 with H = S4 the screen is exact, by
    ``remark67_check`` on L = L_Q, where C_L(O_2(L)) <= O_2(L): no model
    is built for an S4-free system.  Only a system realized on a Sylow
    subgroup, where every Q of the range has a model, is screened; on any
    other, ``model_group`` raises ModelValidationFailed at a Q without one."""
    top, _ = quotient_group(H, o_p(H, F.p))
    has_models = (F.is_realized()
                  and F.ambient.order // F.carrier.order % F.p != 0)
    for Q in centric_radical_fn_subgroups(F):
        if has_models and not is_involved(top, F.out_group(Q)[0])[0]:
            continue
        model = model_group(F, Q)
        involved, section = is_involved(H, model.L)
        if involved:
            return HFreeReport(target=F.name, H=H, free=False,
                               witness=(Q, model.L, section))
    return HFreeReport(target=F.name, H=H, free=True)


# -- appendix cross-checks ----------------------------------------------------


def sigma3_involvement_check(G):
    """(S4 involved in G, exists 2-subgroup Q with S3 involved in N/C).

    The two answers must agree; disagreement raises InternalInconsistency.
    """
    s4 = catalog_group("S4")
    s3 = catalog_group("S3")
    a, _ = is_involved(s4, G)
    b = False
    # every 2-subgroup is conjugate into the Sylow 2-subgroup
    two_subgroups = [H for H in sylow(G, 2).subgroups_within()
                     if H.order > 1]
    for Q in subgroup_class_reps(G, two_subgroups):
        N = Q.normalizer_in(G.full_subgroup)
        C = Q.centralizer_in(N)
        NC, _ = quotient_group(G, C, within=N)
        involved, _ = is_involved(s3, NC)
        if involved:
            b = True
            break
    if a != b:
        raise InternalInconsistency(
            f"S4-involvement ({a}) disagrees with the N/C criterion ({b}) "
            f"on {G.name}")
    return a, b


def remark67_check(G):
    """(G is S4-free, G/O_2(G) is S3-free); requires C_G(O_2(G)) <= O_2(G).

    The two answers must agree; disagreement raises InternalInconsistency.
    """
    s4 = catalog_group("S4")
    s3 = catalog_group("S3")
    O2 = o_p(G, 2)
    C = O2.centralizer_in(G.full_subgroup)
    if not C <= O2:
        raise HypothesisViolated("C_G(O_2) not in O_2")
    a = not is_involved(s4, G)[0]
    Gbar, _ = quotient_group(G, O2, name=f"{G.name}/O2")
    b = not is_involved(s3, Gbar)[0]
    if a != b:
        raise InternalInconsistency(
            f"S4-freeness of {G.name} ({a}) disagrees with S3-freeness of "
            f"the O_2-quotient ({b})")
    return a, b
