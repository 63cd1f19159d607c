"""The characteristic subgroup W(S) computed relative to a candidate family.

The family-relative analogue of the class of admissible embeddings: an
abstract model S, plus realized members identified with S by an explicit
isomorphism, each admitted when J(S) is normal in the member and the member
is Qd(p)-free.  Closure of the admissibility class under precomposition
with Aut(S) is modelled by testing (and growing along) the whole Aut(S)
orbit of the current subgroup, which is what makes the result
characteristic and independent of the chosen identifications.

Two constructions are computed: the iterative orbit-closure chain
W_0 < W_1 < ... (the canonical value) and the one-shot generation from
images of W_0 = Omega(Z(S)) under morphisms defined on J(S); the provable
containment W_oneshot <= W_iter is checked on every run and equality is
reported.  Both read a member's images of a subgroup through ``_images``
and close them in the model S.
"""

from collections import namedtuple

from .catalog import EXPECTED_ORDERS, catalog_group
from .errors import (
    InternalInconsistency,
    NotAPGroup,
    SandwichViolated,
    SylowMismatch,
)
from .fusion import FusionSystem, classify_subgroup
from .groups import (
    DetailRecord,
    FiniteGroup,
    Subgroup,
    aut_generators,
    bits,
    compose_perms,
    is_isomorphic,
    kept,
    mask_of,
    mask_orbit,
    move_mask,
    o_p,
    p_part,
    pull_mask,
    sylow,
)
from .hfree import is_fusion_H_free, qd_group
from .pgroups import is_characteristic, thompson_data
from .subsystems import is_normal_in_F, model_group, o_p_of_F


class FamilyMember(namedtuple(
        "FamilyMember", "system identification j_normal qd_free")):
    """A realized system whose carrier is identified with the model S;
    ``identification`` maps model index -> host index of the carrier."""

    __slots__ = ()

    @property
    def admitted(self):
        return self.j_normal and self.qd_free

    def push_mask(self, local_mask):
        return move_mask(self.identification, local_mask)

    def pull_mask(self, host_mask):
        return pull_mask(self.identification, host_mask)


class CandidateFamily(namedtuple("CandidateFamily", "S p members")):
    """An abstract p-group model S together with identified members."""

    __slots__ = ()

    def admitted_members(self):
        return tuple(m for m in self.members if m.admitted)

    def reordered(self, order):
        return CandidateFamily(S=self.S, p=self.p,
                               members=tuple(self.members[i] for i in order))


def admit_member(S: FiniteGroup, G: FiniteGroup, p: int) -> FamilyMember:
    """Realize F on G's Sylow p-subgroup, identify it with S, and compute
    the admission flags (J(S) normal in F, F Qd(p)-free)."""
    P = sylow(G, p)
    local, embed = P.as_group()
    ok, iso = is_isomorphic(S, local)
    if not ok:
        raise SylowMismatch(
            f"Sylow {p}-subgroup of {G.name} is not isomorphic to {S.name}")
    identification = compose_perms(embed, iso.as_tuple())
    F = FusionSystem.realized(G, p, P)
    J = thompson_data(P).J
    j_normal, _ = is_normal_in_F(F, J)
    qd_free = is_fusion_H_free(F, qd_group(p)).free
    member = FamilyMember(system=F, identification=identification,
                          j_normal=j_normal, qd_free=qd_free)
    if member.admitted:
        _check_constrained(F)
    return member


def _check_constrained(F):
    """Admitted members are constrained: J(S) is centric, and the model of
    O_p(F) is p-constrained (C_L(O_p(L)) <= O_p(L))."""
    J = thompson_data(F.carrier).J
    prof = classify_subgroup(F, J)
    if not prof.centric:
        raise InternalInconsistency(
            f"J(S) = {J.mask:x} is normal in {F.name} but not centric")
    Q = o_p_of_F(F)
    model = model_group(F, Q)
    L = model.L
    QL = model.proj.push_subgroup(Q)
    opl = o_p(L, F.p)
    if not QL <= opl:
        raise InternalInconsistency(
            f"the image {QL.mask:x} of O_p({F.name}) in its model is not "
            f"inside O_p(L) = {opl.mask:x}")
    C = opl.centralizer_in(L.full_subgroup)
    if not C <= opl:
        raise InternalInconsistency(
            f"the model of {F.name} is not p-constrained: C_L(O_p(L)) = "
            f"{C.mask:x} is not inside O_p(L) = {opl.mask:x}")


def canonical_family(S_sub: Subgroup, p: int, extras=(),
                     include_catalog=True) -> CandidateFamily:
    """The inner system on S plus every admitted member built from the pool:
    the catalog groups (unless ``include_catalog`` is false), then the extra
    groups, each kept when the p-part of its order is |S|.  A group of order
    |S| is left out, because the inner system stands for it, and so is a
    group whose table an earlier one has.  Built once per (S's table, p,
    the pool's tables)."""
    n = S_sub.order
    if n > 1 and p_part(n, p) != n:
        raise NotAPGroup(f"S has order {n}, which is not a power of {p}")
    pool = []
    if include_catalog:
        pool.extend(catalog_group(name)
                    for name, m in EXPECTED_ORDERS.items()
                    if m != n and p_part(m, p) == n)
    pool.extend(extras)
    by_table = {}
    for G in pool:
        if G.order != n and p_part(G.order, p) == n:
            by_table.setdefault(G.table_hash(), G)
    model, embed = S_sub.as_group()
    return kept(_family_cache, (model.table_hash(), p, tuple(by_table)),
                _build_family, S_sub, model, embed, p, by_table.values())


def _build_family(S_sub, model, embed, p, pool):
    inner = FusionSystem.inner(S_sub, p)
    J = thompson_data(S_sub).J
    jn, _ = is_normal_in_F(inner, J)
    # every model of an inner system is a p-group, and Qd(p) is not
    members = [FamilyMember(system=inner, identification=embed,
                            j_normal=jn, qd_free=True)]
    for G in pool:
        try:
            members.append(admit_member(model, G, p))
        except SylowMismatch:
            continue
    return CandidateFamily(S=model, p=p, members=tuple(members))


_family_cache = {}   # (S's table, p, the pool's tables) -> CandidateFamily
_w_cache = {}   # CandidateFamily -> its WComputation


class WComputation(namedtuple(
        "WComputation",
        "family chain witnesses W_iter W_oneshot equal A B")):
    """The growth chain and both W values for one family.  ``chain`` holds
    masks over the model S, strictly increasing; ``witnesses`` holds
    (member idx, orbit idx, grown-from mask); W_iter and W_oneshot are
    subgroups of the model S."""

    __slots__ = ()


def compute_W_iterative(family: CandidateFamily) -> WComputation:
    """Grow W_0 = Omega(Z(S)) until its whole Aut(S)-orbit is normal in
    every admitted member; each growth step replaces W by the preimage of
    the subgroup generated by the member-orbit of the failing image.
    Computed once per family: two families with the same model, prime and
    members, in the same order, are one."""
    return kept(_w_cache, family, _compute_W_iterative, family)


def _compute_W_iterative(family):
    S = family.S
    if S.order == 1:
        raise NotAPGroup("W(S) is defined for nontrivial p-groups only")
    full = S.full_subgroup
    td = thompson_data(full)
    a_mask, b_mask = td.A.mask, td.B.mask
    auts, _ = aut_generators(S)
    admitted = family.admitted_members()
    w = a_mask
    chain = [w]
    witnesses = []
    while True:
        orbit = mask_orbit(auts, w, S.order)
        failure = _first_normality_failure(orbit, admitted)
        if failure is None:
            break
        mi, oi = failure
        w_image_local, alpha = orbit[oi]
        member = admitted[mi]
        X = member.system.host.subgroup(member.push_mask(w_image_local))
        # Hom_F(X, S) holds id_X, so the images hold X itself
        grown_local = S.closure_mask(bits(_images(member, X, X)), 1)
        # pulled back along alpha, which maps w onto w_image_local
        w_new = pull_mask(alpha, grown_local)
        if not (a_mask & ~w == 0 and w & ~w_new == 0 and w != w_new
                and w_new & ~b_mask == 0):
            raise SandwichViolated(
                "growth step left Omega(Z(S)) <= W < W' <= Omega(Z(J(S))); "
                "the family contains an inconsistent member")
        witnesses.append((mi, oi, w))
        w = w_new
        chain.append(w)
    W_iter = S.subgroup(w)
    W_oneshot = compute_W_oneshot(family)
    if not W_oneshot <= W_iter:
        raise InternalInconsistency(
            f"the one-shot W = {W_oneshot.mask:x} is not inside the "
            f"iterative W = {w:x}")
    return WComputation(family=family, chain=tuple(chain),
                        witnesses=tuple(witnesses), W_iter=W_iter,
                        W_oneshot=W_oneshot, equal=W_oneshot.mask == w,
                        A=S.subgroup(a_mask), B=S.subgroup(b_mask))


def _first_normality_failure(orbit, admitted):
    """(member idx, orbit idx) for the first admitted member, in canonical
    order, with some member of the Aut(S)-orbit of w (``mask_orbit``, in
    its breadth-first order) not normal; the first such orbit member."""
    for mi, member in enumerate(admitted):
        for oi, (w_local, _) in enumerate(orbit):
            host_sub = member.system.host.subgroup(member.push_mask(w_local))
            ok, _ = is_normal_in_F(member.system, host_sub)
            if not ok:
                return mi, oi
    return None


def _images(member, D, X):
    """The union of the images of X <= D under Hom_F(D, S), F the member's
    system, pulled back to the model."""
    on_x = D.reader(X.elems)
    host_mask = 0
    for t in member.system.maps(D):
        host_mask |= mask_of(on_x(t))
    return member.pull_mask(host_mask)


def compute_W_oneshot(family: CandidateFamily) -> Subgroup:
    """<psi(W_0) : psi in Hom_F(J(S), S), F admitted>, closed under Aut(S)
    (the class of admissible categories is stable under transport by S's
    automorphisms, so the family-relative value must be too)."""
    S = family.S
    if S.order == 1:
        raise NotAPGroup("W(S) is defined for nontrivial p-groups only")
    full = S.full_subgroup
    td = thompson_data(full)
    w0 = td.A.mask
    images = w0
    for m in family.admitted_members():
        images |= _images(m, thompson_data(m.system.carrier).J,
                          m.system.host.subgroup(m.push_mask(w0)))
    result = S.closure_mask(bits(images), 1)
    auts, _ = aut_generators(S)
    while True:   # close under the generators of Aut(S) until stable
        grown = S.closure_mask([a[i] for a in auts for i in bits(result)],
                               result)
        if grown == result:
            break
        result = grown
    W = S.subgroup(result)
    if w0 & ~result or result & ~td.B.mask:
        raise InternalInconsistency(
            f"the one-shot W = {result:x} is not between A(S) = {w0:x} and "
            f"B(S) = {td.B.mask:x}")
    return W


class FunctorReport(DetailRecord, namedtuple(
        "FunctorReport",
        "characteristic_iter characteristic_oneshot nontrivial "
        "order_independent identification_independent "
        "equal W_iter W_oneshot details")):
    """Functor-property verification for one family; ``details`` is a dict
    that equality and hashing leave out."""

    __slots__ = ()

    def all_hold(self):
        return (self.characteristic_iter and self.characteristic_oneshot
                and self.nontrivial and self.order_independent
                and self.identification_independent)


def functor_checks(family: CandidateFamily) -> FunctorReport:
    """Characteristic/nontrivial checks on the family's S, plus independence
    of the result from the member order and from the choice of
    identification isomorphisms."""
    S = family.S
    wc = compute_W_iterative(family)
    full = S.full_subgroup
    char_iter = is_characteristic(wc.W_iter, full)
    char_one = is_characteristic(wc.W_oneshot, full)
    nontrivial = wc.W_iter.order > 1

    perm_ok = True
    k = len(family.members)
    for order in _test_orders(k):
        other = compute_W_iterative(family.reordered(order))
        if other.W_iter.mask != wc.W_iter.mask:
            perm_ok = False
            break

    ident_ok = True
    auts, _ = aut_generators(S)
    if auts:
        twisted_members = []
        for j, m in enumerate(family.members):
            alpha = auts[j % len(auts)]
            twisted = compose_perms(m.identification, alpha)
            twisted_members.append(FamilyMember(
                system=m.system, identification=twisted,
                j_normal=m.j_normal, qd_free=m.qd_free))
        twisted_family = CandidateFamily(S=S, p=family.p,
                                         members=tuple(twisted_members))
        other = compute_W_iterative(twisted_family)
        ident_ok = other.W_iter.mask == wc.W_iter.mask

    return FunctorReport(
        characteristic_iter=char_iter,
        characteristic_oneshot=char_one,
        nontrivial=nontrivial,
        order_independent=perm_ok,
        identification_independent=ident_ok,
        equal=wc.equal,
        W_iter=wc.W_iter,
        W_oneshot=wc.W_oneshot,
        details={"chain_length": len(wc.chain) - 1})


def _test_orders(k):
    if k <= 1:
        return []
    orders = [tuple(reversed(range(k)))]
    if k > 2:
        orders.append(tuple(list(range(1, k)) + [0]))
    return orders
