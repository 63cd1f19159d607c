"""Thompson-subgroup machinery on a finite p-group S.

J(S) is the subgroup generated by the abelian subgroups of S of largest
order; A(S) = Omega(Z(S)) and B(S) = Omega(Z(J(S))) are the inner and outer
anchors of every W(S) computation.
"""

from collections import namedtuple

from .errors import InternalInconsistency, NotAPGroup
from .groups import (
    Subgroup,
    _smallest_prime_factor,
    aut_generators,
    mask_of,
    omega_mask,
    p_part,
)


def p_of(sub: Subgroup):
    """The prime p for a p-group subgroup; raises NotAPGroup otherwise."""
    n = sub.order
    if n == 1:
        raise NotAPGroup("trivial group has no defining prime")
    p = _smallest_prime_factor(n)
    if p_part(n, p) != n:
        raise NotAPGroup(f"order {sub.order} is not a prime power")
    return p


class ThompsonData(namedtuple(
        "ThompsonData",
        "S p max_abelian_order max_abelian_subgroups J A B")):
    """J(S) together with the witnesses that generated it."""

    __slots__ = ()


def thompson_data(S: Subgroup) -> ThompsonData:
    """J(S), A(S) = Omega(Z(S)) and B(S) = Omega(Z(J(S))) for a p-group S,
    computed once per subgroup and kept on it."""
    if S._thompson is None:
        S._thompson = _thompson_data(S)
    return S._thompson


def _thompson_data(S):
    p = p_of(S)
    G = S.parent
    abelians = [H for H in S.subgroups_within() if H.is_abelian()]
    best = max(H.order for H in abelians)
    witnesses = tuple(H for H in abelians if H.order == best)
    jgens = [g for H in witnesses for g in H.generators()]
    J = G.subgroup(G.closure_mask(jgens, 1))
    A = G.subgroup(omega_mask(G, S.center().mask, p))
    B = G.subgroup(omega_mask(G, J.center().mask, p))
    if not A <= B:
        raise InternalInconsistency(
            f"A(S) = {A.mask:x} is not inside B(S) = {B.mask:x} for S = "
            f"{S.mask:x} in {G.name}, although Z(S) <= J(S)")
    return ThompsonData(S=S, p=p, max_abelian_order=best,
                        max_abelian_subgroups=witnesses, J=J, A=A, B=B)


def is_characteristic(W: Subgroup, S: Subgroup) -> bool:
    """alpha(W) = W for every alpha in Aut(S): invariance under each
    generator of ``aut_generators`` is enough.  S is read on its standalone
    copy; for the whole parent, that is the one group with the parent's
    Cayley table."""
    if not W <= S:
        raise NotAPGroup("W must be a subgroup of S")
    group, _ = S.as_group()
    full = group.full_subgroup
    local = S.reader(W.elems)(full.elems)   # W's elements on the copy
    on_w, wmask = full.reader(local), mask_of(local)
    gens, _ = aut_generators(group)
    return all(mask_of(on_w(a)) == wmask for a in gens)
