"""Fusion systems on a finite p-group and their subgroup classification.

A system is carried by a subgroup S of a host group.  Realized systems
compute hom-sets lazily from a conjugation source (the ambient subgroup);
explicit systems store every hom-set.  Morphisms are held extensionally as
image tuples aligned with the sorted domain elements, so realized and
explicit systems share one code path everywhere downstream.
"""

from collections import namedtuple

from .errors import (
    CarrierMismatch,
    InternalInconsistency,
    MorphismNotInF,
    NotGenerated,
    NotSylow,
    ObjectOutsideS,
)
from .groups import (
    DetailRecord,
    FiniteGroup,
    GroupMorphism,
    Subgroup,
    bits,
    identity_first,
    is_hom_tuple,
    mask_of,
    o_p,
    p_part,
    sylow,
)

UNCHECKED = "unchecked"
VERIFIED = "verified"


# -- raw morphism helpers (image tuples over sorted domain elements) --------


def identity_tuple(P: Subgroup):
    return P.elems


def conj_tuple(G: FiniteGroup, g: int, P: Subgroup):
    mul = G._mul
    row = mul[g]
    gi = G.inv[g]
    return tuple(mul[row[x]][gi] for x in P.elems)


def conj_maps(G: FiniteGroup, P: Subgroup, by, into):
    """The distinct maps x -> g x g^-1 on P, for g in ``by``, that send P
    into the subgroup mask ``into``, sorted.  A conjugation map is fixed by
    the images of P's generators, so one tuple is built per distinct
    generator-image key, not one per element of ``by``."""
    mul, inv = G._mul, G.inv
    gens = P.generators()
    seen = set()
    out = []
    for g in by:
        row, gi = mul[g], inv[g]
        key = tuple([mul[row[x]][gi] for x in gens])
        if key in seen:
            continue
        seen.add(key)
        if all(into >> y & 1 for y in key):
            out.append(conj_tuple(G, g, P))
    out.sort()
    return tuple(out)


def restrict_tuple(P: Subgroup, t: tuple, Q: Subgroup):
    pos = P.pos_map()
    return tuple(t[pos[x]] for x in Q.elems)


def compose_tuples(t_inner: tuple, M: Subgroup, t_outer: tuple):
    """t_outer o t_inner, where image(t_inner) <= M = domain of t_outer."""
    pos = M.pos_map()
    return tuple(t_outer[pos[v]] for v in t_inner)


def invert_tuple(G: FiniteGroup, P: Subgroup, t: tuple):
    """(image subgroup, inverse tuple over the image's sorted elements)."""
    inv = {v: x for x, v in zip(P.elems, t)}
    img = G.subgroup(mask_of(t))
    return img, tuple(inv[v] for v in img.elems)


def check_hom_tuples(host, carrier, maps_by_domain):
    """Raise CarrierMismatch unless every tuple in ``maps_by_domain``
    (domain mask -> image tuples) is an injective homomorphism from a
    subgroup of the carrier into the carrier."""
    members = set(carrier.elems)
    for pmask, tuples in maps_by_domain.items():
        if pmask & ~carrier.mask:
            raise CarrierMismatch(
                f"the domain {pmask:#x} is not inside the carrier")
        P = host.subgroup(pmask)
        for t in tuples:
            if (len(t) != P.order or not members.issuperset(t)
                    or not is_hom_tuple(host, P, t)):
                raise CarrierMismatch(
                    f"morphism {t} on the subgroup {pmask:#x} is not an "
                    f"injective homomorphism into the carrier")


# -- the fusion system -------------------------------------------------------


class FusionSystem:
    """A category on the subgroups of a carrier S inside a host group."""

    def __init__(self, host, p, carrier, ambient=None, explicit=None,
                 name=None):
        if ambient is None and explicit is None:
            raise ValueError("a system needs an ambient subgroup or "
                             "explicit hom-sets")
        self.host = host
        self.p = p
        self.carrier = carrier
        self.ambient = ambient
        self._explicit = explicit
        # F_S(G) for a Sylow p-subgroup S of G is saturated
        self.saturation_status = (
            VERIFIED if explicit is None
            and carrier.order == p_part(ambient.order, p) else UNCHECKED)
        self.name = name or f"F_{carrier.order}({host.name})"
        if ambient is not None and not carrier <= ambient:
            raise ObjectOutsideS("carrier must sit inside the ambient subgroup")
        if explicit is not None:
            check_hom_tuples(host, carrier, explicit)
        self._maps_cache = {} if explicit is None else dict(explicit)
        self._objects = None
        self._classes = None
        self._profiles = {}
        self._floors = {}
        self._normalizers = {}
        self._autgroup_cache = {}
        self._models = {}   # subsystems.model_group, by Q.mask
        self._normal = {}   # subsystems.is_normal_in_F, by W.mask

    # -- constructors ---------------------------------------------------

    @classmethod
    def conjugation(cls, host, p, carrier, ambient, name=None):
        """The system on ``carrier`` whose morphisms are conjugations by
        ``ambient``, built once per host and (p, carrier, ambient, name):
        every fact computed on it (hom-sets, profiles, normalizers, models,
        normality verdicts) is a function of that key, so each is computed
        once however many callers ask."""
        name = name or f"F_{carrier.order}({host.name})"
        key = (p, carrier.mask, ambient.mask, name)
        F = host._systems.get(key)
        if F is None:
            F = host._systems[key] = cls(host, p, carrier, ambient=ambient,
                                         name=name)
        return F

    @classmethod
    def realized(cls, G, p, S, name=None):
        return cls.conjugation(G, p, S, G.full_subgroup, name=name)

    @classmethod
    def inner(cls, S, p, name=None):
        """F_S(S): conjugation by S only."""
        return cls.conjugation(S.parent, p, S, S,
                               name=name or f"F_S(S)|{S.parent.name}")

    @classmethod
    def explicit_system(cls, host, p, carrier, maps_by_domain, ambient=None,
                        name=None):
        full = dict(maps_by_domain)
        for P in carrier.subgroups_within():
            full.setdefault(P.mask, (identity_tuple(P),))
        return cls(host, p, carrier, ambient=ambient, explicit=full, name=name)

    def is_realized(self):
        return self.ambient is not None

    def __repr__(self):
        kind = "realized" if self.is_realized() else "explicit"
        return f"FusionSystem({self.name}, p={self.p}, {kind})"

    # -- objects and hom-sets --------------------------------------------

    def objects(self):
        if self._objects is None:
            self._objects = tuple(self.carrier.subgroups_within())
        return self._objects

    def require_object(self, P):
        if P.parent is not self.host or not P <= self.carrier:
            raise ObjectOutsideS(f"{P!r} is not a subgroup of the carrier")

    def maps(self, P):
        """All morphisms from P into the carrier, as sorted image tuples."""
        self.require_object(P)
        got = self._maps_cache.get(P.mask)
        if got is not None:
            return got
        if self._explicit is not None:
            raise ObjectOutsideS("explicit system lacks hom-sets for this "
                                 "domain; carrier mismatch?")
        result = conj_maps(self.host, P, self.ambient.elems,
                           self.carrier.mask)
        self._maps_cache[P.mask] = result
        return result

    def materialize(self):
        """Force every hom-set; returns {domain mask: tuple of image tuples}."""
        for P in self.objects():
            self.maps(P)
        return {P.mask: self._maps_cache[P.mask] for P in self.objects()}

    # -- conjugacy, normalizers ------------------------------------------

    def n_in_carrier(self, Q):
        """N_S(Q), computed once per object."""
        got = self._normalizers.get(Q.mask)
        if got is None:
            got = self._normalizers[Q.mask] = Q.normalizer_in(self.carrier)
        return got

    def c_in_carrier(self, Q):
        return Q.centralizer_in(self.carrier)

    def conjugacy_classes(self):
        """Union-find over (domain, image) pairs of every stored morphism."""
        if self._classes is None:
            parent = {}

            def find(m):
                while parent[m] != m:
                    parent[m] = parent[parent[m]]
                    m = parent[m]
                return m

            def union(a, b):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

            for P in self.objects():
                parent.setdefault(P.mask, P.mask)
                for t in self.maps(P):
                    m = mask_of(t)
                    parent.setdefault(m, m)
                    union(P.mask, m)
            classes = {}
            for m in parent:
                classes.setdefault(find(m), []).append(m)
            self._classes = {
                root: tuple(sorted(members, key=lambda m: (m.bit_count(), m)))
                for root, members in classes.items()}
            self._class_of = {m: root for root, members in
                              self._classes.items() for m in members}
        return self._classes

    def conjugacy_class_of(self, Q):
        self.require_object(Q)
        self.conjugacy_classes()
        root = self._class_of[Q.mask]
        return tuple(self.host.subgroup(m) for m in self._classes[root])

    def is_fully_normalized(self, Q):
        nq = self.n_in_carrier(Q).order
        return all(self.n_in_carrier(R).order <= nq
                   for R in self.conjugacy_class_of(Q))

    def is_centric(self, Q):
        """C_S(R) <= R for every F-conjugate R of Q."""
        return all(self.c_in_carrier(R) <= R
                   for R in self.conjugacy_class_of(Q))

    def is_fully_centralized(self, Q):
        cq = self.c_in_carrier(Q).order
        return all(self.c_in_carrier(R).order <= cq
                   for R in self.conjugacy_class_of(Q))

    # -- automorphism groups ----------------------------------------------

    def aut_tuples(self, Q):
        qmask = Q.mask
        return tuple(t for t in self.maps(Q) if mask_of(t) == qmask)

    def aut_s_tuples(self, Q):
        """Aut_S(Q): conjugation maps by carrier elements normalizing Q."""
        return conj_maps(self.host, Q, self.n_in_carrier(Q).elems, Q.mask)

    def inn_tuples(self, Q):
        return conj_maps(self.host, Q, Q.elems, Q.mask)

    def aut_group(self, Q):
        """(FiniteGroup of Aut_F(Q), elements as image tuples, index map)."""
        got = self._autgroup_cache.get(Q.mask)
        if got is None:
            auts = self.aut_tuples(Q)
            got = _group_from_maps(Q, auts, name=f"AutF({Q.order})")
            self._autgroup_cache[Q.mask] = got
        return got

    def out_group(self, Q):
        """(Out_F(Q) group, projection, Aut_F(Q) data) for Q <= S."""
        autg, elems, index = self.aut_group(Q)
        inn = self.inn_tuples(Q)
        try:
            inn_mask = mask_of(index[t] for t in inn)
        except KeyError:
            raise MorphismNotInF("inner automorphisms missing from Aut_F(Q)")
        from .groups import quotient_group

        out, proj = quotient_group(autg, autg.subgroup(inn_mask),
                                   name=f"OutF({Q.order})")
        return out, proj, (autg, elems, index)


def _group_from_maps(Q, tuples, name):
    """Finite group from automorphism tuples under composition.

    The tuples are closed from the identity by right composition with
    generators, each tuple not yet reached becoming the next generator,
    so every tuple is reached and a product that leaves the set is met;
    row a of the table then follows by lookups, a o y = (a o x) o g for
    each tuple y = x o g met first that way."""
    pos = Q.pos_map()
    index = {t: i for i, t in enumerate(tuples)}
    n = len(tuples)
    not_closed = MorphismNotInF(
        "automorphism set is not composition-closed; the input "
        "category violates the axioms")
    ident = index.get(identity_tuple(Q))
    if ident is None:
        raise not_closed
    reached = [ident]
    seen = {ident}
    gens, times, steps = [], [], []
    for cand in range(n):
        if cand in seen:
            continue
        gens.append(tuples[cand])
        times.append([None] * n)
        for x in reached:   # grows while it is walked
            a = tuples[x]
            for g, col in zip(gens, times):
                if col[x] is not None:
                    continue
                # (a o g)(v) = a[g(v)]
                y = index.get(tuple(a[pos[v]] for v in g))
                if y is None:
                    raise not_closed
                col[x] = y
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
                    steps.append((y, x, col))
    table = []
    for a in range(n):
        row = [a] * n
        for y, x, col in steps:
            row[y] = col[row[x]]
        table.append(row)
    if ident != 0:
        table, order_map = identity_first(table, ident)
        tuples = tuple(tuples[k] for k in order_map)
        index = {t: i for i, t in enumerate(tuples)}
    g = FiniteGroup(table, name=name, validate=False)
    return g, tuples, index


# -- public operations -------------------------------------------------------


def realize_fusion(G, p, S=None, name=None):
    """F_S(G) for S a Sylow p-subgroup of G (found canonically if omitted)."""
    canonical = sylow(G, p)
    if S is None:
        S = canonical
    elif S.order != canonical.order:
        raise NotSylow(f"designated subgroup of order {S.order} does not "
                       f"have the full {p}-part {canonical.order}")
    return FusionSystem.realized(G, p, S, name=name)


def hom_set(F, P, R):
    """Hom_F(P,R) as GroupMorphism objects, canonically ordered."""
    F.require_object(P)
    F.require_object(R)
    rmask = R.mask
    out = []
    for t in F.maps(P):
        if mask_of(t) & ~rmask == 0:
            out.append(wrap_tuple(F, P, R, t))
    return out


def wrap_tuple(F, P, R, t):
    return GroupMorphism(P, R, dict(zip(P.elems, t)))


def morphism_tuple(F, phi: GroupMorphism):
    """The raw image tuple of a GroupMorphism, checked to belong to F."""
    P = phi.domain
    F.require_object(P)
    t = phi.as_tuple()
    if t not in F.maps(P):
        raise MorphismNotInF("morphism does not belong to the fusion system")
    return t


def n_phi(F, phi):
    """The extension-control subgroup N_phi for a morphism phi: Q -> S."""
    P = phi.domain if isinstance(phi, GroupMorphism) else phi[0]
    t = morphism_tuple(F, phi) if isinstance(phi, GroupMorphism) else phi[1]
    return _n_phi_tuple(F, P, t)


def _n_phi_tuple(F, P, t):
    """N_phi = {x in N_S(P) : phi c_x phi^-1 in Aut_S(phi P)}.

    An automorphism of phi(P) is fixed by its values on phi(gens P), so x
    lies in N_phi exactly when (phi(x g x^-1))_g, g over the generators of
    P, equals (y phi(g) y^-1)_g for some y in N_S(phi P)."""
    G = F.host
    conj = G.conj
    pos = P.pos_map()
    gens = P.generators()
    tgens = [t[pos[g]] for g in gens]
    img = G.subgroup(mask_of(t))
    keys = {tuple(conj(y, v) for v in tgens)
            for y in F.n_in_carrier(img).elems}
    nq = F.n_in_carrier(P)
    m = 0
    for x in nq.elems:
        if tuple(t[pos[conj(x, g)]] for g in gens) in keys:
            m |= 1 << x
    sub = G.subgroup(m)  # validates subgroup-ness
    floor = F._floors.get(P.mask)
    if floor is None:
        floor = F._floors[P.mask] = P.join(F.c_in_carrier(P))
    if not (floor <= sub and sub <= nq):
        raise InternalInconsistency("Q C_S(Q) <= N_phi <= N_S(Q) violated")
    return sub


class SubgroupProfile(DetailRecord, namedtuple(
        "SubgroupProfile", "Q fully_normalized fully_centralized centric "
                           "radical essential witness")):
    """Classification of one subgroup inside a fusion system; ``witness``
    is a dict that equality and hashing leave out."""

    __slots__ = ()


def classify_subgroup(F, Q) -> SubgroupProfile:
    """Full profile; cross-checks the Sylow characterization of fully
    normalized subgroups and the essential => centric & radical implications."""
    F.require_object(Q)
    cached = F._profiles.get(Q.mask)
    if cached is not None:
        return cached
    witness = {}
    fn = F.is_fully_normalized(Q)
    fc = F.is_fully_centralized(Q)
    if not fn:
        best = max(F.conjugacy_class_of(Q),
                   key=lambda R: (F.n_in_carrier(R).order, -R.mask))
        witness["larger_normalizer_conjugate"] = best

    centric = F.is_centric(Q)

    out, proj, (autg, elems, index) = F.out_group(Q)
    radical = o_p(out, F.p).order == 1

    spe = None
    if centric:
        spe = _strongly_p_embedded(out, F.p)
        if spe is not None:
            witness["strongly_p_embedded"] = spe
    essential = centric and spe is not None

    # Sylow characterization of fully normalized
    aut_s = set(F.aut_s_tuples(Q))
    if not aut_s <= set(elems):
        raise InternalInconsistency("Aut_S(Q) not inside Aut_F(Q)")
    aut_f_order = autg.order
    aut_s_order = len(aut_s)
    sylow_cond = p_part(aut_f_order, F.p) == aut_s_order
    if fn != (fc and sylow_cond):
        raise InternalInconsistency(
            f"fully-normalized characterization failed on {Q!r}")
    if essential and not (centric and radical):
        raise InternalInconsistency("essential subgroup not centric+radical")

    profile = SubgroupProfile(Q=Q, fully_normalized=fn, fully_centralized=fc,
                              centric=centric, radical=radical,
                              essential=essential, witness=witness)
    F._profiles[Q.mask] = profile
    return profile


def _strongly_p_embedded(out, p):
    """A proper subgroup M containing a Sylow p-subgroup P of ``out`` with
    P != phi(P) and phi(P) & P = 1 for every phi outside M, or None.

    A p'-group has a trivial Sylow (condition P != phi(P) fails) and a
    p-group has a normal one, so neither admits such a subgroup.
    """
    pp = p_part(out.order, p)
    if pp == 1:
        return None
    subs = out.subgroups()
    sylows = [H for H in subs if H.order == pp]
    for M in subs:
        if M.order == out.order or M.order % pp != 0:
            continue
        for P in sylows:
            if not P <= M:
                continue
            good = True
            for phi in range(out.order):
                if phi in M:
                    continue
                cm = P.conjugate_mask(phi)
                if cm == P.mask or cm & P.mask != 1:
                    good = False
                    break
            if good:
                return (M, P)
    return None


def essential_subgroups(F):
    """(all essential subgroups, the fully normalized ones), canonical order.
    Every essential subgroup is centric, so an object without a profile yet
    is classified only when it is centric."""
    ess = []
    ess_fn = []
    for Q in F.objects():
        if Q.mask not in F._profiles and not F.is_centric(Q):
            continue
        prof = classify_subgroup(F, Q)
        if prof.essential:
            ess.append(Q)
            if prof.fully_normalized:
                ess_fn.append(Q)
    return ess, ess_fn


# -- axiom verification ------------------------------------------------------


class AxiomReport(namedtuple("AxiomReport", "status witness",
                             defaults=(None,))):
    """``status`` is "verified" or "failed"; ``witness`` is
    (axiom, detail...) for a failure."""

    __slots__ = ()

    def __bool__(self):
        return self.status == VERIFIED


def verify_axioms(F) -> AxiomReport:
    """Exhaustively check the category axioms plus the three fusion-system
    axioms; records the first failure as a witness.  That every morphism
    is an injective homomorphism into the carrier holds on construction:
    realized hom-sets are conjugation maps, and explicit ones are checked
    by ``check_hom_tuples``."""
    host = F.host
    carrier = F.carrier
    report = _verify(F, host, carrier)
    F.saturation_status = report.status if report else ("failed", report.witness)
    return report


def _verify(F, host, carrier):
    objs = F.objects()
    maps_of = {P.mask: F.maps(P) for P in objs}
    # every stored map is an injective homomorphism, and so is every
    # inverse, composite, restriction and conjugation map tested below;
    # such a map is fixed by the images of its domain's generators, so a
    # map lies in a hom-set exactly when its key of those images does
    gens_of = {P.mask: P.generators() for P in objs}
    keys_of = {}
    for P in objs:
        pos = P.pos_map()
        at = [pos[g] for g in gens_of[P.mask]]
        keys_of[P.mask] = {tuple([t[i] for i in at]) for t in maps_of[P.mask]}

    # category axioms: inclusions, inverses of induced isos, composition
    for P in objs:
        keys = keys_of[P.mask]
        if gens_of[P.mask] not in keys:   # the inclusion's key
            return AxiomReport("failed", ("missing-inclusion", P))
        pos = P.pos_map()
        at = [pos[g] for g in gens_of[P.mask]]
        below = [(Q, [pos[g] for g in gens_of[Q.mask]], keys_of[Q.mask])
                 for Q in objs if Q < P]
        # walked as a set, the order the element-wise definition walks in
        for t in set(maps_of[P.mask]):
            img = host.subgroup(mask_of(t))
            inv_key = tuple(P.elems[t.index(h)] for h in gens_of[img.mask])
            if inv_key not in keys_of[img.mask]:
                return AxiomReport("failed", ("missing-inverse", P, t))
            ipos = img.pos_map()
            on_img = [ipos[t[i]] for i in at]
            for u in maps_of[img.mask]:
                if tuple([u[i] for i in on_img]) not in keys:
                    return AxiomReport("failed", ("not-composition-closed",
                                                  P, t, u))
            for Q, on_q, qkeys in below:
                if tuple([t[i] for i in on_q]) not in qkeys:
                    return AxiomReport("failed", ("not-restriction-closed",
                                                  P, t, Q))

    # FS1: all S-conjugation maps present
    conj = host.conj
    for P in objs:
        keys = keys_of[P.mask]
        gens = gens_of[P.mask]
        for u in carrier.elems:
            if tuple([conj(u, g) for g in gens]) not in keys:
                return AxiomReport("failed", ("FS1", P, u))

    # FS2: Aut_S(S) is a Sylow p-subgroup of Aut_F(S)
    aut_f_s = F.aut_tuples(carrier)
    aut_s_s = set(F.aut_s_tuples(carrier))
    if not aut_s_s <= set(aut_f_s):
        return AxiomReport("failed", ("FS2", "Aut_S(S) not contained"))
    if p_part(len(aut_f_s), F.p) != len(aut_s_s):
        return AxiomReport("failed", ("FS2", len(aut_f_s), len(aut_s_s)))

    # FS3: morphisms with fully normalized image extend to N_phi; every
    # morphism is a homomorphism by now, so an extension restricts to t
    # as soon as it agrees with t on the generators of P.  F is closed
    # under composition and restriction and holds every S-conjugation map
    # by now, so for x, y in S the map c_y o t o c_x^-1 on xPx^-1 is in F,
    # its image is fully normalized exactly when t's is, its N_phi is
    # x N_t x^-1, and c_y o psi o c_x^-1 extends it whenever psi extends t.
    # FS3 holds on a whole S-orbit or fails on all of it, so only the first
    # object of each S-class is walked, and in its hom-set only the first
    # map of each left S-orbit (taken on generator keys).  The first
    # failing map of the full walk is the first of its orbit on the first
    # object of its class, so the witness is the same.
    on_s = [conj_tuple(host, g, host.full_subgroup)
            for g in carrier.generators()]
    fully_normalized = {}
    walked = set()   # the S-classes of the objects walked so far
    for P in objs:
        if P.mask in walked:
            continue
        walked |= _orbit(P.mask, on_s, _move_mask)
        pos = P.pos_map()
        gens = P.generators()
        at = [pos[g] for g in gens]
        checked = set()   # the left S-orbits of the keys checked so far
        for t in maps_of[P.mask]:
            m = mask_of(t)
            fn = fully_normalized.get(m)
            if fn is None:
                fn = fully_normalized[m] = F.is_fully_normalized(
                    host.subgroup(m))
            if not fn:
                continue
            key = tuple([t[i] for i in at])
            if key in checked:
                continue
            checked |= _orbit(key, on_s, _move_key)
            try:
                nphi = _n_phi_tuple(F, P, t)
            except InternalInconsistency:
                return AxiomReport("failed", ("FS3-nphi", P, t))
            if nphi.mask == P.mask:
                continue
            npos = nphi.pos_map()
            on_p = [npos[g] for g in gens]
            if not any(tuple([ext[i] for i in on_p]) == key
                       for ext in maps_of[nphi.mask]):
                return AxiomReport("failed", ("FS3", P, t, nphi))

    return AxiomReport(VERIFIED)


def _orbit(item, perms, move):
    """The orbit of ``item`` under the group the permutations ``perms``
    generate, walked breadth-first; ``move(a, item)`` applies one."""
    orbit = {item}
    todo = [item]
    for x in todo:   # grows while it is walked
        for a in perms:
            y = move(a, x)
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def _move_mask(a, m):
    return mask_of(a[x] for x in bits(m))


def _move_key(a, key):
    return tuple([a[v] for v in key])


# -- Alperin decomposition ----------------------------------------------------


class AlperinDecomposition(namedtuple(
        "AlperinDecomposition",
        "source subgroup_chain essentials automorphisms")):
    """phi written as restrictions of essential automorphisms followed by
    the restriction of one maximal automorphism.

    ``subgroup_chain`` is Q_0, ..., Q_{n+1}; ``essentials`` E_1..E_n carry
    ``automorphisms`` psi_1..psi_n, and the final entry of ``automorphisms``
    is the maximal automorphism psi_{n+1} on S.
    """

    __slots__ = ()

    @property
    def n_steps(self):
        return len(self.essentials)

    def recompose(self):
        """Apply the chain to every domain element; must reproduce source."""
        q0 = self.subgroup_chain[0]
        images = list(q0.elems)
        for k, psi in enumerate(self.automorphisms):
            dom = psi.domain
            images = [psi(x) for x in images]
            target = self.subgroup_chain[k + 1]
            if mask_of(images) != target.mask:
                raise InternalInconsistency(
                    f"Alperin step {k} maps the chain onto {mask_of(images):x}, "
                    f"not onto the chain member {target.mask:x}")
        return dict(zip(q0.elems, images))


def alperin_decompose(F, phi) -> AlperinDecomposition:
    """BFS over restrictions of fully normalized essential automorphisms;
    the reported step count is the minimum the search found."""
    P = phi.domain
    t_goal = morphism_tuple(F, phi)
    host = F.host
    _, ess_fn = essential_subgroups(F)
    ess_auts = [(E, F.aut_tuples(E)) for E in ess_fn]
    s_auts = F.aut_tuples(F.carrier)
    carrier = F.carrier

    start = identity_tuple(P)
    seen = {start: None}  # tuple -> (prev tuple, E, aut tuple) or None
    queue = [start]
    while queue:
        nxt = []
        for cur in queue:
            final = _maximal_finish(host, carrier, P, cur, t_goal, s_auts)
            if final is not None:
                return _build_decomposition(F, phi, P, cur, seen, final)
            cur_mask = mask_of(cur)
            for E, auts in ess_auts:
                if cur_mask & ~E.mask:
                    continue
                pos = E.pos_map()
                for a in auts:
                    new = tuple(a[pos[v]] for v in cur)
                    if new not in seen:
                        seen[new] = (cur, E, a)
                        nxt.append(new)
        queue = nxt
    raise NotGenerated("morphism is not generated by essential and maximal "
                       "automorphisms; the input category is not a fusion "
                       "system")


def _maximal_finish(host, carrier, P, cur, t_goal, s_auts):
    """An Aut_F(S) element finishing cur into t_goal, if one exists."""
    pos = carrier.pos_map()
    for a in s_auts:
        if all(a[pos[v]] == w for v, w in zip(cur, t_goal)):
            return a
    return None


def _build_decomposition(F, phi, P, cur, seen, final):
    host = F.host
    steps = []
    state = cur
    while seen[state] is not None:
        prev, E, a = seen[state]
        steps.append((prev, E, a))
        state = prev
    steps.reverse()
    chain = [P]
    essentials = []
    autos = []
    running = identity_tuple(P)
    for prev, E, a in steps:
        pos = E.pos_map()
        running = tuple(a[pos[v]] for v in running)
        chain.append(host.subgroup(mask_of(running)))
        essentials.append(E)
        autos.append(wrap_tuple(F, E, E, a))
    carrier = F.carrier
    pos = carrier.pos_map()
    running = tuple(final[pos[v]] for v in running)
    chain.append(host.subgroup(mask_of(running)))
    autos.append(wrap_tuple(F, carrier, carrier, final))
    deco = AlperinDecomposition(source=phi, subgroup_chain=tuple(chain),
                                essentials=tuple(essentials),
                                automorphisms=tuple(autos))
    got = deco.recompose()
    want = dict(zip(P.elems, morphism_tuple(F, phi)))
    if got != want:
        x = next(x for x in P.elems if got[x] != want[x])
        raise InternalInconsistency(
            f"Alperin recomposition on P = {P.mask:x} sends {x} to {got[x]}, "
            f"the morphism sends it to {want[x]}")
    return deco


def fusion_equal(F1, F2):
    """Hom-set equality on all subgroup pairs (same host table, same carrier)."""
    if F1.host is not F2.host:
        if F1.host.table_hash() != F2.host.table_hash():
            return False
    if F1.carrier.mask != F2.carrier.mask:
        return False
    for P in F1.objects():
        P2 = F2.host.subgroup(P.mask)
        if set(F1.maps(P)) != set(F2.maps(P2)):
            return False
    return True
