"""Fusion systems on a finite p-group and their subgroup classification.

A system is carried by a subgroup S of a host group and is one of two
kinds: realized systems compute hom-sets lazily from a conjugation source
(the ambient subgroup), explicit systems store every hom-set and have no
ambient.  Morphisms are held extensionally as image tuples aligned with
the sorted domain elements, so both kinds share one code path everywhere
downstream; the F-class of an object is read off its own hom-set.
"""

from collections import namedtuple
from functools import partial

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
    compose_perms,
    derived_group,
    is_hom_tuple,
    kept,
    left_cosets,
    mask_of,
    move_mask,
    o_p,
    orbit,
    p_part,
    quotient_group,
    sylow,
    table_along_tree,
)

UNCHECKED = "unchecked"
VERIFIED = "verified"


# -- raw morphism helpers (image tuples over sorted domain elements) --------


def identity_tuple(P: Subgroup):
    return P.elems


def conj_tuple(G: FiniteGroup, g: int, P: Subgroup):
    return G.conj_images(g, P.elems)


def conj_maps(G: FiniteGroup, P: Subgroup, A: Subgroup, C: Subgroup, into):
    """The distinct maps x -> g x g^-1 on P, for g in A, that send P into
    the subgroup mask ``into``, sorted: one tuple per distinct key
    (``Subgroup.key``).  C <= A centralizes P, so g is walked over the
    least members of the left cosets of C in A (``left_cosets``)."""
    gens = P.generators()
    seen = set()
    out = []
    for g, _ in left_cosets(G, A, C):
        key = G.conj_images(g, gens)
        if key in seen:
            continue
        seen.add(key)
        if all(into >> y & 1 for y in key):
            out.append(conj_tuple(G, g, P))
    out.sort()
    return tuple(out)


def inverse_tuple(P: Subgroup, t: tuple):
    """The inverse of the map t on P, over its image's sorted elements."""
    return tuple([x for _, x in sorted(zip(t, P.elems))])


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


class _Memos:
    """Every fact kept on a fusion system, shared by all its names."""

    def __init__(self, status, maps):
        self.status = status   # FusionSystem.saturation_status
        self.maps = maps   # hom-sets, by domain mask
        self.c_in_ambient = None   # C_A(S), whose cosets the hom-sets walk
        self.axioms = None   # verify_axioms
        self.essentials = None
        self.classes = {}
        self.profiles = {}
        self.normalizers = {}
        self.centralizers = {}
        self.stabilizing = {}   # stabilizing, by (D.mask, Q.mask)
        self.autgroups = {}
        self.outgroups = {}   # out_group, by Q.mask
        self.alperin = {}   # alperin_decompose's search, by P.mask
        self.models = {}   # subsystems.model_group, by Q.mask
        self.normal = {}   # subsystems.is_normal_in_F, by W.mask
        self.subsystems = {}   # subsystems._kept_subsystem, by (Q.mask, kind)


class FusionSystem:
    """A category on the subgroups of a carrier S inside a host group.

    What is computed on it is kept in ``_memo``.  The name is a label
    that chooses no fact: the names of one conjugation system share one
    memo (see ``conjugation``)."""

    def __init__(self, host, p, carrier, ambient=None, explicit=None,
                 name=None):
        if (ambient is None) == (explicit is None):
            raise ValueError("a system needs an ambient subgroup or "
                             "explicit hom-sets, not both")
        self.host = host
        self.p = p
        self.carrier = carrier
        self.ambient = ambient
        self.name = name or f"F_{carrier.order}({host.name})"
        if ambient is not None and not carrier <= ambient:
            raise ObjectOutsideS("carrier must sit inside the ambient subgroup")
        if explicit is not None:
            check_hom_tuples(host, carrier, explicit)
        # F_S(G) for a Sylow p-subgroup S of G is saturated
        self._memo = _Memos(
            VERIFIED if ambient is not None
            and carrier.order == p_part(ambient.order, p) else UNCHECKED,
            {} if explicit is None else dict(explicit))

    @property
    def saturation_status(self):
        return self._memo.status

    @property
    def _maps_cache(self):
        """The hom-sets computed so far, by domain mask (the benchmark's
        layer counters read them)."""
        return self._memo.maps

    # -- constructors ---------------------------------------------------

    @classmethod
    def conjugation(cls, host, p, carrier, ambient, name=None):
        """The system on ``carrier`` whose morphisms are conjugations by
        ``ambient``.  Every fact computed on it (hom-sets, profiles,
        normalizers, models, normality verdicts) is a function of (host, p,
        carrier, ambient), so one system is built per such key and kept on
        the host, and each fact is computed once however many callers ask.
        A call under another name gets a view of that system: F_S(S)|D8
        and F_8(D8) share every memo, and each prints its own name."""
        # keyed in two levels, the key and then the name, so not ``kept``
        key = (p, carrier.mask, ambient.mask)
        names = host._systems.get(key)
        if names is None:
            F = cls(host, p, carrier, ambient=ambient)
            names = host._systems[key] = {F.name: F}
        name = name or f"F_{carrier.order}({host.name})"
        F = names.get(name)
        if F is None:
            F = names[name] = next(iter(names.values()))._named(name)
        return F

    def _named(self, name):
        """This system under another name, sharing every memo."""
        view = object.__new__(type(self))
        view.__dict__.update(self.__dict__, name=name)
        return view

    @classmethod
    def realized(cls, G, p, S):
        return cls.conjugation(G, p, S, G.full_subgroup)

    @classmethod
    def inner(cls, S, p):
        """F_S(S): conjugation by S only."""
        return cls.conjugation(S.parent, p, S, S,
                               name=f"F_S(S)|{S.parent.name}")

    @classmethod
    def explicit_system(cls, host, p, carrier, maps_by_domain, name=None):
        full = dict(maps_by_domain)
        for P in carrier.subgroups_within():
            full.setdefault(P.mask, (identity_tuple(P),))
        return cls(host, p, carrier, explicit=full, name=name)

    @classmethod
    def _from_checked_maps(cls, host, p, carrier, maps_by_domain, name):
        """The explicit system on hom-sets, one per object, whose maps are
        already known to be injective homomorphisms into the carrier, so
        they are not checked again."""
        F = cls(host, p, carrier, explicit={}, name=name)
        F._memo.maps.update(maps_by_domain)
        return F

    def is_realized(self):
        return self.ambient is not None

    def __repr__(self):
        kind = "realized" if self.is_realized() else "explicit"
        return f"FusionSystem({self.name}, p={self.p}, {kind})"

    # -- objects and hom-sets --------------------------------------------

    def objects(self):
        """The carrier's lattice, the tuple the carrier keeps."""
        return self.carrier.subgroups_within()

    def require_object(self, P):
        if P.parent is not self.host or not P <= self.carrier:
            raise ObjectOutsideS(f"{P!r} is not a subgroup of the carrier")

    def maps(self, P):
        """All morphisms from P into the carrier, as sorted image tuples."""
        self.require_object(P)
        return kept(self._memo.maps, P.mask, _conjugation_maps, self, P)

    # -- conjugacy, normalizers ------------------------------------------

    def n_in_carrier(self, Q):
        """N_S(Q), computed once per object."""
        return kept(self._memo.normalizers, Q.mask, Q.normalizer_in,
                    self.carrier)

    def c_in_carrier(self, Q):
        """C_S(Q), computed once per object."""
        return kept(self._memo.centralizers, Q.mask, Q.centralizer_in,
                    self.carrier)

    def conjugacy_class_of(self, Q):
        """The images of Hom_F(Q, S), by mask, kept per object.  On a
        category they are Q's class under F-isomorphism: inverses make the
        relation symmetric and composition makes it transitive."""
        self.require_object(Q)
        return kept(self._memo.classes, Q.mask, _f_class, self, Q)

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

    def stabilizing(self, D, Q):
        """The maps of Hom_F(D, S) that map Q <= D onto Q, as sorted image
        tuples, filtered once per (D, Q)."""
        self.require_object(D)
        if Q.parent is not self.host or not Q <= D:
            raise ObjectOutsideS(f"{Q!r} is not a subgroup of the domain")
        return kept(self._memo.stabilizing, (D.mask, Q.mask), _stabilizing,
                    self, D, Q)

    def aut_tuples(self, Q):
        """Aut_F(Q) as sorted image tuples: the maps on Q onto Q."""
        return self.stabilizing(Q, Q)

    def aut_s_tuples(self, Q):
        """Aut_S(Q): conjugation maps by carrier elements normalizing Q,
        one per left coset of C_S(Q) in N_S(Q)."""
        return conj_maps(self.host, Q, self.n_in_carrier(Q),
                         self.c_in_carrier(Q), Q.mask)

    def aut_group(self, Q):
        """(FiniteGroup of Aut_F(Q), elements as image tuples, index map)."""
        return kept(self._memo.autgroups, Q.mask, _aut_group, self, Q)

    def out_group(self, Q):
        """(Out_F(Q) group, projection, Aut_F(Q) data) for Q <= S, built
        once per object.  Inn(Q) is closed in Aut_F(Q) from the
        conjugations by Q's generators."""
        return kept(self._memo.outgroups, Q.mask, _out_group, self, Q)


def _conjugation_maps(F, P):
    """Hom_F(P, S) of a realized system: conjugation by the ambient A, one
    map per left coset of C_A(S) (kept on F), which centralizes P."""
    A = F.ambient
    if A is None:
        raise ObjectOutsideS("explicit system lacks hom-sets for this "
                             "domain; carrier mismatch?")
    memo = F._memo
    if memo.c_in_ambient is None:
        memo.c_in_ambient = F.carrier.centralizer_in(A)
    return conj_maps(F.host, P, A, memo.c_in_ambient, F.carrier.mask)


def _f_class(F, Q):
    return tuple(map(F.host.subgroup, sorted(set(map(mask_of, F.maps(Q))))))


def _aut_group(F, Q):
    return _group_from_maps(Q, F.aut_tuples(Q), name=f"AutF({Q.order})")


def _out_group(F, Q):
    autg, elems, index = F.aut_group(Q)
    try:
        inn = [index[conj_tuple(F.host, g, Q)] for g in Q.generators()]
    except KeyError:
        raise MorphismNotInF("inner automorphisms missing from Aut_F(Q)")
    inn_group = autg.subgroup(autg.closure_mask(inn))
    out, proj = quotient_group(autg, inn_group, name=f"OutF({Q.order})")
    return out, proj, (autg, elems, index)


def _stabilizing(F, D, Q):
    """The maps of Hom_F(D, S) that map Q onto Q: a morphism is injective,
    so it maps Q onto Q as soon as it maps Q's generators into Q."""
    on_q, qmask = D.reader(Q.generators()), Q.mask
    return tuple(t for t in F.maps(D) if all(qmask >> y & 1 for y in on_q(t)))


def _group_from_maps(Q, tuples, name):
    """Finite group from automorphism tuples under composition, with the
    identity first and the other tuples in their given order.

    The tuples are closed from the identity by right composition with
    generators, each tuple not yet reached becoming the next generator,
    so every tuple is reached and a product that leaves the set is met;
    ``table_along_tree`` then fills the table along the closure's tree."""
    not_closed = MorphismNotInF(
        "automorphism set is not composition-closed; the input "
        "category violates the axioms")
    ident = identity_tuple(Q)
    if ident not in tuples:
        raise not_closed
    tuples = (ident, *(t for t in tuples if t != ident))
    index = {t: i for i, t in enumerate(tuples)}
    n = len(tuples)
    reached, seen = [0], {0}
    gen_indices, times, steps, after = [], [], [], []
    for cand in range(1, n):
        if cand in seen:
            continue
        gen_indices.append(cand)
        times.append([None] * n)
        after.append(Q.reader(tuples[cand]))   # a -> a o g
        for x in reached:   # grows while it is walked
            a = tuples[x]
            for k, col in enumerate(times):
                if col[x] is not None:
                    continue
                y = index.get(after[k](a))
                if y is None:
                    raise not_closed
                col[x] = y
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
                    steps.append((y, x, k))
    table = table_along_tree(gen_indices, times, steps)
    return derived_group(table, name), tuples, index


# -- public operations -------------------------------------------------------


def realize_fusion(G, p, S=None):
    """F_S(G) for S a Sylow p-subgroup of G (found canonically if omitted)."""
    canonical = sylow(G, p)
    if S is None:
        S = canonical
    elif S.order != canonical.order:
        raise NotSylow(f"designated subgroup of order {S.order} does not "
                       f"have the full {p}-part {canonical.order}")
    return FusionSystem.realized(G, p, S)


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
    """The map t of F on P as a GroupMorphism P -> R, built with ``_make``
    without a homomorphism check: F's maps were checked when F got them
    (conjugation maps are homomorphisms; ``check_hom_tuples``)."""
    return GroupMorphism._make((P, R, dict(zip(P.elems, t))))


def morphism_tuple(F, phi: GroupMorphism):
    """The raw image tuple of a GroupMorphism, checked to belong to F."""
    P = phi.domain
    F.require_object(P)
    t = phi.as_tuple()
    if t not in F.maps(P):
        raise MorphismNotInF("morphism does not belong to the fusion system")
    return t


def n_phi(F, phi: GroupMorphism):
    """The extension-control subgroup N_phi for a morphism phi: Q -> S."""
    return _n_phi_tuple(F, phi.domain, morphism_tuple(F, phi))


def _n_phi_tuple(F, P, t):
    """N_phi = {x in N_S(P) : phi c_x phi^-1 in Aut_S(phi P)}.

    An automorphism of phi(P) is fixed by its values on phi(gens P), so x
    lies in N_phi exactly when (phi(x g x^-1))_g, g over the generators of
    P, equals (y phi(g) y^-1)_g for some y in N_S(phi P).  Both conjugations
    depend only on the left coset of the centralizer, so y is walked over
    N_S(phi P)/C_S(phi P) and x over N_S(P)/C_S(P), each x deciding its
    whole coset."""
    G = F.host
    gens = P.generators()
    tgens = P.key(t)
    img = G.subgroup(mask_of(t))
    keys = {G.conj_images(y, tgens) for y, _ in
            left_cosets(G, F.n_in_carrier(img), F.c_in_carrier(img))}
    nq = F.n_in_carrier(P)
    m = 0
    for x, coset in left_cosets(G, nq, F.c_in_carrier(P)):
        if P.reader(G.conj_images(x, gens))(t) in keys:
            m |= coset
    sub = G.subgroup(m)  # validates subgroup-ness
    floor = P.join(F.c_in_carrier(P))   # both kept: on F and on the host
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
    return kept(F._memo.profiles, Q.mask, _classify_subgroup, F, Q)


def _classify_subgroup(F, Q):
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

    return SubgroupProfile(Q=Q, fully_normalized=fn, fully_centralized=fc,
                           centric=centric, radical=radical,
                           essential=essential, witness=witness)


def _strongly_p_embedded(out, p):
    """(M, P) for P = sylow(out, p) and M = <N(T) : 1 != T <= P> when M is
    proper, or None.  M is then the least strongly p-embedded subgroup
    containing P: P & P^g = 1 for every g outside M (P^g = gPg^-1).

    Any strongly p-embedded H containing P contains M: g in N(T) gives
    1 != T <= P & P^g, so g lies in H.  If M is proper, it is strongly
    p-embedded.  Take g with A = P & P^(g^-1) != 1.  Alperin's fusion
    theorem writes c_g on A as a product of conjugations by elements of
    N(P) and of normalizers of nontrivial subgroups of P, all inside M.
    So g is such a product times an element of C(gAg^-1) <= N(gAg^-1)
    <= M, and g lies in M.

    Both parts together give M = <g : P & P^g != 1>, which is built here
    with one conjugation of P per element.  A p'-group has P = 1, and a
    p-group has M = P = out, so neither has such a subgroup.
    """
    P = sylow(out, p)
    if P.order == 1:
        return None
    meets = [g for g in range(out.order) if P.conjugate_mask(g) & P.mask != 1]
    M = out.subgroup(out.closure_mask(meets))
    return None if M.order == out.order else (M, P)


def essential_subgroups(F):
    """(all essential subgroups, the fully normalized ones), canonical order,
    found once per system and kept on F."""
    if F._memo.essentials is None:
        F._memo.essentials = _essential_subgroups(F)
    return F._memo.essentials


def centric_objects(F):
    """F's centric objects, in canonical order: the essential subgroups
    and the model range lie among them."""
    return [Q for Q in F.objects() if F.is_centric(Q)]


def _essential_subgroups(F):
    """Every essential subgroup is centric, so only the centric objects
    are classified."""
    ess = []
    ess_fn = []
    for Q in centric_objects(F):
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
    by ``check_hom_tuples``.  The report is computed once per system and
    kept on F, and ``saturation_status`` is set when it is computed."""
    memo = F._memo
    if memo.axioms is None:
        report = memo.axioms = _verify(F, F.host, F.carrier)
        memo.status = (report.status if report
                       else ("failed", report.witness))
    return memo.axioms


def _verify(F, host, carrier):
    objs = F.objects()
    maps_of = {P.mask: F.maps(P) for P in objs}
    keys_of = _generator_keys(objs, maps_of)
    for witness, *_ in _category_gaps(host, objs, maps_of, keys_of):
        return AxiomReport("failed", witness)

    # FS1: all S-conjugation maps present.  Z(S) centralizes every P, so
    # u is walked over the least members of the cosets of Z(S) in S: the
    # least failing u of S is the least member of its coset.
    conjugators = [u for u, _ in left_cosets(host, carrier, carrier.center())]
    for P in objs:
        keys = keys_of[P.mask]
        gens = P.generators()
        for u in conjugators:
            if host.conj_images(u, gens) not in keys:
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
        walked.update(orbit(P.mask, on_s, move_mask))
        checked = set()   # the left S-orbits of the keys checked so far
        for t in maps_of[P.mask]:
            m = mask_of(t)
            if not kept(fully_normalized, m, F.is_fully_normalized,
                        host.subgroup(m)):
                continue
            key = P.key(t)
            if key in checked:
                continue
            checked.update(orbit(key, on_s, compose_perms))
            try:
                nphi = _n_phi_tuple(F, P, t)
            except InternalInconsistency:
                return AxiomReport("failed", ("FS3-nphi", P, t))
            if nphi.mask == P.mask:
                continue
            on_p = nphi.reader(P.generators())
            if not any(on_p(ext) == key for ext in maps_of[nphi.mask]):
                return AxiomReport("failed", ("FS3", P, t, nphi))

    return AxiomReport(VERIFIED)


def _generator_keys(objs, maps_of):
    """The set of ``Subgroup.key`` values of each object's maps, by mask.
    Every map that the axioms test or ``category_closure`` adds is an
    injective homomorphism (a stored map, or an inverse, composite,
    restriction or conjugation map of such), so a map lies in a hom-set
    exactly when its key does."""
    return {P.mask: set(map(P.key, maps_of[P.mask])) for P in objs}


def _category_gaps(host, objs, maps_of, keys_of):
    """Yield (witness, target mask, key, build) for each map that the
    category axioms ask for and the hom-sets ``maps_of`` lack: per object
    P its inclusion, then per map t on P the inverse of t, each composite
    u o t and each restriction of t below P.  ``witness`` is the failure
    ``verify_axioms`` reports and ``build()`` the missing map.  Maps and
    keys are read as the walk reaches them, so a caller that adds a gap
    before the walk resumes is not told of it again."""
    for P in objs:
        keys = keys_of[P.mask]
        gens = P.generators()
        if gens not in keys:   # the inclusion's key
            yield (("missing-inclusion", P), P.mask, gens,
                   partial(identity_tuple, P))
        below = [(Q, P.reader(Q.generators()), keys_of[Q.mask])
                 for Q in objs if Q < P]
        # walked as a set, the order the element-wise definition walks in
        for t in set(maps_of[P.mask]):
            img = host.subgroup(mask_of(t))
            inv_key = tuple([P.elems[t.index(h)] for h in img.generators()])
            if inv_key not in keys_of[img.mask]:
                yield (("missing-inverse", P, t), img.mask, inv_key,
                       partial(inverse_tuple, P, t))
            after_t = img.reader(P.key(t))   # u -> the key of u o t
            for u in tuple(maps_of[img.mask]):   # a closure may add to it
                key = after_t(u)
                if key not in keys:
                    yield (("not-composition-closed", P, t, u), P.mask, key,
                           partial(img.reader(t), u))
            for Q, on_q, qkeys in below:
                key = on_q(t)
                if key not in qkeys:
                    yield (("not-restriction-closed", P, t, Q), Q.mask, key,
                           partial(P.reader(Q.elems), t))


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
    the reported step count is the minimum the search found.  The search
    does not depend on phi, so it runs once per domain and is kept on F:
    the first call on a domain walks until every map on it has a finish,
    even for id_P, and F keeps every state reached (one generator key
    each) beside the finishes."""
    P = phi.domain
    t_goal = morphism_tuple(F, phi)
    seen, finishes = kept(F._memo.alperin, P.mask, _alperin_search, F, P)
    got = finishes.get(P.key(t_goal))
    if got is None:
        raise NotGenerated("morphism is not generated by essential and "
                           "maximal automorphisms; the input category is "
                           "not a fusion system")
    cur, final = got
    return _build_decomposition(F, phi, P, t_goal, cur, seen, final)


def _alperin_search(F, P):
    """(seen, finishes): the breadth-first search from id_P over the
    restrictions of fully normalized essential automorphisms, walked once
    for every goal on P.

    A state is a morphism on P, held by its ``Subgroup.key``, and
    ``seen`` maps it to (previous state, E, automorphism of E), or to None
    for id_P.  ``finishes`` maps the key of each map of Hom_F(P, S) that
    some state followed by some a in Aut_F(S) gives to the first such
    (state, a), in BFS order and then in Aut_F(S) order: where a search
    for that map alone stops.  The walk stops once every map has one."""
    _, ess_fn = essential_subgroups(F)
    ess_auts = [(E.mask, E, F.aut_tuples(E)) for E in ess_fn]
    S = F.carrier
    s_auts = F.aut_tuples(S)
    todo = set(map(P.key, F.maps(P)))
    start = P.generators()
    seen = {start: None}
    finishes = {}
    queue = [start]
    for cur in queue:   # grows while it is walked
        after = S.reader(cur)   # a -> the key of a o cur
        for a in s_auts:
            finish = after(a)
            if finish in todo:
                todo.remove(finish)
                finishes[finish] = (cur, a)
        if not todo:
            break
        for emask, E, auts in ess_auts:
            if not all(emask >> v & 1 for v in cur):
                continue
            after = E.reader(cur)
            for a in auts:
                new = after(a)
                if new not in seen:
                    seen[new] = (cur, E, a)
                    queue.append(new)
    return seen, finishes


def _build_decomposition(F, phi, P, t_goal, cur, seen, final):
    host = F.host
    steps = []
    state = cur
    while seen[state] is not None:
        prev, E, a = seen[state]
        steps.append((E, a))
        state = prev
    steps.reverse()
    chain = [P]
    essentials = []
    autos = []
    running = identity_tuple(P)
    for E, a in steps:
        running = E.reader(running)(a)
        chain.append(host.subgroup(mask_of(running)))
        essentials.append(E)
        autos.append(wrap_tuple(F, E, E, a))
    carrier = F.carrier
    running = carrier.reader(running)(final)
    chain.append(host.subgroup(mask_of(running)))
    autos.append(wrap_tuple(F, carrier, carrier, final))
    deco = AlperinDecomposition(source=phi, subgroup_chain=tuple(chain),
                                essentials=tuple(essentials),
                                automorphisms=tuple(autos))
    got = deco.recompose()
    want = dict(zip(P.elems, t_goal))
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
