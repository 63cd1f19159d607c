"""Subsystems and quotients of a fusion system.

Normalizer / centralizer / mixed / product subsystems and quotients are
computed from their defining rules over the parent's hom-sets.  A subsystem
of an explicit system is explicit.  A subsystem of a realized system is the
interned system of conjugation by its own conjugation source (N_A(Q),
C_A(Q)N_S(Q), ..., N_A(Q)/Q for a quotient), after the hom-sets of the
defining rule are checked against it, so it shares that system's memos.
"""

from collections import namedtuple

from .errors import (
    CarrierMismatch,
    ChainConditionViolated,
    HypothesisViolated,
    InternalInconsistency,
    ModelValidationFailed,
    NotCentric,
    NotNormalInF,
)
from .fusion import (
    UNCHECKED,
    VERIFIED,
    FusionSystem,
    _category_gaps,
    _generator_keys,
    check_hom_tuples,
    classify_subgroup,
    conj_tuple,
    essential_subgroups,
    identity_tuple,
    mask_of,
    verify_axioms,
    wrap_tuple,
)
from .groups import (
    bits,
    is_isomorphic,
    kept,
    left_cosets,
    o_p_prime,
    p_part,
    quotient_group,
)
from .pgroups import is_characteristic


# -- normality in F ----------------------------------------------------------


def is_normal_in_F(F, W):
    """Is N_F(W) = F?  (bool, counterexample).

    W is normal in F exactly when every morphism of F on every object R
    extends to a morphism on WR that maps W onto W, which is the rule of
    N_F(W) (``_rule_extensions``) giving F's hom-sets.  W must be normal
    in the carrier; otherwise the answer is immediately False (the
    normalizer system would live on a smaller carrier).  The
    counterexample is the least unextended morphism on the first object
    that has one.  The verdict is computed once per (F, W) and kept on F.
    """
    F.require_object(W)
    return kept(F._memo.normal, W.mask, _normal_in_F, F, W)


def _normal_in_F(F, W):
    S = F.carrier
    if not W.is_normal_in(S):
        u = next(u for u in S.elems if W.conjugate_mask(u) != W.mask)
        return False, wrap_tuple(F, W, S, conj_tuple(F.host, u, W))
    if W.order == 1:
        return True, None
    for R, extended in _rule_extensions(F, W, S, None):
        key = R.key
        t = next((t for t in F.maps(R) if key(t) not in extended), None)
        if t is not None:
            return False, wrap_tuple(F, R, S, t)
    return True, None


def _require_saturated(F, what):
    """Verify F's axioms if they are unchecked; refuse an F they fail."""
    if F.saturation_status == UNCHECKED:
        verify_axioms(F)
    if F.saturation_status != VERIFIED:
        raise HypothesisViolated(f"{what} needs a saturated fusion system")


def o_p_of_F(F):
    """The largest subgroup normal in a saturated F: the largest one inside
    S and the fully normalized essentials that their F-automorphisms all map
    onto itself, reached by intersecting with images until stable."""
    _require_saturated(F, "O_p(F)")
    alperin = (*essential_subgroups(F)[1], F.carrier)
    m = F.carrier.mask
    for P in alperin:
        m &= P.mask
    changed = True
    while changed:
        changed = False
        for P in alperin:
            for a in F.aut_tuples(P):
                image = mask_of(P.reader(bits(m))(a))
                if image != m:
                    m &= image
                    changed = True
    core = F.host.subgroup(m)
    ok, _ = is_normal_in_F(F, core)
    if not ok:
        raise InternalInconsistency(
            f"the fixpoint O_p(F) = {m:#x} is not normal in F")
    return core


# -- normalizer / centralizer / mixed / product subsystems -------------------


def normalizer_system(F, Q):
    """N_F(Q) on N_S(Q): morphisms that extend to QR -> QT acting on Q as an
    F-automorphism.  Axiom-verified when Q is fully normalized."""
    return _kept_subsystem(F, Q, "normalizer")


def centralizer_like_system(F, Q, kind):
    """C_F(Q) on C_S(Q), N_S(Q)C_F(Q) on N_S(Q), or S C_F(Q) on S.

    The extension rule fixes how the extended morphism may act on Q:
    identically (centralizer), as conjugation by N_S(Q) (mixed), or as
    conjugation by S (product; requires Q normal in F).  The first two are
    axiom-verified when Q is fully centralized.
    """
    return _kept_subsystem(F, Q, kind)


def _kept_subsystem(F, Q, kind):
    """The subsystem of a kind at Q, built once per (F, Q, kind) and kept
    on F."""
    F.require_object(Q)
    return kept(F._memo.subsystems, (Q.mask, kind), _subsystem, F, Q, kind)


def _subsystem_kind(F, Q, kind):
    """(carrier, allowed, source) of a subsystem kind at Q: the extended
    morphisms may act on Q as a member of ``allowed``, held by its images
    of Q's generators (None: any F-automorphism), and when F is realized
    by A the subsystem is realized by ``source``: N_A(Q), or C_A(Q) joined
    with the subgroup (1, N_S(Q) or S) whose conjugations make up
    ``allowed``.  ``source`` is None for an explicit F."""
    A = F.ambient
    if kind == "normalizer":
        carrier = F.n_in_carrier(Q)
        return carrier, None, None if A is None else Q.normalizer_in(A)
    if kind == "centralizer":
        carrier, by = F.c_in_carrier(Q), F.host.trivial_subgroup
    elif kind == "mixed":
        carrier = by = F.n_in_carrier(Q)
    elif kind == "product":
        ok, _ = is_normal_in_F(F, Q)
        if not ok:
            raise NotNormalInF("product system requires Q normal in F")
        carrier = by = F.carrier
    else:
        raise ValueError(f"unknown kind {kind!r}")
    # conjugation by g acts on Q as by every member of g C_by(Q)
    G, qgens = F.host, Q.generators()
    cent = G.subgroup(by.mask & F.c_in_carrier(Q).mask)
    allowed = {G.conj_images(g, qgens) for g, _ in left_cosets(G, by, cent)}
    return carrier, allowed, (None if A is None
                              else Q.centralizer_in(A).join(by))


def _subsystem(F, Q, kind):
    carrier, allowed, source = _subsystem_kind(F, Q, kind)
    maps_by_domain = _rule_hom_sets(F, Q, carrier, allowed)
    sub = _from_rule(F.host, F.p, carrier, maps_by_domain, source,
                     f"{kind}_{F.name}(|Q|={Q.order})")
    if (F.is_fully_normalized(Q) if kind == "normalizer"
            else kind != "product" and F.is_fully_centralized(Q)):
        report = verify_axioms(sub)
        if not report:
            raise InternalInconsistency(
                f"the {kind} system at Q = {Q.mask:x} failed the axioms: "
                f"{report.witness}")
    return sub


def _rule_extensions(F, Q, carrier, allowed):
    """The extension rule at Q: for each R of the carrier in canonical
    order, (R, {generator key on R: a map on QR}) over the maps on QR
    that map Q onto Q (``FusionSystem.stabilizing``) and, unless
    ``allowed`` is None, act on Q as a member of ``allowed``.  Maps on QR
    with one key on R have one restriction to R, so one of them stands
    for it; the maps on QR are narrowed once per QR."""
    qgens = Q.generators()
    narrowed = {}   # the maps on QR the rule keeps, by QR.mask
    for R in carrier.subgroups_within():
        QR = Q.join(R)
        exts = narrowed.get(QR.mask)
        if exts is None:
            exts = F.stabilizing(QR, Q)
            if allowed is not None:
                on_q = QR.reader(qgens)
                exts = [ext for ext in exts if on_q(ext) in allowed]
            narrowed[QR.mask] = exts
        yield R, dict(zip(map(QR.reader(R.generators()), exts), exts))


def _rule_hom_sets(F, Q, carrier, allowed):
    """The hom-sets of an extension rule, by domain mask: for each R in
    the carrier, the restrictions to R of the maps that
    ``_rule_extensions`` keeps, each built once."""
    cmask = carrier.mask
    maps_by_domain = {}
    for R, extended in _rule_extensions(F, Q, carrier, allowed):
        to_r = Q.join(R).reader(R.elems)
        res = []
        for ext in extended.values():
            r = to_r(ext)
            if mask_of(r) & ~cmask:
                raise InternalInconsistency(
                    "restriction escaped the subsystem carrier")
            res.append(r)
        maps_by_domain[R.mask] = tuple(sorted(res))
    return maps_by_domain


def _from_rule(host, p, carrier, maps_by_domain, source, name):
    """The system with the hom-sets a defining rule built: explicit when
    ``source`` is None, else the interned system of conjugation by
    ``source``, which must agree with them on every object."""
    if source is None:
        return FusionSystem.explicit_system(host, p, carrier, maps_by_domain,
                                            name=name)
    realized = FusionSystem.conjugation(host, p, carrier, source)
    for P in realized.objects():
        if maps_by_domain.get(P.mask) != realized.maps(P):
            raise InternalInconsistency(
                f"subsystem routes disagree on domain of order {P.order}")
    return realized


# -- quotient systems ---------------------------------------------------------


def quotient_system(F, Q):
    """(F/Q on S/Q, the projection of the host onto the quotient's host);
    requires Q normal in F.  A realized F = F_S(A) is F_S(N_A(Q)): each
    morphism extends to a conjugation mapping Q onto Q.  So F/Q is realized
    by N_A(Q)/Q."""
    ok, counter = is_normal_in_F(F, Q)
    if not ok:
        raise NotNormalInF(f"Q is not normal in F (counterexample {counter!r})")
    A = F.ambient
    lquot, proj = quotient_group(
        F.host, Q, name=f"{F.name}/Q",
        within=F.carrier if A is None else Q.normalizer_in(A))
    carrier_bar = proj.push_subgroup(F.carrier)
    maps_by_domain = {}
    for P in F.objects():
        if not Q <= P:
            continue
        Pbar = proj.push_subgroup(P)
        if len(F.stabilizing(P, Q)) != len(F.maps(P)):
            raise InternalInconsistency(
                "a morphism does not stabilize the normal subgroup")
        ppos = Pbar.pos_map()
        res = set()
        for t in F.maps(P):
            images = [None] * Pbar.order
            for x, v in zip(P.elems, t):
                i = ppos[proj(x)]
                w = proj(v)
                if images[i] is None:
                    images[i] = w
                elif images[i] != w:
                    raise InternalInconsistency(
                        "projected morphism is not well defined")
            res.add(tuple(images))
        maps_by_domain[Pbar.mask] = tuple(sorted(res))
    return _from_rule(lquot, F.p, carrier_bar, maps_by_domain,
                      None if A is None else lquot.full_subgroup,
                      f"{F.name}/Q{Q.order}"), proj


# -- generated systems --------------------------------------------------------


def category_closure(host, p, carrier, seed_maps, name=None):
    """Smallest category on the carrier containing the seed morphisms and
    closed under composition, restriction, inversion of isomorphisms and
    inclusions (fixed-point iteration; finiteness bounds termination).

    The seeds are checked to be injective homomorphisms into the carrier,
    so every inverse, composite and restriction of them is one too (and is
    not checked again).  The walk is the one ``verify_axioms`` makes,
    ``fusion._category_gaps`` on generator keys: each gap it meets is added
    at once, and a whole map is built only for a gap, until a walk adds
    nothing."""
    objs = carrier.subgroups_within()
    check_hom_tuples(host, carrier, seed_maps)
    maps = {P.mask: {identity_tuple(P), *seed_maps.get(P.mask, ())}
            for P in objs}
    keys = _generator_keys(objs, maps)
    changed = True
    while changed:
        changed = False
        for _, target, key, build in _category_gaps(host, objs, maps, keys):
            keys[target].add(key)
            maps[target].add(build())
            changed = True
    final = {m: tuple(sorted(ts)) for m, ts in maps.items()}
    return FusionSystem._from_checked_maps(host, p, carrier, final,
                                           name or "generated")


def generated_system(parts):
    """<F_1, ..., F_k>: the category generated by the parts' morphisms."""
    if not parts:
        raise CarrierMismatch("need at least one part")
    first = parts[0]
    for F in parts[1:]:
        if (F.host is not first.host
                and F.host.table_hash() != first.host.table_hash()):
            raise CarrierMismatch("parts live in different host groups")
        if F.carrier.mask != first.carrier.mask or F.p != first.p:
            raise CarrierMismatch("parts are not carried on the same S")
    seed = {}
    for F in parts:
        for P in F.objects():
            seed.setdefault(P.mask, set()).update(F.maps(P))
    seed = {m: tuple(sorted(ts)) for m, ts in seed.items()}
    return category_closure(first.host, first.p, first.carrier, seed,
                            name=f"<{','.join(F.name for F in parts)}>")


# -- constrained models -------------------------------------------------------


class Model(namedtuple("Model", "L F Q normalizer kernel proj")):
    """The p'-reduced p-constrained model of N_F(Q) with its projection:
    the group L, the system F, Q, ``normalizer`` = N_ambient(Q),
    ``kernel`` = O_p'(C_ambient(Q)) and ``proj``, the QuotientMap
    N_ambient(Q) -> L on the host."""

    __slots__ = ()


def model_group(F, Q) -> Model:
    """L_Q = N_G(Q)/O_p'(C_G(Q)) with the contract post-conditions checked:
    O_p'(L) = 1, image of Q normal, image of N_S(Q) a Sylow p-subgroup and
    L / Z(Q)-image isomorphic to Aut_F(Q).  Built once per (F, Q) and kept
    on F."""
    F.require_object(Q)
    return kept(F._memo.models, Q.mask, _model_group, F, Q)


def _model_group(F, Q):
    if F.ambient is None:
        raise ModelValidationFailed(
            "model construction needs a conjugation source")
    prof = classify_subgroup(F, Q)
    if not prof.centric:
        raise NotCentric(f"subgroup of order {Q.order} is not centric")
    if not prof.fully_normalized:
        raise ModelValidationFailed("model requires a fully normalized Q")
    G = F.host
    p = F.p
    A = F.ambient
    N = Q.normalizer_in(A)
    C = Q.centralizer_in(A)
    Z = Q.center()
    # centric + fully normalized force C = Z(Q) x O_p'(C) (central Sylow);
    # Z is central of order prime to |K|, so |Z||K| = |C| is that product
    K = o_p_prime(G, p, within=C)
    if Z.order * K.order != C.order:
        raise ModelValidationFailed("C_G(Q) != Z(Q) x O_p'(C_G(Q))")
    L, proj = quotient_group(G, K, name=f"L({F.name},|Q|={Q.order})",
                             within=N)
    model = Model(L=L, F=F, Q=Q, normalizer=N, kernel=K, proj=proj)
    _validate_model(model, p)
    return model


def _validate_model(model, p):
    L = model.L
    F = model.F
    Q = model.Q
    if o_p_prime(L, p).order != 1:
        raise ModelValidationFailed("O_p'(L) is nontrivial")
    QL = model.proj.push_subgroup(Q)
    if not QL.is_normal_in(L.full_subgroup):
        raise ModelValidationFailed("image of Q is not normal in L")
    NS = F.n_in_carrier(Q)
    SL = model.proj.push_subgroup(NS)
    if SL.order != p_part(L.order, p):
        raise ModelValidationFailed("image of N_S(Q) is not Sylow in L")
    ZL = model.proj.push_subgroup(Q.center())
    Lbar, _ = quotient_group(L, ZL, name="L/Z(Q)")
    autg, _, _ = F.aut_group(Q)
    ok, _ = is_isomorphic(Lbar, autg)
    if not ok:
        raise ModelValidationFailed("L/Z(Q) is not isomorphic to Aut_F(Q)")


# -- chain straightening ------------------------------------------------------


def straighten_chain(F, chain):
    """A morphism on N_S(W_n) making every chain member fully normalized.

    The chain must satisfy: W_{i+1} characteristic in N_S(W_i) for i < n,
    and W_i fully normalized for i < n, in a saturated F (its axioms are
    verified if unchecked).  Returns (phi, image chain).
    """
    _require_saturated(F, "chain straightening")
    if not chain:
        raise ChainConditionViolated("empty chain")
    for W in chain:
        F.require_object(W)
    n = len(chain)
    for i in range(n - 1):
        ns = F.n_in_carrier(chain[i])
        if not chain[i + 1] <= ns:
            raise ChainConditionViolated(
                f"W_{i + 2} is not inside N_S(W_{i + 1})")
        if not is_characteristic(chain[i + 1], ns):
            raise ChainConditionViolated(
                f"W_{i + 2} is not characteristic in N_S(W_{i + 1})")
        if not F.is_fully_normalized(chain[i]):
            raise ChainConditionViolated(f"W_{i + 1} is not fully normalized")
    Wn = chain[-1]
    dom = F.n_in_carrier(Wn)
    ext = _well_placing_morphism(F, Wn)
    phi = wrap_tuple(F, dom, F.carrier, ext)
    images = []
    for i, W in enumerate(chain):
        img = F.host.subgroup(mask_of(phi(x) for x in W.elems))
        if not F.is_fully_normalized(img):
            raise InternalInconsistency(
                "straightened image is not fully normalized")
        # the normalizer carries over exactly when W was already fully
        # normalized (guaranteed for i < n; for W_n only if it happens to be)
        if i < n - 1 or F.is_fully_normalized(W):
            ns_img = mask_of(phi(x) for x in F.n_in_carrier(W).elems)
            if ns_img != F.n_in_carrier(img).mask:
                raise InternalInconsistency(
                    "phi(N_S(W)) != N_S(phi(W)) after straightening")
        images.append(img)
    return phi, tuple(images)


def _well_placing_morphism(F, Q):
    """The least morphism on N_S(Q) sending Q to a fully normalized
    subgroup.  In a saturated F one exists: that is the well-placing
    lemma."""
    dom = F.n_in_carrier(Q)
    on_q = dom.reader(Q.elems)
    targets = {R.mask for R in F.conjugacy_class_of(Q)
               if F.is_fully_normalized(R)}
    for ext in F.maps(dom):
        if mask_of(on_q(ext)) in targets:
            return ext
    raise InternalInconsistency(
        f"no morphism on N_S(Q) makes Q = {Q.mask:x} fully normalized")
