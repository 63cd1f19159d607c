"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results from first principles, without touching
the code paths under test: subgroup enumeration by closing small subsets,
order-8/12 classification by element-order counts, and essential-subgroup
detection through the normalizer/centralizer quotient of the ambient group.
"""

import weakref
from itertools import combinations, product

DEFAULT_AUT_CAP = 256


def closure_set(G, seed):
    """Subgroup generated by seed, as a frozenset (naive two-sided BFS)."""
    elems = {0} | set(seed)
    frontier = list(elems)
    while frontier:
        nxt = []
        for x in frontier:
            for g in list(elems):
                for z in (G.mul(x, g), G.mul(g, x), G.inv[x]):
                    if z not in elems:
                        elems.add(z)
                        nxt.append(z)
        frontier = nxt
    return frozenset(elems)


def is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def o_pi_brute(G, W_elems, in_pi):
    """O_pi(W) as the set of x in W whose W-conjugacy class generates a
    group of pi-number order (``in_pi``); W is given by its members."""
    out, seen = set(), set()
    for x in W_elems:
        if x in seen:
            continue
        klass = {G.mul(G.mul(w, x), G.inv[w]) for w in W_elems}
        seen |= klass
        if in_pi(len(closure_set(G, klass))):
            out |= klass
    return frozenset(out)


def has_normal_p_complement_brute(G, W_elems, p):
    """The elements of p'-order in W are closed under products and number
    exactly the p'-part of |W|."""
    def order(x):
        k, y = 1, x
        while y != 0:
            y = G.mul(y, x)
            k += 1
        return k

    pprime = {x for x in W_elems if order(x) % p != 0}
    p_power = 1
    while len(W_elems) % (p_power * p) == 0:
        p_power *= p
    return (len(pprime) * p_power == len(W_elems)
            and all(G.mul(a, b) in pprime for a in pprime for b in pprime))


def brute_force_subgroups(G, max_gens=3):
    """All subgroups generated by at most ``max_gens`` elements.

    Complete whenever every subgroup is max_gens-generated, which holds for
    every group of order <= 24 with max_gens = 3.
    """
    found = {frozenset([0])}
    elems = list(range(G.order))
    for k in range(1, max_gens + 1):
        for combo in combinations(elems[1:], k):
            found.add(closure_set(G, combo))
    return found


def lattice_walk_within(W):
    """The masks of every subgroup of W, sorted by (size, mask), from one
    lattice walk on the table of W's parent limited to W's elements.

    The route ``Subgroup.subgroups_within`` took before it moved the
    lattice of W's standalone copy along the embedding: each known
    subgroup is extended by every element of W of prime-power order that
    it does not yet cover, and each double coset H x H is skipped once
    one of its members is tried."""
    from fusionlab.groups import bits, prime_divisors

    G = W.parent
    mul, orders = G._mul, G.elem_orders
    pp_elems = [x for x in W.elems[1:]
                if len(prime_divisors(orders[x])) == 1]
    found = {1: ()}
    frontier = [1]
    while frontier:
        fresh = []
        for hmask in frontier:
            hgens = found[hmask]
            helems = tuple(bits(hmask))
            covered = hmask
            for x in pp_elems:
                if covered >> x & 1:
                    continue
                kmask = G.closure_mask(hgens + (x,), hmask)
                if kmask not in found:
                    found[kmask] = hgens + (x,)
                    fresh.append(kmask)
                for h1 in helems:
                    row = mul[mul[h1][x]]
                    for h2 in helems:
                        covered |= 1 << row[h2]
        frontier = fresh
    return sorted(found, key=lambda m: (m.bit_count(), m))


def assert_lattice_is_the_walk_within(W):
    """W's kept lattice is the walk within W on its parent's table: the
    same masks in the same order, each the interned subgroup of W's
    parent.  Returns the number of subgroups."""
    lattice = W.subgroups_within()
    assert isinstance(lattice, tuple)
    assert [H.mask for H in lattice] == lattice_walk_within(W), W
    assert all(H is W.parent.subgroup(H.mask) for H in lattice)
    return len(lattice)


def order_histogram(G):
    hist = {}
    for k in G.elem_orders:
        hist[k] = hist.get(k, 0) + 1
    return hist


def looks_like_s3(G):
    return G.order == 6 and not G.full_subgroup.is_abelian()


def looks_like_a4(G):
    return (G.order == 12 and order_histogram(G) == {1: 1, 2: 3, 3: 8})


def looks_like_q8(G):
    return (G.order == 8 and not G.full_subgroup.is_abelian()
            and order_histogram(G).get(2, 0) == 1)


def looks_like_d8(G):
    return (G.order == 8 and not G.full_subgroup.is_abelian()
            and order_histogram(G).get(2, 0) == 5)


def conjugates_in_s(G, S, Q):
    """All subgroups of S of the form gQg^-1 (ambient conjugation)."""
    out = set()
    for g in range(G.order):
        img = frozenset(G.conj(g, x) for x in Q.elems)
        if img <= set(S.elems):
            out.add(img)
    return out


def brute_centric(G, S, Q):
    """Every ambient conjugate inside S is self-centralizing in S."""
    s_elems = set(S.elems)
    for img in conjugates_in_s(G, S, Q):
        cent = {x for x in s_elems if all(G.mul(x, q) == G.mul(q, x)
                                          for q in img)}
        if not cent <= img:
            return False
    return True


def brute_out_group(G, S, Q):
    """Out_F(Q) of a realized system as the quotient N_G(Q) / Q C_G(Q),
    computed directly on the ambient group."""
    q_elems = set(Q.elems)
    n_elems = [g for g in range(G.order)
               if {G.conj(g, x) for x in q_elems} == q_elems]
    c_elems = [g for g in n_elems
               if all(G.conj(g, x) == x for x in q_elems)]
    qc = closure_set(G, list(q_elems) + c_elems)
    # cosets of QC in N, multiplied by representative products
    cosets = []
    seen = set()
    for g in n_elems:
        if g in seen:
            continue
        coset = frozenset(G.mul(g, h) for h in qc)
        seen |= coset
        cosets.append(coset)
    index = {c: i for i, c in enumerate(cosets)}

    def coset_of(x):
        for c in cosets:
            if x in c:
                return index[c]
        raise AssertionError

    table = [[coset_of(G.mul(min(a), min(b))) for b in cosets]
             for a in cosets]
    return table


def table_order_of(table, x):
    k, y = 1, x
    ident = next(e for e in range(len(table))
                 if all(table[e][z] == z for z in range(len(table))))
    while y != ident:
        y = table[y][x]
        k += 1
    return k


def brute_strongly_p_embedded(table, p):
    """Strongly p-embedded subgroup search directly on a Cayley table."""
    n = len(table)
    ident = next(e for e in range(n) if all(table[e][z] == z
                                            for z in range(n)))
    pp = 1
    m = n
    while m % p == 0:
        pp *= p
        m //= p
    if pp == 1:
        return None

    def inv_of(x):
        return next(y for y in range(n) if table[x][y] == ident)

    def closure(seed):
        out = {ident} | set(seed)
        changed = True
        while changed:
            changed = False
            for a in list(out):
                for b in list(out):
                    c = table[a][b]
                    if c not in out:
                        out.add(c)
                        changed = True
        return frozenset(out)

    subgroups = {closure([x]) for x in range(n)} | {frozenset([ident])}
    changed = True
    while changed:
        changed = False
        for H in list(subgroups):
            for x in range(n):
                K = closure(list(H) + [x])
                if K not in subgroups:
                    subgroups.add(K)
                    changed = True
    sylows = [H for H in subgroups if len(H) == pp]
    for M in sorted(subgroups, key=lambda h: (len(h), sorted(h))):
        if len(M) == n or len(M) % pp:
            continue
        for P in sylows:
            if not P <= M:
                continue
            ok = True
            for phi in range(n):
                if phi in M:
                    continue
                phi_inv = inv_of(phi)
                conj = frozenset(table[table[phi][x]][phi_inv] for x in P)
                if conj == P or (conj & P) != {ident}:
                    ok = False
                    break
            if ok:
                return M, P
    return None


def assert_strongly_p_embedded_matches_brute(G, p, table=None):
    """``fusion._strongly_p_embedded`` on G finds a subgroup exactly when
    the lattice search on ``table`` (G's Cayley table, or another table of
    a group isomorphic to G) does, and its witness (M, P) meets the
    definition: M is proper, P is a Sylow p-subgroup inside M, and
    P & gPg^-1 = 1 for every g outside M."""
    from fusionlab.fusion import _strongly_p_embedded

    if table is None:
        table = [[G.mul(a, b) for b in range(G.order)]
                 for a in range(G.order)]
    assert len(table) == G.order
    spe = _strongly_p_embedded(G, p)
    assert (spe is None) == (brute_strongly_p_embedded(table, p) is None)
    if spe is not None:
        M, P = spe
        assert P <= M and M.order < G.order
        assert is_power_of(P.order, p) and G.order % (P.order * p) != 0
        assert all(P.conjugate_mask(g) & P.mask == 1
                   for g in range(G.order) if g not in M)
    return spe


def quotient_brute(G, N, B):
    """B/N element by element: (table, coset labels over G, -1 outside B,
    representatives).  B is walked in increasing order, each coset is
    labelled when its least member is met, and the product of two cosets
    is read at their representatives."""
    coset_of = [-1] * G.order
    reps = []
    for x in B.elems:
        if coset_of[x] < 0:
            for h in N.elems:
                coset_of[G.mul(x, h)] = len(reps)
            reps.append(x)
    table = [[coset_of[G.mul(a, b)] for b in reps] for a in reps]
    return table, coset_of, reps


def assert_quotient_matches_brute(B, N):
    """quotient_group(G, N, within=B) against ``quotient_brute``: the same
    table, coset labels and representatives, and the group is the one
    ``derived_group`` gives for that table.  For N = 1 that group is B's
    own copy, ``B.as_group()``."""
    from fusionlab.groups import derived_group, quotient_group

    G = B.parent
    q, proj = quotient_group(G, N, within=B)
    table, coset_of, reps = quotient_brute(G, N, B)
    assert [q.mul_row(a) for a in range(q.order)] == table
    assert list(proj.coset_of) == coset_of
    assert list(proj.reps) == reps
    assert q is derived_group(table, "unused")
    if N.order == 1:
        assert q is B.as_group()[0]
        assert list(B.as_group()[1]) == reps


def assert_section_matches_copy(B, A):
    """quotient_group(G, A, within=B) on G's own table against the long way
    round: the quotient of a standalone copy of B by the copy of A, with its
    coset labels read back onto G (-1 outside B), and against the quotient
    element by element (``quotient_brute``), which does not take B/1 as
    B's copy.  The tables, the coset labels, push and the kernel must
    agree."""
    from fusionlab.groups import mask_of, quotient_group

    G = B.parent
    sub, embed = B.as_group()
    q_copy, proj_copy = quotient_group(
        sub, sub.subgroup(mask_of(B.pos(x) for x in A.elems)))
    coset_of = [-1] * G.order
    for i, x in enumerate(embed):
        coset_of[x] = proj_copy(i)
    q, proj = quotient_group(G, A, within=B)
    assert [q.mul_row(a) for a in range(q.order)] == \
        [q_copy.mul_row(a) for a in range(q_copy.order)]
    assert list(proj.coset_of) == coset_of
    assert_quotient_matches_brute(B, A)
    # walked in increasing order, the labels first appear as 0, 1, 2, ...:
    # each coset is labelled by the rank of its least member
    assert list(dict.fromkeys(c for c in coset_of if c >= 0)) == \
        list(range(q.order))
    assert proj.kernel_mask() == A.mask
    for K in B.subgroups_within():
        assert proj.push_mask(K.mask) == mask_of(coset_of[x] for x in K.elems)


# -- maps as image tuples, element by element -----------------------------


def restrict_brute(P, t, Q):
    """The map t on P, restricted to Q <= P."""
    phi = dict(zip(P.elems, t))
    return tuple(phi[x] for x in Q.elems)


def compose_brute(t, img, u):
    """u o t, for t a map into ``img`` and u a map on ``img``."""
    psi = dict(zip(img.elems, u))
    return tuple(psi[v] for v in t)


def invert_brute(host, P, t):
    """(image of t, the inverse of t over the image's sorted elements)."""
    back = dict(zip(t, P.elems))
    img = host.subgroup(sum(1 << v for v in back))
    return img, tuple(back[v] for v in img.elems)


def conj_brute(G, u, P):
    """x -> u x u^-1 on P, from the group's product and inverse."""
    return tuple(G.mul(G.mul(u, x), G.inv[u]) for x in P.elems)


def assert_reader_reads_at_positions(G):
    """On every subgroup D of G, ``D.reader(xs)(t)`` is the tuple
    (t[D.pos(x)] for x in xs), for xs empty, one element, D's generators
    and the generators of a largest proper subgroup of D, and for t D's
    elements and their conjugates by G's last element; ``D.key`` reads at
    D's generators, so the trivial subgroup's key is ().  Also, for every
    g in G, ``G.conj_images(g, D.elems)`` and ``D.conjugate_mask(g)`` are
    x -> g x g^-1 on D.  Returns the number of subgroups checked."""
    subs = G.subgroups()
    g = G.order - 1
    for D in subs:
        for u in range(G.order):
            conj = conj_brute(G, u, D)
            assert G.conj_images(u, D.elems) == conj, (G.name, D.mask, u)
            assert D.conjugate_mask(u) == sum(1 << v for v in conj)
        below = max((E for E in subs if E < D), key=lambda E: E.order,
                    default=D)
        for t in (D.elems, conj_brute(G, g, D)):
            for xs in ((), D.elems[-1:], D.generators(), below.generators()):
                want = tuple(t[D.pos(x)] for x in xs)
                assert D.reader(xs)(t) == want, (G.name, D.mask, xs)
                assert D.reader(list(xs))(t) == want, (G.name, D.mask, xs)
            assert D.key(t) == D.reader(D.generators())(t)
        if D.order == 1:
            assert D.key(D.elems) == ()
    return len(subs)


# -- element-wise references for the generator-based kernels -------------


def normalizer_brute(H, K):
    """{x in K : x H x^-1 = H}, conjugating every element of H."""
    G = H.parent
    h = frozenset(H.elems)
    return frozenset(x for x in K.elems
                     if frozenset(G.conj(x, y) for y in h) == h)


def centralizer_brute(H, K):
    """{x in K : x y = y x for every y in H}."""
    G = H.parent
    return frozenset(x for x in K.elems
                     if all(G.mul(x, y) == G.mul(y, x) for y in H.elems))


def is_normal_brute(H, K):
    """Every element of K conjugates H onto itself."""
    return normalizer_brute(H, K) == frozenset(K.elems)


def derived_brute(G, W_elems):
    """[W, W] as the subgroup generated by all |W|^2 commutators."""
    comms = {G.mul(G.mul(G.mul(x, y), G.inv[x]), G.inv[y])
             for x in W_elems for y in W_elems}
    return closure_set(G, comms)


def assert_kernels_match_oracles(G):
    """Normalizer, centralizer, normality and [W, W], which the kernels test
    on generators, against the element-wise references: on every pair of
    subgroups up to order 24, and on every pair of conjugacy-class
    representatives above."""
    from fusionlab.groups import subgroup_class_reps

    subs = G.subgroups()
    if G.order > 24:
        subs = subgroup_class_reps(G, subs)
    for H in subs:
        derived = H.derived()
        assert set(derived.elems) == derived_brute(G, H.elems)
        for K in subs:
            assert set(H.normalizer_in(K).elems) == normalizer_brute(H, K)
            assert set(H.centralizer_in(K).elems) == centralizer_brute(H, K)
            assert H.is_normal_in(K) == is_normal_brute(H, K)


def perm_table_brute(perms):
    """(table, elements, gen_indices) of the group generated by ``perms``:
    elements in breadth-first order of the closure (generators in input
    order), then every product a*b composed as a permutation, a(b(x))."""
    perms = [tuple(p) for p in perms]
    degree = len(perms[0]) if perms else 1

    def compose(a, b):
        return tuple(a[b[i]] for i in range(degree))

    elements = [tuple(range(degree))]
    index = {elements[0]: 0}
    for x in elements:
        for g in perms:
            y = compose(x, g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    table = [[index[compose(a, b)] for b in elements] for a in elements]
    return table, elements, tuple(index[g] for g in perms)


def table_check_brute(mul):
    """The message of the first check of FiniteGroup's construction that
    the square table ``mul`` fails, or None: every check element by
    element.  Associativity is Light's test over the same elements a as
    ``FiniteGroup._validate_table`` takes (each one not yet reached by
    right multiplication from the identity by those taken before), with
    the reached set closed afresh after each a."""
    n = len(mul)
    if n == 0:
        return "empty multiplication table"
    for i, row in enumerate(mul):
        if len(row) != n:
            return f"row {i} has length {len(row)}, expected {n}"
        for v in row:
            if not 0 <= v < n:
                return f"entry {v} out of range in row {i}"
    for x in range(n):
        if mul[0][x] != x or mul[x][0] != x:
            return "element 0 is not a two-sided identity"
    for x in range(n):
        if not any(mul[x][y] == 0 and mul[y][x] == 0 for y in range(n)):
            return f"element {x} has no two-sided inverse"
    walk, reached = [], {0}
    for a in range(1, n):
        if a in reached:
            continue
        for x in range(n):
            for y in range(n):
                if mul[mul[x][a]][y] != mul[x][mul[a][y]]:
                    return f"({x}*{a})*{y} != {x}*({a}*{y})"
        walk.append(a)
        frontier = [0]
        reached = {0}
        while frontier:
            x = frontier.pop()
            for g in walk:
                if mul[x][g] not in reached:
                    reached.add(mul[x][g])
                    frontier.append(mul[x][g])
    return None


def closure_failure_brute(G, elems):
    """The NotASubgroup message for the sorted element list ``elems`` (the
    identity among them) that the element-by-element closure loop gives:
    the first x whose inverse, or whose product x*y with an element y of
    the list, falls outside; None if the list is closed."""
    members = set(elems)
    for x in elems:
        if G.inv[x] not in members:
            return f"not closed under inverse at {x}"
        for y in elems:
            if G.mul(x, y) not in members:
                return f"not closed under product at ({x},{y})"
    return None


# -- all-pairs and all-subgroups references ---------------------------------


def involved_brute(H, G):
    """Is H a section B/A of G?  (bool, (B, A) or None), trying every B of
    G's lattice and every A of B's lattice in canonical order, each
    quotient built on a standalone copy of B."""
    from fusionlab.groups import is_isomorphic, mask_of, quotient_group

    h = H.order
    for B in G.subgroups():
        if B.order % h:
            continue
        sub, _ = B.as_group()
        for A in B.subgroups_within():
            if B.order != A.order * h or not A.is_normal_in(B):
                continue
            Q, _ = quotient_group(
                sub, sub.subgroup(mask_of(B.pos(x) for x in A.elems)))
            if is_isomorphic(Q, H)[0]:
                return True, (B, A)
    return False, None


def fusion_H_free_by_models(F, H):
    """H-freeness of F through every model of its range, with no screen:
    (free, witness), the witness (Q, L_Q, (B, A)) of the first Q whose
    model involves H, or None."""
    from fusionlab.groups import is_involved
    from fusionlab.hfree import centric_radical_fn_subgroups
    from fusionlab.subsystems import model_group

    for Q in centric_radical_fn_subgroups(F):
        L = model_group(F, Q).L
        involved, section = is_involved(H, L)
        if involved:
            return False, (Q, L, section)
    return True, None


# the groups H the screened H-freeness route is compared with the models on
SCREENED_H = ("S4", "A4", "S3", "SL(2,3)", "D8", "C3", "Qd(3)")


def assert_H_free_matches_models(F, hs):
    """``is_fusion_H_free`` gives the verdict of ``fusion_H_free_by_models``
    for each H in ``hs``, and on a failure the same Q mask, order of L_Q
    and masks of B and A.  Returns the number of H that F involves."""
    from fusionlab.hfree import is_fusion_H_free

    def shape(witness):
        Q, L, (B, A) = witness
        return Q.mask, L.order, B.mask, A.mask

    involved = 0
    for H in hs:
        rep = is_fusion_H_free(F, H)
        free, witness = fusion_H_free_by_models(F, H)
        assert rep.free == free, (F.name, H.name)
        if not free:
            involved += 1
            assert shape(rep.witness) == shape(witness), (F.name, H.name)
    return involved


def group_from_maps_brute(Q, tuples):
    """The Cayley table of a set of automorphism tuples of Q (images of
    Q's sorted elements), composing all n^2 pairs, (a o b)(x) = a[b(x)];
    None if a product leaves the set."""
    pos = Q.pos_map()
    index = {t: i for i, t in enumerate(tuples)}
    table = []
    for a in tuples:
        row = []
        for b in tuples:
            c = tuple(a[pos[v]] for v in b)
            if c not in index:
                return None
            row.append(index[c])
        table.append(row)
    return table


# -- normality in a fusion system, by the definition ----------------------


def normal_in_F_brute(F, W):
    """(bool, counterexample) for W normal in S, by the definition: every
    morphism on every object P extends to a morphism on WP that maps W onto
    W.  The counterexample is the least unextended morphism of the first
    object, in canonical order, that has one."""
    from fusionlab.fusion import mask_of, wrap_tuple

    for P in F.objects():
        WP = W.join(P)
        stable = set()
        for ext in F.maps(WP):
            if mask_of(restrict_brute(WP, ext, W)) == W.mask:
                stable.add(restrict_brute(WP, ext, P))
        for t in F.maps(P):
            if t not in stable:
                return False, wrap_tuple(F, P, F.carrier, t)
    return True, None


def o_p_brute(F):
    """O_p(F) as the join of every subgroup normal in S that the
    definition finds normal in F."""
    join = F.host.subgroup(1)
    for W in F.objects():
        if W.is_normal_in(F.carrier) and normal_in_F_brute(F, W)[0]:
            join = join.join(W)
    return join


def conjugacy_classes_brute(F):
    """{object mask: the masks of its F-class, sorted}, from a union-find
    over the (domain, image) pairs of every morphism of every hom-set."""
    from fusionlab.fusion import mask_of

    parent = {}

    def find(m):
        while parent[m] != m:
            parent[m] = parent[parent[m]]
            m = parent[m]
        return m

    for P in F.objects():
        parent.setdefault(P.mask, P.mask)
        for t in F.maps(P):
            m = mask_of(t)
            parent.setdefault(m, m)
            ra, rb = find(P.mask), find(m)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    classes = {}
    for m in parent:
        classes.setdefault(find(m), []).append(m)
    return {m: tuple(sorted(members)) for members in classes.values()
            for m in members}


def category_closure_brute(host, carrier, seed_maps):
    """{object mask: sorted image tuples} of the smallest category on the
    carrier holding the seeds: a fixed-point iteration that builds every
    inverse, composite and restriction as a whole tuple and tests it as
    one."""
    objs = carrier.subgroups_within()
    maps = {P.mask: {P.elems} for P in objs}
    for pmask, tuples in seed_maps.items():
        maps[pmask].update(tuples)
    changed = True
    while changed:
        changed = False
        for P in objs:
            current = maps[P.mask]
            pending = {}
            for t in list(current):
                img, tinv = invert_brute(host, P, t)
                if tinv not in maps[img.mask]:
                    pending.setdefault(img.mask, set()).add(tinv)
                for u in list(maps[img.mask]):
                    c = compose_brute(t, img, u)
                    if c not in current:
                        pending.setdefault(P.mask, set()).add(c)
                for Q in objs:
                    if Q.mask != P.mask and Q < P:
                        r = restrict_brute(P, t, Q)
                        if r not in maps[Q.mask]:
                            pending.setdefault(Q.mask, set()).add(r)
            for m, ts in pending.items():
                if ts - maps[m]:
                    maps[m] |= ts
                    changed = True
    return {m: tuple(sorted(ts)) for m, ts in maps.items()}


def closure_seeds(F, rng):
    """Seeds that are not closed, drawn from F: the S-conjugations on S
    alone, the generators of Aut_F(S) alone, and a random third of each
    hom-set."""
    from fusionlab.fusion import conj_maps

    S = F.carrier
    autg, elems, _ = F.aut_group(S)
    third = {}
    for P in F.objects():
        maps = F.maps(P)
        third[P.mask] = tuple(sorted(rng.sample(maps, -(-len(maps) // 3))))
    return {
        "inner-on-S": {S.mask: conj_maps(F.host, S, S, S.center(), S.mask)},
        "aut-generators": {S.mask: tuple(
            elems[i] for i in autg.full_subgroup.generators())},
        "random-third": third,
    }


def assert_closure_matches_oracle(F, seed, label):
    """The kernel's hom-sets equal the whole-tuple fixed point's.  Returns
    whether the closure added maps to the seed."""
    from fusionlab.subsystems import category_closure

    got = category_closure(F.host, F.p, F.carrier, seed)
    want = category_closure_brute(F.host, F.carrier, seed)
    assert {P.mask: got.maps(P) for P in got.objects()} == want, label
    return sum(map(len, want.values())) > sum(map(len, seed.values()))


# -- fusion-system axioms, element by element ------------------------------


def is_hom_brute(G, P, t):
    """Injective homomorphism test on all |P|^2 pairs: t(x y) = t(x) t(y)."""
    if len(set(t)) != len(t):
        return False
    pos = P.pos_map()
    for x, tx in zip(P.elems, t):
        for y, ty in zip(P.elems, t):
            if t[pos[G.mul(x, y)]] != G.mul(tx, ty):
                return False
    return True


def n_phi_brute(F, P, t):
    """N_phi by the definition: the x in N_S(P) for which some y in
    N_S(phi P) has phi(x u x^-1) = y phi(u) y^-1 for every u in P.  Raises
    InternalInconsistency unless P C_S(P) <= N_phi <= N_S(P)."""
    from fusionlab.errors import InternalInconsistency
    from fusionlab.fusion import mask_of

    G, S = F.host, F.carrier
    phi = dict(zip(P.elems, t))
    img = frozenset(t)
    n_img = [y for y in S.elems if {G.conj(y, v) for v in img} == img]
    n_p = normalizer_brute(P, S)
    members = [x for x in n_p
               if any(all(phi[G.conj(x, u)] == G.conj(y, phi[u])
                          for u in P.elems) for y in n_img)]
    sub = G.subgroup(mask_of(members))
    floor = closure_set(G, list(P.elems) + list(centralizer_brute(P, S)))
    if not floor <= set(members) <= n_p:
        raise InternalInconsistency("Q C_S(Q) <= N_phi <= N_S(Q) violated")
    return sub


def left_cosets_brute(G, A, C):
    """(g, mask of gC) for the least g of each left coset of C in A, in
    increasing g: every coset formed from every element of A."""
    cosets = {}
    for g in A.elems:
        m = sum(1 << G.mul(g, c) for c in C.elems)
        cosets.setdefault(m, g)
    return sorted(((g, m) for m, g in cosets.items()))


def fs1_brute(F):
    """FS1 by the definition: the first (P, u), P over F's objects and u
    over S in increasing order, whose map x -> u x u^-1 on P is not in
    Hom_F(P, S); None when there is none."""
    for P in F.objects():
        maps = set(F.maps(P))
        for u in F.carrier.elems:
            if conj_brute(F.host, u, P) not in maps:
                return P, u
    return None


def assert_conjugations_match_every_element(F):
    """F's conjugation loops, which walk one member of each left coset of
    a centralizer, against the walk of every element: each hom-set of a
    realized F against conjugation by every element of the ambient,
    Aut_S(Q) against conjugation by every element of N_S(Q), N_phi of
    each map against ``n_phi_brute``, and the FS1 verdict and witness of
    F and of the inclusions alone on S against ``fs1_brute``.  Returns
    the number of maps checked."""
    from fusionlab.fusion import (
        FusionSystem,
        _n_phi_tuple,
        mask_of,
        verify_axioms,
    )

    G, S = F.host, F.carrier
    count = 0
    for P in F.objects():
        if F.is_realized():
            images = {conj_brute(G, g, P) for g in F.ambient.elems}
            assert F.maps(P) == tuple(sorted(
                t for t in images if mask_of(t) & ~S.mask == 0))
        assert F.aut_s_tuples(P) == tuple(sorted(
            {conj_brute(G, u, P) for u in normalizer_brute(P, S)}))
        for t in F.maps(P):
            assert _n_phi_tuple(F, P, t) == n_phi_brute(F, P, t)
            count += 1
    bare = FusionSystem.explicit_system(G, F.p, S, {}, name="inclusions")
    for X in (F, bare):
        witness = verify_axioms(X).witness
        want = fs1_brute(X)
        if want is None:
            assert witness is None or witness[0] != "FS1"
        else:
            assert witness == ("FS1", *want)
    return count


def verify_axioms_brute(F):
    """The AxiomReport of verify_axioms, with every check made on whole
    image tuples: the homomorphism test on all pairs, N_phi element-wise,
    every set, full-normality test and restriction rebuilt where it is
    used, and the checks in the same order, so the first failure and its
    witness are the same."""
    from fusionlab.errors import InternalInconsistency
    from fusionlab.fusion import VERIFIED, AxiomReport, mask_of, p_part

    host, carrier = F.host, F.carrier
    objs = F.objects()
    maps_of = {P.mask: F.maps(P) for P in objs}

    for P in objs:
        for t in maps_of[P.mask]:
            if mask_of(t) & ~carrier.mask:
                return AxiomReport("failed", ("image-outside-S", P, t))
            if not is_hom_brute(host, P, t):
                return AxiomReport("failed", ("not-injective-hom", P, t))

    for P in objs:
        ms = set(maps_of[P.mask])
        if P.elems not in ms:
            return AxiomReport("failed", ("missing-inclusion", P))
        for t in ms:
            img, tinv = invert_brute(host, P, t)
            if tinv not in set(maps_of[img.mask]):
                return AxiomReport("failed", ("missing-inverse", P, t))
            for u in maps_of[img.mask]:
                if compose_brute(t, img, u) not in ms:
                    return AxiomReport("failed", ("not-composition-closed",
                                                  P, t, u))
            for Q in objs:
                if Q < P and restrict_brute(P, t, Q) not in set(maps_of[Q.mask]):
                    return AxiomReport("failed", ("not-restriction-closed",
                                                  P, t, Q))

    for P in objs:
        ms = set(maps_of[P.mask])
        for u in carrier.elems:
            cu = conj_brute(host, u, P)
            if mask_of(cu) & ~carrier.mask == 0 and cu not in ms:
                return AxiomReport("failed", ("FS1", P, u))

    aut_f_s = F.aut_tuples(carrier)
    aut_s_s = {conj_brute(host, u, carrier) for u in carrier.elems}
    if not aut_s_s <= set(aut_f_s):
        return AxiomReport("failed", ("FS2", "Aut_S(S) not contained"))
    if p_part(len(aut_f_s), F.p) != len(aut_s_s):
        return AxiomReport("failed", ("FS2", len(aut_f_s), len(aut_s_s)))

    for P in objs:
        for t in maps_of[P.mask]:
            img = host.subgroup(mask_of(t))
            if not F.is_fully_normalized(img):
                continue
            try:
                nphi = n_phi_brute(F, P, t)
            except InternalInconsistency:
                return AxiomReport("failed", ("FS3-nphi", P, t))
            if nphi.mask == P.mask:
                continue
            if not any(restrict_brute(nphi, ext, P) == t
                       for ext in maps_of[nphi.mask]):
                return AxiomReport("failed", ("FS3", P, t, nphi))

    return AxiomReport(VERIFIED)


# -- isomorphism search, leaf by leaf ----------------------------------------


def iso_search_brute(G, H, find_all=False):
    """The image lists of ``groups._iso_search``, found by trying every
    complete tuple of generator images on its own: no prefix is cut.

    The generators of ``G.full_subgroup`` take the elements of H of their
    order as candidates, in increasing order.  Each tuple is walked
    breadth-first from 1 over all generators at once, setting
    t(x g) = t(x) t(g); the tuple is dropped at the first product that
    clashes with an image already set or repeats an image, and kept if the
    walk reaches every element."""
    gens = G.full_subgroup.generators()
    pools = [[x for x in range(H.order)
              if H.elem_orders[x] == G.elem_orders[g]] for g in gens]
    results = []
    for chosen in product(*pools):
        pairs = list(zip(gens, chosen))
        images = [None] * G.order
        images[0] = 0
        used = {0}
        order = [0]
        for x in order:   # grows while it is walked
            row, hrow = G.mul_row(x), H.mul_row(images[x])
            for g, c in pairs:
                y, v = row[g], hrow[c]
                if images[y] is None and v not in used:
                    images[y] = v
                    used.add(v)
                    order.append(y)
                elif images[y] != v:
                    break
            else:
                continue
            break
        else:
            results.append(images)
            if not find_all:
                return images
    return results if find_all else None


# -- automorphisms, listed --------------------------------------------------

_auts_raw = weakref.WeakKeyDictionary()


def automorphisms_raw(S, cap=DEFAULT_AUT_CAP):
    """All automorphisms of S as image tuples, sorted, computed once per
    group by ``_iso_search`` on S -> S.  The list has |Aut(S)| entries,
    so groups of order above ``cap`` are refused."""
    from fusionlab.errors import OrderCapExceeded
    from fusionlab.groups import _iso_search

    if S.order > cap:
        raise OrderCapExceeded(
            f"automorphism enumeration beyond cap {cap} (order {S.order})")
    if S not in _auts_raw:
        _auts_raw[S] = sorted(tuple(im)
                              for im in _iso_search(S, S, find_all=True))
    return _auts_raw[S]


def automorphisms(S, cap=DEFAULT_AUT_CAP):
    """The full automorphism group of S as explicit bijective morphisms."""
    from fusionlab.groups import GroupMorphism

    full = S.full_subgroup
    return [GroupMorphism(full, full, dict(enumerate(images)))
            for images in automorphisms_raw(S, cap=cap)]


def closure_of_maps(gens, n):
    """The set of image tuples on 0..n-1 generated by ``gens`` under
    composition, the identity included."""
    ident = tuple(range(n))
    found = {ident}
    todo = [ident]
    while todo:
        a = todo.pop()
        for g in gens:
            b = tuple(g[x] for x in a)
            if b not in found:
                found.add(b)
                todo.append(b)
    return found


def mask_orbit_brute(auts, mask):
    """{alpha(mask) : alpha in auts}, each image taken element by element."""
    return {sum(1 << a[x] for x in range(len(a)) if mask >> x & 1)
            for a in auts}


def mask_orbits_brute(auts, masks):
    """{mask: its orbit under auts} for every mask in ``masks``; each orbit
    is listed once, by ``mask_orbit_brute``, and shared by its members."""
    orbits = {}
    for m in masks:
        if m not in orbits:
            orbit = frozenset(mask_orbit_brute(auts, m))
            orbits.update(dict.fromkeys(orbit, orbit))
    return orbits


# -- the rules of N_F(Q), C_F(Q), N_S(Q)C_F(Q) and S C_F(Q) --------------


def subsystem_rule_brute(F, Q, kind):
    """{domain mask: sorted hom-set} of a subsystem rule at Q, on whole
    image tuples: for each R in the subsystem's carrier, the restrictions
    to R of the maps on QR that map Q onto Q, acting on Q as conjugation
    by 1 (centralizer), by N_S(Q) (mixed) or by S (product), or as any
    F-automorphism (normalizer).  The carrier is N_S(Q), C_S(Q), N_S(Q) or
    S, found element by element."""
    from fusionlab.fusion import mask_of

    G, S = F.host, F.carrier
    n = G.subgroup(mask_of(normalizer_brute(Q, S)))
    carrier, by = {
        "normalizer": (n, None),
        "centralizer": (G.subgroup(mask_of(centralizer_brute(Q, S))), (0,)),
        "mixed": (n, n.elems),
        "product": (S, S.elems),
    }[kind]
    allowed = None if by is None else {
        tuple(G.conj(g, x) for x in Q.elems) for g in by}
    out = {}
    for R in carrier.subgroups_within():
        QR = Q.join(R)
        res = set()
        for ext in F.maps(QR):
            on_q = restrict_brute(QR, ext, Q)
            if mask_of(on_q) != Q.mask:
                continue
            if allowed is not None and on_q not in allowed:
                continue
            res.add(restrict_brute(QR, ext, R))
        out[R.mask] = tuple(sorted(res))
    return out


def assert_subsystem_rules_match_brute(F):
    """At every object Q of F, the normalizer, centralizer and mixed rules,
    and the product rule where Q is normal in F, give the hom-sets of
    ``subsystem_rule_brute``; returns the number of (Q, kind) checked."""
    from fusionlab.subsystems import _rule_hom_sets, _subsystem_kind

    checked = 0
    for Q in F.objects():
        kinds = ["normalizer", "centralizer", "mixed"]
        if is_normal_brute(Q, F.carrier) and normal_in_F_brute(F, Q)[0]:
            kinds.append("product")
        for kind in kinds:
            carrier, allowed, _ = _subsystem_kind(F, Q, kind)
            assert _rule_hom_sets(F, Q, carrier, allowed) == \
                subsystem_rule_brute(F, Q, kind), (F.name, Q.mask, kind)
            checked += 1
    return checked


# -- Alperin decomposition, one search per morphism ------------------------


def alperin_decompose_brute(F, phi):
    """The decomposition of phi: P -> S by a breadth-first search of its
    own from id_P, on whole image tuples, over the restrictions of the
    automorphisms of the fully normalized essential subgroups.  The first
    state, in BFS order, that some a in Aut_F(S) finishes into phi ends it,
    with the first such a.  Raises NotGenerated when the states run out."""
    from fusionlab.errors import NotGenerated
    from fusionlab.fusion import (
        AlperinDecomposition,
        essential_subgroups,
        mask_of,
        morphism_tuple,
        wrap_tuple,
    )

    def auts(E):
        return [t for t in F.maps(E) if mask_of(t) == E.mask]

    G, S, P = F.host, F.carrier, phi.domain
    goal = morphism_tuple(F, phi)
    spos = S.pos_map()
    s_auts = auts(S)
    ess_auts = [(E, auts(E)) for E in essential_subgroups(F)[1]]
    start = P.elems
    seen = {start: None}   # state -> (previous state, E, aut of E) or None
    queue = [start]
    for cur in queue:   # grows while it is walked
        final = next((a for a in s_auts
                      if tuple(a[spos[v]] for v in cur) == goal), None)
        if final is not None:
            break
        for E, e_auts in ess_auts:
            if not set(cur) <= set(E.elems):
                continue
            pos = E.pos_map()
            for a in e_auts:
                new = tuple(a[pos[v]] for v in cur)
                if new not in seen:
                    seen[new] = (cur, E, a)
                    queue.append(new)
    else:
        raise NotGenerated("no state finishes into the morphism")
    steps = []
    state = cur
    while seen[state] is not None:
        prev, E, a = seen[state]
        steps.append((state, E, a))
        state = prev
    steps.reverse()
    return AlperinDecomposition(
        source=phi,
        subgroup_chain=(P, *(G.subgroup(mask_of(st)) for st, _, _ in steps),
                        G.subgroup(mask_of(goal))),
        essentials=tuple(E for _, E, _ in steps),
        automorphisms=(*(wrap_tuple(F, E, E, a) for _, E, a in steps),
                       wrap_tuple(F, S, S, final)))


def assert_alperin_matches_brute(F):
    """Every map of F gets the decomposition of
    ``alperin_decompose_brute``, field by field, or both raise the same
    error; returns the number of maps decomposed."""
    from fusionlab.errors import FusionlabError
    from fusionlab.fusion import alperin_decompose, wrap_tuple

    def outcome(decompose, phi):
        try:
            deco = decompose(F, phi)
        except FusionlabError as exc:
            return type(exc)
        return deco.subgroup_chain, deco.essentials, deco.automorphisms

    done = 0
    for P in F.objects():
        for t in F.maps(P):
            phi = wrap_tuple(F, P, F.carrier, t)
            got = outcome(alperin_decompose, phi)
            assert got == outcome(alperin_decompose_brute, phi), \
                (F.name, P.mask, t)
            done += isinstance(got, tuple)
    return done


# -- test-only views of the package's objects -------------------------------


def materialize(F):
    """Every hom-set of F: {domain mask: tuple of image tuples}."""
    return {P.mask: F.maps(P) for P in F.objects()}


def subgroup_of(G, elements):
    """The subgroup of G with the given members."""
    return G.subgroup(sum(1 << x for x in set(elements)))


def is_bijective(phi):
    """Is the GroupMorphism phi onto its codomain?"""
    return phi.domain.order == phi.codomain.order == len(phi.images)


def assert_kept_verdicts_exact(G, hs):
    """The O_p and O_p' subgroups and the centres that G and its subgroups
    keep equal a fresh computation and the element-wise oracles, on every
    subgroup W of G and every prime of |G|; and for each H in ``hs`` the
    kept involvement verdict is the lattice oracle's, with a witness (B, A)
    that is a section of this same G with B/A isomorphic to H."""
    from fusionlab.groups import (
        _o_pi,
        is_involved,
        o_p,
        o_p_prime,
        quotient_group,
    )

    primes = [p for p in (2, 3, 5, 7, 13) if G.order % p == 0]
    for W in G.subgroups():
        for p in primes:
            for prime_to_p, kept, in_pi in (
                    (False, o_p, lambda n: is_power_of(n, p)),
                    (True, o_p_prime, lambda n: n % p != 0)):
                got = kept(G, p, within=W)
                assert kept(G, p, within=W) is got
                assert got.mask == _o_pi(G, W, p, prime_to_p).mask
                assert set(got.elems) == o_pi_brute(G, W.elems, in_pi)
        Z = W.center()
        assert W.center() is Z
        assert Z.mask == W.centralizer_in(W).mask
        assert set(Z.elems) == centralizer_brute(W, W)
    for H in hs:
        ok, witness = is_involved(H, G)
        assert is_involved(H, G)[1] is witness
        assert ok == involved_brute(H, G)[0], (H.name, G.name)
        if ok:
            B, A = witness
            assert B.parent is G and A.parent is G and A <= B
            assert is_normal_brute(A, B)
            Q, _ = quotient_group(G, A, within=B)
            assert iso_search_brute(Q, H) is not None


# -- the earlier routes of the catalog and of W(S), kept as references -------


def group_from_function(elements, op, name="G"):
    """The group of the multiplication law ``op`` on ``elements``, through
    its Cayley table."""
    from fusionlab.groups import build_group

    index = {e: i for i, e in enumerate(elements)}
    table = [[index[op(a, b)] for b in elements] for a in elements]
    return build_group(table, name=name, kind="table")


def regular_generators(G, gen_idx=None):
    """Left-regular permutation generators for G (on G.order points)."""
    if gen_idx is None:
        gen_idx = G.full_subgroup.generators()
    return [tuple(G.mul(g, x) for x in range(G.order)) for g in gen_idx]


def quaternion_perms_by_law():
    """Q8's generators as the catalog once built them: the regular action
    of the first two generators of the group of the quaternion law on
    +-1, +-i, +-j, +-k."""
    units = [(s, k) for s in (1, -1) for k in "1ijk"]
    table = {("1", "1"): (1, "1"), ("1", "i"): (1, "i"),
             ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
             ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"),
             ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
             ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"),
             ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
             ("k", "1"): (1, "k"), ("k", "i"): (1, "j"),
             ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1")}

    def qmul(u, v):
        (s, a), (t, b) = u, v
        r, c = table[(a, b)]
        return (s * t * r, c)

    g = group_from_function(units, qmul, name="Q8 law")
    return regular_generators(g, g.full_subgroup.generators()[:2])


def extraspecial27_perms_by_law():
    """The generators of 3^(1+2)- as the catalog once built them: the
    regular action of the group of the law of C9 : C3, b a b^-1 = a^4, on
    the pairs (i, j) standing for a^i b^j."""
    elems = [(i, j) for j in range(3) for i in range(9)]

    def op(u, v):
        (i, j), (k, l) = u, v
        return ((i + k * pow(4, j, 9)) % 9, (j + l) % 3)

    return regular_generators(group_from_function(elems, op, name="C9:C3 law"))


def w_by_earlier_routes(family):
    """(chain, witnesses, W_iter mask, W_oneshot mask) of ``family``, with
    a member's images read as before the one image kernel: a growth step
    joins the images of the failing subgroup in the member's host and
    pulls the join back, and the one-shot value reads each map on J at
    W_0 by hand."""
    from fusionlab.groups import aut_generators, bits, mask_of, mask_orbit
    from fusionlab.pgroups import thompson_data
    from fusionlab.stellmacher import _first_normality_failure

    def pull(a, host_mask):
        return mask_of(x for x, y in enumerate(a) if host_mask >> y & 1)

    S = family.S
    a_mask = thompson_data(S.full_subgroup).A.mask
    auts, _ = aut_generators(S)
    admitted = family.admitted_members()
    w, chain, witnesses = a_mask, [a_mask], []
    while True:
        orbit = mask_orbit(auts, w, S.order)
        failure = _first_normality_failure(orbit, admitted)
        if failure is None:
            break
        mi, oi = failure
        w_image, alpha = orbit[oi]
        member = admitted[mi]
        host = member.system.host
        target = host.subgroup(member.push_mask(w_image))
        gens = set(target.elems)
        for t in member.system.maps(target):
            gens.update(t)
        grown = pull(member.identification, host.closure_mask(sorted(gens)))
        witnesses.append((mi, oi, w))
        w = pull(alpha, grown)
        chain.append(w)
    gens = set(bits(a_mask))
    for member in admitted:
        F = member.system
        J = thompson_data(F.carrier).J
        at = [J.elems.index(x) for x in bits(member.push_mask(a_mask))]
        for t in F.maps(J):
            gens.update(bits(pull(member.identification,
                                  mask_of(t[i] for i in at))))
    oneshot = S.closure_mask(sorted(gens))
    while True:
        grown = S.closure_mask([a[i] for a in auts for i in bits(oneshot)],
                               oneshot)
        if grown == oneshot:
            break
        oneshot = grown
    return tuple(chain), tuple(witnesses), w, oneshot
