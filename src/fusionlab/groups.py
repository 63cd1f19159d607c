"""Finite-group engine on Cayley tables.

Groups are immutable objects indexed 0..order-1 with element 0 the identity.
Subgroups are bit-vectors (Python ints) over the parent's element indices,
so subset tests, intersections and deduplication stay cheap at desk scale
(orders up to the configured cap, default 1000).

The order cap is checked only where a group enters: ``build_group`` (so
the group-file parser), the CLI's loaders and ``suite.RunConfig``.  A
subgroup's copy or a quotient is no larger than its parent, and Aut_F(Q)
has one element per map F holds, so no search checks it again.  A
``FiniteGroup(...)`` built directly is the caller's to size.
"""

from collections import Counter, namedtuple
from itertools import chain, islice
from operator import itemgetter

from .errors import (
    InternalInconsistency,
    InvalidPermutation,
    NonAssociative,
    NotASubgroup,
    NotNormal,
    OrderCapExceeded,
    UnsupportedPrime,
)

DEFAULT_ORDER_CAP = 1000
MAX_PERM_POINTS = 64

_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

# the first group built with each Cayley table, by table_hash(): the one
# derived_group gives for that table
_by_table = {}


def bits(mask):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def p_part(n, p):
    """The largest power of p dividing n (n >= 1, p >= 2)."""
    if p < 2:
        raise UnsupportedPrime(f"{p} is not a prime")
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def kept(store, key, compute, *args):
    """``store[key]``, computed as ``compute(*args)`` on the first call and
    kept in ``store``: the one memo kernel of the package for keyed facts
    (a single fact of one object is kept by hand in an attribute of it).
    No kept value is None."""
    got = store.get(key)
    if got is None:
        got = store[key] = compute(*args)
    return got


def mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _packed(rows):
    """The entries of a Cayley table as unsigned 16-bit words, row by
    row: ``FiniteGroup.table_hash``."""
    # imported here, so that importing the package does not load it
    from array import array

    packed = array("H")
    for row in rows:
        packed.fromlist(row)
    return packed.tobytes()


class FiniteGroup:
    """A finite group given by its multiplication table.

    ``mul_row[a][b]`` is the index of the product a*b.  Construction checks
    the identity/inverse laws on the whole table and associativity exactly,
    with Light's test (see ``_validate_table``).
    """

    def __init__(self, mul_row, name="G", perm_rep=None, gen_indices=None,
                 validate=True):
        self._mul = [list(row) for row in mul_row]
        self.order = len(self._mul)
        self.name = name
        # perm_rep: the generator permutations, at gen_indices (when known)
        self.perm_rep = None if perm_rep is None else [tuple(p) for p in perm_rep]
        self.gen_indices = None if gen_indices is None else tuple(gen_indices)
        if validate:
            self._validate_table()
        # a row without the identity (unvalidated) gets 0, and the order
        # loop below reports the table
        self.inv = [row.index(0) if 0 in row else 0 for row in self._mul]
        self.elem_orders = self._compute_orders()
        self._subgroup_cache = {}
        self._aut_gens = None   # aut_generators, once found
        # conjugation fusion systems on this group, by (p, carrier mask,
        # ambient mask) and then by name: fusion.FusionSystem.conjugation
        self._systems = {}
        self._joins = {}    # Subgroup.join, by (smaller mask, larger mask)
        self._sylow = {}
        # o_p and o_p_prime, by (p, within mask, whether prime to p)
        self._o_pi_subgroups = {}
        self._involved = {}   # is_involved(H, self), by H
        self._isomorphic = {}   # is_isomorphic(self, H), by H
        self._quotients = {}   # quotient_group, by (N mask, B mask)
        self._classes = {}   # _conjugates, by subgroup mask
        self._hash = None
        _by_table.setdefault(self.table_hash(), self)

    # -- construction-time checks -------------------------------------

    def _validate_table(self):
        n = self.order
        if n == 0:
            raise NonAssociative("empty multiplication table")
        # each check runs a whole-row test in C first, and the element-by-
        # element loop only where that test fails, so that the loop finds
        # the same witness for the message
        entries = frozenset(range(n))
        for i, row in enumerate(self._mul):
            if len(row) != n:
                raise NonAssociative(f"row {i} has length {len(row)}, expected {n}")
            if entries.issuperset(row):
                continue
            for v in row:
                if not 0 <= v < n:
                    raise NonAssociative(f"entry {v} out of range in row {i}")
        mul = self._mul
        for x in range(n):
            if mul[0][x] != x or mul[x][0] != x:
                raise NonAssociative("element 0 is not a two-sided identity")
        for x, row in enumerate(mul):
            if 0 in row and mul[row.index(0)][x] == 0:
                continue
            if not any(mul[x][y] == 0 and mul[y][x] == 0 for y in range(n)):
                raise NonAssociative(f"element {x} has no two-sided inverse")
        # Light's test: the a with (x a) y = x (a y) for all x and y include
        # the identity and are closed under products, so it is enough to
        # check a over a set whose right-multiplication walk from the
        # identity reaches every element, at n^2 lookups per a (Clifford
        # and Preston, Algebraic Theory of Semigroups I, 1.2).  Each element
        # not yet reached is checked, then walked from; the first j that
        # pass reach a group of order >= 2^j, so at most log2(n) + 1 are
        # checked.  The walk multiplies each element by each a once.  For
        # one a the whole test compares columns: column y of (x a) y is
        # column y of the rows x a, and that of x (a y) is column a y.
        cols = list(zip(*mul))
        seen = bytearray(n)
        seen[0] = 1
        reached, walk = [0], []
        for a in range(1, n):
            if seen[a]:
                continue
            ra = mul[a]
            if (list(zip(*map(mul.__getitem__, cols[a])))
                    != list(map(cols.__getitem__, ra))):
                for x in range(n):
                    rx = mul[x]
                    row = mul[rx[a]]
                    if row != list(map(rx.__getitem__, ra)):
                        y = next(y for y in range(n) if row[y] != rx[ra[y]])
                        raise NonAssociative(
                            f"({x}*{a})*{y} != {x}*({a}*{y})")
            walk.append(a)
            old = len(reached)
            for i, x in enumerate(reached):   # grows while it is walked
                row = mul[x]
                for g in (walk if i >= old else (a,)):
                    if not seen[row[g]]:
                        seen[row[g]] = 1
                        reached.append(row[g])

    def _compute_orders(self):
        orders = [1] * self.order
        mul = self._mul
        for x in range(1, self.order):
            k, y = 1, x
            while y != 0:
                if k == self.order:
                    raise InternalInconsistency(
                        f"no power of element {x} is the identity")
                y = mul[y][x]
                k += 1
            orders[x] = k
        return orders

    # -- basic operations ----------------------------------------------

    def mul(self, a, b):
        return self._mul[a][b]

    def mul_row(self, a):
        return self._mul[a]

    def conj(self, g, x):
        """g x g^-1 (left conjugation)."""
        return self._mul[self._mul[g][x]][self.inv[g]]

    def conj_images(self, g, xs):
        """(g x g^-1 for x in xs), as a tuple."""
        mul = self._mul
        row, gi = mul[g], self.inv[g]
        return tuple([mul[row[x]][gi] for x in xs])

    def power(self, x, k):
        k %= self.elem_orders[x]
        y = 0
        for _ in range(k):
            y = self._mul[y][x]
        return y

    def commutator(self, x, y):
        m = self._mul
        return m[m[m[x][y]][self.inv[x]]][self.inv[y]]

    @property
    def full_mask(self):
        return (1 << self.order) - 1

    def table_hash(self):
        """Exact cache key of the Cayley table (relabel-sensitive): its
        entries as unsigned 16-bit words, row by row.  Every entry is below
        the order, and no table of order above 65,536 fits in memory."""
        if self._hash is None:
            self._hash = _packed(self._mul)
        return self._hash

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"

    # -- subgroups -------------------------------------------------------

    def subgroup(self, mask):
        # the interning constructor stays inline: through kept it is slower
        sub = self._subgroup_cache.get(mask)
        if sub is None:
            sub = Subgroup(self, mask)
            self._subgroup_cache[mask] = sub
        return sub

    @property
    def trivial_subgroup(self):
        return self.subgroup(1)

    @property
    def full_subgroup(self):
        return self.subgroup(self.full_mask)

    def cyclic_mask(self, x):
        mul = self._mul
        m = 1
        y = x
        while y != 0:
            m |= 1 << y
            y = mul[y][x]
        return m

    def closure_mask(self, generators, seed_mask=1):
        """Mask of the subgroup generated by the seed and ``generators``
        (Dimino's algorithm).  The seed must be a subgroup.

        Generators are adjoined one at a time, and one already in the
        current subgroup H is skipped.  A new one extends H by whole right
        cosets: each coset representative r (the identity first) times each
        generator s adjoined so far gives t = r*s, and a t outside the
        current set brings in H*t as a new coset.  The stage ends when every
        such product stays inside; the union is then closed under right
        multiplication by generators of the new subgroup, so it is that
        subgroup.  The multipliers must generate the seed as well, so the
        seed is built first from the listed generators inside it, and from
        its own elements if those fall short."""
        mul = self._mul
        member = bytearray(self.order)
        member[0] = 1
        elems = [0]
        gens = []

        def adjoin(candidates):
            for g in candidates:
                if member[g]:
                    continue
                gens.append(g)
                block = elems[:]
                reps = [0]
                for r in reps:
                    row = mul[r]
                    for s in gens:
                        t = row[s]
                        if not member[t]:
                            coset = [mul[h][t] for h in block]
                            for z in coset:
                                member[z] = 1
                            elems.extend(coset)
                            reps.append(t)

        generators = list(generators)
        adjoin(g for g in generators if seed_mask >> g & 1)
        if len(elems) != seed_mask.bit_count():
            adjoin(bits(seed_mask))
        adjoin(generators)
        # the flags, read as a binary numeral with element 0 last
        return int(member.translate(_BINARY_DIGITS)[::-1], 2)

    def subgroups(self):
        """All subgroups, canonically ordered (size, then bit-vector)."""
        return self.full_subgroup.subgroups_within()


class Subgroup:
    """A subgroup of a fixed parent group, stored as a membership bit-vector.

    Instances are interned per (parent, mask); closure under product and
    inverse plus Lagrange are checked on first construction.
    """

    __slots__ = ("parent", "mask", "_elems", "_pos", "_gens", "_key",
                 "_lattice", "_as_group", "_thompson", "_center")

    def __init__(self, parent, mask):
        self.parent = parent
        self.mask = mask
        self._elems = tuple(bits(mask))
        self._pos = None
        self._gens = None
        self._key = None
        self._lattice = None
        self._as_group = None
        self._thompson = None   # pgroups.thompson_data, once computed
        self._center = None
        if not mask & 1:
            raise NotASubgroup("subgroup must contain the identity")
        mul = parent._mul
        inv = parent.inv
        elems = self._elems
        # the whole test in C, then the loop only to name the witness; the
        # loop alone is as fast below 5 elements
        if len(elems) < 5 or not _closed(elems, inv, mul):
            for x in elems:
                if not mask >> inv[x] & 1:
                    raise NotASubgroup(f"not closed under inverse at {x}")
                row = mul[x]
                for y in elems:
                    if not mask >> row[y] & 1:
                        raise NotASubgroup(
                            f"not closed under product at ({x},{y})")
        if parent.order % len(self._elems) != 0:
            raise NotASubgroup("order does not divide parent order")

    @property
    def order(self):
        return len(self._elems)

    @property
    def elems(self):
        return self._elems

    def pos(self, x):
        """Index of element x inside the sorted element tuple."""
        return self.pos_map()[x]

    def pos_map(self):
        if self._pos is None:
            self._pos = {e: i for i, e in enumerate(self._elems)}
        return self._pos

    def reader(self, xs):
        """The map t -> (t[pos(x)] for x in xs), for a tuple t aligned with
        self's sorted elements: a map on self read at the elements xs of
        self.  The restriction of t to Q <= self is ``self.reader(Q.elems)
        (t)``, and the composite u o t, u a map on the image of t, is
        ``image.reader(t)(u)``.  It is one ``operator.itemgetter``, and a
        slice stands in for one element or none, so that the result is a
        tuple for any number of elements."""
        at = list(map(self.pos_map().__getitem__, xs))
        if len(at) > 1:
            return itemgetter(*at)
        return itemgetter(slice(at[0], at[0] + 1) if at else slice(0))

    @property
    def key(self):
        """The reader at self's generators.  A map on self that the package
        holds is an injective homomorphism, so its key, the images of the
        generators, fixes it: two such maps are equal exactly when their
        keys are, and a map lies in a set of them exactly when its key lies
        in their keys."""
        if self._key is None:
            self._key = self.reader(self.generators())
        return self._key

    def __contains__(self, x):
        return bool(self.mask >> x & 1)

    def __le__(self, other):
        return self.mask & ~other.mask == 0

    def __lt__(self, other):
        return self.mask != other.mask and self.mask & ~other.mask == 0

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.mask == self.mask)

    def __hash__(self):
        return hash((id(self.parent), self.mask))

    def __repr__(self):
        return f"Subgroup(order={self.order}, of={self.parent.name})"

    def generators(self):
        """A small generating sequence, a function of the mask alone: walk
        the sorted elements and keep each one outside the subgroup the
        kept ones generate, until that subgroup is self."""
        if self._gens is None:
            G = self.parent
            gens = []
            mask = 1
            for x in self._elems:
                if not mask >> x & 1:
                    gens.append(x)
                    mask = G.closure_mask(gens, mask)
                    if mask == self.mask:
                        break
            self._gens = tuple(gens)
        return self._gens

    def is_abelian(self):
        m = self.parent._mul
        es = self._elems
        return all(m[a][b] == m[b][a] for i, a in enumerate(es) for b in es[i + 1:])

    def conjugate_mask(self, g):
        return mask_of(self.parent.conj_images(g, self._elems))

    def _normalizing_mask(self, xs):
        """Mask of the x in xs with x self x^-1 = self.  Testing the
        generators of self is enough: once x conjugates each of them into
        self, x self x^-1 lies in self and has its order."""
        G = self.parent
        mul, inv = G._mul, G.inv
        mask = self.mask
        gens = self.generators()
        m = 0
        for x in xs:
            row, xi = mul[x], inv[x]
            for h in gens:
                if not mask >> mul[row[h]][xi] & 1:
                    break
            else:
                m |= 1 << x
        return m

    def is_normal_in(self, other):
        """True if ``other`` (Subgroup) normalizes self; testing its
        generators is enough."""
        gens = other.generators()
        return self._normalizing_mask(gens) == mask_of(gens)

    def normalizer_in(self, other):
        """{x in other : x self x^-1 = self} as a Subgroup."""
        return self.parent.subgroup(self._normalizing_mask(other.elems))

    def centralizer_in(self, other):
        """{x in other : x commutes with self} as a Subgroup; x commutes
        with self as soon as it commutes with each generator of self."""
        G = self.parent
        mul = G._mul
        gens = self.generators()
        m = 0
        for x in other.elems:
            row = mul[x]
            for h in gens:
                if row[h] != mul[h][x]:
                    break
            else:
                m |= 1 << x
        return G.subgroup(m)

    def center(self):
        """Z(self), computed once and kept on self."""
        if self._center is None:
            self._center = self.centralizer_in(self)
        return self._center

    def derived(self):
        """[self, self]: the normal closure in self of the commutators of
        self's generators, since modulo that closure the generators
        commute."""
        G = self.parent
        gens = self.generators()
        comms = sorted({G.commutator(a, b) for a in gens for b in gens})
        mask = G.closure_mask(comms, 1)
        return G.subgroup(_grow_normal(G, gens, comms, mask, list(comms)))

    def join(self, other):
        """Subgroup generated by self and other: the larger one when one
        contains the other, otherwise closed once per pair of masks and
        kept on the parent."""
        a, b = self.mask, other.mask
        if b & ~a == 0:
            return self
        if a & ~b == 0:
            return other
        G = self.parent
        return kept(G._joins, (a, b) if a < b else (b, a), _join, G, a, other)

    def subgroups_within(self):
        """All subgroups contained in self, canonically ordered (size, then
        bit-vector).  One lattice walk on the parent's own table, limited
        to self's elements; the sorted masks are kept on self."""
        if self._lattice is None:
            found = _subgroup_lattice_masks(self.parent, within=self)
            self._lattice = sorted(found, key=lambda m: (m.bit_count(), m))
        return [self.parent.subgroup(m) for m in self._lattice]

    def as_group(self):
        """(standalone FiniteGroup, embed) with embed[i] the parent index;
        the group is the ``derived_group`` of its table."""
        if self._as_group is None:
            G = self.parent
            es = self._elems
            pos = self.pos_map()
            table = [[pos[G._mul[a][b]] for b in es] for a in es]
            sub = derived_group(table, f"{G.name}|sub{self.order}")
            self._as_group = (sub, es)
        return self._as_group


def _join(G, a, other):
    return G.subgroup(G.closure_mask(other.generators(), a))


def _closed(elems, inv, mul):
    """Do ``elems`` (two or more) hold their inverses and products?"""
    members = frozenset(elems)
    pick = itemgetter(*elems)
    return members.issuperset(pick(inv)) and members.issuperset(
        chain.from_iterable(map(pick, map(mul.__getitem__, elems))))


def is_hom_tuple(H, P, t):
    """Is t an injective homomorphism from P into the group H?  t lists
    the images in H of P's sorted elements; P's own parent may be another
    group.

    It checks t(1) = 1 and t(x g) = t(x) t(g) for every x in P and every
    generator g of P.  That is the whole homomorphism property: each y in
    P is a word g_1 ... g_k in the generators, and induction on k gives
    t(x g_1 ... g_k) = t(x g_1 ... g_{k-1}) t(g_k) = t(x) t(g_1 ... g_k),
    the empty word resting on t(1) = 1.  The cost is |P| times the number
    of generators, not |P|^2."""
    if len(set(t)) != len(t) or t[0] != 0:
        return False
    pos = P.pos_map()
    gmul, hmul = P.parent._mul, H._mul
    for g in P.generators():
        tg = t[pos[g]]
        for x, tx in zip(P.elems, t):
            if t[pos[gmul[x][g]]] != hmul[tx][tg]:
                return False
    return True


class DetailRecord:
    """Base for a namedtuple record whose last field is a free-form dict
    of detail or witnesses: equality and hashing leave that field out."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and self[:-1] == other[:-1]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:-1])


class GroupMorphism(namedtuple("GroupMorphism", "domain codomain images")):
    """An injective homomorphism between subgroups, as an image table.

    ``images`` maps each domain member (parent index of the domain's group)
    to a codomain member (parent index of the codomain's group).
    ``GroupMorphism(...)`` validates the map as an injective homomorphism;
    ``_make`` skips that, for maps known to be ones: ``fusion.wrap_tuple``
    (F's own maps) and ``_find_isomorphism`` (the backtrack's map).
    """

    __slots__ = ()

    def __new__(cls, domain, codomain, images):
        self = super().__new__(cls, domain, codomain, images)
        if set(images) != set(domain.elems):
            raise NotASubgroup("image table keys must equal the domain")
        vals = set(images.values())
        if len(vals) != len(images):
            raise NotASubgroup("morphism is not injective")
        if any(v not in codomain for v in vals):
            raise NotASubgroup("image escapes the codomain")
        if not is_hom_tuple(codomain.parent, domain, self.as_tuple()):
            raise NotASubgroup("image table is not multiplicative")
        return self

    def __call__(self, x):
        return self.images[x]

    def as_tuple(self):
        """Images aligned with the sorted domain elements."""
        return tuple(self.images[x] for x in self.domain.elems)

    def __repr__(self):
        return (f"GroupMorphism({self.domain.order}->{self.codomain.order}, "
                f"{self.as_tuple()})")


# -- construction -------------------------------------------------------


def identity_perm(n):
    return tuple(range(n))


def compose_perms(a, b):
    """(a*b)(x) = a(b(x)); the product convention for permutation groups.
    b may be any tuple of points: the result lists their images under a."""
    return tuple([a[x] for x in b])


def build_group(spec, name="G", cap=DEFAULT_ORDER_CAP, *, kind):
    """Build a validated FiniteGroup, refused with OrderCapExceeded above
    ``cap`` elements.

    With ``kind="perms"``, ``spec`` is a list of permutations (tuples of
    0-based images, all on the same number of points <= 64) closed
    breadth-first in input order; with ``kind="table"``, a full square
    Cayley table.  Element 0 is always the identity (tables with the
    identity elsewhere are relabelled).
    """
    if kind == "table":
        return _group_from_table(spec, name, cap)
    if kind == "perms":
        return _group_from_perms(spec, name, cap)
    raise ValueError(f"unknown kind {kind!r}")


def _group_from_perms(perms, name, cap):
    degree = None
    gens = []
    for p in perms:
        p = tuple(p)
        if degree is None:
            degree = len(p)
            if degree > MAX_PERM_POINTS:
                raise InvalidPermutation(
                    f"permutations act on {degree} > {MAX_PERM_POINTS} points")
        if len(p) != degree:
            raise InvalidPermutation("generators act on different point sets")
        if sorted(p) != list(range(degree)):
            raise InvalidPermutation(f"not a permutation: {p}")
        gens.append(p)
    if degree is None:
        degree = 1
    ident = identity_perm(degree)
    elements = [ident]
    index = {ident: 0}
    # times[k][x]: the index of x*gens[k]; steps: (y, x, k) for each
    # element y = x*gens[k] met first that way, in the order found
    times = [[] for _ in gens]
    steps = []
    # elements grows while it is walked: a breadth-first closure
    for i, x in enumerate(elements):
        for k, (g, col) in enumerate(zip(gens, times)):
            y = compose_perms(x, g)
            j = index.get(y)
            if j is None:
                if len(elements) >= cap:
                    raise OrderCapExceeded(
                        f"closure exceeded order cap {cap}")
                j = index[y] = len(elements)
                elements.append(y)
                steps.append((j, i, k))
            col.append(j)
    gen_indices = tuple(index[g] for g in gens)
    return FiniteGroup(table_along_tree(gen_indices, times, steps),
                       name=name, perm_rep=gens, gen_indices=gen_indices)


def table_along_tree(gen_indices, times, steps):
    """The Cayley table of a group closed from its identity 0 by right
    multiplication with the generators at ``gen_indices``: ``times[k][x]``
    is the index of x*g_k, and ``steps`` has a (y, x, k) for each y but 0,
    met first as y = x*g_k, each after the step that met its x.  The
    row of each generator a follows that tree by lookups in ``times``,
    a*y = (a*x)*g_k; so does every other row, as (x*g)*z = x*(g*z): the
    row of x*g is the row of x read at the entries of the row of g."""
    gen_rows = []
    for a in gen_indices:
        row = [a] * (len(steps) + 1)
        for y, x, k in steps:
            row[y] = times[k][row[x]]
        gen_rows.append(row)
    table = [list(range(len(steps) + 1))] + [None] * len(steps)
    for y, x, k in steps:
        table[y] = list(map(table[x].__getitem__, gen_rows[k]))
    return table


def _group_from_table(table, name, cap):
    n = len(table)
    if n > cap:
        raise OrderCapExceeded(f"table order {n} exceeds cap {cap}")
    rows = [list(r) for r in table]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NonAssociative(f"row {i} is not of length {n}")
    ident = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            ident = e
            break
    if ident is None:
        raise NonAssociative("table has no two-sided identity")
    if ident != 0:
        rows = identity_first(rows, ident)
    return FiniteGroup(rows, name=name)


def derived_group(table, name):
    """The group with the Cayley table ``table``: the first group built
    with that table, or a new one named ``name``.

    For the groups the package derives from others: quotients, standalone
    copies of subgroups and F-automorphism groups.  Their tables are groups
    by construction, and the callers check the maps they build on them.  A
    table met before, derived or built from outside input, gives back the
    group built then, with every fact kept on it (its lattice, Sylow and
    O_p subgroups, Aut generators, isomorphism and involvement verdicts,
    fusion systems), so each is computed once per table.  The name is a
    label, of the first group built with the table: no fact depends on
    it."""
    # not through ``kept``: FiniteGroup.__init__ registers each table
    G = _by_table.get(_packed(table))
    if G is None:
        G = FiniteGroup(table, name=name, validate=False)
    return G


def identity_first(table, ident):
    """The table relabelled so that ``ident`` becomes 0; every other index
    keeps its relative order."""
    old_of_new = [ident] + [x for x in range(len(table)) if x != ident]
    new_of_old = [0] * len(table)
    for new, old in enumerate(old_of_new):
        new_of_old[old] = new
    return [[new_of_old[table[a][b]] for b in old_of_new] for a in old_of_new]


# -- subgroup lattice ----------------------------------------------------


def _smallest_prime_factor(n):
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_prime(n):
    return n >= 2 and _smallest_prime_factor(n) == n


def prime_divisors(n):
    """The primes dividing n >= 1, in increasing order."""
    primes = []
    while n > 1:
        primes.append(_smallest_prime_factor(n))
        n //= p_part(n, primes[-1])
    return primes


def _subgroup_lattice_masks(G, seeds=None, within=None):
    """{mask: generators} of every subgroup of W = ``within`` (a Subgroup;
    default G) that contains one of ``seeds`` (Subgroups of W; by default
    the trivial one, so W's whole lattice).

    The walk runs on G's own table: it adjoins prime-power-order elements
    of W to known subgroups, and is complete because every overgroup of a
    seed inside W is reached along a chain that adds one prime-power
    generator at a time.  The generators are the walk's own; they are not
    handed to the Subgroups, whose ``generators()`` depend on the mask
    alone."""
    mul, orders = G._mul, G.elem_orders
    elems = range(1, G.order) if within is None else within.elems[1:]
    pp_elems = [x for x in elems
                if p_part(orders[x], _smallest_prime_factor(orders[x]))
                == orders[x]]
    found = ({1: ()} if seeds is None
             else {S.mask: S.generators() for S in seeds})
    frontier = list(found)
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
                # skip the whole double coset H x H: same generated subgroup
                for h1 in helems:
                    t = mul[h1][x]
                    row = mul[t]
                    for h2 in helems:
                        covered |= 1 << row[h2]
        frontier = fresh
    return found


def _conjugates(G, mask):
    """The G-conjugates of the subgroup ``mask``, as a frozenset of masks:
    its orbit under conjugation by G's generators, walked once per mask
    and kept on G."""
    return kept(G._classes, mask, _class_walk, G, mask)


def _class_walk(G, mask):   # the orbit of mask under m -> g m g^-1
    return frozenset(orbit(mask, G.full_subgroup.generators(),
                           lambda g, m: mask_of(G.conj_images(g, bits(m)))))


def subgroup_class_reps(G, subgroups):
    """The first member of each G-conjugacy class met in ``subgroups``, in
    the order given."""
    seen = set()
    reps = []
    for H in subgroups:
        if H.mask not in seen:
            reps.append(H)
            seen.update(_conjugates(G, H.mask))
    return reps


# -- standard subgroups ----------------------------------------------------


def sylow(G, p):
    """The canonical Sylow p-subgroup (least bit-vector among conjugates),
    computed once per group and prime."""
    if not is_prime(p):
        raise UnsupportedPrime(f"{p} is not a prime")
    return kept(G._sylow, p, _canonical_sylow, G, p)


def _canonical_sylow(G, p):
    target = p_part(G.order, p)
    psub = G.subgroup(1)
    while psub.order < target:
        nmask = psub.normalizer_in(G.full_subgroup)
        grown = False
        for x in nmask.elems:
            if x in psub:
                continue
            if p_part(G.elem_orders[x], p) == G.elem_orders[x]:
                gens = list(psub.generators()) + [x]
                psub = G.subgroup(G.closure_mask(gens, psub.mask))
                grown = True
                break
        if not grown:  # cannot happen for a true group
            raise NonAssociative("Sylow growth stalled")
    # the least mask of P's orbit under G, walked over G's generators
    return G.subgroup(min(_conjugates(G, psub.mask)))


def omega_mask(G, sub_mask, p):
    """<x : x^p = 1> inside the given subgroup mask."""
    gens = [x for x in bits(sub_mask) if G.elem_orders[x] == p]
    return G.closure_mask(gens, 1)


def _grow_normal(G, wgens, gens, mask, todo, keep=lambda n: True):
    """Grow mask = <gens> one conjugate at a time until it is closed under
    conjugation by ``wgens``, or until ``keep`` rejects its order.

    Each entry of ``todo`` (a generator not yet conjugated) is conjugated by
    every w in wgens; a conjugate outside the mask is appended to ``gens``
    (in place) and to ``todo``.  Closed under conjugation of its generators
    by wgens, the subgroup is normalized by <wgens>."""
    mul, inv = G._mul, G.inv
    while todo and keep(mask.bit_count()):
        g = todo.pop()
        for w in wgens:
            c = mul[mul[w][g]][inv[w]]
            if not mask >> c & 1:
                gens.append(c)
                todo.append(c)
                mask = G.closure_mask(gens, mask)
    return mask


def _o_pi(G, W, p, prime_to_p):
    """O_pi(W), the largest normal pi-subgroup of the subgroup W of G, for
    pi = {p}, or the primes other than p if ``prime_to_p``.

    An element x lies in O_pi(W) exactly when its normal closure in W is a
    pi-group, so one pass over W joins those closures into N.  The closure
    of N and x grows one W-conjugate at a time and is dropped as soon as
    its order leaves pi (every overgroup's order is a multiple)."""
    if prime_to_p:
        def in_pi(n):
            return n % p != 0
    else:
        def in_pi(n):
            return p_part(n, p) == n
    orders = G.elem_orders
    wgens = W.generators()
    join, join_gens = 1, []
    rejected = 0
    for x in W.elems:
        if (join | rejected) >> x & 1 or not in_pi(orders[x]):
            continue
        gens = join_gens + [x]
        mask = _grow_normal(G, wgens, gens, G.closure_mask(gens, join), [x],
                            in_pi)
        if in_pi(mask.bit_count()):
            join, join_gens = mask, gens
        else:
            # every W-conjugate of x has x's normal closure
            rejected |= mask_of(orbit(x, wgens, G.conj))
    return G.subgroup(join)


def _normal_subgroups_of_order(G, B, k):
    """Masks of the normal subgroups of B of order k, in increasing order.

    A normal subgroup of B is the join of the normal closures in B of its
    elements, and the closure of x depends only on x's B-class; so these
    are the joins of one closure per class.  A closure or join whose order
    does not divide k lies in no normal subgroup of order k and is not
    grown further."""
    bgens = B.generators()

    def divides(n):
        return k % n == 0

    closures = []
    classed = 1
    for x in B.elems:
        if classed >> x & 1 or not divides(G.elem_orders[x]):
            continue
        classed |= mask_of(orbit(x, bgens, G.conj))
        gens = [x]
        mask = _grow_normal(G, bgens, gens, G.cyclic_mask(x), [x], divides)
        if divides(mask.bit_count()):
            closures.append((mask, gens))
    found = {1}
    joins = [1]
    for n in joins:   # grows while it is walked
        for c, gens in closures:
            if c & ~n:
                j = G.closure_mask(gens, n)
                if j not in found:
                    found.add(j)
                    if divides(j.bit_count()):
                        joins.append(j)
    return sorted(m for m in found if m.bit_count() == k)


def o_p(G, p, within=None):
    """Largest normal p-subgroup of ``within`` (default G), computed once
    per (p, within) and kept on G."""
    return _kept_o_pi(G, p, within, False)


def o_p_prime(G, p, within=None):
    """Largest normal subgroup of ``within`` (default G) of order prime
    to p, computed once per (p, within) and kept on G."""
    return _kept_o_pi(G, p, within, True)


def _kept_o_pi(G, p, within, prime_to_p):
    W = within if within is not None else G.full_subgroup
    return kept(G._o_pi_subgroups, (p, W.mask, prime_to_p), _o_pi,
                G, W, p, prime_to_p)


# -- quotients ---------------------------------------------------------------


class QuotientMap(namedtuple("QuotientMap", "source quotient coset_of reps")):
    """Surjective projection B -> B/N as a per-element coset index table
    over the whole parent group; ``coset_of`` is -1 outside B."""

    __slots__ = ()

    def __call__(self, x):
        return self.coset_of[x]

    def push_mask(self, mask):
        return move_mask(self.coset_of, mask)

    def push_subgroup(self, sub):
        return self.quotient.subgroup(self.push_mask(sub.mask))

    def kernel_mask(self):
        return mask_of(x for x, c in enumerate(self.coset_of) if c == 0)


def quotient_group(G, N, name=None, within=None):
    """(B/N, projection) for N normal in B = ``within`` (default G), built
    on G's own table.  B's elements are walked in increasing order and each
    coset is labelled by its least member, identity first, so B/N has the
    table a standalone copy of B would give; B/N is the ``derived_group``
    of that table.  The pair is built once per (N, B) and kept on G."""
    B = within if within is not None else G.full_subgroup
    return kept(G._quotients, (N.mask, B.mask), _quotient, G, N, B, name)


def _quotient(G, N, B, name):
    if not (N <= B and N.is_normal_in(B)):
        raise NotNormal("quotient by a subgroup that is not normal in B")
    mul = G._mul
    coset_of = [-1] * G.order
    reps = []
    for x in B.elems:
        if coset_of[x] < 0:
            idx = len(reps)
            reps.append(x)
            row = mul[x]
            for h in N.elems:
                coset_of[row[h]] = idx
    k = len(reps)
    table = [[coset_of[mul[reps[a]][reps[b]]] for b in range(k)]
             for a in range(k)]
    if name is None:
        base = G.name if B.order == G.order else f"{G.name}|sub{B.order}"
        name = f"{base}/{N.order}"
    Q = derived_group(table, name)
    proj = QuotientMap(G, Q, tuple(coset_of), tuple(reps))
    _check_projection(B, N, proj)
    return Q, proj


def _check_projection(B, N, proj):
    # a homomorphism on B with kernel exactly N (onto by construction)
    mul, qmul = B.parent._mul, proj.quotient._mul
    co = proj.coset_of
    gens = B.generators()
    for x in B.elems:
        for g in gens:
            if co[mul[x][g]] != qmul[co[x]][co[g]]:
                raise NonAssociative("projection is not a homomorphism")
    if proj.kernel_mask() != N.mask:
        raise NonAssociative("projection kernel differs from N")


# -- isomorphism and involvement -------------------------------------------


def _iso_search(G, H, find_all=False, prefix=()):
    """Image lists of the injective homomorphisms G -> H (H of G's order,
    so isomorphisms): all of them if ``find_all``, else the first or None.
    ``prefix`` fixes the images of the first generators (the first
    len(prefix) candidate pools are those images alone).

    A backtrack over the generators g_1..g_k of ``G.full_subgroup``; each
    g_i takes the elements of H of its order as candidate images, in
    increasing order.  The map is built as it goes on the elements of
    <g_1..g_i> reached so far: picking the image of g_i walks that
    subgroup as ``FiniteGroup._validate_table`` does (each old element
    times g_i, each new element times every g_j with j <= i) and sets
    t(x g) = t(x) t(g).  A clash with an image already set, or an element
    other than 1 sent to 1, shows that no homomorphism extends the prefix,
    so it is cut with its whole subtree.  A prefix that survives is an
    injective homomorphism on <g_1..g_i>: every product x g_j there has
    been checked, and its kernel is trivial.  Only subtrees without a
    valid leaf are cut, so the lists come in the order of the candidate
    tuples."""
    gens = G.full_subgroup.generators()
    by_order = {}
    for x in range(H.order):
        by_order.setdefault(H.elem_orders[x], []).append(x)
    pools = [(c,) for c in prefix]
    pools += [by_order.get(G.elem_orders[g], ()) for g in gens[len(prefix):]]
    gmul, hmul = G._mul, H._mul
    img = [None] * G.order
    img[0] = 0
    reached = [0]
    pairs = []   # (g_j, t(g_j)) for the generators fixed so far
    results = []

    def walk(old):
        # extend t from the first ``old`` reached elements to <g_1..g_i>
        last = pairs[-1:]
        for i, x in enumerate(reached):   # grows while it is walked
            row, trow = gmul[x], hmul[img[x]]
            for g, tg in (pairs if i >= old else last):
                y, ty = row[g], trow[tg]
                have = img[y]
                if have is None:
                    if ty == 0:
                        return False
                    img[y] = ty
                    reached.append(y)
                elif have != ty:
                    return False
        return True

    def extend(i):
        # True once the search may stop
        if i == len(gens):
            results.append(img[:])
            return not find_all
        old = len(reached)
        for c in pools[i]:
            pairs.append((gens[i], c))
            if walk(old) and extend(i + 1):
                return True
            pairs.pop()
            for y in reached[old:]:
                img[y] = None
            del reached[old:]
        return False

    extend(0)
    if find_all:
        return results
    return results[0] if results else None


def is_isomorphic(G, H):
    """(bool, witness GroupMorphism or None).  Groups that differ in
    order or element-order counts are told apart at once; otherwise the
    witness is the first map ``_iso_search`` finds, the least tuple of
    generator images that extends to an isomorphism.  The answer is
    computed once per (G, H) and kept on G."""
    return kept(G._isomorphic, H, _find_isomorphism, G, H)


def _find_isomorphism(G, H):
    if (G.order != H.order
            or Counter(G.elem_orders) != Counter(H.elem_orders)):
        return False, None
    images = _iso_search(G, H)
    if images is None:
        return False, None
    # an injective homomorphism by construction (see _iso_search)
    witness = GroupMorphism._make((G.full_subgroup, H.full_subgroup,
                                   dict(enumerate(images))))
    return True, witness


def aut_generators(S):
    """(generators of Aut(S) as image tuples, |Aut(S)|), found once per
    group and kept on it.

    The generators form a strong generating set for the base g_1..g_k of
    ``S.full_subgroup.generators()`` (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, ch. 4), found bottom-up.  At level i, from
    k down to 1, the generators found so far generate the pointwise
    stabilizer of g_1..g_i.  Each candidate image c of g_i (an element of
    g_i's order) is tried only when it lies outside the current orbit of
    g_i and outside every orbit already known to be dead, by one
    first-found ``_iso_search`` with g_1..g_{i-1} fixed and g_i sent to c.
    A hit is a new generator, and the orbit of g_i is walked again.  A
    miss kills the whole orbit of c: an automorphism fixing g_1..g_{i-1}
    that sent g_i into it would, composed with an element of the group
    found so far, send g_i to c.  The level ends with the generators
    transitive on the orbit of g_i under the stabilizer of g_1..g_{i-1},
    and containing the stabilizer of g_1..g_i, so they generate the
    former; |Aut(S)| is the product of the final orbit lengths."""
    if S._aut_gens is None:
        base = S.full_subgroup.generators()
        orders = S.elem_orders
        gens = []
        size = 1
        for i in range(len(base) - 1, -1, -1):
            g = base[i]
            reached = 1 << g   # the generators so far fix g
            dead = 0
            for c in range(S.order):
                if orders[c] != orders[g] or (reached | dead) >> c & 1:
                    continue
                images = _iso_search(S, S, prefix=base[:i] + (c,))
                if images is None:
                    dead |= mask_of(orbit(c, gens, tuple.__getitem__))
                else:
                    gens.append(tuple(images))
                    reached = mask_of(orbit(g, gens, tuple.__getitem__))
            size *= reached.bit_count()
        S._aut_gens = (tuple(gens), size)
    return S._aut_gens


def orbit(item, perms, move):
    """The orbit of ``item`` under the group the permutations ``perms``
    generate, as its breadth-first Schreier tree (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, ch. 4): a dict, in the order
    the walk meets them, from each member to (the member it was first
    reached from, the permutation that moved it there), and to None for
    ``item`` itself.  ``move(a, x)`` is the image of x under a."""
    tree = {item: None}
    todo = [item]
    for x in todo:   # grows while it is walked
        for a in perms:
            y = move(a, x)
            if y not in tree:
                tree[y] = (x, a)
                todo.append(y)
    return tree


def move_mask(a, m):
    """The image of the subset ``m`` under the permutation tuple a."""
    return mask_of(a[x] for x in bits(m))


def pull_mask(a, m):
    """The preimage of the subset ``m`` under the tuple a: the positions
    whose entries lie in ``m``."""
    return mask_of(x for x, y in enumerate(a) if m >> y & 1)


def mask_orbit(gens, mask, n):
    """The orbit of a subset ``mask`` of 0..n-1 under the group generated
    by the image tuples ``gens``, breadth-first from ``mask``: a list of
    (member, image tuple of an automorphism that maps ``mask`` onto it),
    the first entry (mask, identity).  Each automorphism is read off the
    orbit's Schreier tree, a o (that of the member it was reached from)."""
    alpha = {mask: tuple(range(n))}
    for m, (prev, a) in islice(orbit(mask, gens, move_mask).items(), 1, None):
        alpha[m] = compose_perms(a, alpha[prev])
    return list(alpha.items())


def is_involved(H, G):
    """Is H isomorphic to a section B/A of G?  Returns (bool, witness).

    The witness is a (B, A) Subgroup pair with B/A isomorphic to H.  The
    answer is computed once per (H, G) and kept on G.
    """
    return kept(G._involved, H, _find_section, H, G)


def _find_section(H, G):
    h = H.order
    if G.order % h != 0:
        return False, None
    # a B with h dividing |B| has a subgroup of order q, the largest
    # prime-power part r^a of h, and a G-conjugate of it lies in the
    # canonical Sylow r-subgroup P; so every G-class of such B meets the
    # overgroups of one subgroup of order q of P per G-class
    if h == 1:
        seeds = [G.trivial_subgroup]
    else:
        r = max(prime_divisors(h), key=lambda p: p_part(h, p))
        q = p_part(h, r)
        P = sylow(G, r)
        seeds = [P] if q == P.order else subgroup_class_reps(
            G, [R for R in P.subgroups_within() if R.order == q])
    # conjugate sections have isomorphic quotients: try the least member of
    # each class, in the (order, mask) order of the whole lattice
    seen = set()
    firsts = []
    for m in _subgroup_lattice_masks(G, seeds):
        if m.bit_count() % h == 0 and m not in seen:
            conjugates = _conjugates(G, m)
            seen.update(conjugates)
            firsts.append(min(conjugates))
    for bmask in sorted(firsts, key=lambda m: (m.bit_count(), m)):
        B = G.subgroup(bmask)
        for amask in _normal_subgroups_of_order(G, B, B.order // h):
            A = G.subgroup(amask)
            Q, _ = quotient_group(G, A, within=B)
            ok, _ = is_isomorphic(Q, H)
            if ok:
                return True, (B, A)
    return False, None
