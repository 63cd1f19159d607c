import importlib

import pytest

from fusionlab import groups, stellmacher
from fusionlab.catalog import CATALOG_NAMES, catalog_group
from fusionlab.fusion import realize_fusion
from fusionlab.groupfile import perm_to_cycles
from fusionlab.groups import build_group, sylow


@pytest.fixture()
def cold_start(monkeypatch):
    """A call that empties the registries outliving a call (the catalog's
    groups, the families and the groups by table), so that what runs next
    builds every group, system and memo afresh; the test's end restores
    them."""
    catalog = importlib.import_module("fusionlab.catalog")

    def empty():
        monkeypatch.setattr(catalog, "_cache", {})
        monkeypatch.setattr(stellmacher, "_family_cache", {})
        monkeypatch.setattr(groups, "_by_table", {})

    return empty


@pytest.fixture(scope="session")
def cat():
    """name -> FiniteGroup for every built-in group."""
    return {name: catalog_group(name) for name in CATALOG_NAMES}


@pytest.fixture(scope="session")
def systems(cat):
    """(name, p) -> realized fusion system for every catalog pair p | |G|."""
    out = {}
    for name, G in cat.items():
        for p in (2, 3):
            if G.order % p == 0:
                out[(name, p)] = realize_fusion(G, p)
    return out


@pytest.fixture(scope="session")
def wreath648():
    """F3^3 : (C2^3 : C3); Sylow-3 is C3 wr C3, where A(S) < B(S) so the
    W-growth loop takes a genuine step."""
    vecs = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    idx = {v: i for i, v in enumerate(vecs)}
    t = tuple(idx[((v[0] + 1) % 3, v[1], v[2])] for v in vecs)
    s = tuple(idx[(v[2], v[0], v[1])] for v in vecs)
    d = tuple(idx[((-v[0]) % 3, v[1], v[2])] for v in vecs)
    return build_group([t, s, d], name="W648", kind="perms")


def _gf16_mul(a, b):
    """The product in GF(16) = F2[x]/(x^4 + x + 1), elements as 4-bit ints."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & 16:
            a ^= 0b10011
    return out


@pytest.fixture(scope="session")
def f16c5c4():
    """F16 : (C5 : C4), the subgroup of AGammaL(1,16) of order 320 on the 16
    field elements: the four translations, multiplication by x^3 (order 5)
    and the Frobenius map v -> v^2.  Sylow-2 is C2 wr C4, where A(S) < B(S)
    so the W-growth loop takes a genuine step at p = 2."""
    gens = [tuple(v ^ 1 << i for v in range(16)) for i in range(4)]
    gens.append(tuple(_gf16_mul(v, 8) for v in range(16)))
    gens.append(tuple(_gf16_mul(v, v) for v in range(16)))
    return build_group(gens, name="F16:(C5:C4)", kind="perms")


@pytest.fixture(scope="session")
def gl32():
    """GL(3,2) = PSL(2,7) of order 168 on the 7 nonzero vectors of F_2^3.
    At p = 2 its Sylow subgroup is D8 with two essential subgroups, both
    fully normalized, whose intersection is Z(S) of order 2, and O_2(F) =
    1: the O_p(F) fixpoint shrinks, and an Alperin search meets states
    inside neither essential."""
    from fusionlab.catalog import _linear_perms

    mats = (((1, 1, 0), (0, 1, 0), (0, 0, 1)),
            ((0, 0, 1), (1, 0, 1), (0, 1, 0)))
    return build_group(_linear_perms(mats, 2, 3), name="GL(3,2)",
                       kind="perms")


@pytest.fixture()
def group_file(tmp_path):
    """write(G) -> the path of a group file in tmp_path with G's
    permutation generators."""
    def write(G):
        path = tmp_path / f"{len(list(tmp_path.glob('*.grp')))}.grp"
        lines = [f"group {G.name}", f"perm {len(G.perm_rep[0])}"]
        lines += [perm_to_cycles(g) for g in G.perm_rep]
        path.write_text("\n".join(lines) + "\n")
        return str(path)
    return write


@pytest.fixture()
def growth_files(group_file, wreath648, f16c5c4):
    """The two growth instances as group files: W648 (p = 3) and
    F16:(C5:C4) (p = 2)."""
    return {"W648": group_file(wreath648), "F16": group_file(f16c5c4)}


@pytest.fixture(scope="session")
def aut_cases(cat):
    """label -> group whose automorphism group the tests check against the
    listed oracle: every catalog Sylow model (SD16 among them, as
    "GL(2,3)@2"), D8 x D8 (2048 automorphisms) and C2^4 (20160)."""
    out = {}
    for name, G in cat.items():
        for p in (2, 3):
            if G.order % p == 0:
                out[f"{name}@{p}"] = sylow(G, p).as_group()[0]
    d8 = [(1, 2, 3, 0), (0, 3, 2, 1)]
    out["D8xD8"] = build_group(
        [a + tuple(range(4, 8)) for a in d8]
        + [tuple(range(4)) + tuple(x + 4 for x in a) for a in d8],
        kind="perms", name="D8xD8")
    out["C2^4"] = build_group(
        [tuple(x ^ 1 if x // 2 == k else x for x in range(8))
         for k in range(4)], kind="perms", name="C2^4")
    return out
