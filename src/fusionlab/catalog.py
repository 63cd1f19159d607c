"""Built-in desk-scale group catalog.

Every entry carries a faithful permutation presentation on <= 64 points and
an expected order, checked when the entry is built.  The largest
entry is Qd(3) of order 216.
"""

from .errors import InternalInconsistency
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    build_group,
    is_isomorphic,
    kept,
)

_SL23_GENS = (((1, 1), (0, 1)), ((0, 2), (1, 0)))  # transvection, rotation
_GL23_GENS = (((1, 1), (0, 1)), ((0, 1), (1, 0)))  # transvection, swap (det -1)


def _matvec(mat, vec, p):
    return tuple(sum(mat[i][j] * vec[j] for j in range(len(vec))) % p
                 for i in range(len(mat)))


def _linear_perms(mats, p, dim):
    """Permutations of the nonzero vectors of F_p^dim (faithful for SL/GL)."""
    vecs = [v for v in _vectors(p, dim) if any(v)]
    index = {v: i for i, v in enumerate(vecs)}
    return [tuple(index[_matvec(m, v, p)] for v in vecs) for m in mats]


def _vectors(p, dim):
    if dim == 0:
        return [()]
    return [(a,) + v for a in range(p) for v in _vectors(p, dim - 1)]


def affine_qd_perms(p):
    """Generators of (Z_p x Z_p) : SL(2,p) acting on the p^2 vectors."""
    vecs = _vectors(p, 2)
    index = {v: i for i, v in enumerate(vecs)}
    if p == 2:
        sl_gens = (((1, 1), (0, 1)), ((0, 1), (1, 0)))
    else:
        sl_gens = (((1, 1), (0, 1)), ((0, p - 1), (1, 0)))
    perms = [tuple(index[_matvec(m, v, p)] for v in vecs) for m in sl_gens]
    shift = tuple(index[((v[0] + 1) % p, v[1])] for v in vecs)
    perms.append(shift)
    return perms


def _heisenberg3_perms():
    """Upper unitriangular 3x3 over F_3 acting on F_3^3 (order 27, exponent 3)."""
    vecs = _vectors(3, 3)
    index = {v: i for i, v in enumerate(vecs)}
    x = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    y = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    return [tuple(index[_matvec(m, v, 3)] for v in vecs) for m in (x, y)]


# name -> generator permutations, built only when the group is asked for
_PERM_SPECS = {
    "C2": lambda: [(1, 0)],
    "C3": lambda: [(1, 2, 0)],
    "C4": lambda: [(1, 2, 3, 0)],
    "V4": lambda: [(1, 0, 3, 2), (2, 3, 0, 1)],
    "S3": lambda: [(1, 0, 2), (1, 2, 0)],
    "D8": lambda: [(1, 2, 3, 0), (2, 1, 0, 3)],  # rotation, reflection
    # left multiplication by i and by j on 1, i, j, k, -1, -i, -j, -k
    "Q8": lambda: [(1, 4, 3, 6, 5, 0, 7, 2), (2, 7, 4, 1, 6, 3, 0, 5)],
    "C3xC3": lambda: [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)],
    "A4": lambda: [(1, 2, 0, 3), (0, 2, 3, 1)],
    "S4": lambda: [(1, 0, 2, 3), (1, 2, 3, 0)],
    "SL(2,3)": lambda: _linear_perms(_SL23_GENS, 3, 2),
    "GL(2,3)": lambda: _linear_perms(_GL23_GENS, 3, 2),
    "3^(1+2)+": _heisenberg3_perms,
    # C9 : C3 with b a b^-1 = a^4 (exponent 9): left multiplication by a
    # and by b on the elements a^i b^j, at 9j + i
    "3^(1+2)-": lambda: [tuple(x - x % 9 + (x + 1) % 9 for x in range(27)),
                         tuple(9 * ((x // 9 + 1) % 3) + 4 * x % 9
                               for x in range(27))],
    # C13 : C3 as the affine maps x -> x + 1 and x -> 3x on 13 points
    "C13:C3": lambda: [tuple((x + 1) % 13 for x in range(13)),
                       tuple(3 * x % 13 for x in range(13))],
    "Qd(3)": lambda: affine_qd_perms(3),
}

EXPECTED_ORDERS = {"C2": 2, "C3": 3, "C4": 4, "V4": 4, "S3": 6, "D8": 8,
                   "Q8": 8, "C3xC3": 9, "A4": 12, "S4": 24, "SL(2,3)": 24,
                   "GL(2,3)": 48, "3^(1+2)+": 27, "3^(1+2)-": 27,
                   "C13:C3": 39, "Qd(3)": 216}

CATALOG_NAMES = list(EXPECTED_ORDERS)

_cache: dict[str, FiniteGroup] = {}


def _build(name, spec, expected):
    """The group of the permutations ``spec()``, of the expected order."""
    g = build_group(spec(), name=name, kind="perms")
    if g.order != expected:
        raise InternalInconsistency(
            f"catalog group {name} has order {g.order}, expected {expected}")
    return g


def catalog_group(name) -> FiniteGroup:
    """Build (and memoize) a catalog group by name."""
    if name not in _PERM_SPECS:
        raise KeyError(f"unknown catalog group {name!r}")
    return kept(_cache, name, _build, name, _PERM_SPECS[name],
                EXPECTED_ORDERS[name])


def qd2_group() -> FiniteGroup:
    """Qd(2) = (Z_2 x Z_2) : SL(2,2), built once and kept beside the
    catalog entries; it is S4 in disguise."""
    return kept(_cache, "Qd(2)", _build, "Qd(2)",
                lambda: affine_qd_perms(2), EXPECTED_ORDERS["S4"])


def validate_catalog(cap=DEFAULT_ORDER_CAP):
    """{name: (order, expected order)} for every entry of order at most
    ``cap``, each checked at its expected order as it is built, plus the
    Qd(2) ~ S4 isomorphism sanity check when S4 is within the cap.  An
    entry above the cap is neither built nor checked."""
    report = {name: (catalog_group(name).order, EXPECTED_ORDERS[name])
              for name in CATALOG_NAMES if EXPECTED_ORDERS[name] <= cap}
    if "S4" in report and not is_isomorphic(qd2_group(),
                                            catalog_group("S4"))[0]:
        raise InternalInconsistency("Qd(2) is not isomorphic to the S4 entry")
    return report
