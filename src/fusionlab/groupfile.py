"""Line-based group file format.

::

    group <name>          # header, required first
    perm <n>              # generators on n points, one per line, in cycle
    (1 2)(3 4)            #   notation with 1-based points
    (1 3 2 4)
    ...
    table <n>             # alternative body: n rows of n 0-based indices

Comments start with ``#`` and blank lines are ignored.  The name must
be printable: no tab or other control character.
"""

import re

from .errors import ParseError
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, build_group

_CYCLE_RE = re.compile(r"\(\s*(\d+(?:[\s,]+\d+)*)?\s*\)")


def parse_cycles(text, n, line_no=None):
    """One permutation on n points from cycle notation like (1 2)(3 4)."""
    perm = list(range(n))
    pos = 0
    stripped = text.strip()
    if stripped in ("()", "id", "identity"):
        return tuple(perm)
    while pos < len(stripped):
        m = _CYCLE_RE.match(stripped, pos)
        if m is None:
            raise ParseError(f"malformed cycle notation {text!r}", line=line_no)
        body = m.group(1)
        if body:
            points = [int(tok) for tok in re.split(r"[\s,]+", body.strip())]
            for pt in points:
                if not 1 <= pt <= n:
                    raise ParseError(f"point {pt} outside 1..{n}",
                                     line=line_no)
            zero = [pt - 1 for pt in points]
            if len(set(zero)) != len(zero):
                raise ParseError(f"repeated point in cycle {text!r}",
                                 line=line_no)
            for i, pt in enumerate(zero):
                perm[pt] = zero[(i + 1) % len(zero)]
        pos = m.end()
        while pos < len(stripped) and stripped[pos].isspace():
            pos += 1
    return tuple(perm)


def parse_group_text(text, cap=DEFAULT_ORDER_CAP) -> FiniteGroup:
    lines = text.splitlines()
    name = None
    mode = None
    n = None
    perms = []
    rows = []
    for idx, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            parts = line.split(None, 1)
            if parts[0] != "group" or len(parts) != 2:
                raise ParseError("expected 'group <name>' header", line=idx)
            name = parts[1].strip()
            if not name.isprintable():
                # a tab or control character would split the suite's TSV
                raise ParseError(f"group name {name!r} is not printable",
                                 line=idx)
            continue
        if mode is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] not in ("perm", "table"):
                raise ParseError("expected 'perm <n>' or 'table <n>'",
                                 line=idx)
            mode = parts[0]
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"bad size {parts[1]!r}", line=idx)
            if n < 1:
                raise ParseError("size must be positive", line=idx)
            if mode == "perm" and n > 64:
                raise ParseError("permutations act on at most 64 points",
                                 line=idx)
            continue
        if mode == "perm":
            perms.append(parse_cycles(line, n, line_no=idx))
        else:
            try:
                row = [int(tok) for tok in line.split()]
            except ValueError:
                raise ParseError(f"bad table row {line!r}", line=idx)
            if len(row) != n:
                raise ParseError(f"table row has {len(row)} entries, "
                                 f"expected {n}", line=idx)
            rows.append(row)
    if name is None:
        raise ParseError("empty group file", line=len(lines) or 1)
    if mode is None:
        raise ParseError("missing 'perm <n>' or 'table <n>' section",
                         line=len(lines))
    if mode == "perm":
        return build_group([list(p) for p in perms], name=name,
                           cap=cap, kind="perms")
    if len(rows) != n:
        raise ParseError(f"table has {len(rows)} rows, expected {n}",
                         line=len(lines))
    return build_group(rows, name=name, cap=cap, kind="table")


def parse_group_file(path, cap=DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The group in the file at ``path``; a file that cannot be read as
    UTF-8 text is a ParseError, as a malformed one is."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_group_text(text, cap=cap)


def eval_subgroup_spec(G, spec):
    """Comma-separated generator words over the group's generator alphabet
    (a..z = file generators in order, uppercase = inverse), or plain element
    indices; returns the generated Subgroup."""
    gens = []
    for word in spec.split(","):
        word = word.strip()
        if not word:
            continue
        if word.isdigit():
            idx = int(word)
            if not 0 <= idx < G.order:
                raise ParseError(f"element index {idx} out of range")
            gens.append(idx)
            continue
        if G.gen_indices is None:
            raise ParseError("group has no generator alphabet; use indices")
        value = 0
        for ch in word:
            if ch.islower():
                k = ord(ch) - ord("a")
            elif ch.isupper():
                k = ord(ch) - ord("A")
            else:
                raise ParseError(f"bad character {ch!r} in word {word!r}")
            if k >= len(G.gen_indices):
                raise ParseError(f"generator {ch!r} not defined; group has "
                                 f"{len(G.gen_indices)} generators")
            g = G.gen_indices[k]
            if ch.isupper():
                g = G.inv[g]
            value = G.mul(value, g)
        gens.append(value)
    mask = G.closure_mask(gens, 1)
    return G.subgroup(mask)


def perm_to_cycles(perm):
    """Cycle-notation string (1-based) for a permutation tuple."""
    seen = set()
    out = []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = perm[j]
        out.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(out) if out else "()"
