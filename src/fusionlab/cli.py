"""fusionlab command-line front end.

Exit codes: 0 ok, 1 usage or parse error, 2 theorem contradiction,
3 order cap exceeded.  Every verdict is computed afresh: nothing is cached
on disk.  Every exit 2 writes the witness of the contradiction to
contradiction-witness.txt in the current directory.
"""

import argparse
import os
import sys

from . import __version__
from .catalog import (
    CATALOG_NAMES,
    EXPECTED_ORDERS,
    catalog_group,
    validate_catalog,
)
from .errors import (
    FusionlabError,
    InternalInconsistency,
    OrderCapExceeded,
    ParseError,
)
from .fusion import (
    classify_subgroup,
    essential_subgroups,
    hom_set,
    realize_fusion,
    verify_axioms,
)
from .groupfile import eval_subgroup_spec, parse_group_file, perm_to_cycles
from .groups import is_prime, o_p, prime_divisors, sylow
from .hfree import is_fusion_H_free, is_group_H_free
from .pgroups import thompson_data
from .stellmacher import (
    canonical_family,
    compute_W_iterative,
    functor_checks,
)
from .subsystems import centralizer_like_system, normalizer_system, quotient_system
from .suite import RunConfig, SuiteResult, run_suite
from .theorems import (
    frobenius_check,
    thompson_group_check,
    verify_theorem_1,
    verify_theorem_2,
    verify_theorem_3,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRADICTION = 2
EXIT_CAP = 3

WITNESS_FILE = "contradiction-witness.txt"


def _load_group(spec, cap):
    """A group file path, or a built-in catalog name; either one is
    refused above the order cap before anything is printed."""
    if os.path.exists(spec):
        return parse_group_file(spec, cap=cap)
    return _catalog_group(spec, cap)


def _catalog_group(name, cap):
    """A catalog group, refused above the order cap."""
    if name not in CATALOG_NAMES:
        raise ParseError(f"no such file or catalog group: {name}")
    if EXPECTED_ORDERS[name] > cap:
        raise OrderCapExceeded(f"catalog group {name} has order "
                               f"{EXPECTED_ORDERS[name]} above cap {cap}")
    return catalog_group(name)


def _subgroup_desc(sub):
    gens = ", ".join(str(x) for x in sub.generators())
    return f"order {sub.order}, generators [{gens}]"


def cmd_analyze(args):
    G = _load_group(args.group, args.order_cap)
    whole = G.full_subgroup
    print(f"group {G.name}: order {G.order}, "
          f"{'abelian' if whole.is_abelian() else 'nonabelian'}")
    print(f"  center: order {whole.center().order}")
    print(f"  derived: order {whole.derived().order}")
    for p in prime_divisors(G.order):
        S = sylow(G, p)
        op = o_p(G, p)
        print(f"  p={p}: Sylow order {S.order}, O_p order {op.order}")
    print(f"  subgroups: {len(G.subgroups())}")
    return EXIT_OK


def cmd_jthompson(args):
    G = _load_group(args.group, args.order_cap)
    S = sylow(G, args.p)
    td = thompson_data(S)
    print(f"S = Sylow_{args.p}({G.name}): order {S.order}")
    print(f"  J(S): {_subgroup_desc(td.J)}")
    print(f"  A(S) = Omega(Z(S)): {_subgroup_desc(td.A)}")
    print(f"  B(S) = Omega(Z(J(S))): {_subgroup_desc(td.B)}")
    print(f"  abelian subgroups of maximal order {td.max_abelian_order}: "
          f"{len(td.max_abelian_subgroups)}")
    return EXIT_OK


def cmd_fusion(args):
    G = _load_group(args.group, args.order_cap)
    F = realize_fusion(G, args.p)
    S = F.carrier
    print(f"fusion system of {G.name} on Sylow_{args.p} of order {S.order}")
    report = verify_axioms(F)
    print(f"  axioms: {report.status}")
    if args.profile_all:
        print("  mask  order  fn  fc  centric  radical  essential")
        for Q in F.objects():
            prof = classify_subgroup(F, Q)
            print(f"  {Q.mask:>6x}  {Q.order:>5}  "
                  f"{prof.fully_normalized!s:>2.1}  "
                  f"{prof.fully_centralized!s:>2.1}  "
                  f"{prof.centric!s:>7.1}  {prof.radical!s:>7.1}  "
                  f"{prof.essential!s:>9.1}")
    if args.essentials:
        ess, ess_fn = essential_subgroups(F)
        print(f"  essential subgroups: {len(ess)}")
        for E in ess:
            fn = " (fully normalized)" if E in ess_fn else ""
            print(f"    {_subgroup_desc(E)}{fn}")
    if args.dump_homs:
        p_spec, r_spec = args.dump_homs
        P = eval_subgroup_spec(G, p_spec)
        R = eval_subgroup_spec(G, r_spec)
        morphisms = hom_set(F, P, R)
        print(f"  Hom(P,R) with |P|={P.order}, |R|={R.order}: "
              f"{len(morphisms)} morphisms")
        for m in morphisms:
            print(f"    {list(m.as_tuple())}")
    return EXIT_OK


def cmd_subsystem(args):
    G = _load_group(args.group, args.order_cap)
    F = realize_fusion(G, args.p)
    Q = eval_subgroup_spec(G, args.q)
    if not Q <= F.carrier:
        print("error: Q is not inside the Sylow subgroup", file=sys.stderr)
        return EXIT_USAGE
    if args.kind == "normalizer":
        sub = normalizer_system(F, Q)
    elif args.kind == "quotient":
        sub, _ = quotient_system(F, Q)
    else:
        sub = centralizer_like_system(F, Q, args.kind)
    print(f"{args.kind} subsystem at Q of order {Q.order}: "
          f"carrier order {sub.carrier.order}, status "
          f"{sub.saturation_status}")
    total = sum(len(sub.maps(P)) for P in sub.objects())
    print(f"  objects: {len(sub.objects())}, morphisms (extensional): {total}")
    return EXIT_OK


def _resolve_h(spec, cap):
    """sigma4 or qd3 (the catalog's S4 and Qd(3)), or what ``_load_group``
    reads; each is refused above the order cap."""
    name = {"sigma4": "S4", "qd3": "Qd(3)"}.get(spec)
    return _load_group(spec, cap) if name is None else _catalog_group(name, cap)


def cmd_hfree(args):
    G = _load_group(args.group, args.order_cap)
    H = _resolve_h(args.h, args.order_cap)
    group_rep = is_group_H_free(G, H)
    print(f"group {G.name} is {H.name}-free: {group_rep.free}")
    if not group_rep.free:
        B, A = group_rep.witness
        print(f"  witness section: |B|={B.order}, |A|={A.order}")
    F = realize_fusion(G, args.p)
    rep = is_fusion_H_free(F, H)
    print(f"fusion system at p={args.p} is {H.name}-free: {rep.free}")
    if not rep.free:
        Q, L, (B, A) = rep.witness
        print(f"  witness: Q of order {Q.order}, model of order {L.order}, "
              f"section |B|={B.order}, |A|={A.order}")
    return EXIT_OK


def cmd_wcompute(args):
    S_group = _load_group(args.sylow, args.order_cap)
    S = S_group.full_subgroup
    extras = [_load_group(path, args.order_cap) for path in args.family]
    fam = canonical_family(S, args.p, extras=extras,
                           include_catalog=args.catalog)
    print(f"family on S of order {S.order}: {len(fam.members)} members, "
          f"{len(fam.admitted_members())} admitted")
    for m in fam.members:
        flag = "admitted" if m.admitted else "rejected"
        print(f"  {m.system.name}: J-normal={m.j_normal} "
              f"Qd({args.p})-free={m.qd_free} -> {flag}")
    wc = compute_W_iterative(fam)
    print(f"chain: {' < '.join(format(m, 'x') for m in wc.chain)}"
          f" (length {len(wc.chain) - 1})")
    for mi, oi, mask in wc.witnesses:   # oi: index in the Aut(S)-orbit
        print(f"  grew from {mask:x} at member {mi}, automorphism {oi}")
    print(f"W(S): {_subgroup_desc(wc.W_iter)}")
    print(f"one-shot W: order {wc.W_oneshot.order}, equal: {wc.equal}")
    rep = functor_checks(fam)
    print(f"functor checks: characteristic={rep.characteristic_iter} "
          f"nontrivial={rep.nontrivial} "
          f"order-independent={rep.order_independent} "
          f"identification-independent={rep.identification_independent}")
    if not rep.all_hold():
        _dump_witness(repr(rep))
        return EXIT_CONTRADICTION
    return EXIT_OK


def cmd_verify(args):
    if args.theorem == "frobenius" and args.family:
        print("error: --theorem frobenius builds no W(S) family, so it "
              "takes no --family", file=sys.stderr)
        return EXIT_USAGE
    G = _load_group(args.group, args.order_cap)
    extras = [_load_group(path, args.order_cap) for path in args.family]
    if args.theorem == "frobenius":
        report = frobenius_check(G, args.p)
    elif args.theorem == "thompson":
        report = thompson_group_check(G, args.p, extras=extras)
    else:
        F = realize_fusion(G, args.p)
        harness = {"1": verify_theorem_1, "2": verify_theorem_2,
                   "3": verify_theorem_3}[args.theorem]
        report = harness(F, extras=extras)
    print(f"{report.theorem_id} on {report.instance}: "
          f"hypotheses={report.hypotheses_hold} "
          f"conclusion={report.conclusion_holds}")
    for key, value in sorted(report.detail.items(), key=lambda kv: kv[0]):
        print(f"  {key}: {value}")
    if report.contradiction:
        _dump_witness(repr(report))
        return EXIT_CONTRADICTION
    return EXIT_OK


def _dump_witness(text):
    """Write the witness to WITNESS_FILE in the current directory."""
    path = os.path.abspath(WITNESS_FILE)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"witness dump could not be written to {path}: {exc}",
              file=sys.stderr)
        return
    print(f"witness dump written to {path}", file=sys.stderr)


def cmd_suite(args):
    config = RunConfig(order_cap=args.order_cap, report_dir=args.report_dir)
    groups, refused = [], []
    for path in args.files:
        try:
            groups.append(parse_group_file(path, cap=args.order_cap))
        except OrderCapExceeded as exc:
            refused.append((path, str(exc)))
    result = run_suite(config, groups=groups, scope=args.scope,
                       refused=refused)
    out = result.to_tsv() if args.format == "tsv" else result.to_text()
    sys.stdout.write(out)
    if result.contradictions:
        rows = [r for r in result.rows if r[3] == "contradiction"]
        _dump_witness(SuiteResult(rows=rows).to_tsv().rstrip("\n"))
        return EXIT_CONTRADICTION
    return EXIT_OK if result.failures == 0 else EXIT_USAGE


def cmd_catalog(args):
    """The entries within the order cap, validated and listed; each entry
    above it gets one line and is not built."""
    report = validate_catalog(args.order_cap)
    for name in CATALOG_NAMES:
        if name not in report:
            print(f"{name:<10} order {EXPECTED_ORDERS[name]:>4}  skipped: "
                  f"above the order cap")
            continue
        G = catalog_group(name)
        gens = " ".join(perm_to_cycles(p) for p in G.perm_rep)
        print(f"{name:<10} order {G.order:>4}  gens: {gens}")
    note = " (incl. Qd(2) ~ S4)" if "S4" in report else ""
    print(f"validated {len(report)} entries{note}")
    return EXIT_OK


def _positive_int(text):
    """An argparse type: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, not {value}")
    return value


def _prime(text):
    """An argparse type: a prime."""
    value = _positive_int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"must be a prime, not {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_USAGE on a bad argument; argparse's own 2 is the
    contradiction code here.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="fusionlab",
        description="fusion systems of finite groups at desk scale")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--order-cap", type=_positive_int, default=1000,
                        help="largest admissible group order")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="basic structure of a group")
    p.add_argument("group")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("jthompson", help="J(S), A(S), B(S) of a Sylow subgroup")
    p.add_argument("group")
    p.add_argument("p", type=_prime)
    p.set_defaults(func=cmd_jthompson)

    p = sub.add_parser("fusion", help="fusion system classification tables")
    p.add_argument("group")
    p.add_argument("p", type=_prime)
    p.add_argument("--profile-all", action="store_true")
    p.add_argument("--essentials", action="store_true")
    p.add_argument("--dump-homs", nargs=2, metavar=("P", "R"))
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("subsystem", help="normalizer/centralizer/quotient "
                                         "subsystems")
    p.add_argument("group")
    p.add_argument("p", type=_prime)
    p.add_argument("--kind", required=True,
                   choices=["normalizer", "centralizer", "mixed", "product",
                            "quotient"])
    p.add_argument("--q", required=True,
                   help="subgroup spec: generator words or element indices")
    p.set_defaults(func=cmd_subsystem)

    p = sub.add_parser("hfree", help="H-freeness of a group and its fusion "
                                     "system")
    p.add_argument("group")
    p.add_argument("p", type=_prime)
    p.add_argument("--h", required=True,
                   help="sigma4, qd3, or a group file")
    p.set_defaults(func=cmd_hfree)

    p = sub.add_parser("wcompute", help="the characteristic subgroup W(S)")
    p.add_argument("sylow", help="group file for S itself")
    p.add_argument("p", type=_prime)
    p.add_argument("--family", nargs="*", default=[],
                   help="additional candidate group files")
    p.add_argument("--catalog", action="store_true",
                   help="include matching catalog groups in the family")
    p.set_defaults(func=cmd_wcompute)

    p = sub.add_parser("verify", help="theorem verification harnesses")
    p.add_argument("--theorem", required=True,
                   choices=["1", "2", "3", "frobenius", "thompson"])
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--family", nargs="*", default=[])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("suite", help="full invariant and theorem sweep")
    p.add_argument("files", nargs="*", help="extra group files to include")
    p.add_argument("--scope", choices=["catalog", "files"],
                   default="catalog",
                   help="sweep the catalog plus files, or the files only")
    p.add_argument("--format", choices=["text", "tsv"], default="text")
    p.add_argument("--report-dir", default=None,
                   help="write per-instance TSV reports here")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("catalog", help="list and validate built-in groups")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OrderCapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InternalInconsistency as exc:
        _dump_witness(str(exc))
        print(f"CONTRADICTION: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION
    except FusionlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
