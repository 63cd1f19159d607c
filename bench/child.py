"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage::

    child.py [--setup-only] [--trace SPANS] REPORT w648
    child.py [--setup-only] [--trace SPANS] REPORT cli -- CLI-ARGS...

Imports fusionlab (from the PYTHONPATH that run.py sets), builds the inputs,
runs the timed body once and writes REPORT as JSON: the monotonic clock at
the end of set-up and at the end of the body, the body's CPU seconds, and
what the body produced, which run.py checks.  With ``--trace`` the layer
wrappers of ``spans.py`` are installed right after import and the spans and
counters of the whole process are written to SPANS.  ``w648`` is the body of
``test_growth_loop_takes_a_real_step``; ``cli`` is one ``fusionlab.cli.main``
call with its standard output captured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def build_w648():
    """F3^3 : (C2^3 : C3) of order 648, as in the tests' fixture."""
    from fusionlab.groups import build_group

    vecs = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    idx = {v: i for i, v in enumerate(vecs)}
    t = tuple(idx[((v[0] + 1) % 3, v[1], v[2])] for v in vecs)
    s = tuple(idx[(v[2], v[0], v[1])] for v in vecs)
    d = tuple(idx[((-v[0]) % 3, v[1], v[2])] for v in vecs)
    return build_group([t, s, d], name="W648", kind="perms")


def w648_body(G):
    """Honest admission, the W growth step, and the checks that follow it."""
    from fusionlab.fusion import FusionSystem
    from fusionlab.groups import sylow
    from fusionlab.pgroups import is_characteristic, thompson_data
    from fusionlab.stellmacher import (CandidateFamily, FamilyMember,
                                       admit_member, compute_W_iterative)
    from fusionlab.subsystems import is_normal_in_F

    S = sylow(G, 3)
    model, embed = S.as_group()
    td = thompson_data(S)
    member = admit_member(model, G, 3)
    inner = FusionSystem.inner(S, 3)
    j_normal, _ = is_normal_in_F(inner, thompson_data(S).J)
    inner_member = FamilyMember(system=inner, identification=embed,
                                j_normal=j_normal, qd_free=True)
    fam = CandidateFamily(S=model, p=3, members=(inner_member, member))
    wc = compute_W_iterative(fam)
    normal = all(
        is_normal_in_F(m.system,
                       m.system.host.subgroup(m.push_mask(wc.W_iter.mask)))[0]
        for m in fam.admitted_members())
    return {"A": td.A.order, "B": td.B.order, "J": td.J.order,
            "admitted": member.admitted, "chain_len": len(wc.chain),
            "W_iter": wc.W_iter.order, "W_oneshot": wc.W_oneshot.order,
            "equal": wc.equal,
            "characteristic": is_characteristic(wc.W_iter,
                                                fam.S.full_subgroup),
            "normal_in_members": normal}


def cli_body(argv):
    from fusionlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue()}


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("report")
    parser.add_argument("workload", choices=["w648", "cli"])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args(argv)

    import fusionlab
    if args.workload == "cli":
        import fusionlab.cli  # noqa: F401

    src = os.path.realpath(os.environ["PYTHONPATH"])
    if not os.path.realpath(fusionlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"fusionlab imported from {fusionlab.__file__}, "
                         f"not from {src}")
    recorder = None
    dropped = []
    if args.trace:
        import spans

        recorder = spans.Recorder()
        _, dropped = spans.install(recorder)
    group = build_w648() if args.workload == "w648" else None
    report = {"ready": time.monotonic()}
    if not args.setup_only:
        cpu0 = cpu_seconds()
        if args.workload == "w648":
            report["observed"] = w648_body(group)
        else:
            report["observed"] = cli_body(args.cli_args)
        report["end"] = time.monotonic()
        report["cpu_s"] = cpu_seconds() - cpu0
    if recorder is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans,
                       "counters": recorder.counters,
                       "dropped": dropped}, fh)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
