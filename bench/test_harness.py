"""Tests of the benchmark harness itself (not part of the Tier-1 suite).

    python3 -m pytest bench/test_harness.py
"""

import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_of_nested_spans():
    # a [0,10] holds b [1,4] (holding c [2,3]) and b [5,9] (holding b [6,7])
    trace = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 9.0, 0], ["b", 6.0, 7.0, 3]]
    rows = spans.aggregate(trace)
    assert rows["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    # the recursive b counts once in s, every b counts in self_s
    assert rows["b"] == {"calls": 3, "s": 7.0, "self_s": 6.0}
    assert rows["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert sum(r["self_s"] for r in rows.values()) == 10.0


def test_tampered_output_is_a_failure():
    r = run.Run(seed=0)
    try:
        proc = r.child("cli", r.fresh_dir(), ["analyze", "S4"])
    finally:
        r.close()
    expected = r.reference["cli"]["analyze"]
    observed = proc.observed
    assert run.check_cli(expected, observed)
    tampered = dict(observed, stdout=observed["stdout"].replace("24", "25"))
    assert not run.check_cli(expected, tampered)
    assert not run.check_cli(expected, dict(observed, code=2))
    assert not run.check_cli(expected, None)       # the child crashed

    tsv = "section\tinstance\tcheck\tstatus\tdetail\naxioms\tS4@p=2\tx\tpass\t\n"
    ok = {"code": 0, "stdout": tsv}
    assert run.check_suite({"code": 0, "sha256": run.sha256(tsv)}, ok)
    bad = tsv.replace("pass", "fail")
    assert not run.check_suite({"code": 0, "sha256": run.sha256(tsv)},
                               {"code": 0, "stdout": bad})
    # a fail row is refused even when the digest was recorded with it
    assert not run.check_suite({"code": 0, "sha256": run.sha256(bad)},
                               {"code": 0, "stdout": bad})

    w648 = r.reference["w648"]
    assert run.check_w648(w648, dict(w648))
    assert not run.check_w648(w648, dict(w648, W_iter=9))

    # a failed sample is counted, and its time is never used
    samples = [run.Sample(ok=True, wall_s=1.0, setup_s=0.1),
               run.Sample(ok=False, failed=1, wall_s=100.0)]
    assert run.e2e_metrics(samples, [0.1])["wall_ref_s"] == 1.0
    assert run.e2e_metrics(samples[1:], [0.1]) is None


def test_samples_are_scaled_by_the_speed_probe():
    # a host running at half speed doubles both the sample and the probe
    fast = run.Sample(ok=True, wall_s=2.0, cpu_s=1.5, setup_s=0.1,
                      scale=run.REF_PROBE_S / 0.2)
    slow = run.Sample(ok=True, wall_s=4.0, cpu_s=3.0, setup_s=0.1,
                      scale=run.REF_PROBE_S / 0.4)
    assert (fast.wall_ref_s, fast.cpu_ref_s) == (slow.wall_ref_s,
                                                 slow.cpu_ref_s)
    assert fast.setup_ref_s == 2 * slow.setup_ref_s
    probe = run.speed_probe(run.PROBE_REPS)
    assert 0 < probe < 60


def test_wrapping_leaves_return_values_identical():
    catalog, groups, stellmacher = (
        importlib.import_module(f"fusionlab.{name}")
        for name in ("catalog", "groups", "stellmacher"))
    G = catalog.catalog_group("SL(2,3)")
    S = groups.sylow(G, 2)
    lattice = G.subgroups()
    plain_w = stellmacher.compute_W_iterative(
        stellmacher.canonical_family(S, 2))
    plain_table = groups.build_group(G.perm_rep, kind="perms")._mul

    original = groups.sylow
    recorder = spans.Recorder()
    patches, dropped = spans.install(recorder)
    try:
        assert dropped == []
        assert groups.sylow is not original
        assert stellmacher.sylow is groups.sylow      # imported bindings too
        assert catalog.catalog_group("SL(2,3)") is G
        assert groups.sylow(G, 2) is S
        assert G.subgroups() == lattice
        traced_w = stellmacher.compute_W_iterative(
            stellmacher.canonical_family(S, 2))
        assert (traced_w.chain, traced_w.W_iter.mask, traced_w.W_oneshot.mask) \
            == (plain_w.chain, plain_w.W_iter.mask, plain_w.W_oneshot.mask)
        assert groups.build_group(G.perm_rep, kind="perms")._mul == plain_table
    finally:
        spans.uninstall(patches)
    assert groups.sylow is original and stellmacher.sylow is original
    names = {span[0] for span in recorder.spans}
    assert {"groups.sylow", "stellmacher.compute_W_iterative",
            "groups.build_group"} <= names
    assert recorder.counters["stellmacher.compute_W_iterative.growth_steps"] \
        == len(plain_w.chain) - 1
