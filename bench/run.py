#!/usr/bin/env python3
"""fusionlab benchmark: runs one workload and reports its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``suite_cold``, ``suite_warm``, ``w648_growth``,
``cli_calls``, or ``all`` for every workload in turn.  Each timed sample runs
in a fresh interpreter (``child.py``) with its own ``FUSIONLAB_CACHE``
directory under ``.bench_work/`` in the checkout, because the library
memoizes in module globals and on group objects.  Samples run one at a time
until S seconds of measuring have passed, on one CPU, with a fixed speed
probe before and after each so that its times can be scaled to a reference
host speed; every sample's output is checked against ``reference.json`` and
a sample that fails the check is counted as failed, never timed.  The last
line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1`` (taken from one extra sample run with the wrappers of
``spans.py`` installed).  The lines before it show every metric with its
unit and the run's metadata.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SUITE_ARGS = ["suite", "--format", "tsv"]
D8_FILE = "group D8file\nperm 4\n(1 2)\n(1 3 2 4)\n"
# (label, argv): one call per subcommand, hfree for both H, verify for every
# theorem; "{d8}" is the group file the benchmark writes
CLI_CALLS = [
    ("catalog", ["catalog"]),
    ("analyze", ["analyze", "S4"]),
    ("jthompson", ["jthompson", "GL(2,3)", "2"]),
    ("fusion", ["fusion", "S4", "2", "--profile-all", "--essentials"]),
    ("subsystem", ["subsystem", "S4", "2", "--kind", "normalizer",
                   "--q", "0"]),
    ("hfree-sigma4", ["hfree", "SL(2,3)", "2", "--h", "sigma4"]),
    ("hfree-qd3", ["hfree", "GL(2,3)", "3", "--h", "qd3"]),
    ("wcompute", ["wcompute", "{d8}", "2", "--catalog"]),
    ("verify-1", ["verify", "--theorem", "1", "--group", "SL(2,3)",
                  "--p", "2"]),
    ("verify-2", ["verify", "--theorem", "2", "--group", "S4", "--p", "2"]),
    ("verify-3", ["verify", "--theorem", "3", "--group", "3^(1+2)+",
                  "--p", "3"]),
    ("verify-frobenius", ["verify", "--theorem", "frobenius", "--group",
                          "A4", "--p", "3"]),
    ("verify-thompson", ["verify", "--theorem", "thompson", "--group",
                         "GL(2,3)", "--p", "3"]),
]
SETUPS = 9              # set-up times per run, topped up by set-up-only runs
REF_PROBE_S = 0.4       # speed_probe(PROBE_REPS) seconds at the reference speed
PROBE_REPS = 300        # speed_probe() repetitions between samples
CALL_PROBE_REPS = 100   # shorter probe between the calls of a CLI sequence
FILLS = 3               # cache fills per suite_warm run, set-up takes the median
RUN_LIMIT_S = 170       # a run must exit within 180 s


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- output checks ------------------------------------------------------------


def check_cli(expected, observed):
    """The call's exit code and stdout digest match the reference."""
    return (observed is not None and observed["code"] == expected["code"]
            and sha256(observed["stdout"]) == expected["sha256"])


def check_suite(expected, observed):
    """Reference TSV digest, and no ``fail`` or ``contradiction`` row."""
    if not check_cli(expected, observed):
        return False
    rows = [line.split("\t") for line in observed["stdout"].splitlines()[1:]]
    return all(row[3] not in ("fail", "contradiction") for row in rows)


def check_w648(expected, observed):
    return observed == expected


# -- child processes ----------------------------------------------------------


@dataclass
class Proc:
    """One finished child: exit code, parent-side clock, rusage, report."""

    code: int
    launch: float
    exit: float
    rss_mb: float
    cpu_total_s: float
    report: dict | None
    trace: dict | None

    @property
    def setup_s(self):
        return self.report["ready"] - self.launch

    @property
    def body_s(self):
        return self.report["end"] - self.report["ready"]

    @property
    def observed(self):
        if self.code != 0 or self.report is None:
            return None
        return self.report.get("observed")


@dataclass
class Sample:
    """One timed unit: a suite run, a W648 body or a CLI call sequence."""

    ok: bool
    attempted: int = 1
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float | None = None
    peak_rss_mb: float = 0.0
    call_s: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)
    # REF_PROBE_S over the speed probe's seconds around this sample
    scale: float = 1.0

    @property
    def wall_ref_s(self):
        return self.wall_s * self.scale

    @property
    def cpu_ref_s(self):
        return self.cpu_s * self.scale

    @property
    def setup_ref_s(self):
        return None if self.setup_s is None else self.setup_s * self.scale


def spawn(argv, env, cwd, log, timeout):
    """Run argv to completion; (exit code, launch, exit, rusage)."""
    launch = time.monotonic()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=log, stderr=log)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, launch, end, usage


class Run:
    """Working directory, environment and deadline of one benchmark run."""

    def __init__(self, seed):
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
        self.seed = seed
        self.probes = []        # speed_probe() seconds, per PROBE_REPS
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)
        base = {k: v for k, v in os.environ.items()
                if not k.startswith(("PYTHON", "FUSIONLAB"))}
        base.update(PYTHONPATH=SRC,
                    PYTHONHASHSEED=str(seed % 2**32),
                    PYTHONPYCACHEPREFIX=os.path.join(self.work, "pycache"),
                    HOME=self.fresh_dir(),
                    XDG_CACHE_HOME=self.fresh_dir())
        self.base_env = base

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)     # only when no other run is using it
        except OSError:
            pass

    def probe(self, reps=PROBE_REPS):
        self.probes.append(speed_probe(reps) * PROBE_REPS / reps)

    def path(self, name):
        return os.path.join(self.work, name)

    def fresh_dir(self):
        self.count += 1
        path = self.path(f"d{self.count}")
        os.makedirs(path)
        return path

    def child(self, workload, cache_dir, cli_args=(), setup_only=False,
              trace=False):
        self.count += 1
        report_path = self.path(f"report{self.count}.json")
        trace_path = self.path(f"spans{self.count}.json")
        argv = [sys.executable, CHILD]
        if setup_only:
            argv.append("--setup-only")
        if trace:
            argv += ["--trace", trace_path]
        argv += [report_path, workload, "--", *cli_args]
        env = dict(self.base_env, FUSIONLAB_CACHE=cache_dir)
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.path(f"log{self.count}.txt"), "wb") as log:
            code, launch, end, usage = spawn(argv, env, self.work, log,
                                             timeout)
        return Proc(code=code, launch=launch, exit=end,
                    rss_mb=usage.ru_maxrss / 1024,
                    cpu_total_s=usage.ru_utime + usage.ru_stime,
                    report=_load(report_path) if code == 0 else None,
                    trace=_load(trace_path) if code == 0 and trace else None)


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# -- workloads ------------------------------------------------------------------
#
# Each returns (sample, setup_run) after its per-run set-up: sample(trace)
# runs one timed Sample, setup_run() one set-up-only child and returns its
# set-up time.


def suite_workload(run, warm):
    expected = run.reference["suite"]
    fill_s, filled = 0.0, True
    template = run.fresh_dir()
    if warm:
        # suite runs on empty caches, checked but not timed as samples; the
        # last one fills the cache every sample copies
        fills = []
        for _ in range(FILLS):
            template = run.fresh_dir()
            proc = run.child("cli", template, SUITE_ARGS)
            fills.append(proc.exit - proc.launch)
            filled = filled and check_suite(expected, proc.observed)
        fill_s = statistics.median(fills)

    def cache_copy():
        start = time.monotonic()
        cache = run.fresh_dir()
        shutil.copytree(template, cache, dirs_exist_ok=True)
        return cache, time.monotonic() - start

    def sample(trace):
        cache, copy_s = cache_copy()
        proc = run.child("cli", cache, SUITE_ARGS, trace=trace)
        if not (filled and check_suite(expected, proc.observed)):
            return Sample(ok=False, failed=1)
        return Sample(ok=True, wall_s=proc.body_s,
                      cpu_s=proc.report["cpu_s"],
                      setup_s=fill_s + copy_s + proc.setup_s,
                      peak_rss_mb=proc.rss_mb,
                      traces=[proc.trace] if trace else [])

    def setup_run():
        cache, copy_s = cache_copy()
        proc = run.child("cli", cache, setup_only=True)
        return fill_s + copy_s + proc.setup_s if proc.report else None

    return sample, setup_run


def w648_workload(run):
    expected = run.reference["w648"]

    def sample(trace):
        proc = run.child("w648", run.fresh_dir(), trace=trace)
        if not check_w648(expected, proc.observed):
            return Sample(ok=False, failed=1)
        return Sample(ok=True, wall_s=proc.body_s,
                      cpu_s=proc.report["cpu_s"], setup_s=proc.setup_s,
                      peak_rss_mb=proc.rss_mb,
                      traces=[proc.trace] if trace else [])

    def setup_run():
        proc = run.child("w648", run.fresh_dir(), setup_only=True)
        return proc.setup_s if proc.report else None

    return sample, setup_run


def cli_workload(run):
    expected = run.reference["cli"]
    d8 = run.path("d8.grp")
    with open(d8, "w", encoding="utf-8") as fh:
        fh.write(D8_FILE)

    def sample(trace):
        cache = run.fresh_dir()
        procs = []
        for label, argv in CLI_CALLS:
            if procs:
                # the host's speed drifts within a sequence; a probe between
                # calls lets the sample's scale follow it
                run.probe(CALL_PROBE_REPS)
            procs.append((label, run.child(
                "cli", cache, [a.replace("{d8}", d8) for a in argv],
                trace=trace)))
        wall = sum(proc.exit - proc.launch for _, proc in procs)
        failed = sum(not check_cli(expected[label], proc.observed)
                     for label, proc in procs)
        if failed:
            return Sample(ok=False, attempted=len(procs), failed=failed)
        return Sample(ok=True, attempted=len(procs), wall_s=wall,
                      cpu_s=sum(proc.cpu_total_s for _, proc in procs),
                      setup_s=statistics.median(proc.setup_s
                                                for _, proc in procs),
                      peak_rss_mb=max(proc.rss_mb for _, proc in procs),
                      call_s={label: proc.body_s for label, proc in procs},
                      traces=[proc.trace for _, proc in procs] if trace
                      else [])

    def setup_run():
        # set-up of a CLI call: interpreter start plus `import fusionlab.cli`
        proc = run.child("cli", run.fresh_dir(), setup_only=True)
        return proc.setup_s if proc.report else None

    return sample, setup_run


WORKLOADS = {
    "suite_cold": lambda run: suite_workload(run, warm=False),
    "suite_warm": lambda run: suite_workload(run, warm=True),
    "w648_growth": w648_workload,
    "cli_calls": cli_workload,
}


# -- measuring ------------------------------------------------------------------


def speed_probe(reps):
    """Seconds for a fixed pure-Python job: how fast the host runs now.

    The job (closing S6 under two generators, reps times) never changes, so
    a program change cannot move it; only the host's speed does.
    """
    start = time.perf_counter()
    gens = ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5))
    for _ in range(reps):
        seen, frontier = set(gens), list(gens)
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    c = tuple(a[i] for i in g)
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
            frontier = new
        if len(seen) != 720:
            raise RuntimeError("speed probe: S6 closure is wrong")
    return time.perf_counter() - start


def measure(workload, seed, seconds, trace):
    """Run one workload; (samples, set-up times, traced sample or None,
    speed-probe seconds).

    The driver and every child it starts share one CPU, and the speed probe
    runs before the first sample and after each sample or set-up-only child
    (and between the calls of a CLI sequence), so each time, set-up
    included, is scaled by the mean host speed measured on its CPU just
    before, during and after it.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = Run(seed)

    def scaled(job, *args):
        """job(*args) and REF_PROBE_S over the mean probe around it."""
        first = len(run.probes) - 1
        out = job(*args)
        run.probe()
        return out, REF_PROBE_S / statistics.mean(run.probes[first:])

    def probed(trace):
        out, scale = scaled(sample, trace)
        out.scale = scale
        return out

    def probed_setup():
        setup_s, scale = scaled(setup_run)
        return None if setup_s is None else setup_s * scale

    try:
        # compiles the byte code and warms the file cache, untimed
        run.child("cli", run.fresh_dir(), setup_only=True)
        sample, setup_run = WORKLOADS[workload](run)
        samples = []
        start = time.monotonic()
        run.probe()
        while not samples or (time.monotonic() - start < seconds
                              and time.monotonic() < run.deadline - 60):
            samples.append(probed(False))
        setups = [s.setup_ref_s for s in samples
                  if s.ok and s.setup_s is not None]
        while len(setups) < SETUPS:
            setups.append(probed_setup())
        traced = probed(True) if trace else None
        return samples, setups, traced, run.probes
    finally:
        run.close()


def e2e_metrics(samples, setups):
    ok = [s for s in samples if s.ok]
    if not ok or None in setups:
        return None
    return {
        "wall_ref_s": statistics.median(s.wall_ref_s for s in ok),
        "cpu_ref_s": statistics.median(s.cpu_ref_s for s in ok),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in ok),
    }


def layer_metrics(workload, samples, setups, traced):
    """Every per-layer figure of the traced sample, by metric name."""
    rows = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
            for name in spans.span_names()}
    counters = dict.fromkeys(spans.COUNTER_NAMES, 0)
    dropped = set()
    for trace in traced.traces:
        for name, row in spans.aggregate(trace["spans"]).items():
            for key in row:
                rows[name][key] += row[key]
        for name, n in trace["counters"].items():
            counters[name] += n
        dropped.update(trace["dropped"])
    out = {}
    for name, row in rows.items():
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    out.update(counters)
    ok = [s for s in samples if s.ok]
    subcommand = {label: argv[0] for label, argv in CLI_CALLS}
    per_call = {sub: [] for sub in subcommand.values()}
    for s in ok:
        for label, seconds in s.call_s.items():
            per_call[subcommand[label]].append(seconds)
    for sub, times in per_call.items():
        out[f"cli.{sub}.s"] = statistics.median(times) if times else 0.0
    out["cli.import_s"] = statistics.median(setups) if workload == "cli_calls" \
        else 0.0
    # one traced sample against the untraced median, both scaled to the
    # reference speed: what drift is left can make the difference negative,
    # which says nothing about tracing, so it reads 0
    out["trace.overhead_s"] = max(
        0.0, traced.wall_ref_s - statistics.median(s.wall_ref_s for s in ok))
    return out, sorted(dropped)


def git_revision():
    """The checkout's commit, or None outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_lines():
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_workload(spec, workload, seed, seconds, trace):
    """Measure, print the human-readable lines, return the result object."""
    samples, setups, traced, probes = measure(workload, seed, seconds, trace)
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    if traced is not None:
        attempted += traced.attempted
        failed += traced.failed
    e2e = e2e_metrics(samples, setups)
    correct = failed == 0 and e2e is not None
    print(f"workload {workload}: seed {seed}, {len(samples)} samples, "
          f"{attempted} checked outputs, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f})")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    for name, value in (e2e or {}).items():
        print(f"  {name:<14} {value:12.6f} {units.get(name, '')}")
    ok = [s for s in samples if s.ok]
    if ok:
        print(f"  unscaled medians: wall_s "
              f"{statistics.median(s.wall_s for s in ok):.6f} s, cpu_s "
              f"{statistics.median(s.cpu_s for s in ok):.6f} s, setup_s "
              f"{statistics.median(s.setup_s for s in ok):.6f} s")
    print("  wall_s of each sample: "
          + ", ".join(f"{s.wall_s:.3f}" for s in ok))
    print("  speed probe: " + ", ".join(f"{p:.3f}" for p in probes) + " s")
    chosen = spec["end_to_end"]
    metrics = e2e or {}
    if traced is not None:
        correct = correct and traced.ok
        chosen = spec["per_layer"]
        metrics = {}
        if traced.ok and e2e is not None:
            metrics, dropped = layer_metrics(workload, samples, setups,
                                             traced)
            for name, value in metrics.items():
                unit = units.get(name, "s" if isinstance(value, float)
                                 else "count")
                shown = f"{value:14.6f}" if isinstance(value, float) \
                    else f"{value:14d}"
                print(f"  {name:<56} {shown} {unit}")
            print(f"  tracing overhead: {metrics['trace.overhead_s']:.3f} s "
                  f"on a {traced.wall_ref_s:.3f} s traced sample")
            for name in dropped:
                print(f"  dropped: {name} (not in this tree)")
    meta = {"nproc": os.cpu_count(),
            "python": platform.python_version(), "git_rev": git_revision(),
            "src_lines": src_lines(),
            "speed_probe_s": {"median": statistics.median(probes),
                              "min": min(probes), "max": max(probes)}}
    print("meta " + json.dumps(meta))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics.get(m["name"], 0),
                                    "unit": m["unit"]} for m in chosen}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fusionlab", "__init__.py")):
        print(f"error: no fusionlab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(spec, name, args.seed, args.seconds,
                                  bool(args.trace)) for name in names}
    result = results[names[0]] if len(names) == 1 else results
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
