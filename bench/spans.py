"""Layer spans recorded from outside the fusionlab package.

``install`` wraps each layer function named in ``LAYERS`` (and the suite
runner's section methods) in place: module functions are rebound in every
``fusionlab.*`` module that imported them, methods are replaced on their
class.  Each call appends a span ``[name, start, end, parent]`` to an
in-memory list; ``aggregate`` turns a span list into per-layer call counts,
inclusive seconds and self seconds.  A few layers also count events, read
from their arguments or their result (see ``_COUNTERS``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# module -> layer functions; "Class.method" names a method.
LAYERS = {
    "groups": ["FiniteGroup.closure_mask", "FiniteGroup.subgroups", "sylow",
               "o_p", "o_p_prime", "Subgroup.normalizer_in",
               "Subgroup.centralizer_in", "quotient_group", "is_isomorphic",
               "automorphisms_raw", "is_involved", "build_group"],
    "pgroups": ["thompson_data", "is_characteristic"],
    "fusion": ["FusionSystem.maps", "verify_axioms", "classify_subgroup",
               "essential_subgroups", "alperin_decompose"],
    "subsystems": ["is_normal_in_F", "model_group", "o_p_of_F",
                   "normalizer_system", "generated_system"],
    "hfree": ["is_fusion_H_free", "sigma3_involvement_check",
              "remark67_check"],
    "stellmacher": ["admit_member", "canonical_family",
                    "compute_W_iterative", "compute_W_oneshot",
                    "functor_checks"],
    "theorems": ["verify_theorem_1", "verify_theorem_2", "verify_theorem_3",
                 "frobenius_check", "thompson_group_check"],
    "cache": ["ResultCache.attach_lattice", "ResultCache.attach_homsets",
              "ResultCache.store_lattice", "ResultCache.store_homsets"],
    "catalog": ["catalog_group", "validate_catalog"],
}

# suite section name -> SuiteRunner method
SUITE_SECTIONS = {
    "axioms": "_run_axioms", "classify": "_run_classification",
    "goldens": "_run_goldens", "models": "_run_models",
    "hfree": "_run_hfree_crosschecks", "wcompute": "_run_w_properties",
    "theorems": "_run_theorems", "generation": "_run_generation",
    "alperin": "_run_alperin",
}


# The hooks read private memo fields; a tree without them counts nothing
# rather than failing the traced call.


def _lattice_builds(count, call, args, kwargs):
    fresh = getattr(args[0], "_lattice", 0) is None
    out = call()
    if fresh:
        count("builds")
    return out


def _homset_misses(count, call, args, kwargs):
    memo = getattr(args[0], "_maps_cache", None)
    fresh = memo is not None and args[1].mask not in memo
    out = call()
    if fresh:
        count("computed")
    return out


def _normality_route(count, call, args, kwargs):
    # the route is read from the arguments only, so the hook adds no group
    # work to the span; a call that ends early because W is not normal in S
    # counts in the route its arguments select
    F, W = args[0], args[1]
    shortcut = args[2] if len(args) > 2 else kwargs.get("use_shortcut", True)
    if W.order != 1:
        realized = (shortcut and getattr(F, "ambient", None) is not None
                    and getattr(F, "_explicit", None) is None)
        count("realized_route" if realized else "general_route")
    return call()


def _growth_steps(count, call, args, kwargs):
    out = call()
    count("growth_steps", len(out.chain) - 1)
    return out


def _cache_hits(count, call, args, kwargs):
    out = call()
    if out:
        count("hits")
    return out


def _catalog_builds(count, call, args, kwargs):
    memo = getattr(sys.modules["fusionlab.catalog"], "_cache", None)
    fresh = memo is not None and args[0] not in memo
    out = call()
    if fresh:
        count("builds")
    return out


# span name -> (counter suffixes, hook(count, call, args, kwargs)); the hook
# runs call() and counts "<span name>.<suffix>" events
_COUNTERS = {
    "groups.FiniteGroup.subgroups": (("builds",), _lattice_builds),
    "fusion.FusionSystem.maps": (("computed",), _homset_misses),
    "subsystems.is_normal_in_F": (("realized_route", "general_route"),
                                  _normality_route),
    "stellmacher.compute_W_iterative": (("growth_steps",), _growth_steps),
    "cache.ResultCache.attach_lattice": (("hits",), _cache_hits),
    "cache.ResultCache.attach_homsets": (("hits",), _cache_hits),
    "catalog.catalog_group": (("builds",), _catalog_builds),
}

COUNTER_NAMES = [f"{span}.{suffix}" for span, (suffixes, _) in
                 _COUNTERS.items() for suffix in suffixes]


def span_names():
    """Every span name ``install`` can record, in a fixed order."""
    names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
    names += [f"suite.section.{s}" for s in SUITE_SECTIONS]
    return names


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = _COUNTERS.get(name, (None, None))[1]

        def count(suffix, n=1):
            self.count(f"{name}.{suffix}", n)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(count, lambda: fn(*args, **kwargs), args, kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced


def install(recorder):
    """Wrap every layer function; returns (patches, dropped).

    ``patches`` is a list of (owner, attribute, original) for ``uninstall``;
    ``dropped`` names the layer functions this tree does not have.
    """
    targets = [(mod, fn, f"{mod}.{fn}") for mod, fns in LAYERS.items()
               for fn in fns]
    targets += [("suite", f"SuiteRunner.{meth}", f"suite.section.{sec}")
                for sec, meth in SUITE_SECTIONS.items()]
    patches, dropped = [], []
    for mod, qual, name in targets:
        try:
            module = importlib.import_module(f"fusionlab.{mod}")
        except ImportError:
            dropped.append(name)
            continue
        if "." in qual:
            cls_name, attr = qual.split(".")
            owner = getattr(module, cls_name, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                dropped.append(name)
                continue
            patches.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
            continue
        original = getattr(module, qual, None)
        if original is None:
            dropped.append(name)
            continue
        traced = recorder.wrap(name, original)
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("fusionlab"):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    patches.append((other, attr, original))
                    setattr(other, attr, traced)
    return patches, dropped


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def aggregate(spans):
    """name -> {"calls", "s", "self_s"} for a list of [name, start, end,
    parent] spans whose parents precede them.

    ``s`` sums only the outermost span of each name on a stack, so a
    recursive layer is not counted twice; ``self_s`` is each span's length
    minus the length of its direct children, summed over every span.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    ancestors = []
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        above = ancestors[parent] | {spans[parent][0]} if parent >= 0 \
            else frozenset()
        ancestors.append(above)
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += end - start - child_time[i]
        if name not in above:
            row["s"] += end - start
    return out
