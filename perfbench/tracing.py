"""In-memory tracing of higgins from outside the package.

The tracer replaces public functions and methods with timing wrappers at the
place where their callers look them up (a module attribute or a class
attribute), and puts the originals back afterwards.  Every wrapped call keeps
an aggregate per (name, parent name): calls, inclusive time and self time,
where self time is the call's duration minus the time of the wrapped calls it
made.  Calls named as coarse also record one span each (name, start, end,
parent span), so the number of spans stays small while the hot per-letter
calls only cost a counter update.  Nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

ROOT = "root"

# (module, owner attribute or None for a module function, attribute, name, coarse)
_HOOKS = [
    ("higgins.certify", "CayleyBall", "__init__", "certify.ball", True),
    ("higgins.certify", "CayleyBall", "distance", "certify.distance", False),
    ("higgins.certify", "CayleyBall", "index", "certify.index", False),
    ("higgins.certify", None, "sync_fellow_distance", "certify.fellow", False),
    ("higgins.certify", None, "async_fellow_distance", "certify.fellow", False),
    ("higgins.certify", None, "certify_coset_system", "certify.sweep", True),
    ("higgins.certify", None, "certify_automatic", "certify.sweep", True),
    ("higgins.cli", None, "certify_coset_system", "certify.sweep", True),
    ("higgins.cli", None, "certify_automatic", "certify.sweep", True),
    ("higgins.cascade", "Pi1System", "scan_prepend", "cascade.scan_prepend", False),
    ("higgins.cascade", "Pi1System", "scan_finalize", "cascade.scan_finalize", False),
    ("higgins.cascade", "Pi1System", "scan_word", "cascade.scan_word", False),
    ("higgins.cascade", "Pi1System", "normal_form", "cascade.normal_form", True),
    ("higgins.cascade", "Pi1System", "pinch_reduce", "cascade.pinch_reduce", False),
    ("higgins.cascade", "Pi1System", "cascade", "cascade.cascade", False),
    ("higgins.cascade", "Pi1System", "higgins_automaton", "cascade.higgins_automaton", False),
    ("higgins.cascade", "Pi1Backend", "canonical", "cascade.canonical", False),
    ("higgins.gog", "GraphOfGroups", "apply_iso", "gog.apply_iso", False),
    ("higgins.gog", "StableAlphabets", "inflate", "gog.inflate", False),
    ("higgins.cosets", None, "check_limited_crossover", "cosets.crossover", True),
    ("higgins.cosets", None, "check_maximal_crossover", "cosets.crossover", True),
    ("higgins.certify", None, "check_limited_crossover", "cosets.crossover", True),
    ("higgins.experiments", None, "check_limited_crossover", "cosets.crossover", True),
    ("higgins.cosets", "WordMetric", "length", "cosets.word_metric.length", False),
    ("higgins.experiments", "TrefoilCentralizerContext", "coset_rep",
     "experiments.coset_rep", False),
    ("higgins.experiments", "TrefoilCentralizerContext", "coset_label",
     "experiments.coset_label", False),
    ("higgins.experiments", "TrefoilCentralizerContext", "ensure_depth",
     "experiments.ensure_depth", False),
    ("higgins.fsa", None, "enumerate_language", "fsa.enumerate_language", False),
    ("higgins.certify", None, "enumerate_language", "fsa.enumerate_language", False),
    ("higgins.cosets", None, "enumerate_language", "fsa.enumerate_language", False),
    ("higgins.cli", None, "enumerate_language", "fsa.enumerate_language", False),
    ("higgins.cli", None, "load_config", "config.load_config", False),
]

# the vertex backends and subgroup contexts: every class of higgins.backends
# that defines one of these methods itself
_BACKEND_METHODS = ("canonical", "key", "coset_rep", "h_express")

# classes whose instances are kept so that cache sizes can be read at the end
_REGISTERED = [
    ("higgins.certify", "CayleyBall"),
    ("higgins.cascade", "Pi1Backend"),
    ("higgins.experiments", "TrefoilCentralizerContext"),
]


# figures read off the return values, summed per name
_TALLIES = {
    "certify.fellow": lambda d: {"escapes": d is None},
    "certify.sweep": lambda cert: {"pairs": cert.pairs_tested},
    "cosets.crossover": lambda report: {"swept": report.swept},
    "fsa.enumerate_language": lambda words: {"words": len(words)},
}


class Tracer:
    """Install with `install()`, time one region with `region()`, then
    `uninstall()`.  Not reentrant across threads; the benchmark runs one."""

    def __init__(self):
        self.clock = time.perf_counter
        self._stack = []        # frames: [name, child seconds, span id]
        self.agg = {}           # (name, parent) -> [calls, total s, self s]
        self.spans = []         # [name, start, end, parent span id]
        self.tallies = defaultdict(int)
        self.instances = defaultdict(list)
        self._patches = []      # (owner, attribute, original, wrapper)
        self.region_s = None

    # -- patching ----------------------------------------------------------

    def install(self):
        for module_name, cls_name in _REGISTERED:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, "__init__", self._registering(cls.__init__, cls_name))
        for module_name, owner_name, attr, name, coarse in _HOOKS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            self._patch(owner, attr, self._timed(getattr(owner, attr), name, coarse))
        backends = importlib.import_module("higgins.backends")
        for cls in vars(backends).values():
            if not isinstance(cls, type) or cls.__module__ != backends.__name__:
                continue
            for attr in _BACKEND_METHODS:
                if inspect.isfunction(cls.__dict__.get(attr)):
                    self._patch(cls, attr, self._timed(
                        cls.__dict__[attr], f"backends.{attr}", False))

    def uninstall(self) -> bool:
        """Put every original back; True when none of the wrappers is left."""
        wrapped = [(owner, attr) for owner, attr, _orig, _new in self._patches]
        wrappers = {id(new) for _owner, _attr, _orig, new in self._patches}
        while self._patches:
            owner, attr, original, _new = self._patches.pop()
            setattr(owner, attr, original)
        return not any(id(owner.__dict__[attr]) in wrappers for owner, attr in wrapped)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr], replacement))
        setattr(owner, attr, replacement)

    def _registering(self, init, cls_name):
        registry = self.instances[cls_name]

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            registry.append(obj)
            return init(obj, *args, **kwargs)
        return wrapper

    def _timed(self, fn, name, coarse):
        stack, agg, spans, clock = self._stack, self.agg, self.spans, self.clock
        tally = _TALLIES.get(name)
        tallies = self.tallies

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:       # outside the timed region
                return fn(*args, **kwargs)
            parent = stack[-1]
            if coarse:
                span_id = len(spans)
                spans.append([name, 0.0, 0.0, parent[2]])
            else:
                span_id = parent[2]
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                key = (name, parent[0])
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]
                if coarse:
                    spans[span_id][1] = t0
                    spans[span_id][2] = t1
            if tally is not None:
                for k, v in tally(result).items():
                    tallies[f"{name}.{k}"] += v
            return result
        return wrapper

    # -- the timed region ----------------------------------------------------

    @contextlib.contextmanager
    def region(self):
        """Time the block as the root of every wrapped call made inside it."""
        if self._stack:
            raise RuntimeError("trace region is already open")
        frame = [ROOT, 0.0, None]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            yield
        finally:
            dur = self.clock() - t0
            self._stack.pop()
            self.agg[(ROOT, None)] = [1, dur, dur - frame[1]]
            self.region_s = dur

    def uncovered_s(self) -> float:
        """Self time of the root: the part of the region no wrapped call covers."""
        return self.agg[(ROOT, None)][2]

    # -- aggregates ------------------------------------------------------------

    def calls(self, name) -> int:
        return sum(v[0] for (n, _p), v in self.agg.items() if n == name)

    def total_s(self, name) -> float:
        """Inclusive time of the calls of `name`, leaving out those made
        directly by another call of `name` so that recursion is not counted
        twice."""
        return sum(v[1] for (n, p), v in self.agg.items() if n == name and p != name)

    def self_s(self, name) -> float:
        return sum(v[2] for (n, _p), v in self.agg.items() if n == name)

    def calls_from(self, name, parent) -> int:
        entry = self.agg.get((name, parent))
        return entry[0] if entry else 0

    def dump(self) -> dict:
        """Everything recorded, in a JSON-friendly form."""
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
            "aggregates": [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                           for (n, p), (c, t, s) in sorted(
                               self.agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
            "tallies": dict(self.tallies),
        }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, focus: str) -> dict:
    """Per-layer figures of one traced region, keyed by metric name.

    `focus` names the wrapped call the workload exists to load; its
    inclusive share of the region is reported as trace.focus_share.
    Layers the workload does not reach read 0.
    """
    tr = tracer
    balls = tr.instances["CayleyBall"]
    pi1 = tr.instances["Pi1Backend"]
    trefoil = tr.instances["TrefoilCentralizerContext"]
    m = {}

    build_s = tr.total_s("certify.ball")
    elements = sum(len(b.words) for b in balls)
    m["certify.ball.build_s"] = build_s
    m["certify.ball.elements"] = elements
    m["certify.ball.radius"] = max((b.radius for b in balls), default=0)
    m["certify.ball.us_per_element"] = 1e6 * _ratio(build_s, elements)
    fellow = tr.calls("certify.fellow")
    m["certify.fellow.calls"] = fellow
    m["certify.fellow.us_per_pair"] = 1e6 * _ratio(tr.total_s("certify.fellow"), fellow)
    m["certify.fellow.escapes"] = tr.tallies["certify.fellow.escapes"]
    distance = tr.calls("certify.distance")
    misses = sum(len(b._pair_cache) for b in balls)
    m["certify.distance.calls"] = distance
    m["certify.distance.hit_ratio"] = _ratio(distance - misses, distance)
    m["certify.index.calls"] = tr.calls("certify.index")
    m["certify.index.self_s"] = tr.self_s("certify.index")
    m["certify.sweep.self_s"] = tr.self_s("certify.sweep")
    m["certify.sweep.pairs"] = tr.tallies["certify.sweep.pairs"]

    prepend = tr.calls("cascade.scan_prepend")
    finalize = tr.calls("cascade.scan_finalize")
    m["cascade.scan_prepend.calls"] = prepend
    m["cascade.scan_prepend.us_per_letter"] = 1e6 * _ratio(
        tr.total_s("cascade.scan_prepend"), prepend)
    m["cascade.scan_finalize.calls"] = finalize
    m["cascade.scan_finalize.us_per_call"] = 1e6 * _ratio(
        tr.total_s("cascade.scan_finalize"), finalize)
    m["cascade.letters_per_key"] = _ratio(prepend, tr.calls("cascade.scan_word"))
    canonical = tr.calls("cascade.canonical")
    m["cascade.canonical.calls"] = canonical
    m["cascade.canonical.hit_ratio"] = _ratio(
        canonical - tr.calls_from("cascade.scan_word", "cascade.canonical"), canonical)
    m["cascade.canonical.cache_entries"] = sum(len(b._canon_cache) for b in pi1)
    nf = tr.calls("cascade.normal_form")
    m["cascade.normal_form.calls"] = nf
    m["cascade.normal_form.self_s"] = tr.self_s("cascade.normal_form")
    m["cascade.pinch_reduce.self_s"] = tr.self_s("cascade.pinch_reduce")
    m["cascade.cascade.self_s"] = tr.self_s("cascade.cascade")
    m["cascade.rounds_per_nf"] = _ratio(tr.calls("cascade.cascade"), nf)

    for name in ("backends.canonical", "backends.key", "backends.coset_rep",
                 "backends.h_express", "gog.apply_iso", "gog.inflate",
                 "experiments.coset_rep", "experiments.coset_label"):
        m[f"{name}.calls"] = tr.calls(name)
        m[f"{name}.self_s"] = tr.self_s(name)

    swept = tr.tallies["cosets.crossover.swept"]
    m["cosets.crossover.calls"] = tr.calls("cosets.crossover")
    m["cosets.crossover.swept"] = swept
    m["cosets.crossover.us_per_ug"] = 1e6 * _ratio(tr.total_s("cosets.crossover"), swept)
    m["cosets.word_metric.length.calls"] = tr.calls("cosets.word_metric.length")
    m["cosets.word_metric.length.self_s"] = tr.self_s("cosets.word_metric.length")
    m["experiments.ensure_depth.self_s"] = tr.self_s("experiments.ensure_depth")
    m["experiments.cosets"] = sum(len(c._reps) for c in trefoil)

    m["fsa.enumerate_language.calls"] = tr.calls("fsa.enumerate_language")
    m["fsa.enumerate_language.self_s"] = tr.self_s("fsa.enumerate_language")
    m["fsa.enumerate_language.words"] = tr.tallies["fsa.enumerate_language.words"]
    m["cascade.higgins_automaton.self_s"] = tr.self_s("cascade.higgins_automaton")

    m["trace.uncovered_s"] = tr.uncovered_s()
    m["trace.focus_share"] = _ratio(tr.total_s(focus), tr.region_s)
    return m


def self_time_sum(tracer: Tracer) -> float:
    """Self times of every wrapped call plus the uncovered root time; equals
    the region's duration when the bookkeeping is sound."""
    return sum(v[2] for v in tracer.agg.values())
