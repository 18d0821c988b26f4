"""Per-layer tracing for the ringlab benchmark.

`install()` wraps the public functions of each ringlab module from outside
the package.  A name is patched in its defining module and in every ringlab
module that imported it directly, so calls are seen whichever layer makes
them.  Two kinds of record are kept, both in memory:

* explicit spans (set-up, pass, work item -- a corpus entry or a cap
  ring -- and theorem runner), each with a name, start, end, parent id and
  trace id (the work item);
* layer calls, which run up to ~10^6 times per pass, aggregated into
  counters and total/self time per metric and under their parent span.

Self time is a call's duration minus the time its traced children cover.
Calls never overlap within a process, so the children's durations add up.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

_now = time.perf_counter


class Tracer:
    """Spans, counters and per-metric timings of one process."""

    def __init__(self):
        self.stats = {}  # metric -> [calls, total_s of outermost calls, self_s, depth]
        self.layer_self = {}  # layer -> self seconds
        self.counters = {}
        self.spans = []  # finished explicit spans
        self.open = []  # explicit spans in progress
        self.stack = [[0.0]]  # child-time accumulators; the base frame is the process
        self.agg = {}  # layer aggregates of the innermost open span
        self.distinct = {}  # metric -> argument keys seen in the current work item
        self.pinned = []  # rings named by distinct keys, so their ids stay unique
        self.next_id = 1

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def calls(self, metric):
        st = self.stats.get(metric)
        return st[0] if st else 0

    def total(self, metric):
        st = self.stats.get(metric)
        return st[1] if st else 0.0

    def snapshot(self):
        return {
            "stats": {k: v[:3] for k, v in self.stats.items()},
            "layer_self": self.layer_self,
            "counters": self.counters,
            "spans": self.spans,
        }

    def merge(self, snap):
        for k, (calls, total, own) in snap["stats"].items():
            st = self.stats.setdefault(k, [0, 0.0, 0.0, 0])
            st[0] += calls
            st[1] += total
            st[2] += own
        for k, v in snap["layer_self"].items():
            self.layer_self[k] = self.layer_self.get(k, 0.0) + v
        for k, v in snap["counters"].items():
            self.count(k, v)
        self.spans.extend(snap["spans"])


TRACER = Tracer()
TRACE_DIR = None  # where pool workers leave their snapshots (set by the pass)


def _exit(t, st, layer, start, frame):
    dur = _now() - start
    t.stack.pop()
    st[0] += 1
    st[3] -= 1
    if st[3] == 0:
        st[1] += dur
    own = dur - frame[0]
    st[2] += own
    t.layer_self[layer] = t.layer_self.get(layer, 0.0) + own
    t.stack[-1][0] += dur
    return dur, own


def _enter(t, metric):
    st = t.stats.get(metric)
    if st is None:
        st = t.stats[metric] = [0, 0.0, 0.0, 0]
    st[3] += 1
    frame = [0.0]
    t.stack.append(frame)
    return st, frame


def timed(fn, metric, layer, key=None, after=None):
    """Wrap `fn` as an aggregated layer call.

    `key(tracer, args) -> (args, key)` may rebuild the arguments (so a
    generator is read once) and names the call for the metric's
    distinct-argument count;
    `after(result)` sees each result.
    """

    def wrapper(*args, **kwargs):
        t = TRACER
        if key is not None:
            args, k = key(t, args)
            seen = t.distinct.setdefault(metric, set())
            if k not in seen:
                seen.add(k)
                t.count(metric + ".distinct")
        st, frame = _enter(t, metric)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur, own = _exit(t, st, layer, start, frame)
            a = t.agg.get(metric)
            if a is None:
                t.agg[metric] = [1, dur, own]
            else:
                a[0] += 1
                a[1] += dur
                a[2] += own
        if after is not None:
            after(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def span(name, metric, layer, trace=None, item=False):
    """An explicit span; `item=True` starts a new work item (trace id)."""
    t = TRACER
    parent = t.open[-1] if t.open else None
    if item:
        t.distinct = {}
        t.pinned = []
    rec = {
        "id": t.next_id,
        "pid": os.getpid(),
        "parent": parent["id"] if parent else None,
        "trace": trace if trace is not None else (parent["trace"] if parent else None),
        "name": name,
        "layers": {},
    }
    t.next_id += 1
    st, frame = _enter(t, metric)
    saved = t.agg
    t.agg = rec["layers"]
    t.open.append(rec)
    rec["start"] = start = _now()
    try:
        yield rec
    finally:
        dur, own = _exit(t, st, layer, start, frame)
        rec["end"] = start + dur
        rec["self_s"] = own
        t.open.pop()
        t.agg = saved
        t.spans.append(rec)


def item(name, key):
    """The span of one work item (a corpus entry or a cap ring), keyed by `key`."""
    return span(name, "harness." + name, "harness", trace=key, item=True)


# -- what gets wrapped -------------------------------------------------------------


def _annihilator_key(t, args):
    R, T = args
    T = tuple(T)
    t.pinned.append(R)
    return (R, T), (id(R), frozenset(T))


def _colon_key(t, args):
    A, K = args
    K = tuple(K)
    t.pinned.append(A.ring)
    return (A, K), (id(A.ring), A.members, frozenset(K))


def _count_at_bound(verdict):
    from ringlab.poly import NO_VIOLATION_UP_TO

    if verdict.outcome == NO_VIOLATION_UP_TO:
        TRACER.count("poly.search_at_bound")


CLASSIFY_SCANS = (
    "is_r_ideal", "is_pr_ideal", "is_S_r_ideal", "is_S_prime", "is_z0_ideal",
    "is_S_z0_ideal", "is_uz_ring", "is_S_uz_ring", "has_property_A", "has_ac",
    "s_idempotent_ideal_check",
)

# (module, name, metric, layer, key, after)
TARGETS = (
    ("dsl", "parse_ring", "dsl.parse_ring", "dsl", None, None),
    ("corpus", "default_corpus", "corpus.parse", "corpus", None, None),
    ("ideals", "annihilator", "ideals.annihilator", "ideals", _annihilator_key, None),
    ("ideals", "colon", "ideals.colon", "ideals", _colon_key, None),
    ("ideals", "_sum_sets", "ideals.sum", "ideals", None, None),
    ("ideals", "ideal_sum", "ideals.sum", "ideals", None, None),
    ("ideals", "ideal_generate", "ideals.generate", "ideals", None, None),
    ("ideals", "ideal_from_members", "ideals.generate", "ideals", None, None),
    ("ideals", "localize", "ideals.localize", "ideals", None, None),
    ("ideals", "all_ideals", "ideals.all_ideals", "ideals", None, None),
    *(("classify", n, "classify.scan", "classify", None, None) for n in CLASSIFY_SCANS),
    ("classify", "has_fac", "classify.fac", "classify", None, None),
    ("arith", "arith_oracle_check", "arith.oracle", "arith", None, None),
    ("arith", "_oracle_check", "arith.oracle_miss", "arith", None, None),
    ("arith", "arith_is_r_ideal", "arith.closed_form", "arith", None, None),
    ("arith", "arith_is_S_r_ideal", "arith.closed_form", "arith", None, None),
    ("poly", "bounded_S_r_search", "poly.search", "poly", None, _count_at_bound),
    ("poly", "decide_content_S_r", "poly.decide", "poly", None, None),
    ("poly", "dedekind_mertens_sweep", "poly.dm", "poly", None, None),
    ("extensions", "triv_equivalence_check", "extensions.transfer", "extensions", None, None),
    ("extensions", "amalg_transfer_check", "extensions.transfer", "extensions", None, None),
    ("extensions", "amalgz_zero_transfer_check", "extensions.transfer", "extensions", None, None),
    ("extensions", "make_trivial_extension", "extensions.build", "extensions", None, None),
    ("extensions", "make_amalgamation", "extensions.build", "extensions", None, None),
    ("extensions", "make_module_free", "extensions.build", "extensions", None, None),
    ("extensions", "make_module_quotient", "extensions.build", "extensions", None, None),
    ("registry", "build_context", "registry.context", "registry", None, None),
)

VERDICT_LOOKUPS = ("s_r", "r_verdict", "s_z0")


def _patch_everywhere(original, replacement):
    """Rebind every ringlab module attribute that is `original`."""
    for name, mod in list(sys.modules.items()):
        if name == "ringlab" or name.startswith("ringlab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _runner(fn, case_id):
    def run(ctx, dropped):
        with span("runner:" + case_id, "registry.runner." + case_id, "registry"):
            return list(fn(ctx, dropped))

    return run


def _lookup(fn):
    def lookup(self, *args, **kwargs):
        before = TRACER.calls("classify.scan")
        result = fn(self, *args, **kwargs)
        TRACER.count("registry.verdict_lookups")
        if TRACER.calls("classify.scan") == before:
            TRACER.count("registry.verdict_hits")
        return result

    return lookup


_ORIGINAL_WORKER = None


def traced_worker(args):
    """Pool task under tracing: one work item, whose trace is left in TRACE_DIR.

    Runs in a worker forked after `install()`, so the wrappers are already in
    place; the tracer is reset so only this item's calls are written.
    """
    global TRACER
    TRACER = Tracer()
    with item("entry", args[1].text):
        result = _ORIGINAL_WORKER(args)
    with open(os.path.join(TRACE_DIR, f"{os.getpid()}.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(TRACER.snapshot()) + "\n")
    return result


def install():
    """Wrap every target; raises AttributeError if one is gone (a renamed function)."""
    global _ORIGINAL_WORKER
    import ringlab  # noqa: F401  (loads every module that re-exports a target)
    from ringlab import registry, rings

    for mod_name, attr, metric, layer, key, after in TARGETS:
        mod = sys.modules["ringlab." + mod_name]
        original = getattr(mod, attr)
        _patch_everywhere(original, timed(original, metric, layer, key, after))
    init = rings.FiniteRing.__init__
    rings.FiniteRing.__init__ = timed(init, "rings.build", "rings")
    for name in VERDICT_LOOKUPS:
        setattr(registry.FiniteContext, name, _lookup(getattr(registry.FiniteContext, name)))
    for cid, case in list(registry.CASES.items()):
        registry.CASES[cid] = replace(
            case,
            runner=_runner(case.runner, cid) if case.runner else None,
            arith_runner=_runner(case.arith_runner, cid) if case.arith_runner else None,
        )
    _ORIGINAL_WORKER = registry._worker
    registry._worker = traced_worker


def collect_workers():
    """Merge the snapshots pool workers left in TRACE_DIR, then delete them."""
    for name in sorted(os.listdir(TRACE_DIR)):
        path = os.path.join(TRACE_DIR, name)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                TRACER.merge(json.loads(line))
        os.remove(path)


# -- metrics -----------------------------------------------------------------------

# Layers that each workload exists to exercise: a traced pass in which one
# of these never fired is a failed run (a renamed function would otherwise
# read as a layer that costs nothing).
_FINITE = (
    "rings.build", "dsl.parse_ring", "corpus.parse", "ideals.annihilator",
    "ideals.colon", "ideals.sum", "ideals.generate", "ideals.localize",
    "ideals.all_ideals", "classify.scan", "extensions.build",
    "extensions.transfer", "registry.context",
)
_INFINITE = (
    "corpus.parse", "arith.oracle", "arith.oracle_miss", "arith.closed_form",
    "poly.search", "poly.decide", "poly.dm", "classify.fac",
    "extensions.transfer", "registry.context",
)
EXERCISED = {
    "finite-corpus": _FINITE,
    "infinite-lanes": _INFINITE,
    "cap-rings": (
        "rings.build", "dsl.parse_ring", "ideals.all_ideals", "ideals.annihilator",
        "classify.scan", "classify.fac",
    ),
    "corpus-jobs2": tuple(sorted(set(_FINITE) | set(_INFINITE))),
}


def expected_runners(kinds):
    """Registry cases that run on at least one entry of the given kinds."""
    from ringlab.registry import CASES

    return sorted(cid for cid, case in CASES.items() if set(case.scopes) & set(kinds))


def unfired(t, metrics, runner_ids):
    names = list(metrics) + ["registry.runner." + cid for cid in runner_ids]
    return [m for m in names if t.calls(m) == 0]


PRIMITIVES = ("annihilator", "colon", "sum", "generate", "localize", "all_ideals")


def layer_metrics(t, case_ids):
    """The per-layer metric values of a traced pass, by name."""

    def ratio(num, den):
        return num / den if den else 0.0

    c = t.counters
    m = {
        "rings.build_calls": t.calls("rings.build"),
        "rings.build_s": t.total("rings.build"),
        "corpus.parse_s": t.total("corpus.parse"),
        "dsl.parse_ring_calls": t.calls("dsl.parse_ring"),
    }
    for p in PRIMITIVES:
        m[f"ideals.{p}_calls"] = t.calls("ideals." + p)
        m[f"ideals.{p}_s"] = t.total("ideals." + p)
    for p in ("annihilator", "colon"):
        m[f"ideals.{p}_distinct_ratio"] = ratio(c.get(f"ideals.{p}.distinct", 0), t.calls("ideals." + p))
    m["ideals.self_s"] = t.layer_self.get("ideals", 0.0)
    m["classify.calls"] = t.calls("classify.scan") + t.calls("classify.fac")
    m["classify.scan_s"] = t.total("classify.scan") + t.total("classify.fac")
    m["classify.fac_calls"] = t.calls("classify.fac")
    m["classify.fac_s"] = t.total("classify.fac")
    m["classify.self_s"] = t.layer_self.get("classify", 0.0)
    m["arith.oracle_calls"] = t.calls("arith.oracle")
    m["arith.oracle_s"] = t.total("arith.oracle")
    m["arith.oracle_distinct_ratio"] = ratio(t.calls("arith.oracle_miss"), t.calls("arith.oracle"))
    m["arith.closed_form_calls"] = t.calls("arith.closed_form")
    m["arith.closed_form_s"] = t.total("arith.closed_form")
    m["poly.search_calls"] = t.calls("poly.search")
    m["poly.search_s"] = t.total("poly.search")
    m["poly.search_at_bound"] = c.get("poly.search_at_bound", 0)
    m["poly.decide_calls"] = t.calls("poly.decide")
    m["poly.decide_s"] = t.total("poly.decide")
    m["poly.dm_s"] = t.total("poly.dm")
    m["extensions.transfer_calls"] = t.calls("extensions.transfer")
    m["extensions.transfer_s"] = t.total("extensions.transfer")
    m["extensions.build_s"] = t.total("extensions.build")
    m["registry.context_calls"] = t.calls("registry.context")
    m["registry.context_s"] = t.total("registry.context")
    for cid in case_ids:
        m["registry.runner_s." + cid] = t.total("registry.runner." + cid)
    m["registry.verdict_cache_hit_ratio"] = ratio(
        c.get("registry.verdict_hits", 0), c.get("registry.verdict_lookups", 0)
    )
    return m
