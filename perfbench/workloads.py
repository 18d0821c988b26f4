"""Workload inputs, one measured pass, and the checks on its output.

A pass runs in a fresh interpreter (see child.py), because ringlab keeps
module-global caches (`arith._oracle_cache`) that would let a second pass
in the same process skip work.  The tests import this module directly to
run the same code on a tiny corpus.

Workloads (seed 0 is the canonical input):

* finite-corpus: the finite entries of `default_corpus()`, verified
  serially.  Ideal primitives dominate; many small rings, each queried by
  ~20 theorems, so repeated arguments are common.
* infinite-lanes: the arithmetic, amalgZ and polyring entries, serially.
  The arithmetic window oracle and the polynomial bounded search dominate;
  the ideal lattice does almost nothing, so an ideal-kernel change should
  not move it.
* cap-rings: products of cyclic rings at or near the 256-element cap, each
  built once and queried cold.  Few large rings, so the same layers as
  finite-corpus are used with cold caches.
* corpus-jobs2: the whole default corpus through `verify(jobs=2)`, the only
  workload on the registry's process-pool path; its wall time includes the
  scheduling tail.

Other seeds shuffle the entry order (and, on cap-rings, the ring order and
the factor order inside each product), so the total work is the same for
every seed while no gain can come from a particular order.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import signal
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from math import prod

WORKLOADS = ("finite-corpus", "infinite-lanes", "cap-rings", "corpus-jobs2")
CORPUS_JOBS = {"finite-corpus": 1, "infinite-lanes": 1, "corpus-jobs2": 2}
CAP_RINGS = ((256,), (2,) * 8, (4,) * 4, (2, 128), (3, 5, 17), (2, 3, 5, 7), (64,), (128,))
FAC_MAX_SIZE = 128  # has_fac grows cubically; it is queried only up to this size
OUTCOMES = ("VERIFIED", "VACUOUS", "VIOLATION")
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
PROBE_INTERVAL_S = 0.1
PROBE_REF_S = 0.00075  # the probe's time at the reference speed; it only scales the *_ref_s metrics

_now = time.perf_counter


def no_span(name, trace):
    return nullcontext()


# -- inputs ------------------------------------------------------------------------


def corpus_entries(workload, seed):
    """(limits, entries) of a corpus workload; parsing builds every finite ring."""
    from ringlab.corpus import FINITE, default_corpus

    corpus = default_corpus()
    entries = list(corpus.entries)
    if workload == "finite-corpus":
        entries = [e for e in entries if e.kind == FINITE]
    elif workload == "infinite-lanes":
        entries = [e for e in entries if e.kind != FINITE]
    if seed:
        random.Random(seed).shuffle(entries)
    return corpus.limits, entries


def cap_rings(seed):
    rings = [list(factors) for factors in CAP_RINGS]
    if seed:
        rng = random.Random(seed)
        for factors in rings:
            rng.shuffle(factors)
        rng.shuffle(rings)
    return [tuple(factors) for factors in rings]


def setup(workload, seed):
    """Everything a pass needs before its first entry; this is what setup_s times."""
    import ringlab  # noqa: F401

    if workload == "cap-rings":
        return cap_rings(seed)
    return corpus_entries(workload, seed)


# -- digests -----------------------------------------------------------------------


def report_lines(records):
    """Report lines in the bytes `ringlab verify --json` writes."""
    lines = []
    for rec in records:
        rec.pop("millis", None)
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    return lines


def sha256_lines(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# -- corpus workloads --------------------------------------------------------------


def _entry_output(records):
    lines = report_lines(records)
    return {
        "lines": lines,
        "outcomes": Counter(rec["outcome"] for rec in records),
        "unexpected": sum(rec["outcome"] == "VIOLATION" and not rec.get("expected") for rec in records),
    }


def run_corpus(limits, entries, jobs, item_span=no_span):
    """Verify the entries; returns ({entry text: output}, per-entry seconds).

    Serially each entry is one `verify` call, timed to its verdict; with
    jobs > 1 the whole list goes through one `verify(jobs=...)` call, whose
    records come back together, so there are no per-entry times.
    """
    from ringlab.corpus import CorpusSpec
    from ringlab.registry import verify

    outputs = {}
    times = []
    if jobs == 1:
        for entry in entries:
            start = _now()
            try:
                with item_span("entry", entry.text):
                    records = list(verify(None, CorpusSpec((entry,), limits)))
            except Exception as exc:  # one broken entry is a failed item, not a lost run
                outputs[entry.text] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            times.append(_now() - start)
            outputs[entry.text] = _entry_output(records)
        return outputs, times
    try:
        records = list(verify(None, CorpusSpec(tuple(entries), limits), jobs=jobs))
    except Exception as exc:
        return {e.text: {"error": f"{type(exc).__name__}: {exc}"} for e in entries}, times
    grouped = {}
    for rec in records:
        grouped.setdefault(rec["entry"], []).append(rec)
    for entry in entries:
        outputs[entry.text] = _entry_output(grouped.get(entry.text, []))
    return outputs, times


def check_corpus(outputs, order, pins, lane=None, ordered=False):
    """Compare each entry with its pin; returns (failed entries, errors, summary).

    An entry fails on an exception, an unexpected VIOLATION or a digest or
    count that differs from its pin.  `lane` holds the pins of a whole
    workload: its order-independent digest and outcome counts are checked,
    and with `ordered` (seed 0, corpus order) the ordered report digest too.
    """
    failed = 0
    errors = []
    counts = Counter()
    lines = []
    for text in order:
        out = outputs.get(text, {"error": "no output"})
        pin = pins.get(text)
        if "error" in out:
            failed += 1
            errors.append(f"{text}: {out['error']}")
            continue
        counts.update(out["outcomes"])
        lines.extend(out["lines"])
        problems = []
        if out["unexpected"]:
            problems.append(f"{out['unexpected']} unexpected VIOLATION")
        if pin is None:
            problems.append("no pinned digest")
        else:
            if sha256_lines(out["lines"]) != pin["sha256"]:
                problems.append("report digest differs from its pin")
            if any(out["outcomes"].get(k, 0) != pin[k] for k in OUTCOMES):
                problems.append(f"outcomes {dict(out['outcomes'])} differ from the pin")
        if problems:
            failed += 1
            errors.append(f"{text}: " + "; ".join(problems))
    summary = {
        "records": len(lines),
        **{k: counts.get(k, 0) for k in OUTCOMES},
        "ordered_sha256": sha256_lines(lines),
        "unordered_sha256": sha256_lines(sorted(lines)),
    }
    if lane is not None:
        keys = ["records", *OUTCOMES, "unordered_sha256"] + (["ordered_sha256"] if ordered else [])
        for key in keys:
            if summary[key] != lane[key]:
                errors.append(f"workload {key} {summary[key]} differs from the pin {lane[key]}")
    return failed, errors, summary


# -- cap-rings ---------------------------------------------------------------------


def _divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _primes_of(n):
    return {p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))}


def cap_expectations(factors):
    """Closed forms for a product of cyclic rings, independent of ringlab.

    Every ideal of Z_n1 x ... x Z_nk is a product of ideals, one per divisor
    of each n_i, and the primes are P x (other factors) for each prime p | n_i.
    Such rings are principal ideal rings, so Property A and a.c. hold; f.a.c.
    holds exactly for the local ones, Z_(p^k): any nontrivial idempotent e
    gives T = {e, 1 - e} with Ann(T) = 0 while neither Ann(e) nor Ann(1 - e)
    is 0.
    """
    local = len(factors) == 1 and len(_primes_of(factors[0])) == 1
    return {
        "parse_ring": prod(factors),
        "all_ideals": prod(_divisor_count(n) for n in factors),
        "spec": sum(len(_primes_of(n)) for n in factors),
        "has_property_A": "Holds",
        "has_ac": "Holds",
        "has_fac": "Holds" if local else "Fails",
    }


def cap_expr(factors):
    return " x ".join(f"Z{n}" for n in factors)


def run_cap(rings, item_span=no_span):
    """Build each ring and query it cold; returns per-ring results and query seconds."""
    from ringlab.classify import has_ac, has_fac, has_property_A
    from ringlab.dsl import parse_ring
    from ringlab.ideals import all_ideals, spec

    def members(ideals):
        return [list(A.sorted_members) for A in ideals]

    results = []
    times = []
    for factors in rings:
        expr = cap_expr(factors)
        queries = [("parse_ring", lambda: parse_ring(expr), lambda R: R.size)]
        queries += [
            ("all_ideals", lambda: all_ideals(R), members),
            ("spec", lambda: spec(R), members),
            ("has_property_A", lambda: has_property_A(R), lambda v: v.to_json(R)),
            ("has_ac", lambda: has_ac(R), lambda v: v.to_json(R)),
        ]
        if prod(factors) <= FAC_MAX_SIZE:
            queries.append(("has_fac", lambda: has_fac(R), lambda v: v.to_json(R)))
        out = {"expr": expr, "factors": factors, "queries": {}}
        R = None
        with item_span("ring", expr):
            for name, call, to_json in queries:
                start = _now()
                try:
                    value = call()
                except Exception as exc:
                    out["queries"][name] = {"error": f"{type(exc).__name__}: {exc}"}
                    if name == "parse_ring":
                        for rest, _, _ in queries[1:]:
                            out["queries"][rest] = {"error": "ring not built"}
                        break
                    continue
                times.append(_now() - start)
                if name == "parse_ring":
                    R = value
                out["queries"][name] = {"value": to_json(value)}
        results.append(out)
    return results, times


def _summary_value(name, value):
    if name in ("all_ideals", "spec"):
        return len(value)
    if isinstance(value, dict):
        return value["outcome"]
    return value


def _digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def check_cap(results, pins, ordered=False):
    """Each query against its closed form, and against its pin where one exists.

    Pins exist for the rings as seed 0 writes them; other seeds permute the
    factors, which renumbers the elements, so only the closed forms apply.
    """
    failed = 0
    errors = []
    digests = []
    for out in results:
        expect = cap_expectations(out["factors"])
        pinned = pins["rings"].get(out["expr"], {})
        for name, res in out["queries"].items():
            if "error" in res:
                problem = res["error"]
            elif _summary_value(name, res["value"]) != expect[name]:
                problem = f"{_summary_value(name, res['value'])} != closed form {expect[name]}"
            elif name in pinned and _digest(res["value"]) != pinned[name]:
                problem = "output differs from its pin"
            else:
                continue
            failed += 1
            errors.append(f"{out['expr']} {name}: {problem}")
        digests.append(_digest(out["queries"]))
    summary = {"ordered_sha256": sha256_lines(digests), "ring_sha256": digests}
    if ordered and "ordered_sha256" in pins and summary["ordered_sha256"] != pins["ordered_sha256"]:
        errors.append("cap-rings ordered digest differs from the pin")
    return failed, errors, summary


# -- machine speed during a pass ---------------------------------------------------


def probe():
    """CPU time of a fixed pure-Python loop of about a millisecond that does not use ringlab.

    CPU time rather than wall time, so that waiting for a core (the pool's
    workers keep both busy) does not read as a slow machine.
    """
    start = time.thread_time()
    acc = 0
    table = {}
    for i in range(1500):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = frozenset((i, acc & 63))
    return time.thread_time() - start


class SpeedProbe:
    """Times `probe()` every PROBE_INTERVAL_S of CPU time while a pass runs.

    The probe runs from a SIGVTALRM handler in the processes doing the work:
    this one, and the pool workers forked during the pass, which append
    their samples to files under `worker_dir`.  The timer counts the
    process's own CPU time, so a process samples only while it computes;
    when workers ran, their samples alone are used.  On a
    shared machine the speed drifts by tens of percent within seconds;
    `scale` turns the pass's times into times at the reference speed
    (PROBE_REF_S per probe).
    """

    def __init__(self, worker_dir):
        self.worker_dir = worker_dir

    def __enter__(self):
        global _ACTIVE
        _install_fork_hook()
        os.makedirs(self.worker_dir)
        self.samples = [probe()]
        self.worker_samples = []
        self._previous = signal.signal(signal.SIGVTALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        _ACTIVE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE
        _ACTIVE = None
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        self.samples.append(probe())
        for name in os.listdir(self.worker_dir):
            path = os.path.join(self.worker_dir, name)
            with open(path, encoding="utf-8") as fh:
                self.worker_samples.extend(float(line) for line in fh)
            os.remove(path)
        os.rmdir(self.worker_dir)

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    def _start_in_worker(self):
        self._file = open(os.path.join(self.worker_dir, f"{os.getpid()}.txt"), "a", encoding="utf-8")
        signal.signal(signal.SIGVTALRM, self._on_worker_alarm)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _on_worker_alarm(self, signum, frame):
        self._file.write(f"{probe()!r}\n")
        self._file.flush()

    def used_samples(self):
        return self.worker_samples or self.samples

    def scale(self):
        return PROBE_REF_S / statistics.fmean(self.used_samples())


_ACTIVE = None  # the SpeedProbe of the pass in progress
_FORK_HOOK = False


def _install_fork_hook():
    global _FORK_HOOK
    if not _FORK_HOOK:
        os.register_at_fork(after_in_child=lambda: _ACTIVE is not None and _ACTIVE._start_in_worker())
        _FORK_HOOK = True


# -- one pass ----------------------------------------------------------------------


def load_pins():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_pass(workload, seed, inputs, pins, item_span=no_span):
    """Run the workload once on its inputs and check the output.

    wall_s runs from the first entry to the checked, complete output;
    cpu_s counts this process and its pool workers over the same interval;
    peak_rss_mb adds the largest worker's peak to this process's peak.
    wall_ref_s and cpu_ref_s are the same times at the reference speed.
    """
    with SpeedProbe(os.path.join(OUT, f"probes-{os.getpid()}")) as speed:
        wall0 = _now()
        cpu0 = _cpu_s()
        result = _checked_pass(workload, seed, inputs, pins, item_span)
        result["wall_s"] = _now() - wall0
        result["cpu_s"] = _cpu_s() - cpu0
    result["peak_rss_mb"] = _peak_rss_mb()
    result["probe_s"] = statistics.fmean(speed.used_samples())
    result["probes"] = len(speed.used_samples())
    result["wall_ref_s"] = result["wall_s"] * speed.scale()
    result["cpu_ref_s"] = result["cpu_s"] * speed.scale()
    return result


def _checked_pass(workload, seed, inputs, pins, item_span):
    if workload == "cap-rings":
        results, times = run_cap(inputs, item_span)
        failed, errors, summary = check_cap(results, pins["cap-rings"], ordered=seed == 0)
        attempted = sum(len(out["queries"]) for out in results)
        outcomes = {}
    else:
        limits, entries = inputs
        outputs, times = run_corpus(limits, entries, CORPUS_JOBS[workload], item_span)
        failed, errors, summary = check_corpus(
            outputs, [e.text for e in entries], pins["entries"], pins["workloads"].get(workload), seed == 0
        )
        attempted = len(entries)
        outcomes = {k: summary[k] for k in OUTCOMES}
    return {
        "item_s": times,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "outcomes": outcomes,
        "digests": {k: v for k, v in summary.items() if k.endswith("sha256")},
    }
