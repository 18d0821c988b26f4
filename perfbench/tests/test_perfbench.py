"""Tests of the benchmark itself, on a tiny corpus.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = ("Z4", "Z x Z ; ideal=(0,2) ; mcs=(units,all)", "polyring(Z2)")
TINY_CAP = [(2, 4)]


@pytest.fixture(scope="module")
def pins():
    return workloads.load_pins()


@pytest.fixture(scope="module")
def tiny():
    from ringlab.corpus import Limits, parse_corpus_line

    return Limits.defaults(), [parse_corpus_line(t) for t in TINY]


def subset_pins(pins):
    """Per-entry and per-ring pins only: a tiny corpus is no whole workload."""
    return {"entries": pins["entries"], "workloads": {}, "cap-rings": {"rings": pins["cap-rings"]["rings"]}}


def test_pins_hold_the_golden_report_and_counts(pins):
    lanes = pins["workloads"]
    assert lanes["corpus-jobs2"]["ordered_sha256"] == (
        "3c891add10f76b07499ed5dd92ca6d560fc1ac9f0c0f670bc14593ad86189143"
    )
    assert [lanes["corpus-jobs2"][k] for k in ("records", "VERIFIED", "VACUOUS", "VIOLATION")] == [19896, 15052, 4844, 0]
    assert [lanes["finite-corpus"][k] for k in ("records", "VERIFIED", "VACUOUS", "VIOLATION")] == [19760, 14976, 4784, 0]
    assert [lanes["infinite-lanes"][k] for k in ("records", "VERIFIED", "VACUOUS", "VIOLATION")] == [136, 76, 60, 0]
    assert len(pins["entries"]) == 150


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_mode_passes_its_checks(workload, pins, tiny):
    limits, entries = tiny
    inputs = TINY_CAP if workload == "cap-rings" else (limits, entries)
    result = workloads.run_pass(workload, 0, inputs, subset_pins(pins))
    assert result["failed"] == 0 and result["errors"] == []
    assert result["attempted"] == (6 if workload == "cap-rings" else 3)
    assert result["wall_s"] > 0 and result["cpu_s"] > 0 and result["peak_rss_mb"] > 0
    assert result["wall_ref_s"] > 0 and result["cpu_ref_s"] > 0 and result["probes"] >= 2
    # serial passes time each entry (cap-rings each query); the pool returns them together
    assert len(result["item_s"]) == {"cap-rings": 6, "corpus-jobs2": 0}.get(workload, 3)


def test_pool_and_serial_reports_are_identical(pins, tiny):
    limits, entries = tiny
    order = [e.text for e in entries]
    serial = workloads.check_corpus(workloads.run_corpus(limits, entries, 1)[0], order, pins["entries"])
    pooled = workloads.check_corpus(workloads.run_corpus(limits, entries, 2)[0], order, pins["entries"])
    assert serial == pooled


def test_report_lines_are_the_cli_bytes(tiny):
    from ringlab.cli import _emit
    from ringlab.corpus import CorpusSpec
    from ringlab.registry import verify

    limits, entries = tiny
    records = list(verify(None, CorpusSpec(tuple(entries), limits)))
    assert workloads.report_lines([dict(r) for r in records]) == _emit(records, None, False)


def test_cap_closed_forms():
    assert workloads.cap_expectations((6,)) == {
        "parse_ring": 6, "all_ideals": 4, "spec": 2,
        "has_property_A": "Holds", "has_ac": "Holds", "has_fac": "Fails",
    }
    assert workloads.cap_expectations((8,))["has_fac"] == "Holds"
    assert workloads.cap_expectations((2,) * 8)["all_ideals"] == 256
    assert workloads.cap_expectations((3, 5, 17))["spec"] == 3


def test_cap_mismatch_fails_the_query(pins):
    results, _ = workloads.run_cap(TINY_CAP)
    results[0]["queries"]["all_ideals"]["value"].pop()
    failed, errors, _ = workloads.check_cap(results, {"rings": {}})
    assert failed == 1 and "all_ideals" in errors[0]


def test_cap_output_differing_from_its_pin_fails_the_query(pins):
    results, _ = workloads.run_cap([(64,)])
    assert workloads.check_cap(results, pins["cap-rings"])[:2] == (0, [])
    ideals = results[0]["queries"]["all_ideals"]["value"]
    ideals[1], ideals[2] = ideals[2], ideals[1]  # same count, wrong order
    failed, errors, _ = workloads.check_cap(results, pins["cap-rings"])
    assert failed == 1 and "all_ideals" in errors[0] and "pin" in errors[0]


def test_seeds_reorder_without_changing_the_work():
    assert workloads.cap_rings(0) == list(workloads.CAP_RINGS)
    shuffled = workloads.cap_rings(7)
    assert shuffled != workloads.cap_rings(0)
    assert sorted(sorted(f) for f in shuffled) == sorted(sorted(f) for f in workloads.CAP_RINGS)
    assert shuffled == workloads.cap_rings(7)


@pytest.mark.parametrize(
    "n, expected",
    [(99, None), (100, 90.0), (131, 118.0), (19, None), (0, None)],
)
def test_p90_needs_ten_samples_beyond_it(n, expected):
    assert run.p90_if_supported([float(i + 1) for i in range(n)]) == expected


def _fake_run_child(result):
    def fake(spec, deadline):
        return {"s": 0.25, "ref_s": 0.2}, (None if spec["setup_only"] else {**result, "limits": {}, "versions": {"python": "3", "numpy": "2"}})

    return fake


def test_flipped_record_raises_error_rate_and_exit_code(pins, tiny, monkeypatch, capsys, tmp_path):
    from ringlab.corpus import CorpusSpec
    from ringlab.registry import verify

    limits, entries = tiny
    outputs = {}
    for entry in entries:
        records = list(verify(None, CorpusSpec((entry,), limits)))
        if entry is entries[0]:
            records[0]["outcome"] = "VIOLATION" if records[0]["outcome"] != "VIOLATION" else "VERIFIED"
        outputs[entry.text] = workloads._entry_output(records)
    failed, errors, _ = workloads.check_corpus(outputs, [e.text for e in entries], pins["entries"])
    assert failed == 1 and errors[0].startswith(entries[0].text)

    bad_pass = {
        "wall_s": 1.0, "cpu_s": 1.0, "wall_ref_s": 1.1, "cpu_ref_s": 1.1, "probe_s": 0.001,
        "peak_rss_mb": 50.0, "item_s": [0.1, 0.2, 0.3],
        "attempted": 3, "failed": failed, "errors": errors, "outcomes": {}, "digests": {},
    }
    monkeypatch.setattr(run, "run_child", _fake_run_child(bad_pass))
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    assert run.main(["--workload", "finite-corpus", "--seconds", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1 and last["attempted"] == 3

    good_pass = {**bad_pass, "failed": 0, "errors": []}
    monkeypatch.setattr(run, "run_child", _fake_run_child(good_pass))
    assert run.main(["--workload", "finite-corpus", "--seconds", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in last["metrics"].items()}


TRACED = r"""
import json, os, sys
bench, src, tmp, texts = sys.argv[1], sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
sys.path[:0] = [bench, src]
from ringlab.corpus import Limits, parse_corpus_line
from ringlab.registry import CASES
import workloads
limits = Limits.defaults()
entries = [parse_corpus_line(t) for t in texts]
plain, _ = workloads.run_corpus(limits, entries, 1)
import layers
layers.install()
out = {}
for jobs in (1, 2):
    layers.TRACER = layers.Tracer()
    layers.TRACE_DIR = os.path.join(tmp, f"workers{jobs}")
    os.makedirs(layers.TRACE_DIR)
    traced, _ = workloads.run_corpus(limits, entries, jobs, layers.item)
    layers.collect_workers()
    t = layers.TRACER
    out[jobs] = {
        "same": all(traced[e.text]["lines"] == plain[e.text]["lines"] for e in entries),
        "unfired": layers.unfired(
            t,
            ("ideals.generate", "ideals.annihilator", "arith.oracle", "poly.search",
             "classify.fac", "registry.context"),
            layers.expected_runners({e.kind for e in entries}),
        ),
        "entries": sorted(s["trace"] for s in t.spans if s["name"] == "entry"),
        "metrics": list(layers.layer_metrics(t, list(CASES))),
        "self_ok": all(s["self_s"] <= s["end"] - s["start"] + 1e-9 for s in t.spans),
    }
from ringlab import ideals
del ideals.colon
try:
    layers.install()
    out["rename"] = "not detected"
except AttributeError:
    out["rename"] = "detected"
print(json.dumps(out))
"""


def test_traced_passes_match_untraced_and_every_wrapper_fires(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED, BENCH, SRC, str(tmp_path), json.dumps(TINY)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for jobs in ("1", "2"):
        assert out[jobs]["same"], jobs
        assert out[jobs]["unfired"] == [], jobs
        assert out[jobs]["entries"] == sorted(TINY), jobs
        assert out[jobs]["self_ok"], jobs
    assert out["rename"] == "detected"
    declared = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["per_layer"]
    names = out["1"]["metrics"] + list(run.RUN_LEVEL)
    assert sorted(m["name"] for m in declared) == sorted(names)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in declared)


def test_benchmark_json_names_the_workloads():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["bound"] == max(x["bound"] for x in bench["end_to_end"])
               for m in bench["end_to_end"])


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cap-rings", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
