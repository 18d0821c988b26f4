"""Measure the benchmark's baseline: every workload over several seeds.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 0] [--out perfbench/baseline.json]

Runs `run.py --trace 0` once per (workload, seed), then `run.py --trace 1`
once per workload at the first seed, and writes, per workload and
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median, as
`statistics.quantiles(values, n=4)` gives them), the per-layer values of
the traced run, and the layer -> end-to-end map the per-layer metrics are
meant to explain.  Exits non-zero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Which end-to-end metric each layer's metrics should move, and where.
LAYER_MAP = {
    "rings": "rings.build_calls, rings.build_s -> setup_s on every workload; wall_s on cap-rings. "
             "build_calls shows each finite entry's ring built twice (corpus parse and context).",
    "dsl/corpus": "corpus.parse_s, dsl.parse_ring_calls -> setup_s on every corpus workload",
    "ideals": "ideals.{annihilator,colon,sum,generate,localize}_{calls,s}, *_distinct_ratio, self_s -> "
              "wall_s on finite-corpus; ideals.all_ideals_s -> wall_s on cap-rings; neither should move "
              "infinite-lanes",
    "classify": "classify.calls, scan_s, fac_{calls,s}, self_s -> wall_s on cap-rings (has_fac) and "
                "infinite-lanes (T4.2 recomputes has_fac per pair)",
    "arith": "arith.oracle_{calls,s}, oracle_distinct_ratio, closed_form_{calls,s} -> wall_s on "
             "infinite-lanes only",
    "poly": "poly.search_{calls,s}, search_at_bound, decide_{calls,s}, dm_s -> wall_s on infinite-lanes; "
            "the tail of corpus-jobs2",
    "extensions": "extensions.transfer_{calls,s}, build_s -> a small share of finite-corpus wall_s",
    "registry": "registry.context_{calls,s}, runner_s.<case>, records, nonvacuous_ratio, "
                "verdict_cache_hit_ratio -> wall_s on finite-corpus; jobs_efficiency = "
                "cpu_s / (2 wall_s) -> wall_s on corpus-jobs2 and nothing serial",
    "harness": "machine.calib_s, trace.overhead_frac -> diagnostics only",
}


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=240,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if trace == 0), flush=True)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    report = {
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "cpu": platform.processor() or platform.machine()},
        "run_seconds": bench["run_seconds"],
        "seeds": list(seeds),
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        runs = [run_once(name, s, bench["run_seconds"], 0) for s in seeds]
        traced = run_once(name, args.first_seed, bench["run_seconds"], 1)
        report["workloads"][name] = {
            "why": w["why"],
            "end_to_end": {
                m["name"]: {**spread([r["metrics"][m["name"]]["value"] for r in runs]), "bound": m["bound"]}
                for m in bench["end_to_end"]
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, w in report["workloads"].items():
        print(name, " ".join(f"{k}: median {v['median']:.4g} spread {v['spread']:.3f} (bound {v['bound']})"
                             for k, v in w["end_to_end"].items()))


if __name__ == "__main__":
    main()
