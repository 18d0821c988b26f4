"""Write a before/after benchmark file for two revisions of this repository.

    python3 bench/write_bench.py --parent REV [--change HEAD] [--pairs 10] [--seconds 3] \\
        [--workloads finite-corpus,cap-rings] --out BENCH_<n>.json

Each revision is copied out with `git archive` into a temporary directory and
is not compiled: every run has PYTHONDONTWRITEBYTECODE=1, so no copy gains a
__pycache__.  For each workload, pair k (k = 0, 1, ...) runs both copies' own
`perfbench/run.py --workload W --seed S --seconds T --trace 0` with seed
S = 11 + k; the parent runs first in even pairs and the change in odd ones.  A
run that exits non-zero, or whose last line does not read `"correct": true`,
stops the script with exit 1 and writes no file.

For each workload and end-to-end metric the file holds each side's values,
median and quartiles, the change's median over the parent's, and the number of
pairs the change won: read lower, as every metric of an untraced run is better
lower.  It also holds both revisions, the Python version, the CPU count, the
seeds and --seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("finite-corpus", "infinite-lanes", "cap-rings", "corpus-jobs2")
FIRST_SEED = 11


def commit_of(rev: str) -> str:
    out = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"error: {rev} names no commit in {ROOT}")
    return out.stdout.strip()


def archive(commit: str, dest: str) -> None:
    """The committed files of commit, extracted into dest."""
    os.makedirs(dest)
    git = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=git.stdout, check=True)
    git.stdout.close()
    if git.wait():
        sys.exit(f"error: git archive {commit} failed")


def run_once(copy: str, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one untraced perfbench run in copy; exits on a failed or incorrect run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if out.returncode or result.get("correct") is not True:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        sys.exit(f"error: {' '.join(cmd[1:])} in the {os.path.basename(copy)} copy exited {out.returncode}, correct: {result.get('correct')}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision measured against")
    parser.add_argument("--change", default="HEAD", help="the revision measured (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload")
    parser.add_argument("--seconds", type=float, default=3.0, help="perfbench --seconds of each run")
    parser.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated perfbench workloads")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.pairs < 1 or any(w not in WORKLOADS for w in workloads):
        parser.error(f"--pairs must be at least 1 and --workloads a list from {', '.join(WORKLOADS)}")
    commits = {"parent": commit_of(args.parent), "change": commit_of(args.change)}
    seeds = list(range(FIRST_SEED, FIRST_SEED + args.pairs))
    report = {
        "revisions": {side: {"rev": rev, "commit": commits[side]} for side, rev in (("parent", args.parent), ("change", args.change))},
        "copies": "git archive of each revision, not compiled (PYTHONDONTWRITEBYTECODE=1)",
        "command": f"perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "pairs": args.pairs,
        "seeds": seeds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="write_bench-") as tmp:
        copies = {side: os.path.join(tmp, side) for side in commits}
        for side, commit in commits.items():
            archive(commit, copies[side])
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for k, seed in enumerate(seeds):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    runs[side].append(run_once(copies[side], workload, seed, args.seconds))
                    print(f"{workload} seed {seed} {side}: wall_ref_s {runs[side][-1]['wall_ref_s']:.4g}", flush=True)
            metrics = {}
            for name in runs["parent"][0]:
                parent, change = ([r[name] for r in runs[side]] for side in ("parent", "change"))
                p, c = summary(parent), summary(change)
                metrics[name] = {
                    "parent": p,
                    "change": c,
                    "median_ratio": c["median"] / p["median"] if p["median"] else None,
                    "change_won": sum(y < x for x, y in zip(parent, change)),
                }
                print(f"{workload} {name}: parent {p['median']:.4g} change {c['median']:.4g}, change won {metrics[name]['change_won']}/{args.pairs}")
            report["workloads"][workload] = metrics
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
