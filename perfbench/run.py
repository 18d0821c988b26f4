"""The ringlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload finite-corpus --seed 0 --seconds 10 --trace 0

Every pass runs in a fresh interpreter (child.py).  With --trace 0 the run
first starts SETUP_PROBES interpreters that only set up, then runs passes
until the next one would end after --seconds of measurement (always at
least one), and prints the end-to-end metrics: medians over the passes and,
for setup_s, over every set-up.  The machine's speed drifts by tens of
percent within seconds on a shared host, so every gated time is rescaled to
a reference speed by a fixed probe loop timed while the work runs
(workloads.SpeedProbe): wall_ref_s and cpu_ref_s are the pass's wall and
CPU time so rescaled, and setup_s is the time from interpreter start to
READY rescaled by probes taken at the start and end of set-up.  The times
as measured are printed beside them.  With --trace 1 it runs one untraced and
one traced pass and prints the per-layer metrics; the traced pass must
produce the same report digests as the untraced one.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every output
matched its pin or closed form.  A run that cannot start ringlab from the
checkout's src/, or whose pass crashes, exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

from workloads import PROBE_REF_S, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 4
MAX_PASSES = 8
DEADLINE_S = 170.0  # a run must end within 180 s
POOL_JOBS = 2  # corpus-jobs2 matches the 2-core machine the baseline was taken on
TAIL_MIN_BEYOND = 10

END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# Per-layer metrics the run adds to the traced pass's own (layers.layer_metrics).
RUN_LEVEL = (
    "registry.records", "registry.nonvacuous_ratio", "registry.jobs_efficiency",
    "machine.calib_s", "trace.overhead_frac",
)


def unit_of(name):
    if name.endswith("_s") or name.startswith("registry.runner_s."):
        return "s"
    if name.endswith(("_ratio", "_efficiency", "_frac")):
        return "ratio"
    return "count"


class HarnessError(Exception):
    """The benchmark could not measure (as opposed to ringlab giving a wrong answer)."""


def calibrate():
    """machine.calib_s: median time of a fixed pure-Python plus numpy loop, no ringlab."""
    import numpy as np

    def once():
        start = time.perf_counter()
        acc = 0
        for i in range(600_000):
            acc = (acc * 31 + i) % 1_000_003
        a = np.arange(256, dtype=np.int32)
        for _ in range(100):
            table = np.mod(np.multiply.outer(a, a), 251)
            acc += int((table == 0).sum())
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(3))


def run_child(spec, deadline):
    """Start child.py; returns (setup, parsed result or None).

    setup holds the seconds from the start to READY as measured ("s") and
    rescaled to the reference speed by the child's probes ("ref_s").

    Output is read straight from the pipe with select, so a child that hangs
    is killed at the deadline instead of blocking the run.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, json.dumps(spec)], cwd=ROOT, stdout=subprocess.PIPE)
    fd = proc.stdout.fileno()
    out = b""
    setup_s = None
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise HarnessError(f"{spec['workload']}: pass ran past the {DEADLINE_S:.0f} s deadline")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if setup_s is None and b"\n" in out:
                setup_s = time.perf_counter() - start
        returncode = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{spec['workload']}: pass did not exit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = out.decode().splitlines()
    if returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise HarnessError(f"{spec['workload']}: pass exited with {returncode} before its result")
    setup = {"s": setup_s, "ref_s": setup_s * PROBE_REF_S / float(lines[0].split()[1])}
    if spec["setup_only"]:
        return setup, None
    return setup, json.loads(lines[-1])


def p90_if_supported(samples):
    """Nearest-rank p90, or None unless at least TAIL_MIN_BEYOND samples lie beyond it."""
    n = len(samples)
    rank = math.ceil(0.9 * n)
    if n == 0 or n - rank < TAIL_MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def summarize(passes, setup_samples):
    """The end-to-end metrics, correctness and side information of a --trace 0 run."""
    items_ms = [s * 1000.0 for p in passes for s in p["item_s"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    values = {
        "wall_ref_s": statistics.median(p["wall_ref_s"] for p in passes),
        "cpu_ref_s": statistics.median(p["cpu_ref_s"] for p in passes),
        "setup_s": statistics.median(x["ref_s"] for x in setup_samples),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    info = {
        "setup_s": statistics.median(x["s"] for x in setup_samples),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "probe_ms": statistics.median(p["probe_s"] for p in passes) * 1000.0,
        "passes": len(passes),
        "setup_samples": len(setup_samples),
        "entry_p50_ms": statistics.median(items_ms) if items_ms else None,
        "entry_p90_ms": p90_if_supported(items_ms),
        "entry_samples": len(items_ms),
        "error_rate": failed / attempted if attempted else 1.0,
    }
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END},
    }
    return result, info, errors


def summarize_trace(untraced, traced, calib_s):
    """The per-layer metrics of a --trace 1 run."""
    values = dict(traced["layers"])
    records = sum(traced["outcomes"].values())
    values["registry.records"] = records
    values["registry.nonvacuous_ratio"] = (
        1.0 - traced["outcomes"].get("VACUOUS", 0) / records if records else 0.0
    )
    values["registry.jobs_efficiency"] = untraced["cpu_s"] / (POOL_JOBS * untraced["wall_s"])
    values["machine.calib_s"] = calib_s
    values["trace.overhead_frac"] = traced["wall_ref_s"] / untraced["wall_ref_s"] - 1.0
    errors = untraced["errors"] + traced["errors"]
    if traced["digests"] != untraced["digests"]:
        errors.append("traced report digests differ from the untraced ones")
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }
    return result, errors


def machine_info():
    return {
        "platform": sys.platform,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "ringlab", "__init__.py")):
        print(f"no ringlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    if "RINGLAB_SIZE_LIMIT" in os.environ:
        print("RINGLAB_SIZE_LIMIT must be unset: the pins assume the default size cap", file=sys.stderr)
        return 2

    machine = machine_info()
    calib_s = calibrate()
    spec = {"workload": args.workload, "seed": args.seed, "trace": False, "setup_only": False}
    record = {"args": vars(args), "machine": machine, "calib_s": calib_s}
    try:
        if args.trace:
            _, untraced = run_child(spec, deadline)
            _, traced = run_child({**spec, "trace": True}, deadline)
            result, errors = summarize_trace(untraced, traced, calib_s)
            record["passes"] = [untraced, traced]
            meta = traced
        else:
            setup_samples = []
            for _ in range(SETUP_PROBES):
                setup_samples.append(run_child({**spec, "setup_only": True}, deadline)[0])
            passes = []
            measured = 0.0
            while len(passes) < MAX_PASSES:
                setup, res = run_child(spec, deadline)
                setup_samples.append(setup)
                passes.append(res)
                measured += res["wall_s"]
                too_long = time.monotonic() + 1.5 * res["wall_s"] > deadline
                if measured + res["wall_s"] > args.seconds or too_long:
                    break
            result, info, errors = summarize(passes, setup_samples)
            record["passes"] = passes
            record["info"] = info
            meta = passes[0]
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    machine["loadavg_end"] = os.getloadavg()
    record.update(result=result, limits=meta["limits"], versions=meta["versions"])
    os.makedirs(OUT, exist_ok=True)
    name = f"run-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"machine  python {meta['versions']['python']}  numpy {meta['versions']['numpy']}  "
        f"nproc {machine['nproc']}  loadavg {machine['loadavg'][0]:.2f} -> "
        f"{machine['loadavg_end'][0]:.2f}  machine.calib_s {calib_s:.4f} s"
    )
    print(f"limits   {json.dumps(meta['limits'], sort_keys=True)}  RINGLAB_SIZE_LIMIT unset")
    if not args.trace:
        print(f"passes   {info['passes']}  setup samples {info['setup_samples']}")
    for key, m in result["metrics"].items():
        print(f"  {key:<36} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'setup_s (as measured)':<36} {info['setup_s']:.6g} s")
        print(f"  {'wall_s (as measured)':<36} {info['wall_s']:.6g} s")
        print(f"  {'cpu_s (as measured)':<36} {info['cpu_s']:.6g} s")
        print(f"  {'probe (speed during the passes)':<36} {info['probe_ms']:.6g} ms")
        n = info["entry_samples"]
        p50, p90 = info["entry_p50_ms"], info["entry_p90_ms"]
        print(f"  {'entry_p50_ms':<36} " + (f"{p50:.6g} ms (n={n})" if p50 is not None else "n/a (no per-entry times)"))
        print(f"  {'entry_p90_ms':<36} " + (f"{p90:.6g} ms (n={n})" if p90 is not None else f"n/a (fewer than {TAIL_MIN_BEYOND} samples beyond p90, n={n})"))
        print(f"  {'error_rate':<36} {info['error_rate']:.6g} ({result['failed']}/{result['attempted']})")
    for err in errors[:20]:
        print(f"MISMATCH {err}")
    if len(errors) > 20:
        print(f"MISMATCH ... and {len(errors) - 20} more")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
