"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py '{"workload": "finite-corpus", "seed": 0, "trace": false, "setup_only": false}'

Imports ringlab from the checkout's src/, builds the workload's inputs,
prints READY with the mean of two speed probes taken before and after,
then runs one pass and prints its result as one JSON line.  run.py starts
it and times setup from the start of the process to READY.
With "setup_only" it exits after READY.  With "trace" the layer wrappers
are installed first and the spans are written to perfbench/out/.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))


def main():
    spec = json.loads(sys.argv[1])
    workload, seed, trace = spec["workload"], spec["seed"], spec["trace"]
    import workloads

    speed_before = workloads.probe()
    import ringlab

    if not os.path.abspath(ringlab.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"ringlab imported from {ringlab.__file__}, not from {ROOT}/src", file=sys.stderr)
        return 2
    item_span = workloads.no_span
    if trace:
        import layers

        layers.install()
        item_span = layers.item
        with layers.span("setup", "harness.setup", "harness", trace="setup"):
            inputs = workloads.setup(workload, seed)
    else:
        inputs = workloads.setup(workload, seed)
    print(f"READY {(speed_before + workloads.probe()) / 2!r}", flush=True)
    if spec["setup_only"]:
        return 0

    pins = workloads.load_pins()
    if not trace:
        result = workloads.run_pass(workload, seed, inputs, pins)
    else:
        os.makedirs(OUT, exist_ok=True)
        layers.TRACE_DIR = os.path.join(OUT, f"workers-{os.getpid()}")
        os.makedirs(layers.TRACE_DIR)
        with layers.span("pass", "harness.pass", "harness", trace="pass"):
            result = workloads.run_pass(workload, seed, inputs, pins, item_span)
        layers.collect_workers()
        os.rmdir(layers.TRACE_DIR)
        from ringlab.registry import CASES

        t = layers.TRACER
        result["layers"] = layers.layer_metrics(t, list(CASES))
        kinds = [] if workload == "cap-rings" else sorted({e.kind for e in inputs[1]})
        missing = layers.unfired(t, layers.EXERCISED[workload], layers.expected_runners(kinds))
        if missing:
            result["errors"].append("traced layers never called: " + ", ".join(missing))
        with open(os.path.join(OUT, f"spans-{workload}-s{seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, **t.snapshot()}, fh)

    from ringlab.corpus import Limits
    import numpy

    result["limits"] = asdict(Limits.defaults())
    result["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
