"""Regenerate perfbench/pins.json from the current ringlab.

    python3 perfbench/make_pins.py

Verifies every default-corpus entry serially and queries the seed-0
cap-rings, then pins per-entry report digests and outcome counts, the
seed-0 ordered and the order-independent digest of each corpus workload,
and the digest of each seed-0 cap-rings query output.  Run it only when a
change alters report content on purpose, and record the new digests with
that change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    pins = {"entries": {}, "workloads": {}}
    by_text = {}
    for name in ("finite-corpus", "infinite-lanes"):
        limits, entries = workloads.corpus_entries(name, 0)
        outputs, _ = workloads.run_corpus(limits, entries, 1)
        by_text.update(outputs)
        for text, out in outputs.items():
            if "error" in out:
                sys.exit(f"{text}: {out['error']}")
            pins["entries"][text] = {
                "sha256": workloads.sha256_lines(out["lines"]),
                **{k: out["outcomes"].get(k, 0) for k in workloads.OUTCOMES},
            }
    for name in ("finite-corpus", "infinite-lanes", "corpus-jobs2"):
        _, entries = workloads.corpus_entries(name, 0)
        order = [e.text for e in entries]
        failed, errors, summary = workloads.check_corpus(by_text, order, pins["entries"])
        if failed or errors:
            sys.exit("\n".join(errors))
        pins["workloads"][name] = summary
    results, _ = workloads.run_cap(workloads.cap_rings(0))
    failed, errors, summary = workloads.check_cap(results, {"rings": {}})
    if failed or errors:
        sys.exit("\n".join(errors))
    pins["cap-rings"] = {
        "ordered_sha256": summary["ordered_sha256"],
        "rings": {
            out["expr"]: {name: workloads._digest(res["value"]) for name, res in out["queries"].items()}
            for out in results
        },
    }
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({k: v for k, v in pins.items() if k != "entries"}, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
