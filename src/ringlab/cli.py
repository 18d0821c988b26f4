"""Command-line interface.

Exit codes: 0 success (no unexpected violations), 1 unexpected violations,
2 argument or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter

from . import classify as cl
from .corpus import Limits, default_corpus, load_corpus
from .dsl import parse_element, parse_ideal, parse_mcs, parse_ring, split_top
from .errors import ConfigError, RinglabError
from .ideals import all_ideals, is_maximal, is_prime, localize, max_ideals, prime_violation, spec
from .poly import (
    NO,
    PolyIdealSpec,
    Poly,
    bounded_S_r_search,
    poly_s_unit_check,
)
from .registry import VIOLATION, counterexample_search, verify


def _emit(records, json_path, _ignored=None):
    # the third parameter is ignored; perfbench/tests/test_perfbench.py still passes one
    lines = []
    for rec in records:
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    if json_path:
        with _open_report(json_path, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
    return lines


def _open_report(path, mode):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write report {path}: {exc.strerror}") from None


def _summarize(records):
    per = {}
    for rec in records:
        per.setdefault(rec["theorem"], Counter())[rec["outcome"]] += 1
    width = max((len(t) for t in per), default=8)
    for tid in sorted(per):
        c = per[tid]
        print(
            f"{tid:<{width}}  VERIFIED={c.get('VERIFIED', 0):<6} "
            f"VACUOUS={c.get('VACUOUS', 0):<6} VIOLATION={c.get('VIOLATION', 0)}"
        )
    total = Counter(rec["outcome"] for rec in records)
    print(
        f"total: {len(records)} records, {total.get('VERIFIED', 0)} verified, "
        f"{total.get('VACUOUS', 0)} vacuous, {total.get('VIOLATION', 0)} violations"
    )


def _verdict_text(v, ring):
    data = v.to_json(ring)
    bits = [data["outcome"]]
    if data["witness"] is not None:
        bits.append(f"witness={data['witness']}")
    if data["counterexample"] is not None:
        bits.append(f"counterexample=({','.join(data['counterexample'])})")
    if data["reason"]:
        bits.append(f"reason={data['reason']}")
    return "  ".join(bits)


def cmd_classify(args):
    ring = parse_ring(args.ring)
    rows = []
    rows.append(("ring", ring.recipe))
    rows.append(("size", str(ring.size)))
    S = parse_mcs(ring, args.mcs) if args.mcs is not None else None
    if args.ideal is not None:
        A = parse_ideal(ring, args.ideal)
        rows.append(("ideal", A.label() + " = {" + ",".join(ring.labels[m] for m in A.sorted_members) + "}"))
        rows.append(("r-ideal", _verdict_text(cl.is_r_ideal(A), ring)))
        rows.append(("pr-ideal", _verdict_text(cl.is_pr_ideal(A), ring)))
        pv = prime_violation(A)
        rows.append(("prime", "yes" if is_prime(A) else (
            f"no (pair ({ring.labels[pv[0]]},{ring.labels[pv[1]]}))" if pv else "no (improper)")))
        rows.append(("maximal", "yes" if is_maximal(A) else "no"))
        if args.all_predicates:
            rows.append(("z0-ideal", _verdict_text(cl.is_z0_ideal(A), ring)))
        if S is not None:
            rows.append(("mcs", S.label() + " = {" + ",".join(ring.labels[m] for m in S.sorted_members) + "}"))
            rows.append(("S-r-ideal", _verdict_text(cl.is_S_r_ideal(A, S), ring)))
            rows.append(("S-prime", _verdict_text(cl.is_S_prime(A, S), ring)))
            if args.all_predicates:
                rows.append(("S-z0-ideal", _verdict_text(cl.is_S_z0_ideal(A, S), ring)))
    if args.all_predicates:
        rows.append(("uz-ring", _verdict_text(cl.is_uz_ring(ring), ring)))
        rows.append(("property A", _verdict_text(cl.has_property_A(ring), ring)))
        rows.append(("a.c.", _verdict_text(cl.has_ac(ring), ring)))
        rows.append(("f.a.c.", _verdict_text(cl.has_fac(ring), ring)))
        if S is not None:
            rows.append(("S-uz-ring", _verdict_text(cl.is_S_uz_ring(ring, S), ring)))
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v}")
    return 0


def cmd_ideals(args):
    ring = parse_ring(args.ring)
    lattice = all_ideals(ring)
    tables = (("prime", {P.mask for P in spec(ring)}), ("maximal", {M.mask for M in max_ideals(ring)}))
    print(f"{ring.recipe}: {len(lattice)} ideals")
    for A in lattice:
        members = ",".join(ring.labels[m] for m in A.sorted_members)
        tags = [name for name, masks in tables if A.mask in masks] if A.is_proper() else ["improper"]
        tag = f"  [{' '.join(tags)}]" if tags else ""
        print(f"  {A.label():<12} {{{members}}}{tag}")
    return 0


def _corpus_from_args(args):
    """The corpus, once the report file is known to be writable: opening it for append
    before the run creates it but keeps what it holds until the report is written."""
    limits = Limits.defaults()
    corpus = load_corpus(args.corpus, limits) if args.corpus else default_corpus(limits)
    if args.json:
        _open_report(args.json, "a").close()
    return corpus


def exit_code_for(records) -> int:
    """0 unless an unexpected violation is present (hunt findings are expected)."""
    for rec in records:
        if rec["outcome"] == VIOLATION and not rec.get("expected"):
            return 1
    return 0


def cmd_verify(args):
    corpus = _corpus_from_args(args)
    ids = tuple(args.theorems.split(",")) if args.theorems else None
    t0 = time.perf_counter()
    records = list(verify(ids, corpus, jobs=args.jobs))
    elapsed = time.perf_counter() - t0
    _emit(records, args.json)
    _summarize(records)
    print(f"elapsed: {elapsed:.1f}s over {len(corpus.entries)} corpus entries")
    return exit_code_for(records)


def cmd_hunt(args):
    corpus = _corpus_from_args(args)
    records = list(counterexample_search(args.theorem, corpus, tuple(args.drop or ()), jobs=args.jobs))
    _emit(records, args.json)
    _summarize(records)
    found = [r for r in records if r["outcome"] == VIOLATION]
    print(f"hunt {args.theorem} dropping {args.drop or []}: {len(found)} expected violation(s)")
    for rec in found[:10]:
        print("  ", json.dumps({"entry": rec["entry"], "annotations": rec["annotations"]}, sort_keys=True))
    return 0


def cmd_poly(args):
    base = parse_ring(args.base)
    S = parse_mcs(base, args.mcs or "")
    coeffs = None  # parsed before the search, so a bad coefficient prints nothing
    if args.s_unit_check:
        coeffs = [parse_element(base, c) for c in split_top(args.s_unit_check, ",")]
    if args.kind == "content":
        spec = PolyIdealSpec.content(parse_ideal(base, ",".join(args.args)))
    else:
        if not args.args:
            print("kernel needs an evaluation point", file=sys.stderr)
            return 2
        point = parse_element(base, args.args[0])
        spec = PolyIdealSpec.eval_kernel(point, parse_ideal(base, ",".join(args.args[1:])))
    verdict = bounded_S_r_search(spec, S, args.degree)
    if verdict.outcome == NO:
        w, z = verdict.pair
        print(f"NO at degree {verdict.witness_degree}, counterexample ({w.text()}, {z.text()})")
    else:
        print(f"NO_VIOLATION_UP_TO degree {verdict.bound}")
    if coeffs is not None:
        f = Poly.make(base, coeffs)
        res = poly_s_unit_check(f, S, args.degree)
        line = f"s-unit({f.text()}): {res.kind}"
        if res.witness is not None:
            line += f" witness {res.witness.text()}"
        if res.obstructions:
            line += "  evaluation obstructions at " + ",".join(base.labels[a] for a in res.obstructions)
        print(line)
    return 0


def cmd_localize(args):
    ring = parse_ring(args.ring)
    S = parse_mcs(ring, args.mcs or "")
    result = localize(ring, S)
    loc = result.localized
    print(f"ring      {ring.recipe} (size {ring.size})")
    print(f"mcs       {S.label()} = {{{','.join(ring.labels[m] for m in S.sorted_members)}}}")
    print(f"localized {loc.recipe} (size {loc.size})")
    print(f"idempotent {ring.labels[result.absorbing_idempotent]}")
    print(f"kernel    {result.kernel.label()} = {{{','.join(ring.labels[m] for m in result.kernel.sorted_members)}}}")
    return 0


def _worker_count(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a worker count of at least 1, got {text!r}")
    return n


def build_parser():
    p = argparse.ArgumentParser(prog="ringlab", description="classify ideals and machine-check the S-r-ideal proposition catalogue")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify an ideal / ring against the predicate suite")
    c.add_argument("ring")
    c.add_argument("--ideal", help="generator list for the ideal")
    c.add_argument("--mcs", help="generator list for the multiplicatively closed set")
    c.add_argument("--all-predicates", action="store_true")
    c.set_defaults(func=cmd_classify)

    i = sub.add_parser("ideals", help="list the full ideal lattice")
    i.add_argument("ring")
    i.set_defaults(func=cmd_ideals)

    v = sub.add_parser("verify", help="run the proposition registry over a corpus")
    v.add_argument("--theorems", help="comma-separated registry ids (default: all)")
    v.add_argument("--corpus", help="corpus file (default: built-in corpus)")
    v.add_argument("--jobs", type=_worker_count, default=1)
    v.add_argument("--json", help="write JSON-lines report here")
    v.set_defaults(func=cmd_verify)

    h = sub.add_parser("hunt", help="re-run one statement with hypotheses dropped")
    h.add_argument("theorem")
    h.add_argument("--drop", action="append", help="hypothesis name to stop enforcing")
    h.add_argument("--corpus")
    h.add_argument("--jobs", type=_worker_count, default=1)
    h.add_argument("--json")
    h.set_defaults(func=cmd_hunt)

    q = sub.add_parser("poly", help="bounded S-r search over a polynomial ring")
    q.add_argument("base")
    q.add_argument("kind", choices=("content", "kernel"))
    q.add_argument("args", nargs="*", help="content: ideal generators; kernel: point then ideal generators")
    q.add_argument("--mcs", help="constants generating S")
    q.add_argument("--degree", type=int, default=3)
    q.add_argument("--s-unit-check", help="comma-separated coefficients (constant first)")
    q.set_defaults(func=cmd_poly)

    l = sub.add_parser("localize", help="localize a ring at a multiplicatively closed set")
    l.add_argument("ring")
    l.add_argument("--mcs", help="generator list")
    l.set_defaults(func=cmd_localize)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except RinglabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
