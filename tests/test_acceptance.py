"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Everything is exact arithmetic; tolerances are equality except for
the stated wall-clock budgets.
"""

import hashlib
import json
import time

import pytest

from ringlab.arith import (
    INT,
    ArithIdeal,
    ArithMCS,
    ArithRing,
    arith_is_prime,
    arith_is_r_ideal,
    arith_is_S_r_ideal,
    arith_oracle_check,
)
from ringlab.classify import is_r_ideal
from ringlab.corpus import default_corpus
from ringlab.dsl import parse_ring
from ringlab.ideals import (
    all_ideals,
    ideal_generate,
    localize,
    mcs_generate,
    prime_violation,
)
from ringlab.poly import (
    NO,
    Poly,
    PolyIdealSpec,
    S_UNIT_ANALYTIC_NO,
    bounded_S_r_search,
    dedekind_mertens_sweep,
    poly_s_unit_check,
)
from ringlab.registry import build_context, counterexample_search, verify
from ringlab.rings import RingHom, check_hom, make_product, make_zn

from oracles import localize_oracle


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


@pytest.fixture(scope="module")
def serial_run(corpus):
    t0 = time.perf_counter()
    records = list(verify(None, corpus))
    elapsed = time.perf_counter() - t0
    return records, elapsed


# sha256 of the default-corpus report `ringlab verify --json` writes; a change
# that alters report content on purpose records the new value in CHANGES.md
GOLDEN_REPORT_SHA256 = "3c891add10f76b07499ed5dd92ca6d560fc1ac9f0c0f670bc14593ad86189143"


def _jsonl(records):
    return "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)


def test_acceptance_1_z12_regression():
    t0 = time.perf_counter()
    ring = parse_ring("Z12")
    lattice = all_ideals(ring)
    assert len(lattice) == 6
    proper = [A for A in lattice if A.is_proper()]
    assert len(proper) == 5
    for A in proper:
        assert is_r_ideal(A).holds
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"Z12 lists 6 ideals, 5 proper all r-ideals, in {elapsed:.3f}s")


def test_acceptance_2_z6_intro_example():
    ring = make_zn(6)
    zero = ideal_generate(ring, [])
    assert is_r_ideal(zero).holds
    assert prime_violation(zero) == (2, 3)
    _report(2, "zero ideal of Z6 is an r-ideal and fails primality at (2,3)")


def test_acceptance_3_arith_examples():
    z = ArithRing((INT,))
    a3 = ArithIdeal(z, (3,))
    assert arith_is_prime(a3)
    v = arith_is_r_ideal(a3)
    assert v.fails and v.counterexample == ((3,), (1,))
    zz = ArithRing((INT, INT))
    a02 = ArithIdeal(zz, (0, 2))
    s_u_all = ArithMCS(zz, (("units",), ("all",)))
    assert arith_is_r_ideal(a02).fails
    vs = arith_is_S_r_ideal(a02, s_u_all)
    assert vs.holds and vs.witness == (1, 0)
    assert arith_oracle_check(a3, None, 10)
    assert arith_oracle_check(a02, s_u_all, 10)
    assert arith_oracle_check(a02, None, 10)
    _report(3, "3Z prime/non-r at (3,1); 0x2Z is S-r with witness (1,0); window oracle at 10 agrees")


def test_acceptance_4_polynomial_kernel_example():
    t0 = time.perf_counter()
    for p in (2, 3):
        field = make_zn(p)
        spec = PolyIdealSpec.eval_kernel(1, ideal_generate(field, []))
        nonzero_constants = mcs_generate(field, list(range(1, p)))
        verdict = bounded_S_r_search(spec, nonzero_constants, 3)
        assert verdict.outcome == NO
        assert verdict.witness_degree <= 1
        x = Poly.make(field, [0, 1])
        res = poly_s_unit_check(x, nonzero_constants, 3)
        assert res.kind == S_UNIT_ANALYTIC_NO
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(4, f"evaluation-kernel ideal fails S-r at degree <= 1 over Z2 and Z3; x blocked analytically ({elapsed:.2f}s)")


REQUIRED_NONVACUOUS = ("T2.7", "T2.12", "P2.8", "P-suz", "L3.1", "DM", "DEGEN")


def test_acceptance_5_theorem_suite(corpus, serial_run):
    records, elapsed = serial_run
    violations = [r for r in records if r["outcome"] == "VIOLATION"]
    assert violations == []
    verified = {}
    for rec in records:
        if rec["outcome"] == "VERIFIED":
            verified[rec["theorem"]] = verified.get(rec["theorem"], 0) + 1
    for tid in REQUIRED_NONVACUOUS:
        assert verified.get(tid, 0) > 0, tid
    assert elapsed < 600.0
    t0 = time.perf_counter()
    parallel = list(verify(None, corpus, jobs=4))
    par_elapsed = time.perf_counter() - t0
    assert par_elapsed < 180.0
    assert parallel == records
    _report(
        5,
        f"full registry clean over {len(corpus.entries)} entries: {len(records)} records, "
        f"0 violations, serial {elapsed:.1f}s, 4-way {par_elapsed:.1f}s",
    )


def test_acceptance_6_localization_oracle(corpus):
    checked = 0
    for entry in corpus.entries:
        if entry.kind != "finite":
            continue
        ctx = build_context(entry, corpus.limits)
        if ctx.ring.size > 24:
            continue
        R = ctx.ring
        for S in ctx.mcs_list():
            L = localize(R, S)
            oracle, cls = localize_oracle(R, S)
            # x -> [x/1] on eR; it sends e to 1 because e lies in S
            image = [None] * L.localized.size
            for x in R.elements():
                if R.m(L.absorbing_idempotent, x) == x:
                    image[L.map.image[x]] = cls[(x, R.one)]
            check_hom(RingHom(L.localized, oracle, tuple(image)))
            assert sorted(image) == list(range(oracle.size))
            checked += 1
    assert checked > 100
    _report(6, f"x -> [x/1] maps eR onto the fraction ring on {checked} (ring, mcs) pairs")


def test_acceptance_7_content_identity_sweep():
    t0 = time.perf_counter()
    total = 0
    for ring in (make_zn(6), make_zn(12), make_product(make_zn(2), make_zn(2))):
        checked, failure = dedekind_mertens_sweep(ring, 1000, 24103, max_degree=4)
        assert failure is None
        total += checked
    elapsed = time.perf_counter() - t0
    assert total == 3000
    assert elapsed < 30.0
    _report(7, f"content-product identity exact on {total} seeded pairs in {elapsed:.2f}s")


def test_acceptance_8_degeneracy_documentation(corpus, serial_run):
    records, _ = serial_run
    degen = [r for r in records if r["theorem"] == "DEGEN"]
    finite_entries = [e for e in corpus.entries if e.kind == "finite"]
    assert len(degen) == len(finite_entries)
    assert all(r["outcome"] == "VERIFIED" for r in degen)
    # the discriminating load sits in the other lanes
    z = ArithRing((INT,))
    assert arith_is_r_ideal(ArithIdeal(z, (3,))).fails
    field = make_zn(3)
    spec = PolyIdealSpec.eval_kernel(1, ideal_generate(field, []))
    assert bounded_S_r_search(spec, mcs_generate(field, [2]), 3).outcome == NO
    _report(
        8,
        f"all {len(degen)} finite corpus rings are uz with every proper ideal an r-ideal; "
        "arithmetic and polynomial lanes carry non-r examples",
    )


def test_acceptance_9_hunts_and_determinism(corpus, serial_run):
    records, _ = serial_run
    hunt1 = list(counterexample_search("T2.12", corpus, ("prime",)))
    found1 = [r for r in hunt1 if r["outcome"] == "VIOLATION"]
    assert all(r.get("expected") for r in found1)
    assert found1, "dropping primality must expose arithmetic counterexamples"
    hunt2 = list(counterexample_search("P2.10", corpus, ("reduced",)))
    found2 = [r for r in hunt2 if r["outcome"] == "VIOLATION"]
    assert all(r.get("expected") for r in found2)
    rerun = list(verify(None, corpus))
    assert _jsonl(rerun) == _jsonl(records)
    _report(
        9,
        f"hunts terminate ({len(found1)} and {len(found2)} expected findings); "
        "two full runs are byte-identical",
    )


def test_acceptance_10_golden_report(serial_run):
    records, _ = serial_run
    digest = hashlib.sha256((_jsonl(records) + "\n").encode()).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256
    _report(10, f"default-corpus report bytes match the golden sha256 {digest[:12]}")
