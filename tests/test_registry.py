import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, replace
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import ringlab
from ringlab import classify as cl, extensions, poly, registry
from ringlab.classify import FAILS, HOLDS, Verdict, has_fac
from ringlab.config import ORACLE_AXIS_CAP, POLY_SEARCH_BUDGET
from ringlab.corpus import FINITE, CorpusSpec, Limits, default_corpus, parse_corpus_line
from ringlab.dsl import parse_ring
from ringlab.errors import ConfigError, RinglabError, UnknownHypothesis, UnknownTheorem
from ringlab.extensions import BACKWARD, FORWARD, AmalgRing, TrivExtRing
from ringlab.ideals import (
    all_ideals,
    annihilator,
    ideal_pushforward,
    lattice,
    localize,
    mask_of,
    mcs_from_members,
    member_order,
    transpose,
)
from ringlab.registry import (
    CASES,
    DEFAULT_IDS,
    FiniteContext,
    _row_checks,
    _run_entry,
    _small_mcs,
    _t2_7_sides,
    build_context,
    counterexample_search,
    VACUOUS,
    VERIFIED,
    VIOLATION,
    run_c_zd,
    run_p2_8,
    run_p2_10,
    run_p_annsum,
    run_degen,
    run_p_colon,
    run_p_minidem,
    run_p_sidem,
    run_p_suz,
    run_p_suzmax,
    run_p3_2,
    run_p3_3,
    run_t2_3,
    run_t2_5,
    run_t2_11,
    run_t2_12,
    verify,
)

from oracles import (
    ref_c_zd,
    ref_p2_8,
    ref_p2_10,
    ref_p_annsum,
    ref_p_colon,
    ref_p_minidem,
    ref_p_sidem,
    ref_p_suz,
    ref_p_suzmax,
    ref_t2_3,
    ref_t2_5,
    ref_t2_7_sides,
    ref_t2_11,
    ref_t2_12,
)
from test_poly import SEARCH_RINGS

MINI_LINES = [
    "Z12",
    "Z6",
    "Z2 x Z3",
    "triv(Z2, free(1))",
    "amalg(Z4, Z4, id, (2))",
    "Z ; ideal=(3) ; mcs=(units)",
    "Z x Z ; ideal=(0,2) ; mcs=(units,all)",
    "Z x Z ; ideal=(0,2) ; mcs=(units,units)",
    "amalgZ(4, 2) ; mcs=(units)",
    "polyring(Z3)",
]


HUNT_LINES = [
    "Z12", "Z6", "Z8", "Z2 x Z3", "Z2 x Z4", "Z4 x Z4", "Z9/(3)",
    "triv(Z2, free(1))", "triv(Z4, quot(2))",
    "amalg(Z4, Z4, id, (2))", "amalg(Z2 x Z2, Z2 x Z2, id, ((1,0)))",
    "Z ; ideal=(3) ; mcs=(units)",
    "Z x Z ; ideal=(0,2) ; mcs=(units,all)",
    "Z x Z ; ideal=(0,2) ; mcs=(units,units)",
    "amalgZ(4, 2) ; mcs=(units)", "amalgZ(6, 2) ; mcs=({1,-1})",
    "polyring(Z3)", "polyring(Z6)",
]

# sha256 of the report bytes (as `ringlab verify --json` writes them) over
# HUNT_LINES: a plain verify, and one hunt per declared hypothesis
VERIFY_PIN = "56121aa8fa0b246abec916d63693a08cbd0e0e84aecac0fb6058dfa507096517"
HUNT_PINS = {
    ("T2.3", "disjoint"): "5a8cfda00de7b50498e6f3830038a40f550f3ce7d5b48b1cc341682db73ff5e7",
    ("T2.5", "s_regular"): "3cfc2342e0463fcfcaf96edb460efa003a9be716adad019b86804e189f8e54ad",
    ("T2.7", "disjoint"): "4c68a52563158075e0146f852c2da94c05d7ecce485c2affa64d5e0ba326393a",
    ("P2.8", "s_regular"): "448bb70855b8b312108d1645d3cec08375328ee5973ea657e79e260685672ef4",
    ("P2.10", "reduced"): "2e09e0d36d033e1f93d5f981631a4e6e3919cae5953ae3422072346b4c3293e5",
    ("P2.10", "disjoint"): "80c459383631772ff5f9546289487cc7aab571544223fac0d26cebfcd4483302",
    ("T2.11", "disjoint"): "2463d4294d80cfd0aecd7510f039f092d713586655a22dff080338b5bbf2d1e5",
    ("T2.12", "prime"): "36badd98dd8a105037de1a75b2c2d6f35673e14955ae71b8f813c91370a0a3ee",
    ("T2.12", "disjoint"): "fc961ec6c2832f1076e9228501b0a6b59f4a534f1786b081d286d18565b1efc9",
    ("P-jac", "in_jacobson"): "3e38220cdba41ff62048058c9334e3e9d1ab75e80fca87d207f0850114e5471a",
    ("P-zero", "disjoint"): "b786ae7f9f3aeee860d07df7dec6d27160ea3dedbace1f6463b59601441c77a5",
    ("P-colon", "disjoint"): "b3ee0729c39964233d0b1fa490e59ec81b23721c78053401e5ceebe8553050b3",
    ("P-annsum", "disjoint"): "d37dace663d042718aa5bb4d7e8364a708bb5c2a65eb6fcfe6eb6d958e0a314c",
    ("P-minidem", "reduced"): "3f575633bfcb623303ae6116f8a2ab79556b4b716b16f593719cb700d49596dd",
    ("P-minidem", "disjoint"): "1b46f4b7dcd2c5a50858a5ba9747ce57cc6063a97aa60fe204ed205050a98cc9",
    ("P-suzmax", "max_disjoint"): "0343bff1c7bb22ecee67c4aff5bd78f5d527414c3f3188c175ed3eca08cefd9e",
    ("P3.2", "epimorphism"): "5a4a3136c01649fdd66327aa8d950560e1f5cf1fb563ebee6b6702dd59822412",
    ("P3.2", "h1_domain"): "a2fc45655a373e27468ade7bdd8eebfa63f6748ddb47c2db66ffd50579fbda15",
    ("P3.2", "j_in_zd"): "1eb62196ab2b7bfb083a8baa0ffbe2cde3730519888d2a3904e6f42c3193130b",
    ("P3.2", "isomorphism"): "3c7739a64eeb7eae9677758870da2c576370bf7cbe70c1350e5622aa0b4ebfd1",
    ("P3.3", "torsion_free"): "5e00f78e66f150ee944ce4fc2ed13fbfbbeb96a2f8de40157a418f2153d9f3e6",
    ("P3.3", "zd_union"): "f13ca5b265c8f60bbe5ea3ccb15388c2fb1fea152d03b5d4cfd82f42dc1772c9",
    ("P3.3", "disjoint"): "09cdbb9258ead1740cf50e67e5e939c465503f1fd13ab075e7b1ab531a13781c",
    ("T4.1", "s_regular"): "3679504a5a5f25186e73ac981f863f7dd3e472bdb1c1d09e5348b157ebf51422",
}


@pytest.fixture(scope="module")
def mini():
    entries = tuple(parse_corpus_line(line) for line in MINI_LINES)
    return CorpusSpec(entries, Limits.defaults())


@pytest.fixture(scope="module")
def mini_records(mini):
    return list(verify(None, mini))


def test_registry_covers_the_catalogue():
    expected = {
        "T2.3", "T2.5", "P2.6", "T2.7", "P2.8", "P2.10", "T2.11", "T2.12",
        "C-zd", "P-jac", "P-zero", "P-colon", "P-annsum", "P-minidem",
        "P-sidem", "P-suz", "P-suzmax", "L3.1", "P3.2", "P3.3", "T4.1",
        "T4.2", "DM", "DEGEN",
    }
    assert expected <= set(CASES)
    assert set(DEFAULT_IDS) == set(CASES)


def test_default_corpus_contents():
    spec = default_corpus()
    texts = [e.text for e in spec.entries]
    assert "Z12" in texts
    assert "Z6" in texts
    assert any(t.startswith("Z x Z ; ideal=(0,2) ; mcs=(units,all)") for t in texts)
    assert any(t.startswith("polyring(Z12)") for t in texts)
    assert any(t.startswith("amalgZ(") for t in texts)
    kinds = {e.kind for e in spec.entries}
    assert kinds == {"finite", "arith", "poly", "amalgz"}


def test_mini_corpus_validates(mini):
    for entry in mini.entries:
        build_context(entry, mini.limits)


def test_unknown_theorem(mini):
    with pytest.raises(UnknownTheorem):
        list(verify(("T9.9",), mini))


def test_unknown_hypothesis(mini):
    with pytest.raises(UnknownHypothesis):
        list(counterexample_search("T2.12", mini, ("nonsense",)))


def test_no_unexpected_violations(mini_records):
    assert all(r["outcome"] != "VIOLATION" for r in mini_records)


def test_every_theorem_produces_records(mini_records):
    seen = {r["theorem"] for r in mini_records}
    assert set(DEFAULT_IDS) <= seen


def test_records_are_replayable_shape(mini_records):
    fields = {
        "theorem", "entry", "recipe", "annotations", "hypotheses",
        "dropped", "outcome", "witness", "counterexample", "detail",
    }
    for rec in mini_records:
        assert fields <= set(rec)
        json.dumps(rec)  # JSON-serializable


def test_mcs_candidate_cap_keeps_units_and_full():
    entry = parse_corpus_line("Z12")
    limits = replace(Limits.defaults(), mcs_cap=4)
    ctx = build_context(entry, limits)
    cands = ctx.mcs_list()
    assert len(cands) <= 4
    members = [S.members for S in cands]
    assert frozenset(ctx.ring.units) in members
    assert frozenset(range(12)) in members


def _labels(candidates):
    return [S.label() for S in candidates]


def test_mcs_catalogue_labels():
    """The first m.c.s. given per member set names it: S<> for {1}, S<2> for Z9's units."""
    def ctx(line, **limits):
        return build_context(parse_corpus_line(line), replace(Limits.defaults(), **limits))

    assert _labels(ctx("polyring(Z2)").poly_mcs_list()) == ["S<>", "S<0>"]
    assert _labels(ctx("polyring(Z12)").poly_mcs_list()) == [
        "S<>", "S<0>", "S<5>", "S<7>", "S<11>", "S<2>", "S<1,5,7,11>",
    ]
    assert _labels(_small_mcs(ctx("triv(Z12, free(1))").structure.base, 6)) == [
        "S<>", "S<0>", "S<4>", "S<5>", "S<7>", "S<9>",
    ]
    assert _labels(ctx("Z9", mcs_cap=4).mcs_list()) == ["S<>", "S<0>", "S<2>", "S<0,1,2,3,4,5,6,7,8>"]


def test_catalogue_and_lattice_are_in_member_order():
    """The shared key orders every ideal and catalogue m.c.s. of the finite corpus rings
    by (size, sorted members), the order the catalogue cut at mcs_cap keeps."""
    spec = default_corpus()
    for entry in spec.entries:
        if entry.kind != FINITE:
            continue
        ctx = build_context(entry, spec.limits)
        for sets in (all_ideals(ctx.ring), ctx.mcs_list()):
            keys = [(len(X.sorted_members), X.sorted_members) for X in sets]
            assert keys == sorted(keys) and len(set(keys)) == len(keys), entry.text
            orders = [member_order(X.mask, ctx.ring.size) for X in sets]
            assert orders == sorted(orders) and len(set(orders)) == len(orders), entry.text


def _fake_amalg(monkeypatch, forward_met, backward_met, base_holds, ext_holds):
    """Every amalgamation reports these hypotheses, and every check these verdicts."""
    hyps = {
        FORWARD: {"epimorphism": True, "h1_domain": forward_met, "j_in_zd": True},
        BACKWARD: {"isomorphism": backward_met},
    }
    verdicts = tuple(Verdict(HOLDS if h else FAILS) for h in (base_holds, ext_holds))
    monkeypatch.setattr(registry, "amalg_hypotheses", lambda am: hyps)
    monkeypatch.setattr(registry, "amalg_transfer_check", lambda am, A, S: verdicts)


@pytest.mark.parametrize("dropped", [(), ("h1_domain",), ("isomorphism",)])
@pytest.mark.parametrize("forward_met,backward_met", [(True, True), (True, False), (False, True), (False, False)])
@pytest.mark.parametrize("base_holds,ext_holds", [(True, False), (False, True), (True, True), (False, False)])
def test_p3_2_violation_needs_the_failing_direction_met_or_dropped(
    monkeypatch, dropped, forward_met, backward_met, base_holds, ext_holds
):
    """FORWARD fails when the base is S-r and the extension is not, BACKWARD the other way
    round; either is a VIOLATION, naming that direction, only when its hypotheses are met
    or dropped.  Otherwise the record is VERIFIED when some direction's hypotheses are met."""
    _fake_amalg(monkeypatch, forward_met, backward_met, base_holds, ext_holds)
    ctx = build_context(parse_corpus_line("amalg(Z4, Z4, id, (2))"), Limits.defaults())
    findings = list(run_p3_2(ctx, dropped))
    assert findings
    forward = forward_met or "h1_domain" in dropped
    backward = backward_met or "isomorphism" in dropped
    if base_holds and not ext_holds and forward:
        expected, violated = VIOLATION, FORWARD
    elif ext_holds and not base_holds and backward:
        expected, violated = VIOLATION, BACKWARD
    else:
        expected, violated = (VERIFIED if forward or backward else VACUOUS), None
    for f in findings:
        assert f.outcome == expected
        assert f.detail.get("violated") == violated
        assert {d: r["met"] for d, r in f.detail["directions"].items()} == {FORWARD: forward, BACKWARD: backward}


@pytest.mark.parametrize("dropped", [(), ("torsion_free",), ("zd_union",), ("disjoint",)])
@pytest.mark.parametrize("unmet", [None, "torsion_free", "zd_union_in_ann", "disjoint", "zd_union_in_ann_literal"])
@pytest.mark.parametrize("pattern", [(True, True, True), (False, False, False), (True, False, True), (False, False, True)])
def test_p3_3_violation_needs_an_inconsistent_pattern_under_met_or_dropped_hypotheses(
    monkeypatch, dropped, unmet, pattern
):
    """An inconsistent pattern is a VIOLATION only when every enforced hypothesis is met
    or dropped; the literal zd-union reading is reported, never enforced.  The module
    facts are faked on the structure; disjointness is the pair's own, and over Z2 the
    pair with S<> is disjoint and the one with S<0> is not."""
    facts = {k: k != unmet for k in ("torsion_free", "zd_union_in_ann", "zd_union_in_ann_literal")}
    monkeypatch.setattr(registry, "triv_module_facts", lambda T: facts)
    monkeypatch.setattr(registry, "triv_equivalence_check", lambda T, A, S: pattern)
    ctx = build_context(parse_corpus_line("triv(Z2, free(1))"), Limits.defaults())
    findings = list(run_p3_3(ctx, dropped))
    assert [(f.annotations["mcs"], f.hypotheses["disjoint"]) for f in findings] == [("S<>", True), ("S<0>", False)]
    drops = {"torsion_free": "torsion_free", "zd_union_in_ann": "zd_union", "disjoint": "disjoint"}
    for f in findings:
        assert f.hypotheses == {"disjoint": f.hypotheses["disjoint"], **facts}
        unmet_here = {k for k, v in f.hypotheses.items() if not v}
        met = all(drops[k] in dropped for k in unmet_here if k in drops)
        expected = VACUOUS if not met else (VERIFIED if len(set(pattern)) == 1 else VIOLATION)
        assert f.outcome == expected
        assert f.detail == {"pattern": "".join("1" if b else "0" for b in pattern)}


def test_section_3_facts_are_decided_once_per_structure(monkeypatch):
    """P3.2 and P3.3 sweep many (A, S) pairs per structure of the finite corpus but decide
    its hypotheses once: one `is_isomorphism` call per amalgamation and one
    `module_is_torsion_free` call per trivial extension."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("is_isomorphism", "module_is_torsion_free"):
        monkeypatch.setattr(extensions, name, counted(name, getattr(extensions, name)))
    spec = default_corpus()
    structures, findings = Counter(), 0
    for entry in spec.entries:
        if entry.kind == FINITE:
            ctx = build_context(entry, spec.limits)
            if isinstance(ctx.structure, (AmalgRing, TrivExtRing)):
                structures[type(ctx.structure)] += 1
                findings += len(list(run_p3_2(ctx, ()))) + len(list(run_p3_3(ctx, ())))
    assert structures[AmalgRing] and structures[TrivExtRing]
    assert findings > 2 * sum(structures.values())
    assert calls == {"is_isomorphism": structures[AmalgRing], "module_is_torsion_free": structures[TrivExtRing]}


def _dm_records(dm_pairs):
    limits = replace(Limits.defaults(), dm_pairs=dm_pairs)
    return list(verify(("DM",), CorpusSpec((parse_corpus_line("polyring(Z6)"),), limits)))


def test_dm_with_no_pairs_is_vacuous():
    [record] = _dm_records(0)
    assert record["outcome"] == "VACUOUS"
    assert record["detail"] == {"checked": 0}


def test_dm_failure_is_a_dict_of_both_polynomials(monkeypatch):
    """A failed identity is recorded like every other failure: a dict, here with no verdict."""
    monkeypatch.setattr(poly, "_dm_identity", lambda *key: False)
    [record] = _dm_records(5)
    assert record["outcome"] == "VIOLATION"
    failure = record["detail"]["failure"]
    assert isinstance(failure, dict) and set(failure) == {"w", "z"}
    assert all(isinstance(failure[k], str) and failure[k] for k in "wz")
    assert record["witness"] is None and record["counterexample"] is None


def test_dm_refuses_a_negative_pair_count():
    with pytest.raises(ConfigError, match="dm_pairs=-3"):
        _dm_records(-3)


COUNT_LIMITS = ("degree", "fac_cap", "dm_pairs", "oracle_bound", "annotation_cap", "mcs_cap")


@pytest.mark.parametrize("name", COUNT_LIMITS)
def test_limits_refuse_a_negative_count(name):
    """Every count accepts 0 except mcs_cap, whose least value is 2."""
    least = 2 if name == "mcs_cap" else 0
    for value in range(-1, least):
        with pytest.raises(ConfigError, match=f"^{name}={value}: expected {least} or more$"):
            replace(Limits.defaults(), **{name: value})
    assert getattr(replace(Limits.defaults(), **{name: least}), name) == least


def test_mcs_cap_2_keeps_exactly_the_units_and_the_ring():
    ctx = build_context(parse_corpus_line("Z30"), replace(Limits.defaults(), mcs_cap=2))
    R = ctx.ring
    assert [S.members for S in ctx.mcs_list()] == [R.units, frozenset(range(30))]


@pytest.mark.parametrize("annotation_cap, kept", [(48, 6), (8, 2), (0, 2)])
def test_subsampling_keeps_the_units_and_the_ring(annotation_cap, kept):
    """Z30 has 8 ideals, so a cap of 48 keeps 6 m.c.s.; below 2 per ideal the two
    special sets are still kept, as on the mcs_cap path."""
    ctx = build_context(parse_corpus_line("Z30"), replace(Limits.defaults(), annotation_cap=annotation_cap))
    R = ctx.ring
    members = [S.members for S in ctx.mcs_list()]
    assert ctx.subsampled and len(members) == kept
    assert R.units in members and frozenset(range(30)) in members


SELECTION_CORPORA = [
    (("Z30",), {"annotation_cap": 48}),
    (("Z12", "polyring(Z3)", "Z x Z ; ideal=(0,2) ; mcs=(units,all)", "amalgZ(4, 2) ; mcs=(units)"), {}),
]


@pytest.mark.parametrize("lines, limits", SELECTION_CORPORA)
def test_a_record_does_not_depend_on_which_theorems_ran(lines, limits):
    """Each case run alone gives exactly its records of the full run; on a
    subsampled entry every record carries the seed."""
    corpus = CorpusSpec(tuple(parse_corpus_line(line) for line in lines), replace(Limits.defaults(), **limits))
    full = list(verify(None, corpus))
    for tid in CASES:
        assert list(verify((tid,), corpus)) == [r for r in full if r["theorem"] == tid], tid
    seeded = {r["annotations"].get("subsample_seed") for r in full}
    assert seeded == ({corpus.limits.subsample_seed} if limits else {None})


def test_limits_take_any_seed():
    assert set(Limits.__annotations__) == {*COUNT_LIMITS, "dm_seed", "subsample_seed"}
    limits = replace(Limits.defaults(), dm_seed=-5, subsample_seed=-1)
    assert (limits.dm_seed, limits.subsample_seed) == (-5, -1)


def test_limits_default_to_the_config_constants():
    from ringlab import config

    assert Limits() == Limits.defaults()
    assert asdict(Limits()) == {
        "degree": config.DEFAULT_DEGREE,
        "fac_cap": config.FAC_SUBSET_CAP,
        "dm_pairs": config.DM_PAIRS,
        "dm_seed": config.DM_SEED,
        "oracle_bound": config.ARITH_ORACLE_BOUND,
        "annotation_cap": config.ANNOTATION_CAP,
        "mcs_cap": config.MCS_CANDIDATE_CAP,
        "subsample_seed": config.SUBSAMPLE_SEED,
    }


@pytest.mark.parametrize("fac_cap", [1, 2])
def test_t4_2_and_the_content_decision_gate_on_the_same_fac_cap(fac_cap):
    # Z6 fails f.a.c. on pairs, so only the cap-1 sweep (no subsets at all)
    # passes; a decision gated at the default cap would then disagree with
    # the T4.2 hypothesis and report spurious violations.
    limits = replace(Limits.defaults(), fac_cap=fac_cap)
    records = list(verify(("T4.2",), CorpusSpec((parse_corpus_line("polyring(Z6)"),), limits)))
    gate = has_fac(parse_ring("Z6"), fac_cap).holds
    assert gate == (fac_cap == 1)
    assert records
    for rec in records:
        assert rec["hypotheses"] == {"fac": gate, "fac_cap": fac_cap}
        assert (rec["detail"]["gate"] == "fac") == gate
        assert rec["outcome"] == ("VERIFIED" if gate else "VACUOUS")


def test_determinism_across_runs(mini):
    first = list(verify(None, mini))
    second = list(verify(None, mini))
    assert first == second
    as_json = lambda recs: "\n".join(json.dumps(r, sort_keys=True) for r in recs)
    assert as_json(first) == as_json(second)


def test_parallel_matches_serial(mini):
    serial = list(verify(("DEGEN", "P-zero", "T2.12"), mini))
    parallel = list(verify(("DEGEN", "P-zero", "T2.12"), mini, jobs=2))
    assert serial == parallel


def test_hunt_without_drops_matches_verify(mini):
    plain = list(verify(("T2.11",), mini))
    hunted = list(counterexample_search("T2.11", mini, ()))
    for rec in hunted:
        rec.pop("expected", None)
    assert plain == hunted


def test_hunt_drop_prime_finds_expected_violation(mini):
    records = list(counterexample_search("T2.12", mini, ("prime",)))
    violations = [r for r in records if r["outcome"] == "VIOLATION"]
    assert violations, "dropping primality must expose the Z x Z example"
    assert all(r.get("expected") for r in violations)
    assert any(r["annotations"]["ideal"] == "(0,2)" for r in violations)


def test_violation_records_replay(mini):
    """A finding contains enough to re-run the single check it came from."""
    from ringlab.arith import arith_is_S_r_ideal, arith_subset_zd
    from ringlab.dsl import parse_arith_ideal, parse_arith_mcs, parse_arith_ring

    records = list(counterexample_search("T2.12", mini, ("prime",)))
    rec = next(r for r in records if r["outcome"] == "VIOLATION")
    expr = rec["entry"].split(";")[0].strip()
    ring = parse_arith_ring(expr)
    A = parse_arith_ideal(ring, rec["annotations"]["ideal"])
    S = parse_arith_mcs(ring, rec["annotations"]["mcs"])
    v = arith_is_S_r_ideal(A, S)
    assert v.holds == rec["detail"]["s_r"]
    assert arith_subset_zd(A) == rec["detail"]["inside_zd"]
    assert v.holds != arith_subset_zd(A)  # the violated equivalence


def test_exit_code_contract():
    from ringlab.cli import exit_code_for

    clean = [{"outcome": "VERIFIED"}, {"outcome": "VACUOUS"}]
    assert exit_code_for(clean) == 0
    assert exit_code_for(clean + [{"outcome": "VIOLATION"}]) == 1
    assert exit_code_for(clean + [{"outcome": "VIOLATION", "expected": True}]) == 0


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads are counted in /proc/self/task")
@pytest.mark.parametrize("preset", [None, "4"])
def test_import_starts_no_blas_worker_thread(preset):
    """ringlab loads no BLAS, so a fresh interpreter that imports it runs one thread; it
    neither sets OPENBLAS_NUM_THREADS nor changes a value already set."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(ringlab.__file__).parents[1])
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, ringlab; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS', '-'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    threads, value = out.split()
    assert value == (preset or "-")
    if preset is None:
        assert threads == "1"


def test_import_and_verify_load_no_numpy():
    """Importing ringlab and its CLI, then verifying one finite, one arithmetic, one amalgZ
    and one polynomial entry serially, leaves numpy out of sys.modules."""
    code = """if True:
        import sys, ringlab, ringlab.cli
        from ringlab.corpus import CorpusSpec, Limits, parse_corpus_line
        from ringlab.registry import verify
        lines = ("Z12", "Z x Z ; ideal=(0,2) ; mcs=(units,all)", "amalgZ(6, 3) ; mcs=(units)", "polyring(Z6)")
        records = verify(None, CorpusSpec(tuple(map(parse_corpus_line, lines)), Limits.defaults()))
        print(len(records), "numpy" in sys.modules)
    """
    env = {**os.environ, "PYTHONPATH": str(Path(ringlab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    count, loaded = out.split()
    assert int(count) > 0 and loaded == "False"


def test_hunt_drop_reduced_terminates(mini):
    records = list(counterexample_search("P2.10", mini, ("reduced",)))
    assert records
    for rec in records:
        if rec["outcome"] == "VIOLATION":
            assert rec.get("expected")


def test_build_context_kinds(mini):
    kinds = [build_context(e, mini.limits).kind for e in mini.entries]
    assert kinds.count("arith") == 3
    assert kinds.count("amalgz") == 1
    assert kinds.count("poly") == 1


def test_p26_verified_on_failing_entry(mini_records):
    hits = [
        r
        for r in mini_records
        if r["theorem"] == "P2.6" and r["outcome"] == "VERIFIED"
    ]
    assert hits
    detail = hits[0]["detail"]
    assert detail["B_meets_regulars"] and detail["BK_in_A"]


def test_degen_nonvacuous(mini_records):
    degen = [r for r in mini_records if r["theorem"] == "DEGEN"]
    assert degen and all(r["outcome"] == "VERIFIED" for r in degen)


def _degen_loop(ctx):
    """DEGEN's checks one proper ideal at a time, in order: the count up to and
    including the first ideal that is not r or has zero annihilator, and that
    ideal's label and r verdict; or the count of them all and None, None."""
    R = ctx.ring
    for checked, A in enumerate(ctx.proper_ideals(), 1):
        v = cl.is_r_ideal(A)
        if not v.holds or annihilator(R, A.generators).is_zero():
            return checked, A.label(), v.to_json(R)
    return len(ctx.proper_ideals()), None, None


def _degen_failure(finding):
    return finding.detail["proper_ideals_checked"], finding.detail.get("failing_ideal"), finding.detail.get("verdict")


@pytest.mark.parametrize("element, row", [(2, 0b0001), (3, 0b1001)])
def test_degen_catches_a_faked_annihilator_row(element, row):
    """DEGEN reads both lemmas from the tables: a nonunit 2 with Ann = 0 (so the
    proper ideal (2) has zero annihilator), or a unit 3 with Ann != 0, is a VIOLATION.
    Only the first fails an ideal check; its count and failure are the ordered loop's."""
    ctx = build_context(parse_corpus_line("Z4"), Limits.defaults())
    lat = lattice(ctx.ring)  # the ring is fresh, so the faked row reaches no other test
    lat.ann = tuple(row if a == element else m for a, m in enumerate(lat.ann))
    [finding] = run_degen(ctx, frozenset())
    assert finding.outcome == "VIOLATION"
    assert _degen_failure(finding) == _degen_loop(ctx)
    assert finding.detail.get("failing_ideal") == {2: "(2)", 3: None}[element]


def test_degen_catches_a_proper_ideal_with_zero_annihilator():
    """Fake Ann(g) for the first generator g of a two-generator proper ideal so
    that it meets Ann(h) only in 0; no element gets Ann = 0, so only the second
    lemma's check can see it."""
    ctx = build_context(parse_corpus_line("Z2 x Z2 x Z2"), Limits.defaults())
    lat = lattice(ctx.ring)  # the ring is fresh, so the faked row reaches no other test
    g, h = next(A.generators for A in ctx.proper_ideals() if len(A.generators) == 2)
    lat.ann = tuple(1 | lat.full & ~lat.ann[h] if a == g else m for a, m in enumerate(lat.ann))
    assert 1 not in (lat.ann[g], lat.ann[h])
    [finding] = run_degen(ctx, frozenset())
    assert finding.outcome == "VIOLATION"
    assert _degen_failure(finding) == _degen_loop(ctx)
    assert finding.detail["failing_ideal"] is not None


# -- the bulk runners against their per-entry loops ------------------------------------------


def test_t2_7_mask_sides_match_the_set_forms():
    """Sets of nonzero elements stand in for the regulars and the preimage, so
    that sides come out False too: on the corpus every finite side is True,
    and s = 0 would make every side True.  scaled_intersections holds for
    every set tried on the SEARCH_RINGS rings; on Z4 x Z4 it fails for
    A = 2Z4 x 2Z4 and regs {(1,2), (2,1)}, where rA is 2Z4 x 0 for one r
    and 0 x 2Z4 for the other."""
    seen = set()
    for expr in SEARCH_RINGS + ["Z4 x Z4"]:
        R = parse_ring(expr)
        loc = localize(R, mcs_from_members(R, R.regulars))
        rng = random.Random(expr)
        nonzero = range(1, R.size)
        for A in all_ideals(R):
            pushed = ideal_pushforward(loc, A).members
            draws = [(sorted(R.regulars), {x for x in R.elements() if loc.map.image[x] in pushed})]
            for regs in [*combinations(nonzero, 2), *(rng.sample(nonzero, min(4, len(nonzero))) for _ in range(4))]:
                draws.append((sorted(regs), set(rng.sample(nonzero, rng.randint(0, len(nonzero))))))
            for regs, pre in draws:
                sides = _t2_7_sides(A, regs, mask_of(pre))
                assert sides == ref_t2_7_sides(A, regs, pre), (expr, A.label(), regs, pre)
                seen.update(sides.items())
    assert seen == {(side, value) for side in sides for value in (True, False)}


def _failing_on(ctx, mask, mcs_mask):
    """Let ctx.s_r report Fails wherever it would hold for the ideal with this
    mask, at the m.c.s. with ``mcs_mask`` or, when that is None, at every one.
    The context's verdict rows are cleared, so they are asked again through it."""

    def s_r(A, S, **flags):
        v = FiniteContext.s_r(ctx, A, S, **flags)
        if v.holds and A.mask == mask and mcs_mask in (None, S.mask):
            return Verdict(FAILS, counterexample=(0, 0), last_candidate=max(S.members))
        return v

    ctx.s_r = s_r
    ctx._rows.clear()


@pytest.mark.parametrize(
    "runner,reference,hypothesis",
    [
        (run_p_colon, ref_p_colon, "disjoint"),
        (run_t2_5, ref_t2_5, "s_regular"),
        (run_t2_3, ref_t2_3, "disjoint"),
        (run_p_annsum, ref_p_annsum, "disjoint"),
        (run_t2_11, ref_t2_11, "disjoint"),
        (run_p2_10, ref_p2_10, "reduced"),
        (run_p_minidem, ref_p_minidem, "reduced"),
        (run_p_sidem, ref_p_sidem, None),
        (run_p_suz, ref_p_suz, None),
        (run_t2_12, ref_t2_12, "disjoint"),
    ],
)
def test_bulk_runner_failures_match_the_per_entry_loop(runner, reference, hypothesis):
    """The golden run never fails a derived verdict; one chosen mask failing
    must give the counts and failure dict of the loop that asks every entry.
    A record is named by its first annotation: the ideal, or the m.c.s. for
    P-annsum, P-minidem and P-sidem.  P-sidem has no hypothesis to drop."""
    counts = []
    for line in ["Z12", "Z8", "Z6", "Z4 x Z2", "Z2 x Z2 x Z2", "triv(Z2, free(1))"]:
        ctx = build_context(parse_corpus_line(line), Limits.defaults())
        for dropped in [frozenset()] + [frozenset({hypothesis})] * (hypothesis is not None):
            for mask in [None] + [A.mask for A in all_ideals(ctx.ring)]:
                for mcs_mask in (None, mcs_from_members(ctx.ring, ctx.ring.units).mask):
                    _failing_on(ctx, mask, mcs_mask)
                    got = [(next(iter(f.annotations.values())), f.outcome, f.detail) for f in runner(ctx, dropped)]
                    assert got == reference(ctx, dropped), (line, dropped, mask, mcs_mask)
                    counts += [next(iter(detail.values())) for _, outcome, detail in got if outcome == "VIOLATION"]
    assert min(counts) == 1 and max(counts) > 1


def test_t2_3_converse_failure_matches_the_per_entry_loop():
    """The bulk test fails verdicts at the units or everywhere, which never fails
    T2.3's converse: that needs S1 inside S2 with every s of S2 a unit when S1 is
    S<>.  Failing (A, S<>) does."""
    directions = set()
    for line in ["Z12", "Z8", "Z4 x Z2", "Z2 x Z2 x Z2"]:
        ctx = build_context(parse_corpus_line(line), Limits.defaults())
        for dropped in [frozenset(), frozenset({"disjoint"})]:
            for A in ctx.proper_ideals():
                _failing_on(ctx, A.mask, 1 << ctx.ring.one)
                got = [(f.annotations["ideal"], f.outcome, f.detail) for f in run_t2_3(ctx, dropped)]
                assert got == ref_t2_3(ctx, dropped), (line, dropped, A.label())
                directions.update(d["failure"]["direction"] for _, outcome, d in got if outcome == "VIOLATION")
    assert directions == {"converse"}


def test_c_zd_reports_an_ideal_with_a_faked_regular_member():
    """In a finite ring every proper ideal lies in the zero divisors, so only a
    faked regular element fails C-zd: 2 in Z12, on the fresh ring's lattice.  The
    ideals holding 2 fail at their first S-r m.c.s., the others pass in bulk."""
    ctx = build_context(parse_corpus_line("Z12"), Limits.defaults())
    lattice(ctx.ring).regulars |= 1 << 2
    for f in run_c_zd(ctx, frozenset()):
        A = next(B for B in ctx.proper_ideals() if B.label() == f.annotations["ideal"])
        held = [S for S in ctx.mcs_list() if ctx.s_r(A, S).holds]
        if 2 in A:
            assert (f.outcome, f.detail) == ("VIOLATION", {"checked": 1, "failure": {"mcs": held[0].label()}})
        else:
            assert (f.outcome, f.detail) == ("VERIFIED", {"checked": len(held)})


@pytest.mark.parametrize(
    "runner,reference,hypothesis",
    [(run_c_zd, ref_c_zd, None), (run_p2_8, ref_p2_8, "s_regular"), (run_p_suzmax, ref_p_suzmax, "max_disjoint")],
)
def test_row_gated_runners_match_the_per_entry_loop(runner, reference, hypothesis):
    """The runners whose rows only gate their checks, under the seeded failures of
    the bulk test.  A failed S-r verdict withdraws a check of C-zd or P2.8 and
    cannot fail one, and P-suzmax's detail holds booleans, not a count, so the
    bulk test's count bounds do not apply; P-suzmax does reach VIOLATION here."""
    outcomes = set()
    for line in ["Z12", "Z8", "Z6", "Z4 x Z2", "Z2 x Z2 x Z2", "triv(Z2, free(1))"]:
        ctx = build_context(parse_corpus_line(line), Limits.defaults())
        for dropped in [frozenset()] + [frozenset({hypothesis})] * (hypothesis is not None):
            for mask in [None] + [A.mask for A in all_ideals(ctx.ring)]:
                for mcs_mask in (None, mcs_from_members(ctx.ring, ctx.ring.units).mask):
                    _failing_on(ctx, mask, mcs_mask)
                    got = [(next(iter(f.annotations.values())), f.outcome, f.detail) for f in runner(ctx, dropped)]
                    assert got == reference(ctx, dropped), (line, dropped, mask, mcs_mask)
                    outcomes.update(outcome for _, outcome, _ in got)
    assert "VERIFIED" in outcomes and (runner is not run_p_suzmax or "VIOLATION" in outcomes)


def _ordered_loop(rows, group):
    """The checks of ``(asked, held)`` rows one at a time, ``group`` rows at a time (all
    when None), bit by bit within a group and row by row within a bit: the count up to
    and including the first asked bit that is not held and its (row, bit), or the count
    and None."""
    checked, size = 0, group or len(rows) or 1
    for start in range(0, len(rows), size):
        for bit in range(24):
            for r in range(start, min(start + size, len(rows))):
                asked, held = rows[r]
                if asked >> bit & 1:
                    checked += 1
                    if not held >> bit & 1:
                        return checked, (r, bit)
    return checked, None


ROWS = st.integers(0, 24).flatmap(
    lambda width: st.lists(st.tuples(st.integers(0, 2**width - 1), st.integers(0, 2**width - 1)), max_size=8)
)


@given(rows=ROWS, group=st.sampled_from([1, 2, None]))
@example(rows=[], group=1)
@example(rows=[], group=None)
@example(rows=[(0, 0), (0, 5)], group=None)
@example(rows=[(0b1011, 0), (0b110, 0)], group=1)
@example(rows=[(0b1011, 0), (0b110, 0)], group=None)
@example(rows=[(0b11, 0b11), (0b10, 0b10), (0b10, 0)], group=1)
@example(rows=[(0b11, 0b11), (0b11, 0b01)], group=None)
@example(rows=[(0b11, 0b11), (0b01, 0b01), (0b11, 0b11), (0b10, 0)], group=2)
def test_row_checks_match_the_ordered_loop(rows, group):
    """`_row_checks` against the loop that asks each cell in order, in row order
    (group 1), column order (None) and T2.3's pairs of rows (2); and each column
    of the grid, read as the per-m.c.s. runners read it through `transpose`."""
    checked, at = _ordered_loop(rows, group)
    got = _row_checks(rows, lambda r, bit: {"at": (r, bit)}, group)
    assert got == (checked, None if at is None else {"at": at})
    asked = transpose([a for a, _ in rows], 24)
    failed = transpose([a & ~h for a, h in rows], 24)
    for j in range(24):
        checked, at = _ordered_loop([(a & 1 << j, h) for a, h in rows], None)
        got = _row_checks([(asked[j], ~failed[j])], lambda _, r: {"at": (r, j)})
        assert got == (checked, None if at is None else {"at": at})


VERDICT_RUNNERS = [
    run_t2_3, run_t2_5, run_p2_10, run_t2_11, run_t2_12, run_p_colon, run_p_annsum, run_p_minidem, run_p_sidem,
]


@pytest.mark.parametrize("line", ["Z12", "Z6", "Z2 x Z2 x Z2"])
def test_a_failed_check_asks_s_r_only_for_its_verdict(line):
    """Under the seeded failures at the units, a second run on the same context,
    whose rows are all kept, asks ctx.s_r once per VIOLATION of a runner whose
    failure dict carries the verdict, and never for C-zd and P-suz, whose dicts
    carry none.  Z6 and Z2 x Z2 x Z2 are reduced, so P2.10 and P-minidem check."""
    ctx = build_context(parse_corpus_line(line), Limits.defaults())
    units = mcs_from_members(ctx.ring, ctx.ring.units).mask
    violations = 0
    for mask in [A.mask for A in all_ideals(ctx.ring)]:
        _failing_on(ctx, mask, units)
        seeded = ctx.s_r
        for runner in [*VERDICT_RUNNERS, run_c_zd, run_p_suz]:
            list(runner(ctx, frozenset()))
            calls = []
            ctx.s_r = lambda *args, **flags: calls.append(args) or seeded(*args, **flags)
            found = sum(f.outcome == "VIOLATION" for f in runner(ctx, frozenset()))
            ctx.s_r = seeded
            assert len(calls) == (found if runner in VERDICT_RUNNERS else 0), (line, mask, runner.__name__)
            violations += found
    assert violations


FINITE_LINES = [e.text for e in default_corpus().entries if e.kind == FINITE]


def test_verdict_rows_match_the_classifier():
    """Every ideal, the whole ring included, catalogue position and disjointness flag
    of the finite default corpus entries of at most 32 elements: bit j of the gates
    row says A is proper and, when disjointness is enforced, misses the j-th m.c.s.;
    bit j of the held row is the classifier's verdict there, which needs the gates."""
    entries = 0
    for line in FINITE_LINES:
        ctx = build_context(parse_corpus_line(line), Limits.defaults())
        if ctx.ring.size > 32:
            continue
        entries += 1
        mcs = ctx.mcs_list()
        for A in all_ideals(ctx.ring):
            for disjoint in (True, False):
                gates, held = ctx.rows(A, disjoint)
                assert [held >> j & 1 for j in range(len(mcs))] == [
                    cl.is_S_r_ideal(A, S, enforce_disjoint=disjoint).holds for S in mcs
                ], (line, A.label(), disjoint)
                expected = [A.is_proper() and not (disjoint and A.mask & S.mask) for S in mcs]
                assert [gates >> j & 1 for j in range(len(mcs))] == expected, (line, A.label(), disjoint)
                assert held & ~gates == 0, (line, A.label(), disjoint)
    assert entries > 50


@pytest.mark.parametrize("line", ["Z12", "Z4 x Z4"])
def test_an_entry_asks_each_s_r_question_about_once(line, monkeypatch):
    """A full run of the entry asks ctx.s_r at most twice per ideal and catalogue
    m.c.s.: once for the verdict row, and once more for a record that carries the
    verdict (P-zero's, P2.8's witness) or an m.c.s. outside the catalogue (T2.7's
    S<reg>, P-jac's complements).  With every runner asking for itself it was
    1,076 times on Z12 and 2,365 on Z4 x Z4."""
    calls = []
    s_r = FiniteContext.s_r
    monkeypatch.setattr(FiniteContext, "s_r", lambda ctx, *args, **flags: calls.append(args) or s_r(ctx, *args, **flags))
    entry = parse_corpus_line(line)
    assert _run_entry(entry, DEFAULT_IDS, frozenset(), Limits.defaults())
    ctx = build_context(entry, Limits.defaults())
    assert 0 < len(calls) <= 2 * len(ctx.ideals()) * len(ctx.mcs_list())


# -- CLI ---------------------------------------------------------------------------


def test_cli_ideals(capsys):
    from ringlab.cli import main

    assert main(["ideals", "Z12"]) == 0
    assert capsys.readouterr().out == (
        "Z12: 6 ideals\n"
        "  (0)          {0}\n"
        "  (6)          {0,6}\n"
        "  (4)          {0,4,8}\n"
        "  (3)          {0,3,6,9}  [prime maximal]\n"
        "  (2)          {0,2,4,6,8,10}  [prime maximal]\n"
        "  (1)          {0,1,2,3,4,5,6,7,8,9,10,11}  [improper]\n"
    )


def test_cli_ideals_of_a_product_with_three_maximal_ideals(capsys):
    from ringlab.cli import main

    assert main(["ideals", "Z2 x Z2 x Z2"]) == 0
    assert capsys.readouterr().out == (
        "(Z2 x Z2) x Z2: 8 ideals\n"
        "  (0)          {((0,0),0)}\n"
        "  (((0,0),1))  {((0,0),0),((0,0),1)}\n"
        "  (((0,1),0))  {((0,0),0),((0,1),0)}\n"
        "  (((1,0),0))  {((0,0),0),((1,0),0)}\n"
        "  (((0,0),1),((0,1),0)) {((0,0),0),((0,0),1),((0,1),0),((0,1),1)}  [prime maximal]\n"
        "  (((0,0),1),((1,0),0)) {((0,0),0),((0,0),1),((1,0),0),((1,0),1)}  [prime maximal]\n"
        "  (((0,1),0),((1,0),0)) {((0,0),0),((0,1),0),((1,0),0),((1,1),0)}  [prime maximal]\n"
        "  (((0,0),1),((0,1),0),((1,0),0)) {((0,0),0),((0,0),1),((0,1),0),((0,1),1),((1,0),0),"
        "((1,0),1),((1,1),0),((1,1),1)}  [improper]\n"
    )


def test_cli_classify(capsys):
    from ringlab.cli import main

    assert main(["classify", "Z12", "--ideal", "4", "--all-predicates"]) == 0
    out = capsys.readouterr().out
    assert "r-ideal" in out and "Holds" in out


def test_cli_poly_matches_catalogue_example(capsys):
    from ringlab.cli import main

    assert main(["poly", "Z3", "kernel", "1", "0", "--mcs", "1,2", "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "NO at degree 1, counterexample (x+2, 1)" in out


def test_cli_localize(capsys):
    from ringlab.cli import main

    assert main(["localize", "Z6", "--mcs", "3"]) == 0
    out = capsys.readouterr().out
    assert "size 2" in out


def test_cli_localize_at_a_unit_gives_the_ring_itself(capsys):
    """5 is a unit of Z6, so S<5> lies in the units, e = 1 and the localization is Z6."""
    from ringlab.cli import main

    assert main(["localize", "Z6", "--mcs", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "localized Z6 (size 6)" in lines and "idempotent 1" in lines
    assert parse_ring("loc(Z6, S<5>)").recipe == "Z6"


CLASSIFY_Z12_4_MCS_3 = """\
ring        Z12
size        12
ideal       (4) = {0,4,8}
r-ideal     Holds
pr-ideal    Holds
prime       no (pair (2,2))
maximal     no
z0-ideal    NotApplicable  reason=NOT_REDUCED
mcs         S<3> = {1,3,9}
S-r-ideal   Holds  witness=1
S-prime     Fails  counterexample=(2,2)
S-z0-ideal  NotApplicable  reason=NOT_REDUCED
uz-ring     Holds
property A  Holds
a.c.        Holds
f.a.c.      Fails  counterexample=(2,3)
S-uz-ring   Holds
"""


@pytest.mark.parametrize("mcs", ["3", "S<3>"])
def test_cli_classify_all_predicates_output(capsys, mcs):
    from ringlab.cli import main

    assert main(["classify", "Z12", "--ideal", "4", "--mcs", mcs, "--all-predicates"]) == 0
    assert capsys.readouterr().out == CLASSIFY_Z12_4_MCS_3


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "Z3", "kernel", ""],
        ["poly", "Z3", "kernel", "1,2"],  # one point, not a point and a generator
        ["poly", "Z3", "content", "--s-unit-check", "1,,2"],
    ],
)
def test_cli_poly_bad_element_exits_2(capsys, argv):
    from ringlab.cli import main

    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "neither a label nor an index" in captured.err


def test_cli_poly_kernel_without_a_point_exits_2(capsys):
    from ringlab.cli import main

    assert main(["poly", "Z3", "kernel"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: kernel needs an evaluation point\n"


@pytest.mark.parametrize("kind_args", [["content", "2"], ["kernel", "1", "2"]])
def test_cli_poly_negative_degree_exits_2(capsys, kind_args):
    from ringlab.cli import main

    assert main(["poly", "Z4", *kind_args, "--degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "degree -1" in captured.err


def test_cli_poly_s_unit_check_reads_product_labels(capsys):
    from ringlab.cli import main

    assert main(["poly", "Z2 x Z2", "content", "--s-unit-check", "(1,1),(1,0)"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "s-unit((1,0)x+(1,1)): no_up_to"


def test_cli_parse_error_exit_code(capsys):
    from ringlab.cli import main

    assert main(["ideals", "Q8"]) == 2


@pytest.mark.parametrize(
    "expr,message",
    [
        ("amalg(Z4, Z4/2, proj, (0))", "quotient needs parenthesized generators"),
        ("triv(Z2, free(x))", "free needs one integer"),
        ("triv(Z2, free(1,2))", "free needs one integer"),
        ("Z99999", "99999 elements exceeds the cap"),
    ],
)
def test_cli_ideals_bad_expression_exits_2(capsys, expr, message):
    """Each is refused with a message, not a traceback; `Z4/2` inside amalg is
    read by the same quotient parse as at the top level."""
    from ringlab.cli import main

    assert main(["ideals", expr]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_cli_verify_writes_json(tmp_path, capsys):
    from ringlab.cli import main

    corpus = tmp_path / "tiny.corpus"
    corpus.write_text("Z6\nZ ; ideal=(3) ; mcs=(units)\n", encoding="utf-8")
    out_path = tmp_path / "report.jsonl"
    code = main(["verify", "--corpus", str(corpus), "--json", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert "millis" not in rec


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_verify_bad_corpus_ring_exits_2(tmp_path, capsys, jobs):
    from ringlab.cli import main

    corpus = tmp_path / "bad.corpus"
    corpus.write_text("Z6\nQ8\n", encoding="utf-8")
    assert main(["verify", "--corpus", str(corpus), "--jobs", jobs]) == 2
    assert "Q8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line,message",
    [
        ("amalgZ(4, 0)", "need n >= 2 and a divisor d >= 2"),
        ("amalgZ(--4, 2)", "amalgZ needs two integers"),
        ("amalgZ(4, 2) ; ideal=(2) ; mcs=(units)", "takes no ideal= annotation"),
    ],
)
def test_cli_verify_bad_amalgz_line_exits_2(tmp_path, capsys, line, message):
    from ringlab.cli import main

    corpus = tmp_path / "bad.corpus"
    corpus.write_text(line + "\n", encoding="utf-8")
    assert main(["verify", "--corpus", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "line,message",
    [
        ("Z6 ; ideal=(2) ; ideal=(3)", "repeated annotation 'ideal=(3)'"),
        ("Z6 ; ideal=", "empty annotation 'ideal='"),
        ("Z6 ; mcs=", "empty annotation 'mcs='"),
    ],
)
def test_cli_verify_refuses_an_empty_or_repeated_annotation(tmp_path, capsys, line, message):
    from ringlab.cli import main

    corpus = tmp_path / "bad.corpus"
    corpus.write_text(line + "\n", encoding="utf-8")
    assert main(["verify", "--corpus", str(corpus)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "line,message",
    [
        ("Z ; ideal=(1000000) ; mcs=(units)", f"coordinate of 4000001 values exceeds the cap {ORACLE_AXIS_CAP}"),
        ("Z x Z1000000 ; ideal=(0,1) ; mcs=(units,units)", f"coordinate of 1000000 values exceeds the cap {ORACLE_AXIS_CAP}"),
        ("amalgZ(1000000, 2) ; mcs=(units)", f"coordinate of 1000000 values exceeds the cap {ORACLE_AXIS_CAP}"),
        ("Z ; ideal=(512) ; mcs=(units)", f"coordinate of 2049 values exceeds the cap {ORACLE_AXIS_CAP}"),
        ("amalgZ(4096, 2048) ; mcs=(units)", f"coordinate of 4096 values exceeds the cap {ORACLE_AXIS_CAP}"),
    ],
)
def test_cli_verify_refuses_an_oversized_oracle_window(tmp_path, monkeypatch, capsys, line, message):
    """The window oracle and the amalgZ window are sized before any array is built, so the
    per-coordinate membership test is never called; the run exits 2 with one error line."""
    from ringlab import arith
    from ringlab.cli import main

    def unreachable(*args):
        raise AssertionError("the window was built")

    monkeypatch.setattr(arith, "_in_factor_ideal", unreachable)
    corpus = tmp_path / "big.corpus"
    corpus.write_text(line + "\n", encoding="utf-8")
    assert main(["verify", "--corpus", str(corpus), "--theorems", "ARITH-oracle,P3.2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: an oracle window {message}\n"


@pytest.mark.parametrize(
    "line",
    [
        "Z x Z x Z ; ideal=(2,2,2) ; mcs=(units,units,units)",  # 21^3 = 9,261 rows
        "Z x Z100 ; ideal=(2,1) ; mcs=(units,units)",  # 2,100 rows, 100 values on Z100
        "Z ; ideal=(511) ; mcs=(units)",  # 2,045 rows and values, the most one factor may have
        "Z x Z x Z ; ideal=(10,2,2) ; mcs=(units,all,all)",  # 41^3 = 68,921 rows
    ],
)
def test_cli_verify_runs_a_window_under_the_axis_cap(tmp_path, capsys, line):
    """Windows under the cap on a coordinate's values, with several factors or one long
    coordinate, verify, whatever their number of rows: no cap applies to the rows."""
    from ringlab.cli import main

    corpus = tmp_path / "window.corpus"
    corpus.write_text(line + "\n", encoding="utf-8")
    assert main(["verify", "--corpus", str(corpus), "--theorems", "ARITH-oracle"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "VERIFIED" in captured.out


def test_cli_hunt_drop_disjoint_decides_the_arith_lane_without_the_gate(tmp_path, capsys):
    """Dropping `disjoint` evaluates S-r without the gate on the arith lane, as on the finite
    one.  With S = Z, s = 0 lies in S and in A and sends every z into A, so A is S-r.  (0)
    lies in zd(Z), so T2.12 holds there; 2 is regular, so the prime ideal 2Z is the one
    violation.  Without the gate P-zero's (0) is decided, and the window confirms it."""
    from ringlab.cli import main

    corpus, report = tmp_path / "gate.corpus", tmp_path / "hunt.jsonl"
    corpus.write_text("Z ; ideal=(0) ; mcs=(all)\nZ ; ideal=(2) ; mcs=(all)\n", encoding="utf-8")
    for theorem, outcomes in (("T2.12", ["VERIFIED", "VIOLATION"]), ("P-zero", ["VERIFIED", "VERIFIED"])):
        assert main(["hunt", theorem, "--drop", "disjoint", "--corpus", str(corpus), "--json", str(report)]) == 0
        records = [json.loads(line) for line in report.read_text(encoding="utf-8").splitlines()]
        assert [r["outcome"] for r in records] == outcomes
    assert capsys.readouterr().err == ""
    assert [r["detail"] for r in records] == [{"oracle": True, "witness": [0]}] * 2


def test_cli_hunt_drop_disjoint_keeps_the_properness_gate(tmp_path, capsys):
    """Dropping `disjoint` drops that gate alone: an S-r ideal is proper.  So T2.7 writes
    no record about the whole ring, and P-zero's (0) of Z1, which is the whole ring, is
    VACUOUS as NOT_PROPER rather than VERIFIED."""
    from ringlab.cli import main

    corpus, report = tmp_path / "proper.corpus", tmp_path / "hunt.jsonl"
    corpus.write_text("Z1\nZ6\n", encoding="utf-8")

    def hunt(theorem):
        assert main(["hunt", theorem, "--drop", "disjoint", "--corpus", str(corpus), "--json", str(report)]) == 0
        return [json.loads(line) for line in report.read_text(encoding="utf-8").splitlines()]

    assert [(r["entry"], r["annotations"]["ideal"]) for r in hunt("T2.7")] == [("Z6", "(0)"), ("Z6", "(3)"), ("Z6", "(2)")]
    z1 = [r for r in hunt("P-zero") if r["entry"] == "Z1"]
    assert [(r["outcome"], r["detail"]["verdict"]["reason"]) for r in z1] == [("VACUOUS", "NOT_PROPER")]
    assert capsys.readouterr().err == ""


def test_cli_verify_the_whole_ring_without_a_violation(tmp_path, capsys):
    """The whole ring is no proper ideal, so the r and S-r closed forms are NotApplicable,
    and the window oracle has nothing to confirm for either question."""
    from ringlab.cli import main

    corpus = tmp_path / "whole.corpus"
    corpus.write_text("Z ; ideal=(1) ; mcs=(units)\nZ x Z4 ; ideal=(1,1) ; mcs=(units,units)\n", encoding="utf-8")
    assert main(["verify", "--corpus", str(corpus)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "ARITH-oracle  VERIFIED=2      VACUOUS=0      VIOLATION=0\n" in captured.out
    assert "total: 10 records, 4 verified, 6 vacuous, 0 violations\n" in captured.out


def _generated_lines():
    """Generated corpus lines: (arithmetic and amalgZ lines, finite and polynomial lines).

    Arithmetic: Z, Z x Z and Z x Z_n for n in {2, 4, 6, 9}, with every ideal descriptor
    0..4 on Z and every divisor of n on Z_n, and each of three m.c.s. descriptors per
    factor; amalgZ(n, d) for 2 <= d <= n <= 12, so a d that does not divide n is refused.
    Finite, for n <= 8: Z_n/(g), triv(Z_n, free(k)) for k <= 2, triv(Z_n, quot(g)),
    amalg(Z_n, Z_n, id, (g)) for every g in Z_n, polyring(Z_n), Z1 x Z_n and Z_n with
    the m.c.s. generated by 0.  The families hold the edge shapes the grammar allows: the zero ring,
    Z1 factors, free(0), quot(0), whole-ring ideals and an `all` m.c.s. that holds 0.
    """
    mcs = ("units", "all", "{1,-1}")
    arith = []
    for ring in ["Z", "Z x Z"] + [f"Z x Z{n}" for n in (2, 4, 6, 9)]:
        factors = [0 if f == "Z" else int(f[1:]) for f in ring.split(" x ")]
        descs = [range(5) if n == 0 else [d for d in range(1, n + 1) if n % d == 0] for n in factors]
        for ideal, S in product(product(*descs), product(mcs, repeat=len(factors))):
            arith.append(f"{ring} ; ideal=({','.join(map(str, ideal))}) ; mcs=({','.join(S)})")
    arith += [f"amalgZ({n}, {d}) ; mcs=({s})" for n in range(2, 13) for d in range(2, n + 1) for s in mcs]
    finite = []
    for n in range(1, 9):
        finite += [f"Z{n}/({g})" for g in range(n)] + [f"triv(Z{n}, free({k}))" for k in range(3)]
        finite += [f"triv(Z{n}, quot({g}))" for g in range(n)] + [f"amalg(Z{n}, Z{n}, id, ({g}))" for g in range(n)]
        finite += [f"polyring(Z{n})", f"Z1 x Z{n}", f"Z{n} ; mcs=(0)"]
    return arith, finite


def test_generated_lines_verify_or_are_refused(tmp_path, capsys):
    """Every generated line runs with no VIOLATION or is refused by a RinglabError, and
    through the CLI with exit 2, no output and one error line; the counts per family are
    printed and pinned.  The arithmetic refusals are the amalgZ lines whose d does not
    divide n; the finite ones are triv(Z7, free(2)) and triv(Z8, free(2)), past the size
    cap.  About 1.5 s in all."""
    from ringlab.cli import main

    corpus = tmp_path / "refused.corpus"
    outcomes = []
    for lines in _generated_lines():
        counts = Counter()
        for line in lines:
            try:
                records = list(verify(None, CorpusSpec((parse_corpus_line(line),), Limits.defaults())))
            except RinglabError as exc:
                counts[type(exc).__name__] += 1
                corpus.write_text(line + "\n", encoding="utf-8")
                assert main(["verify", "--corpus", str(corpus)]) == 2, line
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, line
                continue
            counts["run"] += 1
            assert not [r for r in records if r["outcome"] == VIOLATION], line
        outcomes.append((len(lines), dict(counts)))
    for n, counts in outcomes:  # after the CLI runs, whose output the test reads
        print(f"{n} lines: {counts}")
    assert outcomes == [
        (978, {"run": 849, "InvalidConstruction": 129}),
        (156, {"run": 154, "SizeLimitError": 2}),
    ]


def test_cli_poly_search_past_its_budget_exits_2(capsys):
    """The s-unit search of degree 8 over Z16 would walk 16^9 - 1 tuples; it is refused
    before its first one, after the content verdict is printed."""
    from ringlab.cli import main

    assert main(["poly", "Z16", "content", "2", "--s-unit-check", "2", "--degree", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "NO_VIOLATION_UP_TO degree 8\n"
    assert captured.err == (
        f"error: a search of the {16**9 - 1} polynomials of degree <= 8 over 16 elements "
        f"exceeds the budget {POLY_SEARCH_BUDGET}\n"
    )


def test_cli_verify_refuses_a_repeated_theorem_id(capsys):
    from ringlab.cli import main

    assert main(["verify", "--theorems", "T2.3,T2.3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: theorem id 'T2.3' given more than once\n" and captured.out == ""


@pytest.mark.parametrize("theorems,named", [("T2.3,", "''"), ("T9.9", "'T9.9'")])
def test_cli_verify_unknown_theorem_names_the_id(capsys, theorems, named):
    from ringlab.cli import main

    assert main(["verify", "--theorems", theorems]) == 2
    assert capsys.readouterr().err == f"error: unknown theorem id {named}\n"


@pytest.mark.parametrize("command", [["verify"], ["hunt", "T2.3"]])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_rejects_a_worker_count_below_1(capsys, command, jobs):
    from ringlab.cli import main

    assert main([*command, "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["verify", "--theorems", "DEGEN"], ["hunt", "T2.12", "--drop", "prime"]], ids=["verify", "hunt"]
)
@pytest.mark.parametrize(
    "case,message",
    [
        ("missing corpus", "cannot read corpus {path}: No such file or directory"),
        ("corpus not UTF-8", "corpus {path} is not UTF-8: invalid start byte at byte 3"),
        ("report in a missing directory", "cannot write report {path}: No such file or directory"),
    ],
    ids=["missing-corpus", "corpus-not-utf8", "report-in-missing-dir"],
)
def test_cli_unreadable_corpus_or_unwritable_report_exits_2(tmp_path, capsys, command, case, message):
    """One error line naming the path, no traceback and no summary: a report path
    that cannot be written is refused before the run, not after it."""
    from ringlab.cli import main

    corpus, report = tmp_path / "c.txt", tmp_path / "report.jsonl"
    corpus.write_bytes(b"Z6\n\xff\n" if case == "corpus not UTF-8" else b"Z6\n")
    if case == "missing corpus":
        corpus = tmp_path / "missing" / "c.txt"
    if case == "report in a missing directory":
        report = tmp_path / "missing" / "report.jsonl"
    path = report if case.startswith("report") else corpus
    assert main([*command, "--corpus", str(corpus), "--json", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: " + message.format(path=path) + "\n" and captured.out == ""


# -- report pins -------------------------------------------------------------------


def _report_sha256(records):
    lines = (json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def hunt_corpus():
    return CorpusSpec(tuple(parse_corpus_line(line) for line in HUNT_LINES), Limits.defaults())


def test_verify_builds_the_poly_mcs_list_once(monkeypatch):
    """T4.1 and T4.2 read one m.c.s. list per entry: the empty set and one per single
    generator, |units| + 2 of them, go through mcs_generate once each."""
    calls = []
    real = registry.mcs_generate
    monkeypatch.setattr(registry, "mcs_generate", lambda R, gens: calls.append(gens) or real(R, gens))
    corpus = CorpusSpec((parse_corpus_line("polyring(Z12)"),), Limits.defaults())
    assert len(list(verify(None, corpus))) > 2
    assert 0 < len(calls) <= len(parse_ring("Z12").units) + 3


def test_verify_report_pin(hunt_corpus):
    assert _report_sha256(verify(None, hunt_corpus)) == VERIFY_PIN


def test_every_declared_hypothesis_has_a_hunt_pin():
    declared = {(cid, h) for cid, case in CASES.items() for h in case.hypotheses}
    assert declared == set(HUNT_PINS)


# every hunt serially, and two on the process pool: T2.12 on the arith lane, and T2.5
# past s_regular, where localizations at e != 1 are asked
HUNT_RUNS = [pytest.param(c, h, 1, id=f"{c}-{h}") for c, h in HUNT_PINS] + [
    pytest.param(c, h, 2, id=f"{c}-{h}-jobs2") for c, h in (("T2.12", "prime"), ("T2.5", "s_regular"))
]


@pytest.mark.parametrize("case_id,hypothesis,jobs", HUNT_RUNS)
def test_hunt_report_pin(hunt_corpus, case_id, hypothesis, jobs):
    records = counterexample_search(case_id, hunt_corpus, (hypothesis,), jobs=jobs)
    assert _report_sha256(records) == HUNT_PINS[case_id, hypothesis]


# a declared hypothesis -> its key in a record's hypotheses (P3.2's finite records
# prefix it with the direction); a gate -> the NotApplicable reason it gives
RECORD_KEYS = {
    "in_jacobson": "inside_jacobson",
    "max_disjoint": "maximal_disjoint",
    "zd_union": "zd_union_in_ann",
    "s_regular": "s_regular_candidates",
}
GATE_REASONS = {"disjoint": cl.DISJOINTNESS_VIOLATED, "reduced": cl.NOT_REDUCED}


def _vacuous_because_of(record, hypothesis):
    """Whether nothing but the dropped hypothesis explains a VACUOUS record: no zero count
    in its detail, no other hypothesis False (a `_literal` key is reported only), and no
    NotApplicable reason other than the dropped gate's."""
    key = RECORD_KEYS.get(hypothesis, hypothesis)
    dropped_keys = {key, f"forward_{key}", f"backward_{key}"}
    detail = record["detail"]
    reason = detail.get("reason") or (detail.get("verdict") or {}).get("reason")
    return not (
        any(type(v) is int and v == 0 for v in detail.values())
        or any(v is False and k not in dropped_keys and not k.endswith("_literal") for k, v in record["hypotheses"].items())
        or reason not in (None, GATE_REASONS.get(hypothesis))
    )


def test_no_hunt_record_is_vacuous_because_of_the_dropped_hypothesis(hunt_corpus):
    """A hunt drops a hypothesis so that the instances it gated are checked: each VACUOUS
    record left must have another reason (a zero count, another hypothesis unmet, or
    another gate, such as properness)."""
    vacuous = 0
    for case_id, hypothesis in HUNT_PINS:
        for record in counterexample_search(case_id, hunt_corpus, (hypothesis,)):
            if record["outcome"] == VACUOUS:
                vacuous += 1
                assert not _vacuous_because_of(record, hypothesis), (case_id, hypothesis, record)
    assert vacuous > 100


# -- entry structure -----------------------------------------------------------------


def _extension_records(line):
    spec = CorpusSpec((parse_corpus_line(line),), Limits.defaults())
    return list(verify(("P3.2", "P3.3"), spec))


@pytest.mark.parametrize(
    "line",
    [
        "triv(Z2, free(1)) x Z2",
        "amalg(Z4, Z4, id, (2)) x Z2",
        "triv(Z2, free(1))/(1)",
        "amalg(Z4, Z4, id, (2))/(1)",
    ],
)
def test_products_and_quotients_of_extensions_build_without_transfer_records(line):
    ctx = build_context(parse_corpus_line(line), Limits.defaults())
    assert ctx.structure is None
    assert ctx.ring.size == parse_ring(line).size
    assert _extension_records(line) == []


def test_parenthesized_trivial_extension_keeps_its_transfer_records():
    bare = _extension_records("triv(Z2, free(1))")
    wrapped = _extension_records("(triv(Z2, free(1)))")
    assert bare and all(r["theorem"] == "P3.3" for r in bare)
    drop_entry = lambda recs: [{k: v for k, v in r.items() if k != "entry"} for r in recs]
    assert drop_entry(wrapped) == drop_entry(bare)


def test_p_sidem_declares_no_disjoint_hypothesis(mini):
    with pytest.raises(UnknownHypothesis):
        counterexample_search("P-sidem", mini, ("disjoint",))
