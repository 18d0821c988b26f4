from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import product

import pytest

from ringlab.classify import (
    DISJOINTNESS_VIOLATED,
    GENERATOR_GATE,
    NOT_PROPER,
    NOT_REDUCED,
    has_ac,
    has_fac,
    has_property_A,
    is_pr_ideal,
    is_r_ideal,
    is_S_prime,
    is_S_r_ideal,
    is_S_uz_ring,
    is_S_z0_ideal,
    is_uz_ring,
    is_z0_ideal,
    s_idempotent_ideal_check,
)
from ringlab.ideals import (
    Ideal,
    all_ideals,
    annihilator,
    colon,
    ideal_generate,
    ideal_sum,
    is_prime,
    jacobson_radical,
    localize,
    ideal_pushforward,
    mask_of,
    max_ideals,
    MulClosedSet,
    mcs_from_members,
    mcs_generate,
    min_primes_over,
    spec,
)
from ringlab.corpus import FINITE, POLY, Limits, default_corpus, parse_corpus_line
from ringlab.dsl import parse_ring
from ringlab.registry import _small_mcs, build_context
from ringlab.rings import make_product, make_zn

from oracles import (
    ref_has_fac,
    ref_has_property_A,
    ref_max_ideals,
    ref_principal,
    ref_is_pr_ideal,
    ref_is_S_uz_ring,
    ref_is_r_ideal,
    ref_is_uz_ring,
    ref_is_S_prime,
    ref_is_S_r_ideal,
    ref_is_S_z0_ideal,
    ref_is_z0_ideal,
)
from test_poly import SEARCH_RINGS


@pytest.fixture(scope="module")
def z12():
    return make_zn(12)


@pytest.fixture(scope="module")
def z6():
    return make_zn(6)


def mcs_candidates(R):
    seen = {}
    for gens in [()] + [(g,) for g in R.elements()]:
        S = mcs_generate(R, gens)
        seen.setdefault(S.members, S)
    return sorted(seen.values(), key=lambda S: (len(S.members), S.sorted_members))


# -- r- and pr-ideals ---------------------------------------------------------------


def test_every_proper_ideal_of_z12_is_r(z12):
    for A in all_ideals(z12):
        if A.is_proper():
            assert is_r_ideal(A).holds


def test_zero_ideal_r_in_z6(z6):
    assert is_r_ideal(ideal_generate(z6, [])).holds


@pytest.mark.parametrize("n", [2, 4, 6, 9, 10, 15])
def test_zero_ideal_always_r(n):
    assert is_r_ideal(ideal_generate(make_zn(n), [])).holds


def test_improper_not_applicable(z12):
    v = is_r_ideal(ideal_generate(z12, [1]))
    assert v.not_applicable and v.reason == NOT_PROPER


def test_r_implies_pr(z12):
    for A in all_ideals(z12):
        if A.is_proper() and is_r_ideal(A).holds:
            assert is_pr_ideal(A).holds


def test_pr_ideal_z4():
    R = make_zn(4)
    assert is_pr_ideal(ideal_generate(R, [])).holds


def test_pr_ideal_4_in_z12(z12):
    assert is_pr_ideal(ideal_generate(z12, [4])).holds


# -- S-r ideals ---------------------------------------------------------------------


def test_trivial_mcs_reduces_to_r(z12):
    S1 = mcs_generate(z12, [])
    for A in all_ideals(z12):
        if A.is_proper():
            assert is_S_r_ideal(A, S1).holds == is_r_ideal(A).holds


@pytest.mark.parametrize("n", [2, 4, 6, 12])
def test_zero_ideal_always_S_r(n):
    R = make_zn(n)
    zero = ideal_generate(R, [])
    for S in mcs_candidates(R):
        v = is_S_r_ideal(zero, S)
        if 0 in S.members:
            assert v.not_applicable and v.reason == DISJOINTNESS_VIOLATED
        else:
            assert v.holds


def test_witness_is_smallest(z12):
    A = ideal_generate(z12, [4])
    S = mcs_generate(z12, [5])
    v = is_S_r_ideal(A, S)
    assert v.holds and v.witness == 1


def test_disjointness_gate(z12):
    A = ideal_generate(z12, [4])
    S = mcs_generate(z12, [4])
    v = is_S_r_ideal(A, S)
    assert v.not_applicable and v.reason == DISJOINTNESS_VIOLATED


# -- shared verdicts ----------------------------------------------------------------


def test_disjoint_proper_ideals_share_one_s_r_verdict(z12):
    """Past the gates the S-r verdict depends on S alone, so it is one object."""
    S = mcs_generate(z12, [5])
    A, B = ideal_generate(z12, [4]), ideal_generate(z12, [3])
    assert A.mask != B.mask and not (A.mask | B.mask) & S.mask
    v = is_S_r_ideal(A, S)
    assert v.holds and v.witness == 1
    assert is_S_r_ideal(B, S) is v


def test_each_not_applicable_reason_is_one_object(z12, z6):
    """Every predicate, on every ring, returns the same verdict for one reason."""
    units12, units6 = mcs_generate(z12, []), mcs_generate(z6, [])
    whole12, whole6 = ideal_generate(z12, [1]), ideal_generate(z6, [1])
    by_reason = {
        NOT_PROPER: [
            is_r_ideal(whole12), is_pr_ideal(whole6), is_S_r_ideal(whole6, units6), is_S_prime(whole12, units12),
        ],
        DISJOINTNESS_VIOLATED: [
            is_S_r_ideal(ideal_generate(z12, [2]), mcs_generate(z12, [4])),
            is_S_prime(ideal_generate(z12, [4]), mcs_generate(z12, [4])),
            is_S_z0_ideal(ideal_generate(z6, [2]), mcs_generate(z6, [2])),
        ],
        NOT_REDUCED: [
            is_z0_ideal(ideal_generate(z12, [2])),
            is_S_z0_ideal(ideal_generate(z12, [4]), mcs_generate(z12, [5])),
            is_z0_ideal(ideal_generate(make_zn(4), [])),
        ],
        GENERATOR_GATE: [
            s_idempotent_ideal_check(z12, mcs_generate(z12, [4]), [8]),
            s_idempotent_ideal_check(z12, mcs_generate(z12, [4]), [2]),
        ],
    }
    for reason, verdicts in by_reason.items():
        assert verdicts[0].not_applicable and verdicts[0].reason == reason
        assert all(v is verdicts[0] for v in verdicts), reason


def test_a_verdict_cannot_be_changed(z12):
    """Shared verdicts are safe only because no field can be assigned."""
    v = is_S_r_ideal(ideal_generate(z12, [4]), mcs_generate(z12, [5]))
    for field, value in (("outcome", "Fails"), ("witness", 5), ("reason", NOT_PROPER)):
        with pytest.raises(FrozenInstanceError):
            setattr(v, field, value)
    assert v.holds and v.witness == 1


# -- the witness mask against the per-candidate scan ------------------------------------

KERNEL_RINGS = SEARCH_RINGS + ["amalg(Z4, Z4, id, (2))", "loc(Z12, S<3>)", "triv(Z2, free(3))"]


def _context(expr):
    return build_context(parse_corpus_line(expr), Limits.defaults())


# (predicate, reference) with the signature (A, S, flag, flag)
S_PREDICATES = (
    (is_S_r_ideal, ref_is_S_r_ideal),
    (is_S_prime, ref_is_S_prime),
    (is_S_z0_ideal, ref_is_S_z0_ideal),
)


def _compare_with_scan(ctx):
    """Whole verdicts of r, pr and z0 on every ideal, and of each predicate on
    ideals() x mcs_list() under the four enforce flags, against the scans.

    Returns (predicate name, S, verdict) for every S-indexed verdict.
    """
    verdicts = []
    for A in ctx.ideals():
        assert is_r_ideal(A) == ref_is_r_ideal(A), A
        assert is_pr_ideal(A) == ref_is_pr_ideal(A), A
        for reduced in (True, False):
            assert is_z0_ideal(A, reduced) == ref_is_z0_ideal(A, reduced), (A, reduced)
        for S, flags in product(ctx.mcs_list(), product((True, False), repeat=2)):
            for fast, ref in S_PREDICATES:
                v = fast(A, S, *flags)
                assert v == ref(A, S, *flags), (fast.__name__, A, S, flags)
                verdicts.append((fast.__name__, S, v))
    return verdicts


@pytest.mark.parametrize("expr", KERNEL_RINGS)
def test_witness_mask_matches_scan(expr):
    verdicts = _compare_with_scan(_context(expr))
    # regular = unit in a finite ring, so 1 always witnesses S-r
    s_r = [(S, v) for name, S, v in verdicts if name == "is_S_r_ideal"]
    assert all(v.holds and v.witness == min(S.members) for S, v in s_r if not v.not_applicable)


def test_scan_comparison_meets_failing_verdicts():
    """The kernel rings give the S-prime, S-z0 and z0 comparisons Fails to check."""
    fails = Counter()
    for expr in KERNEL_RINGS:
        ctx = _context(expr)
        for A in ctx.ideals():
            fails["pr"] += is_pr_ideal(A).fails
            fails["z0"] += is_z0_ideal(A, enforce_reduced=False).fails
            for S, flags in product(ctx.mcs_list(), product((True, False), repeat=2)):
                fails["S-prime"] += is_S_prime(A, S, *flags).fails
                fails["S-z0"] += is_S_z0_ideal(A, S, *flags).fails
    assert fails["S-prime"] and fails["S-z0"] and fails["z0"]
    # every regular element of a finite ring is a unit, so pr never fails
    assert fails["pr"] == 0


@pytest.mark.parametrize("expr", KERNEL_RINGS)
def test_witness_mask_matches_scan_with_zero_divisors_declared_regular(expr):
    """Declaring a zero divisor regular makes the S-r and pr references fail
    and moves the S-r witness.  No finite ring has such an element, and the
    predicates decide by regular = unit, so only the references run here."""
    ctx = _context(expr)
    R = ctx.ring
    zero_divisors = sorted(R.zero_divisors - {0})
    fails = pr_fails = late_witness = 0
    for z in zero_divisors:
        R.regulars = R.units | {z}
        for A in ctx.ideals():
            for S, flags in product(ctx.mcs_list(), product((True, False), repeat=2)):
                v = ref_is_S_r_ideal(A, S, *flags)
                fails += v.fails
                late_witness += v.holds and v.witness != min(S.members)
        # w = z sends 1 into (z), and 1 is in no proper radical
        pr_fails += sum(ref_is_pr_ideal(A).fails for A in ctx.proper_ideals())
    assert bool(fails) == bool(pr_fails) == bool(zero_divisors)
    # only these rings have an S whose least member fails while a later one works
    assert bool(late_witness) == (expr in ("Z6", "Z10", "Z12"))


def test_regular_unit_lemma_matches_the_references_over_the_corpus():
    """Over every finite and polynomial-base ring of the default corpus, the
    predicates decided by regular = unit equal the scans: r and pr on every
    ideal, S-r with both gates off on every ideal and catalogue m.c.s., uz
    and S-uz; so does Property A, decided by zero annihilator = whole ring."""
    spec = default_corpus()
    rings = s_r_verdicts = 0
    for entry in spec.entries:
        if entry.kind not in (FINITE, POLY):
            continue
        ctx = build_context(entry, spec.limits)
        R = ctx.ring
        rings += 1
        assert is_uz_ring(R) == ref_is_uz_ring(R), entry.text
        assert has_property_A(R) == ref_has_property_A(R), entry.text
        for S in ctx.mcs_list():
            assert is_S_uz_ring(R, S) == ref_is_S_uz_ring(R, S), (entry.text, S.label())
        for A in ctx.ideals():
            assert is_r_ideal(A) == ref_is_r_ideal(A), (entry.text, A.label())
            assert is_pr_ideal(A) == ref_is_pr_ideal(A), (entry.text, A.label())
            for S in ctx.mcs_list():
                v = is_S_r_ideal(A, S, enforce_proper=False, enforce_disjoint=False)
                assert v == ref_is_S_r_ideal(A, S, False, False), (entry.text, A.label(), S.label())
                s_r_verdicts += 1
    assert (rings, s_r_verdicts) == (135, 16807)


def test_s_z0_colon_memo_matches_the_scan_over_the_corpus():
    """S-z0 reads (A : N) from the lattice, built once per ideal.  On every finite
    default-corpus ring of at most 16 elements, each ideal is asked under every
    catalogue m.c.s. with both gates on and off, against the per-s scan.  Then
    each ideal is asked again with every other ideal's generators as its label: the
    generators only label an ideal, so the verdict is that of its members."""
    spec = default_corpus()
    asked = relabelled_apart = 0
    for entry in spec.entries:
        ctx = build_context(entry, spec.limits)
        if entry.kind != FINITE or ctx.ring.size > 16:
            continue
        R, mcs = ctx.ring, ctx.mcs_list()
        for A in ctx.ideals():
            for S, flags in product(mcs, ((True, True), (False, False))):
                assert is_S_z0_ideal(A, S, *flags) == ref_is_S_z0_ideal(A, S, *flags), (entry.text, A.label(), S.label())
                asked += 1
        for A, B in product(ctx.ideals(), repeat=2):
            relabelled = Ideal(R, A.mask, B.generators)
            for S in mcs:
                v = is_S_z0_ideal(relabelled, S, False, False)
                assert v == ref_is_S_z0_ideal(A, S, False, False), (entry.text, A.label(), B.label(), S.label())
                relabelled_apart += v != is_S_z0_ideal(B, S, False, False)
    assert asked == 3396 and relabelled_apart > 0


@pytest.mark.parametrize("predicate", [is_S_r_ideal, is_S_prime, is_S_z0_ideal])
def test_empty_mcs_fails_without_witness_or_last_candidate(z6, predicate):
    """No s at all: the uniform-witness predicates fail, naming no element."""
    v = predicate(ideal_generate(z6, [2]), MulClosedSet(z6, 0, ()))
    assert v.fails and v.witness is None and v.last_candidate is None
    assert v.to_json(z6)["witness"] is None


# -- S-prime -----------------------------------------------------------------------


def test_prime_disjoint_is_s_prime(z12):
    A = ideal_generate(z12, [3])
    S = mcs_generate(z12, [])
    v = is_S_prime(A, S)
    assert v.holds and v.witness == 1


def test_zero_not_s_prime_in_z6(z6):
    v = is_S_prime(ideal_generate(z6, []), mcs_generate(z6, []))
    assert v.fails and v.counterexample == (2, 3)


def test_4_not_s_prime_in_z12(z12):
    v = is_S_prime(ideal_generate(z12, [4]), mcs_generate(z12, []))
    assert v.fails and v.counterexample == (2, 2)


# -- z0 ideals ----------------------------------------------------------------------


def test_zero_ideal_z0_in_reduced(z6):
    assert is_z0_ideal(ideal_generate(z6, [])).holds


def test_z0_2_in_z6(z6):
    # Ann(2) = Ann(4) = {0,3}; both 2 and 4 lie in (2)
    assert is_z0_ideal(ideal_generate(z6, [2])).holds


def test_z0_requires_reduced():
    R = make_zn(4)
    v = is_z0_ideal(ideal_generate(R, []))
    assert v.not_applicable and v.reason == NOT_REDUCED
    v = is_S_z0_ideal(ideal_generate(R, []), mcs_generate(R, []))
    assert v.not_applicable and v.reason == NOT_REDUCED


def test_s_z0_implies_s_r_on_reduced_rings():
    for n in (6, 10, 15, 30):
        R = make_zn(n)
        assert R.is_reduced()
        for A in all_ideals(R):
            if not A.is_proper():
                continue
            for S in mcs_candidates(R):
                v0 = is_S_z0_ideal(A, S)
                if v0.holds:
                    assert is_S_r_ideal(A, S).holds


# -- uz / S-uz ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 4, 6, 12, 30])
def test_every_finite_ring_is_uz(n):
    assert is_uz_ring(make_zn(n)).holds


def test_every_finite_ring_is_s_uz(z12):
    for S in mcs_candidates(z12):
        assert is_S_uz_ring(z12, S).holds


# -- ring conditions -----------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_conditions(p):
    R = make_zn(p)
    assert has_property_A(R).holds
    assert has_ac(R).holds
    assert has_fac(R).holds


def test_property_a_z12(z12):
    assert has_property_A(z12).holds
    assert annihilator(z12, ideal_generate(z12, [2]).members).members == {0, 6}


def test_property_a_z2xz2():
    assert has_property_A(make_product(make_zn(2), make_zn(2))).holds


def test_ac_z12(z12):
    assert has_ac(z12).holds


def test_fac_fails_z2xz2():
    R = make_product(make_zn(2), make_zn(2))
    v = has_fac(R)
    assert v.fails
    T = v.counterexample
    joint = annihilator(R, T).members
    assert joint == {0}
    for t in T:
        assert annihilator(R, (t,)).members != joint


def test_fac_holds_for_chain_rings():
    # Z_{p^k} annihilators are totally ordered, so the minimum works
    for n in (4, 8, 9, 27, 25):
        assert has_fac(make_zn(n)).holds


LATTICE_RINGS = SEARCH_RINGS + [f"Z{n}" for n in range(13, 65)] + [
    "Z2 x Z2 x Z2", "Z2 x Z2 x Z2 x Z2", "Z4 x Z4", "Z16/(8)",
    "triv(Z2, free(3))", "amalg(Z4, Z4, id, (2))", "loc(Z12, S<3>)",
]


def test_fac_over_class_representatives_matches_the_element_loop():
    """The whole Verdict, counterexample included, for caps 1 to 4; the
    element loop's cap-4 sweep is skipped above 40 elements."""
    outcomes = set()
    for expr in LATTICE_RINGS:
        R = parse_ring(expr)
        for cap in range(1, 5 if R.size <= 40 else 4):
            v = has_fac(R, cap)
            assert v == ref_has_fac(R, cap), (expr, cap)
            outcomes.add(v.outcome)
    assert outcomes == {"Holds", "Fails"}


def test_spec_and_max_ideals_match_the_scans():
    for expr in LATTICE_RINGS:
        R = parse_ring(expr)
        assert spec(R) == tuple(A for A in all_ideals(R) if is_prime(A)), expr
        assert max_ideals(R) == ref_max_ideals(R), expr


# -- scaled idempotents ----------------------------------------------------------------


def test_s_idempotent_zero_gens(z6):
    assert s_idempotent_ideal_check(z6, mcs_generate(z6, []), []).holds


def test_s_idempotent_z6(z6):
    assert s_idempotent_ideal_check(z6, mcs_generate(z6, []), [3]).holds


def test_s_idempotent_gate_z12(z12):
    S = mcs_generate(z12, [4])
    assert S.members == {1, 4}
    # product s = 4; 8*8 = 4 but 4*8 = 8, so the gate rejects 8
    v = s_idempotent_ideal_check(z12, S, [8])
    assert v.not_applicable


def test_s_idempotent_all_qualifying_generators(z12):
    for S in mcs_candidates(z12):
        s = z12.one
        for x in S.sorted_members:
            s = z12.m(s, x)
        T = [a for a in z12.elements() if z12.m(a, a) == z12.m(s, a)]
        for a in T:
            v = s_idempotent_ideal_check(z12, S, [a])
            assert not v.fails


# -- catalogue invariants over small rings ------------------------------------------------


def test_monotone_s_transfer(z12):
    cands = mcs_candidates(z12)
    for A in all_ideals(z12):
        if not A.is_proper():
            continue
        for S1 in cands:
            if not is_S_r_ideal(A, S1).holds:
                continue
            for S2 in cands:
                if S1.members < S2.members and not (S2.members & A.members):
                    assert is_S_r_ideal(A, S2).holds


def test_s_r_ideals_live_in_zero_divisors():
    for n in (6, 8, 12):
        R = make_zn(n)
        for A in all_ideals(R):
            if not A.is_proper():
                continue
            for S in mcs_candidates(R):
                if is_S_r_ideal(A, S).holds:
                    assert A.members <= R.zero_divisors


def test_prime_criterion(z12, z6):
    for R in (z12, z6):
        for A in spec(R):
            for S in mcs_candidates(R):
                if S.members & A.members:
                    continue
                assert is_S_r_ideal(A, S).holds == (A.members <= R.zero_divisors)


def test_min_prime_lifting(z12):
    for A in all_ideals(z12):
        if not A.is_proper():
            continue
        for S in mcs_candidates(z12):
            if not is_S_r_ideal(A, S).holds:
                continue
            for L in min_primes_over(A):
                if not (L.members & S.members):
                    assert is_S_r_ideal(L, S).holds


def test_witness_colon_power_stability(z12):
    for A in all_ideals(z12):
        if not A.is_proper():
            continue
        for S in mcs_candidates(z12):
            if not S.members <= z12.regulars:
                continue
            v = is_S_r_ideal(A, S)
            if not v.holds:
                continue
            s = v.witness
            base = colon(A, (s,)).members
            power, seen = s, set()
            while power not in seen:
                seen.add(power)
                assert colon(A, (power,)).members == base
                power = z12.m(power, s)


def test_four_way_characterization_at_regulars(z12):
    R = z12
    S = mcs_from_members(R, R.regulars)
    regs = sorted(R.regulars)
    for A in all_ideals(R):
        if not A.is_proper() or (S.members & A.members):
            continue
        a_side = is_S_r_ideal(A, S).holds
        b_side = any(
            all(
                {R.m(s, x) for x in (ref_principal(R, r) & A.members)}
                <= {R.m(r, x) for x in A.members}
                for r in regs
            )
            for s in regs
        )
        c_side = any(
            all({R.m(s, x) for x in colon(A, (r,)).members} <= A.members for r in regs)
            for s in regs
        )
        loc = localize(R, S)
        pushed = ideal_pushforward(loc, A)
        pre = {x for x in R.elements() if int(loc.map.image[x]) in pushed.members}
        d_side = any({R.m(s, x) for x in pre} <= A.members for s in regs)
        assert a_side == b_side == c_side == d_side


def test_colon_and_annihilator_stability(z12):
    for A in all_ideals(z12):
        if not A.is_proper():
            continue
        for S in mcs_candidates(z12):
            if not is_S_r_ideal(A, S).holds:
                continue
            for x in z12.elements():
                if x in A.members:
                    continue
                quot = colon(A, (x,))
                if quot.is_proper() and not (quot.members & S.members):
                    assert is_S_r_ideal(quot, S).holds
                ann = annihilator(z12, (x,))
                if ann.is_proper() and not (ann.members & S.members):
                    assert is_S_r_ideal(ann, S).holds


def test_annihilator_sum_property(z12):
    lattice = all_ideals(z12)
    for S in mcs_candidates(z12):
        for K1 in lattice:
            for K2 in lattice:
                total = ideal_sum(K1, K2)
                ok_t = [t for t in S.sorted_members if ref_principal(z12, t) == total.members]
                if not ok_t:
                    continue
                K = ideal_sum(annihilator(z12, K1.members), annihilator(z12, K2.members))
                if K.is_proper() and not (K.members & S.members):
                    assert is_S_r_ideal(K, S).holds


def test_min_prime_plus_idempotent(z6):
    R = make_zn(30)
    assert R.is_reduced()
    zero = ideal_generate(R, [])
    for S in mcs_candidates(R)[:8]:
        for P in min_primes_over(zero):
            for e in R.idempotents():
                for s in S.sorted_members:
                    A = ideal_sum(P, annihilator(R, (R.m(s, e),)))
                    if A.is_proper() and not (A.members & S.members):
                        assert is_S_r_ideal(A, S).holds


def test_jacobson_characterization():
    for n in (8, 12, 36):
        R = make_zn(n)
        jac = jacobson_radical(R)
        for A in all_ideals(R):
            if not A.is_proper() or not A.members <= jac.members:
                continue
            lhs = is_r_ideal(A).holds
            rhs = True
            for M in max_ideals(R):
                comp = mcs_from_members(R, frozenset(R.elements()) - M.members)
                if not is_S_r_ideal(A, comp).holds:
                    rhs = False
                    break
            assert lhs == rhs


def test_finite_ring_degeneracy():
    """Finite rings cannot distinguish r-ideals: every proper ideal is one.

    This is the regression fact that justifies the arithmetic and
    polynomial lanes carrying the discriminating examples.
    """
    for expr_ring in (make_zn(12), make_zn(30), make_product(make_zn(4), make_zn(9))):
        assert is_uz_ring(expr_ring).holds
        for A in all_ideals(expr_ring):
            if A.is_proper():
                assert is_r_ideal(A).holds


def test_s_uz_equivalence(z12):
    for S in mcs_candidates(z12):
        lhs = all(
            is_S_r_ideal(A, S).holds
            for A in all_ideals(z12)
            if A.is_proper() and not (A.members & S.members)
        )
        assert lhs == is_S_uz_ring(z12, S).holds


def test_s_uz_mask_form_matches_the_element_loop():
    """Over a finite ring every m.c.s. makes it S-uz, since each regular
    element is a unit and 1 lies in S; so each m.c.s. is also tried without
    1, where the mask form must fail at the same element as the loop."""
    outcomes = set()
    for expr in SEARCH_RINGS + ["Z4 x Z4"]:
        R = parse_ring(expr)
        for S in _small_mcs(R):
            others = S.members - {R.one}
            for T in (S, MulClosedSet(R, mask_of(others), S.generators)):
                v = is_S_uz_ring(R, T)
                assert v == ref_is_S_uz_ring(R, T), (expr, T.label())
                outcomes.add(v.outcome)
    assert outcomes == {"Holds", "Fails"}
