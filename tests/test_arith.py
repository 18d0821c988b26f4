from itertools import combinations, product as iproduct
from math import gcd

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import ringlab.arith as ar
from ringlab import extensions
from ringlab.arith import (
    INT,
    ArithIdeal,
    ArithMCS,
    ArithRing,
    arith_ann_is_zero,
    arith_colon_element,
    arith_colon_ideal,
    arith_contains,
    arith_disjoint,
    arith_is_prime,
    arith_is_r_ideal,
    arith_is_S_r_ideal,
    arith_meets_regulars,
    arith_oracle_check,
    arith_product,
    arith_subset_zd,
    mod_factor,
)
from ringlab.classify import FAILS, HOLDS, Verdict, is_r_ideal, is_S_r_ideal
from ringlab.corpus import FINITE, CorpusSpec, default_corpus
from ringlab.errors import InvalidConstruction, NotProperError, SizeLimitError
from ringlab.extensions import AmalgOverZ, amalgz_zero_transfer_check
from ringlab.ideals import ideal_generate, is_prime, mcs_from_members
from ringlab.registry import verify
from ringlab.rings import make_product, make_zn

from oracles import ref_sent


@pytest.fixture(scope="module")
def zz():
    return ArithRing((INT, INT))


@pytest.fixture(scope="module")
def z():
    return ArithRing((INT,))


@pytest.fixture
def fresh_oracle():
    """Empty the oracle's two process-wide memos before and after the test: before, so the
    test's patches are seen, and after, so no verdict reached under them outlives the test."""
    memos = (ar.arith_oracle_check, ar._sent)  # taken before the test patches either name
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_ann_is_zero(z, zz):
    assert arith_ann_is_zero(z, (3,))
    assert arith_ann_is_zero(zz, (1, 2))
    assert not arith_ann_is_zero(zz, (0, 5))
    mixed = ArithRing((INT, mod_factor(4)))
    assert arith_ann_is_zero(mixed, (2, 3))
    assert not arith_ann_is_zero(mixed, (2, 2))


def test_is_prime(z, zz):
    assert arith_is_prime(ArithIdeal(z, (3,)))
    assert arith_is_prime(ArithIdeal(z, (0,)))
    assert not arith_is_prime(ArithIdeal(z, (6,)))
    assert not arith_is_prime(ArithIdeal(zz, (0, 2)))
    assert arith_is_prime(ArithIdeal(zz, (0, 1)))
    with pytest.raises(NotProperError):
        arith_is_prime(ArithIdeal(z, (1,)))


def test_descriptor_validation(zz):
    with pytest.raises(InvalidConstruction):
        ArithIdeal(ArithRing((mod_factor(6),)), (4,))  # 4 does not divide 6
    with pytest.raises(InvalidConstruction):
        ArithMCS(zz, (("fin", frozenset({2})), ("all",)))  # missing 1


def test_r_ideal_closed_form(z, zz):
    v = arith_is_r_ideal(ArithIdeal(z, (3,)))
    assert v.fails and v.counterexample == ((3,), (1,))
    assert arith_is_r_ideal(ArithIdeal(zz, (0, 2))).fails
    assert arith_is_r_ideal(ArithIdeal(z, (0,))).holds
    assert arith_is_r_ideal(ArithIdeal(zz, (0, 1))).holds


def test_s_r_paper_configuration(zz):
    A = ArithIdeal(zz, (0, 2))
    S = ArithMCS(zz, (("units",), ("all",)))
    v = arith_is_S_r_ideal(A, S)
    assert v.holds and v.witness == (1, 0)
    assert arith_oracle_check(A, S, 10)


def test_s_r_fails_with_unit_denominators(z, zz):
    A3 = ArithIdeal(z, (3,))
    Su = ArithMCS(z, (("units",),))
    v = arith_is_S_r_ideal(A3, Su)
    assert v.fails
    assert arith_oracle_check(A3, Su, 10)
    assert arith_oracle_check(A3, None, 10)
    A = ArithIdeal(zz, (0, 2))
    S = ArithMCS(zz, (("units",), ("units",)))
    assert arith_is_S_r_ideal(A, S).fails
    assert arith_oracle_check(A, S, 10)


def test_zero_ideal_always_s_r(z):
    zero = ArithIdeal(z, (0,))
    for desc in (("units",), ("fin", frozenset({1, -1}))):
        S = ArithMCS(z, (desc,))
        v = arith_is_S_r_ideal(zero, S)
        assert v.holds and v.witness == (1,)
    v = arith_is_S_r_ideal(zero, ArithMCS(z, (("all",),)))
    assert v.not_applicable  # 0 sits in S


@pytest.mark.parametrize("ideal", [(0, 1), (0, 2)])
def test_closed_forms_read_units_without_listing_z_n(tmp_path, monkeypatch, capsys, ideal):
    """A `units` factor of Z_1000000 is decided in closed form, not by testing its residues
    one by one: the S-r verdict calls gcd a constant number of times, and so does the CLI
    run, which the value cap ends with exit 2 and one error line."""
    from ringlab.cli import main

    calls = []
    monkeypatch.setattr(ar, "gcd", lambda a, b: calls.append((a, b)) or gcd(a, b))
    R = ArithRing((INT, 1000000))
    v = arith_is_S_r_ideal(ArithIdeal(R, ideal), ArithMCS(R, (("units",), ("units",))))
    assert v.holds and v.witness == (1, 1) and len(calls) <= 2
    corpus = tmp_path / "units.corpus"
    corpus.write_text(f"Z x Z1000000 ; ideal=({ideal[0]},{ideal[1]}) ; mcs=(units,units)\n", encoding="utf-8")
    assert main(["verify", "--corpus", str(corpus)]) == 2 and len(calls) <= 2
    assert capsys.readouterr().err == "error: an oracle window coordinate of 1000000 values exceeds the cap 2048\n"


def test_oracle_window_at_its_caps_runs_and_one_more_is_refused(monkeypatch, fresh_oracle):
    """Both window lanes size their window with `size_window` before building it: in each
    lane a window at the cap on a coordinate's values runs, and one value more is refused."""
    monkeypatch.setattr(ar, "ORACLE_AXIS_CAP", 21)
    ar.size_window(21)
    with pytest.raises(SizeLimitError, match="an oracle window coordinate of 22 values exceeds the cap 21"):
        ar.size_window(22)
    A = ArithIdeal(ArithRing((INT,)), (3,))
    assert arith_oracle_check(A, None, 10)
    with pytest.raises(SizeLimitError, match="23 values"):
        arith_oracle_check(A, None, 11)
    with pytest.raises(SizeLimitError, match="22 values"):
        arith_oracle_check(ArithIdeal(ArithRing((INT, 22)), (2, 1)), None, 10)
    monkeypatch.setattr(ar, "ORACLE_AXIS_CAP", 6)
    with pytest.raises(SizeLimitError, match="7 values"):
        amalgz_zero_transfer_check(AmalgOverZ(6, 2), ("units",), 3)
    assert amalgz_zero_transfer_check(AmalgOverZ(6, 2), ("units",), 2).window_confirms  # y takes the 6 values of Z6


def test_ungated_verdict_is_confirmed_under_its_own_oracle_key(monkeypatch, fresh_oracle):
    """Without the disjointness gate the closed form decides where S meets A: in Z with
    S = Z, s = 0 lies in every ideal, so (0) and 2Z are S-r with witness 0, and the
    oracle confirms each.  The gated and ungated questions are cached apart."""
    flags, real = [], ar._oracle_check
    monkeypatch.setattr(ar, "_oracle_check", lambda *args: flags.append(args[3]) or real(*args))
    Z = ArithRing((INT,))
    S = ArithMCS(Z, (("all",),))
    for d in (0, 2):
        A = ArithIdeal(Z, (d,))
        assert arith_is_S_r_ideal(A, S).reason == "DISJOINTNESS_VIOLATED"
        assert arith_is_S_r_ideal(A, S, enforce_disjoint=False).witness == (0,)
        assert all(arith_oracle_check(A, S, 10, flag) for flag in (True, False, True, False))
    assert flags == [True, False] * 2


def test_a_verify_pass_asks_each_oracle_question_once(monkeypatch, fresh_oracle):
    """Over the default corpus's 19 non-finite entries `verify` asks the window oracle 36
    questions, 24 of them distinct.  The memo is keyed by the arguments as passed, so a call
    site that named the gate flag or left it to its default would make more misses."""
    calls, misses, cached, check = [], [], ar.arith_oracle_check, ar._oracle_check
    counted = lambda *args, **kwargs: calls.append(args) or cached(*args, **kwargs)
    monkeypatch.setattr(ar, "arith_oracle_check", counted)
    monkeypatch.setattr(extensions, "arith_oracle_check", counted)
    monkeypatch.setattr(ar, "_oracle_check", lambda *args: misses.append(args) or check(*args))
    corpus = default_corpus()
    verify(None, CorpusSpec(tuple(e for e in corpus.entries if e.kind != FINITE), corpus.limits))
    assert (len(calls), len(misses)) == (36, 24)


def test_oracle_window_precondition(z):
    with pytest.raises(InvalidConstruction):
        arith_oracle_check(ArithIdeal(z, (6,)), None, 10)
    assert arith_oracle_check(ArithIdeal(z, (6,)), None, 12)


def test_disjointness_closed_form(zz):
    A = ArithIdeal(zz, (0, 2))
    assert arith_disjoint(A, ArithMCS(zz, (("units",), ("all",))))
    assert not arith_disjoint(A, ArithMCS(zz, (("all",), ("all",))))


def test_colon_closed_forms(z, zz):
    # (3Z : 6) = Z/gcd... {w : 6w in 3Z} = Z/ ... every w works since 3 | 6w
    assert arith_colon_element(ArithIdeal(z, (3,)), (6,)).descs == (1,)
    assert arith_colon_element(ArithIdeal(z, (4,)), (6,)).descs == (2,)
    assert arith_colon_element(ArithIdeal(z, (0,)), (5,)).descs == (0,)
    assert arith_colon_element(ArithIdeal(z, (0,)), (0,)).descs == (1,)
    A = ArithIdeal(zz, (0, 2))
    B = arith_colon_element(A, (0, 1))
    assert B.descs == (1, 2)
    K = arith_colon_ideal(A, B)
    assert K.descs == (0, 1)


def test_colon_matches_finite_ring():
    # cross-check the per-factor colon formula against the exhaustive scan
    n = 12
    R = make_zn(n)
    AR = ArithRing((mod_factor(n),))
    for d in (1, 2, 3, 4, 6, 12):
        A_fin = ideal_generate(R, [d % n])
        A_ar = ArithIdeal(AR, (d,))
        for x in range(n):
            from ringlab.ideals import colon

            expected = colon(A_fin, (x,)).members
            got_desc = arith_colon_element(A_ar, (x,)).descs[0]
            got = {w for w in range(n) if w % got_desc == 0}
            assert got == expected


def test_product_and_containment(zz):
    A = ArithIdeal(zz, (0, 2))
    B = ArithIdeal(zz, (1, 2))
    K = ArithIdeal(zz, (0, 1))
    assert arith_contains(B, A)
    assert not arith_contains(A, B)
    prod = arith_product(B, K)
    assert prod.descs == (0, 2)
    assert arith_contains(A, prod)


def test_subset_zd_and_regular_meet(zz, z):
    assert arith_subset_zd(ArithIdeal(zz, (0, 2)))
    assert not arith_subset_zd(ArithIdeal(zz, (2, 2)))
    assert not arith_subset_zd(ArithIdeal(z, (3,)))
    assert arith_meets_regulars(ArithIdeal(zz, (1, 2)))
    assert not arith_meets_regulars(ArithIdeal(zz, (0, 2)))


def test_ideal_pair_construction(zz):
    """A failing S-r ideal inside zd yields B, K with the product property."""
    A = ArithIdeal(zz, (0, 2))
    S = ArithMCS(zz, (("units",), ("units",)))
    v = arith_is_S_r_ideal(A, S)
    assert v.fails and arith_subset_zd(A)
    s = v.last_candidate
    w, x = v.counterexample
    sx = zz.mul(s, x)
    B = arith_colon_element(A, sx)
    K = arith_colon_ideal(A, B)
    assert B.descs == (1, 2) and K.descs == (0, 1)
    assert arith_meets_regulars(B)
    assert arith_contains(B, A) and B.descs != A.descs
    assert arith_contains(K, A) and K.descs != A.descs
    assert arith_contains(A, arith_product(B, K))


def _all_factor_mcs(n):
    """Every multiplicatively closed subset of Z_n containing 1."""
    elems = list(range(n))
    out = []
    for r in range(1, n + 1):
        for cand in combinations(elems, r):
            s = set(cand)
            if 1 % n not in s:
                continue
            if all((a * b) % n in s for a in s for b in s):
                out.append(frozenset(s))
    return out


@pytest.mark.parametrize("factors", [(6,), (2, 3), (4,), (2, 2)])
def test_pure_mod_matches_finite_pipeline(factors):
    """All-Z_n products must agree with the exhaustive FiniteRing verdicts."""
    AR = ArithRing(tuple(mod_factor(n) for n in factors))
    fin = make_zn(factors[0])
    for n in factors[1:]:
        fin = make_product(fin, make_zn(n))

    def index_of(coords):
        idx = 0
        for n, c in zip(factors, coords):
            idx = idx * n + (c % n)
        return idx

    divisor_lists = [[d for d in range(1, n + 1) if n % d == 0] for n in factors]
    for descs in iproduct(*divisor_lists):
        A_ar = ArithIdeal(AR, descs)
        members = [
            index_of(c)
            for c in iproduct(*[range(n) for n in factors])
            if A_ar.contains(c)
        ]
        A_fin = ideal_generate(fin, sorted(members))
        assert A_fin.members == frozenset(members)
        r_ar = arith_is_r_ideal(A_ar)
        r_fin = is_r_ideal(A_fin)
        assert r_ar.outcome == r_fin.outcome
        if A_ar.is_proper():
            assert arith_is_prime(A_ar) == is_prime(A_fin)
        factor_sets = [_all_factor_mcs(n) for n in factors]
        for sets in iproduct(*factor_sets):
            S_ar = ArithMCS(AR, tuple(("fin", s) for s in sets))
            members_s = {
                index_of(c)
                for c in iproduct(*[sorted(s) for s in sets])
            }
            S_fin = mcs_from_members(fin, members_s)
            v_ar = arith_is_S_r_ideal(A_ar, S_ar)
            v_fin = is_S_r_ideal(A_fin, S_fin)
            assert v_ar.outcome == v_fin.outcome, (descs, sets)


def test_prime_criterion_closed_form(zz):
    """For prime disjoint ideals, S-r iff inside the zero divisors."""
    primes = [
        ArithIdeal(zz, (0, 1)),
        ArithIdeal(zz, (1, 0)),
        ArithIdeal(zz, (3, 1)),
        ArithIdeal(zz, (1, 5)),
    ]
    for S_desc in ((("units",), ("units",)), (("units",), ("all",))):
        S = ArithMCS(zz, S_desc)
        for A in primes:
            assert arith_is_prime(A)
            if not arith_disjoint(A, S):
                continue
            v = arith_is_S_r_ideal(A, S)
            assert v.holds == arith_subset_zd(A), (A.descs, S_desc)


def test_oracle_agreement_over_corpus_combinations(zz, z):
    cases = [
        (ArithIdeal(z, (0,)), ArithMCS(z, (("units",),))),
        (ArithIdeal(z, (3,)), ArithMCS(z, (("units",),))),
        (ArithIdeal(z, (4,)), ArithMCS(z, (("fin", frozenset({1, -1})),))),
        (ArithIdeal(zz, (0, 2)), ArithMCS(zz, (("units",), ("all",)))),
        (ArithIdeal(zz, (0, 2)), ArithMCS(zz, (("units",), ("units",)))),
        (ArithIdeal(zz, (2, 2)), ArithMCS(zz, (("units",), ("units",)))),
    ]
    for A, S in cases:
        assert arith_oracle_check(A, None, 10)
        assert arith_oracle_check(A, S, 10)


# -- window oracle against the tuple-loop reference ----------------------------------
#
# The reference is the plain loop the vectorised oracle replaced: it walks the
# window as coordinate tuples, reducing and multiplying one pair at a time.  It
# reads the closed-form verdict through the module, so a test that swaps the
# verdict swaps it for both implementations.


def ref_window_elements(R, bound):
    return iproduct(*(range(-bound, bound + 1) if f == INT else range(f) for f in R.factors))


def ref_window_mcs(R, S, bound):
    axes = [ar._factor_candidates(S, i, bound) for i in range(R.width)]
    return [R.reduce(t) for t in iproduct(*axes)]


def ref_oracle_check(A, S, bound):
    R = A.ring
    maxdesc = max((d for f, d in zip(R.factors, A.descs) if f == INT), default=0)
    if bound < 2 * maxdesc:
        raise InvalidConstruction("window must cover twice the largest descriptor")
    verdict = ar.arith_is_r_ideal(A) if S is None else ar.arith_is_S_r_ideal(A, S)
    if verdict.not_applicable:
        return True
    cands = [None] if S is None else ref_window_mcs(R, S, bound)
    regs = [w for w in ref_window_elements(R, bound) if arith_ann_is_zero(R, w)]
    window = list(ref_window_elements(R, bound))
    mul = R.mul
    in_a = A.contains
    if verdict.holds:
        s = verdict.witness
        for z in window:
            if in_a(z) if s is None else in_a(mul(s, z)):
                continue
            for w in regs:
                if in_a(mul(w, z)):
                    return False
        return True
    for s in cands:
        found = False
        for z in window:
            if in_a(z) if s is None else in_a(mul(s, z)):
                continue
            for w in regs:
                if in_a(mul(w, z)):
                    found = True
                    break
            if found:
                break
        if not found:
            return False
    return True


def _flipped(closed_form):
    """The closed form with Holds and Fails swapped, so the window must object."""

    def flip(A, *rest):
        v = closed_form(A, *rest)
        if v.holds:
            return Verdict(FAILS)
        if v.fails:
            return Verdict(HOLDS, witness=A.ring.one() if rest else None)
        return v

    return flip


def _closure_mod(n, gens):
    members = {1 % n}
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = (a * g) % n
            if b not in members:
                members.add(b)
                frontier.append(b)
    return frozenset(members)


@st.composite
def oracle_cases(draw, pair=False):
    """(A, S, bound, flip); with pair, (A, S, bound, B, x) for a second ideal B and a window element x."""
    factors = tuple(
        draw(st.sampled_from([INT] + [mod_factor(n) for n in range(1, 9)]))
        for _ in range(draw(st.sampled_from([1, 2, 2])))
    )
    R = ArithRing(factors)

    def draw_descs():
        return tuple(
            draw(st.integers(0, 2)) if f == INT else draw(st.sampled_from([d for d in range(1, f + 1) if f % d == 0]))
            for f in factors
        )

    descs = draw_descs()
    A = ArithIdeal(R, descs)
    S = None
    if draw(st.booleans()):
        parts = []
        for f in factors:
            kind = draw(st.sampled_from(["units", "all", "fin"]))
            if kind != "fin":
                parts.append((kind,))
            elif f == INT:
                parts.append(("fin", draw(st.sampled_from([{1}, {1, -1}, {0, 1}, {0, 1, -1}]))))
            else:
                gens = draw(st.lists(st.integers(0, f - 1), max_size=2))
                parts.append(("fin", _closure_mod(f, gens)))
        S = ArithMCS(R, tuple((p[0], frozenset(p[1])) if p[0] == "fin" else p for p in parts))
    maxdesc = max((d for f, d in zip(factors, descs) if f == INT), default=0)
    bound = max(1, 2 * maxdesc + draw(st.integers(0, 1)))
    if pair:
        return A, S, bound, ArithIdeal(R, draw_descs()), draw(st.sampled_from(list(ref_window_elements(R, bound))))
    return A, S, bound, draw(st.booleans())


_ZZ = ArithRing((INT, INT))
_ZZ4 = ArithRing((INT, mod_factor(4)))
_ZZZ8 = ArithRing((INT, INT, mod_factor(8)))


# 0 x 2Z is S-r for S = units x Z, with witness (1, 0); a claimed Fails is
# refuted by that s alone, so the Fails branch must ask every window s for a
# violating pair (an any/all swap there passes these two and nothing else).
@example((ArithIdeal(_ZZ, (0, 2)), ArithMCS(_ZZ, (("units",), ("all",))), 4, True))
@example((ArithIdeal(_ZZ4, (2, 2)), ArithMCS(_ZZ4, (("all",), ("units",))), 4, True))
# three factors, which the draw never has: flipped, the Holds verdict with witness
# (1, 0, 1) becomes a Fails that the window must refute
@example((ArithIdeal(_ZZZ8, (1, 2, 4)), ArithMCS(_ZZZ8, (("units",), ("all",), ("units",))), 4, True))
@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(oracle_cases())
def test_oracle_matches_tuple_loop_reference(case):
    A, S, bound, flip = case
    with pytest.MonkeyPatch.context() as mp:
        if flip:
            mp.setattr(ar, "arith_is_r_ideal", _flipped(arith_is_r_ideal))
            mp.setattr(ar, "arith_is_S_r_ideal", _flipped(arith_is_S_r_ideal))
        assert ar._oracle_check(A, S, bound) == ref_oracle_check(A, S, bound)


def test_amalgz_confirmation_objects_to_a_flipped_closed_form(monkeypatch, fresh_oracle):
    """The amalgZ window confirms the S-r verdict of (0) in Z through arith's oracle, so a
    closed form with Holds and Fails swapped is not confirmed."""
    monkeypatch.setattr(ar, "arith_is_S_r_ideal", _flipped(arith_is_S_r_ideal))
    assert not amalgz_zero_transfer_check(AmalgOverZ(4, 2), ("units",), 10).window_confirms


# -- the sent set against the all-pairs scan ------------------------------------------


@st.composite
def factors_and_descs(draw):
    """One to three factors from Z, Z1, ..., Z12, and an ideal descriptor on each: 0 to 3
    on Z, and on Z_n a divisor of n, 1 and n included."""
    factors = tuple(draw(st.lists(st.sampled_from([INT, *range(1, 13)]), min_size=1, max_size=3)))
    descs = tuple(
        draw(st.sampled_from([0, 1, 2, 3] if n == INT else [d for d in range(1, n + 1) if n % d == 0]))
        for n in factors
    )
    return factors, descs


@st.composite
def sent_cases(draw):
    """(R, descs, bound) over factors_and_descs and bounds up to 8."""
    factors, descs = draw(factors_and_descs())
    return ArithRing(factors), descs, draw(st.integers(0, 8))


@example((ArithRing((INT, INT, INT)), (2, 2, 2), 15))  # 29,791 rows, 27,000 regular
@example((ArithRing((INT, INT, INT)), (0, 3, 2), 8))
@example((ArithRing((INT, 12, INT)), (0, 4, 0), 8))
@settings(max_examples=80, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sent_cases())
def test_sent_matches_all_pairs_reference(case):
    R, descs, bound = case
    sent = np.array(list(iproduct(*ar._sent(R, descs, bound))), dtype=np.int64).reshape(-1, R.width)
    assert np.array_equal(sent, ref_sent(R, descs, bound))


# -- every closed form against the window -------------------------------------------
#
# Each set is built from its generator by multiplying and reducing window
# tuples, never through ``contains`` or ``arith_ann_is_zero``: an ideal is the
# multiples of its descriptor tuple, a unit is a factor element with an inverse
# in the window, and a regular element kills no nonzero window element.  Z
# descriptors are at most 2 and the bound is at least twice A's largest, so every
# descriptor the closed forms return is inside the window and the window sets
# tell the ideals apart.


def ref_multiples(R, g, radius):
    """g times every window tuple of the given radius, reduced."""
    return {R.mul(g, t) for t in ref_window_elements(R, radius)}


def ref_factor_axes(R, S, bound):
    """Per factor, the window members of S and the window regular elements."""
    members, regulars = [], []
    for f, d in zip(R.factors, S.descs if S is not None else [None] * R.width):
        one = ArithRing((f,))
        axis = [t[0] for t in ref_window_elements(one, bound)]
        mul = lambda u, v: one.mul((u,), (v,))[0]
        regulars.append([u for u in axis if all(mul(u, v) != 0 for v in axis if v != 0)])
        if d is None or d[0] == "all":
            members.append(axis)
        elif d[0] == "units":
            members.append([u for u in axis if any(mul(u, v) == one.one()[0] for v in axis)])
        else:
            members.append(sorted({one.reduce((x,))[0] for x in d[1]}))
    return set(iproduct(*members)), set(iproduct(*regulars))


@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(oracle_cases(pair=True))
def test_closed_forms_match_window_reference(case):
    A, S, bound, B, x = case
    R = A.ring
    W = set(ref_window_elements(R, bound))
    reach = bound * max(bound, 2)  # covers w * z and w * descriptor for window w, z

    def window(I):
        return ref_multiples(R, I.descs, bound) & W

    in_a = ref_multiples(R, A.descs, reach)
    s_members, regs = ref_factor_axes(R, S, bound)
    assert window(arith_colon_element(A, x)) == {w for w in W if R.mul(w, x) in in_a}
    assert window(arith_colon_ideal(A, B)) == {w for w in W if R.mul(w, B.descs) in in_a}
    assert arith_contains(A, B) == (ref_multiples(R, B.descs, bound) <= in_a)
    products = {R.mul(a, b) for a in ref_multiples(R, A.descs, bound) for b in ref_multiples(R, B.descs, bound)}
    assert window(arith_product(A, B)) == products & W
    assert arith_meets_regulars(A) == bool(window(A) & regs)
    assert arith_subset_zd(A) == (not window(A) & regs)
    if S is not None:
        assert arith_disjoint(A, S) == (not s_members & in_a)
    if R.one() in in_a:
        with pytest.raises(NotProperError):
            arith_is_prime(A)
    elif arith_is_prime(A):
        # one-sided: a prime verdict admits no window pair ab in A with a, b outside A
        assert all(a in in_a or b in in_a for a in W for b in W if R.mul(a, b) in in_a)
