import functools
import random
import tracemalloc
from dataclasses import replace
from itertools import product as iproduct
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringlab import poly
from ringlab.classify import has_fac
from ringlab.config import DEFAULT_DEGREE, DM_MAX_DEGREE, DM_PAIRS, DM_SEED, FAC_SUBSET_CAP, POLY_SEARCH_BUDGET
from ringlab.corpus import CorpusSpec, Limits, parse_corpus_line
from ringlab.dsl import parse_ring
from ringlab.errors import DegreeLimitError, NotApplicableError
from ringlab.ideals import (
    all_ideals,
    annihilator,
    ideal_generate,
    ideal_product,
    ideal_sum,
    lattice,
    mcs_from_members,
    mcs_generate,
)
from ringlab.poly import (
    GATE_FAC,
    GATE_PROPERTY_A,
    NO,
    NO_VIOLATION_UP_TO,
    S_UNIT_ANALYTIC_NO,
    S_UNIT_NO_UP_TO,
    S_UNIT_YES,
    YES_BY_THEOREM,
    Poly,
    PolyIdealSpec,
    _dm_table,
    _group_keys,
    _randrange_block,
    _poly_tuples,
    bounded_S_r_search,
    constant,
    decide_content_S_r,
    dedekind_mertens_sweep,
    poly_eval,
    poly_s_unit_check,
)
from ringlab.registry import verify
from ringlab.rings import make_product, make_zn

from oracles import (
    content_ideal,
    content_set,
    dedekind_mertens_check,
    mccoy_regular,
    poly_add,
    poly_mul,
    ref_content_search,
    ref_dedekind_mertens_sweep,
    as_int16,
    ref_kernel_search,
    ref_poly_tuples,
)


@pytest.fixture(scope="module")
def z2():
    return make_zn(2)


@pytest.fixture(scope="module")
def z3():
    return make_zn(3)


@pytest.fixture(scope="module")
def z6():
    return make_zn(6)


@pytest.fixture(scope="module")
def z12():
    return make_zn(12)


# -- arithmetic ------------------------------------------------------------------------


def test_square_over_z2(z2):
    f = Poly.make(z2, [1, 1])
    assert poly_mul(f, f).coeffs == (1, 0, 1)


def test_multiply_by_zero(z6):
    f = Poly.make(z6, [1, 2, 3])
    assert poly_mul(f, Poly.make(z6, [])).is_zero()


def test_eval_root(z3):
    f = Poly.make(z3, [2, 1])  # x - 1
    assert poly_eval(f, 1) == 0


def test_add_cancels(z6):
    f = Poly.make(z6, [1, 3])
    g = Poly.make(z6, [5, 3])
    assert poly_add(f, g).coeffs == ()


def test_degree_cap(z2):
    f = Poly.make(z2, [1] + [0] * 4 + [1])  # degree 5
    with pytest.raises(DegreeLimitError):
        poly_mul(f, f)


def test_trailing_zeros_trimmed(z6):
    assert Poly.make(z6, [1, 0, 0]).coeffs == (1,)
    assert Poly.make(z6, [0, 0]).coeffs == ()


def test_text_rendering(z3):
    assert Poly.make(z3, [2, 1]).text() == "x+2"
    assert Poly.make(z3, [0, 2]).text() == "2x"
    assert Poly.make(z3, []).text() == "0"


# -- content ----------------------------------------------------------------------------


def test_content_of_zero(z12):
    zero = Poly.make(z12, [])
    assert content_set(zero) == {0}
    assert content_ideal(zero).members == {0}


def test_content_examples(z12):
    even = content_ideal(Poly.make(z12, [4, 2]))
    assert even.members == ideal_generate(z12, [2]).members
    full = content_ideal(Poly.make(z12, [4, 3]))
    assert full.members == frozenset(range(12))


# -- regularity ---------------------------------------------------------------------------


def test_x_always_regular(z6, z12):
    for R in (z6, z12):
        assert mccoy_regular(Poly.make(R, [0, 1]))


def test_2x_not_regular_over_z4():
    R = make_zn(4)
    assert not mccoy_regular(Poly.make(R, [0, 2]))


def test_x_minus_one_regular_over_z3(z3):
    assert mccoy_regular(Poly.make(z3, [2, 1]))


def _brute_has_annihilator(R, coeffs, gdeg):
    """Direct numpy-batched scan for nonzero g of degree <= gdeg with f*g = 0."""
    gs = np.array(list(iproduct(range(R.size), repeat=gdeg + 1)), dtype=np.intp)
    out = np.zeros((len(gs), len(coeffs) + gdeg), dtype=np.intp)
    add, mul = as_int16(R.add), as_int16(R.mul)
    for i, a in enumerate(coeffs):
        if a == 0:
            continue
        prod = mul[a, gs]
        out[:, i : i + gdeg + 1] = add[out[:, i : i + gdeg + 1], prod]
    zero_rows = (out == 0).all(axis=1)
    zero_rows[0] = False  # skip g = 0
    return bool(zero_rows.any())


def _snf_kernel_nontrivial(n, coeffs, gdeg):
    """Does the convolution system f*g = 0 have a nonzero solution mod n?

    Diagonalizes the coefficient matrix with unimodular row/column steps.
    Entries may be reduced mod n throughout: changing the matrix by
    multiples of n never changes the solution set of A g = 0 (mod n), and
    the reduction keeps every pivot below n so the elimination terminates.
    The solution count is the product of gcd(d_i, n) over the diagonal
    (missing diagonal entries count as n); g != 0 exists iff that exceeds 1.
    """
    rows = len(coeffs) + gdeg
    cols = gdeg + 1
    m = [
        [(coeffs[k - j] if 0 <= k - j < len(coeffs) else 0) % n for j in range(cols)]
        for k in range(rows)
    ]
    diag = []
    top = 0
    left = 0
    while top < rows and left < cols:
        best = None
        for i in range(top, rows):
            for j in range(left, cols):
                if m[i][j] != 0 and (best is None or m[i][j] < m[best[0]][best[1]]):
                    best = (i, j)
        if best is None:
            break
        m[top], m[best[0]] = m[best[0]], m[top]
        for row in m:
            row[left], row[best[1]] = row[best[1]], row[left]
        while True:
            progressed = False
            for i in range(top + 1, rows):
                if m[i][left] != 0:
                    q = m[i][left] // m[top][left]
                    for j in range(left, cols):
                        m[i][j] = (m[i][j] - q * m[top][j]) % n
                    if m[i][left] != 0:
                        m[top], m[i] = m[i], m[top]
                        progressed = True
            for j in range(left + 1, cols):
                if m[top][j] != 0:
                    q = m[top][j] // m[top][left]
                    for i in range(top, rows):
                        m[i][j] = (m[i][j] - q * m[i][left]) % n
                    if m[top][j] != 0:
                        for row in m:
                            row[left], row[j] = row[j], row[left]
                        progressed = True
            if not progressed:
                break
        diag.append(m[top][left])
        top += 1
        left += 1
    count = 1
    for j in range(cols):
        d = diag[j] if j < len(diag) else 0
        count *= gcd(d, n) if d else n
    return count > 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mccoy_matches_direct_search_small(n):
    R = make_zn(n)
    for coeffs in iproduct(range(n), repeat=4):
        f = Poly.make(R, coeffs)
        if f.is_zero():
            continue
        expected = not _brute_has_annihilator(R, f.coeffs, 6)
        assert mccoy_regular(f) == expected


def test_snf_oracle_agrees_with_brute_on_z6():
    rng = random.Random(11)
    R = make_zn(6)
    for _ in range(60):
        coeffs = [rng.randrange(6) for _ in range(3)]
        f = Poly.make(R, coeffs)
        if f.is_zero():
            continue
        assert _snf_kernel_nontrivial(6, f.coeffs, 3) == _brute_has_annihilator(R, f.coeffs, 3)


def test_mccoy_matches_snf_kernel_z6():
    R = make_zn(6)
    for coeffs in iproduct(range(6), repeat=4):
        f = Poly.make(R, coeffs)
        if f.is_zero():
            continue
        assert mccoy_regular(f) == (not _snf_kernel_nontrivial(6, f.coeffs, 6))


def test_mccoy_matches_snf_kernel_z12_sample():
    rng = random.Random(7)
    R = make_zn(12)
    for _ in range(300):
        coeffs = [rng.randrange(12) for _ in range(4)]
        f = Poly.make(R, coeffs)
        if f.is_zero():
            continue
        assert mccoy_regular(f) == (not _snf_kernel_nontrivial(12, f.coeffs, 6))


# -- content-product identity ----------------------------------------------------------------


def test_dm_zero_factor(z6):
    assert dedekind_mertens_check(Poly.make(z6, [1, 2]), Poly.make(z6, []))


def test_dm_identity_needs_the_exponent_off_a_gaussian_base():
    """triv(Z4, free(1)) is Z4[e]/(e^2); w = z = (2,0)x + (0,1) is e + 2x, with wz = 0
    but c(w)c(z) = (2e).  So the identity fails at m = 0 and holds at m = 1."""
    R = parse_ring("triv(Z4, free(1))")
    w = Poly.make(R, [R.labels.index("(0,1)"), R.labels.index("(2,0)")])
    assert w.text() == "(2,0)x+(0,1)"
    cw, cwz = content_ideal(w), content_ideal(poly_mul(w, w))
    assert ideal_product(cw, cw).mask != cwz.mask
    assert not poly._dm_identity(cw, cw, cwz, 0)
    assert poly._dm_identity(cw, cw, cwz, 1)


def test_dm_worked_example(z6):
    w = Poly.make(z6, [1, 2])
    z = Poly.make(z6, [2, 3])
    assert dedekind_mertens_check(w, z)


def test_dm_constants(z12):
    w = constant(z12, 2)
    z = constant(z12, 3)
    cz = content_ideal(z)
    cw = content_ideal(w)
    both = ideal_product(cz, cw)
    assert both.members == ideal_generate(z12, [6]).members
    assert dedekind_mertens_check(w, z)


@pytest.mark.parametrize("make", [lambda: make_zn(6), lambda: make_zn(12), lambda: make_product(make_zn(2), make_zn(2))])
def test_dm_seeded_sweep(make):
    checked, failure = dedekind_mertens_sweep(make(), 200, 24103)
    assert failure is None and checked == 200


def test_content_submultiplicative(z6):
    rng = random.Random(3)
    for _ in range(100):
        w = Poly.make(z6, [rng.randrange(6) for _ in range(4)])
        z = Poly.make(z6, [rng.randrange(6) for _ in range(4)])
        cwz = content_ideal(poly_mul(w, z)) if not (w.is_zero() or z.is_zero()) else None
        if cwz is None:
            continue
        prod = ideal_product(content_ideal(w), content_ideal(z))
        assert cwz.members <= prod.members


# -- bounded S-r search ------------------------------------------------------------------------


def test_kernel_search_z3(z3):
    spec = PolyIdealSpec.eval_kernel(1, ideal_generate(z3, []))
    S = mcs_generate(z3, [2])
    v = bounded_S_r_search(spec, S, 3)
    assert v.outcome == NO
    assert v.witness_degree == 1
    w, z = v.pair
    assert w.text() == "x+2" and z.text() == "1"
    # replay: the pair genuinely defeats every s
    assert mccoy_regular(w)
    assert poly_eval(poly_mul(w, z), 1) == 0
    for s in S.sorted_members:
        assert poly_eval(poly_mul(constant(z3, s), z), 1) != 0


def test_kernel_search_z2(z2):
    spec = PolyIdealSpec.eval_kernel(1, ideal_generate(z2, []))
    v = bounded_S_r_search(spec, mcs_generate(z2, []), 3)
    assert v.outcome == NO
    assert v.pair[0].text() == "x+1" and v.pair[1].text() == "1"
    assert v.witness_degree == 1


def test_content_zero_ideal_never_violates(z2, z3):
    for R in (z2, z3):
        spec = PolyIdealSpec.content(ideal_generate(R, []))
        for S in (mcs_generate(R, []), mcs_from_members(R, R.units)):
            v = bounded_S_r_search(spec, S, 3)
            assert v.outcome == NO_VIOLATION_UP_TO
            assert v.bound == 3


def test_content_search_on_finite_base_sees_no_violation(z6):
    for A in all_ideals(z6):
        if not A.is_proper():
            continue
        S = mcs_generate(z6, [])
        v = bounded_S_r_search(PolyIdealSpec.content(A), S, 2)
        assert v.outcome == NO_VIOLATION_UP_TO


# -- gate decisions ------------------------------------------------------------------------------


def test_decide_via_property_a_gate(z12):
    A = ideal_generate(z12, [2])
    v = decide_content_S_r(A, mcs_generate(z12, []))
    assert v.outcome == YES_BY_THEOREM
    assert v.gate == GATE_PROPERTY_A  # fac fails on Z12, property A carries it


def test_decide_via_fac_gate(z3):
    A = ideal_generate(z3, [])
    v = decide_content_S_r(A, mcs_generate(z3, [2]))
    assert v.outcome == YES_BY_THEOREM
    assert v.gate == GATE_FAC


def test_decide_falls_back_to_search(z12):
    # fac fails; S contains a zero divisor so the regularity gate closes too
    A = ideal_generate(z12, [3])
    S = mcs_generate(z12, [4])
    v = decide_content_S_r(A, S)
    assert v.gate is None
    assert v.outcome == NO_VIOLATION_UP_TO


def test_content_decision_defaults_are_the_config_caps():
    for expr in ("Z4", "Z6", "Z2 x Z2", "Z8"):
        R = parse_ring(expr)
        assert has_fac(R) == has_fac(R, FAC_SUBSET_CAP)
        for A in all_ideals(R):
            for S in (mcs_generate(R, []), *(mcs_generate(R, [x]) for x in range(R.size))):
                if A.is_proper() and not A.mask & S.mask:
                    assert decide_content_S_r(A, S) == decide_content_S_r(A, S, DEFAULT_DEGREE, FAC_SUBSET_CAP)


def test_decide_disjointness_error(z12):
    A = ideal_generate(z12, [2])
    S = mcs_generate(z12, [2])
    with pytest.raises(NotApplicableError):
        decide_content_S_r(A, S)


def test_gate_coherence_with_bounded_search(z6):
    for A in all_ideals(z6):
        if not A.is_proper():
            continue
        for S in (mcs_generate(z6, []), mcs_from_members(z6, z6.units)):
            if S.members & A.members:
                continue
            v = decide_content_S_r(A, S)
            if v.outcome == YES_BY_THEOREM:
                check = bounded_S_r_search(PolyIdealSpec.content(A), S, 3)
                assert check.outcome == NO_VIOLATION_UP_TO


# -- S-units in the polynomial ring ----------------------------------------------------------------


def test_x_is_analytically_blocked(z3):
    S = mcs_generate(z3, [2])
    res = poly_s_unit_check(Poly.make(z3, [0, 1]), S, 3)
    assert res.kind == S_UNIT_ANALYTIC_NO


def test_constant_in_s_is_an_s_unit(z3):
    S = mcs_generate(z3, [2])
    res = poly_s_unit_check(constant(z3, 2), S, 3)
    assert res.kind == S_UNIT_YES
    assert res.witness.text() == "1"


def test_root_obstruction_reported(z2):
    S = mcs_generate(z2, [])
    res = poly_s_unit_check(Poly.make(z2, [1, 1]), S, 4)
    assert res.kind == S_UNIT_NO_UP_TO
    assert res.obstructions == (1,)


def test_negative_degree_is_refused():
    """(1+2x)^2 = 1 over Z4, so a degree -1 search must not report "no"."""
    z4 = make_zn(4)
    S = mcs_generate(z4, [])
    with pytest.raises(DegreeLimitError):
        poly_s_unit_check(Poly.make(z4, [1, 2]), S, -1)
    B = ideal_generate(z4, [2])
    for spec in (PolyIdealSpec.content(B), PolyIdealSpec.eval_kernel(1, B)):
        with pytest.raises(DegreeLimitError):
            bounded_S_r_search(spec, S, -1)


def test_search_budget_counts_every_examined_tuple(monkeypatch, z2, z3):
    """A walk is sized by its tuple count before its first tuple.  The s-unit search at
    degree 2 over Z2 has 2^3 - 1 = 7 tuples: a budget of 7 lets it run, and one of 6
    refuses it with no product taken.  The kernel search walks the 3^2 - 1 = 8 tuples of
    degree <= 1 over Z3 whatever its degree: a budget of 8 lets it run at degree 3 and 8,
    and one of 7 refuses it."""
    f, S = Poly.make(z2, [1, 1]), mcs_generate(z2, [])
    kernel = PolyIdealSpec.eval_kernel(1, ideal_generate(z3, []))
    S3 = mcs_generate(z3, [1, 2])
    products = []
    real = poly._product
    monkeypatch.setattr(poly, "_product", lambda *fg: products.append(fg) or real(*fg))
    monkeypatch.setattr(poly, "POLY_SEARCH_BUDGET", 7)
    assert poly_s_unit_check(f, S, 2).kind == S_UNIT_NO_UP_TO
    assert len(products) == 7
    monkeypatch.setattr(poly, "POLY_SEARCH_BUDGET", 6)
    refusal = "a search of the 7 polynomials of degree <= 2 over 2 elements exceeds the budget 6"
    with pytest.raises(DegreeLimitError, match=refusal):
        _poly_tuples(2, 2)
    with pytest.raises(DegreeLimitError, match=refusal):
        poly_s_unit_check(f, S, 2)
    assert len(products) == 7
    monkeypatch.setattr(poly, "POLY_SEARCH_BUDGET", 8)
    for degree in (3, 8):
        assert bounded_S_r_search(kernel, S3, degree).pair[0].coeffs == (2, 1)
    monkeypatch.setattr(poly, "POLY_SEARCH_BUDGET", 7)
    with pytest.raises(DegreeLimitError, match="a search of the 8 polynomials of degree <= 1 over 3 elements"):
        bounded_S_r_search(kernel, S3, 3)



@pytest.mark.parametrize(
    "size,degree,fits",
    [(16, 4, True), (4, 8, True), (5, 6, True), (6, 6, True), (8, 5, True), (18, 4, False), (16, 5, False)],
)
def test_search_budget_fits_the_searches_that_end_within_seconds(size, degree, fits):
    """A search walks at most size^(degree + 1) - 1 tuples.  Those up to degree 4 over Z16
    (about 7 s for an s-unit check with no answer) fit the budget; Z18 at degree 4 and Z16
    at degree 5 are refused before their first tuple."""
    assert (size ** (degree + 1) - 1 <= POLY_SEARCH_BUDGET) == fits

# -- content search against the loop reference --------------------------------------------
#
# The reference (`oracles.ref_content_search`) is the full-degree scan over R/A;
# the search returns NO_VIOLATION_UP_TO at once, since over a finite base only R
# has zero annihilator.


def _search_mcs(R, A):
    """{1}, the units, and the closure of the first element whose powers avoid A."""
    out = [mcs_generate(R, []), mcs_from_members(R, R.units)]
    for a in R.elements():
        S = mcs_generate(R, [a])
        if a not in R.units and not S.members & A.members:
            out.append(S)
            break
    return [S for S in out if not S.members & A.members]


SEARCH_RINGS = [f"Z{n}" for n in range(2, 13)] + ["Z4 x Z2", "triv(Z2, free(1))"]


@functools.cache
def _reference_scans(expr):
    """(A, S, degree, reference verdict) for every proper A, `_search_mcs` set and
    degree 0-2 over expr's ring; both tests that read it share one scan per ring."""
    R = parse_ring(expr)
    return [
        (A, S, degree, ref_content_search(A, S, degree))
        for A in all_ideals(R) if A.is_proper() for S in _search_mcs(R, A) for degree in range(3)
    ]


@pytest.mark.parametrize("expr", SEARCH_RINGS)
def test_content_search_matches_loop_reference(expr):
    for A, S, degree, ref in _reference_scans(expr):
        assert bounded_S_r_search(PolyIdealSpec.content(A), S, degree) == ref, (A, S, degree)


KERNEL_RINGS = SEARCH_RINGS + ["Z2 x Z2 x Z2"]


def test_kernel_search_matches_the_enumeration():
    """The kernel verdict is a closed form (NO iff the degree is at least 1 and S misses
    B) and its pair comes from a walk of degree <= 1 only; the enumeration over every
    degree up to D gives the same whole verdict, pair included, for every ideal B, point
    a and monogenic S of each ring at D <= 2."""
    cases = 0
    for expr in KERNEL_RINGS:
        R = parse_ring(expr)
        monogenic = {S.mask: S for S in (mcs_generate(R, [g]) for g in R.elements())}.values()
        for B, a, S, degree in iproduct(all_ideals(R), R.elements(), monogenic, range(3)):
            spec = PolyIdealSpec.eval_kernel(a, B)
            assert bounded_S_r_search(spec, S, degree) == ref_kernel_search(spec, S, degree), (expr, B, a, S, degree)
            cases += 1
    assert cases >= 6990, cases


def _faked_mask_case(data):
    """Fake some annihilator masks, so lifts can be regular and the reference
    content scan finds pairs.  Random masks also make a lift's regularity depend on repeated
    residues.  Returns (A, S, degree)."""
    R = parse_ring(data.draw(st.sampled_from(["Z4", "Z6", "Z8", "Z2 x Z2", "Z4 x Z2", "triv(Z2, free(1))"])))
    lat = lattice(R)  # R is fresh, so the faked table reaches no other test
    fake = data.draw(st.dictionaries(st.integers(1, R.size - 1), st.integers(0, lat.full) | st.just(0)))
    lat.ann = tuple(fake[a] | 1 if a in fake else m for a, m in enumerate(lat.ann))
    A = data.draw(st.sampled_from([A for A in all_ideals(R) if A.is_proper()]))
    S = data.draw(st.sampled_from(_search_mcs(R, A)))
    return A, S, data.draw(st.integers(0, 2))


def _first_hit_is_constant(v):
    return v.outcome == NO_VIOLATION_UP_TO or v.pair[1].degree == 0


@pytest.mark.parametrize("expr", SEARCH_RINGS)
def test_ideal_with_zero_annihilator_is_whole_ring(expr):
    """Why no content search on a finite base returns NO: a regular polynomial
    has content with zero annihilator, and only the whole ring has one."""
    R = parse_ring(expr)
    for A in all_ideals(R):
        if annihilator(R, A.members).members == {0}:
            assert not A.is_proper(), A.label()


@pytest.mark.parametrize("expr", SEARCH_RINGS)
def test_reference_scan_first_hits_a_constant(expr):
    """McCoy's theorem: the full-degree scan never finds its first hit above degree 0."""
    for A, S, degree, ref in _reference_scans(expr):
        assert _first_hit_is_constant(ref), (A, S, degree, ref)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_reference_scan_first_hits_a_constant_when_lifts_are_regular(data):
    A, S, degree = _faked_mask_case(data)
    v = ref_content_search(A, S, degree)
    assert _first_hit_is_constant(v), (A, S, degree, v)


@pytest.mark.parametrize("size", [2, 3, 5])
def test_coefficient_rows_in_poly_tuple_order(size):
    """_poly_tuples enumerates coefficient tuples as the reference does."""
    assert list(_poly_tuples(size, 2)) == list(ref_poly_tuples(size, 2))


# -- the Dedekind-Mertens sweep against the per-pair loop --------------------------------------
#
# The sweep keys every drawn pair by (c(w), c(z), c(wz), deg w) in one table step and
# decides the identity once per distinct key; the reference checks pair by pair.

CORPUS_BASES = ["Z2", "Z3", "Z6", "Z12"]  # the default corpus's polyring entries
DM_RINGS = SEARCH_RINGS + ["Z16", "Z2 x Z2 x Z2"]
DM_SEEDS = (DM_SEED, 0, 1)


def _dm_outcome(sweep, R, pairs, seed, max_degree):
    checked, failure = sweep(R, pairs, seed, max_degree)
    return checked, failure and (failure[0].text(), failure[1].text())


@pytest.mark.parametrize("expr", DM_RINGS)
def test_dm_sweep_matches_per_pair_loop(expr):
    # Short sweeps at every seed and degree; full 1,000-pair sweeps at the
    # registry's seed and degree, and on the corpus bases at every seed and
    # degree (the loop costs about 9 s over the whole grid).
    R = parse_ring(expr)
    full = {(DM_SEED, DM_MAX_DEGREE)}
    if expr in CORPUS_BASES:
        full |= {(seed, DM_MAX_DEGREE) for seed in DM_SEEDS} | {(DM_SEED, d) for d in range(5)}
    for seed, max_degree in iproduct(DM_SEEDS, range(5)):
        for pairs in (0, 1, 7) + ((DM_PAIRS,) if (seed, max_degree) in full else ()):
            got = _dm_outcome(dedekind_mertens_sweep, R, pairs, seed, max_degree)
            assert got == _dm_outcome(ref_dedekind_mertens_sweep, R, pairs, seed, max_degree) == (pairs, None)


@pytest.mark.parametrize("seed", DM_SEEDS)
@pytest.mark.parametrize("expr, ideals", [(" x ".join(["Z2"] * 6), 64), ("triv(Z2, free(5))", 375)])
def test_dm_sweep_matches_per_pair_loop_on_64_ideals(expr, ideals, seed):
    """Bases whose join tables are 64 and 375 ideals wide, at degree 4: past 256 ideals a
    content index no longer fits in a byte."""
    R = parse_ring(expr)
    assert len(lattice(R).ideals) == ideals
    got = _dm_outcome(dedekind_mertens_sweep, R, 7, seed, 4)
    assert got == _dm_outcome(ref_dedekind_mertens_sweep, R, 7, seed, 4) == (7, None)


@pytest.mark.parametrize("expr", DM_RINGS + ["triv(Z4, free(1))"])
def test_join_table_entries_are_ideal_sums(expr):
    R = parse_ring(expr)
    ideals = lattice(R).ideals
    index = {A.mask: i for i, A in enumerate(ideals)}
    table = as_int16(lattice(R).join_table)
    assert table.shape == (len(ideals), R.size)
    for c, A in enumerate(ideals):
        for a in R.elements():
            assert table[c, a] == index[ideal_sum(A, ideal_generate(R, (a,))).mask]


def test_join_table_of_256_ideals_stays_within_a_few_mb():
    """The table of Z2^8 is 256 x 256 entries, 0.5 MB; an ideals^2 x n boolean
    temporary alone would be 16 MB."""
    L = lattice(parse_ring(" x ".join(["Z2"] * 8)))
    assert len(L.ideals) == 256
    L.__dict__.pop("join_table", None)
    tracemalloc.start()
    try:
        table = L.join_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    index = {A.mask: i for i, A in enumerate(L.ideals)}
    assert as_int16(table)[0].tolist() == [index[L.principal[a]] for a in range(256)]  # (0) + Ra = Ra


@pytest.mark.parametrize("expr", DM_RINGS)
def test_dm_sweep_refuses_the_same_pair_past_the_degree_cap(monkeypatch, expr):
    """At degree 5 two factors can multiply to degree 10, past the cap of 8, so every sweep
    is refused before `_dm_table` draws a pair, whatever its pair count and seed.  At
    degrees 0-4 the per-pair loop stays the sweep's reference."""
    R = parse_ring(expr)
    monkeypatch.setattr(poly, "_dm_table", lambda *args: pytest.fail("_dm_table called"))
    for pairs, seed in iproduct((0, 1, 7, DM_PAIRS), DM_SEEDS):
        with pytest.raises(DegreeLimitError, match="^a sweep of degree 5 takes products of degree up to 10, past the cap 8$"):
            dedekind_mertens_sweep(R, pairs, seed, 5)


# triv(Z4, free(1)) is Z4[e]/(e^2), which is not Gaussian: at degree 1 some drawn
# pairs have c(wz) strictly inside c(w)c(z).  On every other base here no drawn pair
# has.  The bases of at most 16 elements and 16 ideals are keyed by translates, the
# rest by gathers: triv(Z2, free(3)) has 16 elements and 17 ideals, Z2^5 32 elements.
DM_KEY_BASES = CORPUS_BASES + ["Z2 x Z2 x Z2 x Z2", "Z16", "Z4 x Z4", "triv(Z2, free(3))", "Z2 x Z2 x Z2 x Z2 x Z2"]


@pytest.mark.parametrize(
    "expr, max_degree", [(e, d) for e in DM_KEY_BASES for d in (0, 1, DM_MAX_DEGREE)] + [("triv(Z4, free(1))", 1)]
)
def test_dm_table_keys_match_per_pair_contents(expr, max_degree):
    R = parse_ring(expr)
    t = _dm_table(R, DM_PAIRS, DM_SEED, max_degree)
    ideals = lattice(R).ideals
    rng = random.Random(DM_SEED)
    gaps = 0
    for wc, zc, (cw, cz, cwz, m) in zip(as_int16(t.w).tolist(), as_int16(t.z).tolist(), as_int16(t.keys).tolist()):
        assert wc == [rng.randrange(R.size) for _ in range(max_degree + 1)]
        assert zc == [rng.randrange(R.size) for _ in range(max_degree + 1)]
        w, z = Poly.make(R, wc), Poly.make(R, zc)
        assert ideals[cw].mask == content_ideal(w).mask
        assert ideals[cz].mask == content_ideal(z).mask
        assert ideals[cwz].mask == content_ideal(poly_mul(w, z)).mask
        assert m == max(w.degree, 0)
        gaps += ideal_product(ideals[cw], ideals[cz]).mask != ideals[cwz].mask
    assert (gaps > 0) == (expr == "triv(Z4, free(1))")


@pytest.mark.parametrize("expr", ["Z2 x Z2 x Z2 x Z2", "Z12"])
def test_dm_key_groups_match_unique_rows(expr):
    """The sweep groups its pairs by key: the distinct keys, their order and each pair's
    group are those of np.unique(axis=0), on a base of 16 ideals at degree 4 and on a
    corpus base, and on every key of a small grid, which holds keys the drawn ones do not:
    on both bases no column after the first reaches 0 in them."""
    R = parse_ring(expr)
    assert len(lattice(R).ideals) == (16 if expr.startswith("Z2") else 6)
    grid = np.indices((3, 2, 3, 5)).reshape(4, -1).T
    for keys in (_dm_table(R, DM_PAIRS, DM_SEED, 4).keys, grid, grid[::-1]):
        distinct, inverse = _group_keys(keys)
        want_distinct, want_inverse = np.unique(keys, axis=0, return_inverse=True)
        assert np.array_equal(distinct, want_distinct) and np.array_equal(inverse, want_inverse.reshape(-1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12, 16, 17, 255, 256])
def test_randrange_block_matches_the_randrange_loop(n):
    for count in (0, 1, 7, 10_000):
        for seed in (DM_SEED, 0, 1):
            rng = random.Random(seed)
            assert as_int16(_randrange_block(random.Random(seed), n, count)).tolist() == [rng.randrange(n) for _ in range(count)]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_dm_sweep_reports_a_faked_failure_like_the_loop(monkeypatch, where):
    """Fail the identity on one key, whose first pair sits first, in the middle
    or last of the sweep: sweep, loop and DM record agree on the failing pair."""
    R = parse_ring("Z12")
    t = _dm_table(R, DM_PAIRS, DM_SEED, DM_MAX_DEGREE)
    keys = [tuple(k) for k in as_int16(t.keys).tolist()]
    late = max(keys.index(k) for k in set(keys))  # the key seen last for the first time
    at, pairs = {"first": (0, DM_PAIRS), "middle": (late, 2 * late + 1), "last": (late, late + 1)}[where]
    ideals = lattice(R).ideals
    cw, cz, cwz, m = keys[at]
    faked = (ideals[cw].mask, ideals[cz].mask, ideals[cwz].mask, m)
    real = poly._dm_identity
    monkeypatch.setattr(poly, "_dm_identity", lambda *k: (k[0].mask, k[1].mask, k[2].mask, k[3]) != faked and real(*k))

    got = _dm_outcome(dedekind_mertens_sweep, R, pairs, DM_SEED, DM_MAX_DEGREE)
    assert got == _dm_outcome(ref_dedekind_mertens_sweep, R, pairs, DM_SEED, DM_MAX_DEGREE)
    assert got[0] == at and got[1] == (Poly.make(R, t.w[at]).text(), Poly.make(R, t.z[at]).text())
    corpus = CorpusSpec((parse_corpus_line("polyring(Z12)"),), replace(Limits.defaults(), dm_pairs=pairs))
    [record] = verify(("DM",), corpus)
    assert record["outcome"] == "VIOLATION"
    assert record["detail"] == {"checked": at, "failure": dict(zip("wz", got[1]))}
