import random
from itertools import combinations, product
from math import prod

import numpy as np
import pytest

from ringlab.corpus import FINITE, Limits, default_corpus, parse_corpus_line
from ringlab.dsl import parse_ring
from ringlab.errors import NotProperError, TypeMismatch
from ringlab.ideals import (
    all_ideals,
    annihilator,
    bits,
    colon,
    ideal_from_members,
    ideal_generate,
    ideal_product,
    ideal_pushforward,
    ideal_sum,
    is_maximal,
    is_prime,
    jacobson_radical,
    lattice,
    localize,
    mask_of,
    max_ideals,
    mcs_from_members,
    mcs_generate,
    min_primes_over,
    prime_violation,
    spec,
)
from ringlab.registry import CASES, build_context
from ringlab.rings import FiniteRing, make_product, make_zn

from oracles import (
    CAP_EXPRS,
    CAP_RINGS,
    _ref_is_prime,
    find_isomorphism,
    localize_oracle,
    member_row,
    ref_mcs_closure,
    s_units,
    as_int16,
    validate_ideal,
)
from test_poly import SEARCH_RINGS


@pytest.fixture(scope="module")
def z12():
    return make_zn(12)


@pytest.fixture(scope="module")
def z6():
    return make_zn(6)


def test_ideal_generate_two_generators(z12):
    # oracle: all 4a + 6b mod 12
    expected = {(4 * a + 6 * b) % 12 for a in range(12) for b in range(12)}
    ideal = ideal_generate(z12, [4, 6])
    assert ideal.members == expected == {0, 2, 4, 6, 8, 10}


def test_ideal_generate_empty(z12):
    assert ideal_generate(z12, []).members == {0}


def test_ideal_generate_unit(z12):
    assert ideal_generate(z12, [5]).members == frozenset(range(12))


def test_all_ideals_z12(z12):
    lattice = all_ideals(z12)
    # divisor-lattice oracle for Z_12
    expected = [
        frozenset(range(0, 12, d)) if d else frozenset({0}) for d in (0, 6, 4, 3, 2, 1)
    ]
    assert [A.members for A in lattice] == expected
    assert len(lattice) == 6


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_all_ideals_field(p):
    assert len(all_ideals(make_zn(p))) == 2


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _cyclic_product_ideals(ns):
    """The member sets of dZ_n1 x ... x dZ_nk over every choice of divisors,
    with (x1, ..., xk) at index (...(x1 n2 + x2) n3 + ...) nk + xk."""
    out = set()
    for ds in product(*map(_divisors, ns)):
        members = [0]
        for n, d in zip(ns, ds):
            members = [i * n + x for i in members for x in range(0, n, d)]
        out.add(frozenset(members))
    return out


def test_all_ideals_product_is_componentwise():
    # ideals of a product are products of ideals: 2 x 2 for Z2 x Z2
    R = make_product(make_zn(2), make_zn(2))
    assert len(all_ideals(R)) == 4
    assert {A.members for A in all_ideals(R)} == _cyclic_product_ideals((2, 2))
    for ns in ((4, 6), (2, 2, 2, 2), (3, 5, 17)):
        ideals = all_ideals(parse_ring(" x ".join(f"Z{n}" for n in ns)))
        assert len(ideals) == len(_cyclic_product_ideals(ns))
        assert {A.members for A in ideals} == _cyclic_product_ideals(ns)
    for ns, expr in zip(CAP_RINGS, CAP_EXPRS):
        assert len(all_ideals(parse_ring(expr))) == prod(len(_divisors(n)) for n in ns), expr


def test_annihilator_examples(z12, z6):
    assert annihilator(z12, [4]).members == {y for y in range(12) if (4 * y) % 12 == 0}
    assert annihilator(z12, [4]).members == {0, 3, 6, 9}
    assert annihilator(z12, [0]).members == frozenset(range(12))
    assert annihilator(z6, [2, 3]).members == {0}


def test_colon_examples(z12):
    A4 = ideal_generate(z12, [4])
    assert colon(A4, [2]).members == {0, 2, 4, 6, 8, 10}
    for gens in ([], [6], [4], [2]):
        A = ideal_generate(z12, gens)
        assert colon(A, [1]).members == A.members
    K = [3, 4]
    zero = ideal_generate(z12, [])
    assert colon(zero, K).members == annihilator(z12, K).members


def test_colon_monotone_in_divisor(z12):
    # K inside K' shrinks the colon ideal
    A = ideal_generate(z12, [4])
    singles = [frozenset({x}) for x in range(12)]
    for K in singles:
        for Kp in (K | {y} for y in range(12)):
            assert colon(A, Kp).members <= colon(A, K).members


def test_colon_and_annihilator_are_ideals(z12):
    for K in ([2], [3, 4], [5]):
        validate_ideal(colon(ideal_generate(z12, [4]), K))
        validate_ideal(annihilator(z12, K))


def test_prime_violation_z6(z6):
    zero = ideal_generate(z6, [])
    assert prime_violation(zero) == (2, 3)
    assert not is_prime(zero)


def test_prime_and_maximal_z12(z12):
    A2 = ideal_generate(z12, [2])
    assert is_prime(A2) and is_maximal(A2)
    A4 = ideal_generate(z12, [4])
    assert not is_prime(A4) and not is_maximal(A4)
    assert {A.members for A in spec(z12)} == {
        ideal_generate(z12, [2]).members,
        ideal_generate(z12, [3]).members,
    }
    assert {A.members for A in max_ideals(z12)} == {A.members for A in spec(z12)}


def _finite_corpus_contexts():
    spec = default_corpus()
    return [build_context(e, spec.limits) for e in spec.entries if e.kind == FINITE]


def test_is_prime_matches_the_definition_over_the_corpus():
    """Primality read from the colon rows, against the definition and the pair
    scan, on every ideal of every finite default-corpus ring."""
    ideals = primes = 0
    for ctx in _finite_corpus_contexts():
        for A in all_ideals(ctx.ring):
            prime = _ref_is_prime(A)
            assert is_prime(A) == prime == (A.is_proper() and prime_violation(A) is None), (ctx.recipe, A.label())
            ideals, primes = ideals + 1, primes + prime
    assert (ideals, primes) == (846, 264)


def _moved_last(R, x):
    """The copy of R with element x at the last index and the others in order."""
    order = [y for y in R.elements() if y != x] + [x]
    at = np.argsort(order)  # at[y]: the index of y in the copy
    tables = (at[as_int16(t)[np.ix_(order, order)]] for t in (R.add, R.mul))
    return FiniteRing(*tables, labels=[R.labels[y] for y in order], recipe=R.recipe)


def test_is_prime_does_not_depend_on_the_order_of_the_elements():
    """Each nonzero element of each finite corpus ring of at most 8 elements moved
    to the last index: on Z4 with 2 last, 2 is the one x outside (0) with
    (0 : x) larger than (0), so every x outside the ideal must be read."""
    copies = 0
    for ctx in _finite_corpus_contexts():
        R = ctx.ring
        for x in range(1, R.size if R.size <= 8 else 1):
            for A in all_ideals(_moved_last(R, x)):
                assert is_prime(A) == _ref_is_prime(A), (ctx.recipe, R.labels[x], A.label())
            copies += 1
    assert copies == 107


def test_field_zero_ideal_prime():
    R = make_zn(7)
    assert is_prime(ideal_generate(R, []))


def test_min_primes(z6, z12):
    zero6 = ideal_generate(z6, [])
    mins = min_primes_over(zero6)
    assert {A.members for A in mins} == {
        ideal_generate(z6, [2]).members,
        ideal_generate(z6, [3]).members,
    }
    P = ideal_generate(z12, [3])
    assert [A.members for A in min_primes_over(P)] == [P.members]
    assert [A.members for A in min_primes_over(ideal_generate(z12, [4]))] == [
        ideal_generate(z12, [2]).members
    ]
    with pytest.raises(NotProperError):
        min_primes_over(ideal_generate(z12, [1]))


def test_min_primes_are_prime_and_contain(z12):
    for A in all_ideals(z12):
        if not A.is_proper():
            continue
        for P in min_primes_over(A):
            assert is_prime(P)
            assert A.members <= P.members


@pytest.mark.parametrize("n", [4, 6, 12, 16, 30])
def test_every_maximal_is_prime(n):
    R = make_zn(n)
    for M in max_ideals(R):
        assert is_prime(M)


def test_jacobson_radical():
    assert jacobson_radical(make_zn(12)).members == {0, 6}
    assert jacobson_radical(make_zn(7)).members == {0}
    assert jacobson_radical(make_zn(4)).members == {0, 2}


def test_mcs_generate(z12):
    assert mcs_generate(z12, [5]).members == {1, 5}
    assert mcs_generate(z12, []).members == {1}
    assert mcs_generate(z12, [2]).members == {1, 2, 4, 8}


@pytest.mark.parametrize("build", [mcs_from_members, ideal_from_members])
@pytest.mark.parametrize("members, bad", [([1, 7], 7), ([1, -1], -1), ([0, 9], 9), ([0, -2], -2)])
def test_members_out_of_range_raise_type_mismatch(z6, build, members, bad):
    with pytest.raises(TypeMismatch, match=f"member {bad} out of range"):
        build(z6, members)


def test_s_units(z12):
    S1 = mcs_generate(z12, [])
    assert s_units(z12, S1) == z12.units
    S4 = mcs_generate(z12, [4])
    assert 4 in s_units(z12, S4)
    Sall = mcs_generate(z12, list(range(12)))
    assert s_units(z12, Sall) == frozenset(range(12))


def test_localize_trivial(z12):
    result = localize(z12, mcs_generate(z12, []))
    assert result.localized.size == 12
    assert sorted(result.map.image) == list(range(12))
    assert result.kernel.members == {0}


def test_localize_z6_at_3(z6):
    result = localize(z6, mcs_generate(z6, [3]))
    assert result.absorbing_idempotent == 3
    assert result.localized.size == 2
    assert result.kernel.members == {0, 2, 4}
    assert find_isomorphism(result.localized, make_zn(2)) is not None


def test_localize_at_the_units_is_the_ring_itself():
    """S^{-1}R is R when S lies in the units.  On every finite default-corpus ring,
    localizing at the units gives R itself, the identity map and kernel (0); and
    after T2.5 (with and without its s_regular hypothesis) and T2.7 have localized
    at every catalogue m.c.s. and at the regular elements, the lattice holds R at
    e = 1 and the corner ring eR, smaller than R, at every other e."""
    corners = 0
    for ctx in _finite_corpus_contexts():
        R = ctx.ring
        result = localize(R, mcs_from_members(R, R.units))
        assert result.localized is R and result.absorbing_idempotent == R.one, ctx.recipe
        assert result.map.domain is result.map.codomain is R and result.map.image == tuple(R.elements())
        assert result.kernel.is_zero()
        for dropped in (frozenset(), frozenset({"s_regular"})):
            list(CASES["T2.5"].runner(ctx, dropped))
        list(CASES["T2.7"].runner(ctx, frozenset()))
        for e, loc in lattice(R).localizations.items():
            assert (loc.localized is R) == (e == R.one), (ctx.recipe, R.labels[e])
            assert loc.localized.size == len(set(as_int16(R.mul)[e].tolist())), (ctx.recipe, R.labels[e])
            corners += e != R.one
    assert corners == 488


def test_localize_at_existing_unit(z12):
    result = localize(z12, mcs_generate(z12, [5]))
    assert result.localized.size == 12
    assert find_isomorphism(result.localized, z12) is not None


def test_localize_oracle_trivial(z12):
    O, _ = localize_oracle(z12, mcs_generate(z12, []))
    assert O.size == 12
    assert find_isomorphism(O, z12) is not None


def test_localize_oracle_z6(z6):
    O, _ = localize_oracle(z6, mcs_generate(z6, [3]))
    assert O.size == 2


def test_localize_oracle_z12_powers_of_two(z12):
    O, _ = localize_oracle(z12, mcs_generate(z12, [2]))
    assert O.size == 3
    assert find_isomorphism(O, make_zn(3)) is not None


@pytest.mark.parametrize("n", [2, 4, 6, 8, 9, 10, 12, 15, 16])
def test_localize_matches_oracle(n):
    R = make_zn(n)
    for g in range(n):
        S = mcs_generate(R, [g])
        built = localize(R, S).localized
        oracle, _ = localize_oracle(R, S)
        assert built.size == oracle.size
        assert find_isomorphism(built, oracle) is not None


def _every_mcs(R):
    """Every multiplicatively closed subset that contains 1."""
    others = [x for x in R.elements() if x != R.one]
    for k in range(len(others) + 1):
        for extra in combinations(others, k):
            members = {R.one, *extra}
            if all(R.m(a, b) in members for a in members for b in members):
                yield mcs_from_members(R, members)


@pytest.mark.parametrize("expr", ["Z12", "Z2 x Z4"])
def test_localize_once_per_idempotent_matches_oracle(expr):
    R = parse_ring(expr)  # a fresh ring: no localization memoised yet
    by_idempotent = {}
    for S in _every_mcs(R):
        L = localize(R, S)
        oracle, cls = localize_oracle(R, S)
        natural = [cls[(a, R.one)] for a in R.elements()]  # a -> a/1
        # both maps are onto and have the same fibres
        assert L.localized.size == oracle.size == len(set(L.map.image)) == len(set(natural))
        assert len(set(zip(L.map.image, natural))) == oracle.size
        assert L.kernel.members == {a for a in R.elements() if natural[a] == natural[0]}
        assert by_idempotent.setdefault(L.absorbing_idempotent, L) is L
    assert lattice(R).localizations == by_idempotent


def test_pushforward_zero(z6):
    L = localize(z6, mcs_generate(z6, [3]))
    pushed = ideal_pushforward(L, ideal_generate(z6, []))
    assert pushed.members == {0}


def test_pushforward_kills_kernel_members(z6):
    L = localize(z6, mcs_generate(z6, [3]))
    pushed = ideal_pushforward(L, ideal_generate(z6, [2]))
    assert pushed.members == {0}  # 3*2 = 0 in Z6


def test_pushforward_under_unit_localization(z12):
    L = localize(z12, mcs_generate(z12, [5]))
    A = ideal_generate(z12, [4])
    pushed = ideal_pushforward(L, A)
    labels = {L.localized.labels[m] for m in pushed.members}
    assert labels == {z12.labels[m] for m in A.members}


def test_pushforward_generators_match_full_image(z12):
    for g in (2, 3, 4, 6):
        S = mcs_generate(z12, [g])
        L = localize(z12, S)
        for A in all_ideals(z12):
            pushed = ideal_pushforward(L, A)
            full_image = {int(L.map.image[a]) for a in A.members}
            closure = ideal_generate(L.localized, sorted(full_image))
            assert pushed.members == closure.members


def test_trivial_localization_is_lattice_identity(z12):
    L = localize(z12, mcs_generate(z12, []))
    for A in all_ideals(z12):
        pushed = ideal_pushforward(L, A)
        assert {L.localized.labels[m] for m in pushed.members} == {
            z12.labels[m] for m in A.members
        }


def test_ideal_sum_and_product(z12):
    A = ideal_generate(z12, [4])
    B = ideal_generate(z12, [6])
    assert ideal_sum(A, B).members == {0, 2, 4, 6, 8, 10}
    assert ideal_product(A, B).members == {0}  # 24 = 0 mod 12
    C = ideal_generate(z12, [2])
    assert ideal_product(C, C).members == ideal_generate(z12, [4]).members


def test_mcs_generate_matches_the_pairwise_closure():
    """Multiplying by one generator at a time reaches every product of
    generators: the powers of each single element, and random sets of two and
    three generators."""
    for expr in SEARCH_RINGS + ["Z4 x Z4"]:
        R = parse_ring(expr)
        rng = random.Random(expr)
        gen_sets = [()] + [(g,) for g in R.elements()]
        gen_sets += [tuple(rng.sample(range(R.size), min(k, R.size))) for k in (2, 3) for _ in range(5)]
        for gens in gen_sets:
            S = mcs_generate(R, gens)
            assert S.members == ref_mcs_closure(R, gens), (expr, gens)
            assert S.mask == mask_of(S.members) and S.generators == gens


def test_colon_row_at_e_is_the_preimage_of_the_pushforward():
    """The pushforward of A to eR is eA, and ex lies in eA iff ex lies in A,
    so its preimage under x -> ex is (A : e); e = 1 and e != 1 both occur
    (Z12 at S<3> localizes at e = 9)."""
    seen = set()
    for expr in SEARCH_RINGS + ["Z4 x Z4"]:
        R = parse_ring(expr)
        for S in [mcs_generate(R, ())] + [mcs_generate(R, (g,)) for g in R.elements()]:
            loc = localize(R, S)
            e = loc.absorbing_idempotent
            seen.add(e == R.one)
            for A in all_ideals(R):
                pushed = ideal_pushforward(loc, A).members
                pre = mask_of(x for x in R.elements() if loc.map.image[x] in pushed)
                assert lattice(R).colon_rows(A)[e] == pre, (expr, S.label(), A.label())
    assert seen == {True, False}


@pytest.mark.parametrize(
    "expr",
    ["Z1", "Z12", "Z2 x Z2 x Z2 x Z2", "Z4 x Z6", "triv(Z2, free(2))", "amalg(Z4, Z4, id, (2))", "loc(Z12, S<3>)"],
)
def test_element_set_views_and_relations_follow_the_mask(expr):
    """An element set stores only its mask: every view reads it, and the mask
    forms of disjointness, S inside reg and A inside zd are the set forms."""
    ctx = build_context(parse_corpus_line(expr), Limits.defaults())
    R, L = ctx.ring, lattice(ctx.ring)
    all_ideals(R)
    ideals, mcs = list(L._interned.values()), ctx.mcs_list()
    for X in ideals + list(mcs):
        elems = bits(X.mask)
        assert elems == [x for x in range(R.size) if X.mask >> x & 1]
        assert X.members == frozenset(elems) and X.sorted_members == tuple(elems)
        assert [x for x in range(-1, R.size + 1) if x in X] == elems
        assert member_row(X).tolist() == [x in X.members for x in R.elements()]
    for A in ideals:
        assert A.is_proper() == (len(A.members) < R.size)
        assert (not A.mask & L.regulars) == (A.members <= R.zero_divisors)
        assert ideal_generate(R, A.generators) is A
        relabelled = ideal_generate(R, A.generators + (0,))
        assert relabelled.mask == A.mask and relabelled != A
        for S in mcs:
            assert (not A.mask & S.mask) == (not A.members & S.members)
    for S in mcs:
        assert (not S.mask & ~L.regulars) == (S.members <= R.regulars)
