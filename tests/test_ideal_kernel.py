"""The bitmask ideal kernel against a frozenset reference, and its cache scoping.

The reference functions below are the plain frozenset implementations the
kernel replaced: set sums through the addition table, the breadth-first
closure for the lattice, and numpy boolean masks for annihilators and
colons.  They keep no state, so every kernel answer is checked against a
fresh recomputation.
"""

import gc
import random
import sys
import weakref
from functools import reduce
from itertools import combinations
from operator import or_

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ringlab.dsl import parse_ring
from ringlab.ideals import (
    _sum_sets,
    all_ideals,
    annihilator,
    bits,
    colon,
    ideal_from_members,
    ideal_generate,
    ideal_product,
    ideal_sum,
    lattice,
    mask_of,
    members,
)
from ringlab.rings import make_product, make_quotient, make_zn

from oracles import CAP_EXPRS, CORPUS_RING_EXPRS, ref_bits, ref_colon_mask, ref_ideal_masks, ref_principal, as_int16
from test_poly import SEARCH_RINGS

def test_mask_decoders_match_the_per_bit_loop():
    """bits and members against the loop that takes off one set bit per step: at the
    ends of the 256-bit range, and on four seeded masks of every width from 1 to 256."""
    rng = random.Random(51)
    masks = [0, 1, 1 << 255, (1 << 256) - 1]
    masks += [rng.getrandbits(width) | 1 << (width - 1) for width in range(1, 257) for _ in range(4)]
    for mask in masks:
        want = ref_bits(mask)
        assert bits(mask) == want, mask
        assert members(mask) == bytes(want), mask


# -- frozenset reference ----------------------------------------------------------


def ref_sum_sets(R, xs, ys):
    add = as_int16(R.add)
    return frozenset(int(add[x, y]) for x in xs for y in ys)


def ref_generate(R, gens):
    members = frozenset({0})
    for g in sorted(set(gens)):
        if g not in members:
            members = ref_sum_sets(R, members, ref_principal(R, g))
    return members


def ref_canonical_generators(R, members):
    gens = []
    have = frozenset({0})
    for a in sorted(members):
        if a not in have:
            gens.append(a)
            have = ref_sum_sets(R, have, ref_principal(R, a))
    return tuple(gens)


def ref_all_ideals(R):
    seen = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        base = frontier.pop()
        for a in R.elements():
            if a not in base:
                grown = ref_sum_sets(R, base, ref_principal(R, a))
                if grown not in seen:
                    seen.add(grown)
                    frontier.append(grown)
    return sorted(seen, key=lambda s: (len(s), tuple(sorted(s))))


def ref_annihilator(R, T):
    mask = np.ones(R.size, dtype=bool)
    for t in T:
        mask &= as_int16(R.mul)[:, t] == 0
    return frozenset(int(v) for v in np.where(mask)[0])


def ref_colon(R, members, K):
    in_a = np.zeros(R.size, dtype=bool)
    in_a[list(members)] = True
    ks = np.fromiter(K, dtype=np.intp)
    mask = in_a[as_int16(R.mul)[:, ks]].all(axis=1) if len(ks) else np.ones(R.size, dtype=bool)
    return frozenset(int(v) for v in np.where(mask)[0])


def ref_product(R, xs, ys):
    mul = as_int16(R.mul)
    return ref_generate(R, {int(mul[x, y]) for x in xs for y in ys})


# -- small rings from the grammar ---------------------------------------------------


@st.composite
def small_rings(draw):
    kind = draw(st.sampled_from(["zn", "product", "quotient", "triv"]))
    if kind == "zn":
        return make_zn(draw(st.integers(1, 36)))
    if kind == "product":
        a = draw(st.integers(2, 16))
        b = draw(st.integers(2, 64 // a))
        return make_product(make_zn(a), make_zn(b))
    if kind == "quotient":
        base = draw(st.sampled_from(["Z36", "Z2 x Z4", "Z4 x Z6", "Z2 x Z2 x Z8", "Z3 x Z9"]))
        R = parse_ring(base)
        g = draw(st.integers(0, R.size - 1))
        return make_quotient(R, ideal_generate(R, (g,)))[0]
    return parse_ring(draw(st.sampled_from(
        ["triv(Z2, free(1))", "triv(Z4, free(1))", "triv(Z6, free(1))", "triv(Z8, free(1))",
         "triv(Z2, free(2))", "triv(Z3, free(1))", "triv(Z4, quot(2))", "triv(Z2, free(3))"]
    )))


def _sample(rng, items, k):
    items = list(items)
    return items if len(items) <= k else rng.sample(items, k)


@settings(max_examples=40, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(R=small_rings(), rng=st.randoms(use_true_random=False))
def test_kernel_matches_frozenset_reference(R, rng):
    ideals = all_ideals(R)
    reference = ref_all_ideals(R)
    assert [A.members for A in ideals] == reference
    assert [A.generators for A in ideals] == [ref_canonical_generators(R, s) for s in reference]
    for A in ideals:
        assert ideal_from_members(R, A.members) is A
        assert ideal_generate(R, A.generators) is A
    for g in R.elements():
        assert frozenset(bits(lattice(R).principal[g])) == ref_principal(R, g)
        ann = annihilator(R, (g,))
        assert ann.members == ref_annihilator(R, (g,))
        assert ann.generators == ref_canonical_generators(R, ann.members)
    subsets = [tuple(rng.sample(range(R.size), rng.randint(0, min(4, R.size)))) for _ in range(6)]
    subsets += [A.sorted_members for A in _sample(rng, ideals, 4)]
    for T in subsets:
        assert annihilator(R, T).members == ref_annihilator(R, T)
        assert _sum_sets(R, T, subsets[0]) == ref_sum_sets(R, T, subsets[0])
        for A in _sample(rng, ideals, 5):
            got = colon(A, T)
            assert got.members == ref_colon(R, A.members, T)
            assert got.generators == ref_canonical_generators(R, got.members)
    for A, B in _sample(rng, combinations(ideals, 2), 25):
        total = ideal_sum(A, B)
        assert total.members == ref_sum_sets(R, A.members, B.members)
        assert total.generators == ref_canonical_generators(R, total.members)
        assert ideal_product(A, B).members == ref_product(R, A.members, B.members)
        assert ideal_product(B, A).members == ref_product(R, A.members, B.members)


def test_generated_ideal_keeps_the_given_generators():
    R = make_zn(12)
    A = ideal_generate(R, (6, 4))
    assert A.generators == (6, 4) and A.label() == "(6,4)"
    assert A.members == ref_generate(R, (4, 6))
    assert ideal_from_members(R, A.members).generators == (2,)


# -- cache scoping ----------------------------------------------------------------------


def test_equal_members_on_two_rings_get_their_own_answers():
    z4 = make_zn(4)
    v4 = make_product(make_zn(2), make_zn(2))  # index 2 is (1,0)
    A4, AV = ideal_from_members(z4, {0, 2}), ideal_from_members(v4, {0, 2})
    assert A4.ring is z4 and AV.ring is v4
    assert A4.generators == (2,) and AV.generators == (2,)
    assert annihilator(z4, (2,)).members == {0, 2}
    assert annihilator(v4, (2,)).members == {0, 1}
    assert colon(A4, (2,)).members == frozenset(range(4))
    assert colon(AV, (1,)).members == {0, 2}
    assert ideal_sum(A4, ideal_generate(z4, (1,))).members == frozenset(range(4))
    assert len(all_ideals(z4)) == 3 and len(all_ideals(v4)) == 4
    for R in (z4, v4):
        for A in all_ideals(R):
            assert A.ring is R
            assert colon(A, (2,)).members == ref_colon(R, A.members, (2,))


def test_equal_members_intern_to_one_ideal():
    R = make_zn(12)
    A = ideal_from_members(R, [0, 4, 8])
    assert ideal_from_members(R, (8, 4, 0, 4)) is A
    assert annihilator(R, (3,)) is A
    assert colon(ideal_generate(R, ()), (3, 9)) is A
    assert ideal_generate(R, (4,)) is A
    assert ideal_sum(A, ideal_generate(R, (8,))) is A
    assert A in all_ideals(R) and next(B for B in all_ideals(R) if B.members == A.members) is A


def test_colon_ignores_order_and_duplicates():
    R = make_zn(24)
    A = ideal_generate(R, (8,))
    first = colon(A, (4, 6))
    assert colon(A, (6, 4)) is first
    assert colon(A, [6, 4, 4, 6, 6]) is first
    assert colon(A, frozenset({4, 6})) is first
    assert first.members == ref_colon(R, A.members, (4, 6))


@pytest.mark.parametrize("expr", SEARCH_RINGS + ["Z2 x Z2 x Z2", "triv(Z2, free(3))", "Z16/(8)"])
def test_colon_rows_match_the_column_test(expr):
    R = parse_ring(expr)
    L = lattice(R)
    rng = random.Random(expr)
    ideals = all_ideals(R)
    for A in ideals:
        assert L.colon_rows(A) == [ref_colon_mask(A, 1 << x) for x in R.elements()]
        for ks in [0] + [B.mask for B in ideals] + [rng.getrandbits(R.size) for _ in range(8)]:
            assert L.colon(A, ks).mask == ref_colon_mask(A, ks), (A.label(), ks)


def _populated_ring():
    R = make_zn(12)
    lattice = all_ideals(R)
    for A in lattice:
        annihilator(R, A.members)
        for B in lattice:
            colon(A, B.generators)
            ideal_sum(A, B)
            ideal_product(A, B)
    return R


def test_ring_with_a_populated_lattice_is_collected():
    R = _populated_ring()
    alive = weakref.ref(R)
    ring_id = id(R)
    for mod in [m for name, m in sys.modules.items() if name.startswith("ringlab")]:
        for value in vars(mod).values():
            if isinstance(value, dict):
                assert ring_id not in value
    del R
    gc.collect()
    assert alive() is None


def test_lattice_join_matches_ideal_sum():
    for expr in SEARCH_RINGS + ["Z4 x Z4"]:
        R = parse_ring(expr)
        for A in all_ideals(R):
            for B in all_ideals(R):
                assert lattice(R).join(A, B) is ideal_sum(A, B), (expr, A.label(), B.label())


LATTICE_RINGS = (
    ["Z1"]
    + [" x ".join(["Z2"] * k) for k in range(1, 7)]
    + ["Z4 x Z4 x Z2", "Z2 x Z2 x Z8", "Z3 x Z9"]
    + CAP_EXPRS
    + ["amalg(Z4, Z4, id, (2))", "amalg(Z2 x Z2, Z2 x Z2, id, ((1,0)))", "triv(Z2, free(3))", "Z16/(8)",
       "loc(Z12, S<3>)", "triv(Z2, free(5))", "Z128 x Z2"]
)


@pytest.mark.parametrize("expr", LATTICE_RINGS)
def test_lattice_matches_the_closure_over_every_principal_ideal(expr):
    R = parse_ring(expr)
    masks = ref_ideal_masks(R)
    ideals = all_ideals(R)
    assert [A.mask for A in ideals] == list(masks)
    assert [A.members for A in ideals] == [frozenset(bits(m)) for m in masks]
    assert [A.generators for A in ideals] == [ref_canonical_generators(R, frozenset(bits(m))) for m in masks]
    for g in R.elements():
        assert frozenset(bits(lattice(R).principal[g])) == ref_principal(R, g)


def _greedy_generators(L, mask):
    """The generator loop that walks every member: each member outside the ideal
    generated so far is the next generator."""
    gens, have = [], 1
    for a in bits(mask):
        if not have >> a & 1:
            gens.append(a)
            have = L.sum(have, L.principal[a])
    return tuple(gens)


def test_lattice_order_generators_and_sums_on_the_corpus_rings():
    """The bit-reversal sort, the lowest-missing-bit generators and the one-unpack
    sums give the masks, order, generators and sums of the member-walking forms."""
    for expr in CORPUS_RING_EXPRS + ["Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2"]:
        R = parse_ring(expr)
        L = lattice(R)
        masks = ref_ideal_masks(R)
        assert [A.mask for A in all_ideals(R)] == list(masks), expr
        assert [A.generators for A in all_ideals(R)] == [_greedy_generators(L, m) for m in masks], expr
        rng = random.Random(expr)
        for a, b in [rng.sample(masks, 2) for _ in range(8)] if len(masks) > 1 else []:
            xs, ys = a | rng.getrandbits(R.size), b
            assert L.sum(xs, ys) == mask_of(ref_sum_sets(R, bits(xs), bits(ys))), (expr, xs, ys)


def _sums_of_smaller_principals(R):
    """The nonzero principal ideals that equal the join of the ideals strictly inside them."""
    masks = ref_ideal_masks(R)
    out = set()
    for p in {mask_of(ref_principal(R, a)) for a in R.elements()} - {1}:
        union = reduce(or_, (m for m in masks if m != p and not m & ~p), 0)
        if next(m for m in masks if not union & ~m) == p:  # the least ideal over the union
            out.add(p)
    return out


def test_lattice_rings_include_a_dropped_principal_ideal_and_a_chain_ring():
    assert "Z2 x Z2" in LATTICE_RINGS and _sums_of_smaller_principals(parse_ring("Z2 x Z2")) == {0b1111}
    assert "Z256" in LATTICE_RINGS
    chain = parse_ring("Z256")
    masks = ref_ideal_masks(chain)
    assert all(not a & ~b for a, b in zip(masks, masks[1:]))  # the ideals form a chain
    assert not _sums_of_smaller_principals(chain)
