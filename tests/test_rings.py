import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ringlab.rings as rings
from ringlab.dsl import parse_ring
from ringlab.errors import (
    InvalidConstruction,
    NotAHomomorphism,
    NotApplicableError,
    SizeLimitError,
    TypeMismatch,
)
from ringlab.extensions import make_module_free, make_trivial_extension
from ringlab.ideals import ideal_generate
from ringlab.rings import (
    FiniteRing,
    byte_rows,
    RingHom,
    ann_pushforward_check,
    check_hom,
    crt_hom,
    identity_hom,
    idempotent_power,
    is_isomorphism,
    make_product,
    make_quotient,
    make_zn,
    pair_table,
)

from oracles import as_int16, element_partition, find_isomorphism, fingerprint


def brute_regulars(n):
    # independent modular-arithmetic oracle
    return {w for w in range(n) if all((w * y) % n != 0 for y in range(1, n))}


def test_zero_ring():
    R = make_zn(1)
    assert R.size == 1
    assert R.one == 0


def test_zn_arithmetic():
    R = make_zn(12)
    assert R.m(5, 5) == (5 * 5) % 12 == 1
    assert R.a(7, 8) == 3
    assert R.recipe == "Z12"


def test_z6_zero_divisor_product():
    R = make_zn(6)
    assert R.m(2, 3) == 0


def test_zn_rejects_zero():
    with pytest.raises(InvalidConstruction):
        make_zn(0)


def test_bad_tables_rejected():
    R = make_zn(3)
    mul = as_int16(R.mul)
    mul[1, 2] = 0  # breaks commutativity against mul[2, 1]
    with pytest.raises(InvalidConstruction):
        FiniteRing(as_int16(R.add), mul)


def test_int16_tables_are_read_as_values():
    """An int16 row is read entry by entry, as the tables the oracles build are: read
    through its buffer it would give a row of 2n bytes."""
    for R in (make_zn(6), make_product(make_zn(2), make_zn(4))):
        built = FiniteRing(as_int16(R.add), as_int16(R.mul))
        assert (built.add, built.mul, built.one) == (R.add, R.mul, R.one)
        assert all(len(row) == R.size for row in built.add + built.mul)


def test_product_orthogonal_idempotents():
    R = make_product(make_zn(2), make_zn(2))
    e1 = R.labels.index("(1,0)")
    e2 = R.labels.index("(0,1)")
    assert R.m(e1, e2) == 0
    assert R.m(e1, e1) == e1


def test_product_crt_isomorphism():
    R = make_product(make_zn(3), make_zn(4))
    assert find_isomorphism(R, make_zn(12)) is not None


def test_product_unit_count():
    R = make_product(make_zn(5), make_zn(4))
    assert R.size == 20
    assert len(R.units) == 4 * 2


def assert_pair_table(table, t1, t2):
    """Entry (i * n2 + j, k * n2 + l) is t1[i][k] * n2 + t2[j][l], read entry by entry."""
    n1, n2 = len(t1), len(t2)
    assert len(table) == n1 * n2 and all(len(row) == n1 * n2 for row in table)
    for i, j, k, l in itertools.product(range(n1), range(n2), range(n1), range(n2)):
        assert table[i * n2 + j][k * n2 + l] == t1[i][k] * n2 + t2[j][l], (i, j, k, l)


@pytest.mark.parametrize("n1, n2", [(1, 5), (5, 1), (2, 128), (128, 2), (16, 16), (15, 17)])
def test_pair_table_matches_its_definition(n1, n2):
    R1, R2 = make_zn(n1), make_zn(n2)
    for t1, t2 in ((R1.add, R2.add), (R1.mul, R2.mul)):
        assert_pair_table(pair_table(t1, t2), t1, t2)


def test_pair_table_builds_free_modules_and_trivial_extensions():
    z4, z3 = make_zn(4), make_zn(3)
    assert_pair_table(make_module_free(z4, 2).add, z4.add, z4.add)
    M = make_module_free(z3, 1)
    assert_pair_table(make_trivial_extension(z3, M).ring.add, z3.add, M.add)


def test_product_size_limit():
    with pytest.raises(SizeLimitError):
        make_product(make_zn(17), make_zn(17))


@pytest.mark.parametrize("expr, refusal", [("Z99999", "99999"), ("Z257", "257"), ("Z256", None)])
def test_zn_size_limit_before_tables(expr, refusal):
    """Z99999's tables would need tens of GiB, so the cap must be checked first; Z256 is at
    the cap and builds."""
    if refusal is None:
        assert parse_ring(expr).size == 256
    else:
        with pytest.raises(SizeLimitError, match=f"^{refusal} elements exceeds the cap 256$"):
            parse_ring(expr)


def test_element_partition_z12():
    units, regulars, zds = element_partition(make_zn(12))
    expected = brute_regulars(12)
    assert units == regulars == expected == {1, 5, 7, 11}
    assert zds == set(range(12)) - expected


def test_element_partition_z6():
    _, _, zds = element_partition(make_zn(6))
    assert zds == {0, 2, 3, 4}


@pytest.mark.parametrize("n", [1, 2, 4, 6, 9, 12, 15, 16, 24, 30])
def test_regulars_equal_units(n):
    R = make_zn(n)
    assert R.regulars == R.units == brute_regulars(n)


def test_idempotent_power_identity():
    R = make_zn(12)
    assert idempotent_power(R, 1) == (1, 1)


def test_idempotent_power_examples():
    assert idempotent_power(make_zn(6), 3) == (3, 1)
    assert idempotent_power(make_zn(12), 2) == (4, 2)


def test_identity_hom_is_isomorphism():
    R = make_zn(12)
    assert is_isomorphism(identity_hom(R))


def test_quotient_projection_not_isomorphism():
    R = make_zn(12)
    _, proj = make_quotient(R, ideal_generate(R, [4]))
    assert check_hom(proj) is proj
    assert not is_isomorphism(proj)


def test_additive_order_obstruction():
    # 1 -> 1 from Z3 to Z6 breaks additivity: 1+1+1 = 0 on one side only
    h = RingHom(make_zn(3), make_zn(6), (0, 1, 2))
    with pytest.raises(NotAHomomorphism):
        check_hom(h)


def test_ann_pushforward_identity():
    R = make_zn(12)
    h = identity_hom(R)
    assert ann_pushforward_check(h) is None


def test_ann_pushforward_swap():
    R = make_product(make_zn(2), make_zn(2))
    swapped = make_product(make_zn(2), make_zn(2))
    image = tuple((i % 2) * 2 + (i // 2) for i in range(4))
    h = check_hom(RingHom(R, swapped, image))
    assert is_isomorphism(h)
    assert ann_pushforward_check(h) is None


def test_ann_pushforward_crt():
    h = crt_hom(12, 3, 4)
    assert is_isomorphism(h)
    assert ann_pushforward_check(h) is None


def test_ann_pushforward_reports_first_moved_element(monkeypatch):
    # swapping 2 and 3 in Z6 is a bijection but no homomorphism; past the guard,
    # the first w with h(Ann(w)) != Ann(h(w)) comes back, as the set comparison finds it
    R = make_zn(6)
    image = (0, 1, 3, 2, 4, 5)
    monkeypatch.setattr(rings, "is_isomorphism", lambda h: True)

    def ann(w):
        return {y for y in R.elements() if R.m(y, w) == 0}

    expected = next(w for w in R.elements() if {image[y] for y in ann(w)} != ann(image[w]))
    assert expected == 2
    assert ann_pushforward_check(RingHom(R, R, image)) == expected


def test_ann_pushforward_requires_isomorphism():
    R = make_zn(12)
    _, proj = make_quotient(R, ideal_generate(R, [4]))
    with pytest.raises(NotApplicableError):
        ann_pushforward_check(proj)


def test_quotient_z12_by_4():
    R = make_zn(12)
    Q, proj = make_quotient(R, ideal_generate(R, [4]))
    assert Q.size == 4
    assert find_isomorphism(Q, make_zn(4)) is not None
    kernel = {a for a in R.elements() if proj.image[a] == 0}
    assert kernel == {0, 4, 8}


def test_quotient_by_zero_is_bijective():
    R = make_zn(12)
    Q, proj = make_quotient(R, ideal_generate(R, []))
    assert Q.size == R.size
    assert sorted(proj.image) == list(range(R.size))


def test_quotient_by_improper_is_zero_ring():
    R = make_zn(12)
    Q, _ = make_quotient(R, ideal_generate(R, [1]))
    assert Q.size == 1


def test_quotient_rejects_foreign_ideal():
    R = make_zn(12)
    other = make_zn(12)
    with pytest.raises(TypeMismatch):
        make_quotient(R, ideal_generate(other, [4]))


def test_quotient_kernel_recovery():
    # kernel of the projection equals the input ideal, element for element
    R = make_zn(24)
    for gens in ([2], [3], [4], [6], [8]):
        ideal = ideal_generate(R, gens)
        _, proj = make_quotient(R, ideal)
        kernel = frozenset(a for a in R.elements() if proj.image[a] == 0)
        assert kernel == ideal.members


RECIPES = [
    "Z12",
    "Z2 x Z3",
    "Z7",
    "Z12/(4)",
    "triv(Z2, free(1))",
    "amalg(Z4, Z4, id, (2))",
    "Z5 x Z5",
    "triv(Z3, free(2))",
]


@pytest.mark.parametrize("expr", RECIPES)
def test_recipe_round_trip(expr):
    R1 = parse_ring(expr)
    R2 = parse_ring(R1.recipe)
    if R1.size <= 16:
        assert find_isomorphism(R1, R2) is not None
    else:
        assert fingerprint(R1) == fingerprint(R2)


def test_find_isomorphism_negative():
    assert find_isomorphism(make_zn(4), make_product(make_zn(2), make_zn(2))) is None
    assert find_isomorphism(make_zn(4), make_zn(5)) is None


def test_ring_axioms_hold_for_constructions():
    # constructors validate eagerly; reaching here without raising is the test
    for n in (1, 2, 3, 8, 15):
        make_zn(n)
    make_product(make_zn(4), make_zn(9))


# -- ring axioms against the n^3 scan ------------------------------------------------


def n3_ring_axioms(add, mul) -> bool:
    """The n^3 reference: do the tables form a commutative ring with 1?

    Every law is checked on every pair or triple, independently of the
    generator-based scan in ``FiniteRing._validate``.
    """
    add, mul = np.asarray(add), np.asarray(mul)
    n = add.shape[0]
    idx = np.arange(n)
    for t in (add, mul):
        if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
            return False
        if not np.array_equal(t, t.T) or not np.array_equal(t[t], t[:, t]):
            return False
    return bool(
        np.array_equal(add[0], idx)
        and (add == 0).any(axis=1).all()
        and np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]])
        and (mul == idx).all(axis=1).any()
    )


def accepts(add, mul) -> bool:
    try:
        FiniteRing(add, mul)
    except InvalidConstruction:
        return False
    return True


def all_tables(n, symmetric):
    cells = [(i, j) for i in range(n) for j in range(i if symmetric else 0, n)]
    for values in itertools.product(range(n), repeat=len(cells)):
        t = np.zeros((n, n), dtype=np.int16)
        for (i, j), v in zip(cells, values):
            t[i, j] = v
            if symmetric:
                t[j, i] = v
        yield t


def test_every_two_element_table_pair_matches_the_n3_scan():
    tables = list(all_tables(2, symmetric=False))
    verdicts = [(accepts(a, m), n3_ring_axioms(a, m)) for a in tables for m in tables]
    assert all(mine == ref for mine, ref in verdicts)
    assert sum(ref for _, ref in verdicts) == 1  # Z2 alone


@pytest.mark.parametrize("which", ["add", "mul"])
def test_every_symmetric_three_element_table_against_z3_matches_the_n3_scan(which):
    z3 = make_zn(3)
    verdicts = []
    for t in all_tables(3, symmetric=True):
        add, mul = (t, as_int16(z3.mul)) if which == "add" else (as_int16(z3.add), t)
        verdicts.append((accepts(add, mul), n3_ring_axioms(add, mul)))
    assert all(mine == ref for mine, ref in verdicts)
    assert any(ref for _, ref in verdicts) and not all(ref for _, ref in verdicts)


SMALL_RECIPES = [f"Z{n}" for n in range(1, 17)] + [
    "Z2 x Z2",
    "Z2 x Z4",
    "Z2 x Z2 x Z2",
    "Z2 x Z2 x Z2 x Z2",
    "Z2 x Z2 x Z4",
    "Z4 x Z4",
    "Z2 x Z8",
    "Z3 x Z3",
    "Z2 x Z6",
    "Z3 x Z5",
    "Z12/(4)",
    "(Z4 x Z4)/((2,0))",
    "triv(Z2, free(1))",
    "triv(Z4, free(1))",
    "triv(Z2, free(2))",
    "triv(Z2, free(3))",
    "triv(Z3, free(1))",
    "triv(Z4, quot(2))",
    "amalg(Z4, Z4, id, (2))",
    "loc(Z12, S<3>)",
]


def relabel(t, perm):
    out = np.empty_like(t)
    out[np.ix_(perm, perm)] = perm[t]
    return out


@st.composite
def perturbed_tables(draw):
    """A small ring's tables after 1-2 symmetric entry edits, maybe relabelled."""
    R = parse_ring(draw(st.sampled_from(SMALL_RECIPES)))
    n = R.size
    tables = [as_int16(R.add), as_int16(R.mul)]
    for _ in range(draw(st.integers(1, 2))):
        t = tables[draw(st.integers(0, 1))]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        t[i, j] = t[j, i] = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        perm = np.array([0] + draw(st.permutations(range(1, n))), dtype=np.int16)
        tables = [relabel(t, perm) for t in tables]
    return tables


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(perturbed_tables())
def test_axiom_check_matches_the_n3_scan_on_perturbed_rings(tables):
    add, mul = tables
    assert accepts(add, mul) == n3_ring_axioms(add, mul)


def upper_triangular_f2():
    """[[a, b], [0, c]] over F2, index 4a + 2b + c: a noncommutative ring with 1."""
    els = list(itertools.product(range(2), repeat=3))
    add = [[4 * (a ^ x) + 2 * (b ^ y) + (c ^ z) for x, y, z in els] for a, b, c in els]
    mul = [[4 * (a * x) + 2 * ((a * y + b * z) % 2) + c * z for x, y, z in els] for a, b, c in els]
    return add, mul


def nonassociative_f2_algebra():
    """F2 <1, a, b> with a^2 = b^2 = 0, ab = 1: commutative, distributive, unital.

    Element c + da + eb has index 4c + 2d + e; addition is XOR.
    """
    products = {(4, 4): 4, (4, 2): 2, (4, 1): 1, (2, 2): 0, (2, 1): 4, (1, 1): 0}

    def times(u, v):
        out = 0
        for x in (4, 2, 1):
            for y in (4, 2, 1):
                if u & x and v & y:
                    out ^= products[max(x, y), min(x, y)]
        return out

    return [[u ^ v for v in range(8)] for u in range(8)], [[times(u, v) for v in range(8)] for u in range(8)]


Z2_ADD = [[0, 1], [1, 0]]
Z2_MUL = [[0, 0], [0, 1]]
Z3_ADD = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
Z3_MUL = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]

# Each pair fails the named check and, where a commutative ring with 1 can
# fail it alone, no other ring axiom.
AXIOM_FAILURES = {
    "add table is not 2x2": (np.zeros((2, 3)), Z2_MUL),
    "mul table is not 2x2": (Z2_ADD, np.zeros((3, 3))),
    "add table is not total": ([[0, 1], [1, 2]], Z2_MUL),
    "mul table is not total": (Z2_ADD, [[0, 0], [0, -1]]),
    "add is not commutative": ([[0, 1, 2], [1, 2, 1], [2, 0, 1]], Z3_MUL),
    "mul is not commutative": upper_triangular_f2(),
    "element 0 is not the additive identity": ([[1, 0], [0, 1]], [[0, 1], [1, 1]]),  # Z2 with 0 and 1 swapped
    "some element has no additive inverse": ([[0, 1], [1, 1]], Z2_MUL),  # the Boolean semiring
    # three elements need two generators: caught by the generator bound
    "add is not associative": ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], Z3_MUL),
    "multiplication does not distribute over addition": (Z2_ADD, [[1, 0], [0, 1]]),
    "mul is not associative": nonassociative_f2_algebra(),
    "no multiplicative identity": (Z2_ADD, [[0, 0], [0, 0]]),
}


@pytest.mark.parametrize("message", list(AXIOM_FAILURES))
def test_each_axiom_failure_is_reported_by_name(message):
    add, mul = AXIOM_FAILURES[message]
    with pytest.raises(InvalidConstruction, match=f"^{message}$"):
        FiniteRing(add, mul)
    assert not n3_ring_axioms(np.asarray(add), np.asarray(mul))


def test_mul_associativity_is_checked_at_the_cap():
    """The non-associative F2 algebra times Z32: 256 elements, commutative, distributive
    and unital, where (aa)b = 0 but a(ab) = a fails on the generator (b, 0) and nowhere
    in the products with 0.  The same product from Z2 x Z2 x Z2 is a ring."""
    add, mul = nonassociative_f2_algebra()
    z32 = make_zn(32)
    with pytest.raises(InvalidConstruction, match="^mul is not associative$"):
        FiniteRing(pair_table(byte_rows(add, "add"), z32.add), pair_table(byte_rows(mul, "mul"), z32.mul))
    F = parse_ring("Z2 x Z2 x Z2")
    assert FiniteRing(pair_table(F.add, z32.add), pair_table(F.mul, z32.mul)).size == 256


def test_light_test_catches_nonassociative_addition_within_the_generator_bound():
    # generators (1, 2) fit the bound for four elements; (1+1)+2 = 2 but 1+(1+2) = 0
    add = [[0, 1, 2, 3], [1, 0, 3, 0], [2, 3, 0, 1], [3, 0, 1, 0]]
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 2, 1]]
    with pytest.raises(InvalidConstruction, match="^add is not associative$"):
        FiniteRing(add, mul)


def identity_first(tables):
    """Relabel so that the multiplicative identity is index 1, the first additive generator."""
    add, mul = (np.asarray(t, dtype=np.int16) for t in tables)
    one = int(np.flatnonzero((mul == np.arange(len(mul))).all(axis=1))[0])
    perm = np.arange(len(mul), dtype=np.int16)
    perm[[1, one]] = perm[[one, 1]]
    return relabel(add, perm), relabel(mul, perm)


Z2_Z4_ADD = as_int16(make_product(make_zn(2), make_zn(4)).add)

# Each law holds on the first additive generator and fails on a later one.
LATE_FAILURES = {
    # generators (1, 2): (x+1)+y == x+(1+y) everywhere, (1+2)+3 = 0 but 1+(2+3) = 1
    "add is not associative": ([[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 3, 0], [3, 3, 0, 0]], as_int16(make_zn(4).mul)),
    # Z2 x Z4 (generators (0,1), (1,0)) where (1,0)(1,0) = (0,1) has additive order 4
    "multiplication does not distribute over addition": (
        Z2_Z4_ADD,
        [[0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5, 6, 7], [0, 2, 0, 2, 0, 2, 0, 2], [0, 3, 2, 1, 4, 7, 6, 5],
         [0, 4, 0, 4, 1, 5, 1, 5], [0, 5, 2, 7, 5, 2, 7, 0], [0, 6, 0, 6, 1, 7, 1, 7], [0, 7, 2, 5, 5, 0, 7, 2]],
    ),
    # (xy)1 == x(y1) holds trivially when 1 is the first generator
    "mul is not associative": identity_first(nonassociative_f2_algebra()),
}


@pytest.mark.parametrize("message", list(LATE_FAILURES))
def test_each_law_is_checked_on_every_generator(message):
    add, mul = LATE_FAILURES[message]
    with pytest.raises(InvalidConstruction, match=f"^{message}$"):
        FiniteRing(add, mul)
    assert not n3_ring_axioms(np.asarray(add), np.asarray(mul))


def test_distributivity_is_checked_before_multiplicative_associativity():
    # Z3 under + with identity 2; this mul fails both laws on the generator 1,
    # and associativity on generators proves nothing until mul distributes
    mul = [[0, 1, 0], [1, 2, 1], [0, 1, 2]]
    with pytest.raises(InvalidConstruction, match="^multiplication does not distribute over addition$"):
        FiniteRing(Z3_ADD, mul)


@pytest.mark.parametrize("expr", ["Z256", "Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2", "Z4 x Z4 x Z4 x Z4", "Z16 x Z16"])
def test_additive_generators_span_the_ring_within_the_bound(expr):
    R = parse_ring(expr)
    assert len(R.add_gens) <= R.size.bit_length() - 1
    reached, frontier = {0}, {0}
    while frontier:
        frontier = {R.a(x, g) for x in frontier for g in R.add_gens} - reached
        reached |= frontier
    assert reached == set(R.elements())


def test_building_z2_to_the_eighth_stays_below_8_mb():
    tracemalloc.start()
    try:
        parse_ring("Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_nonassociative_addition_is_rejected_by_the_generator_bound_without_n3_arrays():
    # x + y = 0 for all nonzero x, y: each generator adds one element to the
    # span, so 256 elements would need 255 generators instead of at most 8
    n = 256
    add = np.zeros((n, n), dtype=np.int16)
    add[0] = add[:, 0] = np.arange(n)
    mul = as_int16(make_zn(n).mul)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidConstruction, match="^add is not associative$"):
            FiniteRing(add, mul)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n**3  # an n^3 int16 temporary alone is 2 n^3 bytes


def n2_is_hom(h) -> bool:
    """Reference: f(1) = 1 and both laws on every pair (x, y)."""
    img = np.asarray(h.image)
    if img[h.domain.one] != h.codomain.one:
        return False
    return all(
        np.array_equal(img[t1], t2[img[:, None], img[None, :]])
        for t1, t2 in ((as_int16(h.domain.add), as_int16(h.codomain.add)), (as_int16(h.domain.mul), as_int16(h.codomain.mul)))
    )


@pytest.mark.parametrize("pair", [("Z4", "Z2 x Z2"), ("Z2 x Z2", "Z2 x Z2"), ("Z6", "Z3"), ("Z3 x Z2", "Z3"), ("triv(Z2, free(1))", "Z2 x Z2")])
def test_check_hom_matches_the_pairwise_laws_on_every_map(pair):
    R1, R2 = (parse_ring(e) for e in pair)
    verdicts = []
    for image in itertools.product(range(R2.size), repeat=R1.size):
        h = RingHom(R1, R2, image)
        try:
            check_hom(h)
            mine = True
        except NotAHomomorphism as err:
            mine = False
            if err.law != "one":
                x, g = err.pair
                table1, table2 = (R1.add, R2.add) if err.law == "add" else (R1.mul, R2.mul)
                assert g in R1.add_gens
                assert image[as_int16(table1)[x, g]] != as_int16(table2)[image[x], image[g]]
        verdicts.append(mine)
        assert mine == n2_is_hom(h)
    assert any(verdicts)
