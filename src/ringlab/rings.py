"""Finite commutative rings with exhaustively validated operation tables.

Elements are the indices 0..N-1; index 0 is always the additive identity.
Each table is a tuple of N ``bytes`` rows, so N is at most 256, and a row
doubles as a ``bytes.translate`` table once padded to 256 bytes: composing
two rows, or gathering a row at a list of elements, is one C-level call.
Each ring pads its rows once, to ``padd`` and ``pmul``, for every reader.
Every constructor proves the ring axioms before returning, so holding a
FiniteRing object is evidence that its tables really describe a commutative
ring with identity.  Totality, commutativity, the zero and additive inverses
are checked on all pairs.  Associativity and distributivity are checked on
all pairs (x, y) against each g of a greedy generating set G of (R, +), of at
most log2(N) elements: the z that satisfy such a law for all x, y form a
set closed under + (Light's associativity test for + itself), so passing on
G is passing on every triple.  For * and a generator g that is two whole-table
reads: at i*N + j, the flat table read through row g holds (ij)g = (ji)g and
the rows of * at the entries of row g, joined, hold j(ig), so the two agree iff
(xy)g = x(yg) for all x, y.  The scan costs O(N^2 log N) time and O(N^2)
memory instead of O(N^3) for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne

from .config import SIZE_LIMIT
from .errors import (
    ConstructionBug,
    InvalidConstruction,
    NotAHomomorphism,
    NotApplicableError,
    SizeLimitError,
    TypeMismatch,
)

ELEMENTS = bytes(range(256))  # the identity translate table; ELEMENTS[:n] lists an n-element ring
ZEROS = b"0" * 256
DIGITS = bytes.maketrans(b"01", b"\0\1")  # a binary digit to the byte 0 or 1
IS_ZERO = b"1" + ZEROS[1:]  # translates a row to b"1" where its entry is 0 and b"0" elsewhere


def pad(row: bytes) -> bytes:
    """The row as a translate table: entry v for v < len(row), 0 past it."""
    return row + bytes(256 - len(row))


def flags(xs: bytes) -> bytes:
    """The translate table sending each element of xs to b"1" and every other to b"0".
    maketrans writes its pairs in order, so the later pairs of xs win over ZEROS."""
    return bytes.maketrans(ELEMENTS + xs, ZEROS + b"1" * len(xs))


def member_table(mask: int) -> bytes:
    """The translate table sending each element of the mask to b"1" and every other to b"0"."""
    return f"{mask:0256b}"[::-1].encode()


def pack(row: bytes) -> int:
    """The mask of a row of b"0"/b"1" flags: bit i set iff row[i] is b"1"."""
    return int(row[::-1], 2)


def columns(rows) -> tuple:
    """The columns of a square table of bytes rows, as bytes rows."""
    flat, n = b"".join(rows), len(rows)
    return tuple(flat[j::n] for j in range(n))


def byte_rows(table, name: str) -> tuple:
    """A table as a tuple of bytes rows.  A bytes row is kept; any other row (a list, a
    tuple, an array row) is read entry by entry as ints, so a row of int16 entries gives
    its values and not the bytes of its buffer."""
    try:
        return tuple(row if type(row) is bytes else bytes(map(int, row)) for row in table)
    except TypeError:  # a row that is not a sequence
        raise InvalidConstruction(f"{name} table is not {len(table)}x{len(table)}") from None
    except ValueError:  # an entry outside 0..255
        raise InvalidConstruction(f"{name} table is not total") from None


def abelian_generators(add, padded, message: str) -> tuple:
    """Generators G of the abelian group (0..n-1, add), after proving it one.

    The caller has checked that ``add`` is total and commutative, that 0 is
    its identity and that every element has an inverse; this proves
    associativity or raises ``InvalidConstruction(message)``.  G grows from
    the empty set: each new generator g is the least element outside the
    closure C of {0} and the generators before it, and it must pass Light's
    test ``(x+g)+y == x+(g+y)`` for all x, y.  The z passing that test include
    0 and are closed under +, so + is associative on the closure of {0} and G,
    which is then C + <g>: the images of C under x -> x+g and its powers, found
    by doubling once x -> x+g is shown one-to-one.  So C is a subgroup, each
    generator at least doubles it, and more than floor(log2 n) generators mean
    + is not associative.  Once C is every element, every z passes the test.
    """
    n = len(add)
    full, inside, gens = (1 << n) - 1, 1, []
    while inside != full:
        if len(gens) == n.bit_length() - 1:
            raise InvalidConstruction(message)
        g = (~inside & (inside + 1)).bit_length() - 1
        gens.append(g)
        # row x over y: (x+g)+y is row x+g = g+x, and x+(g+y) is row g read through row x
        if any(map(ne, map(add.__getitem__, add[g]), map(add[g].translate, padded))):
            raise InvalidConstruction(message)
        neg = add[g].index(0)  # row neg is x -> x-g
        if add[g].translate(padded[neg]) != ELEMENTS[:n]:  # x -> x+g is one-to-one, undone by x -> x-g
            raise InvalidConstruction(message)
        undo = padded[neg]  # on 0..n-1, undoes x -> x + 2^k g, doubling k each round
        while True:
            inside |= pack(undo[:n].translate(member_table(inside)))  # C and C + 2^k g
            if not pack(add[neg].translate(member_table(inside))) & ~inside:  # closed under x -> x+g
                break
            undo = undo.translate(undo)
    return tuple(gens)


class FiniteRing:
    """A finite commutative ring with identity, given by total op tables."""

    __slots__ = (
        "size",
        "add",
        "mul",
        "padd",  # add and mul, each row padded to a translate table
        "pmul",
        "one",
        "labels",
        "recipe",
        "parts",
        "units",
        "regulars",
        "zero_divisors",
        "add_gens",  # generators of (R, +) that the axiom checks ran on
        "_reduced",
        "_idempotents",
        "_lattice",  # ideals.IdealLattice, built on first use
        "__weakref__",
    )

    def __init__(self, add, mul, labels=None, recipe="?", parts=None):
        add, mul = byte_rows(add, "add"), byte_rows(mul, "mul")
        n = len(add)
        if n < 1:
            raise InvalidConstruction("a ring needs at least one element")
        check_size(n)
        self.size = n
        self.add = add
        self.mul = mul
        self.recipe = recipe
        self.parts = parts
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise InvalidConstruction("label count does not match ring size")
        self._validate()
        self._partition()
        self._lattice = None

    # -- construction-time checks -------------------------------------------------

    def _validate(self):
        n = self.size
        add, mul = self.add, self.mul
        for name, t in (("add", add), ("mul", mul)):
            if len(t) != n or any(len(row) != n for row in t):
                raise InvalidConstruction(f"{name} table is not {n}x{n}")
            if b"".join(t).translate(None, ELEMENTS[:n]):  # some entry is not an element
                raise InvalidConstruction(f"{name} table is not total")
            if t != columns(t):
                raise InvalidConstruction(f"{name} is not commutative")
        if add[0] != ELEMENTS[:n]:
            raise InvalidConstruction("element 0 is not the additive identity")
        if not all(0 in row for row in add):
            raise InvalidConstruction("some element has no additive inverse")
        self.padd, self.pmul = padd, pmul = tuple(map(pad, add)), tuple(map(pad, mul))
        self.add_gens = abelian_generators(add, padd, "add is not associative")
        # x(y+g) == xy + xg, row x over y: row g+y read through row x, and row x read
        # through row xg.  With + associative, the z that distribute for all x, y are
        # closed under +, so the generators cover every z.
        for g in self.add_gens:
            if any(map(ne, map(add[g].translate, pmul), map(bytes.translate, mul, map(padd.__getitem__, mul[g])))):
                raise InvalidConstruction("multiplication does not distribute over addition")
        # (xy)g == x(yg), two whole-table reads.  Only now that mul distributes are the z
        # with (xy)z == x(yz) for all x, y closed under +.
        flat = b"".join(mul)
        for g in self.add_gens:
            if flat.translate(pmul[g]) != b"".join(map(mul.__getitem__, mul[g])):
                raise InvalidConstruction("mul is not associative")
        if ELEMENTS[:n] not in mul:
            raise InvalidConstruction("no multiplicative identity")
        self.one = mul.index(ELEMENTS[:n])

    def _partition(self):
        n, m, one = self.size, self.mul, self.one
        self.units = frozenset(a for a, row in enumerate(m) if one in row)
        # ya = 0 for some y != 0  <=>  row a past its first entry holds a 0
        self.zero_divisors = frozenset(a for a, row in enumerate(m) if row.find(0, 1) >= 0)
        self.regulars = frozenset(range(n)) - self.zero_divisors
        if self.regulars != self.units:
            raise ConstructionBug("regular elements differ from units in a finite ring")
        sq = b"".join(m)[:: n + 1]
        self._reduced = 0 not in sq[1:]
        self._idempotents = tuple(a for a in range(n) if sq[a] == a)

    # -- scalar helpers ------------------------------------------------------------

    def a(self, x, y):
        return self.add[x][y]

    def m(self, x, y):
        return self.mul[x][y]

    def elements(self):
        return range(self.size)

    def is_reduced(self) -> bool:
        """No nonzero nilpotents; it suffices to check squares."""
        return self._reduced

    def idempotents(self):
        return self._idempotents

    def __repr__(self):
        return f"FiniteRing({self.recipe}, size={self.size})"


def idempotent_power(R: FiniteRing, t: int):
    """Smallest k >= 1 with t^k idempotent; returns (t^k, k)."""
    p = int(t)
    k = 1
    while R.m(p, p) != p:
        p = R.m(p, t)
        k += 1
        if k > R.size + 1:
            raise ConstructionBug("power sequence failed to reach an idempotent")
    return p, k


# -- constructors -----------------------------------------------------------------


def check_size(n: int) -> None:
    """Raise SizeLimitError for n elements over the cap; constructors call it before building any table."""
    if n > SIZE_LIMIT:
        raise SizeLimitError(f"{n} elements exceeds the cap {SIZE_LIMIT}")


def make_zn(n: int) -> FiniteRing:
    """The ring of integers modulo n: row x of + is a window on two turns of 0..n-1,
    and row x of * takes every x-th entry of n turns."""
    if n < 1:
        raise InvalidConstruction("Z_n needs n >= 1")
    check_size(n)
    turns = ELEMENTS[:n] * n
    add = tuple(turns[x : x + n] for x in range(n))
    mul = tuple(turns[: n * x : x] if x else bytes(n) for x in range(n))
    return FiniteRing(add, mul, recipe=f"Z{n}")


def operand(R: FiniteRing) -> str:
    """R's recipe as the operand of a derived ring: a product goes in parentheses."""
    return f"({R.recipe})" if " x " in R.recipe else R.recipe


def pair_table(t1, t2) -> tuple:
    """The table of pairs from one table per coordinate: entry ((i, j), (k, l)) is
    t1[i][k] * len(t2) + t2[j][l], each pair coded i * len(t2) + j, every code below 256.
    Row (i, j) is one sum of big integers, a byte per entry: row i of t1 gathered at the
    first coordinates and scaled by len(t2), plus row j of t2 gathered at the second.
    No byte of the sum reaches 256, so none carries into the next."""
    n2, n = len(t2), len(t1) * len(t2)
    firsts, seconds = b"".join(bytes((i,)) * n2 for i in range(len(t1))), ELEMENTS[:n2] * len(t1)
    scale = pad(bytes(range(0, n, n2)))  # v -> v * len(t2)
    highs = [int.from_bytes(firsts.translate(pad(row.translate(scale))), "big") for row in t1]
    lows = [int.from_bytes(seconds.translate(pad(row)), "big") for row in t2]
    return tuple((high + low).to_bytes(n, "big") for high in highs for low in lows)


def make_product(R1: FiniteRing, R2: FiniteRing) -> FiniteRing:
    """Componentwise ring on pairs; index (i, j) -> i*|R2| + j."""
    n1, n2 = R1.size, R2.size
    check_size(n1 * n2)
    labels = tuple(f"({R1.labels[i]},{R2.labels[j]})" for i in range(n1) for j in range(n2))
    recipe = f"{operand(R1)} x {R2.recipe}"
    return FiniteRing(pair_table(R1.add, R2.add), pair_table(R1.mul, R2.mul), labels=labels, recipe=recipe, parts=(R1, R2))


def _check_ideal_subset(R: FiniteRing, members) -> None:
    mem = bytes(sorted(members))
    inside = flags(mem)
    if inside[0] != ord("1"):
        raise TypeMismatch("not an ideal: 0 missing")
    if any(b"0" in mem.translate(R.padd[a]).translate(inside) for a in mem):
        raise TypeMismatch("not an ideal: not closed under addition")
    if any(b"0" in R.mul[a].translate(inside) for a in mem):
        raise TypeMismatch("not an ideal: not closed under ring multiplication")


def make_quotient(R: FiniteRing, ideal):
    """R / I as a coset ring, together with the canonical projection.

    Coset representatives are the minimal member of each coset, so the zero
    coset sits at index 0.  The projection is returned as a verified RingHom
    whose kernel is checked to be exactly the input ideal.
    """
    if ideal.ring is not R:
        raise TypeMismatch("ideal belongs to a different ring")
    _check_ideal_subset(R, ideal.members)
    mem = bytes(ideal.sorted_members)
    least = bytes(map(min, map(mem.translate, R.padd)))  # least member of each coset a + I
    reps = bytes(a for a in R.elements() if least[a] == a)  # the elements least in their own coset
    coset_of = least.translate(bytes.maketrans(reps, ELEMENTS[: len(reps)]))
    to_coset = pad(coset_of)
    name = ideal.label()
    labels = tuple(f"{R.labels[r]}+{name}" for r in reps)
    add, mul = (tuple(reps.translate(t[r]).translate(to_coset) for r in reps) for t in (R.padd, R.pmul))
    quotient = FiniteRing(add, mul, labels=labels, recipe=f"{operand(R)}/{name}")
    proj = check_hom(RingHom(R, quotient, tuple(coset_of)))
    if tuple(a for a in R.elements() if coset_of[a] == 0) != ideal.sorted_members:
        raise ConstructionBug("projection kernel differs from the quotient ideal")
    return quotient, proj


# -- ring homomorphisms -----------------------------------------------------------


@dataclass(frozen=True)
class RingHom:
    domain: FiniteRing
    codomain: FiniteRing
    image: tuple


def check_hom(h: RingHom) -> RingHom:
    """Validate the homomorphism laws exhaustively; return h unchanged.

    Each law is checked as f(x op g) == f(x) op f(g) for every x and every
    additive generator g of the domain.  The z with f(x+z) == f(x)+f(z) for
    all x are closed under +, so additivity on the generators is additivity;
    given that, the same holds for the z with f(xz) == f(x)f(z) for all x.
    """
    if len(h.image) != h.domain.size:
        raise NotAHomomorphism("one", (len(h.image), h.domain.size))
    low, high = min(h.image), max(h.image)
    if low < 0 or high >= h.codomain.size:
        raise NotAHomomorphism("one", (int(low), int(high)))
    img = bytes(h.image)
    if img[h.domain.one] != h.codomain.one:
        raise NotAHomomorphism("one", (h.domain.one, img[h.domain.one]))
    through = pad(img)
    for law, t1, t2 in (("add", h.domain.add, h.codomain.padd), ("mul", h.domain.mul, h.codomain.pmul)):
        first = None  # the least x failing on some generator, with the first such generator
        for g in h.domain.add_gens:
            lhs, rhs = t1[g].translate(through), img.translate(t2[img[g]])  # over x
            if lhs != rhs:
                x = next(x for x, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                if first is None or x < first[0]:
                    first = (x, g)
        if first is not None:
            raise NotAHomomorphism(law, first)
    return h


def is_isomorphism(h: RingHom) -> bool:
    if h.domain.size != h.codomain.size:
        return False
    try:
        check_hom(h)
    except NotAHomomorphism:
        return False
    return sorted(h.image) == list(range(h.codomain.size))


def identity_hom(R: FiniteRing) -> RingHom:
    return check_hom(RingHom(R, R, tuple(range(R.size))))


def crt_hom(n: int, a: int, b: int):
    """Z_n -> Z_a x Z_b by reduction; an isomorphism iff n = ab with gcd 1."""
    zn = make_zn(n)
    prod = make_product(make_zn(a), make_zn(b))
    image = tuple((x % a) * b + (x % b) for x in range(n))
    return check_hom(RingHom(zn, prod, image))


def ann_pushforward_check(h: RingHom):
    """The first w with h(Ann(w)) != Ann(h(w)), else None.  h must be an isomorphism, so
    that holds iff yw = 0 exactly when h(y)h(w) = 0: one table comparison for every w."""
    if not is_isomorphism(h):
        raise NotApplicableError("annihilator transport needs an isomorphism")
    img, dom, cod = bytes(h.image), h.domain, h.codomain
    return next(
        (w for w in dom.elements() if dom.mul[w].translate(IS_ZERO) != img.translate(cod.pmul[img[w]]).translate(IS_ZERO)),
        None,
    )
