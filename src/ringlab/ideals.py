"""Ideals, multiplicatively closed sets and localization over finite rings.

All set-valued results use element indices and are returned with a
deterministic ordering (ascending index) so reports are reproducible.

Each ring carries one IdealLattice, built on first use: a set of elements
is an int bitmask (bit i = element i), each ideal is interned once per mask
with its canonical generators, and sums, colons and generated ideals are memoised.
A mask meets a table row through ``bytes.translate``: the row read through a
mask's member table gives one b"0"/b"1" flag per entry, and a list of elements
becomes a mask through the table ``rings.flags`` builds from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import and_

from .errors import ConstructionBug, InvalidConstruction, NotProperError, TypeMismatch
from .rings import (
    ELEMENTS,
    IS_ZERO,
    FiniteRing,
    RingHom,
    check_hom,
    flags,
    idempotent_power,
    member_table,
    operand,
    pack,
    pad,
)


@dataclass(frozen=True)
class _ElementSet:
    ring: FiniteRing
    mask: int  # bit i set iff element i is a member
    generators: tuple

    @cached_property
    def members(self) -> frozenset:
        return frozenset(self.sorted_members)

    @cached_property
    def sorted_members(self) -> tuple:
        return tuple(bits(self.mask))

    def __contains__(self, x) -> bool:
        return int(x) >= 0 and self.mask >> int(x) & 1 == 1


@dataclass(frozen=True)
class MulClosedSet(_ElementSet):
    @cached_property
    def _product(self) -> int:
        return reduce(self.ring.m, self.sorted_members, self.ring.one)

    def product(self) -> int:
        """The product of every member, computed once per set."""
        return self._product

    def label(self) -> str:
        return f"S<{','.join(self.ring.labels[g] for g in self.generators)}>"


@dataclass(frozen=True)
class Ideal(_ElementSet):
    def is_proper(self) -> bool:
        return self.mask.bit_count() < self.ring.size

    def is_zero(self) -> bool:
        return self.mask == 1

    def label(self) -> str:
        gens = ",".join(self.ring.labels[g] for g in self.generators)
        return f"({gens})" if self.generators else "(0)"


def bits(mask: int) -> list:
    """The elements of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def transpose(masks, width: int) -> list:
    """The columns of the bit matrix whose rows are ``masks``: bit r of the j-th is bit j of masks[r]."""
    columns = [0] * width
    for r, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            columns[low.bit_length() - 1] |= 1 << r
            mask ^= low
    return columns


def mask_of(xs) -> int:
    mask = 0
    for x in xs:
        mask |= 1 << int(x)
    return mask


def member_order(mask: int, n: int) -> tuple:
    """Sort key of a set of elements of an n-element ring: (size, sorted members).

    Equal-size member tuples first differ at the least element in one set only,
    which is the highest differing bit of the masks written in reverse."""
    return mask.bit_count(), -int(f"{mask:0{n}b}"[::-1], 2)


def _elements(R: FiniteRing, xs, what: str = "generator") -> tuple:
    """xs as ints, each checked to be an element of R."""
    xs = tuple(int(x) for x in xs)
    for x in xs:
        if not 0 <= x < R.size:
            raise TypeMismatch(f"{what} {x} out of range")
    return xs


class IdealLattice:
    """The ideals of one ring, interned by mask, with memoised operations.

    Lives in the ring's ``_lattice`` slot, so every table dies with the ring.
    """

    def __init__(self, R: FiniteRing):
        self.ring = R
        self.full = (1 << R.size) - 1
        self.regulars = mask_of(R.regulars)  # S is inside reg(R) iff not S.mask & ~regulars
        self.ann = tuple(pack(row.translate(IS_ZERO)) for row in R.mul)  # ann[a]: bit y set iff ya = 0
        self.principal = tuple(pack(flags(row)) for row in R.mul)  # principal[a]: Ra
        self.add_tables = tuple(map(pad, R.add))  # add_tables[x] translates y to x + y
        self.localizations = {}  # absorbing idempotent e -> LocalizationResult
        self._interned, self._generated, self._sums, self._colons = {}, {}, {}, {}
        self._colon_rows = {}  # A.mask -> ((A : x) for every element x)
        self._z0_colons = {}  # A.mask -> (A : N), N the union of the annihilator classes meeting A

    def intern(self, mask: int) -> Ideal:
        """The one Ideal with these members, with greedy minimal-index generators:
        each is the least member outside the ideal the ones before it generate."""
        got = self._interned.get(mask)
        if got is None:
            gens, have = [], 1
            while rest := mask & ~have:
                gens.append((rest & -rest).bit_length() - 1)
                have = self.sum(have, self.principal[gens[-1]])
            got = self._interned[mask] = Ideal(self.ring, mask, tuple(gens))
        return got

    def sum(self, xs: int, ys: int) -> int:
        """{x + y : x in xs, y in ys}: ys gathered from the addition row of each x."""
        key = (xs, ys) if xs <= ys else (ys, xs)
        got = self._sums.get(key)
        if got is None:
            ys_row = bytes(bits(key[1]))
            got = self._sums[key] = pack(flags(b"".join(ys_row.translate(self.add_tables[x]) for x in bits(key[0]))))
        return got

    def generate(self, gens: tuple) -> Ideal:
        """The ideal of the generators, labelled by them as given."""
        got = self._generated.get(gens)
        if got is None:
            _elements(self.ring, gens)
            mask = 1
            for g in sorted(set(gens)):
                if not mask >> g & 1:
                    mask = self.sum(mask, self.principal[g])
            got = self.intern(mask)
            if got.generators != gens:
                got = Ideal(self.ring, mask, gens)
            self._generated[gens] = got
        return got

    def join(self, A: Ideal, B: Ideal) -> Ideal:
        """A + B: the first ideal, in size order, that contains both."""
        both = A.mask | B.mask
        return next(J for J in self.ideals if not both & ~J.mask)

    def colon_rows(self, A: Ideal) -> list:
        """The mask of (A : x) = {w : wx in A} for every element x: row x of * read through A."""
        got = self._colon_rows.get(A.mask)
        if got is None:
            inside = member_table(A.mask)
            got = self._colon_rows[A.mask] = [pack(row.translate(inside)) for row in self.ring.mul]
        return got

    def colon(self, A: Ideal, ks: int) -> Ideal:
        """(A : K), the meet of the rows (A : x) over the x in K."""
        got = self._colons.get((A.mask, ks))
        if got is None:
            rows = self.colon_rows(A)
            got = self._colons[(A.mask, ks)] = self.intern(reduce(and_, (rows[x] for x in bits(ks)), self.full))
        return got

    def principal_meets(self, masks) -> list:
        """For each mask, the mask of the s whose principal ideal Rs meets it."""
        return [mask_of(s for s, p in enumerate(self.principal) if p & mask) for mask in masks]

    def z0_colon(self, A: Ideal) -> int:
        """The mask of (A : N), with N the union of the annihilator classes that meet A."""
        got = self._z0_colons.get(A.mask)
        if got is None:
            in_a = {self.ann[w] for w in bits(A.mask)}
            reach = mask_of(z for z, m in enumerate(self.ann) if m in in_a)
            got = self._z0_colons[A.mask] = self.colon(A, reach).mask
        return got

    def product(self, A: Ideal, B: Ideal) -> Ideal:
        """Ideal generated by pairwise products of generators; `generate` keeps the answer."""
        mul = self.ring.mul
        prods = {mul[x][y] for x in A.generators or (0,) for y in B.generators or (0,)}
        return self.generate(tuple(sorted(prods)))

    @cached_property
    def ideals(self) -> tuple:
        """Every ideal once, sorted by `member_order`: (cardinality, member tuple).

        Every ideal is a sum of principal ideals; a principal ideal that is the
        sum of those strictly inside it adds nothing, so the closure of (0) under
        joins with the join-irreducible principal ideals is every ideal.  base +
        Ra is the union of the cosets of Ra that meet base: the elements whose
        least coset member is that of some member of base.  So each irreducible
        Ra has one table of least coset members, read for every base; an Ra
        inside base adds nothing, and a base inside Ra gives Ra.
        """
        R = self.ring
        irreducible = []  # by induction on size, the kept ones inside p span all those inside p
        for p in sorted(set(self.principal), key=int.bit_count):
            below = reduce(self.sum, (q for q in irreducible if not q & ~p), 1)
            if below != p:
                irreducible.append(p)
        tables = [(p, least, pad(least)) for p, least in zip(irreducible, map(self.least_in_coset, irreducible))]
        seen, frontier = {1}, [1]
        while frontier:
            base = frontier.pop()
            members = bytes(bits(base))
            for p, least, through in tables:
                if not p & ~base:  # p inside base adds nothing
                    continue
                # base inside p gives p; else base + p is the cosets of p that meet base
                grown = p if not base & ~p else pack(least.translate(flags(members.translate(through))))
                if grown not in seen:
                    seen.add(grown)
                    frontier.append(grown)
        return tuple(self.intern(m) for m in sorted(seen, key=lambda m: member_order(m, R.size)))

    def least_in_coset(self, base: int) -> bytes:
        """Entry x is the least element of x + base, for base a nonzero subgroup of (R, +).
        The least element of no coset found so far is the least of its own.  Each coset
        has two or more elements, so its least is below 255, the mark of an element not
        yet reached."""
        n = self.ring.size
        members, least, x = bytes(bits(base)), bytearray(b"\xff" * n), 0
        while x >= 0:
            for y in members.translate(self.add_tables[x]):
                least[y] = x
            x = least.find(255, x + 1)
        return bytes(least)

    @cached_property
    def join_table(self) -> tuple:
        """Entry [c][a] is the index of ideals[c] + Ra: the first ideal, in size order, that
        holds ideal c and element a, as any ideal holding both holds that sum.  Row c walks
        the ideals from c up, each one naming the elements it is the first to hold."""
        ideals, table = self.ideals, []
        for c, C in enumerate(ideals):
            row, left, C = [0] * self.ring.size, self.full, C.mask
            for d in range(c, len(ideals)):
                D = ideals[d].mask
                if not C & ~D and D & left:
                    for a in bits(D & left):
                        row[a] = d
                    left &= ~D
                    if not left:
                        break
            table.append(tuple(row))
        return tuple(table)

    @cached_property
    def chain_break(self):
        """The lex-first pair of annihilator-class representatives (each class's first member)
        whose annihilators are incomparable; None when the annihilators form a chain."""
        ann, reps = self.ann, [cls[0] for cls in self.ann_classes]
        return next(((a, b) for a, b in combinations(reps, 2) if ann[a] & ann[b] not in (ann[a], ann[b])), None)

    @cached_property
    def max_ideals(self) -> tuple:
        """In lattice order, from one descending pass: a proper ideal is
        maximal iff no maximal ideal found so far, each larger, contains it."""
        found = []
        for A in reversed(self.ideals):
            if A.is_proper() and not any(A.mask & ~M.mask == 0 for M in found):
                found.append(A)
        return tuple(reversed(found))

    @cached_property
    def ann_classes(self) -> tuple:
        """Elements grouped by annihilator, groups in order of first element."""
        groups = {}
        for a, m in enumerate(self.ann):
            groups.setdefault(m, []).append(a)
        return tuple(tuple(g) for g in groups.values())


def lattice(R: FiniteRing) -> IdealLattice:
    """The ring's ideal lattice, built on first use."""
    if R._lattice is None:
        R._lattice = IdealLattice(R)
    return R._lattice


def _sum_sets(R: FiniteRing, xs, ys) -> frozenset:
    """{x + y : x in xs, y in ys} via the addition table."""
    return frozenset(bits(lattice(R).sum(mask_of(xs), mask_of(ys))))


def ideal_generate(R: FiniteRing, gens) -> Ideal:
    """Smallest ideal containing the generators."""
    return lattice(R).generate(tuple(int(g) for g in gens))


def ideal_from_members(R: FiniteRing, members) -> Ideal:
    return lattice(R).intern(mask_of(_elements(R, members, "member")))


def all_ideals(R: FiniteRing):
    """Every ideal exactly once, sorted by (cardinality, member tuple)."""
    return lattice(R).ideals


def annihilator(R: FiniteRing, T) -> Ideal:
    """{y : yt = 0 for every t in T}; Ann of the empty set is the whole ring."""
    L = lattice(R)
    return L.intern(reduce(and_, (L.ann[int(t)] for t in T), L.full))


def colon(A: Ideal, K) -> Ideal:
    """(A : K) = {w : wK subset of A}."""
    return lattice(A.ring).colon(A, mask_of(K))


def prime_violation(A: Ideal):
    """Lex-first pair (w, z) with wz in A but neither factor in A, or None."""
    if not A.is_proper():
        return None
    L = lattice(A.ring)
    rows, out = L.colon_rows(A), L.full & ~A.mask
    return next(((w, (hit & -hit).bit_length() - 1) for w in bits(out) if (hit := rows[w] & out)), None)


def is_prime(A: Ideal) -> bool:
    """Proper, and (A : x) = A for every x outside A: a w outside A with wx in A
    lies in (A : x) and not in A, and such a pair (w, x) is what primality forbids."""
    if not A.is_proper():
        return False
    L = lattice(A.ring)
    rows = L.colon_rows(A)
    return all(rows[x] == A.mask for x in bits(L.full & ~A.mask))


def spec(R: FiniteRing):
    """All prime ideals: the maximal ones, as R/P is a finite domain, hence a field."""
    return lattice(R).max_ideals


def is_maximal(A: Ideal) -> bool:
    return any(M.mask == A.mask for M in max_ideals(A.ring))


def max_ideals(R: FiniteRing):
    return lattice(R).max_ideals


def min_primes_over(A: Ideal):
    """Minimal primes containing A: every one, as distinct maximal ideals are incomparable."""
    if not A.is_proper():
        raise NotProperError("minimal primes are defined over proper ideals")
    return tuple(P for P in spec(A.ring) if A.mask & ~P.mask == 0)


def jacobson_radical(R: FiniteRing) -> Ideal:
    return lattice(R).intern(reduce(and_, (M.mask for M in max_ideals(R)), lattice(R).full))


def mcs_generate(R: FiniteRing, gens) -> MulClosedSet:
    """Multiplicative closure of gens together with 1.  May contain 0."""
    gens = _elements(R, gens)
    # multiplying by one generator at a time reaches every product: 1, g, g^2, ...
    rows = [R.mul[g] for g in gens]
    mask, frontier = 1 << R.one, [R.one]
    while frontier:
        x = frontier.pop()
        for row in rows:
            if not mask >> row[x] & 1:
                mask |= 1 << row[x]
                frontier.append(row[x])
    return MulClosedSet(R, mask, gens)


def mcs_from_members(R: FiniteRing, members) -> MulClosedSet:
    mask = mask_of(_elements(R, members, "member"))
    S = MulClosedSet(R, mask, tuple(bits(mask)))
    if R.one not in S:
        raise InvalidConstruction("a multiplicatively closed set must contain 1")
    ordered = bytes(S.sorted_members)
    inside = flags(ordered)
    if any(b"0" in ordered.translate(pad(R.mul[s])).translate(inside) for s in ordered):
        raise InvalidConstruction("set is not multiplicatively closed")
    return S


# -- localization -----------------------------------------------------------------


@dataclass(frozen=True)
class LocalizationResult:
    localized: FiniteRing
    map: RingHom
    kernel: Ideal
    absorbing_idempotent: int


def localize(R: FiniteRing, S: MulClosedSet) -> LocalizationResult:
    """S^{-1}R realized as the corner ring eR for the absorbing idempotent e.

    e is the eventual idempotent power of the product of all members of S;
    the natural map sends a to ea, and the kernel is {a : ea = 0}.  At e = 1,
    where S lies in the units, that is R itself with the identity map and
    kernel (0).  Otherwise one result is built per e, named after the S that
    built it, and shared by every S with the same e; each call asserts that
    S lands in the units of eR.
    """
    if S.ring is not R:
        raise TypeMismatch("m.c.s. belongs to a different ring")
    e, _ = idempotent_power(R, S.product())
    L = lattice(R)
    result = L.localizations.get(e)
    if result is None:
        if e == R.one:
            localized, natural = R, RingHom(R, R, tuple(range(R.size)))
        else:
            carrier = bytes(sorted(set(R.mul[e])))  # eR, ascending
            pos = bytes.maketrans(carrier, ELEMENTS[: len(carrier)])  # a member of eR to its index there
            tables = (tuple(carrier.translate(pad(t[x])).translate(pos) for x in carrier) for t in (R.add, R.mul))
            labels = tuple(R.labels[x] for x in carrier)
            localized = FiniteRing(*tables, labels=labels, recipe=f"loc({operand(R)}, {S.label()})")
            natural = check_hom(RingHom(R, localized, tuple(R.mul[e].translate(pos))))
        result = L.localizations[e] = LocalizationResult(localized, natural, annihilator(R, (e,)), e)
    units, image = result.localized.units, result.map.image
    if any(image[s] not in units for s in S.sorted_members):
        raise ConstructionBug("localization did not invert a member of S")
    return result


def ideal_pushforward(L: LocalizationResult, A: Ideal) -> Ideal:
    """Ideal of the localized ring generated by the image of A."""
    if A.ring is not L.map.domain:
        raise TypeMismatch("ideal belongs to a different ring")
    return ideal_generate(L.localized, tuple(L.map.image[g] for g in A.generators))


# -- ideal arithmetic helpers -------------------------------------------------------


def ideal_sum(A: Ideal, B: Ideal) -> Ideal:
    if A.ring is not B.ring:
        raise TypeMismatch("ideals belong to different rings")
    L = lattice(A.ring)
    return L.intern(L.sum(A.mask, B.mask))


def ideal_product(A: Ideal, B: Ideal) -> Ideal:
    """Ideal generated by pairwise products of generators."""
    if A.ring is not B.ring:
        raise TypeMismatch("ideals belong to different rings")
    return lattice(A.ring).product(A, B)
