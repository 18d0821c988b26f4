"""Finite commutative rings with exhaustively validated operation tables.

Elements are the indices 0..N-1; index 0 is always the additive identity.
Every constructor proves the ring axioms before returning, so holding a
FiniteRing object is evidence that its tables really describe a commutative
ring with identity.  Totality, commutativity, the zero and additive inverses
are checked on all pairs.  Associativity and distributivity are checked on
all pairs (x, y) against each g of a greedy generating set G of (R, +), of at
most log2(N) elements: the z that satisfy such a law for all x, y form a
set closed under + (Light's associativity test for + itself), so passing on
G is passing on every triple.  The scan costs O(N^2 log N) time and O(N^2)
memory instead of O(N^3) for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import size_limit
from .errors import (
    ConstructionBug,
    InvalidConstruction,
    NotAHomomorphism,
    NotApplicableError,
    SizeLimitError,
    TypeMismatch,
)


def abelian_generators(add, message: str) -> tuple:
    """Generators G of the abelian group (0..n-1, add), after proving it one.

    The caller has checked that ``add`` is total and commutative, that 0 is
    its identity and that every element has an inverse; this proves
    associativity or raises ``InvalidConstruction(message)``.  G grows from
    the empty set: each new generator is the least element outside the
    closure of {0} and G under +.  In a group that closure is the subgroup G
    spans, so each generator at least doubles it and more than floor(log2 n)
    generators mean + is not associative.  Light's test
    ``(x+g)+y == x+(g+y)`` for all x, y then settles associativity: the z
    passing it for all x, y include 0 and G and are closed under +, so they
    are every element.
    """
    n = add.shape[0]
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    gens = []
    while not inside.all():
        if len(gens) == n.bit_length() - 1:
            raise InvalidConstruction(message)
        gens.append(int(np.argmin(inside)))
        # + is commutative, so adding each new element to every element
        # reached so far closes the set under +
        frontier = np.array(gens[-1:])
        while frontier.size:
            inside[frontier] = True
            reached = np.zeros(n, dtype=bool)
            reached[add[frontier[:, None], inside]] = True
            frontier = np.flatnonzero(reached & ~inside)
    for g in gens:
        if not np.array_equal(add[add[:, g]], add[:, add[g]]):
            raise InvalidConstruction(message)
    return tuple(gens)


class FiniteRing:
    """A finite commutative ring with identity, given by total op tables."""

    __slots__ = (
        "size",
        "add",
        "mul",
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
        add = np.asarray(add, dtype=np.int16)
        mul = np.asarray(mul, dtype=np.int16)
        n = add.shape[0]
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
        for t in (self.add, self.mul):
            t.setflags(write=False)

    # -- construction-time checks -------------------------------------------------

    def _validate(self):
        n = self.size
        idx = np.arange(n, dtype=np.int16)
        add, mul = self.add, self.mul
        for name, t in (("add", add), ("mul", mul)):
            if t.shape != (n, n):
                raise InvalidConstruction(f"{name} table is not {n}x{n}")
            if t.min() < 0 or t.max() >= n:
                raise InvalidConstruction(f"{name} table is not total")
            if not np.array_equal(t, t.T):
                raise InvalidConstruction(f"{name} is not commutative")
        if not np.array_equal(add[0], idx):
            raise InvalidConstruction("element 0 is not the additive identity")
        if not (add == 0).any(axis=1).all():
            raise InvalidConstruction("some element has no additive inverse")
        self.add_gens = abelian_generators(add, "add is not associative")
        # x(y+g) == xy + xg.  With + associative, the z that distribute for
        # all x, y are closed under +, so the generators cover every z.
        for g in self.add_gens:
            if not np.array_equal(mul[:, add[:, g]], add[mul, mul[:, g, None]]):
                raise InvalidConstruction("multiplication does not distribute over addition")
        # (xy)g == x(yg).  Only now that mul distributes are the z with
        # (xy)z == x(yz) for all x, y closed under +.
        for g in self.add_gens:
            if not np.array_equal(mul[mul, g], mul[:, mul[:, g]]):
                raise InvalidConstruction("mul is not associative")
        ones = np.where((mul == idx[None, :]).all(axis=1))[0]
        if len(ones) == 0:
            raise InvalidConstruction("no multiplicative identity")
        self.one = int(ones[0])

    def _partition(self):
        n = self.size
        m = self.mul
        units = np.where((m == self.one).any(axis=1))[0]
        # ya = 0 for some y != 0  <=>  column a of mul[1:] contains 0
        zd_mask = (m[1:, :] == 0).any(axis=0) if n > 1 else np.zeros(1, dtype=bool)
        self.units = frozenset(int(a) for a in units)
        self.zero_divisors = frozenset(int(a) for a in np.where(zd_mask)[0])
        self.regulars = frozenset(range(n)) - self.zero_divisors
        if self.regulars != self.units:
            raise ConstructionBug("regular elements differ from units in a finite ring")
        ar = np.arange(n)
        sq = m[ar, ar]
        self._reduced = bool((sq[1:] != 0).all())
        self._idempotents = tuple(int(a) for a in np.where(sq == ar)[0])

    # -- scalar helpers ------------------------------------------------------------

    def a(self, x, y):
        return int(self.add[x, y])

    def m(self, x, y):
        return int(self.mul[x, y])

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
    if n > size_limit():
        raise SizeLimitError(f"{n} elements exceeds the cap {size_limit()}")


def make_zn(n: int) -> FiniteRing:
    """The ring of integers modulo n."""
    if n < 1:
        raise InvalidConstruction("Z_n needs n >= 1")
    check_size(n)
    idx = np.arange(n)
    add = np.mod(np.add.outer(idx, idx), n)
    mul = np.mod(np.multiply.outer(idx, idx), n)
    return FiniteRing(add, mul, recipe=f"Z{n}")


def operand(R: FiniteRing) -> str:
    """R's recipe as the operand of a derived ring: a product goes in parentheses."""
    return f"({R.recipe})" if " x " in R.recipe else R.recipe


def pair_table(t1, t2):
    """The table of pairs from one table per coordinate: entry ((i, j), (k, l)) is
    t1[i, k] * len(t2) + t2[j, l], each pair coded i * len(t2) + j."""
    n1, n2 = len(t1), len(t2)
    codes = t1.astype(np.int32)[:, None, :, None] * n2 + t2.astype(np.int32)[None, :, None, :]
    return codes.reshape(n1 * n2, n1 * n2)


def make_product(R1: FiniteRing, R2: FiniteRing) -> FiniteRing:
    """Componentwise ring on pairs; index (i, j) -> i*|R2| + j."""
    n1, n2 = R1.size, R2.size
    check_size(n1 * n2)
    labels = tuple(f"({R1.labels[i]},{R2.labels[j]})" for i in range(n1) for j in range(n2))
    recipe = f"{operand(R1)} x {R2.recipe}"
    return FiniteRing(pair_table(R1.add, R2.add), pair_table(R1.mul, R2.mul), labels=labels, recipe=recipe, parts=(R1, R2))


def _check_ideal_subset(R: FiniteRing, members) -> None:
    mem = np.fromiter(members, dtype=np.intp)
    inside = np.zeros(R.size, dtype=bool)
    inside[mem] = True
    if not inside[0]:
        raise TypeMismatch("not an ideal: 0 missing")
    if not inside[R.add[np.ix_(mem, mem)]].all():
        raise TypeMismatch("not an ideal: not closed under addition")
    if not inside[R.mul[:, mem]].all():
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
    least = R.add[:, list(ideal.sorted_members)].min(axis=1)  # least member of each coset a + I
    reps = np.flatnonzero(least == np.arange(R.size))  # the elements least in their own coset
    rank = np.zeros(R.size, dtype=np.intp)
    rank[reps] = np.arange(reps.size)
    coset_of = rank[least]
    name = ideal.label()
    labels = tuple(f"{R.labels[r]}+{name}" for r in reps)
    add, mul = (coset_of[t[np.ix_(reps, reps)]] for t in (R.add, R.mul))
    quotient = FiniteRing(add, mul, labels=labels, recipe=f"{operand(R)}/{name}")
    proj = check_hom(RingHom(R, quotient, tuple(coset_of.tolist())))
    if not np.array_equal(np.flatnonzero(coset_of == 0), ideal.sorted_members):
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
    img = np.asarray(h.image, dtype=np.int32)
    if img.min() < 0 or img.max() >= h.codomain.size:
        raise NotAHomomorphism("one", (int(img.min()), int(img.max())))
    if int(img[h.domain.one]) != h.codomain.one:
        raise NotAHomomorphism("one", (h.domain.one, int(img[h.domain.one])))
    gens = np.asarray(h.domain.add_gens, dtype=np.intp)
    for law, t1, t2 in (("add", h.domain.add, h.codomain.add), ("mul", h.domain.mul, h.codomain.mul)):
        lhs = img[t1[:, gens]]
        rhs = t2[img[:, None], img[gens][None, :]]
        if not np.array_equal(lhs, rhs):
            x, j = np.argwhere(lhs != rhs)[0]
            raise NotAHomomorphism(law, (int(x), int(gens[j])))
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
    img = np.asarray(h.image, dtype=np.intp)
    moved = (h.domain.mul == 0) != (h.codomain.mul[img[:, None], img[None, :]] == 0)
    bad = np.flatnonzero(moved.any(axis=0))
    return int(bad[0]) if bad.size else None
