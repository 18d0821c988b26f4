"""Bounded-degree polynomial arithmetic over a finite base ring.

Regularity in the full polynomial ring is decided exactly through constant
annihilators (a polynomial is a zero divisor iff a nonzero ring element
kills every coefficient), content ideals support the classical
content-product identity (Dedekind-Mertens), whose seeded sweep keys every
pair by columns (c(w), c(z), c(wz), deg w) and decides the identity once per
distinct key, reading a failing pair back from the draws only when a key fails,
and the S-r story over the polynomial ring is decided either through the
base-ring gates (finite annihilator condition / annihilator-of-zero-divisor
ideals) or in closed form.  Every bounded computation is sized before it
starts and refused past its limit.

Polynomial ideal membership is restricted to two decidable shapes: content
ideals (all coefficients in A) and evaluation kernels (f(a) in B).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import compress, product as iproduct
from operator import getitem

from .classify import has_fac, is_S_r_ideal
from .config import DEFAULT_DEGREE, DM_MAX_DEGREE, FAC_SUBSET_CAP, MAX_DEGREE, POLY_SEARCH_BUDGET
from .errors import DegreeLimitError, NotApplicableError, TypeMismatch
from .ideals import Ideal, MulClosedSet, ideal_generate, ideal_product, lattice
from .rings import FiniteRing


@dataclass(frozen=True)
class Poly:
    """Coefficients by ascending degree, trailing zeros trimmed; () is 0."""

    base: FiniteRing
    coeffs: tuple

    @staticmethod
    def make(base: FiniteRing, coeffs) -> "Poly":
        cs = [int(c) for c in coeffs]
        for c in cs:
            if not 0 <= c < base.size:
                raise TypeMismatch(f"coefficient {c} out of range")
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(base, tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            lab = self.base.labels[c]
            if i == 0:
                terms.append(lab)
            else:
                x = "x" if i == 1 else f"x^{i}"
                terms.append(x if c == self.base.one else f"{lab}{x}")
        return "+".join(terms)


def _product(f: Poly, g: Poly) -> Poly:
    """The product, with no degree cap: the s-unit search runs past it."""
    R = f.base
    if f.is_zero() or g.is_zero():
        return Poly(R, ())
    out = [0] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] = R.a(out[i + j], R.m(a, b))
    return Poly.make(R, out)


def poly_eval(f: Poly, a) -> int:
    R = f.base
    acc = 0
    for c in reversed(f.coeffs):
        acc = R.a(R.m(acc, a), c)
    return int(acc)


def constant(base: FiniteRing, c) -> Poly:
    return Poly.make(base, (c,))


def _dm_identity(cw: Ideal, cz: Ideal, cwz: Ideal, m: int, product=ideal_product) -> bool:
    """c(z)^(m+1) c(w) == c(z)^m c(wz), from the three content ideals; ``product`` is
    ideal_product or a memo of it."""
    zm = ideal_generate(cz.ring, (cz.ring.one,))
    for _ in range(m):
        zm = product(zm, cz)
    return product(product(zm, cz), cw).mask == product(zm, cwz).mask


@cache
def _top_bits(n: int) -> tuple:
    """The translate table and the delete set that turn the top byte of a 32-bit word into
    randrange(n)'s value, n < 256: its top n.bit_length() bits, deleted when n or more."""
    shift = bytes(v >> (8 - n.bit_length()) for v in range(256))
    return shift, bytes(v for v in range(256) if shift[v] >= n)


TOP_BIT_CLEAR = bytes(v < 128 for v in range(256))


def _randrange_block(rng: random.Random, n: int, count: int) -> bytes:
    """The values of [rng.randrange(n) for _ in range(count)], 1 <= n <= 256, drawn in
    blocks of words.

    randrange(n) keeps the top k = n.bit_length() bits of one 32-bit word and draws again
    while the value is n or more; getrandbits(32 m) returns m such words, the first in the
    low bits, so byte 4i + 3 of its little-endian bytes is the top byte of word i.  Below
    n = 256, k <= 8 and the top byte alone gives the value.  At n = 256, k = 9: a word is
    kept iff its top bit is clear, and its value is then its top byte after the words are
    shifted left by one bit.  Each block is sized for the values still missing and is
    topped up when rejections leave it short.  rng ends past where the loop would stop.
    """
    assert 1 <= n <= 256, n
    out = b""
    while len(out) < count:
        m = ((count - len(out)) << n.bit_length()) // n + 16
        words = rng.getrandbits(32 * m)
        top = words.to_bytes(4 * m, "little")[3::4]
        if n < 256:
            out += top.translate(*_top_bits(n))
        else:
            out += bytes(compress((words << 1).to_bytes(4 * m + 1, "little")[3::4], top.translate(TOP_BIT_CLEAR)))
    return out[:count]


def _nibble_rows(rows) -> bytes:
    """The translate table of codes x * 16 + y -> rows[x][y], for at most 16 rows of at most
    16 entries, each below 256."""
    return b"".join(bytes(row).ljust(16, b"\0") for row in rows).ljust(256, b"\0")


def _dm_table(R: FiniteRing, pairs: int, seed: int, max_degree: int):
    """The draws, as the per-pair loop makes them (w's coefficients, then z's), and the four
    key columns: c(w), c(z), c(wz) as indices into lattice(R).ideals, and deg w floored at 0.
    Pair p's w and z are the 2 width draws from p * 2 width on, and its key is entry p of
    each column.

    c(f) is the first ideal in size order that holds f's coefficients (0 lies in every
    ideal, so the zero polynomial gets (0)): the coefficients folded together from (0)
    through the lattice's join table.  Every pair is keyed at once, one coefficient column
    at a time: column i of w holds w_i of every pair (every (2 width)-th draw), and likewise
    for z, and one step applies a table of rows (*, +, the join table or a degree table) to
    two columns.  On a ring of at most 16 elements and 16 ideals every value is below 16,
    so a column is lifted once to a big int, a byte per pair, the codes x * 16 + y of two
    columns are one shift and or, and the step is one translate.  On any other ring the
    step is a gather into a tuple of ints, as a ring of at most 256 elements can have more
    than 256 ideals.
    """
    count, width = max(pairs, 0), max(max_degree + 1, 0)
    draws = _randrange_block(random.Random(seed), R.size, 2 * width * count)
    L = lattice(R)
    # deg w floored at 0 is the last i with w_i != 0: column i sends d to i if w_i else d
    last = (tuple(bytes(i if v else d for v in range(R.size)) for d in range(width)) for i in range(width))
    tables = (R.mul, R.add, L.join_table, *last)
    if R.size <= 16 and len(L.ideals) <= 16:
        tables = tuple(map(_nibble_rows, tables))
        lift, lower = partial(int.from_bytes, byteorder="big"), partial(int.to_bytes, length=count, byteorder="big")

        def apply(table, x, y):
            return lift(lower(x << 4 | y).translate(table))

    else:
        lift = lower = tuple

        def apply(rows, xs, ys):
            return tuple(map(getitem, map(rows.__getitem__, xs), ys))

    mul, add, join, *last = tables
    wcols = [lift(draws[i :: 2 * width]) for i in range(width)]
    zcols = [lift(draws[width + j :: 2 * width]) for j in range(width)]
    wz = {}  # the first product of a coefficient is stored as it is
    for i, j in iproduct(range(width), repeat=2):
        xy = apply(mul, wcols[i], zcols[j])
        wz[i + j] = apply(add, wz[i + j], xy) if i + j in wz else xy
    zero = lift(bytes(count))
    contents = (reduce(partial(apply, join), cols, zero) for cols in (wcols, zcols, wz.values()))
    degree = zero
    for i in range(1, width):
        degree = apply(last[i], degree, wcols[i])
    return draws, tuple(map(lower, (*contents, degree)))


def dedekind_mertens_sweep(R: FiniteRing, pairs: int, seed: int, max_degree: int = DM_MAX_DEGREE):
    """Seeded random product-content sweep; returns (checked, first_failure).

    A degree whose products could pass MAX_DEGREE is refused before any pair is
    drawn.  The identity is decided once per distinct key (c(w), c(z), c(wz),
    deg w), in ascending key order, and each product of two proper ideals once per
    sweep.  Only when some key fails are the columns walked for the first pair in
    draw order whose key fails, and its w and z sliced out of the draws.
    """
    if 2 * max_degree > MAX_DEGREE:
        raise DegreeLimitError(
            f"a sweep of degree {max_degree} takes products of degree up to {2 * max_degree}, past the cap {MAX_DEGREE}"
        )
    draws, columns = _dm_table(R, pairs, seed, max_degree)
    L = lattice(R)
    products = {}

    def product(A, B):  # the identity compares masks only, and (1)B is B
        if A.mask == L.full or B.mask == L.full:
            return B if A.mask == L.full else A
        key = (A.mask, B.mask)
        if key not in products:
            products[key] = ideal_product(A, B)
        return products[key]

    ideals = L.ideals
    keys = sorted(set(zip(*columns)))
    holds = {(a, b, c, m): _dm_identity(ideals[a], ideals[b], ideals[c], m, product) for a, b, c, m in keys}
    if all(holds.values()):
        return max(pairs, 0), None
    first = next(p for p, key in enumerate(zip(*columns)) if not holds[key])
    width = max(max_degree + 1, 0)
    at = first * 2 * width
    return first, (Poly.make(R, draws[at : at + width]), Poly.make(R, draws[at + width : at + 2 * width]))


# -- polynomial ideal specifications -----------------------------------------------------

CONTENT = "CONTENT"
EVAL_KERNEL = "EVAL_KERNEL"


@dataclass(frozen=True)
class PolyIdealSpec:
    kind: str
    ideal: Ideal  # A for CONTENT, B for EVAL_KERNEL
    point: object = None  # a for EVAL_KERNEL

    @staticmethod
    def content(A: Ideal) -> "PolyIdealSpec":
        return PolyIdealSpec(CONTENT, A)

    @staticmethod
    def eval_kernel(a, B: Ideal) -> "PolyIdealSpec":
        return PolyIdealSpec(EVAL_KERNEL, B, int(a))

    @property
    def base(self) -> FiniteRing:
        return self.ideal.ring


# -- verdicts ---------------------------------------------------------------------------

YES_BY_THEOREM = "YES_BY_THEOREM"
NO = "NO"
NO_VIOLATION_UP_TO = "NO_VIOLATION_UP_TO"

GATE_FAC = "fac"
GATE_PROPERTY_A = "property_a"


@dataclass(frozen=True)
class PolyVerdict:
    outcome: str
    gate: str = None
    pair: tuple = None  # (w, z) defeating every s
    witness_degree: int = None
    bound: int = None


def _poly_tuples(size: int, max_degree: int):
    """Nonzero coefficient tuples by degree, leading coefficient most significant.  A walk
    of more than POLY_SEARCH_BUDGET tuples is refused here, before its first tuple."""
    count = size ** (max_degree + 1) - 1
    if count > POLY_SEARCH_BUDGET:
        raise DegreeLimitError(
            f"a search of the {count} polynomials of degree <= {max_degree} over {size} elements "
            f"exceeds the budget {POLY_SEARCH_BUDGET}"
        )
    return (
        rest[::-1] + (lead,)
        for d in range(max_degree + 1)
        for lead in range(1, size)
        for rest in iproduct(range(size), repeat=d)
    )


def _tuple_regular(R: FiniteRing, coeffs, masks) -> bool:
    acc = (1 << R.size) - 1
    for c in coeffs:
        acc &= masks[c]
        if acc == 1:  # only 0 annihilates
            return True
    return acc == 1


def _check_degree(max_degree: int) -> None:
    if not 0 <= max_degree <= MAX_DEGREE:
        raise DegreeLimitError(f"degree {max_degree} outside 0..{MAX_DEGREE}")


def bounded_S_r_search(spec: PolyIdealSpec, S_const: MulClosedSet, max_degree: int) -> PolyVerdict:
    """Is there a pair of degree <= max_degree defeating every constant s?

    A pair (w, z) is a violation when wz lies in the spec, w is regular in
    the full polynomial ring, and sz escapes the spec for every s in S.  Both
    kinds of spec are decided in closed form, before any enumeration.

    Over a finite base the content branch never returns NO: a regular w has
    Ann(c(w)) = 0 (McCoy, Amer. Math. Monthly 49, 1942), so c(w) = R, since
    only R has zero annihilator (see `classify`).  Then w stays regular over
    R/A, and wz in A[x] forces z in A[x].

    An evaluation kernel (f(a) in B) gets NO iff max_degree >= 1 and S misses
    B.  An s in B sends every z into the kernel.  Otherwise z = 1 escapes every
    s, and w = x - a has content R, so it is regular, with w(a) = 0.  At
    degree 0 a regular w is a unit, so wz in the kernel puts z there too.
    The pair reported is the enumeration's first by degree, which lies among
    the tuples of degree <= 1, so only those are walked to find it.
    """
    R = spec.base
    if S_const.ring is not R:
        raise TypeMismatch("constant set belongs to a different ring")
    _check_degree(max_degree)
    a, B = spec.point, spec.ideal
    if spec.kind == CONTENT or max_degree == 0 or B.mask & S_const.mask:
        return PolyVerdict(NO_VIOLATION_UP_TO, bound=max_degree)
    masks = lattice(R).ann
    vbad = [v for v in R.elements() if all(R.m(s, v) not in B for s in S_const.sorted_members)]
    regular = (Poly(R, c) for c in _poly_tuples(R.size, 1) if _tuple_regular(R, c, masks))
    w, v = next((w, v) for w in regular for v in vbad if R.m(poly_eval(w, a), v) in B)
    return PolyVerdict(NO, pair=(w, constant(R, v)), witness_degree=w.degree, bound=max_degree)


def decide_content_S_r(A: Ideal, S: MulClosedSet, max_degree: int = DEFAULT_DEGREE, fac_cap: int = FAC_SUBSET_CAP) -> PolyVerdict:
    """Is the content ideal A[x] S-r over the polynomial ring?

    Gate order: the finite annihilator condition settles it for any S;
    Property A, which every finite ring has (see `classify`), settles it for
    S inside the regular elements; otherwise a bounded search runs at the
    configured degree.
    Once a gate fires the base verdict decides, and over a finite base ring
    it never fails (regular = unit, see `classify`).  The f.a.c. gate sweeps
    subsets up to ``fac_cap``; a caller that gates on its own Limits passes
    the same cap.
    """
    R = A.ring
    if A.mask & S.mask:
        raise NotApplicableError("DISJOINTNESS_VIOLATED")
    if has_fac(R, fac_cap).holds:
        gate = GATE_FAC
    elif not S.mask & ~lattice(R).regulars:
        gate = GATE_PROPERTY_A
    else:
        return bounded_S_r_search(PolyIdealSpec.content(A), S, max_degree)
    base = is_S_r_ideal(A, S)
    return PolyVerdict(YES_BY_THEOREM if base.holds else NO_VIOLATION_UP_TO, gate=gate, bound=max_degree)


# -- S-units in the polynomial ring -------------------------------------------------------

S_UNIT_YES = "yes"
S_UNIT_NO_UP_TO = "no_up_to"
S_UNIT_ANALYTIC_NO = "analytic_no"


@dataclass(frozen=True)
class PolySUnitResult:
    kind: str
    witness: Poly = None
    bound: int = None
    obstructions: tuple = ()


def poly_s_unit_check(f: Poly, S_const: MulClosedSet, max_degree: int) -> PolySUnitResult:
    """Does some g of degree <= max_degree make f*g a constant in S?

    With 0 outside S, a zero constant term is an unconditional obstruction
    (the constant term of any product is then 0); roots of f block the same
    way and are reported alongside a bounded-no answer.
    """
    R = f.base
    if S_const.ring is not R:
        raise TypeMismatch("constant set belongs to a different ring")
    _check_degree(max_degree)
    zero_in_s = 0 in S_const
    if not zero_in_s and not f.is_zero() and f.coeffs[0] == 0:
        return PolySUnitResult(S_UNIT_ANALYTIC_NO)
    if f.is_zero():
        if zero_in_s:
            return PolySUnitResult(S_UNIT_YES, witness=constant(R, 0), bound=max_degree)
        return PolySUnitResult(S_UNIT_ANALYTIC_NO)
    for coeffs in _poly_tuples(R.size, max_degree):
        g = Poly(R, coeffs)
        prod = _product(f, g)
        if prod.degree <= 0 and not prod.is_zero() and prod.coeffs[0] in S_const:
            return PolySUnitResult(S_UNIT_YES, witness=g, bound=max_degree)
        if prod.is_zero() and zero_in_s:
            return PolySUnitResult(S_UNIT_YES, witness=g, bound=max_degree)
    obstructions = ()
    if not zero_in_s:
        obstructions = tuple(a for a in R.elements() if poly_eval(f, a) == 0)
    return PolySUnitResult(S_UNIT_NO_UP_TO, bound=max_degree, obstructions=obstructions)
