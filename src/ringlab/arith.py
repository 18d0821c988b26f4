"""Closed-form decision procedures for finite products of Z and Z_n factors.

Finite rings degenerate for the r-ideal story (regular = unit), so the
genuinely discriminating examples live here: ideals of Z x Z such as
0 x 2Z fail to be r-ideals yet are S-r for suitable S.  Every verdict has
an exact closed form per factor, cross-checked by a truncated brute-force
window oracle.

Descriptors:
  factor    ("Z",) for the integers, ("Zn", n) for Z_n
  ideal     per factor: for Z an integer m >= 0 (0 -> {0}, 1 -> Z, m -> mZ);
            for Z_n a divisor d of n (the ideal dZ_n; d = n is {0})
  m.c.s.    per factor: ("units",) | ("all",) | ("fin", frozenset) where a
            finite set must be multiplicatively closed and contain 1
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import gcd

import numpy as np

from .classify import DISJOINTNESS_VIOLATED, Verdict, FAILS, HOLDS, NOT_APPLICABLE
from .errors import InvalidConstruction, NotProperError, TypeMismatch

INT = ("Z",)


def mod_factor(n: int):
    if n < 1:
        raise InvalidConstruction("Z_n factor needs n >= 1")
    return ("Zn", n)


def _is_prime_int(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class ArithRing:
    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise InvalidConstruction("at least one factor required")
        for f in self.factors:
            if f != INT and (f[0] != "Zn" or f[1] < 1):
                raise InvalidConstruction(f"bad factor {f}")

    @property
    def width(self):
        return len(self.factors)

    def reduce(self, coords):
        out = []
        for f, c in zip(self.factors, coords):
            out.append(int(c) if f == INT else int(c) % f[1])
        return tuple(out)

    def mul(self, x, y):
        return self.reduce(tuple(a * b for a, b in zip(x, y)))

    def one(self):
        return self.reduce((1,) * self.width)

    def label(self):
        return " x ".join("Z" if f == INT else f"Z{f[1]}" for f in self.factors)


@dataclass(frozen=True)
class ArithIdeal:
    ring: ArithRing
    descs: tuple

    def __post_init__(self):
        if len(self.descs) != self.ring.width:
            raise TypeMismatch("descriptor count differs from factor count")
        for f, d in zip(self.ring.factors, self.descs):
            if f == INT:
                if d < 0:
                    raise InvalidConstruction("Z-factor descriptor must be >= 0")
            elif not (1 <= d <= f[1] and f[1] % d == 0):
                raise InvalidConstruction(f"descriptor {d} does not divide {f[1]}")

    def is_proper(self) -> bool:
        return any(d != 1 for d in self.descs)

    def contains(self, w) -> bool:
        w = self.ring.reduce(w)
        for f, d, c in zip(self.ring.factors, self.descs, w):
            if f == INT:
                if d == 0 and c != 0:
                    return False
                if d >= 2 and c % d != 0:
                    return False
            else:
                if c % d != 0:
                    return False
        return True

    def label(self):
        return "(" + ",".join(str(d) for d in self.descs) + ")"


@dataclass(frozen=True)
class ArithMCS:
    ring: ArithRing
    descs: tuple

    def __post_init__(self):
        if len(self.descs) != self.ring.width:
            raise TypeMismatch("descriptor count differs from factor count")
        for f, d in zip(self.ring.factors, self.descs):
            if d[0] == "fin":
                members = d[1]
                if f == INT:
                    if 1 not in members:
                        raise InvalidConstruction("finite m.c.s. factor must contain 1")
                    for a in members:
                        for b in members:
                            if a * b not in members:
                                raise InvalidConstruction("finite factor set not closed")
                else:
                    n = f[1]
                    reduced = {x % n for x in members}
                    if 1 % n not in reduced:
                        raise InvalidConstruction("finite m.c.s. factor must contain 1")
                    for a in reduced:
                        for b in reduced:
                            if (a * b) % n not in reduced:
                                raise InvalidConstruction("finite factor set not closed")
            elif d[0] not in ("units", "all"):
                raise InvalidConstruction(f"unknown m.c.s. descriptor {d}")

    def factor_contains(self, i, c) -> bool:
        f = self.ring.factors[i]
        d = self.descs[i]
        if d[0] == "all":
            return True
        if d[0] == "units":
            if f == INT:
                return c in (1, -1)
            return gcd(c, f[1]) == 1
        members = d[1]
        if f == INT:
            return c in members
        return (c % f[1]) in {x % f[1] for x in members}

    def contains(self, w) -> bool:
        w = self.ring.reduce(w)
        return all(self.factor_contains(i, c) for i, c in enumerate(w))

    def label(self):
        parts = []
        for d in self.descs:
            if d[0] == "fin":
                parts.append("{" + ",".join(str(x) for x in sorted(d[1])) + "}")
            else:
                parts.append(d[0])
        return "(" + ",".join(parts) + ")"


# -- element predicates ------------------------------------------------------------


def arith_ann_is_zero(R: ArithRing, w) -> bool:
    """Ann(w) = 0: every Z coordinate nonzero, every Z_n coordinate a unit."""
    w = R.reduce(w)
    for f, c in zip(R.factors, w):
        if f == INT:
            if c == 0:
                return False
        elif gcd(c, f[1]) != 1:
            return False
    return True


def arith_is_prime(A: ArithIdeal) -> bool:
    """Exactly one non-full factor, and it carries a prime descriptor."""
    if not A.is_proper():
        raise NotProperError("primality is defined for proper ideals")
    nonfull = [(f, d) for f, d in zip(A.ring.factors, A.descs) if d != 1]
    if len(nonfull) != 1:
        return False
    f, d = nonfull[0]
    if f == INT:
        return d == 0 or _is_prime_int(d)
    return _is_prime_int(d)


# -- key ordering for witness coordinates -------------------------------------------


def _abs_key(x: int):
    # minimal absolute value; positive before negative
    return (abs(x), 0 if x > 0 else 1, x)


def _factor_candidates(S: ArithMCS, i, bound):
    """Members of the i-th factor set within the search window, key-sorted."""
    f = S.ring.factors[i]
    d = S.descs[i]
    if f == INT:
        if d[0] == "units":
            pool = [1, -1]
        elif d[0] == "all":
            pool = list(range(-bound, bound + 1))
        else:
            pool = sorted(d[1])
    else:
        n = f[1]
        if d[0] == "units":
            pool = [x for x in range(n) if gcd(x, n) == 1]
        elif d[0] == "all":
            pool = list(range(n))
        else:
            pool = sorted({x % n for x in d[1]})
    return sorted(pool, key=_abs_key)


# -- r- and S-r verdicts -------------------------------------------------------------


def _first_obstruction(A: ArithIdeal):
    """Index of the first Z factor with descriptor >= 2, else None."""
    for i, (f, d) in enumerate(zip(A.ring.factors, A.descs)):
        if f == INT and d >= 2:
            return i
    return None


def _violating_pair(A: ArithIdeal, i):
    """(w, z) with wz in A, Ann(w) = 0, z escaping A at factor i."""
    R = A.ring
    m = A.descs[i]
    w = tuple(m if j == i else 1 for j in range(R.width))
    z = tuple(1 if j == i else 0 for j in range(R.width))
    return R.reduce(w), R.reduce(z)


def arith_is_r_ideal(A: ArithIdeal) -> Verdict:
    """Holds iff no Z factor carries a descriptor >= 2 (Z_n factors never obstruct)."""
    if not A.is_proper():
        return Verdict(NOT_APPLICABLE, reason="NOT_PROPER")
    i = _first_obstruction(A)
    if i is None:
        return Verdict(HOLDS)
    return Verdict(FAILS, counterexample=_violating_pair(A, i))


def arith_disjoint(A: ArithIdeal, S: ArithMCS) -> bool:
    """S and A are disjoint iff some factor has empty intersection."""
    for i, (f, d) in enumerate(zip(A.ring.factors, A.descs)):
        sd = S.descs[i]
        if f == INT:
            if d == 0:
                hit = S.factor_contains(i, 0)
            elif d == 1:
                hit = True  # factor set always meets the whole line (contains 1)
            else:
                if sd[0] == "units":
                    hit = False
                elif sd[0] == "all":
                    hit = True
                else:
                    hit = any(x % d == 0 for x in sd[1])
        else:
            n = f[1]
            if sd[0] == "units":
                hit = d == 1
            elif sd[0] == "all":
                hit = True
            else:
                hit = any((x % n) % d == 0 for x in sd[1])
        if not hit:
            return True
    return False


def arith_is_S_r_ideal(A: ArithIdeal, S: ArithMCS, witness_bound: int = None) -> Verdict:
    """Closed form: some s in S must have every obstructing modulus dividing
    the matching coordinate; all other factors impose no condition.

    The witness takes the key-minimal admissible coordinate per factor
    (minimal absolute value, positive before negative).
    """
    from .config import ARITH_WITNESS_BOUND

    bound = ARITH_WITNESS_BOUND if witness_bound is None else witness_bound
    R = A.ring
    if S.ring is not R and S.ring != R:
        raise TypeMismatch("m.c.s. belongs to a different ring")
    if not A.is_proper():
        return Verdict(NOT_APPLICABLE, reason="NOT_PROPER")
    if not arith_disjoint(A, S):
        return Verdict(NOT_APPLICABLE, reason=DISJOINTNESS_VIOLATED)
    witness = []
    for i, (f, d) in enumerate(zip(R.factors, A.descs)):
        cands = _factor_candidates(S, i, bound)
        if f == INT and d >= 2:
            ok = next((c for c in cands if c % d == 0), None)
        else:
            ok = cands[0] if cands else None
        if ok is None:
            default = tuple(_factor_candidates(S, j, bound)[0] for j in range(R.width))
            w, z = _violating_pair(A, i)
            return Verdict(
                FAILS,
                counterexample=(w, z),
                last_candidate=R.reduce(default),
            )
        witness.append(ok)
    return Verdict(HOLDS, witness=R.reduce(tuple(witness)))


# -- window oracle -------------------------------------------------------------------

# Verdicts by (factors, descs, S descs, bound); sent window elements by (factors, descs, bound).
_oracle_cache = {}
_CHUNK = 1 << 15  # elements per temporary in the window scans


def arith_oracle_check(A: ArithIdeal, S: ArithMCS, bound: int) -> bool:
    """Truncated brute force over the coordinate window [-bound, bound].

    Confirms the closed-form verdict: a Holds witness is re-verified against
    every window pair, and a Fails verdict requires a concrete violating
    pair for every window member of S.  S = None checks the plain r-ideal
    verdict the same way.
    """
    R = A.ring
    key = (R.factors, A.descs, S.descs if S is not None else None, bound)
    if key not in _oracle_cache:
        _oracle_cache[key] = _oracle_check(A, S, bound)
    return _oracle_cache[key]


def _in_ideal(descs, xs):
    """Which rows of xs lie in the ideal; a Z_n descriptor divides n, so xs need no reducing."""
    d = np.array(descs, dtype=np.int64)
    return np.where(d == 0, xs == 0, xs % np.maximum(d, 1) == 0).all(axis=-1)


def _products_in(descs, xs, ys, reduce):
    """For each row x of xs, reduce (np.any or np.all) of "xy is in the ideal" over
    the rows y of ys; temporaries hold about _CHUNK elements."""
    step = max(1, _CHUNK // max(1, ys.size))
    return np.concatenate([
        reduce(_in_ideal(descs, xs[i : i + step, None] * ys[None]), axis=1) for i in range(0, len(xs), step)
    ])


def _sent(R: ArithRing, descs, bound):
    """The window elements z, as rows of an array, that some window w with
    Ann(w) = 0 sends into the ideal (wz in A); built once per (ideal, bound)."""
    key = (R.factors, descs, bound)
    if key not in _oracle_cache:
        axes = [np.arange(-bound, bound + 1) if f == INT else np.arange(f[1]) for f in R.factors]
        window = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, R.width)
        mods = np.array([0 if f == INT else f[1] for f in R.factors], dtype=np.int64)
        regs = window[np.where(mods == 0, window != 0, np.gcd(window, mods) == 1).all(axis=1)]
        _oracle_cache[key] = window[_products_in(descs, window, regs, np.any)]
    return _oracle_cache[key]


def _oracle_check(A: ArithIdeal, S, bound: int) -> bool:
    R = A.ring
    maxdesc = max((d for f, d in zip(R.factors, A.descs) if f == INT), default=0)
    if bound < 2 * maxdesc:
        raise InvalidConstruction("window must cover twice the largest descriptor")
    if S is None:
        verdict = arith_is_r_ideal(A)
    else:
        verdict = arith_is_S_r_ideal(A, S)
        if verdict.not_applicable:
            return True
    sent = _sent(R, A.descs, bound)
    if verdict.holds:
        # no sent z may escape the witness (the r-ideal verdict has none: z itself must stay in A)
        s = np.array([verdict.witness or (1,) * R.width])
        return bool(_products_in(A.descs, s, sent, np.all).all())
    # every window s must have a sent z that escapes it
    axes = [[1]] * R.width if S is None else [_factor_candidates(S, i, bound) for i in range(R.width)]
    return not _products_in(A.descs, np.array(list(iproduct(*axes))), sent, np.all).any()


# -- ideal arithmetic in closed form ---------------------------------------------------


def _colon_desc(f, a, x):
    """Descriptor of ({a-ideal} : x) in one factor."""
    if f == INT:
        if a == 0:
            return 1 if x == 0 else 0
        if a == 1:
            return 1
        return a // gcd(a, abs(x)) if x != 0 else 1
    n = f[1]
    x = x % n
    return a // gcd(a, x) if x != 0 else 1


def arith_colon_element(A: ArithIdeal, x) -> ArithIdeal:
    x = A.ring.reduce(x)
    descs = tuple(_colon_desc(f, a, c) for f, a, c in zip(A.ring.factors, A.descs, x))
    return ArithIdeal(A.ring, descs)


def arith_colon_ideal(A: ArithIdeal, B: ArithIdeal) -> ArithIdeal:
    """(A : B) per factor, using the factor generator of B."""
    descs = tuple(
        _colon_desc(f, a, b) for f, a, b in zip(A.ring.factors, A.descs, B.descs)
    )
    return ArithIdeal(A.ring, descs)


def arith_contains(A: ArithIdeal, B: ArithIdeal) -> bool:
    """B subset of A, factorwise."""
    for f, a, b in zip(A.ring.factors, A.descs, B.descs):
        if f == INT:
            if b == 0:
                continue
            if a == 0 or b % a != 0:
                return False
        else:
            if b % a != 0:
                return False
    return True


def arith_product(A: ArithIdeal, B: ArithIdeal) -> ArithIdeal:
    descs = []
    for f, a, b in zip(A.ring.factors, A.descs, B.descs):
        descs.append(a * b if f == INT else gcd(a * b, f[1]))
    return ArithIdeal(A.ring, tuple(descs))


def arith_meets_regulars(A: ArithIdeal) -> bool:
    """Does A contain an element with zero annihilator?"""
    for f, d in zip(A.ring.factors, A.descs):
        if f == INT:
            if d == 0:
                return False
        else:
            if d != 1:
                return False
    return True


def arith_subset_zd(A: ArithIdeal) -> bool:
    """Is every member of A a zero divisor?

    A product element is a zero divisor iff some coordinate fails the unit /
    nonzero test; the product ideal avoids that for all members iff every
    factor descriptor can produce a regular coordinate simultaneously, i.e.
    the generator tuple itself is regular.
    """
    gen = tuple(d if f == INT else d % f[1] for f, d in zip(A.ring.factors, A.descs))
    return not arith_ann_is_zero(A.ring, gen)
