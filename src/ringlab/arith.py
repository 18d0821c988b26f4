"""Closed-form decision procedures for finite products of Z and Z_n factors.

Finite rings degenerate for the r-ideal story (regular = unit), so the
genuinely discriminating examples live here: ideals of Z x Z such as
0 x 2Z fail to be r-ideals yet are S-r for suitable S.  Every verdict has
an exact closed form per factor, cross-checked by a truncated brute-force
window oracle.

Z is read as Z/0Z, so each closed form is one formula in the modulus n:
"c mod n" is c itself when n = 0, and "d divides c" means c = 0 when d = 0.
Only regularity, the r-ideal obstruction and the window tell Z from Z_n.

Descriptors:
  factor    the modulus n: 0 for Z (INT), n >= 1 for Z_n
  ideal     per factor a divisor d of n, the ideal dZ_n (for Z any m >= 0:
            0 -> {0}, 1 -> Z, m -> mZ; for Z_n, d = n is {0})
  m.c.s.    per factor: ("units",) | ("all",) | ("fin", frozenset) where a
            finite set must be multiplicatively closed and contain 1
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt

from .classify import DISJOINTNESS_VIOLATED, Verdict, FAILS, HOLDS, NOT_APPLICABLE
from .config import ORACLE_AXIS_CAP
from .errors import InvalidConstruction, NotProperError, SizeLimitError, TypeMismatch

INT = 0


def mod_factor(n: int):
    if n < 1:
        raise InvalidConstruction("Z_n factor needs n >= 1")
    return n


def _mod(c: int, n: int) -> int:
    return c % n if n else c


def _divides(d: int, c: int) -> bool:
    return c % d == 0 if d else c == 0


def _regular(c: int, n: int) -> bool:
    """Ann(c) = 0 in Z/nZ: c nonzero in Z, a unit in Z_n."""
    return c != 0 if n == 0 else gcd(c, n) == 1


def _obstructs(n: int, d: int) -> bool:
    """dZ is not an r-ideal of Z for d >= 2: d * 1 lies in it with d regular."""
    return n == 0 and d >= 2


def _axis(n: int, bound: int):
    """The window coordinates of a factor: [-bound, bound] for Z, all of Z_n."""
    return range(-bound, bound + 1) if n == 0 else range(n)


def _is_prime_int(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


@dataclass(frozen=True)
class ArithRing:
    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise InvalidConstruction("at least one factor required")
        for n in self.factors:
            if not (isinstance(n, int) and n >= 0):
                raise InvalidConstruction(f"bad factor {n}")

    @property
    def width(self):
        return len(self.factors)

    def reduce(self, coords):
        return tuple(_mod(int(c), n) for n, c in zip(self.factors, coords))

    def mul(self, x, y):
        return self.reduce(tuple(a * b for a, b in zip(x, y)))

    def one(self):
        return self.reduce((1,) * self.width)

    def label(self):
        return " x ".join(f"Z{n or ''}" for n in self.factors)


@dataclass(frozen=True)
class ArithIdeal:
    ring: ArithRing
    descs: tuple

    def __post_init__(self):
        if len(self.descs) != self.ring.width:
            raise TypeMismatch("descriptor count differs from factor count")
        for n, d in zip(self.ring.factors, self.descs):
            if d < 0:
                raise InvalidConstruction("descriptor must be >= 0")
            if not _divides(d, n):
                raise InvalidConstruction(f"descriptor {d} does not divide {n}")

    def is_proper(self) -> bool:
        return any(d != 1 for d in self.descs)

    def contains(self, w) -> bool:
        return all(_divides(d, c) for d, c in zip(self.descs, self.ring.reduce(w)))

    def label(self):
        return "(" + ",".join(str(d) for d in self.descs) + ")"


def zero_ideal(R: ArithRing) -> ArithIdeal:
    """(0): descriptor n on each factor, so 0 on Z."""
    return ArithIdeal(R, R.factors)


@dataclass(frozen=True)
class ArithMCS:
    ring: ArithRing
    descs: tuple

    def __post_init__(self):
        if len(self.descs) != self.ring.width:
            raise TypeMismatch("descriptor count differs from factor count")
        for n, d in zip(self.ring.factors, self.descs):
            if d[0] == "fin":
                reduced = {_mod(x, n) for x in d[1]}
                if _mod(1, n) not in reduced:
                    raise InvalidConstruction("finite m.c.s. factor must contain 1")
                if any(_mod(a * b, n) not in reduced for a in reduced for b in reduced):
                    raise InvalidConstruction("finite factor set not closed")
            elif d[0] not in ("units", "all"):
                raise InvalidConstruction(f"unknown m.c.s. descriptor {d}")

    def label(self):
        parts = ("{" + ",".join(str(x) for x in sorted(d[1])) + "}" if d[0] == "fin" else d[0] for d in self.descs)
        return "(" + ",".join(parts) + ")"


# -- element predicates ------------------------------------------------------------


def arith_ann_is_zero(R: ArithRing, w) -> bool:
    """Ann(w) = 0: every Z coordinate nonzero, every Z_n coordinate a unit."""
    return all(_regular(c, n) for n, c in zip(R.factors, R.reduce(w)))


def arith_is_prime(A: ArithIdeal) -> bool:
    """Exactly one non-full factor, and it carries descriptor 0 or a prime."""
    if not A.is_proper():
        raise NotProperError("primality is defined for proper ideals")
    nonfull = [d for d in A.descs if d != 1]
    return len(nonfull) == 1 and (nonfull[0] == 0 or _is_prime_int(nonfull[0]))


# -- key ordering for witness coordinates -------------------------------------------


def _abs_key(x: int):
    # minimal absolute value; positive before negative
    return (abs(x), 0 if x > 0 else 1, x)


def _factor_candidates(S: ArithMCS, i, bound):
    """Members of the i-th factor set within the search window, key-sorted."""
    n = S.ring.factors[i]
    d = S.descs[i]
    if d[0] == "all":
        pool = _axis(n, bound)
    elif d[0] == "units":
        pool = [x for x in _axis(n, 1) if gcd(x, n) == 1]  # every unit of Z lies in [-1, 1]
    else:
        pool = {_mod(x, n) for x in d[1]}
    return sorted(pool, key=_abs_key)


def _closed_candidates(S: ArithMCS, i):
    """What the closed forms read of the i-th factor set: a `fin` set in key order, and of
    an `all` or a `units` factor its key-least member alone, 0 or 1 mod n.  They ask of a
    factor only whether some member, and which key-least member, lies in dZ_n, and these
    answer both without listing Z_n: 0 lies in every ideal, and a unit lies in dZ_n iff
    d = 1, as 1 mod n does."""
    d = S.descs[i]
    if d[0] == "fin":
        return _factor_candidates(S, i, 0)
    return [0 if d[0] == "all" else _mod(1, S.ring.factors[i])]


# -- r- and S-r verdicts -------------------------------------------------------------


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
    i = next((i for i, (n, d) in enumerate(zip(A.ring.factors, A.descs)) if _obstructs(n, d)), None)
    if i is None:
        return Verdict(HOLDS)
    return Verdict(FAILS, counterexample=_violating_pair(A, i))


def arith_disjoint(A: ArithIdeal, S: ArithMCS) -> bool:
    """S and A are disjoint iff some factor of S misses A's factor ideal dZ_n."""
    return any(not any(_divides(d, c) for c in _closed_candidates(S, i)) for i, d in enumerate(A.descs))


def arith_is_S_r_ideal(A: ArithIdeal, S: ArithMCS, enforce_disjoint: bool = True) -> Verdict:
    """Closed form: some s in S must have every obstructing modulus dividing
    the matching coordinate; all other factors impose no condition.

    The witness takes the key-minimal admissible coordinate per factor
    (minimal absolute value, positive before negative).  On an `all` factor
    that coordinate is 0, which passes every divisibility test, so only 0 is read there.
    Without the disjointness gate the same form decides: where S meets A, every
    factor has a candidate in d_i Z_{n_i}, which passes, so the verdict holds.
    """
    R = A.ring
    if S.ring is not R and S.ring != R:
        raise TypeMismatch("m.c.s. belongs to a different ring")
    if not A.is_proper():
        return Verdict(NOT_APPLICABLE, reason="NOT_PROPER")
    if enforce_disjoint and not arith_disjoint(A, S):
        return Verdict(NOT_APPLICABLE, reason=DISJOINTNESS_VIOLATED)
    witness = []
    for i, (n, d) in enumerate(zip(R.factors, A.descs)):
        ok = next((c for c in _closed_candidates(S, i) if not _obstructs(n, d) or c % d == 0), None)
        if ok is None:
            default = tuple(_closed_candidates(S, j)[0] for j in range(R.width))
            return Verdict(FAILS, counterexample=_violating_pair(A, i), last_candidate=R.reduce(default))
        witness.append(ok)
    return Verdict(HOLDS, witness=R.reduce(tuple(witness)))


# -- window oracle -------------------------------------------------------------------

@cache
def arith_oracle_check(A: ArithIdeal, S: ArithMCS, bound: int, enforce_disjoint: bool = True) -> bool:
    """Truncated brute force over the coordinate window [-bound, bound].

    Confirms the closed-form verdict, with or without its disjointness gate: a Holds
    witness must send every sent window element into A, and a Fails verdict requires a
    concrete violating pair for every window member of S.  S = None checks the plain
    r-ideal verdict the same way.  Memoised process-wide by its arguments as passed, so
    every caller gives the gate flag positionally.
    """
    return _oracle_check(A, S, bound, enforce_disjoint)


def _in_factor_ideal(d, c) -> bool:
    """Whether the window value c lies in dZ_n; a Z_n descriptor divides n, so c needs no reducing."""
    return _divides(d, c)


def size_window(values: int) -> None:
    """Refuse a window whose coordinates take more than ORACLE_AXIS_CAP values; every
    window is sized here before any of its value lists is built."""
    if values > ORACLE_AXIS_CAP:
        raise SizeLimitError(f"an oracle window coordinate of {values} values exceeds the cap {ORACLE_AXIS_CAP}")


@cache
def _sent(R: ArithRing, descs, bound):
    """Per coordinate, the window values z_i that some regular w_i sends into d_i Z_{n_i};
    built once per (ideal, bound).  The regular window elements are the product of each
    coordinate's regular values, so a window z is sent into A by some regular w (wz in A)
    iff every z_i is sent: the sent elements are the product of these value lists."""
    size_window(max(len(_axis(n, bound)) for n in R.factors))
    sent = []
    for n, d in zip(R.factors, descs):
        axis = _axis(n, bound)
        regs = [r for r in axis if _regular(r, n)]
        # d divides cr iff d / gcd(c, d) divides r, so gcd(c, d) decides whether c is sent;
        # at d = 0 (a Z factor, whose regular values are nonzero) c == 0 decides
        sends = {}
        for c in axis:
            key = gcd(c, d) if d else c == 0
            if key not in sends:
                sends[key] = any(_in_factor_ideal(d, c * r) for r in regs)
        sent.append(tuple(c for c in axis if sends[gcd(c, d) if d else c == 0]))
    return sent


def window_floor(A: ArithIdeal) -> int:
    """The least oracle bound for A: twice its largest Z descriptor."""
    return 2 * max((d for n, d in zip(A.ring.factors, A.descs) if n == 0), default=0)


def _oracle_check(A: ArithIdeal, S, bound: int, enforce_disjoint: bool = True) -> bool:
    """The product is componentwise, and A, the window members of S and the sent elements
    are products over the coordinates, so "some s sends every sent z into A" holds iff every
    coordinate has an s_i that sends every sent z_i into d_i Z_{n_i}.  A Holds verdict asks
    it of the witness alone, and a Fails verdict needs it false for every s."""
    R = A.ring
    if bound < window_floor(A):
        raise InvalidConstruction("window must cover twice the largest descriptor")
    verdict = arith_is_r_ideal(A) if S is None else arith_is_S_r_ideal(A, S, enforce_disjoint)
    if verdict.not_applicable:
        return True
    sent = _sent(R, A.descs, bound)
    if verdict.holds:
        # the r-ideal verdict has no witness: z itself must stay in A
        axes = [[c] for c in verdict.witness or (1,) * R.width]
    else:
        axes = [[1]] * R.width if S is None else [_factor_candidates(S, i, bound) for i in range(R.width)]
    # at bound 0 every coordinate passes: a Z one has no sent value, and a Z_n one's lie in d Z_n.
    # d divides sz for every sent z iff it divides s times their gcd (0 when there are none).
    covered = all(any(_in_factor_ideal(d, s * gcd(*zs)) for s in ss) for d, ss, zs in zip(A.descs, axes, sent))
    return covered == verdict.holds


# -- ideal arithmetic in closed form ---------------------------------------------------


def _colon_desc(n, a, x):
    """Descriptor of (aZ_n : x): a / gcd(a, x), or the whole factor when x = 0 in Z_n."""
    x = _mod(x, n)
    return a // gcd(a, x) if x != 0 else 1


def arith_colon_element(A: ArithIdeal, x) -> ArithIdeal:
    x = A.ring.reduce(x)
    return ArithIdeal(A.ring, tuple(map(_colon_desc, A.ring.factors, A.descs, x)))


def arith_colon_ideal(A: ArithIdeal, B: ArithIdeal) -> ArithIdeal:
    """(A : B) per factor, using the factor generator of B."""
    return ArithIdeal(A.ring, tuple(map(_colon_desc, A.ring.factors, A.descs, B.descs)))


def arith_contains(A: ArithIdeal, B: ArithIdeal) -> bool:
    """B subset of A: a divides b in every factor."""
    return all(_divides(a, b) for a, b in zip(A.descs, B.descs))


def arith_product(A: ArithIdeal, B: ArithIdeal) -> ArithIdeal:
    return ArithIdeal(A.ring, tuple(gcd(a * b, n) for n, a, b in zip(A.ring.factors, A.descs, B.descs)))


def arith_meets_regulars(A: ArithIdeal) -> bool:
    """Does A contain an element with zero annihilator?  A product element is
    regular iff every coordinate is, so iff the generator tuple is."""
    return arith_ann_is_zero(A.ring, A.descs)


def arith_subset_zd(A: ArithIdeal) -> bool:
    """Is every member of A a zero divisor?"""
    return not arith_meets_regulars(A)
