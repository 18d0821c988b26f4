"""Trivial extensions and amalgamations, with the transfer checks they support.

Everything finite is rebuilt as a FiniteRing so the classifiers apply
unchanged.  Amalgamations with an infinite first component are supported
only for the family Z joined to Z_n along an ideal via the canonical
surjection, where the zero-ideal transfer is decidable in closed form and
confirmable on a truncated window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct, repeat
from math import gcd
from operator import getitem, ne

from .arith import INT, ArithIdeal, ArithMCS, ArithRing, arith_disjoint, arith_is_S_r_ideal, arith_oracle_check, size_window
from .classify import Verdict, is_S_r_ideal
from .errors import (
    InvalidConstruction,
    NotAnIdealError,
    TypeMismatch,
)
from .ideals import Ideal, MulClosedSet, _elements, bits, ideal_from_members, lattice, mcs_from_members, members
from .rings import (
    ELEMENTS,
    FiniteRing,
    RingHom,
    abelian_generators,
    byte_rows,
    check_hom,
    check_size,
    columns,
    flags,
    is_isomorphism,
    make_quotient,
    pad,
    pair_table,
)


# -- finite modules ------------------------------------------------------------------


class FiniteModule:
    """A finite module over a FiniteRing: abelian group plus scalar action."""

    __slots__ = ("ring", "size", "add", "action", "labels", "recipe")

    def __init__(self, ring, add, action, labels=None, recipe="?"):
        self.ring = ring
        self.add = byte_rows(add, "module addition")
        self.action = byte_rows(action, "scalar action")
        self.size = len(self.add)
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(self.size))
        self.recipe = recipe
        self._validate()

    def _validate(self):
        n = self.size
        t = self.add
        if n < 1 or any(len(row) != n for row in t) or b"".join(t).translate(None, ELEMENTS[:n]):
            raise InvalidConstruction("module addition table is not total")
        if t != columns(t):
            raise InvalidConstruction("module addition is not an abelian group")
        if t[0] != ELEMENTS[:n] or not all(0 in row for row in t):
            raise InvalidConstruction("module addition lacks zero or inverses")
        padded = tuple(map(pad, t))
        gens = abelian_generators(t, padded, "module addition is not an abelian group")
        act = self.action
        R = self.ring
        if len(act) != R.size or any(len(row) != n for row in act) or b"".join(act).translate(None, ELEMENTS[:n]):
            raise InvalidConstruction("scalar action table is not total")
        if act[R.one] != ELEMENTS[:n]:
            raise InvalidConstruction("1 does not act as identity")
        # Each law below is checked on the generators g of (M, +) only: given
        # the laws checked before it, the m that satisfy it for all r, s are
        # closed under +, so it then holds for every m.
        pact = tuple(map(pad, act))
        for g in gens:
            # r(m+g) = rm + rg, row r over m: row g+m read through row r, and row r read through row rg
            if any(map(ne, map(t[g].translate, pact), (row.translate(padded[row[g]]) for row in act))):
                raise InvalidConstruction("action does not distribute over module addition")
        flat = b"".join(act)
        for g in gens:
            col = flat[g::n]  # rg over r
            # (rs)g = r(sg), row r over s: row rs read through col, and col read through row r
            if any(map(ne, map(bytes.translate, R.mul, repeat(pad(col))), map(col.translate, pact))):
                raise InvalidConstruction("scalar action is not associative")
            # (r+s)g = rg + sg, row r over s: row r+s read through col, and col read through row rg
            if any(map(ne, map(bytes.translate, R.add, repeat(pad(col))), map(col.translate, map(padded.__getitem__, col)))):
                raise InvalidConstruction("action does not distribute over ring addition")

    def __repr__(self):
        return f"FiniteModule({self.recipe}, size={self.size})"


def make_module_free(R: FiniteRing, k: int) -> FiniteModule:
    """R^k with componentwise addition and scalar action."""
    if k < 0:
        raise InvalidConstruction("rank must be >= 0")
    check_size(R.size**k)
    add, act, wide = (b"\0",), (b"\0",) * R.size, ELEMENTS * 2
    for _ in range(k):  # R^k as R^(k-1) x R: r(m, x) = (rm, rx), coded rm * |R| + rx
        add = pair_table(add, R.add)
        act = tuple(b"".join(row.translate(wide[c * R.size : c * R.size + 256]) for c in old) for old, row in zip(act, R.mul))
    tuples = list(iproduct(range(R.size), repeat=k))
    if k == 1:
        labels = tuple(R.labels[t[0]] for t in tuples)
    else:
        labels = tuple("(" + ",".join(R.labels[a] for a in t) + ")" for t in tuples)
    return FiniteModule(R, add, act, labels=labels, recipe=f"free({k})")


def make_module_quotient(R: FiniteRing, J: Ideal) -> FiniteModule:
    """R/J as a module over R with the induced action."""
    Q, proj = make_quotient(R, J)
    return FiniteModule(R, Q.add, [Q.mul[q] for q in proj.image], labels=Q.labels, recipe=f"quot{J.label()}")


def module_is_torsion_free(M: FiniteModule) -> bool:
    """rm = 0 forces r = 0 or m = 0."""
    return not any(0 in row[1:] for row in M.action[1:])


def module_ann(M: FiniteModule) -> Ideal:
    """{r : rM = 0}."""
    return ideal_from_members(M.ring, (r for r, row in enumerate(M.action) if not any(row)))


def zd_union_inside_module_ann(M: FiniteModule, include_zero: bool = False):
    """Union of Ann(a) over (nonzero) a, compared against Ann(M).

    The literal union over all a includes a = 0, whose annihilator is the
    whole ring; that reading forces M = 0, so the nonzero reading is the
    operative one.  Both are reported.
    """
    union = 0
    for ann in lattice(M.ring).ann[0 if include_zero else 1 :]:
        union |= ann
    return not union & ~module_ann(M).mask


# -- trivial extension ----------------------------------------------------------------


@dataclass(frozen=True)
class TrivExtRing:
    base: FiniteRing
    module: FiniteModule
    ring: FiniteRing

    def pair_index(self, r, m):
        """The code of (r, m)."""
        return r * self.module.size + m


def make_trivial_extension(R: FiniteRing, M: FiniteModule) -> TrivExtRing:
    """Ring on pairs (r, m) with (w,e)(z,f) = (wz, wf + ze)."""
    if M.ring is not R:
        raise TypeMismatch("module is over a different ring")
    n = R.size * M.size
    check_size(n)
    ms, wide = M.size, ELEMENTS * 2
    # (r1, m1)(r2, m2) = (r1 r2, r1 m2 + r2 m1): over m2, row r1 of the action read through
    # row r2 m1 of module addition, shifted by r1 r2 * |M|
    shifted = [[pad(row.translate(wide[c * ms : c * ms + 256])) for c in range(R.size)] for row in M.add]
    mul = tuple(
        b"".join(M.action[r1].translate(shifted[M.action[r2][m1]][R.mul[r1][r2]]) for r2 in R.elements())
        for r1 in R.elements()
        for m1 in range(ms)
    )
    labels = tuple(f"({R.labels[i]},{M.labels[j]})" for i in R.elements() for j in range(ms))
    ring = FiniteRing(pair_table(R.add, M.add), mul, labels=labels, recipe=f"triv({R.recipe}, {M.recipe})")
    if any(ring.mul[m][m] for m in range(ms)):  # (0, m) is coded m
        raise InvalidConstruction("(0, m) failed to square to zero")
    return TrivExtRing(R, M, ring)


def triv_ideal(T: TrivExtRing, A: Ideal, N) -> Ideal:
    """A (x) N as an ideal of the extension; requires N inside the module and AM inside N."""
    if A.ring is not T.base:
        raise TypeMismatch("ideal belongs to a different ring")
    N = _elements(T.module, N, "module element")
    inside = flags(bytes(N))
    for a in bits(A.mask):
        m = T.module.action[a].translate(inside).find(b"0")
        if m >= 0:
            raise NotAnIdealError("A*M escapes N", witness=(a, m))
    return ideal_from_members(T.ring, (T.pair_index(a, m) for a in bits(A.mask) for m in N))


S_ZERO = "S_ZERO"
S_FULL = "S_FULL"


def lift_mcs_triv(T: TrivExtRing, S: MulClosedSet, mode: str) -> MulClosedSet:
    """Lift S to the extension: pairs (s, 0) or all pairs (s, m)."""
    if S.ring is not T.base:
        raise TypeMismatch("m.c.s. belongs to a different ring")
    if mode not in (S_ZERO, S_FULL):
        raise InvalidConstruction(f"unknown lift mode {mode}")
    ms = range(T.module.size if mode == S_FULL else 1)
    return mcs_from_members(T.ring, (T.pair_index(s, m) for s in bits(S.mask) for m in ms))


def triv_module_facts(T: TrivExtRing) -> dict:
    """P3.3's facts about M, the same for every (A, S): M is torsion-free, and the union
    of Ann(a) lies inside Ann(M) over nonzero a and, reported only, over every a."""
    M = T.module
    return {
        "torsion_free": module_is_torsion_free(M),
        "zd_union_in_ann": zd_union_inside_module_ann(M),
        "zd_union_in_ann_literal": zd_union_inside_module_ann(M, include_zero=True),
    }


def triv_equivalence_check(T: TrivExtRing, A: Ideal, S: MulClosedSet):
    """Evaluate the three transfer statements independently.

    1) A is S-r in the base; 2) A (x) M is (S (x) 0)-r; 3) A (x) M is
    (S (x) M)-r.  Returns the pattern of the three verdicts, which must agree
    when A misses S and `triv_module_facts(T)` hold.
    """
    big = triv_ideal(T, A, range(T.module.size))
    lifted = [is_S_r_ideal(big, lift_mcs_triv(T, S, mode)).holds for mode in (S_ZERO, S_FULL)]
    return (is_S_r_ideal(A, S).holds, *lifted)


# -- amalgamation ---------------------------------------------------------------------


def is_domain(R: FiniteRing) -> bool:
    """No nonzero zero divisors; the one-element ring does not count."""
    return R.size > 1 and R.zero_divisors == frozenset({0})


FORWARD = "FORWARD"
BACKWARD = "BACKWARD"


@dataclass(frozen=True)
class AmalgRing:
    h1: FiniteRing
    h2: FiniteRing
    f: RingHom
    j: Ideal
    ring: FiniteRing
    pos: tuple = field(compare=False, repr=False)  # w * |H2| + y -> index of (w, y), -1 off the carrier

    def index_of(self, w, y):
        """The index of (w, y)."""
        return self.pos[w * self.h2.size + y]


def amalg_hypotheses(am: AmalgRing) -> dict:
    """P3.2's hypotheses per direction, the same for every (A, S).  FORWARD (base S-r
    implies extension S-r) needs f surjective, H1 a domain and J inside zd(H2), which
    J = 0 counts as; BACKWARD (the converse) needs f to be an isomorphism."""
    return {
        FORWARD: {
            "epimorphism": sorted(set(am.f.image)) == list(range(am.h2.size)),
            "h1_domain": is_domain(am.h1),
            "j_in_zd": am.j.is_zero() or not am.j.mask & lattice(am.h2).regulars,
        },
        BACKWARD: {"isomorphism": is_isomorphism(am.f)},
    }


def make_amalgamation(H1: FiniteRing, H2: FiniteRing, f: RingHom, J: Ideal, hom_text: str = "hom") -> AmalgRing:
    """Subring {(w, f(w)+j) : w in H1, j in J} of H1 x H2."""
    if f.domain is not H1 or f.codomain is not H2:
        raise TypeMismatch("homomorphism endpoints do not match")
    if J.ring is not H2:
        raise TypeMismatch("ideal must live in the second component")
    check_hom(f)
    n = H1.size * J.mask.bit_count()
    check_size(n)
    pairs = sorted({(w, y) for w in H1.elements() for y in _joined(f, J, w)})  # the carrier
    if len(pairs) != n:
        raise InvalidConstruction("amalgamation carrier size must be |H1| * |J|")
    pos = [-1] * (H1.size * H2.size)
    for i, (w, y) in enumerate(pairs):
        pos[w * H2.size + y] = i
    w, y = (bytes(c) for c in zip(*pairs))
    # [a][b] -> the index of (a, b) on the carrier; rows of (w, y) pairs gathered per table
    at = [pos[a * H2.size : (a + 1) * H2.size] for a in H1.elements()]
    add, mul = (
        tuple(bytes(map(getitem, map(at.__getitem__, w.translate(t1[a])), y.translate(t2[b]))) for a, b in pairs)
        for t1, t2 in ((H1.padd, H2.padd), (H1.pmul, H2.pmul))
    )
    labels = tuple(f"({H1.labels[a]},{H2.labels[b]})" for a, b in pairs)
    recipe = f"amalg({H1.recipe}, {H2.recipe}, {hom_text}, {J.label()})"
    ring = FiniteRing(add, mul, labels=labels, recipe=recipe)
    return AmalgRing(H1, H2, f, J, ring, tuple(pos))


def _joined(f: RingHom, J: Ideal, w: int) -> bytes:
    """f(w) + j for each j in J."""
    return members(J.mask).translate(f.codomain.padd[f.image[w]])


def _amalg_members(am: AmalgRing, X, what: str):
    """The indices of {(x, f(x)+j) : x in X, j in J} for an ideal or m.c.s. X of H1."""
    if X.ring is not am.h1:
        raise TypeMismatch(f"{what} belongs to a different ring")
    return [am.index_of(x, y) for x in bits(X.mask) for y in _joined(am.f, am.j, x)]


def amalg_ideal(am: AmalgRing, A: Ideal) -> Ideal:
    """A joined along J: {(a, f(a)+j) : a in A, j in J} as an ideal."""
    return ideal_from_members(am.ring, _amalg_members(am, A, "ideal"))


def amalg_mcs(am: AmalgRing, S: MulClosedSet) -> MulClosedSet:
    return mcs_from_members(am.ring, _amalg_members(am, S, "m.c.s."))


def amalg_transfer_check(am: AmalgRing, A: Ideal, S: MulClosedSet):
    """The S-r verdicts of A in H1 and of its image in the amalgamation: (base,
    extension).  Each direction's hypotheses are `amalg_hypotheses(am)`."""
    return is_S_r_ideal(A, S), is_S_r_ideal(amalg_ideal(am, A), amalg_mcs(am, S))


# -- the Z-amalgamation family ---------------------------------------------------------


@dataclass(frozen=True)
class AmalgOverZ:
    """Z joined to Z_n along J = dZ_n via the canonical surjection.

    Elements are pairs (w, (w + j) mod n) with j a multiple of d.  Only the
    transfer of the zero ideal 0 x J is decided for this family; that is the
    one statement whose hypotheses a finite first component cannot satisfy
    non-degenerately.
    """

    n: int
    d: int

    def __post_init__(self):
        if self.n < 2 or self.d < 2 or self.n % self.d != 0:
            raise InvalidConstruction("need n >= 2 and a divisor d >= 2")


@dataclass(frozen=True)
class AmalgZReport:
    hypotheses: dict
    base_verdict: Verdict
    ext_holds: bool
    window_pairs_checked: int
    window_confirms: bool


def amalgz_zero_transfer_check(az: AmalgOverZ, S_desc, bound: int) -> AmalgZReport:
    """FORWARD transfer for A = (0): decide and window-confirm both sides.

    S_desc is a one-factor m.c.s. descriptor over Z.  The extension side
    0 x J is an (S join J)-r-ideal whenever disjointness holds: a product
    landing in 0 x J with regular first element forces the second element's
    integer coordinate to zero, after which any candidate works.  The window
    rows are (w, (w + j) mod n), |w| <= bound; (w, y) is regular iff w != 0 and
    no nonzero j in J kills y, that is iff gcd(y, n/d) = 1, as some 0 < k < n/d
    has yk = 0 mod n/d iff that gcd exceeds 1.  A regular (w, y) sends (z, y')
    into 0 x J iff z = 0, and then y y' lies in J anyway, so each regular row
    makes |J| pairs.  The S-r verdict of (0) in Z is confirmed by arith's oracle.
    """
    zring = ArithRing((INT,))
    S = ArithMCS(zring, (S_desc,))
    zero = ArithIdeal(zring, (0,))
    base = arith_is_S_r_ideal(zero, S)
    hyps = {
        "epimorphism": True,  # canonical surjection Z -> Z_n
        "h1_domain": True,
        "j_in_zd": True,  # d >= 2 divides n, so d divides gcd(j, n) for every j in J
        "disjoint": arith_disjoint(zero, S),
    }
    ext_holds = hyps["disjoint"]
    checked = 0
    if ext_holds:
        size_window(max(2 * bound + 1, az.n))
        m = az.n // az.d
        # the regular values y of Z_n per residue mod d, since the rows of w are its |J| values y = w mod d
        per_residue = [0] * az.d
        for y in range(az.n):
            per_residue[y % az.d] += gcd(y, m) == 1
        checked = m * sum(per_residue[w % az.d] for w in range(-bound, bound + 1) if w)
    return AmalgZReport(hyps, base, ext_holds, checked, arith_oracle_check(zero, S, bound, True))
