"""Brute-force references and helpers that only the tests use.

Each one checks the package from outside: an ideal's closure, principal
ideals, the lattice closure over every principal ideal, S-units, the
pairwise closure of an m.c.s., the per-candidate scans of the uniform-witness
predicates (S-r, S-prime, S-z0), the element loops of uz and S-uz, the
element-subset loop of f.a.c., the per-ideal scan of Property A, the
per-ideal maximality scan, the power iteration of the pr test, the per-call
column test of a colon, the set forms of T2.7's scaled sides, the per-entry
loops of the finite runners that read the verdict rows (T2.3, T2.5, P2.8,
P2.10, T2.11, T2.12, C-zd, P-colon, P-annsum, P-minidem, P-sidem, P-suz and
P-suzmax), each asking ctx.s_r once per check, the per-pair loop of the
Dedekind-Mertens sweep, the full-degree content search over R/A, the
enumerating evaluation-kernel search, the fraction
construction of a localization, an isomorphism search between finite rings,
the submodule lattice of a finite module, the element-pair loops that built
quotients, free modules, trivial extensions and amalgamations, the broadcast
pair grid of the arithmetic window, and the pair-by-pair loop over the amalgZ
window.  It also holds the polynomial helpers only the tests call (product
with the degree cap, content set and content ideal, sum, McCoy regularity,
the one-pair Dedekind-Mertens check) and the members of an amalgZ's J.
CAP_RINGS lists the cyclic factors of eight products of cyclic rings at the
256-element size cap, and CAP_EXPRS spells them; CORPUS_RING_EXPRS spells
the finite corpus rings.
"""

import random
from functools import reduce
from itertools import combinations, product as iproduct
from math import gcd
from operator import and_

import numpy as np

from ringlab.arith import INT, ArithIdeal, ArithMCS, ArithRing, _factor_candidates, arith_is_S_r_ideal

from ringlab.classify import (
    DISJOINTNESS_VIOLATED,
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    NOT_PROPER,
    NOT_REDUCED,
    Verdict,
)
from ringlab.config import DM_MAX_DEGREE, MAX_DEGREE, SIZE_LIMIT
from ringlab.corpus import FINITE, default_corpus
from ringlab.errors import DegreeLimitError, SizeLimitError, TypeMismatch
from ringlab.extensions import AmalgOverZ, AmalgZReport, FiniteModule, TrivExtRing
from ringlab.ideals import (
    Ideal,
    MulClosedSet,
    all_ideals,
    annihilator,
    bits,
    colon,
    ideal_generate,
    ideal_pushforward,
    ideal_sum,
    lattice,
    localize,
    mask_of,
)
from ringlab import poly
from ringlab.poly import NO, NO_VIOLATION_UP_TO, Poly, PolyVerdict, poly_eval
from ringlab.rings import FiniteRing, RingHom, _check_ideal_subset, idempotent_power, make_quotient, operand

CAP_RINGS = ((256,), (2,) * 8, (4,) * 4, (2, 128), (3, 5, 17), (2, 3, 5, 7), (64,), (128,))
CAP_EXPRS = [" x ".join(f"Z{n}" for n in factors) for factors in CAP_RINGS]
# the rings of the finite default-corpus entries, each once
CORPUS_RING_EXPRS = sorted({e.expr for e in default_corpus().entries if e.kind == FINITE})


def as_int16(rows):
    """Byte rows as an int16 array, one array row per row: a ring's or a module's tables,
    or the rows and keys of the DM sweep.  One bytes object gives a 1-D array."""
    if isinstance(rows, bytes):
        return np.frombuffer(rows, dtype=np.uint8).astype(np.int16)
    if rows and all(type(row) is bytes for row in rows):
        return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), -1).astype(np.int16)
    return np.array([list(row) for row in rows], dtype=np.int16).reshape(len(rows), -1)


def _pack(rows) -> list:
    """The bitmask of each boolean row."""
    packed = np.packbits(np.atleast_2d(rows), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def first_hit(matrix):
    """Lex-first (row, column) of a boolean matrix that is True, or None."""
    hits = np.argwhere(matrix)
    return (int(hits[0][0]), int(hits[0][1])) if len(hits) else None


def member_row(A):
    """The members of an ideal or m.c.s. as a boolean row over the ring's elements."""
    return np.array([x in A for x in A.ring.elements()], dtype=bool)


def validate_ideal(A: Ideal) -> None:
    """Closure checks; raises on violation."""
    _check_ideal_subset(A.ring, A.members)
    if ideal_generate(A.ring, A.generators).members != A.members:
        raise TypeMismatch("ideal members differ from the span of its generators")


def ref_principal(R: FiniteRing, g: int) -> frozenset:
    """The principal ideal Rg, read off the multiplication table."""
    return frozenset(int(v) for v in np.unique(as_int16(R.mul)[:, g]))


def ref_ideal_masks(R: FiniteRing) -> tuple:
    """Every ideal's mask, sorted by (cardinality, member tuple): the closure of
    (0) under joins with every distinct principal ideal.

    base + Ra is the union of the cosets of base that meet Ra, so each base is
    joined with every principal ideal in one vectorised step.
    """
    principals = sorted({mask_of(ref_principal(R, a)) for a in R.elements()})
    rows, cols = np.array([(i, a) for i, p in enumerate(principals) for a in bits(p)]).T
    seen, frontier, add = {1}, [1], as_int16(R.add)
    while frontier:
        coset = add[:, bits(frontier.pop())].min(axis=1)  # least element of x + base
        hit = np.zeros((len(principals), R.size), dtype=bool)
        hit[rows, coset[cols]] = True
        for grown in _pack(hit[:, coset]):
            if grown not in seen:
                seen.add(grown)
                frontier.append(grown)
    return tuple(sorted(seen, key=lambda m: (m.bit_count(), bits(m))))


def s_units(R: FiniteRing, S: MulClosedSet) -> frozenset:
    """{a : the principal ideal Ra meets S}."""
    if S.ring is not R:
        raise TypeMismatch("m.c.s. belongs to a different ring")
    return frozenset(a for a in R.elements() if ref_principal(R, a) & S.members)


def ref_mcs_closure(R: FiniteRing, gens) -> frozenset:
    """The members of the m.c.s. generated by gens: {1} and gens closed under
    the product of every pair of members."""
    members = {R.one, *gens}
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for y in tuple(members):
            p = R.m(x, y)
            if p not in members:
                members.add(p)
                frontier.append(p)
    return frozenset(members)


def ref_is_uz_ring(R: FiniteRing) -> Verdict:
    """uz by the element loop: the first element that is neither a unit nor a
    zero divisor fails it."""
    for a in R.elements():
        if a not in R.units and a not in R.zero_divisors:
            return Verdict(FAILS, counterexample=(a,))
    return Verdict(HOLDS)


def ref_is_S_uz_ring(R: FiniteRing, S: MulClosedSet) -> Verdict:
    """S-uz by the element loop: the first element that is neither a zero
    divisor nor an S-unit fails it."""
    for a in R.elements():
        if a not in R.zero_divisors and not ref_principal(R, a) & S.members:
            return Verdict(FAILS, counterexample=(a,))
    return Verdict(HOLDS)


def ref_has_fac(R: FiniteRing, cap: int) -> Verdict:
    """f.a.c. by the element-subset loop: the first T of size 2..cap, by size
    then lexicographically, whose joint annihilator is no member's own."""
    mul = as_int16(R.mul)
    ann = [mask_of(np.flatnonzero(mul[:, a] == 0)) for a in R.elements()]
    for size in range(2, cap + 1):
        for T in combinations(R.elements(), size):
            masks = [ann[t] for t in T]
            if reduce(and_, masks) not in masks:
                return Verdict(FAILS, counterexample=T)
    return Verdict(HOLDS)


def ref_has_property_A(R: FiniteRing) -> Verdict:
    """Property A by the per-ideal scan: the first ideal inside zd(R) with zero
    annihilator fails it."""
    for B in all_ideals(R):
        if not B.members & R.regulars and annihilator(R, B.generators).is_zero():
            return Verdict(FAILS, counterexample=B.generators)
    return Verdict(HOLDS)


def ref_max_ideals(R: FiniteRing) -> tuple:
    """The proper ideals that no other proper ideal contains, by one scan per ideal."""
    ideals, full = all_ideals(R), (1 << R.size) - 1

    def inside_another(A):
        return any(B.mask not in (A.mask, full) and A.mask | B.mask == B.mask for B in ideals)

    return tuple(A for A in ideals if A.is_proper() and not inside_another(A))


def _uniform_scan(S: MulClosedSet, defeat) -> Verdict:
    """The least s in S that no pair defeats; else Fails with the last s's pair."""
    pair = None
    for s in S.sorted_members:
        pair = defeat(s)
        if pair is None:
            return Verdict(HOLDS, witness=s)
    return Verdict(FAILS, counterexample=pair, last_candidate=S.sorted_members[-1] if S.mask else None)


def ref_is_S_r_ideal(A: Ideal, S: MulClosedSet, enforce_proper=True, enforce_disjoint=True) -> Verdict:
    """S-r by trying each s in S in turn: the first s that no pair defeats.

    A pair (w, z) defeats s when w is regular, wz is in A and sz is not; the
    lex-first one is reported for the last candidate when every s fails.
    """
    R = A.ring
    if enforce_proper and not A.is_proper():
        return Verdict(NOT_APPLICABLE, reason=NOT_PROPER)
    if enforce_disjoint and S.members & A.members:
        return Verdict(NOT_APPLICABLE, reason=DISJOINTNESS_VIOLATED)
    inside, mul = member_row(A), as_int16(R.mul)
    regs = np.fromiter(sorted(R.regulars), dtype=np.intp)
    prod_in = inside[mul[regs, :]]

    def defeat(s):
        hit = first_hit(prod_in & ~inside[mul[s, :]][None, :])
        return None if hit is None else (int(regs[hit[0]]), hit[1])

    return _uniform_scan(S, defeat)


def ref_is_r_ideal(A: Ideal) -> Verdict:
    """The r-ideal verdict as the S-r scan at S = {1}, without its witness."""
    if not A.is_proper():
        return Verdict(NOT_APPLICABLE, reason=NOT_PROPER)
    R = A.ring
    one = MulClosedSet(R, 1 << R.one, ())
    v = ref_is_S_r_ideal(A, one)
    return Verdict(FAILS, counterexample=v.counterexample) if v.fails else Verdict(HOLDS)


def _power_reaches(R: FiniteRing, A: Ideal, z: int) -> bool:
    seen, cur = set(), z
    while cur not in seen:
        if cur in A.members:
            return True
        seen.add(cur)
        cur = R.m(cur, z)
    return False


def ref_is_pr_ideal(A: Ideal) -> Verdict:
    """pr by iterating the powers of each z until one lands in A or they cycle."""
    if not A.is_proper():
        return Verdict(NOT_APPLICABLE, reason=NOT_PROPER)
    R = A.ring
    reaches = np.array([_power_reaches(R, A, z) for z in R.elements()])
    regs = np.fromiter(sorted(R.regulars), dtype=np.intp)
    hit = first_hit(member_row(A)[as_int16(R.mul)[regs, :]] & ~reaches[None, :])
    return Verdict(FAILS, counterexample=(int(regs[hit[0]]), hit[1])) if hit else Verdict(HOLDS)


def ref_is_S_prime(A: Ideal, S: MulClosedSet, enforce_proper=True, enforce_disjoint=True) -> Verdict:
    """S-prime by trying each s in S: no wz in A with sw and sz both outside A."""
    R = A.ring
    if enforce_proper and not A.is_proper():
        return Verdict(NOT_APPLICABLE, reason=NOT_PROPER)
    if enforce_disjoint and S.members & A.members:
        return Verdict(NOT_APPLICABLE, reason=DISJOINTNESS_VIOLATED)
    inside, mul = member_row(A), as_int16(R.mul)
    prod_in = inside[mul]

    def defeat(s):
        s_in = inside[mul[s, :]]
        return first_hit(prod_in & ~s_in[:, None] & ~s_in[None, :])

    return _uniform_scan(S, defeat)


def _z0_pair(A: Ideal, s: int):
    """(first member in A, first z with sz outside A) of the first annihilator class that has one."""
    R = A.ring
    classes = {}
    for a in R.elements():
        classes.setdefault(frozenset(annihilator(R, (a,)).members), []).append(a)
    for cls in classes.values():
        inside = [a for a in cls if a in A.members]
        outside = [a for a in cls if R.m(s, a) not in A.members]
        if inside and outside:
            return inside[0], outside[0]
    return None


def ref_is_z0_ideal(A: Ideal, enforce_reduced=True) -> Verdict:
    if enforce_reduced and not A.ring.is_reduced():
        return Verdict(NOT_APPLICABLE, reason=NOT_REDUCED)
    pair = _z0_pair(A, A.ring.one)
    return Verdict(FAILS, counterexample=pair) if pair else Verdict(HOLDS)


def ref_is_S_z0_ideal(A: Ideal, S: MulClosedSet, enforce_reduced=True, enforce_disjoint=True) -> Verdict:
    """S-z0 by trying each s in S: w in A and Ann(w) = Ann(z) force sz in A."""
    if enforce_reduced and not A.ring.is_reduced():
        return Verdict(NOT_APPLICABLE, reason=NOT_REDUCED)
    if enforce_disjoint and S.members & A.members:
        return Verdict(NOT_APPLICABLE, reason=DISJOINTNESS_VIOLATED)
    return _uniform_scan(S, lambda s: _z0_pair(A, s))


def ref_colon_mask(A: Ideal, ks: int) -> int:
    """(A : K) as one column test per call: w is in it iff wk lies in A for every k in K."""
    R = A.ring
    if not ks:
        return (1 << R.size) - 1
    return mask_of(np.flatnonzero(member_row(A)[as_int16(R.mul)[:, bits(ks)]].all(axis=1)))


def ref_t2_7_sides(A: Ideal, regs, pre) -> dict:
    """T2.7's scaled sides by scaling each set: for some s in regs, every r in
    regs has s(Rr meet A) in rA and s(A : r) in A, and s.pre lies in A."""
    R = A.ring
    return {
        "scaled_intersections": any(
            all(
                {R.m(s, x) for x in ref_principal(R, r) & A.members} <= {R.m(r, x) for x in A.members}
                for r in regs
            )
            for s in regs
        ),
        "scaled_colons": any(
            all({R.m(s, x) for x in colon(A, (r,)).members} <= A.members for r in regs) for s in regs
        ),
        "localization_preimage": any({R.m(s, x) for x in pre} <= A.members for s in regs),
    }


def _outcome(checked, failure):
    detail = {"failure": failure} if failure else {}
    return ("VIOLATION" if failure else "VERIFIED" if checked else "VACUOUS"), detail


def ref_p_colon(ctx, dropped):
    """P-colon as (ideal label, outcome, detail) per proper ideal, asking
    ctx.s_r once per derived entry and stopping at the first failure."""
    R = ctx.ring
    enforce = "disjoint" not in dropped
    full = (1 << R.size) - 1
    singles = list(R.elements())
    if R.size > 16:
        singles = singles[:: R.size // 16]
    out = []
    for A in ctx.proper_ideals():
        families = [(f"{{{R.labels[x]}}}", (x,)) for x in singles if x not in A.members]
        families += [(B.label(), B.sorted_members) for B in ctx.ideals() if not B.members <= A.members]
        derived = [
            (label, kind, d)
            for label, K in families
            for kind, d in (("colon", colon(A, K)), ("annihilator", annihilator(R, K)))
        ]
        checked, failure = 0, None
        for S in ctx.mcs_list():
            if failure is not None or not ctx.s_r(A, S).holds:
                continue
            for label, kind, d in derived:
                if (enforce and d.mask & S.mask) or d.mask == full:
                    continue
                checked += 1
                v = ctx.s_r(d, S, enforce_disjoint=enforce)
                if not v.holds:
                    failure = {"mcs": S.label(), "K": label, "kind": kind, "verdict": v.to_json(R)}
                    break
        outcome, detail = _outcome(checked, failure)
        out.append((A.label(), outcome, {"derived_checked": checked, **detail}))
    return out


def ref_t2_3(ctx, dropped):
    """T2.3 as (ideal label, outcome, detail) per proper ideal: the converse
    hypothesis decided by the principal ideal of every s of S2, and ctx.s_r
    asked once per implication, stopping at the first failure."""
    R = ctx.ring
    mcs = ctx.mcs_list()
    enforce = "disjoint" not in dropped
    inclusions = [
        (S1, S2, all(ref_principal(R, s) & S1.members for s in S2.sorted_members))
        for S1 in mcs
        for S2 in mcs
        if S1.members < S2.members
    ]

    def implications(A):
        for S1, S2, converse in inclusions:
            if ctx.s_r(A, S1).holds and (not (S2.members & A.members) or not enforce):
                yield "forward", S1, S2, ctx.s_r(A, S2, enforce_disjoint=enforce)
            if converse and ctx.s_r(A, S2).holds:
                yield "converse", S1, S2, ctx.s_r(A, S1)

    out = []
    for A in ctx.proper_ideals():
        checked, failure = 0, None
        for direction, S1, S2, v in implications(A):
            checked += 1
            if not v.holds:
                failure = {"direction": direction, "mcs1": S1.label(), "mcs2": S2.label(), "verdict": v.to_json(R)}
                break
        outcome, detail = _outcome(checked, failure)
        out.append((A.label(), outcome, {"implications_checked": checked, **detail}))
    return out


def ref_p_annsum(ctx, dropped):
    """P-annsum as (m.c.s. label, outcome, detail) per m.c.s.: the (K1, K2)
    table built with ideal_sum and the principal ideal of every t, and ctx.s_r
    asked once per pair, stopping at the first failure."""
    R = ctx.ring
    enforce = "disjoint" not in dropped
    ideals = ctx.ideals()
    table = []
    for i, K1 in enumerate(ideals):
        for K2 in ideals[i:]:
            total = ideal_sum(K1, K2).members
            ts = {t for t in R.elements() if ref_principal(R, t) == total}
            if ts:
                table.append((K1, K2, ts, ideal_sum(annihilator(R, K1.generators), annihilator(R, K2.generators))))
    out = []
    for S in ctx.mcs_list():
        checked, failure = 0, None
        for K1, K2, ts, K in table:
            if not ts & S.members or (enforce and K.members & S.members) or not K.is_proper():
                continue
            checked += 1
            v = ctx.s_r(K, S, enforce_disjoint=enforce)
            if not v.holds:
                failure = {"K1": K1.label(), "K2": K2.label(), "verdict": v.to_json(R)}
                break
        outcome, detail = _outcome(checked, failure)
        out.append((S.label(), outcome, {"sums_checked": checked, **detail}))
    return out


def _ref_is_prime(P: Ideal) -> bool:
    """Prime from the definition: proper, and xy in P puts x or y in P."""
    R = P.ring
    return P.is_proper() and all(
        x in P.members or y in P.members for x in R.elements() for y in R.elements() if R.m(x, y) in P.members
    )


def _ref_inside_zd(A: Ideal) -> bool:
    """Every member of A kills some nonzero element."""
    R = A.ring
    return all(any(R.m(a, z) == 0 for z in R.elements() if z != 0) for a in A.members)


def _ref_min_primes(A: Ideal) -> list:
    """The primes minimal over A, in lattice order, each prime tested from the definition."""
    over = [P for P in all_ideals(A.ring) if A.members <= P.members and _ref_is_prime(P)]
    return [P for P in over if not any(Q.members < P.members for Q in over)]


def ref_t2_11(ctx, dropped):
    """T2.11 as (ideal label, outcome, detail) per proper ideal: the minimal
    primes over A found from the definition of a prime, and ctx.s_r asked once
    per (m.c.s., minimal prime), stopping at the first failure."""
    enforce = "disjoint" not in dropped
    out = []
    for A in ctx.proper_ideals():
        checked, failure = 0, None
        mins = _ref_min_primes(A)
        for S in ctx.mcs_list():
            if failure is not None or not ctx.s_r(A, S).holds:
                continue
            for P in mins:
                if enforce and P.members & S.members:
                    continue
                checked += 1
                v = ctx.s_r(P, S, enforce_disjoint=enforce)
                if not v.holds:
                    failure = {"mcs": S.label(), "min_prime": P.label(), "verdict": v.to_json(ctx.ring)}
                    break
        outcome, detail = _outcome(checked, failure)
        out.append((A.label(), outcome, {"lifts_checked": checked, **detail}))
    return out


def ref_p2_10(ctx, dropped):
    """P2.10 as (ideal label, outcome, detail) per proper ideal: S-z0 decided by
    the scan reference, and ctx.s_r asked once per S-z0 pair, stopping at the
    first failure; no payload when the ring is not reduced and that is enforced."""
    R = ctx.ring
    enforce_reduced = "reduced" not in dropped
    enforce_disjoint = "disjoint" not in dropped
    out = []
    for A in ctx.proper_ideals():
        if enforce_reduced and not R.is_reduced():
            out.append((A.label(), "VACUOUS", None))
            continue
        checked, failure = 0, None
        for S in ctx.mcs_list():
            if ref_is_S_z0_ideal(A, S, enforce_reduced, enforce_disjoint).holds:
                checked += 1
                v = ctx.s_r(A, S, enforce_disjoint=enforce_disjoint)
                if not v.holds:
                    failure = {"mcs": S.label(), "verdict": v.to_json(R)}
                    break
        outcome, detail = _outcome(checked, failure)
        out.append((A.label(), outcome, {"implications_checked": checked, **detail}))
    return out


def ref_p_minidem(ctx, dropped):
    """P-minidem as (m.c.s. label, outcome, detail) per m.c.s.: P + Ann(se)
    built with ideal_sum for every minimal prime P over zero, idempotent e and
    s in S, and ctx.s_r asked once per proper one, stopping at the first failure."""
    R = ctx.ring
    enforce_reduced = "reduced" not in dropped
    enforce_disjoint = "disjoint" not in dropped
    zero = ideal_generate(R, ())
    mins = _ref_min_primes(zero) if zero.is_proper() else []
    idems = [e for e in R.elements() if R.m(e, e) == e]
    out = []
    for S in ctx.mcs_list():
        if enforce_reduced and not R.is_reduced():
            out.append((S.label(), "VACUOUS", None))
            continue
        checked, failure = 0, None
        for P, e, s in ((P, e, s) for P in mins for e in idems for s in S.sorted_members):
            A = ideal_sum(P, annihilator(R, (R.m(s, e),)))
            if (enforce_disjoint and A.members & S.members) or not A.is_proper():
                continue
            checked += 1
            v = ctx.s_r(A, S, enforce_disjoint=enforce_disjoint)
            if not v.holds:
                failure = {"min_prime": P.label(), "idempotent": R.labels[e], "s": R.labels[s], "verdict": v.to_json(R)}
                break
        outcome, detail = _outcome(checked, failure)
        out.append((S.label(), outcome, {"ideals_checked": checked, **detail}))
    return out


def ref_p_sidem(ctx, dropped):
    """P-sidem as (m.c.s. label, outcome, detail) per m.c.s.: the elements with
    a^2 = sa found by multiplying out s, the product of S, and ctx.s_r asked
    once per span that is not NOT_APPLICABLE, stopping at the first failure."""
    R = ctx.ring
    out = []
    for S in ctx.mcs_list():
        s = reduce(R.m, S.sorted_members, R.one)
        T = [a for a in R.elements() if R.m(a, a) == R.m(s, a)]
        spans = [(f"[{R.labels[a]}]", (a,)) for a in T] + ([("[all]", tuple(T))] if len(T) > 1 else [])
        checked, failure = 0, None
        for label, gens in spans:
            v = ctx.s_r(ideal_generate(R, gens), S)
            if v.not_applicable:
                continue
            checked += 1
            if not v.holds:
                failure = {"generators": label, "verdict": v.to_json(R)}
                break
        outcome, detail = _outcome(checked, failure)
        out.append((S.label(), outcome, {"ideals_checked": checked, **detail}))
    return out


def ref_t2_12(ctx, dropped):
    """T2.12 as (ideal label, outcome, detail) per proper ideal: primality from the
    definition, and ctx.s_r asked once per m.c.s. whose verdict applies, compared
    with A lying in the zero divisors, stopping at the first disagreement."""
    R = ctx.ring
    need_prime = "prime" not in dropped
    enforce = "disjoint" not in dropped
    out = []
    for A in ctx.proper_ideals():
        if need_prime and not _ref_is_prime(A):
            out.append((A.label(), "VACUOUS", None))
            continue
        in_zd = _ref_inside_zd(A)
        checked, failure = 0, None
        for S in ctx.mcs_list():
            if enforce and A.members & S.members:
                continue
            v = ctx.s_r(A, S, enforce_disjoint=enforce)
            if v.not_applicable:
                continue
            checked += 1
            if v.holds != in_zd:
                failure = {"mcs": S.label(), "s_r": v.holds, "inside_zd": in_zd, "verdict": v.to_json(R)}
                break
        outcome, detail = _outcome(checked, failure)
        out.append((A.label(), outcome, {"equivalences_checked": checked, **detail}))
    return out


def ref_c_zd(ctx, dropped):
    """C-zd as (ideal label, outcome, detail) per proper ideal: ctx.s_r asked once
    per m.c.s., and each S-r ideal tested to lie in the zero divisors, stopping at
    the first that does not."""
    out = []
    for A in ctx.proper_ideals():
        checked, failure = 0, None
        for S in ctx.mcs_list():
            if ctx.s_r(A, S).holds:
                checked += 1
                if not _ref_inside_zd(A):
                    failure = {"mcs": S.label()}
                    break
        outcome, detail = _outcome(checked, failure)
        out.append((A.label(), outcome, {"checked": checked, **detail}))
    return out


def ref_p2_8(ctx, dropped):
    """P2.8 as (ideal label, outcome, detail) per proper ideal: for every m.c.s.
    inside the regular elements (any m.c.s. when that is dropped) where ctx.s_r
    holds, (A : s) equals (A : s^k) for each power of its witness s, by the
    column test of a colon, stopping at the first that differs."""
    R = ctx.ring
    need_reg = "s_regular" not in dropped
    out = []
    for A in ctx.proper_ideals():
        checked, failure = 0, None
        for S in ctx.mcs_list():
            if need_reg and not S.members <= R.regulars:
                continue
            v = ctx.s_r(A, S)
            if not v.holds:
                continue
            checked += 1
            s, powers = v.witness, []
            while not powers or powers[-1] not in powers[:-1]:
                powers.append(R.m(powers[-1], s) if powers else s)
            if any(ref_colon_mask(A, 1 << p) != ref_colon_mask(A, 1 << s) for p in powers):
                failure = {"mcs": S.label(), "witness": R.labels[s]}
                break
        outcome, detail = _outcome(checked, failure)
        out.append((A.label(), outcome, {"witnesses_checked": checked, **detail}))
    return out


def ref_p_suz(ctx, dropped):
    """P-suz as (m.c.s. label, outcome, detail) per m.c.s.: ctx.s_r asked once per
    proper ideal disjoint from S, stopping at the first that fails, against S-uz
    decided by the element loop."""
    R = ctx.ring
    out = []
    for S in ctx.mcs_list():
        detail = {"ideals_evaluated": 0}
        for A in ctx.proper_ideals():
            if A.members & S.members:
                continue
            detail["ideals_evaluated"] += 1
            if not ctx.s_r(A, S).holds:
                detail["failing_ideal"] = A.label()
                break
        lhs, rhs = "failing_ideal" not in detail, ref_is_S_uz_ring(R, S).holds
        detail.update(all_disjoint_ideals_s_r=lhs, s_uz_ring=rhs)
        out.append((S.label(), "VERIFIED" if lhs == rhs else "VIOLATION", detail))
    return out


def ref_p_suzmax(ctx, dropped):
    """P-suzmax as (m.c.s. label, outcome, detail) per m.c.s.: S-uz by the element
    loop, primes and maximal ideals found by their own scans, and ctx.s_r asked
    once per prime and per maximal ideal."""
    R = ctx.ring
    enforce = "max_disjoint" not in dropped
    maxes = ref_max_ideals(R)
    primes = [P for P in all_ideals(R) if _ref_is_prime(P)]
    out = []
    for S in ctx.mcs_list():
        if enforce and any(M.members & S.members for M in maxes):
            out.append((S.label(), "VACUOUS", None))
            continue
        sides = {
            "s_uz": ref_is_S_uz_ring(R, S).holds,
            "primes": all(
                ctx.s_r(P, S, enforce_disjoint=enforce).holds
                for P in primes
                if not P.members & S.members or not enforce
            ),
            "maximals": all(ctx.s_r(M, S, enforce_disjoint=enforce).holds for M in maxes),
        }
        out.append((S.label(), "VERIFIED" if len(set(sides.values())) == 1 else "VIOLATION", sides))
    return out


def ref_t2_5(ctx, dropped):
    """T2.5 as (ideal label, outcome, detail) per proper ideal, localizing and
    pushing A forward once per (A, S)."""
    R = ctx.ring
    need_reg = "s_regular" not in dropped
    out = []
    for A in ctx.proper_ideals():
        checked, failure = 0, None
        for S in ctx.mcs_list():
            if need_reg and not S.members <= R.regulars:
                continue
            if ref_is_r_ideal(ideal_pushforward(localize(R, S), A)).holds:
                checked += 1
                v = ctx.s_r(A, S)
                if not v.holds:
                    failure = {"mcs": S.label(), "verdict": v.to_json(R)}
                    break
        outcome, detail = _outcome(checked, failure)
        out.append((A.label(), outcome, {"implications_checked": checked, **detail}))
    return out


def poly_mul(f: Poly, g: Poly) -> Poly:
    """The product, refused past the degree cap, as the per-pair DM loop needs it."""
    deg = f.degree + g.degree
    if deg > MAX_DEGREE and not (f.is_zero() or g.is_zero()):
        raise DegreeLimitError(f"product degree {deg} beyond the cap {MAX_DEGREE}")
    return poly._product(f, g)


def content_set(f: Poly) -> frozenset:
    return frozenset(f.coeffs) if f.coeffs else frozenset({0})


def content_ideal(f: Poly) -> Ideal:
    """The ideal of f's coefficients, generated from them."""
    return ideal_generate(f.base, sorted(content_set(f)))


def poly_add(f: Poly, g: Poly) -> Poly:
    R = f.base
    n = max(len(f.coeffs), len(g.coeffs))
    out = []
    for i in range(n):
        a = f.coeffs[i] if i < len(f.coeffs) else 0
        b = g.coeffs[i] if i < len(g.coeffs) else 0
        out.append(R.a(a, b))
    return Poly.make(R, out)


def mccoy_regular(f: Poly) -> bool:
    """Regular in the full polynomial ring iff Ann(content) = 0.

    A nonzero annihilating polynomial of minimal degree forces a nonzero
    constant annihilator, so the constant test decides regularity at every
    degree, not just up to a bound.
    """
    return annihilator(f.base, content_set(f)).is_zero()


def dedekind_mertens_check(w: Poly, z: Poly) -> bool:
    """c(z)^(m+1) c(w) == c(z)^m c(wz) with m the degree of w."""
    if w.base is not z.base:
        raise TypeMismatch("polynomials over different rings")
    # looked up on the module, so a test that patches poly._dm_identity reaches this check too
    return poly._dm_identity(content_ideal(w), content_ideal(z), content_ideal(poly_mul(w, z)), max(w.degree, 0))


def ref_dedekind_mertens_sweep(R: FiniteRing, pairs: int, seed: int, max_degree: int = DM_MAX_DEGREE):
    """The per-pair loop: draw w, then z, and check the pair on its own.

    Returns (checked, first_failure); the check's poly_mul raises
    DegreeLimitError at the first pair whose product passes the degree cap.
    """
    rng = random.Random(seed)
    checked = 0
    for _ in range(pairs):
        w = Poly.make(R, [rng.randrange(R.size) for _ in range(max_degree + 1)])
        z = Poly.make(R, [rng.randrange(R.size) for _ in range(max_degree + 1)])
        if not dedekind_mertens_check(w, z):
            return checked, (w, z)
        checked += 1
    return checked, None


# The full-degree content search: each z-bar of degree 0..D over R/A that escapes
# every s-bar is multiplied against every coefficient vector in turn, and every
# annihilating vector is tried for a regular lift until one is found.


def ref_poly_tuples(size, max_degree):
    for d in range(max_degree + 1):
        if d == 0:
            for c in range(1, size):
                yield (c,)
        else:
            for lead in range(1, size):
                for rest in iproduct(range(size), repeat=d):
                    yield tuple(reversed(rest)) + (lead,)


def ref_annihilating_vectors(Q, zt, vecs):
    width = vecs.shape[1]
    out = np.zeros((len(vecs), width + len(zt) - 1), dtype=np.intp)
    add, mul = as_int16(Q.add), as_int16(Q.mul)
    for j, b in enumerate(zt):
        if b == 0:
            continue
        out[:, j : j + width] = add[out[:, j : j + width], mul[vecs, b]]
    return [tuple(int(c) for c in v) for v in vecs[(out == 0).all(axis=1)]]


def ref_regular_lift(R, p, wt, masks):
    cosets = {}
    for a in R.elements():
        cosets.setdefault(int(p[a]), []).append(a)
    full = (1 << R.size) - 1
    for combo in iproduct(*(cosets[c] for c in wt)):
        acc = full
        for c in combo:
            acc &= masks[c]
        if acc == 1:
            return combo
    return None


def ref_min_lift(R, p, zt):
    lifts = {}
    for a in R.elements():
        lifts.setdefault(int(p[a]), a)
    return [lifts[c] for c in zt]


def ref_content_search(A, S_const, max_degree):
    R = A.ring
    masks = lattice(R).ann
    quotient, proj = make_quotient(R, A)
    p = proj.image
    sbar = sorted({int(p[s]) for s in S_const.sorted_members})
    vecs = np.array(list(iproduct(range(quotient.size), repeat=max_degree + 1)), dtype=np.intp)
    qmul = as_int16(quotient.mul)
    for zt in ref_poly_tuples(quotient.size, max_degree):
        if not all(any(int(qmul[s, c]) != 0 for c in zt) for s in sbar):
            continue
        for wt in ref_annihilating_vectors(quotient, zt, vecs):
            found = ref_regular_lift(R, p, wt, masks)
            if found is not None:
                w = Poly.make(R, found)
                z = Poly.make(R, ref_min_lift(R, p, zt))
                return PolyVerdict(NO, pair=(w, z), witness_degree=max(w.degree, z.degree, 0), bound=max_degree)
    return PolyVerdict(NO_VIOLATION_UP_TO, bound=max_degree)


def ref_kernel_search(spec, S_const, max_degree):
    """The evaluation-kernel search as an enumeration, with no budget: every regular w of
    degree <= max_degree in `ref_poly_tuples` order, against every constant v, in order,
    that escapes the kernel under every s; the first w with w(a) v in B gives the pair."""
    R, a, B = spec.base, spec.point, spec.ideal
    vbad = [v for v in R.elements() if all(R.m(s, v) not in B for s in S_const.sorted_members)]
    if vbad:
        for coeffs in ref_poly_tuples(R.size, max_degree):
            w = Poly(R, coeffs)
            if not mccoy_regular(w):
                continue
            u = poly_eval(w, a)
            for v in vbad:
                if R.m(u, v) in B:
                    z = Poly.make(R, [v])
                    return PolyVerdict(NO, pair=(w, z), witness_degree=max(w.degree, z.degree, 0), bound=max_degree)
    return PolyVerdict(NO_VIOLATION_UP_TO, bound=max_degree)


def localize_oracle(R: FiniteRing, S: MulClosedSet):
    """Independent fraction construction: classes of pairs (a, s).

    (a,s) ~ (b,u) iff v(ua - sb) = 0 for some v in S.  Returns the fraction
    ring, which must be isomorphic to localize(R, S).localized, and the
    class of each pair (a, s) as a dict.
    """
    if S.ring is not R:
        raise TypeMismatch("m.c.s. belongs to a different ring")
    if R.size * len(S.members) > SIZE_LIMIT**2:
        raise SizeLimitError("fraction table beyond the size cap")
    dens = sorted(S.members)
    pairs = [(a, s) for a in R.elements() for s in dens]
    index = {p: i for i, p in enumerate(pairs)}
    m = len(pairs)
    av = np.fromiter((p[0] for p in pairs), dtype=np.intp)
    sv = np.fromiter((p[1] for p in pairs), dtype=np.intp)
    add, mul = as_int16(R.add), as_int16(R.mul)
    neg = np.argmax(add == 0, axis=1)
    # diff[i, j] = u_j * a_i - s_i * b_j
    ua = mul[av[:, None], sv[None, :]]  # a_i * u_j
    sb = mul[sv[:, None], av[None, :]]  # s_i * b_j
    diff = add[ua, neg[sb]]
    kill = (mul[np.ix_(np.fromiter(dens, dtype=np.intp), np.arange(R.size))] == 0).any(axis=0)
    eq = kill[diff]
    # classes are the connected components of eq: spread the least index
    # through each component until nothing changes
    root = np.arange(m)
    while True:
        reached = np.where(eq, root[None, :], m).min(axis=1)
        if np.array_equal(reached, root):
            break
        root = reached
    roots = np.unique(root).tolist()
    cls = np.searchsorted(roots, root).tolist()
    k = len(roots)
    add = np.zeros((k, k), dtype=np.int16)
    mul = np.zeros((k, k), dtype=np.int16)
    for i, ri in enumerate(roots):
        a, s = pairs[ri]
        for j, rj in enumerate(roots):
            b, u = pairs[rj]
            num = R.a(R.m(a, u), R.m(b, s))
            den = R.m(s, u)
            add[i, j] = cls[index[(num, den)]]
            mul[i, j] = cls[index[(R.m(a, b), den)]]
    labels = tuple(f"{R.labels[pairs[r][0]]}/{R.labels[pairs[r][1]]}" for r in roots)
    gens_text = ",".join(R.labels[g] for g in S.generators)
    ring = FiniteRing(add, mul, labels=labels, recipe=f"frac({R.recipe}, S<{gens_text}>)")
    return ring, dict(zip(pairs, cls))


def element_partition(R: FiniteRing):
    """(units, regulars, zero divisors); the first two coincide, 0 counts as zd."""
    return R.units, R.regulars, R.zero_divisors


def _additive_order(R: FiniteRing, a: int) -> int:
    k, cur = 1, a
    while cur != 0:
        cur = R.a(cur, a)
        k += 1
    return k


def element_invariant(R: FiniteRing, a: int):
    """Cheap iso-invariant fingerprint of a single element."""
    col = as_int16(R.mul)[:, a]
    ann = int((col == 0).sum())
    sq = R.m(a, a)
    e, k = idempotent_power(R, a)
    return (
        _additive_order(R, a),
        a in R.units,
        sq == a,
        e == 0,  # nilpotent iff the eventual idempotent is 0
        k,
        ann,
    )


def fingerprint(R: FiniteRing):
    """(size, unit count, idempotent count, characteristic)."""
    return (R.size, len(R.units), len(R.idempotents()), _additive_order(R, R.one))


def find_isomorphism(R1: FiniteRing, R2: FiniteRing):
    """Exhaustive backtracking search for a ring isomorphism R1 -> R2.

    Returns the image tuple or None.  Assignments are propagated through
    both operation tables, so most of the map is forced once a generator
    image is chosen; candidates are pruned by element invariants.
    """
    n = R1.size
    if R2.size != n:
        return None
    inv1 = [element_invariant(R1, a) for a in range(n)]
    inv2 = [element_invariant(R2, a) for a in range(n)]
    if sorted(inv1) != sorted(inv2):
        return None
    cands = {a: [b for b in range(n) if inv2[b] == inv1[a]] for a in range(n)}
    fwd = [None] * n
    rev = [None] * n

    def assign(x, y, trail):
        stack = [(x, y)]
        while stack:
            x, y = stack.pop()
            if fwd[x] is not None:
                if fwd[x] != y:
                    return False
                continue
            if rev[y] is not None or inv1[x] != inv2[y]:
                return False
            fwd[x] = y
            rev[y] = x
            trail.append((x, y))
            for a in range(n):
                fa = fwd[a]
                if fa is None:
                    continue
                stack.append((R1.a(x, a), R2.a(y, fa)))
                stack.append((R1.m(x, a), R2.m(y, fa)))
        return True

    def undo(trail, mark):
        while len(trail) > mark:
            x, y = trail.pop()
            fwd[x] = None
            rev[y] = None

    trail = []
    if not assign(0, 0, trail) or not assign(R1.one, R2.one, trail):
        return None

    def solve():
        x = next((i for i in range(n) if fwd[i] is None), None)
        if x is None:
            return True
        for y in cands[x]:
            if rev[y] is not None:
                continue
            mark = len(trail)
            if assign(x, y, trail) and solve():
                return True
            undo(trail, mark)
        return False

    return tuple(fwd) if solve() else None


def submodules(M: FiniteModule):
    """Every submodule, sorted by (cardinality, member tuple)."""
    add, act = as_int16(M.add), as_int16(M.action)

    def orbit_plus(base, x):
        grown = set(base)
        grown |= {int(v) for v in act[:, x]}
        # additive closure
        changed = True
        while changed:
            changed = False
            for a in list(grown):
                for b in list(grown):
                    c = int(add[a, b])
                    if c not in grown:
                        grown.add(c)
                        changed = True
        return frozenset(grown)

    seen = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        base = frontier.pop()
        for x in range(M.size):
            if x in base:
                continue
            grown = orbit_plus(base, x)
            if grown not in seen:
                seen.add(grown)
                frontier.append(grown)
    return tuple(sorted(seen, key=lambda s: (len(s), tuple(sorted(s)))))


def ref_sent(R, descs, bound):
    """The window rows z, in lexicographic order, that some regular window row w sends into
    the ideal (wz in A), by the all-pairs scan: every z against every regular w, each pair
    an AND over the coordinates of a membership table built from the products of the
    distinct values, in blocks of about 2^22 pairs."""
    axes = [np.arange(-bound, bound + 1) if n == INT else np.arange(n) for n in R.factors]
    window = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, R.width)
    mods = np.array(R.factors, dtype=np.int64)
    regs = window[np.where(mods == 0, window != 0, np.gcd(window, mods) == 1).all(axis=1)]
    tables = []
    for i, d in enumerate(descs):
        zv, zi = np.unique(window[:, i], return_inverse=True)
        wv, wi = np.unique(regs[:, i], return_inverse=True)
        products = zv[:, None] * wv
        tables.append((((products == 0) if d == 0 else (products % d == 0))[:, wi], zi))
    step = max(1, (1 << 22) // max(1, len(regs)))
    sent = np.zeros(len(window), dtype=bool)
    for s in range(0, len(window), step):
        grid = np.ones((len(window[s : s + step]), len(regs)), dtype=bool)
        for table, zi in tables:
            grid &= table[zi[s : s + step]]
        sent[s : s + step] = grid.any(axis=1)
    return window[sent]


# The amalgZ window walked pair by pair: every regular e1 and every e2 of
# Z joined to Z_n along J = dZ_n, with integer coordinates in [-bound, bound].


def j_members(az: AmalgOverZ) -> tuple:
    """The members of J = dZ_n, ascending."""
    return tuple(range(0, az.n, az.d))


def ref_amalgz_is_regular(az: AmalgOverZ, el) -> bool:
    """(w, y) is regular iff w != 0 and no nonzero member of J kills y."""
    w, y = el
    return w != 0 and all((k * y) % az.n != 0 for k in j_members(az) if k != 0)


def _amalgz_element(az: AmalgOverZ, w, j):
    return (w, (w + j) % az.n)


def _amalgz_in_zero_ideal(az: AmalgOverZ, el) -> bool:
    w, y = el
    return w == 0 and y % az.d == 0


def ref_amalgz_zero_transfer_check(az: AmalgOverZ, S_desc, bound: int) -> AmalgZReport:
    S = ArithMCS(ArithRing((INT,)), (S_desc,))
    base = arith_is_S_r_ideal(ArithIdeal(S.ring, (0,)), S)
    hyps = {
        "epimorphism": True,
        "h1_domain": True,
        "j_in_zd": all(k == 0 or gcd(k, az.n) > 1 for k in j_members(az)),
        "disjoint": S_desc[0] == "units" or (S_desc[0] == "fin" and 0 not in S_desc[1]),  # 0 is no unit of Z
    }
    witness = _amalgz_element(az, _factor_candidates(S, 0, bound)[0], 0)
    checked = 0
    confirms = True
    if hyps["disjoint"]:
        js = j_members(az)
        for w in range(-bound, bound + 1):
            for j1 in js:
                e1 = _amalgz_element(az, w, j1)
                if not ref_amalgz_is_regular(az, e1):
                    continue
                for z in range(-bound, bound + 1):
                    for j2 in js:
                        e2 = _amalgz_element(az, z, j2)
                        if not _amalgz_in_zero_ideal(az, (e1[0] * e2[0], e1[1] * e2[1] % az.n)):
                            continue
                        checked += 1
                        if not _amalgz_in_zero_ideal(az, (witness[0] * e2[0], witness[1] * e2[1] % az.n)):
                            confirms = False
    return AmalgZReport(hyps, base, hyps["disjoint"], checked, confirms)


# The derived-ring constructors, built one element pair at a time.


def ref_make_quotient(R: FiniteRing, ideal):
    """R / I on the least member of each coset, found in ascending order, with
    the projection."""
    members = sorted(ideal.members)
    coset_of = [None] * R.size
    reps = []
    for a in R.elements():
        if coset_of[a] is not None:
            continue
        idx = len(reps)
        reps.append(a)
        for i in members:
            coset_of[R.a(a, i)] = idx
    k = len(reps)
    add = np.zeros((k, k), dtype=np.int16)
    mul = np.zeros((k, k), dtype=np.int16)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            add[i, j] = coset_of[R.a(a, b)]
            mul[i, j] = coset_of[R.m(a, b)]
    name = ideal.label()
    labels = tuple(f"{R.labels[r]}+{name}" for r in reps)
    quotient = FiniteRing(add, mul, labels=labels, recipe=f"{operand(R)}/{name}")
    return quotient, RingHom(R, quotient, tuple(coset_of))


def ref_make_module_free(R: FiniteRing, k: int) -> FiniteModule:
    """R^k on the k-tuples in lexicographic order."""
    n = R.size**k
    tuples = list(iproduct(range(R.size), repeat=k))
    pos = {t: i for i, t in enumerate(tuples)}
    add = np.zeros((n, n), dtype=np.int16)
    for i, x in enumerate(tuples):
        for j, y in enumerate(tuples):
            add[i, j] = pos[tuple(R.a(a, b) for a, b in zip(x, y))]
    act = np.zeros((R.size, n), dtype=np.int16)
    for r in range(R.size):
        for i, x in enumerate(tuples):
            act[r, i] = pos[tuple(R.m(r, a) for a in x)]
    if k == 1:
        labels = tuple(R.labels[t[0]] for t in tuples)
    else:
        labels = tuple("(" + ",".join(R.labels[a] for a in t) + ")" for t in tuples)
    return FiniteModule(R, add, act, labels=labels, recipe=f"free({k})")


def ref_make_trivial_extension(R: FiniteRing, M: FiniteModule) -> TrivExtRing:
    """R x M with (w, e)(z, f) = (wz, wf + ze), (r, m) coded r * |M| + m."""
    n = R.size * M.size
    ms = M.size
    add = np.zeros((n, n), dtype=np.int16)
    mul = np.zeros((n, n), dtype=np.int16)
    madd, act = as_int16(M.add), as_int16(M.action)
    for i in range(n):
        r1, m1 = divmod(i, ms)
        for j in range(n):
            r2, m2 = divmod(j, ms)
            add[i, j] = R.a(r1, r2) * ms + madd[m1, m2]
            mul[i, j] = R.m(r1, r2) * ms + madd[act[r1, m2], act[r2, m1]]
    labels = tuple(f"({R.labels[i // ms]},{M.labels[i % ms]})" for i in range(n))
    return TrivExtRing(R, M, FiniteRing(add, mul, labels=labels, recipe=f"triv({R.recipe}, {M.recipe})"))


def ref_make_amalgamation(H1: FiniteRing, H2: FiniteRing, f: RingHom, J: Ideal, hom_text: str = "hom"):
    """The subring {(w, f(w) + j)} of H1 x H2 on its sorted carrier pairs, with
    that carrier."""
    carrier = sorted({(w, H2.a(f.image[w], j)) for w in H1.elements() for j in J.members})
    n = len(carrier)
    pos = {p: i for i, p in enumerate(carrier)}
    add = np.zeros((n, n), dtype=np.int16)
    mul = np.zeros((n, n), dtype=np.int16)
    for i, (w1, y1) in enumerate(carrier):
        for j, (w2, y2) in enumerate(carrier):
            add[i, j] = pos[(H1.a(w1, w2), H2.a(y1, y2))]
            mul[i, j] = pos[(H1.m(w1, w2), H2.m(y1, y2))]
    labels = tuple(f"({H1.labels[w]},{H2.labels[y]})" for w, y in carrier)
    recipe = f"amalg({H1.recipe}, {H2.recipe}, {hom_text}, {J.label()})"
    return FiniteRing(add, mul, labels=labels, recipe=recipe), carrier
