"""Brute-force references and helpers that only the tests use.

Each one checks the package from outside: an ideal's closure, S-units, the
per-candidate scans of the uniform-witness predicates (S-r, S-prime, S-z0),
the power iteration of the pr test, the per-call column test of a colon, the
set forms of T2.7's scaled sides, the per-entry loops of P-colon and T2.5,
the fraction construction of a localization, an isomorphism search between
finite rings, and the submodule lattice of a finite module.
"""

import numpy as np

from ringlab.classify import (
    DISJOINTNESS_VIOLATED,
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    NOT_PROPER,
    NOT_REDUCED,
    Verdict,
)
from ringlab.config import size_limit
from ringlab.errors import SizeLimitError, TypeMismatch
from ringlab.extensions import FiniteModule
from ringlab.ideals import (
    Ideal,
    MulClosedSet,
    annihilator,
    bits,
    colon,
    first_hit,
    ideal_generate,
    ideal_pushforward,
    localize,
    mask_of,
    member_row,
    principal_members,
)
from ringlab.rings import FiniteRing, _check_ideal_subset, idempotent_power


def validate_ideal(A: Ideal) -> None:
    """Closure checks; raises on violation."""
    _check_ideal_subset(A.ring, A.members)
    if ideal_generate(A.ring, A.generators).members != A.members:
        raise TypeMismatch("ideal members differ from the span of its generators")


def s_units(R: FiniteRing, S: MulClosedSet) -> frozenset:
    """{a : the principal ideal Ra meets S}."""
    if S.ring is not R:
        raise TypeMismatch("m.c.s. belongs to a different ring")
    return frozenset(a for a in R.elements() if principal_members(R, a) & S.members)


def _uniform_scan(S: MulClosedSet, defeat) -> Verdict:
    """The least s in S that no pair defeats; else Fails with the last s's pair."""
    pair = None
    for s in S.sorted_members:
        pair = defeat(s)
        if pair is None:
            return Verdict(HOLDS, witness=s)
    return Verdict(FAILS, counterexample=pair, last_candidate=S.sorted_members[-1])


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
    inside = member_row(A)
    regs = np.fromiter(sorted(R.regulars), dtype=np.intp)
    prod_in = inside[R.mul[regs, :]]

    def defeat(s):
        hit = first_hit(prod_in & ~inside[R.mul[s, :]][None, :])
        return None if hit is None else (int(regs[hit[0]]), hit[1])

    return _uniform_scan(S, defeat)


def ref_is_r_ideal(A: Ideal) -> Verdict:
    """The r-ideal verdict as the S-r scan at S = {1}, without its witness."""
    if not A.is_proper():
        return Verdict(NOT_APPLICABLE, reason=NOT_PROPER)
    R = A.ring
    one = MulClosedSet(R, frozenset({R.one}), (), 1 << R.one)
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
    hit = first_hit(member_row(A)[R.mul[regs, :]] & ~reaches[None, :])
    return Verdict(FAILS, counterexample=(int(regs[hit[0]]), hit[1])) if hit else Verdict(HOLDS)


def ref_is_S_prime(A: Ideal, S: MulClosedSet, enforce_proper=True, enforce_disjoint=True) -> Verdict:
    """S-prime by trying each s in S: no wz in A with sw and sz both outside A."""
    R = A.ring
    if enforce_proper and not A.is_proper():
        return Verdict(NOT_APPLICABLE, reason=NOT_PROPER)
    if enforce_disjoint and S.members & A.members:
        return Verdict(NOT_APPLICABLE, reason=DISJOINTNESS_VIOLATED)
    inside = member_row(A)
    prod_in = inside[R.mul]

    def defeat(s):
        s_in = inside[R.mul[s, :]]
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
    return mask_of(np.flatnonzero(member_row(A)[R.mul[:, bits(ks)]].all(axis=1)))


def ref_t2_7_sides(A: Ideal, regs, pre) -> dict:
    """T2.7's scaled sides by scaling each set: for some s in regs, every r in
    regs has s(Rr meet A) in rA and s(A : r) in A, and s.pre lies in A."""
    R = A.ring
    return {
        "scaled_intersections": any(
            all(
                {R.m(s, x) for x in principal_members(R, r) & A.members} <= {R.m(r, x) for x in A.members}
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


def localize_oracle(R: FiniteRing, S: MulClosedSet):
    """Independent fraction construction: classes of pairs (a, s).

    (a,s) ~ (b,u) iff v(ua - sb) = 0 for some v in S.  Returns the fraction
    ring, which must be isomorphic to localize(R, S).localized, and the
    class of each pair (a, s) as a dict.
    """
    if S.ring is not R:
        raise TypeMismatch("m.c.s. belongs to a different ring")
    if R.size * len(S.members) > size_limit() ** 2:
        raise SizeLimitError("fraction table beyond the size cap")
    dens = sorted(S.members)
    pairs = [(a, s) for a in R.elements() for s in dens]
    index = {p: i for i, p in enumerate(pairs)}
    m = len(pairs)
    av = np.fromiter((p[0] for p in pairs), dtype=np.intp)
    sv = np.fromiter((p[1] for p in pairs), dtype=np.intp)
    neg = np.fromiter(R.neg, dtype=np.intp)
    # diff[i, j] = u_j * a_i - s_i * b_j
    ua = R.mul[av[:, None], sv[None, :]]  # a_i * u_j
    sb = R.mul[sv[:, None], av[None, :]]  # s_i * b_j
    diff = R.add[ua, neg[sb]]
    kill = (R.mul[np.ix_(np.fromiter(dens, dtype=np.intp), np.arange(R.size))] == 0).any(axis=0)
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
    col = R.mul[:, a]
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
    def orbit_plus(base, x):
        grown = set(base)
        grown |= {M.act(r, x) for r in M.ring.elements()}
        # additive closure
        changed = True
        while changed:
            changed = False
            for a in list(grown):
                for b in list(grown):
                    c = M.m_add(a, b)
                    if c not in grown:
                        grown.add(c)
                        changed = True
        return frozenset(grown)

    seen = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        base = frontier.pop()
        for x in M.elements():
            if x in base:
                continue
            grown = orbit_plus(base, x)
            if grown not in seen:
                seen.add(grown)
                frontier.append(grown)
    return tuple(sorted(seen, key=lambda s: (len(s), tuple(sorted(s)))))
