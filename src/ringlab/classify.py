"""Ideal and ring predicates decided by exhaustive scan over finite rings.

Every predicate returns a Verdict.  Hypothesis violations (properness,
disjointness, reducedness) yield NotApplicable, never Fails: a theorem is
not contradicted by an input that does not meet its hypotheses.

The S-indexed predicates use the uniform-witness quantifier order: one
single s in S must work for every pair (w, z).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_

import numpy as np

from .config import FAC_SUBSET_CAP
from .ideals import Ideal, MulClosedSet, all_ideals, annihilator, first_hit, ideal_generate, lattice, member_row
from .ideals import principal_members

HOLDS = "Holds"
FAILS = "Fails"
NOT_APPLICABLE = "NotApplicable"

NOT_PROPER = "NOT_PROPER"
DISJOINTNESS_VIOLATED = "DISJOINTNESS_VIOLATED"
NOT_REDUCED = "NOT_REDUCED"
GENERATOR_GATE = "GENERATOR_GATE"


@dataclass(frozen=True)
class Verdict:
    outcome: str
    witness: object = None
    counterexample: tuple = None
    reason: str = None
    last_candidate: object = None

    @property
    def holds(self) -> bool:
        return self.outcome == HOLDS

    @property
    def fails(self) -> bool:
        return self.outcome == FAILS

    @property
    def not_applicable(self) -> bool:
        return self.outcome == NOT_APPLICABLE

    def to_json(self, ring=None) -> dict:
        def lab(x):
            if x is None:
                return None
            if isinstance(x, tuple):
                return [lab(v) for v in x]
            return ring.labels[int(x)] if ring is not None else int(x)

        return {"outcome": self.outcome, "witness": lab(self.witness),
                "counterexample": lab(self.counterexample), "reason": self.reason}


def _holds(witness=None):
    return Verdict(HOLDS, witness=witness)


def _fails(counterexample, last_candidate=None):
    return Verdict(FAILS, counterexample=counterexample, last_candidate=last_candidate)


def _na(reason):
    return Verdict(NOT_APPLICABLE, reason=reason)


def _defeat(A: Ideal, ok):
    """Lex-first (w, z) with w regular, wz in A and not ok[z], or None."""
    R = A.ring
    regs = np.fromiter(sorted(R.regulars), dtype=np.intp)
    hit = first_hit(member_row(A)[R.mul[regs, :]] & ~ok[None, :])
    return (int(regs[hit[0]]), hit[1]) if hit else None


def _regular_scan(A: Ideal, ok) -> Verdict:
    """Fails on the lex-first (w, z) with w regular, wz in A and not ok[z]."""
    pair = _defeat(A, ok)
    return _fails(pair) if pair else _holds()


# -- r- and pr-ideals ---------------------------------------------------------------


def is_r_ideal(A: Ideal) -> Verdict:
    """wz in A with Ann(w) = 0 forces z in A: 1 lies in the witness mask W(A)."""
    if not A.is_proper():
        return _na(NOT_PROPER)
    if lattice(A.ring).witnesses(A) >> A.ring.one & 1:
        return _holds()
    return _regular_scan(A, member_row(A))


def _power_reaches(R, A_members, z) -> bool:
    seen = set()
    cur = int(z)
    while cur not in seen:
        if cur in A_members:
            return True
        seen.add(cur)
        cur = R.m(cur, z)
    return False


def is_pr_ideal(A: Ideal) -> Verdict:
    """wz in A with Ann(w) = 0 forces z^n in A for some n."""
    if not A.is_proper():
        return _na(NOT_PROPER)
    R = A.ring
    return _regular_scan(A, np.fromiter((_power_reaches(R, A.members, z) for z in R.elements()), dtype=bool))


# -- S-indexed predicates -------------------------------------------------------------


def _uniform_witness(S: MulClosedSet, defeat) -> Verdict:
    """Holds with the least s in S that no pair defeats; else Fails with the
    pair ``defeat`` returns for the last s, which goes in ``last_candidate``."""
    cands = S.sorted_members
    pair = None
    for s in cands:
        pair = defeat(s)
        if pair is None:
            return _holds(witness=int(s))
    return _fails(pair, last_candidate=cands[-1])


def is_S_r_ideal(
    A: Ideal,
    S: MulClosedSet,
    enforce_proper: bool = True,
    enforce_disjoint: bool = True,
) -> Verdict:
    """Some uniform s in S with: wz in A and Ann(w) = 0 imply sz in A.

    The good s form the witness mask W(A), so A is S-r iff W(A) meets S.
    Holds reports the smallest such s.  Fails reports the pair that defeats
    the last candidate, with that candidate in ``last_candidate``.
    """
    if enforce_proper and not A.is_proper():
        return _na(NOT_PROPER)
    if enforce_disjoint and A.mask & S.mask:
        return _na(DISJOINTNESS_VIOLATED)
    good = lattice(A.ring).witnesses(A) & S.mask
    if good:
        return _holds(witness=(good & -good).bit_length() - 1)
    last = max(S.members)
    return _fails(_defeat(A, member_row(A)[A.ring.mul[last, :]]), last_candidate=last)


def is_S_prime(
    A: Ideal,
    S: MulClosedSet,
    enforce_proper: bool = True,
    enforce_disjoint: bool = True,
) -> Verdict:
    """Some uniform s in S with: wz in A implies sw in A or sz in A."""
    R = A.ring
    if enforce_proper and not A.is_proper():
        return _na(NOT_PROPER)
    if enforce_disjoint and (S.members & A.members):
        return _na(DISJOINTNESS_VIOLATED)
    mask = member_row(A)
    prod_in = mask[R.mul]

    def defeat(s):
        s_in = mask[R.mul[s, :]]
        return first_hit(prod_in & ~s_in[:, None] & ~s_in[None, :])

    return _uniform_witness(S, defeat)


# -- z0-ideals -------------------------------------------------------------------------


def is_z0_ideal(A: Ideal, enforce_reduced: bool = True) -> Verdict:
    """In a reduced ring: w in A and Ann(w) = Ann(z) force z in A."""
    R = A.ring
    if enforce_reduced and not R.is_reduced():
        return _na(NOT_REDUCED)
    for cls in lattice(R).ann_classes:
        inside = [a for a in cls if a in A.members]
        if inside and len(inside) != len(cls):
            w = inside[0]
            z = next(a for a in cls if a not in A.members)
            return _fails((w, z))
    return _holds()


def is_S_z0_ideal(
    A: Ideal,
    S: MulClosedSet,
    enforce_reduced: bool = True,
    enforce_disjoint: bool = True,
) -> Verdict:
    """Uniform s with: w in A and Ann(w) = Ann(z) imply sz in A."""
    R = A.ring
    if enforce_reduced and not R.is_reduced():
        return _na(NOT_REDUCED)
    if enforce_disjoint and (S.members & A.members):
        return _na(DISJOINTNESS_VIOLATED)
    classes = [cls for cls in lattice(R).ann_classes if any(a in A.members for a in cls)]

    def defeat(s):
        for cls in classes:
            z = next((a for a in cls if R.m(s, a) not in A.members), None)
            if z is not None:
                return next(a for a in cls if a in A.members), z
        return None

    return _uniform_witness(S, defeat)


# -- ring-level predicates ---------------------------------------------------------------


def is_uz_ring(R) -> Verdict:
    """Every element is a unit or a zero divisor."""
    for a in R.elements():
        if a not in R.units and a not in R.zero_divisors:
            return _fails((a,))
    return _holds()


def is_S_uz_ring(R, S: MulClosedSet) -> Verdict:
    """Every element is an S-unit or a zero divisor."""
    for a in R.elements():
        if a in R.zero_divisors:
            continue
        if not (principal_members(R, a) & S.members):
            return _fails((a,))
    return _holds()


def has_property_A(R) -> Verdict:
    """Every (finitely generated) ideal inside zd(R) has nonzero annihilator."""
    for B in all_ideals(R):
        if B.members <= R.zero_divisors and annihilator(R, B.generators).is_zero():
            return _fails(B.generators)
    return _holds()


def has_ac(R) -> Verdict:
    """Every ideal's annihilator equals the annihilator of a single element."""
    single = set(lattice(R).ann)
    for A in all_ideals(R):
        if annihilator(R, A.generators).mask not in single:
            return _fails(A.generators)
    return _holds()


def has_fac(R, cap: int = None) -> Verdict:
    """Finite annihilator condition on subsets of size <= cap (default 3).

    For every nonempty T of bounded size some w in T must satisfy
    Ann(T) = Ann(w).  The cap is a documented sweep bound, not part of the
    condition itself.
    """
    cap = FAC_SUBSET_CAP if cap is None else cap
    ann = lattice(R).ann
    for size in range(2, cap + 1):
        for T in combinations(R.elements(), size):
            masks = [ann[t] for t in T]
            if reduce(and_, masks) not in masks:
                return _fails(T)
    return _holds()


def s_idempotent_ideal_check(R, S: MulClosedSet, gens) -> Verdict:
    """Ideal spanned by elements with a^2 = sa (s = product of S) must be S-r.

    Generators failing the gate make the check NotApplicable rather than a
    counterexample; a Fails outcome here flags a genuine bug.
    """
    s = reduce(R.m, S.sorted_members, R.one)
    gens = tuple(int(g) for g in gens)
    for g in gens:
        if R.m(g, g) != R.m(s, g):
            return _na(GENERATOR_GATE)
    A = ideal_generate(R, gens)
    if S.members & A.members:
        return _na(DISJOINTNESS_VIOLATED)
    return is_S_r_ideal(A, S)
