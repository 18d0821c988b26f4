"""Ideal and ring predicates over finite rings.

Every predicate returns a Verdict.  Hypothesis violations (properness,
disjointness, reducedness) yield NotApplicable, never Fails: a theorem is
not contradicted by an input that does not meet its hypotheses.

Regular = unit: in a finite ring Ann(w) = 0 makes x -> wx injective, hence
onto, so xw = 1 for some x (`FiniteRing` checks this when built).  Then wz
in A gives z = x(wz) in A, and sz in A for every s.  So every proper ideal
is r and pr; A is S-r iff it passes the proper and disjoint gates and S is
nonempty, with the least s of S as witness; and the ring is uz, and S-uz
for every nonempty S, since a regular a has Ra = R.  These predicates read
only their gates, and build nothing: `_holds` keeps one shared Verdict per
witness and `_na` one per reason, at most size-cap + 1 witnesses and four
reasons, and no ring.  Sharing is safe because a Verdict is frozen.

Zero annihilator = whole ring: a proper ideal A of a finite ring has a
nonzero annihilator.  R is a product of local rings R_i, and A lies in the
maximal ideal m_i of some factor, which is nilpotent; a nonzero t_i in the
last nonzero power of m_i (1_i if m_i = 0) kills m_i, so t_i in slot i and
0 elsewhere kills A.  So Property A always holds, and `poly`'s content
search never finds a violating pair.

S-prime and S-z0 are not constant on finite rings.  They use the
uniform-witness quantifier order: one single s in S must work for every
pair.  Each computes the bitmask of the s that work, and `_uniform_witness`
reports the least member of S in it, or the pair that defeats the largest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .config import FAC_SUBSET_CAP
from .ideals import Ideal, MulClosedSet, all_ideals, annihilator, bits, ideal_generate, lattice, mask_of

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

    def to_json(self, ring) -> dict:
        def lab(x):
            if x is None:
                return None
            if isinstance(x, tuple):
                return [lab(v) for v in x]
            return ring.labels[int(x)]

        return {"outcome": self.outcome, "witness": lab(self.witness),
                "counterexample": lab(self.counterexample), "reason": self.reason}


@cache
def _holds(witness=None):
    return Verdict(HOLDS, witness=witness)


def _fails(counterexample, last_candidate=None):
    return Verdict(FAILS, counterexample=counterexample, last_candidate=last_candidate)


@cache
def _na(reason):
    return Verdict(NOT_APPLICABLE, reason=reason)


def _uniform_witness(S: MulClosedSet, good: int, defeat) -> Verdict:
    """Holds with the least s of S in the mask ``good``; Fails bare on an empty S;
    else Fails with the pair ``defeat`` returns for the largest s, which goes in
    ``last_candidate``."""
    hit = good & S.mask
    if hit:
        return _holds((hit & -hit).bit_length() - 1)
    if not S.mask:
        return _fails(None)
    last = S.mask.bit_length() - 1
    return _fails(defeat(last), last_candidate=last)


# -- r- and pr-ideals ---------------------------------------------------------------


def is_r_ideal(A: Ideal) -> Verdict:
    """wz in A with Ann(w) = 0 forces z in A: every proper ideal, by regular = unit."""
    return _holds() if A.is_proper() else _na(NOT_PROPER)


def is_pr_ideal(A: Ideal) -> Verdict:
    """wz in A with Ann(w) = 0 forces z^n in A for some n: every proper ideal, as it is r."""
    return _holds() if A.is_proper() else _na(NOT_PROPER)


# -- S-indexed predicates -------------------------------------------------------------


def is_S_r_ideal(
    A: Ideal,
    S: MulClosedSet,
    enforce_proper: bool = True,
    enforce_disjoint: bool = True,
) -> Verdict:
    """Some uniform s in S with: wz in A and Ann(w) = 0 imply sz in A.

    By regular = unit every s works, so past the gates the least one is the witness.
    An empty S has none and fails.  The verdict is shared across ideals and rings.
    """
    if enforce_proper and not A.is_proper():
        return _na(NOT_PROPER)
    if enforce_disjoint and A.mask & S.mask:
        return _na(DISJOINTNESS_VIOLATED)
    return _holds((S.mask & -S.mask).bit_length() - 1) if S.mask else _fails(None)


def is_S_prime(
    A: Ideal,
    S: MulClosedSet,
    enforce_proper: bool = True,
    enforce_disjoint: bool = True,
) -> Verdict:
    """Some uniform s in S with: wz in A implies sw in A or sz in A.

    With out(s) the mask of the x whose sx is not in A, s is defeated by a w in
    out(s) whose colon row (A : w) meets out(s); s with one out(s) share the answer.
    """
    if enforce_proper and not A.is_proper():
        return _na(NOT_PROPER)
    if enforce_disjoint and A.mask & S.mask:
        return _na(DISJOINTNESS_VIOLATED)
    L = lattice(A.ring)
    rows = L.colon_rows(A)  # rows[x]: the w with wx in A

    def out(s):
        return L.full & ~rows[s]

    def defeat(s):
        return next(((w, (hit & -hit).bit_length() - 1) for w in bits(out(s)) if (hit := rows[w] & out(s))), None)

    beaten = {o: any(rows[w] & o for w in bits(o)) for o in {out(s) for s in S.sorted_members}}
    good = mask_of(s for s in S.sorted_members if not beaten[out(s)])
    return _uniform_witness(S, good, defeat)


# -- z0-ideals -------------------------------------------------------------------------


def _z0_defeat(A: Ideal, s):
    """In the first annihilator class meeting A with a z where sz leaves A:
    (its first member in A, that z), or None."""
    R = A.ring
    for cls in lattice(R).ann_classes:
        inside = [a for a in cls if a in A]
        outside = [a for a in cls if R.m(s, a) not in A]
        if inside and outside:
            return inside[0], outside[0]
    return None


def is_z0_ideal(A: Ideal, enforce_reduced: bool = True) -> Verdict:
    """In a reduced ring: w in A and Ann(w) = Ann(z) force z in A."""
    if enforce_reduced and not A.ring.is_reduced():
        return _na(NOT_REDUCED)
    pair = _z0_defeat(A, A.ring.one)
    return _fails(pair) if pair else _holds()


def is_S_z0_ideal(
    A: Ideal,
    S: MulClosedSet,
    enforce_reduced: bool = True,
    enforce_disjoint: bool = True,
) -> Verdict:
    """Uniform s with: w in A and Ann(w) = Ann(z) imply sz in A.

    With N the union of the annihilator classes that meet A, the good s
    form (A : N), which the ring's lattice keeps per ideal.
    """
    R = A.ring
    if enforce_reduced and not R.is_reduced():
        return _na(NOT_REDUCED)
    if enforce_disjoint and A.mask & S.mask:
        return _na(DISJOINTNESS_VIOLATED)
    return _uniform_witness(S, lattice(R).z0_colon(A), lambda s: _z0_defeat(A, s))


# -- ring-level predicates ---------------------------------------------------------------


def is_uz_ring(R) -> Verdict:
    """Every element is a unit or a zero divisor: every finite ring, by regular = unit."""
    return _holds()


def is_S_uz_ring(R, S: MulClosedSet) -> Verdict:
    """Every element is an S-unit or a zero divisor: a regular a is a unit, so
    Ra = R meets S unless S is empty, where the least unit fails."""
    return _holds() if S.mask else _fails((min(R.units),))


def has_property_A(R) -> Verdict:
    """Every (f.g.) ideal inside zd(R) has nonzero annihilator: every finite ring, by zero annihilator = whole ring."""
    return _holds()


def has_ac(R) -> Verdict:
    """Every ideal's annihilator equals the annihilator of a single element."""
    single = set(lattice(R).ann)
    for A in all_ideals(R):
        if annihilator(R, A.generators).mask not in single:
            return _fails(A.generators)
    return _holds()


def has_fac(R, cap: int = FAC_SUBSET_CAP) -> Verdict:
    """Finite annihilator condition on subsets of size <= cap.

    For every nonempty T of bounded size some w in T must satisfy
    Ann(T) = Ann(w).  The cap is a documented sweep bound, not part of the
    condition itself.

    Ann(T) depends only on the annihilator classes T meets, and a T inside
    one class passes, so T runs over the classes' first members.  If every
    pair passes, the annihilators form a chain, and every T passes with its
    least mask: the first failure is a pair, so a cap of 2 or more tests
    pairs only and a cap below 2 tests nothing.  The lex-first failing pair
    (a, b) of elements gives the failing pair of their classes' first
    members, sorted; it is elementwise <= (a, b), so it is (a, b) itself.
    At most C(c, 2) pairs are tried, where c <= log2 n + 1 is the length of
    the chain on Holds, once per ring: the lattice keeps the first failing
    pair (`IdealLattice.chain_break`).
    """
    if cap < 2:
        return _holds()
    pair = lattice(R).chain_break
    return _fails(pair) if pair else _holds()


def s_idempotent_ideal_check(R, S: MulClosedSet, gens) -> Verdict:
    """Ideal spanned by elements with a^2 = sa (s = product of S) must be S-r.

    Generators failing the gate make the check NotApplicable rather than a
    counterexample; a Fails outcome here flags a genuine bug.
    """
    s = S.product()
    gens = tuple(int(g) for g in gens)
    for g in gens:
        if R.m(g, g) != R.m(s, g):
            return _na(GENERATOR_GATE)
    A = ideal_generate(R, gens)
    if A.mask & S.mask:
        return _na(DISJOINTNESS_VIOLATED)
    return is_S_r_ideal(A, S)
