"""The proposition registry: every catalogued statement as an executable check.

Each registry case maps a stable id to a runner that sweeps one corpus entry
and yields findings (outcome, annotation labels, hypothesis flags, detail).
`_run_entry` alone writes them as records, adding the case id, the entry, its
recipe, the dropped hypotheses, the witness or counterexample, and the seed
when the entry's m.c.s. catalogue was subsampled; so a record depends only on
its entry, its case and the run limits, and can be replayed from them.

Outcomes: VERIFIED (hypotheses met, statement checked non-vacuously),
VACUOUS (hypotheses unmet or antecedent never fired), VIOLATION (the
statement failed; unexpected unless hypotheses were deliberately dropped).
A runner states each instance's checks once and `_counted` turns their count
and first failure into the outcome and the detail.  Most runners return
`_sweeps`: a finding per ideal or m.c.s.  A failed check gives `_failure`'s
dict, built with its labels only when the check fails: building them on every
check made the finite corpus 14% slower.

Verdict rows: a finite context asks each (ideal, catalogue m.c.s., disjointness
flag) S-r question once, through `s_r`, and keeps one pair of ints per ideal and
flag (`rows`), bit j for the j-th m.c.s.: the gates (the ideal is proper and,
where that is enforced, misses it) and the answers.  Properness is never
dropped.  Every finite runner with a count states its checks as
``(asked, held)`` masks, read from the rows in the order of the runner's loop
(`_row_checks`): the count is a popcount up to and including the first asked bit
that is not held, and only that failed check asks `s_r` again, for the verdict
its dict carries.  m.c.s. outside the catalogue (T2.7's S<reg>, P-jac's
complements) and records that carry a verdict (P-zero's, P2.8's witness) ask
`s_r` directly.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from . import arith as ar
from . import classify as cl
from .corpus import AMALGZ, ARITH, FINITE, POLY, CorpusEntry, CorpusSpec, Limits
from .dsl import (
    int_args,
    parse_arith_ideal,
    parse_arith_mcs,
    parse_arith_ring,
    parse_ideal,
    parse_mcs,
    parse_ring_structure,
)
from .errors import ConfigError, ParseError, UnknownHypothesis, UnknownTheorem
from .extensions import (
    BACKWARD,
    FORWARD,
    AmalgOverZ,
    AmalgRing,
    TrivExtRing,
    amalg_hypotheses,
    amalg_transfer_check,
    amalgz_zero_transfer_check,
    triv_equivalence_check,
    triv_module_facts,
)
from .ideals import (
    all_ideals,
    annihilator,
    bits,
    colon,
    ideal_generate,
    ideal_pushforward,
    ideal_sum,
    is_prime,
    jacobson_radical,
    lattice as ideal_lattice,
    localize,
    mask_of,
    max_ideals,
    mcs_from_members,
    mcs_generate,
    member_order,
    min_primes_over,
    spec as prime_spectrum,
    transpose,
)
from .poly import (
    NO_VIOLATION_UP_TO,
    YES_BY_THEOREM,
    PolyIdealSpec,
    bounded_S_r_search,
    decide_content_S_r,
    dedekind_mertens_sweep,
)
from .rings import (
    RingHom,
    ann_pushforward_check,
    check_hom,
    crt_hom,
    identity_hom,
    make_product,
    pad,
)

VERIFIED = "VERIFIED"
VACUOUS = "VACUOUS"
VIOLATION = "VIOLATION"


# -- per-entry contexts ----------------------------------------------------------------
#
# A context is an entry built once for every runner: `ring`, `limits`, and the
# `recipe` that names the ring in records.


class FiniteContext:
    """Parsed entry plus its m.c.s. candidates; verdicts come from `classify`, which shares
    them, and the verdict rows over the catalogue are kept for every runner of the entry."""

    kind = FINITE

    def __init__(self, entry: CorpusEntry, limits: Limits):
        self.entry = entry
        self.limits = limits
        # the TrivExtRing / AmalgRing the whole expression denotes, if any
        self.ring, self.structure = parse_ring_structure(entry.expr)
        self.recipe = self.ring.recipe
        self._pinned_ideal = parse_ideal(self.ring, entry.ideal_text) if entry.ideal_text else None
        self._pinned_mcs = parse_mcs(self.ring, entry.mcs_text) if entry.mcs_text else None
        self._rows = {}  # (A.mask, enforce_disjoint) -> (gates, held)

    def ideals(self):
        if self._pinned_ideal is not None:
            return (self._pinned_ideal,)
        return all_ideals(self.ring)

    def proper_ideals(self):
        return tuple(A for A in self.ideals() if A.is_proper())

    def mcs_list(self):
        return (self._pinned_mcs,) if self._pinned_mcs is not None else self._catalogue[0]

    @property
    def subsampled(self):
        """Whether the m.c.s. catalogue was subsampled; every record of the entry then says so."""
        return self._pinned_mcs is None and self._catalogue[1]

    @cached_property
    def _catalogue(self):
        """(m.c.s. candidates, whether they were subsampled): they depend on Limits and on
        the pinned ideal.  The units and the whole ring are kept past both caps."""
        R = self.ring
        special = [mcs_from_members(R, R.units), mcs_from_members(R, R.elements())]
        ordered = _distinct(_small_mcs(R) + special)
        masks = {S.mask for S in special}
        kept = [S for S in ordered if S.mask in masks]  # labelled as in ordered
        if len(ordered) > self.limits.mcs_cap:
            ordered = _distinct(ordered[: self.limits.mcs_cap - 2] + kept)
        if len(self.ideals()) * len(ordered) <= self.limits.annotation_cap:
            return tuple(ordered), False
        rest = [S for S in ordered if S not in kept]
        take = max(0, self.limits.annotation_cap // len(self.ideals()) - len(kept))
        return tuple(_distinct(kept + random.Random(self.limits.subsample_seed).sample(rest, take))), True

    def s_r(self, A, S, enforce_disjoint=True):
        return cl.is_S_r_ideal(A, S, True, enforce_disjoint)

    def rows(self, A, enforce_disjoint=True):
        """(gates, held), bit j for S_j = ``self.mcs_list()[j]``: gates where A is proper
        and, when that is enforced, misses S_j; held where ``self.s_r(A, S_j, enforce_disjoint)``
        holds.  Each (ideal, m.c.s., flag) question is asked once per entry, through `s_r`."""
        got = self._rows.get((A.mask, enforce_disjoint))
        if got is None:
            mcs = self.mcs_list()
            gates = mask_of(j for j, S in enumerate(mcs) if A.is_proper() and not (enforce_disjoint and A.mask & S.mask))
            held = mask_of(j for j, S in enumerate(mcs) if self.s_r(A, S, enforce_disjoint=enforce_disjoint).holds)
            got = self._rows[(A.mask, enforce_disjoint)] = gates, held
        return got

    def r_verdict(self, A):
        return cl.is_r_ideal(A)

    def s_z0(self, A, S, enforce_reduced=True, enforce_disjoint=True):
        return cl.is_S_z0_ideal(A, S, enforce_reduced, enforce_disjoint)


class ArithContext:
    """The pinned (ideal, m.c.s.) pair, its annotations, its S-r verdict and whether A lies in zd."""

    kind = ARITH
    subsampled = False

    def __init__(self, entry: CorpusEntry, limits: Limits):
        self.entry = entry
        self.limits = limits
        self.ring = parse_arith_ring(entry.expr)
        self.recipe = self.ring.label()
        if not entry.ideal_text or not entry.mcs_text:
            raise ParseError(f"arith entry needs ideal= and mcs= annotations: {entry.text}")
        self.ideal = parse_arith_ideal(self.ring, entry.ideal_text)
        self.mcs = parse_arith_mcs(self.ring, entry.mcs_text)
        self.annotations = {"ideal": self.ideal.label(), "mcs": self.mcs.label()}
        self.verdict = ar.arith_is_S_r_ideal(self.ideal, self.mcs)
        self.in_zd = ar.arith_subset_zd(self.ideal)


class PolyContext(FiniteContext):
    kind = POLY
    subsampled = False  # its runners read only the constant candidates

    def poly_mcs_list(self):
        """Constant m.c.s. candidates: trivial, units, and unit-generated."""
        return (self._pinned_mcs,) if self._pinned_mcs is not None else self._poly_catalogue

    @cached_property
    def _poly_catalogue(self):
        """The unpinned candidates, built once for every runner of the entry."""
        R = self.ring
        singles = sorted(R.units) + sorted(set(R.elements()) - R.units)[:2]
        found = [mcs_generate(R, ()), mcs_from_members(R, R.units)] + [mcs_generate(R, (g,)) for g in singles]
        return tuple(_distinct(found))

    def search_degree(self):
        # T4.1 and T4.2 record this degree in their annotations, so the cap on
        # the larger bases is part of the report, though the searches cost nothing
        return self.limits.degree if self.ring.size <= 6 else min(2, self.limits.degree)


class AmalgZContext:
    kind = AMALGZ
    subsampled = False

    def __init__(self, entry: CorpusEntry, limits: Limits):
        self.entry = entry
        self.limits = limits
        self.recipe = entry.expr
        if entry.ideal_text:  # the lane decides only the zero ideal
            raise ParseError(f"amalgZ takes no ideal= annotation: {entry.text}")
        self.az = AmalgOverZ(*int_args(entry.expr, "amalgZ", 2))
        self.mcs_text = entry.mcs_text or "(units)"
        self.s_desc = parse_arith_mcs(parse_arith_ring("Z"), self.mcs_text).descs[0]


# entry kind -> (its context, the TheoremCase field that holds its runner)
LANES = {
    FINITE: (FiniteContext, "runner"),
    POLY: (PolyContext, "runner"),
    ARITH: (ArithContext, "arith_runner"),
    AMALGZ: (AmalgZContext, "arith_runner"),
}


def build_context(entry: CorpusEntry, limits: Limits):
    """Build the entry's ring and annotations: the one place an entry is parsed."""
    if entry.kind not in LANES:
        raise ParseError(f"unknown entry kind {entry.kind}")
    return LANES[entry.kind][0](entry, limits)


# -- record and sweep helpers ----------------------------------------------------------------


# What a runner yields per statement instance; `_run_entry` writes it as a report record.
Finding = namedtuple("Finding", "outcome annotations hypotheses detail", defaults=(None, None, None))


def _record(theorem, ctx, dropped, finding):
    annotations = dict(finding.annotations or {})
    if ctx.subsampled:
        annotations["subsample_seed"] = ctx.limits.subsample_seed
    detail = finding.detail or {}
    # surface the principal verdict's witness data at the top level
    verdict = detail.get("verdict") or (detail.get("failure") or {}).get("verdict") or {}
    return {
        "theorem": theorem,
        "entry": ctx.entry.text,
        "recipe": ctx.recipe,
        "annotations": annotations,
        "hypotheses": finding.hypotheses or {},
        "dropped": sorted(dropped),
        "outcome": finding.outcome,
        "witness": verdict.get("witness"),
        "counterexample": verdict.get("counterexample"),
        "detail": detail,
    }


def _counted(key, checked, failure):
    """The outcome of ``checked`` checks, the last of them ``failure`` when that is not
    None: VIOLATION at a failure, VACUOUS when nothing was checked, VERIFIED otherwise;
    and the detail counting them under ``key``, with the failure, if any, under "failure"."""
    if failure is not None:
        return VIOLATION, {key: checked, "failure": failure}
    return (VERIFIED if checked else VACUOUS), {key: checked}


def _sweeps(items, label, key, checks, hypotheses=None, met=True):
    """One finding per ideal or m.c.s. X of ``items``: `_counted` over ``checks(X)``,
    annotated ``{label: X.label()}`` and carrying ``hypotheses``; VACUOUS with no
    payload, and no check run, when the hypothesis is not ``met``."""
    for X in items:
        outcome, detail = _counted(key, *checks(X)) if met else (VACUOUS, None)
        yield Finding(outcome, {label: X.label()}, hypotheses, detail)


def _failure(v, ring, **where):
    """A failed check's dict: where it failed, then the verdict `_record` takes the witness from."""
    return {**where, "verdict": v.to_json(ring)}


def _row_checks(rows, fail, group=1):
    """The checks of one instance, stated as ``(asked, held)`` masks: each asked bit is
    one check, which passes when ``held`` has the bit too.

    The runner's loop reads ``rows`` ``group`` at a time (all at once when None),
    bit by bit within a group and row by row within a bit.  Returns ``(checked,
    failure)``: the count of checks in that order up to and including the first
    asked bit that is not held, and ``fail(row, bit)``, the failed check's dict;
    or, when every asked bit is held, the count of them all and None.
    """
    missing = checked = 0
    for asked, held in rows:
        missing |= asked & ~held
        checked += asked.bit_count()
    if not missing:
        return checked, None
    checked, size = 0, group or len(rows)
    for start in range(0, len(rows), size):
        block = rows[start : start + size]
        for bit in range(max(asked.bit_length() for asked, _ in block)):
            for r, (asked, held) in enumerate(block):
                if asked >> bit & 1:
                    checked += 1
                    if not held >> bit & 1:
                        return checked, fail(start + r, bit)


def _distinct(candidates):
    """The first m.c.s. given per member set, ordered by (size, members)."""
    first = {}
    for S in candidates:
        first.setdefault(S.mask, S)
    return sorted(first.values(), key=lambda S: member_order(S.mask, S.ring.size))


def _small_mcs(ring, keep=None):
    """The ``keep`` smallest m.c.s. generated by at most one element (all of them by default)."""
    return _distinct([mcs_generate(ring, ())] + [mcs_generate(ring, (g,)) for g in ring.elements()])[:keep]


# -- finite-lane runners -------------------------------------------------------------------


def run_degen(ctx, dropped):
    """`classify`'s two lemmas from the lattice tables (Ann = 0 exactly on the units, every
    proper ideal has nonzero annihilator); then every proper ideal is r and the ring is uz."""
    R = ctx.ring
    uz = cl.is_uz_ring(R)
    regular_is_unit = mask_of(a for a, m in enumerate(ideal_lattice(R).ann) if m == 1) == mask_of(R.units)
    ideals = ctx.proper_ideals()  # one check each: r, with nonzero annihilator
    ok = [ctx.r_verdict(A).holds and not annihilator(R, A.generators).is_zero() for A in ideals]
    held = mask_of(i for i, passed in enumerate(ok) if passed)

    def fail(_, i):
        return _failure(ctx.r_verdict(ideals[i]), R, failing_ideal=ideals[i].label())

    outcome, detail = _counted("proper_ideals_checked", *_row_checks([((1 << len(ideals)) - 1, held)], fail))
    detail.update(detail.pop("failure", {}), uz=uz.to_json(R))
    ok = uz.holds and regular_is_unit and outcome != VIOLATION
    yield Finding(VERIFIED if ok else VIOLATION, detail=detail)


def run_p_zero(ctx, dropped):
    zero = ideal_generate(ctx.ring, ())
    enforce = "disjoint" not in dropped
    for S in ctx.mcs_list():
        v = ctx.s_r(zero, S, enforce_disjoint=enforce)
        if v.not_applicable:
            outcome = VACUOUS
        else:
            outcome = VERIFIED if v.holds else VIOLATION
        hypotheses = {"disjoint": not S.mask & zero.mask}
        yield Finding(outcome, {"ideal": "(0)", "mcs": S.label()}, hypotheses, {"verdict": v.to_json(ctx.ring)})


def run_t2_3(ctx, dropped):
    """Monotone transfer along S1 inside S2, plus the converse when every s
    of S2 has Rs meeting S1."""
    R = ctx.ring
    mcs = ctx.mcs_list()
    meets = ideal_lattice(R).principal_meets([S.mask for S in mcs])  # meets[i]: the s whose Rs meets S_i
    above, converse = [0] * len(mcs), [0] * len(mcs)  # per S_i: the S_k strictly above it; those with the converse
    for i, S1 in enumerate(mcs):
        for k, S2 in enumerate(mcs):
            if S1.mask != S2.mask and not S1.mask & ~S2.mask:
                above[i] |= 1 << k
                converse[i] |= (not S2.mask & ~meets[i]) << k
    enforce = "disjoint" not in dropped

    def checks(A):
        _, held = ctx.rows(A)
        free, lifted = ctx.rows(A, enforce)
        # per S_i, S_k by S_k: forward (A S_i-r, A misses S_k => S_k-r), converse (A S_k-r => S_i-r);
        # only an S_i where A is S_i-r asks forward, and where it is not, every converse check fails
        rows, at = [], []  # two rows per S_i that asks anything, and that i
        for i, (up, down) in enumerate(zip(above, converse)):
            if held >> i & 1:
                rows += ((up & free, lifted), (down & held, -1))
            elif down & held:
                rows += ((0, 0), (down & held, 0))
            else:
                continue
            at.append(i)

        def fail(r, k):
            S1, S2 = mcs[at[r // 2]], mcs[k]
            v = ctx.s_r(A, S1) if r % 2 else ctx.s_r(A, S2, enforce_disjoint=enforce)
            return _failure(v, R, direction=("forward", "converse")[r % 2], mcs1=S1.label(), mcs2=S2.label())

        return _row_checks(rows, fail, group=2)

    return _sweeps(ctx.proper_ideals(), "ideal", "implications_checked", checks)


def run_t2_5(ctx, dropped):
    """r-ideal pushforward to the localization pulls back to S-r."""
    R = ctx.ring
    mcs = ctx.mcs_list()
    need_reg = "s_regular" not in dropped
    localized = {}  # absorbing idempotent -> [its localization, the positions j of the m.c.s. that reach it]
    for j, S in enumerate(mcs):
        if not need_reg or not S.mask & ~ideal_lattice(R).regulars:
            loc = localize(R, S)
            localized.setdefault(loc.absorbing_idempotent, [loc, 0])[1] |= 1 << j

    def checks(A):
        asked = 0
        for loc, js in localized.values():
            if cl.is_r_ideal(ideal_pushforward(loc, A)).holds:
                asked |= js
        return _row_checks([(asked, ctx.rows(A)[1])], lambda _, j: _failure(ctx.s_r(A, mcs[j]), R, mcs=mcs[j].label()))

    hypotheses = {"s_regular_candidates": bool(localized)}
    return _sweeps(ctx.proper_ideals(), "ideal", "implications_checked", checks, hypotheses)


def _t2_7_sides(A, regs, pre: int) -> dict:
    """The scaled sides of T2.7 over the elements ``regs``, with ``pre`` a mask.

    s.X lies in B iff X lies in (B : s), and rA is the ideal (Rr)A, so each
    side is a test of mask inclusion between colon rows: for some s in regs,
    (Rr meet A) in (rA : s) and (A : r) in (A : s) for every r in regs, and
    pre in (A : s).
    """
    L = ideal_lattice(A.ring)
    rows = L.colon_rows(A)
    # per distinct Rr: (Rr meet A, the colon rows of rA)
    scaled = [(p & A.mask, L.colon_rows(L.product(L.intern(p), A))) for p in dict.fromkeys(L.principal[r] for r in regs)]
    return {
        "scaled_intersections": any(all(not meet & ~r_rows[s] for meet, r_rows in scaled) for s in regs),
        "scaled_colons": any(all(not rows[r] & ~rows[s] for r in regs) for s in regs),
        "localization_preimage": any(not pre & ~rows[s] for s in regs),
    }


def run_t2_7(ctx, dropped):
    """Four-way characterization at S = regular elements."""
    R = ctx.ring
    S = mcs_from_members(R, R.regulars)
    regs = bits(S.mask)
    enforce = "disjoint" not in dropped
    # the pushforward of A is eA, and ex lies in eA iff ex lies in A, so the
    # preimage of the pushforward is the colon row (A : e)
    e = localize(R, S).absorbing_idempotent
    for A in ctx.proper_ideals():
        if enforce and A.mask & S.mask:
            continue
        sides = {
            "s_r": ctx.s_r(A, S, enforce_disjoint=enforce).holds,
            **_t2_7_sides(A, regs, ideal_lattice(R).colon_rows(A)[e]),
        }
        yield Finding(
            VERIFIED if len(set(sides.values())) == 1 else VIOLATION,
            {"ideal": A.label(), "mcs": "S<reg>"},
            {"disjoint": not A.mask & S.mask},
            {"sides": sides},
        )


def run_p2_8(ctx, dropped):
    """The S-r witness s has (A : s) = (A : s^n) for every exponent."""
    R = ctx.ring
    need_reg = "s_regular" not in dropped

    def stable(A, s):
        base_colon = colon(A, (s,)).mask
        power, seen = s, set()
        while power not in seen:
            seen.add(power)
            if colon(A, (power,)).mask != base_colon:
                return False
            power = R.m(power, s)
        return True

    mcs = ctx.mcs_list()
    candidates = mask_of(j for j, S in enumerate(mcs) if not need_reg or not S.mask & ~ideal_lattice(R).regulars)

    def checks(A):
        asked = ctx.rows(A)[1] & candidates
        witness = {j: ctx.s_r(A, mcs[j]).witness for j in bits(asked)}
        held = mask_of(j for j, s in witness.items() if stable(A, s))
        return _row_checks([(asked, held)], lambda _, j: {"mcs": mcs[j].label(), "witness": R.labels[witness[j]]})

    return _sweeps(ctx.proper_ideals(), "ideal", "witnesses_checked", checks)


def run_p2_10(ctx, dropped):
    """S-z0 implies S-r over reduced rings."""
    R = ctx.ring
    mcs = ctx.mcs_list()
    reduced = R.is_reduced()
    enforce_reduced = "reduced" not in dropped
    enforce_disjoint = "disjoint" not in dropped

    flags = {"enforce_reduced": enforce_reduced, "enforce_disjoint": enforce_disjoint}

    def checks(A):
        asked = mask_of(j for j, S in enumerate(mcs) if ctx.s_z0(A, S, **flags).holds)

        def fail(_, j):
            return _failure(ctx.s_r(A, mcs[j], enforce_disjoint=enforce_disjoint), R, mcs=mcs[j].label())

        return _row_checks([(asked, ctx.rows(A, enforce_disjoint)[1])], fail)

    met = reduced or not enforce_reduced
    hypotheses = {"reduced": reduced}
    return _sweeps(ctx.proper_ideals(), "ideal", "implications_checked", checks, hypotheses, met)


def run_t2_11(ctx, dropped):
    """Minimal primes over an S-r ideal are S-r when disjoint from S."""
    mcs = ctx.mcs_list()
    enforce = "disjoint" not in dropped

    def checks(A):
        held, mins = ctx.rows(A)[1], min_primes_over(A)
        rows = [(held & gates, lifted) for gates, lifted in (ctx.rows(L, enforce) for L in mins)]

        def fail(r, j):
            vL = ctx.s_r(mins[r], mcs[j], enforce_disjoint=enforce)
            return _failure(vL, ctx.ring, mcs=mcs[j].label(), min_prime=mins[r].label())

        return _row_checks(rows, fail, group=None)

    return _sweeps(ctx.proper_ideals(), "ideal", "lifts_checked", checks)


def run_t2_12(ctx, dropped):
    """For prime disjoint A: S-r iff A consists of zero divisors."""
    R = ctx.ring
    mcs = ctx.mcs_list()
    need_prime = "prime" not in dropped
    enforce_disjoint = "disjoint" not in dropped

    def checks(A):
        # a proper ideal's verdict is NotApplicable only where it meets S and that is enforced
        gates, held = ctx.rows(A, enforce_disjoint)
        in_zd = not A.mask & ideal_lattice(R).regulars

        def fail(_, j):
            v = ctx.s_r(A, mcs[j], enforce_disjoint=enforce_disjoint)
            return _failure(v, R, mcs=mcs[j].label(), s_r=v.holds, inside_zd=in_zd)

        return _row_checks([(gates, held if in_zd else ~held)], fail)

    for A in ctx.proper_ideals():
        prime = is_prime(A)
        outcome, detail = _counted("equivalences_checked", *checks(A)) if prime or not need_prime else (VACUOUS, None)
        yield Finding(outcome, {"ideal": A.label()}, {"prime": prime}, detail)


def run_c_zd(ctx, dropped):
    """S-r ideals consist of zero divisors."""
    mcs = ctx.mcs_list()

    def checks(A):
        held = ctx.rows(A)[1]
        in_zd = not A.mask & ideal_lattice(ctx.ring).regulars
        return _row_checks([(held, held if in_zd else 0)], lambda _, j: {"mcs": mcs[j].label()})

    return _sweeps(ctx.proper_ideals(), "ideal", "checked", checks)


def run_p_jac(ctx, dropped):
    """Inside the Jacobson radical: r-ideal iff (H minus M)-r for every maximal M."""
    R = ctx.ring
    maxes = max_ideals(R)
    if not maxes:
        yield Finding(VACUOUS, detail={"reason": "no maximal ideals"})
        return
    jac = jacobson_radical(R)
    need_jac = "in_jacobson" not in dropped
    complements = [mcs_from_members(R, bits(ideal_lattice(R).full & ~M.mask)) for M in maxes]
    for A in ctx.proper_ideals():
        inside = not A.mask & ~jac.mask
        if need_jac and not inside:
            continue
        lhs = ctx.r_verdict(A).holds
        rhs = all(ctx.s_r(A, S).holds for S in complements)
        yield Finding(
            VERIFIED if lhs == rhs else VIOLATION,
            {"ideal": A.label()},
            {"inside_jacobson": inside},
            {"r_ideal": lhs, "all_complements": rhs, "maximal_count": len(maxes)},
        )


def run_p_colon(ctx, dropped):
    """Colon ideals of an S-r ideal stay S-r; annihilators are always S-r."""
    R = ctx.ring
    L = ideal_lattice(R)
    mcs = ctx.mcs_list()
    enforce = "disjoint" not in dropped
    singles = list(R.elements())
    if R.size > 16:
        singles = singles[:: R.size // 16]
    # K runs over the sampled singletons and every ideal, each by the mask of its generators:
    # K lies in A iff they do, and (A : K) is the meet over them; Ann(K) does not depend on A
    k_families = [(f"{{{R.labels[x]}}}", 1 << x, annihilator(R, (x,))) for x in singles]
    k_families += [(B.label(), mask_of(B.generators), annihilator(R, B.sorted_members)) for B in ctx.ideals()]

    def checks(A):
        held = ctx.rows(A)[1]
        derived = [
            (k_label, kind, d)
            for k_label, ks, ann in (k_families if held else ())
            if ks & ~A.mask
            for kind, d in (("colon", L.colon(A, ks)), ("annihilator", ann))
        ]
        rows = [(held & gates, d_held) for gates, d_held in (ctx.rows(d, enforce) for _, _, d in derived)]

        def fail(r, j):
            k_label, kind, d = derived[r]
            return _failure(ctx.s_r(d, mcs[j], enforce_disjoint=enforce), R, mcs=mcs[j].label(), K=k_label, kind=kind)

        return _row_checks(rows, fail, group=None)

    return _sweeps(ctx.proper_ideals(), "ideal", "derived_checked", checks)


def run_p_annsum(ctx, dropped):
    """If K1 + K2 = Rt with t in S then Ann(K1) + Ann(K2) is S-r when disjoint."""
    R = ctx.ring
    L = ideal_lattice(R)
    mcs = ctx.mcs_list()
    enforce = "disjoint" not in dropped
    generated_by = {}  # principal ideal mask -> the mask of the elements generating it
    for t, mask in enumerate(L.principal):
        generated_by[mask] = generated_by.get(mask, 0) | 1 << t
    pairs = [(K, annihilator(R, K.generators)) for K in ctx.ideals()]
    sums = []  # (K1, K2, the t with K1 + K2 = Rt, Ann(K1) + Ann(K2))
    for i, (K1, ann1) in enumerate(pairs):
        for K2, ann2 in pairs[i:]:
            ts = generated_by.get(L.join(K1, K2).mask)
            if ts:
                sums.append((K1, K2, ts, L.join(ann1, ann2)))

    meeting = {}  # ts -> the positions j where S_j meets ts
    asked, failed = [], []  # per sum, the positions j where it is checked, and where it is not S_j-r then
    for _, _, ts, K in sums:
        if ts not in meeting:
            meeting[ts] = mask_of(j for j, S in enumerate(mcs) if ts & S.mask)
        gates, held = ctx.rows(K, enforce)
        asked.append(meeting[ts] & gates)
        failed.append(asked[-1] & ~held)
    asked, failed = transpose(asked, len(mcs)), transpose(failed, len(mcs))  # per S_j, bit r for the r-th sum
    at = {S.mask: j for j, S in enumerate(mcs)}

    def checks(S):
        def fail(_, r):
            K1, K2, _, K = sums[r]
            return _failure(ctx.s_r(K, S, enforce_disjoint=enforce), R, K1=K1.label(), K2=K2.label())

        return _row_checks([(asked[at[S.mask]], ~failed[at[S.mask]])], fail)

    return _sweeps(mcs, "mcs", "sums_checked", checks)


def run_p_minidem(ctx, dropped):
    """P + Ann(se) is S-r for minimal primes P and idempotents e (reduced rings)."""
    R = ctx.ring
    reduced = R.is_reduced()
    enforce_reduced = "reduced" not in dropped
    enforce_disjoint = "disjoint" not in dropped
    zero = ideal_generate(R, ())
    mins = min_primes_over(zero) if zero.is_proper() else ()
    idems = R.idempotents()
    mcs = ctx.mcs_list()
    bit_of = {S.mask: 1 << j for j, S in enumerate(mcs)}
    cells = {}  # (P.mask, se) -> (P + Ann(se), the positions j where it is checked, those where it is S_j-r)

    def cell(P, se):
        got = cells.get((P.mask, se))
        if got is None:
            A = ideal_sum(P, annihilator(R, (se,)))
            got = cells[(P.mask, se)] = A, *ctx.rows(A, enforce_disjoint)
        return got

    def checks(S):
        bit, members = bit_of[S.mask], S.sorted_members
        where = {}  # se -> the positions p of the loop's (e, s) with that product
        for p, se in enumerate(b"".join(bytes(members).translate(pad(R.mul[e])) for e in idems)):
            where[se] = where.get(se, 0) | 1 << p
        rows = []  # per minimal prime P, bit p for the p-th (e, s)
        for P in mins:
            asked = held = 0
            for se, at in where.items():
                _, on, ok = cell(P, se)
                if on & bit:
                    asked |= at
                if ok & bit:
                    held |= at
            rows.append((asked, held))

        def fail(r, p):
            P, e, s = mins[r], idems[p // len(members)], members[p % len(members)]
            v = ctx.s_r(cell(P, R.mul[e][s])[0], S, enforce_disjoint=enforce_disjoint)
            return _failure(v, R, min_prime=P.label(), idempotent=R.labels[e], s=R.labels[s])

        return _row_checks(rows, fail)

    met = reduced or not enforce_reduced
    return _sweeps(mcs, "mcs", "ideals_checked", checks, {"reduced": reduced}, met)


def run_p_sidem(ctx, dropped):
    """Ideals spanned by elements with a^2 = sa (s the product of S) are S-r.

    T is the elements that pass that gate, so each span goes straight to its verdict.
    The spans depend on S only through s, and are built once per s.
    """
    R = ctx.ring
    bit_of = {S.mask: 1 << j for j, S in enumerate(ctx.mcs_list())}
    spans_at = {}  # s -> the (label, span) pairs of the elements a with a^2 = sa

    def checks(S):
        bit, s = bit_of[S.mask], S.product()
        spans = spans_at.get(s)
        if spans is None:
            T = tuple(a for a, row in enumerate(R.mul) if row[a] == R.mul[s][a])
            spans = spans_at[s] = [(f"[{R.labels[a]}]", ideal_generate(R, (a,))) for a in T]
            if len(T) > 1:
                spans.append(("[all]", ideal_generate(R, T)))
        asked = held = 0  # bit i for the i-th span; the verdict of any other is NotApplicable
        for i, (_, A) in enumerate(spans):
            gates, ok = ctx.rows(A)
            if gates & bit:
                asked |= 1 << i
                if ok & bit:
                    held |= 1 << i
        return _row_checks([(asked, held)], lambda _, i: _failure(ctx.s_r(spans[i][1], S), R, generators=spans[i][0]))

    return _sweeps(ctx.mcs_list(), "mcs", "ideals_checked", checks)


def run_p_suz(ctx, dropped):
    """All disjoint ideals S-r  <=>  the ring is an S-uz-ring."""
    mcs = ctx.mcs_list()
    ideals = ctx.proper_ideals()
    rows = [ctx.rows(A) for A in ideals]
    failed = transpose([gates & ~held for gates, held in rows], len(mcs))
    asked = transpose([gates for gates, _ in rows], len(mcs))  # per S_j, bit r for the r-th proper ideal
    for j, S in enumerate(mcs):
        checks = _row_checks([(asked[j], ~failed[j])], lambda _, r: {"failing_ideal": ideals[r].label()})
        outcome, detail = _counted("ideals_evaluated", *checks)
        lhs = outcome != VIOLATION
        rhs = cl.is_S_uz_ring(ctx.ring, S).holds
        detail.update(detail.pop("failure", {}), all_disjoint_ideals_s_r=lhs, s_uz_ring=rhs)
        yield Finding(VERIFIED if lhs == rhs else VIOLATION, {"mcs": S.label()}, detail=detail)


def run_p_suzmax(ctx, dropped):
    """S-uz <=> every disjoint prime is S-r <=> every maximal ideal is S-r."""
    R = ctx.ring
    maxes = max_ideals(R)
    enforce = "max_disjoint" not in dropped
    for j, S in enumerate(ctx.mcs_list()):
        annotations = {"mcs": S.label()}
        hyp = all(not M.mask & S.mask for M in maxes)
        if enforce and not hyp:
            yield Finding(VACUOUS, annotations, {"maximal_disjoint": hyp})
            continue
        a_side = cl.is_S_uz_ring(R, S).holds
        b_side = all(
            held >> j & 1
            for gates, held in (ctx.rows(P, enforce) for P in prime_spectrum(R))
            if gates >> j & 1
        )
        c_side = all(ctx.rows(M, enforce)[1] >> j & 1 for M in maxes)
        yield Finding(
            VERIFIED if a_side == b_side == c_side else VIOLATION,
            annotations,
            {"maximal_disjoint": hyp},
            {"s_uz": a_side, "primes": b_side, "maximals": c_side},
        )


def run_l3_1(ctx, dropped):
    """Isomorphisms transport annihilators elementwise."""
    R = ctx.ring
    isos = [("identity", identity_hom(R))]
    if R.parts is not None:
        R1, R2 = R.parts
        swapped = make_product(R2, R1)
        image = tuple((i % R2.size) * R1.size + (i // R2.size) for i in range(R.size))
        isos.append(("swap", check_hom(RingHom(R, swapped, image))))
    if R.recipe.startswith("Z") and R.recipe[1:].isdigit():
        n = int(R.recipe[1:])
        for a in range(2, n):
            if n % a == 0 and gcd(a, n // a) == 1 and a < n // a:
                isos.append((f"crt({a},{n // a})", crt_hom(n, a, n // a)))
    for name, hom in isos:
        bad = ann_pushforward_check(hom)
        detail = {"elements_checked": R.size}
        if bad is not None:
            detail["failing_element"] = R.labels[bad]
        yield Finding(VERIFIED if bad is None else VIOLATION, {"isomorphism": name}, detail=detail)


def _base_pairs(R):
    """Section 3's (ideal, m.c.s.) pairs of a base ring: each proper ideal with each of
    the six smallest m.c.s."""
    mcs = _small_mcs(R, 6)
    return [(A, S) for A in all_ideals(R) if A.is_proper() for S in mcs]


def run_p3_2(ctx, dropped):
    """S-r transfer across amalgamations, both directions: FORWARD reads "base S-r implies
    extension S-r", BACKWARD the converse, so at most one of them fails on a pair, the one
    whose premise alone holds; if its hypotheses are met (or dropped), that is a VIOLATION,
    and the record names the direction."""
    am = ctx.structure
    if not isinstance(am, AmalgRing):
        return
    hypotheses = amalg_hypotheses(am)
    met = {d: all(v for k, v in dh.items() if k not in dropped) for d, dh in hypotheses.items()}
    hyps = {f"{d.lower()}_{k}": v for d, dh in hypotheses.items() for k, v in dh.items()}
    for A, S in _base_pairs(am.h1):
        if A.mask & S.mask:
            continue
        base, ext = amalg_transfer_check(am, A, S)
        failed = (FORWARD if base.holds else BACKWARD) if base.holds != ext.holds else None
        detail = {"directions": {d: {"hypotheses": dh, "met": met[d], "base": base.outcome, "extension": ext.outcome}
                                 for d, dh in hypotheses.items()}}
        if failed and met[failed]:
            outcome, detail["violated"] = VIOLATION, failed
        else:
            outcome = VERIFIED if any(met.values()) else VACUOUS
        yield Finding(outcome, {"ideal": A.label(), "mcs": S.label()}, hyps, detail)


def run_amalgz_p3_2(ctx, dropped):
    """P3.2 on the amalgZ family: FORWARD transfer of the zero ideal."""
    rep = amalgz_zero_transfer_check(ctx.az, ctx.s_desc, ctx.limits.oracle_bound)
    hyps = dict(rep.hypotheses)
    ok = (not rep.base_verdict.holds) or (rep.ext_holds and rep.window_confirms)
    outcome = VACUOUS if not all(hyps.values()) else (VERIFIED if ok else VIOLATION)
    yield Finding(
        outcome,
        {"ideal": "(0)", "mcs": ctx.mcs_text},
        hyps,
        {
            "direction": "FORWARD",
            "base": rep.base_verdict.outcome,
            "extension_holds": rep.ext_holds,
            "window_pairs_checked": rep.window_pairs_checked,
            "window_confirms": rep.window_confirms,
        },
    )


def run_p3_3(ctx, dropped):
    """Trivial-extension equivalence of the three S-r statements.  The module facts are
    enforced unless dropped (`zd_union` drops `zd_union_in_ann`); the literal zd-union
    reading is reported, never enforced."""
    T = ctx.structure
    if not isinstance(T, TrivExtRing):
        return
    facts = triv_module_facts(T)
    facts_met = (facts["torsion_free"] or "torsion_free" in dropped) and (facts["zd_union_in_ann"] or "zd_union" in dropped)
    for A, S in _base_pairs(T.base):
        hyps = {"disjoint": not A.mask & S.mask, **facts}
        pattern = triv_equivalence_check(T, A, S)
        met = facts_met and (hyps["disjoint"] or "disjoint" in dropped)
        outcome = VACUOUS if not met else (VERIFIED if len(set(pattern)) == 1 else VIOLATION)
        text = "".join("1" if b else "0" for b in pattern)
        yield Finding(outcome, {"ideal": A.label(), "mcs": S.label()}, hyps, {"pattern": text})


# -- arithmetic-lane runners -----------------------------------------------------------------


def run_arith_t2_12(ctx, dropped):
    A, v = ctx.ideal, ctx.verdict
    prime = A.is_proper() and ar.arith_is_prime(A)
    disjoint = not v.not_applicable
    if not disjoint and "disjoint" in dropped:  # decided without the gate, as on the finite lane
        v = ar.arith_is_S_r_ideal(A, ctx.mcs, enforce_disjoint=False)
    if "prime" not in dropped and not prime:
        yield Finding(VACUOUS, ctx.annotations, {"prime": prime})
    elif not disjoint and "disjoint" not in dropped:
        yield Finding(VACUOUS, ctx.annotations, {"prime": prime, "disjoint": False})
    else:
        yield Finding(
            VERIFIED if v.holds == ctx.in_zd else VIOLATION, ctx.annotations,
            {"prime": prime, "disjoint": disjoint},
            {"s_r": v.holds, "inside_zd": ctx.in_zd, "oracle_bound": ctx.limits.oracle_bound},
        )


def run_arith_c_zd(ctx, dropped):
    if not ctx.verdict.holds:
        yield Finding(VACUOUS, ctx.annotations)
    else:
        detail = {"witness": list(ctx.verdict.witness)}
        yield Finding(VERIFIED if ctx.in_zd else VIOLATION, ctx.annotations, detail=detail)


def run_arith_p_zero(ctx, dropped):
    zero = ar.zero_ideal(ctx.ring)
    annotations = {**ctx.annotations, "ideal": "(0)"}
    enforce = "disjoint" not in dropped
    v = ar.arith_is_S_r_ideal(zero, ctx.mcs, enforce)
    if v.not_applicable:
        yield Finding(VACUOUS, annotations)
        return
    oracle = ar.arith_oracle_check(zero, ctx.mcs, ctx.limits.oracle_bound, enforce)
    yield Finding(
        VERIFIED if v.holds and oracle else VIOLATION, annotations,
        detail={"witness": list(v.witness) if v.witness else None, "oracle": oracle},
    )


def run_p2_6(ctx, dropped):
    """Failing S-r inside zd produces the two-ideal factorization."""
    A, v = ctx.ideal, ctx.verdict
    if not (ctx.in_zd and v.fails):
        yield Finding(VACUOUS, ctx.annotations, {"inside_zd": ctx.in_zd, "s_r_fails": v.fails})
        return
    s = v.last_candidate
    w, z = v.counterexample
    B = ar.arith_colon_element(A, ctx.ring.mul(s, z))
    K = ar.arith_colon_ideal(A, B)
    conds = {
        "B_meets_regulars": ar.arith_meets_regulars(B),
        "A_strictly_in_B": ar.arith_contains(B, A) and B.descs != A.descs,
        "A_strictly_in_K": ar.arith_contains(K, A) and K.descs != A.descs,
        "BK_in_A": ar.arith_contains(A, ar.arith_product(B, K)),
    }
    yield Finding(
        VERIFIED if all(conds.values()) else VIOLATION, ctx.annotations,
        {"inside_zd": True, "s_r_fails": True},
        {"s": list(s), "pair": [list(w), list(z)], "B": B.label(), "K": K.label(), **conds},
    )


def run_arith_r_oracle(ctx, dropped):
    """Window confirmation of the closed-form r/S-r verdicts (oracle agreement)."""
    A, S = ctx.ideal, ctx.mcs
    bound = max(ctx.limits.oracle_bound, ar.window_floor(A))
    ok_r = ar.arith_oracle_check(A, None, bound, True)
    ok_s = ar.arith_oracle_check(A, S, bound, True)
    yield Finding(
        VERIFIED if (ok_r and ok_s) else VIOLATION, ctx.annotations,
        detail={"r_confirmed": ok_r, "s_r_confirmed": ok_s, "bound": bound},
    )


# -- polynomial-lane runners ------------------------------------------------------------------


def run_t4_1(ctx, dropped):
    """Zero-divisor-annihilator gate for content ideals, S inside regulars; over a
    finite base the gate always holds and the search never returns NO (`classify`)."""
    R = ctx.ring
    gate = cl.has_property_A(R)
    need_reg = "s_regular" not in dropped
    D = ctx.search_degree()
    for A in ctx.proper_ideals():
        for S in ctx.poly_mcs_list():
            s_regular = not S.mask & ~ideal_lattice(R).regulars
            if (need_reg and not s_regular) or A.mask & S.mask:
                continue
            base = ctx.s_r(A, S)
            search = bounded_S_r_search(PolyIdealSpec.content(A), S, D)
            coherent = base.holds and search.outcome == NO_VIOLATION_UP_TO
            yield Finding(
                VERIFIED if coherent else VIOLATION,
                {"ideal": A.label(), "mcs": S.label(), "degree": D},
                {"property_a": gate.holds, "s_regular": s_regular},
                {"base": base.outcome, "search": search.outcome},
            )


def run_t4_2(ctx, dropped):
    """Finite-annihilator-condition gate for content ideals, any S."""
    R = ctx.ring
    cap = ctx.limits.fac_cap
    gate = cl.has_fac(R, cap)
    D = ctx.search_degree()
    for A in ctx.proper_ideals():
        for S in ctx.poly_mcs_list():
            if A.mask & S.mask:
                continue
            verdict = decide_content_S_r(A, S, D, cap)
            base = ctx.s_r(A, S)
            detail = {"decided": verdict.outcome, "gate": verdict.gate}
            if not gate.holds:
                outcome = VACUOUS
            else:
                outcome = VERIFIED if base.holds and verdict.outcome == YES_BY_THEOREM else VIOLATION
                detail["base"] = base.outcome
            annotations = {"ideal": A.label(), "mcs": S.label(), "degree": D}
            yield Finding(outcome, annotations, {"fac": gate.holds, "fac_cap": cap}, detail)


def run_dm(ctx, dropped):
    """Content-product identity over seeded random pairs; VACUOUS when none is drawn."""
    checked, failure = dedekind_mertens_sweep(ctx.ring, ctx.limits.dm_pairs, ctx.limits.dm_seed)
    detail = {"checked": checked}
    if failure:
        detail["failure"] = {"w": failure[0].text(), "z": failure[1].text()}
    yield Finding(
        VIOLATION if failure else (VERIFIED if checked else VACUOUS),
        {"pairs": ctx.limits.dm_pairs, "seed": ctx.limits.dm_seed},
        detail=detail,
    )


# -- registry table ----------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremCase:
    id: str
    title: str
    scopes: tuple
    hypotheses: tuple
    runner: object
    arith_runner: object = None

    def __post_init__(self):
        for kind in self.scopes:
            field = LANES[kind][1]
            if getattr(self, field) is None:
                raise ValueError(f"{self.id} is in scope on the {kind} lane but has no {field}")


CASES = {
    c.id: c
    for c in (
        TheoremCase("T2.3", "transfer of the S-r property along nested m.c.s.", (FINITE,), ("disjoint",), run_t2_3),
        TheoremCase("T2.5", "r-ideal localization pulls back to S-r for finite regular S", (FINITE,), ("s_regular",), run_t2_5),
        TheoremCase("P2.6", "non-S-r ideals inside zd factor through an ideal pair", (ARITH,), (), None, run_p2_6),
        TheoremCase("T2.7", "four characterizations of S-r at S = reg", (FINITE,), ("disjoint",), run_t2_7),
        TheoremCase("P2.8", "colon stability under powers of the witness", (FINITE,), ("s_regular",), run_p2_8),
        TheoremCase("P2.10", "S-z0 ideals of reduced rings are S-r", (FINITE,), ("reduced", "disjoint"), run_p2_10),
        TheoremCase("T2.11", "minimal primes over an S-r ideal are S-r", (FINITE,), ("disjoint",), run_t2_11),
        TheoremCase("T2.12", "prime disjoint ideals: S-r iff inside zd", (FINITE, ARITH), ("prime", "disjoint"), run_t2_12, run_arith_t2_12),
        TheoremCase("C-zd", "S-r ideals consist of zero divisors", (FINITE, ARITH), (), run_c_zd, run_arith_c_zd),
        TheoremCase("P-jac", "inside J(H): r-ideal iff complement-of-maximal S-r everywhere", (FINITE,), ("in_jacobson",), run_p_jac),
        TheoremCase("P-zero", "the zero ideal is always S-r", (FINITE, ARITH), ("disjoint",), run_p_zero, run_arith_p_zero),
        TheoremCase("P-colon", "colon ideals and annihilators inherit S-r", (FINITE,), ("disjoint",), run_p_colon),
        TheoremCase("P-annsum", "annihilator sums over principal covers are S-r", (FINITE,), ("disjoint",), run_p_annsum),
        TheoremCase("P-minidem", "minimal prime plus idempotent annihilator is S-r", (FINITE,), ("reduced", "disjoint"), run_p_minidem),
        TheoremCase("P-sidem", "scaled-idempotent spans are S-r", (FINITE,), (), run_p_sidem),
        TheoremCase("P-suz", "all disjoint ideals S-r iff S-uz-ring", (FINITE,), (), run_p_suz),
        TheoremCase("P-suzmax", "S-uz iff disjoint primes S-r iff maximals S-r", (FINITE,), ("max_disjoint",), run_p_suzmax),
        TheoremCase("L3.1", "isomorphisms transport annihilators", (FINITE,), (), run_l3_1),
        TheoremCase("P3.2", "S-r transfer across amalgamations", (FINITE, AMALGZ), ("epimorphism", "h1_domain", "j_in_zd", "isomorphism"), run_p3_2, run_amalgz_p3_2),
        TheoremCase("P3.3", "trivial-extension three-way equivalence", (FINITE,), ("torsion_free", "zd_union", "disjoint"), run_p3_3),
        TheoremCase("T4.1", "content ideals: gate via zero-divisor annihilators", (POLY,), ("s_regular",), run_t4_1),
        TheoremCase("T4.2", "content ideals: gate via the finite annihilator condition", (POLY,), (), run_t4_2),
        TheoremCase("DM", "content-product identity on seeded pairs", (POLY,), (), run_dm),
        TheoremCase("DEGEN", "finite rings: uz + every proper ideal is r", (FINITE,), (), run_degen),
        TheoremCase("ARITH-oracle", "window oracle confirms the closed forms", (ARITH,), (), None, run_arith_r_oracle),
    )
}

DEFAULT_IDS = tuple(CASES)


def _run_entry(entry, ids, dropped, limits):
    ctx = build_context(entry, limits)
    field = LANES[ctx.kind][1]
    records = []
    for tid in ids:
        case = CASES[tid]
        if ctx.kind not in case.scopes:
            continue
        for finding in getattr(case, field)(ctx, dropped):
            records.append(_record(tid, ctx, dropped, finding))
    return records


def _worker(args):
    index, entry, ids, dropped_t, limits = args
    return index, _run_entry(entry, ids, frozenset(dropped_t), limits)


def verify(ids, corpus: CorpusSpec, jobs: int = 1, dropped=frozenset()):
    """Run the registry over the corpus; returns its records in corpus order.

    Unknown or repeated ids and unknown hypotheses raise here, before any entry
    runs.  A record holds no run time, so the report is byte-identical across
    reruns and worker counts; the caller times the run.
    """
    ids = tuple(ids) if ids else DEFAULT_IDS
    dropped = frozenset(dropped)
    repeated = [tid for i, tid in enumerate(ids) if tid in ids[:i]]
    if repeated:
        raise ConfigError(f"theorem id {repeated[0]!r} given more than once")
    for tid in ids:
        if tid not in CASES:
            raise UnknownTheorem(f"unknown theorem id {tid!r}")
        for h in dropped:
            if h not in CASES[tid].hypotheses:
                raise UnknownHypothesis(f"{tid} has no hypothesis {h!r}")
    tasks = [
        (i, entry, ids, tuple(sorted(dropped)), corpus.limits)
        for i, entry in enumerate(corpus.entries)
    ]
    if jobs > 1:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            batches = [records for _, records in pool.map(_worker, tasks, chunksize=1)]
    else:
        batches = [
            _run_entry(entry, ids, dropped, corpus.limits)
            for entry in corpus.entries
        ]
    return [rec for batch in batches for rec in batch]


def counterexample_search(theorem_id: str, corpus: CorpusSpec, drop, jobs: int = 1):
    """Re-run one statement with named hypotheses not enforced.

    Violations found here are expected findings, marked ``expected``: they
    demonstrate that the dropped hypothesis was load-bearing.  Unknown ids
    and hypotheses raise in `verify`, before any entry runs.
    """
    records = verify((theorem_id,), corpus, jobs=jobs, dropped=drop)
    return [{**rec, "expected": True} if rec["outcome"] == VIOLATION else rec for rec in records]
