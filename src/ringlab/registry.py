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
Most runners state only their checks and return `_sweeps`: a finding per ideal
or m.c.s., whose checks `_sweep` counts up to the first failure.  A failed check
yields `_failure`'s dict, built with its labels only when the check fails:
building them on every check made the finite corpus 14% slower.

Verdict rows: a finite context asks each (ideal, catalogue m.c.s., flags) S-r
question once, through `s_r`, and keeps the answers as one int per ideal and
flags, bit j for the j-th m.c.s. (`s_r_row`), beside the bits of the m.c.s.
the ideal misses (`disjoint_row`).  The runners that read an S-r verdict at a
catalogue m.c.s. follow one rule, bulk count and ordered re-walk on failure
(`_bulk`): an instance's checks are counted by popcounts over the rows, and
only when an asked bit is missing from its row does the runner walk its loop
through `s_r` in order, so the count stops at the first failure and the
failure dict is the loop's own.  m.c.s. outside the catalogue (T2.7's S<reg>,
P-jac's complements) and records that carry a verdict (P-zero's, P2.8's
witness) ask `s_r` directly.
"""

from __future__ import annotations

import random
import time
from collections import Counter, namedtuple
from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd

import numpy as np

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
from .errors import ConfigError, NotApplicableError, ParseError, UnknownHypothesis, UnknownTheorem
from .extensions import (
    BACKWARD,
    FORWARD,
    AmalgOverZ,
    AmalgRing,
    TrivExtRing,
    amalg_transfer_check,
    amalgz_zero_transfer_check,
    triv_equivalence_check,
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
    min_primes_over,
    spec as prime_spectrum,
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
        self._rows = {}  # (A.mask, flags) -> S-r row; (A.mask,) -> disjointness row

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

    def s_r(self, A, S, enforce_proper=True, enforce_disjoint=True):
        return cl.is_S_r_ideal(A, S, enforce_proper, enforce_disjoint)

    def s_r_row(self, A, enforce_proper=True, enforce_disjoint=True) -> int:
        """Bit j set iff ``self.s_r(A, self.mcs_list()[j], ...)`` holds: each (ideal,
        m.c.s., flags) question is asked once per entry, through `s_r`."""
        key = (A.mask, enforce_proper, enforce_disjoint)
        row = self._rows.get(key)
        if row is None:
            flags = {"enforce_proper": enforce_proper, "enforce_disjoint": enforce_disjoint}
            row = self._rows[key] = mask_of(j for j, S in enumerate(self.mcs_list()) if self.s_r(A, S, **flags).holds)
        return row

    def disjoint_row(self, A, enforce_disjoint=True) -> int:
        """Bit j set iff A misses ``self.mcs_list()[j]``; every bit when that is not enforced."""
        if not enforce_disjoint:
            return (1 << len(self.mcs_list())) - 1
        row = self._rows.get((A.mask,))
        if row is None:
            row = self._rows[(A.mask,)] = mask_of(j for j, S in enumerate(self.mcs_list()) if not A.mask & S.mask)
        return row

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

    def __init__(self, entry: CorpusEntry, limits: Limits):
        super().__init__(replace(entry, expr=entry.expr[len("polyring(") : -1]), limits)
        self.entry = entry

    def poly_mcs_list(self):
        """Constant m.c.s. candidates: trivial, units, and unit-generated."""
        if self._pinned_mcs is not None:
            return (self._pinned_mcs,)
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
        self.s_desc = parse_arith_mcs(parse_arith_ring("Z"), entry.mcs_text or "(units)").descs[0]


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


def _sweep(key, checks, met=True):
    """Run per-instance checks up to the first failure.

    Each check yields None (it passed), a failure dict, or an int: that many
    checks passed at once.  Returns the outcome (VIOLATION at a failure,
    VACUOUS when the hypothesis is not ``met`` or nothing was checked,
    VERIFIED otherwise) and a detail payload counting the checks under `key`,
    with the failure, if any, under "failure"; an unmet hypothesis runs no
    check and has no payload.
    """
    if not met:
        return VACUOUS, None
    checked = 0
    for failure in checks:
        if isinstance(failure, int):
            checked += failure
            continue
        checked += 1
        if failure is not None:
            return VIOLATION, {key: checked, "failure": failure}
    return (VERIFIED if checked else VACUOUS), {key: checked}


def _sweeps(items, label, key, checks, hypotheses=None, met=True):
    """One finding per ideal or m.c.s. X of ``items``: `_sweep` over ``checks(X)``,
    annotated ``{label: X.label()}`` and carrying ``hypotheses``."""
    for X in items:
        outcome, detail = _sweep(key, checks(X), met)
        yield Finding(outcome, {label: X.label()}, hypotheses, detail)


def _failure(v, ring, **where):
    """A failed check's dict: where it failed, then the verdict `_record` takes the witness from."""
    return {**where, "verdict": v.to_json(ring)}


def _bulk(bulk, walk):
    """The checks of X from the verdict rows: ``bulk(X)`` of them passed at once, or,
    when that is None (an asked bit is missing from its row), ``walk(X)``, the
    runner's ordered loop through ``ctx.s_r``, which stops at the first failure."""

    def checks(X):
        passed = bulk(X)
        yield from walk(X) if passed is None else (passed,)

    return checks


def _columns(asked, missing, mcs):
    """Per m.c.s. mask of the catalogue ``mcs``: how many rows of ``asked`` have its bit,
    or None where ``missing`` has it (an asked verdict there did not hold)."""
    counts = [0] * len(mcs)
    for row, n in Counter(asked).items():
        for j in bits(row):
            counts[j] += n
    return {S.mask: None if missing >> j & 1 else counts[j] for j, S in enumerate(mcs)}


def _distinct(candidates):
    """The first m.c.s. given per member set, ordered by (size, members)."""
    first = {}
    for S in candidates:
        first.setdefault(S.mask, S)
    return sorted(first.values(), key=lambda S: (S.mask.bit_count(), S.sorted_members))


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

    def checks():
        for A in ctx.proper_ideals():
            v = ctx.r_verdict(A)
            ok = v.holds and not annihilator(R, A.generators).is_zero()
            yield None if ok else _failure(v, R, failing_ideal=A.label())

    outcome, detail = _sweep("proper_ideals_checked", checks())
    detail.update(detail.pop("failure", {}), uz=uz.to_json(R))
    ok = uz.holds and regular_is_unit and outcome != VIOLATION
    yield Finding(VERIFIED if ok else VIOLATION, detail=detail)


def run_p_zero(ctx, dropped):
    zero = ideal_generate(ctx.ring, ())
    enforce = "disjoint" not in dropped
    for S in ctx.mcs_list():
        v = ctx.s_r(zero, S, enforce_proper=enforce, enforce_disjoint=enforce)
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
    principal = ideal_lattice(R).principal
    meets = {S.mask: mask_of(s for s, p in enumerate(principal) if p & S.mask) for S in mcs}
    inclusions = [
        (i, k, not S2.mask & ~meets[S1.mask])
        for i, S1 in enumerate(mcs)
        for k, S2 in enumerate(mcs)
        if S1.mask != S2.mask and not S1.mask & ~S2.mask
    ]
    above, below = [0] * len(mcs), [0] * len(mcs)  # supersets of S_i; subsets of S_k with the converse
    for i, k, converse in inclusions:
        above[i] |= 1 << k
        below[k] |= converse << i
    enforce = "disjoint" not in dropped

    def bulk(A):
        held = ctx.s_r_row(A)
        lifted = ctx.s_r_row(A, enforce_disjoint=enforce)
        free, passed = ctx.disjoint_row(A, enforce), 0
        for j in bits(held):
            forward, back = above[j] & free, below[j]
            if forward & ~lifted or back & ~held:
                return None
            passed += forward.bit_count() + back.bit_count()
        return passed

    def walk(A):
        for i, k, converse in inclusions:
            S1, S2 = mcs[i], mcs[k]
            if ctx.s_r(A, S1).holds and (not S2.mask & A.mask or not enforce):
                v = ctx.s_r(A, S2, enforce_disjoint=enforce)
                yield None if v.holds else _failure(v, R, direction="forward", mcs1=S1.label(), mcs2=S2.label())
            if converse and ctx.s_r(A, S2).holds:
                v = ctx.s_r(A, S1)
                yield None if v.holds else _failure(v, R, direction="converse", mcs1=S1.label(), mcs2=S2.label())

    return _sweeps(ctx.proper_ideals(), "ideal", "implications_checked", _bulk(bulk, walk))


def run_t2_5(ctx, dropped):
    """r-ideal pushforward to the localization pulls back to S-r."""
    R = ctx.ring
    need_reg = "s_regular" not in dropped
    localized = [
        (j, S, localize(R, S))
        for j, S in enumerate(ctx.mcs_list())
        if not need_reg or not S.mask & ~ideal_lattice(R).regulars
    ]

    def pushed_r(A, loc):
        # at e = 1 the natural map is an isomorphism onto the copy of R
        at_one = loc.absorbing_idempotent == R.one
        return (ctx.r_verdict(A) if at_one else cl.is_r_ideal(ideal_pushforward(loc, A))).holds

    def bulk(A):
        asked = mask_of(j for j, _, loc in localized if pushed_r(A, loc))
        return None if asked & ~ctx.s_r_row(A) else asked.bit_count()

    def walk(A):
        for _, S, loc in localized:
            if pushed_r(A, loc):
                v = ctx.s_r(A, S)
                yield None if v.holds else _failure(v, R, mcs=S.label())

    hypotheses = {"s_regular_candidates": bool(localized)}
    return _sweeps(ctx.proper_ideals(), "ideal", "implications_checked", _bulk(bulk, walk), hypotheses)


def _t2_7_sides(A, regs, pre: int) -> dict:
    """The scaled sides of T2.7 over the elements ``regs``, with ``pre`` a mask.

    s.X lies in B iff X lies in (B : s), and rA is the ideal (Rr)A, so each
    side is a test of mask inclusion between colon rows: for some s in regs,
    (Rr meet A) in (rA : s) and (A : r) in (A : s) for every r in regs, and
    pre in (A : s).
    """
    L = ideal_lattice(A.ring)
    rows = L.colon_rows(A)
    scaled = [(L.principal[r] & A.mask, L.colon_rows(L.product(L.intern(L.principal[r]), A))) for r in regs]
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
    for A in ctx.ideals():
        if enforce and (not A.is_proper() or A.mask & S.mask):
            continue
        sides = {
            "s_r": ctx.s_r(A, S, enforce_proper=enforce, enforce_disjoint=enforce).holds,
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
        for j in bits(ctx.s_r_row(A) & candidates):
            s = ctx.s_r(A, mcs[j]).witness
            yield None if stable(A, s) else {"mcs": mcs[j].label(), "witness": R.labels[s]}

    return _sweeps(ctx.proper_ideals(), "ideal", "witnesses_checked", checks)


def run_p2_10(ctx, dropped):
    """S-z0 implies S-r over reduced rings."""
    R = ctx.ring
    reduced = R.is_reduced()
    enforce_reduced = "reduced" not in dropped
    enforce_disjoint = "disjoint" not in dropped

    def s_z0(A, S):
        return ctx.s_z0(A, S, enforce_reduced=enforce_reduced, enforce_disjoint=enforce_disjoint).holds

    def bulk(A):
        asked = mask_of(j for j, S in enumerate(ctx.mcs_list()) if s_z0(A, S))
        return None if asked & ~ctx.s_r_row(A, enforce_disjoint=enforce_disjoint) else asked.bit_count()

    def walk(A):
        for S in ctx.mcs_list():
            if s_z0(A, S):
                v = ctx.s_r(A, S, enforce_disjoint=enforce_disjoint)
                yield None if v.holds else _failure(v, R, mcs=S.label())

    met = reduced or not enforce_reduced
    hypotheses = {"reduced": reduced}
    return _sweeps(ctx.proper_ideals(), "ideal", "implications_checked", _bulk(bulk, walk), hypotheses, met)


def run_t2_11(ctx, dropped):
    """Minimal primes over an S-r ideal are S-r when disjoint from S."""
    enforce = "disjoint" not in dropped

    def bulk(A):
        held, passed = ctx.s_r_row(A), 0
        for L in min_primes_over(A):
            asked = held & ctx.disjoint_row(L, enforce)
            if asked & ~ctx.s_r_row(L, enforce_disjoint=enforce):
                return None
            passed += asked.bit_count()
        return passed

    def walk(A):
        mins = min_primes_over(A)
        for S in ctx.mcs_list():
            if not ctx.s_r(A, S).holds:
                continue
            for L in mins:
                if enforce and L.mask & S.mask:
                    continue
                vL = ctx.s_r(L, S, enforce_disjoint=enforce)
                yield None if vL.holds else _failure(vL, ctx.ring, mcs=S.label(), min_prime=L.label())

    return _sweeps(ctx.proper_ideals(), "ideal", "lifts_checked", _bulk(bulk, walk))


def run_t2_12(ctx, dropped):
    """For prime disjoint A: S-r iff A consists of zero divisors."""
    R = ctx.ring
    need_prime = "prime" not in dropped
    enforce_disjoint = "disjoint" not in dropped

    def bulk(A):
        # a proper ideal's verdict is NotApplicable only where it meets S and that is enforced
        asked = ctx.disjoint_row(A, enforce_disjoint)
        held = ctx.s_r_row(A, enforce_disjoint=enforce_disjoint)
        in_zd = not A.mask & ideal_lattice(R).regulars
        return None if asked & (~held if in_zd else held) else asked.bit_count()

    def walk(A):
        in_zd = not A.mask & ideal_lattice(R).regulars
        for S in ctx.mcs_list():
            if enforce_disjoint and A.mask & S.mask:
                continue
            v = ctx.s_r(A, S, enforce_disjoint=enforce_disjoint)
            if not v.not_applicable:
                yield None if v.holds == in_zd else _failure(v, R, mcs=S.label(), s_r=v.holds, inside_zd=in_zd)

    checks = _bulk(bulk, walk)
    for A in ctx.proper_ideals():
        prime = is_prime(A)
        outcome, detail = _sweep("equivalences_checked", checks(A), met=prime or not need_prime)
        yield Finding(outcome, {"ideal": A.label()}, {"prime": prime}, detail)


def run_c_zd(ctx, dropped):
    """S-r ideals consist of zero divisors."""

    def bulk(A):
        held = ctx.s_r_row(A)
        return None if held and A.mask & ideal_lattice(ctx.ring).regulars else held.bit_count()

    def walk(A):
        for S in ctx.mcs_list():
            if ctx.s_r(A, S).holds:
                yield None if not A.mask & ideal_lattice(ctx.ring).regulars else {"mcs": S.label()}

    return _sweeps(ctx.proper_ideals(), "ideal", "checked", _bulk(bulk, walk))


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
    """Colon ideals of an S-r ideal stay S-r; annihilators are always S-r.

    The checks of A are counted once per distinct derived mask, from its rows.
    """
    R = ctx.ring
    L = ideal_lattice(R)
    enforce = "disjoint" not in dropped
    singles = list(R.elements())
    if R.size > 16:
        singles = singles[:: R.size // 16]
    # K runs over the sampled singletons and every ideal; Ann(K) does not depend on A
    k_families = [(f"{{{R.labels[x]}}}", 1 << x, annihilator(R, (x,))) for x in singles]
    k_families += [(B.label(), B.mask, annihilator(R, B.sorted_members)) for B in ctx.ideals()]

    def derived(A):
        return [
            (k_label, kind, d)
            for k_label, ks, ann in k_families
            if ks & ~A.mask
            for kind, d in (("colon", L.colon(A, ks)), ("annihilator", ann))
        ]

    def bulk(A):
        held, passed = ctx.s_r_row(A), 0
        if held:
            for mask, n in Counter(d.mask for _, _, d in derived(A)).items():
                d = L.intern(mask)
                asked = 0 if mask == L.full else held & ctx.disjoint_row(d, enforce)
                if asked & ~ctx.s_r_row(d, enforce_disjoint=enforce):
                    return None
                passed += n * asked.bit_count()
        return passed

    def walk(A):
        ds = derived(A)
        for S in ctx.mcs_list():
            if not ctx.s_r(A, S).holds:
                continue
            for k_label, kind, d in ds:
                if not ((enforce and d.mask & S.mask) or d.mask == L.full):
                    vd = ctx.s_r(d, S, enforce_disjoint=enforce)
                    yield None if vd.holds else _failure(vd, R, mcs=S.label(), K=k_label, kind=kind)

    return _sweeps(ctx.proper_ideals(), "ideal", "derived_checked", _bulk(bulk, walk))


def run_p_annsum(ctx, dropped):
    """If K1 + K2 = Rt with t in S then Ann(K1) + Ann(K2) is S-r when disjoint."""
    R = ctx.ring
    L = ideal_lattice(R)
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

    mcs = ctx.mcs_list()
    meeting = {}  # ts -> the positions j where S_j meets ts
    asked, missing = [], 0
    for _, _, ts, K in sums:
        if K.mask == L.full:
            continue
        if ts not in meeting:
            meeting[ts] = mask_of(j for j, S in enumerate(mcs) if ts & S.mask)
        hit = meeting[ts] & ctx.disjoint_row(K, enforce)
        if hit:
            missing |= hit & ~ctx.s_r_row(K, enforce_disjoint=enforce)
            asked.append(hit)
    passed = _columns(asked, missing, mcs)

    def walk(S):
        for K1, K2, ts, K in sums:
            if not ts & S.mask or (enforce and K.mask & S.mask) or K.mask == L.full:
                continue
            v = ctx.s_r(K, S, enforce_disjoint=enforce)
            yield None if v.holds else _failure(v, R, K1=K1.label(), K2=K2.label())

    return _sweeps(mcs, "mcs", "sums_checked", _bulk(lambda S: passed[S.mask], walk))


def run_p_minidem(ctx, dropped):
    """P + Ann(se) is S-r for minimal primes P and idempotents e (reduced rings)."""
    R = ctx.ring
    reduced = R.is_reduced()
    enforce_reduced = "reduced" not in dropped
    enforce_disjoint = "disjoint" not in dropped
    zero = ideal_generate(R, ())
    mins = min_primes_over(zero) if zero.is_proper() else ()
    idems = [(e, R.mul[e].tolist()) for e in R.idempotents()]
    mcs = ctx.mcs_list()
    bits_of = {S.mask: 1 << j for j, S in enumerate(mcs)}
    sums = {}  # (P.mask, se) -> P + Ann(se)

    def sum_of(P, se):
        A = sums.get((P.mask, se))
        if A is None:
            A = sums[(P.mask, se)] = ideal_sum(P, annihilator(R, (se,)))
        return A

    def bulk(S):
        bit = bits_of[S.mask]
        # how often each se occurs as e runs over the idempotents and s over S
        times = np.bincount(R.mul[np.ix_(R.idempotents(), S.sorted_members)].ravel(), minlength=R.size)
        products = [(se, int(times[se])) for se in np.flatnonzero(times).tolist()]
        passed = 0
        for P in mins:
            for se, n in products:
                A = sum_of(P, se)
                if not ctx.disjoint_row(A, enforce_disjoint) & bit or not A.is_proper():
                    continue
                if not ctx.s_r_row(A, enforce_disjoint=enforce_disjoint) & bit:
                    return None
                passed += n
        return passed

    def walk(S):
        members = S.sorted_members
        for P in mins:
            for e, times_e in idems:
                for s in members:
                    A = sum_of(P, times_e[s])
                    if (enforce_disjoint and A.mask & S.mask) or not A.is_proper():
                        continue
                    v = ctx.s_r(A, S, enforce_disjoint=enforce_disjoint)
                    yield None if v.holds else _failure(
                        v, R, min_prime=P.label(), idempotent=R.labels[e], s=R.labels[s]
                    )

    met = reduced or not enforce_reduced
    return _sweeps(mcs, "mcs", "ideals_checked", _bulk(bulk, walk), {"reduced": reduced}, met)


def run_p_sidem(ctx, dropped):
    """Ideals spanned by elements with a^2 = sa (s the product of S) are S-r.

    T is the elements that pass that gate, so each span goes straight to its verdict.
    """
    R = ctx.ring
    mcs = ctx.mcs_list()
    bits_of = {S.mask: 1 << j for j, S in enumerate(mcs)}

    def spans(S):
        T = tuple(np.flatnonzero(R.mul.diagonal() == R.mul[S.product()]).tolist())
        gen_sets = [(f"[{R.labels[a]}]", (a,)) for a in T]
        if len(T) > 1:
            gen_sets.append(("[all]", T))
        return gen_sets

    def bulk(S):
        bit, passed = bits_of[S.mask], 0
        for _, gens in spans(S):
            A = ideal_generate(R, gens)
            if A.is_proper() and ctx.disjoint_row(A) & bit:  # else the verdict is NotApplicable
                if not ctx.s_r_row(A) & bit:
                    return None
                passed += 1
        return passed

    def walk(S):
        for label, gens in spans(S):
            v = ctx.s_r(ideal_generate(R, gens), S)
            if not v.not_applicable:
                yield None if v.holds else _failure(v, R, generators=label)

    return _sweeps(mcs, "mcs", "ideals_checked", _bulk(bulk, walk))


def run_p_suz(ctx, dropped):
    """All disjoint ideals S-r  <=>  the ring is an S-uz-ring."""
    mcs = ctx.mcs_list()
    asked, missing = [], 0
    for A in ctx.proper_ideals():
        hit = ctx.disjoint_row(A)
        if hit:
            missing |= hit & ~ctx.s_r_row(A)
            asked.append(hit)
    passed = _columns(asked, missing, mcs)

    def walk(S):
        for A in ctx.proper_ideals():
            if not A.mask & S.mask:
                yield None if ctx.s_r(A, S).holds else {"failing_ideal": A.label()}

    checks = _bulk(lambda S: passed[S.mask], walk)
    for S in mcs:
        outcome, detail = _sweep("ideals_evaluated", checks(S))
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
            ctx.s_r_row(P, enforce_disjoint=enforce) >> j & 1
            for P in prime_spectrum(R)
            if ctx.disjoint_row(P, enforce) >> j & 1
        )
        c_side = all(ctx.s_r_row(M, enforce_disjoint=enforce) >> j & 1 for M in maxes)
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
        try:
            bad = ann_pushforward_check(hom)
        except NotApplicableError:
            continue
        detail = {"elements_checked": R.size}
        if bad is not None:
            detail["failing_element"] = R.labels[bad]
        yield Finding(VERIFIED if bad is None else VIOLATION, {"isomorphism": name}, detail=detail)


def run_p3_2(ctx, dropped):
    """S-r transfer across amalgamations, both directions."""
    am = ctx.structure
    if not isinstance(am, AmalgRing):
        return
    h1_mcs = _small_mcs(am.h1, 6)
    for A in all_ideals(am.h1):
        if not A.is_proper():
            continue
        for S in h1_mcs:
            if A.mask & S.mask:
                continue
            results = {}
            hyps = {}
            bad = None
            for direction in (FORWARD, BACKWARD):
                rep = amalg_transfer_check(am, A, S, direction)
                met = all(v for k, v in rep.hypotheses.items() if k not in dropped)
                results[direction] = {
                    "hypotheses": rep.hypotheses,
                    "met": met,
                    "base": rep.base_verdict.outcome,
                    "extension": rep.ext_verdict.outcome,
                }
                hyps.update({f"{direction.lower()}_{k}": v for k, v in rep.hypotheses.items()})
                if met and not rep.implication_ok:
                    bad = direction
            evaluated = any(r["met"] for r in results.values())
            outcome = VIOLATION if bad else (VERIFIED if evaluated else VACUOUS)
            yield Finding(outcome, {"ideal": A.label(), "mcs": S.label()}, hyps, {"directions": results})


def run_amalgz_p3_2(ctx, dropped):
    """P3.2 on the amalgZ family: FORWARD transfer of the zero ideal."""
    rep = amalgz_zero_transfer_check(ctx.az, ctx.s_desc, ctx.limits.oracle_bound)
    hyps = dict(rep.hypotheses)
    ok = (not rep.base_verdict.holds) or (rep.ext_holds and rep.window_confirms)
    outcome = VACUOUS if not all(hyps.values()) else (VERIFIED if ok else VIOLATION)
    yield Finding(
        outcome,
        {"ideal": "(0)", "mcs": str(ctx.entry.mcs_text or "(units)")},
        hyps,
        {
            "direction": "FORWARD",
            "base": rep.base_verdict.outcome,
            "extension_holds": rep.ext_holds,
            "window_pairs_checked": rep.window_pairs_checked,
            "window_confirms": rep.window_confirms,
        },
    )


# P3.3 hypothesis -> the name that drops it; the literal zd-union variant is
# reported but never enforced
_P3_3_DROPS = {
    "disjoint": "disjoint",
    "torsion_free": "torsion_free",
    "zd_union_in_ann": "zd_union",
}


def run_p3_3(ctx, dropped):
    """Trivial-extension equivalence of the three S-r statements."""
    T = ctx.structure
    if not isinstance(T, TrivExtRing):
        return
    base_mcs = _small_mcs(T.base, 6)
    for A in all_ideals(T.base):
        if not A.is_proper():
            continue
        for S in base_mcs:
            rep = triv_equivalence_check(T, A, S)
            hyps = dict(rep.hypotheses)
            enforced = (k for k in hyps if k in _P3_3_DROPS and _P3_3_DROPS[k] not in dropped)
            met = all(hyps[k] for k in enforced)
            outcome = VACUOUS if not met else (VERIFIED if rep.consistent else VIOLATION)
            pattern = "".join("1" if b else "0" for b in rep.pattern)
            yield Finding(outcome, {"ideal": A.label(), "mcs": S.label()}, hyps, {"pattern": pattern})


# -- arithmetic-lane runners -----------------------------------------------------------------


def run_arith_t2_12(ctx, dropped):
    A, v = ctx.ideal, ctx.verdict
    prime = A.is_proper() and ar.arith_is_prime(A)
    if "prime" not in dropped and not prime:
        yield Finding(VACUOUS, ctx.annotations, {"prime": prime})
    elif v.not_applicable and "disjoint" not in dropped:
        yield Finding(VACUOUS, ctx.annotations, {"prime": prime, "disjoint": False})
    else:
        yield Finding(
            VERIFIED if v.holds == ctx.in_zd else VIOLATION, ctx.annotations,
            {"prime": prime, "disjoint": not v.not_applicable},
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
    v = ar.arith_is_S_r_ideal(zero, ctx.mcs)
    if v.not_applicable:
        yield Finding(VACUOUS, annotations)
        return
    oracle = ar.arith_oracle_check(zero, ctx.mcs, ctx.limits.oracle_bound)
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
    ok_r = ar.arith_oracle_check(A, None, bound)
    ok_s = ar.arith_oracle_check(A, S, bound)
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


def _run_entry(entry, ids, dropped, limits, timings=False):
    ctx = build_context(entry, limits)
    field = LANES[ctx.kind][1]
    records = []
    mark = time.perf_counter()
    for tid in ids:
        case = CASES[tid]
        if ctx.kind not in case.scopes:
            continue
        for finding in getattr(case, field)(ctx, dropped):
            rec = _record(tid, ctx, dropped, finding)
            if timings:
                now = time.perf_counter()
                rec["millis"] = int((now - mark) * 1000)
                mark = now
            records.append(rec)
    return records


def _worker(args):
    index, entry, ids, dropped_t, limits, timings = args
    return index, _run_entry(entry, ids, frozenset(dropped_t), limits, timings)


def _check_ids(ids, dropped):
    repeated = [tid for i, tid in enumerate(ids) if tid in ids[:i]]
    if repeated:
        raise ConfigError(f"theorem id {repeated[0]!r} given more than once")
    for tid in ids:
        if tid not in CASES:
            raise UnknownTheorem(f"unknown theorem id {tid!r}")
        for h in dropped:
            if h not in CASES[tid].hypotheses:
                raise UnknownHypothesis(f"{tid} has no hypothesis {h!r}")


def verify(
    ids,
    corpus: CorpusSpec,
    jobs: int = 1,
    dropped=frozenset(),
    expected_violations=False,
    timings=False,
):
    """Run the registry over the corpus; yields records in corpus order.

    Output order is deterministic regardless of parallelism; wall-time
    fields are attached only on request since they break byte-identical
    reruns.
    """
    ids = tuple(ids) if ids else DEFAULT_IDS
    dropped = frozenset(dropped)
    _check_ids(ids, dropped)
    tasks = [
        (i, entry, ids, tuple(sorted(dropped)), corpus.limits, timings)
        for i, entry in enumerate(corpus.entries)
    ]
    if jobs > 1:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            batches = [records for _, records in pool.map(_worker, tasks, chunksize=1)]
    else:
        batches = [
            _run_entry(entry, ids, dropped, corpus.limits, timings)
            for entry in corpus.entries
        ]
    for batch in batches:
        for rec in batch:
            if expected_violations and rec["outcome"] == VIOLATION:
                rec["expected"] = True
            yield rec


def counterexample_search(theorem_id: str, corpus: CorpusSpec, drop, jobs: int = 1, timings=False):
    """Re-run one statement with named hypotheses not enforced.

    Violations found here are expected findings: they demonstrate that the
    dropped hypothesis was load-bearing.
    """
    drop = frozenset(drop)
    _check_ids((theorem_id,), drop)
    return verify(
        (theorem_id,),
        corpus,
        jobs=jobs,
        dropped=drop,
        expected_violations=True,
        timings=timings,
    )
