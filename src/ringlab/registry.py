"""The proposition registry: every catalogued statement as an executable check.

Each registry case maps a stable id to a runner that sweeps one corpus
entry and yields report records.  Records carry everything needed to
replay a finding: the entry text, the annotation labels, the hypothesis
flags, and the witness or counterexample data.

Outcomes: VERIFIED (hypotheses met, statement checked non-vacuously),
VACUOUS (hypotheses unmet or antecedent never fired), VIOLATION (the
statement failed; unexpected unless hypotheses were deliberately dropped).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from . import arith as ar
from . import classify as cl
from .corpus import AMALGZ, ARITH, FINITE, POLY, CorpusEntry, CorpusSpec, Limits
from .dsl import (
    parse_arith_ideal,
    parse_arith_mcs,
    parse_arith_ring,
    parse_gens,
    parse_ring,
    split_top,
)
from .errors import ParseError, UnknownHypothesis, UnknownTheorem
from .extensions import (
    BACKWARD,
    FORWARD,
    AmalgOverZ,
    amalg_transfer_check,
    amalgz_zero_transfer_check,
    make_amalgamation,
    make_module_free,
    make_module_quotient,
    make_trivial_extension,
    triv_equivalence_check,
)
from .ideals import (
    all_ideals,
    annihilator,
    colon,
    ideal_generate,
    ideal_pushforward,
    ideal_sum,
    is_prime,
    jacobson_radical,
    lattice as ideal_lattice,
    localize,
    max_ideals,
    mcs_from_members,
    mcs_generate,
    min_primes_over,
    principal_members,
    spec as prime_spectrum,
)
from .poly import (
    NO,
    NO_VIOLATION_UP_TO,
    YES_BY_THEOREM,
    PolyIdealSpec,
    bounded_S_r_search,
    decide_content_S_r,
    dedekind_mertens_sweep,
)
from .rings import RingHom, check_hom, crt_hom, identity_hom, make_product

VERIFIED = "VERIFIED"
VACUOUS = "VACUOUS"
VIOLATION = "VIOLATION"


# -- per-entry contexts ----------------------------------------------------------------


class FiniteContext:
    """Parsed entry plus memoized lattice, m.c.s. candidates and verdicts."""

    def __init__(self, entry: CorpusEntry, limits: Limits):
        self.entry = entry
        self.limits = limits
        self.kind = FINITE
        self.structure = None  # ("triv", TrivExtRing) | ("amalg", AmalgRing)
        expr = entry.expr
        stripped = "".join(expr.split())
        if stripped.startswith("triv("):
            self.structure = ("triv", _build_triv(expr))
            self.ring = self.structure[1].ring
        elif stripped.startswith("amalg("):
            self.structure = ("amalg", _build_amalg(expr))
            self.ring = self.structure[1].ring
        else:
            self.ring = parse_ring(expr)
        self._pinned_ideal = (
            ideal_generate(self.ring, parse_gens(self.ring, entry.ideal_text))
            if entry.ideal_text
            else None
        )
        self._pinned_mcs = (
            mcs_generate(self.ring, parse_gens(self.ring, entry.mcs_text))
            if entry.mcs_text
            else None
        )
        self._verdicts = {}
        self._mcs = None  # m.c.s. candidates: depend on Limits and on the pinned ideal
        self.annsum_pre = None  # P-annsum's (K1, K2, ts, K) table over ideals()
        self.subsampled = False

    def ideals(self):
        if self._pinned_ideal is not None:
            return (self._pinned_ideal,)
        return all_ideals(self.ring)

    def proper_ideals(self):
        return tuple(A for A in self.ideals() if A.is_proper())

    def mcs_list(self):
        if self._pinned_mcs is not None:
            return (self._pinned_mcs,)
        if self._mcs is not None:
            return self._mcs
        R = self.ring
        seen = {}
        def put(members, gens):
            if members not in seen:
                seen[members] = gens
        put(frozenset({R.one}), ())
        for g in R.elements():
            S = mcs_generate(R, (g,))
            put(S.members, (g,))
        put(frozenset(R.units), tuple(sorted(R.units)))
        put(frozenset(R.elements()), tuple(sorted(R.elements())))
        ordered = sorted(seen.items(), key=lambda kv: (len(kv[0]), tuple(sorted(kv[0]))))
        cap = self.limits.mcs_cap
        if len(ordered) > cap:
            keep = ordered[: cap - 2]
            for special in (frozenset(R.units), frozenset(R.elements())):
                if special not in dict(keep):
                    keep.append((special, seen[special]))
            ordered = sorted(set(keep), key=lambda kv: (len(kv[0]), tuple(sorted(kv[0]))))
        count = len(self.ideals()) * len(ordered)
        if count > self.limits.annotation_cap:
            rng = random.Random(self.limits.subsample_seed)
            take = max(1, self.limits.annotation_cap // max(1, len(self.ideals())))
            ordered = sorted(
                rng.sample(ordered, take), key=lambda kv: (len(kv[0]), tuple(sorted(kv[0])))
            )
            self.subsampled = True
        self._mcs = tuple(mcs_from_members(R, members, generators=gens) for members, gens in ordered)
        return self._mcs

    def regular_mcs(self):
        return mcs_from_members(self.ring, self.ring.regulars)

    # memoized classifier calls -----------------------------------------------------

    def s_r(self, A, S, enforce_proper=True, enforce_disjoint=True):
        key = ("s_r", A.members, S.members, enforce_proper, enforce_disjoint)
        got = self._verdicts.get(key)
        if got is None:
            got = cl.is_S_r_ideal(A, S, enforce_proper=enforce_proper, enforce_disjoint=enforce_disjoint)
            self._verdicts[key] = got
        return got

    def r_verdict(self, A):
        key = ("r", A.members)
        got = self._verdicts.get(key)
        if got is None:
            got = cl.is_r_ideal(A)
            self._verdicts[key] = got
        return got

    def s_z0(self, A, S, enforce_reduced=True, enforce_disjoint=True):
        key = ("s_z0", A.members, S.members, enforce_reduced, enforce_disjoint)
        got = self._verdicts.get(key)
        if got is None:
            got = cl.is_S_z0_ideal(A, S, enforce_reduced=enforce_reduced, enforce_disjoint=enforce_disjoint)
            self._verdicts[key] = got
        return got

    def localization(self, S):
        return localize(self.ring, S)

    # label helpers -------------------------------------------------------------------

    def ideal_label(self, A):
        return A.label()

    def mcs_label(self, S):
        return S.label()


def _build_triv(expr):
    body = "".join(expr.split())[len("triv(") : -1]
    args = split_top(body, ",")
    base = parse_ring(args[0])
    mod = args[1]
    if mod.startswith("free(") and mod.endswith(")"):
        module = make_module_free(base, int(mod[len("free(") : -1]))
    elif mod.startswith("quot(") and mod.endswith(")"):
        gens = mod[len("quot(") : -1]
        module = make_module_quotient(base, ideal_generate(base, parse_gens(base, gens)))
    else:
        raise ParseError(f"bad module expression {mod!r}")
    return make_trivial_extension(base, module)


def _build_amalg(expr):
    body = "".join(expr.split())[len("amalg(") : -1]
    args = split_top(body, ",")
    e1, e2, spec, gens = args
    if spec == "id":
        h1 = parse_ring(e1)
        h2 = h1
        hom = identity_hom(h1)
    elif spec == "proj":
        h1 = parse_ring(e1)
        pieces = split_top(e2, "/")
        from .rings import make_quotient

        h2, hom = make_quotient(h1, ideal_generate(h1, parse_gens(h1, pieces[1][1:-1])))
    else:
        raise ParseError(f"bad amalg hom spec {spec!r}")
    J = ideal_generate(h2, parse_gens(h2, gens[1:-1]))
    return make_amalgamation(h1, h2, hom, J, hom_text=spec)


class ArithContext:
    def __init__(self, entry: CorpusEntry, limits: Limits):
        self.entry = entry
        self.limits = limits
        self.kind = ARITH
        self.ring = parse_arith_ring(entry.expr)
        if not entry.ideal_text or not entry.mcs_text:
            raise ParseError(f"arith entry needs ideal= and mcs= annotations: {entry.text}")
        self.ideal = parse_arith_ideal(self.ring, entry.ideal_text)
        self.mcs = parse_arith_mcs(self.ring, entry.mcs_text)


class PolyContext(FiniteContext):
    def __init__(self, entry: CorpusEntry, limits: Limits):
        inner = "".join(entry.expr.split())[len("polyring(") : -1]
        base_entry = CorpusEntry(
            text=entry.text,
            kind=FINITE,
            expr=inner,
            ideal_text=entry.ideal_text,
            mcs_text=entry.mcs_text,
        )
        super().__init__(base_entry, limits)
        self.entry = entry
        self.kind = POLY

    def poly_mcs_list(self):
        """Constant m.c.s. candidates: trivial, units, and unit-generated."""
        if self._pinned_mcs is not None:
            return (self._pinned_mcs,)
        R = self.ring
        seen = {}
        def put(S):
            seen.setdefault(S.members, S)
        put(mcs_generate(R, ()))
        put(mcs_from_members(R, R.units))
        for g in sorted(R.units):
            put(mcs_generate(R, (g,)))
        for g in sorted(set(R.elements()) - set(R.units))[:2]:
            put(mcs_generate(R, (g,)))
        return tuple(sorted(seen.values(), key=lambda S: (len(S.members), S.sorted_members)))

    def search_degree(self):
        # quotient coefficient spaces grow as |Q|^(D+1); keep the registry
        # sweep bounded on the larger bases, and record the bound used
        return self.limits.degree if self.ring.size <= 6 else min(2, self.limits.degree)


class AmalgZContext:
    def __init__(self, entry: CorpusEntry, limits: Limits):
        self.entry = entry
        self.limits = limits
        self.kind = AMALGZ
        body = "".join(entry.expr.split())[len("amalgZ(") : -1]
        n, d = (int(x) for x in split_top(body, ","))
        self.az = AmalgOverZ(n, d)
        mcs_text = entry.mcs_text or "(units)"
        zring = ar.ArithRing((ar.INT,))
        self.s_desc = parse_arith_mcs(zring, mcs_text).descs[0]


def build_context(entry: CorpusEntry, limits: Limits):
    if entry.kind == FINITE:
        return FiniteContext(entry, limits)
    if entry.kind == ARITH:
        return ArithContext(entry, limits)
    if entry.kind == POLY:
        return PolyContext(entry, limits)
    if entry.kind == AMALGZ:
        return AmalgZContext(entry, limits)
    raise ParseError(f"unknown entry kind {entry.kind}")


# -- record helper ------------------------------------------------------------------------


def _record(theorem, ctx, outcome, annotations=None, hypotheses=None, dropped=(), detail=None):
    ring_name = ctx.ring.recipe if hasattr(ctx, "ring") and hasattr(ctx.ring, "recipe") else (
        ctx.ring.label() if hasattr(ctx, "ring") else ctx.entry.expr
    )
    annotations = dict(annotations or {})
    if getattr(ctx, "subsampled", False):
        annotations["subsample_seed"] = ctx.limits.subsample_seed
    detail = detail or {}
    # surface the principal verdict's witness data at the top level
    verdict = detail.get("verdict")
    if not isinstance(verdict, dict):
        failure = detail.get("failure")
        verdict = failure.get("verdict") if isinstance(failure, dict) else None
    return {
        "theorem": theorem,
        "entry": ctx.entry.text,
        "recipe": ring_name,
        "annotations": annotations,
        "hypotheses": hypotheses or {},
        "dropped": sorted(dropped),
        "outcome": outcome,
        "witness": verdict.get("witness") if isinstance(verdict, dict) else None,
        "counterexample": verdict.get("counterexample") if isinstance(verdict, dict) else None,
        "detail": detail,
    }


def _vjson(v, ring=None):
    return v.to_json(ring)


# -- finite-lane runners -------------------------------------------------------------------


def run_degen(ctx, dropped):
    uz = cl.is_uz_ring(ctx.ring)
    bad = None
    checked = 0
    for A in ctx.proper_ideals():
        verdict = ctx.r_verdict(A)
        checked += 1
        if not verdict.holds:
            bad = (A, verdict)
            break
    ok = uz.holds and bad is None
    detail = {"uz": _vjson(uz, ctx.ring), "proper_ideals_checked": checked}
    if bad is not None:
        detail["failing_ideal"] = ctx.ideal_label(bad[0])
        detail["verdict"] = _vjson(bad[1], ctx.ring)
    yield _record("DEGEN", ctx, VERIFIED if ok else VIOLATION, detail=detail, dropped=dropped)


def run_p_zero(ctx, dropped):
    zero = ideal_generate(ctx.ring, ())
    enforce = "disjoint" not in dropped
    for S in ctx.mcs_list():
        v = ctx.s_r(zero, S, enforce_proper=enforce, enforce_disjoint=enforce)
        if v.not_applicable:
            outcome = VACUOUS
        else:
            outcome = VERIFIED if v.holds else VIOLATION
        yield _record(
            "P-zero",
            ctx,
            outcome,
            annotations={"ideal": "(0)", "mcs": ctx.mcs_label(S)},
            hypotheses={"disjoint": not (S.members & zero.members)},
            dropped=dropped,
            detail={"verdict": _vjson(v, ctx.ring)},
        )


def run_t2_3(ctx, dropped):
    """Monotone transfer along S1 inside S2, plus the conditional converse."""
    R = ctx.ring
    mcs = ctx.mcs_list()
    inclusions = []
    for S1 in mcs:
        for S2 in mcs:
            if S1.members < S2.members:
                # converse applies when every s in S2 has some r with rs in S1
                converse = all(
                    bool(principal_members(R, s) & S1.members) for s in S2.sorted_members
                )
                inclusions.append((S1, S2, converse))
    enforce = "disjoint" not in dropped
    for A in ctx.proper_ideals():
        checked = 0
        vacuous = True
        failure = None
        for S1, S2, converse in inclusions:
            v1 = ctx.s_r(A, S1)
            disjoint2 = not (S2.members & A.members)
            if v1.holds and (disjoint2 or not enforce):
                v2 = ctx.s_r(A, S2, enforce_disjoint=enforce)
                checked += 1
                vacuous = False
                if not v2.holds:
                    failure = {
                        "direction": "forward",
                        "mcs1": ctx.mcs_label(S1),
                        "mcs2": ctx.mcs_label(S2),
                        "verdict": _vjson(v2, R),
                    }
                    break
            if converse and ctx.s_r(A, S2).holds:
                v1b = ctx.s_r(A, S1)
                checked += 1
                vacuous = False
                if not v1b.holds:
                    failure = {
                        "direction": "converse",
                        "mcs1": ctx.mcs_label(S1),
                        "mcs2": ctx.mcs_label(S2),
                        "verdict": _vjson(v1b, R),
                    }
                    break
        outcome = VIOLATION if failure else (VACUOUS if vacuous else VERIFIED)
        yield _record(
            "T2.3",
            ctx,
            outcome,
            annotations={"ideal": ctx.ideal_label(A)},
            dropped=dropped,
            detail={"implications_checked": checked, **({"failure": failure} if failure else {})},
        )


def run_t2_5(ctx, dropped):
    """r-ideal pushforward to the localization pulls back to S-r."""
    need_reg = "s_regular" not in dropped
    for A in ctx.proper_ideals():
        checked = 0
        vacuous = True
        failure = None
        hyp_any = False
        for S in ctx.mcs_list():
            s_regular = S.members <= ctx.ring.regulars
            if need_reg and not s_regular:
                continue
            hyp_any = True
            loc = ctx.localization(S)
            pushed = ideal_pushforward(loc, A)
            antecedent = cl.is_r_ideal(pushed)
            if not antecedent.holds:
                continue
            v = ctx.s_r(A, S)
            checked += 1
            vacuous = False
            if not v.holds:
                failure = {"mcs": ctx.mcs_label(S), "verdict": _vjson(v, ctx.ring)}
                break
        outcome = VIOLATION if failure else (VACUOUS if vacuous else VERIFIED)
        yield _record(
            "T2.5",
            ctx,
            outcome,
            annotations={"ideal": ctx.ideal_label(A)},
            hypotheses={"s_regular_candidates": hyp_any},
            dropped=dropped,
            detail={"implications_checked": checked, **({"failure": failure} if failure else {})},
        )


def run_t2_7(ctx, dropped):
    """Four-way characterization at S = regular elements."""
    R = ctx.ring
    S = ctx.regular_mcs()
    regs = sorted(R.regulars)
    for A in ctx.ideals():
        if not A.is_proper() and "disjoint" not in dropped:
            continue
        if S.members & A.members and "disjoint" not in dropped:
            continue
        enforce = "disjoint" not in dropped
        a_side = ctx.s_r(A, S, enforce_proper=enforce, enforce_disjoint=enforce).holds

        def cond_b():
            for s in regs:
                ok = True
                for r in regs:
                    inter = principal_members(R, r) & A.members
                    rA = {R.m(r, x) for x in A.members}
                    if not {R.m(s, x) for x in inter} <= rA:
                        ok = False
                        break
                if ok:
                    return True
            return False

        def cond_c():
            for s in regs:
                ok = True
                for r in regs:
                    cab = colon(A, (r,)).members
                    if not {R.m(s, x) for x in cab} <= A.members:
                        ok = False
                        break
                if ok:
                    return True
            return False

        def cond_d():
            loc = ctx.localization(S)
            pushed = ideal_pushforward(loc, A)
            pre = {x for x in R.elements() if int(loc.map.image[x]) in pushed.members}
            return any({R.m(s, x) for x in pre} <= A.members for s in regs)

        b_side, c_side, d_side = cond_b(), cond_c(), cond_d()
        agree = a_side == b_side == c_side == d_side
        yield _record(
            "T2.7",
            ctx,
            VERIFIED if agree else VIOLATION,
            annotations={"ideal": ctx.ideal_label(A), "mcs": "S<reg>"},
            hypotheses={"disjoint": not (S.members & A.members)},
            dropped=dropped,
            detail={"sides": {"s_r": a_side, "scaled_intersections": b_side, "scaled_colons": c_side, "localization_preimage": d_side}},
        )


def run_p2_8(ctx, dropped):
    """The S-r witness s has (A : s) = (A : s^n) for every exponent."""
    R = ctx.ring
    need_reg = "s_regular" not in dropped
    for A in ctx.proper_ideals():
        checked = 0
        vacuous = True
        failure = None
        for S in ctx.mcs_list():
            if need_reg and not S.members <= R.regulars:
                continue
            v = ctx.s_r(A, S)
            if not v.holds:
                continue
            s = v.witness
            base_colon = colon(A, (s,)).members
            power = s
            seen = set()
            ok = True
            while power not in seen:
                seen.add(power)
                if colon(A, (power,)).members != base_colon:
                    ok = False
                    break
                power = R.m(power, s)
            checked += 1
            vacuous = False
            if not ok:
                failure = {"mcs": ctx.mcs_label(S), "witness": R.labels[s]}
                break
        outcome = VIOLATION if failure else (VACUOUS if vacuous else VERIFIED)
        yield _record(
            "P2.8",
            ctx,
            outcome,
            annotations={"ideal": ctx.ideal_label(A)},
            dropped=dropped,
            detail={"witnesses_checked": checked, **({"failure": failure} if failure else {})},
        )


def run_p2_10(ctx, dropped):
    """S-z0 implies S-r over reduced rings."""
    R = ctx.ring
    reduced = R.is_reduced()
    enforce_reduced = "reduced" not in dropped
    enforce_disjoint = "disjoint" not in dropped
    for A in ctx.proper_ideals():
        if enforce_reduced and not reduced:
            yield _record(
                "P2.10",
                ctx,
                VACUOUS,
                annotations={"ideal": ctx.ideal_label(A)},
                hypotheses={"reduced": reduced},
                dropped=dropped,
            )
            continue
        checked = 0
        vacuous = True
        failure = None
        for S in ctx.mcs_list():
            v0 = ctx.s_z0(A, S, enforce_reduced=enforce_reduced, enforce_disjoint=enforce_disjoint)
            if not v0.holds:
                continue
            v = ctx.s_r(A, S, enforce_disjoint=enforce_disjoint)
            checked += 1
            vacuous = False
            if not v.holds:
                failure = {"mcs": ctx.mcs_label(S), "verdict": _vjson(v, R)}
                break
        outcome = VIOLATION if failure else (VACUOUS if vacuous else VERIFIED)
        yield _record(
            "P2.10",
            ctx,
            outcome,
            annotations={"ideal": ctx.ideal_label(A)},
            hypotheses={"reduced": reduced},
            dropped=dropped,
            detail={"implications_checked": checked, **({"failure": failure} if failure else {})},
        )


def run_t2_11(ctx, dropped):
    """Minimal primes over an S-r ideal are S-r when disjoint from S."""
    enforce = "disjoint" not in dropped
    for A in ctx.proper_ideals():
        mins = min_primes_over(A)
        checked = 0
        vacuous = True
        failure = None
        for S in ctx.mcs_list():
            v = ctx.s_r(A, S)
            if not v.holds:
                continue
            for L in mins:
                if enforce and (L.members & S.members):
                    continue
                vL = ctx.s_r(L, S, enforce_disjoint=enforce)
                checked += 1
                vacuous = False
                if not vL.holds:
                    failure = {
                        "mcs": ctx.mcs_label(S),
                        "min_prime": ctx.ideal_label(L),
                        "verdict": _vjson(vL, ctx.ring),
                    }
                    break
            if failure:
                break
        outcome = VIOLATION if failure else (VACUOUS if vacuous else VERIFIED)
        yield _record(
            "T2.11",
            ctx,
            outcome,
            annotations={"ideal": ctx.ideal_label(A)},
            dropped=dropped,
            detail={"lifts_checked": checked, **({"failure": failure} if failure else {})},
        )


def run_t2_12(ctx, dropped):
    """For prime disjoint A: S-r iff A consists of zero divisors."""
    R = ctx.ring
    need_prime = "prime" not in dropped
    enforce_disjoint = "disjoint" not in dropped
    for A in ctx.ideals():
        if not A.is_proper():
            continue
        prime = is_prime(A)
        if need_prime and not prime:
            yield _record(
                "T2.12",
                ctx,
                VACUOUS,
                annotations={"ideal": ctx.ideal_label(A)},
                hypotheses={"prime": prime},
                dropped=dropped,
            )
            continue
        in_zd = A.members <= R.zero_divisors
        checked = 0
        vacuous = True
        failure = None
        for S in ctx.mcs_list():
            disjoint = not (S.members & A.members)
            if enforce_disjoint and not disjoint:
                continue
            v = ctx.s_r(A, S, enforce_disjoint=enforce_disjoint)
            if v.not_applicable:
                continue
            checked += 1
            vacuous = False
            if v.holds != in_zd:
                failure = {
                    "mcs": ctx.mcs_label(S),
                    "s_r": v.holds,
                    "inside_zd": in_zd,
                    "verdict": _vjson(v, R),
                }
                break
        outcome = VIOLATION if failure else (VACUOUS if vacuous else VERIFIED)
        yield _record(
            "T2.12",
            ctx,
            outcome,
            annotations={"ideal": ctx.ideal_label(A)},
            hypotheses={"prime": prime},
            dropped=dropped,
            detail={"equivalences_checked": checked, **({"failure": failure} if failure else {})},
        )


def run_c_zd(ctx, dropped):
    """S-r ideals consist of zero divisors."""
    R = ctx.ring
    for A in ctx.proper_ideals():
        checked = 0
        vacuous = True
        failure = None
        for S in ctx.mcs_list():
            v = ctx.s_r(A, S)
            if not v.holds:
                continue
            checked += 1
            vacuous = False
            if not A.members <= R.zero_divisors:
                failure = {"mcs": ctx.mcs_label(S)}
                break
        outcome = VIOLATION if failure else (VACUOUS if vacuous else VERIFIED)
        yield _record(
            "C-zd",
            ctx,
            outcome,
            annotations={"ideal": ctx.ideal_label(A)},
            dropped=dropped,
            detail={"checked": checked, **({"failure": failure} if failure else {})},
        )


def run_p_jac(ctx, dropped):
    """Inside the Jacobson radical: r-ideal iff (H minus M)-r for every maximal M."""
    R = ctx.ring
    maxes = max_ideals(R)
    if not maxes:
        yield _record("P-jac", ctx, VACUOUS, dropped=dropped, detail={"reason": "no maximal ideals"})
        return
    jac = jacobson_radical(R)
    need_jac = "in_jacobson" not in dropped
    for A in ctx.proper_ideals():
        inside = A.members <= jac.members
        if need_jac and not inside:
            continue
        lhs = ctx.r_verdict(A).holds
        rhs = True
        for M in maxes:
            comp = mcs_from_members(R, frozenset(R.elements()) - M.members)
            v = ctx.s_r(A, comp)
            if not v.holds:
                rhs = False
                break
        agree = lhs == rhs
        yield _record(
            "P-jac",
            ctx,
            VERIFIED if agree else VIOLATION,
            annotations={"ideal": ctx.ideal_label(A)},
            hypotheses={"inside_jacobson": inside},
            dropped=dropped,
            detail={"r_ideal": lhs, "all_complements": rhs, "maximal_count": len(maxes)},
        )


def run_p_colon(ctx, dropped):
    """Colon ideals of an S-r ideal stay S-r; annihilators are always S-r."""
    R = ctx.ring
    enforce = "disjoint" not in dropped
    singles = [x for x in R.elements()]
    if R.size > 16:
        stride = R.size // 16
        singles = singles[::stride]
    for A in ctx.proper_ideals():
        k_families = [(f"{{{R.labels[x]}}}", (x,)) for x in singles if x not in A.members]
        k_families += [
            (ctx.ideal_label(B), tuple(B.sorted_members))
            for B in ctx.ideals()
            if not B.members <= A.members
        ]
        derived_by_k = [
            (k_label, (("colon", colon(A, K)), ("annihilator", annihilator(R, K))))
            for k_label, K in k_families
        ]
        checked = 0
        vacuous = True
        failure = None
        for S in ctx.mcs_list():
            v = ctx.s_r(A, S)
            if not v.holds:
                continue
            for k_label, derived_pairs in derived_by_k:
                for derived_label, derived in derived_pairs:
                    if enforce and (derived.members & S.members):
                        continue
                    if not derived.is_proper():
                        continue
                    vd = ctx.s_r(derived, S, enforce_disjoint=enforce)
                    checked += 1
                    vacuous = False
                    if not vd.holds:
                        failure = {
                            "mcs": ctx.mcs_label(S),
                            "K": k_label,
                            "kind": derived_label,
                            "verdict": _vjson(vd, R),
                        }
                        break
                if failure:
                    break
            if failure:
                break
        outcome = VIOLATION if failure else (VACUOUS if vacuous else VERIFIED)
        yield _record(
            "P-colon",
            ctx,
            outcome,
            annotations={"ideal": ctx.ideal_label(A)},
            dropped=dropped,
            detail={"derived_checked": checked, **({"failure": failure} if failure else {})},
        )


def run_p_annsum(ctx, dropped):
    """If K1 + K2 = Rt with t in S then Ann(K1) + Ann(K2) is S-r when disjoint."""
    R = ctx.ring
    lattice = ctx.ideals()
    enforce = "disjoint" not in dropped
    if ctx.annsum_pre is None:
        ctx.annsum_pre = []
        generated_by = {}  # principal ideal mask -> the elements generating it
        for t, mask in enumerate(ideal_lattice(R).principal):
            generated_by.setdefault(mask, set()).add(t)
        for i, K1 in enumerate(lattice):
            for K2 in lattice[i:]:
                ts = frozenset(generated_by.get(ideal_sum(K1, K2).mask, ()))
                if ts:
                    K = ideal_sum(annihilator(R, K1.generators), annihilator(R, K2.generators))
                    ctx.annsum_pre.append((K1, K2, ts, K))
    pre = ctx.annsum_pre
    for S in ctx.mcs_list():
        checked = 0
        vacuous = True
        failure = None
        for K1, K2, ts, K in pre:
            if not (ts & S.members):
                continue
            if enforce and (K.members & S.members):
                continue
            if not K.is_proper():
                continue
            v = ctx.s_r(K, S, enforce_disjoint=enforce)
            checked += 1
            vacuous = False
            if not v.holds:
                failure = {
                    "K1": ctx.ideal_label(K1),
                    "K2": ctx.ideal_label(K2),
                    "verdict": _vjson(v, R),
                }
                break
        outcome = VIOLATION if failure else (VACUOUS if vacuous else VERIFIED)
        yield _record(
            "P-annsum",
            ctx,
            outcome,
            annotations={"mcs": ctx.mcs_label(S)},
            dropped=dropped,
            detail={"sums_checked": checked, **({"failure": failure} if failure else {})},
        )


def run_p_minidem(ctx, dropped):
    """P + Ann(se) is S-r for minimal primes P and idempotents e (reduced rings)."""
    R = ctx.ring
    reduced = R.is_reduced()
    enforce_reduced = "reduced" not in dropped
    enforce_disjoint = "disjoint" not in dropped
    zero = ideal_generate(R, ())
    mins = min_primes_over(zero) if zero.is_proper() else ()
    idems = R.idempotents()
    for S in ctx.mcs_list():
        if enforce_reduced and not reduced:
            yield _record(
                "P-minidem",
                ctx,
                VACUOUS,
                annotations={"mcs": ctx.mcs_label(S)},
                hypotheses={"reduced": reduced},
                dropped=dropped,
            )
            continue
        checked = 0
        vacuous = True
        failure = None
        for P in mins:
            for e in idems:
                for s in S.sorted_members:
                    se = R.m(s, e)
                    ann_se = annihilator(R, (se,))
                    A = ideal_sum(P, ann_se)
                    if enforce_disjoint and (A.members & S.members):
                        continue
                    if not A.is_proper():
                        continue
                    v = ctx.s_r(A, S, enforce_disjoint=enforce_disjoint)
                    checked += 1
                    vacuous = False
                    if not v.holds:
                        failure = {
                            "min_prime": ctx.ideal_label(P),
                            "idempotent": R.labels[e],
                            "s": R.labels[s],
                            "verdict": _vjson(v, R),
                        }
                        break
                if failure:
                    break
            if failure:
                break
        outcome = VIOLATION if failure else (VACUOUS if vacuous else VERIFIED)
        yield _record(
            "P-minidem",
            ctx,
            outcome,
            annotations={"mcs": ctx.mcs_label(S)},
            hypotheses={"reduced": reduced},
            dropped=dropped,
            detail={"ideals_checked": checked, **({"failure": failure} if failure else {})},
        )


def run_p_sidem(ctx, dropped):
    """Ideals spanned by elements with a^2 = sa (s the product of S) are S-r."""
    R = ctx.ring
    for S in ctx.mcs_list():
        s = R.one
        for x in S.sorted_members:
            s = R.m(s, x)
        T = tuple(a for a in R.elements() if R.m(a, a) == R.m(s, a))
        gen_sets = [(f"[{R.labels[a]}]", (a,)) for a in T]
        if len(T) > 1:
            gen_sets.append(("[all]", T))
        checked = 0
        vacuous = True
        failure = None
        for label, gens in gen_sets:
            v = cl.s_idempotent_ideal_check(R, S, gens)
            if v.not_applicable:
                continue
            checked += 1
            vacuous = False
            if not v.holds:
                failure = {"generators": label, "verdict": _vjson(v, R)}
                break
        outcome = VIOLATION if failure else (VACUOUS if vacuous else VERIFIED)
        yield _record(
            "P-sidem",
            ctx,
            outcome,
            annotations={"mcs": ctx.mcs_label(S)},
            dropped=dropped,
            detail={"ideals_checked": checked, **({"failure": failure} if failure else {})},
        )


def run_p_suz(ctx, dropped):
    """All disjoint ideals S-r  <=>  the ring is an S-uz-ring."""
    R = ctx.ring
    for S in ctx.mcs_list():
        lhs = True
        lhs_witness = None
        evaluated = 0
        for A in ctx.proper_ideals():
            if A.members & S.members:
                continue
            evaluated += 1
            if not ctx.s_r(A, S).holds:
                lhs = False
                lhs_witness = ctx.ideal_label(A)
                break
        rhs = cl.is_S_uz_ring(R, S)
        agree = lhs == rhs.holds
        yield _record(
            "P-suz",
            ctx,
            VERIFIED if agree else VIOLATION,
            annotations={"mcs": ctx.mcs_label(S)},
            dropped=dropped,
            detail={
                "all_disjoint_ideals_s_r": lhs,
                "s_uz_ring": rhs.holds,
                "ideals_evaluated": evaluated,
                **({"failing_ideal": lhs_witness} if lhs_witness else {}),
            },
        )


def run_p_suzmax(ctx, dropped):
    """S-uz <=> every disjoint prime is S-r <=> every maximal ideal is S-r."""
    R = ctx.ring
    maxes = max_ideals(R)
    enforce = "max_disjoint" not in dropped
    for S in ctx.mcs_list():
        hyp = all(not (M.members & S.members) for M in maxes)
        if enforce and not hyp:
            yield _record(
                "P-suzmax",
                ctx,
                VACUOUS,
                annotations={"mcs": ctx.mcs_label(S)},
                hypotheses={"maximal_disjoint": hyp},
                dropped=dropped,
            )
            continue
        a_side = cl.is_S_uz_ring(R, S).holds
        b_side = all(
            ctx.s_r(P, S, enforce_disjoint=enforce).holds
            for P in prime_spectrum(R)
            if not (P.members & S.members) or not enforce
        )
        c_side = all(ctx.s_r(M, S, enforce_disjoint=enforce).holds for M in maxes)
        agree = a_side == b_side == c_side
        yield _record(
            "P-suzmax",
            ctx,
            VERIFIED if agree else VIOLATION,
            annotations={"mcs": ctx.mcs_label(S)},
            hypotheses={"maximal_disjoint": hyp},
            dropped=dropped,
            detail={"s_uz": a_side, "primes": b_side, "maximals": c_side},
        )


def run_l3_1(ctx, dropped):
    """Isomorphisms transport annihilators elementwise."""
    R = ctx.ring
    isos = [("identity", identity_hom(R))]
    if R.parts is not None:
        R1, R2 = R.parts
        swapped = make_product(R2, R1)
        image = tuple(
            (i % R2.size) * R1.size + (i // R2.size) for i in range(R.size)
        )
        isos.append(("swap", check_hom(RingHom(R, swapped, image))))
    if R.recipe.startswith("Z") and R.recipe[1:].isdigit():
        n = int(R.recipe[1:])
        for a in range(2, n):
            if n % a == 0 and gcd(a, n // a) == 1 and a < n // a:
                isos.append((f"crt({a},{n // a})", crt_hom(n, a, n // a)))
    for name, hom in isos:
        from .rings import ann_pushforward_check, is_isomorphism

        if not is_isomorphism(hom):
            continue
        bad = None
        for w in R.elements():
            if not ann_pushforward_check(hom, w):
                bad = w
                break
        yield _record(
            "L3.1",
            ctx,
            VERIFIED if bad is None else VIOLATION,
            annotations={"isomorphism": name},
            dropped=dropped,
            detail={"elements_checked": R.size, **({"failing_element": R.labels[bad]} if bad is not None else {})},
        )


def run_p3_2(ctx, dropped):
    """S-r transfer across amalgamations, both directions."""
    if getattr(ctx, "kind", None) == AMALGZ:
        rep = amalgz_zero_transfer_check(ctx.az, ctx.s_desc, ctx.limits.oracle_bound)
        hyps = dict(rep.hypotheses)
        met = all(hyps.values())
        ok = (not rep.base_verdict.holds) or (rep.ext_holds and rep.window_confirms)
        outcome = VERIFIED if (met and ok) else (VACUOUS if not met else VIOLATION)
        yield _record(
            "P3.2",
            ctx,
            outcome,
            annotations={"ideal": "(0)", "mcs": str(ctx.entry.mcs_text or "(units)")},
            hypotheses=hyps,
            dropped=dropped,
            detail={
                "direction": "FORWARD",
                "base": rep.base_verdict.outcome,
                "extension_holds": rep.ext_holds,
                "window_pairs_checked": rep.window_pairs_checked,
                "window_confirms": rep.window_confirms,
            },
        )
        return
    if ctx.structure is None or ctx.structure[0] != "amalg":
        return
    am = ctx.structure[1]
    h1_ideals = tuple(A for A in all_ideals(am.h1) if A.is_proper())
    h1_mcs = []
    seen = set()
    for gens in [()] + [(g,) for g in am.h1.elements()]:
        S = mcs_generate(am.h1, gens)
        if S.members not in seen:
            seen.add(S.members)
            h1_mcs.append(S)
    h1_mcs = sorted(h1_mcs, key=lambda S: (len(S.members), S.sorted_members))[:6]
    for A in h1_ideals:
        for S in h1_mcs:
            if S.members & A.members:
                continue
            results = {}
            hyps = {}
            bad = None
            for direction in (FORWARD, BACKWARD):
                rep = amalg_transfer_check(am, A, S, direction)
                enforced = {
                    k: v for k, v in rep.hypotheses.items() if k not in dropped
                }
                met = all(enforced.values())
                results[direction] = {
                    "hypotheses": rep.hypotheses,
                    "met": met,
                    "base": rep.base_verdict.outcome,
                    "extension": rep.ext_verdict.outcome,
                }
                hyps.update({f"{direction.lower()}_{k}": v for k, v in rep.hypotheses.items()})
                if met and not rep.implication_ok:
                    bad = direction
            evaluated = [d for d in (FORWARD, BACKWARD) if results[d]["met"]]
            outcome = (
                VIOLATION if bad else (VERIFIED if evaluated else VACUOUS)
            )
            yield _record(
                "P3.2",
                ctx,
                outcome,
                annotations={
                    "ideal": A.label(),
                    "mcs": S.label(),
                },
                hypotheses=hyps,
                dropped=dropped,
                detail={"directions": results},
            )


def run_p3_3(ctx, dropped):
    """Trivial-extension equivalence of the three S-r statements."""
    if ctx.structure is None or ctx.structure[0] != "triv":
        return
    T = ctx.structure[1]
    base = T.base
    base_ideals = tuple(A for A in all_ideals(base) if A.is_proper())
    seen = set()
    base_mcs = []
    for gens in [()] + [(g,) for g in base.elements()]:
        S = mcs_generate(base, gens)
        if S.members not in seen:
            seen.add(S.members)
            base_mcs.append(S)
    base_mcs = sorted(base_mcs, key=lambda S: (len(S.members), S.sorted_members))[:6]
    for A in base_ideals:
        for S in base_mcs:
            rep = triv_equivalence_check(T, A, S)
            hyps = dict(rep.hypotheses)
            enforced = {
                k: v
                for k, v in hyps.items()
                if k != "zd_union_in_ann_literal"
                and not (k == "torsion_free" and "torsion_free" in dropped)
                and not (k == "zd_union_in_ann" and "zd_union" in dropped)
                and not (k == "disjoint" and "disjoint" in dropped)
            }
            met = all(enforced.values())
            outcome = (
                VACUOUS
                if not met
                else (VERIFIED if rep.consistent else VIOLATION)
            )
            yield _record(
                "P3.3",
                ctx,
                outcome,
                annotations={"ideal": A.label(), "mcs": S.label()},
                hypotheses=hyps,
                dropped=dropped,
                detail={"pattern": "".join("1" if b else "0" for b in rep.pattern)},
            )


# -- arithmetic-lane runners -----------------------------------------------------------------


def run_arith_t2_12(ctx, dropped):
    A, S = ctx.ideal, ctx.mcs
    prime = A.is_proper() and ar.arith_is_prime(A)
    need_prime = "prime" not in dropped
    if need_prime and not prime:
        yield _record("T2.12", ctx, VACUOUS, annotations=_arith_annot(ctx), hypotheses={"prime": prime}, dropped=dropped)
        return
    v = ar.arith_is_S_r_ideal(A, S, ctx.limits.witness_bound)
    if v.not_applicable and "disjoint" not in dropped:
        yield _record(
            "T2.12",
            ctx,
            VACUOUS,
            annotations=_arith_annot(ctx),
            hypotheses={"prime": prime, "disjoint": False},
            dropped=dropped,
        )
        return
    in_zd = ar.arith_subset_zd(A)
    agree = v.holds == in_zd
    yield _record(
        "T2.12",
        ctx,
        VERIFIED if agree else VIOLATION,
        annotations=_arith_annot(ctx),
        hypotheses={"prime": prime, "disjoint": not v.not_applicable},
        dropped=dropped,
        detail={"s_r": v.holds, "inside_zd": in_zd, "oracle_bound": ctx.limits.oracle_bound},
    )


def run_arith_c_zd(ctx, dropped):
    A, S = ctx.ideal, ctx.mcs
    v = ar.arith_is_S_r_ideal(A, S, ctx.limits.witness_bound)
    if not v.holds:
        yield _record("C-zd", ctx, VACUOUS, annotations=_arith_annot(ctx), dropped=dropped)
        return
    ok = ar.arith_subset_zd(A)
    yield _record(
        "C-zd",
        ctx,
        VERIFIED if ok else VIOLATION,
        annotations=_arith_annot(ctx),
        dropped=dropped,
        detail={"witness": list(v.witness)},
    )


def run_arith_p_zero(ctx, dropped):
    R, S = ctx.ring, ctx.mcs
    zero = ar.ArithIdeal(R, tuple(0 if f == ar.INT else f[1] for f in R.factors))
    v = ar.arith_is_S_r_ideal(zero, S, ctx.limits.witness_bound)
    if v.not_applicable:
        yield _record("P-zero", ctx, VACUOUS, annotations=_arith_annot(ctx, ideal="(0)"), dropped=dropped)
        return
    oracle = ar.arith_oracle_check(zero, S, ctx.limits.oracle_bound)
    ok = v.holds and oracle
    yield _record(
        "P-zero",
        ctx,
        VERIFIED if ok else VIOLATION,
        annotations=_arith_annot(ctx, ideal="(0)"),
        dropped=dropped,
        detail={"witness": list(v.witness) if v.witness else None, "oracle": oracle},
    )


def run_p2_6(ctx, dropped):
    """Failing S-r inside zd produces the two-ideal factorization."""
    A, S = ctx.ideal, ctx.mcs
    v = ar.arith_is_S_r_ideal(A, S, ctx.limits.witness_bound)
    in_zd = ar.arith_subset_zd(A)
    if not (in_zd and v.fails):
        yield _record(
            "P2.6",
            ctx,
            VACUOUS,
            annotations=_arith_annot(ctx),
            hypotheses={"inside_zd": in_zd, "s_r_fails": v.fails},
            dropped=dropped,
        )
        return
    s = v.last_candidate
    w, z = v.counterexample
    sx = ctx.ring.mul(s, z)
    B = ar.arith_colon_element(A, sx)
    K = ar.arith_colon_ideal(A, B)
    conds = {
        "B_meets_regulars": ar.arith_meets_regulars(B),
        "A_strictly_in_B": ar.arith_contains(B, A) and B.descs != A.descs,
        "A_strictly_in_K": ar.arith_contains(K, A) and K.descs != A.descs,
        "BK_in_A": ar.arith_contains(A, ar.arith_product(B, K)),
    }
    ok = all(conds.values())
    yield _record(
        "P2.6",
        ctx,
        VERIFIED if ok else VIOLATION,
        annotations=_arith_annot(ctx),
        hypotheses={"inside_zd": in_zd, "s_r_fails": True},
        dropped=dropped,
        detail={
            "s": list(s),
            "pair": [list(w), list(z)],
            "B": B.label(),
            "K": K.label(),
            **conds,
        },
    )


def run_arith_r_oracle(ctx, dropped):
    """Window confirmation of the closed-form r/S-r verdicts (oracle agreement)."""
    A, S = ctx.ideal, ctx.mcs
    maxdesc = max(
        (d for f, d in zip(A.ring.factors, A.descs) if f == ar.INT), default=0
    )
    bound = max(ctx.limits.oracle_bound, 2 * maxdesc)
    ok_r = ar.arith_oracle_check(A, None, bound)
    ok_s = ar.arith_oracle_check(A, S, bound)
    yield _record(
        "ARITH-oracle",
        ctx,
        VERIFIED if (ok_r and ok_s) else VIOLATION,
        annotations=_arith_annot(ctx),
        dropped=dropped,
        detail={"r_confirmed": ok_r, "s_r_confirmed": ok_s, "bound": bound},
    )


def _arith_annot(ctx, ideal=None):
    return {"ideal": ideal or ctx.ideal.label(), "mcs": ctx.mcs.label()}


# -- polynomial-lane runners ------------------------------------------------------------------


def run_t4_1(ctx, dropped):
    """Zero-divisor-annihilator gate for content ideals, S inside regulars."""
    R = ctx.ring
    gate = cl.has_property_A(R)
    need_reg = "s_regular" not in dropped
    D = ctx.search_degree()
    for A in ctx.proper_ideals():
        for S in ctx.poly_mcs_list():
            s_regular = S.members <= R.regulars
            if need_reg and not s_regular:
                continue
            if S.members & A.members:
                continue
            base = ctx.s_r(A, S)
            search = bounded_S_r_search(PolyIdealSpec.content(A), S, D)
            coherent = (base.holds and search.outcome == NO_VIOLATION_UP_TO) or (
                base.fails and search.outcome == NO
            )
            outcome = (
                VERIFIED
                if (gate.holds and coherent)
                else (VACUOUS if not gate.holds else VIOLATION)
            )
            if base.fails and search.outcome == NO_VIOLATION_UP_TO:
                # counterexample may live above the bound; flagged, not failed
                outcome = VACUOUS
            yield _record(
                "T4.1",
                ctx,
                outcome,
                annotations={"ideal": ctx.ideal_label(A), "mcs": ctx.mcs_label(S), "degree": D},
                hypotheses={"property_a": gate.holds, "s_regular": s_regular},
                dropped=dropped,
                detail={
                    "base": base.outcome,
                    "search": search.outcome,
                    **({"pair": [search.pair[0].text(), search.pair[1].text()]} if search.pair else {}),
                },
            )


def run_t4_2(ctx, dropped):
    """Finite-annihilator-condition gate for content ideals, any S."""
    R = ctx.ring
    gate = cl.has_fac(R, ctx.limits.fac_cap)
    D = ctx.search_degree()
    for A in ctx.proper_ideals():
        for S in ctx.poly_mcs_list():
            if S.members & A.members:
                continue
            verdict = decide_content_S_r(A, S, D, ctx.limits.fac_cap)
            base = ctx.s_r(A, S)
            if not gate.holds:
                yield _record(
                    "T4.2",
                    ctx,
                    VACUOUS,
                    annotations={"ideal": ctx.ideal_label(A), "mcs": ctx.mcs_label(S), "degree": D},
                    hypotheses={"fac": False, "fac_cap": ctx.limits.fac_cap},
                    dropped=dropped,
                    detail={"decided": verdict.outcome, "gate": verdict.gate},
                )
                continue
            coherent = (base.holds and verdict.outcome == YES_BY_THEOREM) or (
                base.fails and verdict.outcome == NO
            )
            yield _record(
                "T4.2",
                ctx,
                VERIFIED if coherent else VIOLATION,
                annotations={"ideal": ctx.ideal_label(A), "mcs": ctx.mcs_label(S), "degree": D},
                hypotheses={"fac": True, "fac_cap": ctx.limits.fac_cap},
                dropped=dropped,
                detail={"base": base.outcome, "decided": verdict.outcome, "gate": verdict.gate},
            )


def run_dm(ctx, dropped):
    """Content-product identity over seeded random pairs."""
    checked, failure = dedekind_mertens_sweep(
        ctx.ring, ctx.limits.dm_pairs, ctx.limits.dm_seed
    )
    yield _record(
        "DM",
        ctx,
        VERIFIED if failure is None else VIOLATION,
        annotations={"pairs": ctx.limits.dm_pairs, "seed": ctx.limits.dm_seed},
        dropped=dropped,
        detail={
            "checked": checked,
            **({"failure": [failure[0].text(), failure[1].text()]} if failure else {}),
        },
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
        TheoremCase("P-sidem", "scaled-idempotent spans are S-r", (FINITE,), ("disjoint",), run_p_sidem),
        TheoremCase("P-suz", "all disjoint ideals S-r iff S-uz-ring", (FINITE,), (), run_p_suz),
        TheoremCase("P-suzmax", "S-uz iff disjoint primes S-r iff maximals S-r", (FINITE,), ("max_disjoint",), run_p_suzmax),
        TheoremCase("L3.1", "isomorphisms transport annihilators", (FINITE,), (), run_l3_1),
        TheoremCase("P3.2", "S-r transfer across amalgamations", (FINITE, AMALGZ), ("epimorphism", "h1_domain", "j_in_zd", "isomorphism"), run_p3_2),
        TheoremCase("P3.3", "trivial-extension three-way equivalence", (FINITE,), ("torsion_free", "zd_union", "disjoint"), run_p3_3),
        TheoremCase("T4.1", "content ideals: gate via zero-divisor annihilators", (POLY,), ("s_regular",), run_t4_1),
        TheoremCase("T4.2", "content ideals: gate via the finite annihilator condition", (POLY,), (), run_t4_2),
        TheoremCase("DM", "content-product identity on seeded pairs", (POLY,), (), run_dm),
        TheoremCase("DEGEN", "finite rings: uz + every proper ideal is r", (FINITE,), (), run_degen),
        TheoremCase("ARITH-oracle", "window oracle confirms the closed forms", (ARITH,), (), None, run_arith_r_oracle),
    )
}

DEFAULT_IDS = tuple(i for i in CASES if i != "ARITH-oracle") + ("ARITH-oracle",)


def _run_entry(entry, ids, dropped, limits, timings=False):
    import time

    ctx = build_context(entry, limits)
    records = []
    mark = time.perf_counter()
    for tid in ids:
        case = CASES[tid]
        if ctx.kind not in case.scopes:
            continue
        if ctx.kind in (ARITH, AMALGZ) and case.arith_runner is not None:
            runner = case.arith_runner
        elif ctx.kind == ARITH and case.arith_runner is None:
            continue
        else:
            runner = case.runner
        if runner is None:
            continue
        for rec in runner(ctx, dropped):
            if timings:
                now = time.perf_counter()
                rec["millis"] = int((now - mark) * 1000)
                mark = now
            records.append(rec)
    return records


def _worker(args):
    index, entry, ids, dropped_t, limits, timings = args
    return index, _run_entry(entry, ids, frozenset(dropped_t), limits, timings)


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
    for tid in ids:
        if tid not in CASES:
            raise UnknownTheorem(tid)
    dropped = frozenset(dropped)
    for tid in ids:
        for h in dropped:
            if h not in CASES[tid].hypotheses:
                raise UnknownHypothesis(f"{tid} has no hypothesis {h!r}")
    tasks = [
        (i, entry, ids, tuple(sorted(dropped)), corpus.limits, timings)
        for i, entry in enumerate(corpus.entries)
    ]
    if jobs > 1:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            results = pool.map(_worker, tasks, chunksize=1)
        results.sort(key=lambda pair: pair[0])
        batches = [records for _, records in results]
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
    if theorem_id not in CASES:
        raise UnknownTheorem(theorem_id)
    case = CASES[theorem_id]
    drop = frozenset(drop)
    for h in drop:
        if h not in case.hypotheses:
            raise UnknownHypothesis(f"{theorem_id} has no hypothesis {h!r}")
    return verify(
        (theorem_id,),
        corpus,
        jobs=jobs,
        dropped=drop,
        expected_violations=True,
        timings=timings,
    )
