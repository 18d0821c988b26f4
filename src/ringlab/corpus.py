"""Corpus management: entry grammar, the default corpus, and run limits.

A corpus file holds one entry per line:

    <ring-expr> [; ideal=<gens-or-descriptors>] [; mcs=<gens-or-descriptors>]

Blank lines and lines starting with # are skipped.  Reading a line parses
its expression once (`dsl.parse`), and the entry keeps the tree and its
kind, the lane `dsl.lane` reads from the tree; the entry's ring is built
from the tree by ``registry.build_context``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import config, dsl
from .dsl import AMALGZ, ARITH, FINITE, POLY, split_top  # the lane names, which entry kinds use
from .errors import ConfigError, ParseError


@dataclass(frozen=True)
class Limits:
    degree: int = config.DEFAULT_DEGREE
    fac_cap: int = config.FAC_SUBSET_CAP
    dm_pairs: int = config.DM_PAIRS
    dm_seed: int = config.DM_SEED
    oracle_bound: int = config.ARITH_ORACLE_BOUND
    annotation_cap: int = config.ANNOTATION_CAP
    mcs_cap: int = config.MCS_CANDIDATE_CAP
    subsample_seed: int = config.SUBSAMPLE_SEED

    def __post_init__(self):
        """Refuse a negative degree, cap, bound or pair count, and an m.c.s. cap below the
        two sets that are always kept (the units and the whole ring); the seeds may be any integer."""
        for name in ("degree", "fac_cap", "dm_pairs", "oracle_bound", "annotation_cap", "mcs_cap"):
            value = getattr(self, name)
            least = 2 if name == "mcs_cap" else 0
            if value < least:
                raise ConfigError(f"{name}={value}: expected {least} or more")

    @staticmethod
    def defaults() -> "Limits":
        return Limits()


@dataclass(frozen=True)
class CorpusEntry:
    text: str
    kind: str
    expr: str  # the ring expression; a poly entry's is its base ring
    tree: tuple  # the expression's `dsl.parse` tree
    ideal_text: str = None
    mcs_text: str = None


@dataclass(frozen=True)
class CorpusSpec:
    entries: tuple
    limits: Limits


def parse_corpus_line(line: str):
    body = line.split("#", 1)[0].strip()
    if not body:
        return None
    parts = [p.strip() for p in split_top(body, ";")]
    expr = parts[0]
    notes = {}
    for extra in filter(None, parts[1:]):
        key, eq, value = extra.partition("=")
        key = key.strip()
        if not eq or key not in ("ideal", "mcs"):
            raise ParseError(f"unknown annotation {extra!r}")
        if key in notes or not value.strip():
            raise ParseError(f"{'repeated' if key in notes else 'empty'} annotation {extra!r}")
        notes[key] = value.strip()
    tree = dsl.parse(expr)
    kind = dsl.lane(tree)
    if kind != FINITE:  # a finite entry keeps its expression as written; a poly entry's is its base, without spaces
        expr = dsl.show(tree[1]).replace(" ", "") if kind == POLY else dsl.show(tree)
    text = f"polyring({expr})" if kind == POLY else expr
    text += "".join(f" ; {key}={notes[key]}" for key in ("ideal", "mcs") if key in notes)
    return CorpusEntry(text=text, kind=kind, expr=expr, tree=tree, ideal_text=notes.get("ideal"), mcs_text=notes.get("mcs"))


def load_corpus(path, limits: Limits = Limits()) -> CorpusSpec:
    """Read a corpus file; one that cannot be read, or is not UTF-8, is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read corpus {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"corpus {path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    entries = []
    for line in lines:
        entry = parse_corpus_line(line)
        if entry is not None:
            entries.append(entry)
    return CorpusSpec(tuple(entries), limits)


def default_corpus(limits: Limits = Limits()) -> CorpusSpec:
    """The standard verification corpus.

    Finite part: Z_n for n <= 30, products Z_a x Z_b with ab <= 64 (taken
    with a <= b; the swapped product is isomorphic), a family of proper
    quotients, small trivial extensions, and the two finite amalgamation
    cases.  The arithmetic and polynomial entries carry the classical
    examples that finite rings cannot express.
    """
    lines = []
    for n in range(1, 31):
        lines.append(f"Z{n}")
    for a in range(2, 9):
        for b in range(a, 65):
            if a * b <= 64:
                lines.append(f"Z{a} x Z{b}")
    for n, ds in ((4, (2,)), (6, (2, 3)), (8, (2, 4)), (9, (3,)), (12, (2, 3, 4, 6)), (16, (2, 4, 8))):
        for d in ds:
            lines.append(f"Z{n}/({d})")
    lines += [
        "triv(Z2, free(1))",
        "triv(Z2, free(2))",
        "triv(Z3, free(1))",
        "triv(Z3, free(2))",
        "triv(Z4, quot(2))",
        "amalg(Z4, Z4, id, (2))",
        "amalg(Z2 x Z2, Z2 x Z2, id, ((1,0)))",
        "amalg(Z2, Z2, id, (0))",
        # arithmetic lane: the Z and Z x Z examples, plus combinations that
        # exercise the failing branches (prime non-r ideals, non-S-r ideals)
        "Z ; ideal=(0) ; mcs=(units)",
        "Z ; ideal=(0) ; mcs=(all)",
        "Z ; ideal=(3) ; mcs=(units)",
        "Z ; ideal=(3) ; mcs=({1,-1})",
        "Z ; ideal=(6) ; mcs=(units)",
        "Z x Z ; ideal=(0,2) ; mcs=(units,all)",
        "Z x Z ; ideal=(0,2) ; mcs=(units,units)",
        "Z x Z ; ideal=(0,1) ; mcs=(units,units)",
        "Z x Z ; ideal=(2,2) ; mcs=(units,units)",
        "Z x Z ; ideal=(0,4) ; mcs=(units,{1,-1})",
        "Z x Z4 ; ideal=(3,2) ; mcs=(units,units)",
        # infinite amalgamation family
        "amalgZ(4, 2) ; mcs=(units)",
        "amalgZ(6, 3) ; mcs=(units)",
        "amalgZ(6, 2) ; mcs=({1,-1})",
        "amalgZ(9, 3) ; mcs=(units)",
        # polynomial-ring entries
        "polyring(Z2)",
        "polyring(Z3)",
        "polyring(Z6)",
        "polyring(Z12)",
    ]
    entries = tuple(parse_corpus_line(line) for line in lines)
    return CorpusSpec(entries, limits)
