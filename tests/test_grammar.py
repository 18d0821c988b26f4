"""One expression grammar: each corpus line and CLI ring is parsed once, into a tree,
and the tree picks the lane that builds it."""

import hashlib
import json
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from ringlab import dsl
from ringlab.corpus import AMALGZ, ARITH, FINITE, POLY, Limits, default_corpus, parse_corpus_line
from ringlab.dsl import lane, parse, parse_ring, show
from ringlab.errors import ParseError
from ringlab.registry import build_context
from test_registry import HUNT_LINES, MINI_LINES, _generated_lines

# sha256 of the JSON list of [kind, text, expr] over every default-corpus entry, then
# every `_generated_lines` line (arithmetic first), `HUNT_LINES` and `MINI_LINES`; taken
# from the parser that chose a line's lane by its spelling, before the tree replaced it
ENTRY_TEXT_PIN = "b0d3ddf24fbd340ba897d48c2337d2a00c74d1132d4c81d7fc8b89a8bd213bf8"


def _all_entries():
    arith, finite = _generated_lines()
    lines = arith + finite + HUNT_LINES + MINI_LINES
    return list(default_corpus().entries) + [parse_corpus_line(line) for line in lines]


def test_entry_text_bytes_are_pinned():
    """A finite entry keeps its expression as written, a poly entry drops every space, an
    arith entry joins its factors with " x " and an amalgZ entry prints amalgZ(n,d)."""
    entries = _all_entries()
    assert len(entries) == 150 + 1134 + len(HUNT_LINES) + len(MINI_LINES)
    blob = json.dumps([[e.kind, e.text, e.expr] for e in entries]).encode()
    assert hashlib.sha256(blob).hexdigest() == ENTRY_TEXT_PIN


def test_show_writes_text_that_parses_to_the_same_tree():
    for entry in _all_entries():
        assert parse(show(entry.tree)) == entry.tree, entry.text


def test_trees_pickle_and_compare_by_value():
    for entry in default_corpus().entries:
        assert pickle.loads(pickle.dumps(entry)) == entry
    assert parse("( Z2 x Z3 )/((1,0))") == ("/", ("x", ("Z", 2), ("Z", 3)), "(1,0)")
    assert parse("amalg(Z4, Z4/(2), proj, (1+(2)))") == ("amalg", ("Z", 4), ("/", ("Z", 4), "2"), "proj", "(1+(2))")


GENS = st.sampled_from(["0", "2", "1,2", "(1,0)", "2+(4)"])
ATOMS = st.one_of(st.just(("Z",)), st.integers(0, 40).map(lambda n: ("Z", n)))


def _nodes(inner):
    return st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda fs: ("x", *fs)),
        st.tuples(inner, GENS).map(lambda t: ("/", *t)),
        st.tuples(inner, st.one_of(st.integers(0, 3).map(lambda k: ("free", k)), GENS.map(lambda g: ("quot", g)))).map(
            lambda t: ("triv", *t)
        ),
        st.tuples(inner, GENS).map(lambda t: ("amalg", t[0], t[0], "id", f"({t[1]})")),
        st.tuples(inner, GENS).map(lambda t: ("amalg", t[0], ("/", t[0], t[1]), "proj", f"({t[1]})")),
        st.tuples(inner, st.sampled_from(["S<2>", "5"])).map(lambda t: ("loc", *t)),
        inner.map(lambda t: ("polyring", t)),
        st.tuples(st.integers(-9, 99), st.integers(-9, 99)).map(lambda t: ("amalgZ", *t)),
    )


def _ring_nodes(tree):
    yield tree
    subs = {"x": tree[1:], "amalg": tree[1:3], "/": tree[1:2], "triv": tree[1:2], "loc": tree[1:2], "polyring": tree[1:2]}
    for sub in subs.get(tree[0], ()):
        yield from _ring_nodes(sub)


def _reference_lane(tree):
    """The lane rule read off the list of a tree's nodes; None where no lane builds it."""
    if tree[0] == "amalgZ":
        return AMALGZ
    if tree[0] == "polyring":
        return POLY if _reference_lane(tree[1]) == FINITE else None
    nodes = list(_ring_nodes(tree))
    if any(n[0] in ("polyring", "amalgZ") for n in nodes):
        return None
    if ("Z",) in nodes:
        return ARITH if all(n[0] in ("x", "Z") for n in nodes) else None
    return FINITE


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.recursive(ATOMS, _nodes, max_leaves=6))
@example(("x", ("Z",), ("/", ("Z", 4), "2")))
@example(("polyring", ("x", ("Z", 2), ("Z",))))
def test_generated_trees_show_parse_back_and_take_the_reference_lane(tree):
    """`show` writes text that parses back to the same tree, and `lane` agrees with a
    reference that lists the nodes: a tree no lane builds is one ParseError."""
    assert parse(show(tree)) == tree
    want = _reference_lane(tree)
    if want is None:
        with pytest.raises(ParseError, match="cannot stand inside"):
            lane(tree)
    else:
        assert lane(tree) == want


@pytest.mark.parametrize(
    "line,kind",
    [
        ("Z6", FINITE),
        ("(Z2 x Z2)/((1,0))", FINITE),
        ("Z", ARITH),
        ("(Z x Z4)", ARITH),
        ("(Z x Z) x Z4", ARITH),
        ("polyring(Z2 x Z3)", POLY),
        ("(polyring(Z2))", POLY),
        ("amalgZ(6, 3)", AMALGZ),
    ],
)
def test_the_tree_picks_the_lane(line, kind):
    assert lane(parse(line)) == kind


@pytest.mark.parametrize(
    "line,message",
    [
        ("polyring(Z2) x polyring(Z3)", "'polyring(Z2)' cannot stand inside 'polyring(Z2) x polyring(Z3)'"),
        ("triv(Z, free(1))", "'Z' cannot stand inside 'triv(Z,free(1))'"),
        ("loc(Z, S<2>)", "'Z' cannot stand inside 'loc(Z,S<2>)'"),
        ("polyring(Z x Z4)", "'Z x Z4' cannot stand inside 'polyring(Z x Z4)'"),
        ("Z x triv(Z2, free(1))", "'triv(Z2,free(1))' cannot stand inside 'Z x triv(Z2,free(1))'"),
        ("Z4 x amalgZ(4, 2)", "'amalgZ(4,2)' cannot stand inside 'Z4 x amalgZ(4,2)'"),
    ],
)
def test_a_mix_no_lane_builds_is_one_parse_error_naming_the_subtree(line, message):
    """Read as a corpus line or as a CLI ring, the same error names the subtree."""
    rule = "Z stands only in a product of Z and Z<n> atoms, and polyring and amalgZ only alone"
    for read in (parse_corpus_line, parse_ring):
        with pytest.raises(ParseError) as caught:
            read(line)
        assert str(caught.value) == f"{message}: {rule}"


LANE_LINES = [
    "Z2 x Z3 ; ideal=(1,0)",
    "amalg(Z4, Z4/(2), proj, (1+(2)))",
    "loc(Z12, S<2>) x triv(Z2, quot(0)) ; mcs=1",
    "Z x Z4 ; ideal=(3,2) ; mcs=(units,units)",
    "polyring(Z6) ; mcs=5",
    "amalgZ(6, 2) ; mcs=({1,-1})",
]


def test_each_entry_is_parsed_once(monkeypatch):
    """One `dsl.parse` per corpus line and none while the contexts of the four lanes are
    built: resolving generator labels against a built ring is not an expression parse."""
    calls = []
    real = dsl.parse
    monkeypatch.setattr(dsl, "parse", lambda text: calls.append(text) or real(text))
    entries = [parse_corpus_line(line) for line in LANE_LINES]
    assert len(calls) == len(LANE_LINES)
    assert {e.kind for e in entries} == {FINITE, ARITH, POLY, AMALGZ}
    calls.clear()
    for entry in entries:
        build_context(entry, Limits.defaults())
    assert calls == []


def test_parse_ring_reads_text_or_tree():
    tree = parse("triv(Z4, quot(2)) x Z3")
    assert parse_ring(tree).recipe == parse_ring("triv(Z4, quot(2)) x Z3").recipe
    with pytest.raises(ParseError, match="'Z x Z4' is not a finite ring"):
        parse_ring("Z x Z4")


def test_cli_classify_decides_a_ring_with_a_z_factor(capsys):
    from ringlab.cli import main

    assert main(["classify", "ZxZ4", "--ideal", "2,1", "--mcs", "units,units"]) == 0
    assert capsys.readouterr().out == (
        "ring       Z x Z4\n"
        "ideal      (2,1)\n"
        "r-ideal    Fails  counterexample=((2,1),(1,0))\n"
        "prime      yes\n"
        "mcs        (units,units)\n"
        "S-r-ideal  Fails  counterexample=((2,1),(1,0))\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (["ideals", "ZxZ4"], "the ideal lattice of a ring with a Z factor is not listed: 'Z x Z4'"),
        (["classify", "Z", "--all-predicates"], "--all-predicates needs a finite ring, and 'Z' has a Z factor"),
        (["classify", "triv(Z,free(1))"], "'Z' cannot stand inside 'triv(Z,free(1))'"),
        (["localize", "polyring(Z2)"], "'polyring(Z2)' is not a finite ring"),
    ],
)
def test_cli_refuses_what_its_lane_does_not_build(capsys, argv, message):
    from ringlab.cli import main

    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
