import pytest

from ringlab.arith import INT, mod_factor
from ringlab.corpus import parse_corpus_line
from ringlab.dsl import (
    parse_arith_ideal,
    parse_arith_mcs,
    parse_arith_ring,
    parse_element,
    parse_gens,
    parse_mcs,
    parse_ring,
    split_top,
)
from ringlab.errors import ParseError


def test_split_top_respects_nesting():
    assert split_top("a,b,c", ",") == ["a", "b", "c"]
    assert split_top("(1,0),(0,1)", ",") == ["(1,0)", "(0,1)"]
    assert split_top("f(x,y),z", ",") == ["f(x,y)", "z"]
    with pytest.raises(ParseError):
        split_top("(a,b", ",")


def test_parse_basic_rings():
    assert parse_ring("Z12").size == 12
    assert parse_ring(" Z 12 ".replace(" ", "")).size == 12
    R = parse_ring("Z2 x Z3")
    assert R.size == 6 and R.recipe == "Z2 x Z3"
    assert parse_ring("Z2xZ3").size == 6


def test_parse_quotient_chain():
    R = parse_ring("Z12/(4)")
    assert R.size == 4
    R2 = parse_ring("Z12/(4)/(2+(4))")
    assert R2.size == 2


def test_parse_product_quotient_grouping():
    R = parse_ring("(Z2 x Z2)/((1,0))")
    assert R.size == 2
    # without grouping the quotient binds to the right factor
    R2 = parse_ring("Z2 x Z2/(1)")
    assert R2.size == 2


def test_parse_triv_and_amalg():
    assert parse_ring("triv(Z2, free(1))").size == 4
    assert parse_ring("triv(Z4, quot(2))").size == 8
    assert parse_ring("amalg(Z4, Z4, id, (2))").size == 8
    assert parse_ring("amalg(Z4, Z4/(2), proj, (1+(2)))").size == 8
    with pytest.raises(ParseError):
        parse_ring("amalg(Z4, Z2, id, (0))")


def test_parse_loc():
    R = parse_ring("loc(Z12, S<2>)")
    assert R.size == 3


def test_parse_element_label_first():
    R = parse_ring("Z2 x Z2")
    assert parse_element(R, "(1,0)") == R.labels.index("(1,0)")
    assert parse_element(R, "2") == 2  # bare index fallback
    with pytest.raises(ParseError):
        parse_element(R, "(5,0)")


def test_parse_gens_forms():
    R = parse_ring("Z12")
    assert parse_gens(R, "4,6") == (4, 6)
    assert parse_gens(R, "(4)") == (4,)
    assert parse_gens(R, "") == ()
    P = parse_ring("Z2 x Z2")
    assert parse_gens(P, "(1,0)") == (P.labels.index("(1,0)"),)
    assert parse_gens(P, "((1,0))") == (P.labels.index("(1,0)"),)
    assert parse_gens(P, "(1,0),(0,1)") == (
        P.labels.index("(1,0)"),
        P.labels.index("(0,1)"),
    )


def test_parse_mcs_literal():
    R = parse_ring("Z12")
    S = parse_mcs(R, "S<2>")
    assert S.members == {1, 2, 4, 8}
    assert parse_mcs(R, "5").members == {1, 5}


def test_arith_detection():
    for line in ("Z", "Z x Z", "Z x Z4"):
        assert parse_corpus_line(line).kind == "arith", line
    for line in ("Z2 x Z4", "triv(Z2, free(1))"):
        assert parse_corpus_line(line).kind == "finite", line


def test_parse_arith_ring():
    R = parse_arith_ring("Z x Z4")
    assert R.factors == (INT, mod_factor(4))
    with pytest.raises(ParseError):
        parse_arith_ring("Z x triv(Z2, free(1))")


def test_parse_arith_annotations():
    R = parse_arith_ring("Z x Z")
    A = parse_arith_ideal(R, "(0,2)")
    assert A.descs == (0, 2)
    S = parse_arith_mcs(R, "(units,all)")
    assert S.descs == (("units",), ("all",))
    S2 = parse_arith_mcs(R, "({1,-1},all)")
    assert S2.descs[0] == ("fin", frozenset({1, -1}))
    with pytest.raises(ParseError):
        parse_arith_ideal(R, "(1)")
    with pytest.raises(ParseError):
        parse_arith_mcs(R, "(weird,all)")


def test_corpus_line_parsing():
    entry = parse_corpus_line("Z12 ; ideal=4 ; mcs=2")
    assert entry.kind == "finite"
    assert entry.ideal_text == "4" and entry.mcs_text == "2"
    assert parse_corpus_line("   ") is None
    assert parse_corpus_line("# comment") is None
    arith = parse_corpus_line("Z x Z ; ideal=(0,2) ; mcs=(units,all)")
    assert arith.kind == "arith"
    poly = parse_corpus_line("polyring( Z2 x Z3 ) ; mcs=5")
    assert poly.kind == "poly"
    assert poly.expr == "Z2xZ3" and poly.text == "polyring(Z2xZ3) ; mcs=5"
    az = parse_corpus_line("amalgZ(4, 2) ; mcs=(units)")
    assert az.kind == "amalgz"
    with pytest.raises(ParseError):
        parse_corpus_line("Z12 ; bogus=1")


@pytest.mark.parametrize(
    "spaced,tight",
    [
        ("Z6 ; ideal = (2)", "Z6 ; ideal=(2)"),
        ("Z6 ; mcs = (3)", "Z6 ; mcs=(3)"),
    ],
)
def test_spaces_around_an_annotation_key_are_ignored(spaced, tight):
    from ringlab.corpus import CorpusSpec, Limits
    from ringlab.registry import verify

    entry, want = parse_corpus_line(spaced), parse_corpus_line(tight)
    assert entry == want
    records = [list(verify((), CorpusSpec((e,), Limits.defaults()))) for e in (entry, want)]
    assert records[0] == records[1] and records[0]


def test_bad_expressions():
    for text in ("", "Q8", "Z12/(", "triv(Z2)", "amalg(Z2, Z2, flip, (0))"):
        with pytest.raises(ParseError):
            parse_ring(text)
