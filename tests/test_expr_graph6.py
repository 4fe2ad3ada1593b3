import random
import re

import pytest

from forbpairs import catalog
from forbpairs.canon import isomorphic
from forbpairs.expr import (
    Atom,
    Complement,
    ExprError,
    Multiple,
    Union,
    eval_expr,
    graph_from_expr,
    parse_expr,
)
from forbpairs.graph6 import Graph6Error, decode_graph6, encode_graph6
from forbpairs.graphs import build
from forbpairs.harness import generate_upto


def test_parse_shapes():
    assert parse_expr("2K1+K2") == Union(Multiple(2, Atom("K", (1,))), Atom("K", (2,)))
    assert parse_expr("co(K3+P4)") == Complement(Union(Atom("K", (3,)), Atom("P", (4,))))
    assert parse_expr("K1,3") == Atom("K", (1, 3))
    assert parse_expr(" K1 + P3 ") == Union(Atom("K", (1,)), Atom("P", (3,)))
    assert parse_expr("K64") == Atom("K", (64,))
    assert parse_expr("K32,32") == Atom("K", (32, 32))


@pytest.mark.parametrize("bad", [
    "", "K", "P0", "C2", "0K3", "K3+", "co K3", "co(K3", "Z3", "foo", "K3)",
    "2co(K3)", "K3,", "+K3",
])
def test_parse_rejects(bad):
    with pytest.raises(ExprError):
        parse_expr(bad)


def test_parse_error_messages():
    """A union ends at its first other character: inside co(...) that
    must be ')', at the top level the end of the text.  A K, P or C atom
    above the 64-vertex cap fails at the atom, before any edge list is
    built."""
    for text, message, pos in [
        ("co(K3", "expected ')'", 5),
        ("co(K1+K2 K3)", "expected ')'", 9),
        ("K3)", "unexpected trailing input", 2),
        ("co(K3))", "unexpected trailing input", 6),
        ("K65", "K65 exceeds the 64-vertex cap", 0),
        ("K40,25", "K40,25 exceeds the 64-vertex cap", 0),
        ("P65", "P65 exceeds the 64-vertex cap", 0),
        ("C65", "C65 exceeds the 64-vertex cap", 0),
        ("K1+ C65", "C65 exceeds the 64-vertex cap", 4),
    ]:
        with pytest.raises(ExprError, match=re.escape(message)) as info:
            parse_expr(text)
        assert info.value.pos == pos, text


def test_parse_fuzz_never_crashes():
    rng = random.Random(4)
    seeds = ["2K1+K2", "co(K3+P4)", "K1,3", "chair", "3Z1+co(P5)", "gem"]
    alphabet = "KPCZDco()+,0123456789chairgem "
    for _ in range(800):
        s = list(rng.choice(seeds))
        for _ in range(rng.randint(1, 4)):
            op = rng.randrange(3)
            if op == 0:
                s.insert(rng.randrange(len(s) + 1), rng.choice(alphabet))
            elif s and op == 1:
                del s[rng.randrange(len(s))]
            elif s:
                s[rng.randrange(len(s))] = rng.choice(alphabet)
        text = "".join(s)
        try:
            graph_from_expr(text)
        except (ExprError, ValueError):
            pass


def test_eval_examples():
    g = graph_from_expr("co(K1+P4)")
    assert (g.n, g.edge_count()) == (5, 7)
    assert graph_from_expr("3K1").edge_count() == 0
    ch = graph_from_expr("chair")
    assert (ch.n, ch.edge_count()) == (5, 4)
    assert isomorphic(ch, catalog.chair())
    with pytest.raises(ValueError):
        graph_from_expr("65K1")


def test_catalog_names_match_direct_constructions():
    # paw: a triangle plus a pendant edge
    z1 = build(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    assert isomorphic(graph_from_expr("Z1"), z1)
    z2 = build(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)])
    assert isomorphic(graph_from_expr("Z2"), z2)
    d = build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert isomorphic(graph_from_expr("D"), d)
    gem = build(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)])
    assert isomorphic(graph_from_expr("gem"), gem)


def test_recognize_round_trip_parametric():
    for k in range(1, 11):
        for s, tag in [
            (f"{k}K1", "kK1"),
            (f"K{k}", "Kn"),
            (f"P{k}", "Pn"),
            (f"C{k}", "Cn"),
            (f"{k}K1+K2", "kK1_plus_K2"),
            (f"co({k}K1+K2)", "co_kK1_plus_K2"),
        ]:
            try:
                g = graph_from_expr(s)
            except ValueError:
                continue  # parameters outside catalog bounds (P0, C2, ...)
            form = catalog.recognize(g)
            assert isomorphic(catalog.named_graph(form), g), s


def test_recognize_aliases_and_priority():
    r = catalog.recognize
    assert str(r(graph_from_expr("6K1"))) == "kK1(6)"
    assert str(r(graph_from_expr("3K1+K2"))) == "kK1_plus_K2(3)"
    assert str(r(graph_from_expr("co(3K1+K2)"))) == "co_kK1_plus_K2(3)"
    assert str(r(graph_from_expr("C3"))) == "Kn(3)"
    assert str(r(graph_from_expr("P2"))) == "Kn(2)"
    assert str(r(graph_from_expr("C4"))) == "CompleteMultipartite(2,2)"
    assert str(r(graph_from_expr("K1,3"))) == "CompleteMultipartite(1,3)"
    assert str(r(graph_from_expr("D"))) == "D"
    assert str(r(graph_from_expr("chair"))) == "K13plus"
    assert str(r(graph_from_expr("C7"))) == "Cn(7)"
    assert str(r(graph_from_expr("P5"))) == "Pn(5)"


def test_graph6_hand_packed():
    assert encode_graph6(graph_from_expr("K3")) == "Bw"
    assert encode_graph6(graph_from_expr("C5")) == "Dhc"
    assert decode_graph6("Bw") == graph_from_expr("K3")


def test_graph6_round_trip_exhaustive():
    for g in generate_upto(7):
        assert decode_graph6(encode_graph6(g)) == g


@pytest.mark.parametrize("bad", ["", "~", "B", "Bww", "D\x1f?", "Bw extra"])
def test_graph6_rejects(bad):
    with pytest.raises(Graph6Error):
        decode_graph6(bad)
