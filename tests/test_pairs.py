import itertools
import random

import pytest

from forbpairs.expr import graph_from_expr as G
from forbpairs.graphs import complement, relabel
from forbpairs.pairs import (
    COLLECTIONS,
    NAMED_CLASSES,
    PairSpec,
    classify_pair,
    in_collection,
    theorem_collection,
)


def P(a, b):
    return PairSpec(G(a), G(b))


def test_definition_d1_sporadics():
    assert in_collection(P("3K1", "K3"), "P1")
    assert in_collection(P("3K1", "Z1"), "P1")
    assert in_collection(P("3K1", "D"), "P1")
    assert in_collection(P("K1+P3", "K3"), "P1")
    assert in_collection(P("2K1+K2", "Z1"), "P1")
    assert not in_collection(P("2K1+K2", "D"), "P1")
    assert in_collection(P("2K1+K2", "D"), "O1")


def test_p4_subgraph_clause():
    # one member inside P4 puts the pair in P1 regardless of the other
    for small in ["K1", "2K1", "K2", "K1+K2", "P3", "P4"]:
        assert in_collection(P(small, "C9"), "P1")
    assert not in_collection(P("3K1", "C9"), "P1")  # 3K1 is not inside P4


def test_definition_d2():
    p = P("K1,3", "P5")
    assert in_collection(p, "P2c") and not in_collection(p, "P2")
    p = P("K1,3", "2K2")
    assert in_collection(p, "P2c") and not in_collection(p, "P2")
    # K1uP3 pairs with every induced subgraph of co(K3uP4)
    for s in ["C4", "D", "Z1", "K1,3", "co(K1+P4)", "K2,3", "co(K3+P4)"]:
        assert in_collection(P("K1+P3", s), "P2"), s
    assert not in_collection(P("K1+P3", "C5"), "P2")
    # 3K1 pairs land in P2 through the formal collection I
    assert in_collection(P("3K1", "C7"), "P2")
    assert in_collection(P("3K1", "C7"), "I")
    p = P("chair", "Z1")
    assert in_collection(p, "P3") and not in_collection(p, "P2c")
    for a, b in [("K1,3", "K1+K3"), ("K1,3", "Z2")]:
        assert in_collection(P(a, b), "P4")
        assert not in_collection(P(a, b), "P3")
        assert not in_collection(P(a, b), "P2c")


def test_definition_d2_omega():
    v = classify_pair(P("2K1+K2", "co(K1+P4)"))
    for c in ["O2", "O2c", "O4", "O2plus", "O2cplus", "O4plus"]:
        assert v[c], c
    for c in ["O1", "O3", "P1", "P2", "P2c", "P3", "P4"]:
        assert not v[c], c
    v = classify_pair(P("K1,3", "Z2"))
    assert v["P4"] and v["O4"] and not v["P3"]


def test_definition_d3():
    assert in_collection(P("6K1", "K4"), "R")
    assert in_collection(P("6K1", "K4"), "P1plus")
    assert in_collection(P("4K1", "K3"), "R")
    assert not in_collection(P("3K1", "K4"), "R")  # kK1 needs k >= 4
    assert not in_collection(P("4K1", "K2"), "R")  # K_l needs l >= 3
    assert in_collection(P("3K1+K2", "K3"), "A_P")
    assert not in_collection(P("2K1+K2", "K3"), "A_P")  # k >= 3 required
    assert in_collection(P("2K1+K2", "D"), "A_P")
    assert in_collection(P("3K1", "K5"), "A_1")
    assert in_collection(P("3K1", "co(3K1+K2)"), "A_1")
    assert not in_collection(P("3K1", "K3"), "A_1")  # K_{k+1} needs k >= 3
    assert in_collection(P("K1+K1,3", "Z1"), "A_3")
    v = classify_pair(P("4K1", "Z1"))
    for c in ["A_c", "A_Omega", "P1cplus", "P2cplus", "P3plus", "P4plus",
              "O1plus", "O2plus", "O2cplus", "O3plus", "O4plus"]:
        assert v[c], c
    for c in ["P1", "P2", "P2c", "P3", "P4", "O1", "O2", "O2c", "O3", "O4",
              "P1plus", "P2plus"]:
        assert not v[c], c
    # A_Omega families
    assert in_collection(P("4K1", "D"), "A_Omega")
    assert in_collection(P("3K1+K2", "D"), "A_Omega")
    assert in_collection(P("4K1", "co(3K1+K2)"), "A_Omega")
    assert not in_collection(P("3K1", "co(3K1+K2)"), "A_Omega")  # kK1 needs k >= 4


def test_symmetry_and_relabelling():
    rng = random.Random(3)
    exprs = ["3K1", "K3", "Z1", "K1,3", "P5", "2K1+K2", "D", "co(K1+P4)", "C5"]
    for a, b in itertools.combinations(exprs, 2):
        va = classify_pair(P(a, b))
        vb = classify_pair(P(b, a))
        assert va == vb
        x, y = G(a), G(b)
        px = list(range(x.n))
        rng.shuffle(px)
        assert classify_pair(PairSpec(relabel(x, px), y)) == va


def test_lattice_containments():
    containments = [
        ("P1", "O1"), ("P1", "P2"), ("P2", "P2c"), ("P2c", "P4"),
        ("P1", "P3"), ("P3", "P4"), ("P2", "O2"), ("P2c", "O2c"),
        ("P3", "O3"), ("P4", "O4"), ("O1", "O2"), ("O1", "O3"),
        ("O2", "O2c"), ("O2c", "O4"), ("O3", "O4"),
        ("P1", "P1plus"), ("P1plus", "P1cplus"), ("P2", "P2plus"),
        ("P2c", "P2cplus"), ("P3", "P3plus"), ("P4", "P4plus"),
        ("O1", "O1plus"), ("O2", "O2plus"), ("O2c", "O2cplus"),
        ("O3", "O3plus"), ("O4", "O4plus"),
        ("R", "A_P"), ("A_P", "A_Omega"), ("A_c", "A_Omega"),
        ("A_P", "P1plus"), ("A_1", "P1plus"), ("A_c", "P1cplus"),
        ("A_3", "P3plus"), ("A_Omega", "O1plus"), ("I", "P2"),
    ]
    exprs = ["3K1", "4K1", "6K1", "K3", "K4", "K6", "Z1", "Z2", "D", "K1,3",
             "chair", "P4", "P5", "2K2", "K1+P3", "K1+K3", "K1+K1,3",
             "2K1+K2", "3K1+K2", "4K1+K2", "co(K1+P4)", "co(K3+P4)", "C5",
             "C7", "co(3K1+K2)", "co(4K1+K2)", "K2", "P3", "C4", "K1,4"]
    for a, b in itertools.combinations_with_replacement(exprs, 2):
        v = classify_pair(P(a, b))
        assert v["O1plus"] == v["O1cplus"]
        for lo, hi in containments:
            assert not v[lo] or v[hi], (a, b, lo, hi)


def test_p1_complement_symmetry_exhaustive():
    """{X,Y} in P1 iff the complement pair is, over all pairs on <= 5 vertices."""
    from forbpairs.harness import generate_upto

    small = list(generate_upto(5))
    for x, y in itertools.combinations_with_replacement(small, 2):
        a = in_collection(PairSpec(x, y), "P1")
        b = in_collection(PairSpec(complement(x), complement(y)), "P1")
        assert a == b


def test_theorem_tables():
    assert theorem_collection("Gcalpha", "perfect", False) == "P2c"
    assert theorem_collection("Gco", "omega", True) == "O3plus"
    assert theorem_collection("Go", "perfect", True) == "P1plus"
    for c in ["G5", "Go", "Gc5"]:
        assert theorem_collection(c, "perfect", False) == "P1"
        assert theorem_collection(c, "omega", False) == "O1"
    for c in ["Galpha", "Goalpha"]:
        assert theorem_collection(c, "perfect", False) == "P2"
        assert theorem_collection(c, "perfect", True) == "P2plus"
    assert theorem_collection("Gcoalpha", "omega", False) == "O4"
    assert theorem_collection("Gcoalpha", "omega", True) == "O4plus"
    assert theorem_collection("Gc", "omega", True) == "O1plus"
    with pytest.raises(ValueError):
        theorem_collection("G", "perfect", False)
    with pytest.raises(ValueError):
        theorem_collection("G5", "perfect", True)
    with pytest.raises(ValueError):
        theorem_collection("Gx", "perfect", True)


def test_class_specs():
    g5 = NAMED_CLASSES["G5"]
    assert not g5.contains(G("C5"))
    assert g5.contains(G("C7"))
    go = NAMED_CLASSES["Go"]
    assert not go.contains(G("C7")) and not go.contains(G("K3"))
    assert go.contains(G("C6"))
    gcoa = NAMED_CLASSES["Gcoalpha"]
    assert gcoa.contains(G("C8")) and not gcoa.contains(G("C9"))
    assert not gcoa.contains(G("2K2"))  # disconnected
    assert not gcoa.contains(G("K5"))  # independence 1


def _reference_shapes(g, host_codes):
    """`pairs._shapes` by its definition: an "induced subgraph of" shape
    holds when g's canonical code is among the codes of the host's induced
    subgraphs, `host_codes`."""
    from forbpairs import catalog
    from forbpairs.canon import canonical_code
    from forbpairs.pairs import _ANY, _FAMILIES

    form = catalog.recognize(g)
    shapes = {_ANY, str(form)}
    shapes.update(
        name for name, (tag, least) in _FAMILIES.items()
        if form.tag == tag and form.params[0] >= least
    )
    code = canonical_code(g)
    shapes.update(name for name, codes in host_codes.items() if code in codes)
    return shapes


def test_shapes_match_their_definition():
    """Every graph on 0..7 vertices, in its canonical labelling and shuffled."""
    from forbpairs import catalog
    from forbpairs.canon import canonical_code
    from forbpairs.harness import generate_upto
    from forbpairs.induced import induced_closure
    from forbpairs.pairs import _IN_CO_K3_P4, _IN_P4, _shapes

    host_codes = {
        name: {canonical_code(s) for subs in induced_closure(host).values() for s in subs}
        for name, host in ((_IN_P4, catalog.path(4)), (_IN_CO_K3_P4, catalog.co_k3_p4()))
    }
    rng = random.Random(11)
    graphs = [catalog.empty_graph(0), *generate_upto(7)]
    assert len(graphs) == 1253
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        expected = _reference_shapes(g, host_codes)
        assert _shapes(g) == expected, g
        assert _shapes(relabel(g, perm)) == expected, g
