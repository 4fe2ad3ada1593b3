import random

import pytest

from forbpairs import catalog
from forbpairs.canon import isomorphic
from forbpairs.expr import graph_from_expr as G
from forbpairs.graphs import (
    build,
    chromatic_number,
    disjoint_union,
    is_bipartite,
    is_connected,
    is_cycle,
    max_clique,
)
from forbpairs.harness import generate_graphs
from forbpairs.induced import is_free
from forbpairs.structure import (
    COMPLETE_MULTIPARTITE,
    TRIANGLE_FREE,
    VIOLATION,
    LemmaContradiction,
    PreconditionError,
    bipartite_matching,
    indep5_classify,
    blowup_classify,
    peel_colour,
    olariu_decompose,
)
from forbpairs.twins import blow_up


def test_olariu_examples():
    (rep,) = olariu_decompose(G("C7"))
    assert rep.tag == TRIANGLE_FREE
    (rep,) = olariu_decompose(G("K2,2,2"))
    assert rep.tag == COMPLETE_MULTIPARTITE
    (rep,) = olariu_decompose(G("C6"))
    assert rep.tag == TRIANGLE_FREE
    (rep,) = olariu_decompose(G("K2,3"))
    assert rep.tag == COMPLETE_MULTIPARTITE
    # one multipartite component and one other, with their vertex masks
    reps = olariu_decompose(disjoint_union(G("K3"), G("C7")))
    assert [r.tag for r in reps] == [COMPLETE_MULTIPARTITE, TRIANGLE_FREE]
    assert [r.vertices.bit_count() for r in reps] == [3, 7]
    (rep,) = olariu_decompose(G("Z1"))
    assert rep.tag == VIOLATION and rep.witness is not None
    # witness is an induced paw in the original labelling
    g = disjoint_union(G("C6"), G("Z1"))
    reps = olariu_decompose(g)
    assert [r.tag for r in reps] == [TRIANGLE_FREE, VIOLATION]
    w = reps[1].witness
    sub = build(4, [(i, j) for i in range(4) for j in range(i + 1, 4)
                    if g.adj(w[i], w[j])])
    assert isomorphic(sub, G("Z1"))


def test_olariu_soundness_exhaustive():
    """Connected paw-free graphs are triangle-free or complete multipartite."""
    count = 0
    for n in range(1, 10):
        for g in generate_graphs(n, [catalog.paw()]):
            if not is_connected(g):
                continue
            count += 1
            for rep in olariu_decompose(g):
                assert rep.tag != VIOLATION
    assert count > 1500


def test_indep5_classify():
    assert indep5_classify(G("P12")) == "path"
    assert indep5_classify(G("C12")) == "cycle"
    assert indep5_classify(G("K5,7")) == "complete_bipartite"
    assert indep5_classify(G("C8")) == "not_applicable"  # independence 4
    with pytest.raises(PreconditionError):
        indep5_classify(G("2K2"))  # disconnected
    with pytest.raises(PreconditionError):
        indep5_classify(G("K3"))  # contains K3


def test_indep5_exhaustive_to_11():
    """Lemma about {K1 u K1_3, K3}-free graphs of independence >= 5."""
    k1k13 = disjoint_union(catalog.empty_graph(1), catalog.claw())
    seen_applicable = 0
    for n in range(1, 12):
        for g in generate_graphs(n, [k1k13, catalog.complete(3)]):
            if not is_connected(g):
                continue
            tag = indep5_classify(g)
            if tag != "not_applicable":
                seen_applicable += 1
                assert tag in ("path", "cycle", "complete_bipartite")
    assert seen_applicable > 10


def test_bipartite_observation_exhaustive():
    """Connected {chair, K3}-free graphs other than odd cycles are bipartite."""
    for n in range(1, 10):
        for g in generate_graphs(n, [catalog.chair(), catalog.complete(3)]):
            if not is_connected(g):
                continue
            if g.n % 2 == 1 and is_cycle(g):
                continue
            assert is_bipartite(g)


def test_blowup_classify_examples():
    dec = blowup_classify(G("C5"))
    assert sorted(dec.c5) == [0, 1, 2, 3, 4]
    assert all(t == "on_cycle" for t in dec.vertex_classes.values())
    assert isomorphic(dec.base, G("C5"))

    # blue: attached to three consecutive cycle vertices
    g = build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 4), (5, 0), (5, 1)])
    dec = blowup_classify(g)
    assert dec.vertex_classes[5] == "blue"

    # red: attached to two adjacent cycle vertices
    g = build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 1)])
    dec = blowup_classify(g)
    assert dec.vertex_classes[5] == "red"

    with pytest.raises(PreconditionError):
        blowup_classify(G("C6"))  # no C5
    with pytest.raises(PreconditionError):
        blowup_classify(G("C7"))  # contains 2K1 u K2


def test_blowup_exhaustive_tags():
    """Every off-cycle vertex of a free C5-graph is blue or red (n <= 9)."""
    pats = [catalog.k_k1_plus_k2(2), catalog.gem()]
    from forbpairs.induced import contains_induced

    seen = 0
    for n in range(5, 10):
        for g in generate_graphs(n, pats):
            if contains_induced(g, catalog.cycle(5)) is None:
                continue
            dec = blowup_classify(g)
            seen += 1
            assert set(dec.vertex_classes.values()) <= {"on_cycle", "blue", "red"}
    assert seen > 100


def test_blow_up_identity_and_freeness():
    pats = [catalog.k_k1_plus_k2(2), catalog.gem()]
    base = G("C5")
    assert blow_up(base, [("independent", 1)] * 5) == base
    blown = blow_up(base, [("clique", 3), ("clique", 2)] + [("clique", 1)] * 3)
    assert is_free(blown, pats)


def test_bipartite_matching():
    # complete 3x5: covering matching exists
    edges = [(a, b) for a in range(3) for b in range(5)]
    m = bipartite_matching(3, 5, edges)
    assert m is not None and len(m) == 3
    # an isolated left vertex blocks any covering matching
    assert bipartite_matching(2, 2, [(0, 0), (0, 1)]) is None
    # Hall violated by S = {0, 1}
    assert bipartite_matching(2, 2, [(0, 0), (1, 0)]) is None
    m = bipartite_matching(2, 2, [(0, 0), (0, 1), (1, 0)])
    assert m == [(0, 1), (1, 0)]


def test_peel_colour_clique():
    col, peel = peel_colour(G("K12"), 3, 2)
    assert col.num_colours == 12
    assert col.is_proper(G("K12"))
    assert len(set(col.colours)) == 12
    assert peel.m == 3


def test_peel_colour_rejects():
    # blow-up of P3 by cliques contains a diamond: precondition correctly fails
    b = blow_up(G("P3"), [("clique", 9)] * 3)
    with pytest.raises(PreconditionError):
        peel_colour(b, 3, 2)
    with pytest.raises(PreconditionError):
        peel_colour(G("K8"), 3, 2)  # omega below the threshold
    with pytest.raises(PreconditionError):
        peel_colour(G("K12"), 2, 2)
    # K_{3,3,3,3} carries an induced diamond; the checker returns the witness
    with pytest.raises(PreconditionError) as info:
        peel_colour(G("K3,3,3,3"), 3, 2)
    assert info.value.witness is not None
    idx, emb = info.value.witness
    assert idx == 1 and len(emb) == 4


def test_peel_colour_structured_instances():
    rng = random.Random(101)
    for _ in range(30):
        sizes = sorted((rng.randint(1, 12) for _ in range(rng.randint(1, 3))),
                       reverse=True)
        sizes[0] = max(sizes[0], 9)
        g = catalog.complete(sizes[0])
        for s in sizes[1:]:
            g = disjoint_union(g, catalog.complete(s))
        col, _ = peel_colour(g, 3, 2)
        assert col.num_colours == max_clique(g) == chromatic_number(g)
        assert col.is_proper(g)
