import itertools
import random

import pytest

from forbpairs.canon import (
    automorphism_generators,
    canonical_code,
    canonical_form,
    canonical_graph,
    isomorphic,
)
from forbpairs.expr import graph_from_expr as G
from forbpairs.graphs import build, complement, relabel
from forbpairs.harness import generate_graphs


def brute_isomorphic(g, h):
    if g.n != h.n:
        return False
    for p in itertools.permutations(range(g.n)):
        if relabel(g, p) == h:
            return True
    return False


def test_spec_examples():
    assert isomorphic(G("C5"), complement(G("C5")))
    assert not isomorphic(G("K1,3"), G("K3+K1"))
    p4a = build(4, [(0, 1), (1, 2), (2, 3)])
    p4b = build(4, [(2, 0), (0, 3), (3, 1)])
    assert isomorphic(p4a, p4b)


def test_codes_partition_exactly_like_isomorphism():
    """Exhaustive check against permutation isomorphism for n <= 5."""
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        graphs = []
        for bits in range(1 << len(pairs)):
            graphs.append(build(n, [pairs[i] for i in range(len(pairs))
                                    if bits >> i & 1]))
        by_code = {}
        for g in graphs:
            by_code.setdefault(canonical_code(g), []).append(g)
        expected = [1, 1, 2, 4, 11, 34][n]
        assert len(by_code) == expected
        for members in by_code.values():
            assert brute_isomorphic(members[0], members[-1])


def test_relabel_invariance_random():
    rng = random.Random(9)
    for _ in range(250):
        n = rng.randint(1, 10)
        g = build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < rng.choice([0.2, 0.5, 0.8])])
        p = list(range(n))
        rng.shuffle(p)
        assert canonical_code(g) == canonical_code(relabel(g, p))


def test_canonical_graph_stable():
    g = G("co(K3+P4)")
    cg = canonical_graph(g)
    assert isomorphic(cg, g)
    assert canonical_graph(cg) == cg
    code, perm = canonical_form(g)
    assert sorted(perm) == list(range(g.n))
    assert canonical_code(cg) == code


def test_symmetric_heavyweights():
    # graphs whose automorphism groups defeat naive backtracking
    for expr in ["K9", "9K1", "K3,3,3", "C9", "3K2", "co(3K2)", "K4,4"]:
        g = G(expr)
        p = list(range(g.n))
        random.Random(1).shuffle(p)
        assert canonical_code(g) == canonical_code(relabel(g, p))


def test_every_labelling_gets_the_same_code():
    """Slow twin of the pruned search: for every graph on at most 6
    vertices, each of the n! labellings h gets the generated graph's code,
    and relabelling h by its canonical order gives the generated graph back.
    (The code is the minimum over the leaves of the refinement tree, not
    over all n! labellings, so it is not compared with that minimum.)"""
    for n in range(7):
        for g in generate_graphs(n):
            code = canonical_code(g)
            for p in itertools.permutations(range(n)):
                h = relabel(g, p)
                h_code, perm = canonical_form(h)
                assert h_code == code and relabel(h, perm) == g, (g, p)


def _generated_group(n, gens):
    """The closure of gens under composition, as vertex -> image tuples."""
    group = frontier = {tuple(range(n))}
    while frontier:
        frontier = {tuple(gamma[x] for x in p) for p in frontier for gamma in gens}
        frontier -= group
        group = group | frontier
    return group


def _brute_automorphisms(g):
    """Every permutation of the n! that maps each row onto the image's row."""
    rows = g.rows
    return {
        p
        for p in itertools.permutations(range(g.n))
        if all(
            sum(1 << p[v] for v in range(g.n) if rows[u] >> v & 1) == rows[p[u]]
            for u in range(g.n)
        )
    }


def _check_automorphism_generators(n, rng):
    for g in generate_graphs(n):
        p = list(range(n))
        rng.shuffle(p)
        for h in (g, relabel(g, p)):
            gens = automorphism_generators(h)
            assert _generated_group(n, gens) == _brute_automorphisms(h), h


def test_automorphism_generators_generate_the_group():
    """The generators give exactly the automorphism group, for every graph
    on at most 6 vertices, canonically and randomly labelled."""
    rng = random.Random(3)
    for n in range(7):
        _check_automorphism_generators(n, rng)


@pytest.mark.slow
def test_automorphism_generators_generate_the_group_seven():
    _check_automorphism_generators(7, random.Random(4))
