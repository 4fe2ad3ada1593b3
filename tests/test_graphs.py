import itertools
import random

import pytest

from forbpairs.expr import graph_from_expr as G
from forbpairs.graphs import (
    Graph,
    Invariants,
    bits,
    build,
    chromatic_number,
    clique_number,
    complement,
    disjoint_union,
    has_independent_set,
    independence_number,
    induced_subgraph,
    invariants,
    is_complete_multipartite,
    max_clique,
    max_clique_set,
    shape_report,
    twins,
)
from forbpairs.harness import generate_graphs


def random_graph(rng, n, p=0.5):
    return build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def test_build_examples():
    k3 = build(3, [(0, 1), (1, 2), (0, 2)])
    assert k3.edge_count() == 3
    c5 = build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert all(c5.degree(v) == 2 for v in range(5))
    assert build(1, []).n == 1
    # duplicates collapse
    assert build(2, [(0, 1), (1, 0), (0, 1)]).edge_count() == 1
    p3 = build(3, [(0, 1), (1, 2)])
    assert twins(p3.rows, 0, 2)  # false twins: equal rows
    assert twins(k3.rows, 0, 1)  # true twins: rows differ by the pair
    assert not twins(p3.rows, 0, 1)  # adjacent, but only 1 sees 2


def _shift_loop(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def test_bits_against_a_shift_loop():
    for mask in range(1 << 16):
        assert bits(mask) == _shift_loop(mask), mask
    rng = random.Random(5)
    for _ in range(20000):
        mask = rng.getrandbits(rng.randint(1, 64))
        assert bits(mask) == _shift_loop(mask), mask
    with pytest.raises(ValueError):
        bits(1 << 64)


def test_build_errors():
    with pytest.raises(ValueError):
        build(2, [(0, 2)])
    with pytest.raises(ValueError):
        build(2, [(1, 1)])
    with pytest.raises(ValueError):
        build(65, [])


def test_complement_involution():
    from forbpairs.canon import isomorphic

    assert complement(G("K3")) == G("3K1")
    assert isomorphic(complement(G("C5")), G("C5"))
    g = G("co(K3+P4)")
    assert complement(complement(g)) == g


def test_disjoint_union():
    g = disjoint_union(G("K1"), G("P3"))
    assert (g.n, g.edge_count()) == (4, 2)
    assert disjoint_union(G("K2"), G("K2")) == G("2K2")
    assert disjoint_union(disjoint_union(G("K1"), G("K1")), G("K1")) == G("3K1")
    with pytest.raises(ValueError):
        disjoint_union(G("40K1"), G("30K1"))


def test_induced_subgraph():
    from forbpairs.canon import isomorphic

    c5 = G("C5")
    assert isomorphic(induced_subgraph(c5, [0, 1, 2, 3]), G("P4"))
    assert induced_subgraph(c5, [0, 2]).edge_count() == 0
    # the three independent vertices of co(K3uP4) plus one P4 vertex: a claw
    g = G("co(K3+P4)")
    from forbpairs.induced import contains_induced

    emb = contains_induced(g, G("3K1"))
    sub = induced_subgraph(g, list(emb) + [next(
        v for v in range(g.n) if v not in emb)])
    assert isomorphic(sub, G("K1,3"))


def test_invariants_examples():
    assert invariants(G("C5")) == Invariants(2, 2, 3)
    assert invariants(G("C7")) == Invariants(3, 2, 3)
    assert invariants(G("co(C7)")) == Invariants(2, 3, 4)
    assert invariants(build(0, [])) == Invariants(0, 0, 0)


def test_invariants_brute_force():
    """alpha, omega, chi against subset enumeration on random small graphs."""
    rng = random.Random(0)

    def brute(g):
        best_a = best_o = 0
        for r in range(g.n + 1):
            for sub in itertools.combinations(range(g.n), r):
                ok_clique = all(g.adj(u, v) for u, v in itertools.combinations(sub, 2))
                ok_ind = all(not g.adj(u, v) for u, v in itertools.combinations(sub, 2))
                if ok_clique:
                    best_o = max(best_o, r)
                if ok_ind:
                    best_a = max(best_a, r)
        chi = None
        for k in range(1, g.n + 1):
            if _colourable(g, k):
                chi = k
                break
        return best_a, best_o, (chi or 0)

    def _colourable(g, k):
        cols = [0] * g.n

        def rec(v):
            if v == g.n:
                return True
            for c in range(k):
                if all(not g.adj(v, u) or cols[u] != c for u in range(v)):
                    cols[v] = c
                    if rec(v + 1):
                        return True
            return False

        return g.n == 0 or rec(0)

    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 7), rng.choice([0.25, 0.5, 0.75]))
        iv = invariants(g)
        assert (iv.alpha, iv.omega, iv.chi) == brute(g)


def _brute_omega(g):
    """Size of the largest vertex subset that is a clique, over all 2^n subsets."""
    clique = [True] * (1 << g.n)
    best = 0
    for s in range(1, 1 << g.n):
        low = s & -s
        rest = s ^ low
        clique[s] = clique[rest] and g.rows[low.bit_length() - 1] & rest == rest
        if clique[s]:
            best = max(best, s.bit_count())
    return best


def _independent_partitions(g):
    """Every partition of the vertex set into independent sets (block masks)."""

    def grow(v, blocks):
        if v == g.n:
            yield blocks
            return
        for i, b in enumerate(blocks):
            if not g.rows[v] & b:
                yield from grow(v + 1, blocks[:i] + [b | 1 << v] + blocks[i + 1 :])
        yield from grow(v + 1, blocks + [1 << v])

    return grow(0, [])


def _check_omega_chi(n):
    """The searches, on fresh copies that hold no value a walk carried, and
    the slots they fill, which a second call returns."""
    for level in generate_graphs(n):
        g = Graph(level.n, level.rows)
        omega = max_clique(g)
        assert omega == _brute_omega(g) == g.omega, g
        chi = min(map(len, _independent_partitions(g)))
        assert chromatic_number(g) == chi == g.chi == chromatic_number(g), g


def test_omega_chi_against_subsets_and_partitions():
    """max_clique and chromatic_number on every graph with at most 7 vertices."""
    for n in range(8):
        _check_omega_chi(n)


@pytest.mark.slow
def test_omega_chi_against_subsets_and_partitions_eight():
    _check_omega_chi(8)


def test_clique_number_inside_every_mask():
    """The clique search that `max_clique` and generation share, on every
    vertex subset of every graph with at most 6 vertices."""
    for n in range(7):
        for g in generate_graphs(n):
            for mask in range(1 << n):
                sub = induced_subgraph(g, bits(mask))
                assert clique_number(g.rows, mask) == _brute_omega(sub), (g, mask)


def test_chi_at_least_omega_exhaustive_small():
    from forbpairs.harness import generate_upto

    for g in generate_upto(7):
        iv = invariants(g)
        assert iv.omega <= iv.chi <= max(g.n, 0)
        assert independence_number(complement(g)) == iv.omega


def test_has_independent_set_against_independence_number():
    """The k = 2 and k = 3 fast paths, and the rest, on every graph with at
    most 7 vertices; the slow twin is `max_clique` of the complement."""
    for n in range(8):
        for g in generate_graphs(n):
            alpha = independence_number(g)
            for k in range(-1, 7):
                assert has_independent_set(g, k) == (alpha >= k), (g, k)


def test_shape_report():
    r = shape_report(G("C5"))
    assert (r.connected, r.bipartite, r.complete_multipartite) == (True, False, False)
    assert r.is_cycle and r.is_odd_cycle and r.is_C5 and not r.is_path
    r = shape_report(G("K2,3"))
    assert r.connected and r.bipartite and r.complete_multipartite
    assert not r.is_cycle
    r = shape_report(G("2K2"))
    assert not r.connected and not r.complete_multipartite and r.bipartite
    # odd cycle flag across orders
    for n in range(3, 10):
        assert shape_report(G(f"C{n}")).is_odd_cycle == (n % 2 == 1)


def test_complete_multipartite_edge_cases():
    assert is_complete_multipartite(G("2K1"))  # one part of size 2
    assert is_complete_multipartite(G("K5"))
    assert is_complete_multipartite(G("C4"))  # K_{2,2}
    assert not is_complete_multipartite(G("K3+K1"))
    assert not is_complete_multipartite(build(0, []))


def test_max_clique_set_is_lex_smallest():
    g = G("co(C7)")
    mask = max_clique_set(g)
    assert mask.bit_count() == max_clique(g)
    # no lexicographically smaller maximum clique exists
    size = mask.bit_count()
    for sub in itertools.combinations(range(g.n), size):
        m = sum(1 << v for v in sub)
        if all(g.adj(u, v) for u, v in itertools.combinations(sub, 2)):
            assert m >= mask
            break


def _mycielski(g):
    """Mycielski's construction: a shadow u' of every vertex u, adjacent to
    the neighbours of u, and one apex adjacent to every shadow.  It keeps
    the graph triangle-free and raises chi by one."""
    n = g.n
    edges = g.edges()
    shadows = [(u + n, v) for u, v in edges] + [(v + n, u) for u, v in edges]
    return build(2 * n + 1, edges + shadows + [(u + n, 2 * n) for u in range(n)])


def test_chromatic_known_values():
    assert chromatic_number(G("K12")) == 12
    assert chromatic_number(G("C9")) == 3
    assert chromatic_number(G("K3,3,3")) == 3
    assert chromatic_number(G("co(C9)")) == 5
    assert chromatic_number(G("co(C11)")) == 6
    # chi - omega >= 2 above 8 vertices: the Groetzsch graph M4 and M5
    m4 = _mycielski(G("C5"))
    m5 = _mycielski(m4)
    assert (m4.n, max_clique(m4), chromatic_number(m4)) == (11, 2, 4)
    assert (m5.n, max_clique(m5), chromatic_number(m5)) == (23, 2, 5)
    # trailing low-degree vertices fit every class: a colouring as large as
    # the best one found must be cut off, or these take L^k placements
    assert chromatic_number(build(30, G("C5").edges())) == 3
    assert chromatic_number(disjoint_union(m4, build(19, []))) == 4
