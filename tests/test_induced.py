import hashlib
import itertools
import random

import pytest

from forbpairs.canon import canonical_code, isomorphic
from forbpairs.expr import graph_from_expr as G
from forbpairs.graphs import Graph, bits, build, complement, induced_on_mask, relabel
from forbpairs.harness import generate_graphs
from forbpairs.induced import (
    _anchors,
    completing_masks,
    contains_induced,
    first_violation,
    induced_closure,
    is_free,
)


def brute_contains(host, pattern):
    for sub in itertools.combinations(range(host.n), pattern.n):
        if isomorphic(induced_on_mask(host, sum(1 << v for v in sub)), pattern):
            return True
    return False


def test_spec_examples():
    assert contains_induced(G("C5"), G("P4")) is not None
    assert contains_induced(G("C5"), G("K3")) is None
    assert contains_induced(G("co(K3+P4)"), G("K1,3")) is not None
    assert is_free(G("C7"), [G("K1,3"), G("K3")])
    assert is_free(G("C5"), [G("2K1+K2"), G("D")])
    hit = first_violation(G("C7"), [G("2K1+K2")])
    assert hit is not None and hit[0] == 0


def test_embedding_validates():
    host, pattern = G("co(C7)"), G("Z1")
    emb = contains_induced(host, pattern)
    if emb is not None:
        for a in range(pattern.n):
            for b in range(a + 1, pattern.n):
                assert pattern.adj(a, b) == host.adj(emb[a], emb[b])


def test_against_brute_force_random():
    rng = random.Random(17)
    for _ in range(300):
        nh = rng.randint(1, 8)
        np_ = rng.randint(1, min(5, nh))
        h = build(nh, [(u, v) for u in range(nh) for v in range(u + 1, nh)
                       if rng.random() < rng.choice([0.3, 0.6])])
        p = build(np_, [(u, v) for u in range(np_) for v in range(u + 1, np_)
                        if rng.random() < 0.5])
        assert (contains_induced(h, p) is not None) == brute_contains(h, p)


# sha256 of repr([contains_induced(h, p) for the pairs of _golden_pairs()]),
# recorded before the matcher and the completion search shared one level
# table: the embeddings themselves are pinned, since `decompose --olariu`
# prints them as witnesses and `PreconditionError` carries them
EMBEDDINGS_SHA256 = "da0bf3f9e5e50a0734fc09c9d339470eb1aa504a560900f4c93e5afb773d81c7"


def _golden_pairs():
    """3,000 seeded (host on 0-8 vertices, pattern on 0-5) pairs; 1,307
    of them are misses."""
    rng = random.Random(2024)
    for _ in range(3000):
        nh = rng.randint(0, 8)
        np_ = rng.randint(0, 5)
        ph, pp = rng.choice([0.2, 0.5, 0.8]), rng.choice([0.2, 0.5, 0.8])
        yield (
            build(nh, [(u, v) for u in range(nh) for v in range(u + 1, nh)
                       if rng.random() < ph]),
            build(np_, [(u, v) for u in range(np_) for v in range(u + 1, np_)
                        if rng.random() < pp]),
        )


def test_embeddings_match_golden():
    found = [contains_induced(h, p) for h, p in _golden_pairs()]
    assert sum(e is None for e in found) == 1307
    assert hashlib.sha256(repr(found).encode()).hexdigest() == EMBEDDINGS_SHA256


def test_identity_and_monotonicity():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        assert contains_induced(g, g) is not None
        # g contains h and h contains p implies g contains p
        hm = rng.getrandbits(n) | 1
        h = induced_on_mask(g, hm)
        if h.n:
            pm = rng.getrandbits(h.n) | 1
            p = induced_on_mask(h, pm)
            assert contains_induced(g, p) is not None


def test_complement_duality_exhaustive():
    hosts = generate_graphs(5) + generate_graphs(6)
    pats = generate_graphs(3) + generate_graphs(4)
    for h in hosts:
        ch = complement(h)
        for p in pats:
            a = contains_induced(h, p) is not None
            b = contains_induced(ch, complement(p)) is not None
            assert a == b


def test_closure_co_k3_p4():
    clo = induced_closure(G("co(K3+P4)"))
    assert {canonical_code(g) for g in clo[4]} == {
        canonical_code(G(s)) for s in ["P4", "K1,3", "Z1", "D", "C4"]
    }
    assert {canonical_code(g) for g in clo[5]} == {
        canonical_code(G(s))
        for s in ["co(K1+P4)", "K1,2,2", "co(K2+P3)", "K1,1,3", "K2,3"]
    }


def test_closure_p4():
    clo = induced_closure(G("P4"))
    flat = [g for gs in clo.values() for g in gs]
    assert len(flat) == 6
    expected = {canonical_code(G(s)) for s in ["K1", "2K1", "K2", "K1+K2", "P3", "P4"]}
    assert {canonical_code(g) for g in flat} == expected
    assert any(g.n == 4 for g in flat)  # includes P4 itself
    with pytest.raises(ValueError):
        induced_closure(G("K11"))


def _extension(parent, mask):
    n = parent.n + 1
    rows = [r | 1 << (n - 1) if mask >> v & 1 else r for v, r in enumerate(parent.rows)]
    return Graph(n, rows + [mask])


ANCHOR_PATTERNS = [p for n in range(1, 5) for p in generate_graphs(n)] + [
    G(s) for s in ["P5", "Z2", "chair", "co(K1+P4)"]
]


def _check_anchored(orders):
    """The search over all masks finds exactly the one-vertex extensions of
    each P-free parent that the full matcher finds P in."""
    for p in ANCHOR_PATTERNS:
        for n in orders:
            for parent in generate_graphs(n):
                if not is_free(parent, [p]):
                    continue
                masks = range(1 << parent.n)
                by_search = completing_masks(parent, p, masks)
                by_matcher = sum(
                    1 << m for m in masks if not is_free(_extension(parent, m), [p])
                )
                assert by_search == by_matcher, (p, parent)


def test_completing_masks_against_matcher():
    _check_anchored(range(7))


@pytest.mark.slow
def test_completing_masks_against_matcher_seven():
    _check_anchored([7])


def test_empty_pattern_rejects_every_child():
    k0 = Graph(0, ())
    for parent in generate_graphs(3):
        masks = range(1 << parent.n)
        assert completing_masks(parent, k0, masks) == (1 << (1 << parent.n)) - 1
    assert generate_graphs(1, [k0]) == [] and generate_graphs(3, [k0]) == []
    assert generate_graphs(2, [G("K1")]) == []


def _brute_orbits(g):
    """The orbits of Aut(g), from all n! permutations."""
    rows, n = g.rows, g.n
    orbit = {v: {v} for v in range(n)}
    for p in itertools.permutations(range(n)):
        if all(
            sum(1 << p[v] for v in bits(rows[u])) == rows[p[u]] for u in range(n)
        ):
            for v in range(n):
                orbit[v].add(p[v])
    return {frozenset(o) for o in orbit.values()}


def test_one_anchor_per_orbit():
    """The search anchors one vertex in each orbit of Aut(P), for every
    graph on at most 5 vertices, canonically and randomly labelled."""
    rng = random.Random(5)
    for n in range(1, 6):
        for g in generate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for p in (g, relabel(g, perm)):
                anchors = [a.u for a in _anchors(p)]
                orbits = _brute_orbits(p)
                assert len(anchors) == len(orbits), p
                assert all(len(o.intersection(anchors)) == 1 for o in orbits), p
