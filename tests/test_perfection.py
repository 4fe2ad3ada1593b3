import hashlib
import itertools
import random

import pytest

from forbpairs.expr import graph_from_expr as G
from forbpairs.graphs import (
    bits,
    build,
    complement,
    induced_on_mask,
    is_cycle,
    relabel,
)
from forbpairs.harness import generate_graphs, generate_upto
from forbpairs.perfection import (
    PerfectnessCertificate,
    is_omega_colourable,
    is_perfect_definition,
    is_perfect_spgt,
    odd_hole,
    odd_hole_through,
)


def brute_odd_hole(g):
    for k in range(5, g.n + 1, 2):
        for sub in itertools.combinations(range(g.n), k):
            if is_cycle(induced_on_mask(g, sum(1 << v for v in sub))):
                return sub
    return None


def reference_odd_hole(g):
    """The unpruned depth-first search that `odd_hole` prunes: every start
    vertex, every second vertex and every chordless extension, in
    ascending order, so the first hole found is the one `odd_hole` must
    return."""
    rows = g.rows

    for s in range(g.n):
        above = ~((2 << s) - 1)

        def extend(path, banned):
            last = path[-1]
            for u in bits(rows[last] & above & ~banned):
                if rows[u] >> s & 1:
                    # u is adjacent to the start, so it can only close the
                    # cycle (as an interior vertex it would leave a chord)
                    if len(path) >= 4 and len(path) % 2 == 0:
                        return tuple(path) + (u,)
                    continue
                found = extend(path + [u], banned | rows[last] | (1 << last))
                if found:
                    return found
            return None

        for v in bits(rows[s] & above):
            found = extend([s, v], 1 << s)
            if found:
                return found
    return None


def _random_graph(rng, n):
    p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
    return build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def _check_against_reference(g):
    for side in (g, complement(g)):
        assert odd_hole(side) == reference_odd_hole(side), side


def test_odd_hole_matches_reference_up_to_seven():
    """The same tuple as the unpruned search on every graph on at most 7
    vertices and its complement, canonically and in a shuffled labelling."""
    rng = random.Random(17)
    for g in generate_upto(7):
        perm = list(range(g.n))
        rng.shuffle(perm)
        _check_against_reference(g)
        _check_against_reference(relabel(g, perm))


def test_odd_hole_matches_reference_random():
    rng = random.Random(1417)
    for _ in range(3000):
        _check_against_reference(_random_graph(rng, rng.randint(8, 14)))


@pytest.mark.slow
def test_odd_hole_matches_reference_eight():
    """All 12,346 graphs of order 8 and their complements."""
    graphs = generate_graphs(8)
    assert len(graphs) == 12346
    for g in graphs:
        _check_against_reference(g)


# sha256 of the newline-joined is_perfect_spgt(g).describe() over
# _certificate_graphs(), pinned before the odd-hole search was pruned:
# the certificate's vertex list is report text, so it must not move
SPGT_SHA256 = "b8a9bd4b01a57e2c17ccd65ea3dc2411b3ffa41ef8043761d19045c1821aaa4b"


def _certificate_graphs():
    """Every graph on at most 7 vertices, then 2,000 seeded graphs on 8 to
    12 vertices."""
    yield from generate_upto(7)
    rng = random.Random(2017)
    for _ in range(2000):
        yield _random_graph(rng, rng.randint(8, 12))


def test_spgt_certificates_match_golden():
    text = "\n".join(is_perfect_spgt(g).describe() for g in _certificate_graphs())
    assert text.count("\n") == 3251
    assert hashlib.sha256(text.encode()).hexdigest() == SPGT_SHA256


def test_odd_hole_examples():
    assert sorted(odd_hole(G("C5"))) == [0, 1, 2, 3, 4]
    assert odd_hole(G("C6")) is None
    g = build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 1)])
    hole = odd_hole(g)
    assert hole is not None and 5 not in hole
    with pytest.raises(ValueError):
        odd_hole(G("21K1"))


def test_odd_hole_against_brute_force():
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randint(1, 8)
        g = build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < rng.choice([0.3, 0.5, 0.7])])
        assert (odd_hole(g) is None) == (brute_odd_hole(g) is None)


def brute_odd_hole_through(g, m):
    """An odd hole through m, over the vertex subsets that contain m."""
    others = [v for v in range(g.n) if v != m]
    for k in range(4, g.n, 2):
        for sub in itertools.combinations(others, k):
            if is_cycle(induced_on_mask(g, sum(1 << v for v in sub) | 1 << m)):
                return (m,) + sub
    return None


def test_odd_hole_through_against_brute_force():
    """`odd_hole_through` on every graph with at most 7 vertices and every
    vertex m: it finds a hole exactly when a vertex subset holding m
    induces an odd cycle of length >= 5, and what it returns is such a
    cycle, in cycle order from m."""
    cases = found = 0
    for g in generate_upto(7):
        for m in range(g.n):
            hole = odd_hole_through(g, m)
            assert (hole is None) == (brute_odd_hole_through(g, m) is None), (g, m)
            if hole is not None:
                assert hole[0] == m and PerfectnessCertificate(
                    "imperfect", "odd_hole", hole
                ).validate(g), (g, m)
                found += 1
            cases += 1
    assert cases == 8475 and found > 0


def test_spgt_examples():
    assert is_perfect_spgt(G("P4")).perfect
    cert = is_perfect_spgt(G("co(C7)"))
    assert not cert.perfect and cert.kind == "odd_antihole"
    assert cert.validate(G("co(C7)"))
    assert is_perfect_spgt(G("K2,3")).perfect


def test_definition_examples():
    cert = is_perfect_definition(G("C5"))
    assert not cert.perfect and cert.kind == "chi_gt_omega"
    assert cert.validate(G("C5"))
    for parts in ["K2,3", "K1,1,3", "K2,2,2", "K1,2,3"]:
        assert is_perfect_definition(G(parts)).perfect
    # C7 with a duplicated (false twin) vertex still contains C7
    from forbpairs.twins import blow_up

    g = blow_up(G("C7"), [("independent", 2)] + [("independent", 1)] * 6)
    assert not is_perfect_definition(g).perfect
    with pytest.raises(ValueError):
        is_perfect_definition(G("15K1"))


def test_certificates_validate():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 8)
        g = build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        for cert in (is_perfect_spgt(g), is_perfect_definition(g)):
            assert cert.validate(g)


def test_omega_colourable():
    assert not is_omega_colourable(G("C5"))
    assert is_omega_colourable(G("C6"))
    assert not is_omega_colourable(G("co(C9)"))


def test_perfect_complement_closure_small():
    for g in generate_upto(7):
        assert is_perfect_spgt(g).perfect == is_perfect_spgt(complement(g)).perfect
        if is_perfect_spgt(g).perfect:
            assert is_omega_colourable(g)


def test_spgt_against_definition_random_nine_ten():
    """The odd-hole oracle against the definition oracle, which shares no
    code with it or with `canon`, on 300 seeded random graphs on 9 and 10
    vertices (about 3 s)."""
    rng = random.Random(910)
    verdicts = set()
    for _ in range(300):
        g = _random_graph(rng, rng.choice([9, 10]))
        fast, slow = is_perfect_spgt(g), is_perfect_definition(g)
        assert fast.perfect == slow.perfect, g
        assert slow.validate(g)
        verdicts.add(fast.perfect)
    assert verdicts == {True, False}
