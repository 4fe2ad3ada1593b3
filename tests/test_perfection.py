import itertools
import random

import pytest

from forbpairs.expr import graph_from_expr as G
from forbpairs.graphs import build, complement, induced_on_mask, is_cycle
from forbpairs.perfection import (
    is_omega_colourable,
    is_perfect_definition,
    is_perfect_spgt,
    odd_hole,
)


def brute_odd_hole(g):
    for k in range(5, g.n + 1, 2):
        for sub in itertools.combinations(range(g.n), k):
            if is_cycle(induced_on_mask(g, sum(1 << v for v in sub))):
                return sub
    return None


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
    from forbpairs.harness import generate_upto

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
        n = rng.choice([9, 10])
        p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        g = build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        fast, slow = is_perfect_spgt(g), is_perfect_definition(g)
        assert fast.perfect == slow.perfect, g
        assert slow.validate(g)
        verdicts.add(fast.perfect)
    assert verdicts == {True, False}
