import itertools

import pytest

from forbpairs import catalog
from forbpairs.canon import canonical_code, canonical_graph
from forbpairs.expr import graph_from_expr as G
from forbpairs.graph6 import decode_graph6
from forbpairs.graphs import Graph, build
from forbpairs.harness import (
    KNOWN_COUNTS,
    Census,
    census,
    generate_graphs,
    hunt_counterexamples,
    verify_universal,
)
from forbpairs.induced import is_free
from forbpairs.pairs import NAMED_CLASSES, PairSpec


# the seven pairs of the benchmark's restricted workload, plus two whose
# free classes are empty ({K1, P4}) or the edgeless graphs ({K2, P4})
PATTERN_PAIRS = [
    ("K1,3", "P5"),
    ("K1,3", "Z2"),
    ("chair", "Z1"),
    ("2K1+K2", "co(K1+P4)"),
    ("2K1+K2", "D"),
    ("3K1", "K4"),
    ("4K1", "K3"),
    ("K1", "P4"),
    ("K2", "P4"),
]


def test_counts_match_known_sequence():
    for n in range(1, 9):
        assert len(generate_graphs(n)) == KNOWN_COUNTS[n]


def _unfiltered_level(parents, patterns):
    """The next level built by canonicalising every one-vertex extension of
    every parent that the full matcher finds {patterns}-free, with no
    invariant filter and no anchored pattern copies."""
    out = {}
    for parent in parents:
        new_bit = 1 << parent.n
        for mask in range(new_bit):
            rows = [r | new_bit if mask >> v & 1 else r for v, r in enumerate(parent.rows)]
            child = Graph(parent.n + 1, rows + [mask])
            if patterns is not None and not is_free(child, patterns):
                continue
            code = canonical_code(child)
            if code not in out:
                out[code] = canonical_graph(child)
    return [out[c] for c in sorted(out)]


def test_generation_equals_unfiltered_builder():
    """The invariant filter of `_children` loses no class and changes no
    output: every level up to 7 equals the unfiltered builder's."""
    for pats in [None] + [[G(s) for s in pair] for pair in PATTERN_PAIRS]:
        level = [Graph(0, ())]
        for n in range(1, 8):
            level = _unfiltered_level(level, pats)
            assert [g.rows for g in level] == [
                g.rows for g in generate_graphs(n, pats)
            ], (pats, n)


def test_order_zero_honours_empty_pattern():
    """The empty graph contains the order-0 pattern and no larger one."""
    k0 = Graph(0, ())
    assert not is_free(k0, [k0])
    assert generate_graphs(0, [k0]) == []
    assert generate_graphs(0, [G("K1"), G("K2")]) == [k0]


def test_generation_against_labelled_bruteforce():
    """Augmentation agrees with labelled enumeration + dedup (n <= 6)."""
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        codes = set()
        for bits in range(1 << len(pairs)):
            g = build(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            codes.add(canonical_code(g))
        assert codes == {canonical_code(g) for g in generate_graphs(n)}


@pytest.mark.slow
def test_generation_against_labelled_bruteforce_seven():
    """The same agreement over all 2^21 labelled graphs on 7 vertices."""
    pairs = list(itertools.combinations(range(7), 2))
    codes = set()
    for bits in range(1 << 21):
        rows = [0] * 7
        for i, (u, v) in enumerate(pairs):
            if bits >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        codes.add(canonical_code(Graph(7, rows)))
    assert codes == {canonical_code(g) for g in generate_graphs(7)}


def test_generated_graphs_are_canonical_and_sorted():
    gs = generate_graphs(6)
    codes = [canonical_code(g) for g in gs]
    assert codes == sorted(codes)
    from forbpairs.canon import canonical_graph

    for g in gs[:40]:
        assert canonical_graph(g) == g


def test_restricted_equals_filtered():
    for pair in PATTERN_PAIRS:
        pats = [G(s) for s in pair]
        for n in range(1, 8):
            full = {canonical_code(g) for g in generate_graphs(n) if is_free(g, pats)}
            restricted = {canonical_code(g) for g in generate_graphs(n, pats)}
            assert full == restricted, (pair, n)


def test_generator_limits():
    with pytest.raises(ValueError, match="all graphs covers orders 0..10"):
        generate_graphs(11)
    with pytest.raises(ValueError, match="a free class covers orders 0..12"):
        generate_graphs(13, [G("K3")])


def test_limits_checked_before_generating(monkeypatch):
    """An order beyond the limit fails before any level is built."""
    from forbpairs import harness

    def no_levels(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(harness, "_cache", {})
    monkeypatch.setattr(harness, "_children", no_levels)
    pair = PairSpec(G("K1,3"), G("P5"))
    with pytest.raises(ValueError, match="free class"):
        verify_universal(pair, NAMED_CLASSES["G5"], "perfect", 13)
    with pytest.raises(ValueError, match="all graphs"):
        verify_universal(pair, NAMED_CLASSES["G5"], "perfect", 11, restricted=False)
    with pytest.raises(ValueError, match="free class"):
        census([G("K3")], ["connected"], 13)
    with pytest.raises(ValueError, match="free class"):
        harness.derive_blowup_catalog(13)


def test_verify_report_shape():
    report = verify_universal(
        PairSpec(G("2K1+K2"), G("D")), NAMED_CLASSES["G5"], "omega", 7,
        class_name="G5",
    )
    assert report.verdict == "all_hold"
    assert report.examined[5] == 16 and report.passing[5] == 15  # C5 filtered
    text = report.to_text()
    assert "verdict: all_hold" in text
    # determinism: a second run yields byte-identical text
    again = verify_universal(
        PairSpec(G("2K1+K2"), G("D")), NAMED_CLASSES["G5"], "omega", 7,
        class_name="G5",
    )
    assert again.to_text() == text


def test_verify_violated_with_certificates():
    report = verify_universal(
        PairSpec(G("2K1+K2"), G("D")), NAMED_CLASSES["G5"], "perfect", 8,
        class_name="G5",
    )
    assert report.verdict == "violated"
    assert len(report.counterexamples) == 4  # the fourED exception graphs
    for ce in report.counterexamples:
        g = decode_graph6(ce.graph6)
        assert is_free(g, [G("2K1+K2"), G("D")])
        assert "odd" in ce.certificate or "chi" in ce.certificate
    assert {ce.order for ce in report.counterexamples} == {6, 7}


def test_verify_full_matches_restricted():
    pair = PairSpec(G("K1,3"), G("K3"))
    a = verify_universal(pair, NAMED_CLASSES["Gcalpha"], "omega", 7,
                         restricted=True)
    b = verify_universal(pair, NAMED_CLASSES["Gcalpha"], "omega", 7,
                         restricted=False)
    assert [c.graph6 for c in a.counterexamples] == [c.graph6 for c in b.counterexamples]
    assert a.verdict == b.verdict == "violated"


def test_parallel_equals_sequential():
    pats = [G("K1,3"), G("K3")]
    seq = generate_graphs(8, pats, threads=1)
    # drop the cached entry so the parallel path actually runs
    from forbpairs import harness

    key = (8, tuple(sorted(canonical_code(p) for p in pats)))
    harness._cache.pop(key, None)
    par = generate_graphs(8, pats, threads=2)
    assert [g.rows for g in seq] == [g.rows for g in par]


def test_hunt_smallest_witnesses():
    found = hunt_counterexamples(
        PairSpec(G("4K1"), G("D")), NAMED_CLASSES["Goalpha"], "perfect", 6
    )
    assert found, "expected a counterexample at order six"
    from forbpairs.canon import isomorphic

    c5_red = build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 1)])
    assert any(isomorphic(decode_graph6(c.graph6), c5_red) for c in found)


def test_census_text_stable():
    c = census([G("2K1+K2"), G("D")], ["non-perfect"], 7)
    assert isinstance(c, Census)
    assert c.members == ["DLo", "EBjG", "EBn_", "FBYm_", "FKNN_"]
    assert "members: 5" in c.to_text()
    with pytest.raises(ValueError):
        census([G("K3")], ["no-such-predicate"], 5)


def test_collections_predict_verification():
    """Pairs inside a no-exception collection really force the property.

    Sampled consistency between the classifier and the harness at n <= 7.
    """
    import random

    from forbpairs.pairs import classify_pair, theorem_collection

    exprs = ["3K1", "K3", "Z1", "D", "K1,3", "chair", "P5", "2K2", "K1+P3",
             "K1+K3", "2K1+K2", "Z2", "co(K1+P4)", "P4", "K2", "C4", "K1,4",
             "C5", "K4"]
    classes = ["G5", "Go", "Gc5", "Galpha", "Goalpha", "Gcalpha", "Gco",
               "Gcoalpha"]
    rng = random.Random(12)
    checked = 0
    while checked < 25:
        a, b = rng.choice(exprs), rng.choice(exprs)
        cls = rng.choice(classes)
        prop = rng.choice(["perfect", "omega"])
        pair = PairSpec(G(a), G(b))
        coll = theorem_collection(cls, prop, finite_exceptions=False)
        if not classify_pair(pair)[coll]:
            continue
        report = verify_universal(pair, NAMED_CLASSES[cls], prop, 7,
                                  class_name=cls)
        assert report.verdict == "all_hold", (a, b, cls, prop)
        checked += 1
