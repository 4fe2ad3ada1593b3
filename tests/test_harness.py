import itertools

import pytest

from forbpairs import catalog
from forbpairs.canon import automorphism_generators, canonical_code, canonical_graph
from forbpairs.expr import graph_from_expr as G
from forbpairs.graph6 import decode_graph6
from forbpairs.graphs import Graph, bits, build
from forbpairs.harness import (
    KNOWN_COUNTS,
    Census,
    census,
    generate_graphs,
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


def _candidate_masks(parent):
    """The masks of `_Parent.masks` by their definition: on the built child,
    the new vertex has the maximal (degree, neighbour degree sum), and no
    automorphism generator of the parent maps the mask lower."""
    gens = automorphism_generators(parent)
    new = parent.n
    out = []
    for mask in range(1 << new):
        child = _extension(parent, mask)

        def invariant(v):
            return child.degree(v), sum(child.degree(u) for u in bits(child.rows[v]))

        if max(map(invariant, range(new + 1))) != invariant(new):
            continue
        if any(sum(1 << gamma[v] for v in bits(mask)) < mask for gamma in gens):
            continue
        out.append(mask)
    return out


def test_candidate_masks_match_their_definition():
    """Every graph on at most 6 vertices, canonically labelled and shuffled,
    gets the candidate masks of the slow twin above."""
    import random

    from forbpairs.graphs import relabel
    from forbpairs.harness import _Parent

    rng = random.Random(6)
    for n in range(7):
        for g in generate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for parent in (g, relabel(g, perm)):
                assert _Parent(parent).masks == _candidate_masks(parent), parent.rows


def _extension(parent, mask):
    """The parent plus one vertex whose neighbourhood is mask."""
    new = parent.n
    return Graph(new + 1, [
        r | 1 << new if mask >> v & 1 else r for v, r in enumerate(parent.rows)
    ] + [mask])


def test_completion_masks_match_the_matcher():
    """`_Parent.completes(p)` holds bit i of exactly the candidate masks
    `record.masks[i]` whose child the full matcher finds p in.  Parents are
    the graphs on at most 6 vertices, canonically labelled and shuffled,
    that are p-free; a pattern on at most one vertex is in every child, so
    there every parent is checked.  Patterns are those of the nine classes,
    K1 and the order-0 graph."""
    import random

    from forbpairs.graphs import relabel
    from forbpairs.harness import _Parent
    from forbpairs.induced import contains_induced

    patterns = list(dict.fromkeys(
        [G(s) for pair in PATTERN_PAIRS for s in pair] + [G("K1"), Graph(0, ())]
    ))
    rng = random.Random(13)
    for n in range(7):
        for g in generate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for parent in (g, relabel(g, perm)):
                record = _Parent(parent)
                for p in patterns:
                    if p.n > 1 and not is_free(parent, [p]):
                        continue
                    want = sum(
                        1 << i for i, m in enumerate(record.masks)
                        if contains_induced(_extension(parent, m), p) is not None
                    )
                    assert record.completes(p) == want, (parent.rows, p.rows)
                    assert record.blocked[p] == want  # kept for the next class


def test_order_zero_honours_empty_pattern():
    """The empty graph contains the order-0 pattern and no larger one."""
    k0 = Graph(0, ())
    assert not is_free(k0, [k0])
    assert generate_graphs(0, [k0]) == []
    assert generate_graphs(3, [k0]) == []
    assert generate_graphs(0, [G("K1"), G("K2")]) == [k0]
    assert generate_graphs(0, []) == generate_graphs(0) == [k0]


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


def test_generator_limits(monkeypatch):
    """An empty pattern list restricts nothing: it gets the limit of all
    graphs and reads the walk of all graphs."""
    from forbpairs import harness

    for pats in (None, []):
        with pytest.raises(ValueError, match="all graphs covers orders 0..10"):
            generate_graphs(11, pats)
    with pytest.raises(ValueError, match="a free class covers orders 0..12"):
        generate_graphs(13, [G("K3")])

    def no_levels(*args, **kwargs):
        raise AssertionError("a level was built")

    everything = generate_graphs(5)
    monkeypatch.setattr(harness, "_children", no_levels)
    assert generate_graphs(5, []) == everything
    assert len(everything) == KNOWN_COUNTS[5]


def test_limits_checked_before_generating(monkeypatch):
    """An order beyond the limit, or a thread count below 1, fails before
    any level is built."""
    from forbpairs import harness

    def no_levels(*args, **kwargs):
        raise AssertionError("a level was built")

    harness._walk.cache_clear()
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
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            generate_graphs(4, [G("K3")], threads=threads)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            census([G("K3")], ["connected"], 4, threads=threads)


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


def test_parallel_equals_sequential(monkeypatch):
    # levels 6 and 7 hold 74 and 217 graphs, at least the 64 parents that
    # send a level to the pool
    from forbpairs import harness

    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    pats = [G("K1,3"), G("P5")]
    harness._walk.cache_clear()
    seq = generate_graphs(8, pats, threads=1)
    harness._walk.cache_clear()
    par = generate_graphs(8, pats, threads=2)
    assert [g.rows for g in seq] == [g.rows for g in par]


def test_thread_count_builds_no_level_again(monkeypatch):
    """A walk at threads=2 after the same walk at threads=1 reads every
    level from the cache: it builds none and starts no pool."""
    import multiprocessing

    from forbpairs import harness

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    def no_levels(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    pats = [G("K1,3"), G("P5")]
    harness._walk.cache_clear()
    seq = [generate_graphs(n, pats) for n in range(9)]
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(harness, "_children", no_levels)
    assert [generate_graphs(n, pats, threads=2) for n in range(9)] == seq


def test_pool_never_exceeds_the_cpus(monkeypatch):
    """A thread count above the CPUs the process may use starts one worker
    per CPU, and the level is the same for every count."""
    import multiprocessing

    from forbpairs import harness

    started = []

    class InlinePool:
        """Stands in for `multiprocessing.Pool`: records the process count
        and maps in this process."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    pats = [G("K1,3"), G("P5")]
    expected = generate_graphs(8, pats)
    for cpus, threads, workers in [(3, 1000, 3), (3, 2, 2), (1, 8, None)]:
        monkeypatch.setattr(harness, "_cpus", lambda: cpus)
        started.clear()
        harness._walk.cache_clear()
        assert generate_graphs(8, pats, threads=threads) == expected
        # levels 6 and 7 reach the pool, one start each
        assert started == ([] if workers is None else [workers] * 2)


def test_returned_levels_are_the_callers_own():
    """Changing a returned list leaves the cached levels intact."""
    generate_graphs(4).clear()
    generate_graphs(4).append(Graph(0, ()))
    assert len(generate_graphs(4)) == KNOWN_COUNTS[4]
    assert len(generate_graphs(5)) == KNOWN_COUNTS[5]


def test_isomorphic_pattern_lists_share_a_level():
    """The nine classes' levels up to 7 do not depend on the order of the
    patterns or on their labellings."""
    import random

    from forbpairs.graphs import relabel

    def shuffled(p):
        perm = list(range(p.n))
        rng.shuffle(perm)
        return relabel(p, perm)

    rng = random.Random(10)
    for pair in PATTERN_PAIRS:
        pats = [G(s) for s in pair]
        moved = [shuffled(p) for p in pats]
        for same in (pats[::-1], moved, moved[::-1]):
            for n in range(8):
                assert generate_graphs(n, same) == generate_graphs(n, pats), (pair, n)


def test_level_cache_is_bounded():
    """The walk cache holds at most `WALK_CACHE_SIZE` classes."""
    from forbpairs import harness

    bound = harness.WALK_CACHE_SIZE
    assert harness._walk.cache_info().maxsize == bound
    small = [g for n in range(1, 6) for g in generate_graphs(n)]
    assert len(small) > bound  # 52 classes
    first = generate_graphs(4, [small[-1]])
    for p in small:
        generate_graphs(4, [p])
        assert harness._walk.cache_info().currsize <= bound
    assert harness._walk.cache_info().currsize == bound
    assert generate_graphs(4, [small[-1]]) == first


def test_child_caches_are_bounded():
    from forbpairs import harness

    bound = harness.PARENT_CACHE_SIZE
    harness._walk.cache_clear()
    assert harness._parent.cache_info().maxsize == bound
    harness._parent.cache_clear()
    for n in range(1, 9):
        generate_graphs(n)
        assert harness._parent.cache_info().currsize <= bound
    # order 8 alone reads more parents than the bound holds
    assert harness._parent.cache_info().currsize == bound


def test_levels_do_not_depend_on_cache_state():
    """The nine classes' levels up to 7 are the same built with every cache
    empty as built from parent records (symmetries and children) cached,
    and partly evicted, by the classes in reverse order."""
    from forbpairs import harness

    def clear():
        for cache in (harness._walk, harness._parent):
            cache.cache_clear()

    classes = [[G(s) for s in pair] for pair in PATTERN_PAIRS]
    cold = []
    for pats in classes:
        clear()
        cold.append([generate_graphs(n, pats) for n in range(1, 8)])
    clear()
    for pats in reversed(classes):
        for n in range(1, 8):
            generate_graphs(n, pats)
    harness._walk.cache_clear()
    warm = [[generate_graphs(n, pats) for n in range(1, 8)] for pats in classes]
    assert warm == cold


def test_revalidation_ignores_the_verdict_cache(monkeypatch):
    """A cached certificate for a perfect graph is caught: re-validation
    asks the uncached oracle, so the verify fails instead of reporting it."""
    from types import SimpleNamespace

    from forbpairs import harness

    pair = PairSpec(G("3K1"), G("K4"))
    c4 = canonical_graph(G("C4"))  # as generated
    assert c4 in generate_graphs(4, [pair.x, pair.y])
    assert harness._certificate(c4, "perfect") is None
    fake = SimpleNamespace(perfect=False, describe=lambda: "poisoned")
    harness._property_certificate.cache_clear()
    try:
        monkeypatch.setattr(harness, "is_perfect_spgt", lambda g: fake)
        assert harness._property_certificate(c4, "perfect") == "poisoned"
        monkeypatch.undo()
        assert harness._property_certificate(c4, "perfect") == "poisoned"
        with pytest.raises(AssertionError, match="satisfies the property on re-check"):
            verify_universal(pair, NAMED_CLASSES["G"], "perfect", 4)
    finally:
        harness._property_certificate.cache_clear()


def test_reports_do_not_depend_on_the_verdict_cache():
    """The nine classes' verifies in Gc and Galpha at n <= 6 give the same
    text with every cache empty as with the levels built again and the
    verdicts of earlier verifies cached, and the second such pass computes
    no verdict."""
    from forbpairs import harness

    caches = (
        harness._walk, harness._parent, harness._property_certificate, harness._in_class
    )
    runs = [
        (PairSpec(G(x), G(y)), cls, prop)
        for x, y in PATTERN_PAIRS for cls in ("Gc", "Galpha") for prop in ("perfect", "omega")
    ]

    def text(pair, cls, prop):
        return verify_universal(pair, NAMED_CLASSES[cls], prop, 6, class_name=cls).to_text()

    cold = []
    for run in runs:
        for cache in caches:
            cache.cache_clear()
        cold.append(text(*run))
    for _ in range(2):  # the second pass finds every verdict cached
        for cache in caches[:2]:
            cache.cache_clear()
        misses = harness._property_certificate.cache_info().misses
        assert [text(*run) for run in runs] == cold
    assert harness._property_certificate.cache_info().misses == misses


def test_verdict_cache_is_bounded():
    """The verdict cache holds at most `VERDICT_CACHE_SIZE` verdicts."""
    from forbpairs import harness

    bound = harness.VERDICT_CACHE_SIZE
    cache = harness._property_certificate
    assert cache.cache_info().maxsize == bound
    cache.cache_clear()
    graphs = [g for n in range(1, 8) for g in generate_graphs(n)]
    assert len(graphs) > bound
    for g in graphs:
        assert cache(g, "omega") == harness._certificate(g, "omega")
        assert cache.cache_info().currsize <= bound
    assert cache.cache_info().currsize == bound
    cache.cache_clear()


def test_class_cache_is_bounded():
    """The class-membership cache holds at most `CLASS_CACHE_SIZE` entries
    and gives what `ClassSpec.contains` gives."""
    from forbpairs import harness

    bound = harness.CLASS_CACHE_SIZE
    cache = harness._in_class
    assert cache.cache_info().maxsize == bound
    cache.cache_clear()
    graphs = [g for n in range(1, 8) for g in generate_graphs(n)]
    classes = list(NAMED_CLASSES.values())
    assert len(graphs) * len(classes) > bound
    for cls in classes:
        for g in graphs:
            assert cache(cls, g) == cls.contains(g)
            assert cache.cache_info().currsize <= bound
    assert cache.cache_info().currsize == bound
    cache.cache_clear()


def test_revalidation_ignores_the_class_cache(monkeypatch):
    """A cached membership of a disconnected graph in Gc is caught:
    re-validation asks `ClassSpec.contains` itself, so the verify fails
    instead of reporting the graph."""
    from forbpairs import harness
    from forbpairs.pairs import ClassSpec

    pair, gc = PairSpec(G("K3"), G("4K1")), NAMED_CLASSES["Gc"]
    c5k1 = canonical_graph(G("C5+K1"))  # as generated, and imperfect
    assert c5k1 in generate_graphs(6, [pair.x, pair.y])
    assert not gc.contains(c5k1)
    harness._in_class.cache_clear()
    try:
        monkeypatch.setattr(ClassSpec, "contains", lambda self, g: True)
        assert harness._in_class(gc, c5k1)
        monkeypatch.undo()
        assert harness._in_class(gc, c5k1)
        with pytest.raises(AssertionError, match="failed re-validation"):
            verify_universal(pair, gc, "perfect", 6)
    finally:
        harness._in_class.cache_clear()


def test_hunt_smallest_witnesses():
    found = verify_universal(
        PairSpec(G("4K1"), G("D")), NAMED_CLASSES["Goalpha"], "perfect", 6
    ).counterexamples
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
