import hashlib
import itertools

import pytest

from forbpairs import catalog, harness
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


@pytest.fixture
def workbench(monkeypatch):
    """A fresh `harness.Workbench` in place of the default one: the test
    starts with empty caches and leaves the default instance as it was."""
    monkeypatch.setattr(harness, "WORKBENCH", harness.Workbench())
    return harness.WORKBENCH


def test_counts_match_known_sequence():
    for n in range(1, 9):
        assert len(generate_graphs(n)) == KNOWN_COUNTS[n]


# sha256 of repr([[[g.rows for g in level] for level in walk] ...]) over the
# levels 0..8 of all graphs, then of the nine classes: pinned before the
# parent records were rebuilt, since every report reads these levels
LEVELS_SHA256 = "b1bc89ba12d7ea34ac758a4bf0edc540d3df591539f747cec2257bbf848da991"


def test_levels_match_golden(monkeypatch, workbench):
    """Every level up to order 8, of all graphs and of the nine classes,
    has the pinned rows; the class {K1,3, Z2} is built first, from empty
    caches, with two worker processes (its levels 6 and 7 reach the
    pool)."""
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    generate_graphs(8, [G("K1,3"), G("Z2")], threads=2)
    walks = [
        [[g.rows for g in generate_graphs(n, pats)] for n in range(9)]
        for pats in [None] + [[G(s) for s in pair] for pair in PATTERN_PAIRS]
    ]
    assert hashlib.sha256(repr(walks).encode()).hexdigest() == LEVELS_SHA256


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


def _candidate_masks(parent, group):
    """The masks of `_Parent.masks` by their definition: on the built child,
    the new vertex has the maximal (degree, neighbour degree sum, triangles),
    and the mask is the least of its orbit under group, the automorphisms
    of the parent as vertex -> image tuples."""
    new = parent.n
    out = []
    for mask in range(1 << new):
        child = _extension(parent, mask)

        def invariant(v):
            ns = bits(child.rows[v])
            triangles = sum(child.adj(u, w) for u, w in itertools.combinations(ns, 2))
            return child.degree(v), sum(map(child.degree, ns)), triangles

        if max(map(invariant, range(new + 1))) != invariant(new):
            continue
        if any(sum(1 << gamma[v] for v in bits(mask)) < mask for gamma in group):
            continue
        out.append(mask)
    return out


def _check_candidate_masks(n, group_of):
    """Each generated graph on n vertices, which carries the automorphisms
    of the search that labelled it, a shuffled copy, which carries them
    conjugated, and the same copy without them, which is searched, gets
    the candidate masks of the slow twin over group_of(a copy without
    them)."""
    import random

    from forbpairs.graphs import relabel
    from forbpairs.harness import _Parent

    rng = random.Random(6 + n)
    for g in generate_graphs(n):
        perm = list(range(n))
        rng.shuffle(perm)
        moved = relabel(g, perm)
        plain = Graph(n, moved.rows)
        assert g.auts is not None and moved.auts is not None and plain.auts is None
        for parent in (g, moved, plain):
            want = _candidate_masks(parent, group_of(Graph(n, parent.rows)))
            assert _Parent(parent).masks == want, parent.rows


def test_candidate_masks_match_their_definition():
    """Every graph on at most 6 vertices, over all n! permutations.  A mask
    test by generators alone, one image at a time, also kept 13 and 14 for
    the parent rows (18, 9, 24, 6, 5), which lie in the orbits of 7 and 11."""
    from test_canon import _brute_automorphisms

    from forbpairs.harness import _Parent

    for n in range(7):
        _check_candidate_masks(n, _brute_automorphisms)
    assert _Parent(Graph(5, (18, 9, 24, 6, 5))).masks == [7, 11, 15, 31]


@pytest.mark.slow
def test_candidate_masks_match_their_definition_seven():
    """The same at n = 7, over the group that `_generated_group` builds from
    the searched generators (`test_canon` checks it against all 7!
    permutations)."""
    from test_canon import _generated_group

    _check_candidate_masks(7, lambda g: _generated_group(7, automorphism_generators(g)))


def test_parents_are_not_searched_again(monkeypatch, workbench):
    """With every cache empty, a walk of all graphs to order 7 runs one
    canonical search per child built and none while a parent record is
    built: each parent carries the automorphisms that its search as a
    child recorded.  The walk keeps no child in the records.  It builds
    1,273 children for its 1,252 classes of orders 1 to 7: the invariant
    filter without its triangle count let 1,307 through, so a lost tie
    break fails here."""
    from forbpairs import canon

    search, init, form = canon._canon, harness._Parent.__init__, harness.canonical_form
    building, records, calls = [], [], []  # calls: True when inside a record
    built = []  # the children given a canonical form

    def counted(*args):
        calls.append(bool(building))
        return search(*args)

    def child_form(g):
        built.append(g)
        return form(g)

    def record(self, parent):
        building.append(parent)
        try:
            init(self, parent)
        finally:
            building.pop()
        records.append(self)

    monkeypatch.setattr(canon, "_canon", counted)
    monkeypatch.setattr(harness, "canonical_form", child_form)
    monkeypatch.setattr(harness._Parent, "__init__", record)
    assert len(generate_graphs(7)) == KNOWN_COUNTS[7]
    assert len(records) == sum(KNOWN_COUNTS[:7])
    assert len(calls) == len(built) == 1273
    assert not any(calls)
    assert not any(r.children for r in records)


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


def test_limits_checked_before_generating(monkeypatch, workbench):
    """An order beyond the limit, or a thread count below 1, fails before
    any level is built."""

    def no_levels(*args, **kwargs):
        raise AssertionError("a level was built")

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


def _oracle_walk(top, patterns=None, threads=1):
    """Levels 1..top of a class, each graph as (rows, omega, chi, perfect)
    as built, with both verdicts asked on every level before the next one
    is built, so that each level inherits from its parents."""
    levels = []
    for n in range(1, top + 1):
        level = generate_graphs(n, patterns, threads=threads)
        levels.append([(g.rows, g.omega, g.chi, g.perfect) for g in level])
        for g in level:
            harness._certificate(g, "perfect")
            harness._certificate(g, "omega")
    return levels


def test_parallel_equals_sequential(monkeypatch, workbench):
    """The same levels, and the same values inherited, with two worker
    processes as with one."""
    # levels 6 and 7 hold 74 and 217 graphs, at least the 64 parents that
    # send a level to the pool
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    pats = [G("K1,3"), G("P5")]
    seq = _oracle_walk(8, pats, threads=1)
    workbench.walk.cache_clear()
    workbench.parent.cache_clear()
    par = _oracle_walk(8, pats, threads=2)
    assert par == seq
    for slot in (1, 2, 3):  # each of omega, chi and perfect is inherited
        assert any(g[slot] is not None for g in seq[7])


def _check_carried_values(top, workbench):
    """Every value a graph inherited, on all graphs and the nine classes up
    to order top, equals the oracles' on a fresh copy; each of the three
    slots is inherited somewhere.  The parent records are cleared per
    class, so no child was built, and had its slots filled, by another
    class's walk."""
    from forbpairs.graphs import chromatic_number, max_clique
    from forbpairs.perfection import is_perfect_spgt

    carried = [0, 0, 0]
    for pats in [None] + [[G(x), G(y)] for x, y in PATTERN_PAIRS]:
        workbench.parent.cache_clear()
        for level in _oracle_walk(top, pats):
            for rows, *have in level:
                fresh = Graph(len(rows), rows)
                perfect = is_perfect_spgt(fresh).perfect
                want = max_clique(fresh), chromatic_number(fresh), perfect
                for k, (value, truth) in enumerate(zip(have, want)):
                    if value is not None:
                        assert value == truth, (rows, k)
                        carried[k] += 1
    assert all(carried), carried


def test_carried_values_equal_the_oracles(workbench):
    _check_carried_values(7, workbench)


@pytest.mark.slow
def test_carried_values_equal_the_oracles_eight(workbench):
    _check_carried_values(8, workbench)


def test_walk_asked_nothing_carries_nothing(workbench):
    """Generation alone asks no oracle and leaves every slot empty."""
    for n in range(1, 8):
        assert all(
            (g.omega, g.chi, g.perfect) == (None, None, None) for g in generate_graphs(n)
        )


def test_thread_count_builds_no_level_again(monkeypatch, workbench):
    """A walk at threads=2 after the same walk at threads=1 reads every
    level from the cache: it builds none and starts no pool."""
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    def no_levels(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    pats = [G("K1,3"), G("P5")]
    seq = [generate_graphs(n, pats) for n in range(9)]
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(harness, "_children", no_levels)
    assert [generate_graphs(n, pats, threads=2) for n in range(9)] == seq


def test_pool_never_exceeds_the_cpus(monkeypatch, workbench):
    """A thread count above the CPUs the process may use starts one worker
    per CPU, and the level is the same for every count."""
    import multiprocessing

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

        def imap(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    pats = [G("K1,3"), G("P5")]
    expected = generate_graphs(8, pats)
    for cpus, threads, workers in [(3, 1000, 3), (3, 2, 2), (1, 8, None)]:
        monkeypatch.setattr(harness, "_cpus", lambda: cpus)
        started.clear()
        workbench.walk.cache_clear()
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


def test_level_cache_is_bounded(workbench):
    """The walk cache holds at most `WALK_CACHE_SIZE` classes."""
    bound = harness.WALK_CACHE_SIZE
    assert workbench.walk.cache_info().maxsize == bound
    small = [g for n in range(1, 6) for g in generate_graphs(n)]
    assert len(small) > bound  # 52 classes
    first = generate_graphs(4, [small[-1]])
    for p in small:
        generate_graphs(4, [p])
        assert workbench.walk.cache_info().currsize <= bound
    assert workbench.walk.cache_info().currsize == bound
    assert generate_graphs(4, [small[-1]]) == first


def test_child_caches_are_bounded(workbench):
    bound = harness.PARENT_CACHE_SIZE
    assert workbench.parent.cache_info().maxsize == bound
    for n in range(1, 9):
        generate_graphs(n)
        assert workbench.parent.cache_info().currsize <= bound
    # order 8 alone reads more parents than the bound holds
    assert workbench.parent.cache_info().currsize == bound


def test_levels_do_not_depend_on_cache_state(workbench):
    """The nine classes' levels up to 7 are the same built with every cache
    empty as built from parent records (symmetries and children) cached,
    and partly evicted, by the classes in reverse order."""

    def clear():
        for cache in (workbench.walk, workbench.parent):
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
    workbench.walk.cache_clear()
    warm = [[generate_graphs(n, pats) for n in range(1, 8)] for pats in classes]
    assert warm == cold


def test_revalidation_ignores_the_verdict_cache(monkeypatch, workbench):
    """A cached certificate for a perfect graph is caught: re-validation
    asks the uncached oracle, so the verify fails instead of reporting it.
    The default workbench never sees the poisoned verdict."""
    from types import SimpleNamespace

    pair = PairSpec(G("3K1"), G("K4"))
    c4 = canonical_graph(G("C4"))  # as generated
    assert c4 in generate_graphs(4, [pair.x, pair.y])
    assert harness._certificate(c4, "perfect") is None
    fake = SimpleNamespace(perfect=False, describe=lambda: "poisoned")
    with monkeypatch.context() as patched:
        patched.setattr(harness, "is_perfect_spgt", lambda g: fake)
        assert workbench.verdict(c4, "perfect") == "poisoned"
    assert workbench.verdict(c4, "perfect") == "poisoned"
    with pytest.raises(AssertionError, match="satisfies the property on re-check"):
        verify_universal(pair, NAMED_CLASSES["G"], "perfect", 4)
    monkeypatch.undo()
    assert harness.WORKBENCH is not workbench
    assert harness.WORKBENCH.verdict(c4, "perfect") is None
    assert verify_universal(pair, NAMED_CLASSES["G"], "perfect", 4).verdict == "all_hold"


def test_revalidation_ignores_the_oracle_slots(workbench):
    """A wrong clique or chromatic number kept on a generated class member
    makes it a counterexample, and re-validation, which checks a fresh
    copy, catches it.  A wrong "imperfect" is not trusted: the search for
    a witness runs and finds the graph perfect."""
    pair = PairSpec(G("3K1"), G("K4"))
    c4 = canonical_graph(G("C4"))  # as generated, perfect, chi = omega = 2
    level = generate_graphs(4, [pair.x, pair.y])
    g = level[level.index(c4)]
    for slot, value in (("omega", 1), ("chi", 3)):
        workbench.verdict.cache_clear()
        assert (g.omega, g.chi) == (None, None)
        setattr(g, slot, value)
        with pytest.raises(AssertionError, match="satisfies the property on re-check"):
            verify_universal(pair, NAMED_CLASSES["G"], "omega", 4)
        g.omega = g.chi = None
    clean = verify_universal(pair, NAMED_CLASSES["G"], "perfect", 4).to_text()
    workbench.verdict.cache_clear()
    g.perfect = False
    assert verify_universal(pair, NAMED_CLASSES["G"], "perfect", 4).to_text() == clean
    assert g.perfect is True


def test_reports_do_not_depend_on_the_verdict_cache(workbench):
    """The nine classes' verifies in Gc and Galpha at n <= 6 give the same
    text with every cache empty as with the levels built again and the
    verdicts of earlier verifies cached, and the second such pass computes
    no verdict."""
    caches = (workbench.walk, workbench.parent, workbench.verdict, workbench.in_class)
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
        misses = workbench.verdict.cache_info().misses
        assert [text(*run) for run in runs] == cold
    assert workbench.verdict.cache_info().misses == misses


def test_verdict_cache_is_bounded(workbench):
    """The verdict cache holds at most `VERDICT_CACHE_SIZE` verdicts."""
    bound = harness.VERDICT_CACHE_SIZE
    cache = workbench.verdict
    assert cache.cache_info().maxsize == bound
    graphs = [g for n in range(1, 8) for g in generate_graphs(n)]
    assert len(graphs) > bound
    for g in graphs:
        assert cache(g, "omega") == harness._certificate(g, "omega")
        assert cache.cache_info().currsize <= bound
    assert cache.cache_info().currsize == bound


def test_class_cache_is_bounded(workbench):
    """The class-membership cache holds at most `CLASS_CACHE_SIZE` entries
    and gives what `ClassSpec.contains` gives."""
    bound = harness.CLASS_CACHE_SIZE
    cache = workbench.in_class
    assert cache.cache_info().maxsize == bound
    graphs = [g for n in range(1, 8) for g in generate_graphs(n)]
    classes = list(NAMED_CLASSES.values())
    assert len(graphs) * len(classes) > bound
    for cls in classes:
        for g in graphs:
            assert cache(cls, g) == cls.contains(g)
            assert cache.cache_info().currsize <= bound
    assert cache.cache_info().currsize == bound


def test_revalidation_ignores_the_class_cache(monkeypatch, workbench):
    """A cached membership of a disconnected graph in Gc is caught:
    re-validation asks `ClassSpec.contains` itself, so the verify fails
    instead of reporting the graph."""
    from forbpairs.pairs import ClassSpec

    pair, gc = PairSpec(G("K3"), G("4K1")), NAMED_CLASSES["Gc"]
    c5k1 = canonical_graph(G("C5+K1"))  # as generated, and imperfect
    assert c5k1 in generate_graphs(6, [pair.x, pair.y])
    assert not gc.contains(c5k1)
    with monkeypatch.context() as patched:
        patched.setattr(ClassSpec, "contains", lambda self, g: True)
        assert workbench.in_class(gc, c5k1)
    assert workbench.in_class(gc, c5k1)
    with pytest.raises(AssertionError, match="failed re-validation"):
        verify_universal(pair, gc, "perfect", 6)


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
