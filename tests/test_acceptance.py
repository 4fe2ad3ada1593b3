"""Acceptance suite: one test per criterion, each printing a verdict line.

The heavyweight shared resource is the exhaustive catalogue of graphs up
to order 9 (274,668 classes at n=9); it is generated once per session and
reused through the harness cache.
"""

import itertools
import random
from pathlib import Path

import pytest

from forbpairs import catalog
from forbpairs.canon import canonical_code, isomorphic
from forbpairs.expr import graph_from_expr as G
from forbpairs.graph6 import decode_graph6
from forbpairs.graphs import (
    Graph,
    chromatic_number,
    complement,
    disjoint_union,
    is_connected,
    max_clique,
)
from forbpairs.harness import (
    census,
    derive_blowup_catalog,
    generate_graphs,
    generate_upto,
    verify_universal,
)
from forbpairs.induced import contains_induced, induced_closure, is_free
from forbpairs.pairs import NAMED_CLASSES, PairSpec, classify_pair
from forbpairs.perfection import is_perfect_definition, is_perfect_spgt
from forbpairs.structure import peel_colour
from forbpairs.twins import blow_up, twin_collapse

THREADS = 2
DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def upto8():
    return [g for n in range(1, 9) for g in generate_graphs(n, threads=THREADS)]


@pytest.fixture(scope="module")
def upto9():
    return [g for n in range(1, 10) for g in generate_graphs(n, threads=THREADS)]


@pytest.mark.slow
def test_c01_oracle_agreement(upto8):
    """SPGT oracle == definition oracle on every graph with at most 8
    vertices, each a fresh copy, so that the search runs whatever a walk
    carried."""
    disagreements = 0
    for g in upto8:
        g = Graph(g.n, g.rows)
        if is_perfect_spgt(g).perfect != is_perfect_definition(g).perfect:
            disagreements += 1
    assert disagreements == 0
    _report("c01 oracle-agreement", f"{len(upto8)} graphs, 0 disagreements")


def test_c02_closure_of_co_k3_p4():
    clo = induced_closure(G("co(K3+P4)"))
    order4 = {canonical_code(g) for g in clo[4]}
    order5 = {canonical_code(g) for g in clo[5]}
    assert order4 == {canonical_code(G(s)) for s in ["P4", "K1,3", "Z1", "D", "C4"]}
    assert order5 == {
        canonical_code(G(s))
        for s in ["co(K1+P4)", "K1,2,2", "co(K2+P3)", "K1,1,3", "K2,3"]
    }
    _report("c02 closure-slices", "five order-4 and five order-5 subgraphs")


@pytest.mark.slow
def test_c03_subgraph_characterisation(upto8):
    """g embeds in co(K3uP4) iff g avoids the ten listed obstructions."""
    host = G("co(K3+P4)")
    obstructions = [
        G(s) for s in ["4K1", "2K1+K2", "K1+P3", "2K2", "K1+K3", "K4", "C5",
                       "co(P5)", "K3,3", "K2,2,2"]
    ]
    mism = 0
    for g in upto8:
        lhs = contains_induced(host, g) is not None
        rhs = is_free(g, obstructions)
        if lhs != rhs:
            mism += 1
    assert mism == 0
    _report("c03 iff-characterisation", f"{len(upto8)} graphs, 0 mismatches")


def test_c04_exception_census():
    c = census([G("2K1+K2"), G("D")], ["non-perfect"], 8, threads=THREADS)
    assert len(c.members) == 5
    gs = [decode_graph6(m) for m in c.members]
    assert [g.n for g in gs] == [5, 6, 6, 7, 7]
    assert isomorphic(gs[0], G("C5"))
    assert isomorphic(complement(gs[1]), gs[2])
    assert isomorphic(complement(gs[3]), gs[4])
    _report("c04 exception-census", "C5 plus two complement-closed pairs (6,6,7,7)")


def test_c05_thirteen_fourteen():
    c13 = census([G("3K1"), G("K4")],
                 ["connected", "not-omega-colourable", "not-odd-cycle"], 8,
                 threads=THREADS)
    assert len(c13.members) == 13
    # the companion count of 14 includes two disconnected graphs (C5+K1 and
    # C5+K2); with connectivity imposed the census has 12 members -- see the
    # decisions ledger
    c14 = census([G("4K1"), G("K3")],
                 ["alpha=3", "not-omega-colourable", "not-odd-cycle"], 8,
                 threads=THREADS)
    assert len(c14.members) == 14
    c14_connected = census(
        [G("4K1"), G("K3")],
        ["connected", "alpha=3", "not-omega-colourable", "not-odd-cycle"], 8,
        threads=THREADS)
    assert len(c14_connected.members) == 12
    disconnected = [m for m in c14.members if not is_connected(decode_graph6(m))]
    assert sorted(disconnected) == ["E@T_", "F_Ch_"]  # C5+K1, C5+K2
    assert isomorphic(decode_graph6("E@T_"), G("C5+K1"))
    assert isomorphic(decode_graph6("F_Ch_"), G("C5+K2"))
    _report("c05 thirteen-fourteen", "13 and 14 members reproduced")


P1_SPORADIC_PAIRS = [
    ("3K1", "K3"), ("3K1", "Z1"), ("3K1", "D"),
    ("K1+P3", "K3"), ("K1+P3", "Z1"), ("K1+P3", "D"),
    ("2K1+K2", "K3"), ("2K1+K2", "Z1"),
]
P1_P4_REPRESENTATIVES = [
    ("P4", "K5"), ("P3", "C7"), ("K1+K2", "K1,4"), ("2K1", "C9"), ("K2", "C6"),
]


@pytest.mark.slow
def test_c06_theorem_if_direction_at_nine():
    checked = 0
    for a, b in P1_SPORADIC_PAIRS + P1_P4_REPRESENTATIVES:
        pair = PairSpec(G(a), G(b))
        assert classify_pair(pair)["P1"]
        report = verify_universal(pair, NAMED_CLASSES["G5"], "perfect", 9,
                                  class_name="G5", threads=THREADS)
        assert report.verdict == "all_hold", (a, b, report.to_text())
        checked += 1
    omega_report = verify_universal(
        PairSpec(G("2K1+K2"), G("D")), NAMED_CLASSES["G5"], "omega", 9,
        class_name="G5", threads=THREADS)
    assert omega_report.verdict == "all_hold"
    _report("c06 perfectness-if", f"{checked} P1 pairs + omega pair at n<=9")


@pytest.mark.slow
def test_c07_spot_checks():
    cases = [
        (("K1,3", "P5"), "Gcalpha", "perfect"),
        (("K1,3", "Z2"), "Gcoalpha", "perfect"),
        (("chair", "Z1"), "Gco", "perfect"),
        (("2K1+K2", "co(K1+P4)"), "Goalpha", "omega"),
    ]
    for (a, b), cls, prop in cases:
        report = verify_universal(PairSpec(G(a), G(b)), NAMED_CLASSES[cls],
                                  prop, 9, class_name=cls, threads=THREADS)
        assert report.verdict == "all_hold", (a, b, report.to_text())
    _report("c07 spot-checks", "four class/property checks all_hold at n<=9")


def test_c08a_c7_hunt():
    found = verify_universal(PairSpec(G("K1,3"), G("K3")),
                             NAMED_CLASSES["Gcalpha"], "omega", 7).counterexamples
    assert len(found) == 1 and isomorphic(decode_graph6(found[0].graph6), G("C7"))
    found9 = verify_universal(PairSpec(G("K1,3"), G("K3")),
                              NAMED_CLASSES["Gcalpha"], "omega", 9).counterexamples
    assert {c.order for c in found9} == {7, 9}
    assert any(isomorphic(decode_graph6(c.graph6), G("C9")) for c in found9)
    _report("c08a hunt", "C7 at n=7; C7 and C9 at n<=9")


def test_c08b_co_c7_hunt():
    found = verify_universal(PairSpec(G("K1,3"), G("2K2")),
                             NAMED_CLASSES["Gco"], "omega", 7).counterexamples
    assert any(isomorphic(decode_graph6(c.graph6), G("co(C7)")) for c in found)
    _report("c08b hunt", f"co(C7) among {len(found)} witnesses at n<=7")


def test_c08c_observation_witnesses():
    conditions = [
        (("4K1", "Z1"), "Goalpha"),
        (("4K1", "D"), "Gcoalpha"),
        (("2K1+K2", "co(K1+P4)"), "Gcoalpha"),
    ]
    sizes = []
    for (a, b), cls in conditions:
        found = verify_universal(PairSpec(G(a), G(b)), NAMED_CLASSES[cls],
                                 "perfect", 7).counterexamples
        assert found, f"no witness for {{{a},{b}}} in {cls} at n<=7"
        sizes.append(min(c.order for c in found))
    _report("c08c witnesses", f"three conditions witnessed at orders {sizes}")


@pytest.mark.slow
def test_c08d_sampled_pairs_outside_o4plus():
    small = list(generate_upto(5))
    eligible = []
    for i, j in itertools.combinations_with_replacement(range(len(small)), 2):
        pair = PairSpec(small[i], small[j])
        vec = classify_pair(pair)
        sub_p4 = contains_induced(G("P4"), small[i]) or contains_induced(
            G("P4"), small[j])
        if sub_p4 or vec["O4plus"]:
            continue
        eligible.append((i, j))
    rng = random.Random(0)
    sample = rng.sample(eligible, 10)
    orders = []
    for i, j in sample:
        pair = PairSpec(small[i], small[j])
        found = []
        for n_cap in range(5, 11):
            found = verify_universal(pair, NAMED_CLASSES["Gcoalpha"],
                                     "omega", n_cap).counterexamples
            if found:
                break
        assert found, (
            f"FINDING: no counterexample up to n=10 for {pair.display()}; "
            "this contradicts the only-if direction"
        )
        orders.append(found[0].order)
    assert max(orders) <= 10
    _report("c08d sampled-pairs", f"10/10 witnessed, orders {sorted(orders)}")


def test_c09_structural_suites():
    from forbpairs.graphs import is_bipartite, is_cycle
    from forbpairs.structure import VIOLATION, indep5_classify, olariu_decompose

    olariu_checked = 0
    for n in range(1, 10):
        for g in generate_graphs(n, [catalog.paw()], threads=THREADS):
            if is_connected(g):
                olariu_checked += 1
                assert all(r.tag != VIOLATION for r in olariu_decompose(g))
    bip_checked = 0
    for n in range(1, 10):
        for g in generate_graphs(n, [catalog.chair(), catalog.complete(3)],
                                 threads=THREADS):
            if is_connected(g) and not (g.n % 2 == 1 and is_cycle(g)):
                bip_checked += 1
                assert is_bipartite(g)
    k1k13 = disjoint_union(catalog.empty_graph(1), catalog.claw())
    shape_checked = 0
    for n in range(1, 10):
        for g in generate_graphs(n, [k1k13, catalog.complete(3)],
                                 threads=THREADS):
            if is_connected(g):
                tag = indep5_classify(g)
                if tag != "not_applicable":
                    shape_checked += 1
    assert olariu_checked > 1500 and bip_checked > 40 and shape_checked > 5
    _report("c09 structural-suites",
            f"olariu {olariu_checked}, bipartite {bip_checked}, "
            f"shape {shape_checked} graphs at n<=9")


@pytest.mark.slow
def test_c10_constructive_colouring():
    rng = random.Random(2024)
    instances = 0
    hall_failures = 0
    while instances < 200:
        kind = rng.randrange(4)
        if kind == 0:  # single clique
            g = catalog.complete(rng.randint(9, 16))
        elif kind == 1:  # up to three disjoint cliques
            sizes = [rng.randint(9, 14)] + [
                rng.randint(1, 12) for _ in range(rng.randint(0, 2))
            ]
            g = catalog.complete(sizes[0])
            for s in sizes[1:]:
                g = disjoint_union(g, catalog.complete(s))
        elif kind == 2:  # cliques sharing one cut vertex (blown P3 / claw)
            arms = rng.randint(2, 3)
            base = catalog.complete_multipartite((1, arms))
            spec = [("independent", 1)] + [
                ("clique", rng.randint(8, 11)) for _ in range(arms)
            ]
            g = blow_up(base, spec)
        else:  # two cliques joined by an edge (blown P4)
            base = catalog.path(4)
            g = blow_up(base, [("clique", rng.randint(8, 11)),
                               ("independent", 1), ("independent", 1),
                               ("clique", rng.randint(8, 11))])
        if g.n > 30:
            continue
        try:
            colouring, peel = peel_colour(g, 3, 2)
        except Exception as exc:  # Hall failures must be counted, not hidden
            hall_failures += 1
            raise AssertionError(f"peel_colour failed on a valid instance: {exc}")
        omega = max_clique(g)
        assert colouring.num_colours == omega
        assert colouring.is_proper(g)
        # cross-check against the exact chromatic number of the collapsed graph
        quotient = twin_collapse(g)
        assert chromatic_number(g) == omega
        assert chromatic_number(quotient.base) <= omega
        instances += 1
    assert hall_failures == 0
    _report("c10 constructive-colouring",
            f"{instances} instances, proper omega-colourings, 0 Hall failures")


@pytest.mark.slow
def test_c11_blowup_catalog():
    pats = [catalog.k_k1_plus_k2(2), catalog.gem()]
    cat = derive_blowup_catalog(9, threads=THREADS)
    assert len(cat.members) <= 14
    bases = [decode_graph6(m) for m in cat.members]
    # closure: every base is itself free, contains C5, and is twin-free
    base_codes = {canonical_code(b) for b in bases}
    for b in bases:
        assert is_free(b, pats)
        assert contains_induced(b, catalog.cycle(5)) is not None
        assert not twin_collapse(b).merges
        assert canonical_code(twin_collapse(b).base) in base_codes
    # blow-ups with random size vectors stay free (the 'if' direction)
    rng = random.Random(7)
    blowups = 0
    for b in bases:
        allowed = []
        for v in range(b.n):
            kinds = []
            for kind in ("independent", "clique"):
                spec = [("independent", 1)] * b.n
                spec[v] = (kind, 2)
                if is_free(blow_up(b, spec), pats):
                    kinds.append(kind)
            allowed.append(kinds)
        for _ in range(25):
            budget = 12 - b.n
            spec = []
            for v in range(b.n):
                if allowed[v] and budget > 0 and rng.random() < 0.5:
                    extra = rng.randint(1, min(3, budget))
                    budget -= extra
                    spec.append((rng.choice(allowed[v]), 1 + extra))
                else:
                    spec.append(("independent", 1))
            blown = blow_up(b, spec)
            assert is_free(blown, pats), (b.edges(), spec)
            blowups += 1
    # the derived catalog is published in the repository
    published = (DATA_DIR / "blowup_catalog_n9.g6").read_text().split()
    assert published == cat.members
    _report("c11 blowup-catalog",
            f"{len(cat.members)} bases (<= 14), {blowups} free blow-ups")


@pytest.mark.slow
def test_c12_ramsey_sanity(upto9):
    from collections import Counter

    from forbpairs.harness import KNOWN_COUNTS

    by_order = Counter(g.n for g in upto9)
    assert [by_order[n] for n in range(1, 10)] == KNOWN_COUNTS[1:10]
    p33 = [G("3K1"), G("K3")]
    p34 = [G("3K1"), G("K4")]
    checked = 0
    for g in upto9:
        if g.n >= 6:
            assert not is_free(g, p33), g
            checked += 1
        if g.n >= 9:
            assert not is_free(g, p34), g
    _report("c12 ramsey-sanity", f"{checked} graphs on 6..9 vertices, 0 exceptions")
