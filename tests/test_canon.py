import hashlib
import itertools
import random

import pytest

from forbpairs.canon import (
    _canon,
    _join,
    automorphism_generators,
    canonical_code,
    canonical_form,
    canonical_graph,
    isomorphic,
    orbits,
)
from forbpairs.expr import graph_from_expr as G
from forbpairs.graphs import (
    Graph,
    bits,
    build,
    complement,
    disjoint_union,
    relabel,
    twins,
)
from forbpairs.harness import generate_graphs
from forbpairs.twins import CLIQUE, INDEPENDENT, blow_up


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


def _check_labellings(g, labellings):
    code = canonical_code(g)
    for p in labellings:
        h = relabel(g, p)
        h_code, perm = canonical_form(h)
        assert h_code == code and relabel(h, perm) == g, (g, p)


def test_every_labelling_gets_the_same_code():
    """Slow twin of the pruned search: for every graph on at most 6
    vertices, each of the n! labellings h gets the generated graph's code,
    and relabelling h by its canonical order gives the generated graph back.
    (The code is the minimum over the leaves of the refinement tree, not
    over all n! labellings, so it is not compared with that minimum.)"""
    for n in range(7):
        for g in generate_graphs(n):
            _check_labellings(g, itertools.permutations(range(n)))


@pytest.mark.slow
def test_sampled_labellings_get_the_same_code_seven():
    """The same check at n = 7, on 250 of the 5,040 labellings of each
    graph, drawn in a seeded random order."""
    rng = random.Random(7)
    labellings = list(itertools.permutations(range(7)))
    for g in generate_graphs(7):
        _check_labellings(g, rng.sample(labellings, 250))


# sha256 of repr([_canon(g.n, g.rows) for g in _golden_graphs()]): the code,
# the vertex order and the recorded automorphisms, pinned before the orbit
# pruning was rewritten, since generation, certificates and reports all read
# the canonical labelling
CANON_SHA256 = "ae018b4f87bfa97dd04584a3af1b6ba788fb45fc9b9570bd71c660819499f856"


def _random_graph(rng, n):
    p = rng.choice([0.2, 0.5, 0.8])
    return build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def _golden_graphs():
    """Every graph on at most 7 vertices, then 3,000 seeded graphs on at
    most 12 in shuffled labellings: half of them random, half of them
    copies of a random graph on at most 4 vertices, which have many
    automorphisms, or their complements."""
    for n in range(8):
        yield from generate_graphs(n)
    rng = random.Random(2026)
    for _ in range(3000):
        if rng.random() < 0.5:
            g = _random_graph(rng, rng.randint(1, 12))
        else:
            part = g = _random_graph(rng, rng.randint(1, 4))
            for _ in range(rng.randint(1, 12 // part.n - 1)):
                g = disjoint_union(g, part)
            if rng.random() < 0.5:
                g = complement(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield relabel(g, perm)


def test_canonical_search_matches_golden():
    found = [_canon(g.n, g.rows) for g in _golden_graphs()]
    assert len(found) == 4253 and sum(len(auts) for _, _, auts in found) == 4011
    assert hashlib.sha256(repr(found).encode()).hexdigest() == CANON_SHA256



def reference_canon(n, rows):
    """The canonical search that branches at every non-singleton cell and
    refines at each child, the slow twin of `_canon`, which must return the
    same code, vertex order and automorphisms."""
    if n == 0:
        return b"\x00", (), []

    cells = [(1 << n) - 1]
    best_code: tuple[int, ...] | None = None
    best_perm: list[int] | None = None
    auts: list[tuple[int, ...]] = []

    def refine(cells: list[int]) -> list[int]:
        while True:
            changed = False
            out: list[int] = []
            for cell in cells:
                if cell & (cell - 1) == 0:
                    out.append(cell)
                    continue
                sigs: dict[int, int] = {}
                for v in bits(cell):
                    r = rows[v]
                    sig = 0
                    for c2 in cells:
                        sig = sig << 7 | (r & c2).bit_count()
                    if sig in sigs:
                        sigs[sig] |= 1 << v
                    else:
                        sigs[sig] = 1 << v
                if len(sigs) == 1:
                    out.append(cell)
                else:
                    changed = True
                    for sig in sorted(sigs):
                        out.append(sigs[sig])
            if not changed:
                return out
            cells = out

    def search(cells: list[int], fixed: list[int]):
        nonlocal best_code, best_perm
        cells = refine(cells)

        prefix: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                prefix.append(cell.bit_length() - 1)
            else:
                break
        partial = []
        for i, v in enumerate(prefix):
            r = rows[v]
            acc = 0
            for u in prefix[:i]:
                acc = acc << 1 | (r >> u & 1)
            partial.append(acc)
        pt = tuple(partial)
        if best_code is not None and pt > best_code[: len(pt)]:
            return

        if len(prefix) == len(cells) and len(prefix) == n:
            if best_code is None or pt < best_code:
                best_code = pt
                best_perm = prefix
            elif pt == best_code:
                gamma = [0] * n
                for i in range(n):
                    gamma[best_perm[i]] = prefix[i]
                auts.append(tuple(gamma))
            return

        t = len(prefix)
        target = cells[t]
        vs = bits(target)

        # orbit[v]: the target-cell vertices known to share v's orbit under
        # the automorphisms that fix every individualised vertex.  Twin
        # candidates are automorphic images of each other fixing all other
        # vertices, so they are merged without leaf discovery.
        orbit = [1 << v for v in range(n)]
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                if twins(rows, u, v):
                    _join(orbit, u, v)

        seen_auts = 0
        tried = 0
        for v in vs:
            while seen_auts < len(auts):
                gamma = auts[seen_auts]
                seen_auts += 1
                # refinement is invariant, so an automorphism that fixes the
                # individualised vertices maps the target cell onto itself
                if all(gamma[u] == u for u in fixed):
                    for w in vs:
                        _join(orbit, w, gamma[w])
            if orbit[v] & tried:
                continue
            tried |= 1 << v
            child = cells[:t] + [1 << v, target ^ (1 << v)] + cells[t + 1 :]
            search(child, fixed + [v])

    search(cells, [])
    assert best_code is not None and best_perm is not None

    total_bits = n * (n - 1) // 2
    acc = 0
    for i, row in enumerate(best_code):
        acc = acc << i | row
    payload = acc.to_bytes((total_bits + 7) // 8, "big") if total_bits else b""
    return bytes([n]) + payload, tuple(best_perm), auts


def _check_against_reference(g):
    assert _canon(g.n, g.rows) == reference_canon(g.n, g.rows), g


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_canonical_search_matches_reference_up_to_seven():
    """Every graph on at most 7 vertices, canonically labelled and in a
    shuffled labelling."""
    rng = random.Random(19)
    for n in range(8):
        for g in generate_graphs(n):
            _check_against_reference(g)
            _check_against_reference(_shuffled(g, rng))


def _twin_rich_graphs(rng, count):
    """Blow-ups of random graphs on at most 6 vertices, each vertex a clique
    or an independent set of 1 to 4 vertices, half of them complemented, in
    shuffled labellings: graphs on at most 24 vertices with large twin
    classes."""
    for _ in range(count):
        base = _random_graph(rng, rng.randint(1, 6))
        spec = [(rng.choice((CLIQUE, INDEPENDENT)), rng.randint(1, 4)) for _ in range(base.n)]
        g = blow_up(base, spec)
        if rng.random() < 0.5:
            g = complement(g)
        yield _shuffled(g, rng)


def test_canonical_search_matches_reference_on_blow_ups():
    for g in _twin_rich_graphs(random.Random(24), 2000):
        _check_against_reference(g)


@pytest.mark.slow
def test_canonical_search_matches_reference_eight():
    """All 12,346 graphs of order 8, in shuffled labellings."""
    rng = random.Random(8)
    graphs = generate_graphs(8)
    assert len(graphs) == 12346
    for g in graphs:
        _check_against_reference(_shuffled(g, rng))

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
    """Generated graphs and their shuffled copies carry the automorphisms
    of the search that labelled them, conjugated for the copies; a copy
    without them is searched.  All three give the brute-force group."""
    for g in generate_graphs(n):
        p = list(range(n))
        rng.shuffle(p)
        moved = relabel(g, p)
        plain = Graph(n, moved.rows)
        assert g.auts is not None and moved.auts is not None and plain.auts is None
        shuffled = _brute_automorphisms(plain)  # moved has the same rows
        for h, auts in ((g, _brute_automorphisms(g)), (moved, shuffled), (plain, shuffled)):
            assert _generated_group(n, automorphism_generators(h)) == auts, h
            images = {sum(1 << w for w in {a[v] for a in auts}) for v in range(n)}
            assert orbits(h) == tuple(sorted(images, key=lambda m: bits(m)[0])), h


def test_automorphism_generators_generate_the_group():
    """The generators give exactly the automorphism group, and `orbits` its
    orbits, for every graph on at most 6 vertices, canonically and randomly
    labelled, kept from the labelling search or searched."""
    rng = random.Random(3)
    for n in range(7):
        _check_automorphism_generators(n, rng)


@pytest.mark.slow
def test_automorphism_generators_generate_the_group_seven():
    _check_automorphism_generators(7, random.Random(4))


def test_kept_automorphisms_survive_pickling_and_are_ignored_by_equality():
    """`canonical_form` keeps its search's automorphisms on the graph and
    `relabel` conjugates them; the oracles keep their values in the
    `omega`, `chi` and `perfect` slots and `relabel` copies them; a pickle
    round trip keeps all four, and `==` and `hash` see none of them."""
    import pickle

    from forbpairs.graphs import chromatic_number, max_clique
    from forbpairs.perfection import is_perfect_spgt

    def slots(x):
        return x.auts, x.omega, x.chi, x.perfect

    g = relabel(G("C5+K2"), [3, 0, 6, 1, 5, 2, 4])
    plain = Graph(g.n, g.rows)
    assert slots(g) == slots(relabel(g, range(g.n))) == (None,) * 4
    _, perm = canonical_form(g)
    assert g.auts == b"".join(map(bytes, _canon(g.n, g.rows)[2])) != b""
    assert (max_clique(g), chromatic_number(g), is_perfect_spgt(g).perfect) == (2, 3, False)
    assert slots(g)[1:] == (2, 3, False)
    h = relabel(g, perm)
    assert set(zip(*[iter(h.auts)] * h.n)) <= _brute_automorphisms(h)
    assert slots(h)[1:] == (2, 3, False)
    for x in (g, h):
        back = pickle.loads(pickle.dumps(x))
        assert back == x and slots(back) == slots(x)
    assert g == plain and hash(g) == hash(plain) and slots(plain) == (None,) * 4
