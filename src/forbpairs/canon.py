"""Canonical forms for small graphs via refinement and pruned backtracking.

The canonical code is the minimum, over a pruned individualisation tree, of
the upper-triangle adjacency bits read in the leaf's vertex order.  Two
graphs are isomorphic exactly when their codes agree.  Pruning uses prefix
comparison against the best leaf and orbits: a node tries one candidate per
orbit of its target cell.  An orbit is a vertex mask, joined under twins
and under the automorphisms found between equal-code leaves that fix the
individualised vertices.  Both prunings only skip subtrees whose leaf codes
are provably already represented, so the minimum is unaffected.

A cell of mutual twins is walked without branching or refining.  When the
first cell of two or more vertices holds only twins of one another, its
vertices are individualised in increasing order, all but the last joining
the fixed vertices, and the search goes on to the next cell.  Branching
there would make one child only, since the twins of the cell form one
orbit.  Refining that child would change nothing: twins have the same
neighbours outside the cell, so splitting one off leaves the partition
equitable.  And a prefix pruned partway along the walk is pruned at its
end, since the longer prefix extends it.  So the search visits the same
leaves in the same order as one that branches at every cell, and the
code, the vertex order and the recorded automorphisms are the same; the
tests keep that search as the reference.  Testing the cell against its
least vertex is enough, since being twins is an equivalence relation.

Refinement splits cells until the ordered partition is equitable: the
vertices of a cell have equally many neighbours in each cell.  The
reference round splits every cell by its vertices' neighbour counts in
all cells, read in order, and puts the parts in increasing order of those
counts.  `refine` counts only into the cells that the last round made,
less the last part of each split (McKay, "Practical graph isomorphism",
Congressus Numerantium 30, 1981), and reaches the same ordered partition
round by round.  It keeps this invariant: before a round, the
vertices of a cell have equal counts in each cell of the partition that
the last round started from.  Within a cell, then, the count in a cell
that the last round left whole is the same for every vertex, and the
count in the last part of a split is the count in the whole, again the
same for every vertex, less the counts in the other parts, which come
before it and are counted.  So two vertices of a cell whose counts
differ first differ in a counted part, and the round splits and orders
every cell as the reference round would; afterwards the vertices of each
cell have equal counts in every cell the round started from, which is
the invariant again.  The root counts into the whole vertex set, so its
first round splits by degree.  A child starts from its parent's
partition, which is equitable, twin walk included, with one vertex split
off its cell: it counts into that vertex alone, the rest of the cell
being the last part.

The search carries down the tree the leading singletons of its partition,
in order, and their rows of the code.  Refinement splits cells in place,
so a child's leading singletons extend its parent's, and only the rows of
the vertices newly placed are read.

`orbits` gives the orbits of the whole automorphism group, joined the same
way from `automorphism_generators`.  Those generators come from the
search that labelled the graph when there was one: `canonical_form` keeps
the automorphisms its search recorded on the graph (`Graph.auts`), and
`graphs.relabel` conjugates them onto the canonical copy.  So a graph that
generation built is searched once, as a child, and not again as a parent;
only a graph without them, such as a pattern or a graph read from input,
is searched by `automorphism_generators` itself.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, bits, relabel, twins


def _join(orbit: list[int], u: int, v: int) -> None:
    """Merge the orbits of u and v, where orbit[x] is the mask of x's orbit."""
    if not orbit[u] >> v & 1:
        merged = orbit[u] | orbit[v]
        for x in bits(merged):
            orbit[x] = merged


def refine(rows: Sequence[int], cells: list[int], new: list[int]) -> list[int]:
    """The equitable ordered partition that rounds of splitting reach from
    cells, where new holds the cells to count into first (module
    docstring).  A round splits every cell by its vertices' neighbour
    counts in the cells of new, read in order, into parts in increasing
    order of the counts; the next round counts into the parts it made,
    less the last part of each split.  A round that splits nothing, or a
    partition of singletons, ends it."""
    n = len(rows)
    while new and len(cells) < n:
        out: list[int] = []
        made: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                out.append(cell)
                continue
            sigs: dict[int, int] = {}
            for v in bits(cell):
                r = rows[v]
                sig = 0
                for c in new:
                    sig = sig << 7 | (r & c).bit_count()
                if sig in sigs:
                    sigs[sig] |= 1 << v
                else:
                    sigs[sig] = 1 << v
            if len(sigs) == 1:
                out.append(cell)
            else:
                parts = [sigs[sig] for sig in sorted(sigs)]
                out += parts
                made += parts[:-1]
        cells, new = out, made
    return cells


def _canon(n: int, rows: Sequence[int]):
    """(code, vertex order, automorphisms found between equal-code leaves)."""
    if n == 0:
        return b"\x00", (), []

    best_code: tuple[int, ...] | None = None
    best_perm: list[int] | None = None
    auts: list[tuple[int, ...]] = []

    def search(
        cells: list[int],
        new: list[int],
        fixed: list[int],
        prefix: list[int],
        partial: tuple[int, ...],
    ):
        """The node whose partition is cells refined by counting into new;
        prefix holds the parent node's leading singletons, in order, and
        partial their rows of the code."""
        nonlocal best_code, best_perm
        cells = refine(rows, cells, new)

        # the refined cells keep the leading singletons in place; the cells
        # after them are placed in turn, and a cell of mutual twins, which
        # would make one child that refinement would leave alone, is walked
        # in increasing order (module docstring)
        prefix = prefix[:]
        placed = len(prefix)
        t = placed
        while t < len(cells):
            cell = cells[t]
            if cell & (cell - 1):
                vs = bits(cell)
                if not all(twins(rows, vs[0], u) for u in vs[1:]):
                    break
                cells[t : t + 1] = [1 << v for v in vs]
                fixed = [*fixed, *vs[:-1]]
                prefix += vs
                t += len(vs)
            else:
                prefix.append(cell.bit_length() - 1)
                t += 1
        for i in range(placed, t):
            r = rows[prefix[i]]
            acc = 0
            for u in prefix[:i]:
                acc = acc << 1 | (r >> u & 1)
            partial += (acc,)
        if best_code is not None and partial > best_code[:t]:
            return

        if t == n:
            if best_code is None or partial < best_code:
                best_code = partial
                best_perm = prefix
            elif partial == best_code:
                gamma = [0] * n
                for i in range(n):
                    gamma[best_perm[i]] = prefix[i]
                auts.append(tuple(gamma))
            return

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
            search(child, [1 << v], fixed + [v], prefix, partial)

    full = (1 << n) - 1
    search([full], [full], [], [], ())
    assert best_code is not None and best_perm is not None

    total_bits = n * (n - 1) // 2
    acc = 0
    for i, row in enumerate(best_code):
        acc = acc << i | row
    payload = acc.to_bytes((total_bits + 7) // 8, "big") if total_bits else b""
    return bytes([n]) + payload, tuple(best_perm), auts


def canonical_form(g: Graph) -> tuple[bytes, tuple[int, ...]]:
    """Canonical code and the vertex order realising it (position -> vertex).
    The automorphisms the search recorded are kept on g as `Graph.auts`."""
    code, perm, auts = _canon(g.n, g.rows)
    g.auts = b"".join(map(bytes, auts))
    return code, perm


def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Permutations (vertex -> image) that generate the automorphism group.

    They are the automorphisms the canonical search records between leaves
    of equal code, plus the transpositions that join each twin class in a
    chain: the search merges twin candidates without visiting their leaves,
    so the transpositions stand in for the automorphisms it skipped.  Every
    other subtree is pruned by a recorded automorphism or holds no leaf of
    the best code, so together they generate the whole group.  A graph that
    carries the automorphisms of the search that labelled it (`Graph.auts`,
    set by `canonical_form` and conjugated by `relabel`) is not searched
    again: conjugation maps generators to generators and twin classes to
    twin classes, so its recorded automorphisms and its own twin
    transpositions generate its group too.
    """
    n, rows = g.n, g.rows
    kept = g.auts
    # kept: n bytes per permutation, read back n at a time
    gens = list(_canon(n, rows)[2] if kept is None else zip(*[iter(kept)] * n))
    for v in range(n):
        for u in range(v - 1, -1, -1):
            if twins(rows, u, v):
                swap = list(range(n))
                swap[u], swap[v] = v, u
                gens.append(tuple(swap))
                break
    return tuple(gens)


def orbits(g: Graph) -> tuple[int, ...]:
    """The orbits of the automorphism group as vertex masks, by least vertex."""
    orbit = [1 << v for v in range(g.n)]
    for gamma in automorphism_generators(g):
        for v in range(g.n):
            _join(orbit, v, gamma[v])
    return tuple(dict.fromkeys(orbit))  # each orbit first at its least vertex


def canonical_code(g: Graph) -> bytes:
    return _canon(g.n, g.rows)[0]


def canonical_graph(g: Graph) -> Graph:
    """Isomorphic copy of g relabelled into canonical order."""
    _, perm = canonical_form(g)
    return relabel(g, perm) if g.n else g


def isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    if sorted(map(g.degree, range(g.n))) != sorted(map(h.degree, range(h.n))):
        return False
    return canonical_code(g) == canonical_code(h)
