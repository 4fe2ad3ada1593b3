"""Labelled simple graphs on at most 64 vertices, stored as row bitmasks.

A vertex is an index in ``range(n)``; ``rows[v]`` is the neighbourhood of
``v`` as a bit mask.  A graph's rows never change.  The slots written
after construction hold what searches learnt about the graph, so that no
second search asks for it: ``Graph.auts``, the automorphisms that the
canonical search which labelled the graph found on the way, and
``omega``, ``chi`` and ``perfect``, the values of ``max_clique``,
``chromatic_number`` and ``perfection.is_perfect_spgt``'s verdict.  The
oracles return a slot that is set and fill it when they search, and
generation sets a child's slots from its parent's
(``harness._Parent.extend``).  Each is fixed by the labelled graph, so
any two writers write the same value, and graphs can be shared freely
between threads, processes, walks and caches; equality ignores the
slots.

``bits`` is the one way to list the set bits of a mask: it reads them
from precomputed tables, one per byte of a 64-bit mask, so it costs one
lookup per byte up to the highest set bit, less than a lowest-bit loop
on masks of 8 to 60 bits.  Only ``clique_number`` pops the lowest bit
itself, because it stops as soon as the number of bits left bounds the
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


# _BYTE[k][b]: the set bits of b << 8k, lowest first
_BYTE = tuple(
    tuple(tuple(8 * k + i for i in range(8) if b >> i & 1) for b in range(256))
    for k in range(MAX_VERTICES // 8)
)


def bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of mask, lowest first; 0 <= mask < 1 << MAX_VERTICES."""
    if mask < 256:
        return _BYTE[0][mask]
    out = ()
    for table in _BYTE:
        out += table[mask & 255]
        mask >>= 8
        if not mask:
            return out
    raise ValueError(f"mask has bits at or above {MAX_VERTICES}")


def twins(rows: Sequence[int], u: int, v: int) -> bool:
    """True when u and v have the same neighbours apart from each other."""
    ru, rv = rows[u], rows[v]
    return ru == rv or ru ^ rv == 1 << u | 1 << v


class Graph:
    """Immutable simple graph with symmetric bitmask adjacency.

    ``auts`` is None, or automorphisms of the graph that a canonical search
    recorded: n bytes per permutation, byte v the image of vertex v.
    ``canon.canonical_form`` keeps its search's automorphisms here,
    ``relabel`` carries them over to the copy, and
    ``canon.automorphism_generators`` reads them instead of searching
    again.  ``omega``, ``chi`` and ``perfect`` are None until known: the
    clique number, the chromatic number, and whether the graph is
    perfect.  Equality and hashing ignore all four, and ``relabel`` and
    pickling keep them.
    """

    __slots__ = ("n", "rows", "auts", "omega", "chi", "perfect")

    def __init__(self, n: int, rows: Sequence[int], auts: bytes | None = None):
        self.n = n
        self.rows = tuple(rows)
        self.auts = auts
        self.omega: int | None = None
        self.chi: int | None = None
        self.perfect: bool | None = None

    def adj(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in bits(self.rows[u] >> (u + 1) << (u + 1))
        ]

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.rows)) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()!r})"


@dataclass(frozen=True)
class Invariants:
    alpha: int
    omega: int
    chi: int


@dataclass(frozen=True)
class ShapeReport:
    connected: bool
    bipartite: bool
    complete_multipartite: bool
    is_path: bool
    is_cycle: bool
    is_odd_cycle: bool
    is_C5: bool


def build(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse."""
    if n < 0 or n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ r) & (full ^ (1 << v)) for v, r in enumerate(g.rows)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"disjoint union has {n} > {MAX_VERTICES} vertices")
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph(n, rows)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on the given vertices, relabelled in sorted order."""
    vs = sorted(set(vertices))
    if vs and (vs[0] < 0 or vs[-1] >= g.n):
        raise ValueError("vertex out of range")
    pos = {v: i for i, v in enumerate(vs)}
    rows = [0] * len(vs)
    for i, v in enumerate(vs):
        for u in bits(g.rows[v]):
            j = pos.get(u)
            if j is not None:
                rows[i] |= 1 << j
    return Graph(len(vs), rows)


def induced_on_mask(g: Graph, mask: int) -> Graph:
    """Subgraph induced on the vertex set given as a bit mask."""
    return induced_subgraph(g, bits(mask))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel so that new vertex i is old vertex perm[i].  Automorphisms
    kept on g are conjugated onto the copy: i goes to inv[gamma[perm[i]]];
    the oracle slots, which labels do not change, are copied."""
    inv = [0] * g.n
    for i, v in enumerate(perm):
        inv[v] = i
    rows = [0] * g.n
    for i, v in enumerate(perm):
        for u in bits(g.rows[v]):
            rows[i] |= 1 << inv[u]
    auts = g.auts
    if auts:
        auts = bytes(
            auts[j + v] for j in range(0, len(auts), g.n) for v in perm
        ).translate(bytes(inv).ljust(256, b"\0"))
    out = Graph(g.n, rows, auts)
    out.omega, out.chi, out.perfect = g.omega, g.chi, g.perfect
    return out


def connected_components(g: Graph) -> list[int]:
    """Vertex sets of connected components, as bit masks, ordered by least vertex."""
    seen = 0
    comps = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= g.rows[u]
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        seen |= comp
    return comps


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return len(connected_components(g)) == 1


def is_bipartite(g: Graph) -> bool:
    """True when g has a two-colouring, i.e. no odd cycle."""
    colour = {}
    for start in range(g.n):
        if start in colour:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            cu = colour[u]
            for v in bits(g.rows[u]):
                if v in colour:
                    if colour[v] == cu:
                        return False
                else:
                    colour[v] = cu ^ 1
                    stack.append(v)
    return True


def _is_clique_mask(g: Graph, mask: int) -> bool:
    return all((g.rows[v] | (1 << v)) & mask == mask for v in bits(mask))


def is_complete_multipartite(g: Graph) -> bool:
    """True when the complement is a disjoint union of (at least one) cliques."""
    return multipartite_parts(g) is not None


def multipartite_parts(g: Graph) -> list[int] | None:
    """Part sizes (sorted) when g is complete multipartite, else None."""
    if g.n == 0:
        return None
    co = complement(g)
    comps = connected_components(co)
    if all(_is_clique_mask(co, c) for c in comps):
        return sorted(c.bit_count() for c in comps)
    return None


def is_path(g: Graph) -> bool:
    if g.n == 0 or not is_connected(g):
        return False
    return g.edge_count() == g.n - 1 and max(g.degree(v) for v in range(g.n)) <= 2


def is_cycle(g: Graph) -> bool:
    if g.n < 3 or not is_connected(g):
        return False
    return all(g.degree(v) == 2 for v in range(g.n))


def shape_report(g: Graph) -> ShapeReport:
    cyc = is_cycle(g)
    return ShapeReport(
        connected=is_connected(g),
        bipartite=is_bipartite(g),
        complete_multipartite=is_complete_multipartite(g),
        is_path=is_path(g),
        is_cycle=cyc,
        is_odd_cycle=cyc and g.n % 2 == 1,
        is_C5=cyc and g.n == 5,
    )


def clique_number(rows: Sequence[int], cand: int) -> int:
    """Size of a largest clique among the vertices of cand, by branch and
    bound over candidate masks, for `max_clique` on the whole graph.
    Generation does not call it: a child's clique number comes from its
    parent's maximum cliques (`maximum_cliques`, `harness._Parent.extend`)."""
    best = 0

    def expand(cand: int, size: int):
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if size + 1 + (cand & rows[v]).bit_count() > best:
                if size + 1 > best:
                    best = size + 1
                expand(cand & rows[v], size + 1)

    # seed with a degree-greedy clique for a better initial bound
    left = cand
    for v in sorted(bits(cand), key=lambda v: (rows[v] & cand).bit_count(), reverse=True):
        if left >> v & 1:
            best += 1
            left &= rows[v]
    expand(cand, 0)
    return best


def max_clique(g: Graph) -> int:
    """Clique number, kept on g as ``g.omega``."""
    if g.omega is None:
        g.omega = clique_number(g.rows, (1 << g.n) - 1)
    return g.omega


def _cliques(rows: Sequence[int], cand: int, size: int) -> Iterator[int]:
    """The cliques of size vertices among cand, as bit masks, in
    lexicographic order of their vertices listed lowest first."""
    if size == 0:
        yield 0
        return
    for v in bits(cand):
        above = cand & rows[v] & ~((2 << v) - 1)
        if above.bit_count() >= size - 1:
            for clique in _cliques(rows, above, size - 1):
                yield clique | 1 << v


def max_clique_set(g: Graph) -> int:
    """Lexicographically smallest maximum clique, as a bit mask."""
    return next(_cliques(g.rows, (1 << g.n) - 1, max_clique(g)))


def maximum_cliques(g: Graph) -> list[int]:
    """Every maximum clique of g, as bit masks, in the order of
    `max_clique_set`; the empty graph has the empty clique."""
    return list(_cliques(g.rows, (1 << g.n) - 1, max_clique(g)))


def independence_number(g: Graph) -> int:
    return max_clique(complement(g))


def has_independent_set(g: Graph, k: int) -> bool:
    """Cheap test for an independent set of size k (k small)."""
    if k <= 0:
        return True
    if k == 1:
        return g.n >= 1
    co = complement(g)
    if k == 2:
        return any(co.rows[v] for v in range(g.n))
    if k == 3:
        for v in range(g.n):
            for u in bits(co.rows[v] & ~((1 << (v + 1)) - 1)):
                if co.rows[u] & co.rows[v] & ~((1 << (u + 1)) - 1):
                    return True
        return False
    return independence_number(g) >= k


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by branch and bound over colour-class masks,
    kept on g as ``g.chi``.

    Vertices are taken by decreasing degree; each goes into every class
    that holds none of its neighbours, or into a new class.  A partial
    colouring with as many classes as the best one found is cut off; the
    first descent is greedy, and the search stops at the clique number.
    A graph known to be perfect (``g.perfect``) is not searched: its
    chromatic number is its clique number.
    """
    if g.chi is not None:
        return g.chi
    if g.perfect:
        g.chi = max_clique(g)
        return g.chi
    n = g.n
    rows = g.rows
    lower = max_clique(g)
    order = sorted(range(n), key=lambda v: (-rows[v].bit_count(), v))
    cls: list[int] = []  # cls[c]: the vertices of colour c, as a bit mask
    best = n + 1

    def bb(idx: int) -> None:
        nonlocal best
        if len(cls) >= best:
            return
        if idx == n:
            best = len(cls)
            return
        v = order[idx]
        r = rows[v]
        bit = 1 << v
        for c in range(len(cls)):
            if not r & cls[c]:
                cls[c] |= bit
                bb(idx + 1)
                cls[c] ^= bit
                if best == lower:
                    return
        cls.append(bit)
        bb(idx + 1)
        cls.pop()

    bb(0)
    g.chi = best
    return best


def invariants(g: Graph) -> Invariants:
    return Invariants(
        alpha=independence_number(g), omega=max_clique(g), chi=chromatic_number(g)
    )
