"""Labelled simple graphs on at most 64 vertices, stored as row bitmasks.

A vertex is an index in ``range(n)``; ``rows[v]`` is the neighbourhood of
``v`` as a bit mask.  All operations are pure functions on immutable
values, so graphs can be shared freely between threads and processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

MAX_VERTICES = 64


def bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    """Immutable simple graph with symmetric bitmask adjacency."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int]):
        self.n = n
        self.rows = tuple(rows)

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
        return sum(self.degree(v) for v in range(self.n)) // 2

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
    """Relabel so that new vertex i is old vertex perm[i]."""
    inv = [0] * g.n
    for i, v in enumerate(perm):
        inv[v] = i
    rows = [0] * g.n
    for i, v in enumerate(perm):
        m = g.rows[v]
        while m:
            u = (m & -m).bit_length() - 1
            rows[i] |= 1 << inv[u]
            m &= m - 1
    return Graph(g.n, rows)


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
            m = frontier
            while m:
                u = (m & -m).bit_length() - 1
                nxt |= g.rows[u]
                m &= m - 1
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


def max_clique(g: Graph) -> int:
    """Clique number by branch and bound over candidate masks."""
    if g.n == 0:
        return 0
    rows = g.rows
    order = sorted(range(g.n), key=g.degree, reverse=True)
    best = 1

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
    greedy = 0
    cand = (1 << g.n) - 1
    for v in order:
        if cand >> v & 1:
            greedy += 1
            cand &= rows[v]
    best = max(1, greedy)
    expand((1 << g.n) - 1, 0)
    return best


def max_clique_set(g: Graph) -> int:
    """Lexicographically smallest maximum clique, as a bit mask."""
    size = max_clique(g)
    rows = g.rows

    def grow(chosen: int, cand: int, need: int) -> int | None:
        if need == 0:
            return chosen
        for v in bits(cand):
            rest = cand & rows[v] & ~((1 << (v + 1)) - 1)
            if 1 + rest.bit_count() >= need:
                got = grow(chosen | 1 << v, cand & rows[v], need - 1)
                if got is not None:
                    return got
        return None

    out = grow(0, (1 << g.n) - 1, size)
    assert out is not None
    return out


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
            m = co.rows[v] & ~((1 << (v + 1)) - 1)
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if co.rows[u] & co.rows[v] & ~((1 << (u + 1)) - 1):
                    return True
        return False
    return independence_number(g) >= k


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by branch and bound over colour-class masks.

    Vertices are taken by decreasing degree; each goes into every class
    that holds none of its neighbours, or into a new class.  A partial
    colouring with as many classes as the best one found is cut off; the
    first descent is greedy, and the search stops at the clique number.
    """
    n = g.n
    if n == 0:
        return 0
    rows = g.rows
    lower = max_clique(g)
    order = sorted(range(n), key=lambda v: (-rows[v].bit_count(), v))
    cls: list[int] = []  # cls[c]: the vertices of colour c, as a bit mask
    best = n + 1

    def bb(idx: int) -> None:
        nonlocal best
        if len(cls) >= best or best == lower:
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
        cls.append(bit)
        bb(idx + 1)
        cls.pop()

    bb(0)
    return best


def invariants(g: Graph) -> Invariants:
    om = max_clique(g)
    return Invariants(alpha=independence_number(g), omega=om, chi=chromatic_number(g))
