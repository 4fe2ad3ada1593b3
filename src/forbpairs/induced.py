"""Induced-subgraph containment, anchored copy listing and closure enumeration.

The matcher is a backtracking search over pattern vertices in descending
degree order with bitmask forward checking: every unplaced pattern vertex
keeps a mask of still-compatible host vertices, updated as vertices are
placed.  Interchangeable pattern vertices (twins) are forced into
increasing host order, which turns the k! placements of patterns such as
kK1 into a single one.  The search order, the twin chain and the edge
count of each pattern are computed once and kept in a bounded cache.

Restricted generation does not run the matcher on every child.  A child
of a {patterns}-free parent that contains a pattern P must use the new
vertex for some vertex u of P, and the rest of that copy is an induced
copy of P - u in the parent.  `anchored_copies` lists, once per parent
and pattern, the vertex set S of each such copy and the image R of u's
neighbours; the child whose new vertex has neighbourhood `mask` contains
P exactly when `mask & S == R` for one of them.  `contains_induced` and
`is_free` stay the plain, unanchored check: the tests, `verify --full`
and the re-validation of counterexamples use them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .graphs import Graph, bits, induced_on_mask, twins


class _Plan(NamedTuple):
    """How to search for one pattern; `twin[v]` is the latest twin of v
    placed before it in `order`, or -1."""

    order: tuple[int, ...]
    twin: tuple[int, ...]
    edges: int
    # (u, order without u, twin chain without u), one u per twin class
    anchors: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]


def _twin_chain(prow: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    twin = [-1] * len(prow)
    for j, v in enumerate(order):
        for u in order[:j]:
            if twins(prow, u, v):
                twin[v] = u
    return tuple(twin)


@lru_cache(maxsize=256)
def _plan(pattern: Graph) -> _Plan:
    prow = pattern.rows
    order = tuple(sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v)))
    anchors = []
    for u in range(pattern.n):
        if not any(twins(prow, t, u) for t in range(u)):
            rest = tuple(v for v in order if v != u)
            anchors.append((u, rest, _twin_chain(prow, rest)))
    return _Plan(order, _twin_chain(prow, order), pattern.edge_count(), tuple(anchors))


def _embeddings(
    host: Graph, prow: Sequence[int], order: Sequence[int], twin: Sequence[int]
) -> Iterator[list[int]]:
    """Every induced placement of the pattern vertices in `order`, up to
    swapping twins that are chained in `twin`.

    Yields one list (pattern vertex -> host vertex, -1 for vertices not in
    `order`), updated in place between yields.
    """
    k = len(order)
    full = (1 << host.n) - 1
    hrow = host.rows
    hnon = [full ^ r ^ (1 << v) for v, r in enumerate(hrow)]
    assign = [-1] * len(prow)

    def place(level: int, masks: Sequence[int], used: int) -> Iterator[list[int]]:
        q = order[level]
        cand = masks[q] & ~used
        t = twin[q]
        if t != -1:
            cand &= ~((2 << assign[t]) - 1)
        for hv in bits(cand):
            assign[q] = hv
            if level + 1 == k:
                yield assign
                continue
            nxt = list(masks)
            ok = True
            for r in order[level + 1 :]:
                m = nxt[r] & (hrow[hv] if prow[q] >> r & 1 else hnon[hv])
                if not m:
                    ok = False
                    break
                nxt[r] = m
            if ok:
                yield from place(level + 1, nxt, used | 1 << hv)
        assign[q] = -1

    if k == 0:
        yield assign
    elif k <= host.n:
        yield from place(0, [full] * len(prow), 0)


def contains_induced(host: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """An embedding (pattern vertex -> host vertex) or None.

    The embedding preserves adjacency both ways, making the image an
    induced copy of the pattern.
    """
    np_, nh = pattern.n, host.n
    if np_ > nh:
        return None
    plan = _plan(pattern)
    h_edges = host.edge_count()
    if plan.edges > h_edges:
        return None
    if np_ * (np_ - 1) // 2 - plan.edges > nh * (nh - 1) // 2 - h_edges:
        return None
    for assign in _embeddings(host, pattern.rows, plan.order, plan.twin):
        return tuple(assign)
    return None


def anchored_copies(parent: Graph, pattern: Graph) -> set[tuple[int, int]]:
    """The (S, R) pairs that decide freeness of parent's one-vertex extensions.

    parent must be pattern-free.  The extension whose new vertex has
    neighbourhood `mask` (a subset of parent's vertices) contains the
    pattern P exactly when `mask & S == R` for a returned pair: S is the
    vertex set of an induced copy of P - u in parent and R is the image of
    u's neighbours, for one vertex u of each twin class of P.
    """
    if pattern.n == 0:
        return {(0, 0)}  # every graph contains the empty pattern
    out: set[tuple[int, int]] = set()
    prow = pattern.rows
    for u, order, twin in _plan(pattern).anchors:
        nbrs = prow[u]
        for assign in _embeddings(parent, prow, order, twin):
            s = r = 0
            for v in order:
                b = 1 << assign[v]
                s |= b
                if nbrs >> v & 1:
                    r |= b
            out.add((s, r))
    return out


def first_violation(
    g: Graph, patterns: Sequence[Graph]
) -> tuple[int, tuple[int, ...]] | None:
    """Index and embedding of the first pattern found in g, else None."""
    for idx, p in enumerate(patterns):
        emb = contains_induced(g, p)
        if emb is not None:
            return idx, emb
    return None


def is_free(g: Graph, patterns: Sequence[Graph]) -> bool:
    return first_violation(g, patterns) is None


def induced_closure(g: Graph) -> dict[int, list[Graph]]:
    """All induced subgraphs up to isomorphism, grouped by order.

    Includes g itself and K1; representatives are canonically labelled and
    sorted so the listing is stable.
    """
    from .canon import canonical_form
    from .graphs import relabel

    if g.n > 10:
        raise ValueError("closure enumeration is limited to 10 vertices")
    seen: dict[bytes, Graph] = {}
    for mask in range(1, 1 << g.n):
        sub = induced_on_mask(g, mask)
        code, perm = canonical_form(sub)
        if code not in seen:
            seen[code] = relabel(sub, perm)
    out: dict[int, list[Graph]] = {}
    for code in sorted(seen):
        sub = seen[code]
        out.setdefault(sub.n, []).append(sub)
    return out
