"""Induced-subgraph containment, pattern completion search and closure enumeration.

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
copy of P - u in the parent.  Call its vertex set S and the image of u's
neighbours R, an anchored pair: the child whose new vertex has
neighbourhood `mask` contains P exactly when `mask & S == R` for one of
them.  A parent has a few candidate masks (about 8 on the benchmark's
deep classes) and far more anchored pairs, so `completing_masks` decides
the candidates, not the pairs, in one search per parent and pattern:

- One anchor u per orbit of Aut(P), from `canon.automorphism_generators`.
  When an automorphism s of P maps u to u', a copy f of P - u' gives the
  copy f o s of P - u with the same S and R, so the other vertices of the
  orbit add no pair.
- P - u is placed with u's non-neighbours first, then by degree, under
  the twin chain of P (two twins of P other than u are both adjacent to
  u or both not, so swapping them changes neither S nor R).  A candidate mask
  has the maximal degree of its child, so "outside the mask" is the
  tight constraint, and it cuts highest up.
- The search carries the candidates still consistent with the vertices
  placed, as a bitset over their indices: placing host vertex h for a
  neighbour of u keeps the masks that hold h, for a non-neighbour those
  that miss h, and drops the masks already known to complete.  A branch
  with none left is cut.  At a leaf the set left is exactly the masks
  with `mask & S == R`, which are marked, and the search stops once every
  candidate is marked.

The per-anchor tables (order, adjacency of the later levels, neighbour
flags and twin links) are kept in a bounded cache of their own, of 256
patterns like the matcher's plans (the benchmark's pair survey draws its
patterns from the 51 graphs on 2 to 5 vertices), so `contains_induced`
computes no orbits.  `contains_induced` and `is_free` stay the plain,
unanchored check: the tests, `verify --full` and the re-validation of
counterexamples use them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .canon import automorphism_generators, canonical_form
from .graphs import Graph, bits, induced_on_mask, relabel, twins


class _Plan(NamedTuple):
    """How to search for one pattern; `twin[v]` is the latest twin of v
    placed before it in `order`, or -1."""

    order: tuple[int, ...]
    twin: tuple[int, ...]
    edges: int


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
    return _Plan(order, _twin_chain(prow, order), pattern.edge_count())


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


class _Anchor(NamedTuple):
    """The search for the copies of P - u, u one vertex of P, with P - u
    placed in levels: u's non-neighbours first, then by degree.  `nbr[j]`
    says whether level j is adjacent to u, `adj[j]` lists each later level
    with whether it is adjacent to level j, and `twin[j]` is the latest
    earlier level that holds a twin of level j in P, or -1."""

    u: int
    nbr: tuple[bool, ...]
    adj: tuple[tuple[tuple[int, bool], ...], ...]
    twin: tuple[int, ...]


@lru_cache(maxsize=256)
def _anchors(pattern: Graph) -> tuple[_Anchor, ...]:
    """One anchor per orbit of Aut(pattern), its least vertex."""
    prow, n = pattern.rows, pattern.n
    gens = automorphism_generators(pattern)
    out = []
    seen = 0
    for u in range(n):
        if seen >> u & 1:
            continue
        seen |= 1 << u
        frontier = [u]
        while frontier:
            v = frontier.pop()
            for gamma in gens:
                w = gamma[v]
                if not seen >> w & 1:
                    seen |= 1 << w
                    frontier.append(w)
        order = sorted(
            (v for v in range(n) if v != u),
            key=lambda v: (prow[u] >> v & 1, -pattern.degree(v), v),
        )
        twin = _twin_chain(prow, order)
        level = {v: j for j, v in enumerate(order)}
        out.append(_Anchor(
            u,
            tuple(bool(prow[u] >> v & 1) for v in order),
            tuple(
                tuple((l, bool(prow[v] >> w & 1)) for l, w in enumerate(order) if l > j)
                for j, v in enumerate(order)
            ),
            tuple(level[twin[v]] if twin[v] != -1 else -1 for v in order),
        ))
    return tuple(out)


def completing_masks(parent: Graph, pattern: Graph, masks: Sequence[int]) -> int:
    """The masks whose extension of parent contains pattern, as the set bits
    (bit `mask`) of one int.

    parent must be pattern-free, and each mask is the neighbourhood of the
    new vertex, a subset of parent's vertices.  The extension contains the
    pattern P exactly when `mask & S == R` for an anchored pair (S, R): S
    is the vertex set of an induced copy of P - u in parent and R the image
    of u's neighbours.  The search decides that for all the masks together,
    carrying the masks still consistent with the vertices placed so far.
    """
    if pattern.n <= 1 or not masks:
        return sum(1 << m for m in masks)  # a child holds any pattern on <= 1 vertex
    n, hrow = parent.n, parent.rows
    if pattern.n - 1 > n:
        return 0
    full = (1 << len(masks)) - 1
    inside = [0] * n  # inside[h]: the masks that hold host vertex h, by index
    for i, m in enumerate(masks):
        for h in bits(m):
            inside[h] |= 1 << i
    outside = [full ^ x for x in inside]
    every = (1 << n) - 1
    hnon = [every ^ r ^ (1 << h) for h, r in enumerate(hrow)]
    k = pattern.n - 1
    at = [0] * k  # the host vertex at each level
    done = 0  # the masks that complete a copy found so far

    def place(j: int, doms: list[int], alive: int) -> None:
        nonlocal done
        cand = doms[j]
        t = twin[j]
        if t != -1:
            cand &= ~((2 << at[t]) - 1)
        keep = inside if nbr[j] else outside
        later = adj[j]
        for h in bits(cand):
            now = alive & keep[h] & ~done
            if not now:
                continue
            if j + 1 == k:
                done |= now
                if done == full:
                    return
                continue
            r, nr = hrow[h], hnon[h]
            nxt = doms[:]
            for l, e in later:
                m = nxt[l] & (r if e else nr)
                if not m:
                    break
                nxt[l] = m
            else:
                at[j] = h
                place(j + 1, nxt, now)
                if done == full:
                    return

    for _, nbr, adj, twin in _anchors(pattern):
        place(0, [every] * k, full)
        if done == full:
            break
    return sum(1 << m for i, m in enumerate(masks) if done >> i & 1)


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
