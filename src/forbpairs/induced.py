"""Induced-subgraph containment, pattern completion search and closure enumeration.

Both pattern searches run over one level table, `_Levels`: the pattern
vertices in a placement order, each level's adjacency to the later ones,
and twin links.  They place pattern vertices level by level with bitmask
forward checking: every later level keeps a domain of still-compatible
host vertices, narrowed as each host vertex is placed.  Interchangeable
pattern vertices (twins) are forced into increasing host order, which
turns the k! placements of patterns such as kK1 into a single one.

The matcher, `contains_induced`, places all of a pattern in descending
degree order and stops at its first copy.

Restricted generation does not run the matcher on every child.  A child
of a {patterns}-free parent that contains a pattern P must use the new
vertex for some vertex u of P, and the rest of that copy is an induced
copy of P - u in the parent.  Call its vertex set S and the image of u's
neighbours R, an anchored pair: the child whose new vertex has
neighbourhood `mask` contains P exactly when `mask & S == R` for one of
them.  A parent has a few candidate masks (about 8 on the benchmark's
deep classes) and far more anchored pairs, so `completing_masks` decides
the candidates, not the pairs, in one search per parent and pattern:

- One anchor u per orbit of Aut(P), its least vertex, from `canon.orbits`.
  When an automorphism s of P maps u to u', a copy f of P - u' gives the
  copy f o s of P - u with the same S and R, so the other vertices of the
  orbit add no pair.
- P - u is placed with u's non-neighbours first, then by degree, under
  the twin links of P (two twins of P other than u are both adjacent to
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

The matcher's table and the anchors' tables are each kept in a bounded
cache of 256 patterns (the benchmark's pair survey draws its patterns
from the 51 graphs on 2 to 5 vertices), so `contains_induced` computes
no orbits.  `contains_induced` and `is_free` stay the plain, unanchored
check: the tests, `verify --full` and the re-validation of
counterexamples use them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .canon import canonical_form, orbits
from .graphs import Graph, bits, induced_on_mask, relabel, twins


class _Levels(NamedTuple):
    """Pattern vertices placed in levels: `order[j]` is the vertex at level
    j, `adj[j]` lists each later level with whether it is adjacent to level
    j, and `twin[j]` is the latest earlier level that holds a twin of level
    j in the pattern, or -1.  `u` is the one vertex left out, or -1."""

    order: tuple[int, ...]
    adj: tuple[tuple[tuple[int, bool], ...], ...]
    twin: tuple[int, ...]
    u: int


def _levels(prow: Sequence[int], order: Sequence[int], u: int) -> _Levels:
    twin = [-1] * len(order)
    for j, v in enumerate(order):
        for i in range(j):
            if twins(prow, order[i], v):
                twin[j] = i
    return _Levels(
        tuple(order),
        tuple(
            tuple((l, bool(prow[v] >> w & 1)) for l, w in enumerate(order) if l > j)
            for j, v in enumerate(order)
        ),
        tuple(twin),
        u,
    )


@lru_cache(maxsize=256)
def _plan(pattern: Graph) -> _Levels:
    """All of the pattern, by descending degree."""
    order = sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v))
    return _levels(pattern.rows, order, -1)


def contains_induced(host: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """An embedding (pattern vertex -> host vertex) or None.

    The embedding preserves adjacency both ways, making the image an
    induced copy of the pattern.
    """
    k, nh = pattern.n, host.n
    if k > nh:
        return None
    p_edges, h_edges = pattern.edge_count(), host.edge_count()
    if p_edges > h_edges or k * (k - 1) // 2 - p_edges > nh * (nh - 1) // 2 - h_edges:
        return None
    if k == 0:
        return ()
    order, adj, twin, _ = _plan(pattern)
    hrow = host.rows
    every = (1 << nh) - 1
    hnon = [every ^ r ^ (1 << h) for h, r in enumerate(hrow)]
    at = [0] * k  # the host vertex at each level

    def place(j: int, doms: list[int]) -> bool:
        cand = doms[j]
        t = twin[j]
        if t != -1:
            cand &= ~((2 << at[t]) - 1)
        later = adj[j]
        for h in bits(cand):
            at[j] = h
            if j + 1 == k:
                return True
            r, nr = hrow[h], hnon[h]
            nxt = doms[:]
            for l, e in later:
                m = nxt[l] & (r if e else nr)
                if not m:
                    break
                nxt[l] = m
            else:
                if place(j + 1, nxt):
                    return True
        return False

    if not place(0, [every] * k):
        return None
    return tuple(h for _, h in sorted(zip(order, at)))  # by pattern vertex


@lru_cache(maxsize=256)
def _anchors(pattern: Graph) -> tuple[_Levels, ...]:
    """P - u for one anchor u per orbit of Aut(pattern), its least vertex,
    with u's non-neighbours first, then by degree."""
    prow, n = pattern.rows, pattern.n
    out = []
    for orbit in orbits(pattern):
        u = bits(orbit)[0]
        order = sorted(
            (v for v in range(n) if v != u),
            key=lambda v: (prow[u] >> v & 1, -pattern.degree(v), v),
        )
        out.append(_levels(prow, order, u))
    return tuple(out)


def completing_masks(parent: Graph, pattern: Graph, masks: Sequence[int]) -> int:
    """The masks whose extension of parent contains pattern, as the set bits
    of one int: bit i stands for `masks[i]`.

    parent must be pattern-free, and each mask is the neighbourhood of the
    new vertex, a subset of parent's vertices.  The extension contains the
    pattern P exactly when `mask & S == R` for an anchored pair (S, R): S
    is the vertex set of an induced copy of P - u in parent and R the image
    of u's neighbours.  The search decides that for all the masks together,
    carrying the masks still consistent with the vertices placed so far.
    """
    full = (1 << len(masks)) - 1
    if pattern.n <= 1 or not masks:
        return full  # a child holds any pattern on <= 1 vertex
    n, hrow = parent.n, parent.rows
    if pattern.n - 1 > n:
        return 0
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
        keep = inside if nbr >> order[j] & 1 else outside
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

    for order, adj, twin, u in _anchors(pattern):
        nbr = pattern.rows[u]
        place(0, [every] * k, full)
        if done == full:
            break
    return done


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
