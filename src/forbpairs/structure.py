"""Structural decompositions and the constructive colouring algorithm.

Everything here machine-checks its own preconditions and raises
``PreconditionError`` with a witness when they fail.  Internal steps that
are guaranteed by the underlying lemmas raise ``LemmaContradiction`` when
violated: such a failure would falsify the lemma, so it is surfaced
loudly rather than papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import catalog
from .graphs import (
    Graph,
    bits,
    complement,
    connected_components,
    disjoint_union,
    independence_number,
    induced_on_mask,
    is_connected,
    is_cycle,
    is_path,
    max_clique,
    max_clique_set,
    multipartite_parts,
)
from .induced import contains_induced, first_violation
from .ramsey import threshold
from .twins import TwinCollapse, twin_collapse
from .twins import blow_up as blow_up  # re-exported: inverse of twin_collapse

TRIANGLE_FREE = "triangle_free"
COMPLETE_MULTIPARTITE = "complete_multipartite"
VIOLATION = "violation"


class PreconditionError(ValueError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class LemmaContradiction(RuntimeError):
    """An internally guaranteed step failed; this would falsify a lemma."""


@dataclass(frozen=True)
class ComponentReport:
    vertices: int  # bit mask in the original graph
    tag: str
    witness: tuple[int, ...] | None = None  # induced-paw embedding, original labels


def olariu_decompose(g: Graph) -> list[ComponentReport]:
    """Tag every component complete multipartite, triangle-free, or neither.

    Connected paw-free graphs are always one of the first two, so a
    violation report carries an induced-paw witness.
    """
    out = []
    paw = catalog.paw()
    for comp in connected_components(g):
        vs = bits(comp)
        sub = induced_on_mask(g, comp)
        if multipartite_parts(sub) is not None:
            out.append(ComponentReport(comp, COMPLETE_MULTIPARTITE))
        elif contains_induced(sub, catalog.complete(3)) is None:
            out.append(ComponentReport(comp, TRIANGLE_FREE))
        else:
            emb = contains_induced(sub, paw)
            if emb is None:
                raise LemmaContradiction(
                    "component with a triangle, not complete multipartite, "
                    "yet paw-free"
                )
            out.append(ComponentReport(comp, VIOLATION, tuple(vs[i] for i in emb)))
    return out


def multipartite_split(g: Graph) -> tuple[list[int], list[int]]:
    """Component masks split into (complete multipartite, the rest)."""
    multi, rest = [], []
    for rep in olariu_decompose(g):
        (multi if rep.tag == COMPLETE_MULTIPARTITE else rest).append(rep.vertices)
    return multi, rest


def indep5_classify(g: Graph) -> str:
    """Shape of a connected {K1 u K1_3, K3}-free graph of independence >= 5."""
    if not is_connected(g):
        raise PreconditionError("graph is not connected")
    patterns = [
        disjoint_union(catalog.empty_graph(1), catalog.claw()),
        catalog.complete(3),
    ]
    hit = first_violation(g, patterns)
    if hit is not None:
        raise PreconditionError("forbidden induced subgraph present", hit)
    if independence_number(g) < 5:
        return "not_applicable"
    if is_path(g):
        return "path"
    if is_cycle(g):
        return "cycle"
    parts = multipartite_parts(g)
    if parts is not None and len(parts) == 2:
        return "complete_bipartite"
    raise LemmaContradiction(
        "independence >= 5 but neither path nor cycle nor complete bipartite"
    )


@dataclass(frozen=True)
class BlowupDecomposition:
    c5: tuple[int, ...]  # the chosen C5, in cycle order
    vertex_classes: dict[int, str]  # vertex -> on_cycle | blue | red
    collapse: TwinCollapse
    base: Graph


_BLOWUP_PATTERNS = ("2K1+K2", "co(K1+P4)")


def _blowup_patterns() -> list[Graph]:
    return [catalog.k_k1_plus_k2(2), catalog.gem()]


def blowup_classify(g: Graph) -> BlowupDecomposition:
    """Blue/red structure of a {2K1 u K2, gem}-free graph around a C5.

    Off-cycle vertices see the cycle in exactly two shapes: a P3 (blue) or
    a K2 / K1 u K2 (red).  The lexicographically least C5 is used; the
    classification itself is independent of that choice.
    """
    hit = first_violation(g, _blowup_patterns())
    if hit is not None:
        raise PreconditionError(
            f"graph is not {{{', '.join(_BLOWUP_PATTERNS)}}}-free", hit
        )
    c5 = _least_c5(g)
    if c5 is None:
        raise PreconditionError("graph contains no induced C5")
    cset = set(c5)
    classes = {v: "on_cycle" for v in c5}
    cmask = sum(1 << v for v in c5)
    for u in range(g.n):
        if u in cset:
            continue
        seen = g.rows[u] & cmask
        k = seen.bit_count()
        if not 2 <= k <= 3:
            raise LemmaContradiction(
                f"off-cycle vertex {u} sees {k} cycle vertices"
            )
        hood = induced_on_mask(g, seen)
        if k == 3 and hood.edge_count() == 2:
            classes[u] = "blue"
        elif hood.edge_count() == 1:
            classes[u] = "red"
        else:
            raise LemmaContradiction(
                f"off-cycle vertex {u} sees the cycle in an impossible shape"
            )
    collapse = twin_collapse(g)
    return BlowupDecomposition(c5=c5, vertex_classes=classes, collapse=collapse,
                           base=collapse.base)


def _least_c5(g: Graph) -> tuple[int, ...] | None:
    from itertools import combinations

    for sub in combinations(range(g.n), 5):
        s = induced_on_mask(g, sum(1 << v for v in sub))
        if is_cycle(s):
            return _cycle_order(g, sub)
    return None


def _cycle_order(g: Graph, vertices: Sequence[int]) -> tuple[int, ...]:
    start = min(vertices)
    vset = set(vertices)
    nbrs = sorted(v for v in vset if g.adj(start, v))
    order = [start, nbrs[0]]
    while len(order) < len(vertices):
        nxt = [
            v
            for v in vset
            if v not in order and g.adj(order[-1], v)
        ]
        order.append(nxt[0])
    return tuple(order)


@dataclass(frozen=True)
class CliquePeel:
    layers: tuple[int, ...]  # vertex masks, each a maximum clique when peeled
    remainder: int
    m: int  # the K_m-freeness bound k(l-1)


@dataclass(frozen=True)
class Colouring:
    colours: tuple[int, ...]  # colour per vertex, 1..num_colours
    num_colours: int

    def is_proper(self, g: Graph) -> bool:
        return all(
            self.colours[u] != self.colours[v] for u, v in g.edges()
        ) and all(1 <= c <= self.num_colours for c in self.colours)

    def serialize(self) -> str:
        return "\n".join(f"{v}: {c}" for v, c in enumerate(self.colours))


def bipartite_matching(
    left: int, right: int, edges: Sequence[tuple[int, int]]
) -> list[tuple[int, int]] | None:
    """A matching covering the left side, or None (augmenting paths)."""
    adj: list[list[int]] = [[] for _ in range(left)]
    for a, b in edges:
        adj[a].append(b)
    for a in range(left):
        adj[a].sort()
    match_right: list[int | None] = [None] * right

    def augment(a: int, seen: set[int]) -> bool:
        for b in adj[a]:
            if b in seen:
                continue
            seen.add(b)
            if match_right[b] is None or augment(match_right[b], seen):
                match_right[b] = a
                return True
        return False

    for a in range(left):
        if not augment(a, set()):
            return None
    pairs = [(a, b) for b, a in enumerate(match_right) if a is not None]
    return sorted(pairs)


def peel_colour(g: Graph, k: int, l: int) -> tuple[Colouring, CliquePeel]:
    """Colour a {kK1 u K2, co(lK1 u K2)}-free graph with omega colours.

    Peels maximum cliques V1..Vp until the remainder has no K_m for
    m = k(l-1); colours V1 arbitrarily, extends to each Vi through a
    matching in the colour-availability bipartite graph (Hall's condition
    is guaranteed), and finishes the small remainder greedily in
    degeneracy order.
    """
    if k < 3 or l < 2:
        raise PreconditionError("requires k >= 3 and l >= 2")
    patterns = [
        catalog.k_k1_plus_k2(k),
        complement(catalog.k_k1_plus_k2(l)),
    ]
    hit = first_violation(g, patterns)
    if hit is not None:
        raise PreconditionError("forbidden induced subgraph present", hit)
    omega = max_clique(g)
    need = threshold("peel_omega", k, l).value
    if omega < need:
        raise PreconditionError(
            f"clique number {omega} below the required threshold {need}"
        )
    m = k * (l - 1)

    # peel maximum cliques until the rest has no K_m
    layers: list[int] = []
    remaining = (1 << g.n) - 1
    while True:
        vs = bits(remaining)
        sub = induced_on_mask(g, remaining)
        clique = max_clique_set(sub)
        layer = sum(1 << vs[i] for i in bits(clique))
        layers.append(layer)
        remaining &= ~layer
        rest = induced_on_mask(g, remaining)
        if contains_induced(rest, catalog.complete(m)) is None:
            break
    sizes = [layer.bit_count() for layer in layers]
    p = len(layers)
    if sizes != sorted(sizes, reverse=True) or sizes[-1] < m or p > k:
        raise LemmaContradiction(f"impossible peel sizes {sizes} for k={k}, l={l}")
    rest = induced_on_mask(g, remaining)
    if contains_induced(rest, catalog.empty_graph(k - p + 1)) is not None:
        raise LemmaContradiction("peel remainder has too large an independent set")

    colours = [0] * g.n  # 1-based once assigned
    for i, v in enumerate(bits(layers[0])):
        colours[v] = i + 1

    placed = layers[0]
    for layer in layers[1:]:
        vs = bits(layer)
        edges = []
        for ai, v in enumerate(vs):
            banned = {colours[u] for u in bits(g.rows[v] & placed)}
            edges.extend((ai, c - 1) for c in range(1, omega + 1) if c not in banned)
        matching = bipartite_matching(len(vs), omega, edges)
        if matching is None:
            raise LemmaContradiction(
                "no matching covering a peeled clique: Hall's condition failed"
            )
        for ai, c in matching:
            colours[vs[ai]] = c + 1
        placed |= layer

    # remainder: fewer than R(k,m) vertices, each with few forbidden colours
    order = _degeneracy_order(g, remaining)
    for v in reversed(order):
        banned = {colours[u] for u in bits(g.rows[v] & placed)}
        c = next(c for c in range(1, omega + 2) if c not in banned)
        if c > omega:
            raise LemmaContradiction(
                f"remainder vertex {v} needs colour {c} > omega = {omega}"
            )
        colours[v] = c
        placed |= 1 << v

    result = Colouring(tuple(colours), omega)
    if not result.is_proper(g):
        raise LemmaContradiction("produced colouring is not proper")
    return result, CliquePeel(tuple(layers), remaining, m)


def _degeneracy_order(g: Graph, mask: int) -> list[int]:
    """Vertices of mask, repeatedly removing a minimum-degree vertex."""
    left = mask
    order = []
    while left:
        best_v, best_d = -1, 1 << 30
        for v in bits(left):
            d = (g.rows[v] & left).bit_count()
            if d < best_d:
                best_v, best_d = v, d
        order.append(best_v)
        left &= ~(1 << best_v)
    return order
