"""Twin collapse and blow-up: the two directions of vertex duplication.

Collapsing repeatedly removes one vertex of the lexicographically smallest
twin pair until none remains.  The merge log records each removal, so the
input can always be rebuilt exactly by replaying the log backwards; this
also covers cascades where collapsing one twin class creates new twins of
the other kind (e.g. K2 u K1 collapses through 2K1 down to K1), which no
single flat blow-up can reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, MAX_VERTICES, bits, build, induced_subgraph, twins

CLIQUE = "clique"
INDEPENDENT = "independent"


@dataclass(frozen=True)
class Merge:
    kept: int
    removed: int
    kind: str


@dataclass(frozen=True)
class TwinClass:
    members: tuple[int, ...]
    kind: str  # clique | independent | nested (kind changed along a cascade)


@dataclass(frozen=True)
class TwinCollapse:
    base: Graph
    alive: tuple[int, ...]  # original labels of base vertices, in base order
    merges: tuple[Merge, ...]

    def classes(self) -> list[TwinClass]:
        rep = {}

        def find(v: int) -> int:
            while rep.get(v, v) != v:
                v = rep[v]
            return v

        for m in self.merges:
            rep[find(m.removed)] = find(m.kept)
        kinds: dict[int, set[str]] = {}
        for m in self.merges:
            kinds.setdefault(find(m.kept), set()).add(m.kind)
        n = max((max(m.kept, m.removed) for m in self.merges), default=-1)
        n = max(n, max(self.alive, default=-1))
        members: dict[int, list[int]] = {}
        for v in range(n + 1):
            members.setdefault(find(v), []).append(v)
        out = []
        for r in sorted(members):
            if len(members[r]) == 1:
                continue
            ks = kinds[r]
            kind = next(iter(ks)) if len(ks) == 1 else "nested"
            out.append(TwinClass(tuple(members[r]), kind))
        return out

    def expand(self) -> Graph:
        """Rebuild the original graph by replaying the merge log backwards."""
        label_rows = {v: 0 for v in self.alive}
        for i, v in enumerate(self.alive):
            for u in bits(self.base.rows[i]):
                label_rows[v] |= 1 << self.alive[u]
        for merge in reversed(self.merges):
            mask = label_rows[merge.kept]
            if merge.kind == CLIQUE:
                mask |= 1 << merge.kept
            label_rows[merge.removed] = mask
            for u in bits(mask):
                label_rows[u] |= 1 << merge.removed
        n = max(label_rows) + 1 if label_rows else 0
        return Graph(n, [label_rows.get(v, 0) for v in range(n)])


def _twin_pair(rows: dict[int, int], alive: list[int]) -> tuple[int, int, str] | None:
    for i, u in enumerate(alive):
        for v in alive[i + 1 :]:
            if twins(rows, u, v):
                return u, v, INDEPENDENT if rows[u] == rows[v] else CLIQUE
    return None


def twin_collapse(g: Graph) -> TwinCollapse:
    rows = {v: g.rows[v] for v in range(g.n)}
    alive = list(range(g.n))
    merges: list[Merge] = []
    while True:
        hit = _twin_pair(rows, alive)
        if hit is None:
            break
        u, v, kind = hit
        merges.append(Merge(u, v, kind))
        alive.remove(v)
        bit = 1 << v
        for w in alive:
            rows[w] &= ~bit
        del rows[v]
    base = induced_subgraph(g, alive)
    return TwinCollapse(base=base, alive=tuple(alive), merges=tuple(merges))


def blow_up(base: Graph, spec: Sequence[tuple[str, int]]) -> Graph:
    """Replace each base vertex by a clique or an independent set.

    spec[v] = (kind, size) with size >= 1; outside adjacency follows the
    base graph, so size-1 entries leave the vertex untouched.
    """
    if len(spec) != base.n:
        raise ValueError("spec length must equal base order")
    offsets = []
    total = 0
    for kind, size in spec:
        if kind not in (CLIQUE, INDEPENDENT):
            raise ValueError(f"unknown blow-up kind {kind!r}")
        if size < 1:
            raise ValueError("blow-up sizes must be at least 1")
        offsets.append(total)
        total += size
    if total > MAX_VERTICES:
        raise ValueError(f"blow-up has {total} > {MAX_VERTICES} vertices")
    edges = []
    for v, (kind, size) in enumerate(spec):
        if kind == CLIQUE:
            edges.extend(
                (offsets[v] + a, offsets[v] + b)
                for a in range(size)
                for b in range(a + 1, size)
            )
        for u in range(v + 1, base.n):
            if base.adj(v, u):
                edges.extend(
                    (offsets[v] + a, offsets[u] + b)
                    for a in range(size)
                    for b in range(spec[u][1])
                )
    return build(total, edges)
