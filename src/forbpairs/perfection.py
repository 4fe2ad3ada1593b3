"""Perfectness via two independent oracles, and omega-colourability.

The structural oracle looks for odd holes in the graph and its complement
(the forbidden configurations of the strong perfect graph theorem); the
definitional oracle checks chi = omega on every induced subgraph.  Keeping
both lets the test suite cross-validate them exhaustively on small orders.
The definitional oracle calls only `graphs.chromatic_number` and
`graphs.max_clique` and keeps no cache, so it shares no code with `canon`,
which generation and the fast path rely on.

The odd-hole search grows chordless paths depth-first from the least
vertex s of the hole and cuts every subtree that cannot return a hole, so
it returns the same hole as the unpruned search, which the tests keep as
its reference.  Each cut is exact: s has at least four vertices and two
neighbours above it; the closing vertex lies above the second vertex v,
because a hole closing below v was found from its other side first; v
has a non-neighbour among those closing vertices, since a hole has no
chord; a path of even length >= 4 closes on its least closer after the
extenders below it, as in ascending order; and a path is not extended
once every closing vertex is adjacent to one of its vertices after s,
since those all become interior vertices of an extension.

`odd_hole_through` runs the same search from one given vertex m, for
generation: a graph G whose parent G - m is perfect is perfect exactly
when neither G nor its complement has an odd hole through m, since every
odd hole or antihole that avoids m lies in G - m (by the strong perfect
graph theorem, Chudnovsky, Robertson, Seymour and Thomas, Annals of Math.
164, 2006).  `is_perfect_spgt` keeps its verdict on the graph
(`Graph.perfect`), and generation sets it on a child that this anchored
search shows perfect.  Certificates keep their bytes: a perfect graph's
certificate is the constant "perfect", however it is known, and an
imperfect graph is never marked by its parent, so its witness always
comes from the full search on that graph and its labelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import (
    Graph,
    bits,
    chromatic_number,
    complement,
    induced_on_mask,
    max_clique,
)

_HOLE_LIMIT = 20
_DEFINITION_LIMIT = 14


@dataclass(frozen=True)
class PerfectnessCertificate:
    verdict: str  # "perfect" | "imperfect"
    kind: str | None = None  # "odd_hole" | "odd_antihole" | "chi_gt_omega"
    vertices: tuple[int, ...] = ()
    chi: int | None = None
    omega: int | None = None

    @property
    def perfect(self) -> bool:
        return self.verdict == "perfect"

    def validate(self, g: Graph) -> bool:
        """Re-check the witness against the graph it certifies."""
        if self.perfect:
            return True
        if self.kind in ("odd_hole", "odd_antihole"):
            side = g if self.kind == "odd_hole" else complement(g)
            return _is_chordless_odd_cycle(side, self.vertices)
        if self.kind == "chi_gt_omega":
            sub = induced_on_mask(g, sum(1 << v for v in self.vertices))
            return chromatic_number(sub) > max_clique(sub)
        return False

    def describe(self) -> str:
        if self.perfect:
            return "perfect"
        if self.kind == "odd_hole":
            return "imperfect; odd hole " + " ".join(map(str, self.vertices))
        if self.kind == "odd_antihole":
            return "imperfect; odd antihole " + " ".join(map(str, self.vertices))
        return (
            f"imperfect; chi={self.chi} > omega={self.omega} on vertices "
            + " ".join(map(str, self.vertices))
        )


PERFECT = PerfectnessCertificate("perfect")


def _is_chordless_odd_cycle(g: Graph, vertices: tuple[int, ...]) -> bool:
    k = len(vertices)
    if k < 5 or k % 2 == 0 or len(set(vertices)) != k:
        return False
    for i, u in enumerate(vertices):
        for j in range(i + 1, k):
            v = vertices[j]
            expected = j - i == 1 or (i == 0 and j == k - 1)
            if g.adj(u, v) != expected:
                return False
    return True


def odd_hole(g: Graph) -> tuple[int, ...] | None:
    """Vertices of an induced odd cycle of length >= 5, in cycle order.

    Chordless paths s, v, ... are grown depth-first, in ascending vertex
    order, from each start vertex s, the least vertex of the hole, and the
    first hole met is returned.  `banned` holds the vertices up to s, the
    neighbours of s that may not close the cycle, and the closed
    neighbourhoods of the path's interior, so a vertex outside it that is
    adjacent to the path's last vertex keeps the path chordless.  Such a
    vertex closes the cycle when it is one of the `ends`, the neighbours of
    s above v, and extends the path when it is not adjacent to s (as an
    interior vertex a neighbour of s would be a chord).

    It is the plain search with the subtrees cut that cannot return a hole,
    so it returns the same tuple.  The cuts:
    - s < n - 4 and s has two neighbours above it, since a hole has at
      least four vertices above its least vertex, two of them adjacent
      to it;
    - a hole closes on a vertex above v: a hole s, v, ..., c with c < v is
      also the hole s, c, ..., v, and the search from s, c, made before
      and finding a hole whenever one starts with s, c, would have
      returned;
    - a v that is adjacent to every end is skipped, since the closing
      vertex of a hole of length >= 5 is not adjacent to v;
    - on a path of even length >= 4 the least closer c closes an odd hole,
      and only the extenders below c come before it in ascending order;
    - `banned` only grows down the tree, so once every end is banned for
      the children, no extender can reach a closer and none is tried.
    """
    if g.n > _HOLE_LIMIT:
        raise ValueError(f"odd hole search is limited to {_HOLE_LIMIT} vertices")
    return _first_hole(g.rows, range(g.n - 4), -1)


def odd_hole_through(g: Graph, m: int) -> tuple[int, ...] | None:
    """An odd hole of g through vertex m, in cycle order from m, or None.

    It is `odd_hole`'s search from the one start vertex m, with no vertex
    below m excluded: a hole through m is a hole with least vertex m once
    m is moved to the front of the labelling, the other vertices keeping
    their order, and that is the labelling the cuts then read.
    """
    if g.n > _HOLE_LIMIT:
        raise ValueError(f"odd hole search is limited to {_HOLE_LIMIT} vertices")
    return _first_hole(g.rows, (m,), 0)


def _first_hole(
    rows: tuple[int, ...], starts: Sequence[int], below: int
) -> tuple[int, ...] | None:
    """The first hole of `odd_hole`'s search from each start s in turn,
    over the vertices other than s and the vertices of below under s: all
    of those for `odd_hole` (below is -1), none for `odd_hole_through`."""
    path: list[int] = []

    def extend(banned: int) -> tuple[int, ...] | None:
        last = path[-1]
        step = rows[last] & ~banned
        extenders = step & ~ends
        closers = step & ends
        close = closers and len(path) >= 4 and not len(path) & 1
        if close:
            c = bits(closers)[0]
            extenders &= (1 << c) - 1
        nb = banned | rows[last] | 1 << last
        if ends & ~nb:
            for u in bits(extenders):
                path.append(u)
                found = extend(nb)
                path.pop()
                if found:
                    return found
        return tuple(path) + (c,) if close else None

    for s in starts:
        low = (1 << s) - 1 & below | 1 << s
        hood = rows[s] & ~low  # the neighbours of s outside low
        if hood.bit_count() < 2:
            continue
        for v in bits(hood):
            ends = hood & ~((2 << v) - 1)
            if not ends & ~rows[v]:
                continue
            path[:] = (s, v)
            found = extend(low | hood & ~ends)
            if found:
                return found
    return None


def is_perfect_spgt(g: Graph) -> PerfectnessCertificate:
    """Perfectness by odd-hole search in the graph and its complement.  The
    verdict is kept on g as ``g.perfect``; a graph known to be perfect is
    not searched, and an imperfect one is searched again for its witness."""
    if g.perfect:
        return PERFECT
    cert = PERFECT
    hole = odd_hole(g)
    if hole is not None:
        cert = PerfectnessCertificate("imperfect", "odd_hole", hole)
    elif (anti := odd_hole(complement(g))) is not None:
        cert = PerfectnessCertificate("imperfect", "odd_antihole", anti)
    g.perfect = cert.perfect
    return cert


def is_perfect_definition(g: Graph) -> PerfectnessCertificate:
    """Perfectness by checking chi = omega on every induced subgraph.

    Subsets of at most four vertices are skipped: every graph on <= 4
    vertices has chi = omega.
    """
    if g.n > _DEFINITION_LIMIT:
        raise ValueError(
            f"definition oracle is limited to {_DEFINITION_LIMIT} vertices"
        )
    if g.n <= 4:
        return PerfectnessCertificate("perfect")
    for mask in range(1, 1 << g.n):
        if mask.bit_count() <= 4:
            continue
        sub = induced_on_mask(g, mask)
        omega = max_clique(sub)
        chi = chromatic_number(sub)
        if chi > omega:
            return PerfectnessCertificate(
                "imperfect", "chi_gt_omega", bits(mask), chi=chi, omega=omega
            )
    return PerfectnessCertificate("perfect")


def is_omega_colourable(g: Graph) -> bool:
    return chromatic_number(g) == max_clique(g)
