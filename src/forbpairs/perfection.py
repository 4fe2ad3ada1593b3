"""Perfectness via two independent oracles, and omega-colourability.

The structural oracle looks for odd holes in the graph and its complement
(the forbidden configurations of the strong perfect graph theorem); the
definitional oracle checks chi = omega on every induced subgraph.  Keeping
both lets the test suite cross-validate them exhaustively on small orders.
The definitional oracle calls only `graphs.chromatic_number` and
`graphs.max_clique` and keeps no cache, so it shares no code with `canon`,
which generation and the fast path rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    Chordless paths are grown from each start vertex (the smallest vertex
    of the hole), extending only with vertices non-adjacent to the path
    interior, so every closure found is already induced.
    """
    if g.n > _HOLE_LIMIT:
        raise ValueError(f"odd hole search is limited to {_HOLE_LIMIT} vertices")
    rows = g.rows

    for s in range(g.n):
        above = ~((2 << s) - 1)

        def extend(path: list[int], banned: int) -> tuple[int, ...] | None:
            last = path[-1]
            cand = rows[last] & above & ~banned
            while cand:
                b = cand & -cand
                cand ^= b
                u = b.bit_length() - 1
                if rows[u] >> s & 1:
                    # u is adjacent to the start, so it can only close the
                    # cycle (as an interior vertex it would leave a chord)
                    if len(path) >= 4 and len(path) % 2 == 0:
                        return tuple(path) + (u,)
                    continue
                found = extend(path + [u], banned | rows[last] | (1 << last))
                if found:
                    return found
            return None

        first = rows[s] & above
        while first:
            b = first & -first
            first ^= b
            v = b.bit_length() - 1
            found = extend([s, v], 1 << s)
            if found:
                return found
    return None


def is_perfect_spgt(g: Graph) -> PerfectnessCertificate:
    """Perfectness by odd-hole search in the graph and its complement."""
    hole = odd_hole(g)
    if hole is not None:
        return PerfectnessCertificate("imperfect", "odd_hole", hole)
    anti = odd_hole(complement(g))
    if anti is not None:
        return PerfectnessCertificate("imperfect", "odd_antihole", anti)
    return PerfectnessCertificate("perfect")


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
        chi, omega = chromatic_number(sub), max_clique(sub)
        if chi > omega:
            return PerfectnessCertificate(
                "imperfect", "chi_gt_omega", tuple(bits(mask)), chi=chi, omega=omega
            )
    return PerfectnessCertificate("perfect")


def is_omega_colourable(g: Graph) -> bool:
    return chromatic_number(g) == max_clique(g)
