"""Named small graphs and parametric shape recognition.

The catalog covers the graphs the pair collections quantify over: the
parametric families kK1, K_n, P_n, C_n, complete multipartite graphs,
kK1 u K2 and its complement, and the sporadic 4-7 vertex graphs
(diamond, paw, hammer, chair, gem, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .canon import canonical_code
from .graphs import (
    Graph,
    build,
    complement,
    disjoint_union,
    is_cycle,
    is_path,
    multipartite_parts,
)


def empty_graph(k: int) -> Graph:
    if k < 0:
        raise ValueError("vertex count must be >= 0")
    return build(k, [])


def complete(n: int) -> Graph:
    return build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return build(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return build(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(parts: tuple[int, ...] | list[int]) -> Graph:
    if not parts or any(p < 1 for p in parts):
        raise ValueError("part sizes must be positive")
    n = sum(parts)
    bounds = []
    start = 0
    for p in parts:
        bounds.append((start, start + p))
        start += p
    edges = []
    for ai, (a0, a1) in enumerate(bounds):
        for b0, b1 in bounds[ai + 1 :]:
            edges.extend((u, v) for u in range(a0, a1) for v in range(b0, b1))
    return build(n, edges)


def k_k1_plus_k2(k: int) -> Graph:
    """k isolated vertices plus one disjoint edge."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return disjoint_union(empty_graph(k), complete(2))


def diamond() -> Graph:
    """K4 minus an edge."""
    return build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def paw() -> Graph:
    """Triangle with a pendant edge (Z1)."""
    return build(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def hammer() -> Graph:
    """Paw with the pendant edge subdivided (Z2)."""
    return build(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)])


def claw() -> Graph:
    return complete_multipartite((1, 3))


def chair() -> Graph:
    """Claw with one edge subdivided (K_{1,3}^+)."""
    return build(5, [(0, 1), (0, 2), (0, 3), (3, 4)])


def gem() -> Graph:
    """Complement of K1 u P4: a P4 plus a vertex adjacent to all of it."""
    return complement(disjoint_union(empty_graph(1), path(4)))


# {2K1+K2, gem}-free graphs with an induced C5 are blow-ups of small bases
BLOWUP_PAIR = (k_k1_plus_k2(2), gem())


def co_k3_p4() -> Graph:
    return complement(disjoint_union(complete(3), path(4)))


@dataclass(frozen=True)
class NamedForm:
    tag: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        if not self.params:
            return self.tag
        return f"{self.tag}({','.join(map(str, self.params))})"


# recognition fixes documented aliases: C3 and P2 report as Kn, C4 and P3
# and K_{1,3} as CompleteMultipartite, co(2K1uK2) as D
_SPECIFIC = (
    ("TwoK2", lambda: disjoint_union(complete(2), complete(2))),
    ("D", diamond),
    ("Z1", paw),
    ("Z2", hammer),
    ("K13plus", chair),
    ("K1_P3", lambda: disjoint_union(empty_graph(1), path(3))),
    ("K1_P4", lambda: disjoint_union(empty_graph(1), path(4))),
    ("K1_K3", lambda: disjoint_union(empty_graph(1), complete(3))),
    ("K1_K13", lambda: disjoint_union(empty_graph(1), claw())),
    ("co_K1_P4", gem),
    ("co_K3_P4", co_k3_p4),
)


@lru_cache(maxsize=1)
def _specific_codes() -> dict[bytes, str]:
    return {canonical_code(make()): tag for tag, make in _SPECIFIC}


def recognize(g: Graph) -> NamedForm:
    """Most specific catalog tag, or Other."""
    n = g.n
    if n == 0:
        return NamedForm("Other")
    ec = g.edge_count()
    if ec == 0:
        return NamedForm("kK1", (n,))
    if ec == n * (n - 1) // 2:
        return NamedForm("Kn", (n,))
    if ec == 1 and n >= 3:
        return NamedForm("kK1_plus_K2", (n - 2,))
    if ec == n * (n - 1) // 2 - 1 and n >= 4:
        if n == 4:
            return NamedForm("D")
        return NamedForm("co_kK1_plus_K2", (n - 2,))
    parts = multipartite_parts(g)
    if parts is not None:
        return NamedForm("CompleteMultipartite", tuple(parts))
    if is_cycle(g):
        return NamedForm("Cn", (n,))
    if is_path(g):
        return NamedForm("Pn", (n,))
    tag = _specific_codes().get(canonical_code(g))
    if tag is not None:
        return NamedForm(tag)
    return NamedForm("Other")


def named_graph(form: NamedForm) -> Graph:
    """Rebuild the graph a NamedForm denotes (soundness check helper)."""
    tag, params = form.tag, form.params
    if tag == "kK1":
        return empty_graph(params[0])
    if tag == "Kn":
        return complete(params[0])
    if tag == "kK1_plus_K2":
        return k_k1_plus_k2(params[0])
    if tag == "co_kK1_plus_K2":
        return complement(k_k1_plus_k2(params[0]))
    if tag == "CompleteMultipartite":
        return complete_multipartite(params)
    if tag == "Cn":
        return cycle(params[0])
    if tag == "Pn":
        return path(params[0])
    for name, make in _SPECIFIC:
        if name == tag:
            return make()
    raise ValueError(f"cannot rebuild tag {tag!r}")
