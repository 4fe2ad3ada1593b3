"""Ramsey numbers R(k,l) and the explicit order/clique thresholds.

R(k,l) is the least r such that every graph on r vertices contains an
induced kK1 or a K_l.  Exact values are limited to the classically known
small entries; everything else falls back to the additive recurrence
R(k,l) <= R(k-1,l) + R(k,l-1), reported as an inexact upper bound.  Upper
bounds are sound wherever the thresholds are used, since each threshold
sits inside an "at least n vertices suffice" statement.  The recurrence
is filled bottom-up, one row of the smaller argument at a time, so large
arguments need no deep recursion; a value that takes more than
`MAX_CELLS` cells of work is refused with a ValueError, where each row
counts `ROW_CELLS` cells on top of its own.

Each exact table entry with a witness of at most 17 vertices carries a
lower-bound certificate: a graph on R(k,l)-1 vertices with no induced kK1
and no K_l, checked by the induced-subgraph matcher on first use.

The thresholds deliberately report sufficient orders, not minimal ones.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, build, complement
from .graph6 import decode_graph6


@dataclass(frozen=True)
class BoundValue:
    value: int
    exact: bool

    def __int__(self) -> int:
        return self.value


_EXACT_TABLE = {
    (3, 3): 6,
    (3, 4): 9,
    (3, 5): 14,
    (3, 6): 18,
    (3, 7): 23,
    (4, 4): 18,
}


def _circulant(n: int, diffs: tuple[int, ...]) -> Graph:
    edges = set()
    for d in diffs:
        for i in range(n):
            j = (i + d) % n
            edges.add((min(i, j), max(i, j)))
    return build(n, sorted(edges))


# triangle-free 17-vertex graph of independence 5, found by local search
_R36_WITNESS_G6 = "PLSGSKQaEHC_GcT?cMCCJO\\?"


def _witnesses() -> dict[tuple[int, int], Graph]:
    """Lower-bound witnesses: no kK1, no K_l, on R(k,l)-1 vertices."""
    return {
        (3, 3): _circulant(5, (1,)),  # C5
        (3, 4): complement(_circulant(8, (1, 4))),
        (3, 5): complement(_circulant(13, (1, 5))),
        (3, 6): complement(decode_graph6(_R36_WITNESS_G6)),
        (4, 4): _circulant(17, (1, 2, 4, 8)),  # Paley(17), self-complementary
    }


@lru_cache(maxsize=1)
def _validated_witnesses() -> dict[tuple[int, int], Graph]:
    from .catalog import complete, empty_graph
    from .induced import contains_induced

    out = {}
    for (k, l), w in _witnesses().items():
        if w.n != _EXACT_TABLE[(k, l)] - 1:
            raise AssertionError(f"witness for R({k},{l}) has wrong order {w.n}")
        if contains_induced(w, empty_graph(k)) is not None:
            raise AssertionError(f"witness for R({k},{l}) contains {k}K1")
        if contains_induced(w, complete(l)) is not None:
            raise AssertionError(f"witness for R({k},{l}) contains K{l}")
        out[(k, l)] = w
    return out


# the most recurrence work one value may take (seconds at most).  A row
# costs about as much time as 8 cells, so counted by cells alone R(3, l),
# one cell a row, took several times longer than a square table
MAX_CELLS = 10**7
ROW_CELLS = 8


class RamseyTable:
    """Exact small values plus the additive upper-bound recurrence."""

    def __init__(self, overrides: dict[tuple[int, int], int] | None = None):
        self._table = dict(_EXACT_TABLE)
        if overrides:
            for (k, l), v in overrides.items():
                self._table[(min(k, l), max(k, l))] = v

    def value(self, k: int, l: int) -> BoundValue:
        if k < 1 or l < 1:
            raise ValueError("Ramsey arguments must be positive")
        _validated_witnesses()
        if k > l:
            k, l = l, k
        if k == 1:
            return BoundValue(1, True)
        if k == 2:
            return BoundValue(l, True)
        if (k, l) in self._table:
            return BoundValue(self._table[(k, l)], True)
        cells = (k - 2 + ROW_CELLS) * (l - 2)
        if cells > MAX_CELLS:
            raise ValueError(
                f"R({k},{l}) takes {cells} cells of recurrence work, "
                f"more than {MAX_CELLS}"
            )
        # row b holds r[a] = R(a, b) for 2 <= a <= min(k, b), built from row
        # b - 1 in place; R(a, a - 1) is R(a - 1, a), the entry just left of a
        r = [0] * (k + 1)
        for b in range(3, l + 1):
            r[2] = b
            for a in range(3, min(k, b) + 1):
                exact = self._table.get((a, b))
                if exact is not None:
                    r[a] = exact
                else:
                    r[a] = (r[a] if a < b else r[a - 1]) + r[a - 1]
        return BoundValue(r[k], False)


_DEFAULT = RamseyTable()


def ramsey(k: int, l: int, table: RamseyTable | None = None) -> BoundValue:
    return (table or _DEFAULT).value(k, l)


def witness(k: int, l: int) -> Graph | None:
    """Stored lower-bound witness for an exact entry, if one is kept."""
    if k > l:
        k, l = l, k
    return _validated_witnesses().get((k, l))


_OVERRIDE_RE = re.compile(r"^\s*R\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*=\s*(\d+)\s*$")


def load_overrides(path) -> RamseyTable:
    """Read a table-override file of ``R(k,l)=value`` lines."""
    overrides: dict[tuple[int, int], int] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            m = _OVERRIDE_RE.match(stripped)
            if not m:
                raise ValueError(f"line {lineno}: expected 'R(k,l)=value'")
            k, l, v = map(int, m.groups())
            if k < 3 or l < 3:
                raise ValueError(f"line {lineno}: R({k},{l}) is fixed by rule")
            overrides[(k, l)] = v
    return RamseyTable(overrides)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _crowd_term(k: int) -> int:
    # 8k(k^2-1)/(2k+1), rounded up: the term bounds a vertex count inside
    # an "at least n" hypothesis, so rounding up preserves validity
    return _ceil_div(8 * k * (k * k - 1), 2 * k + 1)


def threshold(name: str, k: int | None = None, l: int | None = None,
              table: RamseyTable | None = None) -> BoundValue:
    """Evaluate one of the named sufficient-order/clique thresholds.

    bipartite_kK1K2(k)        order forcing a {kK1uK2,K3}-free graph bipartite
    indep5                    order forcing independence 5 in K3-free graphs
    multipartite_clique(k,l)  order forcing K_l in kK1-free complete
                              multipartite unions
    split_clique(k)           order of the multipartite side of the component
                              split that forces a clique matching the other side
    omega_kK1K2_Z1(k)         order forcing omega-colourability, {kK1uK2,Z1}-free
    omega_kK1K2_D(k)          order forcing omega-colourability, {kK1uK2,D}-free
    omega_kK1_coK1K2(k,l)     order forcing omega-colourability,
                              {(k+1)K1,co(lK1uK2)}-free
    peel_omega(k,l)           clique number letting the peel colouring run
    """
    t = table or _DEFAULT

    def need(cond: bool, what: str):
        if not cond:
            raise ValueError(f"threshold {name!r}: {what}")

    if name == "bipartite_kK1K2":
        need(k is not None and k >= 2, "k >= 2 required")
        r = t.value(k - 1, 3)
        return BoundValue(r.value + _crowd_term(k) + 2 * k + 2, r.exact)
    if name == "indep5":
        r = t.value(5, 3)
        return BoundValue(r.value, r.exact)
    if name == "multipartite_clique":
        need(k is not None and l is not None and k >= 1 and l >= 1, "k,l >= 1 required")
        return BoundValue((k - 1) * (l - 1) + 1, True)
    if name == "split_clique":
        need(k is not None and k >= 3, "k >= 3 required")
        n = threshold("bipartite_kK1K2", k, table=t)
        return BoundValue(n.value * (k - 2) - 2 * k + 5, n.exact)
    if name == "omega_kK1K2_Z1":
        need(k is not None and k >= 3, "k >= 3 required")
        r = t.value(k - 1, 3)
        return BoundValue((k - 1) * (r.value + _crowd_term(k) + 2 * k) + 2, r.exact)
    if name == "omega_kK1K2_D":
        need(k is not None and k >= 3, "k >= 3 required")
        inner = t.value(k, k)
        outer = t.value(2 * k, inner.value + k)
        return BoundValue(outer.value, inner.exact and outer.exact)
    if name == "omega_kK1_coK1K2":
        need(k is not None and l is not None and k >= 3 and l >= 2, "k >= 3, l >= 2 required")
        m = k * (l - 1)
        inner = t.value(k, m)
        outer = t.value(k + 1, inner.value + m)
        return BoundValue(outer.value, inner.exact and outer.exact)
    if name == "peel_omega":
        need(k is not None and l is not None and k >= 3 and l >= 2, "k >= 3, l >= 2 required")
        m = k * (l - 1)
        r = t.value(k, m)
        return BoundValue(r.value + m, r.exact)
    raise ValueError(f"unknown threshold {name!r}")


# each named threshold and the parameters it takes
THRESHOLD_PARAMS = {
    "bipartite_kK1K2": ("k",),
    "indep5": (),
    "multipartite_clique": ("k", "l"),
    "split_clique": ("k",),
    "omega_kK1K2_Z1": ("k",),
    "omega_kK1K2_D": ("k",),
    "omega_kK1_coK1K2": ("k", "l"),
    "peel_omega": ("k", "l"),
}
