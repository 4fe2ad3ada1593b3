"""Ramsey numbers R(k,l) and the explicit order/clique thresholds.

R(k,l) is the least r such that every graph on r vertices contains an
induced kK1 or a K_l.  Exact values are limited to the classically known
small entries; everything else falls back to the additive recurrence
R(k,l) <= R(k-1,l) + R(k,l-1), reported as an inexact upper bound.  Upper
bounds are sound wherever the thresholds are used, since each threshold
sits inside an "at least n vertices suffice" statement.  The recurrence
is filled bottom-up, one row of the smaller argument at a time, so large
arguments need no deep recursion; a value that takes more than
`MAX_CELLS` cells of work is refused with a ValueError.  Each row counts
`ROW_CELLS` cells on top of its own, and each cell counts once plus once
per `CELL_BITS` bits of the largest entry, R(k, l) <= C(k+l-2, k-1).

Each exact table entry with a witness of at most 17 vertices carries a
lower-bound certificate: a graph on R(k,l)-1 vertices with no induced kK1
and no K_l, checked by the induced-subgraph matcher on first use.

The thresholds deliberately report sufficient orders, not minimal ones.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, log

from .catalog import complete, empty_graph
from .graphs import Graph, build, complement
from .graph6 import decode_graph6
from .induced import contains_induced


@dataclass(frozen=True)
class BoundValue:
    value: int
    exact: bool


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


# the most recurrence work one value may take, in cells of small integers.
# Fitted to process times of value(k, l) on 2 vCPUs (about 0.22 us a cell,
# all within 10%): a row costs 2 cells, and adding integers of 8,000 bits
# costs as much as a cell.  value(3002, 3002) takes 7.9M cells (1.6 s).
# Mid-width tables are refused: value(1500, 6642) (3.2 s) by its 8.8M rows
# and cells alone, value(2200, 4000) (3.1 s) by 6.4M of them plus 4.6M for
# the length of its entries
MAX_CELLS = 8 * 10**6
ROW_CELLS = 2
CELL_BITS = 8000


def _work(k: int, l: int) -> int:
    """The estimated cells of recurrence work for R(k, l), 3 <= k <= l.
    The bits are left out when the rows and cells alone are over
    `MAX_CELLS`, so a huge l never reaches a float."""
    cells = (k - 2) * (k - 1) // 2 + (l - k) * (k - 2)  # min(k, b) - 2 in row b
    work = ROW_CELLS * (l - 2) + cells
    if work > MAX_CELLS:
        return work
    bits = (lgamma(k + l - 1) - lgamma(k) - lgamma(l)) / log(2)
    return work + round(cells * bits / CELL_BITS)


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
        work = _work(k, l)
        if work > MAX_CELLS:
            raise ValueError(
                f"R({k},{l}) takes more than {MAX_CELLS} cells of recurrence work"
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


# each named sufficient-order/clique threshold -> {parameter: least value}
THRESHOLDS = {
    # order forcing a {kK1uK2,K3}-free graph bipartite
    "bipartite_kK1K2": {"k": 2},
    # order forcing independence 5 in K3-free graphs
    "indep5": {},
    # order forcing K_l in kK1-free complete multipartite unions
    "multipartite_clique": {"k": 1, "l": 1},
    # order of the multipartite side of the component split that forces a
    # clique matching the other side
    "split_clique": {"k": 3},
    # order forcing omega-colourability, {kK1uK2,Z1}-free
    "omega_kK1K2_Z1": {"k": 3},
    # order forcing omega-colourability, {kK1uK2,D}-free
    "omega_kK1K2_D": {"k": 3},
    # order forcing omega-colourability, {(k+1)K1,co(lK1uK2)}-free
    "omega_kK1_coK1K2": {"k": 3, "l": 2},
    # clique number letting the peel colouring run
    "peel_omega": {"k": 3, "l": 2},
}


def threshold(name: str, k: int | None = None, l: int | None = None,
              table: RamseyTable | None = None) -> BoundValue:
    """Evaluate one of the named thresholds of `THRESHOLDS`, each of the
    parameters it takes at least its least value."""
    if name not in THRESHOLDS:
        raise ValueError(f"unknown threshold {name!r}")
    given = {"k": k, "l": l}
    least = THRESHOLDS[name]
    if any(given[p] is None or given[p] < v for p, v in least.items()):
        need = ", ".join(f"{p} >= {v}" for p, v in least.items())
        raise ValueError(f"threshold {name!r}: {need} required")
    t = table or _DEFAULT
    if name == "bipartite_kK1K2":
        r = t.value(k - 1, 3)
        return BoundValue(r.value + _crowd_term(k) + 2 * k + 2, r.exact)
    if name == "indep5":
        return t.value(5, 3)
    if name == "multipartite_clique":
        return BoundValue((k - 1) * (l - 1) + 1, True)
    if name == "split_clique":
        n = threshold("bipartite_kK1K2", k, table=t)
        return BoundValue(n.value * (k - 2) - 2 * k + 5, n.exact)
    if name == "omega_kK1K2_Z1":
        r = t.value(k - 1, 3)
        return BoundValue((k - 1) * (r.value + _crowd_term(k) + 2 * k) + 2, r.exact)
    if name == "omega_kK1K2_D":
        inner = t.value(k, k)
        outer = t.value(2 * k, inner.value + k)
        return BoundValue(outer.value, inner.exact and outer.exact)
    m = k * (l - 1)  # omega_kK1_coK1K2 and peel_omega are left
    if name == "omega_kK1_coK1K2":
        inner = t.value(k, m)
        outer = t.value(k + 1, inner.value + m)
        return BoundValue(outer.value, inner.exact and outer.exact)
    r = t.value(k, m)
    return BoundValue(r.value + m, r.exact)
