"""Exhaustive small-graph enumeration and theorem verification.

Graphs are generated one order at a time by vertex augmentation with
canonical-code deduplication, so each isomorphism class appears exactly
once and always under its canonical labelling (reports are therefore
byte-stable).  An optional pattern list restricts generation to the
{patterns}-free hereditary class: freeness is closed under vertex
deletion, so augmenting only free parents still reaches every free graph.
This makes searches inside restrictive classes (the common case) cheap.
A child of a free parent can contain a pattern only through its new
vertex, so freeness is settled once per parent: `induced.anchored_copies`
lists the parent's copies of each pattern less one vertex, and every
neighbourhood mask of the new vertex that completes one is skipped before
a graph is built or a canonical form computed.  A mask is tested against
the copies only once it passes the degree test of the filter below, which
rejects most masks more cheaply.  The full matcher is not on this path; it
serves `verify --full` and re-validates counterexamples.

Most children are discarded before their canonical form is computed, by a
canonical-deletion filter after McKay ("Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  A child is kept only when its new
vertex has the maximal invariant among the child's vertices: the degree
first, then, among vertices of equal degree, the sum of the neighbours'
degrees.  Both are read off the parent's degrees and the mask, from
adjacency alone.  This loses no class.  Take a graph G of the level and a
vertex m of G with the maximal invariant.  G - m is in the parent level,
up to isomorphism, since the class is hereditary.  So one mask re-adds m
to that canonical parent; it is not blocked, because G is free, and the
filter keeps it, because the invariant ignores labels.  Ties are all kept,
and the canonical-code dict removes the duplicates, so the output is the
same as canonicalising every child.

One function, `_children`, builds each level; parallel runs apply it to
chunks of the parents in a process pool, so thread count never changes
any output.  `generate_upto` is the one walk over orders, and it checks
the order limit before generating anything.

Report schema (machine-readable lines)::

    counterexample\t<graph6>\t<property>\t<certificate>
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

from . import catalog
from .canon import canonical_form
from .graphs import (
    Graph,
    bits,
    chromatic_number,
    has_independent_set,
    is_connected,
    is_cycle,
    max_clique,
    relabel,
)
from .graph6 import encode_graph6
from .induced import anchored_copies, contains_induced, is_free
from .pairs import ClassSpec, PairSpec
from .perfection import is_perfect_spgt
from .twins import twin_collapse

GENERATOR_LIMIT = 10
RESTRICTED_LIMIT = 12  # hereditary pattern-restricted generation may go higher

# number of graphs per order, up to isomorphism (checked in tests)
KNOWN_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168]

_cache: dict[tuple[int, tuple[bytes, ...] | None], list[Graph]] = {}


def _children(parents: Sequence[Graph], patterns: Sequence[Graph] | None):
    """Canonical (code, graph) pairs for the one-vertex extensions whose new
    vertex has the maximal (degree, neighbour degree sum) of the child."""
    out: dict[bytes, Graph] = {}
    for parent in parents:
        n = parent.n + 1
        new_bit = 1 << (n - 1)
        prows = parent.rows
        # the anchored pairs (S, R), as the R values of each S
        by_s: dict[int, set[int]] = {}
        for cs, cr in () if patterns is None else anchored_copies(parent, patterns):
            by_s.setdefault(cs, set()).add(cr)
        copies = list(by_s.items())
        deg = [r.bit_count() for r in prows]
        top = max(deg, default=0)
        at = [0] * (n + 1)  # at[d]: the parent vertices of degree d
        for v, d in enumerate(deg):
            at[d] |= 1 << v
        nsum = [sum(deg[u] for u in bits(r)) for r in prows]
        for mask in range(1 << (n - 1)):
            # the new vertex has degree k; a parent vertex of degree d has
            # d + 1 in the child when it is in mask, else d
            k = mask.bit_count()
            if top > k or mask & at[k]:
                continue  # a parent vertex has a larger degree
            # the pair test costs less than the tie test below, and most
            # masks that pass the degree test complete a pattern copy
            for cs, rs in copies:
                if mask & cs in rs:
                    break  # the new vertex completes a pattern copy
            else:
                ties = at[k] & ~mask | at[k - 1] & mask  # at[-1] is empty
                if ties:
                    s = k + sum(deg[v] for v in bits(mask))
                    if any(
                        nsum[t] + (prows[t] & mask).bit_count() + (k if mask >> t & 1 else 0)
                        > s
                        for t in bits(ties)
                    ):
                        continue
                rows = [r | new_bit if mask >> v & 1 else r for v, r in enumerate(prows)]
                rows.append(mask)
                g = Graph(n, rows)
                code, perm = canonical_form(g)
                if code not in out:
                    out[code] = relabel(g, perm)
    return out


def _check_order(n: int, patterns: Sequence[Graph] | None) -> None:
    limit = GENERATOR_LIMIT if patterns is None else RESTRICTED_LIMIT
    if n < 0 or n > limit:
        scope = "all graphs" if patterns is None else "a free class"
        raise ValueError(f"generation of {scope} covers orders 0..{limit}, not {n}")


def generate_graphs(
    n: int,
    patterns: Sequence[Graph] | None = None,
    threads: int = 1,
) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, canonically labelled.

    With patterns given, only {patterns}-free graphs are produced (and the
    hereditary restriction also prunes the generation itself).
    """
    _check_order(n, patterns)
    if n == 0:
        # the empty graph contains the order-0 pattern and no other
        free = patterns is None or all(p.n for p in patterns)
        return [Graph(0, ())] if free else []
    key_pat = None if patterns is None else tuple(
        sorted(canonical_form(p)[0] for p in patterns)
    )
    hit = _cache.get((n, key_pat))
    if hit is not None:
        return hit
    parents = generate_graphs(n - 1, patterns, threads)
    if threads > 1 and len(parents) >= 64:
        import multiprocessing

        out: dict[bytes, Graph] = {}
        build = partial(_children, patterns=patterns)
        with multiprocessing.Pool(threads) as pool:
            # equal canonical codes carry identical canonical graphs,
            # so the parts merge in any order
            for part in pool.imap_unordered(build, _split(parents, threads * 4)):
                out.update(part)
    else:
        out = _children(parents, patterns)
    result = [out[c] for c in sorted(out)]
    _cache[(n, key_pat)] = result
    return result


def generate_upto(
    n_max: int, patterns: Sequence[Graph] | None = None, threads: int = 1
) -> Iterator[Graph]:
    """Graphs on 1..n_max vertices, by order then canonical code.  The
    limit is checked before any level is generated."""
    _check_order(n_max, patterns)
    return (
        g for n in range(1, n_max + 1) for g in generate_graphs(n, patterns, threads)
    )


def _split(items: Sequence, parts: int):
    size = max(1, -(-len(items) // parts))
    return [items[i : i + size] for i in range(0, len(items), size)]


# ---------------------------------------------------------------------------
# property checks and certificates

def _property_certificate(g: Graph, prop: str) -> str | None:
    """None when g satisfies the property, else a certificate string."""
    if prop == "perfect":
        cert = is_perfect_spgt(g)
        if cert.perfect:
            return None
        return cert.describe()
    if prop == "omega":
        omega = max_clique(g)
        chi = chromatic_number(g)
        if chi == omega:
            return None
        return f"not omega-colourable; chi={chi} > omega={omega}"
    raise ValueError(f"unknown property {prop!r}")


@dataclass(frozen=True)
class Counterexample:
    graph6: str
    order: int
    certificate: str


@dataclass
class VerificationReport:
    pair_display: str
    class_name: str
    prop: str
    n_max: int
    restricted: bool
    verdict: str = "all_hold"
    counterexamples: list[Counterexample] = field(default_factory=list)
    examined: dict[int, int] = field(default_factory=dict)
    passing: dict[int, int] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"pair {self.pair_display} class {self.class_name} "
            f"property {self.prop} n_max {self.n_max}",
            f"verdict: {self.verdict}",
        ]
        for n in sorted(self.examined):
            lines.append(
                f"order {n}: examined {self.examined[n]} passing {self.passing[n]}"
            )
        for ce in self.counterexamples:
            lines.append(f"counterexample\t{ce.graph6}\t{self.prop}\t{ce.certificate}")
        return "\n".join(lines)


def verify_universal(
    pair: PairSpec,
    cls: ClassSpec,
    prop: str,
    n_max: int,
    class_name: str = "?",
    threads: int = 1,
    restricted: bool = True,
) -> VerificationReport:
    """Check the property on every {X,Y}-free class member up to n_max.

    restricted=True enumerates only the {X,Y}-free hereditary class (the
    verdict is identical; examined counts then refer to that class).
    """
    patterns = [pair.x, pair.y]
    report = VerificationReport(
        pair_display=pair.display(),
        class_name=class_name,
        prop=prop,
        n_max=n_max,
        restricted=restricted,
        examined=dict.fromkeys(range(1, n_max + 1), 0),
        passing=dict.fromkeys(range(1, n_max + 1), 0),
    )
    for g in generate_upto(n_max, patterns if restricted else None, threads):
        report.examined[g.n] += 1
        if not cls.contains(g):
            continue
        if not restricted and not is_free(g, patterns):
            continue
        report.passing[g.n] += 1
        cert = _property_certificate(g, prop)
        if cert is not None:
            _revalidate(g, cls, patterns, prop)
            report.counterexamples.append(Counterexample(encode_graph6(g), g.n, cert))
    if report.counterexamples:
        report.verdict = "violated"
    return report


def _revalidate(g: Graph, cls: ClassSpec, patterns, prop: str):
    if not cls.contains(g) or not is_free(g, patterns):
        raise AssertionError("counterexample failed re-validation")
    if _property_certificate(g, prop) is None:
        raise AssertionError("counterexample satisfies the property on re-check")


def hunt_counterexamples(
    pair: PairSpec,
    cls: ClassSpec,
    prop: str,
    n_max: int,
    class_name: str = "?",
    threads: int = 1,
) -> list[Counterexample]:
    """All violating graphs up to n_max, with certificates."""
    return verify_universal(
        pair, cls, prop, n_max, class_name=class_name, threads=threads
    ).counterexamples


# ---------------------------------------------------------------------------
# censuses

PREDICATES: dict[str, Callable[[Graph], bool]] = {
    "connected": is_connected,
    "non-perfect": lambda g: not is_perfect_spgt(g).perfect,
    "not-omega-colourable": lambda g: chromatic_number(g) > max_clique(g),
    "not-odd-cycle": lambda g: not (g.n % 2 == 1 and is_cycle(g)),
    "alpha>=3": lambda g: has_independent_set(g, 3),
    "alpha=3": lambda g: has_independent_set(g, 3) and not has_independent_set(g, 4),
    "contains-C5": lambda g: _contains_c5(g),
}


_C5 = catalog.cycle(5)


def _contains_c5(g: Graph) -> bool:
    return contains_induced(g, _C5) is not None


@dataclass
class Census:
    pattern_display: tuple[str, ...]
    predicates: tuple[str, ...]
    n_max: int
    members: list[str]  # graph6, sorted by (order, canonical code)

    def to_text(self) -> str:
        head = (
            f"census free {{{', '.join(self.pattern_display)}}} "
            f"predicates [{', '.join(self.predicates)}] n_max {self.n_max}"
        )
        return "\n".join([head, f"members: {len(self.members)}"] + self.members)


def census(
    patterns: Sequence[Graph],
    predicates: Sequence[str],
    n_max: int,
    threads: int = 1,
) -> Census:
    """All {patterns}-free graphs satisfying every predicate, up to n_max."""
    preds = []
    for name in predicates:
        if name not in PREDICATES:
            raise ValueError(
                f"unknown predicate {name!r}; choose from {sorted(PREDICATES)}"
            )
        preds.append(PREDICATES[name])
    members = [
        encode_graph6(g)
        for g in generate_upto(n_max, list(patterns), threads)
        if all(p(g) for p in preds)
    ]
    return Census(
        pattern_display=tuple(str(catalog.recognize(p)) for p in patterns),
        predicates=tuple(predicates),
        n_max=n_max,
        members=members,
    )


def derive_blowup_catalog(n_max: int, threads: int = 1) -> Census:
    """Twin-collapsed bases of all {2K1 u K2, gem}-free graphs with a C5."""
    patterns = [catalog.k_k1_plus_k2(2), catalog.gem()]
    seen: dict[bytes, tuple[int, str]] = {}
    for g in generate_upto(n_max, patterns, threads):
        if not _contains_c5(g):
            continue
        base = twin_collapse(g).base
        code, perm = canonical_form(base)
        if code not in seen:
            seen[code] = (base.n, encode_graph6(relabel(base, perm)))
    members = sorted((order, code, g6) for code, (order, g6) in seen.items())
    return Census(
        pattern_display=tuple(str(catalog.recognize(p)) for p in patterns),
        predicates=("contains-C5", "twin-collapsed-base"),
        n_max=n_max,
        members=[m[2] for m in members],
    )
