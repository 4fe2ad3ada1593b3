"""Exhaustive small-graph enumeration and theorem verification.

Graphs are generated one order at a time by vertex augmentation with
canonical-code deduplication, so each isomorphism class appears exactly
once and always under its canonical labelling (reports are therefore
byte-stable).  An optional pattern list restricts generation to the
{patterns}-free hereditary class: freeness is closed under vertex
deletion, so augmenting only free parents still reaches every free graph.
This makes searches inside restrictive classes (the common case) cheap.
A child of a free parent can contain a pattern only through its new
vertex, so freeness is settled once per parent and pattern:
`induced.completing_masks` searches the parent for copies of the pattern
less one vertex u, one u per orbit of the pattern's automorphism group,
carrying the parent's candidate masks that such a copy can still
complete and cutting a branch that leaves none (the `induced` module
docstring gives the argument).  It returns bit i for the parent's i-th
candidate mask, and every mask it sets is skipped before a graph is built
or a canonical form computed.  The full matcher, which places patterns
over the same level table, is not on this path; it serves `verify --full`
and re-validates counterexamples.

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

Masks that an automorphism of the parent moves are pruned too, the other
half of McKay's method.  An automorphism s of the parent, extended by
fixing the new vertex, is an isomorphism from the child of a mask to the
child of its image s(mask).  So the masks of one orbit of the group give
isomorphic children, and the invariant filter and the blocked masks
accept all of an orbit or none of it.  A mask is skipped when one
generator of the group (`canon.automorphism_generators`) maps it to a
smaller mask.  The smallest mask of an orbit is never skipped, since
every image of it lies in the orbit, so each accepted orbit still yields
its child and no class is lost.

One loop builds each level as the merge of `_children` over chunks of
the parents: the chunks are mapped in this process for one worker, and
in a process pool of at most one worker per CPU the process may use for
more, so thread count never changes any output.  `generate_upto` yields
orders 1..n_max in turn, and it checks the order limit and the thread
count before generating anything.

Generation keeps two bounded LRU caches, each keyed by what fixes its
content.  Neither the invariant filter nor the orbit test depends on the
pattern set, and neither does a child, which its parent and mask fix, nor
the masks that complete one pattern, which its parent and the pattern
fix.  So one record per parent, `_parent`, holds the candidate masks (the
masks that pass both tests), the children built so far, and, by pattern,
the candidate masks that complete it, as the set bits of one int, bit i
for `masks[i]` (one bit per candidate, not per possible mask), for every
class that shares the parent.  `_children` runs the pair test only: it
ORs the completing masks of the class's patterns and keeps the candidate
masks whose bit is clear.  A record's children and masks are evicted
with it.  `PARENT_CACHE_SIZE` (512) comes from replaying the parent keys
that one benchmark repetition asks for (seed 7) through LRU caches of
several sizes.  120 small pair classes ask for 53 distinct parents and
211 distinct children, and 64 entries hold them all.  Seven classes at
n <= 8 ask for 1,211 parents (512 distinct) and 2,971 children (1,615
distinct): 512 entries hold them all, 384 miss 42 parents and 83
children more, and 256 miss 423 parents and 963 children more.
Unrestricted generation up to order 8 repeats no parent, so there the
cache only costs memory.

The other cache, `_walk`, holds one walk per class: the levels built so
far, from order 0 up.  Every caller reads a class as a walk over orders
0..n, so `generate_graphs` only extends the walk to order n and returns
level n as a new list, which the caller owns.  The key is the pattern
list as given, as a tuple, or None for all graphs; an empty list
restricts nothing and reads that walk too.  The thread count is not in
the key, so it decides how a level is built, never whether it is built
again.  The same patterns in another order or labelling make a walk of
their own, with the same levels; no caller passes such lists, and a key
up to isomorphism would cost a canonical form per pattern and call.
`WALK_CACHE_SIZE` (24) comes from replaying the 1,988 requests of one
run of the test suite, 112 classes, through LRU caches of walks.  24 is
the fewest walks that build fewer levels (999) than an LRU cache of 64
single levels keyed up to isomorphism (1,032); 16 walks build 1,065, 32
build 949 and unbounded ones 768.  The walk of all graphs up to order 9
dominates what the cache holds at any size.  Each benchmark workload
needs one walk.

Verifies share a third bounded cache: the oracle verdicts, by labelled
graph and property.  Every generated graph is canonically labelled, so a
graph that many pairs and classes examine asks for its verdict once, and
the certificate, a function of the labelled graph, is the same text.  A
counterexample is re-validated by the uncached oracle, `_certificate`.
`VERDICT_CACHE_SIZE` (1,024) comes from replaying the keys that the
verifies ask for.  The 120-pair benchmark survey asks 19,956-21,126
times for 416 keys (seeds 1, 2, 3 and 7: every graph on 1..6 vertices,
for both properties); 512 entries hold them all, and 256 miss
12,154-13,767 times.  One run of the test suite asks 12,303 times for
6,997 keys: LRU caches of 512, 1,024, 2,048 and 4,096 entries miss
8,814, 8,432, 8,001 and 7,790 times.  1,024 holds the survey's keys with
room to spare, and doubling it saves the suite 431 more oracle calls
only.

A fourth bounded cache, `_in_class`, holds class membership by class and
labelled graph, for the same reason: the pairs of a survey ask the same
classes about the same small graphs.  A miss calls `cls.contains` at call
time; a counterexample is re-validated by `cls.contains` itself.
`CLASS_CACHE_SIZE` (4,096) comes from replaying the recorded keys.  The
120-pair survey asks 29,350-29,444 times for 2,079-2,080 keys (seeds 1,
2, 3 and 7); 4,096 entries hold them all, and 2,048 miss 66-126 times
more.  One run of the test suite asks 33,307 times for 15,985 keys: LRU
caches of 2,048, 4,096 and 8,192 entries miss 20,240, 19,541 and 18,571
times.

Report schema (machine-readable lines)::

    counterexample\t<graph6>\t<property>\t<certificate>
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterator, Sequence

from . import catalog
from .canon import automorphism_generators, canonical_form
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
from .induced import completing_masks, contains_induced, is_free
from .pairs import ClassSpec, PairSpec
from .perfection import is_perfect_spgt
from .twins import twin_collapse

GENERATOR_LIMIT = 10
RESTRICTED_LIMIT = 12  # hereditary pattern-restricted generation may go higher

# number of graphs per order, up to isomorphism (checked in tests)
KNOWN_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168]

# the walks of the classes in use (module docstring)
WALK_CACHE_SIZE = 24

# parent records that classes share (module docstring)
PARENT_CACHE_SIZE = 512

# oracle verdicts that pairs and classes share (module docstring)
VERDICT_CACHE_SIZE = 1024

# class memberships that pairs share (module docstring)
CLASS_CACHE_SIZE = 4096


class _Parent:
    """What a parent fixes whatever the pattern set: the candidate masks,
    in increasing order, the canonical children built from it so far, by
    mask, and the candidate masks that complete each pattern asked about
    so far, by pattern.  A candidate mask is the neighbourhood of a new
    vertex that has the maximal (degree, neighbour degree sum) of the
    child, and that no automorphism generator of the parent maps lower."""

    __slots__ = ("graph", "masks", "children", "blocked")

    def __init__(self, parent: Graph):
        rows, n = parent.rows, parent.n
        self.graph = parent
        deg = [r.bit_count() for r in rows]
        top = max(deg, default=0)
        at = [0] * (n + 2)  # at[d]: the vertices of degree d
        for v, d in enumerate(deg):
            at[d] |= 1 << v
        nsum = [sum(deg[u] for u in bits(r)) for r in rows]
        # with these (lo, hi) tables a generator maps a neighbourhood mask
        # to lo[mask & low] | hi[mask >> half]
        half = n // 2
        low = (1 << half) - 1
        images = [
            (_images(gamma, 0, half), _images(gamma, half, n))
            for gamma in automorphism_generators(parent)
        ]
        self.masks: list[int] = []
        for mask in range(1 << n):
            # the new vertex has degree k; a parent vertex of degree d has
            # d + 1 in the child when it is in mask, else d
            k = mask.bit_count()
            if top > k or mask & at[k]:
                continue  # a parent vertex has a larger degree
            ties = at[k] & ~mask | at[k - 1] & mask  # at[-1] is empty
            if ties:
                s = k + sum(deg[v] for v in bits(mask))
                if any(
                    nsum[t] + (rows[t] & mask).bit_count() + (k if mask >> t & 1 else 0)
                    > s
                    for t in bits(ties)
                ):
                    continue  # a tied vertex has a larger neighbour degree sum
            if any(lo[mask & low] | hi[mask >> half] < mask for lo, hi in images):
                continue  # an automorphism of the parent maps mask lower
            self.masks.append(mask)
        self.children: dict[int, tuple[bytes, Graph]] = {}
        self.blocked: dict[Graph, int] = {}

    def completes(self, pattern: Graph) -> int:
        """The candidate masks whose child contains pattern, as the set
        bits of one int, for a pattern-free parent: bit i is set when
        `masks[i] & S == R` for an anchored pair (S, R) of the pattern."""
        known = self.blocked.get(pattern)
        if known is None:
            known = self.blocked[pattern] = completing_masks(self.graph, pattern, self.masks)
        return known

    def child(self, mask: int) -> tuple[bytes, Graph]:
        """Canonical code and canonically labelled copy of the parent plus
        one vertex whose neighbourhood is mask."""
        known = self.children.get(mask)
        if known is None:
            parent = self.graph
            new_bit = 1 << parent.n
            rows = [r | new_bit if mask >> v & 1 else r for v, r in enumerate(parent.rows)]
            rows.append(mask)
            g = Graph(parent.n + 1, rows)
            code, perm = canonical_form(g)
            known = self.children[mask] = code, relabel(g, perm)
        return known


# the parent records, by parent
_parent = lru_cache(maxsize=PARENT_CACHE_SIZE)(_Parent)


def _children(parents: Sequence[Graph], patterns: Sequence[Graph] | None):
    """Canonical (code, graph) pairs for the one-vertex extensions of the
    parents by their candidate masks that complete no pattern copy."""
    out: dict[bytes, Graph] = {}
    for parent in parents:
        record = _parent(parent)
        blocked = 0
        for p in patterns or ():
            blocked |= record.completes(p)
        for i, mask in enumerate(record.masks):
            if not blocked >> i & 1:
                code, child = record.child(mask)
                out[code] = child  # equal codes carry identical canonical graphs
    return out


def _images(gamma: Sequence[int], start: int, stop: int) -> list[int]:
    """table[m]: the image under gamma of the vertex set m << start."""
    table = [0]
    for v in range(start, stop):
        bit = 1 << gamma[v]
        table += [t | bit for t in table]
    return table


def _check_args(n: int, patterns: Sequence[Graph] | None, threads: int) -> None:
    limit = RESTRICTED_LIMIT if patterns else GENERATOR_LIMIT
    if n < 0 or n > limit:
        scope = "a free class" if patterns else "all graphs"
        raise ValueError(f"generation of {scope} covers orders 0..{limit}, not {n}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, not {threads}")


def generate_graphs(
    n: int,
    patterns: Sequence[Graph] | None = None,
    threads: int = 1,
) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, canonically labelled.

    With patterns given, only {patterns}-free graphs are produced (and the
    hereditary restriction also prunes the generation itself).  The list
    is the caller's own: changing it leaves the walk cache intact.
    """
    _check_args(n, patterns, threads)
    key = tuple(patterns) if patterns else None  # [] restricts nothing
    walk = _walk(key)
    build = partial(_children, patterns=key)
    while len(walk) <= n:
        parents = walk[-1]
        workers = min(threads, _cpus()) if len(parents) >= 64 else 1
        out: dict[bytes, Graph] = {}
        with _mapper(workers) as imap:
            # equal canonical codes carry identical canonical graphs, so the
            # parts merge in any order
            for part in imap(build, _split(parents, workers * 4)):
                out.update(part)
        walk.append(tuple(out[c] for c in sorted(out)))
    return list(walk[n])


@contextmanager
def _mapper(workers: int):
    """An unordered map over `workers` processes: the builtin map in this
    process for one, else a process pool's imap_unordered."""
    if workers == 1:
        yield map
    else:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            yield pool.imap_unordered


@lru_cache(maxsize=WALK_CACHE_SIZE)
def _walk(patterns: tuple[Graph, ...] | None) -> list[tuple[Graph, ...]]:
    """The levels of the class built so far, level n at walk[n].  A walk
    starts at level 0: the empty graph contains the order-0 pattern and no
    other."""
    free = patterns is None or all(p.n for p in patterns)
    return [(Graph(0, ()),) if free else ()]


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def generate_upto(
    n_max: int, patterns: Sequence[Graph] | None = None, threads: int = 1
) -> Iterator[Graph]:
    """Graphs on 1..n_max vertices, by order then canonical code.  The
    arguments are checked before any level is generated."""
    _check_args(n_max, patterns, threads)
    return (
        g for n in range(1, n_max + 1) for g in generate_graphs(n, patterns, threads)
    )


def _split(items: Sequence, parts: int):
    size = max(1, -(-len(items) // parts))
    return [items[i : i + size] for i in range(0, len(items), size)]


# ---------------------------------------------------------------------------
# property checks and certificates

def _certificate(g: Graph, prop: str) -> str | None:
    """None when g satisfies the property, else a certificate string."""
    if prop == "perfect":
        cert = is_perfect_spgt(g)
        if cert.perfect:
            return None
        return cert.describe()
    if prop == "omega":
        omega = max_clique(g)
        chi = chromatic_number(g, omega=omega)
        if chi == omega:
            return None
        return f"not omega-colourable; chi={chi} > omega={omega}"
    raise ValueError(f"unknown property {prop!r}")


# the verdicts of the graphs in use, by labelled graph and property (module
# docstring); counterexamples are re-validated by `_certificate` itself
_property_certificate = lru_cache(maxsize=VERDICT_CACHE_SIZE)(_certificate)


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def _in_class(cls: ClassSpec, g: Graph) -> bool:
    """Class membership of the graphs in use, by class and labelled graph
    (module docstring); counterexamples are re-validated by `cls.contains`
    itself."""
    return cls.contains(g)


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
        if not _in_class(cls, g):
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
    if _certificate(g, prop) is None:
        raise AssertionError("counterexample satisfies the property on re-check")


# ---------------------------------------------------------------------------
# censuses

_C5 = catalog.cycle(5)


def _contains_c5(g: Graph) -> bool:
    return contains_induced(g, _C5) is not None


def _above_omega(g: Graph) -> bool:
    omega = max_clique(g)
    return chromatic_number(g, omega=omega) > omega


PREDICATES: dict[str, Callable[[Graph], bool]] = {
    "connected": is_connected,
    "non-perfect": lambda g: not is_perfect_spgt(g).perfect,
    "not-omega-colourable": _above_omega,
    "not-odd-cycle": lambda g: not (g.n % 2 == 1 and is_cycle(g)),
    "alpha>=3": lambda g: has_independent_set(g, 3),
    "alpha=3": lambda g: has_independent_set(g, 3) and not has_independent_set(g, 4),
    "contains-C5": _contains_c5,
}


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
    patterns = catalog.BLOWUP_PAIR
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
