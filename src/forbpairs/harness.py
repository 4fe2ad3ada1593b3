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
degrees, then, among vertices equal in both, the number of triangles
through the vertex.  All three are read off the parent and the mask: the
new vertex lies on one triangle per edge inside mask, and a parent
vertex t gains one triangle per neighbour of t in mask when t itself is
in mask.  This loses no class, and neither would any other invariant
that ignores labels.  Take a graph G of the level and a vertex m of G
with the maximal invariant.  G - m is in the parent level, up to
isomorphism, since the class is hereditary.  So one mask re-adds m to
that canonical parent; it is not blocked, because G is free, and the
filter keeps it, because the invariant ignores labels.  Ties are all kept,
and the canonical-code dict removes the duplicates, so the output is the
same as canonicalising every child; each part of the invariant only
makes the ties fewer.  The masks that pass the degree test
are built, not found by a scan of all 2^n: the new vertex has the largest
degree k exactly when k is at least the parent's largest degree and the
mask holds none of the parent's vertices of degree k, so they are the
k-subsets of the other vertices.

Masks that an automorphism of the parent moves are pruned too, the other
half of McKay's method.  An automorphism s of the parent, extended by
fixing the new vertex, is an isomorphism from the child of a mask to the
child of its image s(mask).  So the masks of one orbit of the group give
isomorphic children, and the invariant filter and the blocked masks
accept all of an orbit or none of it.  A mask is kept only when it is
the least of its orbit: the masks that pass the invariant filter are
taken in increasing order, and each one kept is closed under the vertex
images of the group's generators (`canon.automorphism_generators`), so
every later mask of its orbit is skipped.  Each accepted orbit yields
one child and no class is lost, and the masks depend on the group alone,
not on the generators that describe it.  Twins are handled without a
closure.  Swapping two twins is an automorphism, and these swaps
generate a normal subgroup, since an automorphism maps twin classes onto
twin classes.  So the least mask of an orbit holds the least vertices of
each twin class that it meets: a mask that does not is skipped at once.
And the masks of an orbit that do are reached from any one of them by
the other generators, each image lowered onto the least vertices of each
class, so only those generators close the orbit.  The generators cost
no search: a parent that generation built carries the automorphisms its
canonical search recorded when it was built as a child (`Graph.auts`),
conjugated onto its canonical labelling.

A child inherits what its parent's oracle slots settle, and only what
the parent already holds when the child is built: a walk that no oracle
is asked about carries nothing and does no extra work.  Take a parent P
and the child G = P + m, with m's neighbourhood mask.
- omega(G) = max(omega(P), 1 + omega(P[mask])), so omega(G) exceeds
  omega(P), by one, exactly when mask holds a maximum clique of P.  The
  record lists P's maximum cliques once (`graphs.maximum_cliques`), on
  the first child built while omega(P) is known, and each child tests
  its mask against them, with no clique search.
- chi(P) <= chi(G) <= chi(P) + 1, and chi(G) >= omega(G).  So when
  omega(G) > chi(P), chi(G) = omega(G) with no colouring, set when chi(P)
  is known.
- Perfectness is hereditary, and a perfect P has a perfect child exactly
  when neither G nor its complement has an odd hole through m
  (`perfection.odd_hole_through`).  Only that verdict is carried: an
  imperfect child is searched in full, on its canonical labelling, for
  its certificate.  A graph known to be perfect is not coloured either,
  since its chromatic number is its clique number.
All three are properties of the graph, so carried values equal the
oracles' exactly, and reports do not change.  `_revalidate` checks a
counterexample on a fresh copy, which holds none of them.  A verify or
census asks the oracles level by level, since `generate_upto` builds a
level only once the last one has been read, so the children of the
graphs it asked about inherit.

One loop builds each level as the merge of `_children` over chunks of
the parents: the chunks are mapped in this process for one worker, and
in a process pool of at most one worker per CPU the process may use for
more, with the parents pickled with their slots.  The parts merge in
chunk order, so the kept copy of a class, and what it inherited, come
from the last parent that built it for every worker count, and thread
count never changes any output.  `generate_upto` yields orders 1..n_max
in turn, and it checks the order limit and the thread count before
generating anything.

One `Workbench`, `WORKBENCH`, holds the four caches that calls share,
each a bounded LRU cache keyed by what fixes its content; README Notes
give the replays of recorded keys that chose the sizes.  Tests install a
fresh instance for empty caches; a pool worker uses its forked copy.

`parent` holds one record per parent, keyed by the parent.  Neither the
invariant filter nor the orbit test depends on the pattern set, and
neither does a child, which its parent and mask fix, nor the masks that
complete one pattern, which its parent and the pattern fix.  So a record
holds the candidate masks (the masks that pass both tests), the children
that restricted classes have built so far, each with the automorphisms
of its own search for its record as a parent, and, by pattern, the
candidate masks that complete it, as the set bits of one int, bit i for
`masks[i]`, for every class that shares the parent.  `_children` runs
the pair test only: it ORs the completing masks of the class's patterns
and keeps the candidate masks whose bit is clear.  Unrestricted
generation repeats no parent, so it keeps no child in the records.  The
records are bounded, `PARENT_CACHE_SIZE`, because every class walked
adds parents, each with its masks and children.

`walk` holds one walk per class: the levels built so far, from order 0
up.  Every caller reads a class as a walk over orders 0..n, so
`generate_graphs` only extends the walk to order n and returns level n
as a new list, which the caller owns.  The key is the pattern list as
given, as a tuple, or None for all graphs; an empty list restricts
nothing and reads that walk too.  The thread count is not in the key, so
it decides how a level is built, never whether it is built again.  The
same patterns in another order or labelling make a walk of their own,
with the same levels; no caller passes such lists, and a key up to
isomorphism would cost a canonical form per pattern and call.  The walks
are bounded, `WALK_CACHE_SIZE`, because each holds whole levels and
every new pattern list starts one.

`verdict` holds the oracle verdicts, by labelled graph and property, and
`in_class` the class memberships, by class and labelled graph.  Generated
graphs are canonically labelled, so a graph that many pairs and classes
examine is checked once.  Both call the oracles and `cls.contains` at
call time, and a counterexample is re-validated by `_certificate` and
`cls.contains` themselves.  They are bounded, `VERDICT_CACHE_SIZE` and
`CLASS_CACHE_SIZE`, because every graph that a verify examines adds a key.

Report schema (machine-readable lines)::

    counterexample\t<graph6>\t<property>\t<certificate>
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable, Iterator, Sequence

from . import catalog
from .canon import automorphism_generators, canonical_form
from .graphs import (
    Graph,
    bits,
    chromatic_number,
    complement,
    has_independent_set,
    is_connected,
    is_cycle,
    max_clique,
    maximum_cliques,
    relabel,
    twins,
)
from .graph6 import encode_graph6
from .induced import completing_masks, contains_induced, is_free
from .pairs import ClassSpec, PairSpec
from .perfection import is_perfect_spgt, odd_hole_through
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
    in increasing order, the canonical children that restricted classes
    built from it so far, by mask, and the candidate masks that complete
    each pattern asked about so far, by pattern, and the maximum cliques
    of the parent once a child has needed them.  A candidate mask is the
    neighbourhood of a new vertex that has the maximal (degree, neighbour
    degree sum, triangles) of the child, and that is the least mask of
    its orbit under the parent's automorphism group."""

    __slots__ = ("graph", "masks", "children", "blocked", "cliques")

    def __init__(self, parent: Graph):
        rows, n = parent.rows, parent.n
        self.graph = parent
        deg = [r.bit_count() for r in rows]
        top = max(deg, default=0)
        at = [0] * (n + 2)  # at[d]: the vertices of degree d
        for v, d in enumerate(deg):
            at[d] |= 1 << v
        nsum = [sum(deg[u] for u in bits(r)) for r in rows]
        # tri[v]: the edges among v's neighbours, the triangles at v
        tri = [sum((rows[u] & r).bit_count() for u in bits(r)) // 2 for r in rows]
        # the new vertex has degree k; a parent vertex of degree d has d + 1
        # in the child when it is in mask, else d.  So no parent vertex has a
        # larger degree exactly when k >= top and mask holds no vertex of
        # degree k.
        found = []
        for k in range(top, n + 1):
            allowed = [1 << v for v in bits(((1 << n) - 1) & ~at[k])]
            found += map(sum, combinations(allowed, k))
        found.sort()
        # prefixes[j][c]: the c least vertices of the j-th twin class of two
        # or more vertices
        prefixes = []
        left = (1 << n) - 1
        while left:
            v, *rest = bits(left)
            prefix = [0, 1 << v]
            for u in rest:
                if twins(rows, v, u):
                    prefix.append(prefix[-1] | 1 << u)
            left &= ~prefix[-1]
            if len(prefix) > 2:
                prefixes.append(prefix)

        def outranked(mask: int, k: int, ties: int) -> bool:
            """Whether a vertex of ties, of the new vertex's degree k in the
            child of mask, has a larger (neighbour degree sum, triangles)."""
            # the new vertex's neighbour degree sum is k plus mask's degrees;
            # a tied vertex t gains one per neighbour in mask, whose degree
            # grows, and k for the new neighbour when t is in mask
            s = k + sum(deg[v] for v in bits(mask))
            e = -1
            for t in bits(ties):
                inside = (rows[t] & mask).bit_count()
                d = nsum[t] + inside + (k if mask >> t & 1 else 0)
                if d > s:
                    return True
                if d == s:
                    # the new vertex lies on a triangle per edge inside mask,
                    # and t, when in mask, gains one per neighbour in mask
                    if e < 0:
                        e = sum((rows[v] & mask).bit_count() for v in bits(mask)) // 2
                    if tri[t] + (inside if mask >> t & 1 else 0) > e:
                        return True
            return False

        def lowered(mask: int) -> int:
            """The mask with its vertices of each twin class moved onto the
            least ones of the class."""
            for prefix in prefixes:
                part = mask & prefix[-1]
                mask ^= part ^ prefix[part.bit_count()]
            return mask

        # gens[i][v]: the image of vertex v under the i-th generator that
        # moves a vertex to a non-twin, as a bit
        gens = [
            [1 << w for w in gamma]
            for gamma in automorphism_generators(parent)
            if not all(w == v or twins(rows, v, w) for v, w in enumerate(gamma))
        ]
        seen: set[int] = set()  # the lowered masks of the orbits met so far
        self.masks: list[int] = []
        for mask in found:
            if mask in seen or prefixes and lowered(mask) != mask:
                continue  # a smaller mask of its orbit came first
            k = mask.bit_count()
            ties = at[k] & ~mask | at[k - 1] & mask  # at[-1] is empty
            if ties and outranked(mask, k, ties):
                continue  # a tied vertex has a larger invariant
            self.masks.append(mask)
            if gens:
                seen.add(mask)
                orbit = [mask]  # grows while it is read
                for m in orbit:
                    for gamma in gens:
                        image = lowered(sum(map(gamma.__getitem__, bits(m))))
                        if image not in seen:
                            seen.add(image)
                            orbit.append(image)
        self.children: dict[int, tuple[bytes, Graph]] = {}
        self.blocked: dict[Graph, int] = {}
        self.cliques: list[int] | None = None

    def completes(self, pattern: Graph) -> int:
        """The candidate masks whose child contains pattern, as the set
        bits of one int, for a pattern-free parent: bit i is set when
        `masks[i] & S == R` for an anchored pair (S, R) of the pattern."""
        known = self.blocked.get(pattern)
        if known is None:
            known = self.blocked[pattern] = completing_masks(self.graph, pattern, self.masks)
        return known

    def child(self, mask: int) -> tuple[bytes, Graph]:
        """`extend(mask)`, kept in the record for the classes that share
        the parent."""
        known = self.children.get(mask)
        if known is None:
            known = self.children[mask] = self.extend(mask)
        return known

    def extend(self, mask: int) -> tuple[bytes, Graph]:
        """Canonical code and canonically labelled copy of the parent plus
        one vertex whose neighbourhood is mask, holding what the parent's
        oracle slots settle (module docstring)."""
        parent = self.graph
        m = parent.n
        new_bit = 1 << m
        rows = [r | new_bit if mask >> v & 1 else r for v, r in enumerate(parent.rows)]
        rows.append(mask)
        g = Graph(m + 1, rows)
        if parent.omega is not None:
            if self.cliques is None:
                self.cliques = maximum_cliques(parent)
            g.omega = parent.omega + any(c & mask == c for c in self.cliques)
            if parent.chi is not None and g.omega > parent.chi:
                g.chi = g.omega
        if parent.perfect and not (
            odd_hole_through(g, m) or odd_hole_through(complement(g), m)
        ):
            g.perfect = True
        code, perm = canonical_form(g)
        return code, relabel(g, perm)


def _children(parents: Sequence[Graph], patterns: Sequence[Graph] | None):
    """Canonical (code, graph) pairs for the one-vertex extensions of the
    parents by their candidate masks that complete no pattern copy.  An
    unrestricted walk asks for no parent twice, so it keeps no child in
    the records."""
    records = WORKBENCH.parent
    out: dict[bytes, Graph] = {}
    for parent in parents:
        record = records(parent)
        build = record.child if patterns else record.extend
        blocked = 0
        for p in patterns or ():
            blocked |= record.completes(p)
        for i, mask in enumerate(record.masks):
            if not blocked >> i & 1:
                code, child = build(mask)
                out[code] = child  # equal codes carry identical canonical graphs
    return out


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
    walk = WORKBENCH.walk(key)
    build = partial(_children, patterns=key)
    while len(walk) <= n:
        parents = walk[-1]
        workers = min(threads, _cpus()) if len(parents) >= 64 else 1
        out: dict[bytes, Graph] = {}
        with _mapper(workers) as imap:
            # equal canonical codes carry identical canonical graphs; the
            # parts merge in order, so that what a kept graph inherited does
            # not depend on the workers
            for part in imap(build, _split(parents, workers * 4)):
                out.update(part)
        walk.append(tuple(out[c] for c in sorted(out)))
    return list(walk[n])


@contextmanager
def _mapper(workers: int):
    """An ordered map over `workers` processes: the builtin map in this
    process for one, else a process pool's imap."""
    if workers == 1:
        yield map
    else:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            yield pool.imap


def _start_walk(patterns: tuple[Graph, ...] | None) -> list[tuple[Graph, ...]]:
    """The levels of the class built so far, level n at walk[n].  A walk
    starts at level 0: the empty graph contains the order-0 pattern and no
    other.  Its only automorphism is the identity, recorded as none, so no
    parent of a walk is searched for its automorphisms."""
    free = patterns is None or all(p.n for p in patterns)
    return [(Graph(0, (), b""),) if free else ()]


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
        chi = chromatic_number(g)
        if chi == omega:
            return None
        return f"not omega-colourable; chi={chi} > omega={omega}"
    raise ValueError(f"unknown property {prop!r}")


def _member(cls: ClassSpec, g: Graph) -> bool:
    return cls.contains(g)  # read at call time, so a wrapper on it is seen


class Workbench:
    """The caches of walks, parent records, verdicts and memberships."""

    def __init__(self):
        self.walk = lru_cache(maxsize=WALK_CACHE_SIZE)(_start_walk)
        self.parent = lru_cache(maxsize=PARENT_CACHE_SIZE)(_Parent)
        self.verdict = lru_cache(maxsize=VERDICT_CACHE_SIZE)(_certificate)
        self.in_class = lru_cache(maxsize=CLASS_CACHE_SIZE)(_member)


WORKBENCH = Workbench()


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
        examined=dict.fromkeys(range(1, n_max + 1), 0),
        passing=dict.fromkeys(range(1, n_max + 1), 0),
    )
    in_class, verdict = WORKBENCH.in_class, WORKBENCH.verdict
    for g in generate_upto(n_max, patterns if restricted else None, threads):
        report.examined[g.n] += 1
        if not in_class(cls, g):
            continue
        if not restricted and not is_free(g, patterns):
            continue
        report.passing[g.n] += 1
        cert = verdict(g, prop)
        if cert is not None:
            _revalidate(g, cls, patterns, prop)
            report.counterexamples.append(Counterexample(encode_graph6(g), g.n, cert))
    if report.counterexamples:
        report.verdict = "violated"
    return report


def _revalidate(g: Graph, cls: ClassSpec, patterns, prop: str):
    """Check a counterexample again on a copy that holds no oracle slot,
    so that no cached or carried value is read."""
    g = Graph(g.n, g.rows)
    if not cls.contains(g) or not is_free(g, patterns):
        raise AssertionError("counterexample failed re-validation")
    if _certificate(g, prop) is None:
        raise AssertionError("counterexample satisfies the property on re-check")


# ---------------------------------------------------------------------------
# censuses

_C5 = catalog.cycle(5)


def _contains_c5(g: Graph) -> bool:
    return contains_induced(g, _C5) is not None


PREDICATES: dict[str, Callable[[Graph], bool]] = {
    "connected": is_connected,
    "non-perfect": lambda g: WORKBENCH.verdict(g, "perfect") is not None,
    "not-omega-colourable": lambda g: WORKBENCH.verdict(g, "omega") is not None,
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
