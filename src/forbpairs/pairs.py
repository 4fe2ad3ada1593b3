"""Pair collections and the class/property characterisation tables.

A pair of forbidden induced subgraphs {X,Y} either forces every graph of a
restricted class to be perfect (omega-colourable), or it admits
counterexamples; the collections below are the exact characterisations.

``_TABLE`` transcribes each collection's definition: the collections it
includes, and unordered pairs of *shapes*.  A shape is a
``catalog.recognize`` tag (``"Z1"``, ``"kK1(3)"`` for 3K1, ``"Kn(3)"`` for
K3, ``"CompleteMultipartite(1,3)"`` for K1,3, ...), a bounded family such
as kK1 with k >= 4 (``_FAMILIES``), an induced subgraph of P4 or of
co(K3 u P4), or any graph.  A pair {X,Y} is in a collection when some
shape pair (p, q) of the collection or of one it includes, recursively,
has p a shape of X and q a shape of Y, or the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import catalog
from .graphs import Graph, has_independent_set, is_connected, is_cycle
from .induced import contains_induced

_ANY = "any graph"
_IN_P4 = "induced subgraph of P4"
_IN_CO_K3_P4 = "induced subgraph of co(K3+P4)"
_HOSTS = {_IN_P4: catalog.path(4), _IN_CO_K3_P4: catalog.co_k3_p4()}

# bounded family -> (catalog.recognize tag, least parameter)
_FAMILIES = {
    "kK1, k>=4": ("kK1", 4),
    "K_l, l>=3": ("Kn", 3),
    "K_l, l>=4": ("Kn", 4),
    "kK1+K2, k>=3": ("kK1_plus_K2", 3),
    "co(kK1+K2), k>=3": ("co_kK1_plus_K2", 3),
}

# collection -> (included collections, shape pairs), in the order of COLLECTIONS
_TABLE = {
    "P1": ((), (
        (_IN_P4, _ANY),
        ("kK1(3)", "Kn(3)"), ("kK1(3)", "Z1"), ("kK1(3)", "D"),
        ("K1_P3", "Kn(3)"), ("K1_P3", "Z1"), ("K1_P3", "D"),
        ("kK1_plus_K2(2)", "Kn(3)"), ("kK1_plus_K2(2)", "Z1"),
    )),
    "O1": (("P1",), (("kK1_plus_K2(2)", "D"),)),
    "P2": (("P1", "I"), (("K1_P3", _IN_CO_K3_P4),)),
    "P2c": (("P2",), (
        ("CompleteMultipartite(1,3)", "TwoK2"), ("CompleteMultipartite(1,3)", "Pn(5)"),
    )),
    "P3": (("P1",), (
        ("CompleteMultipartite(1,3)", "Kn(3)"), ("CompleteMultipartite(1,3)", "Z1"),
        ("K13plus", "Kn(3)"), ("K13plus", "Z1"),
    )),
    "P4": (("P2c", "P3"), (
        ("CompleteMultipartite(1,3)", "K1_K3"), ("CompleteMultipartite(1,3)", "Z2"),
    )),
    "O2": (("P2",), (("kK1_plus_K2(2)", "D"), ("kK1_plus_K2(2)", "co_K1_P4"))),
    "O2c": (("P2c",), (("kK1_plus_K2(2)", "D"), ("kK1_plus_K2(2)", "co_K1_P4"))),
    "O3": (("P3",), (("kK1_plus_K2(2)", "D"),)),
    "O4": (("P4",), (("kK1_plus_K2(2)", "D"), ("kK1_plus_K2(2)", "co_K1_P4"))),
    "P1plus": (("P1", "A_P", "A_1"), ()),
    "P1cplus": (("P1plus", "A_c"), ()),
    "P2plus": (("P2", "A_P"), ()),
    "P2cplus": (("P2c", "A_P", "A_c"), ()),
    "P3plus": (("P3", "A_P", "A_1", "A_c", "A_3"), ()),
    "P4plus": (("P4", "A_P", "A_c", "A_3"), ()),
    "O1plus": (("O1", "A_Omega", "A_1"), ()),
    "O1cplus": (("O1plus",), ()),
    "O2plus": (("O2", "A_Omega"), ()),
    "O2cplus": (("O2c", "A_Omega"), ()),
    "O3plus": (("O3", "A_Omega", "A_1", "A_3"), ()),
    "O4plus": (("O4", "A_Omega", "A_3"), ()),
    "I": ((), (("kK1(3)", _ANY),)),
    "R": ((), (("kK1, k>=4", "K_l, l>=3"),)),
    "A_P": (("R",), (("kK1_plus_K2(2)", "D"), ("kK1+K2, k>=3", "Kn(3)"))),
    "A_1": ((), (("kK1(3)", "K_l, l>=4"), ("kK1(3)", "co(kK1+K2), k>=3"))),
    "A_c": ((), (("kK1, k>=4", "Z1"), ("kK1+K2, k>=3", "Z1"))),
    "A_3": ((), (("K1_K13", "Kn(3)"), ("K1_K13", "Z1"))),
    "A_Omega": (("A_P", "A_c"), (
        ("kK1, k>=4", "D"), ("kK1+K2, k>=3", "D"), ("kK1, k>=4", "co(kK1+K2), k>=3"),
    )),
}

COLLECTIONS = tuple(_TABLE)


@dataclass(frozen=True)
class PairSpec:
    x: Graph
    y: Graph

    def display(self) -> str:
        return f"{{{catalog.recognize(self.x)}, {catalog.recognize(self.y)}}}"


@lru_cache(maxsize=None)
def _flattened(collection: str) -> frozenset[frozenset[str]]:
    """Every shape pair of the collection and of the ones it includes."""
    included, pairs = _TABLE[collection]
    out = {frozenset(pair) for pair in pairs}
    for name in included:
        out |= _flattened(name)
    return frozenset(out)


def _shapes(g: Graph) -> set[str]:
    form = catalog.recognize(g)
    shapes = {_ANY, str(form)}
    shapes.update(
        name for name, (tag, least) in _FAMILIES.items()
        if form.tag == tag and form.params[0] >= least
    )
    if g.n >= 1:  # the matcher embeds the 0-vertex graph anywhere; no shape holds it
        shapes.update(
            name for name, host in _HOSTS.items() if contains_induced(host, g) is not None
        )
    return shapes


def _shape_pairs(pair: PairSpec) -> set[frozenset[str]]:
    sx, sy = _shapes(pair.x), _shapes(pair.y)
    return {frozenset((p, q)) for p in sx for q in sy}


def in_collection(pair: PairSpec, collection: str) -> bool:
    if collection not in _TABLE:
        raise ValueError(f"unknown collection {collection!r}")
    return not _flattened(collection).isdisjoint(_shape_pairs(pair))


def classify_pair(pair: PairSpec) -> dict[str, bool]:
    keys = _shape_pairs(pair)
    return {name: not _flattened(name).isdisjoint(keys) for name in COLLECTIONS}


@dataclass(frozen=True)
class ClassSpec:
    """A restricted graph class: the conjunction of the flags below."""

    connected: bool = False
    min_independence: int | None = None
    exclude_c5: bool = False
    exclude_odd_cycles: bool = False

    def contains(self, g: Graph) -> bool:
        if self.exclude_odd_cycles and g.n % 2 == 1 and is_cycle(g):
            return False
        if self.exclude_c5 and g.n == 5 and is_cycle(g):
            return False
        if self.connected and not is_connected(g):
            return False
        if self.min_independence is not None and not has_independent_set(
            g, self.min_independence
        ):
            return False
        return True


# the properties a class is characterised for
PROPERTIES = ("perfect", "omega")

NAMED_CLASSES = {
    "G": ClassSpec(),
    "G5": ClassSpec(exclude_c5=True),
    "Go": ClassSpec(exclude_odd_cycles=True),
    "Gc": ClassSpec(connected=True),
    "Gc5": ClassSpec(connected=True, exclude_c5=True),
    "Galpha": ClassSpec(min_independence=3),
    "Goalpha": ClassSpec(min_independence=3, exclude_odd_cycles=True),
    "Gcalpha": ClassSpec(connected=True, min_independence=3),
    "Gco": ClassSpec(connected=True, exclude_odd_cycles=True),
    "Gcoalpha": ClassSpec(
        connected=True, min_independence=3, exclude_odd_cycles=True
    ),
}

# class -> characterising collection, without exceptions
_NO_EXC = {
    ("G5", "perfect"): "P1", ("Go", "perfect"): "P1", ("Gc5", "perfect"): "P1",
    ("Galpha", "perfect"): "P2", ("Goalpha", "perfect"): "P2",
    ("Gcalpha", "perfect"): "P2c",
    ("Gco", "perfect"): "P3",
    ("Gcoalpha", "perfect"): "P4",
    ("G5", "omega"): "O1", ("Go", "omega"): "O1", ("Gc5", "omega"): "O1",
    ("Galpha", "omega"): "O2", ("Goalpha", "omega"): "O2",
    ("Gcalpha", "omega"): "O2c",
    ("Gco", "omega"): "O3",
    ("Gcoalpha", "omega"): "O4",
}

# class -> characterising collection, allowing finitely many exceptions
_FINITE_EXC = {
    ("G", "perfect"): "P1plus", ("Go", "perfect"): "P1plus",
    ("Gc", "perfect"): "P1cplus",
    ("Galpha", "perfect"): "P2plus", ("Goalpha", "perfect"): "P2plus",
    ("Gcalpha", "perfect"): "P2cplus",
    ("Gco", "perfect"): "P3plus",
    ("Gcoalpha", "perfect"): "P4plus",
    ("G", "omega"): "O1plus", ("Go", "omega"): "O1plus", ("Gc", "omega"): "O1plus",
    ("Galpha", "omega"): "O2plus", ("Goalpha", "omega"): "O2plus",
    ("Gcalpha", "omega"): "O2cplus",
    ("Gco", "omega"): "O3plus",
    ("Gcoalpha", "omega"): "O4plus",
}


def theorem_collection(class_name: str, prop: str, finite_exceptions: bool) -> str:
    """The collection characterising (class, property) per the main theorems."""
    if class_name not in NAMED_CLASSES:
        raise ValueError(f"unknown class {class_name!r}")
    if prop not in PROPERTIES:
        raise ValueError(f"property must be {' or '.join(map(repr, PROPERTIES))}, not {prop!r}")
    table = _FINITE_EXC if finite_exceptions else _NO_EXC
    try:
        return table[(class_name, prop)]
    except KeyError:
        kind = "finite-exception" if finite_exceptions else "exceptionless"
        raise ValueError(
            f"class {class_name} is not covered by the {kind} characterisation"
        ) from None
