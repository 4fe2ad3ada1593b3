"""Golden record of the pair classifier.

The membership vector of every unordered pair drawn from a fixed pool of
graphs is compared with counts and a digest recorded from the original
case-by-case transcription of the collection definitions, so any rewrite
of the classifier must reproduce it exactly.  The pool is every graph on
1-5 vertices, the parametric families kK1, K_l, kK1 u K2 and co(kK1 u K2)
on 6-9 vertices, and the induced subgraphs of co(K3 u P4) on 6-7 vertices.
"""

import hashlib
import itertools

import pytest

from forbpairs import catalog
from forbpairs.canon import canonical_form
from forbpairs.graph6 import encode_graph6
from forbpairs.graphs import complement, relabel
from forbpairs.harness import generate_upto
from forbpairs.induced import induced_closure
from forbpairs.pairs import COLLECTIONS, PairSpec, classify_pair, in_collection

GOLDEN_COUNTS = {
    "P1": 425, "O1": 426, "P2": 499, "P2c": 501, "P3": 429,
    "P4": 507, "O2": 501, "O2c": 503, "O3": 430, "O4": 509,
    "P1plus": 484, "P1cplus": 495, "P2plus": 547, "P2cplus": 560, "P3plus": 501,
    "P4plus": 568, "O1plus": 536, "O1cplus": 536, "O2plus": 600, "O2cplus": 602,
    "O3plus": 542, "O4plus": 610, "I": 72, "R": 42, "A_P": 48,
    "A_1": 11, "A_c": 11, "A_3": 2, "A_Omega": 100,
}

GOLDEN_SHA256 = (
    "8d014b37a7e5a209965738a8f881da7997a28775f2688e0f6f0fb54a26a79cfe"
)


def _pool():
    graphs = list(generate_upto(5))
    for n in range(6, 10):
        graphs += [
            catalog.empty_graph(n),
            catalog.complete(n),
            catalog.k_k1_plus_k2(n - 2),
            complement(catalog.k_k1_plus_k2(n - 2)),
        ]
    closure = induced_closure(catalog.co_k3_p4())
    graphs += [g for n in (6, 7) for g in closure[n]]
    return [relabel(g, canonical_form(g)[1]) for g in graphs]


def _listing():
    pool = [(encode_graph6(g), g) for g in _pool()]
    lines = []
    for (sx, x), (sy, y) in itertools.combinations_with_replacement(pool, 2):
        vec = classify_pair(PairSpec(x, y))
        lines.append((sx, sy, vec))
    return lines


def test_classify_pair_golden():
    lines = _listing()
    counts = {name: sum(vec[name] for _, _, vec in lines) for name in COLLECTIONS}
    text = "".join(
        f"{sx} {sy} {''.join('1' if vec[c] else '0' for c in COLLECTIONS)}\n"
        for sx, sy, vec in lines
    )
    assert len(lines) == 2628
    assert tuple(GOLDEN_COUNTS) == COLLECTIONS
    assert counts == GOLDEN_COUNTS
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256


def test_unknown_collection_rejected():
    pair = PairSpec(catalog.claw(), catalog.path(5))
    with pytest.raises(ValueError):
        in_collection(pair, "bogus")
