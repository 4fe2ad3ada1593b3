"""Golden record of report text.

Each report's `to_text()` is compared, byte for byte through its sha256,
with a digest recorded before orbit pruning and the child cache entered
generation, so any change to how levels are built must leave the reports
exactly as they were.  The reports are the c04 census, the two c05
censuses, the four c07 spot checks and one verify with certificates, all
at n <= 8.
"""

import hashlib

import pytest

from forbpairs.expr import graph_from_expr as G
from forbpairs.harness import census, verify_universal
from forbpairs.pairs import NAMED_CLASSES, PairSpec

CENSUSES = {
    "c04": (("2K1+K2", "D"), ["non-perfect"]),
    "c05-13": (("3K1", "K4"), ["connected", "not-omega-colourable", "not-odd-cycle"]),
    "c05-14": (("4K1", "K3"), ["alpha=3", "not-omega-colourable", "not-odd-cycle"]),
}

VERIFIES = {
    "c07-claw-p5": (("K1,3", "P5"), "Gcalpha", "perfect"),
    "c07-claw-z2": (("K1,3", "Z2"), "Gcoalpha", "perfect"),
    "c07-chair-z1": (("chair", "Z1"), "Gco", "perfect"),
    "c07-co-k1p4": (("2K1+K2", "co(K1+P4)"), "Goalpha", "omega"),
    "g5-perfect": (("2K1+K2", "D"), "G5", "perfect"),
}

GOLDEN_SHA256 = {
    "c04": (
        "bea77a67ac8327cab865316fb61ba84bba8a33f38710acf403a7440011d72847"
    ),
    "c05-13": (
        "4032b8dd75c30353d5c1742ca77d62911cc646b4b01d9c8ce4d9e9a609b2d495"
    ),
    "c05-14": (
        "da53c13c9a06b70ee905de9f735656e57776042b5b8ac16273d677a83241f6bb"
    ),
    "c07-claw-p5": (
        "e899ece3c0ed012bd694c2d1636f14867ab567124497203d8af4fe8ac6be3af9"
    ),
    "c07-claw-z2": (
        "ccd3b3d7b4eb51643a3b4e4eec16afc9999b8a239d5ace9535757fe571161f76"
    ),
    "c07-chair-z1": (
        "fdd805983117c6b5d4f4047a6d477feae19d6cafab0adfb62c118b2c29de3881"
    ),
    "c07-co-k1p4": (
        "44677d8fb1662882d86af770f1f6b659210dd10c26232f77f222788e1b1ccb75"
    ),
    "g5-perfect": (
        "5217310b686e172122777d68efcaf4d5052ad616f892e71f35af1ad9de9e30ae"
    ),
}


def _text(name: str) -> str:
    if name in CENSUSES:
        pair, predicates = CENSUSES[name]
        return census([G(s) for s in pair], predicates, 8).to_text()
    (a, b), cls, prop = VERIFIES[name]
    return verify_universal(
        PairSpec(G(a), G(b)), NAMED_CLASSES[cls], prop, 8, class_name=cls
    ).to_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_report_text_matches_golden(name):
    digest = hashlib.sha256(_text(name).encode()).hexdigest()
    assert digest == GOLDEN_SHA256[name], name
