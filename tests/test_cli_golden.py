"""Golden digests of the command line: the sha256 of stdout and the exit
code of every documented example and of `bounds --threshold NAME` at each
threshold's least parameter values.  Any change to what a subcommand
prints or returns changes a digest here."""

import hashlib

import pytest

from forbpairs.cli import EXAMPLES, main
from forbpairs.ramsey import THRESHOLDS

# each named threshold at its least parameter values
LEAST_THRESHOLDS = {
    "bipartite_kK1K2": ["2"],
    "indep5": [],
    "multipartite_clique": ["1", "1"],
    "split_clique": ["3"],
    "omega_kK1K2_Z1": ["3"],
    "omega_kK1K2_D": ["3"],
    "omega_kK1_coK1K2": ["3", "2"],
    "peel_omega": ["3", "2"],
}

CASES = {
    **EXAMPLES,
    **{f"threshold {name}": ["bounds", "--threshold", name, *params]
       for name, params in LEAST_THRESHOLDS.items()},
}

# case -> (exit code, sha256 of stdout)
GOLDEN = {
    "expr": (0, "e90c57e60f7bd310e5e6416283bd2382cce021f37e42b739e24d39fc6206a034"),
    "check": (1, "25cab426b7be521f87dd508ab7ffd7651e127a0e1ababb18a15f5f3e47af3d1e"),
    "classify": (0, "ad7ed0c7654495dc845a43525773aa2bf9cf875c84ea03554b8de50cc74e0894"),
    "theorem": (0, "5d84914d6ca9e2efa76ab9e7ae63803f62fa7a7ecee06f10f599f8988035a958"),
    "verify": (0, "1f30741d3c0f38f361aef752c1ec717a3119e5d5725ee3f8f8ad0cea1abb75bc"),
    "hunt": (0, "986293a55c7f7e18ad5d513d8388cbcbe275c2d5a66e806062ec8abe5f0789f6"),
    "census": (0, "1631c7ee602e0862c41c6c1c8adee3b3314244ea08998466d0ea5e313d1961e2"),
    "catalog": (0, "3358507d3b709747e3d9f2afc62ed46b886ac4aee049ea3260ebdd309e1ec1a8"),
    "colour": (0, "a35321ecbea181e52d56261f98469e2990c09da301405abff4d221c38cb36b83"),
    "decompose": (0, "40c405afe94cdbe7dc01309f532cfe2717d0bc9cdc33308a0fca41fdeb689bd8"),
    "bounds": (0, "ec3a639b57a029c1b48b9f7ddaaba84c5f3848f02ceed7cfcf79efd744a162dc"),
    # = 17 (exact)
    "threshold bipartite_kK1K2": (
        0, "3d60cb43833542dd66dd0a0d5da10b487d23bab552024f7f629c6025e3a3ea33"),
    # = 14 (exact)
    "threshold indep5": (
        0, "fd8ec92f070a68efe4d0017978cd5303ecf162aa01cfee840b76e33522a0c81f"),
    # = 1 (exact)
    "threshold multipartite_clique": (
        0, "d5f5519bacf64db6e5cee4c357a49ffce3f96969a0b6c8b81bfe6218e3b1e8a7"),
    # = 38 (exact)
    "threshold split_clique": (
        0, "c41b9c1e6b4e52e913fbf9b0ff60d09bb8202ddfbbab584d8d170e687c457251"),
    # = 76 (exact)
    "threshold omega_kK1K2_Z1": (
        0, "773da96f964b894c4ceb4db395821b8504ccec045cab976b4771a6bfaea697ab"),
    # = 1141 (upper bound)
    "threshold omega_kK1K2_D": (
        0, "d2082c8c09868a7b9949f55b6951e38ca8a125127b255ddb7fdf1840fa77b0e7"),
    # = 144 (upper bound)
    "threshold omega_kK1_coK1K2": (
        0, "c207dfcfb13eb2885f914d582cb448140cbe47ef693fcef0b5d69c14acdc0586"),
    # = 9 (exact)
    "threshold peel_omega": (
        0, "545729a2e31075b04723410bfd5f2b673d66d91fabaa3151f0a673f8304eab0e"),
}


def test_every_case_has_a_digest():
    assert set(CASES) == set(GOLDEN)


def test_every_threshold_is_pinned_at_its_least_values():
    least = {name: [str(v) for v in params.values()] for name, params in THRESHOLDS.items()}
    assert least == LEAST_THRESHOLDS


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_golden(case, capsys):
    rc = main(list(CASES[case]))
    out = capsys.readouterr().out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[case], out
