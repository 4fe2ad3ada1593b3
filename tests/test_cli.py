import pytest

from forbpairs.cli import EXAMPLES, main
from forbpairs.ramsey import THRESHOLDS

# expected exit code for each documented example
EXPECTED_EXIT = {
    "expr": 0,
    "check": 1,  # C5 is imperfect, verdict-false exits 1
    "classify": 0,
    "theorem": 0,
    "verify": 0,
    "hunt": 0,
    "census": 0,
    "catalog": 0,
    "colour": 0,
    "decompose": 0,
    "bounds": 0,
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_documented_examples_run(name, capsys):
    rc = main(EXAMPLES[name][:])
    out = capsys.readouterr().out
    assert rc == EXPECTED_EXIT[name], out
    assert out.strip()


def test_check_perfect_output(capsys):
    rc = main(["check", "--expr", "C5", "--perfect"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.strip() == "imperfect; odd hole 0 1 2 3 4"
    rc = main(["check", "--expr", "C6", "--perfect"])
    assert rc == 0


def test_classify_output(capsys):
    main(["classify", "--pair", "K1,3", "P5"])
    out = capsys.readouterr().out
    assert "P2c: yes" in out and "P2: no" in out


def test_verify_output_and_exit(capsys):
    rc = main(["verify", "--pair", "2K1+K2", "D", "--class", "G5",
               "--property", "omega", "--nmax", "7"])
    out = capsys.readouterr().out
    assert rc == 0 and "all_hold" in out
    rc = main(["verify", "--pair", "2K1+K2", "D", "--class", "G5",
               "--property", "perfect", "--nmax", "7"])
    out = capsys.readouterr().out
    assert rc == 1 and "violated" in out
    assert "counterexample\t" in out


def test_theorem_output(capsys):
    rc = main(["theorem", "--class", "Gco", "--property", "omega", "--finite"])
    assert capsys.readouterr().out.strip() == "O3plus"
    assert rc == 0


def test_usage_errors(capsys):
    assert main(["verify", "--pair", "K3"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["expr", "K0"]) == 2
    assert main(["bounds", "--threshold", "bogus", "3"]) == 2
    capsys.readouterr()
    assert main(["expr", "K65"]) == 2  # refused by the parser, not by build
    assert capsys.readouterr().err.splitlines() == [
        "error: K65 exceeds the 64-vertex cap (at position 0)"
    ]


@pytest.mark.parametrize("argv", [
    ["verify", "--pair", "K1,3", "P5", "--class", "G5", "--property", "perfect",
     "--nmax", "13"],
    ["verify", "--pair", "K3", "4K1", "--class", "G5", "--property", "perfect",
     "--nmax", "11", "--full"],
    ["census", "--free", "2K1+K2", "D", "--nmax", "13"],
    ["catalog", "--nmax", "13"],
    ["check", "--graph6", "--expr", "~??~"],
    ["bounds", "--ramsey", "3", "4", "--table-override", "no/such/file.txt"],
    ["bounds", "--threshold", "bogus"],
    ["bounds", "--threshold", "indep5", "1", "2", "3", "4"],
    ["bounds", "--threshold", "split_clique", "3", "4"],
    ["bounds", "--threshold", "peel_omega", "x", "2"],
    ["bounds", "--ramsey", "5", "100000000"],
    ["bounds", "--threshold", "omega_kK1K2_D", "30"],
    ["census", "--free", "K3", "3K1", "--nmax", "4", "--threads", "-3"],
    ["verify", "--pair", "K1,3", "P5", "--class", "G5", "--property", "perfect",
     "--nmax", "5", "--threads", "0"],
    ["catalog", "--nmax", "5", "--threads", "0"],
    ["bounds", "--ramsey", "1500", "6642"],
    ["expr", "K63"],
    ["expr", "K64"],
])
def test_rejected_input_exits_two(argv, capsys):
    """Input beyond the limits fails at once, with one error line."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", sorted(THRESHOLDS))
def test_threshold_with_too_many_parameters_exits_two(name, capsys):
    argv = ["bounds", "--threshold", name, *["3"] * (len(THRESHOLDS[name]) + 1)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: threshold {name!r} takes ") and err.count("\n") == 1


def test_graph6_input(capsys):
    rc = main(["check", "--expr", "Dhc", "--graph6", "--perfect"])
    out = capsys.readouterr().out
    assert rc == 1 and "odd hole" in out


def test_decompose_blowup(capsys):
    rc = main(["decompose", "--expr", "C5", "--blowup"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "c5 0 1 2 3 4"
    assert "on_cycle" in out and "base graph6 Dhc" in out
    rc = main(["decompose", "--expr", "C6", "--blowup"])
    out = capsys.readouterr().out
    assert rc == 1 and "precondition failed" in out
    # a C5-free input is refused by one containment test, not a scan of
    # every 5-subset (about 7 million for K63)
    rc = main(["decompose", "--expr", "K63", "--blowup"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out == "precondition failed: graph contains no induced C5\n"


def test_colour_failure_exit(capsys):
    rc = main(["colour", "--expr", "K3,3,3,3", "--k", "3", "--l", "2"])
    out = capsys.readouterr().out
    assert rc == 1 and "precondition failed" in out


def test_bounds_output(capsys):
    main(["bounds", "--ramsey", "3", "4"])
    assert capsys.readouterr().out.strip() == "R(3,4) = 9 (exact)"
    main(["bounds", "--threshold", "peel_omega", "3", "2"])
    out = capsys.readouterr().out
    assert "= 9" in out and "exact" in out
    # arguments far beyond a recursion depth of the recurrence
    assert main(["bounds", "--ramsey", "3", "2000"]) == 0
    assert capsys.readouterr().out == "R(3,2000) = 2000995 (upper bound)\n"
    assert main(["bounds", "--threshold", "omega_kK1K2_D", "10"]) == 0
    assert capsys.readouterr().out.endswith(" (upper bound)\n")


def test_table_override(tmp_path, capsys):
    p = tmp_path / "t.txt"
    p.write_text("R(3,8)=28\n")
    main(["bounds", "--ramsey", "3", "8", "--table-override", str(p)])
    assert "28 (exact)" in capsys.readouterr().out


def test_output_stable_across_runs(capsys):
    argv = ["census", "--free", "2K1+K2", "D", "--predicate", "non-perfect",
            "--nmax", "7"]
    main(argv[:])
    first = capsys.readouterr().out
    main(argv[:])
    assert capsys.readouterr().out == first
