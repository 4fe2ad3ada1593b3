import pytest

from forbpairs import catalog
from forbpairs.graphs import independence_number, max_clique
from forbpairs.induced import contains_induced, is_free
from forbpairs.ramsey import (
    THRESHOLDS,
    BoundValue,
    RamseyTable,
    load_overrides,
    ramsey,
    threshold,
    witness,
)


def test_rule_values():
    assert ramsey(1, 9) == BoundValue(1, True)
    assert ramsey(2, 7) == BoundValue(7, True)
    assert ramsey(7, 2).value == 7
    with pytest.raises(ValueError):
        ramsey(0, 3)


def test_exact_table_and_symmetry():
    for (k, l), v in [((3, 3), 6), ((3, 4), 9), ((3, 5), 14), ((3, 6), 18),
                      ((3, 7), 23), ((4, 4), 18)]:
        assert ramsey(k, l) == BoundValue(v, True)
        assert ramsey(l, k) == BoundValue(v, True)


def test_recurrence_upper_bounds():
    bv = ramsey(4, 5)
    assert not bv.exact
    assert bv.value <= ramsey(3, 5).value + ramsey(4, 4).value
    # monotone in each argument over a small grid
    for k in range(2, 6):
        for l in range(2, 6):
            assert ramsey(k + 1, l).value >= ramsey(k, l).value
            assert ramsey(k, l + 1).value >= ramsey(k, l).value


def test_table_equals_the_recursive_definition():
    """The bottom-up table gives the values and exactness flags of the
    recurrence, evaluated top-down, for k, l <= 12, with and without
    overrides."""
    from forbpairs.ramsey import _EXACT_TABLE

    for overrides in ({}, {(3, 8): 28, (4, 5): 25, (5, 5): 43, (4, 9): 100}):
        entries = {**_EXACT_TABLE, **overrides}
        memo = {}

        def defined(k, l):
            k, l = min(k, l), max(k, l)
            if k == 1:
                return BoundValue(1, True)
            if k == 2:
                return BoundValue(l, True)
            if (k, l) in entries:
                return BoundValue(entries[(k, l)], True)
            if (k, l) not in memo:
                up = defined(k - 1, l).value + defined(k, l - 1).value
                memo[(k, l)] = BoundValue(up, False)
            return memo[(k, l)]

        table = RamseyTable(overrides)
        for k in range(1, 13):
            for l in range(1, 13):
                assert table.value(k, l) == defined(k, l), (overrides, k, l)


def test_long_narrow_tables_are_refused_at_once():
    # 10^7 cells, one a row: bounded by rows as well as cells
    with pytest.raises(ValueError, match="more than"):
        ramsey(3, 10**7 + 2)


def test_mid_width_tables_are_refused_at_once():
    """The bit length of the entries counts.  value(2200, 4000) has 6.4M
    rows and cells, under `MAX_CELLS`, but its long entries make it take
    3.1 s against 1.6 s for value(3002, 3002) (2 vCPUs).  It is refused
    before any work, like value(1500, 6642) (3.2 s); value(3002, 3002) is
    not."""
    import time

    from forbpairs.ramsey import MAX_CELLS, _work

    for k, l in [(2200, 4000), (1500, 6642)]:
        start = time.process_time()
        with pytest.raises(ValueError, match="more than"):
            ramsey(k, l)
        assert time.process_time() - start < 0.5
    assert _work(3002, 3002) <= MAX_CELLS


def test_witnesses_are_certificates():
    for k, l in [(3, 3), (3, 4), (3, 5), (3, 6), (4, 4)]:
        w = witness(k, l)
        assert w is not None and w.n == ramsey(k, l).value - 1
        assert independence_number(w) < k
        assert max_clique(w) < l
    assert witness(3, 7) is None  # its smallest witness exceeds 17 vertices


def test_ramsey_semantics_small():
    """Every graph on >= R(k,l) vertices contains kK1 or K_l (n <= 8 here)."""
    from forbpairs.harness import generate_graphs

    checks = [(2, l) for l in range(2, 9)] + [(3, 3)]
    for k, l in checks:
        r = ramsey(k, l).value
        pats = [catalog.empty_graph(k), catalog.complete(l)]
        for n in range(r, 9):
            assert generate_graphs(n, pats) == []
        # and a witness exists just below the threshold
        assert any(is_free(g, pats) for g in generate_graphs(r - 1))


def test_threshold_values():
    assert threshold("bipartite_kK1K2", k=3) == BoundValue(39, True)
    assert threshold("multipartite_clique", k=3, l=4) == BoundValue(7, True)
    assert threshold("peel_omega", k=3, l=2) == BoundValue(9, True)
    assert threshold("indep5") == BoundValue(14, True)
    assert threshold("omega_kK1K2_Z1", k=3) == BoundValue(76, True)
    # the M/N split corollary: n'(k-2) - 2k + 5 with n' = bipartite threshold
    assert threshold("split_clique", k=3).value == 39 * 1 - 6 + 5
    assert not threshold("omega_kK1K2_D", k=3).exact
    assert not threshold("omega_kK1_coK1K2", k=3, l=2).exact


def test_threshold_ranges():
    """Every threshold accepts its least parameter values and refuses each
    parameter one below its least value, or missing."""
    assert len(THRESHOLDS) == 8
    for name, least in THRESHOLDS.items():
        assert threshold(name, **least).value >= 1
        for p in least:
            for below in ({**least, p: least[p] - 1}, {**least, p: None}):
                with pytest.raises(ValueError, match=f"threshold {name!r}: .* required"):
                    threshold(name, **below)
    with pytest.raises(ValueError, match="unknown threshold"):
        threshold("nonsense", k=3)


def test_threshold_monotone():
    for name, kws in [
        ("bipartite_kK1K2", [dict(k=k) for k in range(2, 8)]),
        ("omega_kK1K2_Z1", [dict(k=k) for k in range(3, 8)]),
        ("omega_kK1K2_D", [dict(k=k) for k in range(3, 7)]),
        ("peel_omega", [dict(k=3, l=l) for l in range(2, 6)]),
        ("peel_omega", [dict(k=k, l=2) for k in range(3, 7)]),
    ]:
        values = [threshold(name, **kw).value for kw in kws]
        assert values == sorted(values), name


def test_override_file(tmp_path):
    p = tmp_path / "table.txt"
    p.write_text("# experimentation\nR(3,8)=28\nR(4,5)=25\n")
    table = load_overrides(p)
    assert table.value(3, 8) == BoundValue(28, True)
    assert table.value(4, 5) == BoundValue(25, True)
    assert ramsey(3, 8).exact is False  # default table untouched
    p.write_text("R(2,9)=9\n")
    with pytest.raises(ValueError):
        load_overrides(p)
    p.write_text("bogus line\n")
    with pytest.raises(ValueError, match="line 1"):
        load_overrides(p)


def test_custom_table_feeds_thresholds():
    table = RamseyTable({(3, 6): 18})
    assert threshold("peel_omega", k=3, l=3, table=table) == BoundValue(24, True)
