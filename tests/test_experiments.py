import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from suffixlab import cli, counting, trees
from suffixlab.experiments import (
    CHECKS,
    exact_expected_growth,
    exact_expected_size,
    expected_growth,
    expected_size,
    growth_count_table,
    new_rng,
    random_string,
    run_verification,
)
from suffixlab.strings import Alphabet, Str, enumerate_strings


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_random_string_is_seed_deterministic():
    assert random_string(5, 2, new_rng(42)) == random_string(5, 2, new_rng(42))
    assert random_string(40, 4, new_rng(7)) == random_string(40, 4, new_rng(7))


def test_random_string_rejects_empty():
    with pytest.raises(ValueError):
        random_string(0, 2, new_rng(1))


def test_random_string_symbol_frequencies():
    rng = new_rng(7)
    samples = 100_000
    counts = dict.fromkeys(range(1, 5), 0)
    for _ in range(samples):
        counts[random_string(1, 4, rng).symbols[0]] += 1
    sd = math.sqrt(samples * 0.25 * 0.75)
    for sym, count in counts.items():
        assert abs(count - samples / 4) <= 4 * sd, (sym, count)


def test_functions_refuse_the_values_they_read():
    cases = [
        (lambda: growth_count_table(4, 1), "experiments need sigma >= 2, got 1"),
        (lambda: expected_growth(4, 1), "experiments need sigma >= 2, got 1"),
        (lambda: expected_size((4,), 1), "experiments need sigma >= 2, got 1"),
        (lambda: expected_growth(4, 2, mode="sometimes"), "unknown mode 'sometimes'"),
        (lambda: expected_size((4,), 2, mode="sometimes"), "unknown mode 'sometimes'"),
        (lambda: expected_growth(4, 2, samples=0), "montecarlo mode needs at least one sample"),
        (lambda: expected_size((4,), 2, samples=0), "montecarlo mode needs at least one sample"),
        (lambda: exact_expected_size(0, 2), "length must be at least 1, got 0"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()


# ---------------------------------------------------------------------------
# expected growth
# ---------------------------------------------------------------------------


def test_exact_expected_growth_equals_enumerated_mean():
    for sigma, n_max in ((2, 12), (3, 7)):
        for n in range(1, n_max + 1):
            hist = counting.growth_histogram(n, sigma)
            expected = Fraction(sum(k * c for k, c in hist.items()), sigma**n)
            assert exact_expected_growth(n, sigma) == expected, (sigma, n)


def test_exact_expected_growth_tiny():
    # the four binary strings of length 2 have growths 1, 2, 2, 1
    assert exact_expected_growth(2, 2) == Fraction(3, 2)
    assert exact_expected_growth(1, 2) == 1


def test_expected_growth_exhaustive_row():
    (row,) = expected_growth(2, 2, mode="exhaustive")
    assert row.mean == 1.5
    assert row.mean_exact == Fraction(3, 2)
    assert row.stderr == 0.0
    assert row.samples == 4


def test_expected_growth_montecarlo_has_both_regimes():
    rows = expected_growth(12, 2, samples=50, seed=5)
    assert [row.regime for row in rows] == ["uniform", "prefix"]
    for row in rows:
        assert 1 <= row.mean <= 12
        assert row.stderr > 0


def test_montecarlo_matches_exhaustive_within_three_stderr():
    exact = float(exact_expected_growth(10, 2))
    for row in expected_growth(10, 2, samples=100_000, seed=20240):
        assert abs(row.mean - exact) <= 3 * row.stderr, (row.regime, row.mean, exact)


def test_expected_growth_single_symbol_string():
    rows = expected_growth(1, 2, samples=10, seed=1)
    assert all(row.mean == 1.0 for row in rows)


# ---------------------------------------------------------------------------
# expected size
# ---------------------------------------------------------------------------


def expected_size_by_enumeration(n, sigma):
    """Oracle: the mean of simple_tree_size over every length-n string."""
    alphabet = Alphabet(sigma)
    total = sum(trees.simple_tree_size(Str(t, alphabet)) for t in enumerate_strings(n, sigma))
    return Fraction(total, sigma**n)


@pytest.mark.parametrize("sigma,n_max", [(2, 12), (3, 7)])
def test_exact_expected_size_equals_per_string_sum(sigma, n_max):
    for n in range(1, n_max + 1):
        assert exact_expected_size(n, sigma) == expected_size_by_enumeration(n, sigma), (sigma, n)


def test_exact_expected_size_budget_error():
    with pytest.raises(counting.EnumerationBudgetError) as err:
        exact_expected_size(30, 2)
    assert err.value.required == 2**30


def test_exact_expected_size_tiny():
    # trees of aa, ab, ba, bb have 5, 6, 6, 5 nodes
    assert exact_expected_size(2, 2) == Fraction(11, 2)


def test_expected_size_exhaustive_row():
    (row,) = expected_size((2,), 2, mode="exhaustive")
    assert row.mean == 5.5
    assert row.mean_exact == Fraction(11, 2)
    assert row.mean_over_n2 == 5.5 / 4


def test_expected_size_montecarlo_rows():
    rows = expected_size((8, 16), 2, samples=30, seed=9)
    assert [row.n for row in rows] == [8, 16]
    for row in rows:
        assert row.mean > row.n  # more nodes than leaves
        assert row.mean_over_n2 == row.mean / row.n**2


@pytest.mark.parametrize("mode", ["montecarlo", "exhaustive"])
def test_expected_size_builds_no_tree(mode, monkeypatch):
    expected = expected_size((4, 6), 2, mode=mode, samples=30, seed=5)

    def no_tree(s):
        raise AssertionError("expected_size must not build the simple tree")

    monkeypatch.setattr(trees, "build_suffix_tree", no_tree)
    assert expected_size((4, 6), 2, mode=mode, samples=30, seed=5) == expected


def test_expected_size_requires_ascending_lengths():
    with pytest.raises(ValueError, match="ascending"):
        expected_size((16, 8), 2, samples=5)


# ---------------------------------------------------------------------------
# growth-count table
# ---------------------------------------------------------------------------


def test_growth_count_table_n2():
    rows = growth_count_table(2, 2)
    assert [(row.k, row.count) for row in rows] == [(1, 2), (2, 2)]


def test_growth_count_table_partitions():
    rows = growth_count_table(4, 2)
    assert sum(row.count for row in rows) == 16
    assert all(row.holds for row in rows if row.n_ge_2k)


def test_growth_count_table_budget_error():
    with pytest.raises(counting.EnumerationBudgetError):
        growth_count_table(30, 2)


# ---------------------------------------------------------------------------
# n-list parsing
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(), min_size=1))
def test_n_list_text_parses_back(values):
    assert cli._parse_n_list(",".join(map(str, values))) == tuple(values)


# ---------------------------------------------------------------------------
# verification sweep
# ---------------------------------------------------------------------------


def test_verification_detects_a_tampered_bound(monkeypatch):
    real = counting.growth_bound
    monkeypatch.setattr(counting, "growth_bound", lambda k, sigma: real(k, sigma) - 1)
    report = run_verification()
    assert [c.name for c in report.checks] == [check.name for check in CHECKS]
    assert not report.ok
    failed = {c.name for c in report.checks if not c.ok}
    assert "growth-count-bound" in failed


def test_verification_detects_a_wrong_counting_route(monkeypatch):
    real = counting.growth_counts

    def shifted(n, sigma, budget=counting.DEFAULT_BUDGET):
        hist = real(n, sigma, budget=budget)
        hist[n] -= 1
        hist[1] += 1
        return hist

    monkeypatch.setattr(counting, "growth_counts", shifted)
    report = run_verification()
    failed = [c for c in report.checks if not c.ok]
    assert [c.name for c in failed] == ["growth-count-bound"]
    assert "route failures: [(2, 2)" in failed[0].detail


def test_verification_detects_a_wrong_compact_tree(monkeypatch):
    real = trees.build_compact_tree

    def shifted(s):
        tree = real(s)
        lo, hi = tree.interval[-1]
        tree.interval[-1] = (lo, hi + 1)
        return tree

    monkeypatch.setattr(trees, "build_compact_tree", shifted)
    report = run_verification()
    failed = [c.name for c in report.checks if not c.ok]
    assert failed == ["reference-trees", "tree-identities", "search-vs-scan"]
