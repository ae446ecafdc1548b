import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from suffixlab import cli, counting, trees
from suffixlab.experiments import (
    CountRow,
    ExpectationRow,
    ExperimentConfig,
    GrowthCountRow,
    SizeRow,
    exact_expected_growth,
    exact_expected_size,
    expected_growth,
    expected_size,
    growth_count_table,
    new_rng,
    random_string,
    rows_from_csv,
    rows_from_json,
    rows_to_csv,
    rows_to_json,
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
        counts[random_string(1, 4, rng).at(1)] += 1
    sd = math.sqrt(samples * 0.25 * 0.75)
    for sym, count in counts.items():
        assert abs(count - samples / 4) <= 4 * sd, (sym, count)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(sigma=1).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(mode="sometimes").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(samples=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(workers=0).validate()


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
    config = ExperimentConfig(sigma=2, n=2, mode="exhaustive")
    (row,) = expected_growth(config)
    assert row.mean == 1.5
    assert row.mean_exact == Fraction(3, 2)
    assert row.stderr == 0.0
    assert row.samples == 4


def test_expected_growth_montecarlo_has_both_regimes():
    config = ExperimentConfig(sigma=2, n=12, samples=50, seed=5)
    rows = expected_growth(config)
    assert [row.regime for row in rows] == ["uniform", "prefix"]
    for row in rows:
        assert 1 <= row.mean <= 12
        assert row.stderr > 0


def test_montecarlo_matches_exhaustive_within_three_stderr():
    exact = float(exact_expected_growth(10, 2))
    config = ExperimentConfig(sigma=2, n=10, samples=100_000, seed=20240)
    for row in expected_growth(config):
        assert abs(row.mean - exact) <= 3 * row.stderr, (row.regime, row.mean, exact)


def test_expected_growth_single_symbol_string():
    config = ExperimentConfig(sigma=2, n=1, samples=10, seed=1)
    rows = expected_growth(config)
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
    config = ExperimentConfig(sigma=2, n_list=(2,), mode="exhaustive")
    (row,) = expected_size(config)
    assert row.mean == 5.5
    assert row.mean_exact == Fraction(11, 2)
    assert row.mean_over_n2 == 5.5 / 4


def test_expected_size_montecarlo_rows():
    config = ExperimentConfig(sigma=2, n_list=(8, 16), samples=30, seed=9)
    rows = expected_size(config)
    assert [row.n for row in rows] == [8, 16]
    for row in rows:
        assert row.mean > row.n  # more nodes than leaves
        assert row.mean_over_n2 == row.mean / row.n**2


@pytest.mark.parametrize("mode", ["montecarlo", "exhaustive"])
def test_expected_size_builds_no_tree(mode, monkeypatch):
    config = ExperimentConfig(sigma=2, n_list=(4, 6), samples=30, seed=5, mode=mode)
    expected = expected_size(config)

    def no_tree(s):
        raise AssertionError("expected_size must not build the simple tree")

    monkeypatch.setattr(trees, "build_suffix_tree", no_tree)
    assert expected_size(config) == expected


def test_expected_size_requires_ascending_lengths():
    config = ExperimentConfig(sigma=2, n_list=(16, 8), samples=5)
    with pytest.raises(ValueError):
        expected_size(config)


# ---------------------------------------------------------------------------
# growth-count table
# ---------------------------------------------------------------------------


def test_growth_count_table_n2():
    rows = growth_count_table(ExperimentConfig(sigma=2, n=2))
    assert [(row.k, row.count) for row in rows] == [(1, 2), (2, 2)]


def test_growth_count_table_partitions():
    rows = growth_count_table(ExperimentConfig(sigma=2, n=4))
    assert sum(row.count for row in rows) == 16
    assert all(row.holds for row in rows if row.n_ge_2k)


def test_growth_count_table_budget_error():
    with pytest.raises(counting.EnumerationBudgetError):
        growth_count_table(ExperimentConfig(sigma=2, n=30))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


# fields not named here are drawn from their annotations (int, bool)
finite = st.floats(allow_nan=False, allow_infinity=False)
exact = st.none() | st.fractions()
modes = st.sampled_from(["montecarlo", "exhaustive"])
regimes = st.sampled_from(["uniform", "prefix"])
count_rows = st.builds(CountRow, j_or_n=st.none() | st.integers(), k=st.none() | st.integers())
growth_count_rows = st.builds(GrowthCountRow)
expectation_rows = st.builds(
    ExpectationRow, mode=modes, regime=regimes, mean=finite, stderr=finite, mean_exact=exact
)
size_rows = st.builds(
    SizeRow, mode=modes, mean=finite, stderr=finite, mean_over_n2=finite, mean_exact=exact
)


def assert_roundtrip(row_type, rows):
    assert rows_from_csv(row_type, rows_to_csv(row_type, rows)) == rows
    assert rows_from_json(row_type, rows_to_json(row_type, rows)) == rows


@given(st.lists(count_rows))
def test_count_rows_roundtrip(rows):
    assert_roundtrip(CountRow, rows)
    wrapped = rows_to_json(CountRow, rows, kind="aperiodic", sigma=2)
    assert rows_from_json(CountRow, wrapped) == rows


@given(st.lists(growth_count_rows))
def test_growth_count_rows_roundtrip(rows):
    assert_roundtrip(GrowthCountRow, rows)


@given(st.lists(expectation_rows))
def test_expectation_rows_roundtrip(rows):
    assert_roundtrip(ExpectationRow, rows)


@given(st.lists(size_rows))
def test_size_rows_roundtrip(rows):
    assert_roundtrip(SizeRow, rows)


@given(st.lists(st.integers(), min_size=1))
def test_n_list_text_parses_back(values):
    assert cli._parse_n_list(",".join(map(str, values))) == tuple(values)


def test_csv_rejects_wrong_header():
    with pytest.raises(ValueError):
        rows_from_csv(SizeRow, "nope\n1,2\n")


def test_seeded_runs_emit_identical_csv():
    def emit():
        rows = expected_growth(ExperimentConfig(sigma=2, n=24, samples=40, seed=77))
        return rows_to_csv(ExpectationRow, rows)

    assert emit() == emit()


# ---------------------------------------------------------------------------
# verification sweep
# ---------------------------------------------------------------------------


def test_verification_passes():
    report = run_verification()
    assert report.ok, [c.line() for c in report.checks if not c.ok]
    assert len(report.checks) == 10


def test_verification_detects_a_tampered_bound(monkeypatch):
    real = counting.growth_bound
    monkeypatch.setattr(counting, "growth_bound", lambda k, sigma: real(k, sigma) - 1)
    report = run_verification()
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
