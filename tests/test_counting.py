import pytest

from suffixlab import cli, counting
from suffixlab.counting import (
    EnumerationBudgetError,
    aperiodic_prime_power,
    check_growth_bound,
    count_aperiodic,
    count_aperiodic_bruteforce,
    growth_bound,
    growth_bound_prefix_sum,
    growth_counts,
    growth_histogram,
    proper_divisors,
)
from suffixlab.experiments import growth_count_table
from suffixlab.strings import Alphabet, Str, enumerate_strings, is_aperiodic


def test_proper_divisors():
    assert proper_divisors(12) == [1, 2, 3, 4, 6]
    assert proper_divisors(7) == [1]
    assert proper_divisors(1) == []


@pytest.mark.parametrize("j,sigma,expected", [(1, 3, 3), (3, 3, 24), (8, 3, 6480)])
def test_count_aperiodic_values(j, sigma, expected):
    assert count_aperiodic(j, sigma) == expected


def test_count_aperiodic_length_two_binary():
    # direct enumeration of the four binary strings: only ab and ba qualify
    enumerated = sum(1 for t in enumerate_strings(2, 2) if is_aperiodic(Str(t, Alphabet(2))))
    assert enumerated == 2
    assert count_aperiodic(2, 2) == 2


def test_count_aperiodic_binary_row():
    assert [count_aperiodic(j, 2) for j in range(1, 9)] == [2, 2, 6, 12, 30, 54, 126, 240]


def test_count_aperiodic_validates_arguments():
    with pytest.raises(ValueError):
        count_aperiodic(0, 2)
    with pytest.raises(ValueError):
        count_aperiodic(3, 0)


@pytest.mark.parametrize(
    "p,t,sigma,expected",
    [(2, 2, 2, 12), (5, 1, 5, 3120), (3, 2, 2, 504)],
)
def test_prime_power_closed_form_values(p, t, sigma, expected):
    assert aperiodic_prime_power(p, t, sigma) == expected
    assert count_aperiodic(p**t, sigma) == expected


def test_prime_power_rejects_composite():
    with pytest.raises(ValueError, match="not prime"):
        aperiodic_prime_power(6, 1, 2)


@pytest.mark.parametrize("k,expected", [(1, 2), (2, 4), (3, 12)])
def test_growth_bound_small_binary(k, expected):
    assert growth_bound(k, 2) == expected


def test_growth_bound_needs_two_symbols():
    with pytest.raises(ValueError):
        growth_bound(3, 1)


def test_growth_bound_prefix_sums():
    assert growth_bound_prefix_sum(1, 2) == 2
    assert growth_bound_prefix_sum(3, 2) == 2 + 4 + 12
    for m, sigma in [(1, 2), (3, 2), (5, 3), (20, 5)]:
        assert growth_bound_prefix_sum(m, sigma) <= (m + 1) * sigma ** (m + 1)


@pytest.mark.parametrize("sigma", range(2, 7))
def test_aperiodic_count_bounds(sigma):
    for j in range(1, 21):
        mu = count_aperiodic(j, sigma)
        if j > 1:
            assert mu <= sigma**j - sigma
        assert mu >= sigma * (sigma - 1) ** (j - 1)


@pytest.mark.parametrize("sigma", range(2, 7))
def test_growth_bound_capped_by_k_sigma_k(sigma):
    for k in range(1, 21):
        assert growth_bound(k, sigma) <= k * sigma**k


def test_bruteforce_matches_recurrence_small():
    for sigma, j_max in ((1, 6), (2, 12), (3, 8), (5, 5)):
        for j in range(1, j_max + 1):
            assert count_aperiodic_bruteforce(j, sigma) == count_aperiodic(j, sigma)


def test_bruteforce_agrees_with_per_string_definition():
    # ties the enumeration loop to the Str-level periodicity test
    for sigma, j_max in ((1, 5), (2, 8), (3, 5)):
        for j in range(1, j_max + 1):
            alphabet = Alphabet(sigma)
            strings = (Str(t, alphabet) for t in enumerate_strings(j, sigma))
            by_definition = sum(1 for s in strings if is_aperiodic(s))
            assert count_aperiodic_bruteforce(j, sigma) == by_definition


@pytest.mark.parametrize("sigma", [0, -1])
def test_bruteforce_rejects_what_the_recurrence_rejects(sigma):
    # a budget below every sigma^j shows the alphabet is checked first
    with pytest.raises(ValueError) as brute:
        count_aperiodic_bruteforce(3, sigma, budget=-2)
    with pytest.raises(ValueError) as recurrence:
        count_aperiodic(3, sigma)
    assert str(brute.value) == str(recurrence.value)
    assert str(brute.value).startswith("alphabet size must be at least 1")


def test_bruteforce_budget():
    with pytest.raises(EnumerationBudgetError):
        count_aperiodic_bruteforce(30, 2, budget=1 << 20)


def test_growth_histogram_two_binary():
    assert growth_histogram(2, 2) == {1: 2, 2: 2}


@pytest.mark.parametrize("n,sigma", [(3, 2), (5, 2), (4, 3)])
def test_growth_histogram_partitions_all_strings(n, sigma):
    hist = growth_histogram(n, sigma)
    assert sum(hist.values()) == sigma**n
    assert all(k >= 1 for k in hist)


@pytest.mark.parametrize("sigma", [2, 3])
def test_growth_n_counts_strings_where_first_symbol_never_returns(sigma):
    for n in range(1, 11):
        hist = growth_histogram(n, sigma)
        assert hist[n] == sigma * (sigma - 1) ** (n - 1)


def test_growth_histogram_budget_error_reports_required():
    with pytest.raises(EnumerationBudgetError) as err:
        growth_histogram(30, 2)
    assert err.value.required == 2**30


@pytest.mark.parametrize("sigma,n_max", [(1, 6), (2, 14), (3, 9), (4, 7), (5, 5)])
def test_growth_counts_equal_enumeration(sigma, n_max):
    for n in range(1, n_max + 1):
        assert growth_counts(n, sigma) == growth_histogram(n, sigma), (sigma, n)


@pytest.mark.parametrize("n,sigma", [(0, 2), (-3, 2), (4, 0)])
def test_growth_counts_rejects_what_enumeration_rejects(n, sigma):
    with pytest.raises(ValueError) as enumerated:
        growth_histogram(n, sigma)
    with pytest.raises(ValueError) as counted:
        growth_counts(n, sigma)
    assert str(counted.value) == str(enumerated.value)


def test_growth_counts_budget_error_reports_required():
    with pytest.raises(EnumerationBudgetError) as err:
        growth_counts(30, 2)
    assert err.value.required == 2**30
    assert err.value.budget == counting.DEFAULT_BUDGET


@pytest.mark.parametrize("sigma,n_max", [(2, 24), (3, 12)])
def test_growth_counts_partition_and_top_count_beyond_enumeration(sigma, n_max):
    for n in range(1, n_max + 1):
        hist = growth_counts(n, sigma)
        assert sorted(hist) == list(range(1, n + 1))
        assert sum(hist.values()) == sigma**n
        assert hist[n] == sigma * (sigma - 1) ** (n - 1)


def test_growth_count_table_and_omega_enumerate_nothing(monkeypatch, capsys):
    rows = growth_count_table(12, 2)
    assert cli.main(["omega", "--sigma", "2", "--n", "12"]) == 0
    printed = capsys.readouterr().out
    assert [row.count for row in rows] == [growth_histogram(12, 2)[k] for k in range(1, 13)]

    def no_enumeration(symbols):
        raise AssertionError("omega must not enumerate strings")

    monkeypatch.setattr(counting, "growth_of_digits", no_enumeration)
    assert growth_count_table(12, 2) == rows
    assert cli.main(["omega", "--sigma", "2", "--n", "12"]) == 0
    assert capsys.readouterr().out == printed


def test_check_growth_bound_report():
    report = check_growth_bound(2, k_max=4, n_max=10)
    assert report.ok
    assert not report.partition_failures
    # rows exist exactly for 2k <= n
    assert all(row.n >= 2 * row.k for row in report.rows)
    assert any(row.count == row.bound for row in report.rows)  # k=1 is tight
    assert not report.route_failures


def test_check_growth_bound_reports_a_counting_route_that_disagrees(monkeypatch):
    real = counting.growth_counts

    def off_by_one_at_7(n, sigma, budget=counting.DEFAULT_BUDGET):
        hist = real(n, sigma, budget=budget)
        if n == 7:
            hist[1] += 1
        return hist

    monkeypatch.setattr(counting, "growth_counts", off_by_one_at_7)
    report = check_growth_bound(2, k_max=3, n_max=9)
    assert report.route_failures == [7]
    assert not report.partition_failures and not report.violations
    assert not report.ok


def test_reference_table_mismatches_are_all_documented():
    discrepancies = counting.reference_table_discrepancies()
    assert len(discrepancies) == 8
    assert all(d.known for d in discrepancies)
    assert {d.errata for d in discrepancies} == set(counting.KNOWN_ERRATA)
    by_cell = {(d.sigma, d.j): d for d in discrepancies}
    assert by_cell[(3, 8)].published == 648
    assert by_cell[(3, 8)].computed == 6480


def test_exact_arithmetic_at_large_sizes():
    # sigma^j overflows 64-bit machine words well before j = 60
    value = count_aperiodic(60, 5)
    assert value == 5**60 - 5**30 - 5**20 - 5**12 + 5**10 + 5**6 + 5**4 - 5**2
