from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffixlab import cli, counting
from suffixlab.counting import (
    EnumerationBudgetError,
    aperiodic_prime_power,
    check_growth_bound,
    count_aperiodic,
    count_aperiodic_bruteforce,
    growth_bound,
    growth_bound_prefix_sum,
    growth_bounds,
    growth_counts,
    growth_counts_up_to,
    growth_histogram,
    period_set_populations,
    proper_divisors,
)
from suffixlab.experiments import growth_count_table
from suffixlab.strings import Alphabet, Str, enumerate_strings

from conftest import is_aperiodic


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


@pytest.mark.parametrize("sigma", range(2, 6))
def test_growth_bounds_table_equals_the_definition(sigma):
    assert growth_bounds(60, sigma) == [growth_bound(k, sigma) for k in range(1, 61)]
    assert growth_bounds(0, sigma) == []


def test_growth_bounds_need_two_symbols():
    with pytest.raises(ValueError, match="at least 2, got 1"):
        growth_bounds(3, 1)


def test_growth_bound_prefix_sums():
    assert growth_bound_prefix_sum(1, 2) == 2
    assert growth_bound_prefix_sum(3, 2) == 2 + 4 + 12
    for m, sigma in [(1, 2), (3, 2), (5, 3), (20, 5)]:
        assert growth_bound_prefix_sum(m, sigma) <= (m + 1) * sigma ** (m + 1)
    # the sum of the table equals the sum of the per-k definition
    for sigma in range(2, 6):
        for m in range(1, 21):
            assert growth_bound_prefix_sum(m, sigma) == sum(growth_bound(k, sigma) for k in range(1, m + 1))


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
def test_bruteforce_rejects_what_the_recurrence_rejects(sigma, monkeypatch):
    # a budget below every sigma^j shows the alphabet is checked first
    monkeypatch.setattr(counting, "DEFAULT_BUDGET", -2)
    with pytest.raises(ValueError) as brute:
        count_aperiodic_bruteforce(3, sigma)
    with pytest.raises(ValueError) as recurrence:
        count_aperiodic(3, sigma)
    assert str(brute.value) == str(recurrence.value)
    assert str(brute.value).startswith("alphabet size must be at least 1")


def test_bruteforce_budget():
    with pytest.raises(EnumerationBudgetError):
        count_aperiodic_bruteforce(30, 2)


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
        hist = growth_histogram(n, sigma)
        assert growth_counts(n, sigma) == hist, (sigma, n)
        # the enumeration assumes nothing about the bound, which is exact for 2k <= n
        if sigma >= 2:
            for k in range(1, n // 2 + 1):
                assert hist[k] == growth_bound(k, sigma), (sigma, n, k)


def test_one_symbol_has_growth_one_at_every_length():
    counts = growth_counts_up_to(counting.MAX_EXACT_N, 1)
    for n in range(1, counting.MAX_EXACT_N + 1):
        assert counts[n] == {k: int(k == 1) for k in range(1, n + 1)}, n


@pytest.mark.parametrize("n,sigma", [(0, 2), (-3, 2), (4, 0)])
def test_growth_counts_rejects_what_enumeration_rejects(n, sigma):
    with pytest.raises(ValueError) as enumerated:
        growth_histogram(n, sigma)
    with pytest.raises(ValueError) as counted:
        growth_counts(n, sigma)
    assert str(counted.value) == str(enumerated.value)


def test_growth_counts_budget_error_reports_required():
    # the cap is on n alone: n = MAX_EXACT_N + 1 is refused at every sigma,
    # and below the cap a sigma^n far above the enumeration budget is answered
    n = counting.MAX_EXACT_N
    for sigma in (2, 26):
        with pytest.raises(ValueError, match=f"^exact counts reach n = {n}, got n = {n + 1}$"):
            growth_counts(n + 1, sigma)
    assert sum(growth_counts(30, 2).values()) == 2**30


@pytest.mark.parametrize("sigma,n_max", [(2, 24), (3, 12)])
def test_growth_counts_partition_and_top_count_beyond_enumeration(sigma, n_max):
    for n in range(1, n_max + 1):
        hist = growth_counts(n, sigma)
        assert sorted(hist) == list(range(1, n + 1))
        assert sum(hist.values()) == sigma**n
        assert hist[n] == sigma * (sigma - 1) ** (n - 1)


# ---------------------------------------------------------------------------
# Period-set populations, and the subset oracle they replaced
# ---------------------------------------------------------------------------


def period_mask(word) -> int:
    """The proper periods of word as a bitmask, bit p-1 for period p, by definition."""
    n = len(word)
    mask = 0
    for p in range(1, n):
        if all(word[i] == word[i + p] for i in range(n - p)):
            mask |= 1 << (p - 1)
    return mask


def merged(populations: dict[int, int], r_max: int) -> dict[int, int]:
    """Populations merged by the periods each set has within 1..r_max."""
    out: dict[int, int] = {}
    for t, c in populations.items():
        key = t & ((1 << r_max) - 1)
        out[key] = out.get(key, 0) + c
    return out


def subset_populations(length: int, r_max: int, sigma: int) -> dict[int, int]:
    """Oracle: the number of words of that length whose periods within
    1..r_max are exactly T, for every T that occurs.

    Every subset T of 1..r_max gets the number of classes of positions
    0..length-1 under i ~ i+p for p in T, by one union-find pass over the
    subset without its largest period; sigma^classes words have every
    period in T, and a superset Moebius transform leaves the words whose
    period set is exactly T. It visits all 2^r_max subsets.
    """
    labels = [list(range(length))]
    comps = [length]
    for mask in range(1, 1 << r_max):
        p = mask.bit_length()
        par = labels[mask ^ (1 << (p - 1))][:]
        comp = comps[mask ^ (1 << (p - 1))]
        for i in range(length - p):
            a = par[i]
            while par[a] != a:
                a = par[a]
            b = par[i + p]
            while par[b] != b:
                b = par[b]
            if a != b:
                comp -= 1
                par[max(a, b)] = min(a, b)
        for i in range(length):
            par[i] = par[par[i]]
        labels.append(par)
        comps.append(comp)
    pop = [sigma**c for c in comps]
    for b in range(r_max):
        bit = 1 << b
        for mask in range(1 << r_max):
            if not mask & bit:
                pop[mask] -= pop[mask | bit]
    return {mask: c for mask, c in enumerate(pop) if c}


def growth_counts_by_subsets(n: int, sigma: int, populations) -> dict[int, int]:
    """Oracle: growth counts of length-n strings, one n at a time.

    populations(length, r_max) gives the words of each prefix length by
    their periods within r_max = min(n - length, length - 1); each class
    adds pop * [z^r] 1 / (z^length [length <= r] + (1 - sigma z) c_T(z))
    with r = n - length, expanded by the plain recurrence on 1/d.
    """
    unique = [0]
    for length in range(1, n):
        r = n - length
        total = 0
        for mask, count in populations(length, min(r, length - 1)).items():
            d = [0] * (r + 1)
            for p in (0, *(p for p in range(1, r + 1) if mask >> (p - 1) & 1)):
                d[p] += 1
                if p < r:
                    d[p + 1] -= sigma
            if length <= r:
                d[length] += 1
            inv = [1] + [0] * r
            for m in range(1, r + 1):
                inv[m] = -sum(d[i] * inv[m - i] for i in range(1, m + 1))
            total += count * inv[r]
        unique.append(total)
    unique.append(sigma**n)
    return {k: unique[n - k + 1] - unique[n - k] for k in range(1, n + 1)}


@pytest.mark.parametrize("sigma,n_max", [(2, 30), (3, 16)])
def test_merged_populations_and_counts_equal_the_subset_oracle(sigma, n_max):
    pops = period_set_populations(n_max - 1, sigma)
    counts = growth_counts_up_to(n_max, sigma)
    oracle = {}

    def populations(length, r_max):
        if (length, r_max) not in oracle:
            oracle[length, r_max] = subset_populations(length, r_max, sigma)
            assert merged(pops[length], r_max) == oracle[length, r_max], (length, r_max)
        return oracle[length, r_max]

    for n in range(1, n_max + 1):
        assert counts[n] == growth_counts_by_subsets(n, sigma, populations), (sigma, n)
        assert growth_counts(n, sigma) == counts[n]


def growth_counts_by_full_merge(n_max: int, sigma: int) -> list[dict[int, int]]:
    """Oracle: growth_counts_up_to with every length below n_max taking its
    classes from its full period-set populations, merged by the periods up
    to min(n_max - length, length - 1), and each class's series expanded
    whole, in no particular order."""
    pops = period_set_populations(n_max - 1, sigma)
    unique = [[0] * n + [sigma**n] for n in range(n_max + 1)]
    for length in range(1, n_max):
        r_top = n_max - length
        rs = range(1, r_top + 1)
        acc = [0] * (r_top + 1)
        for t, c in merged(pops[length], min(r_top, length - 1)).items():
            periods = [p for p in rs if t >> (p - 1) & 1]
            f = [1]
            g = [1]
            for m in rs:
                x = -f[m - length] if m >= length else 0
                for p in periods:
                    if p > m:
                        break
                    x -= g[m - p]
                g.append(x)
                f.append(x + sigma * f[m - 1])
            for r in rs:
                acc[r] += c * f[r]
        for r in rs:
            unique[length + r][length] = acc[r]
    return [{}] + [
        {k: unique[n][n - k + 1] - unique[n][n - k] for k in range(1, n + 1)}
        for n in range(1, n_max + 1)
    ]


@pytest.mark.parametrize("sigma,n_max", [(2, 64), (3, 40), (4, 30), (5, 20), (26, 12), (1, 12)])
def test_one_pass_equals_the_full_population_merge(sigma, n_max):
    # the lengths from n/2 up take their counts from the bounds, and the
    # classes share series prefixes; the oracle does neither, so it checks
    # the bound's exactness for 2k <= n without assuming it
    oracle = growth_counts_by_full_merge(n_max, sigma)
    assert growth_counts_up_to(n_max, sigma) == oracle
    if sigma >= 2:
        bounds = growth_bounds(n_max // 2, sigma)
        for n in range(2, n_max + 1):
            assert [oracle[n][k] for k in range(1, n // 2 + 1)] == bounds[: n // 2], (sigma, n)


@pytest.mark.parametrize("sigma,n_max", [(2, 64), (3, 64), (4, 40), (1, 40), (5, 40), (26, 24)])
def test_one_n_series_equals_the_all_n_series(sigma, n_max):
    # growth_counts accumulates only the one coefficient per length that its n reads
    counts = growth_counts_up_to(n_max, sigma)
    for n in range(1, n_max + 1):
        assert growth_counts(n, sigma) == counts[n], (sigma, n)


@pytest.mark.parametrize("sigma", [2, 3, 4])
def test_populations_come_in_period_list_order(sigma):
    # the class series expands the classes in this order without sorting
    # them; its counts hold in any order, but only consecutive classes that
    # share their smallest periods share coefficients
    pops = period_set_populations(30, sigma)
    for length in range(2, 31):
        by_periods = sorted(pops[length], key=lambda t: format(t, f"0{length - 1}b")[::-1])
        assert list(pops[length]) == by_periods, (sigma, length)


def test_period_set_counts_are_oeis_a005434():
    # the number of distinct period sets (autocorrelations) of each length
    kappa = [1, 2, 3, 4, 6, 8, 10, 13, 17, 21, 27, 30, 37, 47, 57, 62]
    for sigma in (2, 3):
        assert [len(sets) for sets in period_set_populations(16, sigma)[1:]] == kappa


def unbordered(length: int, sigma: int) -> int:
    """Words with no proper period, by Nielsen's recurrence (1973):
    u(2k+1) = sigma u(2k) and u(2k) = sigma u(2k-1) - u(k), from adding a
    middle symbol to an unbordered word; of the words of even length made
    so, exactly the squares uu of unbordered u are bordered."""
    if length == 1:
        return sigma
    previous = sigma * unbordered(length - 1, sigma)
    return previous - unbordered(length // 2, sigma) if length % 2 == 0 else previous


@pytest.mark.parametrize("sigma,length_max", [(1, 20), (2, 64), (3, 30), (5, 20)])
def test_populations_sum_to_sigma_to_the_length(sigma, length_max):
    pops = period_set_populations(length_max, sigma)
    assert pops[0] == {0: 1}
    for length in range(1, length_max + 1):
        assert sum(pops[length].values()) == sigma**length
        # the empty set takes what the other sets leave, so an independent
        # count of it checks their sum
        assert pops[length][0] == unbordered(length, sigma), (sigma, length)
        if sigma >= 2:
            assert min(pops[length].values()) > 0


@pytest.mark.parametrize("sigma,length_max", [(1, 8), (2, 12), (3, 8), (4, 6)])
def test_populations_equal_brute_force_period_sets(sigma, length_max):
    pops = period_set_populations(length_max, sigma)
    for length in range(1, length_max + 1):
        counted = Counter(period_mask(word) for word in enumerate_strings(length, sigma))
        assert {t: c for t, c in pops[length].items() if c} == counted, (sigma, length)


@cache
def populations_to_64(sigma):
    return period_set_populations(64, sigma)


# deadline=None: the first example builds the populations
@settings(deadline=None)
@given(
    sigma=st.integers(2, 4),
    base=st.lists(st.integers(0, 3), min_size=1, max_size=9),
    length=st.integers(1, 64),
    flip=st.none() | st.integers(0, 63),
)
def test_period_set_of_any_word_has_a_population(sigma, base, length, flip):
    # repeating a short base, maybe with one symbol changed, gives words
    # with many periods, which uniform words almost never have
    word = [base[i % len(base)] % sigma for i in range(length)]
    if flip is not None:
        word[flip % length] = (word[flip % length] + 1) % sigma
    assert populations_to_64(sigma)[length].get(period_mask(word), 0) > 0


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
    # pairs exist exactly for 2k <= n: n = 2..10 with k <= min(4, n // 2)
    assert check_growth_bound(2, k_max=4, n_max=10) == (24, [])
    assert growth_histogram(10, 2)[1] == growth_bound(1, 2)  # k=1 is tight


def test_check_growth_bound_reports_a_counting_route_that_disagrees(monkeypatch):
    real = counting.growth_counts_up_to

    def off_by_one_at_7(n_max, sigma):
        counts = real(n_max, sigma)
        counts[7][1] += 1
        return counts

    monkeypatch.setattr(counting, "growth_counts_up_to", off_by_one_at_7)
    assert check_growth_bound(2, k_max=3, n_max=9) == (18, [("route", 7)])


def test_exact_arithmetic_at_large_sizes():
    # sigma^j overflows 64-bit machine words well before j = 60
    value = count_aperiodic(60, 5)
    assert value == 5**60 - 5**30 - 5**20 - 5**12 + 5**10 + 5**6 + 5**4 - 5**2
