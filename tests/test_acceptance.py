"""Acceptance gate: one test per criterion, each printing its own PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time
from fractions import Fraction

from suffixlab import counting
from suffixlab.counting import (
    aperiodic_prime_power,
    check_growth_bound,
    count_aperiodic,
    count_aperiodic_bruteforce,
    growth_bound,
    growth_bound_prefix_sum,
    growth_histogram,
)
from suffixlab.experiments import (
    ExpectationRow,
    ExperimentConfig,
    SizeRow,
    exact_expected_growth,
    expected_growth,
    expected_size,
    new_rng,
    random_string,
    rows_to_csv,
)
from suffixlab.strings import Alphabet, Str, enumerate_strings, from_text
from suffixlab.trees import (
    build_compact_tree,
    build_suffix_tree,
    find_occurrences,
    growth_sum_identity,
    growth_via_lcp,
    growth_via_tree,
    scan_occurrences,
)


def _report(num, detail):
    print(f"\nACCEPTANCE {num:02d} PASS: {detail}")


def test_criterion_01_aperiodic_golden_table():
    t0 = time.perf_counter()
    for sigma in (3, 4, 5):
        row = counting.REFERENCE_APERIODIC_TABLE[sigma]
        for j, published in enumerate(row, start=1):
            computed = count_aperiodic(j, sigma)
            if (sigma, j) == (3, 8):
                assert published == 648 and computed == 6480
            else:
                assert computed == published, (sigma, j, published, computed)
    assert [count_aperiodic(j, 2) for j in range(1, 9)] == [2, 2, 6, 12, 30, 54, 126, 240]
    for j in range(1, 9):
        assert count_aperiodic_bruteforce(j, 2) == count_aperiodic(j, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(
        1,
        "recurrence matches reference counts for sigma 3..5 except the documented "
        f"(sigma=3, j=8) cell; sigma=2 row verified by recurrence and enumeration ({elapsed:.2f}s)",
    )


def test_criterion_02_bruteforce_aperiodic_oracle():
    t0 = time.perf_counter()
    checked = 0
    for sigma in (2, 3):
        j = 1
        while sigma**j <= 1 << 20:
            assert count_aperiodic_bruteforce(j, sigma) == count_aperiodic(j, sigma), (sigma, j)
            checked += 1
            j += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, f"exhaustive enumeration equals the recurrence on {checked} (sigma, j) pairs ({elapsed:.1f}s)")


def test_criterion_03_prime_power_closed_form():
    checked = 0
    for q in range(2, 33):
        p = min(d for d in range(2, q + 1) if q % d == 0)
        t, m = 0, q
        while m % p == 0:
            m //= p
            t += 1
        if m != 1:
            continue
        for sigma in range(2, 6):
            assert aperiodic_prime_power(p, t, sigma) == count_aperiodic(q, sigma), (p, t, sigma)
            checked += 1
    _report(3, f"closed form equals the recurrence for all {checked} (prime power <= 32, sigma) pairs")


def test_criterion_04_aperiodic_count_bounds():
    for sigma in range(2, 7):
        for j in range(1, 21):
            mu = count_aperiodic(j, sigma)
            if j > 1:
                assert mu <= sigma**j - sigma, ("upper", sigma, j)
            assert mu >= sigma * (sigma - 1) ** (j - 1), ("lower", sigma, j)
    _report(4, "upper and lower aperiodic-count bounds hold exactly for sigma 2..6, j 1..20")


def test_criterion_05_growth_counts_below_bound():
    t0 = time.perf_counter()
    reports = [
        check_growth_bound(2, k_max=5, n_max=12),
        check_growth_bound(3, k_max=3, n_max=7),
    ]
    rows = 0
    for report in reports:
        assert report.ok, (report.violations[:3], report.partition_failures)
        rows += len(report.rows)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        5,
        f"exhaustive counts stay below the bound on {rows} (n, k) pairs and every "
        f"histogram sums to sigma^n ({elapsed:.1f}s)",
    )


def test_criterion_06_bound_cap_and_prefix_sums():
    for sigma in range(2, 6):
        for k in range(1, 21):
            assert growth_bound(k, sigma) <= k * sigma**k, (sigma, k)
        for m in range(1, 21):
            assert growth_bound_prefix_sum(m, sigma) <= (m + 1) * sigma ** (m + 1), (sigma, m)
    _report(6, "growth bounds capped by k*sigma^k and prefix sums by (m+1)*sigma^(m+1), sigma 2..5, up to 20")


def test_criterion_07_growth_ground_truth():
    for text, expected in (("aabccb", 5), ("abcdefabcdab", 8)):
        s = from_text(text)
        assert growth_via_tree(s) == expected, text
        assert growth_via_lcp(s) == expected, text
    _report(7, "growth(aabccb)=5 and growth(abcdefabcdab)=8 via both the tree and the scan")


def test_criterion_08_oracle_equivalence_and_node_identity():
    t0 = time.perf_counter()
    strings = 0
    for n in range(1, 13):
        for symbols in enumerate_strings(n, 2):
            s = Str(symbols, Alphabet(2))
            strings += 1
            assert growth_via_tree(s) == growth_via_lcp(s), str(s)
            if n == 1:
                assert build_suffix_tree(s).node_count == 2 + n
            else:
                assert growth_sum_identity(s).equal, str(s)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        8,
        f"growth routes agree and node counts equal the growth-sum form on all "
        f"{strings} binary strings up to length 12, zero exceptions ({elapsed:.1f}s)",
    )


def test_criterion_09_reference_figures():
    s = from_text("aabccb")
    naive = build_suffix_tree(s)
    compact = build_compact_tree(s)
    assert naive.node_count == 25
    assert compact.node_count == 10
    expected = sorted(["c", "b", "a", "b$", "cb$", "ccb$", "$", "bccb$", "abccb$"])
    assert sorted(compact.edge_labels()) == expected
    _report(9, "simple tree of aabccb has 25 nodes, compact tree 10 nodes with the exact edge-label multiset")


def test_criterion_10_quadratic_mean_size():
    t0 = time.perf_counter()
    config = ExperimentConfig(sigma=2, n_list=(64, 128, 256), samples=200, seed=1)
    rows = expected_size(config)
    ratios = [row.mean_over_n2 for row in rows]
    for row in rows:
        assert row.mean_over_n2 >= 0.40, (row.n, row.mean_over_n2)
    spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
    assert spread < 0.15, ratios
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ratio_text = ", ".join(f"n={row.n}: {row.mean_over_n2:.3f}" for row in rows)
    _report(10, f"mean nodes / n^2 >= 0.40 at every n ({ratio_text}); relative spread {spread:.1%} ({elapsed:.1f}s)")


def test_criterion_11_mean_growth_is_linear():
    t0 = time.perf_counter()
    config = ExperimentConfig(sigma=2, n=256, samples=1000, seed=1)
    rows = expected_growth(config)
    assert [row.regime for row in rows] == ["uniform", "prefix"]
    for row in rows:
        assert row.mean / 256 >= 0.5, (row.regime, row.mean)
    for n in range(2, 17):
        exact = exact_expected_growth(n, 2)
        assert exact >= Fraction(n, 2), (n, exact)
    elapsed = time.perf_counter() - t0
    means = ", ".join(f"{row.regime}: {row.mean / 256:.3f}" for row in rows)
    _report(
        11,
        f"sampled mean growth / n >= 0.5 in both regimes ({means}) and the exact mean "
        f"is at least n/2 for every n = 2..16 ({elapsed:.1f}s)",
    )


def test_criterion_12_determinism_and_worker_invariance():
    config_a = ExperimentConfig(sigma=2, n=64, samples=100, seed=33)
    config_b = ExperimentConfig(sigma=2, n=64, samples=100, seed=33)
    csv_a = rows_to_csv(ExpectationRow, expected_growth(config_a))
    csv_b = rows_to_csv(ExpectationRow, expected_growth(config_b))
    assert csv_a == csv_b
    size_a = rows_to_csv(SizeRow, expected_size(ExperimentConfig(sigma=2, n_list=(32,), samples=50, seed=8)))
    size_b = rows_to_csv(SizeRow, expected_size(ExperimentConfig(sigma=2, n_list=(32,), samples=50, seed=8)))
    assert size_a == size_b
    base = growth_histogram(10, 2, workers=1)
    for workers in (2, 8):
        assert growth_histogram(10, 2, workers=workers) == base
    _report(12, "seeded commands emit byte-identical CSV and worker counts 1, 2, 8 give identical tables")


def test_criterion_13_search_equals_scan():
    t0 = time.perf_counter()
    rng = new_rng(99)
    pairs = 0
    for sigma in (2, 4):
        for _ in range(50):
            n = int(rng.integers(2, 201))
            s = random_string(n, sigma, rng)
            tree = build_compact_tree(s)
            for _ in range(100):
                plen = int(rng.integers(1, min(n, 12) + 1))
                if rng.integers(0, 2) == 0:
                    start = int(rng.integers(1, n - plen + 2))
                    pattern = s.sub(start, start + plen - 1)
                else:
                    pattern = random_string(plen, sigma, rng)
                assert find_occurrences(tree, pattern) == scan_occurrences(s, pattern)
                pairs += 1
    elapsed = time.perf_counter() - t0
    assert pairs == 10_000
    _report(13, f"tree search equals the direct scan on {pairs} random (string, pattern) pairs ({elapsed:.1f}s)")
