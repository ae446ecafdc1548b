import ast
import math
import re
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from suffixlab import cli, counting, experiments, trees
from suffixlab.experiments import (
    CHECKS,
    _int_mean_stderr,
    _prepended_growth_sum,
    _quotient_mean_stderr,
    _sqrt_of_ratio,
    exact_expected_growth,
    exact_expected_size,
    expected_growth,
    expected_size,
    growth_count_table,
    new_rng,
    random_string,
    run_verification,
)
from suffixlab.strings import Alphabet, Str, enumerate_strings, growth_of_symbols


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
        (lambda: expected_growth(0, 2), "length must be at least 1, got 0"),
        (lambda: expected_growth(4, 2, seed=-1), "seed must be at least 0, got -1"),
        (lambda: expected_size((), 2), "expected-size needs at least one n"),
        (lambda: random_string(3, 0, new_rng(1)), "alphabet size must be at least 1, got 0"),
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


#: (sigma, a tail of symbols from 1..sigma)
tails = st.integers(1, 9).flatmap(
    lambda sigma: st.tuples(st.just(sigma), st.lists(st.integers(1, sigma), max_size=12))
)


@given(tails)
def test_prepended_growth_sum_equals_the_sum_over_every_symbol(case):
    sigma, tail = case
    brute = sum(growth_of_symbols([c, *tail]) for c in range(1, sigma + 1))
    assert _prepended_growth_sum(tail, sigma) == brute


def test_prefix_regime_scans_only_the_symbols_its_tail_holds(monkeypatch):
    # 20 uniform scans, and at most 4 per tail of 4 symbols, whatever sigma;
    # the count fails at once past that, so a scan of every symbol cannot hang
    calls = 0
    real = experiments.growth_of_symbols

    def counted(symbols):
        nonlocal calls
        calls += 1
        if calls > 20 + 20 * 4:
            pytest.fail("the prefix regime scans symbols its tail does not hold")
        return real(symbols)

    monkeypatch.setattr(experiments, "growth_of_symbols", counted)
    expected_growth(5, 10**12, samples=20)
    assert calls > 20


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


def test_exact_expected_size_budget_error(monkeypatch):
    n = counting.MAX_EXACT_N

    def no_work(length_max, sigma):
        raise AssertionError("the refusal must come before any work")

    monkeypatch.setattr(counting, "period_set_populations", no_work)
    with pytest.raises(ValueError, match=f"^exact counts reach n = {n}, got n = {n + 1}$"):
        exact_expected_size(n + 1, 2)
    with pytest.raises(ValueError, match=f"got n = {n + 1}$"):
        expected_size((8, n + 1), 2, mode="exhaustive")


def golden_size_row(golden: str, n: int) -> tuple[float, float]:
    """(mean, stderr) of the sigma = 2, length-n row of a golden expect-size CSV."""
    text = (Path(__file__).parent / "golden" / golden).read_text()
    row = next(line.split(",") for line in text.splitlines() if line.startswith(f"2,{n},"))
    return float(row[4]), float(row[5])


def test_exact_mean_at_64_agrees_with_the_monte_carlo_golden():
    # seed 1, 200 samples: the n = 64 row of `expect-size` in the golden CSV
    mean, stderr = golden_size_row("expect_size_seed1.csv", 64)
    exact = exact_expected_size(64, 2)
    assert float(exact) == pytest.approx(1849.98613, abs=1e-5)
    assert abs(float(exact) - mean) <= 3 * stderr, (float(exact), mean, stderr)


def test_exact_mean_at_128_agrees_with_the_monte_carlo_golden():
    # the exact mean is the golden recorded by the route that merged every
    # length's full period-set populations, which test_cli holds the
    # command to byte for byte
    exact, _ = golden_size_row("expect_size_exhaustive_n128.csv", 128)
    mean, stderr = golden_size_row("expect_size_seed1.csv", 128)
    assert exact == 7655.570475306562
    assert abs(exact - mean) <= 3 * stderr, (exact, mean, stderr)


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


@pytest.mark.parametrize("sigma", [2, 3, 4, 26])
@pytest.mark.parametrize("n", [1, 17, 64, 257])
def test_block_draws_replay_per_sample_draws(sigma, n):
    """Blocks of rows take the same symbols from the generator as one
    random_string call per row, and leave it in the same state."""
    by_block, by_sample = new_rng(11), new_rng(11)
    for rows in (3, 1, 4):
        block = by_block.integers(1, sigma + 1, size=(rows, n))
        assert [tuple(row) for row in block.tolist()] == [
            random_string(n, sigma, by_sample).symbols for _ in range(rows)
        ]
        assert by_block.bit_generator.state == by_sample.bit_generator.state


def test_expected_size_blocks_count_what_per_sample_draws_count():
    # 20 samples at n = 1000 take three blocks, the last one short
    rows = expected_size((1000,), 3, samples=20, seed=4)
    rng = new_rng(4)
    counts = [trees.simple_tree_size(random_string(1000, 3, rng)) for _ in range(20)]
    assert rows[0].mean == statistics.fmean(counts)
    assert rows[0].stderr == nearest_sqrt(sample_variance(counts)) / math.sqrt(20)


def sample_variance(values) -> Fraction:
    mean = Fraction(sum(values), len(values))
    return sum((x - mean) ** 2 for x in values) / (len(values) - 1)


def midpoints(r: float) -> tuple[Fraction, Fraction]:
    """The midpoints between r ≥ 0 and the floats next to it: the reals
    that round to r lie between them."""
    below, above = math.nextafter(r, 0), math.nextafter(r, math.inf)
    return (Fraction(below) + Fraction(r)) / 2, (Fraction(r) + Fraction(above)) / 2


def nearest_sqrt(x: Fraction) -> float:
    """The float nearest √x, searched from math.sqrt's guess, which rounds
    twice, to the float whose midpoints bracket √x."""
    r = math.sqrt(x)
    while True:
        low, high = midpoints(r)
        if low * low > x:
            r = math.nextafter(r, 0)
        elif high * high < x:
            r = math.nextafter(r, math.inf)
        else:
            return r


int_samples = st.lists(
    st.one_of(st.integers(0, 50), st.integers(0, 5 * 10**13)), min_size=1, max_size=300
)


def in_blocks(values, cuts):
    """values cut into consecutive lists at the positions in cuts."""
    edges = sorted({0, len(values), *(cut % (len(values) + 1) for cut in cuts)})
    return [values[a:b] for a, b in zip(edges, edges[1:])]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.stdev rounds twice before 3.11")
@given(int_samples, st.lists(st.integers(0, 300), max_size=5))
def test_running_moments_equal_the_statistics_module(values, cuts):
    mean, stderr = _int_mean_stderr(in_blocks(values, cuts))
    assert mean == statistics.fmean(values)
    if len(values) == 1:
        assert stderr == 0.0
    else:
        assert stderr == statistics.stdev(values) / math.sqrt(len(values))


@given(int_samples, st.lists(st.integers(0, 300), max_size=5))
def test_running_moments_round_the_exact_variance_once(values, cuts):
    mean, stderr = _int_mean_stderr(in_blocks(values, cuts))
    assert mean == math.fsum(values) / len(values)
    if len(values) > 1:
        assert stderr == nearest_sqrt(sample_variance(values)) / math.sqrt(len(values))


#: (sigma, ints x >= sigma): the prefix regime's numerators, up to sigma·10^7
quotient_samples = st.integers(2, 26).flatmap(
    lambda sigma: st.tuples(
        st.just(sigma),
        st.lists(
            st.one_of(st.integers(sigma, 3 * sigma), st.integers(sigma, sigma * 10**7)), min_size=1, max_size=300
        ),
    )
)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.stdev rounds twice before 3.11")
@given(quotient_samples, st.lists(st.integers(0, 300), max_size=5))
def test_quotient_moments_equal_the_statistics_module_over_the_floats(sample, cuts):
    sigma, values = sample
    floats = [x / sigma for x in values]
    mean, stderr = _quotient_mean_stderr(sigma, in_blocks(values, cuts))
    assert mean == statistics.fmean(floats)
    if len(values) == 1:
        assert stderr == 0.0
    else:
        assert stderr == statistics.stdev(floats) / math.sqrt(len(values))


@given(quotient_samples, st.lists(st.integers(0, 300), max_size=5))
def test_quotient_moments_round_the_exact_variance_of_the_floats_once(sample, cuts):
    sigma, values = sample
    floats = [x / sigma for x in values]
    mean, stderr = _quotient_mean_stderr(sigma, in_blocks(values, cuts))
    assert mean == math.fsum(floats) / len(floats)
    if len(values) > 1:
        assert stderr == nearest_sqrt(sample_variance(list(map(Fraction, floats)))) / math.sqrt(len(values))


@given(st.integers(0, 10**40), st.integers(1, 10**40))
def test_sqrt_of_ratio_is_the_nearest_float(n, m):
    root = _sqrt_of_ratio(n, m)
    low, high = midpoints(root)
    assert low * low <= Fraction(n, m) <= high * high


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
    n = counting.MAX_EXACT_N
    with pytest.raises(ValueError, match=f"^exact counts reach n = {n}, got n = {n + 1}$"):
        growth_count_table(n + 1, 2)


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
    # the sweep reads its bounds from the linear-time table, and for 2k <= n
    # a count must equal its bound, so a bound too large fails too
    real = counting.growth_bounds
    for shift in (-1, 1):
        monkeypatch.setattr(counting, "growth_bounds", lambda k_max, sigma: [b + shift for b in real(k_max, sigma)])
        report = run_verification()
        assert list(report) == list(CHECKS)
        failed = {name for name, (ok, _) in report.items() if not ok}
        assert "growth-count-bound" in failed, shift


def test_verification_detects_a_wrong_counting_route(monkeypatch):
    real = counting.growth_counts_up_to

    def shifted(n_max, sigma):
        counts = real(n_max, sigma)
        for n, hist in enumerate(counts[1:], start=1):
            hist[n] -= 1
            hist[1] += 1
        return counts

    monkeypatch.setattr(counting, "growth_counts_up_to", shifted)
    report = run_verification()
    failed = {name: detail for name, (ok, detail) in report.items() if not ok}
    assert list(failed) == ["growth-count-bound"]
    assert "(2, 'route', 2)" in failed["growth-count-bound"]


def _changed(module, name, change):
    """module.name with its result passed through change(result, *args)."""
    real = getattr(module, name)
    return lambda *args: change(real(*args), *args)


def _plus_one(module, name):
    return [(module, name, _changed(module, name, lambda result, *args: result + 1))]


def _both_builders(change):
    """Both compact builders as the direct one, changed, so the two still
    compare equal and only the check's own test of the tree fails."""
    changed = _changed(trees, "build_compact_tree", change)
    return [(trees, "build_compact_tree", changed), (trees, "compact_tree_via_simple", changed)]


def _with_a_unary_node(tree, s):
    tree.children += [{1: len(tree.children) + 1}, {}]
    return tree


def _padded_past_2n(tree, s):
    tree.children += [{} for _ in range(2 * len(s))]
    return tree


TREES = {"sizes": ((2, 5),)}

#: the reference table with its sigma = 3, j = 8 erratum mended, and with
#: an unexplained sigma = 4, j = 1 cell
REFERENCE = counting.REFERENCE_APERIODIC_TABLE
MENDED_TABLE = {**REFERENCE, 3: (*REFERENCE[3][:7], 6480)}
UNEXPLAINED_TABLE = {**REFERENCE, 4: (5, *REFERENCE[4][1:])}


@pytest.mark.parametrize(
    "check,kwargs,patches,fragment",
    [
        (
            "aperiodic-count-bounds",
            {},
            [(counting, "count_aperiodic", lambda j, sigma: sigma**j)],
            "95 failures: [('upper', 2, 2), ('upper', 2, 3), ('upper', 2, 4), ('upper', 2, 5)]",
        ),
        ("aperiodic-count-bounds", {}, [(counting, "count_aperiodic", lambda j, sigma: 0)], "('lower', 2, 1)"),
        ("growth-bound-caps", {}, [(counting, "growth_bound", lambda k, sigma: k * sigma**k + 1)], "('cap', 2, 1)"),
        (
            "growth-bound-caps",
            {},
            [(counting, "growth_bound_prefix_sum", lambda m, sigma: (m + 1) * sigma ** (m + 1) + 1)],
            "('prefix', 2, 1)",
        ),
        ("aperiodic-bruteforce", {"limit": 1 << 6}, _plus_one(counting, "count_aperiodic_bruteforce"), "failures: [(2, 1)"),
        ("growth-ground-truth", {}, _plus_one(trees, "growth_via_lcp"), "('aabccb', 5, 5, 6)"),
        ("tree-identities", TREES, _plus_one(trees, "growth_via_tree"), "('growth', 'aa')"),
        ("tree-identities", TREES, _plus_one(trees, "simple_tree_size"), "('identity', 'aa')"),
        ("tree-identities", TREES, _both_builders(_with_a_unary_node), "('compact-degree', 'aa')"),
        ("tree-identities", TREES, _both_builders(_padded_past_2n), "('compact-size', 'aa')"),
        (
            "growth-count-bound",
            {},
            [(counting, "growth_histogram", _changed(counting, "growth_histogram", lambda h, n, sigma: {**h, n: h[n] + 1}))],
            "(2, 'partition', 2)",
        ),
        (
            "aperiodic-reference-table",
            {},
            [(counting, "REFERENCE_APERIODIC_TABLE", MENDED_TABLE)],
            "2 failures: [('matches', 3, 8), ('shape',)]",
        ),
        (
            "aperiodic-reference-table",
            {},
            [(counting, "REFERENCE_APERIODIC_TABLE", UNEXPLAINED_TABLE)],
            "1 failure: [('unexplained', 4, 1)]",
        ),
        (
            "prime-power-closed-form",
            {},
            _plus_one(counting, "aperiodic_prime_power"),
            "72 failures: [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5)]",
        ),
    ],
    ids=["upper", "lower", "cap", "prefix", "bruteforce", "ground-truth", "growth", "identity",
         "compact-degree", "compact-size", "partition", "errata-match", "unexplained", "prime-power"],
)
def test_verification_detects_each_failure(check, kwargs, patches, fragment, monkeypatch):
    # each case breaks one quantity the check reads, at small sizes
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    ok, detail = CHECKS[check](**kwargs)
    assert ok is False
    # a fragment that starts with the count of failures is the whole detail
    assert detail == fragment if fragment[0].isdigit() else fragment in detail, detail
    count, listed = re.fullmatch(r"(\d+) failures?: (\[.*\])", detail).groups()
    assert len(ast.literal_eval(listed)) == min(int(count), 4), detail


def test_verification_detects_a_wrong_compact_tree(monkeypatch):
    real = trees.build_compact_tree

    def shifted(s):
        tree = real(s)
        lo, hi = tree.interval[-1]
        tree.interval[-1] = (lo, hi + 1)
        return tree

    monkeypatch.setattr(trees, "build_compact_tree", shifted)
    report = run_verification()
    failed = [name for name, (ok, _) in report.items() if not ok]
    assert failed == ["reference-trees", "tree-identities", "search-vs-scan"]
