"""Experiment drivers: seeded sampling, expectation estimates, count and
growth-count tables with the one CSV/JSON writer of their rows, and
the one-shot verification sweep behind `suffixlab verify`.

Sampling uses numpy's PCG64 generator. The algorithm is fixed and its
output stream documented, so a seed pins the sampled strings on every
platform; Monte Carlo commands are therefore byte-reproducible. numpy is
imported by new_rng, so commands that never sample do not load it.

Table rows are NamedTuples, and a table's columns are its row type's
_fields. json and fractions are imported by the functions that use them
(rows_to_json and the exact means), so a command loads each only when it
writes JSON or computes an exact mean. Every Monte Carlo mean comes from
exact running int sums and loads neither.
"""

from __future__ import annotations

import math
import sys
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import counting, trees
from .strings import Alphabet, Str, enumerate_strings, from_text, growth_of_symbols

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np


def new_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator for all experiment sampling."""
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    import numpy as np

    return np.random.Generator(np.random.PCG64(seed))


def random_string(n: int, sigma: int, rng: np.random.Generator) -> Str:
    """String of n i.i.d. uniform symbols from 1..sigma."""
    if n < 1:
        raise ValueError(f"length must be at least 1, got {n}")
    if sigma < 1:
        raise ValueError(f"alphabet size must be at least 1, got {sigma}")
    symbols = rng.integers(1, sigma + 1, size=n)
    return Str(tuple(symbols.tolist()), Alphabet(sigma))


#: symbols per block _sample_blocks draws; larger blocks cost peak memory
_BLOCK_CELLS = 1 << 13


def _sample_blocks(n: int, sigma: int, samples: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """`samples` uniform strings of n ≥ 0 symbols from 1..sigma, as the rows
    of 2-D blocks of about _BLOCK_CELLS symbols. A (k, n) draw takes the
    symbols k random_string calls of n symbols would take, and a (k, 0)
    draw takes nothing."""
    per_block = max(1, _BLOCK_CELLS // max(n, 1))
    for done in range(0, samples, per_block):
        yield rng.integers(1, sigma + 1, size=(min(per_block, samples - done), n))


def _check_sigma(sigma: int) -> None:
    if sigma < 2:
        raise ValueError(f"experiments need sigma >= 2, got {sigma}")


#: Longest string and most samples a Monte Carlo command draws, refused
#: above before the first draw. Measured as fresh processes (2-CPU Xeon,
#: Python 3.11.7, numpy 2.4.6): `expect-size --samples 1` takes about 76 B
#: of peak RSS per symbol, 732 MB at 10^7 symbols, and `expect-growth --n
#: 10000000 --samples 1` 264 MB. No command keeps a value per sample, so
#: the samples cap bounds time: `expect-size --n-list 64 --samples
#: 10000000` peaks at 35 MB in 16 s, `expect-growth --n 2 --samples
#: 10000000` at 35 MB in 21-25 s.
MAX_SAMPLED_LENGTH = 10_000_000
MAX_SAMPLES = 10_000_000


def _check_sampling(sigma: int, mode: str, samples: int, n_max: int) -> None:
    _check_sigma(sigma)
    if mode not in ("montecarlo", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "montecarlo":
        if samples < 1:
            raise ValueError("montecarlo mode needs at least one sample")
        if samples > MAX_SAMPLES:
            raise ValueError(f"montecarlo mode draws at most {MAX_SAMPLES} samples, got {samples}")
        if n_max > MAX_SAMPLED_LENGTH:
            raise ValueError(f"montecarlo mode draws strings of at most {MAX_SAMPLED_LENGTH} symbols, got {n_max}")


def _check_digits(sigma: int, length: int, factor: int = 1) -> None:
    """Refuse, before any work, a table whose cells, each at most
    factor * sigma^length, could pass Python's int-to-string limit; the
    digit count comes from logarithms, so sigma^length is never formed.
    Cells at sigma < 2 or length < 1 are short, or refused elsewhere."""
    # 0, or no such function (Python before 3.10.7): no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and sigma >= 2 and length >= 1:
        digits = math.floor(math.log10(factor) + length * math.log10(sigma)) + 1
        if digits > limit:
            raise ValueError(
                f"table values reach {digits} digits, above Python's int-to-string limit of {limit}"
            )


# ---------------------------------------------------------------------------
# Row types and their one text writer (CSV and JSON share the cells)
# ---------------------------------------------------------------------------


class CountRow(NamedTuple):
    """One line of a `mu` or `phi` table: j_or_n is set for aperiodic
    counts (length j), k for growth bounds."""

    sigma: int
    j_or_n: int | None
    k: int | None
    value: int


class GrowthCountRow(NamedTuple):
    """One line of the growth-count table: exhaustive count vs. bound."""

    sigma: int
    n: int
    k: int
    count: int
    bound: int
    n_ge_2k: bool
    holds: bool


class ExpectationRow(NamedTuple):
    """Mean growth (or node count) estimate for one (n, regime)."""

    sigma: int
    n: int
    mode: str
    regime: str
    samples: int
    mean: float
    stderr: float
    mean_exact: Fraction | None = None


class SizeRow(NamedTuple):
    """Mean simple-tree node count for one n, with the quadratic ratio."""

    sigma: int
    n: int
    mode: str
    samples: int
    mean: float
    stderr: float
    mean_over_n2: float
    mean_exact: Fraction | None = None


#: Cell text by the type of the value: floats via repr; any other value is
#: an exact Fraction, written p/q.
_ENCODE = {
    int: str,
    str: str,
    bool: lambda value: "true" if value else "false",
    float: repr,
    type(None): lambda value: "",
}


def _ratio(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _cell(value) -> str:
    return _ENCODE.get(type(value), _ratio)(value)


def _row_dicts(row_type, rows) -> list[dict[str, str]]:
    return [dict(zip(row_type._fields, map(_cell, row))) for row in rows]


def rows_to_csv(row_type, rows) -> str:
    lines = [",".join(row_type._fields)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def rows_to_json(row_type, rows, **wrapper) -> str:
    """A JSON list of row objects; given wrapper fields, an object with
    those fields and the list under "rows"."""
    import json

    payload = _row_dicts(row_type, rows)
    if wrapper:
        payload = {**wrapper, "rows": payload}
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


#: Longest count table `mu` and `phi` print, refused above before any work.
#: At sigma = 26 a table of 3,000 rows is 6.4 MB of CSV, written in 0.7 s
#: at a 47 MB peak RSS by a fresh process (2-CPU Xeon, Python 3.11.7).
#: From about 3,040 rows at sigma = 26 the values have more than 4,300
#: digits, the most that Python 3.11 turns into a decimal string by default.
MAX_TABLE_LENGTH = 3000


def _check_table_length(name: str, length: int) -> None:
    if length < 1:
        raise ValueError(f"{name} must be at least 1, got {length}")
    if length > MAX_TABLE_LENGTH:
        raise ValueError(f"{name} must be at most {MAX_TABLE_LENGTH}, got {length}")


def aperiodic_table(sigma: int, max_j: int) -> list[CountRow]:
    """Aperiodic-string counts for j = 1..max_j."""
    _check_table_length("max_j", max_j)
    _check_digits(sigma, max_j)
    return [
        CountRow(sigma, j, None, counting.count_aperiodic(j, sigma)) for j in range(1, max_j + 1)
    ]


def growth_bound_table(sigma: int, max_k: int) -> list[CountRow]:
    """Growth-count bounds for k = 1..max_k."""
    _check_table_length("max_k", max_k)
    _check_digits(sigma, max_k, max_k)  # growth_bound(k, sigma) <= k * sigma^k
    return [
        CountRow(sigma, None, k, bound)
        for k, bound in enumerate(counting.growth_bounds(max_k, sigma), start=1)
    ]


def growth_count_table(n: int, sigma: int) -> list[GrowthCountRow]:
    """Exact growth counts for every k = 1..n, next to their bounds.

    The counts come from counting.growth_counts, which enumerates no
    strings and refuses n above counting.MAX_EXACT_N.
    """
    _check_sigma(sigma)
    _check_digits(sigma, n, n)  # every bound is at most n * sigma^n
    hist = counting.growth_counts(n, sigma)
    rows = []
    for k, bound in enumerate(counting.growth_bounds(n, sigma), start=1):
        rows.append(
            GrowthCountRow(
                sigma=sigma,
                n=n,
                k=k,
                count=hist[k],
                bound=bound,
                n_ge_2k=n >= 2 * k,
                holds=hist[k] <= bound,
            )
        )
    return rows


def _sqrt_of_ratio(n: int, m: int) -> float:
    """The float nearest √(n/m), for ints n ≥ 0 and m ≥ 1, as Python 3.11's
    statistics.stdev rounds it. n/m is scaled by a power of 4 so that its
    integer root has at least 53 + 2 bits; rounded to odd, that root loses
    nothing to its one rounding to a float
    (https://bugs.python.org/msg407078)."""
    q = (n.bit_length() - m.bit_length() - 109) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


def _int_mean_stderr(blocks: Iterable[list[int]]) -> tuple[float, float]:
    """Mean and standard error of the mean of the ints in the lists blocks
    yields, from their count k, sum and sum of squares, kept exact; no list
    of every value is kept. For values below 2**53 the mean is
    statistics.fmean's, and the standard error is Python 3.11's
    statistics.stdev over √k: the root of the exact sample variance
    (k·Σx² − (Σx)²) / (k·(k − 1)), correctly rounded."""
    count = total = total_sq = 0
    for values in blocks:
        count += len(values)
        total += sum(values)
        total_sq += sum(map(mul, values, values))
    mean = float(total) / count
    if count < 2:
        return mean, 0.0
    stdev = _sqrt_of_ratio(count * total_sq - total * total, count * (count - 1))
    return mean, stdev / math.sqrt(count)


def _quotient_mean_stderr(sigma: int, blocks: Iterable[list[int]]) -> tuple[float, float]:
    """statistics.fmean, and Python 3.11's statistics.stdev over √k, of the k
    floats v = x / sigma for the ints x ≥ sigma in the lists blocks yields:
    v ≥ 1 makes v·2**52 an exact int, and scaling by 2**52 commutes with
    rounding, so _int_mean_stderr of those ints, scaled back, gives both."""
    mean, stderr = _int_mean_stderr([int(x / sigma * 2**52) for x in values] for values in blocks)
    return mean / 2**52, stderr / 2**52


def _mean_growth(hist: dict[int, int], sigma: int) -> Fraction:
    """The mean of a growth histogram {k: count} over k = 1..n, which
    covers all sigma^n strings."""
    from fractions import Fraction

    return Fraction(sum(k * c for k, c in hist.items()), sigma ** len(hist))


def exact_expected_growth(n: int, sigma: int) -> Fraction:
    """Exact mean growth over all sigma^n strings."""
    return _mean_growth(counting.growth_counts(n, sigma), sigma)


def expected_growth(
    n: int, sigma: int, *,
    mode: str = "montecarlo", samples: int = 1000, seed: int = 1,
) -> list[ExpectationRow]:
    """Estimate the mean growth of length-n strings.

    Exhaustive mode enumerates every string and reports the exact mean.
    Monte Carlo mode reports two regimes:

    - "uniform": growth of fully uniform strings;
    - "prefix": per sample, a uniform string of length n-1 is drawn and
      the growth is averaged over all sigma choices of prepended first
      symbol, i.e. the exact conditional mean given the tail.

    Both regimes estimate the same expectation; the second matches the
    prepend-a-random-symbol construction and has lower variance.
    """
    _check_sampling(sigma, mode, samples, n)
    if n < 1:
        raise ValueError(f"length must be at least 1, got {n}")
    if mode == "exhaustive":
        _check_digits(sigma, n, n)  # the mean's numerator is at most n * sigma^n
        exact = exact_expected_growth(n, sigma)
        return [
            ExpectationRow(
                sigma=sigma,
                n=n,
                mode="exhaustive",
                regime="uniform",
                samples=sigma**n,
                mean=float(exact),
                stderr=0.0,
                mean_exact=exact,
            )
        ]
    rng = new_rng(seed)
    uniform = _int_mean_stderr(
        list(map(growth_of_symbols, block.tolist())) for block in _sample_blocks(n, sigma, samples, rng)
    )
    prefix = _quotient_mean_stderr(
        sigma,
        ([sum(growth_of_symbols([c, *tail]) for c in range(1, sigma + 1)) for tail in block.tolist()]
         for block in _sample_blocks(n - 1, sigma, samples, rng)),
    )
    return [
        ExpectationRow(
            sigma=sigma,
            n=n,
            mode="montecarlo",
            regime=regime,
            samples=samples,
            mean=mean,
            stderr=stderr,
        )
        for regime, (mean, stderr) in (("uniform", uniform), ("prefix", prefix))
    ]


def _exact_expected_sizes(n_max: int, sigma: int) -> list[Fraction]:
    """exact_expected_size(n, sigma) for every n = 1..n_max, at index n,
    from one counting.growth_counts_up_to pass."""
    from fractions import Fraction

    counts = counting.growth_counts_up_to(n_max, sigma)
    sizes = [Fraction(0), Fraction(3)]  # index 0 is unused
    growth_sum = Fraction(0)
    for length in range(2, n_max + 1):
        growth_sum += _mean_growth(counts[length], sigma)
        sizes.append(length + 2 + growth_sum)
    return sizes


def exact_expected_size(n: int, sigma: int) -> Fraction:
    """Exact mean node count of the simple tree over all sigma^n strings.

    By the growth-sum identity (trees.growth_sum_identity), the simple tree
    of s has n + 2 + sum over m = 1..n-1 of growth(s[m..n]) nodes. If s is
    uniform over all sigma^n strings, its suffix s[m..n] of length
    L = n - m + 1 is uniform over all sigma^L strings, so by linearity of
    expectation
        E[nodes(n)] = n + 2 + sum_{L=2..n} E[growth(L)],
    and every E[growth(L)] is exact from one counting.growth_counts_up_to
    pass. No string is enumerated; n above counting.MAX_EXACT_N is refused
    before any work.
    """
    return _exact_expected_sizes(n, sigma)[n]


def expected_size(
    n_list: Sequence[int], sigma: int, *,
    mode: str = "montecarlo", samples: int = 1000, seed: int = 1,
) -> list[SizeRow]:
    """Mean simple-tree node count for each n in n_list, with mean/n^2.

    Monte Carlo samples come from _sample_blocks, and each block is
    counted by one trees.simple_tree_sizes call: no tree is built. Only
    the count, sum and sum of squares of the sizes are kept, so memory
    does not grow with samples. Exhaustive means come from one counting
    pass up to the largest n.
    """
    _check_sampling(sigma, mode, samples, max(n_list, default=0))
    if not n_list:
        raise ValueError("expected-size needs at least one n")
    if list(n_list) != sorted(n_list):
        raise ValueError("n_list must be ascending")
    if n_list[0] < 1:
        raise ValueError(f"length must be at least 1, got {n_list[0]}")
    if mode == "exhaustive":
        # a mean's denominator divides sigma^n, and no tree has (n + 1)^2 nodes
        _check_digits(sigma, n_list[-1], (n_list[-1] + 1) ** 2)
        sizes = _exact_expected_sizes(n_list[-1], sigma)
        return [
            SizeRow(
                sigma=sigma,
                n=n,
                mode="exhaustive",
                samples=sigma**n,
                mean=float(sizes[n]),
                stderr=0.0,
                mean_over_n2=float(sizes[n] / n**2),
                mean_exact=sizes[n],
            )
            for n in n_list
        ]
    rows = []
    rng = new_rng(seed)
    for n in n_list:
        mean, stderr = _int_mean_stderr(
            trees.simple_tree_sizes(block).tolist() for block in _sample_blocks(n, sigma, samples, rng)
        )
        rows.append(
            SizeRow(
                sigma=sigma,
                n=n,
                mode="montecarlo",
                samples=samples,
                mean=mean,
                stderr=stderr,
                mean_over_n2=mean / n**2,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Verification sweep: one registry of checks, shared with the acceptance gate
# ---------------------------------------------------------------------------


def _reference_table() -> tuple[bool, str]:
    """The cells where the reference table disagrees with the recurrence
    are exactly the KNOWN_ERRATA cells, and both errata have the shape
    they are documented to have."""
    mu = counting.count_aperiodic
    table = counting.REFERENCE_APERIODIC_TABLE
    mismatches = {
        (sigma, j)
        for sigma, row in table.items()
        for j, published in enumerate(row, start=1)
        if published != mu(j, sigma)
    }
    errata = set().union(*counting.KNOWN_ERRATA.values())
    shift_ok = table[2] == tuple(mu(j, 2) for j in (1, 3, 4, 5, 6, 7, 8, 9))
    digit_ok = table[3][7] * 10 == mu(8, 3)
    ok = mismatches == errata and shift_ok and digit_ok
    return ok, (
        f"{len(mismatches)} mismatching cells, all explained by errata {sorted(counting.KNOWN_ERRATA)}"
        if ok
        else f"unexplained mismatches: {sorted(mismatches - errata)}, errata cells that match: "
        f"{sorted(errata - mismatches)}, errata shapes hold: {shift_ok and digit_ok}"
    )


def _prime_power_closed_form() -> tuple[bool, str]:
    # every prime power p^t <= 32; 2^5 = 32 is the largest exponent
    powers = [(p, t) for p in range(2, 33) if counting.is_prime(p) for t in range(1, 6) if p**t <= 32]
    bad = [
        (p, t, sigma)
        for p, t in powers
        for sigma in range(2, 6)
        if counting.aperiodic_prime_power(p, t, sigma) != counting.count_aperiodic(p**t, sigma)
    ]
    ok = not bad
    return ok, "matches the recurrence for all prime powers <= 32, sigma 2..5" if ok else f"failures: {bad}"


def _aperiodic_count_bounds() -> tuple[bool, str]:
    bad = []
    for sigma in range(2, 7):
        for j in range(1, 21):
            mu = counting.count_aperiodic(j, sigma)
            if j > 1 and mu > sigma**j - sigma:
                bad.append(("upper", sigma, j))
            if mu < sigma * (sigma - 1) ** (j - 1):
                bad.append(("lower", sigma, j))
    ok = not bad
    return ok, (
        "sigma^j - sigma above, sigma(sigma-1)^(j-1) below, sigma 2..6, j 1..20" if ok else f"failures: {bad}"
    )


def _growth_bound_caps() -> tuple[bool, str]:
    bad = []
    for sigma in range(2, 6):
        for k in range(1, 21):
            if counting.growth_bound(k, sigma) > k * sigma**k:
                bad.append(("cap", sigma, k))
        for m in range(1, 21):
            if counting.growth_bound_prefix_sum(m, sigma) > (m + 1) * sigma ** (m + 1):
                bad.append(("prefix", sigma, m))
    ok = not bad
    return ok, (
        "bound <= k*sigma^k and prefix sums <= (m+1)*sigma^(m+1), sigma 2..5, up to 20" if ok else f"failures: {bad}"
    )


def _aperiodic_bruteforce(*, limit: int = 1 << 16) -> tuple[bool, str]:
    """Enumeration against the recurrence for every sigma in (2, 3) and
    every length j with sigma^j <= limit."""
    bad = []
    pairs = 0
    for sigma in (2, 3):
        j = 1
        while sigma**j <= limit:
            pairs += 1
            if counting.count_aperiodic_bruteforce(j, sigma) != counting.count_aperiodic(j, sigma):
                bad.append((sigma, j))
            j += 1
    ok = not bad
    return ok, f"enumeration matches the recurrence on {pairs} (sigma, j) pairs" if ok else f"failures: {bad}"


def _growth_count_bound() -> tuple[bool, str]:
    checked = 0
    bad = []
    for sigma, k_max, n_max in ((2, 5, 12), (3, 3, 7)):
        pairs, failures = counting.check_growth_bound(sigma, k_max=k_max, n_max=n_max)
        checked += pairs
        bad += [(sigma, *failure) for failure in failures]
    ok = not bad
    return ok, (
        f"count == bound on {checked} (n, k) pairs; histograms sum to sigma^n and equal growth_counts"
        if ok
        else f"failures (sigma, kind, n[, k]): {bad[:4]}"
    )


def _growth_ground_truth() -> tuple[bool, str]:
    cases = [("aabccb", 5), ("abcdefabcdab", 8)]
    bad = []
    for text, expected in cases:
        s = from_text(text)
        via_tree = trees.growth_via_tree(s)
        via_lcp = trees.growth_via_lcp(s)
        if via_tree != expected or via_lcp != expected:
            bad.append((text, expected, via_tree, via_lcp))
    ok = not bad
    return ok, "growth(aabccb)=5 and growth(abcdefabcdab)=8 by both routes" if ok else f"failures: {bad}"


def _reference_trees() -> tuple[bool, str]:
    s = from_text("aabccb")
    naive = trees.build_suffix_tree(s)
    compact = trees.build_compact_tree(s)
    expected_labels = sorted(["c", "b", "a", "b$", "cb$", "ccb$", "$", "bccb$", "abccb$"])
    same = compact == trees.compact_tree_via_simple(s)
    ok = (
        naive.node_count == 25
        and naive.internal_count == 19
        and compact.node_count == 10
        and sorted(compact.edge_labels()) == expected_labels
        and same
    )
    return ok, (
        "simple tree of aabccb has 25 nodes; compact tree has 10 nodes with the expected labels "
        "and equals the collapsed simple tree"
        if ok
        else f"nodes {naive.node_count}/{compact.node_count}, labels {sorted(compact.edge_labels())}, "
        f"equals the collapsed simple tree: {same}"
    )


def _tree_identities(*, sizes: tuple[tuple[int, int], ...] = ((2, 10), (3, 7))) -> tuple[bool, str]:
    """Every string of length 2..n_max over sigma symbols, for each
    (sigma, n_max) in sizes."""
    bad = []
    strings = 0
    for sigma, n_max in sizes:
        alphabet = Alphabet(sigma)
        for n in range(2, n_max + 1):
            for symbols in enumerate_strings(n, sigma):
                s = Str(symbols, alphabet)
                strings += 1
                if trees.growth_via_tree(s) != trees.growth_via_lcp(s):
                    bad.append(("growth", str(s)))
                    continue
                if len(set(trees.growth_sum_identity(s))) != 1:
                    bad.append(("identity", str(s)))
                    continue
                compact = trees.build_compact_tree(s)
                if compact != trees.compact_tree_via_simple(s):
                    bad.append(("compact-oracle", str(s)))
                if compact.node_count > 2 * n:
                    bad.append(("compact-size", str(s)))
                if 1 in map(len, compact.children[1:]):  # a unary node below the root
                    bad.append(("compact-degree", str(s)))
    ok = not bad
    return ok, (
        f"growth routes agree, node counts match the growth-sum form and compact trees "
        f"equal the collapsed simple tree on {strings} strings"
        if ok
        else f"failures: {bad[:4]}"
    )


def _search_vs_scan(
    *, seed: int = 1, strings: int = 20, n_max: int = 60, patterns: int = 10, pattern_max: int = 8
) -> tuple[bool, str]:
    """For sigma in (2, 4), `strings` random strings of length 2..n_max,
    each searched for `patterns` patterns of length 1..pattern_max: half
    cut from the string, half random."""
    rng = new_rng(seed)
    bad = []
    pairs = 0
    built = 0
    for sigma in (2, 4):
        for _ in range(strings):
            n = int(rng.integers(2, n_max + 1))
            s = random_string(n, sigma, rng)
            tree = trees.build_compact_tree(s)
            built += 1
            if tree != trees.compact_tree_via_simple(s):
                bad.append((str(s), "compact-oracle"))
            for _ in range(patterns):
                plen = int(rng.integers(1, min(n, pattern_max) + 1))
                if rng.integers(0, 2) == 0:
                    start = int(rng.integers(1, n - plen + 2))
                    pattern = s.sub(start, start + plen - 1)
                else:
                    pattern = random_string(plen, sigma, rng)
                pairs += 1
                if trees.find_occurrences(tree, pattern) != trees.scan_occurrences(s, pattern):
                    bad.append((str(s), str(pattern)))
    ok = not bad
    return ok, (
        f"tree search equals direct scan on {pairs} pairs and the {built} compact trees "
        f"equal the collapsed simple tree"
        if ok
        else f"failures: {bad[:4]}"
    )


#: Every check `verify` runs, by name, in the order it prints them. Each
#: returns (ok, detail); its keyword defaults are the sizes `verify` runs
#: it at, and callers may pass larger ones.
CHECKS: dict[str, Callable[..., tuple[bool, str]]] = {
    "aperiodic-reference-table": _reference_table,
    "prime-power-closed-form": _prime_power_closed_form,
    "aperiodic-count-bounds": _aperiodic_count_bounds,
    "growth-bound-caps": _growth_bound_caps,
    "aperiodic-bruteforce": _aperiodic_bruteforce,
    "growth-count-bound": _growth_count_bound,
    "growth-ground-truth": _growth_ground_truth,
    "reference-trees": _reference_trees,
    "tree-identities": _tree_identities,
    "search-vs-scan": _search_vs_scan,
}


def run_verification(seed: int = 1) -> dict[str, tuple[bool, str]]:
    """{name: (ok, detail)} for every check in CHECKS, in CHECKS order, at
    its default sizes, with seed given to search-vs-scan, the one check
    that samples.

    Mathematical violations show up as failed checks (the CLI maps them
    to a nonzero exit), never as exceptions.
    """
    return {
        name: check(seed=seed) if check is _search_vs_scan else check()
        for name, check in CHECKS.items()
    }
