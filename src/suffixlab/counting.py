"""Exact counting of aperiodic strings and of strings by growth.

Everything here is integer arithmetic on Python ints, so the counts and
the inequalities between them are exact at any size. Growth counts come
by two independent routes: growth_histogram enumerates every string, and
growth_counts sums over prefix autocorrelation classes without
enumerating any. Only the prefix lengths below n/2 need those classes;
from n/2 up the counts follow from growth_bound, which is exact there
(proved in growth_counts_up_to). Both routes refuse sizes above a limit
before doing any work:
the enumeration, sigma^n strings above DEFAULT_BUDGET; the classes,
n above the fixed cap MAX_EXACT_N.

numpy, which only the brute-force oracle uses, is imported there, so
importing this module does not load it.
"""

from __future__ import annotations

from functools import cache

from .strings import enumerate_strings

# The growth kernel; growth_histogram calls it through this module
# attribute, so it can be wrapped or replaced from outside.
from .strings import growth_of_symbols as growth_of_digits

#: Largest number of strings an enumeration is allowed to touch; the
#: guards read it at call time.
DEFAULT_BUDGET = 1 << 24

#: Strings tested per numpy block by count_aperiodic_bruteforce.
_BRUTEFORCE_BLOCK = 1 << 12


class EnumerationBudgetError(ValueError):
    """Raised when an exhaustive sweep would enumerate more strings than allowed."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration needs {required} strings, budget is {budget}")
        self.required = required
        self.budget = budget


def proper_divisors(j: int) -> list[int]:
    """Divisors of j smaller than j, ascending."""
    return [d for d in range(1, j // 2 + 1) if j % d == 0]


@cache
def count_aperiodic(j: int, sigma: int) -> int:
    """Number of aperiodic strings of length j over sigma symbols.

    Computed by the divisor recurrence: every string has a unique minimal
    period d | j whose first d symbols form an aperiodic string, so
    sigma^j splits as the sum of count_aperiodic(d, sigma) over d | j.
    """
    if j < 1:
        raise ValueError(f"length must be at least 1, got {j}")
    if sigma < 1:
        raise ValueError(f"alphabet size must be at least 1, got {sigma}")
    total = sigma**j
    for d in proper_divisors(j):
        total -= count_aperiodic(d, sigma)
    return total


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def aperiodic_prime_power(p: int, t: int, sigma: int) -> int:
    """Closed form for count_aperiodic(p**t, sigma): sigma^(p^t) - sigma^(p^(t-1)).

    Only valid for prime p; non-primes are rejected.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if t < 1:
        raise ValueError(f"exponent must be at least 1, got {t}")
    if sigma < 1:
        raise ValueError(f"alphabet size must be at least 1, got {sigma}")
    return sigma ** (p**t) - sigma ** (p ** (t - 1))


def count_aperiodic_bruteforce(j: int, sigma: int) -> int:
    """Count aperiodic strings by enumerating all sigma^j of them.

    Independent of the recurrence: each string is tested directly against
    the period definition. The strings are the integers x in
    range(sigma^j), read as j base-sigma digits, and x has period d (a
    proper divisor of j) exactly when it repeats its low d digits:
    x == (x mod sigma^d) * (1 + sigma^d + ... + sigma^(j-d)). The test runs
    on numpy blocks of _BRUTEFORCE_BLOCK strings. Exists to cross-check
    count_aperiodic.
    """
    import numpy as np

    if j < 1:
        raise ValueError(f"length must be at least 1, got {j}")
    if sigma < 1:
        raise ValueError(f"alphabet size must be at least 1, got {sigma}")
    required = sigma**j
    if required > DEFAULT_BUDGET:
        raise EnumerationBudgetError(required, DEFAULT_BUDGET)
    periods = [
        (sigma**d, sum(sigma ** (d * t) for t in range(j // d))) for d in proper_divisors(j)
    ]
    count = 0
    for start in range(0, required, _BRUTEFORCE_BLOCK):
        x = np.arange(start, min(start + _BRUTEFORCE_BLOCK, required), dtype=np.int64)
        periodic = np.zeros(len(x), dtype=bool)
        for block, repunit in periods:
            periodic |= x == x % block * repunit
        count += len(x) - int(np.count_nonzero(periodic))
    return count


def growth_bound(k: int, sigma: int) -> int:
    """The number of length-n strings with growth k, for any n >= 2k
    (proved in growth_counts_up_to); for n < 2k, an upper bound.

    Exact evaluation of
        sum_{j=1}^{k-1} count_aperiodic(j, sigma) * (sigma-1) * sigma^(k-j-1)
        + count_aperiodic(k, sigma).
    """
    if k < 1:
        raise ValueError(f"growth must be at least 1, got {k}")
    if sigma < 2:
        raise ValueError(f"alphabet size must be at least 2, got {sigma}")
    total = count_aperiodic(k, sigma)
    for j in range(1, k):
        total += count_aperiodic(j, sigma) * (sigma - 1) * sigma ** (k - j - 1)
    return total


def growth_bounds(k_max: int, sigma: int) -> list[int]:
    """[growth_bound(k, sigma) for k = 1..k_max], in k_max big-int steps.

    With S(k) = sum_{j=1}^{k-1} count_aperiodic(j, sigma) * sigma^(k-j-1),
    growth_bound(k, sigma) = count_aperiodic(k, sigma) + (sigma-1) * S(k),
    and S(1) = 0, S(k+1) = sigma * S(k) + count_aperiodic(k, sigma).
    """
    if sigma < 2:
        raise ValueError(f"alphabet size must be at least 2, got {sigma}")
    bounds = []
    running = 0
    for k in range(1, k_max + 1):
        aperiodic = count_aperiodic(k, sigma)
        bounds.append(aperiodic + (sigma - 1) * running)
        running = sigma * running + aperiodic
    return bounds


def growth_bound_prefix_sum(m: int, sigma: int) -> int:
    """sum_{k=1}^{m} growth_bound(k, sigma); always <= (m+1) * sigma^(m+1)."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    return sum(growth_bounds(m, sigma))


# ---------------------------------------------------------------------------
# Exhaustive growth histograms
# ---------------------------------------------------------------------------


def growth_histogram(n: int, sigma: int) -> dict[int, int]:
    """Exact counts {k: number of length-n strings with growth k} for k = 1..n,
    by enumerating all sigma^n strings."""
    if n < 1:
        raise ValueError(f"length must be at least 1, got {n}")
    if sigma < 1:
        raise ValueError(f"alphabet size must be at least 1, got {sigma}")
    total = sigma**n
    if total > DEFAULT_BUDGET:
        raise EnumerationBudgetError(total, DEFAULT_BUDGET)
    hist = [0] * (n + 1)
    for symbols in enumerate_strings(n, sigma):
        hist[growth_of_digits(symbols)] += 1
    return {k: hist[k] for k in range(1, n + 1)}


# ---------------------------------------------------------------------------
# Growth counts by autocorrelation classes
# ---------------------------------------------------------------------------

#: Largest n the counting route answers. At n = 128 and sigma = 2, as fresh
#: processes on a 2-CPU Xeon with Python 3.11.7 (median of 5; single runs
#: ranged over 1.1-2.2 s on that shared host), `omega --n 128` takes
#: 1.28 s and 23.3 MB peak RSS, and `expect-size --mode exhaustive
#: --n-list 64,128` 1.33 s and 23.9 MB; at n = 64, about 0.05 s. The
#: cost follows the number of period sets below length n/2, which grows
#: faster than any power of n (OEIS A005434), and their series. With the
#: cap lifted, n = 192 took 10.1 s and 87.7 MB, and n = 256 took 60.5 s
#: and 349.5 MB, the populations to length 127 setting the peak.
MAX_EXACT_N = 128


def period_set_populations(length_max: int, sigma: int) -> list[dict[int, int]]:
    """pops[length][T]: the number of words of that length over sigma
    symbols whose set of proper periods is exactly T, for every length
    0..length_max and every T that occurs.

    T is a bitmask with bit p-1 standing for period p. Only the sets that
    occur are built, by smallest period p (Guibas and Odlyzko, 1981;
    Rivals and Rahmann, 2003). A word w with period p has the border
    u = w[1..length-p], and q > p is a period of w exactly when q - p is a
    period of u; so the sets with smallest period p are {p} | (p + T')
    for period sets T' of length - p:
    - if 2p <= length, w is fixed by u, which must then have period p
      itself (unless length - p = p); p is w's smallest period exactly
      when no proper divisor of p is a period of u (Fine and Wilf), and
      pop(T) = pop(T');
    - if 2p > length, w = u x u with x free, and pop(T) is
      sigma^(2p-length) * pop(T') less the words of that shape whose
      smallest period is below p. Those have p as a period and p + T' as
      their periods above p, so each set is filed, once computed, under
      every period q > length/2 it has above its minimum, keyed by its
      periods above q shifted by q.
    The empty set takes the words left over.

    Each length's dict is in the order of the period lists, that is of
    the sets' reversed bit strings: the empty set first, then the sets
    by smallest period p descending, those with the same p in the order
    of their borders' sets at length - p.
    """
    pops = [{0: 1}]
    # divisor_masks[p]: the mask of p's proper divisors, for every p with 2p <= length_max
    divisor_masks = [sum(1 << (d - 1) for d in proper_divisors(p)) for p in range(length_max // 2 + 1)]
    # containing[m][p]: the (T', pop) of length m with p in T', for the
    # p <= length_max - m that the recursion can still ask for
    containing: list[list[list[tuple[int, int]]]] = [[]]
    for length in range(1, length_max + 1):
        groups = []  # groups[p - 1]: the (T, pop) with smallest period p
        buckets: list[dict[int, int]] = [{} for _ in range(length)]
        half = length // 2
        for p in range(1, length):
            m = length - p
            bit = 1 << (p - 1)
            if 2 * p <= length:
                bad = divisor_masks[p]
                sources = pops[m].items() if m == p else containing[m][p]
                new = [((t << p) | bit, c) for t, c in sources if not t & bad]
            else:
                factor = sigma ** (2 * p - length)
                bucket = buckets[p]
                new = [((t << p) | bit, factor * c - bucket.get(t, 0)) for t, c in pops[m].items()]
            groups.append(new)
            low_q = max(p, half)
            for t, c in new:
                rest = t >> low_q
                while rest:
                    low = rest & -rest
                    q = low_q + low.bit_length()
                    bucket = buckets[q]
                    bucket[t >> q] = bucket.get(t >> q, 0) + c
                    rest ^= low
        sets = {0: 0}
        for new in reversed(groups):
            sets.update(new)
        sets[0] = sigma**length - sum(sets.values())
        pops.append(sets)
        reach = min(length - 1, length_max - length)
        index: list[list[tuple[int, int]]] = [[] for _ in range(reach + 1)]
        if reach:  # at reach 0, that is at length 1 and length_max, nothing is filed
            for t, c in sets.items():
                rest = t & ((1 << reach) - 1)
                while rest:
                    low = rest & -rest
                    index[low.bit_length()].append((t, c))
                    rest ^= low
        containing.append(index)
    return pops


def growth_counts_up_to(n_max: int, sigma: int) -> list[dict[int, int]]:
    """growth_counts(n, sigma) for every n = 1..n_max from one pass, at
    index n; index 0 holds an empty dict.

    A string has growth at least k exactly when its prefix of length
    n - k + 1 occurs nowhere else in it, so count(k) = N(n-k+1) - N(n-k),
    where N(length) counts the length-n strings whose prefix of that
    length occurs only once, N(n) = sigma^n and N(0) = 0.

    For n >= 2k, count(k) = B(k) = growth_bound(k, sigma). With l = n - k,
    s has growth k exactly when its prefix of length l recurs, first at a
    shift p <= k, and its prefix of length l + 1 does not. Then s[:l+p]
    repeats u = s[:p], and u is aperiodic, or a shift below p would do.
    If p < k, s[l+p] != s[l], or the longer prefix recurs at p, and
    k - p - 1 free symbols follow. These choices give the terms of B(k):
    count_aperiodic(p, sigma) * (sigma - 1) * sigma^(k-p-1) for p < k and
    count_aperiodic(k, sigma), so count(k) <= B(k) at every n. If l >= k,
    each choice has growth k: if the prefix of length l recurs at a shift
    q <= k, s[:l + min(p, q)] has periods p and q and length >= p + q, so
    by Fine and Wilf it has period gcd(p, q), which divides p; as u is
    aperiodic, p | q. So q >= p, and if the prefix of length l + 1
    recurred at q, p < q < k and s[l+p] = s[l+p-q] = s[l], by period q
    and then p.

    Summing, N(length) = sigma^n - B(1) - ... - B(n - length) for every
    length >= n/2; as B(k) = S(k+1) - S(k) with S from growth_bounds, the
    sum is S(n - length + 1). Only the lengths below n/2 need classes. With
    r = n - length > length, Guibas and Odlyzko's generating function
    counts the strings that start with a word w and contain it only
    there as [z^r] 1 / (z^length + (1 - sigma z) c_w(z)), where
    c_w(z) = 1 + sum of z^p over the periods p of w. Every period of w
    is below r, so the classes of a length are its period sets, from
    period_set_populations. Each class is expanded once, to
    r = n_max - length, and its coefficient r counts toward
    n = length + r. Only the coefficients some n reads are accumulated:
    r > length here, and for growth_counts, which reads one n, r = n -
    length alone.

    The coefficients f[0..m] of a class depend only on its periods up to
    m. period_set_populations hands the classes over in the order of
    their period lists, so each shares f below its first period that
    differs from the previous class's, and only the rest is recomputed.
    That period is below length, and every coefficient read has r >
    length, so each class recomputes all it reads and adds them, times
    its words, to the totals at once. n_max above MAX_EXACT_N is refused
    before any work.
    """
    return [{}] + _growth_counts_from(1, n_max, sigma)


def _growth_counts_from(n_min: int, n_max: int, sigma: int) -> list[dict[int, int]]:
    """growth_counts(n, sigma) for n = n_min..n_max, at index n - n_min,
    by the one pass growth_counts_up_to describes."""
    if n_max < 1:
        raise ValueError(f"length must be at least 1, got {n_max}")
    if sigma < 1:
        raise ValueError(f"alphabet size must be at least 1, got {sigma}")
    if n_max > MAX_EXACT_N:
        raise ValueError(f"exact counts reach n = {MAX_EXACT_N}, got n = {n_max}")
    pops = period_set_populations((n_max - 1) // 2, sigma)
    # unique[n - n_min][length] = N(length) for strings of length n; the
    # bound sums give it from length ceil(n/2) up, and the series below it
    sums = [0]  # sums[j] = S(j + 1)
    for j in range(1, n_max // 2 + 1):
        sums.append(sigma * sums[-1] + count_aperiodic(j, sigma))
    unique = [
        [0] * ((n + 1) // 2) + [sigma**n - b for b in reversed(sums[: n // 2 + 1])]
        for n in range(n_min, n_max + 1)
    ]
    for length in range(1, len(pops)):
        classes = pops[length]
        r_top = n_max - length
        need = max(length + 1, n_min - length)  # the first coefficient read
        # f = 1/d(z) with d = z^length + (1 - sigma z) c(z); g = (1 - sigma z) f
        # satisfies c(z) g = 1 - z^length f, so each step costs one term per
        # period. A class recomputes f from its first period that differs
        # from the previous class's; that period is below length < need, so
        # every coefficient read is the class's own, and it adds its words
        # times each to the totals.
        f = [1] + [0] * r_top
        g = [1] + [0] * r_top
        previous = None
        # the classes come in period-list order (period_set_populations)
        for t, population in classes.items():
            changed = 1 if previous is None else t ^ previous
            first = (changed & -changed).bit_length()
            periods = []
            rest = t
            while rest:
                periods.append((rest & -rest).bit_length())
                rest &= rest - 1
            for m in range(first, r_top + 1):
                x = -f[m - length] if m >= length else 0
                for p in periods:
                    if p > m:
                        break
                    x -= g[m - p]
                g[m] = x
                f[m] = x + sigma * f[m - 1]
            for r in range(need, r_top + 1):
                unique[length + r - n_min][length] += population * f[r]
            previous = t
    return [
        {k: row[n - k + 1] - row[n - k] for k in range(1, n + 1)}
        for n, row in enumerate(unique, start=n_min)
    ]


def growth_counts(n: int, sigma: int) -> dict[int, int]:
    """Exact counts {k: number of length-n strings with growth k} for k = 1..n,
    equal to growth_histogram(n, sigma) but found without enumerating strings.

    The work depends on n, not on sigma^n: it follows the number of period
    sets of lengths below n/2. n above MAX_EXACT_N is refused before any
    work.
    """
    return _growth_counts_from(n, n, sigma)[0]


# ---------------------------------------------------------------------------
# Growth-bound verification sweep
# ---------------------------------------------------------------------------


def check_growth_bound(sigma: int, k_max: int, n_max: int) -> tuple[int, list[tuple]]:
    """Compare exhaustive growth counts against growth_bound.

    For every k <= k_max and every n with 2k <= n <= n_max the exhaustive
    count must equal the bound. Also checks, for every enumerated n,
    that the histogram sums to sigma^n (the growth values partition all
    strings) and that growth_counts, which enumerates nothing, returns the
    same histogram; its histograms for every n come from one
    growth_counts_up_to pass.

    Returns the number of (n, k) pairs compared and the failures:
    ("bound", n, k), ("partition", n) or ("route", n).
    """
    bounds = dict(enumerate(growth_bounds(k_max, sigma), start=1))
    pairs = 0
    failures: list[tuple] = []
    counts = growth_counts_up_to(n_max, sigma)
    for n in range(2, n_max + 1):
        hist = growth_histogram(n, sigma)
        if sum(hist.values()) != sigma**n:
            failures.append(("partition", n))
        if counts[n] != hist:
            failures.append(("route", n))
        for k in range(1, min(k_max, n // 2) + 1):
            pairs += 1
            if hist[k] != bounds[k]:
                failures.append(("bound", n, k))
    return pairs, failures


# ---------------------------------------------------------------------------
# Reference table
# ---------------------------------------------------------------------------

#: Hand-transcribed reference values for count_aperiodic(j, sigma),
#: sigma 2..5 and j 1..8, kept exactly as printed in the source they were
#: copied from. Two entries are transcription defects; see KNOWN_ERRATA.
REFERENCE_APERIODIC_TABLE = {
    2: (2, 6, 12, 30, 54, 126, 240, 504),
    3: (3, 6, 24, 72, 240, 696, 2184, 648),
    4: (4, 12, 60, 240, 1020, 4020, 16380, 65280),
    5: (5, 20, 120, 600, 3120, 15480, 78120, 390000),
}

#: Documented defects in the reference table. The recurrence (cross-checked
#: by exhaustive enumeration) is authoritative:
#:   - the sigma=2 row is shifted: it prints the counts for lengths
#:     1, 3, 4, ..., 9 instead of 1..8 (one known errata event);
#:   - the sigma=3, j=8 cell prints 648 where the count is 6480 (a
#:     dropped digit).
KNOWN_ERRATA = {
    "sigma2_row_shifted": {(2, j) for j in range(2, 9)},
    "sigma3_j8_dropped_digit": {(3, 8)},
}
