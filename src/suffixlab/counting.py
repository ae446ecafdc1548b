"""Exact counting of aperiodic strings and of strings by growth.

Everything here is integer arithmetic on Python ints, so the counts and
the inequalities between them are exact at any size. Growth counts come
by two independent routes: growth_histogram enumerates every string, and
growth_counts sums over prefix autocorrelation classes without
enumerating any. Both refuse sizes above an explicit budget before
doing any work.

numpy, which only the brute-force oracle uses, is imported there, so
importing this module does not load it.
"""

from __future__ import annotations

from functools import cache

from .strings import enumerate_strings

# The growth kernel; growth_histogram calls it through this module
# attribute, so it can be wrapped or replaced from outside.
from .strings import growth_of_symbols as growth_of_digits

#: Largest number of strings an enumeration is allowed to touch by default.
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


def count_aperiodic_bruteforce(j: int, sigma: int, budget: int = DEFAULT_BUDGET) -> int:
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
    if required > budget:
        raise EnumerationBudgetError(required, budget)
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
    """Upper bound on the number of length-n strings with growth k, any n >= 2k.

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


def growth_bound_prefix_sum(m: int, sigma: int) -> int:
    """sum_{k=1}^{m} growth_bound(k, sigma); always <= (m+1) * sigma^(m+1)."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    return sum(growth_bound(k, sigma) for k in range(1, m + 1))


# ---------------------------------------------------------------------------
# Exhaustive growth histograms
# ---------------------------------------------------------------------------


def growth_histogram(n: int, sigma: int, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Exact counts {k: number of length-n strings with growth k} for k = 1..n,
    by enumerating all sigma^n strings."""
    if n < 1:
        raise ValueError(f"length must be at least 1, got {n}")
    if sigma < 1:
        raise ValueError(f"alphabet size must be at least 1, got {sigma}")
    total = sigma**n
    if total > budget:
        raise EnumerationBudgetError(total, budget)
    hist = [0] * (n + 1)
    for symbols in enumerate_strings(n, sigma):
        hist[growth_of_digits(symbols)] += 1
    return {k: hist[k] for k in range(1, n + 1)}


# ---------------------------------------------------------------------------
# Growth counts by autocorrelation classes
# ---------------------------------------------------------------------------


def _class_counts(length: int, r_max: int) -> list[int]:
    """comp(length, T) for every set T of periods drawn from 1..r_max.

    T is a bitmask with bit p-1 standing for period p; comp counts the
    classes of positions 0..length-1 under i ~ i+p for p in T, so exactly
    sigma^comp strings of that length have every period in T. Each set
    extends the set without its largest period by one union-find pass;
    a class's root is its smallest position, so the stored labels are
    already a flat forest.
    """
    labels = [list(range(length))]
    comps = [length]
    for mask in range(1, 1 << r_max):
        p = mask.bit_length()
        base = mask ^ (1 << (p - 1))
        par = labels[base][:]
        comp = comps[base]
        for i in range(length - p):
            a = par[i]
            while par[a] != a:
                a = par[a]
            b = par[i + p]
            while par[b] != b:
                b = par[b]
            if a != b:
                comp -= 1
                if a < b:
                    par[b] = a
                else:
                    par[a] = b
        for i in range(length):
            par[i] = par[par[i]]
        labels.append(par)
        comps.append(comp)
    return comps


def _prefix_unique_count(n: int, length: int, sigma: int) -> int:
    """N(length): length-n strings whose prefix of that length occurs
    nowhere else in them, for 1 <= length < n.

    With r = n - length, Guibas and Odlyzko's generating function counts
    the strings that start with w and contain w only there as
    [z^r] 1 / (z^length [length <= r] + (1 - sigma z) c_w(z)), where
    c_w(z) = 1 + sum of z^p over the periods p of w. Periods above
    r_max = min(r, length - 1) cannot reach z^r, so w only matters through
    its period set within 1..r_max. The number of w with each exact set
    follows from the counts sigma^comp of _class_counts by a superset
    Moebius transform.
    """
    r = n - length
    r_max = min(r, length - 1)
    size = 1 << r_max
    pop = [sigma**c for c in _class_counts(length, r_max)]
    for b in range(r_max):
        bit = 1 << b
        for mask in range(size):
            if not mask & bit:
                pop[mask] -= pop[mask | bit]
    total = 0
    for mask, count in enumerate(pop):
        if not count:
            continue
        # denominator d(z) up to z^r, then 1/d(z) by the usual recurrence
        periods = [p for p in range(1, r_max + 1) if mask >> (p - 1) & 1]
        d = [0] * (r + 1)
        for p in (0, *periods):
            d[p] += 1
            if p < r:
                d[p + 1] -= sigma
        if length <= r:
            d[length] += 1
        terms = [(i, c) for i, c in enumerate(d) if i and c]
        inv = [1] + [0] * r
        for m in range(1, r + 1):
            inv[m] = -sum(c * inv[m - i] for i, c in terms if i <= m)
        total += count * inv[r]
    return total


def growth_counts(n: int, sigma: int, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Exact counts {k: number of length-n strings with growth k} for k = 1..n,
    equal to growth_histogram(n, sigma) but found without enumerating strings.

    A string has growth at least k exactly when its prefix of length
    n - k + 1 occurs nowhere else in it, so count(k) = N(n-k+1) - N(n-k)
    with N(n) = sigma^n, N(0) = 0 and the other N from
    _prefix_unique_count. Each prefix length visits at most 2^((n-1)/2)
    period sets, (n-1) * 2^((n-1)/2) in all, which for sigma >= 2 is below
    sigma^n; so the enumeration budget, checked as for growth_histogram,
    bounds this work too.
    """
    if n < 1:
        raise ValueError(f"length must be at least 1, got {n}")
    if sigma < 1:
        raise ValueError(f"alphabet size must be at least 1, got {sigma}")
    total = sigma**n
    if total > budget:
        raise EnumerationBudgetError(total, budget)
    if sigma == 1:
        # a^n is the only string; it shares n-1 symbols with its suffix
        # from position 2, so its growth is 1
        return {k: int(k == 1) for k in range(1, n + 1)}
    unique = [0] + [_prefix_unique_count(n, m, sigma) for m in range(1, n)] + [total]
    return {k: unique[n - k + 1] - unique[n - k] for k in range(1, n + 1)}


# ---------------------------------------------------------------------------
# Growth-bound verification sweep
# ---------------------------------------------------------------------------


def check_growth_bound(
    sigma: int,
    k_max: int,
    n_max: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, list[tuple]]:
    """Compare exhaustive growth counts against growth_bound.

    For every k <= k_max and every n with 2k <= n <= n_max the exhaustive
    count must not exceed the bound. Also checks, for every enumerated n,
    that the histogram sums to sigma^n (the growth values partition all
    strings) and that growth_counts, which enumerates nothing, returns the
    same histogram.

    Returns the number of (n, k) pairs compared and the failures:
    ("bound", n, k), ("partition", n) or ("route", n).
    """
    bounds = {k: growth_bound(k, sigma) for k in range(1, k_max + 1)}
    pairs = 0
    failures: list[tuple] = []
    for n in range(2, n_max + 1):
        hist = growth_histogram(n, sigma, budget=budget)
        if sum(hist.values()) != sigma**n:
            failures.append(("partition", n))
        if growth_counts(n, sigma, budget=budget) != hist:
            failures.append(("route", n))
        for k in range(1, min(k_max, n // 2) + 1):
            pairs += 1
            if hist[k] > bounds[k]:
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
