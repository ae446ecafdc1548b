"""Experiment drivers: seeded sampling, expectation estimates, count and
growth-count tables with the one CSV/JSON writer of their rows, and
the one-shot verification sweep behind `suffixlab verify`.

Sampling uses numpy's PCG64 generator. The algorithm is fixed and its
output stream documented, so a seed pins the sampled strings on every
platform; Monte Carlo commands are therefore byte-reproducible. numpy is
imported by new_rng, so commands that never sample do not load it.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from . import counting, trees
from .strings import Alphabet, Str, enumerate_strings, from_text

if TYPE_CHECKING:
    import numpy as np


def new_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator for all experiment sampling."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(seed))


def random_string(n: int, sigma: int, rng: np.random.Generator) -> Str:
    """String of n i.i.d. uniform symbols from 1..sigma."""
    if n < 1:
        raise ValueError(f"length must be at least 1, got {n}")
    if sigma < 1:
        raise ValueError(f"alphabet size must be at least 1, got {sigma}")
    symbols = rng.integers(1, sigma + 1, size=n)
    return Str(tuple(int(x) for x in symbols), Alphabet(sigma))


def _check_sigma(sigma: int) -> None:
    if sigma < 2:
        raise ValueError(f"experiments need sigma >= 2, got {sigma}")


def _check_sampling(sigma: int, mode: str, samples: int) -> None:
    _check_sigma(sigma)
    if mode not in ("montecarlo", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "montecarlo" and samples < 1:
        raise ValueError("montecarlo mode needs at least one sample")


# ---------------------------------------------------------------------------
# Row types and their one text writer (CSV and JSON share the cells)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountRow:
    """One line of a `mu` or `phi` table: j_or_n is set for aperiodic
    counts (length j), k for growth bounds."""

    sigma: int
    j_or_n: int | None
    k: int | None
    value: int


@dataclass(frozen=True)
class GrowthCountRow:
    """One line of the growth-count table: exhaustive count vs. bound."""

    sigma: int
    n: int
    k: int
    count: int
    bound: int
    n_ge_2k: bool
    holds: bool


@dataclass(frozen=True)
class ExpectationRow:
    """Mean growth (or node count) estimate for one (n, regime)."""

    sigma: int
    n: int
    mode: str
    regime: str
    samples: int
    mean: float
    stderr: float
    mean_exact: Fraction | None = None


@dataclass(frozen=True)
class SizeRow:
    """Mean simple-tree node count for one n, with the quadratic ratio."""

    sigma: int
    n: int
    mode: str
    samples: int
    mean: float
    stderr: float
    mean_over_n2: float
    mean_exact: Fraction | None = None


#: Cell text by the type of the value: floats via repr, exact fractions as p/q.
_ENCODE = {
    int: str,
    str: str,
    bool: lambda value: "true" if value else "false",
    float: repr,
    Fraction: lambda value: f"{value.numerator}/{value.denominator}",
    type(None): lambda value: "",
}


def _cell(value) -> str:
    return _ENCODE[type(value)](value)


def _row_dicts(row_type, rows) -> list[dict[str, str]]:
    names = [f.name for f in fields(row_type)]
    return [{name: _cell(getattr(row, name)) for name in names} for row in rows]


def rows_to_csv(row_type, rows) -> str:
    lines = [",".join(f.name for f in fields(row_type))]
    lines.extend(",".join(cells.values()) for cells in _row_dicts(row_type, rows))
    return "\n".join(lines) + "\n"


def rows_to_json(row_type, rows, **wrapper) -> str:
    """A JSON list of row objects; given wrapper fields, an object with
    those fields and the list under "rows"."""
    payload = _row_dicts(row_type, rows)
    if wrapper:
        payload = {**wrapper, "rows": payload}
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def aperiodic_table(sigma: int, max_j: int) -> list[CountRow]:
    """Aperiodic-string counts for j = 1..max_j."""
    if max_j < 1:
        raise ValueError(f"max_j must be at least 1, got {max_j}")
    return [
        CountRow(sigma, j, None, counting.count_aperiodic(j, sigma)) for j in range(1, max_j + 1)
    ]


def growth_bound_table(sigma: int, max_k: int) -> list[CountRow]:
    """Growth-count bounds for k = 1..max_k."""
    if max_k < 1:
        raise ValueError(f"max_k must be at least 1, got {max_k}")
    return [
        CountRow(sigma, None, k, counting.growth_bound(k, sigma)) for k in range(1, max_k + 1)
    ]


def growth_count_table(n: int, sigma: int, budget: int = counting.DEFAULT_BUDGET) -> list[GrowthCountRow]:
    """Exact growth counts for every k = 1..n, next to their bounds.

    The counts come from counting.growth_counts, which enumerates no
    strings; budget still refuses sigma^n above it.
    """
    _check_sigma(sigma)
    hist = counting.growth_counts(n, sigma, budget=budget)
    rows = []
    for k in range(1, n + 1):
        bound = counting.growth_bound(k, sigma)
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


def _mean_stderr(values) -> tuple[float, float]:
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, statistics.stdev(values) / math.sqrt(len(values))


def exact_expected_growth(n: int, sigma: int, budget: int = counting.DEFAULT_BUDGET) -> Fraction:
    """Exact mean growth over all sigma^n strings."""
    hist = counting.growth_counts(n, sigma, budget=budget)
    total = sum(k * c for k, c in hist.items())
    return Fraction(total, sigma**n)


def expected_growth(
    n: int, sigma: int, *,
    mode: str = "montecarlo", samples: int = 1000, seed: int = 1, budget: int = counting.DEFAULT_BUDGET,
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
    _check_sampling(sigma, mode, samples)
    if mode == "exhaustive":
        exact = exact_expected_growth(n, sigma, budget=budget)
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
    alphabet = Alphabet(sigma)
    uniform_vals = []
    for _ in range(samples):
        s = random_string(n, sigma, rng)
        uniform_vals.append(trees.growth_via_lcp(s))
    prefix_vals = []
    for _ in range(samples):
        if n == 1:
            tail: tuple[int, ...] = ()
        else:
            tail = random_string(n - 1, sigma, rng).symbols
        total = 0
        for c in range(1, sigma + 1):
            total += trees.growth_via_lcp(Str((c,) + tail, alphabet))
        prefix_vals.append(total / sigma)
    rows = []
    for regime, vals in (("uniform", uniform_vals), ("prefix", prefix_vals)):
        mean, stderr = _mean_stderr(vals)
        rows.append(
            ExpectationRow(
                sigma=sigma,
                n=n,
                mode="montecarlo",
                regime=regime,
                samples=samples,
                mean=mean,
                stderr=stderr,
            )
        )
    return rows


def exact_expected_size(n: int, sigma: int, budget: int = counting.DEFAULT_BUDGET) -> Fraction:
    """Exact mean node count of the simple tree over all sigma^n strings.

    By the growth-sum identity (trees.growth_sum_identity), the simple tree
    of s has n + 2 + sum over m = 1..n-1 of growth(s[m..n]) nodes. If s is
    uniform over all sigma^n strings, its suffix s[m..n] of length
    L = n - m + 1 is uniform over all sigma^L strings, so by linearity of
    expectation
        E[nodes(n)] = n + 2 + sum_{L=2..n} E[growth(L)],
    and each E[growth(L)] is exact from exact_expected_growth. No string is
    enumerated; sigma^n above the budget is still refused, and it bounds
    every shorter L too.
    """
    if n < 1:
        raise ValueError(f"length must be at least 1, got {n}")
    required = sigma**n
    if required > budget:
        raise counting.EnumerationBudgetError(required, budget)
    return n + 2 + sum(
        (exact_expected_growth(length, sigma, budget=budget) for length in range(2, n + 1)),
        Fraction(0),
    )


def expected_size(
    n_list: Sequence[int], sigma: int, *,
    mode: str = "montecarlo", samples: int = 1000, seed: int = 1, budget: int = counting.DEFAULT_BUDGET,
) -> list[SizeRow]:
    """Mean simple-tree node count for each n in n_list, with mean/n^2.

    Every sample is counted by simple_tree_size in O(n), so no quadratic
    tree is built; the counts equal build_suffix_tree(s).node_count exactly.
    """
    _check_sampling(sigma, mode, samples)
    if not n_list:
        raise ValueError("expected-size needs at least one n")
    if list(n_list) != sorted(n_list):
        raise ValueError("n_list must be ascending")
    rows = []
    rng = new_rng(seed) if mode == "montecarlo" else None
    for n in n_list:
        if mode == "exhaustive":
            exact = exact_expected_size(n, sigma, budget=budget)
            rows.append(
                SizeRow(
                    sigma=sigma,
                    n=n,
                    mode="exhaustive",
                    samples=sigma**n,
                    mean=float(exact),
                    stderr=0.0,
                    mean_over_n2=float(exact / n**2),
                    mean_exact=exact,
                )
            )
            continue
        vals = []
        for _ in range(samples):
            s = random_string(n, sigma, rng)
            vals.append(trees.simple_tree_size(s))
        mean, stderr = _mean_stderr(vals)
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}: {self.detail}"


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append("verification " + ("PASSED" if self.ok else "FAILED"))
        return out


@dataclass(frozen=True)
class Check:
    """One named correctness check. `run` returns (ok, detail); its keyword
    defaults are the sizes `verify` runs it at, and callers may pass larger
    ones."""

    name: str
    run: Callable[..., tuple[bool, str]]

    def __call__(self, **sizes) -> CheckResult:
        ok, detail = self.run(**sizes)
        return CheckResult(self.name, ok, detail)


def _reference_table() -> tuple[bool, str]:
    discrepancies = counting.reference_table_discrepancies()
    unknown = [d for d in discrepancies if not d.known]
    events = sorted({d.errata for d in discrepancies if d.known})
    # witness the two errata shapes explicitly
    mu = counting.count_aperiodic
    row2 = counting.REFERENCE_APERIODIC_TABLE[2]
    shift_ok = row2 == tuple(mu(j, 2) for j in (1, 3, 4, 5, 6, 7, 8, 9))
    digit_ok = counting.REFERENCE_APERIODIC_TABLE[3][7] * 10 == mu(8, 3)
    ok = not unknown and shift_ok and digit_ok and len(events) == 2
    return ok, (
        f"{len(discrepancies)} mismatching cells, all explained by errata {events}"
        if ok
        else f"{len(unknown)} unexplained mismatches: {unknown[:4]}"
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


def _growth_count_bound(*, budget: int = counting.DEFAULT_BUDGET) -> tuple[bool, str]:
    reports = [
        counting.check_growth_bound(2, k_max=5, n_max=12, budget=budget),
        counting.check_growth_bound(3, k_max=3, n_max=7, budget=budget),
    ]
    bad = [row for rep in reports for row in rep.violations]
    partition_bad = [(rep.sigma, n) for rep in reports for n in rep.partition_failures]
    route_bad = [(rep.sigma, n) for rep in reports for n in rep.route_failures]
    ok = not bad and not partition_bad and not route_bad
    checked = sum(len(rep.rows) for rep in reports)
    return ok, (
        f"count <= bound on {checked} (n, k) pairs; histograms sum to sigma^n and equal growth_counts"
        if ok
        else f"violations: {bad[:4]} partition failures: {partition_bad} route failures: {route_bad}"
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
    same = compact.layout() == trees.compact_tree_via_simple(s).layout()
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
                ident = trees.growth_sum_identity(s)
                if not ident.equal:
                    bad.append(("identity", str(s)))
                    continue
                compact = trees.build_compact_tree(s)
                if compact.layout() != trees.compact_tree_via_simple(s).layout():
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
            if tree.layout() != trees.compact_tree_via_simple(s).layout():
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


#: Every check `verify` runs, in the order it prints them.
CHECKS = (
    Check("aperiodic-reference-table", _reference_table),
    Check("prime-power-closed-form", _prime_power_closed_form),
    Check("aperiodic-count-bounds", _aperiodic_count_bounds),
    Check("growth-bound-caps", _growth_bound_caps),
    Check("aperiodic-bruteforce", _aperiodic_bruteforce),
    Check("growth-count-bound", _growth_count_bound),
    Check("growth-ground-truth", _growth_ground_truth),
    Check("reference-trees", _reference_trees),
    Check("tree-identities", _tree_identities),
    Check("search-vs-scan", _search_vs_scan),
)


def run_verification(seed: int = 1, budget: int = counting.DEFAULT_BUDGET) -> VerificationReport:
    """Every check in CHECKS at its default sizes, with seed and budget
    given to the checks that take them.

    Mathematical violations show up as failed checks (the CLI maps them
    to a nonzero exit), never as exceptions; budget problems raise.
    """
    settings = {"seed": seed, "budget": budget}
    report = VerificationReport()
    for check in CHECKS:
        takes = inspect.signature(check.run).parameters
        report.checks.append(check(**{k: v for k, v in settings.items() if k in takes}))
    return report
