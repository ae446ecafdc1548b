"""Experiment drivers: seeded sampling, expectation estimates, count and
growth-count tables with the one CSV/JSON serializer of their rows, and
the one-shot verification sweep behind `suffixlab verify`.

Sampling uses numpy's PCG64 generator. The algorithm is fixed and its
output stream documented, so a seed pins the sampled strings on every
platform; Monte Carlo commands are therefore byte-reproducible. numpy is
imported by new_rng, so commands that never sample do not load it.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, get_args, get_type_hints

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


@dataclass
class ExperimentConfig:
    sigma: int = 2
    n: int | None = None
    n_list: tuple[int, ...] = ()
    samples: int = 1000
    seed: int = 1
    mode: str = "montecarlo"
    budget: int = counting.DEFAULT_BUDGET
    workers: int = 1

    def validate(self) -> None:
        if self.sigma < 2:
            raise ValueError(f"experiments need sigma >= 2, got {self.sigma}")
        if self.mode not in ("montecarlo", "exhaustive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "montecarlo" and self.samples < 1:
            raise ValueError("montecarlo mode needs at least one sample")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


# ---------------------------------------------------------------------------
# Row types and their one text serializer (CSV and JSON share the cells)
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


#: Cell text by the type of the value: floats via repr, so parsing returns
#: the identical value, and exact fractions as p/q.
_ENCODE = {
    int: str,
    str: str,
    bool: lambda value: "true" if value else "false",
    float: repr,
    Fraction: lambda value: f"{value.numerator}/{value.denominator}",
    type(None): lambda value: "",
}


def _parse_bool(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"not a boolean cell: {cell!r}")
    return cell == "true"


_PARSE = {int: int, str: str, bool: _parse_bool, float: float, Fraction: Fraction}


def _parser(annotation) -> Callable[[str], object]:
    """Cell parser for a field annotation; `X | None` reads an empty cell as None."""
    args = get_args(annotation)
    if type(None) not in args:
        return _PARSE[annotation]
    (base,) = (a for a in args if a is not type(None))
    parse = _PARSE[base]
    return lambda cell: parse(cell) if cell else None


@cache
def _parsers(row_type) -> Mapping[str, Callable[[str], object]]:
    """Cell parser of every field of a row dataclass, in field order."""
    hints = get_type_hints(row_type)
    return MappingProxyType({f.name: _parser(hints[f.name]) for f in fields(row_type)})


def _cell(value) -> str:
    return _ENCODE[type(value)](value)


def _row_dicts(row_type, rows) -> list[dict[str, str]]:
    names = list(_parsers(row_type))
    return [{name: _cell(getattr(row, name)) for name in names} for row in rows]


def _parse_row(row_type, cells: list[str]):
    pairs = zip(_parsers(row_type).items(), cells, strict=True)
    return row_type(**{name: parse(cell) for (name, parse), cell in pairs})


def rows_to_csv(row_type, rows) -> str:
    lines = [",".join(_parsers(row_type))]
    lines.extend(",".join(cells.values()) for cells in _row_dicts(row_type, rows))
    return "\n".join(lines) + "\n"


def rows_from_csv(row_type, text: str):
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != ",".join(_parsers(row_type)):
        raise ValueError(f"missing header for {row_type.__name__}")
    return [_parse_row(row_type, line.split(",")) for line in lines[1:]]


def rows_to_json(row_type, rows, **wrapper) -> str:
    """A JSON list of row objects; given wrapper fields, an object with
    those fields and the list under "rows"."""
    payload = _row_dicts(row_type, rows)
    if wrapper:
        payload = {**wrapper, "rows": payload}
    return json.dumps(payload, indent=2) + "\n"


def rows_from_json(row_type, text: str):
    """Rows from rows_to_json output, with or without wrapper fields."""
    payload = json.loads(text)
    if isinstance(payload, dict):
        payload = payload["rows"]
    return [_parse_row(row_type, [item[name] for name in _parsers(row_type)]) for item in payload]


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


def growth_count_table(config: ExperimentConfig) -> list[GrowthCountRow]:
    """Exact growth counts for every k = 1..n, next to their bounds.

    The counts come from counting.growth_counts, which enumerates no
    strings, so config.workers plays no part; config.budget still refuses
    sigma^n above it.
    """
    config.validate()
    if config.n is None:
        raise ValueError("growth-count table needs n")
    n = config.n
    hist = counting.growth_counts(n, config.sigma, budget=config.budget)
    rows = []
    for k in range(1, n + 1):
        bound = counting.growth_bound(k, config.sigma)
        rows.append(
            GrowthCountRow(
                sigma=config.sigma,
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


def expected_growth(config: ExperimentConfig) -> list[ExpectationRow]:
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
    config.validate()
    if config.n is None:
        raise ValueError("expected-growth needs n")
    n = config.n
    sigma = config.sigma
    if config.mode == "exhaustive":
        exact = exact_expected_growth(n, sigma, budget=config.budget)
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
    rng = new_rng(config.seed)
    alphabet = Alphabet(sigma)
    uniform_vals = []
    for _ in range(config.samples):
        s = random_string(n, sigma, rng)
        uniform_vals.append(trees.growth_via_lcp(s))
    prefix_vals = []
    for _ in range(config.samples):
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
                samples=config.samples,
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
    required = sigma**n
    if required > budget:
        raise counting.EnumerationBudgetError(required, budget)
    return n + 2 + sum(
        (exact_expected_growth(length, sigma, budget=budget) for length in range(2, n + 1)),
        Fraction(0),
    )


def expected_size(config: ExperimentConfig) -> list[SizeRow]:
    """Mean simple-tree node count for each n in n_list, with mean/n^2.

    Every sample is counted by simple_tree_size in O(n), so no quadratic
    tree is built; the counts equal build_suffix_tree(s).node_count exactly.
    """
    config.validate()
    n_list = config.n_list or ((config.n,) if config.n else ())
    if not n_list:
        raise ValueError("expected-size needs at least one n")
    if list(n_list) != sorted(n_list):
        raise ValueError("n_list must be ascending")
    rows = []
    rng = new_rng(config.seed) if config.mode == "montecarlo" else None
    for n in n_list:
        if config.mode == "exhaustive":
            exact = exact_expected_size(n, config.sigma, budget=config.budget)
            rows.append(
                SizeRow(
                    sigma=config.sigma,
                    n=n,
                    mode="exhaustive",
                    samples=config.sigma**n,
                    mean=float(exact),
                    stderr=0.0,
                    mean_over_n2=float(exact / n**2),
                    mean_exact=exact,
                )
            )
            continue
        vals = []
        for _ in range(config.samples):
            s = random_string(n, config.sigma, rng)
            vals.append(trees.simple_tree_size(s))
        mean, stderr = _mean_stderr(vals)
        rows.append(
            SizeRow(
                sigma=config.sigma,
                n=n,
                mode="montecarlo",
                samples=config.samples,
                mean=mean,
                stderr=stderr,
                mean_over_n2=mean / n**2,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Verification sweep
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


def _check_reference_table() -> CheckResult:
    discrepancies = counting.reference_table_discrepancies()
    unknown = [d for d in discrepancies if not d.known]
    events = sorted({d.errata for d in discrepancies if d.known})
    # witness the two errata shapes explicitly
    mu = counting.count_aperiodic
    row2 = counting.REFERENCE_APERIODIC_TABLE[2]
    shift_ok = row2 == tuple(mu(j, 2) for j in (1, 3, 4, 5, 6, 7, 8, 9))
    digit_ok = counting.REFERENCE_APERIODIC_TABLE[3][7] * 10 == mu(8, 3)
    ok = not unknown and shift_ok and digit_ok and len(events) == 2
    detail = (
        f"{len(discrepancies)} mismatching cells, all explained by errata {events}"
        if ok
        else f"{len(unknown)} unexplained mismatches: {unknown[:4]}"
    )
    return CheckResult("aperiodic-reference-table", ok, detail)


def _check_prime_power() -> CheckResult:
    bad = []
    for q in range(2, 33):
        # prime powers q = p^t
        p = min(d for d in range(2, q + 1) if q % d == 0)
        t = 0
        m = q
        while m % p == 0:
            m //= p
            t += 1
        if m != 1:
            continue
        for sigma in range(2, 6):
            if counting.aperiodic_prime_power(p, t, sigma) != counting.count_aperiodic(q, sigma):
                bad.append((p, t, sigma))
    ok = not bad
    return CheckResult(
        "prime-power-closed-form",
        ok,
        "matches the recurrence for all prime powers <= 32, sigma 2..5" if ok else f"failures: {bad}",
    )


def _check_aperiodic_bounds() -> CheckResult:
    bad = []
    for sigma in range(2, 7):
        for j in range(1, 21):
            mu = counting.count_aperiodic(j, sigma)
            if j > 1 and mu > sigma**j - sigma:
                bad.append(("upper", sigma, j))
            if mu < sigma * (sigma - 1) ** (j - 1):
                bad.append(("lower", sigma, j))
    ok = not bad
    return CheckResult(
        "aperiodic-count-bounds",
        ok,
        "sigma^j - sigma above, sigma(sigma-1)^(j-1) below, sigma 2..6, j 1..20" if ok else f"failures: {bad}",
    )


def _check_growth_bound_cap() -> CheckResult:
    bad = []
    for sigma in range(2, 6):
        for k in range(1, 21):
            if counting.growth_bound(k, sigma) > k * sigma**k:
                bad.append(("cap", sigma, k))
        for m in range(1, 21):
            if counting.growth_bound_prefix_sum(m, sigma) > (m + 1) * sigma ** (m + 1):
                bad.append(("prefix", sigma, m))
    ok = not bad
    return CheckResult(
        "growth-bound-caps",
        ok,
        "bound <= k*sigma^k and prefix sums <= (m+1)*sigma^(m+1), sigma 2..5, up to 20" if ok else f"failures: {bad}",
    )


def _check_aperiodic_bruteforce(limit: int = 1 << 16) -> CheckResult:
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
    return CheckResult(
        "aperiodic-bruteforce",
        ok,
        f"enumeration matches the recurrence on {pairs} (sigma, j) pairs" if ok else f"failures: {bad}",
    )


def _check_growth_count_bound(budget: int, workers: int) -> CheckResult:
    reports = [
        counting.check_growth_bound(2, k_max=5, n_max=12, budget=budget, workers=workers),
        counting.check_growth_bound(3, k_max=3, n_max=7, budget=budget, workers=workers),
    ]
    bad = [row for rep in reports for row in rep.violations]
    partition_bad = [(rep.sigma, n) for rep in reports for n in rep.partition_failures]
    route_bad = [(rep.sigma, n) for rep in reports for n in rep.route_failures]
    ok = not bad and not partition_bad and not route_bad
    checked = sum(len(rep.rows) for rep in reports)
    return CheckResult(
        "growth-count-bound",
        ok,
        f"count <= bound on {checked} (n, k) pairs; histograms sum to sigma^n and equal growth_counts"
        if ok
        else f"violations: {bad[:4]} partition failures: {partition_bad} route failures: {route_bad}",
    )


def _check_growth_ground_truth() -> CheckResult:
    cases = [("aabccb", 5), ("abcdefabcdab", 8)]
    bad = []
    for text, expected in cases:
        s = from_text(text)
        via_tree = trees.growth_via_tree(s)
        via_lcp = trees.growth_via_lcp(s)
        if via_tree != expected or via_lcp != expected:
            bad.append((text, expected, via_tree, via_lcp))
    ok = not bad
    return CheckResult(
        "growth-ground-truth",
        ok,
        "growth(aabccb)=5 and growth(abcdefabcdab)=8 by both routes" if ok else f"failures: {bad}",
    )


def _check_figure_trees() -> CheckResult:
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
    detail = (
        "simple tree of aabccb has 25 nodes; compact tree has 10 nodes with the expected labels "
        "and equals the collapsed simple tree"
        if ok
        else f"nodes {naive.node_count}/{compact.node_count}, labels {sorted(compact.edge_labels())}, "
        f"equals the collapsed simple tree: {same}"
    )
    return CheckResult("reference-trees", ok, detail)


def _check_tree_identities() -> CheckResult:
    bad = []
    strings = 0
    for sigma, n_max in ((2, 10), (3, 7)):
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
    return CheckResult(
        "tree-identities",
        ok,
        f"growth routes agree, node counts match the growth-sum form and compact trees "
        f"equal the collapsed simple tree on {strings} strings"
        if ok
        else f"failures: {bad[:4]}",
    )


def _check_search(seed: int) -> CheckResult:
    rng = new_rng(seed)
    bad = []
    pairs = 0
    built = 0
    for sigma in (2, 4):
        for _ in range(20):
            n = int(rng.integers(2, 61))
            s = random_string(n, sigma, rng)
            tree = trees.build_compact_tree(s)
            built += 1
            if tree.layout() != trees.compact_tree_via_simple(s).layout():
                bad.append((str(s), "compact-oracle"))
            for _ in range(10):
                plen = int(rng.integers(1, min(n, 8) + 1))
                if rng.integers(0, 2) == 0:
                    start = int(rng.integers(1, n - plen + 2))
                    pattern = s.sub(start, start + plen - 1)
                else:
                    pattern = random_string(plen, sigma, rng)
                pairs += 1
                if trees.find_occurrences(tree, pattern) != trees.scan_occurrences(s, pattern):
                    bad.append((str(s), str(pattern)))
    ok = not bad
    return CheckResult(
        "search-vs-scan",
        ok,
        f"tree search equals direct scan on {pairs} pairs and the {built} compact trees "
        f"equal the collapsed simple tree"
        if ok
        else f"failures: {bad[:4]}",
    )


def run_verification(config: ExperimentConfig | None = None) -> VerificationReport:
    """All desk-scale correctness checks in one sweep.

    Mathematical violations show up as failed checks (the CLI maps them
    to a nonzero exit), never as exceptions; budget problems raise.
    """
    config = config or ExperimentConfig()
    report = VerificationReport()
    report.checks.append(_check_reference_table())
    report.checks.append(_check_prime_power())
    report.checks.append(_check_aperiodic_bounds())
    report.checks.append(_check_growth_bound_cap())
    report.checks.append(_check_aperiodic_bruteforce())
    report.checks.append(_check_growth_count_bound(config.budget, config.workers))
    report.checks.append(_check_growth_ground_truth())
    report.checks.append(_check_figure_trees())
    report.checks.append(_check_tree_identities())
    report.checks.append(_check_search(config.seed))
    return report
