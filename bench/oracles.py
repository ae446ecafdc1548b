"""Answer checks for the benchmark's workloads.

None of this imports suffixlab: each oracle recomputes the answer by a
route that shares no code with the path it checks. Every check returns a
list of failure descriptions, empty when the answer is right.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import statistics

import numpy as np

#: sha256 of the stdout of `omega --sigma 2 --n 20`, recorded from the
#: code as it stood when the benchmark was defined. The output has no
#: random input, so any change to these bytes is a behaviour change.
OMEGA_20_SHA256 = "8ed351c9a9b662daafa7b392dcab640983672780161e096b98b87746fd71c2cc"


def replay_strings(seed: int, sigma: int, n_list, samples: int) -> list[list[tuple[int, ...]]]:
    """The strings `expect-size --seed seed` samples, drawn from numpy directly.

    The program draws each string as `integers(1, sigma + 1, size=n)` from
    one PCG64 stream, n by n in n_list order, so the same calls replay it.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    return [
        [tuple(int(x) for x in rng.integers(1, sigma + 1, size=n)) for _ in range(samples)]
        for n in n_list
    ]


def _common_prefix(a, b) -> int:
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def simple_tree_nodes(syms: tuple[int, ...]) -> int:
    """Node count of the simple suffix tree, without building it.

    One internal node per distinct nonempty substring, plus the root and
    n leaves. Distinct substrings are n(n+1)/2 minus the sum of longest
    common prefixes of adjacent suffixes in sorted order.
    """
    n = len(syms)
    order = sorted(range(n), key=lambda i: syms[i:])
    lcp_sum = sum(_common_prefix(syms[a:], syms[b:]) for a, b in zip(order, order[1:]))
    return n * (n + 1) // 2 - lcp_sum + n + 1


def check_size_csv(text: str, n_list, counts: list[list[int]], sigma: int) -> list[str]:
    """`expect-size` CSV against the node counts of the replayed strings."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if [int(r["n"]) for r in rows] != list(n_list):
        return [f"rows for n={[r['n'] for r in rows]}, expected {list(n_list)}"]
    bad = []
    for row, n, vals in zip(rows, n_list, counts):
        mean = statistics.fmean(vals)
        want = {
            "sigma": sigma,
            "samples": len(vals),
            "mean": mean,
            "stderr": statistics.stdev(vals) / math.sqrt(len(vals)),
            "mean_over_n2": mean / n**2,
        }
        for key, value in want.items():
            got = type(value)(row[key])
            if got != value:
                bad.append(f"n={n} {key}={got!r}, expected {value!r}")
    return bad


def check_omega_csv(text: str, n: int, sigma: int, sha256: str | None) -> list[str]:
    """`omega` CSV: counts partition all sigma^n strings and the bytes match."""
    bad = []
    total = sum(int(r["count"]) for r in csv.DictReader(io.StringIO(text)))
    if total != sigma**n:
        bad.append(f"counts sum to {total}, expected {sigma**n}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if sha256 is not None and digest != sha256:
        bad.append(f"output sha256 {digest}, expected {sha256}")
    return bad


def check_verify_output(code: int, text: str) -> list[str]:
    bad = []
    if code != 0:
        bad.append(f"exit code {code}")
    lines = text.splitlines()
    if not lines or lines[-1] != "verification PASSED":
        bad.append(f"last line {lines[-1] if lines else ''!r}")
    return bad


def scan_positions(text: bytes, pattern: bytes) -> list[int]:
    """1-based start of every (possibly overlapping) occurrence."""
    out = []
    i = text.find(pattern)
    while i >= 0:
        out.append(i + 1)
        i = text.find(pattern, i + 1)
    return out


def count_wrong_answers(answers: list[list[int]], expected: list[list[int]]) -> int:
    if len(answers) != len(expected):
        return max(len(answers), len(expected))
    return sum(a != e for a, e in zip(answers, expected))
