"""Reference computations that calibrate the benchmark's times.

The speed of a shared host drifts by a quarter or more over minutes, as
other tenants load it, so raw wall times of one commit spread too widely
to compare two commits. The benchmark therefore times a fixed reference
computation right before and right after every pass, for a quarter of the
pass's length so that it samples the same stretch of host load, and next
to every setup measurement. It reports each time scaled to a machine on
which one block of the reference takes NOMINAL_S:

    reported = measured * NOMINAL_S / reference block time around it

Contention slows different code by different factors, so each workload
names the reference whose inner loop resembles its own hot loop:
- "trie": a one-symbol-per-edge suffix trie build, dict lookups and small
  allocations, like tree building and search;
- "scan": longest-prefix comparisons over enumerated digit lists, list
  indexing and integer compares, like the exhaustive growth sweep.
Both are frozen copies that never call suffixlab, so a change to the
program cannot change the reference.
"""

from __future__ import annotations

from time import perf_counter

#: Reference time of the scale the benchmark reports in: one block of
#: either reference takes about this long, at the median, on a 2-CPU Xeon
#: sandbox with Python 3.11.
NOMINAL_S = 0.050

TRIE_BUILDS = 16
SCAN_DIGITS = 14
SCAN_STRINGS = 4 * 4096


def _text(n: int = 160) -> tuple[int, ...]:
    # fixed binary string from a linear congruential generator
    x, out = 12345, []
    for _ in range(n):
        x = (1103515245 * x + 12345) % 2**31
        out.append(1 + (x >> 16) % 2)
    return tuple(out)


TEXT = _text()


def _trie_nodes(syms: tuple[int, ...]) -> int:
    children: list[dict[int, int]] = [{}]
    n = len(syms)
    for j in range(n):
        v, i = 0, j
        while i < n and syms[i] in children[v]:
            v = children[v][syms[i]]
            i += 1
        for p in range(i, n):
            children.append({})
            w = len(children) - 1
            children[v][syms[p]] = w
            v = w
    return len(children)


def _longest_border_prefix(digits: list[int], n: int) -> int:
    best = 0
    for j in range(1, n):
        if n - j <= best:
            break
        k = 0
        while j + k < n and digits[k] == digits[j + k]:
            k += 1
        if k > best:
            best = k
    return best


def _trie_block() -> None:
    for _ in range(TRIE_BUILDS):
        _trie_nodes(TEXT)


def _scan_block() -> None:
    for code in range(SCAN_STRINGS):
        digits = [(code >> i) & 1 for i in range(SCAN_DIGITS)]
        _longest_border_prefix(digits, SCAN_DIGITS)


BLOCKS = {"trie": _trie_block, "scan": _scan_block}


def reference_s(window_s: float, kind: str = "trie") -> float:
    """Mean time of one block of the reference, run for at least window_s."""
    block = BLOCKS[kind]
    blocks = 0
    t0 = perf_counter()
    while True:
        block()
        blocks += 1
        elapsed = perf_counter() - t0
        if elapsed >= window_s:
            return elapsed / blocks
