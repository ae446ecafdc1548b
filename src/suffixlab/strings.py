"""Integer-symbol alphabets and immutable strings with 1-based indexing.

Symbols are the integers 1..sigma; a reserved terminator (rendered as '$')
lives outside every alphabet and is never stored inside a string. A text
codec maps 'a'..'z' to 1..26 at the boundary so tests and the CLI can use
readable literals. Exhaustive sweeps share one enumerator of raw symbol
tuples and one growth kernel over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

#: Sentinel symbol appended (conceptually) to every suffix. Outside all alphabets.
TERMINATOR = 0

TERMINATOR_CHAR = "$"


@dataclass(frozen=True)
class Alphabet:
    """Symbol set {1, ..., size} plus a reserved terminator outside it."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"alphabet size must be at least 1, got {self.size}")


@dataclass(frozen=True)
class Str:
    """Immutable symbol sequence over an Alphabet.

    Indexing is 1-based throughout: ``s.sub(i, j)`` is the inclusive
    substring from i to j, so ``s.sub(1, 1)`` is the first symbol.
    """

    symbols: tuple[int, ...]
    alphabet: Alphabet

    def __len__(self) -> int:
        return len(self.symbols)

    def sub(self, i: int, j: int) -> "Str":
        return substring(self, i, j)

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"Str({to_text(self)!r}, sigma={self.alphabet.size})"


def make_string(raw: Iterable[int], alphabet: Alphabet) -> Str:
    """Build a Str, rejecting any symbol outside 1..sigma.

    The error names the 1-based position of the first offending symbol.
    """
    symbols = tuple(raw)
    for pos, sym in enumerate(symbols, start=1):
        if not 1 <= sym <= alphabet.size:
            raise ValueError(
                f"symbol {sym} at position {pos} is outside alphabet 1..{alphabet.size}"
            )
    return Str(symbols, alphabet)


def from_text(text: str, sigma: int | None = None) -> Str:
    """Decode lowercase letters: 'a' -> 1, 'b' -> 2, ... 'z' -> 26.

    When sigma is not given it is inferred as the largest symbol used
    (sigma=1 for the empty string).
    """
    codes = []
    for pos, ch in enumerate(text, start=1):
        code = ord(ch) - ord("a") + 1
        if not 1 <= code <= 26:
            raise ValueError(f"character {ch!r} at position {pos} is not in a..z")
        codes.append(code)
    if sigma is None:
        sigma = max(codes, default=1)
    return make_string(codes, Alphabet(sigma))


def symbol_char(sym: int) -> str:
    """Printable form of one symbol; the terminator renders as '$'."""
    if sym == TERMINATOR:
        return TERMINATOR_CHAR
    if 1 <= sym <= 26:
        return chr(ord("a") + sym - 1)
    return f"<{sym}>"


def to_text(s: Str) -> str:
    return "".join(symbol_char(sym) for sym in s.symbols)


def substring(s: Str, i: int, j: int) -> Str:
    """S[i..j] inclusive when j >= i, the empty string otherwise.

    Bounds are only enforced in the nonempty case: j < i yields the empty
    string regardless of i and j.
    """
    if j < i:
        return Str((), s.alphabet)
    if i < 1 or j > len(s.symbols):
        raise ValueError(f"substring [{i},{j}] out of range for length {len(s.symbols)}")
    return Str(s.symbols[i - 1 : j], s.alphabet)


def minimal_period(s: Str) -> int:
    """Smallest divisor d of n with s[i] == s[i+d] for every i <= n-d.

    Note the divisibility requirement: "abaab" has no period here even
    though textbook definitions without d | n would give it one. d = n
    always qualifies vacuously, so the result equals n exactly for
    aperiodic strings.
    """
    n = len(s.symbols)
    if n == 0:
        raise ValueError("period of the empty string is undefined")
    syms = s.symbols
    for d in range(1, n):
        if n % d:
            continue
        if all(syms[i] == syms[i + d] for i in range(n - d)):
            return d
    return n


def is_aperiodic(s: Str) -> bool:
    """True when the minimal period of s equals its length."""
    return minimal_period(s) == len(s)


def enumerate_strings(n: int, sigma: int) -> Iterator[tuple[int, ...]]:
    """Symbol tuples of all sigma^n length-n strings over 1..sigma, in
    lexicographic order."""
    return product(range(1, sigma + 1), repeat=n)


def growth_of_symbols(symbols: Sequence[int]) -> int:
    """Growth of a symbol sequence: its length minus the longest common
    prefix of the sequence with any of its proper suffixes."""
    n = len(symbols)
    best = 0
    for j in range(1, n):
        if n - j <= best:
            break
        k = 0
        while j + k < n and symbols[k] == symbols[j + k]:
            k += 1
        if k > best:
            best = k
    return n - best
