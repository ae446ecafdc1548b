"""Integer-symbol alphabets and immutable strings with 1-based indexing.

Symbols are the integers 1..sigma; a reserved terminator (rendered as '$')
lives outside every alphabet and is never stored inside a string. A text
codec maps 'a'..'z' to 1..26 at the boundary so tests and the CLI can use
readable literals. Exhaustive sweeps share one enumerator of raw symbol
tuples and one growth kernel over them.

Alphabet and Str are small slotted classes, immutable after __init__,
that compare and hash by value; they are plain classes rather than
dataclasses so that importing the package does not load dataclasses.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

#: Sentinel symbol appended (conceptually) to every suffix. Outside all alphabets.
TERMINATOR = 0

TERMINATOR_CHAR = "$"


class _Immutable:
    """Refuses to set or delete any attribute; __init__ sets the fields
    through object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(_Immutable):
    """Symbol set {1, ..., size} plus a reserved terminator outside it.
    Equal sizes make equal alphabets."""

    __slots__ = ("size",)

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"alphabet size must be at least 1, got {size}")
        object.__setattr__(self, "size", size)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.size == other.size

    def __hash__(self) -> int:
        return hash(self.size)

    def __repr__(self) -> str:
        return f"Alphabet(size={self.size})"

    def __reduce__(self):
        return Alphabet, (self.size,)


class Str(_Immutable):
    """Immutable symbol sequence over an Alphabet. Two Strs are equal when
    their symbols and alphabets are; a Str never equals a plain tuple.

    Indexing is 1-based throughout: ``s.sub(i, j)`` is the inclusive
    substring from i to j, so ``s.sub(1, 1)`` is the first symbol.
    """

    __slots__ = ("symbols", "alphabet")

    def __init__(self, symbols: tuple[int, ...], alphabet: Alphabet) -> None:
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "alphabet", alphabet)

    def __eq__(self, other):
        # trees compare their sources, so equal trees come through here
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.symbols, self.alphabet) == (other.symbols, other.alphabet)

    def __hash__(self) -> int:
        return hash((self.symbols, self.alphabet))

    def __reduce__(self):
        return Str, (self.symbols, self.alphabet)

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
