import pytest
from hypothesis import given
from hypothesis import strategies as st

from suffixlab.strings import (
    TERMINATOR,
    Alphabet,
    Str,
    enumerate_strings,
    from_text,
    is_aperiodic,
    make_string,
    minimal_period,
    substring,
    to_text,
)


def test_codec_encodes_letters():
    s = from_text("aabccb", 3)
    assert len(s) == 6
    assert s.symbols == (1, 1, 2, 3, 3, 2)
    assert to_text(s) == "aabccb"


def test_codec_empty_string():
    assert len(from_text("", 2)) == 0


def test_codec_rejects_symbol_above_sigma():
    with pytest.raises(ValueError, match="position 3"):
        from_text("abd", 3)


def test_make_string_rejects_out_of_alphabet_symbol():
    with pytest.raises(ValueError, match="position 2"):
        make_string([1, 4, 2], Alphabet(3))


def test_terminator_is_outside_every_alphabet():
    with pytest.raises(ValueError, match="symbol 0 at position 1"):
        make_string([TERMINATOR], Alphabet(5))


def test_alphabet_size_one_is_degenerate_but_legal():
    assert len(make_string([1, 1], Alphabet(1))) == 2
    with pytest.raises(ValueError):
        Alphabet(0)


def test_substring_inclusive_range():
    s = from_text("aabccb", 3)
    assert to_text(substring(s, 2, 4)) == "abc"


def test_substring_is_empty_when_j_below_i():
    s = from_text("aabccb", 3)
    assert len(substring(s, 4, 2)) == 0


def test_substring_out_of_range():
    s = from_text("aabccb", 3)
    with pytest.raises(ValueError):
        substring(s, 3, 7)
    with pytest.raises(ValueError):
        substring(s, 0, 2)


@given(st.lists(st.integers(1, 4), min_size=0, max_size=30))
def test_substring_full_range_is_identity(symbols):
    s = make_string(symbols, Alphabet(4))
    assert substring(s, 1, len(s)) == s


@given(st.data())
def test_substring_length(data):
    symbols = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=25))
    s = make_string(symbols, Alphabet(3))
    i = data.draw(st.integers(1, len(s)))
    j = data.draw(st.integers(1, len(s)))
    sub = substring(s, i, j)
    assert len(sub) == (j - i + 1 if j >= i else 0)


@pytest.mark.parametrize(
    "text,period",
    [("abab", 2), ("aaaa", 1), ("abc", 3), ("a", 1), ("aabaab", 3), ("abcabc", 3)],
)
def test_minimal_period(text, period):
    assert minimal_period(from_text(text)) == period


def test_period_requires_divisibility():
    # "aabaa" repeats with shift 3, but 3 does not divide 5
    assert minimal_period(from_text("aabaa")) == 5


@pytest.mark.parametrize("text,expected", [("abab", False), ("aab", True), ("a", True)])
def test_is_aperiodic(text, expected):
    assert is_aperiodic(from_text(text)) is expected


def test_periodicity_of_empty_string_is_rejected():
    empty = from_text("", 2)
    with pytest.raises(ValueError):
        minimal_period(empty)
    with pytest.raises(ValueError):
        is_aperiodic(empty)


@pytest.mark.parametrize("n", range(1, 11))
def test_minimal_period_divides_length(n):
    for symbols in enumerate_strings(n, 2):
        s = Str(symbols, Alphabet(2))
        assert n % minimal_period(s) == 0


def test_enumerate_strings_lists_every_string_once_in_order():
    strings = list(enumerate_strings(5, 3))
    assert len(strings) == 3**5
    assert strings == sorted(set(strings))
    assert all(len(t) == 5 and set(t) <= {1, 2, 3} for t in strings)


def test_repeating_an_aperiodic_block_sets_the_period():
    # brute force over binary strings up to length 12
    for n in range(2, 13):
        for d in range(1, n):
            if n % d:
                continue
            for symbols in enumerate_strings(d, 2):
                block = Str(symbols, Alphabet(2))
                if not is_aperiodic(block):
                    continue
                repeated = make_string(block.symbols * (n // d), Alphabet(2))
                assert minimal_period(repeated) == d
