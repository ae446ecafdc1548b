import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffixlab import cli, trees
from suffixlab.strings import TERMINATOR, Alphabet, Str, enumerate_strings, from_text, make_string
from suffixlab.trees import (
    build_compact_tree,
    build_suffix_tree,
    compact_tree_via_simple,
    find_occurrences,
    growth_from_tree,
    growth_sum_identity,
    growth_via_lcp,
    growth_via_tree,
    scan_occurrences,
    simple_tree_size,
    stats_line,
    to_dot,
)

from conftest import assert_leaf_paths


def random_str(draw, sigma, max_n):
    symbols = draw(st.lists(st.integers(1, sigma), min_size=1, max_size=max_n))
    return make_string(symbols, Alphabet(sigma))


# ---------------------------------------------------------------------------
# simple tree
# ---------------------------------------------------------------------------


def test_single_symbol_tree():
    tree = build_suffix_tree(from_text("a"))
    assert tree.node_count == 3
    assert tree.leaf_count == 1
    assert_leaf_paths(tree)


def test_two_symbol_tree():
    assert build_suffix_tree(from_text("ab")).node_count == 6


def test_reference_string_tree():
    tree = build_suffix_tree(from_text("aabccb"))
    assert tree.node_count == 25
    assert tree.internal_count == 19
    assert tree.leaf_count == 6
    assert_leaf_paths(tree)


def test_empty_string_rejected():
    for build in (build_suffix_tree, build_compact_tree, compact_tree_via_simple):
        with pytest.raises(ValueError, match="empty string"):
            build(from_text("", 2))


def test_leaves_have_terminator_edges_and_no_children():
    for symbols in enumerate_strings(5, 2):
        s = Str(symbols, Alphabet(2))
        tree = build_suffix_tree(s)
        assert len(tree.leaves) == 5
        for leaf in tree.leaves.values():
            assert not tree.children[leaf]
            parent = tree.parent[leaf]
            assert tree.children[parent][TERMINATOR] == leaf


def test_new_internal_counts_sum_to_internal_nodes_minus_root():
    for text in ("aabccb", "abcdefabcdab", "aaaa", "ab"):
        tree = build_suffix_tree(from_text(text))
        assert sum(tree.new_internal_per_suffix) == tree.internal_count - 1


@given(st.data())
@settings(max_examples=200)
def test_node_count_upper_bound(data):
    s = random_str(data.draw, 3, 40)
    n = len(s)
    tree = build_suffix_tree(s)
    assert tree.node_count <= 2 + sum(n - j + 2 for j in range(1, n + 1))


@given(st.data())
@settings(max_examples=150)
def test_leaf_paths_spell_suffixes(data):
    s = random_str(data.draw, 4, 40)
    assert_leaf_paths(build_suffix_tree(s))
    assert_leaf_paths(build_compact_tree(s))


# ---------------------------------------------------------------------------
# node count without the tree
# ---------------------------------------------------------------------------


def test_simple_tree_size_of_reference_string():
    assert simple_tree_size(from_text("aabccb")) == 25


def test_simple_tree_size_rejects_empty_string():
    with pytest.raises(ValueError):
        simple_tree_size(from_text("", 2))


@pytest.mark.parametrize("sigma,n_max", [(2, 10), (3, 7), (4, 5)])
def test_simple_tree_size_matches_tree_exhaustively(sigma, n_max):
    for n in range(1, n_max + 1):
        for symbols in enumerate_strings(n, sigma):
            s = Str(symbols, Alphabet(sigma))
            assert simple_tree_size(s) == build_suffix_tree(s).node_count, str(s)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_simple_tree_size_matches_tree_random(data):
    sigma = data.draw(st.integers(2, 5))
    s = random_str(data.draw, sigma, 300)
    assert simple_tree_size(s) == build_suffix_tree(s).node_count


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [("aabccb", 5), ("abcdefabcdab", 8), ("abc", 3), ("aaaa", 1), ("a", 1)],
)
def test_growth_by_both_routes(text, expected):
    s = from_text(text)
    assert growth_via_tree(s) == expected
    assert growth_via_lcp(s) == expected


def test_growth_of_empty_string_rejected():
    with pytest.raises(ValueError):
        growth_via_lcp(from_text("", 2))


def test_growth_routes_agree_exhaustively_binary():
    for n in range(1, 9):
        for symbols in enumerate_strings(n, 2):
            s = Str(symbols, Alphabet(2))
            assert growth_via_tree(s) == growth_via_lcp(s)


@given(st.data())
@settings(max_examples=300)
def test_growth_routes_agree_random(data):
    sigma = data.draw(st.sampled_from([2, 3, 4]))
    s = random_str(data.draw, sigma, 64)
    assert growth_via_tree(s) == growth_via_lcp(s)


def test_growth_from_tree_reuses_a_built_tree():
    tree = build_suffix_tree(from_text("aabccb"))
    assert growth_from_tree(tree) == 5


# ---------------------------------------------------------------------------
# growth-sum identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text,nodes", [("aabccb", 25), ("ab", 6), ("aa", 5)])
def test_growth_sum_identity_examples(text, nodes):
    result = growth_sum_identity(from_text(text))
    assert result.node_count == nodes
    assert result.growth_sum_form == nodes
    assert result.substring_form == nodes
    assert result.equal


def test_growth_sum_identity_needs_two_symbols():
    with pytest.raises(ValueError):
        growth_sum_identity(from_text("a"))


def test_growth_sum_identity_exhaustive_ternary():
    for n in range(2, 8):
        for symbols in enumerate_strings(n, 3):
            s = Str(symbols, Alphabet(3))
            assert growth_sum_identity(s).equal


# ---------------------------------------------------------------------------
# compact tree
# ---------------------------------------------------------------------------


def test_compact_single_symbol():
    tree = build_compact_tree(from_text("a"))
    assert tree.node_count == 2
    assert tree.edge_labels() == ["a$"]


def test_compact_all_distinct():
    tree = build_compact_tree(from_text("abc"))
    assert tree.node_count == 4
    assert tree.leaf_count == 3


def test_compact_reference_string_labels():
    tree = build_compact_tree(from_text("aabccb"))
    assert tree.node_count == 10
    assert sorted(tree.edge_labels()) == sorted(
        ["c", "b", "a", "b$", "cb$", "ccb$", "$", "bccb$", "abccb$"]
    )
    assert_leaf_paths(tree)


def test_compact_invariants_exhaustive_binary():
    for n in range(1, 9):
        for symbols in enumerate_strings(n, 2):
            s = Str(symbols, Alphabet(2))
            tree = build_compact_tree(s)
            assert tree.node_count <= 2 * n
            for v in range(1, tree.node_count):
                if tree.children[v]:
                    assert len(tree.children[v]) >= 2
            assert_leaf_paths(tree)


def assert_intervals_hold_subtree_leaves(tree):
    sa = tree.suffix_array
    assert sorted(sa) == list(range(1, len(tree.source) + 1))
    suffix_of_leaf = {leaf: j for j, leaf in tree.leaves.items()}
    for v in range(tree.node_count):
        below = []
        stack = [v]
        while stack:
            u = stack.pop()
            if u in suffix_of_leaf:
                below.append(suffix_of_leaf[u])
            stack.extend(tree.children[u].values())
        lo, hi = tree.interval[v]
        assert sorted(sa[lo:hi]) == sorted(below), (str(tree.source), v)


@pytest.mark.parametrize("sigma,n_max", [(1, 12), (2, 12), (3, 8), (4, 6)])
def test_direct_compact_tree_equals_collapsed_simple_tree_exhaustively(sigma, n_max):
    for n in range(1, n_max + 1):
        for symbols in enumerate_strings(n, sigma):
            s = Str(symbols, Alphabet(sigma))
            assert build_compact_tree(s).layout() == compact_tree_via_simple(s).layout(), str(s)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_direct_compact_tree_equals_collapsed_simple_tree_random(data):
    sigma = data.draw(st.integers(1, 5))
    s = random_str(data.draw, sigma, 400)
    tree = build_compact_tree(s)
    assert tree.layout() == compact_tree_via_simple(s).layout()
    assert_intervals_hold_subtree_leaves(tree)


def test_intervals_hold_exactly_the_subtree_leaves():
    for sigma, n_max in ((2, 8), (3, 5)):
        for n in range(1, n_max + 1):
            for symbols in enumerate_strings(n, sigma):
                s = Str(symbols, Alphabet(sigma))
                assert_intervals_hold_subtree_leaves(build_compact_tree(s))


def test_compact_tree_and_its_commands_build_no_simple_tree(monkeypatch, capsys):
    def refuse(s):
        raise AssertionError("the simple tree was built")

    monkeypatch.setattr(trees, "build_suffix_tree", refuse)
    tree = build_compact_tree(from_text("aabccb"))
    assert tree.node_count == 10
    assert find_occurrences(tree, from_text("b", 3)) == [3, 6]
    assert cli.main(["search", "aabccb", "cb"]) == 0
    assert cli.main(["tree", "aabccb", "--compact"]) == 0
    assert cli.main(["tree", "aabccb", "--compact", "--dot"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["5", "n=6 sigma=3 nodes=10 internal=4 leaves=6 growth=5"]
    assert out[2] == "digraph suffixtree {"


def test_compact_tree_of_a_long_text():
    rng = np.random.Generator(np.random.PCG64(7))
    n = 20_000
    s = make_string((int(x) for x in rng.integers(1, 5, size=n)), Alphabet(4))
    tree = build_compact_tree(s)
    assert tree.leaf_count == n
    assert tree.node_count <= 2 * n
    for start, length in ((1, 1), (500, 6), (19_990, 11), (7_000, 30)):
        pattern = s.sub(start, start + length - 1)
        assert find_occurrences(tree, pattern) == scan_occurrences(s, pattern)
    miss = make_string([4] * 40, Alphabet(4))
    assert find_occurrences(tree, miss) == scan_occurrences(s, miss) == []


def test_compact_spans_never_copy_text():
    tree = build_compact_tree(from_text("abcdefabcdab"))
    for v in range(1, tree.node_count):
        span = tree.span[v]
        if span is not None:
            i, j = span
            assert 1 <= i <= j <= len(tree.source)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "pattern,expected", [("cb", [5]), ("b", [3, 6]), ("ba", []), ("aabccb", [1])]
)
def test_find_occurrences_reference(pattern, expected):
    tree = build_compact_tree(from_text("aabccb", 3))
    assert find_occurrences(tree, from_text(pattern, 3)) == expected


def test_find_occurrences_rejects_bad_patterns():
    tree = build_compact_tree(from_text("aabccb", 3))
    with pytest.raises(ValueError):
        find_occurrences(tree, from_text("", 3))
    with pytest.raises(ValueError):
        find_occurrences(tree, from_text("d", 4))


def test_scan_occurrences_overlapping():
    assert scan_occurrences(from_text("aaaa"), from_text("aa")) == [1, 2, 3]


@given(st.data())
@settings(max_examples=300)
def test_search_matches_scan(data):
    sigma = data.draw(st.sampled_from([2, 4]))
    s = random_str(data.draw, sigma, 50)
    plen = data.draw(st.integers(1, min(len(s), 8)))
    if data.draw(st.booleans()):
        start = data.draw(st.integers(1, len(s) - plen + 1))
        pattern = s.sub(start, start + plen - 1)
    else:
        pattern = random_str(data.draw, sigma, plen)
    tree = build_compact_tree(s)
    assert find_occurrences(tree, pattern) == scan_occurrences(s, pattern)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_dot_single_symbol():
    dot = to_dot(build_suffix_tree(from_text("a")))
    assert dot.count("->") == 2
    assert dot.count("[label=") == 5  # 3 nodes + 2 edges
    assert '[label="$"]' in dot


def test_dot_is_deterministic():
    first = to_dot(build_compact_tree(from_text("aabccb")))
    second = to_dot(build_compact_tree(from_text("aabccb")))
    assert first == second
    assert 'label="abccb$"' in first


def test_dot_labels_leaves_with_suffix_numbers():
    dot = to_dot(build_suffix_tree(from_text("ab")))
    assert 'label="1"' in dot
    assert 'label="2"' in dot


def test_stats_line_format():
    s = from_text("aabccb")
    tree = build_suffix_tree(s)
    line = stats_line(tree, growth_via_lcp(s))
    assert line == "n=6 sigma=3 nodes=25 internal=19 leaves=6 growth=5"
