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
        terminator_edges = {
            child
            for v in range(tree.node_count)
            for sym, child in tree.sorted_children(v)
            if sym == TERMINATOR
        }
        assert terminator_edges == set(tree.leaves.values())
        for leaf in tree.leaves.values():
            assert not tree.sorted_children(leaf)


def assert_one_branch_entry_per_insertion(tree):
    branches, symbol = tree.branches, tree.symbol
    assert sum(map(len, branches.values())) == len(tree.source)
    leaves = set(tree.leaves.values())
    for v, below in branches.items():
        # only the root or an internal node is branched from, and a non-root one branches
        assert v not in leaves
        assert v == tree.root or len(tree.sorted_children(v)) >= 2
        assert all(symbol[u] == sym for sym, u in below.items())


def test_branch_entries_number_n_and_sit_at_branching_nodes():
    for n in range(1, 9):
        for symbols in enumerate_strings(n, 2):
            assert_one_branch_entry_per_insertion(build_suffix_tree(Str(symbols, Alphabet(2))))
    rng = np.random.default_rng(3)
    s = Str(tuple(rng.integers(1, 4, 500).tolist()), Alphabet(3))
    assert_one_branch_entry_per_insertion(build_suffix_tree(s))
    # O(n) dict entries under a quadratic node count
    s = Str(tuple(rng.integers(1, 3, 2048).tolist()), Alphabet(2))
    tree = build_suffix_tree(s)
    assert tree.node_count > 2_000_000
    assert sum(map(len, tree.branches.values())) <= 2048


def test_new_internal_counts_sum_to_internal_nodes_minus_root():
    for text in ("aabccb", "abcdefabcdab", "aaaa", "ab"):
        tree = build_suffix_tree(from_text(text))
        # insertion j creates the ids after leaf j - 1 (the root for j = 1), ending with leaf j
        n = len(text)
        leaf_ids = [tree.root] + [tree.leaves[j] for j in range(1, n + 1)]
        created = [b - a - 1 for a, b in zip(leaf_ids, leaf_ids[1:])]
        # brute force: the prefixes of suffix j that no earlier suffix starts with
        new_prefixes = [
            sum(not any(text[i:].startswith(text[j : j + k]) for i in range(j)) for k in range(1, n - j + 1))
            for j in range(n)
        ]
        assert created == new_prefixes
        assert sum(created) == tree.internal_count - 1


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


def distinct_substrings_by_automaton(symbols):
    """Distinct nonempty substrings, counted by an online suffix automaton
    (Blumer et al., 1985) in O(n) states: the independent oracle for the
    suffix-array count. Each appended symbol adds len[cur] - len[link[cur]]
    new substrings, and a cloned state only splits an existing class, so
    it adds none."""
    nxt = [{}]
    link = [-1]
    length = [0]
    last = 0
    distinct = 0
    for c in symbols:
        cur = len(length)
        nxt.append({})
        length.append(length[last] + 1)
        link.append(0)
        p = last
        while p != -1 and c not in nxt[p]:
            nxt[p][c] = cur
            p = link[p]
        if p != -1:
            q = nxt[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(length)
                nxt.append(nxt[q].copy())
                length.append(length[p] + 1)
                link.append(link[q])
                while p != -1 and nxt[p].get(c) == q:
                    nxt[p][c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        distinct += length[cur] - length[link[cur]]
        last = cur
    return distinct


def size_by_automaton(s):
    return distinct_substrings_by_automaton(s.symbols) + len(s) + 1


@given(
    st.integers(1, 5),
    st.integers(1, 3000),
    st.lists(st.integers(0, 4), min_size=1, max_size=40),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_simple_tree_size_equals_the_automaton(sigma, n, word, seed):
    """Uniform strings, and powers of a word with a few symbols changed,
    whose long repeats take the most doubling rounds."""
    alphabet = Alphabet(sigma)
    rng = np.random.Generator(np.random.PCG64(seed))
    uniform = rng.integers(1, sigma + 1, size=n).tolist()
    power = [word[i % len(word)] % sigma + 1 for i in range(n)]
    for i in rng.integers(0, n, size=3).tolist():
        power[i] = int(rng.integers(1, sigma + 1))
    for symbols in (uniform, power):
        s = Str(tuple(symbols), alphabet)
        assert simple_tree_size(s) == size_by_automaton(s)


@pytest.mark.parametrize("n", [15, 16, 17])
def test_both_sides_of_the_window_threshold(n):
    # the window sort serves n <= 16, suffix_arrays n = 17
    rng = np.random.Generator(np.random.PCG64(n))
    for sigma in (1, 2, 3, 4):
        alphabet = Alphabet(sigma)
        for symbols in (
            [1] * n,
            [1 + i % sigma for i in range(n)],
            *rng.integers(1, sigma + 1, size=(20, n)).tolist(),
        ):
            s = Str(tuple(symbols), alphabet)
            assert simple_tree_size(s) == size_by_automaton(s) == build_suffix_tree(s).node_count
            assert build_compact_tree(s) == compact_tree_via_simple(s), str(s)


@pytest.mark.parametrize("n", range(17, 41))
def test_kernel_with_more_symbols_than_positions(n):
    # 26 symbols at n = 17: a pair-key multiplier taken from n instead of
    # the largest rank makes keys collide, and the doubling never ends
    s = make_string(np.random.Generator(np.random.PCG64(n)).integers(1, 27, size=n).tolist(), Alphabet(26))
    assert simple_tree_size(s) == size_by_automaton(s) == build_suffix_tree(s).node_count
    assert build_compact_tree(s) == compact_tree_via_simple(s)


@pytest.mark.parametrize("sigma,n_max", [(1, 16), (2, 12), (3, 8)])
def test_kernel_equals_the_window_sort_on_every_short_string(sigma, n_max):
    for n in range(1, n_max + 1):
        strings = list(enumerate_strings(n, sigma))
        sa, lcp = trees.suffix_arrays(np.array(strings))
        assert [trees._sa_lcp(t) for t in strings] == list(zip(sa.tolist(), lcp.tolist()))


def suffixes_by_python_sort(symbols):
    """Suffix array and LCP array by sorting whole suffix tuples, each ended
    by a terminator above every symbol."""
    end = (max(symbols) + 1,)
    suffixes = [tuple(symbols[i:]) + end for i in range(len(symbols))]
    sa = sorted(range(len(symbols)), key=suffixes.__getitem__)
    lcp = [0]
    for a, b in zip(sa, sa[1:]):
        lcp.append(next(h for h, (x, y) in enumerate(zip(suffixes[a], suffixes[b])) if x != y))
    return sa, lcp


def pack_boundary_rows(sigma, q, n, rng):
    """Constant, period-q, period-(q + 1) and uniform rows of n symbols;
    the period-q row holds sigma, so the block's largest digit is sigma + 1."""
    short, long = rng.integers(1, sigma + 1, size=q), rng.integers(1, sigma + 1, size=q + 1)
    short[0] = sigma
    return [
        [1] * n,
        [int(short[i % q]) for i in range(n)],
        [int(long[i % (q + 1)]) for i in range(n)],
        *rng.integers(1, sigma + 1, size=(4, n)).tolist(),
    ]


#: (sigma, q): a packed key holds as many digits of bit_length(sigma + 1)
#: bits each as fit in 63 bits
PACK_WIDTHS = [(sigma, 63 // (sigma + 1).bit_length()) for sigma in (1, 2, 3, 4, 7, 26, 40)]
#: (sigma, p): p is the power of two the key's shift-or doubling reaches
#: before its last step widens it to q digits
DOUBLED_WIDTHS = [(sigma, 1 << q.bit_length() - 1) for sigma, q in PACK_WIDTHS]


@pytest.mark.parametrize("sigma,q", PACK_WIDTHS + DOUBLED_WIDTHS)
def test_kernel_at_the_pack_boundaries(sigma, q):
    rng = np.random.Generator(np.random.PCG64(sigma))
    alphabet = Alphabet(sigma)
    for n in (q - 1, q, q + 1, 2 * q, 2 * q + 1):
        block = np.array(pack_boundary_rows(sigma, q, n, rng))
        sa, lcp = trees.suffix_arrays(block)
        sizes = trees.simple_tree_sizes(block)
        for row, row_sa, row_lcp, size in zip(block.tolist(), sa.tolist(), lcp.tolist(), sizes):
            s = Str(tuple(row), alphabet)
            assert (row_sa, row_lcp) == suffixes_by_python_sort(row), (n, row)
            assert size == size_by_automaton(s)
            oracle = compact_tree_via_simple(s)
            assert [j - 1 for j in oracle.suffix_array] == row_sa
            assert build_compact_tree(s) == oracle


def test_kernel_with_symbols_too_wide_to_pack():
    # 41-bit digits: two do not fit in an int64 key, so q = 1 and every
    # round is a rank-pair round; 63-bit digits reach 2**63 - 2, the
    # largest symbol whose terminator digit still fits
    rng = np.random.Generator(np.random.PCG64(40))
    for n, base in [(n, 2**40 - 1) for n in (1, 2, 3, 17, 33)] + [(17, 2**63 - 5)]:
        block = base + np.array(pack_boundary_rows(3, 4, n, rng))
        sa, lcp = trees.suffix_arrays(block)
        sizes = trees.simple_tree_sizes(block)
        for row, row_sa, row_lcp, size in zip(block.tolist(), sa.tolist(), lcp.tolist(), sizes):
            assert (row_sa, row_lcp) == suffixes_by_python_sort(row), (n, row)
            assert size == distinct_substrings_by_automaton(tuple(row)) + n + 1


def pack_width_rows(sigma, q, rng):
    """Rows of 4q + 2 symbols in which adjacent sorted suffixes share q - 1,
    q, q + 1, 2q - 1 and 2q symbols, with uniform rows beside them. Row
    u1u2v makes the suffixes at 0 and len(u) + 1 share u; in row v1u2u
    the suffix u shares u with the suffix u2u, a match that runs to the
    string end. In the constant row adjacent suffixes share 1, 2, ...,
    4q + 1 symbols, each match running to the end."""
    n = 4 * q + 2
    rows, shared = [[1] * n], [range(n)]
    for length in (q - 1, q, q + 1, 2 * q - 1, 2 * q) if sigma > 1 else ():
        u = rng.integers(1, sigma + 1, size=length).tolist()
        v = rng.integers(1, sigma + 1, size=n - 2 * length - 2).tolist()
        rows += [u + [1] + u + [2] + v, v + [1] + u + [2] + u]
        shared += [[length], [length]]
    rows += rng.integers(1, sigma + 1, size=(3, n)).tolist()
    shared += [[], [], []]
    return rows, shared


@pytest.mark.parametrize(
    "sigma,q,base", [(sigma, q, 0) for sigma, q in PACK_WIDTHS + DOUBLED_WIDTHS] + [(3, 1, 2**40 - 1)]
)
def test_lcp_at_the_pack_width(sigma, q, base):
    # the LCPs below q come off the sorted q-keys, the rest are lifted from
    # q; base 2**40 - 1 makes 41-bit digits, so q = 1
    rows, shared = pack_width_rows(sigma, q, np.random.Generator(np.random.PCG64(q + sigma)))
    block = base + np.array(rows)
    sa, lcp = trees.suffix_arrays(block)
    for row, row_sa, row_lcp, lengths in zip(block.tolist(), sa.tolist(), lcp.tolist(), shared):
        assert (row_sa, row_lcp) == suffixes_by_python_sort(row), row
        assert set(lengths) <= set(row_lcp), row


def leading_equal_digits_by_python(diff, q, digit):
    """Leading zero digits of a q-digit xor, one digit at a time."""
    mask = (1 << digit) - 1
    return next((j for j in range(q) if diff >> (q - 1 - j) * digit & mask), q)


def test_leading_equal_digits_at_every_bit():
    # every (q, digit) pair the kernel packs, with xors whose top bit is b
    # (2**b and 2**(b + 1) - 1) at each b, and 0; above 2**53 a float64
    # rounds, and 2**(b + 1) - 1 rounds up to the next power of two
    for digit in range(2, 64):
        q = 63 // digit
        diffs = [0] + [x for b in range(q * digit) for x in (1 << b, (2 << b) - 1)]
        got = trees._leading_equal_digits(np.array(diffs, dtype=np.int64), q, digit)
        assert got.tolist() == [leading_equal_digits_by_python(x, q, digit) for x in diffs], digit


@given(
    st.sampled_from([1, 2, 3, 4, 5, 7, 26]),
    st.integers(1, 200),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3)), min_size=2, max_size=8),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_kernel_rows_equal_a_python_sort(sigma, n, shapes, seed):
    """Blocks mixing uniform rows (period 0) and powers of short words with a
    few symbols changed, so that rows need different numbers of doubling
    rounds and lifted pairs of one row sit beside rows with none."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for period, changes in shapes:
        row = rng.integers(1, sigma + 1, size=n)
        if period:
            row = np.resize(row[:period], n)
            row[rng.integers(0, n, size=changes)] = rng.integers(1, sigma + 1, size=changes)
        rows.append(row)
    block = np.array(rows)
    sa, lcp = trees.suffix_arrays(block)
    for row, row_sa, row_lcp in zip(block.tolist(), sa.tolist(), lcp.tolist()):
        assert (row_sa, row_lcp) == suffixes_by_python_sort(row), row


def tie_free_block():
    """32 uniform binary rows of 256 symbols; no row repeats 31 symbols, the
    q of a σ = 2 key, so every row's packed keys differ."""
    block = np.random.Generator(np.random.PCG64(1)).integers(1, 3, size=(32, 256))
    assert trees.suffix_arrays(block)[1].max() < 31
    return block


def count_calls(monkeypatch, *names):
    """Wrap the named trees functions so that each call appends its name."""
    calls = []
    for name in names:
        real = getattr(trees, name)
        monkeypatch.setattr(trees, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    return calls


def refuse(*args):
    raise AssertionError("called")


def test_sizes_of_a_tie_free_block_take_one_sort(monkeypatch):
    block = tie_free_block()
    expected = [size_by_automaton(Str(tuple(row), Alphabet(2))) for row in block.tolist()]
    calls = count_calls(monkeypatch, "_packed_keys")
    monkeypatch.setattr(trees, "suffix_arrays", refuse)
    monkeypatch.setattr(trees, "_sorted_suffixes", refuse)
    assert trees.simple_tree_sizes(block).tolist() == expected
    assert calls == ["_packed_keys"]


def test_a_tied_row_sends_its_block_through_the_kernel_once(monkeypatch):
    block = tie_free_block()
    block[5, 200:240] = block[5, 10:50]  # two suffixes of row 5 share 40 > 31 symbols
    expected = [size_by_automaton(Str(tuple(row), Alphabet(2))) for row in block.tolist()]
    calls = count_calls(monkeypatch, "_packed_keys", "_sorted_suffixes")
    assert trees.simple_tree_sizes(block).tolist() == expected
    assert calls == ["_packed_keys", "_sorted_suffixes"]


def test_one_symbol_rows_pass_the_tie_test(monkeypatch):
    """An (r, 1) block has no adjacent pair, so no xor and no tie: each row
    is a root, one internal node and a leaf."""
    block = np.array([[1], [2], [26], [1]])
    monkeypatch.setattr(trees, "_sorted_suffixes", refuse)
    sizes = trees.simple_tree_sizes(block).tolist()
    assert sizes == [3] * 4
    assert sizes == [simple_tree_size(make_string(row, Alphabet(26))) for row in block.tolist()]


@pytest.mark.parametrize("n", [1, 5, 40])
def test_a_block_of_no_rows_has_no_sizes(n):
    sizes = trees.simple_tree_sizes(np.ones((0, n), dtype=np.int64))
    assert sizes.shape == (0,)


def test_suffix_arrays_of_a_tie_free_block_build_no_rank_table(monkeypatch):
    block = tie_free_block()
    sa, lcp = trees.suffix_arrays(block)
    calls = count_calls(monkeypatch, "_packed_keys", "_sorted_suffixes")
    for name in ("cumsum", "put_along_axis"):
        monkeypatch.setattr(np, name, refuse)
    got_sa, got_lcp = trees.suffix_arrays(block)
    assert calls == ["_packed_keys", "_sorted_suffixes"]
    assert np.array_equal(got_sa, sa) and np.array_equal(got_lcp, lcp)


def test_simple_tree_size_above_the_window_lists_no_suffix_array(monkeypatch):
    s = make_string(np.random.Generator(np.random.PCG64(2)).integers(1, 3, size=300).tolist(), Alphabet(2))
    expected = size_by_automaton(s)
    monkeypatch.setattr(trees, "_sa_lcp", refuse)
    monkeypatch.setattr(trees, "suffix_arrays", refuse)
    assert simple_tree_size(s) == expected


@given(
    st.sampled_from([1, 2, 3, 4, 26]),
    st.integers(1, 120),
    st.lists(st.tuples(st.integers(-1, 12), st.integers(0, 3)), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_sizes_equal_the_kernel_and_the_automaton(sigma, n, shapes, seed):
    """Blocks mixing uniform rows (period 0), powers of short words with a
    few symbols changed, and copies of an earlier row (period -1): a copy's
    keys equal its twin's but belong to another row, so they tie nothing."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for period, changes in shapes:
        row = rng.integers(1, sigma + 1, size=n)
        if period < 0 and rows:
            row = rows[int(rng.integers(0, len(rows)))].copy()
        elif period > 0:
            row = np.resize(row[:period], n)
            row[rng.integers(0, n, size=changes)] = rng.integers(1, sigma + 1, size=changes)
        rows.append(row)
    block = np.array(rows)
    lcp = trees.suffix_arrays(block)[1]
    sizes = trees.simple_tree_sizes(block).tolist()
    assert sizes == (n * (n + 1) // 2 - lcp.sum(axis=1) + n + 1).tolist()
    assert sizes == [distinct_substrings_by_automaton(tuple(row)) + n + 1 for row in block.tolist()]


@pytest.mark.parametrize(
    "block,message",
    [
        (np.ones((3, 0), dtype=np.int64), "empty strings"),
        (np.array([[1, 0, 2]]), "at least 1"),
        (np.array([[2, -1], [1, 1]]), "at least 1"),
        pytest.param(np.array([1, 2, 1]), r"block must be 2-D, got shape \(3,\)", id="1-D"),
        pytest.param(np.ones((1, 2, 3), dtype=np.int64), r"block must be 2-D, got shape \(1, 2, 3\)", id="3-D"),
        pytest.param(np.array([[2**63 - 1, 1, 2**63 - 1]]), r"below 2\*\*63 - 1", id="int64-max"),
    ],
)
def test_kernel_refuses_blocks_outside_its_domain(block, message):
    for count in (trees.suffix_arrays, trees.simple_tree_sizes):
        with pytest.raises(ValueError, match=message):
            count(block)


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
    assert growth_sum_identity(from_text(text)) == (nodes, nodes, nodes)


def test_growth_sum_identity_needs_two_symbols():
    with pytest.raises(ValueError):
        growth_sum_identity(from_text("a"))


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


def assert_children_in_symbol_order(tree):
    # sorted_children lists children[v] as stored, so the builders must
    # store plain symbols ascending and the terminator last
    for below in tree.children:
        assert list(below) == sorted(below, key=lambda sym: (sym == TERMINATOR, sym))


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
            for built in (tree, compact_tree_via_simple(s)):
                assert_children_in_symbol_order(built)


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
            assert build_compact_tree(s) == compact_tree_via_simple(s), str(s)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_direct_compact_tree_equals_collapsed_simple_tree_random(data):
    sigma = data.draw(st.integers(1, 5))
    s = random_str(data.draw, sigma, 400)
    tree = build_compact_tree(s)
    oracle = compact_tree_via_simple(s)
    assert tree == oracle
    assert_intervals_hold_subtree_leaves(tree)
    for built in (tree, oracle):
        assert_children_in_symbol_order(built)


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
    for v in range(tree.node_count):
        i, j = tree.span[v]  # empty, (i, i - 1), on the root and terminator-only edges
        assert 1 <= i <= j + 1 <= len(tree.source) + 1


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
    dot = "".join(to_dot(build_suffix_tree(from_text("a"))))
    assert dot.count("->") == 2
    assert dot.count("[label=") == 5  # 3 nodes + 2 edges
    assert '[label="$"]' in dot


def test_dot_is_deterministic():
    first = "".join(to_dot(build_compact_tree(from_text("aabccb"))))
    second = "".join(to_dot(build_compact_tree(from_text("aabccb"))))
    assert first == second
    assert 'label="abccb$"' in first


def test_dot_labels_leaves_with_suffix_numbers():
    dot = "".join(to_dot(build_suffix_tree(from_text("ab"))))
    assert 'label="1"' in dot
    assert 'label="2"' in dot


def test_stats_line_format():
    s = from_text("aabccb")
    tree = build_suffix_tree(s)
    line = stats_line(tree, growth_via_lcp(s))
    assert line == "n=6 sigma=3 nodes=25 internal=19 leaves=6 growth=5"
