"""Simple and compact suffix trees, and the growth statistic.

The simple tree stores one symbol per edge and is built by inserting the
suffixes one after another, longest first; it is quadratic in the worst
case. The compact tree has one edge per maximal unary chain of the simple
tree, labelled by a span into the source string, so it never copies text
and has at most 2n nodes. It is built without the simple tree, from a
suffix array and its LCP array; compact_tree_via_simple collapses the
simple tree instead, and serves as the oracle the direct build is checked
against.

One kernel, suffix_arrays, sorts the suffixes of a block of strings with
numpy: keys that pack the first few symbols of each suffix into one
int64, sorted once, then prefix doubling on rank pairs if some keys tie.
A string of at most _SA_WINDOW symbols is sorted in pure Python instead.
The simple tree's node count is read off the LCPs: one root, n leaves
and one internal node per distinct nonempty substring, which number
C(n+1, 2) minus the LCP sum. simple_tree_sizes needs no suffix array for
that, only the sorted key values, unless keys tie. The sampling
experiments use that count; the tree itself remains the object under
study and the oracle the count is checked against.

The growth of a string is the number of new internal nodes the full
string contributes when it is inserted last, which equals n minus the
longest common prefix of the string with any of its proper suffixes.
Both routes to that number are implemented (tree inspection and direct
scanning) so each can check the other.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, islice
from typing import TYPE_CHECKING

from .strings import TERMINATOR, Str, growth_of_symbols, symbol_char

if TYPE_CHECKING:
    import numpy as np


class TreeBase:
    """Shared by both trees: leaves maps each suffix start position j
    (1-based) to its leaf node. Each tree gives node_count,
    sorted_children(v), v's (first edge symbol, child) pairs with plain
    symbols ascending and the terminator last, and edge_label(child), the
    text on the edge into child. Two trees are equal when they are of one
    type and every stored field is."""

    root = 0

    def __init__(self, source: Str):
        self.source = source
        self.leaves: dict[int, int] = {}

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and vars(self) == vars(other)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def internal_count(self) -> int:
        return self.node_count - self.leaf_count


class SuffixTree(TreeBase):
    """Simple suffix tree: one symbol per edge, the terminator into leaves.

    Insertion j numbers the nodes it creates consecutively, ending with
    leaf j, so every node but a leaf has the next id as a child. symbol[v]
    is the symbol on the edge entering v (-1 at the root). branches[v] maps
    the first symbol of each insertion's path that hangs below v to the
    path's first node; the root's holds insertion 1, so the entries number
    n. Any other node is in branches exactly when it has two or more
    children.
    """

    def __init__(self, source: Str):
        super().__init__(source)
        self.symbol: list[int] = [-1]
        self.branches: dict[int, dict[int, int]] = {}

    @property
    def node_count(self) -> int:
        return len(self.symbol)

    def sorted_children(self, node: int) -> list[tuple[int, int]]:
        symbol = self.symbol
        if node not in self.branches:  # a leaf, or one child: the next id
            return [] if symbol[node] == TERMINATOR else [(symbol[node + 1], node + 1)]
        items = sorted({symbol[node + 1]: node + 1, **self.branches[node]}.items())
        if items[0][0] == TERMINATOR:  # TERMINATOR is 0, below every symbol
            items.append(items.pop(0))
        return items

    def edge_label(self, child: int) -> str:
        return symbol_char(self.symbol[child])


def build_suffix_tree(s: Str) -> SuffixTree:
    """Insert every suffix of s, suffix j = 1..n in turn.

    Each insertion walks from the root as far as the suffix matches, to the
    next id or through branches, then appends one new path carrying the
    remaining symbols followed by the terminator, and numbers the new leaf
    with j. Because the terminator never occurs in s, leaves never gain
    children.
    """
    n = len(s)
    if n < 1:
        raise ValueError("cannot build a suffix tree for the empty string")
    syms = s.symbols
    tree = SuffixTree(s)
    symbol, branches = tree.symbol, tree.branches
    for j0 in range(n):
        v = 0
        p = j0
        while 0 < p < n:  # insertion 1 (p = 0) meets an empty tree
            if symbol[v + 1] == syms[p]:
                v += 1
            elif syms[p] in branches.get(v, ()):
                v = branches[v][syms[p]]
            else:
                break
            p += 1
        branches.setdefault(v, {})[syms[p] if p < n else TERMINATOR] = len(symbol)
        symbol += syms[p:]
        symbol.append(TERMINATOR)
        tree.leaves[j0 + 1] = len(symbol) - 1
    return tree


class CompactSuffixTree(TreeBase):
    """Compact suffix tree with span-labelled edges.

    span[v] is the 1-based inclusive (i, j) range of source symbols on the
    edge entering v; it is empty, (i, i - 1), when the edge carries only
    the terminator, and the root's is (1, 0). An edge ends with the
    terminator exactly when it enters a leaf. Every internal node except
    the root has at least two children.

    suffix_array lists the leaf numbers in left-to-right order (children
    in symbol order, terminator last), and interval[v] is the half-open
    range (lo, hi) of suffix_array that holds exactly the leaves below v.
    Any occurrence of an edge's text would serve as its span; both
    builders take the one in the leftmost suffix below the edge, so
    span[v] starts at suffix_array[interval[v][0]] plus the parent's
    string depth (symbols from the root, the terminator not counted).
    children[v] maps an edge's first symbol to the child node id, in
    symbol order with the terminator last: both builders insert them so.
    """

    def __init__(self, source: Str):
        super().__init__(source)
        self.children: list[dict[int, int]] = [{}]
        self.span: list[tuple[int, int]] = [(1, 0)]
        self.suffix_array: list[int] = []
        self.interval: list[tuple[int, int]] = [(0, len(source))]

    @property
    def node_count(self) -> int:
        return len(self.children)

    def sorted_children(self, node: int) -> list[tuple[int, int]]:
        return list(self.children[node].items())

    def edge_symbols(self, child: int) -> tuple[int, ...]:
        """Plain symbols on the edge entering `child` (terminator excluded)."""
        i, j = self.span[child]
        return self.source.symbols[i - 1 : j]

    def edge_label(self, child: int) -> str:
        text = "".join(symbol_char(sym) for sym in self.edge_symbols(child))
        if not self.children[child]:
            text += symbol_char(TERMINATOR)
        return text

    def edge_labels(self) -> list[str]:
        """Labels of all edges, for inspection and tests."""
        return [self.edge_label(v) for v in range(1, self.node_count)]


#: strings of at most this many symbols are sorted by whole suffixes in
#: pure Python; longer ones go through the numpy kernel, which one-row
#: timings (2-CPU Xeon) put even with Python at n ≈ 48-64 for σ = 2 and
#: 64-80 for σ = 4; the window also picks the test texts that reach it
_SA_WINDOW = 16


def _leading_equal_digits(diff: np.ndarray, q: int, digit: int) -> np.ndarray:
    """For xors of two q-digit keys, the number of leading digits the keys
    share: the q·digit key bits less the xor's bit length, in whole digits.

    The bit length is frexp's exponent of the xor as a float64, which is
    exact below 2**53. Above that the conversion rounds to nearest, and a
    value of b bits lies in [2**(b-1), 2**b), so it rounds to at most
    2**b: the exponent is b or b + 1, never more. It is b + 1 exactly when
    the xor shifted right by that exponent less 1 is 0, and then one is
    taken off. A xor of 0 has exponent 0 and, corrected, bit length 0."""
    import numpy as np

    bits = np.frexp(diff)[1]
    bits -= diff >> np.maximum(bits - 1, 0) == 0
    return (q * digit - np.maximum(bits, 0)) // digit


def _packed_keys(block: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The checks and the packing of suffix_arrays, run once per block by
    either entry point: the q-keys of every suffix, with one led by the
    terminator digit past the end, then q and the bits of one digit."""
    import numpy as np

    if block.ndim != 2:
        raise ValueError(f"block must be 2-D, got shape {block.shape}")
    rows, n = block.shape
    if n < 1:
        raise ValueError("cannot sort the suffixes of empty strings")
    if block.min(initial=1) < 1:
        raise ValueError("symbols must be at least 1")
    top = int(block.max(initial=0)) + 1
    if top > 2**63 - 1:
        raise ValueError("symbols must be below 2**63 - 1, the largest int64")
    digit = top.bit_length()
    wide = 63 // digit  # digits in the widest key
    qkey = np.empty((rows, n + 1), dtype=np.int64)
    qkey[:, :n] = block
    qkey[:, n] = top
    q = 1
    while q < wide:
        extra = min(q, wide - q)  # digits the key gains
        drop = (q - extra) * digit  # bits of the next q digits that do not fit
        longer = qkey << extra * digit
        if drop:
            qkey >>= drop  # in place: qkey is dead once or-ed into longer
        # one or over the rows laid end to end runs about twice as fast as
        # a strided one; the digits it reads after a terminator decide nothing
        longer.ravel()[:-q] |= qkey.ravel()[q:]
        qkey = longer
        q += extra
    return qkey, q, digit


def suffix_arrays(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-based suffix arrays and LCP arrays of the rows of a 2-D block of
    symbols ≥ 1, as Str holds them, the terminator ranked above every
    symbol; lcp[:, r] counts the symbols shared by the suffixes at
    sa[:, r - 1] and sa[:, r]. Raises ValueError for a block that is not
    2-D, has no columns, holds a symbol below 1 or one of 2**63 - 1 or
    more, whose terminator digit would not fit in int64.

    The digit top = largest symbol + 1 is the terminator digit, and the
    digits after it never decide an order or an LCP: of suffixes i < j of
    a row, j has top at digit n - j where i has a symbol, and the key past
    the end starts with top where each suffix's starts with a symbol. The
    packing (Larsson & Sadakane, 2007) runs over the rows laid end to end:
    the key of m + e digits, e ≤ m, is the key of the first m shifted left
    by e digits, or-ed with the key of the m after them (0 past the last
    row) shifted right by m - e. So the keys of 1, 2, 4, ... symbols take
    no sort, and a last step widens them to q, the most whose key fits in
    63 bits: 31 for σ ≤ 2, 21 for σ = 3 to 6, 15 for σ = 7, 12 for σ = 26
    (1 when two digits do not fit).

    One sort of each row by its q-keys follows. A sorted sequence does
    not depend on how ties were broken, so these are the q-keys in the
    final order, and an adjacent pair shares as many symbols as their keys
    share leading digits, below q. When no pair's keys are equal, that
    sort is the suffix array and the LCPs are done: a block whose q-keys
    all differ costs one sort and builds no rank table.

    Otherwise prefix doubling (Manber & Myers, 1993) goes on from k = q: a
    round ranks the first k symbols of every suffix by the last sort, and
    the next key is the pair (rank[i], rank[i + k]), a block past the end
    ranking above every rank, sorted in turn. The pair key's multiplier
    comes from the largest rank, so keys never collide. Stops once every
    row's keys differ, at the latest once k ≥ n. The sorts need not be
    stable: ranks depend only on key values, and the last round's keys all
    differ, so they alone fix the order. Only the pairs whose q-keys are
    equal are lifted further (binary lifting over the rounds' rank tables:
    a block extends a match when it has the same rank at both suffixes),
    and their last step below q is read off the q-keys at the lifted
    offsets. Each table has a column past the end, a key that starts with
    top or a rank of -1, which no suffix inside the string matches.
    """
    return _sorted_suffixes(*_packed_keys(block))


def _sorted_suffixes(qkey: np.ndarray, q: int, digit: int) -> tuple[np.ndarray, np.ndarray]:
    """suffix_arrays of the block whose keys _packed_keys returned."""
    import numpy as np

    rows, n = qkey.shape[0], qkey.shape[1] - 1
    key = qkey[:, :n]
    sa = np.argsort(key, axis=1)
    ordered = np.take_along_axis(key, sa, axis=1)
    lcp = np.zeros((rows, n), dtype=np.int64)
    lcp[:, 1:] = _leading_equal_digits(ordered[:, :-1] ^ ordered[:, 1:], q, digit)
    pair = np.flatnonzero(lcp == q)  # pairs sharing q symbols; lcp[:, 0] is 0 < q
    if not pair.size:  # every row's q-keys differ, so they alone fix the order
        return sa, lcp
    tables = []  # ranks of the first q, 2q, ... symbols, each with a column past the end
    k = q
    # once k ≥ n the keys just sorted reach every suffix's terminator but
    # the whole row's, the one suffix of n symbols, so that sort is final
    while k < n:
        sorted_rank = np.zeros((rows, n), dtype=np.int64)
        np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=sorted_rank[:, 1:])
        if (sorted_rank[:, -1] == n - 1).all():
            break
        tables.append(np.full((rows, n + 1), -1, dtype=np.int64))
        rank = tables[-1][:, :n]
        np.put_along_axis(rank, sa, sorted_rank, axis=1)
        above = int(sorted_rank[:, -1].max()) + 1  # the terminator
        key = rank * (above + 1)
        key[:, : n - k] += rank[:, k:]
        key[:, n - k :] += above
        k *= 2
        sa = np.argsort(key, axis=1)
        ordered = np.take_along_axis(key, sa, axis=1)

    del key, ordered, sorted_rank  # dead, and the gathers below set the peak at large n
    left = pair // n * (n + 1)  # where the pair's row starts in a table
    right = left + sa.ravel()[pair]
    left += sa.ravel()[pair - 1]
    match = np.full(len(pair), q, dtype=np.int64)
    for table in reversed(tables):
        k //= 2
        flat = table.ravel()
        match += k * (flat[left + match] == flat[right + match])
    flat = qkey.ravel()
    lcp.ravel()[pair] = match + _leading_equal_digits(flat[left + match] ^ flat[right + match], q, digit)
    return sa, lcp


def _sa_lcp(syms: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Suffix array and LCP array of one string, as suffix_arrays gives them."""
    n = len(syms)
    if n > _SA_WINDOW:
        import numpy as np

        sa, lcp = suffix_arrays(np.array([syms]))
        return sa[0].tolist(), lcp[0].tolist()
    above = max(syms) + 1  # the terminator
    window = [syms[i:] + (above,) for i in range(n)]
    sa = sorted(range(n), key=window.__getitem__)
    lcp = [0]
    for a, b in zip(sa, sa[1:]):
        wa, wb = window[a], window[b]
        h = 0
        while wa[h] == wb[h]:  # the shorter suffix's terminator stops it
            h += 1
        lcp.append(h)
    return sa, lcp


def simple_tree_size(s: Str) -> int:
    """Node count of the simple suffix tree of s, without building it: a
    root, n leaves and one internal node per distinct nonempty substring.
    In sorted order each suffix adds the prefixes it does not share with
    the one before, so those number C(n+1, 2) minus the LCP sum."""
    n = len(s)
    if n < 1:
        raise ValueError("cannot build a suffix tree for the empty string")
    if n > _SA_WINDOW:
        import numpy as np

        return int(simple_tree_sizes(np.array([s.symbols]))[0])
    return n * (n + 1) // 2 - sum(_sa_lcp(s.symbols)[1]) + n + 1


def simple_tree_sizes(block: np.ndarray) -> np.ndarray:
    """simple_tree_size of every row of a 2-D block, which raises
    ValueError for a block suffix_arrays refuses. A size needs the LCP sum
    and no suffix array: when a row's q-keys all differ, its sorted key
    values alone give every adjacent pair's LCP, read off their xor as
    suffix_arrays reads it, so such a block costs one np.sort and no rank
    table. A block with a tie goes through the whole kernel, on the keys
    already packed."""
    import numpy as np

    qkey, q, digit = _packed_keys(block)
    n = qkey.shape[1] - 1
    ordered = np.sort(qkey[:, :n], axis=1)
    diff = ordered[:, :-1] ^ ordered[:, 1:]
    if diff.all():
        # _leading_equal_digits without its clamps: every xor is at least 1,
        # so its exponent is at least 1 and its corrected bit length too
        bits = np.frexp(diff)[1]
        bits -= diff >> (bits - 1) == 0
        lcp = (q * digit - bits) // digit
    else:  # two keys tie
        del ordered, diff  # dead, and the kernel sets the peak at large n
        lcp = _sorted_suffixes(qkey, q, digit)[1]
    return n * (n + 1) // 2 - lcp.sum(axis=1) + n + 1


def build_compact_tree(s: Str) -> CompactSuffixTree:
    """Build the compact tree from the suffix array and LCP array of s.

    One stack pass over the suffix array places the leaves and creates an
    internal node at every LCP depth where suffixes branch, giving each
    node its string depth, its leaf interval and its children in symbol
    order. The tree is then laid out from the root in
    compact_tree_via_simple's own order: each node taken off a stack, last
    pushed first, hands consecutive ids to all its children in symbol
    order and pushes the internal ones. A span starts at sa[lo], the
    leftmost suffix of the child's interval. Never builds the simple tree.
    The sort and its cost are suffix_arrays'; the stack pass and the
    layout are linear but run in pure Python.
    """
    n = len(s)
    if n < 1:
        raise ValueError("cannot build a suffix tree for the empty string")
    syms = s.symbols
    sa, lcp = _sa_lcp(syms)
    lcp.append(0)  # closes every node but the root

    # scaffold: ids 0..n-1 are the leaves in suffix-array order, id n is
    # the root, later ids are internal nodes
    depth = [*map(n.__sub__, sa), 0]
    lo = list(range(n)) + [0]
    hi = [n] * (n + 1)  # set as each node closes; the root never does
    kids: list[list[int]] = [[]]  # children of node n + i, in symbol order
    stack = [n]
    for r, h in enumerate(lcp):
        # a leaf is always deeper than its LCP with either neighbour
        while depth[stack[-1]] > h:
            last = stack.pop()
            top = stack[-1]
            hi[last] = r
            if depth[top] < h:
                stack.append(len(depth))
                depth.append(h)
                lo.append(lo[last])
                hi.append(r)
                kids.append([last])
            else:
                kids[top - n].append(last)
        stack.append(r)

    tree = CompactSuffixTree(s)
    span, interval, children, leaves = tree.span, tree.interval, tree.children, tree.leaves
    head = syms + (TERMINATOR,)  # first symbol of an edge
    stack = [(n, tree.root)]  # (scaffold node, compact id)
    while stack:
        t, u = stack.pop()
        below = children[u]
        for c in kids[t - n]:
            v = len(children)
            start = sa[lo[c]]
            below[head[start + depth[t]]] = v
            span.append((start + depth[t] + 1, start + depth[c]))
            interval.append((lo[c], hi[c]))
            children.append({})
            if c < n:
                leaves[sa[c] + 1] = v
            else:
                stack.append((c, v))
    tree.suffix_array = [j + 1 for j in sa]
    return tree


def compact_tree_via_simple(s: Str) -> CompactSuffixTree:
    """Compress every maximal unary chain of the simple tree into one edge.

    The quadratic route, kept as the oracle for build_compact_tree; the
    suffix array, the intervals and from them the spans come from the
    collapsed tree's own shape.
    """
    naive = build_suffix_tree(s)
    symbol, branches = naive.symbol, naive.branches
    suffix_of_leaf = {leaf: j for j, leaf in naive.leaves.items()}

    tree = CompactSuffixTree(s)
    children, leaves = tree.children, tree.leaves
    parent = [-1]
    depth = [0]  # symbols from the root, the terminator not counted
    stack = [(naive.root, tree.root)]  # (simple node, compact node)
    while stack:
        nv, cv = stack.pop()
        for sym, node in naive.sorted_children(nv):
            # a node that is neither a leaf nor in branches has one child,
            # the next id
            top = node
            while symbol[node] != TERMINATOR and node not in branches:
                node += 1
            term = symbol[node] == TERMINATOR
            c = len(children)
            children.append({})
            parent.append(cv)
            # edges walked: node - top + 1; the last one is the terminator at a leaf
            depth.append(depth[cv] + node - top + 1 - term)
            children[cv][sym] = c
            if term:
                leaves[suffix_of_leaf[node]] = c
            else:
                stack.append((node, c))

    # a node's children have consecutive ids in symbol order, and every
    # parent is numbered before its children: count the leaves below each
    # node bottom-up, then lay the intervals out left to right top-down
    nodes = tree.node_count
    size = [0 if below else 1 for below in children]
    for v in range(nodes - 1, 0, -1):
        size[parent[v]] += size[v]
    lo = [0] * nodes
    for v in range(1, nodes):
        lo[v] = lo[parent[v]] if parent[v] != parent[v - 1] else lo[v - 1] + size[v - 1]
    tree.interval = [(i, i + k) for i, k in zip(lo, size)]
    sa = tree.suffix_array = [0] * len(leaves)
    for j, leaf in leaves.items():
        sa[lo[leaf]] = j
    # j is 1-based, so suffix j's symbol d + 1 is source symbol j + d
    tree.span += [(sa[i] + depth[parent[v]], sa[i] + depth[v] - 1) for v, i in enumerate(lo) if v]
    return tree


# ---------------------------------------------------------------------------
# Growth
# ---------------------------------------------------------------------------


def growth_via_lcp(s: Str) -> int:
    """Growth by direct scanning, no tree involved.

    Returns n minus the longest common prefix of s with any of its proper
    suffixes (0 when there is none, so a single symbol has growth 1).
    """
    if len(s) < 1:
        raise ValueError("growth of the empty string is undefined")
    return growth_of_symbols(s.symbols)


def growth_from_tree(tree: SuffixTree) -> int:
    """Growth read off a built simple tree.

    n minus the depth of the deepest node with two or more children on the
    path of suffix 1, ids 1..n, each id its depth; the root counts as
    depth 0, which gives growth 1 for one-symbol strings.
    """
    return len(tree.source) - max(v for v in tree.branches if v <= len(tree.source))


def growth_via_tree(s: Str) -> int:
    """Growth computed by building the simple suffix tree and inspecting it."""
    return growth_from_tree(build_suffix_tree(s))


def growth_sum_identity(s: Str) -> tuple[int, int, int]:
    """The simple tree's node count, then two forms of it that build no tree.

    The growth-sum form is the sum of the growths of the suffixes s[m..n]
    for m = 1..n-1, plus 2 (the root and the single node on the path to
    leaf n) plus n leaves, with the growths computed by scanning. The
    substring form is simple_tree_size(s): distinct substrings + n + 1,
    counted from the LCP array. All three must agree.
    """
    n = len(s)
    if n < 2:
        raise ValueError("the identity needs a string of length at least 2")
    nodes = build_suffix_tree(s).node_count
    syms = s.symbols
    growth_sum = sum(growth_of_symbols(syms[m:]) for m in range(n - 1)) + 2 + n
    return nodes, growth_sum, simple_tree_size(s)


# ---------------------------------------------------------------------------
# Search and export
# ---------------------------------------------------------------------------


def find_occurrences(tree: CompactSuffixTree, pattern: Str) -> list[int]:
    """All 1-based start positions of `pattern` in the indexed string.

    Walks edge spans from the root; once the pattern is consumed, the
    leaves below the node reached are the occurrences, read off the
    node's suffix-array interval. Returns a sorted list, empty when the
    pattern does not occur.
    """
    if len(pattern) < 1:
        raise ValueError("pattern must be nonempty")
    source = tree.source.symbols
    sigma = tree.source.alphabet.size
    for pos, sym in enumerate(pattern.symbols, start=1):
        if not 1 <= sym <= sigma:
            raise ValueError(
                f"pattern symbol {sym} at position {pos} is outside alphabet 1..{sigma}"
            )
    psyms = pattern.symbols
    m = len(psyms)
    node = tree.root
    pi = 0
    while pi < m:
        child = tree.children[node].get(psyms[pi])
        if child is None:
            return []
        k, end = tree.span[child]
        while k <= end and pi < m:
            if source[k - 1] != psyms[pi]:
                return []
            k += 1
            pi += 1
        node = child
    lo, hi = tree.interval[node]
    return sorted(tree.suffix_array[lo:hi])


def scan_occurrences(s: Str, pattern: Str) -> list[int]:
    """Pattern positions by direct comparison at every offset.

    The reference that find_occurrences is checked against; costs
    O(n * |pattern|) and touches no tree code.
    """
    if len(pattern) < 1:
        raise ValueError("pattern must be nonempty")
    syms = s.symbols
    psyms = pattern.symbols
    m = len(psyms)
    out = []
    for start in range(len(syms) - m + 1):
        if syms[start : start + m] == psyms:
            out.append(start + 1)
    return out


def to_dot(tree: SuffixTree | CompactSuffixTree) -> Iterator[str]:
    """Deterministic DOT rendering; children in symbol order, leaves
    labelled with their suffix numbers. Yields the text as it makes it, in
    pieces of 4,096 whole lines, so no caller need hold all of it."""
    suffix_of_leaf = {leaf: j for j, leaf in tree.leaves.items()}
    nodes = range(tree.node_count)
    lines = chain(
        ("digraph suffixtree {", "  node [shape=circle];"),
        (f'  n{v} [label="{suffix_of_leaf.get(v, "")}"];' for v in nodes),
        (
            f'  n{v} -> n{child} [label="{tree.edge_label(child)}"];'
            for v in nodes
            for _, child in tree.sorted_children(v)
        ),
        ("}",),
    )
    while piece := list(islice(lines, 4096)):
        yield "\n".join(piece) + "\n"


def stats_line(tree: SuffixTree | CompactSuffixTree, growth: int) -> str:
    """One-line tree summary in the fixed key=value format."""
    return (
        f"n={len(tree.source)} sigma={tree.source.alphabet.size} "
        f"nodes={tree.node_count} internal={tree.internal_count} "
        f"leaves={tree.leaf_count} growth={growth}"
    )
