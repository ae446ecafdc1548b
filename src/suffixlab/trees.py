"""Simple and compact suffix trees, and the growth statistic.

The simple tree stores one symbol per edge and is built by inserting the
suffixes one after another, longest first; it is quadratic in the worst
case. The compact tree has one edge per maximal unary chain of the simple
tree, labelled by a span into the source string, so it never copies text
and has at most 2n nodes. It is built without the simple tree, from a
suffix array (prefix doubling) and its LCP array (Kasai et al., 2001), in
O(n log² n) time and O(n) memory; compact_tree_via_simple collapses the
simple tree instead, and serves as the oracle the direct build is checked
against.

The simple tree's node count is also known without building it: one
root, one internal node per distinct nonempty substring, and n leaves.
simple_tree_size counts it in linear time with a suffix automaton, and
the sampling experiments use it; the tree itself remains the object under
study and the oracle the count is checked against.

The growth of a string is the number of new internal nodes the full
string contributes when it is inserted last, which equals n minus the
longest common prefix of the string with any of its proper suffixes.
Both routes to that number are implemented (tree inspection and direct
scanning) so each can check the other.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .strings import TERMINATOR, Str, growth_of_symbols, symbol_char


class TreeBase:
    """Arena of nodes shared by both trees.

    children[v] maps an edge's first symbol to the child node id; parent[v]
    is -1 for the root. leaves maps each suffix start position j (1-based)
    to its leaf node.
    """

    root = 0

    def __init__(self, source: Str):
        self.source = source
        self.children: list[dict[int, int]] = [{}]
        self.parent: list[int] = [-1]
        self.leaves: dict[int, int] = {}

    @property
    def node_count(self) -> int:
        return len(self.children)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def internal_count(self) -> int:
        return self.node_count - self.leaf_count

    def sorted_children(self, node: int) -> list[tuple[int, int]]:
        """(symbol, child) pairs, plain symbols ascending, terminator last."""
        items = sorted(self.children[node].items())
        if items and items[0][0] == TERMINATOR:  # TERMINATOR is 0, below every symbol
            items.append(items.pop(0))
        return items


class SuffixTree(TreeBase):
    """Simple suffix tree: one symbol per edge, and every leaf's incoming
    edge is the terminator."""

    def __init__(self, source: Str):
        super().__init__(source)
        #: internal nodes created by each suffix insertion, in insertion order
        self.new_internal_per_suffix: list[int] = []
        self._edge_symbol: list[int] = [TERMINATOR]  # unused slot for the root

    def edge_label(self, child: int) -> str:
        """Printable label of the edge entering `child`."""
        return symbol_char(self._edge_symbol[child])

    def path_symbols(self, j: int) -> tuple[int, ...]:
        """Symbols along the root-to-leaf-j path, terminator included."""
        out = []
        v = self.leaves[j]
        while v != self.root:
            out.append(self._edge_symbol[v])
            v = self.parent[v]
        return tuple(reversed(out))


def simple_tree_size(s: Str) -> int:
    """Node count of the simple suffix tree of s, without building it.

    The simple tree has a root, one internal node per distinct nonempty
    substring of s, and n leaves. The distinct substrings are counted with
    an online suffix automaton (Blumer et al., 1985) in O(n) states: each
    appended symbol adds len[cur] - len[link[cur]] new substrings, and a
    cloned state only splits an existing class, so it adds none.
    """
    n = len(s)
    if n < 1:
        raise ValueError("cannot build a suffix tree for the empty string")
    nxt: list[dict[int, int]] = [{}]
    link = [-1]
    length = [0]
    last = 0
    distinct = 0
    for c in s.symbols:
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
    return distinct + n + 1


def build_suffix_tree(s: Str) -> SuffixTree:
    """Insert every suffix of s, suffix j = 1..n in turn.

    Each insertion walks from the root along existing edges as far as the
    suffix matches, then appends one new path carrying the remaining
    symbols followed by the terminator, and numbers the new leaf with j.
    Because the terminator never occurs in s, leaves never gain children.
    """
    n = len(s)
    if n < 1:
        raise ValueError("cannot build a suffix tree for the empty string")
    syms = s.symbols
    tree = SuffixTree(s)
    children = tree.children
    parent = tree.parent
    edge_symbol = tree._edge_symbol
    for j0 in range(n):
        v = 0
        p = j0
        while p < n:
            u = children[v].get(syms[p])
            if u is None:
                break
            v = u
            p += 1
        tree.new_internal_per_suffix.append(n - p)
        for sym in syms[p:]:
            w = len(children)
            children[v][sym] = w
            children.append({})
            parent.append(v)
            edge_symbol.append(sym)
            v = w
        leaf = len(children)
        children[v][TERMINATOR] = leaf
        children.append({})
        parent.append(v)
        edge_symbol.append(TERMINATOR)
        tree.leaves[j0 + 1] = leaf
    return tree


class CompactSuffixTree(TreeBase):
    """Compact suffix tree with span-labelled edges.

    span[v] is the 1-based inclusive (i, j) range of source symbols on the
    edge entering v, or None when that edge carries no plain symbols; the
    has_terminator flag marks edges that end with the terminator. Every
    internal node except the root has at least two children.

    suffix_array lists the leaf numbers in left-to-right order (children
    in symbol order, terminator last), and interval[v] is the half-open
    range (lo, hi) of suffix_array that holds exactly the leaves below v.
    """

    def __init__(self, source: Str):
        super().__init__(source)
        self.span: list[tuple[int, int] | None] = [None]
        self.has_terminator: list[bool] = [False]
        self.suffix_array: list[int] = []
        self.interval: list[tuple[int, int]] = [(0, len(source))]

    def edge_symbols(self, child: int) -> tuple[int, ...]:
        """Plain symbols on the edge entering `child` (terminator excluded)."""
        span = self.span[child]
        if span is None:
            return ()
        i, j = span
        return self.source.symbols[i - 1 : j]

    def edge_label(self, child: int) -> str:
        text = "".join(symbol_char(sym) for sym in self.edge_symbols(child))
        if self.has_terminator[child]:
            text += symbol_char(TERMINATOR)
        return text

    def path_symbols(self, j: int) -> tuple[int, ...]:
        """Symbols along the root-to-leaf-j path, terminator included."""
        out = []
        v = self.leaves[j]
        while v != self.root:
            if self.has_terminator[v]:
                out.append(TERMINATOR)
            out.extend(reversed(self.edge_symbols(v)))
            v = self.parent[v]
        return tuple(reversed(out))

    def edge_labels(self) -> list[str]:
        """Labels of all edges, for inspection and tests."""
        return [self.edge_label(v) for v in range(1, self.node_count)]

    def layout(self) -> tuple:
        """Every field that defines the tree, so that two builds compare with ==."""
        return (
            self.children,
            self.parent,
            self.span,
            self.has_terminator,
            self.leaves,
            self.suffix_array,
            self.interval,
        )


#: symbols of each suffix compared directly by the first sort of _suffix_array
_SA_WINDOW = 16


def _suffix_array(syms: tuple[int, ...]) -> list[int]:
    """0-based starts of the suffixes of syms + terminator in sorted order,
    the terminator ranked above every symbol.

    The first sort compares the first _SA_WINDOW symbols of each suffix,
    then the terminator; for a string no longer than that, every key holds
    its whole suffix and the order is final. Beyond, prefix doubling: after
    the round with block length k, rank[i] orders the first k symbols of
    suffix i; the next round sorts by the pair (rank[i], rank[i + k]),
    where a block past the end is the terminator and ranks last. Stops once
    all ranks differ.
    """
    n = len(syms)
    above = max(syms) + 1  # the terminator
    window = [syms[i : i + _SA_WINDOW] + (above,) for i in range(n)]
    sa = sorted(range(n), key=window.__getitem__)
    if n <= _SA_WINDOW:
        return sa
    rank = [0] * n
    top = 0
    for a, b in zip(sa, sa[1:]):
        if window[b] != window[a]:
            top += 1
        rank[b] = top
    k = _SA_WINDOW
    while top < n - 1:
        key = [rank[i] * (n + 1) + (rank[i + k] if i + k < n else n) for i in range(n)]
        sa.sort(key=key.__getitem__)
        top = 0
        rank[sa[0]] = 0
        for a, b in zip(sa, sa[1:]):
            if key[b] != key[a]:
                top += 1
            rank[b] = top
        k *= 2
    return sa


def _lcp_array(syms: tuple[int, ...], sa: list[int]) -> list[int]:
    """lcp[r] = plain symbols shared by the suffixes at sa[r - 1] and sa[r];
    lcp[0] = 0. Kasai et al. (2001): visiting suffixes by start, the
    match length drops by at most one from one suffix to the next."""
    n = len(syms)
    rank = sorted(range(n), key=sa.__getitem__)  # inverse of sa
    lcp = [0] * n
    h = 0
    for i, r in enumerate(rank):
        if r == 0:
            h = 0
            continue
        j = sa[r - 1]
        room = n - max(i, j)
        while h < room and syms[i + h] == syms[j + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


def build_compact_tree(s: Str) -> CompactSuffixTree:
    """Build the compact tree from the suffix array and LCP array of s.

    One stack pass over the suffix array places the leaves and creates an
    internal node at every LCP depth where suffixes branch, giving each
    node its string depth, its leaf interval and the smallest suffix start
    below it; internal nodes close in left-to-right postorder. The nodes
    are then numbered as compact_tree_via_simple numbers them: internal
    nodes in reverse closing order each hand consecutive ids to all their
    children, in symbol order. An edge span starts at the smallest suffix
    start below it plus the parent's depth. Never builds the simple tree;
    O(n log² n) time and O(n) memory.
    """
    n = len(s)
    if n < 1:
        raise ValueError("cannot build a suffix tree for the empty string")
    syms = s.symbols
    sa = _suffix_array(syms)
    lcp = _lcp_array(syms, sa)
    lcp.append(0)  # closes every node but the root

    # scaffold: ids 0..n-1 are the leaves in suffix-array order, id n is
    # the root, later ids are internal nodes
    depth = [*map(n.__sub__, sa), 0]
    lo = list(range(n)) + [0]
    hi = list(range(1, n + 1)) + [n]
    first = sa + [n]  # smallest 0-based suffix start below the node
    kids: list[list[int]] = [[]]  # children of node n + i, in symbol order
    closed = []
    stack = [n]
    for r, h in enumerate(lcp):
        # a leaf is always deeper than its LCP with either neighbour
        while depth[stack[-1]] > h:
            last = stack.pop()
            top = stack[-1]
            if last > n:
                hi[last] = r
                closed.append(last)
            if depth[top] < h:
                stack.append(len(depth))
                depth.append(h)
                lo.append(lo[last])
                hi.append(r)
                first.append(first[last])
                kids.append([last])
            else:
                kids[top - n].append(last)
                if first[last] < first[top]:
                    first[top] = first[last]
        stack.append(r)
    closed.append(n)

    order = [n]  # scaffold ids by compact id
    ups = []  # scaffold id of the parent of order[1:]
    for t in reversed(closed):
        below = kids[t - n]
        order += below
        ups += [t] * len(below)
    cid = sorted(range(len(order)), key=order.__getitem__)  # compact id by scaffold id
    edges = order[1:]
    starts = list(map(add, map(first.__getitem__, edges), map(depth.__getitem__, ups)))
    ends = list(map(add, map(first.__getitem__, edges), map(depth.__getitem__, edges)))

    tree = CompactSuffixTree(s)
    tree.parent += map(cid.__getitem__, ups)
    tree.span += [(i + 1, j) if i < j else None for i, j in zip(starts, ends)]
    tree.has_terminator += map(n.__gt__, edges)
    tree.interval = list(zip(map(lo.__getitem__, order), map(hi.__getitem__, order)))
    children = tree.children = [{} for _ in order]
    head = syms + (TERMINATOR,)  # first symbol of an edge
    for v, u, i in zip(range(1, len(order)), tree.parent[1:], starts):
        children[u][head[i]] = v
    tree.suffix_array = list(map((1).__add__, sa))
    tree.leaves = dict(zip(tree.suffix_array, cid[:n]))
    return tree


def compact_tree_via_simple(s: Str) -> CompactSuffixTree:
    """Compress every maximal unary chain of the simple tree into one edge.

    The quadratic route, kept as the oracle for build_compact_tree; the
    suffix array and intervals come from the collapsed tree's own shape.
    """
    naive = build_suffix_tree(s)
    kids = naive.children
    # build_suffix_tree gives the nodes each insertion creates consecutive
    # ids, ending with the leaf: so the smallest suffix number below a node
    # is that of the insertion that created it, and a node with one child
    # is followed by that child
    rep = [1]
    for j, created in enumerate(naive.new_internal_per_suffix, start=1):
        rep += [j] * (created + 1)

    tree = CompactSuffixTree(s)
    children, parent, span = tree.children, tree.parent, tree.span
    has_terminator, leaves = tree.has_terminator, tree.leaves
    stack = [(naive.root, tree.root, 0)]  # (simple node, compact node, symbol depth)
    while stack:
        nv, cv, depth = stack.pop()
        for sym, node in naive.sorted_children(nv):
            top = node
            while len(kids[node]) == 1:
                node += 1
            term = not kids[node]
            # edges walked: node - top + 1; the last one is the terminator at a leaf
            count = node - top + 1 - term
            c = len(children)
            children.append({})
            parent.append(cv)
            start = rep[node] + depth
            span.append((start, start + count - 1) if count else None)
            has_terminator.append(term)
            children[cv][sym] = c
            if term:
                leaves[rep[node]] = c
            else:
                stack.append((node, c, depth + count))

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
    tree.suffix_array = [0] * len(leaves)
    for j, leaf in leaves.items():
        tree.suffix_array[lo[leaf]] = j
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

    Walk up from leaf 1 to the nearest ancestor with at least two
    children and return the edge distance minus one. A single-suffix tree
    has no such ancestor; the walk then stops at the root, which gives
    growth 1 for one-symbol strings.
    """
    v = tree.leaves[1]
    dist = 0
    while True:
        v = tree.parent[v]
        dist += 1
        if v == tree.root or len(tree.children[v]) >= 2:
            return dist - 1


def growth_via_tree(s: Str) -> int:
    """Growth computed by building the simple suffix tree and inspecting it."""
    return growth_from_tree(build_suffix_tree(s))


class GrowthSumIdentity(NamedTuple):
    node_count: int
    growth_sum_form: int
    substring_form: int
    equal: bool


def growth_sum_identity(s: Str) -> GrowthSumIdentity:
    """Compare the simple tree's node count with two forms that build no tree.

    The growth-sum form is the sum of the growths of the suffixes s[m..n]
    for m = 1..n-1, plus 2 (the root and the single node on the path to
    leaf n) plus n leaves, with the growths computed by scanning. The
    substring form is simple_tree_size(s): distinct substrings + n + 1,
    counted by a suffix automaton. All three must agree.
    """
    n = len(s)
    if n < 2:
        raise ValueError("the identity needs a string of length at least 2")
    nodes = build_suffix_tree(s).node_count
    syms = s.symbols
    growth_sum = sum(growth_of_symbols(syms[m:]) for m in range(n - 1)) + 2 + n
    substrings = simple_tree_size(s)
    return GrowthSumIdentity(
        node_count=nodes,
        growth_sum_form=growth_sum,
        substring_form=substrings,
        equal=nodes == growth_sum == substrings,
    )


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
        span = tree.span[child]
        if span is not None:
            lo, hi = span
            k = lo
            while k <= hi and pi < m:
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


def to_dot(tree: SuffixTree | CompactSuffixTree) -> str:
    """Deterministic DOT rendering; children in symbol order, leaves
    labelled with their suffix numbers."""
    lines = ["digraph suffixtree {", "  node [shape=circle];"]
    suffix_of_leaf = {leaf: j for j, leaf in tree.leaves.items()}
    for v in range(tree.node_count):
        lines.append(f'  n{v} [label="{suffix_of_leaf.get(v, "")}"];')
    for v in range(tree.node_count):
        for _, child in tree.sorted_children(v):
            lines.append(f'  n{v} -> n{child} [label="{tree.edge_label(child)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def stats_line(tree: SuffixTree | CompactSuffixTree, growth: int) -> str:
    """One-line tree summary in the fixed key=value format."""
    return (
        f"n={len(tree.source)} sigma={tree.source.alphabet.size} "
        f"nodes={tree.node_count} internal={tree.internal_count} "
        f"leaves={tree.leaf_count} growth={growth}"
    )
