"""Simple and compact suffix trees, and the growth statistic.

The simple tree stores one symbol per edge and is built by inserting the
suffixes one after another, longest first; it is quadratic in the worst
case. The compact tree is obtained from it by collapsing every maximal
unary chain into a single edge whose label is a span into the source
string, so it never copies text and has at most 2n nodes.

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

from typing import NamedTuple

from .strings import TERMINATOR, Str, symbol_char


def _child_order(sym: int) -> tuple[bool, int]:
    # plain symbols ascending, terminator after all of them
    return (sym == TERMINATOR, sym)


class SuffixTree:
    """Simple suffix tree: arena of nodes, one symbol per edge.

    children[v] maps an edge symbol to the child node id; parent[v] is -1
    for the root. leaves maps each suffix start position j (1-based) to
    its leaf node, and every leaf's incoming edge is the terminator.
    """

    root = 0

    def __init__(self, source: Str):
        self.source = source
        self.children: list[dict[int, int]] = [{}]
        self.parent: list[int] = [-1]
        self.leaves: dict[int, int] = {}
        #: internal nodes created by each suffix insertion, in insertion order
        self.new_internal_per_suffix: list[int] = []
        self._edge_symbol: list[int] = [TERMINATOR]  # unused slot for the root
        self._leaf_numbers: dict[int, int] = {}

    @property
    def node_count(self) -> int:
        return len(self.children)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def internal_count(self) -> int:
        return self.node_count - self.leaf_count

    def leaf_number(self, node: int) -> int | None:
        return self._leaf_numbers.get(node)

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

    def sorted_children(self, node: int) -> list[tuple[int, int]]:
        return sorted(self.children[node].items(), key=lambda it: _child_order(it[0]))


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
        i = 0
        remaining = n - j0
        while i < remaining:
            u = children[v].get(syms[j0 + i])
            if u is None:
                break
            v = u
            i += 1
        created_internal = 0
        for p in range(j0 + i, n):
            children.append({})
            parent.append(v)
            edge_symbol.append(syms[p])
            w = len(children) - 1
            children[v][syms[p]] = w
            v = w
            created_internal += 1
        children.append({})
        parent.append(v)
        edge_symbol.append(TERMINATOR)
        leaf = len(children) - 1
        children[v][TERMINATOR] = leaf
        tree.leaves[j0 + 1] = leaf
        tree._leaf_numbers[leaf] = j0 + 1
        tree.new_internal_per_suffix.append(created_internal)
    return tree


class CompactSuffixTree:
    """Compact suffix tree with span-labelled edges.

    span[v] is the 1-based inclusive (i, j) range of source symbols on the
    edge entering v, or None when that edge carries no plain symbols; the
    has_terminator flag marks edges that end with the terminator. Every
    internal node except the root has at least two children.
    """

    root = 0

    def __init__(self, source: Str):
        self.source = source
        self.children: list[dict[int, int]] = [{}]
        self.parent: list[int] = [-1]
        self.span: list[tuple[int, int] | None] = [None]
        self.has_terminator: list[bool] = [False]
        self.leaves: dict[int, int] = {}
        self._leaf_numbers: dict[int, int] = {}

    @property
    def node_count(self) -> int:
        return len(self.children)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def internal_count(self) -> int:
        return self.node_count - self.leaf_count

    def leaf_number(self, node: int) -> int | None:
        return self._leaf_numbers.get(node)

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

    def sorted_children(self, node: int) -> list[tuple[int, int]]:
        return sorted(self.children[node].items(), key=lambda it: _child_order(it[0]))

    def edge_labels(self) -> list[str]:
        """Labels of all edges, for inspection and tests."""
        return [self.edge_label(v) for v in range(1, self.node_count)]


def build_compact_tree(s: Str) -> CompactSuffixTree:
    """Compress every maximal unary chain of the simple tree into one edge."""
    naive = build_suffix_tree(s)
    # a representative suffix number below every node, to anchor edge spans
    rep = [0] * naive.node_count
    for j, leaf in naive.leaves.items():
        v = leaf
        while v != -1 and rep[v] == 0:
            rep[v] = j
            v = naive.parent[v]

    tree = CompactSuffixTree(s)
    stack = [(naive.root, tree.root, 0)]  # (simple node, compact node, symbol depth)
    while stack:
        nv, cv, depth = stack.pop()
        for sym, node in naive.sorted_children(nv):
            count = 0 if sym == TERMINATOR else 1
            term = sym == TERMINATOR
            while len(naive.children[node]) == 1:
                ((nxt_sym, nxt),) = naive.children[node].items()
                if nxt_sym == TERMINATOR:
                    term = True
                else:
                    count += 1
                node = nxt
            tree.children.append({})
            tree.parent.append(cv)
            start = rep[node] + depth
            tree.span.append((start, start + count - 1) if count else None)
            tree.has_terminator.append(term)
            c = len(tree.children) - 1
            tree.children[cv][sym] = c
            if naive.children[node]:
                stack.append((node, c, depth + count))
            else:
                j = rep[node]  # a leaf's representative is itself
                tree.leaves[j] = c
                tree._leaf_numbers[c] = j
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
    return _growth_of_symbols(s.symbols)


def _growth_of_symbols(syms: tuple[int, ...]) -> int:
    n = len(syms)
    best = 0
    for j in range(1, n):
        if n - j <= best:
            break
        k = 0
        while j + k < n and syms[k] == syms[j + k]:
            k += 1
        if k > best:
            best = k
    return n - best


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
    growth_sum = sum(_growth_of_symbols(syms[m:]) for m in range(n - 1)) + 2 + n
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

    Walks edge spans from the root; once the pattern is consumed, every
    leaf number in the subtree below is an occurrence. Returns a sorted
    list, empty when the pattern does not occur.
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
    found = []
    stack = [node]
    while stack:
        v = stack.pop()
        j = tree.leaf_number(v)
        if j is not None:
            found.append(j)
        stack.extend(tree.children[v].values())
    return sorted(found)


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
    for v in range(tree.node_count):
        j = tree.leaf_number(v)
        label = "" if j is None else str(j)
        lines.append(f'  n{v} [label="{label}"];')
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
