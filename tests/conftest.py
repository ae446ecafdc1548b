from suffixlab.strings import TERMINATOR, Str
from suffixlab.trees import CompactSuffixTree


def path_symbols(tree, j: int) -> tuple[int, ...]:
    """Symbols along the root-to-leaf-j path of either tree, terminator included."""
    up = {child: (v, sym) for v in range(tree.node_count) for sym, child in tree.sorted_children(v)}
    out = []
    v = tree.leaves[j]
    while v != tree.root:
        u, sym = up[v]
        if isinstance(tree, CompactSuffixTree):
            edge = tree.edge_symbols(v) + (() if tree.sorted_children(v) else (TERMINATOR,))
        else:
            edge = (sym,)
        out[:0] = edge
        v = u
    return tuple(out)


def assert_leaf_paths(tree):
    """Every root-to-leaf path must spell its suffix plus the terminator."""
    source = tree.source.symbols
    for j in tree.leaves:
        expected = source[j - 1 :] + (TERMINATOR,)
        assert path_symbols(tree, j) == expected, f"leaf {j} of {tree.source!r}"


def minimal_period(s: Str) -> int:
    """Smallest divisor d of n with s[i] == s[i+d] for every i <= n-d.

    Note the divisibility requirement: "abaab" has no period here even
    though textbook definitions without d | n would give it one. d = n
    always qualifies vacuously, so the result equals n exactly for
    aperiodic strings. The definition count_aperiodic is checked against.
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
