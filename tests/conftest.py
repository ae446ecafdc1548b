from suffixlab.strings import TERMINATOR


def assert_leaf_paths(tree):
    """Every root-to-leaf path must spell its suffix plus the terminator."""
    source = tree.source.symbols
    for j in tree.leaves:
        expected = source[j - 1 :] + (TERMINATOR,)
        assert tree.path_symbols(j) == expected, f"leaf {j} of {tree.source!r}"
