from functools import cache

import pytest

from mdyck.trees import LEAF, ColoredTree


@cache
def _colored_trees(m, n):
    # every planar binary tree of degree n with vertices colored 0..m,
    # (m + 1)^(n - 1) Cat(n - 1) of them, whether or not in a basis
    if n == 1:
        return (LEAF,)
    return tuple(
        ColoredTree(color, left, right)
        for n_left in range(1, n)
        for left in _colored_trees(m, n_left)
        for right in _colored_trees(m, n - n_left)
        for color in range(m + 1)
    )


@pytest.fixture(scope="session")
def all_colored_trees():
    """``all_colored_trees(m, n)``: every colored tree of degree n, colors 0..m."""
    return _colored_trees
