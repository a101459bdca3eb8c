"""Exact-arithmetic toolkit for the algebras carried by m-Dyck paths.

Three models of one graded structure: colored planar binary trees, m-Dyck
paths with the m-Tamari order, and simplices of dendriform posets.  All
coefficients are exact rationals; every structural statement ships with an
exhaustive finite verification.
"""

from .exactlin import LinComb, Rational, matrix_rank, span_contains
from .paths import DyckPath, enumerate_paths, path_product, phi
from .series import TruncatedSeries, fuss_catalan, series_solve_free
from .tamari import TamariLattice, build_lattice
from .trees import ColoredTree, enumerate_Bm, graft, tree_product

__all__ = [
    "ColoredTree",
    "DyckPath",
    "LinComb",
    "Rational",
    "TamariLattice",
    "TruncatedSeries",
    "build_lattice",
    "clear_caches",
    "enumerate_Bm",
    "enumerate_paths",
    "fuss_catalan",
    "graft",
    "matrix_rank",
    "path_product",
    "phi",
    "series_solve_free",
    "span_contains",
    "tree_product",
]


def clear_caches() -> None:
    """Empty every memo table and ``lru_cache`` of the library.

    Products, ``phi``, the change of basis, the basis enumerations and the
    m-Tamari lattices are memoised for the life of the process, so a
    long-running process grows without bound.  Clearing frees that memory;
    later calls recompute the same results.

    The intern tables of ``ColoredTree`` and ``DyckPath`` are not cleared:
    keys compare by identity, so a live tree would no longer equal its
    rebuilt twin.  Path products are memoised per ``PathOracle`` and freed
    with it.
    """
    from . import paths, posets, simplicial, tamari, trees

    for memo in (
        trees._PRODUCT_MEMO,
        trees._BM_CACHE,
        paths._PHI_MEMO,
        simplicial._THETA_MEMO,
        tamari._LATTICE_CACHE,
    ):
        memo.clear()
    for cached in (
        paths._enumerate_levels,
        paths.standard_coloring,
        posets._binary_trees,
        posets._planar_trees,
        simplicial._all_colored_trees,
    ):
        cached.cache_clear()

