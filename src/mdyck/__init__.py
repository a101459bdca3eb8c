"""Exact-arithmetic toolkit for the algebras carried by m-Dyck paths.

Three models of one graded structure: colored planar binary trees, m-Dyck
paths with the m-Tamari order, and simplices of dendriform posets.  All
coefficients are exact rationals; every structural statement ships with an
exhaustive finite verification.
"""

import gc
import sys

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


# sys.getrefcount of a value that only its intern table references: the
# table's reference and the call's own
_UNREFERENCED = 2


def clear_caches() -> None:
    """Empty every ``functools`` cache of a loaded ``mdyck`` module.

    The basis enumerations, the change of basis, the per-path statistics,
    the weak compositions and the m-Tamari lattices, among others, are pure
    functions memoised by ``functools.cache`` for the life of the process,
    so a long-running process grows without bound.  Clearing frees that
    memory; later calls recompute the same results.  Each cache is found by
    its ``cache_clear`` attribute, so a new one needs no registration; a
    module not yet imported has nothing cached.

    The intern tables of ``ColoredTree`` and ``DyckPath`` are then swept,
    not cleared: keys compare by identity, so a live tree must stay the one
    its rebuilt twin returns.  After collecting garbage cycles, a pass drops
    every entry whose value nothing outside the table references, and
    passes repeat until one drops nothing, since a dropped tree releases its
    children for the next pass.  What the caller still holds, and every
    subtree of it, stays.

    Basis products are memoised, as plain term dicts, by the ``TreeOracle``,
    ``PathOracle`` or ``OrdmOracle`` that computes them and freed with it (a
    ``TreeOracle`` stores only the products that cost more than one or two
    intern-table lookups);
    a ``PosetFamily`` owns its pair memo (``split``) and a
    ``trees.evaluator`` its tree images (those of one ``phi`` or
    ``tree_normal_form`` call) the same way.
    """
    from . import paths, trees

    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    # a key held only by unreachable cycles stays referenced until they are
    # collected
    gc.collect()
    for table in (trees._TREES, paths._PATHS):
        while True:
            dropped = [key for key in list(table) if sys.getrefcount(table[key]) == _UNREFERENCED]
            if not dropped:
                break
            for key in dropped:
                del table[key]
            # a dropped key holds its tree's children: release it before the next pass
            del dropped, key
