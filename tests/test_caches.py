import mdyck
from mdyck import paths, posets, simplicial, tamari, trees

MEMOS = (
    trees._PRODUCT_MEMO,
    trees._BM_CACHE,
    paths._PHI_MEMO,
    simplicial._THETA_MEMO,
    tamari._LATTICE_CACHE,
)


def _lru_caches():
    return [
        value
        for module in (paths, posets, simplicial)
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    ]


def _results():
    # one call into every memo and lru_cache that clear_caches empties
    basis = trees.enumerate_Bm(2, 3)
    return (
        [trees.tree_product(t, w, i, 2) for t in basis for w in basis[:3] for i in range(3)],
        [paths.phi(t, 2) for t in basis],
        [simplicial.theta_basis(t, 2, 1) for t in basis],
        simplicial.enumerate_Bmk(2, 1, 3),
        tamari.build_lattice(2, 3).interval_count(),
        posets.TamariBinaryFamily().elements(3),
        posets.PlanarTreeFamily().elements(3),
    )


def test_clear_caches_empties_memos_and_keeps_results():
    before = _results()
    assert all(MEMOS)
    assert all(cache.cache_info().currsize for cache in _lru_caches())
    mdyck.clear_caches()
    assert not any(MEMOS)
    assert all(cache.cache_info().currsize == 0 for cache in _lru_caches())
    assert _results() == before
