import collections
import contextlib
import copy
import functools
import gc
import os
import pickle
import subprocess
import sys
import threading
import types
import weakref
from pathlib import Path

import pytest

import mdyck
from mdyck import cli, paths, posets, series, simplicial, tamari, trees
from mdyck.exactlin import LinComb

SRC = Path(__file__).resolve().parents[1] / "src"


def _caches():
    return [
        value
        for module in (trees, paths, posets, series, simplicial, tamari)
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    ]


def _results():
    # one call into every cache that clear_caches empties
    basis = trees.enumerate_Bm(2, 3)
    return (
        [trees.tree_product(t, w, i, 2) for t in basis for w in basis[:3] for i in range(3)],
        [paths.phi(t, 2) for t in basis],
        [simplicial.theta_basis(t, 2, 1) for t in basis],
        simplicial.enumerate_Bmk(2, 1, 3),
        tamari.build_lattice(2, 3).interval_count(),
        tamari.verify_interval_product(2, 3),
        posets.TamariBinaryFamily().elements(3),
        posets.PlanarTreeFamily().elements(3),
        series.check_lemform(2, 1, 10),
    )


def test_clear_caches_empties_memos_and_keeps_results():
    # from empty caches, so that _results alone must fill each one
    mdyck.clear_caches()
    before = _results()
    assert all(cache.cache_info().currsize for cache in _caches())
    mdyck.clear_caches()
    assert all(cache.cache_info().currsize == 0 for cache in _caches())
    assert _results() == before


def test_an_alternative_basis_interns_only_its_own_trees():
    # in a fresh interpreter, B(2, 0) up to degree 6 builds no tree outside it
    code = (
        "from mdyck import simplicial, trees\n"
        "before = len(trees._TREES)\n"
        "simplicial.enumerate_Bmk(2, 0, 6)\n"
        "print(len(trees._TREES) - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= sum(series.fuss_catalan(2, n) for n in range(1, 7)) == 1772


def _rebuild(tree, shift=0):
    # the same structure, built node by node through the constructor; a
    # shift of the colors gives trees that no other test builds
    if tree.is_leaf:
        return trees.ColoredTree()
    left, right = _rebuild(tree.left, shift), _rebuild(tree.right, shift)
    return trees.ColoredTree(tree.color + shift, left, right)


def test_concurrent_builders_get_identical_keys():
    basis = trees.enumerate_Bm(2, 5)
    levels = paths._enumerate_levels(9, 3, 0)
    barrier = threading.Barrier(4, timeout=30)
    results = [None] * 4

    def build(slot):
        barrier.wait()
        results[slot] = (
            [_rebuild(t) for t in basis],
            [_rebuild(t, 100) for t in basis],
            [paths.DyckPath(9, lv) for lv in levels],
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(k,)) for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    first = results[0]
    assert all(a is b for a, b in zip(first[0], basis))
    for other in results[1:]:
        for built, again in zip(first, other):
            assert len(built) == len(again)
            assert all(a is b for a, b in zip(built, again))


def test_keys_survive_clear_caches():
    tree = trees.parse_tree("(0 (2 | |) (1 | |))")
    path = paths.parse_path(2, "1,0,5")
    mdyck.clear_caches()
    assert trees.parse_tree("(0 (2 | |) (1 | |))") is tree
    assert paths.parse_path(2, "1,0,5") is path
    assert trees.enumerate_Bm(2, 3)[0] is _rebuild(trees.enumerate_Bm(2, 3)[0])


# runs in a fresh interpreter, so that no other test holds a key
_SWEEP_SCRIPT = """
import contextlib, gc, io, sys
import mdyck
from mdyck import cli, paths, trees

# the suites' garbage cycles stay alive until clear_caches() collects them
gc.disable()

# the reference count the sweep reads for a value only its table holds
key = (7, trees.LEAF, trees.LEAF)
trees.ColoredTree(*key)
count = sys.getrefcount(trees._TREES[key])
assert count == mdyck._UNREFERENCED, f"an unreferenced intern entry reads {count}"

with contextlib.redirect_stdout(io.StringIO()):
    for suite, m, degree in (("axioms", "2", "5"), ("freeness", "3", "4")):
        assert cli.main(["verify", "--suite", suite, "--m", m, "--max-degree", degree]) == 0
held = trees.enumerate_Bm(2, 4)
before = (len(trees._TREES), len(paths._PATHS))
mdyck.clear_caches()
kept = {trees.LEAF}
for tree in held:
    kept.update(tree.subtrees())
assert set(trees._TREES.values()) == kept, len(trees._TREES)
assert not paths._PATHS, len(paths._PATHS)
assert all(trees.parse_tree(tree.encode()) is tree for tree in held)
assert trees.enumerate_Bm(2, 4) == held
print(*before, len(trees._TREES))
"""


def test_clear_caches_sweeps_the_intern_tables():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _SWEEP_SCRIPT], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    trees_before, paths_before, trees_after = map(int, done.stdout.split())
    assert trees_before > trees_after and paths_before > 0
    # the 55 held trees, the 15 basis trees of degrees 2 and 3 below them, and LEAF
    assert trees_after == 71


def test_path_memo_is_freed_with_its_oracle():
    oracle = paths.PathOracle(2)
    assert trees.verify_dyck_axioms(2, 5, oracle.product, oracle.basis).ok
    assert oracle._memo
    ref = weakref.ref(oracle)
    del oracle
    gc.collect()
    assert ref() is None
    assert not paths.PathOracle(2)._memo


def test_tree_memo_is_freed_with_its_oracle():
    oracle = trees.TreeOracle(3)
    assert trees.verify_dyck_axioms(3, 6, oracle.product, oracle.basis).ok
    assert oracle._memo
    ref = weakref.ref(oracle)
    del oracle
    gc.collect()
    assert ref() is None


@contextlib.contextmanager
def _garbage_kept():
    """Automatic collection off; what a collection finds stays in gc.garbage."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_evaluator_images_are_freed_without_the_cyclic_collector():
    tree = next(t for t in trees.enumerate_Bm(2, 5) if t.left.degree > 1 and t.right.degree > 1)
    with _garbage_kept() as garbage:
        image = paths.phi(tree, 2)
        assert image
        del image
        gc.collect()
        # the images are term dicts keyed by tree, the leaf's among them
        assert not [
            obj
            for obj in garbage
            if isinstance(obj, LinComb) or (isinstance(obj, dict) and trees.LEAF in obj)
        ]


def test_freeness_checks_each_series_identity_once_per_m(monkeypatch, capsys):
    # the identity merged into every k's report depends on m alone
    mdyck.clear_caches()
    calls = []
    real = series._substitution

    def counted(m, k, order, d_m, d_k):
        calls.append((m, k, order))
        return real(m, k, order, d_m, d_k)

    monkeypatch.setattr(series, "_substitution", counted)
    assert cli.main(["verify", "--suite", "freeness", "--m", "4", "--max-degree", "2"]) == 0
    assert calls == [(m, m - 1, 10) for m in range(1, 5)]
    assert capsys.readouterr().out.splitlines() == [
        f"freeness of merged products m={m} k={k}: ok (14 checks)"
        for m in range(1, 5)
        for k in range(m)
    ]
    # each call still returns its own report
    first, second = series.check_lemform(4, 3, 10), series.check_lemform(4, 3, 10)
    assert first == second and first is not second
    first.fail("changed")
    assert series.check_lemform(4, 3, 10).ok


def _mdyck_functions(garbage):
    return [
        obj.__qualname__
        for obj in garbage
        if isinstance(obj, types.FunctionType) and (obj.__module__ or "").startswith("mdyck")
    ]


def test_simplex_sweeps_leave_no_functions_to_the_cyclic_collector():
    with _garbage_kept() as garbage:
        oracle = posets.OrdmOracle(posets.TamariBinaryFamily(), 2)
        assert trees.verify_dyck_axioms(2, 4, oracle.product, oracle.basis).ok
        gc.collect()
        assert _mdyck_functions(garbage) == []


def test_verify_all_leaves_no_functions_to_the_cyclic_collector(capsys):
    # with every cache emptied first, each enumeration runs again inside
    mdyck.clear_caches()
    with _garbage_kept() as garbage:
        assert cli.main(["verify", "--suite", "all"]) == 0
        gc.collect()
        assert _mdyck_functions(garbage) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "--model", "trees", "--m", "2", "--i", "1", "(1 (2 | |) |)", "(0 | |)"],
        ["mul", "--model", "paths", "--m", "2", "--i", "0", "1,3", "0,2,4,2"],
        ["mul", "--model", "ordm", "--m", "2", "--i", "1", "((| |) |);(| (| |))", "(| |);(| |)"],
    ],
    ids=["trees", "paths", "ordm"],
)
def test_mul_leaves_no_functions_to_the_cyclic_collector(argv, capsys):
    with _garbage_kept() as garbage:
        assert cli.main(argv) == 0
        gc.collect()
        assert _mdyck_functions(garbage) == []


def test_clear_caches_finds_every_cache(monkeypatch):
    @functools.cache
    def added(n):
        return n

    monkeypatch.setattr(paths, "_added", added, raising=False)
    added(1)
    mdyck.clear_caches()
    assert added.cache_info().currsize == 0


def test_fresh_tree_oracle_recomputes_the_same_products():
    swept = trees.TreeOracle(2)
    assert trees.verify_dyck_axioms(2, 5, swept.product, swept.basis).ok
    fresh = trees.TreeOracle(2)
    assert not fresh._memo
    for key, product in swept._memo.items():
        assert fresh.product(*key) == product


def test_pair_memo_is_freed_with_its_family():
    family = posets.TamariBinaryFamily()
    assert posets.verify_dendriform_poset(family, 4).ok
    assert family._splits
    ref = weakref.ref(family)
    del family
    gc.collect()
    assert ref() is None
    assert not posets.TamariBinaryFamily()._splits


def test_fresh_family_recomputes_the_same_splits():
    swept = posets.PermutationFamily()
    assert posets.verify_dendriform_poset(swept, 4).ok
    fresh = posets.PermutationFamily()
    assert not fresh._splits
    for (x, y), split in swept._splits.items():
        assert fresh.split(x, y) == split


def test_each_pair_is_split_once_per_family():
    # every product is computed beneath split, the four of a pair once
    calls = collections.Counter()

    class Counting(posets.TamariBinaryFamily):
        def _product(self, op, x, y):
            calls[x, y] += 1
            return super()._product(op, x, y)

    family = Counting()
    assert posets.verify_dendriform_poset(family, 5).ok
    oracle = posets.OrdmOracle(family, 2)
    assert trees.verify_dyck_axioms(2, 5, oracle.product, oracle.basis).ok
    assert len(calls) == len(family._splits)
    assert set(calls.values()) == {4}


def test_each_simplex_product_is_computed_once_per_oracle(monkeypatch):
    calls = collections.Counter()
    real = posets._ordm_terms

    def counting(family, x, y, i):
        calls[x, y, i] += 1
        return real(family, x, y, i)

    # the oracle computes its term dicts through _ordm_terms
    monkeypatch.setattr(posets, "_ordm_terms", counting)
    oracle = posets.OrdmOracle(posets.TamariBinaryFamily(), 2)
    assert trees.verify_dyck_axioms(2, 5, oracle.product, oracle.basis).ok
    assert set(calls.values()) == {1}
    assert len(calls) == len(oracle._memo) == 768


def test_simplex_memo_is_freed_with_its_oracle():
    family = posets.TamariBinaryFamily()
    oracle = posets.OrdmOracle(family, 2)
    assert trees.verify_dyck_axioms(2, 4, oracle.product, oracle.basis).ok
    assert oracle._memo
    ref = weakref.ref(oracle)
    del oracle
    gc.collect()
    assert ref() is None
    assert not posets.OrdmOracle(family, 2)._memo


def test_no_oracle_outlives_its_suite(monkeypatch):
    # every oracle that `verify --suite all` makes, by weak reference; no
    # collection is forced, so an oracle counts as freed only once nothing
    # refers to it
    made = []

    def recorded(cls):
        class Recorded(cls):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        return Recorded

    def live():
        return [oracle for oracle in (ref() for ref in made) if oracle is not None]

    probes = collections.Counter()

    def sweep_probe(real):
        # an axiom or partial-sum sweep runs with only its own suite's oracles of its m alive
        def probe(m, bound, multiplier, basis):
            owner = multiplier.__self__
            for oracle in live():
                assert oracle.m == owner.m
                assert isinstance(oracle, posets.OrdmOracle) == isinstance(owner, posets.OrdmOracle)
            probes[real.__name__] += 1
            return real(m, bound, multiplier, basis)

        return probe

    def later_suite_probe(real):
        def probe(*args):
            assert live() == []
            probes[real.__name__] += 1
            return real(*args)

        return probe

    monkeypatch.setattr(cli, "TreeOracle", recorded(trees.TreeOracle))
    monkeypatch.setattr(cli, "PathOracle", recorded(paths.PathOracle))
    monkeypatch.setattr(posets, "OrdmOracle", recorded(posets.OrdmOracle))
    for module, name in ((trees, "verify_dyck_axioms"), (trees, "verify_circ_relations")):
        monkeypatch.setattr(module, name, sweep_probe(getattr(module, name)))
    for module, name in (
        (simplicial, "verify_simplicial_identities"),
        (simplicial, "verify_Sk_freeness"),
        (posets, "verify_dendriform_poset"),
        (tamari, "verify_interval_product"),
        (series, "check_series_identities"),
        (cli, "_negative_report"),
    ):
        monkeypatch.setattr(module, name, later_suite_probe(getattr(module, name)))
    assert cli.main(["verify", "--suite", "all"]) == 0
    # 3 tree, 3 path and 2 simplex oracles in the suites, 4 for condition 3, 2 negative controls
    assert len(made) == 14
    assert probes == {
        "verify_dyck_axioms": 8,
        "verify_circ_relations": 3,
        "verify_simplicial_identities": 1,
        "verify_Sk_freeness": 3,
        "verify_dendriform_poset": 4,
        "verify_interval_product": 3,
        "check_series_identities": 1,
        "_negative_report": 2,
    }


def test_no_poset_family_outlives_its_suite(monkeypatch):
    # every family that `verify --suite all` makes, by weak reference; no
    # collection is forced, as above
    made = []
    real_init = posets.PosetFamily.__init__

    def recorded(self, *args):
        real_init(self, *args)
        made.append(weakref.ref(self))

    real_interval = tamari.verify_interval_product

    def interval_probe(*args):
        assert [ref for ref in made if ref() is not None] == []
        return real_interval(*args)

    monkeypatch.setattr(posets.PosetFamily, "__init__", recorded)
    monkeypatch.setattr(tamari, "verify_interval_product", interval_probe)
    assert cli.main(["verify", "--suite", "all"]) == 0
    # one Tamari family in the ordm suite, the four built-in ones in the poset suite
    assert len(made) == 5


KEYS = (
    trees.LEAF,
    trees.parse_tree("(0 (2 | |) (1 | (0 | |)))"),
    paths.parse_path(2, "1,3"),
)


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda key: pickle.loads(pickle.dumps(key))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("key", KEYS, ids=repr)
def test_copies_of_interned_keys_are_the_key(key, copier):
    assert copier(key) is key
    assert trees.ColoredTree() is trees.LEAF
    assert trees.LEAF.color is None and trees.LEAF.degree == 1


@pytest.mark.parametrize(
    "key, attr",
    [
        (trees.LEAF, "color"),
        (KEYS[1], "left"),
        (KEYS[1], "degree"),
        (KEYS[2], "levels"),
        (KEYS[2], "m"),
    ],
)
def test_interned_keys_are_immutable(key, attr):
    before = getattr(key, attr)
    with pytest.raises(AttributeError):
        setattr(key, attr, None)
    with pytest.raises(AttributeError):
        delattr(key, attr)
    assert getattr(key, attr) is before
