import os
import subprocess
import sys
from pathlib import Path

import pytest

from mdyck import simplicial
from mdyck.exactlin import term_sum
from mdyck.reporting import CheckReport
from mdyck.paths import PathOracle, enumerate_paths, phi
from mdyck.series import fuss_catalan
from mdyck.simplicial import (
    degeneracy_oracle,
    degeneracy_transform,
    enumerate_Bmk,
    face_oracle,
    face_transform,
    generators_Amk,
    is_basis_Bmk,
    little_theta,
    little_theta_inverse,
    theta_basis,
    theta_basis_inverse,
    verify_Sk_freeness,
    verify_simplicial_identities,
)
from mdyck.trees import (
    LEAF,
    LEFT,
    RIGHT,
    ColoredTree,
    TreeOracle,
    enumerate_Bm,
    is_basis_Bm,
    parse_tree,
    verify_dyck_axioms,
)


def t(text):
    return parse_tree(text)


def test_face_transform():
    v = (("a",), ("b",))
    assert face_transform(v, 0) == ((), ("a",), ("b",))
    assert face_transform(v, 1) == (("a",), (), ("b",))
    assert face_transform(v, 2) == (("a",), ("b",), ())
    with pytest.raises(ValueError):
        face_transform(v, 3)


def test_degeneracy_transform():
    a, b, c = ("a",), ("b",), ("c",)
    assert degeneracy_transform((a, b), 0) == (("a", "b"),)
    assert degeneracy_transform((a, b, c), 1) == (a, ("b", "c"))
    assert degeneracy_transform((a, b, c), 0) == (("a", "b"), c)
    with pytest.raises(ValueError):
        degeneracy_transform((a, b), 1)


def test_merge_after_insert_is_identity():
    v = (("a",), ("b",), ("c",))
    for i in range(4):
        inserted = face_transform(v, i)
        if i >= 1:
            assert degeneracy_transform(inserted, i - 1) == v
        if i <= 2:
            assert degeneracy_transform(inserted, i) == v


def test_simplicial_identities():
    report = verify_simplicial_identities(5)
    assert report.ok, report.failures


def test_slot_law_checks_count_the_laws_of_one_m(monkeypatch):
    # the functor-level checks do not depend on max_m; without them the
    # suite makes exactly the slot-law checks of m = 1 .. max_m
    monkeypatch.setattr(simplicial, "verify_dyck_axioms", lambda *args: CheckReport(name="axioms"))
    counts = [0] + [verify_simplicial_identities(m).checks for m in range(1, 7)]
    assert [b - a for a, b in zip(counts, counts[1:])] == [
        simplicial.slot_law_checks(m) for m in range(1, 7)
    ]


@pytest.mark.parametrize("max_m", [0, -1])
def test_simplicial_identities_reject_an_empty_range(monkeypatch, max_m):
    # max_m = 0 checks no slot law: no "ok" from the fixed tree sweeps alone
    def sweep(*args):
        raise AssertionError("a tree sweep ran before max_m was checked")

    monkeypatch.setattr(simplicial, "verify_dyck_axioms", sweep)
    with pytest.raises(ValueError, match="^need max_m >= 1$"):
        verify_simplicial_identities(max_m)


def _rotated_at_0(v, i):
    # merging at 0 and rotating the result breaks S_0 S_0 = S_0 S_1 from m = 3
    out = degeneracy_transform(v, i)
    return out[1:] + out[:1] if i == 0 else out


@pytest.mark.parametrize(
    "name, broken, max_m, message",
    [
        (
            "face_transform",
            lambda v, i: face_transform(v, min(i, 1)),
            1,
            "insert law fails m=1 i=0 j=1",
        ),
        (
            "degeneracy_transform",
            lambda v, i: degeneracy_transform(v, max(i - 1, 0)),
            1,
            "mixed law fails m=1 i=0 j=1",
        ),
        ("degeneracy_transform", _rotated_at_0, 3, "merge law fails m=3 i=0 j=0"),
    ],
    ids=["insert", "mixed", "merge"],
)
def test_a_broken_slot_law_is_reported(monkeypatch, name, broken, max_m, message):
    monkeypatch.setattr(simplicial, name, broken)
    report = verify_simplicial_identities(max_m)
    assert not report.ok
    assert message in report.failures


def test_degeneracy_of_dendriform_is_associative():
    # merging the two products of the order-1 structure yields an
    # associative product
    oracle = degeneracy_oracle(TreeOracle(1), 0)
    report = verify_dyck_axioms(0, 4, oracle.product, oracle.basis)
    assert report.ok, report.failures


def test_face_of_dendriform_is_order_two():
    for i in range(3):
        oracle = face_oracle(TreeOracle(1), i)
        report = verify_dyck_axioms(2, 4, oracle.product, oracle.basis)
        assert report.ok, report.failures


def test_a_one_index_slot_passes_the_base_product_through():
    base = PathOracle(2)
    P, Q = enumerate_paths(2, 2)[1:3]
    merged = degeneracy_oracle(base, 0)  # slots (0, 1) and (2,)
    assert merged.product(P, Q, 1) is base.product(P, Q, 2)
    both = term_sum(((base.product(P, Q, 0), 1), (base.product(P, Q, 1), 1)))
    assert len(both) == 9
    assert merged.product(P, Q, 0) == both
    assert face_oracle(base, 1).product(P, Q, 1) == {}


@pytest.mark.parametrize(
    "oracle_fn, bad", [(face_oracle, (-1, 3, 5)), (degeneracy_oracle, (-1, 1))]
)
def test_slot_oracles_reject_out_of_range_indices(oracle_fn, bad):
    # m = 1 has face indices 0..2 and the one degeneracy index 0
    for i in bad:
        with pytest.raises(ValueError):
            oracle_fn(TreeOracle(1), i)


def _spine_reading(t, m, k):
    # the definition of B(m, k) read literally: in every subtree, with
    # left-spine colors (i_1, i_2, ...) and right-spine colors (j_1, j_2, ...)
    # from the root, i_1 != k asks i_2 = k or i_2 > i_1, and i_1 = k asks
    # i_2, i_3, ... > k and j_2, j_3, ... <= k
    for v in t.subtrees():
        lc = _spine_colors(v, LEFT)
        if lc[0] != k:
            if len(lc) >= 2 and not (lc[1] == k or lc[1] > lc[0]):
                return False
        elif any(c <= k for c in lc[1:]):
            return False
        elif any(c > k for c in _spine_colors(v, RIGHT)[1:]):
            return False
    return True


def _spine_colors(v, side):
    # the colors on v's left or right spine, from the root down
    colors = []
    while not v.is_leaf:
        colors.append(v.color)
        v = v.left if side == LEFT else v.right
    return colors


@pytest.mark.parametrize("m, max_n", [(0, 6), (1, 6), (2, 6), (3, 5)])
def test_one_rule_matches_the_spine_reading(all_colored_trees, m, max_n):
    for n in range(1, max_n + 1):
        every = all_colored_trees(m, n)
        for k in range(m + 1):
            members = [_spine_reading(u, m, k) for u in every]
            assert [is_basis_Bmk(u, m, k) for u in every] == members
            kept = sorted((u for u, ok in zip(every, members) if ok), key=ColoredTree.sort_key)
            assert enumerate_Bmk(m, k, n) == kept
        assert [is_basis_Bm(u, m) for u in every] == [_spine_reading(u, m, m) for u in every]


def test_is_basis_Bmk():
    for m in (1, 2):
        for n in range(1, 5):
            for tree in enumerate_Bmk(m, m, n):
                assert is_basis_Bm(tree, m)
            assert enumerate_Bmk(m, m, n) == enumerate_Bm(m, n)
    for k in range(3):
        assert is_basis_Bmk(LEAF, 2, k)
    # counts agree with the dimension in every alternative basis
    for m in (1, 2):
        for k in range(m + 1):
            for n in range(1, 6):
                assert len(enumerate_Bmk(m, k, n)) == fuss_catalan(m, n)
    for k in range(4):
        assert len(enumerate_Bmk(3, k, 4)) == fuss_catalan(3, 4)


def test_theta_fixed_points():
    for m in (1, 2):
        for k in range(m + 1):
            for n in range(1, 5):
                both = set(enumerate_Bm(m, n)) & set(enumerate_Bmk(m, k, n))
                for tree in both:
                    assert theta_basis(tree, m, k) == tree


def test_theta_small_case():
    # the smallest non-fixed tree slides the low color below the root
    for m in (1, 2):
        for k in range(m + 1):
            for i in range(k + 1, m + 1):
                tree = ColoredTree(k, LEAF, ColoredTree(i, LEAF, LEAF))
                expected = ColoredTree(i, ColoredTree(k, LEAF, LEAF), LEAF)
                assert theta_basis(tree, m, k) == expected


def test_theta_bijective_and_element_preserving():
    for m in (1, 2):
        for k in range(m + 1):
            for n in range(1, 6):
                source = enumerate_Bm(m, n)
                image = [theta_basis(tree, m, k) for tree in source]
                assert all(is_basis_Bmk(u, m, k) for u in image)
                assert len(set(image)) == len(image)
                assert sorted(image, key=lambda u: u.sort_key()) == enumerate_Bmk(
                    m, k, n
                )
                for tree, u in zip(source, image):
                    assert phi(tree, m) == phi(u, m)


def test_theta_root_colors():
    for m in (1, 2):
        for k in range(m + 1):
            for n in range(2, 6):
                for tree in enumerate_Bm(m, n):
                    u = theta_basis(tree, m, k)
                    if tree.color == k:
                        assert k <= u.color <= m
                    else:
                        assert u.color == tree.color


def test_theta_inverse():
    for m in (1, 2):
        for k in range(m + 1):
            for n in range(1, 6):
                for u in enumerate_Bmk(m, k, n):
                    tree = theta_basis_inverse(u, m, k)
                    assert is_basis_Bm(tree, m)
                    assert theta_basis(tree, m, k) == u
                    # root-color contract of the inverse
                    if not u.is_leaf:
                        if u.color <= k:
                            assert tree.color == u.color
                        else:
                            assert tree.color in (k, u.color)
                for tree in enumerate_Bm(m, n):
                    if is_basis_Bmk(tree, m, k):
                        assert theta_basis_inverse(tree, m, k) == tree


def test_theta_beyond_required_bounds():
    # spot-check the change of basis one order higher
    for k in range(4):
        for n in range(1, 5):
            source = enumerate_Bm(3, n)
            image = [theta_basis(tree, 3, k) for tree in source]
            assert sorted(image, key=lambda u: u.sort_key()) == enumerate_Bmk(
                3, k, n
            )
            for tree, u in zip(source, image):
                assert phi(tree, 3) == phi(u, 3)
                assert theta_basis_inverse(u, 3, k) == tree


def test_theta_input_validation():
    with pytest.raises(ValueError):
        theta_basis(t("(1 (0 | |) |)"), 1, 0)
    with pytest.raises(ValueError):
        theta_basis_inverse(t("(0 (0 | |) |)"), 1, 0)
    # both directions refuse a k outside 0 .. m
    for k in (5, -1):
        for theta in (theta_basis, theta_basis_inverse):
            with pytest.raises(ValueError, match="^need 0 <= k <= m$"):
                theta(t("(1 | (2 | |))"), 2, k)


@pytest.mark.parametrize(
    "enumerate_trees, args, message",
    [
        (enumerate_Bm, (1, 0), "need n >= 1"),
        (enumerate_Bm, (2, -3), "need n >= 1"),
        (enumerate_Bmk, (1, 0, 0), "need n >= 1"),
        (enumerate_Bmk, (2, 1, -3), "need n >= 1"),
        (generators_Amk, (2, 1, 0), "need n >= 1"),
        (generators_Amk, (2, 1, -3), "need n >= 1"),
        (enumerate_Bm, (0, 2), "need m >= 1"),
    ],
    ids=["Bm-0", "Bm-minus-3", "Bmk-0", "Bmk-minus-3", "Amk-0", "Amk-minus-3", "Bm-m-0"],
)
def test_enumeration_refuses_a_bound_below_one(enumerate_trees, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        enumerate_trees(*args)


def test_generators():
    assert generators_Amk(2, 0, 1) == [LEAF]
    for m in (2, 3):
        for k in range(m):
            assert generators_Amk(m, k, 2) == [ColoredTree(k, LEAF, LEAF)]
    for m in (1, 2, 3):
        for k in range(m):
            for n in range(2, 6):
                assert len(generators_Amk(m, k, n)) == fuss_catalan(m, n - 1)
    with pytest.raises(ValueError):
        generators_Amk(2, 2, 3)


def test_little_theta_base_cases():
    for m in (2, 3):
        for k in range(m):
            assert little_theta(LEAF, m, k) == ColoredTree(k, LEAF, LEAF)
            # root color above k with an increasing comb: graft a leaf
            tree = ColoredTree(k + 1, LEAF, LEAF)
            assert little_theta(tree, m, k) == ColoredTree(k, tree, LEAF)


def test_little_theta_bijective():
    for m in (1, 2, 3):
        for k in range(m):
            for n in range(1, 6):
                source = enumerate_Bmk(m, k, n)
                image = [little_theta(tree, m, k) for tree in source]
                targets = generators_Amk(m, k, n + 1)
                assert len(set(image)) == len(image)
                assert sorted(image, key=lambda u: u.sort_key()) == targets
                for tree, u in zip(source, image):
                    assert little_theta_inverse(u, m, k) == tree


def test_little_theta_walks_a_deep_spine_without_recursion():
    # a 3000-vertex right comb of color 0 lies in B(2, 1); its image hangs it
    # under a new k-vertex, and the inverse walks its whole right spine back
    comb = LEAF
    for _ in range(3000):
        comb = ColoredTree(0, LEAF, comb)
    u = little_theta(comb, 2, 1)
    assert (u.color, u.left, u.right is comb) == (1, LEAF, True)
    assert little_theta_inverse(u, 2, 1) is comb


@pytest.mark.parametrize(
    "bijection, text, m, k, message",
    [
        (little_theta, "(2 | |)", 2, 2, "need 0 <= k < m"),
        (little_theta, "|", 2, -1, "need 0 <= k < m"),
        (little_theta_inverse, "(5 | |)", 2, 5, "need 0 <= k < m"),
        (little_theta_inverse, "(1 (9 | |) |)", 2, 1, "color 9 exceeds m=2"),
        (little_theta_inverse, "(1 (0 | |) |)", 2, 1, "input is not a root-k generator"),
        (little_theta_inverse, "(0 | |)", 2, 1, "input is not a root-k generator"),
    ],
    ids=["k-equals-m", "k-negative", "inverse-k-above-m", "inverse-color-above-m",
         "inverse-not-in-Bmk", "inverse-root-not-k"],
)
def test_little_theta_refuses_what_generators_refuse(bijection, text, m, k, message):
    # the inputs that generators_Amk(m, k, n) would not list
    with pytest.raises(ValueError, match=f"^{message}$"):
        bijection(t(text), m, k)


def test_freeness():
    for m in (1, 2):
        for k in range(m):
            report = verify_Sk_freeness(m, k, 4)
            assert report.ok, report.failures
    # no degree to check is a usage error, not a pass
    with pytest.raises(ValueError):
        verify_Sk_freeness(2, 0, 0)


@pytest.mark.parametrize("k", [0, 1])
def test_freeness_degree_six(k):
    report = verify_Sk_freeness(2, k, 6)
    assert report.ok, report.failures
    assert report.checks == 22


def test_freeness_builds_each_generator_set_once(monkeypatch):
    degrees = []

    def counted(m, k, n):
        degrees.append(n)
        return generators_Amk(m, k, n)

    expected_checks = verify_Sk_freeness(2, 1, 5).checks
    monkeypatch.setattr(simplicial, "generators_Amk", counted)
    report = verify_Sk_freeness(2, 1, 5)
    assert report.ok, report.failures
    assert report.checks == expected_checks
    assert degrees == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("k, calls", [(0, 395), (1, 398)])
def test_freeness_builds_no_merged_product_past_full_rank(monkeypatch, k, calls):
    # the rank reads generators first, then products, and stops at full rank
    # in each degree: of the 444 merged products in the 516 rows to degree 5,
    # only those read before it are built
    made = []
    real = simplicial.SlotTransformedOracle.product

    def counted(self, x, y, i):
        made.append((x, y, i))
        return real(self, x, y, i)

    monkeypatch.setattr(simplicial.SlotTransformedOracle, "product", counted)
    report = verify_Sk_freeness(2, k, 5)
    assert report.ok, report.failures
    assert report.checks == 20
    products = sum(
        2 * len(enumerate_Bm(2, a)) * len(enumerate_Bm(2, n - a))
        for n in range(2, 6)
        for a in range(1, n)
    )
    rows = products + sum(len(generators_Amk(2, k, n)) for n in range(1, 6))
    assert (len(made), products, rows) == (calls, 444, 516)
    assert len(set(made)) == len(made)


def test_freeness_fault_injection(monkeypatch):
    def dropped(m, k, n):
        gens = generators_Amk(m, k, n)
        return [] if n == 2 else gens

    monkeypatch.setattr(simplicial, "generators_Amk", dropped)
    report = verify_Sk_freeness(2, 0, 3)
    assert not report.ok
    assert any("degree 2" in msg for msg in report.failures)


def test_freeness_fault_injection_at_the_generator_count(monkeypatch):
    # a repeated generator leaves the rank as it is; only the count fails
    def repeated(m, k, n):
        gens = generators_Amk(m, k, n)
        return gens + gens[:1] if n == 2 else gens

    monkeypatch.setattr(simplicial, "generators_Amk", repeated)
    assert verify_Sk_freeness(2, 0, 3).summary() == (
        "freeness of merged products m=2 k=0: FAILED (4 checks)\n"
        "  degree 2: generator count 2, expected 1"
    )


def test_a_failed_degeneracy_sweep_reaches_the_report(monkeypatch):
    # the merged report names the failing sub-sweep before its own message
    def broken(base, i):
        oracle = degeneracy_oracle(base, i)
        product = oracle.product
        oracle.product = lambda x, y, j: {} if x == y == LEAF else product(x, y, j)
        return oracle

    monkeypatch.setattr(simplicial, "degeneracy_oracle", broken)
    report = verify_simplicial_identities(1)
    assert not report.ok
    assert report.failures[0].startswith(
        "degeneracy transform i=0 of tree products m=1: "
        "mixed associativity fails at i=0"
    )


_DROPPED_AT_DEGREE_6 = """
from mdyck import simplicial

generators = simplicial.generators_Amk


def dropped(m, k, n):
    gens = generators(m, k, n)
    return gens[1:] if n == 6 else gens


simplicial.generators_Amk = dropped
report = simplicial.verify_Sk_freeness(3, 1, 6)
print(report.ok, report.checks)
print(*report.failures, sep="\\n")
"""


def test_freeness_fault_injection_at_degree_6():
    # the 11 594 x 7 084 rank-deficient generation matrix, decided in seconds
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _DROPPED_AT_DEGREE_6], env=env, capture_output=True,
        text=True, timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "False 11",
        "degree 6: generated subspace has rank 7083, expected 7084",
    ]
