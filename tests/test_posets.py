import itertools

import pytest

from mdyck.exactlin import LinComb
from mdyck.posets import (
    BACKSLASH,
    OPS,
    PERP,
    SLASH,
    TOP,
    OrdmOracle,
    PermutationFamily,
    PlanarTreeFamily,
    SurjectionFamily,
    TamariBinaryFamily,
    bruhat_restriction,
    facial_covers,
    facial_restriction_agrees,
    ordm_product,
    ordm_simplices,
    parse_poset_file,
    planar_tree_order,
    pt_encode,
    pt_parse,
    standardize,
    surj_products,
    tree_restriction,
    verify_dendriform_poset,
)
from mdyck.trees import verify_dyck_axioms

LEAF = ()
BUD = ((), ())  # the unique binary tree of degree 1


def test_standardize():
    assert standardize((2, 2)) == (1, 1)
    assert standardize((1, 2, 4, 2)) == (1, 2, 3, 2)
    surj = SurjectionFamily()
    for f in surj.elements(3):
        assert standardize(f) == f


def test_facial_covers():
    assert facial_covers((1, 2)) == [(1, 1)]
    assert facial_covers((1, 1)) == [(2, 1)]
    assert facial_covers((2, 1)) == []


def test_surj_products_degree_one():
    assert surj_products((1,), (1,), SLASH) == (1, 2)
    assert surj_products((1,), (1,), BACKSLASH) == (2, 1)
    assert surj_products((1,), (1,), PERP) == (1, 2)
    assert surj_products((1,), (1,), TOP) == (1, 1)
    assert surj_products((1,), (1,), TOP, "standardized") == (1, 1)


def test_surj_products_always_surjective():
    surj = SurjectionFamily()
    for n, r in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for f in surj.elements(n):
            for g in surj.elements(r):
                for op in OPS:
                    for variant in ("merged", "standardized"):
                        word = surj_products(f, g, op, variant)
                        assert len(word) == n + r


def test_bruhat_order():
    perms = bruhat_restriction()
    assert perms.leq((1, 2), (2, 1))
    assert not perms.leq((2, 1), (1, 2))
    assert len(perms.elements(4)) == 24
    assert perms.succ((1,), (1,)) == LinComb.single((1, 2))
    assert perms.prec((1,), (1,)) == LinComb.single((2, 1))


def test_facial_restriction_is_weak_order():
    for n in (1, 2, 3, 4):
        assert facial_restriction_agrees(n)


def test_planar_tree_counts():
    fam = planar_tree_order()
    # little Schroeder numbers by their recurrence, as an independent count:
    # (n+1) a(n) = (6n-3) a(n-1) - (n-2) a(n-2)
    schroeder = [1, 1]
    for n in range(2, 6):
        schroeder.append(
            ((6 * n - 3) * schroeder[n - 1] - (n - 2) * schroeder[n - 2]) // (n + 1)
        )
    for n in (1, 2, 3, 4):
        assert len(fam.elements(n)) == schroeder[n]
    assert len(fam.elements(3)) == 11


def test_planar_degree_two_shape():
    fam = PlanarTreeFamily()
    left = pt_parse("((| |) |)")
    corolla = pt_parse("(| | |)")
    right = pt_parse("(| (| |))")
    assert fam.leq(left, corolla) and fam.leq(corolla, right)
    assert not fam.leq(corolla, left) and not fam.leq(right, corolla)


def test_binary_restriction_of_planar_order():
    fam = PlanarTreeFamily()
    binary = TamariBinaryFamily()
    for n in range(1, 6):
        for a in binary.elements(n):
            for b in binary.elements(n):
                assert fam.leq(a, b) == binary.leq(a, b)


def test_tree_restriction():
    t = pt_parse("((| |) | (| |))")
    n = 4
    assert tree_restriction(t, 0) == (LEAF, t)
    assert tree_restriction(t, n) == (t, LEAF)
    fam = PlanarTreeFamily()
    for a in fam.elements(2):
        for b in fam.elements(2):
            grafted = fam.prod(SLASH, a, b)
            assert tree_restriction(grafted, 2) == (a, b)
            grafted = fam.prod(BACKSLASH, a, b)
            assert tree_restriction(grafted, 2) == (a, b)


def test_tree_restriction_monotone():
    fam = PlanarTreeFamily()
    for n in (2, 3):
        for a in fam.elements(n):
            for b in fam.elements(n):
                if not fam.leq(a, b):
                    continue
                for l in range(n + 1):
                    a1, a2 = tree_restriction(a, l)
                    b1, b2 = tree_restriction(b, l)
                    if a1 != LEAF:
                        assert fam.leq(a1, b1)
                    if a2 != LEAF:
                        assert fam.leq(a2, b2)


def test_dendriform_poset_instances():
    cases = (
        (TamariBinaryFamily(), 5),
        (PermutationFamily(), 4),
        (SurjectionFamily(), 3),
        (PlanarTreeFamily(), 4),
    )
    for family, bound in cases:
        report = verify_dendriform_poset(family, bound)
        assert report.ok, (family.name, report.failures)


def test_top_variant_choice_is_confirmed_by_verifier():
    # the merged-max middle product passes; the standardize-after-shift
    # variant breaks interval splitting, and the verifier surfaces where
    assert verify_dendriform_poset(SurjectionFamily("merged"), 3).ok
    report = verify_dendriform_poset(SurjectionFamily("standardized"), 3)
    assert not report.ok
    assert any("condition 2" in msg for msg in report.failures)


def test_corrupted_instance_fails_splitting():
    class Swapped(TamariBinaryFamily):
        name = "binary-swapped"

        def _product(self, op, x, y):
            if op == PERP:
                op = TOP
            elif op == TOP:
                op = PERP
            return super()._product(op, x, y)

    report = verify_dendriform_poset(Swapped(), 3)
    assert not report.ok
    assert any("at degrees (1,1)" in msg for msg in report.failures)


def test_ordm_simplices():
    fam = TamariBinaryFamily()
    assert ordm_simplices(fam, 2, 1) == [(t,) for t in fam.elements(2)]
    assert len(ordm_simplices(fam, 3, 2)) == 13
    # chains in a total order of size s: s*(s+1)/2 pairs
    assert len(ordm_simplices(fam, 2, 2)) == 3
    assert len(ordm_simplices(fam, 4, 2)) == sum(
        1
        for a in fam.elements(4)
        for b in fam.elements(4)
        if fam.leq(a, b)
    )


def test_ordm_product_m1_is_dendriform():
    fam = TamariBinaryFamily()
    for n, r in ((1, 1), (1, 2), (2, 1)):
        for x in fam.elements(n):
            for y in fam.elements(r):
                got0 = ordm_product(fam, (x,), (y,), 0)
                assert got0 == LinComb(
                    ((u,), c) for u, c in fam.succ(x, y).items()
                )
                got1 = ordm_product(fam, (x,), (y,), 1)
                assert got1 == LinComb(
                    ((u,), c) for u, c in fam.prec(x, y).items()
                )


def test_ordm_axioms():
    fam = TamariBinaryFamily()
    for m in (1, 2):
        oracle = OrdmOracle(fam, m)
        report = verify_dyck_axioms(m, 5, oracle.product, oracle.basis)
        assert report.ok, report.failures


def test_ordm_axioms_other_instances():
    # the simplex products satisfy the axioms over any dendriform poset
    for family in (PermutationFamily(), SurjectionFamily(), PlanarTreeFamily()):
        oracle = OrdmOracle(family, 2)
        report = verify_dyck_axioms(2, 4, oracle.product, oracle.basis)
        assert report.ok, (family.name, report.failures)


def test_ordm_supports_partition_full_interval():
    fam = TamariBinaryFamily()
    m = 2
    for n, r in ((1, 1), (1, 2), (2, 1)):
        for xbar in ordm_simplices(fam, n, m):
            for ybar in ordm_simplices(fam, r, m):
                union = set()
                for i in range(m + 1):
                    support = ordm_product(fam, xbar, ybar, i).support()
                    assert not (support & union)
                    union |= support
                expected = set()
                ranges = [
                    fam.interval(
                        fam.prod(SLASH, xbar[j], ybar[j]),
                        fam.prod(BACKSLASH, xbar[j], ybar[j]),
                    )
                    for j in range(m)
                ]
                for chain in itertools.product(*ranges):
                    if all(
                        fam.leq(chain[j], chain[j + 1]) for j in range(m - 1)
                    ):
                        expected.add(chain)
                assert union == expected


POSET_FILE = """
# three-chain over one generator: the planar-tree family in degrees 1, 2
degree 1
elem e
degree 2
elem a
elem b
elem c
cover a b
cover b c
prod / e e -> a
prod bot e e -> a
prod top e e -> b
prod \\ e e -> c
"""


def test_declared_family():
    family = parse_poset_file(POSET_FILE)
    assert family.elements(2) == ["a", "b", "c"]
    assert family.leq("a", "c")
    report = verify_dendriform_poset(family, 2)
    assert report.ok, report.failures
    assert family.succ("e", "e") == LinComb.single("a")
    assert family.prec("e", "e") == LinComb((("b", 1), ("c", 1)))


def test_declared_family_errors():
    with pytest.raises(ValueError):
        parse_poset_file("elem x\n")
    with pytest.raises(ValueError):
        parse_poset_file("degree 1\nelem x\nprod / x x -> x\n")
    with pytest.raises(ValueError):
        parse_poset_file("degree 1\nelem x\nnonsense\n")


def test_pt_encode_parse():
    fam = PlanarTreeFamily()
    for t in fam.elements(3):
        assert pt_parse(pt_encode(t)) == t
