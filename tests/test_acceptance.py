"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact; the only tolerances are the stated size bounds.
"""

import time

from mdyck.exactlin import LinComb, bilinear, term_sum
from mdyck.paths import (
    PathOracle,
    enumerate_paths,
    parse_path,
    path_product,
    phi,
    phi_matrix_full_rank,
)
from mdyck.posets import (
    OrdmOracle,
    PermutationFamily,
    PlanarTreeFamily,
    SurjectionFamily,
    TamariBinaryFamily,
    ordm_simplices,
    verify_dendriform_poset,
)
from mdyck.series import (
    check_lemform,
    check_series_identities,
    fuss_catalan,
    geometric_inverse,
    series_solve_free,
    TruncatedSeries,
)
from mdyck.simplicial import (
    enumerate_Bmk,
    generators_Amk,
    little_theta,
    theta_basis,
    theta_basis_inverse,
    verify_Sk_freeness,
    verify_simplicial_identities,
)
from mdyck.tamari import build_lattice, verify_interval_product
from mdyck.trees import LEAF, TreeOracle, enumerate_Bm, verify_dyck_axioms


def _report(line: str) -> None:
    print(line)


def test_criterion_1_dimension_agreement():
    start = time.time()
    for m in (1, 2, 3, 4):
        for n in range(1, 7):
            d = fuss_catalan(m, n)
            assert d == len(enumerate_Bm(m, n)) == len(enumerate_paths(m, n))
    assert fuss_catalan(2, 3) == 12
    elapsed = time.time() - start
    assert elapsed < 30
    _report(f"PASS criterion 1: dimensions agree for m<=4, n<=6 ({elapsed:.1f}s)")


def test_criterion_2_printed_product_expansion():
    start = time.time()
    got = path_product(parse_path(2, "1,3"), parse_path(2, "0,2,4,2"), 0)
    rendered = got.render(lambda p: p.encode())
    assert rendered == (
        "+1*[1,0,0,2,7,2] +1*[1,1,0,2,6,2] +1*[1,2,0,2,5,2] +1*[1,3,0,2,4,2]"
    )
    elapsed = time.time() - start
    assert elapsed < 1
    _report("PASS criterion 2: the four-term size-(2,4) product is byte-exact")


def test_criterion_3_axioms_three_models():
    start = time.time()
    for m in (1, 2, 3):
        oracle = TreeOracle(m)
        assert verify_dyck_axioms(m, 5, oracle.product, oracle.basis).ok
        path_oracle = PathOracle(m)
        assert verify_dyck_axioms(m, 5, path_oracle.product, path_oracle.basis).ok
    family = TamariBinaryFamily()
    for m in (1, 2):
        oracle = OrdmOracle(family, m)
        assert verify_dyck_axioms(m, 5, oracle.product, oracle.basis).ok
    elapsed = time.time() - start
    assert elapsed < 180
    _report(f"PASS criterion 3: axioms hold on trees, paths and simplices ({elapsed:.1f}s)")


def test_criterion_4_model_isomorphism():
    for m in (1, 2):
        for n in range(1, 6):
            assert len(enumerate_Bm(m, n)) == len(enumerate_paths(m, n))
            assert phi_matrix_full_rank(m, n)
        oracle = TreeOracle(m)
        for na in range(1, 5):
            for nb in range(1, 6 - na):
                for a in enumerate_Bm(m, na):
                    for b in enumerate_Bm(m, nb):
                        for i in range(m + 1):
                            lhs = LinComb.zero()
                            for u, c in oracle.product(a, b, i).items():
                                lhs = lhs + phi(u, m).scale(c)
                            rhs = bilinear(
                                phi(a, m),
                                phi(b, m),
                                lambda x, y: path_product(x, y, i),
                            )
                            assert lhs == rhs
    _report("PASS criterion 4: change of model is a full-rank intertwiner")


def test_criterion_5_interval_formula():
    for m, size in ((1, 6), (2, 6), (3, 4)):
        report = verify_interval_product(m, size)
        assert report.ok, report.failures
    _report("PASS criterion 5: products are m-Tamari interval sums")


def test_criterion_6_interval_count():
    lattice = build_lattice(1, 3)
    assert len(lattice.elements) == 5
    assert lattice.interval_count() == 13
    assert len(ordm_simplices(TamariBinaryFamily(), 3, 2)) == 13
    _report("PASS criterion 6: 13 intervals = 13 chains at degree 3")


def test_criterion_7_dendriform_posets():
    start = time.time()
    cases = (
        (PermutationFamily(), 4),
        (SurjectionFamily(), 3),
        (TamariBinaryFamily(), 5),
        (PlanarTreeFamily(), 4),
    )
    for family, bound in cases:
        report = verify_dendriform_poset(family, bound)
        assert report.ok, (family.name, report.failures)
    elapsed = time.time() - start
    assert elapsed < 180
    _report(f"PASS criterion 7: four dendriform-poset instances verify ({elapsed:.1f}s)")


def test_criterion_8_simplicial_structure():
    assert verify_simplicial_identities(5).ok
    for m in (1, 2):
        for k in range(m):
            assert verify_Sk_freeness(m, k, 4).ok
        for k in range(m + 1):
            for n in range(1, 6):
                source = enumerate_Bm(m, n)
                image = [theta_basis(t, m, k) for t in source]
                assert sorted(image, key=lambda u: u.sort_key()) == enumerate_Bmk(
                    m, k, n
                )
                assert all(
                    theta_basis_inverse(u, m, k) == t
                    for t, u in zip(source, image)
                )
        for k in range(m):
            for n in range(1, 6):
                source = enumerate_Bmk(m, k, n)
                image = [little_theta(t, m, k) for t in source]
                assert sorted(image, key=lambda u: u.sort_key()) == generators_Amk(
                    m, k, n + 1
                )
    _report("PASS criterion 8: simplicial identities, freeness and bijections")


def test_criterion_9_series_identities():
    order = 10
    x = TruncatedSeries.x(order)
    one = TruncatedSeries.one(order)
    for m in range(1, 5):
        f = series_solve_free(m, order)
        assert f == ((one + f).pow(m + 1)).shift_mul_x()
        for k in range(m + 1):
            assert check_lemform(m, k, order).ok
        g = geometric_inverse(m, order)
        assert TruncatedSeries.from_coeffs(order, (1, 1)) * g == geometric_inverse(
            m - 1, order
        )
    assert check_series_identities(4, order).ok
    _report("PASS criterion 9: series identities hold to order 10")


def test_criterion_10_negative_controls():
    # on one generator x, which is enough: sending every generator to x is a
    # morphism of algebras
    dendriform = TreeOracle(1)
    x = LinComb.single(LEAF)

    def top(a, b):
        return bilinear(a, b, lambda s, t: dendriform.product(s, t, 1))

    left = top(top(x, x), x)
    right = top(x, top(x, x))
    assert left != right, "the top product must not be associative"

    oracle = TreeOracle(2)

    # products are term dicts; term_sum extends them linearly
    def ext_l(a, terms, i):
        return term_sum((oracle.product(a, u, i), c) for u, c in terms.items())

    def ext_r(terms, b, i):
        return term_sum((oracle.product(u, b, i), c) for u, c in terms.items())

    def plus(*terms):
        return term_sum((t, 1) for t in terms)

    u = LEAF
    # (u *_2 v) *_1 w != u *_1 (v *_1 w + v *_0 w)
    lhs = ext_r(oracle.product(u, u, 2), u, 1)
    rhs = ext_l(u, plus(oracle.product(u, u, 1), oracle.product(u, u, 0)), 1)
    assert lhs != rhs, "alternative relation (i) must fail"
    # (u *_1 v + u *_0 v) *_1 w != u *_0 (v *_1 w)
    lhs = ext_r(plus(oracle.product(u, u, 1), oracle.product(u, u, 0)), u, 1)
    rhs = ext_l(u, oracle.product(u, u, 1), 0)
    assert lhs != rhs, "alternative relation (ii) must fail"
    _report("PASS criterion 10: the comparison relations fail as required")
