import collections
import itertools
import math
from fractions import Fraction

import pytest

from mdyck.exactlin import LinComb, bilinear
from mdyck.series import fuss_catalan
from mdyck.tamari import C_bound, c_bound
from mdyck import paths
from mdyck.trees import (
    LEAF,
    ColoredTree,
    TreeOracle,
    enumerate_Bm,
    evaluator,
    is_basis_Bm,
    verify_dyck_axioms,
)
from mdyck.paths import (
    DOWN,
    UP,
    DyckPath,
    PathOracle,
    concat_i,
    decompose_smaller,
    enumerate_paths,
    lambda_sets,
    parse_path,
    path_product,
    phi,
    phi_matrix_full_rank,
    prime_factors,
    recompose_distinct,
    recompose_distinct_inv,
    recompose_zero,
    recompose_zero_inv,
    rho,
    standard_coloring,
    star_lambda,
    top_word,
    validate_path,
)


def P(m, text):
    return parse_path(m, text)


def test_validate():
    assert validate_path(2, (1, 3)).levels == (1, 3)
    with pytest.raises(ValueError):
        validate_path(2, (3, 1))
    with pytest.raises(ValueError):
        validate_path(2, (1, 2))


def test_enumerate():
    assert [p.levels for p in enumerate_paths(2, 2)] == [(0, 4), (1, 3), (2, 2)]
    assert len(enumerate_paths(1, 3)) == 5
    assert len(enumerate_paths(2, 3)) == 12
    for m in (1, 2, 3, 4):
        for n in range(1, 7):
            assert len(enumerate_paths(m, n)) == fuss_catalan(m, n)


def _levels_reference(m, n, slack=0):
    # every level at every step, kept when the sequence ends on the axis
    if n == 0:
        return [()] if slack == 0 else []
    return [
        (lv,) + rest
        for lv in range(slack + m + 1)
        for rest in _levels_reference(m, n - 1, slack + m - lv)
    ]


def test_enumerate_matches_the_reference_in_level_order():
    for m in (1, 2, 3, 4):
        for n in range(1, 7):
            assert [p.levels for p in enumerate_paths(m, n)] == _levels_reference(m, n)


@pytest.mark.parametrize("m", [1, 2, 7, 40])
def test_the_closing_level_is_not_searched(m):
    # only one value closes the last level, so the paths of size 2 cost
    # m + 2 cached calls, not one per value tried at the last level
    paths._enumerate_levels.cache_clear()
    assert len(enumerate_paths(m, 2)) == m + 1
    assert paths._enumerate_levels.cache_info().currsize == m + 2


def test_concat():
    r2 = rho(2)
    assert concat_i(r2, r2, 0).levels == (2, 2)
    assert concat_i(r2, r2, 1).levels == (1, 3)
    assert concat_i(P(2, "1,3"), P(2, "0,2,4"), 0).levels == (1, 3, 0, 2, 4)
    with pytest.raises(ValueError):
        concat_i(r2, r2, 3)


def test_prime_factorization():
    assert prime_factors(P(2, "0,2,4,2")) == [P(2, "0,2,4"), P(2, "2")]
    assert prime_factors(rho(3)) == [rho(3)]
    assert prime_factors(P(2, "2,2")) == [P(2, "2"), P(2, "2")]
    assert prime_factors(P(3, "1,4,4,3,2,3,4")) == [
        P(3, "1,4,4"),
        P(3, "3"),
        P(3, "2,3,4"),
    ]
    assert len(prime_factors(P(2, "1,3"))) == 1


def test_coloring():
    for m in (1, 2, 3):
        assert standard_coloring(rho(m)) == (1,) * m
    assert standard_coloring(P(2, "1,3")) == (1, 2, 2, 1)
    # every color appears exactly m times
    for n in range(1, 5):
        for path in enumerate_paths(2, n):
            colors = standard_coloring(path)
            assert sorted(colors) == sorted(
                itertools.chain.from_iterable([c] * 2 for c in range(1, n + 1))
            )
    # per-level blocks are weakly decreasing
    for path in enumerate_paths(2, 4):
        colors = standard_coloring(path)
        pos = 0
        for level in path.levels:
            block = colors[pos : pos + level]
            assert all(a >= b for a, b in zip(block, block[1:]))
            pos += level


def test_coloring_matches_its_definition():
    # the m down steps colored k are the first steps after up step k to come
    # back to heights h+m-1, ..., h, where h is the height before up step k
    for m in (1, 2, 3):
        for n in range(1, 7):
            for path in enumerate_paths(m, n):
                steps = path.steps()
                heights = list(itertools.accumulate(m if s == UP else -1 for s in steps))
                color = {}  # step position -> color
                ups = [pos for pos, s in enumerate(steps) if s == UP]
                for k, start in enumerate(ups, start=1):
                    h = heights[start] - m
                    for target in range(h + m - 1, h - 1, -1):
                        pos = heights.index(target, start + 1)
                        assert steps[pos] == DOWN
                        color[pos] = k
                expected = tuple(color[pos] for pos, s in enumerate(steps) if s == DOWN)
                assert standard_coloring(path) == expected, path


def test_top_word():
    assert top_word(P(2, "0,2,1,3,4")) == (5, 5, 1, 1)
    assert top_word(rho(3)) == (1, 1, 1)
    assert top_word(P(3, "2,3,1,6")) == (4, 4, 4, 3, 3, 1)
    assert top_word(P(2, "1,3")) == (2, 2, 1)
    # first m letters of the top word are n when the block is long enough
    for path in enumerate_paths(2, 3):
        omega = top_word(path)
        if path.last_level >= 2:
            assert omega[:2] == (3, 3)


def _scan_class(path, i):
    # one class per scan of the top word, stopping once the multiplicity
    # passes i
    if not 0 <= i <= path.m:
        raise ValueError("class index out of range")
    counts = {}
    lengths = [0] if i == 0 else []
    best = 0
    for length, letter in enumerate(reversed(top_word(path)), start=1):
        counts[letter] = counts.get(letter, 0) + 1
        best = max(best, counts[letter])
        if best > i:
            break
        if best == i:
            lengths.append(length)
    return lengths


def _scan_lambda_sets(path, r, i):
    lengths = _scan_class(path, i)
    if r < 0:
        raise ValueError("need r >= 0")
    L = path.last_level
    return sorted(
        prefix + (last,)
        for last in lengths
        for prefix in itertools.product(range(L + 1), repeat=r)
        if sum(prefix) == L - last
    )


def _scan_bound(path, i, pick):
    return pick(_scan_class(path, i))


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ValueError as exc:
        return "raises", str(exc)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_class_statistics_match_per_class_scan(m):
    for n in range(1, 6):
        for path in enumerate_paths(m, n):
            for i in range(-1, m + 2):
                assert _outcome(c_bound, path, i) == _outcome(
                    _scan_bound, path, i, lambda lengths: lengths[0]
                )
                assert _outcome(C_bound, path, i) == _outcome(
                    _scan_bound, path, i, lambda lengths: lengths[-1]
                )
                for r in range(-1, 3):
                    assert _outcome(lambda_sets, path, r, i) == _outcome(
                        _scan_lambda_sets, path, r, i
                    )


def test_lambda_sets():
    path = P(2, "0,2,1,3,4")
    assert (1, 1, 2) in lambda_sets(path, 2, 2)
    assert (0, 3, 1) in lambda_sets(path, 2, 1)
    assert lambda_sets(P(2, "1,3"), 2, 0) == [
        (0, 3, 0),
        (1, 2, 0),
        (2, 1, 0),
        (3, 0, 0),
    ]
    # classes partition all weak compositions: sizes add to C(L+r, r)
    for path in enumerate_paths(2, 3):
        for r in (1, 2, 3):
            total = sum(len(lambda_sets(path, r, i)) for i in range(3))
            L = path.last_level
            assert total == math.comb(L + r, r)
            seen = set()
            for i in range(3):
                for lam in lambda_sets(path, r, i):
                    assert lam not in seen
                    seen.add(lam)


def test_star_lambda():
    assert star_lambda(P(2, "1,3"), P(2, "0,2,4,2"), (2, 1, 0)).levels == (
        1, 2, 0, 2, 5, 2,
    )
    assert star_lambda(
        P(3, "2,3,1,6"), P(3, "1,4,4,3,2,3,4"), (1, 2, 2, 1)
    ).levels == (2, 3, 1, 1, 1, 4, 6, 5, 2, 3, 5)
    # all shifts zero appends Q after P unchanged
    assert star_lambda(P(2, "1,3"), P(2, "0,2,4"), (3, 0)) == concat_i(
        P(2, "1,3"), P(2, "0,2,4"), 0
    )
    with pytest.raises(ValueError):
        star_lambda(P(2, "1,3"), P(2, "0,2,4,2"), (3, 0))
    with pytest.raises(ValueError):
        star_lambda(P(2, "1,3"), P(2, "0,2,4,2"), (2, 2, 0))


def test_product_examples():
    got = path_product(P(2, "1,3"), P(2, "0,2,4,2"), 0)
    expected = LinComb(
        (P(2, text), 1)
        for text in ("1,3,0,2,4,2", "1,2,0,2,5,2", "1,1,0,2,6,2", "1,0,0,2,7,2")
    )
    assert got == expected
    for m in (1, 2, 3):
        for i in range(m + 1):
            got = path_product(rho(m), rho(m), i)
            assert got == LinComb.single(DyckPath(m, (m - i, m + i)))
    assert path_product(P(2, "1,3"), P(2, "0,2,4,2"), 2) == LinComb.single(
        P(2, "1,0,0,2,4,5")
    )


def test_path_product_matches_star_lambda():
    # path_product builds each P *_lam Q on level sequences; star_lambda is
    # the nested concat_i reference that validates every intermediate path
    basis = [p for n in (1, 2, 3) for p in enumerate_paths(2, n)]
    for a in basis:
        for b in basis:
            r = len(prime_factors(b))
            for i in range(3):
                expected = LinComb(
                    (star_lambda(a, b, lam), 1) for lam in lambda_sets(a, r, i)
                )
                assert path_product(a, b, i) == expected


@pytest.mark.parametrize("m", [1, 2, 3])
def test_star_paths_match_star_lambda_on_every_composition(m):
    # the one template per (P, Q) against the nested concat_i reference, on
    # every weak composition of L(P) into r+1 parts, not only one class
    factor_counts = set()
    for n1 in range(1, 6):
        for n2 in range(1, 7 - n1):
            for a in enumerate_paths(m, n1):
                for b in enumerate_paths(m, n2):
                    r = len(prime_factors(b))
                    factor_counts.add(r)
                    lams = paths._weak_compositions(a.last_level, r + 1)
                    expected = [star_lambda(a, b, lam) for lam in lams]
                    assert paths._star_paths(a, b, lams) == expected
    assert factor_counts >= {1, 2, 3}


@pytest.mark.parametrize("m, max_total", [(1, 6), (2, 6), (3, 5)])
def test_class_table_lists_each_product_class_by_class(m, max_total):
    # one star call over the class table against the term dict of each class
    for total in range(2, max_total + 1):
        for n1 in range(1, total):
            for a in enumerate_paths(m, n1):
                L = a.last_level
                for b in enumerate_paths(m, total - n1):
                    r = len(prime_factors(b))
                    lams, ends = paths._class_table(L, paths._classes(a), r)
                    assert sorted(lams) == list(paths._weak_compositions(L, r + 1))
                    built = paths._star_paths(a, b, lams)
                    assert len(ends) == m + 1 and ends[-1] == len(built)
                    for i, (start, end) in enumerate(zip((0,) + ends, ends)):
                        terms = dict(collections.Counter(built[start:end]))
                        assert terms == paths._path_terms(a, b, i)


def test_product_unit_coefficients_disjoint():
    for n1 in (1, 2):
        for n2 in (1, 2, 3):
            for a in enumerate_paths(2, n1):
                for b in enumerate_paths(2, n2):
                    seen = set()
                    for i in range(3):
                        product = path_product(a, b, i)
                        assert all(c == 1 for _, c in product.items())
                        support = product.support()
                        assert not (support & seen)
                        seen |= support
                        assert all(p.size == n1 + n2 for p in support)


def test_axioms_path_oracle():
    for m in (1, 2, 3):
        oracle = PathOracle(m)
        report = verify_dyck_axioms(m, 5, oracle.product, oracle.basis)
        assert report.ok, report.failures


def test_phi_basics():
    assert phi(LEAF, 2) == LinComb.single(rho(2))
    for m in (1, 2):
        for i in range(m + 1):
            assert phi(ColoredTree(i, LEAF, LEAF), m) == LinComb.single(
                DyckPath(m, (m - i, m + i))
            )
    # a color above m is refused as tree_normal_form refuses it
    with pytest.raises(ValueError, match="^color exceeds m$"):
        phi(ColoredTree(3, LEAF, LEAF), 2)


def _phi_reference(t, m):
    # the grafting recursion written out, with a direct path_product per pair
    if t.is_leaf:
        return LinComb.single(rho(m))
    return bilinear(
        _phi_reference(t.left, m),
        _phi_reference(t.right, m),
        lambda a, b: path_product(a, b, t.color),
    )


def test_evaluator_matches_reference_recursion(all_colored_trees):
    for m in (1, 2, 3):
        image = evaluator(PathOracle(m).product, rho(m))
        for n in range(1, 6):
            for tree in enumerate_Bm(m, n):
                assert image(tree) == _phi_reference(tree, m), (m, tree)
    image = evaluator(PathOracle(2).product, rho(2))
    others = [u for u in all_colored_trees(2, 4) if not is_basis_Bm(u, 2)]
    assert others
    for tree in others:
        assert image(tree) == _phi_reference(tree, 2) == phi(tree, 2), tree
    # oracles whose root image tests each clause of the normalisation: with
    # Fraction values whose sums are whole and a cancelling z (both clauses),
    # with int values and a cancelling z (the zero is dropped), and with
    # whole Fraction sums and no cancellation (they are stored as ints)
    half = Fraction(1, 2)
    cases = [
        (
            {
                ("g", "g", 0): {"a": half, "b": half},
                ("g", "a", 1): {"s": 1, "t": Fraction(1, 3), "z": 1},
                ("g", "b", 1): {"s": 1, "t": Fraction(5, 3), "z": -1},
            },
            {"s": 1, "t": 1},
        ),
        (
            {
                ("g", "g", 0): {"a": 1, "b": 1},
                ("g", "a", 1): {"s": 1, "z": 1},
                ("g", "b", 1): {"s": 1, "z": -1},
            },
            {"s": 2},
        ),
        (
            {
                ("g", "g", 0): {"a": half, "b": half},
                ("g", "a", 1): {"s": 1, "t": Fraction(1, 3)},
                ("g", "b", 1): {"s": 1, "t": Fraction(5, 3)},
            },
            {"s": 1, "t": 1},
        ),
    ]
    tree = ColoredTree(1, LEAF, ColoredTree(0, LEAF, LEAF))
    for table, expected in cases:
        terms = evaluator(lambda a, b, i: table[a, b, i], "g")(tree)
        assert terms == LinComb(expected) and "z" not in terms, table
        assert all(type(c) is int for _, c in terms.items()), table
        reference = bilinear(
            LinComb.single("g"),
            bilinear(LinComb.single("g"), LinComb.single("g"), lambda a, b: table[a, b, 0]),
            lambda a, b: table[a, b, 1],
        )
        assert terms == reference


def test_phi_matrix_computes_each_product_once(monkeypatch):
    calls = []
    real = paths._path_terms

    def counted(P, Q, i):
        calls.append((P, Q, i))
        return real(P, Q, i)

    # the oracle computes its term dicts through _path_terms
    monkeypatch.setattr(paths, "_path_terms", counted)
    assert phi_matrix_full_rank(2, 5)
    assert calls
    assert len(calls) == len(set(calls))


def test_phi_full_rank():
    for m in (1, 2):
        for n in range(1, 6):
            assert phi_matrix_full_rank(m, n)
    # sizes the sparse rank makes affordable: 7752 and 7084 paths
    assert phi_matrix_full_rank(2, 7)
    assert phi_matrix_full_rank(3, 6)


def test_phi_intertwines_products():
    for m in (1, 2):
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
                            assert lhs == rhs, (m, a, b, i)


def test_decompose_smaller_examples():
    assert decompose_smaller(P(2, "2,2")) == (P(2, "2"), P(2, "2"), 0)
    assert decompose_smaller(P(2, "1,3")) == (rho(2), rho(2), 1)
    with pytest.raises(ValueError):
        decompose_smaller(rho(2))


def test_decompose_smaller_exhaustive():
    for n in range(2, 5):
        for path in enumerate_paths(2, n):
            r1, r2, i = decompose_smaller(path)
            assert r1.size < n and r2.size < n
            product = path_product(r1, r2, i)
            assert product[path] == 1


def _lambda_union(path, r, lo, hi):
    out = []
    for i in range(lo, hi + 1):
        out.extend(lambda_sets(path, r, i))
    return out


def _check_recompose_distinct(path, Q, r, s, i, j):
    domain = [
        (lam, tau)
        for lam in lambda_sets(path, r, i)
        for tau in lambda_sets(Q, s, j)
    ]
    codomain = set()
    for lam in lambda_sets(path, r, i):
        W = star_lambda(path, Q, lam)
        for delta in lambda_sets(W, s, j):
            codomain.add((lam, delta))
    image = set()
    for lam, tau in domain:
        lam2, delta = recompose_distinct(path, lam, tau)
        assert recompose_distinct_inv(path, lam2, delta) == (lam, tau)
        image.add((lam2, delta))
    assert image == codomain


def _check_recompose_zero(path, Q, r, s, i, m):
    domain = []
    for tau in lambda_sets(Q, s, 0):
        j_tau = max(idx for idx in range(s) if tau[idx] > 0)
        for lam in lambda_sets(path, r + s - j_tau, i):
            domain.append((lam, tau))
    codomain = set()
    for jj in range(i, m + 1):
        for gamma in lambda_sets(path, r, jj):
            W = star_lambda(path, Q, gamma)
            for delta in lambda_sets(W, s, i):
                if delta[-1] <= gamma[-1]:
                    codomain.add((gamma, delta))
    image = set()
    for lam, tau in domain:
        gamma, delta = recompose_zero(path, Q, r, lam, tau)
        assert recompose_zero_inv(path, Q, r, gamma, delta) == (lam, tau)
        image.add((gamma, delta))
    assert image == codomain


def _check_recompose_repeated(path, Q, r, s, i):
    domain = [
        (lam, tau)
        for lam in lambda_sets(path, r, i)
        for jj in range(1, i + 1)
        for tau in lambda_sets(Q, s, jj)
    ]
    codomain = set()
    for gamma in lambda_sets(path, r, i):
        W = star_lambda(path, Q, gamma)
        for delta in lambda_sets(W, s, i):
            if delta[-1] > gamma[-1]:
                codomain.add((gamma, delta))
    image = set()
    for lam, tau in domain:
        gamma, delta = recompose_distinct(path, lam, tau)
        assert recompose_distinct_inv(path, gamma, delta) == (lam, tau)
        image.add((gamma, delta))
    assert image == codomain


def test_recompose_bijections():
    # re-association data for the product relations, checked as explicit
    # bijections against their stated inverses
    m = 2
    for n1 in (1, 2):
        for n2 in (1, 2):
            for path in enumerate_paths(m, n1):
                for Q in enumerate_paths(m, n2):
                    r = len(prime_factors(Q))
                    for s in (1, 2):
                        for i in range(m + 1):
                            for j in range(i + 1, m + 1):
                                _check_recompose_distinct(path, Q, r, s, i, j)
                            _check_recompose_zero(path, Q, r, s, i, m)
                            _check_recompose_repeated(path, Q, r, s, i)
