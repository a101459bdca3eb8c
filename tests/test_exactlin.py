import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdyck import exactlin
from mdyck.exactlin import (
    _CERT_PRIME,
    ExactMatrix,
    LinComb,
    _bareiss_rank,
    has_full_rank,
    lincombs_to_matrix,
    linear_sum,
    matrix_rank,
    rank_of_lincombs,
    span_contains,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
keys = st.sampled_from(["x", "y", "z", "w"])
lincombs = st.dictionaries(keys, rationals, max_size=4).map(LinComb)


def lc(**terms):
    return LinComb(terms)


def test_add_cancellation():
    assert lc(x=1) + lc(x=-1) == LinComb.zero()


def test_add_disjoint_supports():
    assert lc(x=1) + lc(y=2) == lc(x=1, y=2)


def test_add_exact_rationals():
    half = Fraction(1, 2)
    assert lc(x=half) + lc(x=half) == lc(x=1)


def test_scale_zero_and_identity():
    assert lc(x=3).scale(0) == LinComb.zero()
    assert lc(x=2, y=-1).scale(1) == lc(x=2, y=-1)
    assert lc(x=Fraction(1, 3)).scale(3) == lc(x=1)


def test_render_is_sorted_and_signed():
    assert lc(y=-1, x=Fraction(3, 2)).render() == "+3/2*[x] -1*[y]"
    assert LinComb.zero().render() == "0"


@given(lincombs, lincombs)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(lincombs, lincombs, lincombs)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(lincombs, lincombs, rationals)
def test_scale_distributes(a, b, c):
    assert (a + b).scale(c) == a.scale(c) + b.scale(c)


@given(st.lists(st.tuples(lincombs, rationals), max_size=4))
def test_linear_sum_matches_scale_and_add(pairs):
    expected = LinComb.zero()
    for v, c in pairs:
        expected = expected + v.scale(c)
    assert linear_sum(pairs) == expected


def test_matrix_rank_examples():
    identity = ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert matrix_rank(identity) == 3
    zero = ExactMatrix.from_rows([[0] * 4, [0] * 4])
    assert matrix_rank(zero) == 0
    proportional = ExactMatrix.from_rows([[1, 2], [2, 4]])
    assert matrix_rank(proportional) == 1
    # the zero entry under the first pivot leaves row 2 unscaled; the
    # elimination must still divide it exactly at the second pivot
    skipped = ExactMatrix.from_rows(
        [[0] * 8, [0, -1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 1], [-2] + [0] * 7]
    )
    assert matrix_rank(skipped) == 3 == matrix_rank(skipped.transpose())


matrices = st.integers(1, 12).flatmap(
    lambda rows: st.integers(1, 12).flatmap(
        lambda cols: st.lists(
            st.lists(rationals, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
).map(ExactMatrix.from_rows)


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_rank_equals_rank_of_transpose(matrix):
    assert matrix_rank(matrix) == matrix_rank(matrix.transpose())


@st.composite
def deficient_rows(draw):
    """Rational rows: a few drawn rows, rational combinations of them and
    zero rows, shuffled, so that the rank is usually below both sizes."""
    cols = draw(st.integers(1, 8))
    row = st.lists(rationals, min_size=cols, max_size=cols)
    base = draw(st.lists(row, min_size=1, max_size=4))
    weights = st.lists(rationals, min_size=len(base), max_size=len(base))
    combos = [
        [sum((w * r[c] for w, r in zip(ws, base)), Fraction(0)) for c in range(cols)]
        for ws in draw(st.lists(weights, max_size=5))
    ]
    zeros = [[Fraction(0)] * cols] * draw(st.integers(0, 2))
    return draw(st.permutations(base + combos + zeros))


@given(deficient_rows())
@settings(max_examples=150, deadline=None)
def test_sparse_rank_agrees_with_bareiss(rows):
    cols = len(rows[0])
    integer_rows = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        integer_rows.append([int(x * scale) for x in row])
    assert matrix_rank(ExactMatrix.from_rows(rows)) == _bareiss_rank(integer_rows, cols)


@given(st.lists(lincombs, max_size=5), st.lists(keys, unique=True))
@settings(max_examples=60, deadline=None)
def test_rank_of_lincombs_matches_dense_matrix(vectors, key_list):
    # key lists that miss part of the support restrict the vectors
    assert rank_of_lincombs(vectors, key_list) == matrix_rank(
        lincombs_to_matrix(vectors, key_list)
    )
    everything = sorted({k for v in vectors for k in v})
    assert rank_of_lincombs(vectors) == matrix_rank(
        lincombs_to_matrix(vectors, everything)
    )


def test_rank_falls_back_to_exact_elimination():
    # the only entry vanishes modulo the certificate prime
    matrix = ExactMatrix.from_rows([[_CERT_PRIME]])
    assert matrix_rank(matrix) == 1
    assert has_full_rank(matrix)


def test_full_certificate_skips_exact_elimination(monkeypatch):
    def refuse(rows, cols):
        raise AssertionError("Bareiss ran on a certified rank")

    monkeypatch.setattr(exactlin, "_bareiss_rank", refuse)
    tall = ExactMatrix.from_rows([[1, 2], [0, Fraction(1, 3)], [5, 7], [0, 0]])
    assert matrix_rank(tall) == 2
    assert rank_of_lincombs([lc(x=1), lc(x=1, y=Fraction(1, 2))]) == 2


def test_span_examples():
    assert span_contains([lc(x=1, y=1)], lc(x=1, y=1))
    assert not span_contains([lc(x=1)], lc(y=1))
    # solving the 2x2 rational system (1/2, 1/2) gives x from x+y and x-y
    assert span_contains([lc(x=1, y=1), lc(x=1, y=-1)], lc(x=1))


@given(st.lists(lincombs, max_size=4), lincombs)
@settings(max_examples=60, deadline=None)
def test_span_agrees_with_rank(vectors, target):
    keys_all = sorted({k for v in vectors for k in v} | set(target))
    base = matrix_rank(lincombs_to_matrix(vectors, keys_all)) if vectors else 0
    extended = matrix_rank(lincombs_to_matrix(vectors + [target], keys_all))
    assert span_contains(vectors, target) == (base == extended)


def test_from_rows_rejects_ragged():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
