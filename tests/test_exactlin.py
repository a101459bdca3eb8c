from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdyck.exactlin import (
    ExactMatrix,
    LinComb,
    lincombs_to_matrix,
    linear_sum,
    matrix_rank,
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
