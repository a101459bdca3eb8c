import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdyck.exactlin import (
    LinComb,
    _sparse_rank,
    bilinear,
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


SRC = Path(__file__).resolve().parents[1] / "src" / "mdyck"


def test_only_exactlin_reads_the_terms_of_a_lincomb():
    # every other module reads a LinComb through its methods and builds one
    # through LinComb(...) or the trusted LinComb.of_terms
    readers = sorted(
        path.name
        for path in SRC.glob("*.py")
        if path.name != "exactlin.py"
        and any(word in path.read_text(encoding="utf-8") for word in ("._terms", "LinComb.__new__"))
    )
    assert readers == []


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
    assert repr(LinComb({"b": Fraction(1, 2), "a": 1})) == "LinComb({'a': 1, 'b': Fraction(1, 2)})"


def _reference(pairs):
    # the sum of c * v over (dict v, c) in Fraction arithmetic, zeros dropped
    out = {}
    for v, c in pairs:
        for key, x in v.items():
            out[key] = out.get(key, Fraction(0)) + Fraction(c) * Fraction(x)
    return {key: x for key, x in out.items() if x}


def _reference_render(terms):
    if not terms:
        return "0"
    return " ".join(
        f"{'+' if c > 0 else '-'}{abs(c)}*[{key}]" for key, c in sorted(terms.items())
    )


def _key_terms(x, y):
    # a test product on string keys with coefficients 2 and -1
    return {x + y: 2, y + x: -1}


def _check_kernel(da, db, j, k):
    """Every LinComb operation against the Fraction reference; returns the results."""
    a, b = LinComb(da), LinComb(db)
    cases = [
        (a + b, [(da, 1), (db, 1)]),
        (a - b, [(da, 1), (db, -1)]),
        (a.scale(j), [(da, j)]),
        (linear_sum([(a, j), (b, k)]), [(da, j), (db, k)]),
        (
            bilinear(a, b, lambda x, y: LinComb(_key_terms(x, y))),
            [(_key_terms(x, y), cx * cy) for x, cx in da.items() for y, cy in db.items()],
        ),
    ]
    for result, pairs in cases:
        expected = _reference(pairs)
        assert dict(result.items()) == expected
        assert result.render() == _reference_render(expected)
        for _, c in result.items():
            # whole values are stored as int, the others stay Fraction
            assert type(c) is (int if c.denominator == 1 else Fraction)
    return [result for result, _ in cases]


integers = st.integers(-6, 6)
int_terms = st.dictionaries(keys, integers, max_size=4)


@given(int_terms, int_terms, integers, integers)
def test_integer_inputs_stay_int(da, db, j, k):
    results = _check_kernel(da, db, j, k)
    assert all(type(c) is int for r in results for _, c in r.items())
    # whole Fractions on the way in give the same int results (and
    # _check_kernel asserts that every whole coefficient is an int)
    as_fractions = _check_kernel(
        {key: Fraction(c) for key, c in da.items()},
        {key: Fraction(c) for key, c in db.items()},
        Fraction(j),
        Fraction(k),
    )
    assert as_fractions == results


@given(
    st.dictionaries(keys, rationals, max_size=4),
    st.dictionaries(keys, rationals, max_size=4),
    rationals,
    integers,
)
def test_rational_inputs_stay_exact(da, db, j, k):
    _check_kernel(da, db, j, k)


def test_whole_coefficients_are_int():
    half = lc(x=Fraction(1, 2), y=3)
    assert type((half + half)["x"]) is int
    assert type(half.scale(2)["x"]) is int
    assert type(half["z"]) is int and half["z"] == 0
    assert type(lc(x=Fraction(6, 3))["x"]) is int
    assert type(half["x"]) is Fraction


def test_pairs_with_a_repeated_key_are_summed():
    combo = LinComb([("x", 1), ("y", 2), ("x", Fraction(1, 2)), ("z", 3), ("y", -2)])
    assert dict(combo.items()) == {"x": Fraction(3, 2), "z": 3}
    assert "y" not in combo and len(combo) == 2
    assert not LinComb([("x", Fraction(1, 3)), ("x", Fraction(-1, 3))])


@pytest.mark.parametrize("half", ["1/2", Decimal("0.5"), Fraction(1, 2)], ids=repr)
def test_a_coefficient_is_stored_as_its_exact_value(half):
    assert LinComb({"x": half}) == LinComb([("x", Fraction(1, 2))])
    assert type(LinComb({"x": half})["x"]) is Fraction
    # a whole value is stored as its int, also after a sum
    whole = LinComb([("x", half), ("x", half), ("y", Fraction(4, 2))])
    assert dict(whole.items()) == {"x": 1, "y": 2}
    assert {type(c) for _, c in whole.items()} == {int}


@given(lincombs, lincombs)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(lincombs, lincombs, lincombs)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(lincombs, lincombs, rationals)
def test_scale_distributes(a, b, c):
    assert (a + b).scale(c) == a.scale(c) + b.scale(c)
    assert -a == a.scale(-1)
    assert a * c == c * a == a.scale(c)


@given(st.lists(st.tuples(lincombs, rationals), max_size=4))
def test_linear_sum_matches_scale_and_add(pairs):
    expected = LinComb.zero()
    for v, c in pairs:
        expected = expected + v.scale(c)
    assert linear_sum(pairs) == expected


def test_matrix_rank_examples():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert matrix_rank(identity) == 3
    zero = [[0] * 4, [0] * 4]
    assert matrix_rank(zero) == 0
    proportional = [[1, 2], [2, 4]]
    assert matrix_rank(proportional) == 1
    # entries are read as exact rationals, whatever Fraction() accepts
    assert matrix_rank([["1/2", Decimal("0.5")], [1, Fraction(1)]]) == 1
    # a zero row and a row that needs no reduction step, and the transpose
    skipped = [
        [0] * 8, [0, -1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 1], [-2] + [0] * 7
    ]
    assert matrix_rank(skipped) == 3 == matrix_rank(list(zip(*skipped)))


matrices = st.integers(1, 12).flatmap(
    lambda rows: st.integers(1, 12).flatmap(
        lambda cols: st.lists(
            st.lists(rationals, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_rank_equals_rank_of_transpose(rows):
    assert matrix_rank(rows) == matrix_rank(list(zip(*rows)))


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


def _fraction_rank(rows):
    """Textbook Gaussian elimination over ``Fraction``: the reference rank."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, len(mat)):
            factor = mat[r][col] / mat[rank][col]
            mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@given(deficient_rows())
@settings(max_examples=150, deadline=None)
def test_sparse_rank_agrees_with_fraction_elimination(rows):
    assert matrix_rank(rows) == _fraction_rank(rows)


def test_dense_integer_rank_agrees_with_fraction_elimination():
    # entries in [-9, 9] fill every row, so each reduction step scales it
    rng = random.Random(25)
    rows = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(39)]
    rows.append([x + y for x, y in zip(rows[3], rows[17])])
    rng.shuffle(rows)
    assert matrix_rank(rows) == _fraction_rank(rows) == 39


@given(st.lists(lincombs, max_size=5), st.lists(keys, unique=True))
@settings(max_examples=60, deadline=None)
def test_rank_of_lincombs_matches_dense_matrix(vectors, key_list):
    # key lists that miss part of the support restrict the vectors; a
    # one-shot iterator of the vectors gives the list's rank
    assert rank_of_lincombs(vectors, key_list) == matrix_rank(
        lincombs_to_matrix(vectors, key_list)
    )
    assert rank_of_lincombs(iter(vectors), key_list) == rank_of_lincombs(vectors, key_list)
    everything = sorted({k for v in vectors for k in v})
    assert rank_of_lincombs(vectors) == matrix_rank(
        lincombs_to_matrix(vectors, everything)
    )
    assert rank_of_lincombs(iter(vectors)) == rank_of_lincombs(vectors)


def test_rank_of_a_large_prime_entry():
    # a prime near 2**61 is one nonzero entry like any other
    rows = [[2**61 - 1]]
    assert matrix_rank(rows) == 1
    assert has_full_rank(rows)


@pytest.mark.parametrize(
    "rows, rank",
    [
        ([{"y": 0}], 0),
        # a zero left in a column that no pivot clears
        ([{"z": 1}, {"y": 0, "z": 2}], 1),
        ([{"y": 0, "z": 0}, {"y": 3}], 1),
        # a zero in a kept row, and one met after a scaled reduction step
        ([{"y": 0, "z": 2}, {"z": 1}], 1),
        ([{"z": 2}, {"y": 0, "z": 3}], 1),
    ],
    ids=["zero-row", "zero-left", "zeros-then-pivot", "zero-in-pivot", "zero-after-scaling"],
)
def test_rank_of_term_dicts_holding_zeros(rows, rank):
    assert rank_of_lincombs(rows, ["y", "z"]) == rank


def test_tall_full_rank_examples():
    tall = [[1, 2], [0, Fraction(1, 3)], [5, 7], [0, 0]]
    assert matrix_rank(tall) == 2
    assert has_full_rank(tall)
    assert rank_of_lincombs([lc(x=1), lc(x=1, y=Fraction(1, 2))]) == 2


def test_wide_full_rank_examples():
    # full rank of a wide matrix is its row count, not its column count
    assert has_full_rank([[1, 0, 0], [0, 1, 0]])
    assert not has_full_rank([[1, 2, 3], [2, 4, 6]])


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
    assert span_contains(iter(vectors), target) == (base == extended)


def test_sparse_rank_leaves_its_rows_unchanged():
    # the second row is reduced by a unit step, the third is never read
    rows = [{1: 2, 0: 1}, {1: 4, 0: 3}, {1: 1}]
    copies = [dict(row) for row in rows]
    assert _sparse_rank(rows, 2) == 2
    assert rows == copies


def test_one_shot_iterables_give_the_answers_of_lists():
    assert rank_of_lincombs(iter([{"a": 1}, {"b": 2}])) == 2
    assert span_contains(iter([lc(a=1)]), lc(a=2))
    assert not span_contains(iter([lc(a=1)]), lc(b=1))


@pytest.mark.parametrize(
    "independent, keys",
    [([], []), ([{"x": 1}], ["x"]), ([{"x": 2}, {"x": 1, "y": Fraction(1, 3)}], ["x", "y"])],
    ids=["no-column", "one-column", "two-columns"],
)
def test_rank_reads_no_vector_past_full_rank(independent, keys):
    def vectors():
        yield from independent
        raise AssertionError("a vector past full rank was read")

    assert rank_of_lincombs(vectors(), keys) == len(keys)


def test_rank_rejects_ragged_rows():
    with pytest.raises(ValueError):
        matrix_rank([[1, 2], [3]])
    with pytest.raises(ValueError):
        has_full_rank([[1, 2], [3]])
