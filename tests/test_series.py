import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdyck import series
from mdyck.cli import main
from mdyck.series import (
    TruncatedSeries,
    check_lemform,
    check_series_identities,
    fuss_catalan,
    geometric_inverse,
    product_cost,
    series_compose,
    series_solve_free,
)


def test_fuss_catalan_values():
    assert fuss_catalan(1, 3) == 5
    assert fuss_catalan(2, 3) == 12
    assert all(fuss_catalan(m, 1) == 1 for m in range(1, 8))
    assert [fuss_catalan(2, n) for n in range(1, 6)] == [1, 3, 12, 55, 273]
    assert [fuss_catalan(3, n) for n in range(1, 5)] == [1, 4, 22, 140]


def test_fuss_catalan_rejects_bad_input():
    with pytest.raises(ValueError):
        fuss_catalan(0, 2)


def _iterated_fixed_point(m, order):
    # the reference solver: each round of f <- x (1+f)^(m+1) fixes one more
    # coefficient, so order rounds suffice
    one = TruncatedSeries.one(order)
    f = TruncatedSeries.from_coeffs(order, ())
    for _ in range(order):
        f = ((one + f).pow(m + 1)).shift_mul_x()
    return f


def test_solve_free_agrees_with_the_fixed_point_iteration():
    for m in range(7):
        for order in range(1, 41):
            assert series_solve_free(m, order) == _iterated_fixed_point(m, order), (m, order)


def test_solve_free_coefficients_are_fuss_catalan():
    for m in range(1, 7):
        f = series_solve_free(m, 40)
        assert f.coeffs[0] == 0
        assert f.coeffs[1:] == tuple(fuss_catalan(m, n) for n in range(1, 41))


def test_solve_free_at_m_zero_is_geometric():
    # f = x (1 + f) gives x / (1 - x)
    assert series_solve_free(0, 6).coeffs == (0, 1, 1, 1, 1, 1, 1)


def _naive_compose(f, g):
    order = min(f.order, g.order)
    g = TruncatedSeries.from_coeffs(order, g.coeffs)
    result = TruncatedSeries.from_coeffs(order, ())
    for k, c in enumerate(f.coeffs[: order + 1]):
        result = result + g.pow(k) * TruncatedSeries.from_coeffs(order, (c,))
    return result


@st.composite
def _series_pair(draw):
    order = draw(st.integers(1, 15))
    coeffs = st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1)
    f = TruncatedSeries(order, tuple(draw(coeffs)))
    g = TruncatedSeries(order, (0,) + tuple(draw(coeffs))[1:])
    return f, g


@settings(max_examples=60, deadline=None)
@given(_series_pair())
def test_compose_agrees_with_the_sum_of_powers(pair):
    f, g = pair
    assert series_compose(f, g) == _naive_compose(f, g)


def test_series_identities_solve_each_fixed_point_once(monkeypatch):
    solved = []

    def solve(m, order):
        solved.append(m)
        return series_solve_free(m, order)

    monkeypatch.setattr(series, "series_solve_free", solve)
    assert check_series_identities(4, 10).ok
    assert sorted(solved) == [0, 1, 2, 3, 4]


def test_series_identities_check_counts():
    assert check_series_identities(4, 30).checks == 900
    assert check_series_identities(6, 10).checks == 510


def test_solve_free_catalan():
    f = series_solve_free(1, 5)
    assert f.coeffs == (0, 1, 2, 5, 14, 42)


def test_solve_free_m2():
    f = series_solve_free(2, 5)
    assert f.coeffs == (0, 1, 3, 12, 55, 273)


def test_first_coefficients():
    # degree-1 component is one-dimensional; degree 2 has one basis tree
    # per admissible root color, m+1 of them
    for m in range(1, 5):
        f = series_solve_free(m, 3)
        assert f.coeffs[1] == 1
        assert f.coeffs[2] == m + 1 == fuss_catalan(m, 2)


def test_compose_identities():
    order = 6
    x = TruncatedSeries.x(order)
    f = series_solve_free(2, order)
    assert series_compose(f, x) == f
    assert series_compose(x, f) == f
    g = TruncatedSeries.from_coeffs(order, (0, 1, 1))  # x + x^2
    assert series_compose(g, g) == TruncatedSeries.from_coeffs(
        order, (0, 1, 2, 2, 1)
    )


def test_compose_requires_zero_constant():
    order = 4
    with pytest.raises(ValueError):
        series_compose(TruncatedSeries.x(order), TruncatedSeries.one(order))


def test_lemform():
    assert check_lemform(3, 3, 10).ok  # k = m: identity substitution
    assert check_lemform(2, 1, 10).ok
    assert check_lemform(4, 0, 10).ok


def test_geometric_inverse_relations():
    order = 10
    x = TruncatedSeries.x(order)
    for m in range(1, 5):
        g = geometric_inverse(m, order)
        assert series_compose(series_solve_free(m, order), g) == x
        one_plus_x = TruncatedSeries.from_coeffs(order, (1, 1))
        assert one_plus_x * g == geometric_inverse(m - 1, order)


def _inverse_unit(s):
    # the reference: the multiplicative inverse of a series with constant
    # term 1 or -1, one coefficient at a time from s * inv = 1
    c0 = s.coeffs[0]
    inv = [c0] + [0] * s.order
    for n in range(1, s.order + 1):
        inv[n] = -c0 * sum(s.coeffs[k] * inv[n - k] for k in range(1, n + 1))
    return TruncatedSeries(s.order, tuple(inv))


def test_geometric_inverse_matches_the_inverted_power():
    for order in range(1, 41):
        one_plus_x = TruncatedSeries.from_coeffs(order, (1, 1))
        for m in range(9):
            expected = _inverse_unit(one_plus_x.pow(m + 1)).shift_mul_x()
            assert geometric_inverse(m, order) == expected, (m, order)


def test_all_series_identities():
    report = check_series_identities(4, 10)
    assert report.ok, report.failures


def test_series_identities_reject_an_empty_range():
    # max_m = 0 checks no m: no vacuous "ok (0 checks)"
    with pytest.raises(ValueError, match="need max_m >= 1"):
        check_series_identities(0)


def test_a_wrong_coefficient_fails_the_series_suite(monkeypatch, capsys):
    fuss = series.fuss_catalan
    monkeypatch.setattr(series, "fuss_catalan", lambda m, n: fuss(m, n) + (n == 3))
    report = check_series_identities(1, 4)
    assert report.failures == ["coefficient 3 of f_1 is not fuss_catalan(1,3)"]
    code = main(["verify", "--suite", "series", "--max-m", "1", "--order", "4"])
    assert code == 1
    assert capsys.readouterr().out == (
        "series identities m<=1 order=4: FAILED (24 checks)\n"
        "  coefficient 3 of f_1 is not fuss_catalan(1,3)\n"
    )


def test_a_wrong_inverse_fails_both_inverse_checks(monkeypatch):
    inverse = series.geometric_inverse
    monkeypatch.setattr(
        series, "geometric_inverse", lambda m, order: inverse(3 if m == 2 else m, order)
    )
    report = check_series_identities(2, 4)
    assert report.failures == ["d_2(g_2(x)) != x", "(1+x) g_2 != g_1"]


def test_a_wrong_power_fails_the_fixed_point(monkeypatch):
    power = TruncatedSeries.pow

    def off_at_3(self, exponent):
        extra = (1,) if exponent == 3 else ()
        return power(self, exponent) + TruncatedSeries.from_coeffs(self.order, extra)

    monkeypatch.setattr(TruncatedSeries, "pow", off_at_3)
    report = check_series_identities(2, 4)
    assert report.failures == ["fixed point fails for m=2"]


def test_a_wrong_composition_fails_the_substitution_identity(monkeypatch):
    compose = series.series_compose

    def plus_x2(f, g):
        return compose(f, g) + TruncatedSeries.from_coeffs(min(f.order, g.order), (0, 0, 1))

    monkeypatch.setattr(series, "series_compose", plus_x2)
    report = check_series_identities(1, 4)
    wrong = "substitution identity fails: (0, 1, 3, 5, 14) != (0, 1, 2, 5, 14)"
    assert report.failures == [
        "d_1(g_1(x)) != x",
        f"series substitution m=1 k=0 order=4: {wrong}",
        f"series substitution m=1 k=1 order=4: {wrong}",
    ]


@pytest.mark.parametrize("order", [0, -1])
def test_series_identities_reject_an_order_below_one(monkeypatch, order):
    def solve(*args):
        raise AssertionError("a series was built before the order was checked")

    monkeypatch.setattr("mdyck.series.series_solve_free", solve)
    monkeypatch.setattr(TruncatedSeries, "one", solve)
    with pytest.raises(ValueError, match="need order >= 1"):
        check_series_identities(2, order)


def test_product_cost_counts_the_coefficient_pairs_of_one_product():
    for order in range(8):
        pairs = sum(1 for i in range(order + 1) for j in range(order + 1 - i))
        assert product_cost(order) == pairs
