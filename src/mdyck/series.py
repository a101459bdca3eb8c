"""Fuss-Catalan numbers and truncated integer power series.

The dimension counts of all three models are governed by the Fuss-Catalan
numbers d(m, n) = C((m+1)n, n) / (mn+1), whose generating series f satisfies
the algebraic fixed-point equation f = x (1+f)^(m+1).  This module computes
those series exactly (integer coefficients, truncated at a fixed order), one
coefficient at a time by the power recurrence, and verifies the substitution
identities relating the series for different m.  A verification run solves
each fixed point once; its compositions, one series product per power of the
inner series, take most of its time.
"""

from __future__ import annotations

import math
from functools import cache

from .reporting import CheckReport, Record, _immutable


def fuss_catalan(m: int, n: int) -> int:
    """d(m, n) = C((m+1)n, n) / (mn + 1), always an integer."""
    if m < 1 or n < 1:
        raise ValueError("fuss_catalan requires m, n >= 1")
    q, r = divmod(math.comb((m + 1) * n, n), m * n + 1)
    assert r == 0
    return q


def product_cost(order: int) -> int:
    """The coefficient products of one product of two series truncated at
    x^order: (order + 1)(order + 2) / 2.  The series identities spend most of
    their time in compositions, which take one such product per power of the
    inner series, so their time grows about as order^3; this is the cost
    that bounds the ``--order`` of ``mdyck verify``."""
    return (order + 1) * (order + 2) // 2


IDENTITY_COST_CAP = 10**8


def identity_cost(max_m: int, order: int) -> int:
    """The coefficient products of the compositions that
    :func:`check_series_identities` makes: each m up to ``max_m`` composes
    d_m(g_m) and its m + 1 substitutions, max_m(max_m + 5)/2 compositions in
    all, and each takes ``order`` series products of :func:`product_cost`.
    Capped at ``IDENTITY_COST_CAP``, it bounds the ``--max-m`` and
    ``--order`` of ``mdyck verify`` jointly."""
    return max_m * (max_m + 5) // 2 * order * product_cost(order)


class TruncatedSeries(Record):
    """Integer power series truncated at x^order.

    ``coeffs`` stores c_0 .. c_order; arithmetic silently discards terms
    beyond the truncation order and is exact below it.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[int, ...]):
        if len(coeffs) != order + 1:
            raise ValueError("coefficient count must be order + 1")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    __setattr__ = __delattr__ = _immutable

    def __hash__(self):
        return hash((self.order, self.coeffs))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, (1,) + (0,) * order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        if order < 1:
            raise ValueError("order must be >= 1")
        return cls(order, (0, 1) + (0,) * (order - 1))

    @classmethod
    def from_coeffs(cls, order: int, coeffs) -> "TruncatedSeries":
        data = list(coeffs)[: order + 1]
        data += [0] * (order + 1 - len(data))
        return cls(order, tuple(data))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if not a:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(order, tuple(out))

    def pow(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError("negative power")
        result = TruncatedSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift_mul_x(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, (0,) + self.coeffs[:-1])


def series_compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(x)) truncated at the common order; g must have zero constant term.

    The terms c_k * g^k are added coefficientwise, so each power of g costs
    one series product."""
    if g.coeffs[0] != 0:
        raise ValueError("composition requires g(0) = 0")
    order = min(f.order, g.order)
    out = [0] * (order + 1)
    g_trunc = TruncatedSeries.from_coeffs(order, g.coeffs)
    power = TruncatedSeries.one(order)
    for k, c in enumerate(f.coeffs[: order + 1]):
        if c:
            # g^k has no term below x^k
            for j, p in enumerate(power.coeffs[k:], k):
                out[j] += c * p
        if k < order:
            power = power * g_trunc
    return TruncatedSeries(order, tuple(out))


def series_solve_free(m: int, order: int) -> TruncatedSeries:
    """Unique series f with f(0)=0 and f = x (1+f)^(m+1), to x^order.

    With h = (1+f)^(m+1) and h_0 = 1, J.C.P. Miller's power recurrence
    n h_n = sum_{k=1..n} ((m+2)k - n) f_k h_{n-k} gives h_n from the
    coefficients before it, and the fixed point gives f_{n+1} = h_n: the
    series costs O(order^2) coefficient products.  The coefficient of x^n is
    fuss_catalan(m, n) for m >= 1; m = 0 gives x / (1 - x).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if m < -1:
        raise ValueError("negative power")
    f = [0, 1]
    h = [1]
    for n in range(1, order):
        total = sum(((m + 2) * k - n) * f[k] * h[n - k] for k in range(1, n + 1))
        h_n, rest = divmod(total, n)
        if rest:
            raise ArithmeticError(f"coefficient {n} of (1+f)^{m + 1} is not an integer")
        h.append(h_n)
        f.append(h_n)
    return TruncatedSeries(order, tuple(f))


def geometric_inverse(m: int, order: int) -> TruncatedSeries:
    """The compositional inverse g(x) = x / (1+x)^(m+1) of the free series,
    from its closed form [x^(n+1)] g = (-1)^n C(m+n, n)."""
    return TruncatedSeries(order, (0,) + tuple((-1) ** n * math.comb(m + n, n) for n in range(order)))


def check_lemform(m: int, k: int, order: int) -> CheckReport:
    """Verify d_k(x * (1 + d_m(x))^(m-k)) = d_m(x) up to x^order.

    The outcome is computed once per (m, k, order) and returned as a fresh
    report each call."""
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    name, ok, checks, failures = _lemform(m, k, order)
    return CheckReport(name, ok, checks, list(failures))


@cache
def _lemform(m: int, k: int, order: int) -> tuple:
    # the fields of check_lemform's report; the freeness check of every k at
    # one m asks for the same identity
    d_m = series_solve_free(m, order)
    d_k = d_m if k == m else series_solve_free(k, order)
    report = _substitution(m, k, order, d_m, d_k)
    return report.name, report.ok, report.checks, tuple(report.failures)


def _substitution(m: int, k: int, order: int, d_m: TruncatedSeries, d_k: TruncatedSeries) -> CheckReport:
    """The identity of :func:`check_lemform` on the solved series d_m and d_k."""
    report = CheckReport(name=f"series substitution m={m} k={k} order={order}")
    one = TruncatedSeries.one(order)
    inner = ((one + d_m).pow(m - k)).shift_mul_x()
    lhs = series_compose(d_k, inner)
    report.checks += order
    if lhs != d_m:
        report.fail(f"substitution identity fails: {lhs.coeffs} != {d_m.coeffs}")
    return report


def check_series_identities(max_m: int, order: int = 10) -> CheckReport:
    """All series-level identities: fixed point, substitution, inverses.
    Each of d_0 .. d_max_m is solved once."""
    if max_m < 1:
        raise ValueError("need max_m >= 1")
    if order < 1:
        raise ValueError("need order >= 1")
    report = CheckReport(name=f"series identities m<={max_m} order={order}")
    one = TruncatedSeries.one(order)
    x = TruncatedSeries.x(order)
    solved = [series_solve_free(m, order) for m in range(max_m + 1)]
    for m in range(1, max_m + 1):
        f = solved[m]
        report.checks += order
        if f != ((one + f).pow(m + 1)).shift_mul_x():
            report.fail(f"fixed point fails for m={m}")
        for n in range(1, order + 1):
            report.checks += 1
            if f.coeffs[n] != fuss_catalan(m, n):
                report.fail(f"coefficient {n} of f_{m} is not fuss_catalan({m},{n})")
        g = geometric_inverse(m, order)
        report.checks += order
        if series_compose(f, g) != x:
            report.fail(f"d_{m}(g_{m}(x)) != x")
        report.checks += order
        if TruncatedSeries.from_coeffs(order, (1, 1)) * g != geometric_inverse(m - 1, order):
            report.fail(f"(1+x) g_{m} != g_{m-1}")
        for k in range(0, m + 1):
            report.merge(_substitution(m, k, order, f, solved[k]))
    return report
