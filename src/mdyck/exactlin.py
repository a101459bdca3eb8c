"""Exact linear algebra over the rationals.

Everything in this package is computed with exact arithmetic and no
floating point is used anywhere.  A coefficient is a plain ``int`` and is
promoted to a ``fractions.Fraction`` (lowest terms, positive denominator)
only when it is not whole; a ``Fraction`` that becomes whole again is
stored as its ``int``.  Products and relations of the models have integer
coefficients, so their arithmetic never leaves ``int``.  Both types have
``numerator`` and ``denominator``, and print alike when whole, so rendering
and rank code treat them the same.  This module provides the two
workhorses shared by all the combinatorial models:

* :class:`LinComb`, a formal finite linear combination of opaque basis keys
  (trees, lattice paths, chains, ...) with rational coefficients, built
  where a user sees a result.  Inside, a combination is a plain term dict
  ``{key: coefficient}`` with no zero value: the product oracles return
  one, :func:`term_sum`, the one accumulator of coefficients (``LinComb``'s
  constructor too), adds them up in one dict, and :func:`linear_sum`,
  :func:`bilinear` and the arithmetic of :class:`LinComb` wrap its result
  through the trusted constructor :meth:`LinComb.of_terms`.  No other
  module reads a ``LinComb``'s private terms or calls ``LinComb.__new__``.
* one exact rank routine on sparse integer rows ``{column: entry}``, built
  straight from the terms of a :class:`LinComb` or term dict, less any
  zero (or from a plain list of equally long rows); an integer row is taken
  as it is, and only a row with a ``Fraction`` entry is scaled to clear
  denominators.  It is fraction-free elimination over the integers, always
  on a row's largest column, with every kept row primitive (its content
  divided out), so entries stay small and no dense matrix is formed.
  Vectors with distinct leading columns, such as the ``phi`` images of the
  tree basis, are already in echelon form and cause no fill-in.  Rows are
  read one at a time from any iterable until one row per column is kept,
  full rank, so a caller that generates its rows lazily never builds those
  past that point; a row is copied only when it has to be reduced.
  :func:`rank_of_lincombs`, :func:`span_contains`, :func:`matrix_rank` and
  :func:`has_full_rank` are entry points onto it, used for change-of-basis
  and generation checks; the last two take row lists.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction

Rational = Fraction


def sort_key(key):
    """Canonical total order on basis keys.

    Keys may implement ``sort_key()``; tuples are ordered componentwise;
    anything else must be natively orderable.
    """
    getter = getattr(key, "sort_key", None)
    if getter is not None:
        return getter()
    if isinstance(key, tuple):
        return tuple(sort_key(part) for part in key)
    return key


def _exact(c) -> int | Fraction:
    """``c`` as a coefficient: the ``int`` it equals if whole, else a ``Fraction``."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class LinComb:
    """Formal linear combination of basis keys with rational coefficients.

    A coefficient is stored as an ``int`` and promoted to ``Fraction`` only
    when it is not whole.  Zero coefficients are never stored, so two
    combinations are equal exactly when their term dictionaries are.
    Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = term_sum(({key: 1}, coeff) for key, coeff in items)

    @classmethod
    def of_terms(cls, terms: dict) -> "LinComb":
        """The combination whose term dict is ``terms``, taken without a copy.

        Trusted: every coefficient must be exact and nonzero, and nothing may
        change the dict afterwards.
        """
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    @classmethod
    def single(cls, key, coeff=1) -> "LinComb":
        return cls(((key, coeff),))

    def items(self):
        return self._terms.items()

    def items_sorted(self):
        return sorted(self._terms.items(), key=lambda kv: sort_key(kv[0]))

    def support(self):
        return set(self._terms)

    def __getitem__(self, key) -> int | Fraction:
        return self._terms.get(key, 0)

    def __contains__(self, key) -> bool:
        return key in self._terms

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return linear_sum(((self, 1), (other, 1)))

    def __neg__(self) -> "LinComb":
        return linear_sum(((self, -1),))

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return linear_sum(((self, 1), (other, -1)))

    def scale(self, c) -> "LinComb":
        return linear_sum(((self, c),))

    def __mul__(self, c) -> "LinComb":
        return self.scale(c)

    __rmul__ = __mul__

    def render(self, key_str: Callable = str) -> str:
        """Canonical text form: sorted terms, ``+q*[key]`` each."""
        if not self._terms:
            return "0"
        parts = []
        for key, coeff in self.items_sorted():
            sign = "+" if coeff > 0 else "-"
            parts.append(f"{sign}{abs(coeff)}*[{key_str(key)}]")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LinComb({dict(self.items_sorted())!r})"


def term_sum(pairs: Iterable[tuple]) -> dict:
    """The term dict of the sum of c*v over ``(v, c)`` pairs, built in one dict.

    Each v is a term dict or a :class:`LinComb`; none is changed.
    """
    data: dict = {}
    for v, c in pairs:
        if type(c) is not int:
            c = _exact(c)
        for key, cv in v.items():
            acc = data.get(key, 0) + c * cv
            if acc:
                if type(acc) is not int and acc.denominator == 1:
                    acc = acc.numerator
                data[key] = acc
            else:
                data.pop(key, None)
    return data


def linear_sum(pairs: Iterable[tuple]) -> LinComb:
    """The combination sum of c*v over ``(v, c)`` pairs (:func:`term_sum`)."""
    return LinComb.of_terms(term_sum(pairs))


def bilinear(a: LinComb, b: LinComb, product: Callable) -> LinComb:
    """Extend a product on basis keys, giving term dicts, bilinearly to linear
    combinations.  The library's own loops (``trees.evaluator``,
    ``trees.plan_holds``) extend their products in place; this is the plain
    reference that checks them."""
    return linear_sum(
        (product(x, y), cx * cy) for x, cx in a.items() for y, cy in b.items()
    )


def _integer_row(terms) -> dict[int, int]:
    # scale the (column, value) pairs by the lcm of their denominators;
    # the rank is unchanged and no zero value is kept
    scale = math.lcm(*(x.denominator for _, x in terms))
    return {c: x.numerator * (scale // x.denominator) for c, x in terms if x}


def _primitive(row: dict[int, int]) -> dict[int, int]:
    # the row divided by its content, the gcd of its entries
    content = math.gcd(*row.values())
    return row if content == 1 else {c: x // content for c, x in row.items()}


def _sparse_rank(rows: Iterable[dict[int, int]], cols: int) -> int:
    """Exact rank over the rationals of sparse integer rows ``{column: entry}``.

    The rows hold no zero entry, and elimination keeps it so: a reduction
    deletes each entry it cancels.

    Each row is reduced on its largest column against the echelon rows kept
    so far: with entry a there in the echelon row p and entry b in the row
    r, r becomes (a*r - b*p) / gcd(a, b).  A row is divided by its content
    whenever a step scaled it and when it is kept, so every echelon row is
    primitive and entries stay small.  The rows are read in turn, and no
    further row is read once ``cols`` rows are kept, the largest rank
    possible.  A row is never changed: it is copied when its largest column
    already holds a pivot, and may be kept as it is otherwise, so vectors
    with distinct leading columns (the ``phi`` basis) pass without a single
    copy or reduction.
    """
    echelon: dict[int, dict[int, int]] = {}
    rows = iter(rows)
    while len(echelon) < cols:
        row = source = next(rows, None)
        if row is None:
            break
        while row:
            col = max(row)
            pivot = echelon.get(col)
            if pivot is None:
                echelon[col] = _primitive(row)
                break
            a, b = pivot[col], row[col]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                row = {c: a * x for c, x in row.items()}
            elif row is source:
                row = dict(row)
            for c, x in pivot.items():
                value = row.get(c, 0) - b * x
                if value:
                    row[c] = value
                else:
                    del row[c]
            if a != 1 and row:
                row = _primitive(row)
    return len(echelon)


def matrix_rank(rows: Iterable[Iterable]) -> int:
    """Exact rank over the rationals of equally long rows of rationals."""
    data = [[_exact(x) for x in row] for row in rows]
    cols = len(data[0]) if data else 0
    if any(len(row) != cols for row in data):
        raise ValueError("ragged rows")
    return _sparse_rank([_integer_row(list(enumerate(row))) for row in data], cols)


def has_full_rank(rows: list[list]) -> bool:
    """True iff the rank of ``rows`` equals ``min(len(rows), len(rows[0]))``."""
    rank = matrix_rank(rows)
    return rank == min(len(rows), len(rows[0]) if rows else 0)


def _key_universe(vectors: Iterable) -> list:
    keys = set()
    for v in vectors:
        keys.update(v)
    return sorted(keys, key=sort_key)


def lincombs_to_matrix(vectors: list[LinComb], keys: list | None = None) -> list[list]:
    """The coefficient rows of ``vectors`` over ``keys`` (default: their support)."""
    if keys is None:
        keys = _key_universe(vectors)
    return [[v[k] for k in keys] for v in vectors]


def _rows(vectors: Iterable, index: dict) -> Iterable[dict[int, int]]:
    # each vector's integer row over the columns of index, built as it is read
    for v in vectors:
        row = {index[k]: c for k, c in v.items() if c and k in index}
        # a sum of ints is an int, and one Fraction makes it a Fraction
        if type(sum(row.values())) is not int:
            row = _integer_row(row.items())
        yield row


def rank_of_lincombs(vectors: Iterable, keys: list | None = None) -> int:
    """Exact rank of ``vectors`` restricted to ``keys`` (default: their support).

    Each vector is a :class:`LinComb` or a term dict; a term dict may hold
    zeros, which are dropped as its row is built.  ``vectors`` may be any
    iterable, a generator included.  With ``keys`` given, each vector's row
    is built from its terms alone as the rank reads it, and no vector is
    read once the rank equals ``len(keys)``; without them the vectors are
    listed first, to scan their support.  No dense matrix is formed.  An
    integer row is taken as it is; only a row with a ``Fraction`` entry is
    scaled to integers.
    """
    if keys is None:
        vectors = list(vectors)
        keys = _key_universe(vectors)
    index = {k: i for i, k in enumerate(keys)}
    return _sparse_rank(_rows(vectors, index), len(keys))


def span_contains(vectors: Iterable[LinComb], target: LinComb) -> bool:
    """Membership of ``target`` in the rational span of ``vectors``."""
    vectors = list(vectors)
    keys = _key_universe(vectors + [target])
    return rank_of_lincombs(vectors, keys) == rank_of_lincombs(vectors + [target], keys)
