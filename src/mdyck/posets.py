"""Dendriform posets: graded posets whose interval sums split associativity.

A dendriform poset is a graded family {P_n} of finite posets with four
graded products /, bot, top, \\ compatible with the orders, such that the
interval [x/y, x\\y] is the disjoint union of [x/y, x bot y] and
[x top y, x\\y], plus compatibility axioms.  The interval sums

    x succ y = sum over [x/y, x bot y],   x prec y = sum over [x top y, x\\y]

then make the span of the family a dendriform algebra, and the weakly
increasing m-chains (m-simplices) carry m+1 products obtained by letting a
suffix of the coordinates use the prec-type interval.

Four classical instances are provided: planar binary trees with the Tamari
order, permutations with the left weak order, surjections with the facial
order, and planar rooted trees with the order extending Tamari.  A small
declarative file format allows user-supplied families to be verified.
"""

from __future__ import annotations

import itertools
from functools import cache, partial

from .exactlin import LinComb
from .orders import FinitePoset, mask_indices
from .reporting import CheckReport
from .trees import MemoOracle, _triples, dyck_relations, plan_holds, relation_plan

SLASH = "/"
PERP = "bot"
TOP = "top"
BACKSLASH = "\\"
OPS = (SLASH, PERP, TOP, BACKSLASH)
# positions of the two bound indices and the three interval masks in
# PosetFamily.split()
_LO, _HI, _WHOLE, _SUCC, _PREC = 1, 2, 3, 4, 5


class PosetFamily:
    """Graded poset with four graded products; orders are materialized.

    A family supplies the elements of each degree, their degree, the
    relations x < y that generate the order, and the four products.  Each
    degree is materialized once as a :class:`FinitePoset` on the elements
    in the order ``_build_elements`` returns, which is the canonical order
    of the family, and one map gives the degree of every materialized
    element.
    """

    name = "family"

    def __init__(self):
        self._posets: dict[int, FinitePoset] = {}
        self._degrees: dict = {}  # element -> degree
        self._splits: dict = {}  # (x, y) -> split(x, y)

    # subclass hooks -------------------------------------------------------
    def _build_elements(self, n: int) -> list:
        """The elements of degree n in canonical order."""
        raise NotImplementedError

    def _above(self, x):
        """Elements y with x < y that generate the order by closure."""
        raise NotImplementedError

    def _product(self, op: str, x, y):
        raise NotImplementedError

    def degree(self, x) -> int:
        raise NotImplementedError

    # public API -----------------------------------------------------------
    def poset(self, n: int) -> FinitePoset:
        """The degree-n elements and their order, materialized once."""
        poset = self._posets.get(n)
        if poset is None:
            if n < 1:
                raise ValueError("need n >= 1")
            poset = self._posets[n] = FinitePoset(self._build_elements(n), self._above)
            self._degrees.update(dict.fromkeys(poset.elements, n))
        return poset

    def elements(self, n: int) -> list:
        return list(self.poset(n).elements)

    def _degree(self, x) -> int:
        n = self._degrees.get(x)
        if n is None:
            n = self.degree(x)
            if n < 1 or x not in self.poset(n).index:
                raise ValueError(f"{x!r} is not a {self.name} element of degree {n}")
        return n

    def leq(self, x, y) -> bool:
        n = self._degree(x)
        if self._degree(y) != n:
            raise ValueError("comparing elements of different degrees")
        return self._posets[n].leq(x, y)

    def prod(self, op: str, x, y):
        if op not in OPS:
            raise ValueError(f"unknown product {op!r}")
        n = self._degree(x) + self._degree(y)
        result = self._product(op, x, y)
        if result not in self.poset(n).index:
            raise ValueError(f"product {op} is not degree-additive")
        return result

    def split(self, x, y) -> tuple[int, int, int, int, int, int]:
        """The interval [x/y, x\\y] and its two parts, as index bitmasks.

        Returns ``(degree, lo, hi, whole, succ, prec)``: the degree of the
        products, the indices of x/y and x\\y in its poset, and the masks of
        [x/y, x\\y], of its succ part [x/y, x bot y] and of its prec part
        [x top y, x\\y].  A mask is empty when its bounds are not ordered.
        The interval sums themselves are the m = 1 simplex products of
        :func:`ordm_product`.  Each pair is computed once, through
        :meth:`prod`, and kept for the life of the family.
        """
        split = self._splits.get((x, y))
        if split is None:
            lo, perp, top, hi = (self.prod(op, x, y) for op in OPS)
            n = self._degree(x) + self._degree(y)
            index, mask = self._posets[n].index, self._posets[n].interval_mask
            split = (n, index[lo], index[hi], mask(lo, hi), mask(lo, perp), mask(top, hi))
            self._splits[x, y] = split
        return split


# ---------------------------------------------------------------------------
# Planar rooted trees as nested tuples; () is the leaf.


def pt_size(t) -> int:
    # a vertex with p children adds p - 1 to the degree
    return sum(pt_size(c) for c in t) + len(t) - 1 if t else 0


def pt_encode(t) -> str:
    if t == ():
        return "|"
    return "(" + " ".join(pt_encode(c) for c in t) + ")"


def pt_parse(text: str):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    result, pos = _pt_subtree(tokens, 0)
    if pos != len(tokens):
        raise ValueError("trailing tokens")
    return result


def _pt_subtree(tokens: list[str], pos: int):
    # the planar tree whose literal starts at tokens[pos], and the position after it
    if pos >= len(tokens):
        raise ValueError("unexpected end of tree literal")
    tok = tokens[pos]
    pos += 1
    if tok == "|":
        return (), pos
    if tok != "(":
        raise ValueError(f"unexpected token {tok!r}")
    children = []
    while pos < len(tokens) and tokens[pos] != ")":
        child, pos = _pt_subtree(tokens, pos)
        children.append(child)
    if pos == len(tokens):
        raise ValueError("expected ')'")
    if len(children) < 2:
        raise ValueError("internal vertices need at least two children")
    return tuple(children), pos + 1


def graft_leftmost(t, w):
    """t/w: replace the leftmost leaf of w by t."""
    if w == ():
        return t
    return (graft_leftmost(t, w[0]),) + w[1:]


def graft_rightmost(t, w):
    """t\\w: replace the rightmost leaf of t by w."""
    if t == ():
        return w
    return t[:-1] + (graft_rightmost(t[-1], w),)


@cache
def _binary_trees(leaves: int) -> tuple:
    if leaves == 1:
        return ((),)
    out = []
    for left_leaves in range(1, leaves):
        for left in _binary_trees(left_leaves):
            for right in _binary_trees(leaves - left_leaves):
                out.append((left, right))
    return tuple(out)


@cache
def _planar_trees(leaves: int) -> tuple:
    # all planar rooted trees, every internal vertex of arity >= 2
    if leaves == 1:
        return ((),)
    # rows[r]: the child sequences on r leaves, in lexicographic order of
    # (leaves, tree) per child, built level by level from r = 0; a child never
    # absorbs every leaf, so the arity is at least two
    rows = [((),)]
    for r in range(1, leaves + 1):
        rows.append(
            tuple(
                (child,) + rest
                for take in range(1, min(r, leaves - 1) + 1)
                for child in _planar_trees(take)
                for rest in rows[r - take]
            )
        )
    return rows[leaves]


def _binary_rotations(t):
    # right rotation ((a,b),c) -> (a,(b,c)) applied at any vertex
    if t == ():
        return
    left, right = t
    if left != ():
        yield (left[0], (left[1], right))
    for l2 in _binary_rotations(left):
        yield (l2, right)
    for r2 in _binary_rotations(right):
        yield (left, r2)


class PlanarTreeFamily(PosetFamily):
    """All planar rooted trees with the order extending the Tamari order.

    The order is generated, inside arbitrary subtree contexts, by
      (a) flattening the first child (when internal) goes up, and
      (b) grouping a proper suffix of at least two children goes up,
    then closed under transitivity.  Restricted to binary trees this is the
    Tamari order; on three leaves it places the corolla strictly between
    the two binary trees.  (Other pairings of the two generating moves
    either create cycles or break the interval-splitting axiom.)
    """

    name = "planar"

    def degree(self, x) -> int:
        return pt_size(x)

    def _build_elements(self, n: int) -> list:
        return sorted(t for t in _planar_trees(n + 1) if t != ())

    def _above(self, x):
        return _planar_upsteps(x)

    def _product(self, op, x, y):
        if op == SLASH:
            return graft_leftmost(x, y)
        if op == BACKSLASH:
            return graft_rightmost(x, y)
        if op == PERP:
            return (graft_rightmost(x, y[0]),) + y[1:]
        return x[:-1] + (graft_leftmost(x[-1], y[0]),) + y[1:]


class TamariBinaryFamily(PlanarTreeFamily):
    """Planar binary trees with the rotation-generated Tamari order; the planar
    /, \\ and bot keep them binary, but the planar top merges two roots."""

    name = "binary"

    def _build_elements(self, n: int) -> list:
        return sorted(_binary_trees(n + 1))

    def _above(self, x):
        return _binary_rotations(x)

    def _product(self, op, x, y):
        if op == TOP:
            return (x[0], graft_leftmost(x[1], y))
        return super()._product(op, x, y)


def _planar_upsteps(t):
    if t == ():
        return
    if t[0] != ():  # flatten the first child
        yield t[0] + t[1:]
    p = len(t)
    if p >= 3:  # group a proper suffix of length >= 2
        for i in range(1, p - 1):
            yield t[:i] + (t[i:],)
    for i in range(p):  # same moves inside any child
        for c2 in _planar_upsteps(t[i]):
            yield t[:i] + (c2,) + t[i + 1 :]


def tree_restriction(t, l: int):
    """Slice a planar tree along the path from boundary l to the root.

    Returns the pair of trees left and right of the slicing line; the
    boundary index runs from 0 (everything right) to pt_size(t)
    (everything left).  A grouping node that would be left with a single
    child collapses.
    """
    n = pt_size(t)
    if not 0 <= l <= n:
        raise ValueError(f"restriction index {l} out of range [0, {n}]")
    if l == 0:
        return ((), t)
    if l == n:
        return (t, ())
    cum = 0
    for k, child in enumerate(t, start=1):
        nk = pt_size(child)
        if cum + k <= l + 1 < cum + nk + k + 1:
            a, b = tree_restriction(child, l - (cum + k - 1))
            return (_vee(t[: k - 1] + (a,)), _vee((b,) + t[k:]))
        cum += nk
    raise AssertionError("no slicing child found")


def _vee(children: tuple):
    return children[0] if len(children) == 1 else children


# ---------------------------------------------------------------------------
# Surjections and permutations


def is_surjection(word: tuple[int, ...]) -> bool:
    return bool(word) and set(word) == set(range(1, max(word) + 1))


def facial_covers(f: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Covers of the facial order: value merges and fiber splits."""
    out = []
    r = max(f)
    fibers = {i: [pos for pos, v in enumerate(f) if v == i] for i in range(1, r + 1)}
    for i in range(1, r):
        if max(fibers[i]) < min(fibers[i + 1]):  # merge the values i and i+1
            out.append(tuple(v if v <= i else v - 1 for v in f))
    for i in range(1, r + 1):
        fiber = fibers[i]
        s = len(fiber)
        for k in range(1, s):
            raised = set(fiber[:k])
            g = []
            for pos, v in enumerate(f):
                if v < i:
                    g.append(v)
                elif v > i:
                    g.append(v + 1)
                elif pos in raised:
                    g.append(i + 1)
                else:
                    g.append(i)
            out.append(tuple(g))
    return sorted(set(out))


def surj_products(f: tuple[int, ...], g: tuple[int, ...], op: str):
    """The four graded products on surjections.

    The middle product ``top`` merges the two maximal values to the common
    top s+h-1.
    """
    s, h = max(f), max(g)
    if op == SLASH:
        word = f + tuple(v + s for v in g)
    elif op == BACKSLASH:
        word = tuple(v + h for v in f) + g
    elif op == PERP:
        word = tuple(v + h - 1 for v in f) + tuple(
            v if v < h else s + h for v in g
        )
    elif op == TOP:
        word = tuple(v if v < s else s + h - 1 for v in f) + tuple(
            v + s - 1 if v < h else s + h - 1 for v in g
        )
    else:
        raise ValueError(f"unknown product {op!r}")
    if not is_surjection(word):
        raise ValueError(f"product {op} produced a non-surjection {word}")
    return word


class SurjectionFamily(PosetFamily):
    """All surjective words with the facial order."""

    name = "surjections"

    def degree(self, x) -> int:
        return len(x)

    def _build_elements(self, n: int) -> list:
        out = []
        for word in itertools.product(range(1, n + 1), repeat=n):
            if is_surjection(word):
                out.append(word)
        return out

    def _above(self, x):
        return facial_covers(x)

    def _product(self, op, x, y):
        return surj_products(x, y, op)


class PermutationFamily(PosetFamily):
    """Permutations with the left weak order (inversion-set containment)."""

    name = "permutations"

    def degree(self, x) -> int:
        return len(x)

    def _build_elements(self, n: int) -> list:
        return [tuple(p) for p in itertools.permutations(range(1, n + 1))]

    def _above(self, x):
        # covers: swap the values v and v+1 when v comes first
        pos = {v: i for i, v in enumerate(x)}
        for v in range(1, len(x)):
            i, j = pos[v], pos[v + 1]
            if i < j:
                y = list(x)
                y[i], y[j] = v + 1, v
                yield tuple(y)

    def _product(self, op, x, y):
        # top keeps both maxima apart; the other three are surjection products
        if op != TOP:
            return surj_products(x, y, op)
        n, r = len(x), len(y)
        return tuple(v if v < n else n + r for v in x) + tuple(v + n - 1 for v in y)


def facial_restriction_agrees(n: int) -> bool:
    """Left weak order == facial order restricted to permutations, degree n."""
    surj = SurjectionFamily()
    perms = PermutationFamily()
    sigma = [p for p in surj.elements(n) if max(p) == n]
    for p in sigma:
        for q in sigma:
            if surj.leq(p, q) != perms.leq(p, q):
                return False
    return True


# ---------------------------------------------------------------------------
# Axiom verification


# the dendriform axioms are the m = 1 Dyck relations with (succ, prec) as
# (*_0, *_1): a1 is mixed associativity at i = 0, a2 the interchange (0, 1)
# and a3 mixed associativity at i = 1
DENDRIFORM_AXIOMS = dyck_relations(1)


def verify_dendriform_poset(family: PosetFamily, max_degree: int) -> CheckReport:
    """The five dendriform-poset conditions, exhaustively within a degree bound.

    Condition (3) is checked as the three dendriform axioms for the
    interval sums x succ y and x prec y, which are the products *_0 and *_1
    of the 1-simplices (x,) and (y,) (:func:`ordm_product`).  Its matched
    cardinalities of the re-association sets need no check of their own:
    every interval-sum coefficient is 1, and once condition (2) holds up to
    ``max_degree`` every interval is the disjoint union of its succ and prec
    parts, so each cardinality row is the coefficient sum of both sides of
    an axiom (the succ row of mixed associativity at i = 0, the prec row of
    mixed associativity at i = 1, the full row of the sum of all three
    axioms), and a triple that fails a row fails an axiom.  Condition (5) is
    taken in the strong two-pair form used by the simplex construction: no
    element of a prec-type interval is below an element of a succ-type
    interval of the same bidegree.

    Conditions (1), (4) and (5) run per bidegree and count the checks of a
    scan in element order without walking it: (1) on generating steps, (4)
    on index masks per element.  A bidegree that fails (1) or (4) runs the
    scan, which gives the first failure and the checks before it.
    """
    if max_degree < 2:
        raise ValueError("need max_degree >= 2")
    report = CheckReport(name=f"dendriform poset {family.name} degree<={max_degree}")
    # the bidegrees (n, r) with n + r <= max_degree, by total degree
    degree_pairs = sorted(
        ((n, r) for n in range(1, max_degree) for r in range(1, max_degree - n + 1)),
        key=sum,
    )

    # (1) order compatibility: the outer products are poset morphisms and
    # the four interval bounds are consistently ordered for every pair.
    # (The middle products are not monotone maps even on the classical
    # instances, so no stronger monotonicity can be required of them.)
    for n, r in degree_pairs:
        if not _outer_products_monotone(family, n, r, report):
            return report

    # (2) interval splitting
    split = family.split
    for n, r in degree_pairs:
        for x in family.elements(n):
            for y in family.elements(r):
                report.checks += 1
                whole, lower, upper = split(x, y)[_WHOLE:]
                if lower & upper or lower | upper != whole:
                    report.fail(
                        f"condition 2 at degrees ({n},{r}): interval of "
                        f"{x!r}, {y!r} does not split"
                    )
                    return report

    # (3) the dendriform axioms for the interval sums
    oracle = OrdmOracle(family, 1)
    plans = [relation_plan(lhs, rhs) for _, lhs, rhs in DENDRIFORM_AXIOMS]
    for (x,), (y,), (z,), xy in _triples(max_degree, oracle.basis):
        report.checks += 1
        yz: dict = {}
        if not all(plan_holds(plan, oracle.product, (x,), (y,), (z,), yz, xy) for plan in plans):
            report.fail(f"condition 3 dendriform axioms fail at {x!r}, {y!r}, {z!r}")
            return report

    # (4) decompositions are monotone
    for n, r in degree_pairs:
        if not _decompositions_monotone(family, n, r, report):
            return report

    # (5) prec-type intervals never sit below succ-type intervals
    for n, r in degree_pairs:
        if not _prec_never_below_succ(family, n, r, report):
            return report
    return report


def _outer_products_monotone(family: PosetFamily, n: int, r: int, report: CheckReport) -> bool:
    """Condition (1) at bidegree (n, r): / and \\ are monotone, and the four
    bounds of every pair are ordered.

    An outer product is monotone on every pair of comparable pairs iff it is
    monotone along each generating step x -> x' of ``X.above`` with y fixed
    and each step y -> y' of ``Y.above`` with x fixed; transitivity gives the
    rest.  A passing product counts the checks of the ordered scan over all
    pairs of comparable pairs; a failing one (or a product that raises) runs
    that scan, which reports the first failure and the checks before it.
    """
    X, Y, U = family.poset(n), family.poset(r), family.poset(n + r)
    split = family.split
    comparable = sum(map(int.bit_count, X.up)) * sum(map(int.bit_count, Y.up))
    try:
        splits = [[split(x, y) for y in Y.elements] for x in X.elements]
    except ValueError:  # the ordered scan raises it, or fails before it would
        splits = []
    for op, bound in ((SLASH, _LO), (BACKSLASH, _HI)):
        rows = [[pair[bound] for pair in row] for row in splits]
        if rows and _monotone_on_steps(rows, X.above, Y.above, U.up):
            report.checks += comparable
            continue
        x_pairs = [(x, x2) for i, x in enumerate(X.elements) for x2 in X.members(X.up[i])]
        y_pairs = [(y, y2) for i, y in enumerate(Y.elements) for y2 in Y.members(Y.up[i])]
        for x, x2 in x_pairs:
            for y, y2 in y_pairs:
                report.checks += 1
                if not U.up[split(x, y)[bound]] >> split(x2, y2)[bound] & 1:
                    report.fail(
                        f"condition 1 at degrees ({n},{r}): {op} not monotone "
                        f"on {x!r}<={x2!r}, {y!r}<={y2!r}"
                    )
                    return False
    for x in X.elements:
        for y in Y.elements:
            report.checks += 1
            # a mask is empty exactly when its bounds are not ordered
            if not all(split(x, y)[_WHOLE:]):
                report.fail(
                    f"condition 1 at degrees ({n},{r}): bounds of "
                    f"{x!r}, {y!r} are not ordered"
                )
                return False
    return True


def _monotone_on_steps(rows, x_steps, y_steps, up) -> bool:
    """Whether the index ``rows[i][j]`` rises in the order ``up`` along each
    step i -> k of ``x_steps[i]`` and each step j -> k of ``y_steps[j]``."""
    return all(
        up[b] >> rows[k][j] & 1 for row, steps in zip(rows, x_steps) for k in steps for j, b in enumerate(row)
    ) and all(up[row[j]] >> row[k] & 1 for row in rows for j, steps in enumerate(y_steps) for k in steps)


def _decompositions_monotone(family: PosetFamily, n: int, r: int, report: CheckReport) -> bool:
    """Condition (4) at bidegree (n, r): if u <= v, (x1, y1) <= (x2, y2) for
    every pair (x1, y1) whose interval [x1/y1, x1\\y1] holds u and every
    (x2, y2) whose interval holds v.

    With P_u the pairs whose interval holds u, the quadruples of u <= v are
    the full product P_u x P_v, so they all pass iff the X-indices of every
    P_v, v >= u, lie in the up-set of each X-index of P_u, and the same for Y.
    Masks of the indices of P_v are ORed up the generating steps, so that u
    holds those of every v >= u.  A passing bidegree counts the checks of
    the ordered scan, sum over u of |P_u| times the sum of |P_v| over v >= u;
    a failing one runs that scan, which reports the first failing quadruple
    and the checks before it.
    """
    X, Y, U = family.poset(n), family.poset(r), family.poset(n + r)
    size = len(U.elements)
    count, xs, ys = [0] * size, [0] * size, [0] * size
    x_meet, y_meet = [-1] * size, [-1] * size
    for i, x in enumerate(X.elements):
        x_bit, x_up = 1 << i, X.up[i]
        for j, y in enumerate(Y.elements):
            y_bit, y_up = 1 << j, Y.up[j]
            for u in mask_indices(family.split(x, y)[_WHOLE]):
                count[u] += 1
                xs[u] |= x_bit
                ys[u] |= y_bit
                x_meet[u] &= x_up
                y_meet[u] &= y_up
    # a v above u has the smaller up-set, so it is complete before u is visited
    for u in sorted(range(size), key=lambda u: U.up[u].bit_count()):
        for v in U.above[u]:
            xs[u] |= xs[v]
            ys[u] |= ys[v]
    if all(xs[u] & ~x_meet[u] | ys[u] & ~y_meet[u] == 0 for u in range(size) if count[u]):
        report.checks += sum(c * s for c, s in zip(count, U.up_sums(count)))
        return True
    members: dict = {}
    for x in X.elements:
        for y in Y.elements:
            for u in U.members(family.split(x, y)[_WHOLE]):
                members.setdefault(u, []).append((x, y))
    for i, u in enumerate(U.elements):
        for v in U.members(U.up[i]):
            for x1, y1 in members.get(u, ()):
                for x2, y2 in members.get(v, ()):
                    report.checks += 1
                    if not (X.leq(x1, x2) and Y.leq(y1, y2)):
                        report.fail(
                            f"condition 4 at degrees ({n},{r}): {u!r}<={v!r} "
                            f"but ({x1!r},{y1!r}) !<= ({x2!r},{y2!r})"
                        )
                        return False
    return True


def _prec_never_below_succ(family: PosetFamily, n: int, r: int, report: CheckReport) -> bool:
    """Condition (5) at bidegree (n, r), one down-set row per succ-type element u.

    Counts one check per (u, v) pair that a scan of both sides in element
    order would test: every prec-type v for a passing u, and the prec-type v
    up to the first one below u for a failing u, which is the one reported.
    """
    U, split = family.poset(n + r), family.split
    succ_side = prec_side = 0
    for x in family.elements(n):
        for y in family.elements(r):
            succ_side |= split(x, y)[_SUCC]
            prec_side |= split(x, y)[_PREC]
    for k in mask_indices(succ_side):
        below = U.down[k] & prec_side
        if not below:
            report.checks += prec_side.bit_count()
            continue
        first = below & -below
        report.checks += (prec_side & (first << 1) - 1).bit_count()
        v, u = U.elements[first.bit_length() - 1], U.elements[k]
        report.fail(f"condition 5 at degrees ({n},{r}): {v!r} <= {u!r}")
        return False
    return True


# ---------------------------------------------------------------------------
# m-simplices and their products


def ordm_simplices(family: PosetFamily, n: int, m: int) -> list[tuple]:
    """All weakly increasing m-chains in the degree-n poset."""
    if m < 1:
        raise ValueError("m must be >= 1")
    poset = family.poset(n)
    return poset.chains([(1 << len(poset.elements)) - 1] * m)


def count_simplices(family: PosetFamily, n: int, m: int) -> int:
    """``len(ordm_simplices(family, n, m))``, counted without listing a chain.

    With f_1(x) = 1 and f_{k+1}(x) the sum of f_k(y) over the up-set of x,
    the count is the sum of f_m(x) over the degree-n elements x; each step
    is one :meth:`~mdyck.orders.FinitePoset.up_sums` (f_2(x) is the size of
    the up-set), so no chain and no up-set is walked.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    poset = family.poset(n)
    f = [1] * len(poset.elements)
    for _ in range(m - 1):
        f = poset.up_sums(f)
    return sum(f)


def _ordm_terms(family: PosetFamily, xbar: tuple, ybar: tuple, i: int) -> dict:
    """The term dict of the i-th simplex product: the last i coordinates use
    the prec interval.

    Terms are the weakly increasing chains (u_1, ..., u_m) with u_j in the
    succ-type interval [x_j/y_j, x_j bot y_j] for j <= m-i and in the
    prec-type interval [x_j top y_j, x_j \\ y_j] for j > m-i.
    """
    m = len(xbar)
    if m < 1 or len(ybar) != m:
        raise ValueError("need two chains of the same length m >= 1")
    if not 0 <= i <= m:
        raise ValueError("product index out of range")
    splits = [family.split(x, y) for x, y in zip(xbar, ybar)]
    n = splits[0][0]
    if any(split[0] != n for split in splits):
        raise ValueError("comparing elements of different degrees")
    masks = [split[_SUCC if j < m - i else _PREC] for j, split in enumerate(splits)]
    # the chains are distinct, so they go straight into the term dict
    return dict.fromkeys(family.poset(n).chains(masks), 1)


def ordm_product(family: PosetFamily, xbar: tuple, ybar: tuple, i: int) -> LinComb:
    """The i-th simplex product in the chain basis (the terms of :func:`_ordm_terms`)."""
    return LinComb.of_terms(_ordm_terms(family, xbar, ybar, i))


class OrdmOracle(MemoOracle):
    """The m-simplices of a family as the :class:`~mdyck.trees.MemoOracle` of
    :func:`_ordm_terms`."""

    def __init__(self, family: PosetFamily, m: int):
        super().__init__(m, partial(ordm_simplices, family, m=m), partial(_ordm_terms, family))


# ---------------------------------------------------------------------------
# Declarative poset-family files


class DeclaredFamily(PosetFamily):
    """Family read from the text format: degree blocks, covers, product table."""

    name = "declared"

    def __init__(self, degrees, degree_of, covered_by, products):
        super().__init__()
        self._declared = degrees  # degree -> tokens in declaration order
        self._degree_of = degree_of
        self._covered_by = covered_by
        self._products = products

    def declared_degrees(self) -> list[int]:
        return sorted(self._declared)

    def degree(self, x) -> int:
        if x not in self._degree_of:
            raise ValueError(f"{x!r} is not a {self.name} element")
        return self._degree_of[x]

    def _build_elements(self, n: int) -> list:
        if n not in self._declared:
            raise ValueError(f"degree {n} not declared")
        return list(self._declared[n])

    def _above(self, x):
        return self._covered_by.get(x, ())

    def _product(self, op, x, y):
        try:
            return self._products[(op, x, y)]
        except KeyError:
            raise ValueError(f"product {op} {x} {y} not declared") from None


# number of words on each kind of line of the declarative format
_POSET_LINE_WORDS = {"degree": 2, "elem": 2, "cover": 3, "prod": 6}


def parse_poset_file(text: str) -> DeclaredFamily:
    """Parse the declarative format.

    Lines: ``degree N``, ``elem TOKEN``, ``cover A B`` (A covered by B,
    same degree), ``prod OP A B -> C`` with OP one of ``/ bot top \\``;
    blank lines and ``#`` comments are skipped.  Tokens must be globally
    unique.
    """
    degrees: dict[int, list] = {}
    covered_by: dict = {}
    products: dict = {}
    degree_of: dict = {}
    current: int | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != _POSET_LINE_WORDS.get(parts[0], len(parts)):
            raise ValueError(f"malformed {parts[0]} line: {raw!r}")
        if parts[0] == "degree":
            try:
                current = int(parts[1])
            except ValueError:
                raise ValueError(f"malformed degree line: {raw!r}") from None
            if current < 1:
                raise ValueError(f"degree {current} is below 1")
            degrees.setdefault(current, [])
        elif parts[0] == "elem":
            if current is None:
                raise ValueError("elem before degree")
            token = parts[1]
            if token in degree_of:
                raise ValueError(f"duplicate token {token!r}")
            degree_of[token] = current
            degrees[current].append(token)
        elif parts[0] == "cover":
            a, b = parts[1], parts[2]
            if degree_of.get(a) != degree_of.get(b) or a not in degree_of:
                raise ValueError(f"cover {a} {b}: unknown tokens or mixed degrees")
            covered_by.setdefault(a, []).append(b)
        elif parts[0] == "prod":
            if parts[4] != "->":
                raise ValueError(f"malformed product line: {raw!r}")
            op, a, b, c = parts[1], parts[2], parts[3], parts[5]
            if op not in OPS:
                raise ValueError(f"unknown product symbol {op!r}")
            for token in (a, b, c):
                if token not in degree_of:
                    raise ValueError(f"unknown token {token!r}")
            if degree_of[c] != degree_of[a] + degree_of[b]:
                raise ValueError(f"product {raw!r} is not degree-additive")
            if (op, a, b) in products:
                raise ValueError(f"product {op} {a} {b} declared twice")
            products[(op, a, b)] = c
        else:
            raise ValueError(f"unrecognized line: {raw!r}")
    return DeclaredFamily(degrees, degree_of, covered_by, products)
