"""Colored planar binary trees and the free algebra they carry.

A tree of degree n has n leaves and n-1 internal vertices, each colored by
an integer in {0, ..., m}.  Grafting two trees under a new root of color i
is written t v_i w.  The trees whose every internal vertex has a left child
that is either a leaf or carries a strictly larger color form the graded
basis B(m); on its span the m+1 binary products *_0, ..., *_m are defined
by a structural recursion and satisfy

    x *_i (y *_j z) = (x *_i y) *_j z                 for i < j,
    sum_{j<=i} x *_i (y *_j z) = sum_{k>=i} (x *_k y) *_i z,

the defining relations of an order-m Dyck algebra (m = 0 is associativity,
m = 1 the dendriform splitting).  B(m) is the case k = m of the alternative
bases B(m, k), which one vertex rule (:func:`_fits`) defines and one cached
recursion enumerates in canonical order, that of
:meth:`ColoredTree.sort_key`: the trees of one degree by root color, then by
left subtree, then by right subtree, each subtree compared by prefix word.

This module also hosts the one relation checker used for every product
oracle.  Relations are data: :func:`dyck_relations` holds the two families
above, :func:`circ_relations` the difference, bottom and diagonal relations
of the partial sums o_i = *_0 + ... + *_i, and the dendriform axioms and the
CLI's negative controls are tables of the same form.  Each is compiled once
into lhs - rhs grouped by its outer product (:func:`relation_plan`), and
:func:`plan_holds` tests on one basis triple whether that sum vanishes: it
builds no inner sum, but adds the outer product of each single inner product
straight into one plain dict.  Every product oracle (:class:`TreeOracle`,
the :class:`MemoOracle`s ``PathOracle`` and ``OrdmOracle``,
``SlotTransformedOracle``) answers
``product(x, y, i)`` with a plain term dict ``{key: int}`` that its memo may
share, so a caller must not change it; a ``LinComb`` is built only for a
result that a user sees (:func:`tree_product`, the results of an
:func:`evaluator`, whose images are term dicts).
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable, Iterable

from .exactlin import LinComb, term_sum
from .reporting import CheckReport, _immutable

LEFT = "L"
RIGHT = "R"


# (color, left, right) -> the one tree with that structure; never cleared,
# since a rebuilt twin of a live tree must be the same object, but swept by
# mdyck.clear_caches() of the trees that nothing else references
_TREES: dict[tuple, "ColoredTree"] = {}


class ColoredTree:
    """Immutable planar binary rooted tree; internal vertices carry colors.

    Trees are interned: each structure exists as exactly one object, so
    equality and hashing are the default identity ones.
    """

    __slots__ = ("color", "left", "right", "degree")

    def __new__(cls, color=None, left=None, right=None):
        key = (color, left, right)
        tree = _TREES.get(key)
        if tree is not None:
            return tree
        if color is not None and color < 0:
            raise ValueError("negative color")
        tree = object.__new__(cls)
        init = object.__setattr__
        init(tree, "color", color)
        init(tree, "left", left)
        init(tree, "right", right)
        init(tree, "degree", 1 if color is None else left.degree + right.degree)
        # setdefault is atomic under the GIL: concurrent builders get one object
        return _TREES.setdefault(key, tree)

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        if self.color is None:
            return (ColoredTree, ())
        return (ColoredTree, (self.color, self.left, self.right))

    @property
    def is_leaf(self) -> bool:
        return self.color is None

    def sort_key(self):
        """(degree, prefix word): a leaf reads 0, a vertex of color c reads 1 + c."""
        word = []
        stack = [self]
        while stack:
            t = stack.pop()
            if t.color is None:
                word.append(0)
            else:
                word.append(1 + t.color)
                stack += (t.right, t.left)
        return (self.degree, tuple(word))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def subtrees(self):
        """All internal-vertex subtrees, prefix order."""
        if self.is_leaf:
            return
        stack = [self]
        while stack:
            t = stack.pop()
            if t.is_leaf:
                continue
            yield t
            stack.append(t.right)
            stack.append(t.left)

    def max_color(self) -> int:
        return max((v.color for v in self.subtrees()), default=-1)

    def encode(self) -> str:
        if self.is_leaf:
            return "|"
        return f"({self.color} {self.left.encode()} {self.right.encode()})"

    def __repr__(self):
        return self.encode()


LEAF = ColoredTree()


def graft(t: ColoredTree, w: ColoredTree, i: int, m: int | None = None) -> ColoredTree:
    """The grafting t v_i w: new root of color i, t left, w right."""
    if i < 0 or (m is not None and i > m):
        raise ValueError(f"color {i} out of range [0, {m}]")
    return ColoredTree(i, t, w)


def parse_tree(text: str) -> ColoredTree:
    """Parse the canonical encoding: leaf `|`, node `(c L R)`."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    result, pos = _parse_subtree(tokens, 0, text)
    if pos != len(tokens):
        raise ValueError("trailing tokens in tree literal")
    return result


def _token(tokens: list[str], pos: int) -> str:
    if pos >= len(tokens):
        raise ValueError("unexpected end of tree literal")
    return tokens[pos]


def _parse_subtree(tokens: list[str], pos: int, text: str) -> tuple[ColoredTree, int]:
    # the tree whose literal starts at tokens[pos], and the position after it
    tok = _token(tokens, pos)
    if tok == "|":
        return LEAF, pos + 1
    if tok != "(":
        raise ValueError(f"unexpected token {tok!r}")
    tok = _token(tokens, pos + 1)
    try:
        color = int(tok)
    except ValueError:
        raise ValueError(f"color {tok!r} is not an integer in tree literal {text!r}") from None
    left, pos = _parse_subtree(tokens, pos + 2, text)
    right, pos = _parse_subtree(tokens, pos, text)
    if _token(tokens, pos) != ")":
        raise ValueError("expected ')'")
    return ColoredTree(color, left, right), pos + 1


def spine_cut(t: ColoredTree, side: str, stop: Callable[[int], bool]) -> tuple:
    """``(rest, v)``: v is the first vertex on t's left or right spine, from
    the root down, whose color passes ``stop``, or the leaf that ends the
    spine if none does; rest is t with v replaced by a leaf, so that
    ``spine_graft(rest, side, v) == t``."""
    path, v = _spine(t, side, stop)
    return _hang(path, side, LEAF), v


def spine_graft(t: ColoredTree, side: str, w: ColoredTree) -> ColoredTree:
    """t with the leaf that ends its left or right spine replaced by w."""
    return _hang(_spine(t, side, None)[0], side, w)


def _spine(t: ColoredTree, side: str, stop: Callable[[int], bool] | None) -> tuple:
    # the vertices on t's spine above the first that passes stop, and that vertex
    if side not in (LEFT, RIGHT):
        raise ValueError("side must be LEFT or RIGHT")
    path = []
    while t.color is not None and not (stop and stop(t.color)):
        path.append(t)
        t = t.left if side == LEFT else t.right
    return path, t


def _hang(path: list, side: str, w: ColoredTree) -> ColoredTree:
    # rebuild the spine path from the bottom up with w in place of what hung below it
    for v in reversed(path):
        w = ColoredTree(v.color, w, v.right) if side == LEFT else ColoredTree(v.color, v.left, w)
    return w


def _fits(c: int, left: ColoredTree, right: ColoredTree, m: int, k: int) -> bool:
    """The vertex rule of B(m, k): may a vertex of color c sit over left and right?

    If c != k, left must be a leaf or carry k or a color above c, and any
    right child fits.  If c = k, every color on left's left spine must be
    above k and every color on right's right spine at most k.  A spine walk
    stops at a color above m, which its own vertex refuses, so B(m) = B(m, m)
    reads "left is a leaf or carries a color above c" on any tree.  The rule
    is a left half times a right half, which :func:`_ordered` tests apart.
    """
    return _left_fits(c, left, m, k) and (c != k or _right_fits(right, m, k))


def _left_fits(c: int, left: ColoredTree, m: int, k: int) -> bool:
    # the half of _fits that reads the left child
    if c != k:
        return left.color is None or left.color == k or left.color > c
    while left.color is not None and k < left.color <= m:
        left = left.left
    return left.color is None or left.color > m


def _right_fits(right: ColoredTree, m: int, k: int) -> bool:
    # the half of _fits that reads the right child under a vertex of color k
    while right.color is not None and right.color <= k:
        right = right.right
    return right.color is None or right.color > m


def is_basis_Bm(t: ColoredTree, m: int) -> bool:
    """Basis test: every left child is a leaf or carries a larger color."""
    return is_basis_Bmk(t, m, m)


def is_basis_Bmk(t: ColoredTree, m: int, k: int) -> bool:
    """Membership in the k-th alternative basis B(m, k): every vertex meets
    the rule of :func:`_fits`."""
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    for v in t.subtrees():
        if v.color > m:
            raise ValueError(f"color {v.color} exceeds m={m}")
        if not _fits(v.color, v.left, v.right, m, k):
            return False
    return True


def enumerate_Bm(m: int, n: int) -> list[ColoredTree]:
    """All basis trees of degree n in canonical order (by root color, left
    subtree, right subtree; :meth:`ColoredTree.sort_key`); |result| = d(m, n)."""
    if m < 1:
        raise ValueError("need m >= 1")
    return enumerate_Bmk(m, m, n)


def enumerate_Bmk(m: int, k: int, n: int) -> list[ColoredTree]:
    """All trees of B(m, k) of degree n in canonical order (by root color,
    left subtree, right subtree; :meth:`ColoredTree.sort_key`)."""
    if not 0 <= k <= m or n < 1:
        raise ValueError("need n >= 1" if n < 1 else "need 0 <= k <= m")
    return list(_basis(m, k, n))


@cache
def _basis(m: int, k: int, n: int) -> tuple[ColoredTree, ...]:
    # the degree-n trees keep the canonical order of _ordered
    return tuple(t for t in _ordered(m, k, n) if t.degree == n)


@cache
def _ordered(m: int, k: int, top: int) -> tuple[ColoredTree, ...]:
    # every tree of B(m, k) of degree <= top by prefix word: the leaf, then
    # vertices by color, left subtree and right subtree, both from this same
    # list, as B(m, k) is closed under subtrees.  Prefix words of complete
    # binary trees are prefix-free, so word(left) + word(right) compares the
    # lefts first, and each degree comes in sort_key's order.  The halves of
    # _fits filter the lefts once per color and, under color k, each list of
    # rights once, which keeps that order and grafts only what fits.
    if top == 1:
        return (LEAF,)
    out = [LEAF]
    lefts = _ordered(m, k, top - 1)
    for c in range(m + 1):
        rights: dict[int, tuple] = {}
        for left in lefts:
            if not _left_fits(c, left, m, k):
                continue
            degree = top - left.degree
            fitting = rights.get(degree)
            if fitting is None:
                fitting = _ordered(m, k, degree)
                if c == k:
                    fitting = tuple(right for right in fitting if _right_fits(right, m, k))
                rights[degree] = fitting
            out += [ColoredTree(c, left, right) for right in fitting]
    return tuple(out)


class TreeOracle:
    """The free algebra on one generator over the basis B(m).

    ``product(t, w, i)`` is the term dict ``{tree: coefficient}`` of t *_i w.
    It may be the memo's own dict, so a caller must not change it.  A
    product is memoised only when it costs more than the lookup.  A direct
    graft t *_i w, with t a leaf or i below t's root color, is the single
    tree t v_i w, which the intern table already holds.  So is t *_i w with
    t's root color c below i when t.right *_i w is a direct graft: it is the
    single tree t.left v_c (t.right v_i w), two lookups away.  Both are
    answered with a fresh one-term dict and never stored.  Every other
    product is memoised per oracle, so it is freed with the oracle.
    """

    def __init__(self, m: int):
        self.m = m
        self._memo: dict[tuple[ColoredTree, ColoredTree, int], dict] = {}

    def basis(self, n: int) -> list[ColoredTree]:
        return enumerate_Bm(self.m, n)

    def _product(self, t: ColoredTree, w: ColoredTree, i: int) -> dict:
        # terms go straight into the result dict; ColoredTree runs only for a new tree
        get = _TREES.get
        c = t.color
        if c is None or i < c:
            return {get((i, t, w)) or ColoredTree(i, t, w): 1}
        left, right = t.left, t.right
        if c < i and (right.color is None or i < right.color):
            u = get((i, right, w)) or ColoredTree(i, right, w)
            return {get((c, left, u)) or ColoredTree(c, left, u): 1}
        key = (t, w, i)
        terms = self._memo.get(key)
        if terms is not None:
            return terms
        if c < i:
            # grafting is injective on interned trees: no two terms merge
            terms = {
                get((c, left, u)) or ColoredTree(c, left, u): cu
                for u, cu in self._product(right, w, i).items()
            }
        else:
            # (x *_i y) *_i z rewritten through the mixed-associativity relation
            acc: dict = {}
            for k in range(i + 1):
                for u, cu in self._product(right, w, k).items():
                    tree = get((i, left, u)) or ColoredTree(i, left, u)
                    acc[tree] = acc.get(tree, 0) + cu
            for k in range(i + 1, self.m + 1):
                for u, cu in self._product(left, right, k).items():
                    tree = get((i, u, w)) or ColoredTree(i, u, w)
                    acc[tree] = acc.get(tree, 0) - cu
            # terms rarely cancel: copy only to drop a zero coefficient
            terms = {tree: cu for tree, cu in acc.items() if cu} if 0 in acc.values() else acc
        self._memo[key] = terms
        return terms

    # callers reach the memo directly; a wrapper set on product does not see the recursion
    product = _product


class MemoOracle:
    """A product oracle over ``basis(n)`` whose ``product(x, y, i)`` is the term
    dict ``compute(x, y, i)``, computed once and shared with the memo, which
    is freed with the oracle.  The path and simplex oracles pass partials, not
    closures over themselves, so that no reference cycle keeps one alive.
    """

    def __init__(self, m: int, basis: Callable[[int], list], compute: Callable[..., dict]):
        self.m = m
        self.basis = basis
        self._compute = compute
        self._memo: dict[tuple, dict] = {}

    def product(self, x, y, i: int) -> dict:
        key = (x, y, i)
        terms = self._memo.get(key)
        if terms is None:
            terms = self._memo[key] = self._compute(x, y, i)
        return terms


def tree_product(t: ColoredTree, w: ColoredTree, i: int, m: int) -> LinComb:
    """Expansion of t *_i w in the basis B(m).

    Inputs must be basis trees; arbitrary colored trees are normalized via
    :func:`tree_normal_form` instead of silently rewritten here.
    """
    if not 0 <= i <= m:
        raise ValueError(f"product index {i} out of range [0, {m}]")
    if not is_basis_Bm(t, m) or not is_basis_Bm(w, m):
        raise ValueError("operands must be basis trees")
    return LinComb.of_terms(TreeOracle(m).product(t, w, i))


def evaluator(product: Callable, generator) -> Callable[[ColoredTree], LinComb]:
    """The map from colored trees that sends the leaf to ``generator`` and a
    vertex of color i to ``product(a, b, i)``, a term dict such as an
    oracle's, extended bilinearly, on the images of its children.  Images
    are plain term dicts memoised in the returned function, so the memo is
    freed with it, and each result is wrapped once into a ``LinComb``;
    colors are not checked.
    """
    return partial(_evaluate, {LEAF: {generator: 1}}, product)


def term_evaluator(product: Callable, generator) -> Callable[[ColoredTree], dict]:
    """The map of :func:`evaluator` with each image left as its term dict,
    shared with the returned function's memo, so a caller must not change
    it; for callers that only read the images, such as a rank."""
    return partial(_image, {LEAF: {generator: 1}}, product)


def _evaluate(images: dict, product: Callable, t: ColoredTree) -> LinComb:
    # module functions, so the evaluator holds no reference to itself and
    # its images are freed with it, without the cyclic collector
    return LinComb.of_terms(_image(images, product, t))


def _image(images: dict, product: Callable, t: ColoredTree) -> dict:
    # the term dict of t's image, shared with the memo: callers must not change it
    terms = images.get(t)
    if terms is None:
        left = _image(images, product, t.left)
        right = _image(images, product, t.right)
        color = t.color
        acc: dict = {}
        for a, ca in left.items():
            for b, cb in right.items():
                c = ca * cb
                for key, cv in product(a, b, color).items():
                    acc[key] = acc.get(key, 0) + c * cv
        # a sum of ints is an int, and one Fraction makes it a Fraction
        if 0 in acc.values() or type(sum(acc.values())) is not int:
            # drop the zeros and store a whole Fraction as its int
            acc = term_sum(((acc, 1),))
        terms = images[t] = acc
    return terms


def tree_normal_form(t: ColoredTree, m: int) -> LinComb:
    """Expansion of an arbitrary colored tree in the basis B(m): its image under
    the :func:`evaluator` of a fresh ``TreeOracle(m)``.  A color above m raises
    ``ValueError``."""
    if t.max_color() > m:
        raise ValueError("color exceeds m")
    return evaluator(TreeOracle(m).product, LEAF)(t)


# ---------------------------------------------------------------------------
# Relations as data and the sweep over basis triples
#
# A relation is a pair of sides; a side is a tuple of signed terms
# (coeff, bracket, a, b), where bracket "L" is x *_a (y *_b z) and "R" is
# (x *_a y) *_b z.  The tables below carry a label that starts the failure
# message.


def dyck_relations(m: int) -> list[tuple]:
    """Interchange for every i < j, then mixed associativity for every i."""
    table = []
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            table.append(
                (f"interchange fails at i={i} j={j}", ((1, "L", i, j),), ((1, "R", i, j),))
            )
    for i in range(m + 1):
        table.append(
            (
                f"mixed associativity fails at i={i}",
                tuple((1, "L", i, j) for j in range(i + 1)),
                tuple((1, "R", k, i) for k in range(i, m + 1)),
            )
        )
    return table


def _circ(bracket: str, i: int, j: int, coeff: int = 1) -> tuple:
    # x o_i (y o_j z) or (x o_i y) o_j z for the partial sums o_i = *_0 + ... + *_i
    return tuple((coeff, bracket, p, q) for p in range(i + 1) for q in range(j + 1))


def circ_relations(m: int) -> list[tuple]:
    """The difference, bottom and diagonal relations of the partial sums o_i."""
    table = []
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            table.append(
                (
                    f"difference relation fails i={i} j={j}",
                    _circ("L", i, j) + _circ("R", i, j, -1),
                    _circ("L", i, j - 1) + _circ("R", i, j - 1, -1),
                )
            )
    table.append(("bottom relation fails", _circ("L", 0, 0), _circ("R", m, 0)))
    for i in range(1, m + 1):
        table.append(
            (
                f"diagonal relation fails i={i}",
                _circ("L", i, i),
                _circ("R", m, i) + _circ("R", m, i - 1, -1) + _circ("L", i - 1, i - 1),
            )
        )
    return table


def relation_plan(lhs: tuple, rhs: tuple) -> tuple:
    """lhs - rhs as groups ``(kind, outer, ((inner, coeff), ...))``, by bilinearity:
    x *_a (sum of c y *_b z) for the L terms with one a, (sum of c x *_a y) *_b z
    for the R terms with one b.  Terms on both sides cancel."""
    groups: dict = {}
    for sign, side in ((1, lhs), (-1, rhs)):
        for c, kind, a, b in side:
            outer, inner = (a, b) if kind == LEFT else (b, a)
            group = groups.setdefault((kind, outer), {})
            group[inner] = group.get(inner, 0) + sign * c
    plan = [(*key, tuple((k, c) for k, c in group.items() if c)) for key, group in groups.items()]
    return tuple(group for group in plan if group[2])


def plan_holds(plan: tuple, multiplier: Callable, x, y, z, yz: dict, xy: dict) -> bool:
    """Whether lhs - rhs of the relation compiled to ``plan`` vanishes on (x, y, z).

    ``multiplier`` gives term dicts (or anything with ``items()``), which are
    read, never changed.  No inner sum is built: by bilinearity, each term
    cu * u of y *_k z (or x *_k y), k of coefficient c, adds c * cu times
    x *_a u (or u *_b z) to one dict, the single products kept by k as the
    multiplier gave them: y *_k z in ``yz`` per triple, x *_k y in ``xy`` per pair."""
    acc: dict = {}
    for kind, outer, inner in plan:
        if kind == LEFT:
            for k, c in inner:
                terms = yz.get(k)
                if terms is None:
                    terms = yz[k] = multiplier(y, z, k)
                for u, cu in terms.items():
                    for key, cv in multiplier(x, u, outer).items():
                        acc[key] = acc.get(key, 0) + c * cu * cv
        else:
            for k, c in inner:
                terms = xy.get(k)
                if terms is None:
                    terms = xy[k] = multiplier(x, y, k)
                for u, cu in terms.items():
                    for key, cv in multiplier(u, z, outer).items():
                        acc[key] = acc.get(key, 0) + c * cu * cv
    return not any(acc.values())


def _triples(max_total_degree: int, basis_enumerator: Callable[[int], Iterable]):
    """Basis triples ``(x, y, z, xy)`` of total degree at most the bound, degree
    triple outermost; ``xy`` is a fresh :func:`plan_holds` memo per (n3, x, y)."""
    bases = {n: list(basis_enumerator(n)) for n in range(1, max_total_degree - 1)}
    for n1 in range(1, max_total_degree - 1):
        for n2 in range(1, max_total_degree - n1):
            for n3 in range(1, max_total_degree - n1 - n2 + 1):
                for x in bases[n1]:
                    for y in bases[n2]:
                        xy: dict = {}
                        for z in bases[n3]:
                            yield x, y, z, xy


def _sweep(
    name: str,
    relations: list[tuple],
    max_total_degree: int,
    multiplier: Callable,
    basis_enumerator: Callable[[int], Iterable],
) -> CheckReport:
    """Check every relation on every basis triple; stop at the first failure.

    A degree bound below 3 admits no triple, so it is rejected rather than
    reported as a vacuous success.
    """
    if max_total_degree < 3:
        raise ValueError("need max_total_degree >= 3")
    report = CheckReport(name=name)
    plans = [(label, relation_plan(lhs, rhs)) for label, lhs, rhs in relations]
    for x, y, z, xy in _triples(max_total_degree, basis_enumerator):
        yz: dict = {}
        for label, plan in plans:
            report.checks += 1
            if not plan_holds(plan, multiplier, x, y, z, yz, xy):
                report.fail(f"{label} x={x!r} y={y!r} z={z!r}")
                return report
    return report


def verify_dyck_axioms(
    m: int,
    max_total_degree: int,
    multiplier: Callable,
    basis_enumerator: Callable[[int], Iterable],
) -> CheckReport:
    """Exhaustively check the two relation families on basis triples.

    The interchange relation is checked for every pair i < j and the
    mixed-associativity sum for every i, over all triples of basis elements
    whose degrees sum to at most ``max_total_degree``.  Stops at the first
    counterexample.
    """
    name = f"axioms m={m} degree<={max_total_degree}"
    return _sweep(name, dyck_relations(m), max_total_degree, multiplier, basis_enumerator)


def verify_circ_relations(
    m: int,
    max_total_degree: int,
    multiplier: Callable,
    basis_enumerator: Callable[[int], Iterable],
) -> CheckReport:
    """The three relation families satisfied by the partial sums o_i."""
    name = f"partial-sum relations m={m} degree<={max_total_degree}"
    return _sweep(name, circ_relations(m), max_total_degree, multiplier, basis_enumerator)
