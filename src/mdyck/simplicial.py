"""Face and degeneracy structure on the tower of product families.

Inserting a zero product at slot i of the family (*_0, ..., *_m) turns an
order-m algebra into an order-(m+1) algebra; merging two adjacent slots
into their sum goes the other way.  At the level of the slot vectors these
transformations satisfy the simplicial composition laws, which are checked
symbolically here.  The module also hosts, for the alternative graded
bases B(m, k) of the free algebra (enumerated in :mod:`mdyck.trees`), the
change-of-basis bijection between B(m) and B(m, k), the degree-shifting
bijection onto the root-k generators, and the span check showing that the
merged products are freely generated by those generators.
"""

from __future__ import annotations

from functools import cache

from .exactlin import rank_of_lincombs, term_sum
from .reporting import CheckReport
from .series import check_lemform, fuss_catalan
from .trees import (
    LEAF,
    LEFT,
    RIGHT,
    ColoredTree,
    TreeOracle,
    comb_decompose,
    enumerate_Bm,
    enumerate_Bmk,
    evaluator,
    from_left_comb,
    from_right_comb,
    is_basis_Bm,
    is_basis_Bmk,
    tree_normal_form,
    verify_dyck_axioms,
)

# ---------------------------------------------------------------------------
# Slot calculus

ProductVector = tuple  # slots are formal sums of atoms: sorted tuples, () = 0


def symbolic_vector(m: int) -> ProductVector:
    """The generic slot vector (p0, ..., pm) with distinct atoms."""
    return tuple((f"p{i}",) for i in range(m + 1))


def _slot_sum(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b))


def face_transform(v: ProductVector, i: int) -> ProductVector:
    """Insert the zero product at slot i (length m+1 -> m+2)."""
    if not 0 <= i <= len(v):
        raise ValueError(f"face index {i} out of range [0, {len(v)}]")
    return v[:i] + ((),) + v[i:]


def degeneracy_transform(v: ProductVector, i: int) -> ProductVector:
    """Merge slots i and i+1 into their formal sum (length m+1 -> m)."""
    if not 0 <= i <= len(v) - 2:
        raise ValueError(f"degeneracy index {i} out of range [0, {len(v) - 2}]")
    return v[:i] + (_slot_sum(v[i], v[i + 1]),) + v[i + 2 :]


class SlotTransformedOracle:
    """Product oracle obtained by re-wiring slots of a base oracle.

    ``slots[j]`` lists the base product indices summed into the new slot j
    (empty tuple = the zero product).  A product is a fresh term dict.
    """

    def __init__(self, base, slots: tuple[tuple[int, ...], ...]):
        self.base = base
        self.slots = slots
        self.m = len(slots) - 1

    def basis(self, n: int):
        return self.base.basis(n)

    def product(self, x, y, i: int) -> dict:
        return term_sum((self.base.product(x, y, j), 1) for j in self.slots[i])


def face_oracle(base, i: int) -> SlotTransformedOracle:
    """``base`` with the zero product inserted at slot i."""
    identity = tuple((j,) for j in range(base.m + 1))
    return SlotTransformedOracle(base, face_transform(identity, i))


def degeneracy_oracle(base, i: int) -> SlotTransformedOracle:
    """``base`` with slots i and i+1 merged into their sum."""
    identity = tuple((j,) for j in range(base.m + 1))
    return SlotTransformedOracle(base, degeneracy_transform(identity, i))


def slot_law_checks(m: int) -> int:
    """The slot-law checks that :func:`verify_simplicial_identities` makes at
    one m: (m+2)(m+3)/2 insert laws, m(m-1)/2 merge laws and (m+1)(m+2)
    mixed laws, 2m^2 + 5m + 5 in all.  The series identities make m+1
    substitution checks at m, so this count grows fastest with m; it is the
    cost that bounds the ``--max-m`` of ``mdyck verify``, which both suites
    read."""
    return 2 * m * m + 5 * m + 5


def verify_simplicial_identities(max_m: int) -> CheckReport:
    """Slot-calculus composition laws, plus the axiom transport on trees.

    The insert/merge composites are compared symbolically for every valid
    index pair and every m <= max_m; on top of that, the face and
    degeneracy transforms of the free tree structure (m = 1, 2) are run
    through the axiom checker for the shifted order at total degree <= 4.
    """
    if max_m < 1:
        raise ValueError("need max_m >= 1")
    report = CheckReport(name=f"simplicial identities m<={max_m}")
    for m in range(1, max_m + 1):
        v = symbolic_vector(m)
        length = m + 1
        # insert-insert: F_i F_j = F_{j+1} F_i for i <= j
        for j in range(length + 1):
            for i in range(j + 1):
                report.checks += 1
                if face_transform(face_transform(v, j), i) != face_transform(
                    face_transform(v, i), j + 1
                ):
                    report.fail(f"insert law fails m={m} i={i} j={j}")
        # merge-merge: S_i S_j = S_j S_{i+1} for i >= j
        for j in range(length - 1):
            for i in range(j, length - 2):
                report.checks += 1
                if degeneracy_transform(degeneracy_transform(v, j), i) != (
                    degeneracy_transform(degeneracy_transform(v, i + 1), j)
                ):
                    report.fail(f"merge law fails m={m} i={i} j={j}")
        # mixed laws on the inserted vector
        for i in range(length + 1):
            inserted = face_transform(v, i)
            for j in range(length):
                report.checks += 1
                got = degeneracy_transform(inserted, j)
                if j in (i - 1, i):
                    expected = v
                elif j < i - 1:
                    expected = face_transform(degeneracy_transform(v, j), i - 1)
                else:
                    expected = face_transform(degeneracy_transform(v, j - 1), i)
                if got != expected:
                    report.fail(f"mixed law fails m={m} i={i} j={j}")
    # functor-level checks on the free tree algebra
    for m in (1, 2):
        base = TreeOracle(m)
        for i in range(m + 2):
            oracle = face_oracle(base, i)
            sub = verify_dyck_axioms(m + 1, 4, oracle.product, oracle.basis)
            sub.name = f"face transform i={i} of tree products m={m}"
            report.merge(sub)
        for i in range(m):
            oracle = degeneracy_oracle(base, i)
            sub = verify_dyck_axioms(m - 1, 4, oracle.product, oracle.basis)
            sub.name = f"degeneracy transform i={i} of tree products m={m}"
            report.merge(sub)
    return report


# ---------------------------------------------------------------------------
# The alternative bases B(m, k)


def theta_basis(t: ColoredTree, m: int, k: int) -> ColoredTree:
    """The change-of-basis bijection from B(m) onto B(m, k).

    Structural recursion on the grafting decomposition; the image tree
    denotes the same algebra element, which is checked against the path
    model in the test suite.
    """
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    if not is_basis_Bm(t, m):
        raise ValueError("input is not a basis tree")
    return _theta(t, m, k)


@cache
def _theta(t: ColoredTree, m: int, k: int) -> ColoredTree:
    if t.is_leaf:
        return t
    color = t.color
    if color != k:
        return ColoredTree(color, _theta(t.left, m, k), _theta(t.right, m, k))
    jcolors, jhangs = comb_decompose(t, RIGHT)  # jcolors[0] == k
    bad = [idx for idx in range(1, len(jcolors)) if jcolors[idx] > k]
    if not bad:
        return ColoredTree(k, _theta(t.left, m, k), _theta(t.right, m, k))
    # slide the k-node past the first larger right-spine color: the left comb
    # of that node absorbs the skipped prefix and the old left child,
    # preserving the algebra element
    l0 = bad[0]
    upper_colors, upper_subs = comb_decompose(jhangs[l0], LEFT)
    skipped = from_right_comb(jcolors[1:l0], jhangs[1:l0])
    lower_colors, lower_subs = comb_decompose(t.left, LEFT)
    big = from_left_comb(
        upper_colors + (k,) + lower_colors,
        tuple(_theta(x, m, k) for x in upper_subs)
        + (_theta(skipped, m, k),)
        + tuple(_theta(x, m, k) for x in lower_subs),
    )
    rest = from_right_comb(jcolors[l0 + 1 :], jhangs[l0 + 1 :])
    return ColoredTree(jcolors[l0], big, _theta(rest, m, k))


def theta_basis_inverse(t: ColoredTree, m: int, k: int) -> ColoredTree:
    """Inverse change of basis: evaluate the grafting word and read off
    the unique basis tree it denotes."""
    if not is_basis_Bmk(t, m, k):
        raise ValueError("input is not in the alternative basis")
    expansion = tree_normal_form(t, m)
    items = list(expansion.items())
    if len(items) != 1 or items[0][1] != 1:
        raise ValueError("alternative-basis tree does not denote a basis tree")
    return items[0][0]


def generators_Amk(m: int, k: int, n: int) -> list[ColoredTree]:
    """Degree-n generators: alternative-basis trees that are the leaf or
    carry root color k."""
    if not 0 <= k < m:
        raise ValueError("need 0 <= k < m")
    if n == 1:
        return [LEAF]
    return [t for t in enumerate_Bmk(m, k, n) if t.color == k]


def little_theta(t: ColoredTree, m: int, k: int) -> ColoredTree:
    """Degree-raising bijection from B(m, k) onto the root-k generators.

    The image is always a grafting A v_k B where A collects the part of t
    with colors above k and B the part with colors at most k:

      * root color h > k, no k on the left spine: (t, leaf);
      * root color h > k, left spine split by k: A = comb below the k,
        B = subtree at the k;
      * root color h <= k, right spine bounded by k: (leaf, t);
      * otherwise split the right spine at its first color above k, push
        any k-rooted part of that subtree's left comb back into B.
    """
    if not is_basis_Bmk(t, m, k):
        raise ValueError("input is not in the alternative basis")
    if t.is_leaf:
        return ColoredTree(k, LEAF, LEAF)
    if t.color > k:
        colors, subs = comb_decompose(t, LEFT)
        if k not in colors:
            return ColoredTree(k, t, LEAF)
        s = colors.index(k)
        upper = from_left_comb(colors[:s], subs[:s])
        lower = from_left_comb(colors[s:], subs[s:])
        return ColoredTree(k, upper, lower)
    colors, subs = comb_decompose(t, RIGHT)
    above = [idx for idx in range(len(colors)) if colors[idx] > k]
    if not above:
        return ColoredTree(k, LEAF, t)
    s = above[0]
    suffix = from_right_comb(colors[s:], subs[s:])
    left_colors, left_subs = comb_decompose(suffix, LEFT)
    if k in left_colors:
        pos = left_colors.index(k)
        high = from_left_comb(left_colors[:pos], left_subs[:pos])
        low = from_left_comb(left_colors[pos:], left_subs[pos:])
        low_colors, low_subs = comb_decompose(low, RIGHT)
        tail = from_right_comb(colors[:s] + low_colors, subs[:s] + low_subs)
        return ColoredTree(k, high, tail)
    tail = from_right_comb(colors[:s], subs[:s])
    return ColoredTree(k, suffix, tail)


def little_theta_inverse(u: ColoredTree, m: int, k: int) -> ColoredTree:
    """Inverse of :func:`little_theta` on the root-k generators."""
    if u.is_leaf or u.color != k:
        raise ValueError("input is not a root-k generator")
    a, b = u.left, u.right
    if a.is_leaf:
        return b
    if b.is_leaf:
        return a
    if b.color == k:
        a_colors, a_subs = comb_decompose(a, LEFT)
        b_colors, b_subs = comb_decompose(b, LEFT)
        return from_left_comb(a_colors + b_colors, a_subs + b_subs)
    b_colors, b_subs = comb_decompose(b, RIGHT)
    if k in b_colors:
        pos = b_colors.index(k)
        low = from_right_comb(b_colors[pos:], b_subs[pos:])
        a_colors, a_subs = comb_decompose(a, LEFT)
        low_colors, low_subs = comb_decompose(low, LEFT)
        suffix = from_left_comb(a_colors + low_colors, a_subs + low_subs)
        s_colors, s_subs = comb_decompose(suffix, RIGHT)
        return from_right_comb(b_colors[:pos] + s_colors, b_subs[:pos] + s_subs)
    a_colors, a_subs = comb_decompose(a, RIGHT)
    return from_right_comb(b_colors + a_colors, b_subs + a_subs)


def verify_Sk_freeness(m: int, k: int, max_degree: int) -> CheckReport:
    """The merged products are freely generated by the root-k generators.

    Checks (a) generation: the subalgebra generated by the graded generator
    set under the merged products spans every homogeneous component up to
    ``max_degree`` (exact rational rank), and (b) the dimension match with
    the free algebra on that generator set, which is the series
    substitution identity delegated to the series module.
    """
    if not 0 <= k < m:
        raise ValueError("need 0 <= k < m")
    if max_degree < 1:
        raise ValueError("need max_degree >= 1")
    report = CheckReport(name=f"freeness of merged products m={m} k={k}")
    oracle = TreeOracle(m)
    product = degeneracy_oracle(oracle, k).product
    normal_form = evaluator(oracle.product, LEAF)
    for n in range(1, max_degree + 1):
        dim = fuss_catalan(m, n)
        basis = enumerate_Bm(m, n)
        generators = generators_Amk(m, k, n)
        vectors = list(map(normal_form, generators))
        for n1 in range(1, n):
            for t in enumerate_Bm(m, n1):
                for w in enumerate_Bm(m, n - n1):
                    for j in range(m):
                        vectors.append(product(t, w, j))
        report.checks += 1
        rank = rank_of_lincombs(vectors, basis)
        if rank != dim:
            report.fail(
                f"degree {n}: generated subspace has rank {rank}, expected {dim}"
            )
            return report
        count = len(generators)
        expected = 1 if n == 1 else fuss_catalan(m, n - 1)
        report.checks += 1
        if count != expected:
            report.fail(
                f"degree {n}: generator count {count}, expected {expected}"
            )
            return report
    report.merge(check_lemform(m, m - 1, 10))
    return report
