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

from collections.abc import Callable, Iterable
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
    enumerate_Bm,
    enumerate_Bmk,
    is_basis_Bm,
    is_basis_Bmk,
    spine_cut,
    spine_graft,
    term_evaluator,
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
    (empty tuple = the zero product).  A product of a one-index slot is the
    base oracle's own term dict, which its memo may share, so a caller must
    not change it; a slot of no index or of two or more is summed into a
    fresh dict.
    """

    def __init__(self, base, slots: tuple[tuple[int, ...], ...]):
        self.base = base
        self.slots = slots
        self.m = len(slots) - 1

    def basis(self, n: int):
        return self.base.basis(n)

    def product(self, x, y, i: int) -> dict:
        slot = self.slots[i]
        if len(slot) == 1:
            return self.base.product(x, y, slot[0])
        return term_sum((self.base.product(x, y, j), 1) for j in slot)


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
    return _theta(t, k)


@cache
def _theta(t: ColoredTree, k: int) -> ColoredTree:
    if t.is_leaf:
        return t
    # a k-vertex whose right spine meets a color above k slides below the
    # first such vertex v: the k-vertex keeps its left child and takes the
    # skipped part of the spine, and hangs at the end of v's left spine
    skipped, v = spine_cut(t.right, RIGHT, lambda c: c > k) if t.color == k else (LEAF, LEAF)
    if v.is_leaf:
        return ColoredTree(t.color, _theta(t.left, k), _theta(t.right, k))
    big = spine_graft(v.left, LEFT, ColoredTree(k, t.left, skipped))
    return ColoredTree(v.color, _theta(big, k), _theta(v.right, k))


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

    Cut t's right spine at its first color above k into a prefix, whose
    right spine stays at most k, and a suffix.  Cut the suffix's left spine
    at its first k into the part high above it, with every color above k,
    and the part low from it.  The image is high v_k (prefix with low
    grafted at the end of its right spine); a missing cut leaves a leaf.
    """
    if not 0 <= k < m:
        raise ValueError("need 0 <= k < m")
    if not is_basis_Bmk(t, m, k):
        raise ValueError("input is not in the alternative basis")
    prefix, suffix = spine_cut(t, RIGHT, lambda c: c > k)
    high, low = spine_cut(suffix, LEFT, lambda c: c == k)
    return ColoredTree(k, high, spine_graft(prefix, RIGHT, low))


def little_theta_inverse(u: ColoredTree, m: int, k: int) -> ColoredTree:
    """Inverse of :func:`little_theta` on the root-k generators."""
    if not 0 <= k < m:
        raise ValueError("need 0 <= k < m")
    if u.is_leaf or u.color != k or not is_basis_Bmk(u, m, k):
        raise ValueError("input is not a root-k generator")
    prefix, low = spine_cut(u.right, RIGHT, lambda c: c == k)
    return spine_graft(prefix, RIGHT, spine_graft(u.left, LEFT, low))


def _degree_vectors(generators: Iterable[dict], product: Callable, m: int, n: int):
    # the degree-n generators' normal forms, then each merged product t *_j w
    # of basis trees with degrees adding to n, as term dicts, in that order
    yield from generators
    for n1 in range(1, n):
        rights = enumerate_Bm(m, n - n1)
        for t in enumerate_Bm(m, n1):
            for w in rights:
                for j in range(m):
                    yield product(t, w, j)


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
    normal_form = term_evaluator(oracle.product, LEAF)
    for n in range(1, max_degree + 1):
        dim = fuss_catalan(m, n)
        basis = enumerate_Bm(m, n)
        generators = generators_Amk(m, k, n)
        report.checks += 1
        # the rank reads the vectors as it needs them: none past full rank is built
        vectors = _degree_vectors(map(normal_form, generators), product, m, n)
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
