import itertools
import random
from pathlib import Path

import pytest

from mdyck import posets
from mdyck.exactlin import LinComb
from mdyck.reporting import CheckReport
from mdyck.posets import (
    BACKSLASH,
    OPS,
    PERP,
    SLASH,
    TOP,
    OrdmOracle,
    PermutationFamily,
    PlanarTreeFamily,
    SurjectionFamily,
    TamariBinaryFamily,
    count_simplices,
    facial_covers,
    facial_restriction_agrees,
    ordm_product,
    ordm_simplices,
    parse_poset_file,
    pt_encode,
    pt_parse,
    surj_products,
    tree_restriction,
    verify_dendriform_poset,
)
from mdyck.tamari import TamariLattice, _cover_walk
from mdyck.trees import verify_dyck_axioms

LEAF = ()
BUD = ((), ())  # the unique binary tree of degree 1


def standardize(word) -> tuple[int, ...]:
    """The unique surjection with the same strict-comparison pattern."""
    word = tuple(word)
    ranks = {v: i + 1 for i, v in enumerate(sorted(set(word)))}
    return tuple(ranks[v] for v in word)


def perm_inversions(p: tuple[int, ...]) -> frozenset:
    """Position inversions: pairs i < j with p(i) > p(j).

    Containment of these sets is the left weak order (covers multiply by a
    simple transposition on the left, i.e. swap two adjacent values).
    """
    n = len(p)
    return frozenset((i, j) for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


class StandardizedTop(SurjectionFamily):
    """Surjections whose top product shifts and then standardizes, in place
    of merging the two maximal values: a negative control."""

    def _product(self, op, x, y):
        if op != TOP:
            return super()._product(op, x, y)
        s, h = max(x), max(y)
        return standardize(tuple(v if v < s else s + h for v in x) + tuple(v + h for v in y))


def test_standardize():
    assert standardize((2, 2)) == (1, 1)
    assert standardize((1, 2, 4, 2)) == (1, 2, 3, 2)
    surj = SurjectionFamily()
    for f in surj.elements(3):
        assert standardize(f) == f


def test_surjections_are_the_filtered_words_in_order():
    for n in range(1, 8):
        words = itertools.product(range(1, n + 1), repeat=n)
        expected = [w for w in words if set(w) == set(range(1, max(w) + 1))]
        assert SurjectionFamily()._build_elements(n) == expected, n


def test_facial_covers():
    assert facial_covers((1, 2)) == [(1, 1)]
    assert facial_covers((1, 1)) == [(2, 1)]
    assert facial_covers((2, 1)) == []


def test_surj_products_degree_one():
    assert surj_products((1,), (1,), SLASH) == (1, 2)
    assert surj_products((1,), (1,), BACKSLASH) == (2, 1)
    assert surj_products((1,), (1,), PERP) == (1, 2)
    assert surj_products((1,), (1,), TOP) == (1, 1)
    assert StandardizedTop()._product(TOP, (1,), (1,)) == (1, 1)


def test_surj_products_always_surjective():
    surj = SurjectionFamily()
    for n, r in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for f in surj.elements(n):
            for g in surj.elements(r):
                for op in OPS:
                    assert len(surj_products(f, g, op)) == n + r
                    assert len(StandardizedTop()._product(op, f, g)) == n + r


def test_bruhat_order():
    perms = PermutationFamily()
    assert perms.leq((1, 2), (2, 1))
    assert not perms.leq((2, 1), (1, 2))
    assert len(perms.elements(4)) == 24
    assert ordm_product(perms, ((1,),), ((1,),), 0) == LinComb.single(((1, 2),))
    assert ordm_product(perms, ((1,),), ((1,),), 1) == LinComb.single(((2, 1),))


def _explicit_permutation_product(op, x, y):
    # each product written out on permutations, independently of surj_products
    n, r = len(x), len(y)
    if op == SLASH:
        return x + tuple(v + n for v in y)
    if op == BACKSLASH:
        return tuple(v + r for v in x) + y
    if op == PERP:
        return tuple(v + r - 1 for v in x) + tuple(v if v < r else n + r for v in y)
    return tuple(v if v < n else n + r for v in x) + tuple(v + n - 1 for v in y)


def test_permutation_products_match_the_explicit_formulas():
    perms = PermutationFamily()
    for n in range(1, 6):
        for r in range(1, 7 - n):
            for x in perms.elements(n):
                for y in perms.elements(r):
                    for op in OPS:
                        assert perms.prod(op, x, y) == _explicit_permutation_product(op, x, y)


def test_permutation_order_is_inversion_containment():
    # the order generated by adjacent-value swaps is the left weak order
    perms = PermutationFamily()
    for n in range(1, 6):
        elems = perms.elements(n)
        inv = {p: perm_inversions(p) for p in elems}
        for p in elems:
            for q in elems:
                assert perms.leq(p, q) == (inv[p] <= inv[q])


def test_split_masks_are_the_product_intervals():
    cases = (
        (TamariBinaryFamily(), 4),
        (PermutationFamily(), 4),
        (SurjectionFamily(), 3),
        (PlanarTreeFamily(), 4),
    )
    for family, bound in cases:
        for n in range(1, bound):
            for r in range(1, bound - n + 1):
                for x in family.elements(n):
                    for y in family.elements(r):
                        degree, lo_index, hi_index, whole, succ, prec = family.split(x, y)
                        assert degree == n + r
                        poset = family.poset(degree)
                        lo, perp, top, hi = (family.prod(op, x, y) for op in OPS)
                        assert poset.elements[lo_index] == lo
                        assert poset.elements[hi_index] == hi
                        for mask, (a, b) in (
                            (whole, (lo, hi)),
                            (succ, (lo, perp)),
                            (prec, (top, hi)),
                        ):
                            interval = poset.members(poset.interval_mask(a, b))
                            assert poset.members(mask) == interval


def test_facial_restriction_is_weak_order():
    for n in (1, 2, 3, 4):
        assert facial_restriction_agrees(n)


def test_planar_tree_counts():
    fam = PlanarTreeFamily()
    # little Schroeder numbers by their recurrence, as an independent count:
    # (n+1) a(n) = (6n-3) a(n-1) - (n-2) a(n-2)
    schroeder = [1, 1]
    for n in range(2, 6):
        schroeder.append(
            ((6 * n - 3) * schroeder[n - 1] - (n - 2) * schroeder[n - 2]) // (n + 1)
        )
    for n in (1, 2, 3, 4):
        assert len(fam.elements(n)) == schroeder[n]
    assert len(fam.elements(3)) == 11


def test_planar_degree_two_shape():
    fam = PlanarTreeFamily()
    left = pt_parse("((| |) |)")
    corolla = pt_parse("(| | |)")
    right = pt_parse("(| (| |))")
    assert fam.leq(left, corolla) and fam.leq(corolla, right)
    assert not fam.leq(corolla, left) and not fam.leq(right, corolla)


def test_binary_restriction_of_planar_order():
    fam = PlanarTreeFamily()
    binary = TamariBinaryFamily()
    for n in range(1, 6):
        for a in binary.elements(n):
            for b in binary.elements(n):
                assert fam.leq(a, b) == binary.leq(a, b)


def test_tree_restriction():
    t = pt_parse("((| |) | (| |))")
    n = 4
    assert tree_restriction(t, 0) == (LEAF, t)
    assert tree_restriction(t, n) == (t, LEAF)
    fam = PlanarTreeFamily()
    for a in fam.elements(2):
        for b in fam.elements(2):
            grafted = fam.prod(SLASH, a, b)
            assert tree_restriction(grafted, 2) == (a, b)
            grafted = fam.prod(BACKSLASH, a, b)
            assert tree_restriction(grafted, 2) == (a, b)


def test_tree_restriction_monotone():
    fam = PlanarTreeFamily()
    for n in (2, 3):
        for a in fam.elements(n):
            for b in fam.elements(n):
                if not fam.leq(a, b):
                    continue
                for l in range(n + 1):
                    a1, a2 = tree_restriction(a, l)
                    b1, b2 = tree_restriction(b, l)
                    if a1 != LEAF:
                        assert fam.leq(a1, b1)
                    if a2 != LEAF:
                        assert fam.leq(a2, b2)


def test_dendriform_poset_instances():
    cases = (
        (TamariBinaryFamily(), 5),
        (PermutationFamily(), 4),
        (SurjectionFamily(), 3),
        (PlanarTreeFamily(), 4),
    )
    for family, bound in cases:
        report = verify_dendriform_poset(family, bound)
        assert report.ok, (family.name, report.failures)


CONDITION5_FILE = Path(__file__).resolve().parent / "data" / "condition5_order.poset"


def _declared(edit=lambda text: text):
    return parse_poset_file(edit(CONDITION5_FILE.read_text(encoding="utf-8")))


def _without_b_covers(text):
    return text.replace("cover b p1\n", "").replace("cover b q1\n", "")


def _condition5_scan(family, n, r, report):
    # the reference: every (succ-type u, prec-type v) pair, both in element order
    U = family.poset(n + r)
    succ_side = prec_side = 0
    for x in family.elements(n):
        for y in family.elements(r):
            succ_side |= family.split(x, y)[posets._SUCC]
            prec_side |= family.split(x, y)[posets._PREC]
    for u in U.members(succ_side):
        for v in U.members(prec_side):
            report.checks += 1
            if U.leq(v, u):
                report.fail(f"condition 5 at degrees ({n},{r}): {v!r} <= {u!r}")
                return False
    return True


@pytest.mark.parametrize(
    "family, bound, failure",
    [
        (TamariBinaryFamily(), 5, None),
        (PermutationFamily(), 4, None),
        (SurjectionFamily(), 3, None),
        (PlanarTreeFamily(), 4, None),
        # b is below p1, the second succ-type element, and is the first prec-type one
        (_declared(), 2, "'b' <= 'p1'"),
        # without the covers above b, p2 below c fails first: a later v of a later u
        (_declared(_without_b_covers), 2, "'p2' <= 'c'"),
    ],
    ids=["binary", "permutations", "surjections", "planar", "declared", "declared-later-pair"],
)
def test_condition5_rows_match_the_pair_scan(family, bound, failure):
    failures = []
    for n in range(1, bound):
        for r in range(1, bound - n + 1):
            rows, scan = CheckReport(name="rows"), CheckReport(name="scan")
            held = posets._prec_never_below_succ(family, n, r, rows)
            assert held == _condition5_scan(family, n, r, scan)
            assert (rows.checks, rows.failures) == (scan.checks, scan.failures)
            failures += rows.failures
    assert failures == ([] if failure is None else [f"condition 5 at degrees (1,1): {failure}"])


def test_top_variant_choice_is_confirmed_by_verifier():
    # the merged-max middle product passes; the standardize-after-shift
    # variant breaks interval splitting, and the verifier surfaces where
    assert verify_dendriform_poset(SurjectionFamily(), 3).ok
    report = verify_dendriform_poset(StandardizedTop(), 3)
    assert not report.ok
    assert any("condition 2" in msg for msg in report.failures)


def test_corrupted_instance_fails_splitting():
    class Swapped(TamariBinaryFamily):
        name = "binary-swapped"

        def _product(self, op, x, y):
            if op == PERP:
                op = TOP
            elif op == TOP:
                op = PERP
            return super()._product(op, x, y)

    report = verify_dendriform_poset(Swapped(), 3)
    assert not report.ok
    assert any("at degrees (1,1)" in msg for msg in report.failures)


def test_condition3_failure_names_the_triple():
    # two products of (| |) and (| (| |)) moved so that conditions 1-2 still
    # hold up to degree 3 but the interval sums are not dendriform
    right = pt_parse("(| (| |))")
    moved = {
        SLASH: pt_parse("(((| |) |) |)"),
        TOP: pt_parse("((| (| |)) |)"),
    }

    class Bent(TamariBinaryFamily):
        name = "binary-bent"

        def _product(self, op, x, y):
            if (x, y) == (BUD, right) and op in moved:
                return moved[op]
            return super()._product(op, x, y)

    report = verify_dendriform_poset(Bent(), 3)
    assert report.summary() == (
        "dendriform poset binary-bent degree<=3: FAILED (25 checks)\n"
        "  condition 3 dendriform axioms fail at ((), ()), ((), ()), ((), ())"
    )


class NotMonotone(TamariBinaryFamily):
    """x\\y of (| |) and (| (| |)) moved to a tree incomparable with the
    x\\y of (| |) and ((| |) |)."""

    name = "binary-not-monotone"

    def _product(self, op, x, y):
        if op == BACKSLASH and (x, y) == (BUD, pt_parse("(| (| |))")):
            return pt_parse("((| |) (| |))")
        return super()._product(op, x, y)


class OuterSwapped(TamariBinaryFamily):
    """x/y and x\\y exchanged: both stay monotone, the bounds are reversed."""

    name = "binary-outer-swapped"

    def _product(self, op, x, y):
        return super()._product({SLASH: BACKSLASH, BACKSLASH: SLASH}.get(op, op), x, y)


class BentPair(TamariBinaryFamily):
    """Two products of (| |) and (| (| |)) moved, as in the condition-3 test."""

    name = "binary-bent"

    def _product(self, op, x, y):
        moved = {SLASH: "(((| |) |) |)", TOP: "((| (| |)) |)"}
        if (x, y) == (BUD, pt_parse("(| (| |))")) and op in moved:
            return pt_parse(moved[op])
        return super()._product(op, x, y)


class ExtraCover(TamariBinaryFamily):
    """One cover added to the degree-4 Tamari order."""

    name = "binary-extra-cover"

    def _above(self, x):
        yield from super()._above(x)
        if x == pt_parse("(((| |) |) (| |))"):
            yield pt_parse("((| (| (| |))) |)")


@pytest.mark.parametrize(
    "family, bound, summary",
    [
        pytest.param(
            NotMonotone(),
            3,
            "dendriform poset binary-not-monotone degree<=3: FAILED (8 checks)\n"
            "  condition 1 at degrees (1,2): \\ not monotone on ((), ())<=((), ()), "
            "(((), ()), ())<=((), ((), ()))",
            id="condition-1-monotone",
        ),
        pytest.param(
            OuterSwapped(),
            3,
            "dendriform poset binary-outer-swapped degree<=3: FAILED (3 checks)\n"
            "  condition 1 at degrees (1,1): bounds of ((), ()), ((), ()) are not ordered",
            id="condition-1-bounds",
        ),
        pytest.param(
            StandardizedTop(),
            3,
            "dendriform poset surjections degree<=3: FAILED (36 checks)\n"
            "  condition 2 at degrees (1,2): interval of (1,), (1, 2) does not split",
            id="condition-2",
        ),
        pytest.param(
            BentPair(),
            4,
            "dendriform poset binary-bent degree<=4: FAILED (123 checks)\n"
            "  condition 3 dendriform axioms fail at ((), ()), ((), ()), ((), ())",
            id="condition-3",
        ),
        pytest.param(
            ExtraCover(),
            4,
            "dendriform poset binary-extra-cover degree<=4: FAILED (193 checks)\n"
            "  condition 4 at degrees (1,3): ((((), ()), ()), ((), ()))"
            "<=((), ((), (((), ()), ()))) but (((), ()),(((), ()), ((), ()))) "
            "!<= (((), ()),((), (((), ()), ())))",
            id="condition-4",
        ),
    ],
)
def test_mutant_reports_are_pinned(family, bound, summary):
    # the failing condition, its message and the checks made before it
    assert verify_dendriform_poset(family, bound).summary() == summary


CONDITION4_FILE = Path(__file__).resolve().parent / "data" / "condition4_late.poset"


UNDECLARED_PAIRS = """
degree 1
elem a
elem b
elem c
cover a c
degree 2
elem d
prod / a a -> d
prod bot a a -> d
prod top a a -> d
prod \\ a a -> d
"""


def _condition1_scan(family, n, r, report):
    # the reference: / and \ on every pair of comparable pairs, then the
    # bounds of every pair, all in element order
    X, Y, U = family.poset(n), family.poset(r), family.poset(n + r)
    split = family.split
    x_pairs = [(x, x2) for i, x in enumerate(X.elements) for x2 in X.members(X.up[i])]
    y_pairs = [(y, y2) for i, y in enumerate(Y.elements) for y2 in Y.members(Y.up[i])]
    for op, bound in ((SLASH, posets._LO), (BACKSLASH, posets._HI)):
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
            if not all(split(x, y)[posets._WHOLE:]):
                report.fail(
                    f"condition 1 at degrees ({n},{r}): bounds of {x!r}, {y!r} are not ordered"
                )
                return False
    return True


def _condition4_scan(family, n, r, report):
    # the reference: every quadruple (x1, y1, x2, y2) over each u <= v, in
    # element order
    X, Y, U = family.poset(n), family.poset(r), family.poset(n + r)
    members: dict = {}
    for x in X.elements:
        for y in Y.elements:
            for u in U.members(family.split(x, y)[posets._WHOLE]):
                members.setdefault(u, []).append((x, y))
    for i, u in enumerate(U.elements):
        for v in U.members(U.up[i]):
            for x1, y1 in members.get(u, []):
                for x2, y2 in members.get(v, []):
                    report.checks += 1
                    if not (X.leq(x1, x2) and Y.leq(y1, y2)):
                        report.fail(
                            f"condition 4 at degrees ({n},{r}): {u!r}<={v!r} "
                            f"but ({x1!r},{y1!r}) !<= ({x2!r},{y2!r})"
                        )
                        return False
    return True


def _bidegrees(bound):
    # the verifier's order: by total degree
    return sorted(((n, r) for n in range(1, bound) for r in range(1, bound - n + 1)), key=sum)


def _trail(condition, family, bound):
    # one running report over the bidegrees: (checks, failures) after each,
    # up to the first failure, or the message of the ValueError raised
    report, trail = CheckReport(name="trail"), []
    for n, r in _bidegrees(bound):
        try:
            held = condition(family, n, r, report)
        except ValueError as error:
            return trail + [str(error)]
        trail.append((n, r, report.checks, list(report.failures)))
        if not held:
            break
    return trail


_CONDITIONS = (
    (posets._outer_products_monotone, _condition1_scan),
    (posets._decompositions_monotone, _condition4_scan),
)


def _mutant(base, added=None, dropped=None, moved=None):
    """``base`` with one generating step (x, y) added or dropped, or one
    product (op, x, y) sent to z by ``moved`` = (op, x, y, z)."""

    class Mutant(base):
        def _above(self, x):
            above = [y for y in super()._above(x) if (x, y) != dropped]
            return above + [added[1]] if added and added[0] == x else above

        def _product(self, op, x, y):
            if moved and moved[:3] == (op, x, y):
                return moved[3]
            return super()._product(op, x, y)

    return Mutant


def _sampled_mutants(rng, count):
    # single-step and single-product mutants at degree <= 4
    mutants = []
    while len(mutants) < count:
        base = rng.choice([TamariBinaryFamily, PermutationFamily, PlanarTreeFamily])
        family, kind = base(), rng.choice(["added", "dropped", "moved"])
        if kind == "moved":
            n, r = rng.choice(_bidegrees(4))
            x, y, op = rng.choice(family.elements(n)), rng.choice(family.elements(r)), rng.choice(OPS)
            z = rng.choice([z for z in family.elements(n + r) if z != family.prod(op, x, y)])
            mutants.append(_mutant(base, moved=(op, x, y, z)))
            continue
        elements = family.elements(rng.randint(2, 4))
        if kind == "added":
            mutants.append(_mutant(base, added=tuple(rng.sample(elements, 2))))
        else:
            x = rng.choice([x for x in elements if list(family._above(x))])
            mutants.append(_mutant(base, dropped=(x, rng.choice(list(family._above(x))))))
    return mutants


@pytest.mark.parametrize(
    "make, bound",
    [
        (TamariBinaryFamily, 5),
        (PermutationFamily, 4),
        (SurjectionFamily, 3),
        (PlanarTreeFamily, 4),
        (NotMonotone, 3),
        (ExtraCover, 4),
        (lambda: parse_poset_file(CONDITION4_FILE.read_text(encoding="utf-8")), 4),
        # a * b and a * c are not declared; the scan over comparable pairs
        # asks for a * c first, since a <= c and not a <= b
        (lambda: parse_poset_file(UNDECLARED_PAIRS), 2),
    ],
    ids=[
        "binary",
        "permutations",
        "surjections",
        "planar",
        "not-monotone",
        "extra-cover",
        "declared-late",
        "declared-undeclared",
    ],
)
def test_conditions_1_and_4_match_the_ordered_scan(make, bound):
    for condition, scan in _CONDITIONS:
        assert _trail(condition, make(), bound) == _trail(scan, make(), bound)


def test_sampled_mutants_match_the_ordered_scan():
    failed = {condition: 0 for condition, _ in _CONDITIONS}
    for make in _sampled_mutants(random.Random(39), 60):
        for condition, scan in _CONDITIONS:
            trail = _trail(condition, make(), 4)
            assert trail == _trail(scan, make(), 4)
            failed[condition] += isinstance(trail[-1], tuple) and bool(trail[-1][3])
    # the sample reaches the ordered scan of both conditions
    assert all(failed.values()), failed


def test_a_late_condition_4_failure_keeps_its_count():
    # conditions 1-3 hold, and condition 4 passes four bidegrees before (2,2)
    # fails: the count is that of the ordered scan over every bidegree
    family = parse_poset_file(CONDITION4_FILE.read_text(encoding="utf-8"))
    assert verify_dendriform_poset(family, 4).summary() == (
        "dendriform poset declared degree<=4: FAILED (243 checks)\n"
        "  condition 4 at degrees (2,2): '(|(((||)|)|))'<='((||)(|(||)))' "
        "but ('(|(||))','((||)|)') !<= ('((||)|)','(|(||))')"
    )


def test_generators_close_to_the_up_sets():
    # above holds the generating steps, and up is their reflexive-transitive
    # closure: on an acyclic relation the closure is the one solution of
    # up[i] = {i} | up[k] over the k in above[i]
    posets_with_steps = [
        (family.poset(n), family._above)
        for family in (TamariBinaryFamily(), PermutationFamily(), SurjectionFamily(), PlanarTreeFamily())
        for n in range(1, 6)
    ] + [(TamariLattice(m, n), _cover_walk) for m in range(1, 4) for n in range(1, 6)]
    for poset, steps in posets_with_steps:
        elements = poset.elements
        for i, x in enumerate(elements):
            assert [elements[k] for k in poset.above[i]] == list(steps(x))
            closed = 1 << i
            for k in poset.above[i]:
                closed |= poset.up[k]
            assert poset.up[i] == closed


@pytest.mark.parametrize(
    "bad", [((), (), ()), ((), (), (), ())], ids=["same-degree", "other-degree"]
)
def test_non_element_product_is_a_value_error(bad):
    # a product outside the poset of degree n + r is refused with one message
    # by prod, split and the verifier alike
    class Bad(TamariBinaryFamily):
        def _product(self, op, x, y):
            if op == SLASH and (x, y) == (BUD, BUD):
                return bad
            return super()._product(op, x, y)

    for call in (
        lambda: Bad().prod(SLASH, BUD, BUD),
        lambda: Bad().split(BUD, BUD),
        lambda: verify_dendriform_poset(Bad(), 4),
    ):
        with pytest.raises(ValueError, match="product / is not degree-additive"):
            call()


def test_non_element_is_a_value_error():
    corolla = pt_parse("(| | |)")  # degree 2, but not a binary tree
    with pytest.raises(ValueError, match="not a binary element of degree 2"):
        TamariBinaryFamily().leq(corolla, corolla)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (TamariBinaryFamily().poset, (0,), "need n >= 1"),
        (PermutationFamily().elements, (0,), "need n >= 1"),
        (SurjectionFamily().poset, (-1,), "need n >= 1"),
        (count_simplices, (TamariBinaryFamily(), 0, 2), "need n >= 1"),
        (count_simplices, (PlanarTreeFamily(), 0, 2), "need n >= 1"),
        (TamariBinaryFamily().split, (LEAF, BUD), r"\(\) is not a binary element of degree 0"),
        (TamariBinaryFamily().prod, (TOP, BUD, LEAF), r"\(\) is not a binary element of degree 0"),
        (PermutationFamily().leq, ((), ()), r"\(\) is not a permutations element of degree 0"),
        (parse_poset_file, ("degree 0\nelem z\n",), "degree 0 is below 1"),
    ],
    ids=[
        "binary-poset",
        "permutation-elements",
        "surjection-poset",
        "binary-count",
        "planar-count",
        "binary-split",
        "binary-prod",
        "permutation-leq",
        "declared-block",
    ],
)
def test_degree_zero_is_refused(call, args, message):
    # every family is graded by the degrees n >= 1 and lists nothing at 0
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(*args)


def test_undeclared_token_is_a_value_error():
    family = _declared()
    with pytest.raises(ValueError, match="'zz' is not a declared element"):
        family.leq("zz", "e")


@pytest.mark.parametrize(
    "family", [TamariBinaryFamily, PermutationFamily, SurjectionFamily, PlanarTreeFamily]
)
def test_simplices_are_counted_without_listing(family):
    fam = family()
    for n in range(1, 5):
        for m in range(1, 4):
            assert count_simplices(fam, n, m) == len(ordm_simplices(fam, n, m))


def test_simplex_counts_of_the_closed_forms():
    binary = TamariBinaryFamily()
    # m = 1: the poset sizes; m = 2: Chapoton's Tamari interval numbers
    assert [count_simplices(binary, n, 1) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    assert [count_simplices(binary, n, 2) for n in range(1, 7)] == [1, 3, 13, 68, 399, 2530]
    assert [count_simplices(SurjectionFamily(), n, 1) for n in range(1, 6)] == [1, 3, 13, 75, 541]
    weak_order = PermutationFamily()
    assert [count_simplices(weak_order, n, 2) for n in range(1, 6)] == [1, 3, 17, 151, 1899]
    with pytest.raises(ValueError):
        count_simplices(binary, 3, 0)


def test_ordm_simplices():
    fam = TamariBinaryFamily()
    assert ordm_simplices(fam, 2, 1) == [(t,) for t in fam.elements(2)]
    assert len(ordm_simplices(fam, 3, 2)) == 13
    # chains in a total order of size s: s*(s+1)/2 pairs
    assert len(ordm_simplices(fam, 2, 2)) == 3
    assert len(ordm_simplices(fam, 4, 2)) == sum(
        1
        for a in fam.elements(4)
        for b in fam.elements(4)
        if fam.leq(a, b)
    )


def test_ordm_product_m1_is_dendriform():
    # on 1-simplices the two products are the interval sums x succ y over
    # [x/y, x bot y] and x prec y over [x top y, x\y]
    fam = TamariBinaryFamily()
    for n, r in ((1, 1), (1, 2), (2, 1)):
        poset = fam.poset(n + r)
        for x in fam.elements(n):
            for y in fam.elements(r):
                for i, (lo_op, hi_op) in enumerate(((SLASH, PERP), (TOP, BACKSLASH))):
                    lo, hi = fam.prod(lo_op, x, y), fam.prod(hi_op, x, y)
                    interval = poset.members(poset.interval_mask(lo, hi))
                    assert ordm_product(fam, (x,), (y,), i) == LinComb(
                        ((u,), 1) for u in interval
                    )


def test_ordm_axioms():
    fam = TamariBinaryFamily()
    for m in (1, 2):
        oracle = OrdmOracle(fam, m)
        report = verify_dyck_axioms(m, 5, oracle.product, oracle.basis)
        assert report.ok, report.failures


def test_ordm_axioms_other_instances():
    # the simplex products satisfy the axioms over any dendriform poset
    for family in (PermutationFamily(), SurjectionFamily(), PlanarTreeFamily()):
        oracle = OrdmOracle(family, 2)
        report = verify_dyck_axioms(2, 4, oracle.product, oracle.basis)
        assert report.ok, (family.name, report.failures)


def test_ordm_supports_partition_full_interval():
    fam = TamariBinaryFamily()
    m = 2
    for n, r in ((1, 1), (1, 2), (2, 1)):
        for xbar in ordm_simplices(fam, n, m):
            for ybar in ordm_simplices(fam, r, m):
                union = set()
                for i in range(m + 1):
                    support = ordm_product(fam, xbar, ybar, i).support()
                    assert not (support & union)
                    union |= support
                expected = set()
                poset = fam.poset(n + r)
                ranges = [
                    poset.members(
                        poset.interval_mask(
                            fam.prod(SLASH, xbar[j], ybar[j]),
                            fam.prod(BACKSLASH, xbar[j], ybar[j]),
                        )
                    )
                    for j in range(m)
                ]
                for chain in itertools.product(*ranges):
                    if all(
                        fam.leq(chain[j], chain[j + 1]) for j in range(m - 1)
                    ):
                        expected.add(chain)
                assert union == expected


POSET_FILE = """
# three-chain over one generator: the planar-tree family in degrees 1, 2
degree 1
elem e
degree 2
elem a
elem b
elem c
cover a b
cover b c
prod / e e -> a
prod bot e e -> a
prod top e e -> b
prod \\ e e -> c
"""


def test_declared_family():
    family = parse_poset_file(POSET_FILE)
    assert family.elements(2) == ["a", "b", "c"]
    assert family.leq("a", "c")
    report = verify_dendriform_poset(family, 2)
    assert report.ok, report.failures
    # degree 1 has no product to check
    with pytest.raises(ValueError):
        verify_dendriform_poset(family, 1)
    assert ordm_product(family, ("e",), ("e",), 0) == LinComb.single(("a",))
    prec = LinComb(((("b",), 1), (("c",), 1)))
    assert ordm_product(family, ("e",), ("e",), 1) == prec


def test_declared_family_errors():
    with pytest.raises(ValueError):
        parse_poset_file("elem x\n")
    with pytest.raises(ValueError):
        parse_poset_file("degree 1\nelem x\nprod / x x -> x\n")
    with pytest.raises(ValueError):
        parse_poset_file("degree 1\nelem x\nnonsense\n")


def test_non_integer_degree_is_malformed():
    with pytest.raises(ValueError, match=r"^malformed degree line: 'degree x'$"):
        parse_poset_file("degree x\nelem e\n")


def test_pt_encode_parse():
    fam = PlanarTreeFamily()
    for t in fam.elements(3):
        assert pt_parse(pt_encode(t)) == t


def test_ordm_product_rejects_mixed_degrees():
    # the coordinates of a simplex live in one degree; a mixed pair is refused
    # instead of reading one degree's masks in another degree's poset
    fam = TamariBinaryFamily()
    x2 = fam.elements(2)[0]
    with pytest.raises(ValueError, match="different degrees"):
        ordm_product(fam, (BUD, x2), (BUD, BUD), 0)
    with pytest.raises(ValueError, match="same length"):
        ordm_product(fam, (), (), 0)
