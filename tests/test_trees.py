from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdyck.exactlin import LinComb, linear_sum, term_sum
from mdyck.paths import PathOracle, path_product
from mdyck.posets import OrdmOracle, TamariBinaryFamily, ordm_product
from mdyck.series import fuss_catalan
from mdyck.simplicial import SlotTransformedOracle
from mdyck.trees import (
    LEAF,
    LEFT,
    RIGHT,
    ColoredTree,
    MemoOracle,
    TreeOracle,
    _triples,
    circ_relations,
    dyck_relations,
    enumerate_Bm,
    enumerate_Bmk,
    evaluator,
    graft,
    is_basis_Bm,
    is_basis_Bmk,
    parse_tree,
    plan_holds,
    relation_plan,
    spine_cut,
    spine_graft,
    tree_normal_form,
    tree_product,
    verify_circ_relations,
    verify_dyck_axioms,
)


def t(text):
    return parse_tree(text)


def test_graft_examples():
    assert graft(LEAF, LEAF, 0) == t("(0 | |)")
    assert graft(t("(1 | |)"), LEAF, 0) == t("(0 (1 | |) |)")
    with pytest.raises(ValueError):
        graft(LEAF, LEAF, 3, m=2)


def test_graft_degree_additivity():
    for a in enumerate_Bm(2, 2):
        for b in enumerate_Bm(2, 3):
            for i in range(3):
                assert graft(a, b, i).degree == a.degree + b.degree


def test_encode_parse_roundtrip():
    for tree in enumerate_Bm(2, 4):
        assert parse_tree(tree.encode()) == tree


def test_spine_cut_examples():
    tree = t("(2 (1 | |) (0 | (3 | |)))")
    assert spine_cut(LEAF, LEFT, lambda c: True) == (LEAF, LEAF)
    assert spine_cut(tree, RIGHT, lambda c: c > 2) == (t("(2 (1 | |) (0 | |))"), t("(3 | |)"))
    assert spine_cut(tree, LEFT, lambda c: c == 1) == (t("(2 | (0 | (3 | |)))"), t("(1 | |)"))
    # no vertex passes: v is the leaf that ends the spine, and rest is t
    assert spine_cut(tree, LEFT, lambda c: c > 5) == (tree, LEAF)
    # the root passes: rest is the leaf
    assert spine_cut(tree, RIGHT, lambda c: c == 2) == (LEAF, tree)
    assert spine_graft(t("(2 | (1 | |))"), LEFT, t("(0 | |)")) == t("(2 (0 | |) (1 | |))")
    assert spine_graft(t("(2 | (1 | |))"), RIGHT, t("(0 | |)")) == t("(2 | (1 | (0 | |)))")
    for bad in ("l", None):
        with pytest.raises(ValueError, match="^side must be LEFT or RIGHT$"):
            spine_cut(tree, bad, lambda c: True)
        with pytest.raises(ValueError, match="^side must be LEFT or RIGHT$"):
            spine_graft(tree, bad, LEAF)


def test_spine_cut_roundtrip_exhaustive(all_colored_trees):
    stops = [lambda c, s=s: c == s for s in range(3)] + [lambda c, s=s: c > s for s in range(2)]
    for n in range(1, 7):
        for tree in all_colored_trees(2, n):
            for side in (LEFT, RIGHT):
                for stop in stops:
                    rest, v = spine_cut(tree, side, stop)
                    assert spine_graft(rest, side, v) == tree
                    # the first spine vertex from the root that passes, else the end leaf
                    expected = tree
                    while not expected.is_leaf and not stop(expected.color):
                        expected = expected.left if side == LEFT else expected.right
                    assert v is expected


def test_is_basis_examples():
    assert is_basis_Bm(LEAF, 1)
    assert is_basis_Bm(t("(0 (1 | |) |)"), 1)
    assert not is_basis_Bm(t("(1 (0 | |) |)"), 1)
    with pytest.raises(ValueError):
        is_basis_Bm(t("(3 | |)"), 2)


def test_is_basis_refuses_in_prefix_order():
    # a rule failure met before the first color above m gives False; a color
    # above m met first raises, also where it sits on a spine the rule reads
    assert not is_basis_Bm(t("(1 (0 | |) (5 | |))"), 2)
    with pytest.raises(ValueError, match="color 3 exceeds m=2"):
        is_basis_Bm(t("(2 (3 (0 | |) |) |)"), 2)
    with pytest.raises(ValueError, match="color 2 exceeds m=1"):
        is_basis_Bmk(t("(0 | (2 | |))"), 1, 0)


def test_enumerate_counts():
    assert len(enumerate_Bm(1, 3)) == 5
    assert len(enumerate_Bm(2, 3)) == 12
    # one basis tree per root color in degree 2
    for m in range(1, 5):
        assert len(enumerate_Bm(m, 2)) == m + 1 == fuss_catalan(m, 2)
    for m in (1, 2, 3, 4):
        for n in range(1, 7):
            assert len(enumerate_Bm(m, n)) == fuss_catalan(m, n)


def _reference_sort_key(tree):
    # the order every printed output rests on: (degree, serial), with serial
    # (0,) for the leaf and (1 + color,) + left serial + right serial otherwise
    def serial(t):
        if t.is_leaf:
            return (0,)
        return (1 + t.color,) + serial(t.left) + serial(t.right)

    return (tree.degree, serial(tree))


def test_sort_key_matches_reference_on_basis_trees():
    for m in (1, 2, 3):
        for n in range(1, 6):
            basis = enumerate_Bm(m, n)
            assert [t.sort_key() for t in basis] == [_reference_sort_key(t) for t in basis]
            assert basis == sorted(basis, key=_reference_sort_key)
            assert sorted(basis[::-1]) == basis


def test_every_basis_is_strictly_increasing_in_sort_key_order():
    # _basis lists each degree in the order it builds, with no sort: that
    # order must be sort_key's
    for m in (1, 2, 3, 4):
        for k in range(m + 1):
            for n in range(1, {3: 7, 4: 6}.get(m, 8)):
                basis = enumerate_Bmk(m, k, n)
                assert basis == sorted(basis, key=ColoredTree.sort_key), (m, k, n)
                keys = [tree.sort_key() for tree in basis]
                assert all(a < b for a, b in zip(keys, keys[1:])), (m, k, n)


colored_trees = st.recursive(
    st.just(LEAF),
    lambda sub: st.builds(ColoredTree, st.integers(0, 4), sub, sub),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(colored_trees, colored_trees)
def test_sort_key_matches_reference_on_colored_trees(a, b):
    assert a.sort_key() == _reference_sort_key(a)
    assert (a < b) == (_reference_sort_key(a) < _reference_sort_key(b))


def test_product_examples():
    for m in (1, 2, 3):
        for i in range(m + 1):
            assert tree_product(LEAF, LEAF, i, m) == LinComb.single(
                ColoredTree(i, LEAF, LEAF)
            )
    got = tree_product(t("(1 | |)"), LEAF, 1, 1)
    assert got == LinComb(
        ((t("(1 | (0 | |))"), 1), (t("(1 | (1 | |))"), 1))
    )
    assert tree_product(t("(1 | |)"), LEAF, 0, 1) == LinComb.single(
        t("(0 (1 | |) |)")
    )


def test_product_rejects_non_basis():
    with pytest.raises(ValueError):
        tree_product(t("(1 (0 | |) |)"), LEAF, 0, 1)
    with pytest.raises(ValueError):
        tree_product(LEAF, LEAF, 5, 2)


def test_product_coefficients_and_degrees():
    # tree-basis expansions are signed but always integral, homogeneous and
    # supported on basis trees; mapped to the path model the full product
    # *_0 + ... + *_m becomes a sum with all coefficients +1
    from mdyck.paths import phi

    for m in (1, 2):
        for na in (1, 2):
            for nb in (1, 2):
                for a in enumerate_Bm(m, na):
                    for b in enumerate_Bm(m, nb):
                        union = LinComb.zero()
                        for i in range(m + 1):
                            product = tree_product(a, b, i, m)
                            assert all(
                                c.denominator == 1 for _, c in product.items()
                            )
                            assert all(u.degree == na + nb for u in product)
                            assert all(is_basis_Bm(u, m) for u in product)
                            union = union + product
                        image = LinComb.zero()
                        for u, c in union.items():
                            image = image + phi(u, m).scale(c)
                        assert all(c == 1 for _, c in image.items())


def test_product_root_color_bound():
    # the root color of every term is at least min(i, root color of t)
    for m in (1, 2):
        for a in enumerate_Bm(m, 2) + enumerate_Bm(m, 3):
            for b in enumerate_Bm(m, 2):
                for i in range(m + 1):
                    bound = i if a.is_leaf else min(i, a.color)
                    assert all(
                        u.color >= bound for u in tree_product(a, b, i, m)
                    )


def _reference_product(m, t, w, i, memo):
    # t *_i w by the grafting recursion, each step a LinComb and linear_sum
    key = (t, w, i)
    if key not in memo:

        def graft_left(color, comb):
            return LinComb({ColoredTree(color, t.left, u): c for u, c in comb.items()})

        def graft_right(comb):
            return LinComb({ColoredTree(i, u, w): c for u, c in comb.items()})

        if t.is_leaf or i < t.color:
            memo[key] = LinComb.single(ColoredTree(i, t, w))
        elif t.color < i:
            memo[key] = graft_left(t.color, _reference_product(m, t.right, w, i, memo))
        else:
            terms = [
                (graft_left(i, _reference_product(m, t.right, w, k, memo)), 1)
                for k in range(i + 1)
            ]
            terms += [
                (graft_right(_reference_product(m, t.left, t.right, k, memo)), -1)
                for k in range(i + 1, m + 1)
            ]
            memo[key] = linear_sum(terms)
    return memo[key]


def _direct(t, i):
    # t *_i w is the graft t v_i w
    return t.is_leaf or i < t.color


def _one_lookup_away(t, i):
    # t *_i w is the single tree t.left v_c (t.right v_i w), c = t.color < i
    return not t.is_leaf and t.color < i and _direct(t.right, i)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_tree_products_match_the_graft_reference(m):
    oracle, reference = TreeOracle(m), {}
    for n1 in range(1, 6):
        for n2 in range(1, 7 - n1):
            for x in enumerate_Bm(m, n1):
                for y in enumerate_Bm(m, n2):
                    for i in range(m + 1):
                        product = oracle.product(x, y, i)
                        assert type(product) is dict
                        assert LinComb.of_terms(product) == _reference_product(m, x, y, i, reference)
                        assert 0 not in product.values()
                        if _direct(x, i):
                            # a direct graft is read from the intern table, never memoised
                            assert (x, y, i) not in oracle._memo
                            assert product == {graft(x, y, i): 1}
                        elif _one_lookup_away(x, i):
                            # as is x.left v_c (x.right v_i y), two lookups away
                            assert (x, y, i) not in oracle._memo
                            inner = graft(x.right, y, i)
                            assert product == {graft(x.left, inner, x.color): 1}
                        else:
                            assert oracle._memo[(x, y, i)] is product
                            assert oracle.product(x, y, i) is product


def test_the_tree_memo_holds_only_computed_products():
    # pinned: 666 entries before direct grafts left the memo, 323 after, and
    # 229 once a graft below a direct graft (two lookups away) left it too
    oracle = TreeOracle(2)
    assert verify_dyck_axioms(2, 5, oracle.product, oracle.basis).checks == 438
    assert len(oracle._memo) == 229
    assert not any(_direct(t, i) or _one_lookup_away(t, i) for t, _, i in oracle._memo)


def test_axioms_tree_oracle():
    for m in (1, 2, 3):
        oracle = TreeOracle(m)
        report = verify_dyck_axioms(m, 5, oracle.product, oracle.basis)
        assert report.ok, report.failures


@pytest.mark.parametrize(
    "verifier, y, i, replacement, checks, prefix",
    [
        pytest.param(
            verify_dyck_axioms, "|", 1, "(0 | |)", 1, "interchange fails at i=0 j=1",
            id="interchange",
        ),
        pytest.param(
            verify_dyck_axioms, "(0 | |)", 0, None, 2, "mixed associativity fails at i=0",
            id="mixed",
        ),
        pytest.param(
            verify_circ_relations, "|", 0, None, 1, "difference relation fails i=0 j=1",
            id="difference",
        ),
        pytest.param(
            verify_circ_relations, "(0 | |)", 0, None, 2, "bottom relation fails",
            id="bottom",
        ),
        pytest.param(
            verify_circ_relations, "(0 | |)", 1, None, 3, "diagonal relation fails i=1",
            id="diagonal",
        ),
    ],
)
def test_axioms_corrupted_oracle_reports_counterexample(
    verifier, y, i, replacement, checks, prefix
):
    # the product | *_i y is replaced (None: by zero); every family reports
    # its first counterexample, here always the triple of leaves
    oracle = TreeOracle(1)
    bad = (LEAF, t(y), i)
    wrong = {t(replacement): 1} if replacement else {}

    def corrupted(a, b, k):
        if (a, b, k) == bad:
            return wrong
        return oracle.product(a, b, k)

    report = verifier(1, 3, corrupted, oracle.basis)
    assert not report.ok
    assert report.failures == [f"{prefix} x=| y=| z=|"]
    assert report.checks == checks


def test_normal_form():
    # basis trees are their own normal form
    for tree in enumerate_Bm(2, 3):
        assert tree_normal_form(tree, 2) == LinComb.single(tree)
    # a non-basis tree expands through the product recursion
    bad = t("(1 (0 | |) |)")
    assert tree_normal_form(bad, 1) == tree_product(t("(0 | |)"), LEAF, 1, 1)
    # the evaluator over an oracle shares its product memo and agrees with it;
    # (0 | |) *_1 | is a graft two lookups away, which no memo holds
    oracle = TreeOracle(1)
    assert evaluator(oracle.product, LEAF)(bad) == tree_normal_form(bad, 1)
    assert not oracle._memo
    deeper = t("(1 (0 | (0 | |)) |)")
    assert evaluator(oracle.product, LEAF)(deeper) == tree_normal_form(deeper, 1)
    assert oracle._memo
    # the evaluator checks no colors; tree_normal_form refuses one above m,
    # as read by max_color, which is -1 on the leaf
    with pytest.raises(ValueError, match="color exceeds m"):
        tree_normal_form(t("(2 | |)"), 1)
    assert LEAF.max_color() == -1
    assert deeper.max_color() == 1


PROTOCOL_ORACLES = {
    "trees": (TreeOracle(2), lambda x, y, i: tree_product(x, y, i, 2)),
    "paths": (PathOracle(2), path_product),
    "ordm": (
        OrdmOracle(TamariBinaryFamily(), 2),
        lambda x, y, i: ordm_product(TamariBinaryFamily(), x, y, i),
    ),
    # the partial sums o_i = *_0 + ... + *_i of the tree products
    "partial-sums": (
        SlotTransformedOracle(TreeOracle(2), ((0,), (0, 1), (0, 1, 2))),
        lambda x, y, i: linear_sum((tree_product(x, y, k, 2), 1) for k in range(i + 1)),
    ),
}


@pytest.mark.parametrize("model", sorted(PROTOCOL_ORACLES))
def test_oracle_products_are_the_term_dicts_of_the_public_products(model):
    # a product is a plain dict with int values and no zero, the terms of the
    # LinComb that the model's public product gives
    oracle, public = PROTOCOL_ORACLES[model]
    pairs = 0
    for n1 in range(1, 5):
        for n2 in range(1, 6 - n1):
            for x in oracle.basis(n1):
                for y in oracle.basis(n2):
                    pairs += 1
                    for i in range(3):
                        product = oracle.product(x, y, i)
                        assert type(product) is dict
                        assert all(type(c) is int and c for c in product.values())
                        assert LinComb.of_terms(product) == public(x, y, i)
                        assert oracle.product(x, y, i) == product
    assert pairs > 0


def test_the_path_and_simplex_oracles_are_memo_oracles():
    # each states only how it is built; the memo lookup is MemoOracle's
    for cls in (PathOracle, OrdmOracle):
        assert cls.__mro__[1] is MemoOracle
        assert {name for name in vars(cls) if not name.startswith("__")} == set()
        assert "__init__" in vars(cls)
    calls = []

    def compute(x, y, i):
        calls.append((x, y, i))
        return {x + y: i}

    oracle = MemoOracle(1, range, compute)
    assert oracle.product("a", "b", 1) is oracle.product("a", "b", 1)
    assert calls == [("a", "b", 1)] and oracle.basis(2) == range(2)


def test_sweeps_and_evaluators_only_read_oracle_products():
    # a product is shared with the memo: every reader must leave it unchanged,
    # so each one here is handed a read-only view
    oracle = TreeOracle(2)

    def read_only(a, b, k):
        return MappingProxyType(oracle.product(a, b, k))

    assert verify_dyck_axioms(2, 5, read_only, oracle.basis).ok
    assert verify_circ_relations(2, 5, read_only, oracle.basis).ok
    tree = t("(1 (0 | (0 | |)) (2 | |))")
    assert evaluator(read_only, LEAF)(tree) == tree_normal_form(tree, 2)


def test_circ_convert():
    oracle = TreeOracle(2)
    # partial sums o_i = *_0 + ... + *_i
    circ = SlotTransformedOracle(oracle, ((0,), (0, 1), (0, 1, 2)))
    a, b = t("(2 | |)"), LEAF
    assert circ.product(a, b, 0) == oracle.product(a, b, 0)
    full = term_sum((oracle.product(a, b, k), 1) for k in range(3))
    assert circ.product(a, b, 2) == full


def test_circ_relations():
    oracle = TreeOracle(1)
    report = verify_circ_relations(1, 5, oracle.product, oracle.basis)
    assert report.ok, report.failures
    oracle = TreeOracle(2)
    report = verify_circ_relations(2, 4, oracle.product, oracle.basis)
    assert report.ok, report.failures


@pytest.mark.parametrize("verifier", [verify_dyck_axioms, verify_circ_relations])
def test_sweeps_reject_a_bound_without_triples(verifier):
    # below total degree 3 there is no basis triple: no vacuous "ok (0 checks)"
    oracle = TreeOracle(2)
    with pytest.raises(ValueError, match="need max_total_degree >= 3"):
        verifier(2, 2, oracle.product, oracle.basis)


# ---------------------------------------------------------------------------
# The relation engine against a reference that evaluates every bracket


def _reference_holds(product, x, y, z, lhs, rhs):
    def bracket(kind, a, b):
        if kind == "L":
            return linear_sum((product(x, u, a), c) for u, c in product(y, z, b).items())
        return linear_sum((product(u, z, b), c) for u, c in product(x, y, a).items())

    def side(terms):
        return linear_sum((bracket(kind, a, b), c) for c, kind, a, b in terms)

    return side(lhs) == side(rhs)


def _reference_sweep(relations, max_total_degree, product, basis):
    checks = 0
    for n1 in range(1, max_total_degree - 1):
        for n2 in range(1, max_total_degree - n1):
            for n3 in range(1, max_total_degree - n1 - n2 + 1):
                for x in basis(n1):
                    for y in basis(n2):
                        for z in basis(n3):
                            for label, lhs, rhs in relations:
                                checks += 1
                                if not _reference_holds(product, x, y, z, lhs, rhs):
                                    return checks, [f"{label} x={x!r} y={y!r} z={z!r}"]
    return checks, []


ORACLES = {"trees": TreeOracle(2), "paths": PathOracle(2)}
signed_terms = st.lists(
    st.tuples(st.integers(-2, 2), st.sampled_from("LR"), st.integers(0, 2), st.integers(0, 2)),
    max_size=4,
).map(tuple)
# random relations, most of which fail, and the Dyck relations, which hold
relation_tables = st.lists(st.tuples(signed_terms, signed_terms), min_size=1, max_size=3).map(
    lambda table: table + [(lhs, rhs) for _, lhs, rhs in dyck_relations(2)]
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(ORACLES)),
    st.sampled_from([(1, 1, 1), (1, 1, 3), (1, 2, 2), (2, 1, 2), (3, 1, 1), (1, 3, 1)]),
    relation_tables,
    st.data(),
)
def test_relation_plans_match_the_bracket_reference(model, degrees, table, data):
    oracle = ORACLES[model]
    x, y = (data.draw(st.sampled_from(oracle.basis(n))) for n in degrees[:2])
    plans = [relation_plan(lhs, rhs) for lhs, rhs in table]
    xy = {}  # shared by every z of the pair, as in the sweep
    for z in oracle.basis(degrees[2]):
        yz = {}  # shared by every plan of the triple
        for plan, (lhs, rhs) in zip(plans, table):
            holds = plan_holds(plan, oracle.product, x, y, z, yz, xy)
            assert holds == _reference_holds(oracle.product, x, y, z, lhs, rhs)


# a multiplier on the keys 0..3 that draws each product as a random rational
# combination on first use, so that inner and outer sums merge and cancel
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
key_combs = st.dictionaries(st.integers(0, 3), rationals, max_size=3).map(LinComb)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.tuples(*[st.integers(0, 3)] * 3), signed_terms, signed_terms)
def test_plan_holds_is_the_zero_test_of_linear_sum(data, triple, lhs, rhs):
    table = {}

    def product(a, b, k):
        if (a, b, k) not in table:
            table[a, b, k] = data.draw(key_combs)
        return table[a, b, k]

    x, y, z = triple
    plan = relation_plan(lhs, rhs)
    assert plan_holds(plan, product, x, y, z, {}, {}) == _reference_holds(
        product, x, y, z, lhs, rhs
    )
    negated = tuple((kind, outer, tuple((k, -c) for k, c in inner)) for kind, outer, inner in plan)
    assert plan_holds(plan + negated, product, x, y, z, {}, {})


def test_plan_holds_keeps_the_multipliers_single_products_by_k():
    # no inner sum is built: y *_k z and x *_k y are kept under the int k,
    # as the very dicts that the multiplier returned
    oracle = TreeOracle(2)
    returned = {}

    def product(a, b, k):
        return returned.setdefault((a, b, k), oracle.product(a, b, k))

    x, y, z = oracle.basis(2)[-1], oracle.basis(2)[0], oracle.basis(2)[1]
    yz, xy = {}, {}
    for _, lhs, rhs in dyck_relations(2):
        assert plan_holds(relation_plan(lhs, rhs), product, x, y, z, yz, xy)
    assert sorted(yz) == sorted(xy) == [0, 1, 2]
    assert all(type(k) is int for k in (*yz, *xy))
    assert all(yz[k] is returned[y, z, k] and xy[k] is returned[x, y, k] for k in range(3))


@pytest.mark.parametrize("model", sorted(ORACLES))
def test_axiom_sweep_multiplier_calls_are_pinned(model):
    # one multiplier call per outer product of each inner term, and no more
    oracle = ORACLES[model]
    counts = [0, 0]

    def product(a, b, k):
        result = oracle.product(a, b, k)
        counts[0] += 1
        counts[1] += len(result)
        return result

    assert verify_dyck_axioms(2, 5, product, oracle.basis).ok
    assert counts == [2217, 4161]


@pytest.mark.parametrize("max_total_degree", [2, 3, 5, 6])
def test_triples_match_the_nested_loop_reference(max_total_degree):
    # degree triple outermost, then x, y, z; one fresh xy dict per (n3, x, y)
    basis = ORACLES["trees"].basis
    expected = []
    for n1 in range(1, max_total_degree - 1):
        for n2 in range(1, max_total_degree - n1):
            for n3 in range(1, max_total_degree - n1 - n2 + 1):
                for x in basis(n1):
                    for y in basis(n2):
                        expected.append((n3, x, y, basis(n3)))
    triples = list(_triples(max_total_degree, basis))
    assert [(x, y, z) for x, y, z, _ in triples] == [
        (x, y, z) for _, x, y, zs in expected for z in zs
    ]
    memos = [xy for _, _, _, xy in triples]
    assert all(xy == {} for xy in memos)
    runs = [len(zs) for _, _, _, zs in expected]
    assert len({id(xy) for xy in memos}) == len(runs)
    start = 0
    for run in runs:
        assert all(xy is memos[start] for xy in memos[start : start + run])
        start += run


@pytest.mark.parametrize("model", sorted(ORACLES))
def test_sweep_reports_the_reference_failure(model):
    # one product of degree-2 operands is doubled, so the first failure
    # comes after the first triple; both report the same relation, triple
    # and check count
    oracle = ORACLES[model]
    a, b = oracle.basis(2)[-1], oracle.basis(2)[0]

    def faulty(u, v, k):
        result = oracle.product(u, v, k)
        return {w: 2 * c for w, c in result.items()} if (u, v, k) == (a, b, 1) else result

    for verifier, relations in (
        (verify_dyck_axioms, dyck_relations(2)),
        (verify_circ_relations, circ_relations(2)),
    ):
        report = verifier(2, 5, faulty, oracle.basis)
        assert not report.ok
        assert report.checks > len(relations)
        expected = _reference_sweep(relations, 5, faulty, oracle.basis)
        assert (report.checks, report.failures) == expected
