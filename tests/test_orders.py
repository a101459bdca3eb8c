import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdyck.orders import FinitePoset, closure_masks, mask_indices
from mdyck.tamari import build_lattice


@st.composite
def dags(draw):
    # edges go up a hidden topological rank; a shuffle of the indices hides
    # it, and elements on no edge stay isolated
    count = draw(st.integers(0, 12))
    order = draw(st.permutations(range(count)))
    pairs = st.tuples(st.integers(0, max(count - 1, 0)), st.integers(0, max(count - 1, 0)))
    edges = draw(st.lists(pairs, max_size=30)) if count else []
    covers = [(order[a], order[b]) for a, b in edges if a < b]
    return count, covers


@st.composite
def digraphs(draw):
    # a hidden DAG plus a few arbitrary pairs: self-loops, repeated pairs and
    # back edges, so a cycle often sits above or below acyclic parts
    count, covers = draw(dags())
    if count:
        node = st.integers(0, count - 1)
        covers += draw(st.lists(st.tuples(node, node), max_size=3))
    if covers:
        covers += draw(st.lists(st.sampled_from(covers), max_size=3))
    return count, draw(st.permutations(covers))


def _reachable(count, covers):
    above = {x: [b for a, b in covers if a == x] for x in range(count)}
    out = []
    for start in range(count):
        seen = {start}
        todo = [start]
        while todo:
            for nxt in above[todo.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        out.append(seen)
    return out


def _assert_closure_is_reachability(count, covers, reach):
    up, down = closure_masks(count, covers)
    assert [set(mask_indices(mask)) for mask in up] == reach
    assert [set(mask_indices(mask)) for mask in down] == [
        {x for x in range(count) if y in reach[x]} for y in range(count)
    ]


@given(dags())
@settings(max_examples=200, deadline=None)
def test_closure_masks_match_reachability(dag):
    count, covers = dag
    _assert_closure_is_reachability(count, covers, _reachable(count, covers))


@given(digraphs())
@settings(max_examples=300, deadline=None)
def test_closure_masks_raise_exactly_on_cycles(graph):
    count, covers = graph
    reach = _reachable(count, covers)
    # a pair (a, b) closes a cycle when b reaches a
    if any(a in reach[b] for a, b in covers):
        with pytest.raises(ValueError, match="cycle in cover relation"):
            closure_masks(count, covers)
    else:
        _assert_closure_is_reachability(count, covers, reach)


def test_closure_masks_of_nothing():
    assert closure_masks(0, []) == ([], [])
    assert closure_masks(3, []) == ([1, 2, 4], [1, 2, 4])


@pytest.mark.parametrize(
    "covers",
    [[(0, 1), (1, 0)], [(1, 1)], [(0, 1), (1, 2), (2, 0)]],
    ids=["2-cycle", "self-cover", "3-cycle"],
)
def test_closure_masks_reject_cycles(covers):
    with pytest.raises(ValueError, match="cycle in cover relation"):
        closure_masks(3, covers)


def _poset(count, covers):
    # elements are labels, not indices, so a mix-up of the two shows
    names = [f"e{i}" for i in range(count)]
    above = {x: [names[b] for a, b in covers if a == i] for i, x in enumerate(names)}
    return names, FinitePoset(names, above.__getitem__)


@given(dags())
@settings(max_examples=200, deadline=None)
def test_finite_poset_matches_reachability(dag):
    count, covers = dag
    names, poset = _poset(count, covers)
    reach = _reachable(count, covers)
    assert poset.elements == tuple(names)
    assert poset.index == {x: i for i, x in enumerate(names)}
    assert poset.above == tuple(tuple(b for a, b in covers if a == i) for i in range(count))
    for a, b in itertools.product(range(count), repeat=2):
        between = [names[k] for k in range(count) if k in reach[a] and b in reach[k]]
        assert poset.leq(names[a], names[b]) == (b in reach[a])
        assert poset.members(poset.interval_mask(names[a], names[b])) == between
        if b not in reach[a]:
            assert poset.interval_mask(names[a], names[b]) == 0
    # the mask is total: a bound that is not an element gives 0
    for x in names:
        assert poset.interval_mask(x, "absent") == poset.interval_mask("absent", x) == 0
    assert poset.interval_mask("absent", "absent") == 0


@given(dags(), st.data())
@settings(max_examples=100, deadline=None)
def test_up_sums_match_a_per_element_loop(dag, data):
    count, covers = dag
    _, poset = _poset(count, covers)
    reach = _reachable(count, covers)
    values = data.draw(st.lists(st.integers(0, 2**70), min_size=count, max_size=count))
    assert poset.up_sums(values) == [sum(values[k] for k in reach[i]) for i in range(count)]


@given(dags(), st.data())
@settings(max_examples=100, deadline=None)
def test_finite_poset_chains_match_brute_force(dag, data):
    count, covers = dag
    names, poset = _poset(count, covers)
    reach = _reachable(count, covers)
    masks = data.draw(st.lists(st.integers(0, (1 << count) - 1), min_size=0, max_size=3))
    expected = [
        tuple(names[k] for k in chain)
        for chain in itertools.product(range(count), repeat=len(masks))
        if all(masks[j] >> k & 1 for j, k in enumerate(chain))
        and all(b in reach[a] for a, b in zip(chain, chain[1:]))
    ]
    assert poset.chains(masks) == expected


@pytest.mark.parametrize("name", ["elements", "index", "above", "up", "down", "cover_pairs", "m"])
def test_finite_posets_are_immutable(name):
    # one lattice per (m, n) is shared by every caller
    _, poset = _poset(2, [(0, 1)])
    lattice = build_lattice(1, 3)
    for target in (poset, lattice):
        with pytest.raises(AttributeError):
            setattr(target, name, None)
        with pytest.raises(AttributeError):
            delattr(target, name)
    assert lattice.interval_count() == 13
