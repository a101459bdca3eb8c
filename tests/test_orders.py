import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdyck.orders import closure_masks, mask_indices


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


@given(dags())
@settings(max_examples=200, deadline=None)
def test_closure_masks_match_reachability(dag):
    count, covers = dag
    up, down = closure_masks(count, covers)
    reach = _reachable(count, covers)
    assert [set(mask_indices(mask)) for mask in up] == reach
    assert [set(mask_indices(mask)) for mask in down] == [
        {x for x in range(count) if y in reach[x]} for y in range(count)
    ]


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
