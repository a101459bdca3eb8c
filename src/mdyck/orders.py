"""Finite poset utilities: closures of cover relations, intervals.

Posets are materialized on an indexed element list; the order relation is
stored as one up-set bitmask per element, which makes interval enumeration
a single AND.
"""

from __future__ import annotations

from typing import Iterable


def closure_masks(count: int, covers: Iterable[tuple[int, int]]):
    """Reflexive-transitive closure of an acyclic cover relation.

    ``covers`` holds index pairs (lo, hi).  Returns ``(up, down)`` where
    ``up[i]`` is the bitmask of indices j with i <= j and ``down`` the
    converse.  Raises on a cycle.

    A depth-first search along the covers builds each up-set from the
    up-sets of the elements above it when it finishes an element.  The
    reverse of that finishing order lists every element after all elements
    below it, so one pass in that order builds the down-sets the same way:
    one OR per cover on each side.
    """
    above: list[list[int]] = [[] for _ in range(count)]
    below: list[list[int]] = [[] for _ in range(count)]
    for lo, hi in covers:
        above[lo].append(hi)
        below[hi].append(lo)

    up = [0] * count
    state = [0] * count  # 0 new, 1 active, 2 done
    finished: list[int] = []
    for start in range(count):
        if state[start]:
            continue
        stack = [(start, iter(above[start]))]
        state[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state[nxt] == 1:
                    raise ValueError("cycle in cover relation (not a partial order)")
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(above[nxt])))
                    advanced = True
                    break
            if not advanced:
                mask = 1 << node
                for nxt in above[node]:
                    mask |= up[nxt]
                up[node] = mask
                state[node] = 2
                finished.append(node)
                stack.pop()
    down = [0] * count
    for node in reversed(finished):
        mask = 1 << node
        for lower in below[node]:
            mask |= down[lower]
        down[node] = mask
    return up, down


def mask_indices(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

