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
    """
    above: list[list[int]] = [[] for _ in range(count)]
    for lo, hi in covers:
        above[lo].append(hi)

    up = [0] * count
    state = [0] * count  # 0 new, 1 active, 2 done
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
                stack.pop()
    down = [0] * count
    for i in range(count):
        mask = up[i]
        while mask:
            low = mask & -mask
            down[low.bit_length() - 1] |= 1 << i
            mask ^= low
    return up, down


def mask_indices(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

