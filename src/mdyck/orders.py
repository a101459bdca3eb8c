"""Finite posets materialized on an indexed element tuple.

:class:`FinitePoset` is the one finite-poset type of the package: the
m-Tamari lattices and every degree of a dendriform-poset family are
instances.  The order is stored as one up-set and one down-set bitmask per
element index, built once from the covers by :func:`closure_masks` in
Kahn's topological order with one OR per cover each way, so an interval is
a single AND and a chain extends by masking with an up-set.  The generating
steps are kept too, so that a property transitivity carries is checked on
them alone.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .reporting import _immutable


def closure_masks(count: int, covers: Iterable[tuple[int, int]]):
    """Reflexive-transitive closure of an acyclic cover relation.

    ``covers`` holds index pairs (lo, hi).  Returns ``(up, down)`` where
    ``up[i]`` is the bitmask of indices j with i <= j and ``down`` the
    converse.  Raises on a cycle.

    Kahn's algorithm lists each element once all its lower covers are
    listed, so a short list means a cycle.  Down-sets are built in list
    order and up-sets in reverse list order: one OR per cover each way.
    """
    above: list[list[int]] = [[] for _ in range(count)]
    below: list[list[int]] = [[] for _ in range(count)]
    for lo, hi in covers:
        above[lo].append(hi)
        below[hi].append(lo)
    pending = [len(lower) for lower in below]
    order = [node for node in range(count) if not pending[node]]
    for node in order:  # the loop also visits what it appends
        for hi in above[node]:
            pending[hi] -= 1
            if not pending[hi]:
                order.append(hi)
    if len(order) < count:
        raise ValueError("cycle in cover relation (not a partial order)")
    up, down = [0] * count, [0] * count
    for node in order:
        mask = 1 << node
        for lo in below[node]:
            mask |= down[lo]
        down[node] = mask
    for node in reversed(order):
        mask = 1 << node
        for hi in above[node]:
            mask |= up[hi]
        up[node] = mask
    return up, down


def mask_indices(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """A finite poset on an element tuple; immutable after construction.

    ``above(x)`` gives the elements y > x that generate the order; they are
    kept as ``above[i]``, the tuple of their indices, and the
    reflexive-transitive closure is taken once.  ``index`` maps each element
    to its position in ``elements``, and ``up[i]`` / ``down[i]`` are the
    bitmasks of the indices above / below index i.
    """

    __slots__ = ("elements", "index", "above", "up", "down")

    def __init__(self, elements: Iterable, above: Callable[[object], Iterable]):
        elements = tuple(elements)
        index = {x: i for i, x in enumerate(elements)}
        pairs = [(i, index[y]) for i, x in enumerate(elements) for y in above(x)]
        steps: list[list[int]] = [[] for _ in elements]
        for i, j in pairs:
            steps[i].append(j)
        up, down = closure_masks(len(elements), pairs)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "above", tuple(map(tuple, steps)))
        object.__setattr__(self, "up", tuple(up))
        object.__setattr__(self, "down", tuple(down))

    __setattr__ = __delattr__ = _immutable

    def interval_mask(self, lo, hi) -> int:
        """Bitmask of [lo, hi]; 0 exactly when lo is not below hi or a bound is
        not an element."""
        a, b = self.index.get(lo), self.index.get(hi)
        return 0 if a is None or b is None else self.up[a] & self.down[b]

    def leq(self, x, y) -> bool:
        return bool(self.up[self.index[x]] >> self.index[y] & 1)

    def up_sums(self, values) -> list[int]:
        """For each index i, the sum of the non-negative ``values[j]`` over
        the j in its up-set.

        ``values`` is split into bit planes, the mask of the indices whose
        value has a given bit set, so each sum is one popcount per plane
        instead of a walk over the up-set.  The planes come from the most
        significant bit down, each doubling the sums so far.
        """
        width = max(values, default=0).bit_length()
        sums = [0] * len(self.up)
        for column in zip(*(format(v, f"0{width}b") for v in reversed(values))):
            plane = int("".join(column), 2)
            sums = [2 * s + (mask & plane).bit_count() for s, mask in zip(sums, self.up)]
        return sums

    def members(self, mask: int) -> list:
        """The elements whose indices are the bits of ``mask``, in order."""
        elements = self.elements
        return [elements[i] for i in mask_indices(mask)]

    def chains(self, masks) -> list[tuple]:
        """Weakly increasing chains (u_1, ..., u_k), u_j among the bits of masks[j].

        Each level extends every partial chain by one coordinate; a partial
        chain is paired with the up-set of its last element (-1, every index,
        for the empty chain).  Chains come in lexicographic index order.
        """
        elements, up = self.elements, self.up
        level = [((), -1)]
        for mask in masks:
            level = [
                (chain + (elements[i],), up[i])
                for chain, allowed in level
                for i in mask_indices(mask & allowed)
            ]
        return [chain for chain, _ in level]
