"""The m-Tamari order on m-Dyck paths and its interval description of products.

The covering relation rotates a down step past the excursion of the up step
that follows it.  The resulting poset is a lattice, and only its intervals
are read: they describe every product on the path model, as P *_i Q is the
sum of all paths between a lower bound P /_i Q and an upper bound P \\_i Q,
read off from suffix statistics of the top color word.  Both bounds are
P *_lam Q for an extreme composition lam of class i, its last for the lower
bound and its first for the upper one; :func:`_class_bounds` is that rule,
and both :func:`slash_i`/:func:`backslash_i` and the check of the theorem,
which builds every class of a pair from one star template, read it.  The
DOT rendering reads the covers alone and builds no lattice.
"""

from __future__ import annotations

from functools import cache, partial

from . import series
from .orders import FinitePoset
from .paths import (
    DOWN,
    UP,
    _PATHS,
    DyckPath,
    _class_table,
    _classes,
    _multiplicity_class,
    _path_from_steps,
    _star_cuts,
    _star_paths,
    enumerate_paths,
    lambda_sets,
    standard_coloring,
)
from .reporting import CheckReport


def _rotations(P: DyckPath):
    """Yield (pos, end, rotated steps) for every rotation of P.

    For each down step d at ``pos`` immediately followed by an up step u,
    the excursion of u is the minimal sub-path from u back down to u's
    starting height, ending at ``end``; d is re-attached after that final
    (matching) down step.
    """
    steps = P.steps()
    for pos in range(len(steps) - 1):
        if steps[pos] != DOWN or steps[pos + 1] != UP:
            continue
        # height relative to the start of the excursion
        h = 0
        for end in range(pos + 1, len(steps)):
            h += P.m if steps[end] == UP else -1
            if h == 0:
                break
        yield pos, end, steps[:pos] + steps[pos + 1 : end + 1] + (DOWN,) + steps[end + 1 :]


def _cover_walk(P: DyckPath) -> list[DyckPath]:
    """All rotations P -> P_(d), in the order the walk finds them.

    On level sequences: the last down step of level k (L_k >= 1, k < n)
    precedes up step k+1, whose excursion closes in the first level j > k
    with sum_{t=k+1..j} (m - L_t) <= 0.  The rotation moves that down step
    from level k to level j; :func:`_rotations` is the same walk on steps.
    A rotated level sequence is looked up among the interned paths before
    :class:`DyckPath` validates it.
    """
    m, levels, get = P.m, P.levels, _PATHS.get
    out = []
    for k in range(len(levels) - 1):
        if not levels[k]:
            continue
        # the excursion closes by the last level, as the path ends on the axis
        j, rise = k + 1, m - levels[k + 1]
        while rise > 0:
            j += 1
            rise += m - levels[j]
        rotated = list(levels)
        rotated[k] -= 1
        rotated[j] += 1
        key = (m, tuple(rotated))
        out.append(get(key) or DyckPath(*key))
    return out


def covers(P: DyckPath) -> list[DyckPath]:
    """All rotations P -> P_(d): move a pre-up down step past the excursion.

    The paths of :func:`_cover_walk`, sorted; the lattice and
    :func:`hasse_dot` take the walk unsorted, since neither the order nor
    the sorted edge list depends on that of the covers.
    """
    return sorted(_cover_walk(P), key=DyckPath.sort_key)


class TamariLattice(FinitePoset):
    """Materialized m-Tamari order on the m-Dyck paths of size n."""

    __slots__ = ()

    def __init__(self, m: int, n: int):
        super().__init__(enumerate_paths(m, n), _cover_walk)

    def interval(self, P: DyckPath, Q: DyckPath) -> list[DyckPath]:
        mask = self.interval_mask(P, Q)
        if not mask:
            raise ValueError(f"{P!r} is not below {Q!r}")
        return self.members(mask)

    def interval_count(self) -> int:
        return sum(self.up[i].bit_count() for i in range(len(self.elements)))


DEFAULT_CAP = 20000
_LONG = 10**30  # no size this large is printed


def check_size(
    n: int,
    m: int = 1,
    cap: int = DEFAULT_CAP,
    poset: str = "",
    size_of=None,
    option: str = "",
    unit: str = "elements",
) -> None:
    """Refuse degree n when it has more than ``cap`` elements.

    This is the size rule of every command. The elements are the d(m, n)
    m-Dyck paths of size n or, given ``poset``, that family's poset of
    degree n; the Tamari poset of degree n is the m = 1 case. Given
    ``option``, n is that option's value and ``size_of(n)`` what it costs,
    counted in ``unit``. Sizes ``size_of(k)``, d(m, k) by default, grow
    with k, so the least degree k over the cap is found walking up from 1
    and n is refused exactly when n >= k: a far bound costs no more than a
    near one. A size is printed only while it is cheap and short: that of n
    only when n <= 2k, and none from ``_LONG`` up.
    """
    size_of = size_of or partial(series.fuss_catalan, m)
    k = 1
    while k <= n and (size := size_of(k)) <= cap:
        k += 1
    if k > n:
        return
    exact = size_of(n) if n <= 2 * k else _LONG
    if option or poset:
        if option:
            what, witness, has = f"{option} {n}", f"{option} {k}", "costs"
        else:
            what, witness, has = f"the {poset} poset of degree {n}", f"that of degree {k}", "has"
        if exact < _LONG:
            raise ValueError(f"{what} {has} {exact} {unit}, more than {cap}")
        message, shown = f"{what} {has} more than {cap} {unit}", f"{has} {size}"
    else:
        what, witness = f"d({m},{n})", f"d({m},{k})"
        if exact < _LONG:
            raise ValueError(f"{what} = {exact} exceeds cap {cap}")
        message, shown = f"{what} exceeds cap {cap}", f"= {size} does"
    if n > k:
        message += f", as {witness} " + ("does" if size >= _LONG else shown)
    raise ValueError(message)


def build_lattice(m: int, n: int, cap: int = DEFAULT_CAP) -> TamariLattice:
    check_size(n, m, cap)
    return _lattice(m, n)


_lattice = cache(TamariLattice)


def c_bound(P: DyckPath, i: int) -> int:
    """Minimal suffix length of the top word with maximal multiplicity i."""
    return _multiplicity_class(P, i)[0]


def C_bound(P: DyckPath, i: int) -> int:
    """Maximal suffix length of the top word with maximal multiplicity i."""
    return _multiplicity_class(P, i)[-1]


def _class_bounds(seq, start: int, end: int):
    """(lo, hi) of the class at seq[start:end] of a table of
    :func:`~mdyck.paths._class_table`.

    A class lists its compositions in lexicographic order, so the first is
    (0, ..., 0, L - C_i, C_i), that of hi = P \\_i Q, and the last is
    (L - c_i, 0, ..., 0, c_i), that of lo = P /_i Q.  ``seq`` holds the
    compositions, the paths built from them, or their lattice indices.
    """
    return seq[end - 1], seq[start]


def _bound_lams(P: DyckPath, Q: DyckPath, i: int):
    # the class-i compositions of lo and hi, as _class_bounds picks them
    lams = lambda_sets(P, len(_star_cuts(Q)) - 1, i)
    return _class_bounds(lams, 0, len(lams))


def slash_i(P: DyckPath, Q: DyckPath, i: int) -> DyckPath:
    """Lower interval bound P x_{c_i(P)} Q: P *_lam Q with
    lam = (L - c_i(P), 0, ..., 0, c_i(P)), L = L(P)."""
    return _star_paths(P, Q, _bound_lams(P, Q, i)[:1])[0]


def backslash_i(P: DyckPath, Q: DyckPath, i: int) -> DyckPath:
    """Upper interval bound: all but the last prime factor of Q are pushed
    to the very top of P, and the last one is attached at depth C_i(P):
    P *_lam Q with lam = (0, ..., 0, L - C_i(P), C_i(P))."""
    return _star_paths(P, Q, _bound_lams(P, Q, i)[1:])[0]


def verify_interval_product(m: int, max_size: int) -> CheckReport:
    """Products are exactly interval sums, and the classes tile the big interval.

    Per pair (P, Q), one :func:`_star_paths` call builds P *_lam Q over the
    class table of P: class i lists P *_i Q, one path per term, and
    :func:`_class_bounds` reads its bounds.  The paths are mapped to lattice
    indices once, and supports and intervals are compared as bitmasks over
    them; a repeated path in a class, found by popcount, is a non-unit
    coefficient.  A support path outside the lattice or an unordered bound
    pair is a failed check, never an exception.
    """
    if max_size < 2:
        raise ValueError("need max_size >= 2")
    report = CheckReport(name=f"interval products m={m} size<={max_size}")
    lattices = {total: build_lattice(m, total) for total in range(2, max_size + 1)}
    sizes = {n: enumerate_paths(m, n) for n in range(1, max_size)}
    for total in range(2, max_size + 1):
        lattice = lattices[total]
        index, outside = lattice.index.get, len(lattice.elements)
        # a path outside the lattice gets index `outside`, whose interval is empty
        up, down = lattice.up + (0,), lattice.down + (0,)
        for n1 in range(1, total):
            right = [(Q, len(_star_cuts(Q)) - 1) for Q in sizes[total - n1]]
            for P in sizes[n1]:
                L, classes = P.levels[-1], _classes(P)
                for Q, r in right:
                    lams, ends = _class_table(L, classes, r)
                    built = _star_paths(P, Q, lams)
                    found = [index(path, outside) for path in built]
                    union = start = 0
                    for i, end in enumerate(ends):
                        report.checks += 1
                        support = 0
                        for k in found[start:end]:
                            support |= 1 << k
                        # paths outside the lattice share one bit: only a
                        # repeated path is a coefficient above one
                        count = end - start
                        if support.bit_count() < count and len(set(built[start:end])) < count:
                            report.fail(f"non-unit coefficient in {P!r}*_{i}{Q!r}")
                            return report
                        lo, hi = _class_bounds(found, start, end)
                        if not i:
                            bottom = lo
                        expected = up[lo] & down[hi]
                        if not expected or support != expected:
                            lo, hi = _class_bounds(built, start, end)
                            report.fail(
                                f"support of {P!r} *_{i} {Q!r} is not the interval "
                                f"[{lo!r}, {hi!r}]"
                            )
                            return report
                        if support & union:
                            report.fail(f"overlapping classes at {P!r}, {Q!r}, i={i}")
                            return report
                        union |= support
                        start = end
                    report.checks += 1
                    # the full interval runs from the lo of class 0 to the hi of class m
                    if union != up[bottom] & down[hi]:
                        report.fail(
                            f"classes of {P!r} * {Q!r} do not tile the full interval"
                        )
                        return report
    return report


def hasse_dot(m: int, n: int) -> str:
    """Canonical DOT rendering of the m-Tamari covers on the paths of size n.

    Edges point up.  Only the paths and the rotation walk of each are read,
    so no lattice, and none of its closure, is built; the edges are sorted
    as a whole, so the walk need not sort the covers of each path.
    """
    code = {p: p.encode() for p in enumerate_paths(m, n)}
    lines = [
        "digraph tamari {",
        "  rankdir=BT;",
    ]
    for text in code.values():
        lines.append(f'  "{text}";')
    edges = sorted((text, code[q]) for p, text in code.items() for q in _cover_walk(p))
    for a, b in edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def rotation_preserves_colors(m: int, n: int) -> bool:
    """Down-step colors are invariant along covering rotations."""
    for P in enumerate_paths(m, n):
        steps = P.steps()
        colors = standard_coloring(P)
        for pos, end, rotated_steps in _rotations(P):
            rotated_colors = standard_coloring(_path_from_steps(m, rotated_steps))
            # the moved step was down #k; it becomes down #k' where k' counts
            # downs among steps[:end+1] minus the removed one
            k = sum(1 for s in steps[:pos] if s == DOWN)
            downs_before_new = sum(1 for s in steps[pos + 1 : end + 1] if s == DOWN) + k
            moved = list(colors)
            color_of_d = moved.pop(k)
            moved.insert(downs_before_new, color_of_d)
            if tuple(moved) != rotated_colors:
                return False
    return True
