"""m-Dyck paths and the products indexed by weak compositions.

An m-Dyck path of size n uses up steps (m, m) and down steps (1, -1),
starts and ends on the x-axis and never goes below it.  It is encoded by
its level sequence (L_1, ..., L_n): L_k down steps immediately follow the
k-th up step.  The space spanned by all m-Dyck paths carries m+1 products
*_0, ..., *_m; the product P *_i Q is a sum of concatenations P *_lam Q
over the weak compositions lam of L(P) whose last part cuts a suffix of
the top color word with maximal letter multiplicity exactly i.  Together
these products make the span the free order-m Dyck algebra on the single
path of size one, which is the bridge to the colored-tree model.
"""

from __future__ import annotations

from functools import cache, partial

from .exactlin import LinComb
from .reporting import _immutable
from .trees import ColoredTree, MemoOracle, enumerate_Bm, evaluator

UP = "u"
DOWN = "d"

# weak compositions (lambda_0, ..., lambda_r) of L(P) are plain int tuples
WeakComposition = tuple[int, ...]


# (m, levels) -> the one path with that level sequence; never cleared but
# swept, like the tree intern table
_PATHS: dict[tuple[int, tuple[int, ...]], "DyckPath"] = {}


class DyckPath:
    """Level-sequence encoding of an m-Dyck path.

    Invariants: prefix sums never exceed m*j (the path stays above the
    axis) and the total equals m*n (it ends on the axis).  Paths are
    interned like trees and compare by identity; a level sequence is
    validated once, when its path is first built.
    """

    __slots__ = ("m", "levels")

    def __new__(cls, m: int, levels: tuple[int, ...]):
        key = (m, levels)
        path = _PATHS.get(key)
        if path is not None:
            return path
        if m < 1:
            raise ValueError("m must be >= 1")
        if not levels:
            raise ValueError("empty level sequence")
        total = 0
        for j, lv in enumerate(levels, start=1):
            if lv < 0:
                raise ValueError("negative level count")
            total += lv
            if total > m * j:
                raise ValueError(
                    f"prefix sum {total} exceeds {m}*{j}: path dips below the axis"
                )
        if total != m * len(levels):
            raise ValueError(f"levels sum to {total}, expected {m * len(levels)}")
        path = object.__new__(cls)
        object.__setattr__(path, "m", m)
        object.__setattr__(path, "levels", levels)
        return _PATHS.setdefault(key, path)

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return (DyckPath, (self.m, self.levels))

    @property
    def size(self) -> int:
        return len(self.levels)

    @property
    def last_level(self) -> int:
        return self.levels[-1]

    def steps(self) -> tuple[str, ...]:
        out = []
        for lv in self.levels:
            out.append(UP)
            out.extend(DOWN * lv)
        return tuple(out)

    def sort_key(self):
        return (self.size, self.levels)

    def __lt__(self, other: "DyckPath"):
        return self.sort_key() < other.sort_key()

    def encode(self) -> str:
        return ",".join(str(v) for v in self.levels)

    def __repr__(self):
        return f"(({self.encode()}))"


def rho(m: int) -> DyckPath:
    """The unique path of size one: one up step, m down steps."""
    return DyckPath(m, (m,))


def validate_path(m: int, levels) -> DyckPath:
    levels = tuple(levels)
    values = []
    for v in levels:
        try:
            values.append(int(v))
        except ValueError:
            literal = ",".join(map(str, levels))
            raise ValueError(f"level {v!r} is not an integer in path literal {literal!r}") from None
    return DyckPath(m, tuple(values))


def parse_path(m: int, text: str) -> DyckPath:
    """Parse comma-separated levels; an empty level is an error."""
    tokens = text.split(",")
    if any(not tok.strip() for tok in tokens):
        raise ValueError(f"empty level in path literal {text!r}")
    return validate_path(m, tokens)


@cache
def _enumerate_levels(m: int, n: int, remaining_slack: int) -> tuple[tuple[int, ...], ...]:
    # sequences of n further levels given current height remaining_slack = m*j - sum;
    # only the level remaining_slack + m brings the last one back to the axis
    if n == 1:
        return ((remaining_slack + m,),)
    out = []
    for lv in range(remaining_slack + m + 1):
        for rest in _enumerate_levels(m, n - 1, remaining_slack + m - lv):
            out.append((lv,) + rest)
    return tuple(out)


def enumerate_paths(m: int, n: int) -> list[DyckPath]:
    """All m-Dyck paths of size n in lexicographic level order."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    return [DyckPath(m, levels) for levels in _enumerate_levels(m, n, 0)]


def concat_i(P: DyckPath, Q: DyckPath, i: int) -> DyckPath:
    """Insert Q just before the last i down steps of P."""
    if P.m != Q.m:
        raise ValueError("mixed m")
    if not 0 <= i <= P.last_level:
        raise ValueError(f"concatenation index {i} out of range [0, {P.last_level}]")
    levels = (
        P.levels[:-1]
        + (P.last_level - i,)
        + Q.levels[:-1]
        + (Q.last_level + i,)
    )
    return DyckPath(P.m, levels)


@cache
def _star_cuts(Q: DyckPath) -> tuple[tuple[int, int], ...]:
    """The levels that P *_lam Q changes in the levels of P followed by Q's.

    Entry k is (position, level), the position counted from the end so that
    it holds for every P: entry 0 is L(P), which lam_0 replaces (level 0),
    and entry k >= 1 the last level of the k-th prime factor of Q, to which
    lam_k is added.  Q has one prime factor per return to the axis.
    """
    n = len(Q.levels)
    out = [(-n - 1, 0)]
    total = 0
    for j, lv in enumerate(Q.levels, start=1):
        total += lv
        if total == Q.m * j:
            out.append((j - 1 - n, lv))
    return tuple(out)


def _factor_ends(P: DyckPath) -> list[int]:
    # 0, then the end of each prime factor in P.levels
    n = len(P.levels)
    return [n + pos + 1 for pos, _ in _star_cuts(P)]


def prime_factors(P: DyckPath) -> list[DyckPath]:
    """The unique factorization P = P_1 x_0 ... x_0 P_r into prime paths."""
    ends = _factor_ends(P)
    return [DyckPath(P.m, P.levels[a:b]) for a, b in zip(ends, ends[1:])]


def standard_coloring(P: DyckPath) -> tuple[int, ...]:
    """Colors of the down steps, left to right; each color occurs m times.

    The m down steps of color k are the ones matched with up step k: the
    first steps after it to come back to heights h+m-1, ..., h, where h is
    the height before it.  A stack finds them: up step k pushes m copies of
    k and each down step pops the top copy.
    """
    stack: list[int] = []
    out: list[int] = []
    for k, lv in enumerate(P.levels, start=1):
        stack += [k] * P.m
        cut = len(stack) - lv
        out += reversed(stack[cut:])
        del stack[cut:]
    return tuple(out)


def top_word(P: DyckPath) -> tuple[int, ...]:
    """Colors of the top-level block (the trailing run of down steps)."""
    colors = standard_coloring(P)
    L = P.last_level
    return colors[len(colors) - L:]


@cache
def _weak_compositions(total: int, parts: int) -> tuple[WeakComposition, ...]:
    # in lexicographic order
    if parts == 0:
        return ((),) if total == 0 else ()
    return tuple(
        (first,) + rest
        for first in range(total + 1)
        for rest in _weak_compositions(total - first, parts - 1)
    )


@cache
def _classes(P: DyckPath) -> tuple[tuple[int, ...], ...]:
    """All m+1 multiplicity classes of the top word, from one scan.

    Entry i holds the suffix lengths whose maximal letter multiplicity is i,
    in increasing order; the maximum only grows with the suffix, so each
    length falls in exactly one class.
    """
    classes: list[list[int]] = [[0]] + [[] for _ in range(P.m)]
    counts: dict[int, int] = {}
    best = 0
    for length, letter in enumerate(reversed(top_word(P)), start=1):
        count = counts[letter] = counts.get(letter, 0) + 1
        if count > best:
            best = count
        classes[best].append(length)
    return tuple(tuple(lengths) for lengths in classes)


def _multiplicity_class(P: DyckPath, i: int) -> tuple[int, ...]:
    """The suffix lengths of the top word whose maximal letter multiplicity is i.

    The lengths come in increasing order; no class is empty.
    """
    if not 0 <= i <= P.m:
        raise ValueError("class index out of range")
    return _classes(P)[i]


@cache
def _lambda_sets(L: int, lengths: tuple[int, ...], r: int) -> tuple[WeakComposition, ...]:
    # the sorted weak compositions of L with r+1 parts whose last part is in
    # lengths; many paths share (L, lengths), so this is keyed by them, not by P
    return tuple(
        sorted(prefix + (last,) for last in lengths for prefix in _weak_compositions(L - last, r))
    )


@cache
def _class_table(L: int, classes: tuple[tuple[int, ...], ...], r: int):
    """The class-i compositions of every class i, listed class by class.

    Returns the compositions of :func:`_lambda_sets` for each entry of
    ``classes`` in turn and the index where each class ends among them;
    together they are every weak composition of L with r+1 parts, each
    once.  Keyed, like ``_lambda_sets``, by L(P), the class lengths and r,
    so the paths that share them share one table.
    """
    lams: list[WeakComposition] = []
    ends = []
    for lengths in classes:
        lams += _lambda_sets(L, lengths, r)
        ends.append(len(lams))
    return tuple(lams), tuple(ends)


def lambda_sets(P: DyckPath, r: int, i: int) -> list[WeakComposition]:
    """Weak compositions of L(P) with r+1 parts in the multiplicity class i.

    The last part lam_r cuts a suffix of the top word in which every color
    appears at most i times and some color exactly i times; i = 0 forces
    the empty suffix.
    """
    lengths = _multiplicity_class(P, i)
    if r < 0:
        raise ValueError("need r >= 0")
    return list(_lambda_sets(P.last_level, lengths, r))


def star_lambda(P: DyckPath, Q: DyckPath, lam: WeakComposition) -> DyckPath:
    """The nested concatenation of P with the prime factors of Q along lam."""
    factors = prime_factors(Q)
    if len(lam) != len(factors) + 1:
        raise ValueError(
            f"composition has {len(lam)} parts, expected {len(factors) + 1}"
        )
    if sum(lam) != P.last_level:
        raise ValueError("composition must sum to the last level of P")
    result = P
    suffix = sum(lam) - lam[0]
    for idx, factor in enumerate(factors, start=1):
        result = concat_i(result, factor, suffix)
        suffix -= lam[idx]
    return result


def _star_paths(P: DyckPath, Q: DyckPath, lams) -> list[DyckPath]:
    """P *_lam Q for each lam in ``lams``.

    Unrolling the nested ``concat_i`` chain of :func:`star_lambda` gives
    P *_lam Q directly on level sequences: the levels of P with L(P)
    replaced by lam_0, then for each prime factor of Q its levels with
    lam_k added to the last one.  These levels form one template per call,
    the levels of P followed by those of Q, in which only the r+1 cut levels
    of :func:`_star_cuts` depend on lam; each term sets them and copies the
    template once.  Only the finished path is validated.
    """
    if P.m != Q.m:
        raise ValueError("mixed m")
    m, get = P.m, _PATHS.get
    template = list(P.levels + Q.levels)
    cuts = _star_cuts(Q)
    out = []
    for lam in lams:
        for (pos, level), part in zip(cuts, lam):
            template[pos] = level + part
        levels = tuple(template)
        # DyckPath runs only for a path not yet interned
        out.append(get((m, levels)) or DyckPath(m, levels))
    return out


def _path_terms(P: DyckPath, Q: DyckPath, i: int) -> dict:
    """The term dict of P *_i Q: the sum of P *_lam Q over the class-i compositions.

    The compositions come from the cache shared by every P with the same
    L(P) and class lengths, and each term is built by :func:`_star_paths`
    straight into the term dict.
    """
    lams = _lambda_sets(P.levels[-1], _multiplicity_class(P, i), len(_star_cuts(Q)) - 1)
    paths = _star_paths(P, Q, lams)
    terms = dict.fromkeys(paths, 1)
    if len(terms) < len(paths):
        # distinct compositions give distinct paths; a repeat is summed, not lost
        terms = {}
        for path in paths:
            terms[path] = terms.get(path, 0) + 1
    return terms


def path_product(P: DyckPath, Q: DyckPath, i: int) -> LinComb:
    """P *_i Q in the path basis (the terms of :func:`_path_terms`)."""
    return LinComb.of_terms(_path_terms(P, Q, i))


class PathOracle(MemoOracle):
    """The path model as the :class:`~mdyck.trees.MemoOracle` of :func:`_path_terms`."""

    def __init__(self, m: int):
        super().__init__(m, partial(enumerate_paths, m), _path_terms)


def phi(t: ColoredTree, m: int) -> LinComb:
    """The canonical isomorphism from basis trees to the path model.

    The :func:`~mdyck.trees.evaluator` of a fresh ``PathOracle(m)`` with
    leaf -> rho(m).  Accepts any colored tree (not only basis trees), which
    is how elements written in the alternative bases are compared across
    models.  A color above m raises ``ValueError``.
    """
    if t.max_color() > m:
        raise ValueError("color exceeds m")
    return evaluator(PathOracle(m).product, rho(m))(t)


def phi_matrix_full_rank(m: int, n: int) -> bool:
    """Whether {phi(t) : t basis tree of degree n} spans the paths of size n."""
    from .exactlin import rank_of_lincombs

    trees = enumerate_Bm(m, n)
    paths = enumerate_paths(m, n)
    if len(trees) != len(paths):
        return False
    vectors = list(map(evaluator(PathOracle(m).product, rho(m)), trees))
    return rank_of_lincombs(vectors, paths) == len(paths)


def decompose_smaller(P: DyckPath) -> tuple[DyckPath, DyckPath, int]:
    """Exhibit P inside a product of two strictly smaller paths.

    Returns (R1, R2, i) with P occurring (with coefficient one) in
    R1 *_i R2.  Non-prime paths split off their last prime factor with
    i = 0; a prime path peels the sub-path delimited by its last two
    color-1 blocks.
    """
    if P.size < 2:
        raise ValueError("size-1 path cannot be decomposed")
    ends = _factor_ends(P)
    if len(ends) > 2:
        cut = ends[-2]
        return DyckPath(P.m, P.levels[:cut]), DyckPath(P.m, P.levels[cut:]), 0
    colors = standard_coloring(P)
    steps = P.steps()
    down_positions = [idx for idx, s in enumerate(steps) if s == DOWN]
    one_downs = [idx for idx, c in enumerate(colors) if c == 1]
    trailing = sum(1 for c in top_word(P) if c == 1)
    # steps strictly between the last color-1 step outside the top block
    # (or the initial up step) and the trailing color-1 run
    if trailing == P.m:
        start = 1
    else:
        start = down_positions[one_downs[P.m - trailing - 1]] + 1
    cut = down_positions[len(colors) - trailing]
    middle = steps[start:cut]
    outer = steps[:start] + steps[cut:]
    return _path_from_steps(P.m, outer), _path_from_steps(P.m, middle), trailing


def _path_from_steps(m: int, steps: tuple[str, ...]) -> DyckPath:
    levels = []
    for s in steps:
        if s == UP:
            levels.append(0)
        else:
            levels[-1] += 1
    return DyckPath(m, tuple(levels))


# ---------------------------------------------------------------------------
# Composition-data bijections underlying the relation proofs

def recompose_distinct(P: DyckPath, lam: tuple[int, ...], tau: tuple[int, ...]):
    """(lam, tau) -> (lam, delta): absorb lam_r into the last part of tau.

    Re-associates x *_i (y *_j z) = (x *_i y) *_j z at the level of
    composition data (i < j).  Inverse: :func:`recompose_distinct_inv`.
    """
    return lam, tau[:-1] + (tau[-1] + lam[-1],)


def recompose_distinct_inv(P: DyckPath, lam: tuple[int, ...], delta: tuple[int, ...]):
    return lam, delta[:-1] + (delta[-1] - lam[-1],)


def recompose_zero(P: DyckPath, Q: DyckPath, r: int, lam: tuple[int, ...], tau: tuple[int, ...]):
    """(lam, tau) with tau in class 0 -> (gamma, delta) with delta_s <= gamma_r.

    ``r`` is the number of prime factors of Q; lam has r + s - j_tau + 1
    parts where j_tau is the position of the last positive part of tau.
    """
    s = len(tau) - 1
    j_tau = max(j for j in range(s) if tau[j] > 0)
    gamma = lam[: r] + (sum(lam[r:]),)
    delta = tau[:j_tau] + (tau[j_tau] + lam[r],) + lam[r + 1:]
    return gamma, delta


def recompose_zero_inv(P: DyckPath, Q: DyckPath, r: int, gamma: tuple[int, ...], delta: tuple[int, ...]):
    s = len(delta) - 1
    j0 = max(j for j in range(s) if sum(delta[j:]) > gamma[r])
    lam = gamma[:r] + (gamma[r] - sum(delta[j0 + 1:]),) + delta[j0 + 1:]
    tau = delta[:j0] + (sum(delta[j0:]) - gamma[r],) + (0,) * (s - j0)
    return lam, tau
