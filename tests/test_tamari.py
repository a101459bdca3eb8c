import math
from fractions import Fraction

import pytest

from mdyck import paths, tamari
from mdyck.cli import main
from mdyck.paths import (
    DyckPath,
    _path_from_steps,
    concat_i,
    enumerate_paths,
    lambda_sets,
    parse_path,
    path_product,
    prime_factors,
    rho,
    star_lambda,
)
from mdyck.orders import FinitePoset
from mdyck.tamari import (
    C_bound,
    TamariLattice,
    _rotations,
    build_lattice,
    c_bound,
    covers,
    hasse_dot,
    backslash_i,
    rotation_preserves_colors,
    slash_i,
    verify_interval_product,
)


def P(m, text):
    return parse_path(m, text)


def test_covers_examples():
    assert covers(P(2, "2,2")) == [P(2, "1,3")]
    assert covers(P(2, "0,4")) == []
    assert covers(P(2, "1,3")) == [P(2, "0,4")]


@pytest.mark.parametrize("m, max_n", [(1, 6), (2, 6), (3, 5)])
def test_covers_match_rotations_on_steps(m, max_n):
    # the level-sequence rotation against the walk on the step word
    for n in range(1, max_n + 1):
        for path in enumerate_paths(m, n):
            expected = [_path_from_steps(m, steps) for _, _, steps in _rotations(path)]
            expected.sort(key=DyckPath.sort_key)
            assert covers(path) == expected


@pytest.mark.parametrize("m, max_n", [(1, 8), (2, 6), (3, 5)])
def test_lattice_from_the_unsorted_walk_matches_the_sorted_covers(m, max_n):
    # the order ignores the order of the covers, so both build the same masks
    for n in range(1, max_n + 1):
        lattice = TamariLattice(m, n)
        reference = FinitePoset(enumerate_paths(m, n), covers)
        assert lattice.elements == reference.elements
        assert (lattice.up, lattice.down) == (reference.up, reference.down)


def test_build_lattice_small():
    chain = build_lattice(2, 2)
    assert [p.levels for p in chain.elements] == [(0, 4), (1, 3), (2, 2)]
    assert chain.leq(P(2, "2,2"), P(2, "0,4"))
    assert not chain.leq(P(2, "0,4"), P(2, "2,2"))
    assert len(build_lattice(2, 3).elements) == 12
    assert len(build_lattice(1, 3).elements) == 5


def test_lattice_cap():
    with pytest.raises(ValueError):
        build_lattice(2, 6, cap=100)


def test_intervals():
    lattice = build_lattice(1, 3)
    x = lattice.elements[0]
    assert lattice.interval(x, x) == [x]
    lo, hi = P(1, "1,1,1"), P(1, "0,0,3")
    assert set(lattice.interval(lo, hi)) == set(lattice.elements)
    assert lattice.interval_count() == 13
    with pytest.raises(ValueError):
        lattice.interval(hi, lo)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_interval_count_matches_closed_form(m):
    # (m+1)/(n(mn+1)) * C((m+1)^2 n + m, n-1): Bousquet-Melou, Fusy and
    # Preville-Ratelle (2011), independent of the lattice built here
    for n in range(1, 6):
        count = Fraction(m + 1, n * (m * n + 1)) * math.comb((m + 1) ** 2 * n + m, n - 1)
        assert build_lattice(m, n).interval_count() == count


def test_min_max_elements():
    # the minimum's up-set and the maximum's down-set hold every index
    for m in (1, 2, 3):
        for n in range(1, 6):
            lattice = build_lattice(m, n)
            every = (1 << len(lattice.elements)) - 1
            index = lattice.index
            assert [i for i, mask in enumerate(lattice.up) if mask == every] == [
                index[DyckPath(m, (m,) * n)]
            ]
            assert [i for i, mask in enumerate(lattice.down) if mask == every] == [
                index[DyckPath(m, (0,) * (n - 1) + (m * n,))]
            ]


def test_meet_join_exist():
    # the common lower bounds of a and b are the down-set of one element, the
    # meet, and the common upper bounds the up-set of one element, the join
    for m, n in ((1, 4), (2, 3), (3, 2)):
        lattice = build_lattice(m, n)
        up, down = set(lattice.up), set(lattice.down)
        for a in range(len(lattice.elements)):
            for b in range(len(lattice.elements)):
                assert lattice.down[a] & lattice.down[b] in down
                assert lattice.up[a] & lattice.up[b] in up


def test_c_and_C_bounds():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for path in enumerate_paths(m, n):
                assert c_bound(path, 0) == 0 and C_bound(path, 0) == 0
    path = P(2, "0,2,1,3,4")  # top word (5, 5, 1, 1)
    assert (c_bound(path, 1), C_bound(path, 1)) == (1, 1)
    assert (c_bound(path, 2), C_bound(path, 2)) == (2, 4)
    for m in (1, 2, 3):
        assert c_bound(rho(m), m) == m == C_bound(rho(m), m)


def test_bound_refusals_keep_their_messages():
    path = P(2, "1,3")
    calls = [
        lambda i: c_bound(path, i),
        lambda i: C_bound(path, i),
        lambda i: slash_i(path, rho(2), i),
        lambda i: backslash_i(path, rho(2), i),
    ]
    for call in calls:
        for i in (-1, 3):
            with pytest.raises(ValueError, match=r"^class index out of range$"):
                call(i)
    # no class is empty, so no bound needs a refusal of its own: the last up
    # step puts m letters of one color on top, and a suffix gains one letter
    # at a time, so the m+1 classes split 0..L(P) in order
    for m in (1, 2, 3):
        for n in range(1, 7):
            for other in enumerate_paths(m, n):
                classes = paths._classes(other)
                assert len(classes) == m + 1 and all(classes)
                assert sum(classes, ()) == tuple(range(other.last_level + 1))


@pytest.mark.parametrize(
    "call",
    [path_product, slash_i, backslash_i, concat_i],
    ids=["path_product", "slash_i", "backslash_i", "concat_i"],
)
def test_mixed_m_is_refused(call):
    with pytest.raises(ValueError, match=r"^mixed m$"):
        call(rho(2), rho(1), 0)


def test_slash_backslash_examples():
    path, Q = P(2, "1,3"), P(2, "0,2,4,2")
    assert slash_i(path, Q, 0) == P(2, "1,3,0,2,4,2")
    assert backslash_i(path, Q, 0) == P(2, "1,0,0,2,7,2")
    for m in (1, 2, 3):
        for i in range(m + 1):
            expected = DyckPath(m, (m - i, m + i))
            assert slash_i(rho(m), rho(m), i) == expected
            assert backslash_i(rho(m), rho(m), i) == expected


def test_both_bounds_are_the_class_bound_compositions():
    # both bounds are built on level sequences, one by one and all m+1
    # pairs from one template, each picked by the one rule of _class_bounds;
    # star_lambda is the nested concat_i reference
    for m in (1, 2, 3):
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                for path in enumerate_paths(m, n1):
                    for Q in enumerate_paths(m, n2):
                        r = len(prime_factors(Q))
                        L = path.last_level
                        lams, ends = paths._class_table(L, paths._classes(path), r)
                        built = paths._star_paths(path, Q, lams)
                        assert len(ends) == m + 1
                        for i in range(m + 1):
                            c = c_bound(path, i)
                            lam = (L - c,) + (0,) * (r - 1) + (c,)
                            lo = star_lambda(path, Q, lam)
                            assert slash_i(path, Q, i) == lo
                            C = C_bound(path, i)
                            lam = (0,) * (r - 1) + (L - C, C)
                            hi = star_lambda(path, Q, lam)
                            assert backslash_i(path, Q, i) == hi
                            start = ends[i - 1] if i else 0
                            assert tamari._class_bounds(built, start, ends[i]) == (lo, hi)


def test_interval_product_theorem():
    for m, size in ((1, 6), (2, 6), (3, 4)):
        report = verify_interval_product(m, size)
        assert report.ok, report.failures
    # size 1 has no product to check
    with pytest.raises(ValueError):
        verify_interval_product(2, 1)


REAL_TABLE, REAL_STAR = tamari._class_table, tamari._star_paths


def _each_composition_twice(L, classes, r):
    # every path of every class comes twice: each coefficient is 2
    lams, ends = REAL_TABLE(L, classes, r)
    return tuple(lam for lam in lams for _ in range(2)), tuple(2 * end for end in ends)


def _stranger(path):
    # the same level sequence outside the intern table, so no lattice holds it
    twin = object.__new__(DyckPath)
    object.__setattr__(twin, "m", path.m)
    object.__setattr__(twin, "levels", path.levels)
    return twin


def _class_m_cut_to_its_upper_bound(L, classes, r):
    # class m keeps only its first composition, that of its upper bound, so
    # the classes miss part of the full interval while each class still
    # matches its own bounds
    lams, ends = REAL_TABLE(L, classes, r)
    start = ends[-2]
    return lams[: start + 1], ends[:-1] + (start + 1,)


def _each_class_reversed(L, classes, r):
    # the first and the last composition of each class swap places, and so
    # do the bounds read from them
    lams, ends = REAL_TABLE(L, classes, r)
    return tuple(lam for a, b in zip((0,) + ends, ends) for lam in reversed(lams[a:b])), ends


BROKEN_THEOREMS = {
    "non-unit-coefficient": (
        dict(_class_table=_each_composition_twice),
        "non-unit coefficient in ((1))*_0((1))",
    ),
    "support-outside-the-lattice": (
        dict(_star_paths=lambda P, Q, lams: list(map(_stranger, REAL_STAR(P, Q, lams)))),
        "support of ((1)) *_0 ((1)) is not the interval [((1,1)), ((1,1))]",
    ),
    "overlapping-classes": (
        dict(_class_table=lambda L, classes, r: REAL_TABLE(L, classes[:1] * len(classes), r)),
        "overlapping classes at ((1)), ((1)), i=1",
    ),
    "classes-do-not-tile": (
        dict(_class_table=_class_m_cut_to_its_upper_bound),
        "classes of ((0,2)) * ((1)) do not tile the full interval",
    ),
    "unordered-bounds": (
        dict(_class_table=_each_class_reversed),
        "support of ((1)) *_0 ((1,1)) is not the interval [((0,2,1)), ((1,1,1))]",
    ),
    # both distinct paths lie outside the lattice and share its one outside
    # bit, yet neither is repeated: a failed support, not a coefficient 2
    "two-size-one-paths-in-one-class": (
        dict(
            _class_table=_each_composition_twice,
            _star_paths=lambda P, Q, lams: [rho(k) for k in range(1, len(lams) + 1)],
        ),
        "support of ((1)) *_0 ((1)) is not the interval [((2)), ((1))]",
    ),
}


@pytest.mark.parametrize("patches, message", BROKEN_THEOREMS.values(), ids=list(BROKEN_THEOREMS))
def test_broken_interval_theorem_is_a_failed_report(monkeypatch, capsys, patches, message):
    for name, fn in patches.items():
        monkeypatch.setattr(tamari, name, fn)
    report = verify_interval_product(1, 4)
    assert report.ok is False
    assert report.failures == [message]
    # a failed theorem exits 1, never 2 (the usage-error code)
    assert main(["verify", "--suite", "tamari-interval", "--m", "1", "--max-size", "4"]) == 1
    assert capsys.readouterr().out.endswith(f"\n  {message}\n")


def test_the_interval_check_builds_the_lattices_of_sizes_2_to_max_size(monkeypatch, capsys):
    # one lattice per product size, none beyond the sizes that are checked
    calls = []
    real = tamari.build_lattice

    def record(m, n, *args, **kwargs):
        calls.append((m, n))
        return real(m, n, *args, **kwargs)

    monkeypatch.setattr(tamari, "build_lattice", record)
    for m, max_size in ((1, 2), (2, 4), (3, 3)):
        calls.clear()
        assert verify_interval_product(m, max_size).ok
        assert calls == [(m, n) for n in range(2, max_size + 1)]
    calls.clear()
    assert main(["verify", "--suite", "tamari-interval", "--m", "3", "--max-size", "4"]) == 0
    assert calls == [(m, n) for m in (1, 2, 3) for n in range(2, 5)]
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_a_repeated_term_is_summed_into_coefficient_two(monkeypatch):
    # distinct compositions give distinct paths; were one repeated, the
    # product would count it twice, and the interval check, which reads each
    # class from the class table, would reject it
    P = rho(1)
    plain = paths.path_product(P, P, 0)
    real = paths._star_paths
    monkeypatch.setattr(paths, "_star_paths", lambda *args: real(*args) + real(*args)[:1])
    doubled = paths.path_product(P, P, 0)
    first = next(iter(plain))
    assert doubled.support() == plain.support()
    assert {path: doubled[path] for path in plain} == {path: 1 + (path is first) for path in plain}

    def first_composition_twice(L, classes, r):
        lams, ends = REAL_TABLE(L, classes, r)
        return lams[:1] + lams, tuple(end + 1 for end in ends)

    monkeypatch.setattr(tamari, "_class_table", first_composition_twice)
    report = verify_interval_product(1, 4)
    assert report.failures == ["non-unit coefficient in ((1))*_0((1))"]


def test_partition_example():
    # the three class supports tile the full interval
    lattice = build_lattice(2, 4)
    path, Q = P(2, "1,3"), P(2, "2,2")
    union = set()
    for i in range(3):
        support = path_product(path, Q, i).support()
        assert not (support & union)
        union |= support
    full = set(lattice.interval(slash_i(path, Q, 0), backslash_i(path, Q, 2)))
    assert union == full


def test_concatenation_monotone():
    # for prime Q the concatenations increase strictly with the index, and
    # concatenation is monotone in each slot (matching final levels)
    for m in (1, 2):
        for n1 in (1, 2):
            for n2 in (1, 2):
                lattice = build_lattice(m, n1 + n2)
                small = build_lattice(m, n2)
                for path in enumerate_paths(m, n1):
                    for Q in enumerate_paths(m, n2):
                        if len(prime_factors(Q)) == 1:
                            steps = [
                                concat_i(path, Q, i)
                                for i in range(path.last_level + 1)
                            ]
                            for a, b in zip(steps, steps[1:]):
                                assert lattice.leq(a, b) and a != b
                        for Q2 in enumerate_paths(m, n2):
                            if small.leq(Q, Q2):
                                for k in range(path.last_level + 1):
                                    assert lattice.leq(
                                        concat_i(path, Q, k), concat_i(path, Q2, k)
                                    )
                for path in enumerate_paths(m, n1):
                    for path2 in enumerate_paths(m, n1):
                        if (
                            path.last_level == path2.last_level
                            and build_lattice(m, n1).leq(path, path2)
                        ):
                            for Q in enumerate_paths(m, n2):
                                for k in range(path.last_level + 1):
                                    assert lattice.leq(
                                        concat_i(path, Q, k), concat_i(path2, Q, k)
                                    )


def test_composition_order_criterion():
    # suffix-sum dominance of compositions matches the lattice order
    for m in (1, 2):
        for n1 in (1, 2):
            for n2 in (1, 2, 3):
                if n1 + n2 > 5:
                    continue
                lattice = build_lattice(m, n1 + n2)
                for path in enumerate_paths(m, n1):
                    for Q in enumerate_paths(m, n2):
                        r = len(prime_factors(Q))
                        all_lams = [
                            lam
                            for i in range(m + 1)
                            for lam in lambda_sets(path, r, i)
                        ]
                        for lam in all_lams:
                            for gam in all_lams:
                                dominated = all(
                                    sum(lam[j:]) <= sum(gam[j:])
                                    for j in range(1, r + 1)
                                )
                                ordered = lattice.leq(
                                    star_lambda(path, Q, lam),
                                    star_lambda(path, Q, gam),
                                )
                                assert dominated == ordered


def test_rotation_preserves_colors():
    for m, n in ((1, 4), (2, 3), (2, 4), (3, 2)):
        assert rotation_preserves_colors(m, n)


def test_hasse_dot():
    single = hasse_dot(2, 1)
    assert '"2"' in single and "->" not in single
    chain = hasse_dot(2, 2)
    assert chain.count("->") == 2
    assert chain == hasse_dot(2, 2)
    pentagon = hasse_dot(1, 3)
    assert pentagon.count("->") == 5


def test_hasse_builds_no_lattice(monkeypatch, capsys):
    # the DOT text reads only the paths and their covers, never the closure
    expected = hasse_dot(2, 4)

    def refuse(*args):
        raise AssertionError("hasse built a lattice")

    monkeypatch.setattr(tamari, "build_lattice", refuse)
    monkeypatch.setattr(tamari, "TamariLattice", refuse)
    assert main(["hasse", "--m", "2", "--n", "4"]) == 0
    assert capsys.readouterr().out == expected
    assert expected.count("->") == sum(len(covers(p)) for p in enumerate_paths(2, 4))
