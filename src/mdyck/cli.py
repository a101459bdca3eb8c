"""Command-line surface: dimension tables, products, verification, DOT export.

Exit codes: 0 success / verified, 1 verification failure, 2 usage error.
All output is canonical (sorted) and byte-stable across runs. Every size
bound is refused by one rule, :func:`mdyck.tamari.check_size`, before any
work starts, and the suites of ``verify`` are the one ordered table
``_SUITES``.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

from . import posets, series, simplicial, tamari, trees
from .paths import PathOracle, enumerate_paths, parse_path, path_product
from .reporting import CheckReport
from .trees import TreeOracle, parse_tree, tree_product


def _at_least(least: int, *options) -> None:
    """Refuse an option below ``least``, naming it; ``options`` are (flag,
    value) pairs, and a value of None is an option not given."""
    for flag, value in options:
        if value is not None and value < least:
            raise ValueError(f"{flag} must be >= {least}")


def _dims(args) -> int:
    _at_least(1, ("--m", args.m), ("--max-n", args.max_n))
    # both bases of the largest degree are enumerated, so they are bounded first
    tamari.check_size(args.max_n, args.m)
    print(f"{'n':>3} {'fuss-catalan':>14} {'trees':>14} {'paths':>14}  status")
    ok = True
    for n in range(1, args.max_n + 1):
        d = series.fuss_catalan(args.m, n)
        b = len(trees.enumerate_Bm(args.m, n))
        p = len(enumerate_paths(args.m, n))
        match = d == b == p
        ok = ok and match
        print(f"{n:>3} {d:>14} {b:>14} {p:>14}  {'MATCH' if match else 'MISMATCH'}")
    return 0 if ok else 1


def _fubini(n: int) -> int:
    """The size of the surjections poset of degree n: the ordered Bell number
    a(n) = sum C(n, j) a(n - j) over 1 <= j <= n, with a(0) = 1."""
    a = [1]
    for k in range(1, n + 1):
        a.append(sum(math.comb(k, j) * a[k - j] for j in range(1, k + 1)))
    return a[n]


def _parse_simplices(family, *texts: str) -> list[tuple]:
    simplices = [tuple(posets.pt_parse(tok) for tok in text.split(";")) for text in texts]
    # the largest Tamari poset needed, of Catalan(n) elements, is checked before any is built
    degrees = [family.degree(x) for simplex in simplices for x in simplex]
    degrees.append(sum(family.degree(simplex[0]) for simplex in simplices))
    tamari.check_size(max(degrees), poset="Tamari")
    for text, elems in zip(texts, simplices):
        for x in elems:
            n = family.degree(x)
            if n < 1 or x not in family.poset(n).index:
                raise ValueError(
                    f"simplex coordinate {posets.pt_encode(x)!r} is not a {family.name} "
                    "tree with at least two leaves"
                )
        for a, b in zip(elems, elems[1:]):
            if not family.leq(a, b):
                raise ValueError(f"simplex coordinates not increasing: {text!r}")
    return simplices


def _product_text(args) -> str:
    m, i = args.m, args.i
    if args.model == "trees":
        lhs, rhs = parse_tree(args.lhs), parse_tree(args.rhs)
        return tree_product(lhs, rhs, i, m).render(lambda t: t.encode())
    if args.model == "paths":
        lhs, rhs = parse_path(m, args.lhs), parse_path(m, args.rhs)
        return path_product(lhs, rhs, i).render(lambda p: p.encode())
    family = posets.TamariBinaryFamily()
    xbar, ybar = _parse_simplices(family, args.lhs, args.rhs)
    if len(xbar) != m or len(ybar) != m:
        raise ValueError(f"simplices must have {m} coordinates")
    result = posets.ordm_product(family, xbar, ybar, i)
    return result.render(lambda c: ";".join(posets.pt_encode(t) for t in c))


def _mul(args) -> int:
    m, i = args.m, args.i
    _at_least(1, ("--m", m))
    if not 0 <= i <= m:
        raise ValueError(f"product index {i} out of range [0, {m}]")
    # parsing, multiplying and printing all recurse on the tree literals
    try:
        text = _product_text(args)
    except RecursionError:
        raise ValueError("tree literal nested too deeply") from None
    print(text)
    return 0


def _hasse(args) -> int:
    _at_least(1, ("--m", args.m), ("--n", args.n))
    lattice = tamari.build_lattice(args.m, args.n, cap=args.cap)
    sys.stdout.write(tamari.hasse_dot(lattice))
    return 0


# relations that must FAIL in the free algebra of each m (found differences pass)
_NEGATIVE_CONTROLS = {
    1: (
        (
            "(x *_1 y) *_1 z equals x *_1 (y *_1 z) in the free algebra",
            ((1, "R", 1, 1),),
            ((1, "L", 1, 1),),
        ),
    ),
    2: (
        # (u *_2 v) *_1 w  vs  u *_1 (v *_1 w + v *_0 w)
        (
            "alternative relation (i) unexpectedly holds",
            ((1, "R", 2, 1),),
            ((1, "L", 1, 1), (1, "L", 1, 0)),
        ),
        # (u *_1 v + u *_0 v) *_1 w  vs  u *_0 (v *_1 w)
        (
            "alternative relation (ii) unexpectedly holds",
            ((1, "R", 1, 1), (1, "R", 0, 1)),
            ((1, "L", 0, 1),),
        ),
    ),
}


def _negative_report(m: int) -> CheckReport:
    """The negative controls of m, each a failed check if it holds."""
    report = CheckReport(name=f"negative controls m={m}")
    # one generator suffices: sending every generator to x is a morphism of
    # algebras, so a relation that fails on x, x, x fails on any alphabet
    x = trees.LEAF
    product, yz, xy = TreeOracle(m).product, {}, {}
    for label, lhs, rhs in _NEGATIVE_CONTROLS[m]:
        report.checks += 1
        if trees.plan_holds(trees.relation_plan(lhs, rhs), product, x, x, x, yz, xy):
            report.fail(label)
    return report


def _given(value, default):
    return default if value is None else value


# Each suite runs in its own helper, and the oracles and poset families it
# makes live only as long as that helper, so their memos are freed before
# the next suite runs.


def _axioms_report(name: str, m: int, max_degree: int, oracle) -> CheckReport:
    report = trees.verify_dyck_axioms(m, max_degree, oracle.product, oracle.basis)
    report.name = f"axioms on {name} degree<={max_degree}"
    return report


def _axiom_reports(args) -> list[CheckReport]:
    max_degree = _given(args.max_degree, 5)
    reports = []
    for m in range(1, _given(args.m, 3) + 1):
        tree_oracle = TreeOracle(m)
        reports.append(_axioms_report(f"trees m={m}", m, max_degree, tree_oracle))
        reports.append(_axioms_report(f"paths m={m}", m, max_degree, PathOracle(m)))
        reports.append(
            trees.verify_circ_relations(m, max_degree, tree_oracle.product, tree_oracle.basis)
        )
    return reports


def _ordm_reports(args) -> list[CheckReport]:
    max_degree = _given(args.max_degree, 5)
    family = posets.TamariBinaryFamily()
    return [
        _axioms_report(f"Tamari {m}-simplices", m, max_degree, posets.OrdmOracle(family, m))
        for m in range(1, _given(args.m, 2) + 1)
    ]


def _simplicial_reports(args) -> list[CheckReport]:
    return [simplicial.verify_simplicial_identities(_given(args.max_m, 5))]


def _freeness_reports(args) -> list[CheckReport]:
    max_degree = _given(args.max_degree, 4)
    return [
        simplicial.verify_Sk_freeness(m, k, max_degree)
        for m in range(1, _given(args.m, 2) + 1)
        for k in range(m)
    ]


def _poset_reports(args) -> list[CheckReport]:
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ValueError(f"cannot read {args.file}: {exc.strerror}") from exc
        family = posets.parse_poset_file(text)
        declared = family.declared_degrees()
        bound = _given(args.max_degree, max(declared) if declared else 1)
        return [posets.verify_dendriform_poset(family, bound)]
    # each family, with its posets and pair memo, is freed before the next is built
    return [
        posets.verify_dendriform_poset(family(), _given(args.max_degree, bound))
        for family, bound in (
            (posets.PermutationFamily, 4),
            (posets.SurjectionFamily, 3),
            (posets.TamariBinaryFamily, 5),
            (posets.PlanarTreeFamily, 4),
        )
    ]


def _interval_reports(args) -> list[CheckReport]:
    max_size = _given(args.max_size, 6)
    sizes = [(m, max_size) for m in range(1, _given(args.m, 2) + 1)]
    if args.suite == "all":
        sizes.append((3, 4))
    return [tamari.verify_interval_product(m, size) for m, size in sizes]


def _series_reports(args) -> list[CheckReport]:
    return [series.check_series_identities(_given(args.max_m, 4), _given(args.order, 10))]


def _negative_reports(args) -> list[CheckReport]:
    return [_negative_report(m) for m in ((1, 2) if args.m is None else (args.m,))]


# the least bound of each option at which a suite checks anything; the
# verifiers refuse a smaller one too, but in their own parameter's name
_LEAST_BOUND = {
    "--max-degree": {"axioms": 3, "ordm": 3, "poset": 2, "freeness": 1},
    "--max-size": {"tamari-interval": 2},
}

# every suite, in the order that `verify --suite all` runs them
_SUITES = {
    "axioms": _axiom_reports,
    "ordm": _ordm_reports,
    "simplicial": _simplicial_reports,
    "freeness": _freeness_reports,
    "poset": _poset_reports,
    "tamari-interval": _interval_reports,
    "series": _series_reports,
    "negative": _negative_reports,
}


def _suite_reports(args) -> list[CheckReport]:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    _at_least(1, ("--m", args.m), ("--max-m", args.max_m), ("--order", args.order))
    for flag, value in (("--max-degree", args.max_degree), ("--max-size", args.max_size)):
        least = [n for name, n in _LEAST_BOUND[flag].items() if name in suites]
        if least:
            _at_least(max(least), (flag, value))
    # arguments that a later suite would refuse are refused before any suite runs
    if "negative" in suites and args.m not in (None, *_NEGATIVE_CONTROLS):
        raise ValueError("negative suite is defined for m = 1 and m = 2")
    if args.max_degree is not None:
        if "ordm" in suites:
            tamari.check_size(args.max_degree, poset="Tamari")
        if "poset" in suites and not args.file:
            # surjections, the largest built-in family
            tamari.check_size(args.max_degree, poset="surjections", size_of=_fubini)
    if "series" in suites:
        tamari.check_size(
            _given(args.order, 10),
            size_of=series.product_cost,
            option="--order",
            unit="coefficient products per series product",
        )
    if "simplicial" in suites or "series" in suites:
        tamari.check_size(
            _given(args.max_m, 5),
            size_of=simplicial.slot_law_checks,
            option="--max-m",
            unit="slot-law checks at the largest m",
        )
    # after both rules above, so that each option alone is refused in its own words
    if "series" in suites:
        max_m = _given(args.max_m, 4)
        tamari.check_size(
            _given(args.order, 10),
            cap=series.IDENTITY_COST_CAP,
            size_of=partial(series.identity_cost, max_m),
            option=f"--max-m {max_m} --order",
            unit="coefficient products in all compositions",
        )
    # the largest basis of each suite: (suite, default --m, bound, default bound)
    for name, m, n, default in (
        ("axioms", 3, args.max_degree, 5),
        ("freeness", 2, args.max_degree, 4),
        ("tamari-interval", 2, args.max_size, 6),
    ):
        if name in suites:
            tamari.check_size(_given(n, default), _given(args.m, m))
    return [report for name in suites for report in _SUITES[name](args)]


def _verify(args) -> int:
    reports = _suite_reports(args)
    ok = True
    for report in reports:
        print(report.summary())
        ok = ok and report.ok
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdyck",
        description="Exact computations in the algebras carried by m-Dyck paths, "
        "colored binary trees and dendriform-poset simplices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension table: counts of trees and paths")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=_dims)

    p = sub.add_parser("mul", help="compute a product in one of the models")
    p.add_argument("--model", choices=("trees", "paths", "ordm"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(func=_mul)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=(*_SUITES, "all"),
    )
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--file", default=None, help="poset-family file for --suite poset")
    p.set_defaults(func=_verify)

    p = sub.add_parser("hasse", help="DOT rendering of an m-Tamari lattice")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", default="dot", choices=("dot",))
    p.add_argument(
        "--cap",
        type=int,
        default=tamari.DEFAULT_CAP,
        help="the size rule's cap on the paths of size n (default %(default)s); a "
        "larger cap is the user's deliberate override, with no bound of its own: "
        "the order's closure costs O(N^2) bits for N paths, so --m 2 --n 8 "
        "--cap 100000 takes about 481 MB",
    )
    p.set_defaults(func=_hasse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
