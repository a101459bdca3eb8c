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
    tamari.check_size(args.n, args.m, args.cap)
    sys.stdout.write(tamari.hasse_dot(args.m, args.n))
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


# Each suite runs in its own helper, and the oracles and poset families it
# uses live no longer than that helper (the ordm family, from its size rule
# on), so their memos are freed before the next suite runs.


def _axioms_report(name: str, m: int, max_degree: int, oracle) -> CheckReport:
    report = trees.verify_dyck_axioms(m, max_degree, oracle.product, oracle.basis)
    report.name = f"axioms on {name} degree<={max_degree}"
    return report


def _axiom_reports(args) -> list[CheckReport]:
    reports = []
    for m in range(1, args.m + 1):
        tree_oracle = TreeOracle(m)
        reports.append(_axioms_report(f"trees m={m}", m, args.max_degree, tree_oracle))
        reports.append(_axioms_report(f"paths m={m}", m, args.max_degree, PathOracle(m)))
        reports.append(
            trees.verify_circ_relations(m, args.max_degree, tree_oracle.product, tree_oracle.basis)
        )
    return reports


def _ordm_reports(args) -> list[CheckReport]:
    family = args.family  # the one on which the size rule counted the simplices
    return [
        _axioms_report(f"Tamari {m}-simplices", m, args.max_degree, posets.OrdmOracle(family, m))
        for m in range(1, args.m + 1)
    ]


def _simplicial_reports(args) -> list[CheckReport]:
    return [simplicial.verify_simplicial_identities(args.max_m)]


def _freeness_reports(args) -> list[CheckReport]:
    return [
        simplicial.verify_Sk_freeness(m, k, args.max_degree)
        for m in range(1, args.m + 1)
        for k in range(m)
    ]


def _poset_reports(args) -> list[CheckReport]:
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ValueError(f"cannot read {args.file}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"cannot read {args.file}: not UTF-8 text") from exc
        family = posets.parse_poset_file(text)
        top = max(family.declared_degrees(), default=1)
        bound = args.max_degree or top
        # refused before the checker lists the pairs of every degree up to it
        if bound > top:
            raise ValueError(
                f"--max-degree {bound} is above every degree that --file {args.file} declares"
            )
        if bound < 2:
            raise ValueError(f"--file {args.file} declares no degree >= 2")
        return [posets.verify_dendriform_poset(family, bound)]
    # each family, with its posets and pair memo, is freed before the next is built
    return [
        posets.verify_dendriform_poset(family(), args.max_degree or bound)
        for family, bound in (
            (posets.PermutationFamily, 4),
            (posets.SurjectionFamily, 3),
            (posets.TamariBinaryFamily, 5),
            (posets.PlanarTreeFamily, 4),
        )
    ]


def _interval_reports(args) -> list[CheckReport]:
    sizes = [(m, args.max_size) for m in range(1, args.m + 1)]
    if args.suite == "all":
        sizes.append((3, 4))
    return [tamari.verify_interval_product(m, size) for m, size in sizes]


def _series_reports(args) -> list[CheckReport]:
    return [series.check_series_identities(args.max_m, args.order)]


def _negative_reports(args) -> list[CheckReport]:
    return [_negative_report(m) for m in ((1, 2) if args.m is None else (args.m,))]


# every suite, in the order that `verify --suite all` runs them: its helper,
# which reads the options listed, with these defaults filled in (None where it
# has its own), and the option and least value at which it checks anything
# (the verifiers refuse a smaller one too, but in their own parameter's name)
_SUITES = {
    "axioms": (_axiom_reports, {"m": 3, "max_degree": 5}, ("max_degree", 3)),
    "ordm": (_ordm_reports, {"m": 2, "max_degree": 5}, ("max_degree", 3)),
    "simplicial": (_simplicial_reports, {"max_m": 5}, None),
    "freeness": (_freeness_reports, {"m": 2, "max_degree": 4}, ("max_degree", 1)),
    "poset": (_poset_reports, {"max_degree": None, "file": None}, ("max_degree", 2)),
    "tamari-interval": (_interval_reports, {"m": 2, "max_size": 6}, ("max_size", 2)),
    "series": (_series_reports, {"max_m": 4, "order": 10}, None),
    "negative": (_negative_reports, {"m": None}, None),
}

# the most m-simplices of the top degree that the ordm suite sweeps; above
# tamari.DEFAULT_CAP, since --m 3 --max-degree 6 has 23430 of them
ORDM_SIMPLEX_CAP = 40_000


# the most top-degree basis elements, summed over all the runs of --m, that
# the freeness and interval suites enumerate; above tamari.DEFAULT_CAP, since
# freeness --m 3 --max-degree 6 costs 24240 of them
RUNS_CAP = 40_000


def _runs_cost(n: int, per_m: int, m: int) -> int:
    """The sum of m' ** per_m * d(m', n) over 1 <= m' <= m: the interval suite
    (per_m = 0) runs once per m', the freeness suite (per_m = 1) m' times."""
    return sum(k**per_m * series.fuss_catalan(k, n) for k in range(1, m + 1))


def _check_simplices(options) -> None:
    """Refuse an ordm ``--m`` whose simplices of the top degree are more than
    the cap; they are counted on the family that the suite then sweeps."""
    options.family = family = posets.TamariBinaryFamily()
    tamari.check_size(
        options.m,
        cap=ORDM_SIMPLEX_CAP,
        size_of=partial(posets.count_simplices, family, options.max_degree),
        option=f"--max-degree {options.max_degree} --m",
        unit=f"Tamari simplices of degree {options.max_degree}",
    )


def _suite_reports(args) -> list[CheckReport]:
    # an option that no chosen suite reads is refused, the first in the parser's order
    every = {option for _, defaults, _ in _SUITES.values() for option in defaults}
    read = every if args.suite == "all" else _SUITES[args.suite][1]
    for option, value in vars(args).items():
        if value is not None and option in every and option not in read:
            raise ValueError(f"--{option.replace('_', '-')} is not read by --suite {args.suite}")
    _at_least(1, ("--m", args.m), ("--max-m", args.max_m), ("--order", args.order))
    given = {option: value for option, value in vars(args).items() if value is not None}
    suites = {}
    for name in list(_SUITES) if args.suite == "all" else [args.suite]:
        _, defaults, least = _SUITES[name]
        if least:
            _at_least(least[1], ("--" + least[0].replace("_", "-"), given.get(least[0])))
        suites[name] = argparse.Namespace(**{**vars(args), **defaults, **given})
    # arguments that a later suite would refuse are refused before any suite runs
    if "negative" in suites and args.m not in (None, *_NEGATIVE_CONTROLS):
        raise ValueError("negative suite is defined for m = 1 and m = 2")
    if "ordm" in suites:
        tamari.check_size(suites["ordm"].max_degree, poset="Tamari")
    if "poset" in suites and args.max_degree is not None and not args.file:
        # surjections, the largest built-in family
        tamari.check_size(args.max_degree, poset="surjections", size_of=_fubini)
    if "series" in suites:
        tamari.check_size(
            suites["series"].order,
            size_of=series.product_cost,
            option="--order",
            unit="coefficient products per series product",
        )
    if "simplicial" in suites or "series" in suites:
        tamari.check_size(
            max(suites[name].max_m for name in ("simplicial", "series") if name in suites),
            size_of=simplicial.slot_law_checks,
            option="--max-m",
            unit="slot-law checks at the largest m",
        )
    # after both rules above, so that each option alone is refused in its own words
    if "series" in suites:
        max_m, order = suites["series"].max_m, suites["series"].order
        tamari.check_size(
            order,
            cap=series.IDENTITY_COST_CAP,
            size_of=partial(series.identity_cost, max_m),
            option=f"--max-m {max_m} --order",
            unit="coefficient products in all compositions",
        )
    # the largest basis of each suite that enumerates m-Dyck paths, at the option of its least bound
    for name in ("axioms", "freeness", "tamari-interval"):
        if name in suites:
            tamari.check_size(getattr(suites[name], _SUITES[name][2][0]), suites[name].m)
    # and, where the suite runs at every m up to --m, all those bases together
    for name, per_m in (("freeness", 1), ("tamari-interval", 0)):
        if name in suites:
            option = _SUITES[name][2][0]
            n = getattr(suites[name], option)
            tamari.check_size(
                suites[name].m,
                cap=RUNS_CAP,
                size_of=partial(_runs_cost, n, per_m),
                option=f"--{option.replace('_', '-')} {n} --m",
                unit="top-degree basis elements over all runs",
            )
    # last, so that every rule above keeps its message; the degree is bounded by then
    if "ordm" in suites:
        _check_simplices(suites["ordm"])
    # each suite's options, and the family in them, are dropped once it has run
    return [report for name in list(suites) for report in _SUITES[name][0](suites.pop(name))]


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
        "no lattice is built, but the DOT text holds every path and every cover, "
        "so --m 2 --n 8 --cap 100000 writes 245160 lines in about 100 MB",
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
