import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mdyck import cli, posets, series, simplicial, tamari, trees
from mdyck.reporting import CheckReport
from mdyck.cli import main

ROOT = Path(__file__).resolve().parents[1]
# literals nested beyond the interpreter's default recursion limit
DEEP_TREE = "(0 " * 1500 + "|" + " |)" * 1500
DEEP_PLANAR = "( " * 1500 + "|" + " |)" * 1500
# a poset file whose bytes are not UTF-8
NOT_UTF8 = ROOT / "tests" / "data" / "not_utf8.poset"
# a poset file that declares the product / e e twice
DUPLICATE_PRODUCT = ROOT / "tests" / "data" / "duplicate_product.poset"
# a poset file with a degree 0 block
DEGREE_ZERO = ROOT / "tests" / "data" / "degree_zero.poset"


def run(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def test_dims_table():
    code, out = run(["dims", "--m", "2", "--max-n", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].split() == ["3", "12", "12", "12", "MATCH"]
    assert all("MISMATCH" not in line for line in lines)


def test_dims_catalan_column():
    code, out = run(["dims", "--m", "1", "--max-n", "4"])
    assert code == 0
    counts = [line.split()[1] for line in out.splitlines()[1:]]
    assert counts == ["1", "2", "5", "14"]


def test_dims_rejects_m_zero():
    code, _ = run(["dims", "--m", "0", "--max-n", "3"])
    assert code == 2


def test_dims_is_capped_before_enumerating():
    # d(1,11) = 58786 is refused before either basis is built
    code, out, err = _usage_error(["dims", "--m", "1", "--max-n", "11"])
    assert (code, out) == (2, "")
    assert err == "error: d(1,11) = 58786 exceeds cap 20000\n"
    code, out = run(["dims", "--m", "1", "--max-n", "10"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].split() == ["10", "16796", "16796", "16796", "MATCH"]
    assert all("MISMATCH" not in line for line in lines)


def test_mul_paths_matches_printed_expansion():
    code, out = run(["mul", "--model", "paths", "--m", "2", "--i", "0", "1,3", "0,2,4,2"])
    assert code == 0
    assert out == (
        "+1*[1,0,0,2,7,2] +1*[1,1,0,2,6,2] +1*[1,2,0,2,5,2] +1*[1,3,0,2,4,2]\n"
    )


def test_mul_trees():
    code, out = run(["mul", "--model", "trees", "--m", "1", "--i", "1", "(1 | |)", "|"])
    assert code == 0
    assert out == "+1*[(1 | (0 | |))] +1*[(1 | (1 | |))]\n"


def test_mul_ordm():
    code, out = run(
        ["mul", "--model", "ordm", "--m", "2", "--i", "1", "(| |);(| |)", "(| |);(| |)"]
    )
    assert code == 0
    assert out == "+1*[((| |) |);(| (| |))]\n"


def test_mul_parse_error():
    code, _ = run(["mul", "--model", "paths", "--m", "2", "--i", "0", "3,1", "2"])
    assert code == 2
    code, _ = run(["mul", "--model", "trees", "--m", "1", "--i", "5", "|", "|"])
    assert code == 2


def _usage_error(argv):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(argv)
    return code, out, err.getvalue()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["mul", "--model", "ordm", "--m", "2", "--i", "0"]
            + ["(| (| |));((| |) |)", "(| |);(| |)"],
            "simplex coordinates not increasing: '(| (| |));((| |) |)'",
        ),
        (
            ["mul", "--model", "ordm", "--m", "2", "--i", "0", "(| |)", "(| |)"],
            "simplices must have 2 coordinates",
        ),
    ],
    ids=["decreasing", "too-few-coordinates"],
)
def test_mul_ordm_refuses_a_simplex_it_cannot_multiply(argv, message):
    code, out, err = _usage_error(argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mul", "--model", "trees", "--m", "2", "--i", "0", "(1 | |", "|"], None),
        (["mul", "--model", "trees", "--m", "2", "--i", "0", "(", "|"], None),
        (["mul", "--model", "ordm", "--m", "2", "--i", "0", "(| |", "|"], None),
        (["mul", "--model", "paths", "--m", "2", "--i", "0", "1,,3", "2"], None),
        (["mul", "--model", "paths", "--m", "2", "--i", "0", "2", "2,"], None),
        (["mul", "--model", "ordm", "--m", "2", "--i", "0", "|;|", "|;|"], None),
        (["mul", "--model", "ordm", "--m", "1", "--i", "0", "|", "(| |)"], None),
        (
            ["mul", "--model", "ordm", "--m", "2", "--i", "0", "(| | |);(| | |)", "(| |);(| |)"],
            None,
        ),
        (["dims", "--m", "2", "--max-n", "-3"], None),
        (["verify", "--suite", "poset", "--file", "/nonexistent/family.poset"], None),
        (["mul", "--model", "trees", "--m", "1", "--i", "0", DEEP_TREE, "|"], None),
        (["mul", "--model", "ordm", "--m", "1", "--i", "0", DEEP_PLANAR, "(| |)"], None),
        (
            ["verify", "--suite", "poset", "--file", str(NOT_UTF8)],
            f"cannot read {NOT_UTF8}: not UTF-8 text",
        ),
        (
            ["verify", "--suite", "poset", "--file", str(DUPLICATE_PRODUCT)],
            "product / e e declared twice",
        ),
        (
            ["verify", "--suite", "poset", "--file", str(DEGREE_ZERO)],
            "degree 0 is below 1",
        ),
    ],
    ids=[
        "tree-unclosed",
        "tree-open-only",
        "ordm-unclosed",
        "path-empty-level",
        "path-trailing-comma",
        "ordm-leaf-coordinates",
        "ordm-leaf-coordinate",
        "ordm-ternary-simplex",
        "dims-negative",
        "missing-file",
        "tree-deep",
        "ordm-deep",
        "not-utf8",
        "duplicate-product",
        "degree-zero",
    ],
)
def test_malformed_input_is_usage_error(argv, message):
    code, out, err = _usage_error(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if message is not None:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["mul", "--model", "trees", "--m", "2", "--i", "1", "(1|(0||)) |", "|"],
            "color '1|' is not an integer in tree literal '(1|(0||)) |'",
        ),
        (
            ["mul", "--model", "paths", "--m", "2", "--i", "0", "1,x", "2"],
            "level 'x' is not an integer in path literal '1,x'",
        ),
    ],
    ids=["tree-color", "path-level"],
)
def test_a_non_integer_in_a_literal_names_the_literal(argv, message):
    code, out, err = _usage_error(argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert "int()" not in err and "Traceback" not in err


@pytest.mark.parametrize("line", ["degree", "elem", "cover a", "degree 1\nelem a\ncover a"])
def test_truncated_poset_line_is_usage_error(tmp_path, line):
    path = tmp_path / "family.poset"
    path.write_text(line + "\n", encoding="utf-8")
    code, out, err = _usage_error(["verify", "--suite", "poset", "--file", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_integer_degree_is_usage_error(tmp_path):
    path = tmp_path / "family.poset"
    path.write_text("degree x\nelem e\n", encoding="utf-8")
    code, out, err = _usage_error(["verify", "--suite", "poset", "--file", str(path)])
    assert (code, out, err) == (2, "", "error: malformed degree line: 'degree x'\n")


def test_cyclic_poset_file_is_usage_error(tmp_path):
    path = tmp_path / "cycle.poset"
    path.write_text(
        "\n".join(
            [
                "degree 1",
                "elem e",
                "degree 2",
                "elem a",
                "elem b",
                "cover a b",
                "cover b a",
                "prod / e e -> a",
                "prod bot e e -> a",
                "prod top e e -> b",
                "prod \\ e e -> b",
            ]
        ),
        encoding="utf-8",
    )
    code, out, err = _usage_error(["verify", "--suite", "poset", "--file", str(path)])
    assert code == 2
    assert out == ""
    assert err == "error: cycle in cover relation (not a partial order)\n"


def test_hasse():
    code, out = run(["hasse", "--m", "2", "--n", "1"])
    assert code == 0
    assert '"2"' in out and "->" not in out
    code, out = run(["hasse", "--m", "2", "--n", "2"])
    assert code == 0
    assert out.count("->") == 2
    code, again = run(["hasse", "--m", "2", "--n", "2"])
    assert again == out  # byte-stable
    code, out = run(["hasse", "--m", "1", "--n", "3"])
    assert out.count("->") == 5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hasse", "--m", "0", "--n", "2"], "--m must be >= 1"),
        (["hasse", "--m", "-1", "--n", "2"], "--m must be >= 1"),
        (["hasse", "--m", "2", "--n", "0"], "--n must be >= 1"),
        (["verify", "--suite", "series", "--order", "0"], "--order must be >= 1"),
        (["verify", "--suite", "series", "--order", "-1"], "--order must be >= 1"),
        (["dims", "--m", "0", "--max-n", "2"], "--m must be >= 1"),
        (["dims", "--m", "2", "--max-n", "0"], "--max-n must be >= 1"),
        (["mul", "--model", "trees", "--m", "0", "--i", "0", "|", "|"], "--m must be >= 1"),
    ],
    ids=[
        "hasse-m-0", "hasse-m-negative", "hasse-n-0", "series-order-0", "series-order-negative",
        "dims-m-0", "dims-max-n-0", "mul-trees-m-0",
    ],
)
def test_an_option_below_one_is_named(argv, message):
    assert _usage_error(argv) == (2, "", f"error: {message}\n")


def test_hasse_cap():
    code, _ = run(["hasse", "--m", "2", "--n", "6", "--cap", "100"])
    assert code == 2


def test_hasse_help_calls_the_cap_an_override_and_prices_it(capsys):
    with pytest.raises(SystemExit):
        main(["hasse", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "deliberate override" in text
    assert "no lattice is built" in text
    assert "--m 2 --n 8 --cap 100000 writes 245160 lines in about 100 MB" in text


def test_verify_negative():
    code, out = run(["verify", "--suite", "negative", "--m", "1"])
    assert code == 0
    assert "ok" in out


def test_a_negative_control_that_holds_fails(monkeypatch):
    # the m = 1 interchange x *_0 (y *_1 z) = (x *_0 y) *_1 z holds in the free algebra
    control = ("interchange unexpectedly holds", ((1, "L", 0, 1),), ((1, "R", 0, 1),))
    monkeypatch.setitem(cli._NEGATIVE_CONTROLS, 1, (control,))
    assert run(["verify", "--suite", "negative", "--m", "1"]) == (
        1,
        "negative controls m=1: FAILED (1 checks)\n  interchange unexpectedly holds\n",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "axioms", "--m", "0", "--max-degree", "0"],
        ["verify", "--suite", "negative", "--m", "0"],
        ["verify", "--suite", "simplicial", "--max-m", "0"],
        ["verify", "--suite", "series", "--max-m", "-1"],
        # bounds at which the suite would check nothing
        ["verify", "--suite", "freeness", "--max-degree", "0"],
        ["verify", "--suite", "poset", "--max-degree", "1"],
        ["verify", "--suite", "tamari-interval", "--max-size", "1"],
    ],
)
def test_verify_rejects_m_below_one(argv):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(argv)
    assert code == 2
    assert out == ""
    assert err.getvalue().startswith("error: ")


def test_verify_keeps_explicit_zero_bound():
    # an explicit --max-degree 0 reaches the checker instead of the default 5
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["verify", "--suite", "axioms", "--m", "1", "--max-degree", "0"])
    assert code == 2
    assert out == ""
    assert err.getvalue() == "error: --max-degree must be >= 3\n"


@pytest.mark.parametrize(
    "suite, option, value, least",
    [
        ("axioms", "--max-degree", 0, 3),
        ("axioms", "--max-degree", 2, 3),
        ("ordm", "--max-degree", 1, 3),
        ("all", "--max-degree", 2, 3),
        ("poset", "--max-degree", 0, 2),
        ("poset", "--max-degree", 1, 2),
        ("freeness", "--max-degree", 0, 1),
        ("tamari-interval", "--max-size", 0, 2),
        ("tamari-interval", "--max-size", 1, 2),
        ("all", "--max-size", 1, 2),
    ],
)
def test_a_bound_at_which_a_suite_checks_nothing_is_named(suite, option, value, least):
    # refused before any suite runs, in the option's name, not the verifier's parameter
    argv = ["verify", "--suite", suite, option, str(value)]
    assert _usage_error(argv) == (2, "", f"error: {option} must be >= {least}\n")


def test_verify_all_matches_golden_output():
    golden = Path(__file__).resolve().parents[1] / "bench" / "golden" / "verify_all.txt"
    code, out = run(["verify", "--suite", "all"])
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_verify_axioms_small():
    code, out = run(["verify", "--suite", "axioms", "--m", "1", "--max-degree", "4"])
    assert code == 0


def test_verify_axioms_keeps_the_partial_sum_degree():
    # --max-degree reaches the partial-sum relations as given
    code, out = run(["verify", "--suite", "axioms", "--m", "1", "--max-degree", "6"])
    assert code == 0
    assert out.splitlines()[2] == "partial-sum relations m=1 degree<=6: ok (432 checks)"


def _left_comb(leaves):
    comb = "|"
    for _ in range(leaves - 1):
        comb = f"({comb} |)"
    return comb


@pytest.mark.parametrize(
    "lhs, rhs, m",
    [
        # the product has degree 11: Catalan(11) = 58786 elements
        pytest.param(_left_comb(11), "(| |)", 1, id="product"),
        # a second coordinate of degree 11 in a product of degree 2
        pytest.param("(| |);" + _left_comb(12), "(| |);(| |)", 2, id="coordinate"),
    ],
)
def test_mul_ordm_refuses_a_tamari_poset_above_the_cap(lhs, rhs, m):
    code, out, err = _usage_error(["mul", "--model", "ordm", "--m", str(m), "--i", "0", lhs, rhs])
    assert code == 2
    assert out == ""
    assert err == "error: the Tamari poset of degree 11 has 58786 elements, more than 20000\n"


def test_mul_ordm_at_the_cap():
    # degree 10: Catalan(10) = 16796 elements, within the cap
    code, out = run(["mul", "--model", "ordm", "--m", "1", "--i", "0", _left_comb(10), "(| |)"])
    assert code == 0
    assert out == "+1*[" + _left_comb(11) + "]\n"


CAP_MESSAGE = "the Tamari poset of degree 11 has 58786 elements, more than 20000"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "ordm", "--max-degree", "11"], CAP_MESSAGE),
        (["--suite", "all", "--max-degree", "11"], CAP_MESSAGE),
        (["--suite", "all", "--m", "3"], "negative suite is defined for m = 1 and m = 2"),
        (
            ["--suite", "axioms", "--m", "1", "--max-degree", "3", "--file", "/nonexistent"],
            "--file is not read by --suite axioms",
        ),
        (["--suite", "series", "--max-size", "3"], "--max-size is not read by --suite series"),
        (["--suite", "poset", "--m", "2"], "--m is not read by --suite poset"),
        # the first unread option in the parser's order, before any is bounded
        (
            ["--suite", "simplicial", "--order", "5", "--m", "0"],
            "--m is not read by --suite simplicial",
        ),
    ],
    ids=[
        "ordm-above-cap",
        "all-above-cap",
        "all-negative-m",
        "axioms-file",
        "series-max-size",
        "poset-m",
        "simplicial-two-unread",
    ],
)
def test_verify_refuses_before_any_suite_runs(monkeypatch, argv, message):
    def sweep(*args):
        raise AssertionError("a suite ran before the arguments were checked")

    monkeypatch.setattr(trees, "verify_dyck_axioms", sweep)
    assert _usage_error(["verify", *argv]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "axioms", "--m", "3", "--max-degree", "12"], "d(3,12) = 1882933364"),
        (["--suite", "freeness", "--m", "3", "--max-degree", "11"], "d(3,11) = 225568798"),
        (["--suite", "all", "--max-size", "8"], "d(2,8) = 43263"),
    ],
    ids=["axioms", "freeness", "all-interval"],
)
def test_verify_refuses_a_basis_above_the_cap(monkeypatch, argv, message):
    def verifier(*args):
        raise AssertionError("a suite ran before the arguments were checked")

    for module, name in (
        (trees, "verify_dyck_axioms"),
        (simplicial, "verify_Sk_freeness"),
        (tamari, "verify_interval_product"),
    ):
        monkeypatch.setattr(module, name, verifier)
    expected = f"error: {message} exceeds cap 20000\n"
    assert _usage_error(["verify", *argv]) == (2, "", expected)


# an --m whose sizes have more digits than Python converts to text by default
HUGE_M = "9" * 1500


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["verify", "--suite", "axioms", "--max-degree", "1000000"],
            "d(3,1000000) exceeds cap 20000, as d(3,7) = 53820 does",
        ),
        (
            ["verify", "--suite", "all", "--max-degree", "1000000"],
            "the Tamari poset of degree 1000000 has more than 20000 elements, "
            "as that of degree 11 has 58786",
        ),
        (
            ["dims", "--m", "2", "--max-n", "1000000"],
            "d(2,1000000) exceeds cap 20000, as d(2,8) = 43263 does",
        ),
        (
            ["hasse", "--m", "1", "--n", "1000000"],
            "d(1,1000000) exceeds cap 20000, as d(1,11) = 58786 does",
        ),
        # d(m,2) = m + 1 is the first size over the cap; no long size is printed
        (
            ["verify", "--suite", "axioms", "--m", HUGE_M, "--max-degree", "4"],
            f"d({HUGE_M},4) exceeds cap 20000, as d({HUGE_M},2) does",
        ),
        (
            ["dims", "--m", HUGE_M, "--max-n", "4"],
            f"d({HUGE_M},4) exceeds cap 20000, as d({HUGE_M},2) does",
        ),
    ],
    ids=["axioms", "all", "dims", "hasse", "axioms-huge-m", "dims-huge-m"],
)
def test_a_huge_bound_is_refused_without_its_size(monkeypatch, argv, message):
    # sizes are computed by increasing degree, up to the first one over the cap
    real = series.fuss_catalan

    def bounded(m, n):
        assert n <= 11, f"fuss_catalan computed at degree {n}"
        return real(m, n)

    monkeypatch.setattr(series, "fuss_catalan", bounded)
    assert _usage_error(argv) == (2, "", f"error: {message}\n")


def test_a_bound_up_to_twice_the_first_over_the_cap_prints_its_size():
    message = "error: the Tamari poset of degree 22 has 91482563640 elements, more than 20000\n"
    assert _usage_error(["verify", "--suite", "ordm", "--max-degree", "22"]) == (2, "", message)
    message = "error: d(3,14) = 134993766600 exceeds cap 20000\n"
    assert _usage_error(["verify", "--suite", "axioms", "--max-degree", "14"]) == (2, "", message)
    message = "error: d(3,15) exceeds cap 20000, as d(3,7) = 53820 does\n"
    assert _usage_error(["verify", "--suite", "axioms", "--max-degree", "15"]) == (2, "", message)


# every verifier that `verify` can reach, by module
VERIFIERS = (
    (trees, "verify_dyck_axioms"),
    (trees, "verify_circ_relations"),
    (simplicial, "verify_simplicial_identities"),
    (simplicial, "verify_Sk_freeness"),
    (posets, "verify_dendriform_poset"),
    (tamari, "verify_interval_product"),
    (series, "check_series_identities"),
    (cli, "_negative_report"),
)


SURJECTIONS_7 = "the surjections poset of degree 7 has 47293 elements, more than 20000"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "poset", "--max-degree", "7"], SURJECTIONS_7),
        (["--suite", "all", "--m", "1", "--max-degree", "7"], SURJECTIONS_7),
        # the refusal names the bound given, with its size while that is cheap
        (
            ["--suite", "poset", "--max-degree", "8"],
            "the surjections poset of degree 8 has 545835 elements, more than 20000",
        ),
        (
            ["--suite", "poset", "--max-degree", "100"],
            "the surjections poset of degree 100 has more than 20000 elements, "
            "as that of degree 7 has 47293",
        ),
    ],
    ids=["poset", "all", "poset-8", "poset-100"],
)
def test_verify_refuses_a_poset_above_the_cap(monkeypatch, argv, message):
    def verifier(*args):
        raise AssertionError("a suite ran before the arguments were checked")

    for module, name in VERIFIERS:
        monkeypatch.setattr(module, name, verifier)
    assert _usage_error(["verify", *argv]) == (2, "", f"error: {message}\n")


def test_verify_poset_cap_spares_degree_6_and_files(monkeypatch, tmp_path):
    bounds = []

    def verifier(family, bound):
        bounds.append(bound)
        return CheckReport(name=family.name)

    monkeypatch.setattr(posets, "verify_dendriform_poset", verifier)
    assert run(["verify", "--suite", "poset", "--max-degree", "6"])[0] == 0
    assert bounds == [6, 6, 6, 6]
    path = tmp_path / "family.poset"
    path.write_text("degree 1\nelem e\ndegree 7\n", encoding="utf-8")
    argv = ["verify", "--suite", "poset", "--file", str(path), "--max-degree", "7"]
    assert run(argv)[0] == 0
    assert bounds[4:] == [7]


MAX_M_98_ORDER_198 = (
    "--max-m 98 --order 198 costs more than 100000000 coefficient products in all "
    "compositions, as --max-m 98 --order 34 costs 108106740"
)
ORDER_100000 = (
    "--order 100000 costs more than 20000 coefficient products per series product, "
    "as --order 199 costs 20100"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "series", "--order", "100000"], ORDER_100000),
        (["--suite", "all", "--order", "100000"], ORDER_100000),
        (
            ["--suite", "series", "--order", "199"],
            "--order 199 costs 20100 coefficient products per series product, more than 20000",
        ),
        (["--suite", "series", "--max-m", "98", "--order", "198"], MAX_M_98_ORDER_198),
        (["--suite", "all", "--max-m", "98", "--order", "198"], MAX_M_98_ORDER_198),
        (
            ["--suite", "series", "--max-m", "6", "--order", "198"],
            "--max-m 6 --order 198 costs 130026600 coefficient products in all "
            "compositions, more than 100000000",
        ),
        (
            ["--suite", "series", "--max-m", "98", "--order", "34"],
            "--max-m 98 --order 34 costs 108106740 coefficient products in all "
            "compositions, more than 100000000",
        ),
    ],
    ids=["series", "all", "series-199", "joint", "joint-all", "joint-max-m-6", "joint-order-34"],
)
def test_verify_refuses_an_order_over_the_cap(monkeypatch, argv, message):
    def verifier(*args):
        raise AssertionError("a suite ran before the arguments were checked")

    for module, name in VERIFIERS:
        monkeypatch.setattr(module, name, verifier)
    assert _usage_error(["verify", *argv]) == (2, "", f"error: {message}\n")


def test_verify_order_cap_spares_order_198(monkeypatch):
    orders = []

    def verifier(max_m, order):
        orders.append(order)
        return CheckReport(name="series")

    monkeypatch.setattr(series, "check_series_identities", verifier)
    assert run(["verify", "--suite", "series", "--order", "198"])[0] == 0
    assert run(["verify", "--suite", "series"])[0] == 0
    assert orders == [198, 10]


MAX_M_2000 = (
    "--max-m 2000 costs more than 20000 slot-law checks at the largest m, "
    "as --max-m 99 costs 20102"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "series", "--max-m", "2000"], MAX_M_2000),
        (["--suite", "all", "--max-m", "2000"], MAX_M_2000),
        (
            ["--suite", "simplicial", "--max-m", "400"],
            "--max-m 400 costs more than 20000 slot-law checks at the largest m, "
            "as --max-m 99 costs 20102",
        ),
        (
            ["--suite", "simplicial", "--max-m", "99"],
            "--max-m 99 costs 20102 slot-law checks at the largest m, more than 20000",
        ),
    ],
    ids=["series", "all", "simplicial", "simplicial-99"],
)
def test_verify_refuses_a_max_m_over_the_cap(monkeypatch, argv, message):
    def verifier(*args):
        raise AssertionError("a suite ran before the arguments were checked")

    for module, name in VERIFIERS:
        monkeypatch.setattr(module, name, verifier)
    assert _usage_error(["verify", *argv]) == (2, "", f"error: {message}\n")


def test_verify_max_m_cap_spares_max_m_98(monkeypatch):
    bounds = []

    def verifier(max_m, *args):
        bounds.append(max_m)
        return CheckReport(name="max-m")

    monkeypatch.setattr(simplicial, "verify_simplicial_identities", verifier)
    monkeypatch.setattr(series, "check_series_identities", verifier)
    for suite in ("simplicial", "series"):
        assert run(["verify", "--suite", suite, "--max-m", "98"])[0] == 0
        assert run(["verify", "--suite", suite])[0] == 0
    assert bounds == [98, 5, 98, 4]


def test_verify_joint_cap_spares_its_largest_bounds(monkeypatch):
    bounds = []

    def verifier(max_m, order):
        bounds.append((max_m, order))
        return CheckReport(name="series")

    monkeypatch.setattr(series, "check_series_identities", verifier)
    for argv in (["--max-m", "98", "--order", "33"], ["--max-m", "5", "--order", "198"]):
        assert run(["verify", "--suite", "series", *argv])[0] == 0
    assert bounds == [(98, 33), (5, 198)]
    assert series.identity_cost(98, 33) <= series.IDENTITY_COST_CAP < series.identity_cost(98, 34)


def test_verify_series_at_order_50():
    code, out = run(["verify", "--suite", "series", "--max-m", "1", "--order", "50"])
    assert (code, out) == (0, "series identities m<=1 order=50: ok (300 checks)\n")


def test_verify_series():
    code, out = run(["verify", "--suite", "series", "--max-m", "3", "--order", "8"])
    assert code == 0


def test_verify_poset_file(tmp_path):
    content = "\n".join(
        [
            "degree 1",
            "elem e",
            "degree 2",
            "elem a",
            "elem b",
            "elem c",
            "cover a b",
            "cover b c",
            "prod / e e -> a",
            "prod bot e e -> a",
            "prod top e e -> b",
            "prod \\ e e -> c",
        ]
    )
    path = tmp_path / "family.poset"
    path.write_text(content, encoding="utf-8")
    code, out = run(
        ["verify", "--suite", "poset", "--file", str(path), "--max-degree", "2"]
    )
    assert code == 0


def test_condition4_skips_elements_in_no_interval(tmp_path):
    # c lies in no interval, so condition 4 pairs only a and b: 2 of the 8 checks
    path = tmp_path / "family.poset"
    path.write_text(
        "degree 1\nelem e\ndegree 2\nelem a\nelem c\nelem b\ncover a c\ncover a b\n"
        "prod / e e -> a\nprod bot e e -> a\nprod top e e -> b\nprod \\ e e -> b\n",
        encoding="utf-8",
    )
    assert run(["verify", "--suite", "poset", "--file", str(path)]) == (
        0,
        "dendriform poset declared degree<=2: ok (8 checks)\n",
    )


def test_condition5_report_is_independent_of_hash_seed():
    # the failing pair is found walking both sides in element order, so
    # string-token families report the same pair and count under any seed
    poset = ROOT / "tests" / "data" / "condition5_order.poset"
    argv = [sys.executable, "-m", "mdyck.cli", "verify", "--suite", "poset"]
    argv += ["--file", str(poset)]
    for seed in ("1", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stdout == (
            "dendriform poset declared degree<=2: FAILED (63 checks)\n"
            "  condition 5 at degrees (1,1): 'b' <= 'p1'\n"
        )


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_byte_stability_of_mul():
    args = ["mul", "--model", "paths", "--m", "2", "--i", "1", "2,2", "1,3"]
    assert run(args) == run(args)



def _recorder(calls, name):
    # a product by its oracle's class and a basis by its size at degree 3,
    # a poset family by its name; every other argument as it is
    def verifier(*args):
        if name in ("verify_dyck_axioms", "verify_circ_relations"):
            m, bound, product, basis = args
            args = (m, bound, type(product.__self__).__name__, len(basis(3)))
        elif name == "verify_dendriform_poset":
            args = (args[0].name, *args[1:])
        calls.append((name, *args))
        return CheckReport(name=name)

    return verifier


# what each suite, run alone with no option, hands its verifiers
SUITE_DEFAULT_CALLS = {
    "axioms": [
        (name, m, 5, oracle, size)
        for m, size in ((1, 5), (2, 12), (3, 22))
        for name, oracle in (
            ("verify_dyck_axioms", "TreeOracle"),
            ("verify_dyck_axioms", "PathOracle"),
            ("verify_circ_relations", "TreeOracle"),
        )
    ],
    "ordm": [
        ("verify_dyck_axioms", 1, 5, "OrdmOracle", 5),
        ("verify_dyck_axioms", 2, 5, "OrdmOracle", 13),
    ],
    "simplicial": [("verify_simplicial_identities", 5)],
    "freeness": [
        ("verify_Sk_freeness", 1, 0, 4),
        ("verify_Sk_freeness", 2, 0, 4),
        ("verify_Sk_freeness", 2, 1, 4),
    ],
    "poset": [
        ("verify_dendriform_poset", "permutations", 4),
        ("verify_dendriform_poset", "surjections", 3),
        ("verify_dendriform_poset", "binary", 5),
        ("verify_dendriform_poset", "planar", 4),
    ],
    "tamari-interval": [("verify_interval_product", 1, 6), ("verify_interval_product", 2, 6)],
    "series": [("check_series_identities", 4, 10)],
    "negative": [("_negative_report", 1), ("_negative_report", 2)],
}


@pytest.mark.parametrize("suite", SUITE_DEFAULT_CALLS)
def test_each_suite_alone_runs_at_its_defaults(monkeypatch, suite):
    calls = []
    for module, name in VERIFIERS:
        monkeypatch.setattr(module, name, _recorder(calls, name))
    assert run(["verify", "--suite", suite])[0] == 0
    assert calls == SUITE_DEFAULT_CALLS[suite]


@pytest.mark.parametrize("content", ["degree 1\nelem e\n", ""], ids=["degree-1", "empty"])
def test_a_poset_file_without_degree_2_is_named(tmp_path, content):
    # without --max-degree the file's largest degree is the bound, which must reach 2
    path = tmp_path / "family.poset"
    path.write_text(content, encoding="utf-8")
    message = f"error: --file {path} declares no degree >= 2\n"
    assert _usage_error(["verify", "--suite", "poset", "--file", str(path)]) == (2, "", message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--m", "8", "--max-degree", "5"],
            "--max-degree 5 --m 8 costs 429478 Tamari simplices of degree 5, more than 40000",
        ),
        (
            ["--m", "6"],
            "--max-degree 5 --m 6 costs 74940 Tamari simplices of degree 5, more than 40000",
        ),
        (
            ["--m", str(10**40), "--max-degree", "5"],
            f"--max-degree 5 --m {10**40} costs more than 40000 Tamari simplices of "
            "degree 5, as --max-degree 5 --m 6 costs 74940",
        ),
        (
            ["--m", "4", "--max-degree", "6"],
            "--max-degree 6 --m 4 costs 146053 Tamari simplices of degree 6, more than 40000",
        ),
    ],
    ids=["m-8", "m-6-default-degree", "huge-m", "m-4-degree-6"],
)
def test_verify_refuses_an_ordm_m_over_the_simplex_cap(monkeypatch, argv, message):
    def verifier(*args):
        raise AssertionError("a suite ran before the arguments were checked")

    for module, name in VERIFIERS:
        monkeypatch.setattr(module, name, verifier)
    assert _usage_error(["verify", "--suite", "ordm", *argv]) == (2, "", f"error: {message}\n")


def test_verify_simplex_cap_spares_m_3_degree_6_and_m_5(monkeypatch):
    calls = []
    monkeypatch.setattr(trees, "verify_dyck_axioms", _recorder(calls, "verify_dyck_axioms"))
    for argv in (["--m", "3", "--max-degree", "6"], ["--m", "5"]):
        assert run(["verify", "--suite", "ordm", *argv])[0] == 0
    assert [call[1:3] for call in calls] == [(1, 6), (2, 6), (3, 6), *((m, 5) for m in range(1, 6))]
    family = posets.TamariBinaryFamily()
    assert posets.count_simplices(family, 6, 3) == 23430 <= cli.ORDM_SIMPLEX_CAP
    assert posets.count_simplices(family, 5, 5) == 26947 <= cli.ORDM_SIMPLEX_CAP


@pytest.mark.parametrize("bound", ["3", "100000"])
def test_a_poset_file_bound_above_its_degrees_is_refused(monkeypatch, tmp_path, bound):
    # refused before the checker lists the degree pairs up to the bound
    def verifier(*args):
        raise AssertionError("a suite ran before the arguments were checked")

    monkeypatch.setattr(posets, "verify_dendriform_poset", verifier)
    path = tmp_path / "family.poset"
    path.write_text("degree 1\nelem e\ndegree 2\nelem a\n", encoding="utf-8")
    argv = ["verify", "--suite", "poset", "--file", str(path), "--max-degree", bound]
    message = f"error: --max-degree {bound} is above every degree that --file {path} declares\n"
    assert _usage_error(argv) == (2, "", message)


RUNS = "top-degree basis elements over all runs"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["freeness", "--max-degree", "1", "--m", "100000"],
            f"--max-degree 1 --m 100000 costs more than 40000 {RUNS}, "
            "as --max-degree 1 --m 283 costs 40186",
        ),
        (
            ["freeness", "--max-degree", "1", "--m", HUGE_M],
            f"--max-degree 1 --m {HUGE_M} costs more than 40000 {RUNS}, "
            "as --max-degree 1 --m 283 costs 40186",
        ),
        (
            ["freeness", "--max-degree", "1", "--m", "283"],
            f"--max-degree 1 --m 283 costs 40186 {RUNS}, more than 40000",
        ),
        (
            ["freeness", "--max-degree", "2", "--m", "49"],
            f"--max-degree 2 --m 49 costs 41650 {RUNS}, more than 40000",
        ),
        (
            ["tamari-interval", "--max-size", "2", "--m", "19999"],
            f"--max-size 2 --m 19999 costs more than 40000 {RUNS}, "
            "as --max-size 2 --m 282 costs 40185",
        ),
        (
            ["tamari-interval", "--max-size", "2", "--m", "282"],
            f"--max-size 2 --m 282 costs 40185 {RUNS}, more than 40000",
        ),
    ],
    ids=[
        "freeness",
        "freeness-huge-m",
        "freeness-283",
        "freeness-degree-2",
        "interval",
        "interval-282",
    ],
)
def test_verify_refuses_an_m_whose_runs_exceed_the_cap(monkeypatch, argv, message):
    # the largest basis is within the cap, but the suite runs once per m'
    # (freeness once per (m', k), k < m') up to --m
    def verifier(*args):
        raise AssertionError("a suite ran before the arguments were checked")

    for module, name in VERIFIERS:
        monkeypatch.setattr(module, name, verifier)
    assert _usage_error(["verify", "--suite", *argv]) == (2, "", f"error: {message}\n")


def test_verify_runs_cap_spares_the_largest_ci_runs(monkeypatch):
    calls = []
    for module, name in VERIFIERS:
        monkeypatch.setattr(module, name, _recorder(calls, name))
    for argv in (
        ["freeness", "--m", "3", "--max-degree", "6"],
        ["tamari-interval", "--m", "3", "--max-size", "6"],
        ["tamari-interval", "--m", "2", "--max-size", "7"],
        ["freeness", "--max-degree", "1", "--m", "282"],
        ["tamari-interval", "--max-size", "2", "--m", "281"],
    ):
        assert run(["verify", "--suite", *argv])[0] == 0
    assert len(calls) == 6 + 3 + 2 + 282 * 283 // 2 + 281
    assert cli._runs_cost(6, 1, 3) == 24240 <= cli.RUNS_CAP
    assert cli._runs_cost(6, 0, 3) == 8644 and cli._runs_cost(7, 0, 2) == 8181
