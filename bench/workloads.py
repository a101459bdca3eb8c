"""The benchmark's workloads: their inputs, the code they run and their gates.

Every workload is exhaustive and deterministic, so no input depends on the
seed.  ``prepare`` imports ``mdyck`` and readies the inputs; that is the
set-up every command-line call and script pays.  ``run`` does the work and
``gate`` returns the failed correctness checks, an empty list when the result
is verified.  Library functions are looked up through their modules at call
time, so that the tracer's rebinding of module attributes reaches them.

Each workload has a full size, which is what the benchmark records, and a
smoke size that runs the same code path and gate in well under a second.
"""

from __future__ import annotations

import contextlib
import io
import math
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def tamari_interval_count(m: int, n: int) -> int:
    """Number of intervals of the m-Tamari lattice on paths of size n.

    Closed form of Bousquet-Melou, Fusy and Preville-Ratelle (2011),
    independent of the lattice that ``mdyck`` builds.
    """
    value = Fraction(m + 1, n * (m * n + 1)) * math.comb((m + 1) ** 2 * n + m, n - 1)
    if value.denominator != 1:
        raise ArithmeticError(f"interval count for m={m} n={n} is not an integer")
    return value.numerator


def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


class VerifyAll:
    """``mdyck verify --suite all`` through the CLI entry point.

    Besides the golden output, the gate checks every m-Tamari lattice that
    the interval suite built against the closed-form interval count.  The
    lattices come from ``build_lattice``, which returns the ones the command
    already built.
    """

    # (argv, golden file, (m, largest size) of the lattices the suite builds)
    ARGV = {
        False: (["verify", "--suite", "all"], "verify_all.txt", ((1, 6), (2, 6), (3, 4))),
        True: (
            ["verify", "--suite", "all", "--m", "1", "--max-degree", "3",
             "--max-size", "3", "--max-m", "2", "--order", "4"],
            "verify_all_smoke.txt",
            ((1, 3), (3, 4)),
        ),
    }

    def __init__(self, smoke: bool):
        self.argv, self.golden_name, sizes = self.ARGV[smoke]
        self.lattices = [(m, n) for m, size in sizes for n in range(2, size + 1)]

    def prepare(self) -> None:
        from mdyck import cli, tamari

        self.cli = cli
        self.tamari = tamari
        self.golden = (GOLDEN / self.golden_name).read_bytes()
        self.expected_intervals = {key: tamari_interval_count(*key) for key in self.lattices}

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(self.argv)
        intervals = {
            (m, n): self.tamari.build_lattice(m, n).interval_count() for m, n in self.lattices
        }
        return code, out.getvalue().encode(), intervals

    def gate(self, result) -> list[str]:
        code, stdout, intervals = result
        errors: list[str] = []
        _expect(errors, "exit code", code, 0)
        if stdout != self.golden:
            errors.append(f"stdout differs from golden/{self.golden_name}")
        for (m, n), count in intervals.items():
            _expect(errors, f"intervals of build_lattice({m}, {n})", count,
                    self.expected_intervals[(m, n)])
        return errors


class AxiomSweep:
    """``verify_dyck_axioms`` on the tree model, then on the path model, m = 2."""

    # (max total degree, exact check count) for the tree model, then the path model
    SIZES = {False: ((7, 18276), (6, 2886)), True: ((5, 438), (4, 60))}

    def __init__(self, smoke: bool):
        self.sizes = self.SIZES[smoke]

    def prepare(self) -> None:
        from mdyck import paths, trees

        self.trees = trees
        self.oracles = [trees.TreeOracle(2), paths.PathOracle(2)]

    def run(self):
        return [
            self.trees.verify_dyck_axioms(2, degree, oracle.product, oracle.basis)
            for oracle, (degree, _) in zip(self.oracles, self.sizes)
        ]

    def gate(self, reports) -> list[str]:
        errors: list[str] = []
        for report, model, (degree, checks) in zip(reports, ("trees", "paths"), self.sizes):
            _expect(errors, f"{model} degree<={degree} ok", report.ok, True)
            _expect(errors, f"{model} degree<={degree} checks", report.checks, checks)
        return errors


class Rank:
    """Full rank of the ``phi`` matrix, then freeness of the merged products."""

    # (n of the phi matrix, freeness max degree, total freeness checks)
    SIZES = {False: (6, 5, 40), True: (4, 3, 32)}

    def __init__(self, smoke: bool):
        self.phi_n, self.freeness_degree, self.freeness_checks = self.SIZES[smoke]

    def prepare(self) -> None:
        from mdyck import paths, simplicial

        self.paths = paths
        self.simplicial = simplicial

    def run(self):
        full_rank = self.paths.phi_matrix_full_rank(2, self.phi_n)
        reports = [
            self.simplicial.verify_Sk_freeness(2, k, self.freeness_degree) for k in (0, 1)
        ]
        return full_rank, reports

    def gate(self, result) -> list[str]:
        full_rank, reports = result
        errors: list[str] = []
        _expect(errors, f"phi_matrix_full_rank(2, {self.phi_n})", full_rank, True)
        for k, report in enumerate(reports):
            _expect(errors, f"freeness k={k} ok", report.ok, True)
        _expect(errors, "freeness checks", sum(r.checks for r in reports), self.freeness_checks)
        return errors


WORKLOADS = {
    "verify-all": VerifyAll,
    "axiom-sweep": AxiomSweep,
    "rank": Rank,
}
