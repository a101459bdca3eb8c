"""Self-test of the benchmark, at smoke sizes, in a few seconds.

Run from the root of a checkout:

    python3 bench/selftest.py

It runs every workload once untraced and twice traced with ``--smoke`` and
checks that each run exits 0, passes its gates and ends with the result line
that ``BENCHMARK.json`` describes, and that the two traced runs count the
same calls.  It also checks that the gates reject wrong results, that the
calibration ticker interrupts a busy loop, and that the benchmark fails without printing a result when the sources are missing.
Smoke numbers are never benchmark results.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from calibrate import PERIOD_S, Ticker, reference  # noqa: E402
from workloads import WORKLOADS, AxiomSweep, VerifyAll, tamari_interval_count  # noqa: E402

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def result_line(proc: subprocess.CompletedProcess, label: str) -> dict:
    check(proc.returncode == 0, f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        check(False, f"{label}: no output")
        return {"metrics": {}}
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
    check(result.get("correct") is True, f"{label}: not correct: {lines[0][-800:]}")
    check(result.get("failed") == 0 and result.get("attempted", 0) >= 1,
          f"{label}: attempted {result.get('attempted')} failed {result.get('failed')}")
    return result


def metric_units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def smoke_runs(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(WORKLOADS), f"BENCHMARK.json workloads {names}")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in names:
        plain = result_line(bench(workload, 0), f"{workload} --trace 0")
        check(metric_units(plain) == end_to_end, f"{workload}: end-to-end metrics differ")
        traced = [result_line(bench(workload, 1), f"{workload} --trace 1") for _ in range(2)]
        for result in traced:
            check(metric_units(result) == per_layer, f"{workload}: per-layer metrics differ")
        calls = [
            {k: m["value"] for k, m in r["metrics"].items() if k.endswith(".calls")}
            for r in traced
        ]
        check(calls[0] == calls[1], f"{workload}: call counts differ between traced runs")
        print(f"ok   {workload}")


def gates_reject_wrong_results() -> None:
    # Catalan interval numbers 3, 13, 68 for m = 1 and the m = 3, n = 6 count
    check([tamari_interval_count(1, n) for n in (2, 3, 4)] == [3, 13, 68], "m=1 interval counts")
    check(tamari_interval_count(3, 6) == 2509584, "m=3 n=6 interval count")

    verify = VerifyAll(smoke=True)
    verify.golden = b"expected\n"
    verify.expected_intervals = {(3, 4): 3685}
    check(verify.gate((0, b"expected\n", {(3, 4): 3685})) == [], "verify-all gate rejects golden output")
    check(verify.gate((0, b"other\n", {(3, 4): 3685})) != [], "verify-all gate accepts wrong output")
    check(verify.gate((1, b"expected\n", {(3, 4): 3685})) != [], "verify-all gate accepts exit code 1")
    check(verify.gate((0, b"expected\n", {(3, 4): 3684})) != [], "verify-all gate accepts wrong interval count")

    sweep = AxiomSweep(smoke=True)
    good = [SimpleNamespace(ok=True, checks=checks) for _, checks in sweep.sizes]
    check(sweep.gate(good) == [], "axiom-sweep gate rejects right counts")
    check(sweep.gate([SimpleNamespace(ok=True, checks=c.checks + 1) for c in good]) != [],
          "axiom-sweep gate accepts wrong counts")
    check(sweep.gate([SimpleNamespace(ok=False, checks=c.checks) for c in good]) != [],
          "axiom-sweep gate accepts a failed report")

    print("ok   gates")


def calibration() -> None:
    # the ticker interrupts a busy loop, and the reference work is fixed
    ticker = Ticker()
    ticker.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 20 * PERIOD_S:
        pass
    ticker.stop()
    check(len(ticker.samples) >= 5, f"ticker ran {len(ticker.samples)} chunks in 20 periods")
    check(0 < ticker.spent < time.perf_counter() - start, "ticker time spent")
    check(reference() == reference(), "reference work is not fixed")
    print("ok   calibration")


def refuses_without_sources() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench("verify-all", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout, "benchmark ran without the sources")
    print("ok   refuses to run without the sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gates_reject_wrong_results()
    calibration()
    refuses_without_sources()
    smoke_runs(spec)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
