"""Benchmark of ``mdyck``: time to a verified result on three fixed workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Every repetition runs in a fresh interpreter (``child.py``), because every
command-line call and every script starts with empty memo tables.  The loop
is closed with one client: the next repetition starts when the previous one
has exited, and repetitions start while the next one is expected, from the
median so far, to end within ``--seconds`` (the first always runs).  Twenty
extra interpreters only set up and exit, so that set-up time has enough
samples.

With ``--trace 0`` the last line reports the end-to-end metrics as medians
over the repetitions.  Times are reported at the reference speed of
``calibrate.py``, which cancels the drift of a shared machine's speed; the
times as measured are in the detail line.  With ``--trace 1`` it reports per-layer metrics from
one traced repetition, and the tracing overhead against one untraced
repetition.  The workloads are exhaustive, so ``--seed`` changes no input: it
only permutes the order in which set-up probes, timed repetitions and the
traced/untraced pair run.  ``--smoke`` runs each path once at tiny sizes; its
numbers are marked as smoke and are not benchmark results.

The line before the last one holds the details: every sample, quartiles,
the failed ratio, gate errors and the provenance of the run.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "mdyck"

SETUP_PROBES = 20
# stop starting repetitions well before the 180 s a run may take
HARD_LIMIT_S = 150.0
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SEED_NOTE = (
    "the workloads are exhaustive and fixed; the seed only permutes the order "
    "of set-up probes, timed repetitions and the traced/untraced pair"
)


@dataclass
class Repetition:
    """Result of one child interpreter."""

    mode: str
    seconds: float  # spawn to exit, for scheduling
    child_cpu_s: float  # the whole child, set-up included, as measured
    data: dict
    errors: list[str]

    @property
    def ok(self) -> bool:
        return not self.errors


def spawn(workload: str, mode: str, smoke: bool, timeout: float):
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, "-I", str(HERE / "child.py"), "--workload", workload,
           "--mode", mode, "--spawn-ns", str(spawn_ns)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        stdout = b""
    finally:
        # also on a timeout or a termination signal: leave no child behind
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    seconds = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - spawn_ns) / 1e9
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    errors: list[str] = []
    data: dict = {}
    if proc.returncode != 0:
        errors.append(f"child exited with {proc.returncode}")
    else:
        try:
            data = json.loads(stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            errors.append("child printed no result")
        else:
            errors += data.get("errors", [])
    return Repetition(mode, seconds, cpu_s, data, errors)


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def measure(workload: str, seconds: float, smoke: bool, rng: random.Random, start: float):
    """Timed repetitions and set-up probes, interleaved as the seed says."""
    reps: list[Repetition] = []
    probes: list[Repetition] = []
    order: list[str] = []
    probes_left = 1 if smoke else SETUP_PROBES
    while True:
        elapsed = time.monotonic() - start
        more_reps = not reps or not (
            smoke
            or elapsed > HARD_LIMIT_S
            or elapsed + statistics.median(r.seconds for r in reps) > seconds
        )
        if probes_left and (not more_reps or rng.random() < 0.5):
            mode = "setup"
        elif more_reps:
            mode = "run"
        else:
            return reps, probes, order
        rep = spawn(workload, mode, smoke, HARD_LIMIT_S - elapsed)
        (probes if mode == "setup" else reps).append(rep)
        probes_left -= mode == "setup"
        order.append(mode)


def end_to_end(reps: list[Repetition], probes: list[Repetition]) -> dict:
    # a repetition that failed its gate still counts in the medians when it
    # produced timings; one that crashed has none and shows only as failed
    timed = [r for r in reps if "wall_s" in r.data]
    set_up = [r for r in probes + reps if "setup_s" in r.data]
    values = {name: [r.data[name] for r in timed]
              for name in ("wall_s", "cpu_s", "peak_rss_mb", "raw_wall_s", "raw_cpu_s")}
    values["raw_child_cpu_s"] = [r.child_cpu_s for r in timed]
    for name in ("setup_s", "raw_setup_s"):
        values[name] = [r.data[name] for r in set_up]
    return {name: summary(v) for name, v in values.items() if v}


def traced(workload: str, smoke: bool, rng: random.Random, start: float):
    """One untraced and one traced repetition, in seeded order."""
    order = ["run", "trace"]
    rng.shuffle(order)
    reps = {}
    for mode in order:
        reps[mode] = spawn(workload, mode, smoke, HARD_LIMIT_S - (time.monotonic() - start))
    return reps["run"], reps["trace"], order


def commit_hash() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": commit_hash(),
        "source_sha256": source_digest(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "seed_note": SEED_NOTE,
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass each")
    args = parser.parse_args()

    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no mdyck sources at {SOURCE}", file=sys.stderr)
        return 2
    start = time.monotonic()
    detail = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke,
              "seconds": args.seconds, "provenance": provenance(args.seed)}
    # byte-compile once, so that no repetition pays for compiling the sources
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1) or not compileall.compile_dir(
        str(HERE), quiet=1
    ):
        print("error: byte-compiling the sources failed", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)

    metrics: dict[str, dict] = {}
    if args.trace:
        from tracer import metric_names

        plain, with_trace, order = traced(args.workload, args.smoke, rng, start)
        reps = reps_and_probes = [plain, with_trace]
        detail["order"] = order
        layers = with_trace.data.get("layers", {})
        for name, unit in metric_names():
            if name in layers:
                metrics[name] = {"value": layers[name], "unit": unit}
        if "wall_s" in plain.data and "wall_s" in with_trace.data:
            overhead = with_trace.data["wall_s"] - plain.data["wall_s"]
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            for name in ("wall_s", "raw_wall_s"):
                detail[f"untraced_{name}"] = plain.data[name]
                detail[f"traced_{name}"] = with_trace.data[name]
        detail["spans"] = f".bench_out/spans/{args.workload}.bin"
    else:
        reps, probes, detail["order"] = measure(args.workload, args.seconds, args.smoke, rng, start)
        stats = end_to_end(reps, probes)
        detail["metrics"] = stats
        for name, unit in END_TO_END:
            if name in stats:
                metrics[name] = {"value": stats[name]["median"], "unit": unit}
        # a failed set-up probe makes the run incorrect; the ratio counts
        # workload repetitions only
        reps_and_probes = reps + probes

    attempted = len(reps)
    failed = sum(not r.ok for r in reps)
    detail["failed_ratio"] = failed / attempted
    detail["errors"] = [f"{r.mode}: {e}" for r in reps_and_probes for e in r.errors]
    detail["provenance"]["loadavg_end"] = os.getloadavg()
    detail["elapsed_s"] = time.monotonic() - start
    correct = not detail["errors"] and len(metrics) > 0
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
