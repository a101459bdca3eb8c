"""One repetition of a workload, in a fresh interpreter with cold caches.

Started by ``run.py``; prints one JSON object on standard output.  Set-up
time runs from the parent's spawn timestamp (``CLOCK_MONOTONIC``, which is
system-wide) until ``mdyck`` is imported and the inputs are ready.  Wall
time runs from the first call of the workload to its verified result, CPU
time over the same span.  Each is reported as measured (``raw_*``) and at
the reference speed of ``calibrate.py``: set-up time against a burst of
reference chunks right after it, wall and CPU time against the chunks that
interrupt the workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS = ROOT / ".bench_out" / "spans"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.smoke)
    workload.prepare()
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawn_ns) / 1e9
    from calibrate import SETUP_CHUNKS, Ticker

    burst = Ticker()
    burst.burst(SETUP_CHUNKS)
    out: dict = {"raw_setup_s": setup_s, "setup_s": setup_s * burst.speed}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        ticker = Ticker()
        ticker.start()
        start = time.perf_counter()
        start_cpu = time.process_time()
        errors = workload.gate(workload.run())
        cpu_s = time.process_time() - start_cpu
        wall_s = time.perf_counter() - start
        ticker.stop()
        # a smoke run can end before the first tick; the set-up burst stands in
        speed = (ticker if ticker.samples else burst).speed
        out.update(raw_wall_s=wall_s, raw_cpu_s=cpu_s, wall_s=(wall_s - ticker.spent) * speed,
                   cpu_s=(cpu_s - ticker.spent) * speed, chunks=len(ticker.samples),
                   speed=speed)
        out["errors"] = errors
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.metrics()
            tracer.write_spans(SPANS / args.workload, {"workload": args.workload})
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
