"""One pass of one workload in a fresh process, so memo tables start empty.

Usage (run.py starts it; it is not meant to be run by hand)::

    python3 worker.py WORKLOAD SEED TRACE SPAWNED_AT WORK_DIR {pass,setup}

``SPAWNED_AT`` is the parent's ``time.perf_counter()`` reading just before
it started this process; ``perf_counter`` is a system-wide monotonic clock
on Linux, so ``setup_s`` runs from there to the end of input generation.
With ``setup`` the worker stops there.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

REF_ITERATIONS = 8_000


def reference_slices(count: int) -> list[float]:
    """Time ``count`` runs of a fixed standard-library loop: Fraction
    arithmetic, dict and tuple churn, no qftalg code."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        total = Fraction(0)
        table: dict = {}
        for i in range(1, REF_ITERATIONS):
            q = Fraction(i % 7 + 1, i % 5 + 1)
            total += q * q
            key = (i % 97, (i % 13, i % 3))
            table[key] = table.get(key, 0) + q
            if len(table) > 400:
                table.clear()
            tuple(sorted(key[1] + (i % 11,)))
        times.append(time.perf_counter() - t0)
    return times


def main(argv: list[str]) -> int:
    workload, seed, trace, spawned_at, work_dir, mode = argv
    seed, trace, spawned_at, work_dir = int(seed), trace == "1", float(spawned_at), Path(work_dir)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    tracer = None
    if trace and workload != "cli":
        from tracer import Tracer

        tracer = Tracer(spawned_at)
        tracer.install_import_hook()
        tracer.wrap()
    from workloads import WORKLOADS

    case = WORKLOADS[workload](seed, work_dir, trace_child=trace)
    setup_s = time.perf_counter() - spawned_at
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    before = reference_slices(case.REF_SLICES)
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter()
    latencies = case.run()
    solve_s = time.perf_counter() - t0
    layers = tracer.snapshot() if tracer is not None else None
    after = reference_slices(case.REF_SLICES)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    if trace and workload == "cli":
        layers = [json.loads(p.read_text()) for p in case.traces]

    failed, errors = case.check()
    print(json.dumps({
        "setup_s": setup_s,
        "solve_s": solve_s,
        "ref_slices_s": before + after,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": case.p50_latencies(latencies),
        "attempted": case.ops,
        "failed": failed,
        "errors": errors,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
