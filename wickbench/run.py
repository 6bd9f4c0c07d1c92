"""Benchmark of qftalg: twisted products, connected products and the CLI.

Usage, from the root of a checkout::

    python3 wickbench/run.py --workload {twisted,connected,cli} --seed N \\
        --seconds S --trace {0,1}

Runs whole passes of the workload, each in a fresh worker process so that
memo tables start empty, until the next pass would end after ``S``
seconds (at least one pass).  Each pass checks its outputs against
independent oracles after its timed part.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``), each metric the median over the passes.  The same object
is written to ``.wickbench/result-<workload>-<seed>-trace<k>.json``.
See wickbench/README.md for the metrics and what moves them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("twisted", "connected", "cli")
PASS_TIMEOUT_S = 170
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "solve_ref": "ref",
    "peak_rss_mb": "MB",
    "cmd_p50_ms": "ms",
}

PER_LAYER_UNITS = {
    "scalar.self_s": "s",
    "scalar.fraction_calls": "count",
    "scalar.poly_mul_calls": "count",
    "hopf.self_s": "s",
    "hopf.monomials_built": "count",
    "hopf.coproduct_calls": "count",
    "hopf.coproduct_hit_ratio": "ratio",
    "hopf.tensor_terms": "count",
    "coqts.self_s": "s",
    "coqts.twisted_calls": "count",
    "coqts.bicharacter_calls": "count",
    "coqts.bicharacter_hit_ratio": "ratio",
    "coqts.chronological_calls": "count",
    "graphs.self_s": "s",
    "graphs.graphs_enumerated": "count",
    "renorm.self_s": "s",
    "renorm.partition_terms": "count",
    "renorm.products": "count",
    "laws.self_s": "s",
    "laws.instances_checked": "count",
    "expr.self_s": "s",
    "expr.parse_calls": "count",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "cache.entries": "count",
    "trace.solve_s": "s",
}


class BenchError(Exception):
    """A pass that could not run; the benchmark prints no result."""


def run_worker(workload: str, seed: int, trace: bool, label: str, mode: str = "pass") -> dict:
    """One worker process: a whole pass, or with ``mode="setup"`` only its
    set-up."""
    work_dir = ROOT / ".wickbench" / f"work-{os.getpid()}-{label}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        spawned_at = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed),
             "1" if trace else "0", repr(spawned_at), str(work_dir), mode],
            cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass timed out after {PASS_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _ratio(hits: int, calls: int) -> float:
    return hits / calls if calls else 0.0


def layer_metrics(record: dict, cli: bool) -> dict:
    """Per-layer values of one traced pass; for cli, summed over the
    command processes, with ``cli.startup_s`` their median."""
    snapshots = record["layers"] if cli else [record["layers"]]
    total = {key: sum(s[key] for s in snapshots) for key in snapshots[0]}
    total["cli.startup_s"] = statistics.median(s["cli.startup_s"] for s in snapshots)
    out = {key: total[key] for key in PER_LAYER_UNITS if key in total}
    out["hopf.coproduct_hit_ratio"] = _ratio(total["hopf.coproduct_hits"], total["hopf.coproduct_calls"])
    out["coqts.bicharacter_hit_ratio"] = _ratio(
        total["coqts.bicharacter_hits"], total["coqts.bicharacter_calls"])
    out["trace.solve_s"] = record["solve_s"]
    return out


def end_to_end_metrics(records: list[dict], setups: list[float]) -> dict:
    """Medians over the passes, and for ``setup_s`` over every set-up
    timed in the run.  ``solve_ref`` divides the median pass by
    the median of all reference slices, timed just before and just after
    each pass: the slices are short, and their pooled median is steadier
    than the slices around any one pass."""
    def median(key):
        return statistics.median(r[key] for r in records)

    solve_s = median("solve_s")
    return {
        "setup_s": statistics.median(setups),
        "solve_s": solve_s,
        "solve_ref": solve_s / statistics.median(t for r in records for t in r["ref_slices_s"]),
        "peak_rss_mb": median("peak_rss_mb"),
        "cmd_p50_ms": 1000 * statistics.median(t for r in records for t in r["latencies_s"]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qftalg" / "__init__.py").is_file():
        print(f"error: no qftalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    records = []
    durations = []
    try:
        # set-up alone, a few times: the passes are too few on cli to give
        # a steady median
        setups = [] if args.trace else [
            run_worker(args.workload, args.seed, False, f"setup{k}", "setup")["setup_s"]
            for k in range(SETUP_PROBES)]
        while True:
            t0 = time.perf_counter()
            records.append(run_worker(args.workload, args.seed, bool(args.trace), str(len(records))))
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(durations) > args.seconds:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    errors = [e for r in records for e in r["errors"]]
    for e in errors[:20]:
        print(f"wrong output: {e}", file=sys.stderr)
    if args.trace:
        per_pass = [layer_metrics(r, args.workload == "cli") for r in records]
        # median_low: counts repeat exactly from pass to pass and stay whole
        metrics = {key: statistics.median_low(p[key] for p in per_pass) for key in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(records, setups + [r["setup_s"] for r in records])
        units = END_TO_END_UNITS
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    line = json.dumps(result)
    out_dir = ROOT / ".wickbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(f"{args.workload}: {len(records)} passes in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    print(line)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
