"""Time-to-verdict benchmark for ealie.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs verdicts of one workload back to back (a closed
loop with a single caller, one process, no threads) for S seconds, checks each
against the stored reference, and reports the end-to-end metrics. With
``--trace 1`` it runs one untraced and one traced verdict and reports the
per-layer metrics. Human-readable lines come first; the last line of stdout is
one JSON object with keys ``correct``, ``attempted``, ``failed``, ``metrics``.

The seed is passed to the CLI as ``--seed`` and, by re-executing this script
once, as ``PYTHONHASHSEED`` of the process that runs the verdicts and of every
set-up probe, so dict and set layouts are reproducible per seed.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import bench
from tracer import Tracer

SETUP_SAMPLES = 7


def measure(cli, workload, seed, seconds, reference):
    """Closed-loop verdicts until ``seconds`` have passed; the last one runs to completion."""
    verdicts = []
    start = time.perf_counter()
    while not verdicts or time.perf_counter() - start < seconds:
        gc.collect()
        verdicts.append(bench.run_verdict(cli, workload, seed, reference))
    return verdicts


def traced(cli, workload, seed, reference):
    """One untraced then one traced verdict; returns the tracer and both verdicts."""
    gc.collect()
    untraced = bench.run_verdict(cli, workload, seed, reference)
    gc.collect()
    tracer = Tracer(seed)
    with tracer:
        traced_verdict = bench.run_verdict(cli, workload, seed, reference)
    return tracer, untraced, traced_verdict


def _parse(argv):
    parser = argparse.ArgumentParser(description="Time-to-verdict benchmark for ealie.")
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32) to serve as PYTHONHASHSEED")
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    return args


def _result(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def main(argv):
    args = _parse(argv)
    if os.environ.get("PYTHONHASHSEED") != str(args.seed):
        env = dict(os.environ, PYTHONHASHSEED=str(args.seed))
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv, env)

    try:
        ealie = bench.import_ealie()
        reference = bench.load_reference(args.workload)
        setup = bench.measure_setup(args.workload, args.seed, SETUP_SAMPLES)
    except (bench.BenchmarkError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    cli = ealie.cli
    record = bench.environment(ealie, args.workload, args.seed)
    record["setup_seconds"] = setup

    if args.trace:
        tracer, untraced, traced_verdict = traced(cli, args.workload, args.seed, reference)
        verdicts = [untraced, traced_verdict]
        equal = untraced.summary == traced_verdict.summary
        t1 = bench.t1_triples_checked(traced_verdict.report) if traced_verdict.report else 0
        metrics = tracer.metrics(args.seed, traced_verdict.wall_s, untraced.wall_s, t1)
        bench.OUT.mkdir(exist_ok=True)
        spans_path = bench.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        record.update(traced_equals_untraced=equal, spans=str(spans_path.relative_to(bench.ROOT)))
    else:
        verdicts = measure(cli, args.workload, args.seed, args.seconds, reference)
        equal = True
        adjusted = [v.adjusted_s for v in verdicts]
        walls = [v.wall_s for v in verdicts]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "verdict_s": (statistics.median(adjusted), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        print(f"verdict_s     {statistics.median(adjusted):.4f} s  median of n={len(verdicts)} "
              f"at the reference host speed (min {min(adjusted):.4f}, max {max(adjusted):.4f})")
        print(f"wall          {statistics.median(walls):.4f} s  median of n={len(verdicts)} unadjusted "
              f"(min {min(walls):.4f}, max {max(walls):.4f})")
        print(f"setup_s       {statistics.median(setup):.4f} s  median of n={len(setup)} fresh interpreters")
        print(f"peak_rss_mb   {peak_mb:.2f} MB")

    attempted = len(verdicts)
    failed = sum(not v.ok for v in verdicts)
    correct = failed == 0 and equal
    print(f"error_rate    {failed / attempted:.4f}  ({failed} failed / {attempted} attempted)")
    record.update(
        verdict_wall_s=[v.wall_s for v in verdicts],
        verdict_adjusted_s=[v.adjusted_s for v in verdicts],
        report_sha256=sorted({v.sha256 for v in verdicts if v.sha256}),
        error_rate=failed / attempted,
    )
    record.update(attempted=attempted, failed=failed, correct=correct)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(_result(correct, attempted, failed, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
