"""Workloads, verdicts and their reference checks for the ealie benchmark.

A verdict is one in-process call of the public CLI entry point
``ealie.cli.main`` on a workload's arguments, writing its JSON report to a
file inside the checkout. Its outcome is the exit code plus the ordered list
of (suite, check, passed) read from the report; for the ``ears`` command also
the sizes of the S/L/E support sets. That outcome, not the report bytes, is
compared with the stored reference, so report fields that do not change a
verdict (details, seeds, metadata) cannot fail it.
"""

import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference"

# name -> CLI arguments (without --seed/--out). Why each one is here is in README.md.
WORKLOADS = {
    "check-affinized": ["check", "--construction", "affinized", "--ell", "2", "--nu", "2",
                        "--q", "-1", "--window", "1"],
    "ears-torus-w3": ["ears", "--construction", "quantum-torus", "--nu", "2", "--q", "-1",
                      "--window", "3"],
    "check-sqrt": ["check", "--construction", "sqrt-extension", "--rank", "4",
                   "--primes", "2,3,5"],
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no source tree, bad arguments)."""


def import_ealie():
    """Import ealie from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "ealie" / "__init__.py").is_file():
        raise BenchmarkError(f"no ealie source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ealie
    import ealie.cli  # noqa: F401  (the entry point the verdicts call)

    if Path(ealie.__file__).resolve().parent != SRC / "ealie":
        raise BenchmarkError(f"imported ealie from {ealie.__file__}, not from {SRC}")
    return ealie


def summarize(report, exit_code):
    """The verdict a report states: exit code, every check's outcome, EARS support sizes."""
    if "suite_results" in report:
        suites = report["suite_results"]
    else:
        suites = {key: value for key, value in report.items() if isinstance(value, dict) and "results" in value}
    checks = [[suite, result["name"], result["passed"]]
              for suite, body in suites.items() for result in body["results"]]
    summary = {"exit_code": exit_code, "checks": checks}
    if "support" in report:
        summary["support_sizes"] = {key: None if members is None else len(members)
                                    for key, members in sorted(report["support"].items())}
    return summary


def t1_triples_checked(report):
    """Basis triples T1-form-invariant checked, from its coverage or its detail text."""
    for body in report.get("suite_results", {}).values():
        for result in body["results"]:
            if result["name"] != "T1-form-invariant":
                continue
            coverage = result.get("coverage")
            if isinstance(coverage, dict) and "checked" in coverage:
                return coverage["checked"]
            match = re.search(r"sampled: (\d+) of|exhaustive on all (\d+)", result["detail"])
            if match is None:
                raise BenchmarkError(f"cannot read the triple count from {result['detail']!r}")
            return int(match.group(1) or match.group(2))
    return 0


def load_reference(workload):
    with open(REFERENCE / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


PROBE_INTERVAL_S = 0.025
PROBE_REFERENCE_S = 150e-6
PROBE_EXPONENT = 0.75


def _calibration_loop():
    """Fixed stdlib work (Fraction arithmetic and a dict) that touches no ealie state."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 21):
        acc += Fraction(i, i + 3) * Fraction(3, i + 7)
        table[i % 7] = acc
    return acc


class SpeedProbe:
    """Samples how fast the host runs Python while a verdict runs.

    On a shared host the speed of the same code drifts by 20-40% within
    seconds, and CPU time drifts with wall time, so a loop timed before or
    after a verdict does not see the speed the verdict ran at. Instead, every
    ``PROBE_INTERVAL_S`` of wall time a SIGALRM handler times
    ``_calibration_loop`` inside the verdict. Time spent in the loop is not
    counted as verdict time. One loop runs just before and one just after the
    verdict, so even a verdict shorter than the interval has samples.

    The verdict and the loop slow down together, but the small loop's speed
    swings further. On a 2-core host, 60 runs over the three workloads fitted
    verdict time ~ loop time ** 0.75. So
    ``adjusted_s = wall_s * (PROBE_REFERENCE_S / median(loop)) ** PROBE_EXPONENT``
    is the verdict's wall time on a host where the loop takes
    ``PROBE_REFERENCE_S``.
    """

    def __init__(self):
        self.samples = []
        self.wall_s = self.adjusted_s = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        _calibration_loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = elapsed - sum(self.samples[1:])
        self._sample()
        speed = PROBE_REFERENCE_S / statistics.median(self.samples)
        self.adjusted_s = self.wall_s * speed**PROBE_EXPONENT


@dataclass
class Verdict:
    wall_s: float        # wall seconds, probe time excluded
    adjusted_s: float    # wall_s at the reference host speed (see SpeedProbe)
    ok: bool             # outcome equals the reference
    summary: dict | None
    sha256: str | None
    report: dict | None


def run_verdict(cli, workload, seed, reference):
    """Run one verdict under a SpeedProbe and compare its outcome with ``reference``."""
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"report-{workload}.json"
    if out_path.exists():
        out_path.unlink()
    argv = WORKLOADS[workload] + ["--seed", str(seed), "--out", str(out_path)]
    probe = SpeedProbe()
    exit_code = None
    with probe:
        try:
            exit_code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit through SystemExit
            exit_code = exc.code
        except Exception:
            traceback.print_exc(file=sys.stderr)
    timing = (probe.wall_s, probe.adjusted_s)
    try:
        data = out_path.read_bytes()
        report = json.loads(data)
    except (OSError, ValueError) as exc:
        print(f"verdict of {workload} (exit {exit_code}) wrote no readable report: {exc}", file=sys.stderr)
        return Verdict(*timing, False, None, None, None)
    summary = summarize(report, exit_code)
    ok = summary == reference
    if not ok:
        print(f"verdict of {workload} differs from its reference: {json.dumps(summary)}", file=sys.stderr)
    return Verdict(*timing, ok, summary, hashlib.sha256(data).hexdigest(), report)


def measure_setup(workload, seed, samples):
    """Seconds for ``import ealie`` plus building the instance's algebra, in fresh interpreters.

    Each sample is a new interpreter running ``setup_probe.py``; one unmeasured
    probe first writes the bytecode cache, which users pay once, not per run.
    """
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + WORKLOADS[workload] + ["--seed", str(seed)]
    times = []
    for _ in range(samples + 1):
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"setup probe did not finish in {exc.timeout} s") from exc
        if proc.returncode != 0:
            raise BenchmarkError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


def environment(ealie, workload, seed):
    return {
        "python": platform.python_version(),
        "ealie": ealie.__version__,
        "backend": ealie.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "args": WORKLOADS[workload],
        "cli_seed": seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
