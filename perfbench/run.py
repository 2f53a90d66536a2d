"""Benchmark of the nettwin lab: simulate a dataset, learn a twin, manage.

Run from the repository root:

    python3 perfbench/run.py --workload grid-train --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: it runs one ``nettwin``
command at a time, in this process, through ``nettwin.cli.main`` (the entry
point users run), so dataset and checkpoint I/O count. Set-up builds the
workload's inputs from ``--seed`` several times and reports the median; the
timed part then repeats one pass of the workload's commands for about
``--seconds``, and at least twice, so that every pass can be checked byte
for byte against the first. Times are in scaled seconds, wall seconds
corrected for the host's changing speed (see ``hostclock.py``).

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones named
in BENCHMARK.json; with ``--trace 1`` the untraced loop runs first, then one
traced pass gives the per-layer metrics. The line before it holds the full
report: every timing with its median, tail and sample count, the artifact
digests, the provenance and any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: thread-pool variables pinned to 1: the twin's matrices are about 10 x 32,
#: and a pool only contends for the cores the closed loop runs on
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _git_sha() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    # measure the checkout's own source, never an installed copy
    if not (ROOT / "src" / "nettwin" / "__init__.py").is_file():
        print(f"error: no nettwin package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    import workloads
    from spans import Tracer

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="smallest sizes, for the smoke test"
    )
    args = parser.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with this pid
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed, args.smoke)
        report = workload.measure(args.seconds)
        if args.trace:
            tracer = Tracer()
            report["trace"] = workload.traced_pass(tracer)
            with open(OUT_DIR / f"trace-{tag}.json", "w", encoding="utf-8") as fh:
                json.dump(tracer.to_jsonable(), fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = workload.checks
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        provenance={
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_sha": _git_sha(),
            "threads": {var: os.environ[var] for var in THREAD_VARS},
        },
        ops_failed_ratio=checks.failed / checks.attempted,
        failures=checks.failures,
    )
    if args.trace:
        metrics = workloads.trace_metrics(report)
        for entry in report["trace"]["spans"].values():
            del entry["counts"]  # one row per call; the trace file keeps them
    else:
        metrics = workloads.e2e_metrics(report)
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
