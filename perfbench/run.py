"""Benchmark of the holomimo CLI, timed from outside, one child process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src, nothing
needs installing. Each invocation

1. times set-up (interpreter start, `import holomimo`, `load_config`) in
   five fresh children;
2. runs the workload's CLI command in fresh children until their wall times
   fill about S seconds (at least once), reading each child's own CPU time
   and peak RSS with os.wait4;
3. checks the first run's artifacts against the program's invariants and
   oracles (checks.py) and requires every later run to reproduce them byte
   for byte;
4. with --trace 1, also runs the command once under tracer.py and reports
   per-layer figures instead of the end-to-end metrics.

The last stdout line is the result object; the line before it records the
environment and every sampled metric as median, quartiles and sample count.
Exits non-zero without a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "holomimo" / "__init__.py").is_file():
        print(f"perfbench: no holomimo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import benchmark, environment
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        # The program takes nonnegative seeds; wrap any integer onto them.
        samples, result = benchmark(
            WORKLOADS[args.workload], args.seed % 2**32, args.seconds, bool(args.trace), work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    report = {
        "environment": environment(),
        "workload": args.workload,
        "seed": args.seed,
        "samples": samples,
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
