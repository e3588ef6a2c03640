"""Benchmark of the tempkgqa pipeline.

    python3 perfbench/run.py --workload <desk|retrieve-large|pretrain-large>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Generates the workload's inputs from the
seed under ``.bench_work/``, runs the workload in one child process with the
BLAS thread count pinned to 1, and prints the child's result object as the
last line of standard output: ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics when ``--trace 0`` and the
per-layer metrics when ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import gen  # perfbench/, the script's own directory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0
BLAS_THREADS = "1"
REQUIRED = ("src/tempkgqa/cli.py", "configs/desk.json", "data/desk/facts.txt")
WORKLOADS = ("desk", "retrieve-large", "pretrain-large")


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: not a tempkgqa checkout, missing {missing}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload != "desk":
            gen.generate(args.seed, work / "inputs")
        result_path = work / "result.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                   OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
                   MKL_NUM_THREADS=BLAS_THREADS)
        command = [sys.executable, str(HERE / "workloads.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work", str(work), "--result", str(result_path)]
        if args.trace:
            command += ["--spans", str(WORK / "spans" / f"{args.workload}.jsonl")]
        budget = DEADLINE_S - (time.monotonic() - started)
        try:
            # The child's stdout (the CLI's report tables) goes to our stderr,
            # so that the result object stays the last line of our stdout.
            code = subprocess.run(command, env=env, stdout=sys.stderr,
                                  timeout=budget).returncode
        except subprocess.TimeoutExpired:
            print(f"perfbench: {args.workload} did not finish within {DEADLINE_S:.0f} s",
                  file=sys.stderr)
            return 1
        if code != 0 or not result_path.is_file():
            print(f"perfbench: {args.workload} worker exited with {code}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"blas_threads={BLAS_THREADS} workload={args.workload} seed={args.seed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
