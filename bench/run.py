"""Benchmark for the dams package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It drives `dams` from outside (the package is
imported from `src/`), one workload per process, with BLAS/OpenMP pinned to
one thread. The workload seed makes every input; the program receives only
the generated inputs. Outputs go to `bench_out/<workload>/`, which is wiped
first. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics (from spans recorded around every public
function and method of `dams`) with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# the keys of workloads.WORKLOADS, which loads numpy and so is imported only
# after the thread variables are set
WORKLOAD_NAMES = ("train-small", "train-wide", "eval-tencrop")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "dams" / "__init__.py").is_file():
        print(f"error: no dams package under {src}", file=sys.stderr)
        return 2
    # before numpy is imported: its BLAS reads these once, at load
    for var in THREAD_VARS:
        os.environ[var] = str(min(THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(src))
    import workloads

    run_dir = ROOT / "bench_out" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    result, failures, rounds = workloads.run(args.workload, args.seed,
                                             args.seconds, bool(args.trace), run_dir)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {rounds} rounds, "
          f"{result['attempted']} operations attempted, {result['failed']} failed, "
          f"outputs {'correct' if result['correct'] else 'WRONG'}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
