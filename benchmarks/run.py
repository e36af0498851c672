"""Run one jointmix benchmark workload and print its metrics.

From the root of a checkout:

    python3 benchmarks/run.py --workload fit_large --seed 0 --seconds 20 --trace 0

Workloads are ``fit_large``, ``mc_small`` and ``check_wide`` (see
``benchmarks/README.md``).  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it records spans
around every call into ``jointmix`` and reports the per-layer metrics.  The
lines before the last name every figure with its unit and record the
environment; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--size smoke`` runs the same
code at tiny sizes (``benchmarks/test_smoke.py`` drives it).

The package is imported from ``src/`` of the checkout this file sits in; the
run exits with code 2, printing no result, when that source is missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fit_large", "mc_small", "check_wide")
# BLAS is pinned to one thread: set before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS threads, put the checkout's ``src/`` first on the path and
    import ``jointmix`` from there."""
    src = ROOT / "src"
    if not (src / "jointmix" / "__init__.py").is_file():
        raise FileNotFoundError(f"no jointmix source under {src}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import jointmix
    if Path(jointmix.__file__).resolve().parent != (src / "jointmix").resolve():
        raise ImportError(f"jointmix was imported from {jointmix.__file__}, not from {src}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="permutes the subject order of the workload's dataset")
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length: timed operations repeat until the next would overrun it")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap()
    except (FileNotFoundError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import workloads

    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                        workloads.SIZES[args.size])
    workloads.WORKLOADS[args.workload](run)
    run.finish()
    return 0


if __name__ == "__main__":
    sys.exit(main())
