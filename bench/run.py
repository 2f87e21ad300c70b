"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload train_desk --seed 0 --seconds 35 --trace 0

Run from the root of a seldkit checkout; the package is imported from its
`src/` directory.  Prints a metric table, the run record's location and, as
the last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with `--trace 0`, per-layer with `--trace 1`).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("train_desk", "infer_overlap", "cli_pipeline")


def pin_blas_threads() -> None:
    """Pin BLAS/OpenMP to one thread; must run before numpy loads.

    numpy and scipy each load their own OpenBLAS.  On a 2-core machine the
    desk training step took 0.52 s with one thread per library and 1.04 s
    with two, and varied more with two.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_seldkit_from_checkout() -> str | None:
    """Put the checkout's `src/` first on the path; return an error or None."""
    src = ROOT / "src"
    if not (src / "seldkit" / "__init__.py").is_file():
        return f"no seldkit sources under {src}"
    sys.path.insert(0, str(src))
    import seldkit

    if src.resolve() not in Path(seldkit.__file__).resolve().parents:
        return f"imported seldkit from {seldkit.__file__}, not from {src}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pin_blas_threads()
    error = import_seldkit_from_checkout()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    record = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                         BENCH_DIR / "results")
    for line in harness.summary_lines(record):
        print(line)
    print(harness.final_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
