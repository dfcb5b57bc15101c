"""Run one tsfrac benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pk-n128 --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout: tsfrac is imported from that checkout's
src/ and nowhere else.  With --trace 0 the untraced end-to-end metrics are
measured; with --trace 1 the traced run gives the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is nonzero when any
correctness check failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BLAS/OpenMP threads of the benchmark process.  One thread fixes the
# reduction order, so err_inf and the Krylov iteration counts repeat exactly,
# and keeps the dense solves from spreading with thread scheduling.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_tsfrac():
    """Import tsfrac from ROOT/src; exit nonzero when it is not there."""
    src = ROOT / "src"
    package = src / "tsfrac"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tsfrac sources at {package}")
    sys.path.insert(0, str(src))
    import tsfrac
    if Path(tsfrac.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported tsfrac from {tsfrac.__file__}, "
                         f"not from {package}")
    return tsfrac


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # must happen before numpy loads its BLAS
    os.environ.update({var: str(THREADS) for var in THREAD_VARS})
    load_tsfrac()
    import measure
    return measure.main(args, THREADS)


if __name__ == "__main__":
    sys.exit(main())
