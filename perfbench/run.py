"""Outside-in benchmark of the fdareg pipeline on Tecator-shaped data.

Usage, from the repository root::

    python3 perfbench/run.py --workload spectra-bspline-rbfn --seed 1 --seconds 25 --trace 0

One run generates the data from ``--seed``, then runs every row of the
workload again and again, one row at a time in this one process (a closed
loop), until another pass could end after ``--seconds`` counted from the
start of the run; at least one pass always runs. Each row's output is
checked. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: wall and CPU time of a pass
(median over passes) and set-up time (median of several set-ups, each in
a fresh interpreter), all scaled to a reference host speed
(``speedometer.py``), then peak resident memory and the share of rows that
succeeded.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``layers.py``; the spans of the last traced pass are
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program():
    """Put the checkout's ``src`` and this directory first on the path and
    import fdareg from there; exit without a result when it is absent.

    BLAS runs one thread: the load is one client running one row at a time,
    and on these small matrices a second OpenBLAS thread made rows slower
    (holed-knn-mlp 6.1 s against 5.3 s on 2 cores) and noisier.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import fdareg
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fdareg from {SRC}: {exc}") from None
    if Path(fdareg.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: fdareg was imported from {fdareg.__file__}, not {SRC}")


def setup_probe(workload: str, seed: int) -> float:
    """One set-up in this fresh interpreter: import, generate, holes, split,
    specs; scaled to the reference host speed like the pass times.

    numpy is imported before sampling can start; the host's speed over the
    rest of the set-up scales that part too.
    """
    t0 = time.perf_counter()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    from speedometer import Speedometer

    speedometer = Speedometer(interval=0.01)
    with speedometer.running():
        import_program()
        from workloads import WORKLOADS, prepare

        prepare(WORKLOADS[workload], seed)
    return speedometer.scaled(time.perf_counter() - t0)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.seed):.9f}")
        return 0
    import_program()
    import bench

    return bench.main(args, started)


if __name__ == "__main__":
    sys.exit(main())
