"""Write ``reference.json``: every row's selected hyperparameters and test RMSE.

Usage, from the repository root::

    python3 perfbench/make_reference.py --seeds $(seq 0 39) --jobs 2

The benchmark compares each run's rows with the entry for its seed and
reports the count of differences as ``selection.reference_mismatches``.
Selected hyperparameters must match exactly; the test RMSE within a relative
``workloads.RMSE_RTOL``. Regenerate the file only in a change that means to
alter selections, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys

from run import import_program


def reference_rows(task: tuple[str, int]) -> tuple[str, int, dict]:
    workload, seed = task
    import_program()
    from bench import run_row
    from workloads import WORKLOADS, prepare

    train, test, specs = prepare(WORKLOADS[workload], seed)
    rows = {}
    for spec in specs:
        row, _ = run_row(spec, train, test)
        if row.problems:
            raise RuntimeError(f"{workload} seed {seed} {row.name}: {row.problems}")
        rows[row.name] = row.outcome
    return workload, seed, rows


def main(argv=None) -> int:
    import_program()
    from bench import REFERENCE
    from workloads import RMSE_RTOL, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    tasks = [(w, s) for w in WORKLOADS for s in args.seeds]
    table: dict[str, dict[str, dict]] = {w: {} for w in WORKLOADS}
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        for workload, seed, rows in pool.imap_unordered(reference_rows, tasks):
            table[workload][str(seed)] = rows
            print(f"{workload} seed {seed} done", flush=True)
    payload = {
        "rmse_rtol": RMSE_RTOL,
        "workloads": {w: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
                      for w, seeds in table.items()},
    }
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
