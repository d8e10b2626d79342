"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the repository root::

    python3 perfbench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0
    python3 perfbench/report.py --seeds 1 2 3 --trace 1 --workloads holed-knn-mlp

Each (workload, seed) is one ``run.py`` process, run one after another. For
every metric the table gives the median over seeds and the spread, the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
``BENCHMARK.json``. With ``--trace 1`` it also checks the layer shares each
workload was chosen for. Raw results go to ``.bench_out/report-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (workload, metric, comparison, threshold): what each workload is for.
PURPOSE_CHECKS = (
    ("spectra-bspline-rbfn", "represent.select_basis_size.total_s/trace.wall_s", ">=", 0.40),
    ("spectra-pca-rbfn", "rbfn.share_pct", ">=", 90.0),
    ("holed-knn-mlp", "imputation.share_pct", ">=", 30.0),
    ("holed-knn-mlp", "mlp.share_pct", ">=", 30.0),
    ("holed-knn-mlp", "rbfn.train_ols.calls", "==", 0),
    *((w, "represent.select_basis_size.calls", "==", 0)
      for w in ("spectra-pca-rbfn", "holed-knn-mlp")),
    *((w, f"{name}.calls", "==", 0)
      for w in ("spectra-bspline-rbfn", "spectra-pca-rbfn", "holed-bspline-rbfn")
      for name in ("imputation.KnnImputer.transform", "mlp.train")),
    *((w, "selection.run_experiment.self_s/selection.run_experiment.total_s", "<=", 0.05)
      for w in ("spectra-bspline-rbfn", "spectra-pca-rbfn", "holed-bspline-rbfn",
                "holed-knn-mlp")),
)


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("nan")


def value(metrics: dict, expr: str) -> float:
    """A metric, or the ratio ``a/b`` of two metrics."""
    names = expr.split("/")
    out = metrics[names[0]]["value"]
    return out / metrics[names[1]]["value"] if len(names) == 2 else out


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    results: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads:
        runs = results[workload] = []
        for seed in args.seeds:
            runs.append(run_one(workload, seed, args.seconds, args.trace))
            ok &= runs[-1]["correct"]
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"attempted={runs[-1]['attempted']} failed={runs[-1]['failed']}", flush=True)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<56}{'median':>12}  {'spread':>8}  {'bound':>6}  unit")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) > 1 else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not s <= bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:<56}{statistics.median(values):>12.6g}  {s:>8.4f}  "
                  f"{'' if bound is None else bound:>6}  {first['unit']}{flag}")

    if args.trace:
        print("\npurpose checks (median over seeds):")
        for workload, expr, op, threshold in PURPOSE_CHECKS:
            if workload not in results:
                continue
            got = statistics.median(value(r["metrics"], expr) for r in results[workload])
            met = {">=": got >= threshold, "<=": got <= threshold, "==": got == threshold}[op]
            ok &= met
            print(f"  {'ok  ' if met else 'FAIL'} {workload}: {expr} = {got:.4g} {op} {threshold}")

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"report-trace{args.trace}.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
