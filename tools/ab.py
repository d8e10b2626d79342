"""Time the working tree against a base revision on the benchmark, in pairs.

Usage, from the repository root::

    python3 tools/ab.py --base <rev> [--workload W ...] [--seed 1] [--pairs 10] [--seconds 10]
    python3 tools/ab.py --base <rev> --count [--workload W ...]

Both sides run from copies made the same way: the ``src`` and ``perfbench``
directories of the base revision, checked out in a temporary ``git
worktree`` that is removed before the first run, and those of the working
tree, each copied to its own temporary directory without bytecode caches or
bench output. (Run from the repository itself, one commit read
``peak_rss_mb`` 50.59–51.18 MB on ``spectra-pca-rbfn``, against 50.45–50.48
MB from a copy; with the base run from its worktree and the change from a
copy, an unchanged tree read ``peak_rss_mb`` −1.1 % on that workload, 8 of
10 "wins".) For each workload (by default every workload of
``BENCHMARK.json``), each pair runs ``perfbench/run.py --trace 0`` once in
each tree, one process at a time: the base first in even pairs, the change
first in odd ones. Both sides inherit this process's environment. A run's
end-to-end metrics are the last line of its output.

For each workload and end-to-end metric of ``BENCHMARK.json``, the report
gives both sides' medians and quartiles (``statistics.quantiles(n=4)``),
the base's interquartile range (IQR), the change's wins (pairs in which the
change reads better; ties count for neither) and a verdict
(:func:`verdict`). Wall time is also given unscaled: the median of a run's
pass wall times before the host-speed scaling of ``perfbench/speedometer.py``.
The report records what moves the numbers: both revisions,
``PYTHONDONTWRITEBYTECODE``, the BLAS thread variables as this process sees
them (``perfbench/run.py`` pins BLAS to one thread either way), the core
count and the Python, numpy and scipy versions. Its last line is one JSON
object holding all of it.

``--count`` times nothing: it counts the deterministic work instead, which
needs no pairs. For each workload, each side runs seeds 1-10 once, in a
fresh interpreter on the same two copies, with counters wrapped around the
side's own functions (:func:`count_work`): ``mlp.train`` calls, the
Levenberg-Marquardt loops of ``mlp._train_stack`` and the jobs they train,
OLS path steps (the ``max_size`` of every path ``rbfn.train_ols_paths``
returns), ``represent._qr_solve`` calls and k-NN distance pairs (the
distances returned by ``_distances``, the private function that forms one
row's distances to its donors: ``imputation._distances``, or
``imputation.KnnImputer._distances`` on a base that has it). The report gives both sides'
counts and says whether the two sequences of loops, ``(n, d, hidden,
restarts)`` each, are equal (:func:`compare_counts`). The base must have
``mlp._train_stack``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: The gain rule: the change wins at least this share of the pairs.
WIN_SHARE = 0.9
#: What ``--count`` reports per side, in order, and the seeds it runs.
COUNTS = ("mlp.train calls", "LM loops", "LM jobs", "most jobs in a loop", "OLS path steps",
          "QR solves", "k-NN distance pairs", "failed rows")
COUNT_SEEDS = range(1, 11)


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Paired runs of one metric, ``base[i]`` and ``change[i]`` from pair i.

    ``verdict`` is, in this order of precedence:

    - ``"gain"``: the change wins at least 9 of 10 pairs, and its median is
      better than the base's by more than the base's IQR;
    - ``"worse than bound"``: the change's median is worse than the base's
      by more than ``bound`` times the base's median;
    - ``"unresolved"``: the base's IQR is wider than that bound, and not
      every change run reads better than every base run;
    - ``"within bound"`` otherwise.

    ``better`` is ``"lower"`` or ``"higher"``. Needs at least two pairs.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_q, change_q = statistics.quantiles(base, n=4), statistics.quantiles(change, n=4)
    iqr = base_q[2] - base_q[0]
    gap = sign * (base_q[1] - change_q[1])  # > 0: the change is better
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    allowed = bound * abs(base_q[1])
    # every change run reads better than every base run
    apart = max(sign * v for v in change) < min(sign * v for v in base)
    if wins >= WIN_SHARE * len(base) and gap > iqr:
        outcome = "gain"
    elif -gap > allowed:
        outcome = "worse than bound"
    elif iqr > allowed and not apart:
        outcome = "unresolved"
    else:
        outcome = "within bound"
    return {
        "base": base, "change": change,
        "base_median": base_q[1], "change_median": change_q[1],
        "base_q1_q3": [base_q[0], base_q[2]], "change_q1_q3": [change_q[0], change_q[2]],
        "base_iqr": iqr, "change_wins": wins, "pairs": len(base),
        "relative_change": (change_q[1] - base_q[1]) / base_q[1] if base_q[1] else None,
        "verdict": outcome,
    }


def count_work(run) -> dict:
    """Call ``run()`` with counters around the imported ``fdareg`` functions
    and return the :data:`COUNTS`, plus ``loops``: per training loop of
    ``mlp._train_stack``, in order, ``(n, d, hidden, restarts)``, with the
    restarts of all its jobs."""
    from fdareg import imputation, mlp, rbfn, represent

    counts, loops = dict.fromkeys(COUNTS, 0), []
    real_train, real_loop = mlp.train, mlp._train_stack
    real_paths, real_qr = rbfn.train_ols_paths, represent._qr_solve
    # the private function that forms one row's k-NN distances: a method of
    # KnnImputer before the distances were shared, a module function after
    knn = imputation.KnnImputer if hasattr(imputation.KnnImputer, "_distances") else imputation
    real_distances = knn._distances

    def train(*args, **kwargs):
        counts["mlp.train calls"] += 1
        return real_train(*args, **kwargs)

    def loop(X, y, hidden, decay, restarts, seed, max_iter):
        counts["LM loops"] += 1
        counts["LM jobs"] += len(X)
        counts["most jobs in a loop"] = max(counts["most jobs in a loop"], len(X))
        loops.append((*X.shape[1:], hidden, len(X) * restarts))
        return real_loop(X, y, hidden, decay, restarts, seed, max_iter)

    def paths(*args, **kwargs):
        result = real_paths(*args, **kwargs)
        counts["OLS path steps"] += sum(path.max_size for path in result)
        return result

    def qr(*args, **kwargs):
        counts["QR solves"] += 1
        return real_qr(*args, **kwargs)

    def distances(*args, **kwargs):
        d = real_distances(*args, **kwargs)
        counts["k-NN distance pairs"] += d.size
        return d

    mlp.train, mlp._train_stack, rbfn.train_ols_paths, represent._qr_solve = train, loop, paths, qr
    knn._distances = distances
    try:
        counts["failed rows"] = run()
    finally:
        mlp.train, mlp._train_stack = real_train, real_loop
        rbfn.train_ols_paths, represent._qr_solve = real_paths, real_qr
        knn._distances = real_distances
    return {**counts, "loops": loops}


def _collect_counts(workload: str) -> dict:
    """:func:`count_work` over seeds 1-10 of ``workload``; a row that ends in
    a toolkit error counts as failed."""
    from fdareg.errors import FdaregError
    from fdareg.selection import run_experiment
    import workloads

    def run() -> int:
        failed = 0
        for seed in COUNT_SEEDS:
            train, test, specs = workloads.prepare(workloads.WORKLOADS[workload], seed)
            for spec in specs:
                try:
                    run_experiment(spec, train, test)
                except FdaregError:
                    failed += 1
        return failed

    return count_work(run)


def count_once(tree: Path, workload: str) -> dict:
    """:func:`_collect_counts` in a fresh interpreter on ``tree``'s code."""
    # one BLAS thread, as in the benchmark: a score's last bits, and so what
    # the pruning skips, may depend on the thread count
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"),
               PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "perfbench")]))
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--collect-counts",
                           workload], cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(done.stdout)


def compare_counts(base: dict, change: dict) -> dict:
    """Both sides' :func:`count_work` counts of one workload: per count both
    values and the change's difference, whether the loop sequences are
    equal, and the index of the first loop that differs (one side ending
    early counts as differing), else None."""
    pairs = list(zip(base["loops"], change["loops"]))
    first = next((i for i, (a, b) in enumerate(pairs) if list(a) != list(b)), None)
    if first is None and len(base["loops"]) != len(change["loops"]):
        first = len(pairs)
    return {
        "counts": {name: {"base": base[name], "change": change[name],
                          "difference": change[name] - base[name]} for name in COUNTS},
        "loops_equal": first is None,
        "first_differing_loop": first,
    }


def _copy_tree(source: Path, target: Path) -> None:
    """Copy ``source``'s ``src`` and ``perfbench`` to ``target``, without
    bytecode caches or bench output."""
    for part in ("src", "perfbench"):
        shutil.copytree(source / part, target / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def conditions(base: str) -> dict:
    """What moves the numbers, as this process sees it."""
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {
        "base": {"rev": base, "commit": _git("rev-parse", "--verify", f"{base}^{{commit}}")},
        "change": {"commit": _git("rev-parse", "HEAD"), "working_tree_modified": dirty},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its last output
    line, plus ``unscaled_wall_s`` from the result file it writes."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((tree / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json")
                        .read_text(encoding="utf-8"))
    result["unscaled_wall_s"] = statistics.median(p["wall_s"] for p in record["passes"])
    return result


def compare(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric (and ``unscaled_wall_s``, held to ``wall_s``'s
    bound), the :func:`verdict` of one workload's paired runs."""
    out = {}
    for metric in end_to_end + [dict(next(m for m in end_to_end if m["name"] == "wall_s"),
                                     name="unscaled_wall_s")]:
        name = metric["name"]
        values = {side: [r["unscaled_wall_s"] if name == "unscaled_wall_s"
                         else r["metrics"][name]["value"] for r in runs[side]]
                  for side in ("base", "change")}
        out[name] = verdict(values["base"], values["change"], metric["better"], metric["bound"])
    return out


def _row(name: str, v: dict) -> str:
    rel = "" if v["relative_change"] is None else f"{100 * v['relative_change']:+6.1f} %"
    return (f"  {name:<16} base {v['base_median']:.4g} [{v['base_q1_q3'][0]:.4g}, "
            f"{v['base_q1_q3'][1]:.4g}]  change {v['change_median']:.4g} "
            f"[{v['change_q1_q3'][0]:.4g}, {v['change_q1_q3'][1]:.4g}]  {rel}  "
            f"wins {v['change_wins']}/{v['pairs']}  {v['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="revision to compare the working tree to (required)")
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json; repeat for several (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--count", action="store_true",
                        help="count the work of seeds 1-10 once per side instead of timing")
    parser.add_argument("--collect-counts", metavar="W", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect_counts:
        print(json.dumps(_collect_counts(args.collect_counts)))
        return 0
    if not args.base:
        parser.error("--base is required")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(names))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(names)}")
    record = {"conditions": conditions(args.base),
              "command": (f"counts of seeds {COUNT_SEEDS[0]}-{COUNT_SEEDS[-1]}" if args.count
                          else f"python3 perfbench/run.py --workload W --seed {args.seed} "
                               f"--seconds {args.seconds:g} --trace 0"),
              "workloads": {}}
    print(json.dumps(record["conditions"]), file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        worktree, base, copy = (Path(tmp) / name for name in ("worktree", "base", "change"))
        _git("worktree", "add", "--detach", "--quiet", str(worktree), args.base)
        try:
            _copy_tree(worktree, base)
        finally:
            _git("worktree", "remove", "--force", str(worktree))
        _copy_tree(ROOT, copy)
        for workload in args.workload or names:
            if args.count:
                counted = compare_counts(count_once(base, workload),
                                         count_once(copy, workload))
                record["workloads"][workload] = counted
                print(f"{workload} (seeds {COUNT_SEEDS[0]}-{COUNT_SEEDS[-1]}):")
                for name, c in counted["counts"].items():
                    print(f"  {name:<20} base {c['base']:>8}  change {c['change']:>8}  "
                          f"{c['difference']:+d}")
                first = counted["first_differing_loop"]
                print("  loop sequences " + ("equal" if first is None else
                                             f"differ from loop {first} on"))
                continue
            runs, first = {"base": [], "change": []}, []
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                first.append(order[0])
                for side in order:
                    tree = base if side == "base" else copy
                    runs[side].append(run_once(tree, workload, args.seed, args.seconds))
            metrics = compare(runs, bench["end_to_end"])
            record["workloads"][workload] = {
                "first": first,
                "failed_rows": {s: sum(r["failed"] for r in runs[s]) for s in runs},
                "attempted_rows": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
                **metrics,
            }
            print(f"{workload} (seed {args.seed}, {args.pairs} pairs):")
            for name, v in metrics.items():
                print(_row(name, v))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
