"""Compare the working tree with a base revision: results and work, or speed.

Usage, from the repository root::

    python3 tools/ab.py --base <rev> --identity [--suite] [--workload W ...]
    python3 tools/ab.py --base <rev> [--workload W ...] [--seed 1] [--pairs 10] [--seconds 10]

Both modes run both sides from copies made one way (:func:`make_sides`), in
one temporary directory: the base is ``git archive --format=tar <rev> src
perfbench`` extracted there, and the change is the working tree's ``src``
and ``perfbench`` copied there without bytecode caches or bench output.
``.git`` is only read: no worktree is added and no index is refreshed.
(Run from the repository itself, one commit read ``peak_rss_mb`` 50.59–51.18
MB on ``spectra-pca-rbfn``, against 50.45–50.48 MB from a copy; with the base
run from a ``git worktree`` and the change from a copy, an unchanged tree
read ``peak_rss_mb`` −1.1 % on that workload, 8 of 10 "wins".) The oldest
base supported is ``bb77b79``, the first to form its k-NN distances in
``imputation._distances``; it already has ``cli._run_row``. A workload is
one of ``BENCHMARK.json``; by default every one runs.

``--identity`` times nothing: it compares results and work in one
deterministic pass per side. Each side runs in a fresh interpreter on its own
copy, with BLAS on one thread and no bytecode written, and this file as the
collector (:func:`collect`); the two sides run at once. The pass runs each
workload's rows once at seeds 0-10, with :func:`count_work` around each
workload's rows. ``--suite`` adds the 23 rows of ``fdareg.suites`` at
generator seeds 0-1, on cut grids (PCA sizes (3, 6), MLP hidden (1,) and
decay (1e-3,)), with 10 % holes on the holed tables and the fixed 172/43
split of ``fdareg suite``. Every row, of a workload or of the suite, is
recorded one way: as the text ``fdareg suite`` writes to its
``row_<name>.json`` (:func:`row_text`), which holds the error type and
message in place of the results when the row ends in a toolkit error. Rows
are compared by that text; a float's ``repr`` round-trips, so equal texts
mean equal bits. The report prints every row that differs with the fields
that differ (by top-level key, ``info`` by its keys, printed as
``info.<key>``) and a line that counts the differing rows per field. Then,
per workload, it gives both sides' counts and says whether the two sequences
of loops, ``(n, d, hidden, restarts)`` each, are equal
(:func:`compare_counts`). The exit status is 1 if any row differs.

Otherwise each pair, for each workload, runs ``perfbench/run.py --trace 0``
once in each copy, one process at a time: the base first in even pairs, the
change first in odd ones. Both sides inherit this process's environment. A
run's end-to-end metrics are the last line of its output; a run that fails
stops the tool with the tail of its stderr. For each workload and end-to-end
metric of ``BENCHMARK.json``, the report gives both sides' medians and
quartiles (``statistics.quantiles(n=4)``), the base's interquartile range
(IQR), the change's wins (pairs in which the change reads better; ties count
for neither) and a verdict (:func:`verdict`). Wall time is also given
unscaled: the median of a run's pass wall times before the host-speed
scaling of ``perfbench/speedometer.py``.

Both modes record what moves the numbers: both revisions,
``PYTHONDONTWRITEBYTECODE``, the BLAS thread variables as this process sees
them (``perfbench/run.py`` pins BLAS to one thread either way), the core
count and the Python, numpy and scipy versions. The last line of the report
is one JSON object holding all of it.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: The gain rule: the change wins at least this share of the pairs.
WIN_SHARE = 0.9
#: What ``--identity`` counts per side and workload, in order.
COUNTS = ("mlp.train calls", "LM loops", "LM jobs", "most jobs in a loop", "LM iterations",
          "LM restart steps", "OLS path steps", "QR solves", "k-NN distance pairs", "failed rows")
#: The seeds of each workload's rows, and of the suite's generator.
SEEDS = range(11)
SUITE_SEEDS = range(2)
#: The lines of a failed run's stderr that the error quotes.
STDERR_TAIL = 10


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
    restarts of all its jobs. ``run()`` returns the number of failed rows.

    The counts are ``mlp.train`` calls, the Levenberg-Marquardt loops of
    ``mlp._train_stack`` and the jobs they train, their iterations (the
    ``mlp._batched_loss`` calls of each loop after its initial evaluation,
    one trial step each) and the restart rows of those calls, OLS path
    steps (the ``max_size`` of every path ``rbfn.train_ols_paths`` returns),
    ``represent._qr_solve`` calls and k-NN distance pairs (the distances
    ``imputation._distances`` returns for one row and its donors)."""
    from fdareg import imputation, mlp, rbfn, represent

    counts, loops = dict.fromkeys(COUNTS, 0), []
    real_train, real_loop = mlp.train, mlp._train_stack
    real_paths, real_qr = rbfn.train_ols_paths, represent._qr_solve
    real_distances = imputation._distances
    real_loss = mlp._batched_loss
    initial = [False]  # the next loss evaluation is a loop's initial one

    def train(*args, **kwargs):
        counts["mlp.train calls"] += 1
        return real_train(*args, **kwargs)

    def loop(X, y, hidden, decay, restarts, seed, max_iter):
        counts["LM loops"] += 1
        counts["LM jobs"] += len(X)
        counts["most jobs in a loop"] = max(counts["most jobs in a loop"], len(X))
        loops.append((*X.shape[1:], hidden, len(X) * restarts))
        initial[0] = True
        try:
            return real_loop(X, y, hidden, decay, restarts, seed, max_iter)
        finally:
            initial[0] = False

    def loss(params, *args):
        if initial[0]:
            initial[0] = False
        else:
            counts["LM iterations"] += 1
            counts["LM restart steps"] += params.shape[0]
        return real_loss(params, *args)

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
    imputation._distances, mlp._batched_loss = distances, loss
    try:
        counts["failed rows"] = run()
    finally:
        mlp.train, mlp._train_stack = real_train, real_loop
        rbfn.train_ols_paths, represent._qr_solve = real_paths, real_qr
        imputation._distances, mlp._batched_loss = real_distances, real_loss
    return {**counts, "loops": loops}


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


def _cut(spec):
    if spec.pca.kind != "none":
        spec = replace(spec, pca=replace(spec.pca, component_grid=(3, 6)))
    if spec.model == "mlp":
        spec = replace(spec, mlp=replace(spec.mlp, hidden_grid=(1,), decay_grid=(1e-3,)))
    return spec


def row_text(row: dict) -> str:
    """A row's record (``cli._run_row``) as ``fdareg suite`` writes it to
    ``row_<name>.json``."""
    return json.dumps(row, indent=2, sort_keys=True) + "\n"


def _suite_rows() -> dict:
    from fdareg import cli, fdata, suites
    from fdareg.cv import derive_seed
    import tecator_synth
    import workloads

    rows = {}
    for seed in SUITE_SEEDS:
        for table, build in suites.SUITE_BUILDERS.items():
            dataset = tecator_synth.generate(seed)
            if table in suites.HOLED_TABLES:
                dataset = fdata.make_holes(dataset, workloads.HOLE_FRACTION,
                                           derive_seed(seed, "holes"))
            train, test = fdata.split(dataset, workloads.TEST_SIZE, shuffle=False)
            for spec in build(seed=seed):
                rows[f"seed={seed} {spec.name}"] = row_text(cli._run_row(_cut(spec), train,
                                                                         test)[0])
    return rows


def collect(names: list[str], suite: bool) -> dict:
    """One side's deterministic pass on the imported code: ``workloads``, the
    :func:`row_text` of each row of the workloads ``names`` at :data:`SEEDS`;
    ``counts``, per workload, the :func:`count_work` of its rows; and
    ``suite``, the cut suite rows' texts if ``suite``, else nothing."""
    from fdareg import cli
    import workloads

    rows = {}

    def run_rows(name: str) -> int:
        failed = 0
        for seed in SEEDS:
            train, test, specs = workloads.prepare(workloads.WORKLOADS[name], seed)
            for spec in specs:
                row = cli._run_row(spec, train, test)[0]
                rows[f"{name} seed={seed} {spec.name}"] = row_text(row)
                failed += "error" in row
        return failed

    counts = {name: count_work(lambda: run_rows(name)) for name in names}
    return {"workloads": rows, "counts": counts, "suite": _suite_rows() if suite else {}}


def _differing(old: dict, new: dict) -> list[tuple[str, object, object]]:
    """The fields of two rows that differ, ``(field, base, tree)`` each; when
    both rows have an ``info`` dict, its keys that differ are fields
    ``info.<key>`` of their own."""
    missing = "(missing)"
    out = []
    for field in sorted(old.keys() | new.keys()):
        a, b = old.get(field, missing), new.get(field, missing)
        if field == "info" and isinstance(a, dict) and isinstance(b, dict):
            out += _differing({f"info.{k}": v for k, v in a.items()},
                              {f"info.{k}": v for k, v in b.items()})
        elif a != b:
            out.append((field, a, b))
    return out


def differences(base: dict, head: dict) -> dict[str, list | str]:
    """Per row that is missing on a side or differs, keyed ``"<group>: <row>"``:
    the side it is missing on, or its differing fields (:func:`_differing`),
    empty when only the JSON text differs."""
    rows = {}
    for group in ("workloads", "suite"):
        for key in sorted(base[group].keys() | head[group].keys()):
            if key not in base[group] or key not in head[group]:
                rows[f"{group}: {key}"] = "base" if key not in base[group] else "working tree"
            elif base[group][key] != head[group][key]:
                rows[f"{group}: {key}"] = _differing(json.loads(base[group][key]),
                                                     json.loads(head[group][key]))
    return rows


def compare(base: dict, head: dict) -> list[str]:
    """One entry per row that is missing on a side or differs; a differing
    row lists only the fields that differ, with both sides' values."""
    lines = []
    for row, fields in differences(base, head).items():
        if isinstance(fields, str):
            lines.append(f"{row}: missing on the {fields}")
        elif not fields:
            lines.append(f"{row}: equal fields, different JSON text")
        else:
            lines.append(f"{row}:" + "".join(
                f"\n  {field}\n    base: {old}\n    tree: {new}" for field, old, new in fields))
    return lines


def tally(base: dict, head: dict) -> str:
    """One line counting the rows that differ in each field, most first."""
    counts = Counter()
    for fields in differences(base, head).values():
        if isinstance(fields, str):
            counts["(missing row)"] += 1
        else:
            counts.update([field for field, _, _ in fields] or ["(JSON text)"])
    return "rows differing per field: " + (", ".join(
        f"{field} {n}" for field, n in sorted(counts.items(), key=lambda c: (-c[1], c[0])))
        or "none")


def make_sides(repo: Path, rev: str, target: Path) -> dict[str, Path]:
    """The two sides' ``src`` and ``perfbench``, under ``target``: ``base``
    extracted from ``git archive`` of ``rev`` and ``change`` copied from
    ``repo``'s working tree without bytecode caches or bench output. Only
    reads ``repo``'s ``.git``."""
    sides = {"base": target / "base", "change": target / "change"}
    archive = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", rev, "src",
                              "perfbench"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(sides["base"], filter="data")
    for part in ("src", "perfbench"):
        shutil.copytree(repo / part, sides["change"] / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
    return sides


def _run(command: list[str], what: str, **kwargs) -> str:
    """``command``'s standard output; if it fails, stop with ``what``, its
    exit status and the last :data:`STDERR_TAIL` lines of its stderr."""
    done = subprocess.run(command, capture_output=True, text=True, **kwargs)
    if done.returncode:
        tail = "\n".join(done.stderr.splitlines()[-STDERR_TAIL:])
        raise SystemExit(f"ab: {what} exited with status {done.returncode}:\n{tail}")
    return done.stdout


def _git(*args) -> str:
    return _run(["git", "--no-optional-locks", "-C", str(ROOT), *args], "git").strip()


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


def collect_side(side: str, tree: Path, names: list[str], suite: bool) -> dict:
    """:func:`collect` in a fresh interpreter on ``tree``'s code."""
    # one BLAS thread, as in the benchmark: a score's last bits, and so what
    # the pruning skips, may depend on the thread count
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "perfbench")]))
    command = [sys.executable, str(Path(__file__).resolve()), "--collect"] + ["--suite"] * suite
    for name in names:
        command += ["--workload", name]
    return json.loads(_run(command, f"the {side} side's collector", cwd=tree, env=env))


def run_once(side: str, tree: Path, pair: int, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its last output
    line, plus ``unscaled_wall_s`` from the result file it writes."""
    out = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"],
               f"the {side} side's run of {workload} in pair {pair}", cwd=tree)
    result = json.loads(out.strip().splitlines()[-1])
    record = json.loads((tree / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json")
                        .read_text(encoding="utf-8"))
    result["unscaled_wall_s"] = statistics.median(p["wall_s"] for p in record["passes"])
    return result


def compare_runs(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
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


def identity(args, names: list[str], sides: dict[str, Path], record: dict) -> int:
    """Run :func:`collect` on both sides at once, print the report and return
    the exit status."""
    with ThreadPoolExecutor(2) as pool:
        base, head = pool.map(lambda side: collect_side(side, sides[side], names, args.suite),
                              ("base", "change"))
    differ = compare(base, head)
    for line in differ:
        print(line)
    rows = len(head["workloads"]) + len(head["suite"])
    print(f"{len(differ)} of {rows} rows differ from {args.base}")
    record.update(rows=rows, rows_differing=len(differ), tally=tally(base, head))
    print(record["tally"])
    for workload in names:
        counted = compare_counts(base["counts"][workload], head["counts"][workload])
        record["workloads"][workload] = counted
        print(f"{workload} (seeds {SEEDS[0]}-{SEEDS[-1]}):")
        for name, c in counted["counts"].items():
            print(f"  {name:<20} base {c['base']:>8}  change {c['change']:>8}  "
                  f"{c['difference']:+d}")
        first = counted["first_differing_loop"]
        print("  loop sequences " + ("equal" if first is None else f"differ from loop {first} on"))
    return 1 if differ else 0


def timing(args, names: list[str], sides: dict[str, Path], record: dict,
           end_to_end: list[dict]) -> None:
    """Run the alternating pairs of each workload and print their verdicts."""
    for workload in names:
        runs, first = {"base": [], "change": []}, []
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            first.append(order[0])
            for side in order:
                runs[side].append(run_once(side, sides[side], pair, workload, args.seed,
                                           args.seconds))
        metrics = compare_runs(runs, end_to_end)
        record["workloads"][workload] = {
            "first": first,
            "failed_rows": {s: sum(r["failed"] for r in runs[s]) for s in runs},
            "attempted_rows": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
            **metrics,
        }
        print(f"{workload} (seed {args.seed}, {args.pairs} pairs):")
        for name, v in metrics.items():
            print(_row(name, v))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="revision to compare the working tree to (required)")
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json; repeat for several (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--identity", action="store_true",
                        help="compare results and work at seeds 0-10 once per side, untimed")
    parser.add_argument("--suite", action="store_true",
                        help="with --identity, also compare the cut suite rows at seeds 0-1")
    parser.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        print(json.dumps(collect(args.workload, args.suite)))
        return 0
    if not args.base:
        parser.error("--base is required")
    if args.suite and not args.identity:
        parser.error("--suite needs --identity")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(names))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(names)}")
    names = args.workload or names
    record = {"conditions": conditions(args.base),
              "command": (f"rows and counts of seeds {SEEDS[0]}-{SEEDS[-1]}"
                          + " and the cut suite" * args.suite if args.identity
                          else f"python3 perfbench/run.py --workload W --seed {args.seed} "
                               f"--seconds {args.seconds:g} --trace 0"),
              "workloads": {}}
    print(json.dumps(record["conditions"]), file=sys.stderr)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        sides = make_sides(ROOT, args.base, Path(tmp))
        if args.identity:
            status = identity(args, names, sides, record)
        else:
            timing(args, names, sides, record, bench["end_to_end"])
    print(json.dumps(record))
    return status


if __name__ == "__main__":
    sys.exit(main())
