"""Check that the working tree reports the same numbers as a base revision.

Usage, from the repository root::

    python3 tools/identity.py --base <rev> [--suite]

The base revision is checked out in a temporary ``git worktree``, removed
afterwards. Each side then runs, in a fresh interpreter on its own ``src``
and ``perfbench`` directories, seeds 0-9 of every workload of
``perfbench/workloads.py``, and the two sides' ``selected``, ``test_rmse``,
``cv_score``, ``notes`` and ``info`` are compared by ``float.hex``; a row
that ends in a toolkit error is compared by its error type and message.

``--suite`` also runs the 23 rows of ``fdareg.suites`` at generator seeds
0-1, on cut grids (PCA sizes (3, 6), MLP hidden (1,) and decay (1e-3,)),
with 10 % holes on the holed tables and the fixed 172/43 split of ``fdareg
suite``, and compares the row JSONs the command writes byte for byte.

Every row that differs is printed with the fields that differ (a suite
row's JSON is compared by top-level key, and ``info`` by its keys, printed
as ``info.<key>``), and a last line counts the differing rows per field, so
that "only these keys moved" reads off one line; the exit status is 1 if
any row differs.
The benchmark modules are imported without writing bytecode, and BLAS runs
one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SEEDS = range(10)
SUITE_SEEDS = range(2)
FIELDS = ("selected", "test_rmse", "cv_score", "notes", "info")


def _exact(value):
    """``value`` with every float written by ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _exact(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return value


def _workload_rows() -> dict:
    from fdareg.errors import FdaregError
    from fdareg.selection import run_experiment
    import workloads

    rows = {}
    for name, workload in workloads.WORKLOADS.items():
        for seed in WORKLOAD_SEEDS:
            train, test, specs = workloads.prepare(workload, seed)
            for spec in specs:
                try:
                    report = run_experiment(spec, train, test)
                except FdaregError as exc:
                    rows[f"{name} seed={seed} {spec.name}"] = f"{type(exc).__name__}: {exc}"
                    continue
                rows[f"{name} seed={seed} {spec.name}"] = {
                    field: _exact(getattr(report, field)) for field in FIELDS
                }
    return rows


def _cut(spec):
    if spec.pca.kind != "none":
        spec = replace(spec, pca=replace(spec.pca, component_grid=(3, 6)))
    if spec.model == "mlp":
        spec = replace(spec, mlp=replace(spec.mlp, hidden_grid=(1,), decay_grid=(1e-3,)))
    return spec


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
            specs = [_cut(spec) for spec in build(seed=seed)]
            with tempfile.TemporaryDirectory() as out, \
                    contextlib.redirect_stdout(sys.stderr):
                cli._run_rows(specs, train, test, Path(out), {}, table)
                for spec in specs:
                    path = Path(out) / f"row_{spec.name}.json"
                    rows[f"seed={seed} {spec.name}"] = path.read_text(encoding="utf-8")
    return rows


def _collect(suite: bool) -> dict:
    return {"workloads": _workload_rows(), "suite": _suite_rows() if suite else {}}


def _start(root: Path, suite: bool) -> subprocess.Popen:
    """Collect one side's rows in a fresh interpreter on ``root``'s code."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    command = [sys.executable, str(Path(__file__).resolve()), "--collect"]
    return subprocess.Popen(command + ["--suite"] * suite, env=env, cwd=root,
                            stdout=subprocess.PIPE, text=True)


def _finish(process: subprocess.Popen, side: str) -> dict:
    out, _ = process.communicate()
    if process.returncode:
        raise SystemExit(f"identity: the {side} side exited with status {process.returncode}")
    return json.loads(out)


def _fields(group: str, row) -> dict:
    """A row's top-level fields: a suite row's JSON text parsed, a workload
    row as collected, and a workload row that ended in an error as its one
    ``error`` field."""
    if group == "suite":
        return json.loads(row)
    return row if isinstance(row, dict) else {"error": row}


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
                rows[f"{group}: {key}"] = _differing(_fields(group, base[group][key]),
                                                     _fields(group, head[group][key]))
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="revision to compare the working tree against")
    parser.add_argument("--suite", action="store_true",
                        help="also compare the cut suite rows' JSONs at seeds 0-1")
    parser.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        print(json.dumps(_collect(args.suite)))
        return 0
    if not args.base:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory() as tmp:
        worktree = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(worktree), args.base], check=True)
        sides = []
        try:
            sides = [_start(worktree, args.suite), _start(ROOT, args.suite)]
            base, head = [_finish(p, side) for p, side in zip(sides, ("base", "working tree"))]
        finally:
            for process in sides:
                if process.poll() is None:
                    process.kill()
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(worktree)], check=True)
    differ = compare(base, head)
    for line in differ:
        print(line)
    rows = len(head["workloads"]) + len(head["suite"])
    print(f"{len(differ)} of {rows} rows differ from {args.base}")
    print(tally(base, head))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
