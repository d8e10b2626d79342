"""Passes, checks and metrics of one benchmark run; ``run.py`` is the entry point.

Import this module only after ``run.import_program()`` has put the
checkout's ``src`` on the path and pinned BLAS to one thread.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from fdareg import basis, selection

import tecator_synth
from layers import (
    COUNTERS,
    FUNCTIONS,
    LAYERS,
    OTHER_WARNINGS,
    WARNING_KINDS,
    WITH_CHILDREN,
    classify_warning,
    metric_units,
    targets,
)
from speedometer import Speedometer
from tracer import Tracer
from workloads import WORKLOADS, check_report, matches, outcome, prepare

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".bench_out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5


@dataclass
class RowRun:
    name: str
    outcome: dict | None  # selected hyperparameters and test RMSE
    problems: list[str]
    warnings: Counter = field(default_factory=Counter)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    rows: list[RowRun]
    tracer: Tracer | None = None
    speedometer: Speedometer | None = None


def run_row(spec, train, test) -> tuple[RowRun, list]:
    """Run one row, catching its warnings; a raising row is a failed row."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = selection.run_experiment(spec, train, test)
        except Exception:  # noqa: BLE001 - the run goes on and counts the failure
            print(f"row {spec.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return RowRun(spec.name, None, ["raised"]), caught
    return RowRun(spec.name, outcome(report), check_report(spec, report)), caught


def run_pass(specs, train, test, tracer: Tracer | None = None,
             speedometer: Speedometer | None = None) -> Pass:
    """Run every row once, from a cold Gram-factor cache as a fresh
    ``fdareg suite`` process would; either trace it or sample the host's
    speed while it runs."""
    basis._GRAM_CACHE.clear()
    rows, caught = [], []
    with tracer.patched(targets()) if tracer is not None else contextlib.nullcontext():
        t0, c0 = time.perf_counter(), time.process_time()
        with speedometer.running() if speedometer is not None else contextlib.nullcontext():
            for spec in specs:
                if tracer is not None:
                    tracer.request = spec.name
                row, row_warnings = run_row(spec, train, test)
                rows.append(row)
                caught.append(row_warnings)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    for row, row_warnings in zip(rows, caught):
        row.warnings.update(classify_warning(w) for w in row_warnings)
    return Pass(wall, cpu, rows, tracer, speedometer)


def measure(deadline: float, step) -> list[Pass]:
    """Call ``step`` until another call could end after ``deadline`` (a
    ``time.perf_counter()`` value); at least once.

    ``step`` returns a list of passes; the next call is assumed to take as
    long as the slowest call so far.
    """
    passes, durations = [], []
    while True:
        t0 = time.perf_counter()
        passes.extend(step())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() + max(durations) > deadline:
            return passes


def failures(passes: list[Pass]) -> tuple[int, int]:
    """``(attempted, failed)`` rows; a row also fails when its outcome
    differs from the first pass's (reruns must be identical)."""
    first = {row.name: row.outcome for row in passes[0].rows}
    attempted = failed = 0
    for p in passes:
        for row in p.rows:
            attempted += 1
            if row.problems or row.outcome != first[row.name]:
                failed += 1
    return attempted, failed


def reference_check(workload: str, seed: int, rows: list[RowRun]) -> tuple[int, int]:
    """``(checked, mismatches)`` of this seed's rows against the reference."""
    expected = json.loads(REFERENCE.read_text())["workloads"].get(workload, {}).get(str(seed), {})
    checked = mismatches = 0
    for row in rows:
        if row.name in expected and row.outcome is not None:
            checked += 1
            mismatches += not matches(expected[row.name], row.outcome)
    return checked, mismatches


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters (``run.py --setup-probe``)."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(setup_s: float, passes: list[Pass], failed_share: float) -> dict:
    """Pass times are scaled to the reference host speed (``speedometer.py``),
    then the median over passes is taken."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(p.speedometer.scaled(p.wall_s) for p in passes), "s"),
        "cpu_s": (statistics.median(p.speedometer.scaled(p.cpu_s) for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "success_rate": (1.0 - failed_share, "ratio"),
    }


def pass_layers(p: Pass) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    summary = p.tracer.summary()
    counters = p.tracer.counters
    values: dict[str, float] = {}
    layer_self = Counter()
    for name in FUNCTIONS:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
        if name in WITH_CHILDREN:
            values[f"{name}.total_s"] = entry["total_s"]
        layer_self[name.split(".")[0]] += entry["self_s"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
        values[f"{layer}.share_pct"] = 100.0 * layer_self[layer] / p.wall_s
    for name in COUNTERS:
        values[name] = counters[name]
    requested = counters["rbfn.train_ols.requested"]
    values["rbfn.train_ols.fill_ratio"] = (
        counters["rbfn.train_ols.centers"] / requested if requested else 0.0
    )
    warned = sum((row.warnings for row in p.rows), Counter())
    for name in [kind[0] for kind in WARNING_KINDS] + [OTHER_WARNINGS]:
        values[name] = warned[name]
    values["trace.wall_s"] = p.wall_s
    return values


def per_layer(workload: str, seed: int, plain: list[Pass], traced: list[Pass],
              failed_share: float) -> dict:
    per_pass = [pass_layers(p) for p in traced]
    values = {key: statistics.median(v[key] for v in per_pass) for key in per_pass[0]}
    values["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in plain)
    )
    values["error_rate"] = failed_share
    checked, mismatches = reference_check(workload, seed, plain[0].rows)
    values["selection.reference_checked"] = checked
    values["selection.reference_mismatches"] = mismatches
    units = metric_units()
    if set(units) != set(values):
        raise RuntimeError(f"per-layer metrics out of step with layers.py: {set(units) ^ set(values)}")
    return {name: (values[name], units[name]) for name in units}


def main(args, started: float) -> int:
    """One run; everything from ``started`` on counts against ``--seconds``."""
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    deadline = started + args.seconds
    train, test, specs = prepare(WORKLOADS[args.workload], args.seed)

    if args.trace:
        passes = measure(deadline, lambda: [run_pass(specs, train, test),
                                            run_pass(specs, train, test, Tracer())])
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        passes = measure(deadline, lambda: [run_pass(specs, train, test,
                                                     speedometer=Speedometer())])
    attempted, failed = failures(passes)
    if args.trace:
        metrics = per_layer(args.workload, args.seed, passes[0::2], passes[1::2],
                            failed / attempted)
    else:
        metrics = end_to_end(setup_s, passes, failed / attempted)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "generator": tecator_synth.PARAMS.to_dict(),
        "specs": [spec.to_dict() for spec in specs],
        "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, **({
                        "sampling_s": p.speedometer.sampling_s,
                        "speed": p.speedometer.speed,
                    } if p.speedometer else {})} for p in passes],
        "rows": [{"name": r.name, "outcome": r.outcome, "problems": r.problems,
                  "warnings": dict(r.warnings)} for r in passes[0].rows],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(passes[-1].tracer.records()) + "\n")

    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, "
          f"{attempted} rows, {failed} failed")
    if not args.trace:
        print("  unscaled pass wall times (s): "
              + " ".join(f"{p.wall_s:.3f}" for p in passes)
              + "; host speeds: " + " ".join(f"{p.speedometer.speed:.3f}" for p in passes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
