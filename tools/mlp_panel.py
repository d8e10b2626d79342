"""The MLP panel: how far ``mlp.train`` gets within its budgets, and how
steady the selection it feeds is, with and without the relative-reduction
stop (``mlp.FTOL``).

Usage, from the repository root::

    python3 tools/mlp_panel.py

The row is ``table2-exp2-fpca`` of ``fdareg.suites`` with its grid cut to
the FPCA sizes :data:`SIZES`, hidden sizes :data:`HIDDEN` and decays
:data:`DECAY`, on the ``perfbench`` generator's spectra at each of
:data:`SEEDS`, split 172/43 in fixed order as ``fdareg suite`` splits them.
A side is one value of ``mlp.FTOL`` in :data:`SIDES`: 0 (no stop, the
trainer before the stop) and the candidates 1e-3, 1e-4, 1e-5 and 1e-6.

- **Budgets.** At the first seed, per grid cell (d, H, decay) and side: the
  best regularized loss of one training on the whole training set's
  d-component scores, with the row's CV restart count and the final refit's
  seed, at each of :data:`BUDGETS` iterations, and the iterations it used
  (``tools/ab.py``'s "LM iterations").
- **Selections.** Per side and seed: the row's ``selected`` and test RMSE
  from ``run_experiment``, and its ``selected`` again with the training
  rows permuted (a permutation seeded by the seed), which moves every row
  to another fold. Per side: the share of seeds whose selection flips under
  the permutation, the median test RMSE, and, against side 0, the rows (both
  orders) whose ``selected`` moved and the median's relative change.

Every line of the output is deterministic: a rerun prints the same text,
ending in one JSON object that holds all of it. BLAS should run on one
thread (``OPENBLAS_NUM_THREADS=1``), as in the benchmark. The whole panel
took about 10 min on a 2-core host.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

import numpy as np  # noqa: E402

import ab  # noqa: E402
import tecator_synth  # noqa: E402
import workloads  # noqa: E402
from fdareg import fdata, mlp, selection, suites  # noqa: E402
from fdareg.cv import derive_seed  # noqa: E402

ROW = ("table2", "table2-exp2-fpca")
SIDES = (0.0, 1e-3, 1e-4, 1e-5, 1e-6)
SEEDS = tuple(range(10))
SIZES = (6, 12)
HIDDEN = (1, 3, 6)
DECAY = (1e-5, 1e-3, 1e-1)
BUDGETS = (50, 150, 500, 2000)


def panel_spec(seed: int):
    table, name = ROW
    spec = next(s for s in suites.SUITE_BUILDERS[table](seed=seed) if s.name == name)
    return replace(spec, pca=replace(spec.pca, component_grid=SIZES),
                   mlp=replace(spec.mlp, hidden_grid=HIDDEN, decay_grid=DECAY))


def split(seed: int):
    return fdata.split(tecator_synth.generate(seed), workloads.TEST_SIZE, shuffle=False)


def regularized_loss(model, X, y, decay) -> float:
    """The loss ``mlp.train`` minimizes, from the model's outputs."""
    resid = mlp.forward(model, X) - y
    weights = np.concatenate([model.hidden_weights.ravel(), model.output_weights])
    return float(resid @ resid + decay * weights @ weights)


def _fit(X, y, hidden, decay, restarts, seed, budget):
    """One network and the LM iterations it took."""
    models = []

    def fit():  # returns the failed-row count
        models.extend(mlp.train([X], [y], [hidden], [decay], restarts, [seed], budget))
        return 0

    iterations = ab.count_work(fit)["LM iterations"]
    return models[0], iterations


def budgets(spec, train) -> list[dict]:
    """Per grid cell: at each budget, the best loss and the iterations used."""
    stage = selection._Stage1(spec, train)
    rows = (stage.train_values, stage.train_mask)
    ids = [f.id for f in train.functions]
    inputs, failures, _ = selection._prepare(spec, spec.impute.grid(), spec.pca.component_grid,
                                             rows, rows, None, (ids, ids))
    if failures:
        raise failures[0][2]
    y = train.targets
    seed = derive_seed(spec.seed, "mlp-final")
    cells = []
    for (_, d), (X, _) in sorted(inputs.items()):
        for h in spec.mlp.hidden_grid:
            for decay in spec.mlp.decay_grid:
                cell = {"d": d, "hidden": h, "decay": decay, "loss": [], "iterations": []}
                for budget in BUDGETS:
                    model, iterations = _fit(X, y, h, decay, spec.mlp.cv_restarts, seed, budget)
                    cell["loss"].append(regularized_loss(model, X, y, decay))
                    cell["iterations"].append(iterations)
                cells.append(cell)
    return cells


def selections() -> list[dict]:
    """Per seed: ``selected`` and test RMSE, and ``selected`` with the
    training rows permuted."""
    out = []
    for seed in SEEDS:
        spec = panel_spec(seed)
        train, test = split(seed)
        report = selection.run_experiment(spec, train, test)
        order = np.random.default_rng(derive_seed(seed, "panel-permutation")).permutation(
            len(train))
        permuted = selection.run_experiment(spec, train.subset(order), test)
        out.append({"seed": seed, "selected": report.selected, "test_rmse": report.test_rmse,
                    "permuted": permuted.selected})
    return out


def summary(rows: list[dict], base: list[dict]) -> dict:
    median = statistics.median(r["test_rmse"] for r in rows)
    base_median = statistics.median(r["test_rmse"] for r in base)
    return {
        "flip_rate": sum(r["selected"] != r["permuted"] for r in rows) / len(rows),
        "median_test_rmse": median,
        "median_change": median / base_median - 1.0,
        "moved": sum((r["selected"] != b["selected"]) + (r["permuted"] != b["permuted"])
                     for r, b in zip(rows, base)),
    }


def _cell(selected: dict) -> str:
    return f"d={selected['n_components']} H={selected['hidden']} decay={selected['decay']:g}"


def main() -> int:
    record, real_ftol = {"sides": list(SIDES), "budgets": list(BUDGETS),
                         "seeds": list(SEEDS)}, mlp.FTOL
    try:
        for ftol in SIDES:
            mlp.FTOL = ftol
            train, _ = split(SEEDS[0])
            record[f"ftol={ftol:g}"] = {"budgets": budgets(panel_spec(SEEDS[0]), train),
                                        "selections": selections()}
    finally:
        mlp.FTOL = real_ftol

    print(f"budgets at seed {SEEDS[0]}: best loss, iterations used")
    print(f"{'d':>3} {'H':>2} {'decay':>6} {'ftol':>6}  " + "  ".join(
        f"{'loss@' + str(b):>12}" for b in BUDGETS) + "  " + " ".join(
        f"{'it@' + str(b):>7}" for b in BUDGETS))
    for i in range(len(record["ftol=0"]["budgets"])):
        for ftol in SIDES:
            c = record[f"ftol={ftol:g}"]["budgets"][i]
            print(f"{c['d']:>3} {c['hidden']:>2} {c['decay']:>6g} {ftol:>6g}  "
                  + "  ".join(f"{v:>12.6g}" for v in c["loss"]) + "  "
                  + " ".join(f"{v:>7}" for v in c["iterations"]))
    print("selections: selected and test RMSE; selected with the training rows permuted")
    for ftol in SIDES:
        for r in record[f"ftol={ftol:g}"]["selections"]:
            print(f"ftol={ftol:g} seed={r['seed']}: {_cell(r['selected'])} "
                  f"rmse={r['test_rmse']:.6f}; permuted {_cell(r['permuted'])}")
    base = record["ftol=0"]["selections"]
    for ftol in SIDES:
        s = record[f"ftol={ftol:g}"]["summary"] = summary(record[f"ftol={ftol:g}"]["selections"],
                                                          base)
        print(f"ftol={ftol:g}: flip rate {s['flip_rate']:.2f}, median test RMSE "
              f"{s['median_test_rmse']:.6f} ({100 * s['median_change']:+.3f} %), "
              f"{s['moved']} of {2 * len(base)} selections moved against ftol=0")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
