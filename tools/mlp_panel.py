"""The MLP panel: how far ``mlp.train`` gets within its budgets, and how
steady the selection it feeds is, for the code of the tree it runs in.

Usage, from the repository root::

    OPENBLAS_NUM_THREADS=1 python3 tools/mlp_panel.py

The row is ``table2-exp2-fpca`` of ``fdareg.suites`` with its grid cut to
the FPCA sizes :data:`SIZES`, hidden sizes :data:`HIDDEN` and decays
:data:`DECAY`, on the ``perfbench`` generator's spectra at each of
:data:`SEEDS`, split 172/43 in fixed order as ``fdareg suite`` splits them.

- **Cells.** At the first seed, per grid cell (d, H, decay): the best
  regularized loss of one training on the whole training set's d-component
  scores, with the row's CV restart count and the final refit's seed, at
  each of :data:`BUDGETS` iterations, and the iterations it used
  (``tools/ab.py``'s "LM iterations").
- **Selections.** Per seed: the row's ``selected`` and test RMSE from
  ``run_experiment``, and its ``selected`` again with the training rows
  permuted (a permutation seeded by the seed), which moves every row to
  another fold.
- **Summary.** The share of seeds whose selection flips under the
  permutation, and the median test RMSE.

A trainer change is judged by two runs of the panel, each measuring the
tree it runs in: one in a copy of the parent commit, extracted from ``git
archive <parent> src perfbench tools`` as ``tools/ab.py`` makes its base
side, and one in the working tree. Every line of the output is
deterministic: a rerun prints the same text, ending in one JSON object that
holds all of it (``budgets``, ``seeds``, ``cells``, ``selections`` and
``summary``). BLAS should run on one thread, as in the benchmark. One run
took about 2 min on a 2-core host.
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


def cells(spec, train) -> list[dict]:
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
    out = []
    for (_, d), (X, _) in sorted(inputs.items()):
        for h in spec.mlp.hidden_grid:
            for decay in spec.mlp.decay_grid:
                cell = {"d": d, "hidden": h, "decay": decay, "loss": [], "iterations": []}
                for budget in BUDGETS:
                    model, iterations = _fit(X, y, h, decay, spec.mlp.cv_restarts, seed, budget)
                    cell["loss"].append(regularized_loss(model, X, y, decay))
                    cell["iterations"].append(iterations)
                out.append(cell)
    return out


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


def summary(rows: list[dict]) -> dict:
    return {"flip_rate": sum(r["selected"] != r["permuted"] for r in rows) / len(rows),
            "median_test_rmse": statistics.median(r["test_rmse"] for r in rows)}


def _cell(selected: dict) -> str:
    return f"d={selected['n_components']} H={selected['hidden']} decay={selected['decay']:g}"


def main() -> int:
    train, _ = split(SEEDS[0])
    record = {"budgets": list(BUDGETS), "seeds": list(SEEDS),
              "cells": cells(panel_spec(SEEDS[0]), train), "selections": selections()}
    record["summary"] = summary(record["selections"])

    print(f"budgets at seed {SEEDS[0]}: best loss, iterations used")
    print(f"{'d':>3} {'H':>2} {'decay':>6}  " + "  ".join(
        f"{'loss@' + str(b):>12}" for b in BUDGETS) + "  " + " ".join(
        f"{'it@' + str(b):>7}" for b in BUDGETS))
    for c in record["cells"]:
        print(f"{c['d']:>3} {c['hidden']:>2} {c['decay']:>6g}  "
              + "  ".join(f"{v:>12.6g}" for v in c["loss"]) + "  "
              + " ".join(f"{v:>7}" for v in c["iterations"]))
    print("selections: selected and test RMSE; selected with the training rows permuted")
    for r in record["selections"]:
        print(f"seed={r['seed']}: {_cell(r['selected'])} rmse={r['test_rmse']:.6f}; "
              f"permuted {_cell(r['permuted'])}")
    s = record["summary"]
    print(f"flip rate {s['flip_rate']:.2f}, median test RMSE {s['median_test_rmse']:.6f}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
