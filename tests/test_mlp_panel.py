"""The MLP panel on one grid cell at one seed: its columns, and a rerun
that prints the same text."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mlp_panel.py"
_spec = importlib.util.spec_from_file_location("mlp_panel", TOOL)
panel = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(panel)


def test_one_cell_at_one_seed_prints_its_columns_the_same_twice(monkeypatch, capsys):
    for name, value in (("SEEDS", (0,)), ("SIZES", (6,)),
                        ("HIDDEN", (1,)), ("DECAY", (1e-3,)), ("BUDGETS", (5, 10))):
        monkeypatch.setattr(panel, name, value)
    real = panel.panel_spec

    def small(seed):  # the row's restarts and budgets cut to keep the test short
        spec = real(seed)
        return replace(spec, mlp=replace(spec.mlp, restarts=4, cv_restarts=4, max_iter=30,
                                         cv_max_iter=30))

    monkeypatch.setattr(panel, "panel_spec", small)
    panel.main()
    out = capsys.readouterr().out
    panel.main()
    assert capsys.readouterr().out == out

    lines = out.splitlines()
    assert lines[1].split() == ["d", "H", "decay", "loss@5", "loss@10", "it@5", "it@10"]
    d, h, decay, loss_5, loss_10, it_5, it_10 = lines[2].split()
    assert (d, h, decay) == ("6", "1", "0.001")
    assert float(loss_10) <= float(loss_5)
    assert int(it_5) <= 5 and int(it_10) <= 10
    assert lines[3].startswith("selections:")
    assert lines[4].split(":")[0] == "seed=0"
    assert lines[5].startswith("flip rate 0.00,")
    record = json.loads(lines[-1])
    assert sorted(record) == ["budgets", "cells", "seeds", "selections", "summary"]
    assert record["budgets"] == [5, 10] and len(lines) == 7
    assert record["cells"][0]["iterations"] == [5, 10]
