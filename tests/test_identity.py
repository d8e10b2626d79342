"""The identity tool's report: a differing row names only the fields that
differ, for a workload row and for a suite row's JSON text alike."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity", TOOL)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def _sides(notes_base, notes_tree):
    def side(notes):
        row = {"selected": {"n_components": 3}, "test_rmse": "0x1.8p-1", "notes": notes}
        suite_row = dict(row, name="t1", seed=0)
        return {"workloads": {"w seed=0 r": row},
                "suite": {"seed=0 t1": json.dumps(suite_row, indent=2, sort_keys=True)}}
    return side(notes_base), side(notes_tree)


def test_rows_that_differ_in_notes_report_notes_only():
    body = "\n  notes\n    base: ['a']\n    tree: ['a', 'b']"
    assert identity.compare(*_sides(["a"], ["a", "b"])) == [
        "workloads: w seed=0 r:" + body, "suite: seed=0 t1:" + body,
    ]


def test_equal_rows_report_nothing():
    assert identity.compare(*_sides(["a"], ["a"])) == []


def test_a_row_missing_on_a_side_is_named():
    base, tree = _sides([], [])
    del tree["suite"]["seed=0 t1"]
    assert identity.compare(base, tree) == ["suite: seed=0 t1: missing on the working tree"]
