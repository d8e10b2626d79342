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


def _with_info(info_base, info_tree, notes_tree=("a",)):
    """Both sides' rows with the given ``info``, and ``notes_tree`` on the tree."""
    def side(info, notes):
        row = {"selected": {"n_components": 3}, "notes": list(notes), "info": info}
        return {"workloads": {"w seed=0 r": row},
                "suite": {"seed=0 t1": json.dumps(dict(row, name="t1"), indent=2)}}
    return side(info_base, ["a"]), side(info_tree, notes_tree)


def test_info_differences_name_only_the_keys_that_differ():
    base, tree = _with_info({"loo_scores": {"8": 1.5}, "pruned_trainings": 3},
                            {"loo_scores": {"8": 1.5}, "pruned_trainings": 3, "pruned_paths": 7})
    body = "\n  info.pruned_paths\n    base: (missing)\n    tree: 7"
    assert identity.compare(base, tree) == [
        "workloads: w seed=0 r:" + body, "suite: seed=0 t1:" + body,
    ]


def test_tally_counts_the_rows_that_differ_per_field():
    base, tree = _with_info({"pruned_trainings": 3}, {"pruned_trainings": 3, "pruned_paths": 7},
                            notes_tree=("b",))
    del tree["suite"]["seed=0 t1"]
    tree["suite"]["seed=1 t1"] = base["suite"]["seed=0 t1"]
    base["suite"]["seed=1 t1"] = base["suite"]["seed=0 t1"]
    assert identity.tally(base, tree) == (
        "rows differing per field: (missing row) 1, info.pruned_paths 1, notes 1")
    assert identity.tally(base, base) == "rows differing per field: none"
