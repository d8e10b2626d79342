"""The A/B tool: its verdict on paired runs of one metric, on synthetic
times; its comparison of counted work, on synthetic counts; its report of
rows that differ, on synthetic rows; the two sides it makes, from a throwaway
repository; its one collector; and a failed run's error."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_a_clear_gain_is_a_gain():
    change = [v * 0.9 for v in BASE]
    v = ab.verdict(BASE, change, "lower", 0.25)
    assert (v["verdict"], v["change_wins"], v["pairs"]) == ("gain", 10, 10)
    assert v["base_median"] == 1.0
    assert round(v["relative_change"], 12) == -0.1


def test_identical_runs_are_no_gain():
    v = ab.verdict(BASE, list(BASE), "lower", 0.25)
    assert (v["verdict"], v["change_wins"]) == ("within bound", 0)


def test_eight_wins_of_ten_are_no_gain():
    change = [v * 0.9 for v in BASE[:8]] + [v * 1.1 for v in BASE[8:]]
    assert ab.verdict(BASE, change, "lower", 0.25)["verdict"] == "within bound"


def test_a_gap_inside_the_base_spread_is_no_gain():
    # the change wins every pair by less than the base's IQR (0.025)
    assert ab.verdict(BASE, [v - 0.01 for v in BASE], "lower", 0.25)["verdict"] == "within bound"


def test_higher_is_better_metrics_count_wins_upward():
    rates = [0.5, 0.52, 0.48, 0.51, 0.49, 0.53, 0.47, 0.5, 0.51, 0.49]
    assert ab.verdict(rates, [r + 0.2 for r in rates], "higher", 0.05)["verdict"] == "gain"
    assert ab.verdict(rates, [r - 0.2 for r in rates], "higher", 0.05)["verdict"] == (
        "worse than bound")


def test_a_slowdown_beyond_the_bound_is_flagged():
    assert ab.verdict(BASE, [v * 1.3 for v in BASE], "lower", 0.25)["verdict"] == (
        "worse than bound")
    assert ab.verdict(BASE, [v * 1.2 for v in BASE], "lower", 0.25)["verdict"] == (
        "within bound")


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [1.0, 2.0, 0.5, 1.5, 0.7, 1.2, 0.9, 1.8, 0.6, 1.1]
    assert ab.verdict(wide, list(reversed(wide)), "lower", 0.1)["verdict"] == "unresolved"
    # unless every change run beats every base run
    assert ab.verdict(wide, [v / 10 for v in wide], "lower", 0.1)["verdict"] == "gain"
    assert ab.verdict(wide, [0.4] * 9 + [0.45], "lower", 0.1)["verdict"] == "within bound"


def counts(loops, **values):
    """Synthetic ``count_work`` output: every count 0 unless given."""
    return {**dict.fromkeys(ab.COUNTS, 0), **values, "loops": loops}


LOOPS = [(129, 6, 1, 40), (129, 12, 1, 40), (96, 6, 1, 24)]


def test_equal_loop_sequences_with_fewer_train_calls():
    base = counts(LOOPS, **{"mlp.train calls": 3, "LM loops": 3, "LM jobs": 11})
    change = counts([list(loop) for loop in LOOPS],  # as read back from JSON
                    **{"mlp.train calls": 2, "LM loops": 3, "LM jobs": 11})
    c = ab.compare_counts(base, change)
    assert (c["loops_equal"], c["first_differing_loop"]) == (True, None)
    assert c["counts"]["mlp.train calls"] == {"base": 3, "change": 2, "difference": -1}
    assert c["counts"]["LM jobs"]["difference"] == 0


def test_the_first_differing_loop_is_named():
    change = LOOPS[:1] + [(129, 12, 1, 32), (129, 12, 1, 8)] + LOOPS[2:]
    c = ab.compare_counts(counts(LOOPS), counts(change, **{"LM loops": 1}))
    assert (c["loops_equal"], c["first_differing_loop"]) == (False, 1)
    assert c["counts"]["LM loops"]["difference"] == 1


def test_a_sequence_that_ends_early_differs_where_it_ends():
    c = ab.compare_counts(counts(LOOPS), counts(LOOPS[:2]))
    assert (c["loops_equal"], c["first_differing_loop"]) == (False, 2)
    c = ab.compare_counts(counts([]), counts([]))
    assert c["loops_equal"]


def test_distance_pairs_are_counted_on_either_side():
    import numpy as np

    from conftest import knn_distances
    from fdareg import imputation

    # the module's one-row distance function; rows 0 and 2 have a hole, so
    # the training rows form the 3 pairs that hold one (0-1, 0-2 and 2-1,
    # each once), and the one holed new row its 3
    V = np.arange(12.0).reshape(3, 4)
    M = np.ones_like(V, dtype=bool)
    M[[0, 2], 1] = False
    new_m = np.ones((2, 4), dtype=bool)
    new_m[1, 3] = False

    def run():  # returns the failed-row count
        imputation.fill("knn", (1, 2), V, M, V[:2], new_m, knn_distances(V, M, V[:2], new_m),
                        (range(3), range(2)))
        return 0

    assert ab.count_work(run)["k-NN distance pairs"] == 3 + 3
    assert imputation._distances.__name__ == "_distances"  # unwrapped again


def _sides(notes_base, notes_tree):
    def side(notes):
        row = {"selected": {"n_components": 3}, "test_rmse": 0.75, "notes": notes}
        return {"workloads": {"w seed=0 r": ab.row_text(dict(row, name="r", seed=0))},
                "suite": {"seed=0 t1": ab.row_text(dict(row, name="t1", seed=0))}}
    return side(notes_base), side(notes_tree)


def test_rows_that_differ_in_notes_report_notes_only():
    body = "\n  notes\n    base: ['a']\n    tree: ['a', 'b']"
    assert ab.compare(*_sides(["a"], ["a", "b"])) == [
        "workloads: w seed=0 r:" + body, "suite: seed=0 t1:" + body,
    ]


def test_equal_rows_report_nothing():
    assert ab.compare(*_sides(["a"], ["a"])) == []


def test_a_row_missing_on_a_side_is_named():
    base, tree = _sides([], [])
    del tree["suite"]["seed=0 t1"]
    assert ab.compare(base, tree) == ["suite: seed=0 t1: missing on the working tree"]


def _with_info(info_base, info_tree, notes_tree=("a",)):
    """Both sides' rows with the given ``info``, and ``notes_tree`` on the tree."""
    def side(info, notes):
        row = {"selected": {"n_components": 3}, "notes": list(notes), "info": info}
        return {"workloads": {"w seed=0 r": ab.row_text(dict(row, name="r"))},
                "suite": {"seed=0 t1": ab.row_text(dict(row, name="t1"))}}
    return side(info_base, ["a"]), side(info_tree, notes_tree)


def test_info_differences_name_only_the_keys_that_differ():
    base, tree = _with_info({"loo_scores": {"8": 1.5}, "pruned_trainings": 3},
                            {"loo_scores": {"8": 1.5}, "pruned_trainings": 3, "pruned_paths": 7})
    body = "\n  info.pruned_paths\n    base: (missing)\n    tree: 7"
    assert ab.compare(base, tree) == [
        "workloads: w seed=0 r:" + body, "suite: seed=0 t1:" + body,
    ]


def test_tally_counts_the_rows_that_differ_per_field():
    base, tree = _with_info({"pruned_trainings": 3}, {"pruned_trainings": 3, "pruned_paths": 7},
                            notes_tree=("b",))
    del tree["suite"]["seed=0 t1"]
    tree["suite"]["seed=1 t1"] = base["suite"]["seed=0 t1"]
    base["suite"]["seed=1 t1"] = base["suite"]["seed=0 t1"]
    assert ab.tally(base, tree) == (
        "rows differing per field: (missing row) 1, info.pruned_paths 1, notes 1")
    assert ab.tally(base, base) == "rows differing per field: none"


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_the_sides_are_the_committed_and_the_working_code(tmp_path):
    repo = tmp_path / "repo"
    for name, text in (("src/pkg/mod.py", "X = 1\n"), ("perfbench/run.py", "RUN = 1\n")):
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@ab",
                        *args], check=True, capture_output=True)

    git("init", "-q")
    git("add", "src", "perfbench")
    git("commit", "-q", "-m", "stub")
    (repo / "src/pkg/mod.py").write_text("X = 2\n")
    (repo / "src/pkg/__pycache__").mkdir()
    (repo / "src/pkg/__pycache__/mod.cpython.pyc").write_bytes(b"cache")
    (repo / "perfbench/.bench_out").mkdir()
    (repo / "perfbench/.bench_out/result.json").write_text("{}")
    before = _files(repo / ".git")
    sides = ab.make_sides(repo, "HEAD", tmp_path / "sides")
    run = {"perfbench/run.py": b"RUN = 1\n"}
    assert _files(sides["base"]) == {"src/pkg/mod.py": b"X = 1\n", **run}
    assert _files(sides["change"]) == {"src/pkg/mod.py": b"X = 2\n", **run}
    assert _files(repo / ".git") == before


def test_one_collector_returns_the_rows_and_their_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(ab.ROOT / "perfbench"))
    monkeypatch.setattr(ab, "SEEDS", range(1))
    side = ab.collect(["spectra-pca-rbfn"], suite=False)
    [(key, text)] = side["workloads"].items()
    assert key.startswith("spectra-pca-rbfn seed=0 ")
    row = json.loads(text)
    assert sorted(row) == ["cv_score", "info", "model", "name", "notes", "seed", "selected",
                           "test_rmse"]
    assert text == ab.row_text(row)
    assert row["test_rmse"] > 0
    [(name, counts)] = side["counts"].items()
    assert name == "spectra-pca-rbfn"
    assert counts["OLS path steps"] > 0
    assert (counts["QR solves"], counts["failed rows"]) == (0, 0)
    assert side["suite"] == {}


def test_a_failed_timing_run_quotes_its_stderr(monkeypatch, tmp_path):
    def failed(command, **kwargs):
        return subprocess.CompletedProcess(command, 3, stdout="",
                                           stderr="Traceback\n  ...\nValueError: boom\n")

    monkeypatch.setattr(ab.subprocess, "run", failed)
    with pytest.raises(SystemExit) as exc_info:
        ab.run_once("change", tmp_path, 4, "holed-knn-mlp", 1, 10.0)
    message = str(exc_info.value)
    assert "the change side's run of holed-knn-mlp in pair 4" in message
    assert "status 3" in message
    assert message.endswith("ValueError: boom")


def test_lm_iterations_and_restart_steps_are_counted_exactly(monkeypatch):
    import numpy as np

    from fdareg import mlp

    # without the relative-reduction stop no restart of a 2-job stack, 3
    # restarts each, ends within 4 iterations: one loop makes 4 trial
    # evaluations of all 6 restarts after its initial evaluation
    monkeypatch.setattr(mlp, "FTOL", 0.0)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 2))
    y = np.tanh(X[:, 0])

    def run():  # returns the failed-row count
        mlp.train([X, X], [y, -y], [2, 2], [1e-3, 1e-2], 3, [0, 1], 4)
        return 0

    c = ab.count_work(run)
    assert (c["LM loops"], c["LM jobs"]) == (1, 2)
    assert (c["LM iterations"], c["LM restart steps"]) == (4, 24)
    assert mlp._batched_loss.__name__ == "_batched_loss"  # unwrapped again
