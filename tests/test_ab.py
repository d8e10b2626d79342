"""The A/B tool's verdict on paired runs of one metric, on synthetic times,
and its comparison of counted work, on synthetic counts."""

import importlib.util
from pathlib import Path

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


def test_distance_pairs_are_counted_on_either_side(monkeypatch):
    import numpy as np

    from conftest import knn_distances
    from fdareg import imputation

    # the change side: the module's one-row distance function; rows 0 and 2
    # have a hole, so the training rows form the 3 pairs that hold one (0-1,
    # 0-2 and 2-1, each once), and the one holed new row its 3
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
    # a base whose imputer forms each row's distances in a method of its own
    monkeypatch.setattr(imputation.KnnImputer, "_distances",
                        lambda self, x, m, skip: np.zeros(5), raising=False)
    imp = imputation.KnnImputer((1,))
    counted = ab.count_work(lambda: len([imp._distances(None, None, None) for _ in range(3)]))
    assert (counted["k-NN distance pairs"], counted["failed rows"]) == (15, 3)
    assert imputation._distances.__name__ == "_distances"  # both unwrapped again
    assert imputation.KnnImputer._distances.__name__ == "<lambda>"
