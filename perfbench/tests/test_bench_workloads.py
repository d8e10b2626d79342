from dataclasses import replace

from fdareg.selection import ExperimentReport

import workloads


def _report(selected):
    return ExperimentReport(name="row", model="mlp", test_rmse=1.0, cv_score=1.0,
                            selected=selected, info={}, n_train=172, n_test=43,
                            seed=0, wall_time=0.0)


def test_check_report_flags_values_outside_the_grid():
    spec = workloads.WORKLOADS["holed-knn-mlp"].rows(0)[0]
    report = _report(selected={"impute_k": 3, "n_components": 6, "hidden": 1, "decay": 1e-3})
    assert workloads.check_report(spec, report) == ["selected impute_k=3 is outside its grid"]
    good = replace(report, selected={**report.selected, "impute_k": 4})
    assert workloads.check_report(spec, good) == []
    bad = replace(good, test_rmse=float("nan"))
    assert workloads.check_report(spec, bad) == ["test RMSE is nan"]


def test_reference_match_uses_the_stated_tolerance():
    ref = {"selected": {"ridge": 1e-6}, "test_rmse": 1.0}
    assert workloads.matches(ref, {"selected": {"ridge": 1e-6}, "test_rmse": 1.0 + 1e-12})
    assert not workloads.matches(ref, {"selected": {"ridge": 1e-6}, "test_rmse": 1.0 + 1e-6})
    assert not workloads.matches(ref, {"selected": {"ridge": 1e-5}, "test_rmse": 1.0})

