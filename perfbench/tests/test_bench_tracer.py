import json
import time
import types
from pathlib import Path

import pytest

from tracer import Target, Tracer


def _toy():
    """A module-like namespace whose ``outer`` calls ``inner`` through it."""
    mod = types.SimpleNamespace()

    def inner(delay):
        time.sleep(delay)
        return delay

    def outer():
        time.sleep(0.02)
        return mod.inner(0.01) + mod.inner(0.01)

    mod.inner, mod.outer = inner, outer
    return mod


class Box:
    def value(self):
        return 3


def test_self_time_on_nested_calls():
    mod = _toy()
    tracer = Tracer()
    with tracer.patched([Target("outer", mod, "outer"), Target("inner", mod, "inner")]):
        mod.outer()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2 and summary["outer"]["calls"] == 1
    outer = summary["outer"]
    # self time is the span minus what its children cover
    assert outer["self_s"] == pytest.approx(outer["total_s"] - summary["inner"]["total_s"], abs=1e-12)
    assert 0.02 <= outer["self_s"] < outer["total_s"] - 0.02
    assert summary["inner"]["self_s"] == summary["inner"]["total_s"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]


def test_request_id_and_counters():
    tracer = Tracer(request="row-a")
    box = Box()
    with tracer.patched([Target("box.value", Box, "value", lambda a, k, r: {"box.sum": r})]):
        box.value()
        box.value()
    assert tracer.counters["box.sum"] == 6
    assert [s.request for s in tracer.spans] == ["row-a", "row-a"]


def test_every_attribute_restored():
    mod = _toy()
    originals = (mod.outer, mod.inner, vars(Box)["value"])
    with Tracer().patched([Target("outer", mod, "outer"), Target("inner", mod, "inner"),
                           Target("value", Box, "value")]):
        assert mod.outer is not originals[0] and vars(Box)["value"] is not originals[2]
    assert (mod.outer, mod.inner, vars(Box)["value"]) == originals


def test_restored_after_exception():
    mod = _toy()
    original = mod.inner
    tracer = Tracer()
    with pytest.raises(TypeError):
        with tracer.patched([Target("inner", mod, "inner")]):
            mod.inner("not a delay")  # time.sleep raises inside the wrapper
    assert mod.inner is original
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._stack == []


def test_restored_when_a_later_target_is_invalid():
    mod = _toy()
    original = mod.outer
    with pytest.raises(TypeError):
        with Tracer().patched([Target("outer", mod, "outer"), Target("missing", mod, "nope")]):
            pass
    assert mod.outer is original


def test_program_targets_restored():
    import layers

    before = [vars(t.owner)[t.attr] for t in layers.targets()]
    with pytest.raises(RuntimeError):
        with Tracer().patched(layers.targets()):
            raise RuntimeError("row failed")
    assert [vars(t.owner)[t.attr] for t in layers.targets()] == before


def test_benchmark_json_lists_every_per_layer_metric():
    import layers

    config = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in config["per_layer"]}
    assert listed == layers.metric_units()
