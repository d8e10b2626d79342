"""Guard against test-only API in the package.

Every public module-level function or class of ``src/fdareg``, and every
public method of its classes, must be referenced from the package itself or
from the benchmark scripts ``perfbench/*.py``. A reference is a name, an
attribute or an import; in the benchmark scripts also a string constant,
which is how the benchmark's tracer names the attributes it patches. A
definition that only the tests reach belongs in the tests.

The benchmark's tracer patches the functions its ``layers.targets()`` names,
by attribute, when it starts; a second guard checks that they all still
exist. Some of them (``represent.fit``, ``represent.loo_score`` and
``rbfn.train_ols``) are module-level aliases of the batched functions that
nothing in the pipeline calls, kept only as those trace names. ``layers.py``
also reads ``max_centers`` of ``rbfn.train_ols`` and ``restarts`` of
``mlp.train`` by name, so the guard checks those parameters too.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

from fdareg import mlp, rbfn

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fdareg"
BENCH_SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))

#: The test-facing half of the isolation guard: tests read through these
#: that ``run_experiment`` never opened its sealed test set early.
ALLOWED = {"selection.SealedTestSet.peek", "selection.SealedTestSet.unlocked"}


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions() -> dict[str, str]:
    """Qualified name -> bare name of every public definition."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            found[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        found[f"{module}.{node.name}.{item.name}"] = item.name
    return found


def references() -> set[str]:
    """Every name the package and the benchmark scripts refer to."""
    names = set()
    sources = [(p, False) for p in sorted(PACKAGE.glob("*.py"))]
    sources += [(p, True) for p in BENCH_SCRIPTS]
    for path, strings_count in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif strings_count and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_definition_is_used_outside_the_tests():
    assert BENCH_SCRIPTS, "the benchmark scripts were not found"
    used = references()
    unused = sorted(
        qualified for qualified, name in definitions().items()
        if name not in used and qualified not in ALLOWED
    )
    assert not unused, f"public definitions only the tests reach: {unused}"


def test_every_bench_trace_target_is_a_function(monkeypatch):
    # import the benchmark's layer table read-only: no bytecode written
    # next to it, and its modules dropped from sys.modules afterwards
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    bench_modules = ("layers", "tracer")
    for name in bench_modules:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        targets = importlib.import_module("layers").targets()
    finally:
        for name in bench_modules:
            sys.modules.pop(name, None)
    missing = sorted(
        f"{t.owner.__name__}.{t.attr}" for t in targets
        if not inspect.isfunction(getattr(t.owner, t.attr, None))
    )
    assert not missing, f"trace targets the program no longer defines: {missing}"
    # the per-layer counters bind these arguments by name
    assert "max_centers" in inspect.signature(rbfn.train_ols).parameters
    assert "restarts" in inspect.signature(mlp.train).parameters
