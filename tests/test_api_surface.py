"""Guard against test-only API in the package.

Every public module-level function or class of ``src/fdareg``, and every
public method of its classes, must be referenced from the package itself or
from the benchmark scripts ``perfbench/*.py``. A reference is a name, an
attribute or an import; in the benchmark scripts also a string constant,
which is how the benchmark's tracer names the attributes it patches. A
definition that only the tests reach belongs in the tests, with no
exception: the tests observe the pipeline through the public calls it
makes, never through a test-only method.

The benchmark's tracer patches the functions its ``layers.targets()`` names,
by attribute, when it starts; a second guard checks that they all still
exist. Some of them (``represent.fit``, ``represent.loo_score`` and
``rbfn.train_ols``) are module-level aliases of the batched functions that
nothing in the pipeline calls, kept only as those trace names. ``layers.py``
also reads ``max_centers`` of ``rbfn.train_ols`` and ``restarts`` of
``mlp.train`` by name, so the guard checks those parameters too.

A third guard keeps result fields that nothing reads out of the package:
every annotated field of a public ``@dataclass`` of ``src/fdareg`` must be
read as an attribute (an ``ast.Attribute`` in a load) somewhere in the
package or the benchmark scripts. Unlike above, a string constant does not
count here: the benchmark's grid keys ``"ridge"`` and ``"decay"`` name
spec values, not fields. ``FIELDS_ALLOWED`` lists the fields that nothing
reads but that the benchmark's own tests pass: ``ExperimentReport``'s
``n_train``, ``n_test`` and ``wall_time``, which ``perfbench/tests`` gives
the report's constructor, so they go with the next change to the benchmark.

A fourth guard keeps scipy's package code out of a fresh process's
imports: the pipeline needs four compiled routines of two scipy extension
modules, which ``fdareg._lapack`` loads from their files, so
``scipy.linalg._flapack`` and ``scipy.linalg._fblas`` are the only
``scipy`` entries of ``sys.modules`` and the ``scipy`` package itself is
not imported (on Linux; Windows needs its init). Medians of 15 fresh
processes without bytecode caches on a 2-vCPU Linux host: ``import
fdareg.selection, fdareg.cli`` takes 0.20 s and 33 MB; importing the bare
``scipy`` package as well brings it to 0.22 s and 34 MB, and
``scipy.linalg`` (``scipy._lib``'s array-API layer and ``numpy.f2py``) to
0.49 s and 58 MB. ``scipy.spatial`` (and the ``scipy.special`` it loads)
would cost about 0.1 s and 9 MB more, more than the RBFN's own distance
computations.

A fifth guard keeps failures named: the package has no bare ``except:``,
no ``except Exception`` or ``except BaseException``, and no
``warnings.warn``; a short donor list of k-NN imputation is a count and a
note on the report. A sixth keeps every toolkit error type
(``errors.FdaregError`` and its subclasses) in ``errors.py``, so one module
lists them all.

A seventh guard keeps the model families in one place: no comparison
(``ast.Compare``) in ``src/fdareg`` involves a family name as a string
constant. What differs between families is one record each in
``selection._FAMILIES``, so that the engine names no family and a new
family is one more record, not one more branch.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

from fdareg import mlp, rbfn, selection
from fdareg.errors import FdaregError

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fdareg"
BENCH_SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))

#: The definitions that may call ``warnings.warn``.
WARNING_ALLOWED: set[str] = set()

#: Dataclass fields nothing reads, kept because ``perfbench/tests`` builds an
#: ``ExperimentReport`` with every field; they go with the next benchmark change.
FIELDS_ALLOWED = {"selection.ExperimentReport.n_train", "selection.ExperimentReport.n_test",
                  "selection.ExperimentReport.wall_time"}

#: The model families' names, which no comparison of the package may hold.
FAMILY_NAMES = {"rbfn", "mlp"}


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def dataclass_fields() -> dict[str, str]:
    """Qualified name -> field name of every annotated field of a public
    dataclass of the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and _public(node.name) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        found[f"{path.stem}.{node.name}.{item.target.id}"] = item.target.id
    return found


def attribute_reads() -> set[str]:
    """Every attribute name the package and the benchmark scripts read."""
    return {node.attr for path in [*sorted(PACKAGE.glob("*.py")), *BENCH_SCRIPTS]
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _catches_everything(handler: ast.ExceptHandler) -> bool:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
               for t in caught)


def _is_warn(func: ast.expr) -> bool:
    if isinstance(func, ast.Attribute):
        return func.attr == "warn" and isinstance(func.value, ast.Name) \
            and func.value.id == "warnings"
    return isinstance(func, ast.Name) and func.id == "warn"


def unnamed_failures() -> list[str]:
    """``"<definition>:<line>: <construct>"`` for every bare or catch-all
    ``except`` and every ``warnings.warn`` outside ``WARNING_ALLOWED``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                if child.type is None:
                    found.append(f"{where}:{child.lineno}: bare except")
                elif _catches_everything(child):
                    found.append(f"{where}:{child.lineno}: except {ast.unparse(child.type)}")
            elif isinstance(child, ast.Call) and _is_warn(child.func) \
                    and where not in WARNING_ALLOWED:
                found.append(f"{where}:{child.lineno}: warnings.warn")
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            visit(child, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_failures_are_named_not_swallowed_or_warned():
    found = unnamed_failures()
    assert not found, f"catch-all handlers or stray warnings: {found}"


def test_every_toolkit_error_is_defined_in_errors():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"fdareg.{path.stem}")

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    stray = sorted(f"{cls.__module__}.{cls.__qualname__}" for cls in subclasses(FdaregError)
                   if cls.__module__.startswith("fdareg") and cls.__module__ != "fdareg.errors")
    assert not stray, f"toolkit errors defined outside errors.py: {stray}"


def test_every_public_definition_is_used_outside_the_tests():
    assert BENCH_SCRIPTS, "the benchmark scripts were not found"
    used = references()
    unused = sorted(
        qualified for qualified, name in definitions().items()
        if name not in used
    )
    assert not unused, f"public definitions only the tests reach: {unused}"


def test_every_dataclass_field_is_read_outside_the_tests():
    read = attribute_reads()
    fields = dataclass_fields()
    assert FIELDS_ALLOWED <= fields.keys(), "an allowed field no longer exists"
    unread = sorted(q for q, name in fields.items()
                    if name not in read and q not in FIELDS_ALLOWED)
    assert not unread, f"dataclass fields nothing reads: {unread}"


def family_comparisons() -> list[str]:
    """``"<module>:<line>: <comparison>"`` for every comparison of the
    package with a family name among its operands."""
    return [f"{path.stem}:{node.lineno}: {ast.unparse(node)}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Compare)
            and any(isinstance(operand, ast.Constant) and operand.value in FAMILY_NAMES
                    for operand in (node.left, *node.comparators))]


def test_no_comparison_names_a_model_family():
    found = family_comparisons()
    assert not found, f"comparisons with a family name: {found}"
    assert set(selection._FAMILIES) == FAMILY_NAMES


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


def test_pipeline_imports_load_two_scipy_extension_modules_and_no_scipy_package():
    probe = (
        "import sys\n"
        "import fdareg.selection, fdareg.cli\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    loaded = done.stdout.split()
    for heavy in ("scipy.linalg", "scipy.spatial", "scipy.special"):
        assert heavy not in loaded
    extensions = ["scipy.linalg._fblas", "scipy.linalg._flapack"]
    assert [m for m in loaded if m.startswith("scipy.linalg.")] == extensions
    if sys.platform != "win32":  # scipy's Windows wheels need the package init
        assert "scipy" not in loaded
        assert loaded == extensions
