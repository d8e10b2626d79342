"""Guard the check tools against changing the code they measure.

A tool of ``tools/`` measures the ``fdareg`` it imports as it is: no module
there assigns an attribute of an imported ``fdareg`` module or name (an
assignment target or ``setattr``), so a tool's run cannot stand for a tree
other than the one it runs in. A change is compared by running the tool in
each tree. The one exception is ``ab.count_work``, which wraps the functions
it counts and puts back everything it wraps before it returns.
"""

import ast
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

#: ``(module, function)`` pairs that may assign an ``fdareg`` attribute.
ALLOWED = {("ab", "count_work")}


def fdareg_names(tree: ast.AST) -> set[str]:
    """The names a module binds to ``fdareg`` modules or their members,
    from imports at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fdareg":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                         if alias.name.split(".")[0] == "fdareg")
    return names


def _root(node: ast.AST) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def assignments(source: str) -> list[tuple[str | None, str]]:
    """Every assignment to an attribute of an ``fdareg`` name in ``source``:
    ``(enclosing function or None, the target's text)`` each."""
    tree = ast.parse(source)
    names = fdareg_names(tree)
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "setattr" and node.args:
            if _root(node.args[0]) in names:
                found.append((function, f"setattr({ast.unparse(node.args[0])}, ...)"))
        for target in targets:
            for t in ast.walk(target):
                if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store) \
                        and _root(t) in names:
                    found.append((function, ast.unparse(t)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_the_guard_sees_an_assigned_attribute():
    source = ("from fdareg import mlp\n"
              "import fdareg.rbfn as r\n"
              "def main():\n"
              "    real = mlp.FTOL\n"
              "    mlp.FTOL = 0.0\n"
              "    r.train_ols_paths, x = None, 1\n"
              "    setattr(mlp, 'RESTARTS', 1)\n"
              "    mlp.FTOL = real\n")
    assert assignments(source) == [("main", "mlp.FTOL"), ("main", "r.train_ols_paths"),
                                   ("main", "setattr(mlp, ...)"), ("main", "mlp.FTOL")]
    assert assignments("import numpy as np\nnp.x = 1\nfrom fdareg import mlp\ny = mlp.FTOL\n") == []


def test_no_tool_assigns_an_fdareg_attribute():
    found = [f"{path.stem}.{function}: {target}"
             for path in sorted(TOOLS.glob("*.py"))
             for function, target in assignments(path.read_text(encoding="utf-8"))
             if (path.stem, function) not in ALLOWED]
    assert found == []
