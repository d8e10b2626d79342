"""The size tool's count: non-blank lines outside module, class and function
docstrings, comments included."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "size.py"
_spec = importlib.util.spec_from_file_location("size", TOOL)
size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment counts


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        text = """not a docstring"""
        return text


def g():
    x = 1
    "a string statement that does not open the body"
    return x
'''


def test_docstrings_and_blank_lines_are_not_counted():
    assert size.docstring_lines(SOURCE) == {1, 2, 8, 11, 12}
    # import, class, def f, text, return; def g, x, the string, return
    assert size.code_lines(SOURCE) == 9


def test_the_report_lists_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n')
    assert size.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["a.py", "1"], ["b.py", "9"], ["total", "10"]]
