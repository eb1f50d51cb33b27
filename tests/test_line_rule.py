"""No module of the package splits text into lines with ``str.splitlines``.

A line ends at ``\\n`` only, the way the session reads it, and
``parser._lines`` is the one place that says so. ``splitlines`` also breaks
at ``\\r``, ``\\x0c``, ``\\u2028`` and more, so text split with it would get
another answer. Splitting a docstring is allowed (``cli.py`` takes its
description from the first line of ``__doc__``).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flsolve"
MODULES = sorted(PACKAGE.glob("*.py"))


def is_docstring(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "__doc__") or (
        isinstance(node, ast.Attribute) and node.attr == "__doc__"
    )


def splitlines_calls(tree: ast.AST) -> list[int]:
    """Lines that call ``.splitlines()`` on anything but a docstring."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "splitlines"
        and not is_docstring(node.func.value)
    ]


def test_modules_found():
    assert {"parser.py", "runtime.py", "evaluation.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_splitlines(path):
    assert splitlines_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_a_call_is_found_and_a_docstring_is_not():
    tree = ast.parse("a = text.splitlines()\nb = __doc__.splitlines()\nc = f.__doc__.splitlines()\n"
                     "d = str.splitlines(text)\n")
    assert splitlines_calls(tree) == [1, 4]
