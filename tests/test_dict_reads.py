"""Only ``program.py`` reads an object's ``__dict__``.

``ProblemRecord`` caches its parsed gold and the gold's tally in its
``__dict__``, outside the dataclass fields, and leaves out of pickling every
attribute whose name starts with an underscore. That rule lives in
``program.py``; a cache another module kept on a record would depend on it
from outside, so the record owns every cache it carries.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flsolve"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "program.py")


def dict_reads(tree: ast.AST) -> list[int]:
    """Lines that read a ``__dict__`` attribute."""
    return sorted(
        {n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "__dict__"}
    )


def test_modules_found():
    assert {"config.py", "rewards.py", "runtime.py", "toy.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dict_reads_outside_program(path):
    assert dict_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_a_read_is_found():
    tree = ast.parse(
        "def f(gold):\n"
        "    counts = gold.__dict__.get('_tally')\n"
        "    gold.__dict__['_tally'] = 1\n"
        "    return vars(gold)\n"
    )
    assert dict_reads(tree) == [2, 3]
