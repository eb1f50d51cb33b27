"""No function of the package reads an ``Operator.<member>`` attribute.

On Python 3.10 and 3.11 ``EnumType`` defines a Python-level ``__getattr__``
(gone in 3.12), and its presence slows every attribute read on an enum class:
``Operator.ADD`` costs several times a plain class attribute. The solver step
and the parser compare operators on every line, so the members they compare
against are bound once at module level (``program.FIND``, ``program.ADD``,
...) and the kernels are found in a table. Module-level code, which runs once,
may still name members.
"""

import ast
from pathlib import Path

import pytest

from flsolve import Operator

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flsolve"
MODULES = sorted(PACKAGE.glob("*.py"))
MEMBERS = frozenset(Operator.__members__)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def member_reads(tree: ast.AST) -> list[int]:
    """Lines that read ``Operator.<member>`` inside a function or lambda body."""
    lines = set()
    for function in ast.walk(tree):
        if not isinstance(function, FUNCTIONS):
            continue
        body = function.body if isinstance(function.body, list) else [function.body]
        for node in (n for statement in body for n in ast.walk(statement)):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "Operator"
                and node.attr in MEMBERS
            ):
                lines.add(node.lineno)
    return sorted(lines)


def test_modules_found():
    assert {"interpreter.py", "parser.py", "program.py", "toy.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_member_reads_in_functions(path):
    assert member_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_a_read_in_a_body_is_found_and_module_code_is_not():
    tree = ast.parse(
        "ADD = Operator.ADD\n"
        "def f(op, default=Operator.FIND):\n"
        "    return op is Operator.RETURN\n"
        "g = lambda op: op is Operator.MOD\n"
        "h = lambda op: op.value, Operator.value\n"
        "class C:\n"
        "    op = Operator.DIVIDE\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            return Operator.LCM\n"
        "        return inner\n"
    )
    assert member_reads(tree) == [3, 4, 10]
