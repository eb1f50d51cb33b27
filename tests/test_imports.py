"""Every name a module of the package imports is used in that module, and a
fresh import of the package loads no module it does not need yet.

``__init__`` is left out: it imports names to re-export them. A name used
only inside a string annotation counts as used.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flsolve"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import, ``from __future__`` left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def test_modules_found():
    assert {"toy.py", "runtime.py", "interpreter.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree).items()
              if name not in used]
    assert unused == []


def test_string_annotations_count_as_used():
    tree = ast.parse("from x import A, B\ndef f(a: 'A') -> 'list[B]': pass\n")
    assert set(imported_names(tree)) <= used_names(tree)


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom x import A as B, C\nprint(C)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "B"}


def test_import_loads_no_multiprocessing():
    # Only a run across several worker processes needs it.
    code = "import sys, flsolve; assert 'multiprocessing' not in sys.modules"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
