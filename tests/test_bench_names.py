"""Every package name the benchmark harness uses exists.

The scripts under ``bench/`` reach the package as ``fl.<name>`` after
``import flsolve as fl`` and through ``from flsolve... import <name>``. A
name deleted from the package breaks the harness without failing any other
test, so the names are read off the scripts' syntax trees and resolved here.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_names() -> set[tuple[str, str]]:
    """(module, name) for each package name a bench script uses."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "flsolve"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "flsolve":
                names.update((node.module, alias.name) for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                names.add(("flsolve", node.attr))
    return names


def test_every_name_the_bench_uses_resolves():
    names = bench_names()
    # The walk must see the harness's imports, or the check below is empty.
    assert ("flsolve", "train_ppo_demo") in names
    assert ("flsolve.toy", "SINGLE_OP_TEMPLATES") in names
    missing = sorted(
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
    )
    assert missing == []
