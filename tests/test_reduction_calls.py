"""No module reduces through numpy's mean, std, var, all or any wrappers.

On the short arrays of a PPO update, ``np.mean``, ``np.std``, ``np.all``
and their methods cost more in their Python-level wrappers than in the
reductions they wrap. ``ppo._mean`` and ``ppo._normalized`` run the same
floating-point operations through ``np.add.reduce``, and a finiteness check
reduces with ``np.logical_and.reduce``; the bits match, which
``tests/test_ppo.py`` checks. The thin ``.all()`` and ``.any()`` methods are
not wrappers of that kind and stay allowed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flsolve"
MODULES = sorted(PACKAGE.glob("*.py"))
METHODS = {"mean", "std", "var"}
FUNCTIONS = METHODS | {"all", "any"}


def wrapped_reductions(tree: ast.AST) -> list[int]:
    """Lines that call ``np.mean``/``std``/``var``/``all``/``any`` or a
    ``.mean()``, ``.std()`` or ``.var()`` method."""
    lines = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        on_numpy = isinstance(func.value, ast.Name) and func.value.id in {"np", "numpy"}
        if func.attr in (FUNCTIONS if on_numpy else METHODS):
            lines.add(node.lineno)
    return sorted(lines)


def test_modules_found():
    assert {"ppo.py", "toy.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_wrapped_reductions(path):
    assert wrapped_reductions(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_each_form_is_found():
    tree = ast.parse(
        "def f(a):\n"
        "    np.mean(a)\n"
        "    np.std(a)\n"
        "    np.var(a)\n"
        "    np.all(np.isfinite(a))\n"
        "    np.any(a > 0)\n"
        "    a.mean()\n"
        "    (a - 1).std()\n"
        "    a.var(ddof=1)\n"
        "    numpy.mean(a)\n"
        "    a.all()\n"
        "    np.isfinite(a).any()\n"
        "    np.add.reduce(a, axis=None) / a.size\n"
        "    np.logical_and.reduce(np.isfinite(a), axis=None)\n"
        "    return _mean(a), a.mean\n"
    )
    assert wrapped_reductions(tree) == list(range(2, 11))
