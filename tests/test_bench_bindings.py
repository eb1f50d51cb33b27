"""The benchmark harness reaches into the package by name; these names hold.

``bench/spans.py`` rebinds public functions and a few named methods, and
``bench/workloads.py`` counts training iterations through ``list(tasks)``.
A refactor that renames or restructures either breaks the harness without
failing any other test.
"""

import inspect
import sys
from pathlib import Path

import pytest

from flsolve import ToyPolicy, generate_toy_tasks, train_ppo_demo
from flsolve.toy import ACTION_NAMES, N_FEATURES, SINGLE_OP_TEMPLATES

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    return spans, workloads


def _package_bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "flsolve" or name.startswith("flsolve.")
        for attr, value in vars(module).items()
        if inspect.isfunction(value)
    }


def _method_bindings(spans) -> dict:
    bound = {}
    for layer, paths in spans.METHODS.items():
        module = sys.modules[f"flsolve.{layer}"]
        for path in paths:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            bound[cls, meth] = vars(cls)[meth]
    return bound


def test_tracer_install_then_uninstall_restores_every_binding(bench):
    spans, _ = bench
    import flsolve.parser
    import flsolve.runtime

    original_parse_line = flsolve.parser.parse_line
    functions = _package_bindings()
    methods = _method_bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert flsolve.runtime.parse_line is not original_parse_line
        for (cls, meth), original in methods.items():
            assert vars(cls)[meth] is not original, f"{cls.__name__}.{meth} not rebound"
    finally:
        tracer.uninstall()
    assert flsolve.runtime.parse_line is original_parse_line
    assert _package_bindings() == functions
    for (cls, meth), original in methods.items():
        assert vars(cls)[meth] is original, f"{cls.__name__}.{meth} not restored"


def test_iteration_clock_counts_training_iterations(bench):
    _, workloads = bench
    clock = workloads.IterationClock(generate_toy_tasks(0, 4, SINGLE_OP_TEMPLATES))
    policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
    history = train_ppo_demo(policy, clock, iterations=3)
    assert len(history) == 3
    assert len(clock.starts) == 3
