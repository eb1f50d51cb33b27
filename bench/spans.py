"""Per-layer spans recorded from outside the package.

``Tracer.install`` rebinds every public function of each layer module, plus a
few methods, to a wrapper that records a span: name, start, end, parent span
and op id. The rebinding happens in every loaded ``flsolve`` namespace that
holds the function, so callers inside the package (``flsolve.rewards.
parse_program``, ``flsolve.runtime.parse_line``) reach the wrapper and no
file under ``src/`` changes. ``Tracer.uninstall`` restores the originals.

Spans stay in memory, in flat arrays, until ``write`` puts them on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "values", "program", "parser", "interpreter", "runtime",
    "rewards", "evaluation", "data", "toy", "ppo",
)
# Methods on the hot paths; module-level public functions are found by
# inspection. The scripted generator stands in for a language model, so its
# spans form a layer of their own.
METHODS = {
    "runtime": ("ScriptedGenerator.next_chunk", "_SessionFeed.pull"),
    "toy": ("PolicySession.__init__", "PolicySession.next_chunk"),
    "ppo": (
        "ToyPolicy.action_probs", "ToyPolicy.logprob", "ToyPolicy.value",
        "ToyPolicy.copy", "Trajectory.__post_init__",
    ),
    "evaluation": ("GeneratorSpec.build",),
}
GENERATOR = "runtime.ScriptedGenerator.next_chunk"
# train_ppo_demo runs a whole training run; its per-iteration op root stands in.
SKIPPED = {"toy.train_ppo_demo"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.flag = array("b")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: Counter = Counter()
        self.texts: set[tuple[int, int]] = set()
        self._restore: list[tuple[object, str, object]] = []

    def register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.flag.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, nid: int) -> None:
        if self.stack:
            raise RuntimeError(f"op starts inside span {self.names[self.name_id[self.stack[-1]]]}")
        self.op_id += 1
        self.open(nid)

    def end_op(self) -> None:
        if len(self.stack) != 1:
            raise RuntimeError("op ends with spans still open")
        self.close(self.stack[-1])

    def _wrap(self, fn, name: str, layer: str, on_result=None):
        nid = self.register(name, layer)
        flag = self.flag

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                flag[i] = 1
                raise
            finally:
                self.close(i)
            if on_result is not None:
                on_result(i, args, kwargs, result)
            return result

        return traced

    def _hooks(self):
        from flsolve.parser import ParseError

        def parse_line(i, args, kwargs, result):
            if isinstance(result, ParseError):
                self.flag[i] = 1

        def parse_program(i, args, kwargs, result):
            source = args[0] if args else kwargs["source"]
            self.texts.add((self.op_id, hash(source)))

        def run_session(i, args, kwargs, result):
            self.counters["halts"] += result.halted_count
            self.counters["emitted_lines"] += len(result.emitted_lines)

        return {
            "parser.parse_line": parse_line,
            "parser.parse_program": parse_program,
            "runtime.run_session": run_session,
        }

    def install(self) -> None:
        hooks = self._hooks()
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"flsolve.{layer}")
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in SKIPPED
                ):
                    wrappers[id(fn)] = self._wrap(fn, name, layer, hooks.get(name))
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                name = f"{layer}.{path}"
                span_layer = "generator" if name == GENERATOR else layer
                wrapped = self._wrap(vars(cls)[meth], name, span_layer)
                self._restore.append((cls, meth, vars(cls)[meth]))
                setattr(cls, meth, wrapped)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "flsolve" and not mod_name.startswith("flsolve."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path, header: dict) -> None:
        """Spans as a JSON header line followed by the raw column arrays."""
        columns = ("name_id", "start", "end", "parent", "op", "flag")
        meta = dict(
            header,
            names=self.names,
            layers=self.layers,
            spans=len(self.start),
            columns=[[c, getattr(self, c).typecode] for c in columns],
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(meta).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(fh)


class SpanSummary:
    """Per-name and per-layer totals over the spans that belong to an op."""

    def __init__(self, tracer: Tracer) -> None:
        n = len(tracer.start)
        names, layers = tracer.names, tracer.layers
        start, end = tracer.start, tracer.end
        children = array("d", bytes(8 * n))
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                children[p] += end[i] - start[i]
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.calls_under: Counter = Counter()  # (name, parent name)
        self.ops = set()
        for i in range(n):
            if tracer.op[i] < 0:
                continue
            self.ops.add(tracer.op[i])
            name = names[tracer.name_id[i]]
            dur = end[i] - start[i]
            self.calls[name] += 1
            self.errors[name] += tracer.flag[i]
            self.inclusive[name] += dur
            self.self_time[layers[tracer.name_id[i]]] += dur - children[i]
            p = tracer.parent[i]
            if p >= 0:
                self.calls_under[name, names[tracer.name_id[p]]] += 1
        self.spans = n
        self.counters = tracer.counters
        self.distinct_texts = sum(1 for op, _ in tracer.texts if op >= 0)
