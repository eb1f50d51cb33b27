"""Layer timings on fixed inputs, and the process-pool crossover.

These reproduce the ROADMAP aim-1 table, reported as medians rather than
best-of-N, and locate where ``evaluate_corpus(workers=2)`` starts to beat
``workers=1`` on growing prefixes of the replay corpus. Workers never exceed
the CPUs this process may use.
"""

from __future__ import annotations

import os
import statistics
import time

import flsolve as fl
from flsolve.toy import SINGLE_OP_TEMPLATES

perf = time.perf_counter
BUDGET_S = 0.3
MIN_REPS = 5
POOL_SIZES = (4, 16, 64, 256)
POOL_REPS = 3
SPEC = fl.GeneratorSpec("gold-replay")


def pool_workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def _median(fn, reps: int = MIN_REPS, budget: float = BUDGET_S) -> tuple[float, int]:
    times: list[float] = []
    end = perf() + budget
    while len(times) < reps or perf() < end:
        t = perf()
        fn()
        times.append(perf() - t)
    return statistics.median(times), len(times)


def layer_table() -> dict[str, tuple[float, str, int]]:
    """name -> (median, unit, samples) on the bundled 7-line gold program."""
    examples = fl.bundled_examples()
    record = examples.records[0]
    lines = record.gold_program.splitlines()
    program = fl.parse_program(record.gold_program)
    replay = fl.strip_computed_comments(record.gold_program)
    tasks = fl.generate_toy_tasks(0, 16, SINGLE_OP_TEMPLATES)

    def one_iteration():
        policy = fl.ToyPolicy.zeros(len(fl.ACTION_NAMES), fl.N_FEATURES)
        fl.train_ppo_demo(policy, tasks, ppo_cfg=fl.demo_config(), iterations=1, seed=0)

    items = {
        "parser.parse_line.fixed_us": (lambda: [fl.parse_line(x) for x in lines], 1e6 / len(lines), "us"),
        "parser.parse_program.gold7_us": (lambda: fl.parse_program(record.gold_program), 1e6, "us"),
        "interpreter.evaluate.gold7_us": (lambda: fl.evaluate(program), 1e6, "us"),
        "runtime.run_session.whole_us": (
            lambda: fl.run_session(fl.ScriptedGenerator(replay, 0), record.question), 1e6, "us"),
        "runtime.run_session.chunk1_us": (
            lambda: fl.run_session(fl.ScriptedGenerator(replay, 1), record.question), 1e6, "us"),
        "rewards.total_reward.gold7_us": (lambda: fl.total_reward(record.gold_program, record), 1e6, "us"),
        "evaluation.evaluate_corpus.w1_ms": (lambda: fl.evaluate_corpus(examples, SPEC, workers=1), 1e3, "ms"),
        "evaluation.evaluate_corpus.w2_ms": (
            lambda: fl.evaluate_corpus(examples, SPEC, workers=pool_workers()), 1e3, "ms"),
        "toy.ppo_demo.iteration_ms": (one_iteration, 1e3, "ms"),
    }
    table = {}
    for name, (fn, scale, unit) in items.items():
        median, reps = _median(fn)
        table[name] = (median * scale, unit, reps)
    return table


def _fit(xs: list[int], ys: list[float]) -> tuple[float, float]:
    """Least-squares intercept and slope."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return my - slope * mx, slope


def pool_crossover(records) -> dict[str, tuple[float, str, int]]:
    """Pool start-up cost and the record count where workers=2 wins.

    ``records`` are the replay workload's ops in order; each size takes a
    prefix. ``pool_crossover_records`` is interpolated between the last size
    where workers=1 was faster and the first where workers=2 was; -1 means
    no crossover up to the largest size tried.
    """
    workers = pool_workers()
    sizes = list(POOL_SIZES)
    one, two = [], []
    for n in sizes:
        ds = fl.DatasetFile(tuple(records[:n]), "bench:prefix")
        one.append(_median(lambda: fl.evaluate_corpus(ds, SPEC, workers=1), POOL_REPS, 0)[0])
        two.append(_median(lambda: fl.evaluate_corpus(ds, SPEC, workers=workers), POOL_REPS, 0)[0])
    startup = (_fit(sizes, two)[0] - _fit(sizes, one)[0]) * 1e3
    crossover = -1.0
    for k, n in enumerate(sizes):
        gain = one[k] - two[k]
        if gain > 0:
            if k == 0:
                crossover = float(n)
            else:
                prev_gain = one[k - 1] - two[k - 1]
                prev = sizes[k - 1]
                crossover = prev + (n - prev) * -prev_gain / (gain - prev_gain)
            break
    samples = len(sizes) * POOL_REPS
    return {
        "evaluation.pool_startup_ms": (startup, "ms", samples),
        "evaluation.pool_crossover_records": (crossover, "records", samples),
    }
