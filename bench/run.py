"""flsolve benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload {train,replay,stream,all} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run measures the end-to-end metrics with no tracing; op
times are scaled to a reference CPU speed by ``probe.HostSpeed``. With
``--trace 1`` it measures a short phase of untraced ops, runs the same ops
again with every layer wrapped in spans, times the layers on fixed inputs,
and reports the per-layer metrics. The last line of stdout is
one JSON object; a human report goes to stderr, and the full result (sample
counts, failure causes, provenance) to ``bench/out/``. ``--workload all``
runs the three workloads one after another, each in its own process.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Set-up is the import of the package and numpy in a fresh interpreter plus
# input generation and warm-up; each part is repeated and its median reported.
SETUP_REPS = 5
IMPORT = "import time; t = time.perf_counter(); import numpy, flsolve; print(time.perf_counter() - t)"
WORKLOADS = ("train", "replay", "stream")


def git_sha() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_s() -> float:
    """Median seconds a fresh interpreter takes to import flsolve and numpy."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        child = subprocess.run([sys.executable, "-c", IMPORT], env=env, cwd=ROOT,
                               stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(child.stdout))
    return statistics.median(times)


def percentiles(durations) -> tuple[float, float]:
    """Median and p90 in ms; p90 leaves a tenth of the samples beyond it."""
    ms = [d * 1e3 for d in durations]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[-1]


def wall_clock(phase) -> dict:
    """The timed phase in plain wall-clock time, for the report only."""
    n = len(phase.durations)
    p50, p90 = percentiles(phase.durations)
    return {"ops_per_s": n / sum(phase.durations), "op_ms_p50": p50, "op_ms_p90": p90}


def end_to_end(setup_s, phase, checks, speed) -> dict:
    """Op times at the reference speed (see probe.py): ref-ms, not wall ms."""
    scaled = speed.scaled(phase.starts, phase.durations)
    n = len(scaled)
    p50, p90 = percentiles(scaled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (setup_s, "s", SETUP_REPS),
        "ops_per_s": (n / sum(scaled), "1/ref-s", n),
        "op_ms_p50": (p50, "ref-ms", n),
        "op_ms_p90": (p90, "ref-ms", n),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "ok_share": (1 - checks.failed / checks.attempted, "share", checks.attempted),
        "accuracy": (checks.accurate / checks.answered if checks.answered else 0.0,
                     "share", checks.answered),
    }


def failure_shares(checks, defects) -> dict:
    """Timed ops that failed; ROADMAP B defect sessions by cause (stream only)."""
    n = checks.attempted
    m = defects.attempted if defects else 0

    def share(cause):
        return (defects.causes[cause] / m if m else 0.0, "share", m)

    return {
        "checks.failed_share": (checks.failed / n, "share", n),
        "defects.raise_share": share("raise"),
        "defects.divergence_share": share("divergence"),
        "defects.wrong_answer_share": share("wrong-answer"),
    }


def per_layer(summary, n_ops: int, untraced, traced) -> dict:
    from spans import GENERATOR, LAYERS

    calls, incl = summary.calls, summary.inclusive
    op_wall = incl["bench.op"] + incl["toy.train_ppo_demo"]

    def per_op(x, scale=1.0, unit="1/op"):
        return (x * scale / n_ops, unit, n_ops)

    def per_call(name, scale, unit):
        return (incl[name] * scale / calls[name] if calls[name] else 0.0, unit, calls[name])

    def ratio(a, b, unit="ratio"):
        return (a / b if b else 0.0, unit, n_ops)

    policy = "toy.PolicySession.next_chunk"
    m = {f"{layer}.self_ms_per_op": per_op(summary.self_time[layer], 1e3, "ms/op") for layer in LAYERS}
    m.update({
        "generator.self_ms_per_op": per_op(summary.self_time["generator"], 1e3, "ms/op"),
        "parser.parse_line.calls_per_op": per_op(calls["parser.parse_line"], unit="calls/op"),
        "parser.parse_line.us_per_call": per_call("parser.parse_line", 1e6, "us"),
        "parser.parse_program.calls_per_op": per_op(calls["parser.parse_program"], unit="calls/op"),
        "parser.errors_per_op": per_op(summary.errors["parser.parse_line"], unit="errors/op"),
        "parser.reparse_ratio": ratio(calls["parser.parse_program"], summary.distinct_texts),
        "interpreter.evaluate_statement.calls_per_op": per_op(
            calls["interpreter.evaluate_statement"], unit="calls/op"),
        "interpreter.errors_per_op": per_op(summary.errors["interpreter.evaluate_statement"], unit="errors/op"),
        "runtime.pulls_per_op": per_op(calls["runtime._SessionFeed.pull"], unit="calls/op"),
        "runtime.halts_per_op": per_op(summary.counters["halts"], unit="halts/op"),
        "runtime.prefix_parse_ratio": ratio(
            summary.calls_under["parser.parse_line", "runtime.run_session"],
            summary.counters["emitted_lines"]),
        "runtime.generator_ms_per_op": per_op(incl[GENERATOR] + incl[policy], 1e3, "ms/op"),
        "rewards.total_reward.ms_per_call": per_call("rewards.total_reward", 1e3, "ms"),
        "toy.policy_ms_per_op": per_op(incl[policy], 1e3, "ms/op"),
        "toy.session_init_ms_per_op": per_op(incl["toy.PolicySession.__init__"], 1e3, "ms/op"),
        "toy.rollout_share": ratio(incl["toy.rollout"], op_wall, "share"),
        "ppo.update_ms_per_op": per_op(
            incl["toy.train_ppo_demo"] - incl["toy.rollout"] if calls["toy.train_ppo_demo"] else 0.0,
            1e3, "ms/op"),
        "ppo.compute_gae.us_per_call": per_call("ppo.compute_gae", 1e6, "us"),
        "values.parse_number.calls_per_op": per_op(calls["values.parse_number"], unit="calls/op"),
        "values.format_number.calls_per_op": per_op(calls["values.format_number"], unit="calls/op"),
        "trace.overhead_share": (
            1 - (len(traced.durations) / traced.wall) / (len(untraced.durations) / untraced.wall),
            "share", n_ops),
        "trace.accounted_share": ratio(op_wall - summary.self_time["bench"], op_wall, "share"),
        "trace.spans_per_op": per_op(summary.spans, unit="spans/op"),
    })
    return m


def run_all(args) -> int:
    """Every workload in a fresh process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "flsolve" / "__init__.py").is_file():
        print(f"flsolve sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    import numpy
    import flsolve  # noqa: F401
    import fixed
    import workloads
    from probe import HostSpeed
    from spans import SpanSummary, Tracer

    imports = import_s()
    workload = workloads.WORKLOADS[args.workload]()
    setups = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        state = workload.prepare(args.seed)
        setups.append(time.perf_counter() - t)
    setup_s = imports + statistics.median(setups)

    notes: list[str] = []
    provenance = {}
    if args.trace:
        phase, runs = workload.trace_reference(state, args.seconds)
        table = fixed.layer_table()
        table.update(fixed.pool_crossover(workloads.replay_records(args.seed, fixed.POOL_SIZES[-1])))
        tracer = Tracer()
        traced = workload.traced(state, tracer, len(phase.durations))
        if not all(
            workloads.same_output(a, b) for a, b in zip(traced.outputs, phase.outputs)
        ):
            notes.append("traced ops returned other outputs than the same ops untraced")
        summary = SpanSummary(tracer)
        tracer.write(OUT / f"spans-{args.workload}.bin", {"workload": args.workload, "seed": args.seed})
        metrics = per_layer(summary, len(traced.durations), phase, traced)
        metrics.update(table)
        both = workloads.Phase()
        both.extend(phase)
        both.extend(traced)
        checks = workload.check(state, both, runs)
    else:
        speed = HostSpeed()
        phase, runs = workload.timed(state, args.seconds, speed)
        checks = workload.check(state, phase, runs)
        metrics = end_to_end(setup_s, phase, checks, speed)
        provenance["probe_us"] = speed.probe_s() * 1e6
        provenance["wall_clock"] = wall_clock(phase)
    defects = workload.defects(state)
    if args.trace:
        metrics.update(failure_shares(checks, defects))
    checks.notes += notes
    correct = not checks.wrong_output and not notes

    provenance.update({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "setup_reps_s": setups,
        "import_s": imports,
    })
    if args.workload == "train":
        first = [s.to_json() for s in runs[0].history]
        blob = json.dumps([first, runs[0].accuracy], sort_keys=True).encode()
        provenance["train_digest"] = hashlib.sha256(blob).hexdigest()
        provenance["train_accuracies"] = [r.accuracy for r in runs]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "causes": dict(checks.causes),
        "defects": None if defects is None else {
            "sessions": defects.attempted, "causes": dict(defects.causes), "notes": defects.notes,
        },
        "notes": checks.notes,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "provenance": provenance,
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n")

    err = sys.stderr
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"python={provenance['python']} numpy={provenance['numpy']} "
          f"nproc={provenance['nproc']} git={provenance['git_sha'][:12]}", file=err)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:46s} {value:14.6g} {unit:9s} n={n}", file=err)
    print(f"  failed {checks.failed}/{checks.attempted} "
          f"({checks.failed / checks.attempted:.4%}) by cause {dict(checks.causes)}", file=err)
    for note in checks.notes:
        print(f"  note: {note}", file=err)
    if defects is not None:
        print(f"  ROADMAP B defect sessions (not timed ops): {defects.failed}/{defects.attempted} "
              f"failed by cause {dict(defects.causes)}", file=err)
        for note in defects.notes:
            print(f"  defect note: {note}", file=err)
    if "wall_clock" in provenance:
        wall = provenance["wall_clock"]
        print(f"  wall clock: ops_per_s {wall['ops_per_s']:.6g} op_ms_p50 {wall['op_ms_p50']:.6g} "
              f"op_ms_p90 {wall['op_ms_p90']:.6g}; probe {provenance['probe_us']:.6g} us", file=err)
    if "train_digest" in provenance:
        print(f"  train digest {provenance['train_digest']}", file=err)

    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
