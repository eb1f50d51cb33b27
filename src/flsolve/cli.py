"""Command line front end.

Machine-readable JSON goes to stdout, one object per line; human summaries
go to stderr. Exit codes: 0 success, 1 usage or I/O trouble, 2 the input
program failed to parse, 3 it parsed but failed to evaluate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from importlib.metadata import PackageNotFoundError, version

from .config import load_config
from .data import DatasetError, load_dataset, operator_stats, ordered_stats, validate_dataset
from .evaluation import GeneratorSpec, evaluate_corpus
from .interpreter import evaluate
from .parser import parse_program
from .ppo import ToyPolicy
from .program import Program, count_finds, has_return
from .rewards import DEFAULT_REWARD_CONFIG, total_reward
from .runtime import DEFAULT_INSTRUCTIONS, assemble_prompt
from .toy import (
    ACTION_NAMES,
    N_FEATURES,
    SINGLE_OP_TEMPLATES,
    generate_toy_tasks,
    greedy_accuracy,
    train_ppo_demo,
)
from .values import format_number


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1; code 2 is reserved for program parse errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def cmd_parse(args: argparse.Namespace) -> int:
    result = parse_program(_read_source(args.file))
    if isinstance(result, Program):
        _emit(
            {
                "ok": True,
                "statements": len(result.statements),
                "finds": count_finds(result),
                "has_return": has_return(result),
            }
        )
        return 0
    for err in result:
        _emit({"ok": False, "line": err.line_number, "kind": err.kind, "message": err.message})
    print(f"{len(result)} parse error(s)", file=sys.stderr)
    return 2


def cmd_run(args: argparse.Namespace) -> int:
    result = parse_program(_read_source(args.file))
    if not isinstance(result, Program):
        for err in result:
            print(str(err), file=sys.stderr)
        return 2
    outcome = evaluate(result, strict_annotations=args.strict)
    if outcome.error is not None:
        print(str(outcome.error), file=sys.stderr)
        return 3
    print(format_number(outcome.answer))
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    ds = load_dataset(args.gold)
    if args.id is not None:
        matches = [r for r in ds.records if r.id == args.id]
        if not matches:
            raise ValueError(f"no record with id '{args.id}' in {args.gold}")
        record = matches[0]
    elif len(ds.records) == 1:
        record = ds.records[0]
    else:
        raise ValueError(f"{args.gold} holds {len(ds.records)} records; pick one with --id")
    breakdown = total_reward(_read_source(args.gen), record, DEFAULT_REWARD_CONFIG)
    _emit({"id": record.id, **breakdown.to_json()})
    print(
        f"{record.id}: r1={format_number(breakdown.r1)} r2={format_number(breakdown.r2)} "
        f"r3={format_number(breakdown.r3)} r4={format_number(breakdown.r4)} "
        f"total={format_number(breakdown.total)}",
        file=sys.stderr,
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    report = validate_dataset(load_dataset(args.dataset), workers=args.workers)
    _emit(report.to_json())
    print(f"{report.passed}/{report.total} records pass", file=sys.stderr)
    for failure in report.failures:
        print(f"  {failure.record_id}: {failure.reason}: {failure.detail}", file=sys.stderr)
    return 0 if report.failed == 0 else 1


def cmd_stats(args: argparse.Namespace) -> int:
    table = ordered_stats(operator_stats(load_dataset(args.dataset)))
    _emit(table)
    width = max(len(name) for name in table)
    for name, count in table.items():
        print(f"{name:<{width}}  {count}", file=sys.stderr)
    return 0


def cmd_prompt(args: argparse.Namespace) -> int:
    exemplars = load_dataset(args.dataset).records if args.dataset else ()
    sys.stdout.write(assemble_prompt(args.question, DEFAULT_INSTRUCTIONS, exemplars, args.k))
    return 0


def cmd_ppo_demo(args: argparse.Namespace) -> int:
    toolkit = load_config(args.config)
    ppo_cfg, reward_cfg = toolkit.ppo, toolkit.reward
    if args.learning_rate is not None:
        ppo_cfg = replace(ppo_cfg, learning_rate=args.learning_rate)
    if args.iterations < 1:
        raise ValueError("--iterations must be at least 1")
    if args.heldout < 1:
        raise ValueError("--heldout must be at least 1")

    tasks = generate_toy_tasks(args.seed, args.tasks, SINGLE_OP_TEMPLATES)
    heldout = generate_toy_tasks(args.seed + 1, args.heldout, SINGLE_OP_TEMPLATES)
    policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
    history = train_ppo_demo(
        policy,
        tasks,
        reward_cfg,
        ppo_cfg,
        args.iterations,
        seed=args.seed,
        batch_size=args.batch_size,
    )
    for stats in history:
        _emit(stats.to_json())
    accuracy = greedy_accuracy(policy, heldout, reward_cfg)
    summary = {
        "initial_mean_reward": history[0].mean_total_reward,
        "final_mean_reward": history[-1].mean_total_reward,
        "reward_gain": history[-1].mean_total_reward - history[0].mean_total_reward,
        "heldout_accuracy": accuracy,
        "iterations": len(history),
        "max_prob_sum_err": max(s.prob_sum_err for s in history),
    }
    _emit({"summary": summary})
    print(
        f"mean reward {summary['initial_mean_reward']:.3f} -> "
        f"{summary['final_mean_reward']:.3f} (gain {summary['reward_gain']:.3f}), "
        f"held-out accuracy {100 * accuracy:.1f}%",
        file=sys.stderr,
    )
    if args.save_policy:
        policy.save(args.save_policy)
        print(f"policy saved to {args.save_policy}", file=sys.stderr)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    ds = load_dataset(args.dataset)
    name = args.generator
    if name == "gold-replay":
        spec = GeneratorSpec("gold-replay", chunk_size=args.chunk_size)
    elif name == "empty":
        spec = GeneratorSpec("empty")
    elif name.startswith("scripted:"):
        spec = GeneratorSpec(
            "scripted", _read_source(name.split(":", 1)[1]), args.chunk_size
        )
    else:
        raise ValueError(
            f"unknown generator '{name}' (expected gold-replay, empty, or scripted:PATH)"
        )
    report = evaluate_corpus(ds, spec, workers=args.workers)
    _emit(report.to_json())
    print(
        f"accuracy {report.accuracy:.2f}% ({report.correct}/{report.total}), "
        f"syntax errors {report.syntax_error_rate:.2f}%",
        file=sys.stderr,
    )
    return 0


def build_parser() -> _Parser:
    try:
        release = version("flsolve")
    except PackageNotFoundError:
        release = "unreleased"
    parser = _Parser(prog="flsolve", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {release}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="check a pseudocode file, reporting every error")
    p.add_argument("file", help="program file, or - for stdin")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("run", help="evaluate a pseudocode file and print the answer")
    p.add_argument("file", help="program file, or - for stdin")
    p.add_argument(
        "--strict", action="store_true", help="fail when a comment contradicts the solver"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("score", help="score a generated program against a reference record")
    p.add_argument("--gen", required=True, help="generated program file, or - for stdin")
    p.add_argument("--gold", required=True, help="reference dataset (.jsonl)")
    p.add_argument("--id", help="record id when the dataset has several")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("validate", help="parse, run, and check every dataset record")
    p.add_argument("dataset", help="dataset file (.jsonl)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="operator frequency table for a dataset")
    p.add_argument("dataset", help="dataset file (.jsonl)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("prompt", help="print the assembled prompt for a question")
    p.add_argument("--question", required=True)
    p.add_argument("--dataset", help="dataset supplying worked examples")
    p.add_argument("--k", type=int, default=0, help="number of worked examples")
    p.set_defaults(func=cmd_prompt)

    p = sub.add_parser("ppo-demo", help="train the toy policy and report per-iteration stats")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=300)
    p.add_argument("--tasks", type=int, default=16, help="training problems")
    p.add_argument("--heldout", type=int, default=32, help="held-out problems")
    p.add_argument("--config", help="JSON config file (default: $FLSOLVE_CONFIG)")
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--save-policy", help="write trained weights to this .npz path")
    p.set_defaults(func=cmd_ppo_demo)

    p = sub.add_parser("eval", help="accuracy and syntax-error rates over a dataset")
    p.add_argument("--dataset", required=True, help="dataset file (.jsonl)")
    p.add_argument(
        "--generator",
        default="gold-replay",
        help="gold-replay, empty, or scripted:PATH",
    )
    p.add_argument("--chunk-size", type=int, default=0, help="0 feeds whole text at once")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
