"""Corpus-level evaluation: accuracy, syntax errors, and per-problem detail.

Every problem gets a fresh generator session; records are independent, so
evaluation parallelizes across processes when asked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .data import DatasetFile, _fan_out, reasoning_step_count
from .interpreter import answers_match
from .parser import _lines, _split_line
from .program import ProblemRecord
from .rewards import DEFAULT_REWARD_CONFIG, RewardBreakdown, _score_transcript
from .runtime import GeneratorInterface, ScriptedGenerator, run_session
from .values import format_number

GENERATOR_KINDS = ("gold-replay", "scripted")


@dataclass(frozen=True)
class GeneratorSpec:
    """Picklable recipe for building one generator per problem.

    ``gold-replay`` feeds each record's own program with computed comments
    removed, so correctness measures the solver round trip. Its text ends in
    a newline, so a session reads its [return] line whole and ends without
    another pull, rendering no comment that nobody reads. ``scripted`` feeds
    the same fixed text to every problem, by default nothing.
    """

    kind: str
    text: str = ""
    chunk_size: int = 0

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind '{self.kind}'")

    def build(self, record: ProblemRecord) -> GeneratorInterface:
        if self.kind == "gold-replay":
            return ScriptedGenerator(_replay_text(record) + "\n", self.chunk_size)
        return ScriptedGenerator(self.text, self.chunk_size)


def _replay_text(record: ProblemRecord) -> str:
    """``strip_computed_comments(record.gold_program)``, read off the cached
    parse of the gold program instead of parsing each line again.

    Raises ValueError when the gold program does not parse.
    """
    statements = iter(record.parsed_gold().statements)
    out: list[str] = []
    for raw in _lines(record.gold_program):
        body, hash_mark, _ = _split_line(raw)
        if body.strip() and not next(statements).is_find and hash_mark:
            raw = body.rstrip()
        out.append(raw)
    return "\n".join(out)


@dataclass(frozen=True)
class ProblemResult:
    id: str
    correct: bool
    compiled: bool
    answer: Fraction | None
    error_kind: str | None
    steps: int
    reward: RewardBreakdown

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "correct": self.correct,
            "compiled": self.compiled,
            "answer": None if self.answer is None else format_number(self.answer),
            "error": self.error_kind,
            "steps": self.steps,
            "reward": self.reward.to_json(),
        }


@dataclass(frozen=True)
class EvalReport:
    """Aggregates over one corpus run; rates are percentages.

    ``error_rate_by_steps`` buckets problems by the reference program's
    statement count and reports (wrong answers, problems) per bucket. The
    JSON's ``error_kinds`` counts problems by session error kind; it is
    counted when the JSON is built, so ``evaluate_corpus`` does no extra work.
    """

    total: int
    correct: int
    accuracy: float
    syntax_error_rate: float
    error_rate_by_steps: dict
    per_problem: tuple[ProblemResult, ...]

    def to_json(self) -> dict:
        by_steps = {}
        for steps in sorted(self.error_rate_by_steps):
            errors, total = self.error_rate_by_steps[steps]
            by_steps[str(steps)] = {
                "errors": errors,
                "total": total,
                "rate": 100.0 * errors / total,
            }
        kinds = Counter(p.error_kind for p in self.per_problem if p.error_kind is not None)
        return {
            "total": self.total,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "syntax_error_rate": self.syntax_error_rate,
            "error_rate_by_steps": by_steps,
            "error_kinds": dict(sorted(kinds.items())),
            "per_problem": [p.to_json() for p in self.per_problem],
        }


def _evaluate_record(spec: GeneratorSpec, record: ProblemRecord) -> ProblemResult:
    transcript = run_session(spec.build(record), record.question)
    breakdown = _score_transcript(transcript, record, DEFAULT_REWARD_CONFIG)
    outcome = transcript.outcome
    return ProblemResult(
        id=record.id,
        correct=answers_match(outcome.answer, record.gold_answer),
        compiled=breakdown.diagnostics.compiled,
        answer=outcome.answer,
        error_kind=None if outcome.error is None else outcome.error.kind,
        steps=reasoning_step_count(record.parsed_gold()),
        reward=breakdown,
    )


def evaluate_corpus(ds: DatasetFile, spec: GeneratorSpec, *, workers: int = 1) -> EvalReport:
    """Run every record through a session, under the default instructions,
    budget and reward config, and aggregate the results.

    A problem counts as a syntax error when its generated source fails the
    compile gate, which includes producing no [return] or nothing at all.
    """
    results = _fan_out(partial(_evaluate_record, spec), ds.records, workers)

    total = len(results)
    correct = sum(1 for r in results if r.correct)
    syntax_errors = sum(1 for r in results if not r.compiled)
    by_steps: dict[int, tuple[int, int]] = {}
    for r in results:
        errors, seen = by_steps.get(r.steps, (0, 0))
        by_steps[r.steps] = (errors + (0 if r.correct else 1), seen + 1)
    return EvalReport(
        total=total,
        correct=correct,
        accuracy=100.0 * correct / total if total else 0.0,
        syntax_error_rate=100.0 * syntax_errors / total if total else 0.0,
        error_rate_by_steps=by_steps,
        per_problem=tuple(results),
    )
