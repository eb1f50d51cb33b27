"""Dataset loading, validation, and corpus statistics.

Datasets are line-delimited JSON, one record per line with fields
``id``, ``question``, ``program``, ``answer``.
"""

from __future__ import annotations

import json
import multiprocessing
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .interpreter import answers_match, evaluate
from .parser import parse_program
from .program import (
    Operator,
    ProblemRecord,
    Program,
    operation_counts,
)
from .values import format_number, parse_number

# Column order for frequency tables.
STATS_ORDER = (
    Operator.MULTIPLY,
    Operator.DIVIDE,
    Operator.ADD,
    Operator.SUBTRACT,
    Operator.LCM,
    Operator.GCD,
    Operator.ROUND,
    Operator.FLOOR,
    Operator.MOD,
)

FAILURE_REASONS = ("parse-error", "eval-error", "answer-mismatch")


class DatasetError(Exception):
    pass


@dataclass(frozen=True)
class DatasetFile:
    records: tuple[ProblemRecord, ...]
    source_path: str

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class ValidationFailure:
    record_id: str
    reason: str  # one of FAILURE_REASONS
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    total: int
    passed: int
    failed: int
    failures: tuple[ValidationFailure, ...]
    operator_frequency: dict

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "failures": [
                {"id": f.record_id, "reason": f.reason, "detail": f.detail}
                for f in self.failures
            ],
            "operator_frequency": ordered_stats(self.operator_frequency),
        }


def ordered_stats(counts: dict) -> dict:
    """Frequency table keyed by operator name in the fixed column order."""
    return {op.value: int(counts.get(op, 0)) for op in STATS_ORDER}


def _record_from_json(obj: object, where: str) -> ProblemRecord:
    if not isinstance(obj, dict):
        raise DatasetError(f"{where}: record must be a JSON object")
    for key in ("id", "question", "program", "answer"):
        if key not in obj:
            raise DatasetError(f"{where}: missing field '{key}'")
    for key in ("id", "question", "program"):
        if not isinstance(obj[key], str):
            raise DatasetError(f"{where}: field '{key}' must be a string")
    answer = parse_number(str(obj["answer"]))
    if answer is None:
        raise DatasetError(f"{where}: field 'answer' is not a number: {obj['answer']!r}")
    return ProblemRecord(obj["id"], obj["question"], obj["program"], answer)


def load_dataset(path: str | Path) -> DatasetFile:
    """Load a .jsonl dataset; malformed lines are hard errors with line numbers."""
    records: list[ProblemRecord] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{where}: invalid JSON: {exc.msg}") from exc
            record = _record_from_json(obj, where)
            if record.id in seen:
                raise DatasetError(f"{where}: duplicate record id '{record.id}'")
            seen.add(record.id)
            records.append(record)
    return DatasetFile(tuple(records), str(path))


def write_dataset(records: Iterable[ProblemRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            obj = {
                "id": record.id,
                "question": record.question,
                "program": record.gold_program,
                "answer": format_number(record.gold_answer),
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def _validate_record(record: ProblemRecord) -> tuple[ValidationFailure | None, Counter]:
    parsed = parse_program(record.gold_program)
    if not isinstance(parsed, Program):
        return ValidationFailure(record.id, "parse-error", str(parsed[0])), Counter()
    outcome = evaluate(parsed)
    if outcome.error is not None:
        return ValidationFailure(record.id, "eval-error", str(outcome.error)), Counter()
    if not answers_match(outcome.answer, record.gold_answer):
        detail = (
            f"program yields {format_number(outcome.answer)}, "
            f"record says {format_number(record.gold_answer)}"
        )
        return ValidationFailure(record.id, "answer-mismatch", detail), Counter()
    return None, operation_counts(parsed)


def _fan_out(fn: Callable, jobs: Sequence, workers: int) -> list:
    """``[fn(job) for job in jobs]``, across ``workers`` processes when there
    are more than one of each; ``fn`` and the jobs must pickle."""
    if workers > 1 and len(jobs) > 1:
        with multiprocessing.Pool(workers) as pool:
            return pool.map(fn, jobs)
    return [fn(job) for job in jobs]


def validate_dataset(ds: DatasetFile, workers: int = 1) -> ValidationReport:
    """Check every record end to end: parse, evaluate, compare the answer.

    Operator frequencies count only records that pass. Records are
    independent, so ``workers > 1`` fans them out across processes.
    """
    outcomes = _fan_out(_validate_record, ds.records, workers)
    failures: list[ValidationFailure] = []
    frequency: Counter = Counter()
    for failure, counts in outcomes:
        if failure is not None:
            failures.append(failure)
        else:
            frequency.update(counts)
    return ValidationReport(
        total=len(ds.records),
        passed=len(ds.records) - len(failures),
        failed=len(failures),
        failures=tuple(failures),
        operator_frequency=dict(frequency),
    )


def operator_stats(ds: DatasetFile) -> dict:
    """Operator frequencies over all gold programs; parse failures raise."""
    counts: Counter = Counter()
    for record in ds.records:
        parsed = parse_program(record.gold_program)
        if not isinstance(parsed, Program):
            raise DatasetError(f"record '{record.id}': gold program does not parse: {parsed[0]}")
        counts.update(operation_counts(parsed))
    return dict(counts)


def reasoning_step_count(program: Program) -> int:
    """Number of statements excluding [return]."""
    return sum(1 for stmt in program.statements if not stmt.is_return)


def shuffled(records: Sequence[ProblemRecord], seed: int) -> list[ProblemRecord]:
    """Seeded order shuffle; the input is left untouched."""
    out = list(records)
    random.Random(seed).shuffle(out)
    return out
