"""Dataset loading, validation, and corpus statistics.

Datasets are line-delimited JSON, one record per line with fields
``id``, ``question``, ``program``, ``answer``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .interpreter import answers_match, evaluate
from .parser import parse_program
from .program import (
    ARITHMETIC_OPERATORS,
    BASIC_OPERATORS,
    Operator,
    ProblemRecord,
    Program,
    operation_counts,
)
from .values import _parse_literal, _text_int, format_number

# Column order for frequency tables: the basic four, then every other
# computing operator in declaration order.
STATS_ORDER = BASIC_OPERATORS + tuple(
    op for op in Operator if op in ARITHMETIC_OPERATORS and op not in BASIC_OPERATORS
)

FAILURE_REASONS = ("parse-error", "eval-error", "answer-mismatch", "no-find")


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


class _JsonNumber(str):
    """A bare JSON number, kept as the text the file wrote."""


def _record_from_json(obj: object, where: str) -> ProblemRecord:
    if not isinstance(obj, dict):
        raise DatasetError(f"{where}: record must be a JSON object")
    for key in ("id", "question", "program", "answer"):
        if key not in obj:
            raise DatasetError(f"{where}: missing field '{key}'")
    for key in ("id", "question", "program"):
        if type(obj[key]) is not str:
            raise DatasetError(f"{where}: field '{key}' must be a string")
    # A string or a bare number is read from its text, exactly and also past
    # CPython's digit limit, as write_dataset renders it. Exponent forms are
    # rejected: a short text can stand for 10**(10**9).
    text = obj["answer"]
    answer = _parse_literal(text, _text_int) if isinstance(text, str) else None
    if answer is None:
        raise DatasetError(f"{where}: field 'answer' is not a number: {text!r}")
    return ProblemRecord(obj["id"], obj["question"], obj["program"], answer)


def load_dataset(path: str | Path) -> DatasetFile:
    """Load a .jsonl dataset; malformed lines are hard errors with line numbers."""
    records: list[ProblemRecord] = []
    seen: set[str] = set()
    # A line ends at "\n" only, as a program line does.
    with open(path, encoding="utf-8", newline="\n") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise DatasetError(f"{path}: not UTF-8 text") from None
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{line_no}"
        try:
            obj = json.loads(line, parse_int=_JsonNumber, parse_float=_JsonNumber)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{where}: invalid JSON: {exc.msg}") from exc
        except RecursionError:
            raise DatasetError(f"{where}: invalid JSON: nested too deeply") from None
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
    if not any(s.is_find for s in parsed.statements):  # r2 divides by the gold [find] count
        return ValidationFailure(record.id, "no-find", "program declares no [find]"), Counter()
    return None, operation_counts(parsed)


def _fan_out(fn: Callable, jobs: Sequence, workers: int) -> list:
    """``[fn(job) for job in jobs]``, across ``workers`` processes when there
    are more than one of each; ``fn`` and the jobs must pickle."""
    if workers > 1 and len(jobs) > 1:
        import multiprocessing  # imported here: ~10 ms that a one-process run never needs

        with multiprocessing.Pool(workers) as pool:
            return pool.map(fn, jobs)
    return [fn(job) for job in jobs]


def validate_dataset(ds: DatasetFile, workers: int = 1) -> ValidationReport:
    """Check every record end to end: parse, evaluate, compare the answer,
    and require a [find] for scoring to count against.

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
