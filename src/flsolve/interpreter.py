"""Deterministic evaluator for parsed programs.

A [find] binds its comment's declared value (or the UNKNOWN sentinel), the
computing operators work on exact rationals, and [return] yields the answer.
Evaluation never mutates shared state: environments are immutable snapshots,
so evaluation of distinct programs can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .program import (
    BASIC_SYMBOLS,
    Operator,
    Program,
    Statement,
    VarRef,
)
from .values import UNKNOWN, Unknown, format_number, is_terminating_decimal

Value = Union[Fraction, Unknown]

# Error kinds raised while evaluating statements. The session runtime layers
# its own kinds (parse-error, budget-exhausted, generator-stalled) on top.
EVAL_ERROR_KINDS = (
    "division-by-zero",
    "unknown-operand",
    "non-integer-operand",
    "return-of-unknown",
    "unbound-variable",
    "duplicate-binding",
    "missing-return",
    "annotation-mismatch",
)


class EvalError(Exception):
    def __init__(self, kind: str, message: str, statement_index: int | None = None):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.statement_index = statement_index

    def __str__(self) -> str:
        where = "" if self.statement_index is None else f" (statement {self.statement_index})"
        return f"{self.kind}: {self.message}{where}"


class Environment:
    """Immutable variable store; ``bind`` returns a new snapshot."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Iterable[tuple[str, Value]] = ()):
        self._bindings: dict[str, Value] = dict(bindings)

    def bind(self, name: str, value: Value) -> "Environment":
        if name in self._bindings:
            raise EvalError("duplicate-binding", f"variable '{name}' is already bound")
        env = Environment()
        env._bindings.update(self._bindings)
        env._bindings[name] = value
        return env

    def lookup(self, name: str) -> Value:
        try:
            return self._bindings[name]
        except KeyError:
            raise EvalError("unbound-variable", f"variable '{name}' is not bound") from None

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def items(self) -> Iterator[tuple[str, Value]]:
        return iter(self._bindings.items())

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._bindings.items())
        return f"Environment({inner})"


@dataclass(frozen=True)
class EvalOutcome:
    answer: Fraction | None
    env: Environment
    error: EvalError | None


@dataclass(frozen=True)
class AnnotationMismatch:
    statement_index: int
    declared: Fraction
    computed: Fraction


def resolve_operands(stmt: Statement, env: Environment) -> list[Fraction]:
    """Argument values of an arithmetic statement, with UNKNOWN rejected."""
    operands: list[Fraction] = []
    for arg in stmt.args:
        value = env.lookup(arg.name) if isinstance(arg, VarRef) else arg
        if value is UNKNOWN:
            raise EvalError(
                "unknown-operand",
                f"cannot compute with '{arg.name}': its value is unknown",
            )
        operands.append(value)
    return operands


def _require_integers(op: Operator, operands: list[Fraction]) -> list[int]:
    for v in operands:
        if v.denominator != 1:
            raise EvalError(
                "non-integer-operand",
                f"[{op.value}] requires integers, got {format_number(v)}",
            )
    return [int(v) for v in operands]


def _round_half_away(x: Fraction) -> Fraction:
    if x < 0:
        return -_round_half_away(-x)
    return Fraction(math.floor(x + Fraction(1, 2)))


def apply_operator(op: Operator, operands: list[Fraction]) -> Fraction:
    """Exact arithmetic kernel for the nine computing operators."""
    if op is Operator.ADD:
        return operands[0] + operands[1]
    if op is Operator.SUBTRACT:
        return operands[0] - operands[1]
    if op is Operator.MULTIPLY:
        return operands[0] * operands[1]
    if op is Operator.DIVIDE:
        if operands[1] == 0:
            raise EvalError("division-by-zero", "division by zero")
        return operands[0] / operands[1]
    if op is Operator.MOD:
        a, b = _require_integers(op, operands)
        if b == 0:
            raise EvalError("division-by-zero", "modulo by zero")
        return Fraction(a % b)
    if op is Operator.LCM:
        a, b = _require_integers(op, operands)
        return Fraction(math.lcm(a, b))
    if op is Operator.GCD:
        a, b = _require_integers(op, operands)
        return Fraction(math.gcd(a, b))
    if op is Operator.ROUND:
        return _round_half_away(operands[0])
    if op is Operator.FLOOR:
        return Fraction(math.floor(operands[0]))
    raise EvalError("unknown-operand", f"[{op.value}] is not a computing operator")


def evaluate_statement(stmt: Statement, env: Environment) -> tuple[Value, Environment]:
    """Evaluate one statement against ``env``; returns (value, new env).

    Arithmetic never consults the statement's comment; the solver is the
    source of numeric truth for computed values.
    """
    if stmt.is_find:
        ann = stmt.annotation
        value: Value = UNKNOWN
        if ann is not None and ann.declared_value is not None:
            value = ann.declared_value
        return value, env.bind(stmt.target, value)
    if stmt.is_return:
        ref = stmt.args[0]
        value = env.lookup(ref.name)
        if value is UNKNOWN:
            raise EvalError(
                "return-of-unknown", f"cannot return '{ref.name}': its value is unknown"
            )
        return value, env
    operands = resolve_operands(stmt, env)
    result = apply_operator(stmt.op, operands)
    return result, env.bind(stmt.target, result)


def evaluate(program: Program, *, strict_annotations: bool = False) -> EvalOutcome:
    """Run a program start to finish.

    Exactly one of ``answer``/``error`` is set in the outcome. With
    ``strict_annotations``, a computed value that contradicts its comment is
    an error instead of being silently ignored.
    """
    env = Environment()
    for index, stmt in enumerate(program.statements):
        try:
            value, env = evaluate_statement(stmt, env)
            if strict_annotations and not stmt.is_find:
                ann = stmt.annotation
                if ann is not None and ann.declared_value is not None and ann.declared_value != value:
                    raise EvalError(
                        "annotation-mismatch",
                        f"comment declares {format_number(ann.declared_value)}, "
                        f"computed {format_number(value)}",
                    )
        except EvalError as err:
            if err.statement_index is None:
                err.statement_index = index
            return EvalOutcome(None, env, err)
        if stmt.is_return:
            return EvalOutcome(value, env, None)
    return EvalOutcome(
        None, env, EvalError("missing-return", "program ended without a [return] statement")
    )


def verify_annotations(program: Program) -> list[AnnotationMismatch]:
    """Compare computed values against declared comments, in order.

    [find] comments are the values' source and have nothing to verify;
    arithmetic and [return] comments are checked. Evaluation errors
    propagate with the statement index reached.
    """
    mismatches: list[AnnotationMismatch] = []
    env = Environment()
    for index, stmt in enumerate(program.statements):
        try:
            value, env = evaluate_statement(stmt, env)
        except EvalError as err:
            if err.statement_index is None:
                err.statement_index = index
            raise
        if stmt.is_find:
            continue
        ann = stmt.annotation
        if ann is not None and ann.declared_value is not None and ann.declared_value != value:
            mismatches.append(AnnotationMismatch(index, ann.declared_value, value))
    return mismatches


def _operand_text(value: Fraction) -> str:
    text = format_number(value)
    return f"({text})" if value < 0 else text


def annotation_text(stmt: Statement, operands: list[Fraction], result: Fraction) -> str:
    """Comment body for a computed statement, without the leading ``#``."""
    symbol = BASIC_SYMBOLS.get(stmt.op)
    if symbol is not None:
        a, b = operands
        return f"{_operand_text(a)} {symbol} {_operand_text(b)} = {format_number(result)}"
    joined = ", ".join(_operand_text(v) for v in operands)
    return f"{stmt.op.value}({joined}) = {format_number(result)}"


def answers_match(candidate: Fraction | None, gold: Fraction, rel_tol: Fraction = Fraction(1, 10**6)) -> bool:
    """Answer comparison rule.

    Exact when the gold value is a terminating decimal (anything written in
    ordinary decimal notation); otherwise within ``rel_tol`` relative error.
    """
    if candidate is None:
        return False
    if candidate == gold:
        return True
    if is_terminating_decimal(gold):
        return False
    return abs(candidate - gold) <= rel_tol * abs(gold)
