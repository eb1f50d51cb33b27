"""Deterministic evaluator for parsed programs.

A [find] binds its comment's declared value (or the UNKNOWN sentinel), the
computing operators work on exact rationals, and [return] yields the answer.
Each evaluation steps every statement into one store of its own, in place.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .program import (
    BASIC_SYMBOLS,
    FIND,
    RETURN,
    Operator,
    Program,
    Statement,
    VarRef,
)
from .values import MAX_VALUE_BITS, UNKNOWN, Unknown, format_number, is_terminating_decimal

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
    "value-overflow",
)


class EvalError(Exception):
    """An evaluation failure as data: equal to another with the same kind,
    message and statement index."""

    def __init__(self, kind: str, message: str, statement_index: int | None = None):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.statement_index = statement_index

    def __str__(self) -> str:
        where = "" if self.statement_index is None else f" (statement {self.statement_index})"
        return f"{self.kind}: {self.message}{where}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvalError):
            return NotImplemented
        return (self.kind, self.message, self.statement_index) == (
            other.kind, other.message, other.statement_index
        )

    def __hash__(self) -> int:
        # statement_index is left out: the session sets it after raising.
        return hash((self.kind, self.message))

    def __reduce__(self):
        # BaseException's own reduce would call EvalError(message), without the kind.
        return type(self), (self.kind, self.message, self.statement_index)


class Environment:
    """Variable store that an evaluation binds into in place. Stores with the
    same bindings are equal."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Iterable[tuple[str, Value]] = ()):
        self._bindings: dict[str, Value] = dict(bindings)

    def _set(self, name: str, value: Value) -> None:
        """Bind in place; a duplicate or a value past the bound changes nothing."""
        if name in self._bindings:
            raise EvalError("duplicate-binding", f"variable '{name}' is already bound")
        if value is not UNKNOWN and (
            value.numerator.bit_length() > MAX_VALUE_BITS
            or value.denominator.bit_length() > MAX_VALUE_BITS
        ):
            _check_bound(value, f"variable '{name}'")  # raises; the name is formatted only here
        self._bindings[name] = value

    def lookup(self, name: str) -> Value:
        try:
            return self._bindings[name]
        except KeyError:
            pass
        # Raised outside the handler, so the error holds no KeyError context.
        raise EvalError("unbound-variable", f"variable '{name}' is not bound")

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def items(self) -> Iterator[tuple[str, Value]]:
        return iter(self._bindings.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Environment):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(frozenset(self._bindings.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._bindings.items())
        return f"Environment({inner})"


@dataclass(frozen=True)
class EvalOutcome:
    answer: Fraction | None
    env: Environment
    error: EvalError | None


def _check_bound(value: Fraction, what: str) -> Fraction:
    """``value``, or value-overflow past MAX_VALUE_BITS. Literal operands and
    bound values are checked, so no operation builds much past the bound."""
    num, den = value.numerator, value.denominator
    if num.bit_length() > MAX_VALUE_BITS or den.bit_length() > MAX_VALUE_BITS:
        raise EvalError("value-overflow", f"{what} is past the {MAX_VALUE_BITS}-bit value bound")
    return value


def _require_integers(name: str, *operands: Fraction) -> list[int]:
    for v in operands:
        if v.denominator != 1:
            raise EvalError(
                "non-integer-operand",
                f"[{name}] requires integers, got {format_number(v)}",
            )
    return [int(v) for v in operands]


def _round_half_away(x: Fraction) -> Fraction:
    if x < 0:
        return -_round_half_away(-x)
    return Fraction(math.floor(x + Fraction(1, 2)))


def _divide(a: Fraction, b: Fraction) -> Fraction:
    if b == 0:
        raise EvalError("division-by-zero", "division by zero")
    return a / b


def _mod(a: Fraction, b: Fraction) -> Fraction:
    a, b = _require_integers("mod", a, b)
    if b == 0:
        raise EvalError("division-by-zero", "modulo by zero")
    return Fraction(a % b)


# One kernel per computing operator, called with the operands in order.
_KERNELS = {
    Operator.ADD: operator.add,
    Operator.SUBTRACT: operator.sub,
    Operator.MULTIPLY: operator.mul,
    Operator.DIVIDE: _divide,
    Operator.MOD: _mod,
    Operator.LCM: lambda a, b: Fraction(math.lcm(*_require_integers("lcm", a, b))),
    Operator.GCD: lambda a, b: Fraction(math.gcd(*_require_integers("gcd", a, b))),
    Operator.ROUND: _round_half_away,
    Operator.FLOOR: lambda x: Fraction(math.floor(x)),
}


def apply_operator(op: Operator, operands: list[Fraction]) -> Fraction:
    """Exact arithmetic kernel for the nine computing operators."""
    kernel = _KERNELS.get(op)
    if kernel is None:
        raise EvalError("unknown-operand", f"[{op.value}] is not a computing operator")
    return kernel(*operands)


def _step(stmt: Statement, env: Environment) -> tuple[list[Fraction] | None, Value]:
    """Evaluate one statement into ``env`` in place: (operands, value), with
    operands None for [find] and [return]; a failing statement binds nothing.
    Arithmetic never consults the comment: the solver is the numeric truth."""
    op = stmt.op
    if op is FIND:
        ann = stmt.annotation
        value = UNKNOWN if ann is None or ann.declared_value is None else ann.declared_value
        env._set(stmt.target, value)
        return None, value
    if op is RETURN:
        ref = stmt.args[0]
        value = env.lookup(ref.name)
        if value is UNKNOWN:
            raise EvalError(
                "return-of-unknown", f"cannot return '{ref.name}': its value is unknown"
            )
        return None, value
    operands: list[Fraction] = []
    for arg in stmt.args:
        value = env.lookup(arg.name) if isinstance(arg, VarRef) else _check_bound(arg, "a literal")
        if value is UNKNOWN:
            raise EvalError(
                "unknown-operand", f"cannot compute with '{arg.name}': its value is unknown"
            )
        operands.append(value)
    result = apply_operator(op, operands)
    env._set(stmt.target, result)
    return operands, result


def evaluate(program: Program, *, strict_annotations: bool = False) -> EvalOutcome:
    """Run a program start to finish.

    Exactly one of ``answer``/``error`` is set in the outcome. With
    ``strict_annotations``, a computed value that contradicts its comment is
    an error instead of being silently ignored.
    """
    env = Environment()
    for index, stmt in enumerate(program.statements):
        try:
            value = _step(stmt, env)[1]
            if strict_annotations and not stmt.is_find:
                ann = stmt.annotation
                if ann is not None and ann.declared_value is not None and ann.declared_value != value:
                    _check_bound(ann.declared_value, "the comment's value")
                    raise EvalError(
                        "annotation-mismatch",
                        f"comment declares {format_number(ann.declared_value)}, "
                        f"computed {format_number(value)}",
                    )
        except EvalError as err:
            if err.statement_index is None:
                err.statement_index = index
            # Kept as data: its traceback would hold this call's frames alive.
            err.__traceback__ = None
            return EvalOutcome(None, env, err)
        if stmt.is_return:
            return EvalOutcome(value, env, None)
    return EvalOutcome(
        None, env, EvalError("missing-return", "program ended without a [return] statement")
    )


def _operand_text(value: Fraction, text: str | None = None) -> str:
    """``value`` as a comment operand, in parentheses when negative; ``text``
    is its ``format_number`` rendering when that is already made."""
    if text is None:
        text = format_number(value)
    return f"({text})" if value.numerator < 0 else text


def _annotation(op: Operator, operand_texts: list[str], result_text: str) -> str:
    """The one rendering rule for a computed comment, from rendered parts:
    each operand as ``_operand_text`` gives it and the result as
    ``format_number`` does."""
    symbol = BASIC_SYMBOLS.get(op)
    if symbol is not None:
        a, b = operand_texts
        return f"{a} {symbol} {b} = {result_text}"
    return f"{op.value}({', '.join(operand_texts)}) = {result_text}"


def annotation_text(stmt: Statement, operands: list[Fraction], result: Fraction) -> str:
    """Comment body for a computed statement, without the leading ``#``."""
    return _annotation(stmt.op, [_operand_text(v) for v in operands], format_number(result))


ANSWER_REL_TOL = Fraction(1, 10**6)


def answers_match(candidate: Fraction | None, gold: Fraction) -> bool:
    """Answer comparison rule.

    Exact when the gold value is a terminating decimal (anything written in
    ordinary decimal notation); otherwise within ``ANSWER_REL_TOL`` relative error.
    """
    if candidate is None:
        return False
    if candidate == gold:
        return True
    if is_terminating_decimal(gold):
        return False
    return abs(candidate - gold) <= ANSWER_REL_TOL * abs(gold)
