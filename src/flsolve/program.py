"""Syntax types and statement counts for the pseudocode language.

Programs are straight-line, one statement per line::

    var1 = [find](figures on shelf) # 7
    var4 = [subtract](var1, var3) # 7 - 10 = -3
    [return](var6) # 11

A ``[find]`` declares a quantity whose value lives in its comment, the
bracketed arithmetic operators combine previously defined variables, and
``[return]`` names the answer. All types here are immutable and safe to
share across threads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union


class Operator(Enum):
    FIND = "find"
    ADD = "add"
    SUBTRACT = "subtract"
    MULTIPLY = "multiply"
    DIVIDE = "divide"
    LCM = "lcm"
    GCD = "gcd"
    ROUND = "round"
    FLOOR = "floor"
    MOD = "mod"
    RETURN = "return"

    # Members are singletons compared by identity: the C identity hash agrees
    # with equality and skips Enum.__hash__'s Python-level call.
    __hash__ = object.__hash__


# The members that functions compare against, bound once. On Python 3.10 and
# 3.11 EnumType defines a Python-level __getattr__, which makes every read of
# Operator.ADD several times slower than a module constant.
FIND = Operator.FIND
RETURN = Operator.RETURN
ADD = Operator.ADD
SUBTRACT = Operator.SUBTRACT
MULTIPLY = Operator.MULTIPLY
DIVIDE = Operator.DIVIDE

# find and return are structural; the other nine are computing operations.
ARITHMETIC_OPERATORS = frozenset(op for op in Operator if op not in (FIND, RETURN))

# The four operators whose results are annotated with infix symbols and whose
# multiset is compared by the reward scorer.
BASIC_OPERATORS = (MULTIPLY, DIVIDE, ADD, SUBTRACT)

BASIC_SYMBOLS = {ADD: "+", SUBTRACT: "-", MULTIPLY: "*", DIVIDE: "/"}

OPERATOR_ARITY = {
    Operator.FIND: 1,
    Operator.ADD: 2,
    Operator.SUBTRACT: 2,
    Operator.MULTIPLY: 2,
    Operator.DIVIDE: 2,
    Operator.LCM: 2,
    Operator.GCD: 2,
    Operator.ROUND: 1,
    Operator.FLOOR: 1,
    Operator.MOD: 2,
    Operator.RETURN: 1,
}

OPERATOR_BY_NAME = {op.value: op for op in Operator}


@dataclass(frozen=True, slots=True)
class VarRef:
    """Reference to a previously defined variable."""

    name: str


@dataclass(frozen=True, slots=True)
class CommentAnnotation:
    """Parsed view of a ``# ...`` comment.

    ``declared_value`` is the numeric value the comment claims, when one can
    be read out of it. ``unknown_flag`` is set only for the literal ``?``.
    """

    raw_text: str
    declared_value: Fraction | None = None
    unknown_flag: bool = False


# Arithmetic arguments are variable references or literals; a [find] takes a
# single free-text description.
Argument = Union[VarRef, Fraction, str]


@dataclass(frozen=True, slots=True)
class Statement:
    op: Operator
    args: tuple[Argument, ...]
    target: str | None = None
    annotation: CommentAnnotation | None = None

    @property
    def is_find(self) -> bool:
        return self.op is FIND

    @property
    def is_return(self) -> bool:
        return self.op is RETURN

    @property
    def is_arithmetic(self) -> bool:
        return self.op in ARITHMETIC_OPERATORS


@dataclass(frozen=True, slots=True)
class Program:
    statements: tuple[Statement, ...]


@dataclass(frozen=True)
class ProblemRecord:
    """One word problem with its reference program and answer."""

    id: str
    question: str
    gold_program: str
    gold_answer: Fraction

    def parsed_gold(self) -> Program:
        """The gold program, parsed on first use and cached on the record.

        Raises ValueError when it does not parse. The cache sits outside the
        dataclass fields, so equality, hashing and pickling ignore it, as they
        ignore every attribute whose name starts with an underscore.
        """
        parsed = self.__dict__.get(_GOLD_CACHE)
        if parsed is None:
            from .parser import parse_program

            parsed = self.__dict__[_GOLD_CACHE] = parse_program(self.gold_program)
        if not isinstance(parsed, Program):
            raise ValueError(f"gold program for '{self.id}' does not parse: {parsed[0]}")
        return parsed

    def gold_tally(self) -> tuple[int, bool, dict]:
        """``tally`` of the parsed gold, cached on the record beside it."""
        counts = self.__dict__.get(_GOLD_TALLY)
        if counts is None:
            counts = self.__dict__[_GOLD_TALLY] = tally(self.parsed_gold())
        return counts

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


_GOLD_CACHE = "_parsed_gold"
_GOLD_TALLY = "_gold_tally"


def tally(program: Program) -> tuple[int, bool, dict]:
    """[find] count, whether there is a [return], and basic-operator counts.

    One pass over the statements, in ints. The counts dict holds only the
    four basic operators that occur, in order of first occurrence.
    """
    finds = 0
    returns = False
    counts: dict = {}
    for statement in program.statements:
        op = statement.op
        if op is FIND:
            finds += 1
        elif op is RETURN:
            returns = True
        elif op in BASIC_SYMBOLS:
            counts[op] = counts.get(op, 0) + 1
    return finds, returns, counts


def operation_counts(program: Program) -> Counter:
    """Occurrences of each computing operator, excluding find and return."""
    return Counter(s.op for s in program.statements if s.is_arithmetic)
