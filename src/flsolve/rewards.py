"""Scoring of generated programs against gold references.

The total reward is the sum of four components, each worth at most
``r_max`` (except the operator-multiset component, which scales with the
gold program's operator count):

* r1, compilation: full marks iff the generation parses, passes static
  checks, and declares an answer. Runtime behaviour is irrelevant.
* r2, declared-variable count: ``r_max * (1 - |v_gen - v_gold| / v_gold)``
  where v counts [find] statements. An unparseable generation counts 0.
* r3, operator multiset over {+, -, *, /}: ``+r_max`` per matched
  occurrence, ``-r_max`` per missing one, ``-r_max/2`` per extra one.
* r4, answer closeness: ``r_max * (1 - |y_gen - y_gold| / |y_gold|)``,
  0 when the generation produced no answer at all.

Components are exact rationals so golden tests compare with ``==``. With
clamping enabled (the default) r2 and r4 are floored at ``clamp_floor`` and
r3 at ``-r_max * G`` where G is the gold four-operator count; disabling
clamping reproduces the raw formulas.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .interpreter import EvalOutcome, evaluate
from .parser import parse_program, program_compiles
from .program import (
    BASIC_OPERATORS,
    BASIC_SYMBOLS,
    ProblemRecord,
    Program,
    basic_operation_counts,
    count_finds,
    has_return,
)
from .values import format_number


@dataclass(frozen=True)
class RewardConfig:
    r_max: Fraction = Fraction(1)
    clamp_components: bool = True
    clamp_floor: Fraction | None = None  # None means -r_max

    def __post_init__(self) -> None:
        if self.r_max <= 0:
            raise ValueError("r_max must be positive")

    @property
    def floor(self) -> Fraction:
        return -self.r_max if self.clamp_floor is None else self.clamp_floor


DEFAULT_REWARD_CONFIG = RewardConfig()


@dataclass(frozen=True)
class RewardDiagnostics:
    compiled: bool
    v_gen: int
    v_gold: int
    op_counts_gen: dict
    op_counts_gold: dict
    y_gen: Fraction | None

    def to_json(self) -> dict:
        def symbols(counts: dict) -> dict:
            return {BASIC_SYMBOLS[op]: n for op, n in counts.items() if n}

        return {
            "compiled": self.compiled,
            "v_gen": self.v_gen,
            "v_gold": self.v_gold,
            "op_counts_gen": symbols(self.op_counts_gen),
            "op_counts_gold": symbols(self.op_counts_gold),
            "y_gen": None if self.y_gen is None else format_number(self.y_gen),
        }


@dataclass(frozen=True)
class RewardBreakdown:
    r1: Fraction
    r2: Fraction
    r3: Fraction
    r4: Fraction
    total: Fraction
    diagnostics: RewardDiagnostics

    def to_json(self) -> dict:
        return {
            "r1": format_number(self.r1),
            "r2": format_number(self.r2),
            "r3": format_number(self.r3),
            "r4": format_number(self.r4),
            "total": format_number(self.total),
            "diagnostics": self.diagnostics.to_json(),
        }


def reward_r1(gen_source: str, cfg: RewardConfig = DEFAULT_REWARD_CONFIG) -> Fraction:
    """Compilation reward: r_max iff the source compiles, else 0."""
    return cfg.r_max if program_compiles(gen_source) else Fraction(0)


def _r2(v_gen: int, v_gold: int, cfg: RewardConfig) -> Fraction:
    if v_gold < 1:
        raise ValueError("gold program declares no [find] variables")
    score = cfg.r_max * (1 - Fraction(abs(v_gen - v_gold), v_gold))
    if cfg.clamp_components:
        score = max(score, cfg.floor)
    return score


def _r3(gen_counts: Counter, gold_counts: Counter, cfg: RewardConfig) -> Fraction:
    matched = sum(min(gen_counts[op], gold_counts[op]) for op in BASIC_OPERATORS)
    missing = sum(max(0, gold_counts[op] - gen_counts[op]) for op in BASIC_OPERATORS)
    extra = sum(max(0, gen_counts[op] - gold_counts[op]) for op in BASIC_OPERATORS)
    score = cfg.r_max * (matched - missing) - cfg.r_max * Fraction(extra, 2)
    if cfg.clamp_components:
        score = max(score, -cfg.r_max * sum(gold_counts.values()))
    return score


def reward_r2(
    gen: Program | None, gold: Program, cfg: RewardConfig = DEFAULT_REWARD_CONFIG
) -> Fraction:
    """Declared-variable count reward; ``gen=None`` means it failed to parse."""
    return _r2(0 if gen is None else count_finds(gen), count_finds(gold), cfg)


def reward_r3(
    gen: Program | None, gold: Program, cfg: RewardConfig = DEFAULT_REWARD_CONFIG
) -> Fraction:
    """Operator-multiset reward over the four basic operators."""
    gen_counts = Counter() if gen is None else basic_operation_counts(gen)
    return _r3(gen_counts, basic_operation_counts(gold), cfg)


def reward_r4(
    gen_outcome: EvalOutcome | None,
    y_gold: Fraction,
    cfg: RewardConfig = DEFAULT_REWARD_CONFIG,
) -> Fraction:
    """Answer-closeness reward; a generation with no answer scores 0.

    "No answer" (parse failure or runtime error) is distinct from a wrong
    answer, which is scored by distance and can go negative down to the
    clamp floor.
    """
    if gen_outcome is None or gen_outcome.answer is None:
        return Fraction(0)
    y_gen = gen_outcome.answer
    if y_gold == 0:
        return cfg.r_max if y_gen == 0 else cfg.floor
    score = cfg.r_max * (1 - abs(y_gen - y_gold) / abs(y_gold))
    if cfg.clamp_components:
        score = max(score, cfg.floor)
    return score


def total_reward(
    gen_source: str,
    gold: ProblemRecord,
    cfg: RewardConfig = DEFAULT_REWARD_CONFIG,
) -> RewardBreakdown:
    """Score a generated source against a gold record.

    The gold program must be valid; the generation may be arbitrary text.
    """
    parsed = parse_program(gen_source)
    return score_program(parsed if isinstance(parsed, Program) else None, gold, cfg)


def score_program(
    gen: Program | None,
    gold: ProblemRecord,
    cfg: RewardConfig = DEFAULT_REWARD_CONFIG,
) -> RewardBreakdown:
    """Score an already parsed generation; ``gen=None`` means it failed to parse.

    ``score_program(t.program, record)`` equals
    ``total_reward(t.generated_source, record)`` for a session transcript
    ``t``. A gold program that does not parse raises ValueError.
    """
    gold_program = gold.parsed_gold()
    compiled = gen is not None and has_return(gen)
    v_gen = 0 if gen is None else count_finds(gen)
    v_gold = count_finds(gold_program)
    gen_counts = Counter() if gen is None else basic_operation_counts(gen)
    gold_counts = basic_operation_counts(gold_program)

    r1 = cfg.r_max if compiled else Fraction(0)
    r2 = _r2(v_gen, v_gold, cfg)
    r3 = _r3(gen_counts, gold_counts, cfg)
    outcome = evaluate(gen) if gen is not None else None
    r4 = reward_r4(outcome, gold.gold_answer, cfg)

    diagnostics = RewardDiagnostics(
        compiled=compiled,
        v_gen=v_gen,
        v_gold=v_gold,
        op_counts_gen=dict(gen_counts),
        op_counts_gold=dict(gold_counts),
        y_gen=None if outcome is None else outcome.answer,
    )
    return RewardBreakdown(r1, r2, r3, r4, r1 + r2 + r3 + r4, diagnostics)
