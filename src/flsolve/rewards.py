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

from dataclasses import dataclass
from fractions import Fraction

from .interpreter import EvalOutcome, evaluate
from .parser import parse_program
from .program import BASIC_OPERATORS, BASIC_SYMBOLS, Operator, ProblemRecord, Program
from .runtime import SessionTranscript
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


def reward_r1(gen: Program | None, cfg: RewardConfig = DEFAULT_REWARD_CONFIG) -> Fraction:
    """Compilation reward: r_max iff ``gen`` parsed and declares an answer.

    ``gen=None`` means it failed to parse or to pass the static checks.
    """
    return cfg.r_max if gen is not None and _tally(gen)[1] else Fraction(0)


def _tally(program: Program) -> tuple[int, bool, dict]:
    """[find] count, whether there is a [return], and basic-operator counts.

    One pass over the statements, in ints. The counts dict holds only the
    operators that occur, in order of first occurrence, as
    ``basic_operation_counts`` does.
    """
    finds = 0
    returns = False
    counts: dict = {}
    for statement in program.statements:
        op = statement.op
        if op is Operator.FIND:
            finds += 1
        elif op is Operator.RETURN:
            returns = True
        elif op in BASIC_SYMBOLS:
            counts[op] = counts.get(op, 0) + 1
    return finds, returns, counts


_GOLD_TALLY = "_gold_tally"


def _gold_tally(gold: ProblemRecord) -> tuple[int, bool, dict]:
    """``_tally`` of the parsed gold, cached on the record beside it.

    Like the parsed gold, the cache sits outside the dataclass fields, so
    equality, hashing and pickling ignore it.
    """
    tally = gold.__dict__.get(_GOLD_TALLY)
    if tally is None:
        tally = gold.__dict__[_GOLD_TALLY] = _tally(gold.parsed_gold())
    return tally


def _r2(v_gen: int, v_gold: int, cfg: RewardConfig) -> Fraction:
    if v_gold < 1:
        raise ValueError("gold program declares no [find] variables")
    # r_max * (1 - |v_gen - v_gold| / v_gold)
    score = cfg.r_max * Fraction(v_gold - abs(v_gen - v_gold), v_gold)
    if cfg.clamp_components:
        score = max(score, cfg.floor)
    return score


def _r3(gen_counts: dict, gold_counts: dict, cfg: RewardConfig) -> Fraction:
    matched = missing = extra = 0
    for op in BASIC_OPERATORS:
        gen_n = gen_counts.get(op, 0)
        gold_n = gold_counts.get(op, 0)
        if gen_n < gold_n:
            matched += gen_n
            missing += gold_n - gen_n
        else:
            matched += gold_n
            extra += gen_n - gold_n
    # r_max * (matched - missing) - r_max * extra / 2
    score = cfg.r_max * Fraction(2 * (matched - missing) - extra, 2)
    if cfg.clamp_components:
        score = max(score, -cfg.r_max * sum(gold_counts.values()))
    return score


def reward_r2(
    gen: Program | None, gold: Program, cfg: RewardConfig = DEFAULT_REWARD_CONFIG
) -> Fraction:
    """Declared-variable count reward; ``gen=None`` means it failed to parse."""
    return _r2(0 if gen is None else _tally(gen)[0], _tally(gold)[0], cfg)


def reward_r3(
    gen: Program | None, gold: Program, cfg: RewardConfig = DEFAULT_REWARD_CONFIG
) -> Fraction:
    """Operator-multiset reward over the four basic operators."""
    return _r3({} if gen is None else _tally(gen)[2], _tally(gold)[2], cfg)


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
    # r_max * (1 - |y_gen - y_gold| / |y_gold|) with y_gen = p/q, y_gold = r/s
    p, q = y_gen.numerator, y_gen.denominator
    r, s = y_gold.numerator, y_gold.denominator
    scale = q * abs(r)
    score = cfg.r_max * Fraction(scale - abs(p * s - r * q), scale)
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
    return _score(gen, None if gen is None else evaluate(gen), gold, cfg)


def _score_transcript(
    transcript: SessionTranscript, gold: ProblemRecord, cfg: RewardConfig
) -> RewardBreakdown:
    """``score_program(transcript.program, gold, cfg)``, with r4 read off the
    session's own outcome when the program holds the statements it ran.
    """
    gen, ran = transcript._program()
    if gen is None or not ran:
        return score_program(gen, gold, cfg)
    return _score(gen, transcript.outcome, gold, cfg)


def _score(
    gen: Program | None, outcome: EvalOutcome | None, gold: ProblemRecord, cfg: RewardConfig
) -> RewardBreakdown:
    """The scoring body; ``outcome`` is ``gen``'s evaluation."""
    v_gold, _, gold_counts = _gold_tally(gold)
    if gen is None:
        v_gen, compiled, gen_counts = 0, False, {}
    else:
        v_gen, compiled, gen_counts = _tally(gen)

    r1 = cfg.r_max if compiled else Fraction(0)
    r2 = _r2(v_gen, v_gold, cfg)
    r3 = _r3(gen_counts, gold_counts, cfg)
    r4 = reward_r4(outcome, gold.gold_answer, cfg)

    diagnostics = RewardDiagnostics(
        compiled=compiled,
        v_gen=v_gen,
        v_gold=v_gold,
        op_counts_gen=gen_counts,
        op_counts_gold=dict(gold_counts),
        y_gen=None if outcome is None else outcome.answer,
    )
    return RewardBreakdown(r1, r2, r3, r4, r1 + r2 + r3 + r4, diagnostics)
