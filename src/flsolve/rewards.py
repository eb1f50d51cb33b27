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

``total_reward`` scores text and ``score_program`` an already parsed
program; the breakdown either returns carries r1-r4 and their total. A
session's own ``generated_source`` is scored through its transcript, so
``total_reward(t.generated_source, gold)`` equals
``score_program(t.program, gold)`` but builds no program and evaluates
nothing; file text and text derived from that source are parsed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .interpreter import EvalOutcome, evaluate
from .parser import parse_program
from .program import BASIC_OPERATORS, BASIC_SYMBOLS, ProblemRecord, Program, tally
from .runtime import SessionTranscript, _SessionSource
from .values import _brief_repr, format_number


@dataclass(frozen=True)
class RewardConfig:
    r_max: Fraction = Fraction(1)
    clamp_components: bool = True
    clamp_floor: Fraction | None = None  # None means -r_max
    # The floor in effect, set once from the fields above; not a setting.
    floor: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("r_max", "clamp_floor"):
            value = getattr(self, name)
            if value is None and name == "clamp_floor":
                continue
            if type(value) is bool or not isinstance(value, (int, Fraction)):
                raise ValueError(f"{name} must be an int or a Fraction, got {_brief_repr(value)}")
        if type(self.clamp_components) is not bool:
            raise ValueError(
                f"clamp_components must be a bool, got {_brief_repr(self.clamp_components)}"
            )
        if self.r_max <= 0:
            raise ValueError("r_max must be positive")
        floor = -self.r_max if self.clamp_floor is None else self.clamp_floor
        object.__setattr__(self, "floor", floor)


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


def _part(cfg: RewardConfig, num: int, den: int) -> Fraction:
    """``r_max * num / den`` as one Fraction."""
    r_max = cfg.r_max
    return Fraction(r_max.numerator * num, r_max.denominator * den)


def _r2(v_gen: int, v_gold: int, cfg: RewardConfig) -> Fraction:
    # r_max * (1 - |v_gen - v_gold| / v_gold)
    score = _part(cfg, v_gold - abs(v_gen - v_gold), v_gold)
    return max(score, cfg.floor) if cfg.clamp_components else score


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
    score = _part(cfg, 2 * (matched - missing) - extra, 2)
    if cfg.clamp_components:
        return max(score, _part(cfg, -sum(gold_counts.values()), 1))
    return score


def _r4(y_gen: Fraction | None, y_gold: Fraction, cfg: RewardConfig) -> Fraction:
    """Answer-closeness reward; a generation with no answer scores 0.

    "No answer" (parse failure or runtime error) is distinct from a wrong
    answer, which is scored by distance and can go negative down to the
    clamp floor.
    """
    if y_gen is None:
        return Fraction(0)
    if y_gold == 0:
        return cfg.r_max if y_gen == 0 else cfg.floor
    # r_max * (1 - |y_gen - y_gold| / |y_gold|) with y_gen = p/q, y_gold = r/s
    p, q = y_gen.numerator, y_gen.denominator
    r, s = y_gold.numerator, y_gold.denominator
    scale = q * abs(r)
    score = _part(cfg, scale - abs(p * s - r * q), scale)
    return max(score, cfg.floor) if cfg.clamp_components else score


def _sum(parts: tuple[Fraction, ...]) -> Fraction:
    """The sum of ``parts`` as one Fraction."""
    num, den = 0, 1
    for part in parts:
        part_den = part.denominator
        num = num * part_den + part.numerator * den
        den *= part_den
    return Fraction(num, den)


def total_reward(
    gen_source: str,
    gold: ProblemRecord,
    cfg: RewardConfig = DEFAULT_REWARD_CONFIG,
) -> RewardBreakdown:
    """Score a generated source against a gold record.

    The gold program must be valid; the generation may be arbitrary text.
    A session's own ``generated_source`` is scored through its transcript,
    as ``score_program(t.program, gold)``, without parsing it again; any
    other text, file text or text derived from that source, is parsed.
    """
    if type(gen_source) is _SessionSource:
        return _score_transcript(gen_source.transcript, gold, cfg)
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
    if gen is None:
        return _score(None, None, gold, cfg)
    return _score(tally(gen), evaluate(gen), gold, cfg)


def _score_transcript(
    transcript: SessionTranscript, gold: ProblemRecord, cfg: RewardConfig
) -> RewardBreakdown:
    """``score_program(transcript.program, gold, cfg)``, without building its
    annotated statements: tallied from the statements the session parsed,
    whose ops are the program's, with r4 read off the session's own outcome,
    whose answer is the program's.
    """
    if not transcript._compiles():
        return _score(None, None, gold, cfg)
    parsed = Program(tuple(stmt for _, stmt in transcript.entries))
    return _score(tally(parsed), transcript.outcome, gold, cfg)


def _score(
    counts: tuple[int, bool, dict] | None,
    outcome: EvalOutcome | None,
    gold: ProblemRecord,
    cfg: RewardConfig,
) -> RewardBreakdown:
    """The scoring body; ``counts`` is the generation's ``tally`` and
    ``outcome`` its evaluation, both None when it failed to parse."""
    v_gold, _, gold_counts = gold.gold_tally()
    if v_gold < 1:
        raise ValueError(f"gold program for '{gold.id}' declares no [find] variables")
    if counts is None:
        v_gen, compiled, gen_counts = 0, False, {}
    else:
        v_gen, compiled, gen_counts = counts

    r1 = cfg.r_max if compiled else Fraction(0)
    r2 = _r2(v_gen, v_gold, cfg)
    r3 = _r3(gen_counts, gold_counts, cfg)
    y_gen = None if outcome is None else outcome.answer
    r4 = _r4(y_gen, gold.gold_answer, cfg)

    diagnostics = RewardDiagnostics(
        compiled=compiled,
        v_gen=v_gen,
        v_gold=v_gold,
        op_counts_gen=gen_counts,
        op_counts_gold=dict(gold_counts),
        y_gen=y_gen,
    )
    return RewardBreakdown(r1, r2, r3, r4, _sum((r1, r2, r3, r4)), diagnostics)
