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

Components are exact rationals, always ``Fraction``, so golden tests
compare with ``==``. Each part and the total are worked out as integer
numerator/denominator pairs, clamps included, and made Fractions once. With
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

    # Each part is a pair (num, den) of ints over a positive den, built as
    # a Fraction only at the end: r_max * a / b is (rn * a, rd * b), and a
    # part below its floor (fn, fd) is clamped, where n / d < fn / fd iff
    # n * fd < fn * d.
    r_max, floor, clamp = cfg.r_max, cfg.floor, cfg.clamp_components
    rn, rd = r_max.numerator, r_max.denominator
    fn, fd = floor.numerator, floor.denominator
    n1, d1 = (rn, rd) if compiled else (0, 1)
    # r2 = r_max * (1 - |v_gen - v_gold| / v_gold)
    n2, d2 = rn * (v_gold - abs(v_gen - v_gold)), rd * v_gold
    if clamp and n2 * fd < fn * d2:
        n2, d2 = fn, fd
    # r3 = r_max * (matched - missing) - r_max * extra / 2, floored at
    # -r_max * G, G the gold four-operator count
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
    n3, d3 = rn * (2 * (matched - missing) - extra), 2 * rd
    if clamp:
        n3 = max(n3, -2 * rn * sum(gold_counts.values()))
    # r4 = r_max * (1 - |y_gen - y_gold| / |y_gold|), 0 with no answer (a
    # parse failure or runtime error), which is not a wrong answer: that is
    # scored by distance and can go down to the floor.
    y_gen = None if outcome is None else outcome.answer
    y_gold = gold.gold_answer
    if y_gen is None:
        n4, d4 = 0, 1
    elif y_gold == 0:
        n4, d4 = (rn, rd) if y_gen == 0 else (fn, fd)
    else:
        # y_gen = p/q, y_gold = r/s
        p, q = y_gen.numerator, y_gen.denominator
        r, s = y_gold.numerator, y_gold.denominator
        scale = q * abs(r)
        n4, d4 = rn * (scale - abs(p * s - r * q)), rd * scale
        if clamp and n4 * fd < fn * d4:
            n4, d4 = fn, fd
    total = Fraction(
        ((n1 * d2 + n2 * d1) * d3 + n3 * d1 * d2) * d4 + n4 * d1 * d2 * d3, d1 * d2 * d3 * d4
    )

    diagnostics = RewardDiagnostics(
        compiled=compiled,
        v_gen=v_gen,
        v_gold=v_gold,
        op_counts_gen=gen_counts,
        op_counts_gold=dict(gold_counts),
        y_gen=y_gen,
    )
    return RewardBreakdown(
        Fraction(n1, d1), Fraction(n2, d2), Fraction(n3, d3), Fraction(n4, d4), total, diagnostics
    )
