"""Reward components: golden values, perturbations, clamps, monotonicity."""

import copy
import json
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flsolve import (
    BASIC_OPERATORS,
    CommentAnnotation,
    DEFAULT_REWARD_CONFIG,
    Operator,
    ProblemRecord,
    Program,
    RewardBreakdown,
    RewardConfig,
    Statement,
    VarRef,
    bundled_examples,
    parse_program,
    score_program,
    total_reward,
)
from flsolve.values import format_number

import oracles

# Basic-operator counts and gold-vs-gold totals for the bundled corpus.
GOLD_OP_COUNT = {
    "action-figures": 2,
    "goal-count": 2,
    "wire-length": 2,
    "rope-skipping": 3,
    "road-repair": 2,
}


@pytest.fixture(scope="module")
def records():
    return {r.id: r for r in bundled_examples().records}


def gold_program(records, record_id) -> Program:
    program = parse_program(records[record_id].gold_program)
    assert isinstance(program, Program)
    return program


class TestGoldAgainstGold:
    def test_component_values(self, records):
        for record_id, g in GOLD_OP_COUNT.items():
            record = records[record_id]
            breakdown = total_reward(record.gold_program, record)
            assert breakdown.r1 == 1, record_id
            assert breakdown.r2 == 1, record_id
            assert breakdown.r3 == g, record_id
            assert breakdown.r4 == 1, record_id
            assert breakdown.total == 3 + g, record_id

    def test_components_are_exact_rationals(self, records):
        breakdown = total_reward(
            records["action-figures"].gold_program, records["action-figures"]
        )
        for value in (breakdown.r1, breakdown.r2, breakdown.r3, breakdown.r4, breakdown.total):
            assert isinstance(value, Fraction)

    def test_breakdown_json(self, records):
        record = records["action-figures"]
        payload = total_reward(record.gold_program, record).to_json()
        assert payload["r1"] == "1"
        assert payload["r3"] == "2"
        assert payload["total"] == "5"
        assert payload["diagnostics"]["compiled"] is True
        assert payload["diagnostics"]["op_counts_gold"] == {"-": 2}
        assert payload["diagnostics"]["y_gen"] == "11"


class TestPerturbations:
    def test_swapped_operator(self, records):
        record = records["action-figures"]
        tampered = record.gold_program.replace(
            "[subtract](var1, var3)", "[add](var1, var3)", 1
        )
        assert tampered != record.gold_program
        breakdown = total_reward(tampered, record)
        # 7 + 10 = 17, then 8 - 17 = -9 against a gold answer of 11.
        assert breakdown.r1 == 1
        assert breakdown.r2 == 1
        assert breakdown.r3 == Fraction(-1, 2)
        assert breakdown.r4 == Fraction(-9, 11)
        assert breakdown.total == Fraction(15, 22)
        assert breakdown.diagnostics.y_gen == -9

    def test_extra_find(self, records):
        record = records["action-figures"]
        tampered = record.gold_program.replace(
            "[return]", "var7 = [find](unused extra quantity) # 1\n[return]", 1
        )
        breakdown = total_reward(tampered, record)
        assert breakdown.r1 == 1
        assert breakdown.r2 == Fraction(3, 4)
        assert breakdown.r3 == 2
        assert breakdown.r4 == 1
        assert breakdown.total == Fraction(19, 4)
        assert breakdown.diagnostics.v_gen == 5

    def test_edited_find_value(self, records):
        record = records["road-repair"]
        tampered = record.gold_program.replace("# 250", "# 330", 1)
        assert tampered != record.gold_program
        breakdown = total_reward(tampered, record)
        # 570 - 330 = 240, 240 / 8 = 30 against a gold answer of 40.
        assert breakdown.diagnostics.y_gen == 30
        assert breakdown.r1 == 1
        assert breakdown.r2 == 1
        assert breakdown.r3 == 2
        assert breakdown.r4 == Fraction(3, 4)
        assert breakdown.total == Fraction(19, 4)

    def test_every_line_drop_scores_below_gold(self, records):
        for record_id, g in GOLD_OP_COUNT.items():
            record = records[record_id]
            gold_total = 3 + g
            lines = record.gold_program.splitlines()
            for drop in range(len(lines)):
                source = "\n".join(l for i, l in enumerate(lines) if i != drop)
                total = total_reward(source, record).total
                assert total < gold_total, (record_id, lines[drop])

    def test_every_operator_swap_scores_below_gold(self, records):
        basic_names = {op.value for op in BASIC_OPERATORS}
        for record_id, g in GOLD_OP_COUNT.items():
            record = records[record_id]
            gold_total = 3 + g
            lines = record.gold_program.splitlines()
            for i, line in enumerate(lines):
                current = next((n for n in basic_names if f"[{n}]" in line), None)
                if current is None:
                    continue
                for alternative in basic_names - {current}:
                    swapped = lines.copy()
                    swapped[i] = line.replace(f"[{current}]", f"[{alternative}]", 1)
                    total = total_reward("\n".join(swapped), record).total
                    assert total < gold_total, (record_id, swapped[i])

    def test_unparseable_generation_bottoms_out(self, records):
        for record_id, g in GOLD_OP_COUNT.items():
            record = records[record_id]
            breakdown = total_reward("this is not pseudocode", record)
            assert breakdown.r1 == 0
            assert breakdown.r2 == 0  # zero finds against v_gold finds
            assert breakdown.r3 == -g
            assert breakdown.r4 == 0
            assert breakdown.total == -g

    def test_missing_return_compiles_false_but_counts_score(self, records):
        record = records["action-figures"]
        lines = [l for l in record.gold_program.splitlines() if "[return]" not in l]
        breakdown = total_reward("\n".join(lines), record)
        assert breakdown.r1 == 0
        assert breakdown.r2 == 1
        assert breakdown.r3 == 2
        assert breakdown.r4 == 0  # evaluation has no answer to score
        assert breakdown.diagnostics.compiled is False


def parsed(source: str) -> Program | None:
    """``source`` parsed, or None where it fails to parse or check."""
    result = parse_program(source)
    return result if isinstance(result, Program) else None


def record_of(source: str, answer: Fraction = Fraction(1)) -> ProblemRecord:
    return ProblemRecord("g", "?", source, answer)


def finds_source(k: int) -> str:
    """``k`` [find] lines, then the return of the first."""
    lines = [f"var{i} = [find](q{i}) # {i}" for i in range(1, k + 1)]
    return "\n".join(lines + ["[return](var1)"])


def ops_source(*ops: Operator) -> str:
    """Two [find] lines, one line per operator in ``ops``, then the return."""
    lines = ["var1 = [find](a) # 2", "var2 = [find](b) # 1"]
    lines += [f"var{i} = [{op.value}](var1, var2)" for i, op in enumerate(ops, start=3)]
    return "\n".join(lines + [f"[return](var{len(lines)})"])


def ops_program(*ops: Operator) -> Program:
    return Program(
        tuple(Statement(op, (VarRef("a"), VarRef("b")), target=f"v{i}") for i, op in enumerate(ops))
    )


def answering(value) -> Program:
    """A program that declares ``value`` and returns it."""
    return parsed(f"var1 = [find](a) # {value}\n[return](var1)")


class TestComponentRules:
    """Each component's rule, read off ``score_program``'s breakdown."""

    def test_r1_is_the_compile_gate(self):
        gold = record_of(finds_source(1))
        assert score_program(parsed("var1 = [find](a) # 2\n[return](var1)"), gold).r1 == 1
        assert score_program(parsed("var1 = [find](a) # 2"), gold).r1 == 0
        assert parsed("nonsense") is None
        assert score_program(None, gold).r1 == 0

    def test_r1_scales_with_r_max(self):
        cfg = RewardConfig(r_max=Fraction(3))
        gen = parsed("var1 = [find](a) # 2\n[return](var1)")
        assert score_program(gen, record_of(finds_source(1)), cfg).r1 == 3

    def test_r2_requires_gold_finds(self):
        gen = parse_program("var1 = [find](a) # 1\n[return](var1)")
        gold_without_finds = record_of("var1 = [add](1, 2)\n[return](var1)", Fraction(3))
        with pytest.raises(ValueError, match=r"^gold program for 'g' declares no \[find\] variables$"):
            score_program(gen, gold_without_finds)

    def test_r2_unclamped_is_monotone_in_count_distance(self):
        cfg = RewardConfig(clamp_components=False)
        gold = record_of(finds_source(4))
        scores = {k: score_program(parsed(finds_source(k)), gold, cfg).r2 for k in range(1, 13)}
        scores[0] = score_program(None, gold, cfg).r2
        assert scores[4] == 1
        for k in sorted(scores):
            if k == 4:
                continue
            closer = k + 1 if k < 4 else k - 1
            assert scores[k] < scores[closer]

    def test_r2_equidistant_counts_score_equal(self):
        cfg = RewardConfig(clamp_components=False)
        gold = record_of(finds_source(4))
        low = score_program(parsed(finds_source(1)), gold, cfg).r2
        high = score_program(parsed(finds_source(7)), gold, cfg).r2
        assert low == high == Fraction(1, 4)

    def test_r2_clamp_floor(self):
        gold = record_of(finds_source(1))
        crowded = parsed(finds_source(8))
        assert score_program(crowded, gold).r2 == -1
        assert score_program(crowded, gold, RewardConfig(clamp_components=False)).r2 == -6
        assert score_program(crowded, gold, RewardConfig(clamp_floor=Fraction(-2))).r2 == -2

    def test_r3_unique_maximum_at_gold_multiset(self):
        gold = record_of(ops_source(Operator.SUBTRACT, Operator.SUBTRACT))
        best = score_program(ops_program(Operator.SUBTRACT, Operator.SUBTRACT), gold).r3
        assert best == 2
        seen_best = 0
        for a in range(3):
            for s in range(4):
                for m in range(3):
                    for d in range(3):
                        ops = (
                            [Operator.ADD] * a
                            + [Operator.SUBTRACT] * s
                            + [Operator.MULTIPLY] * m
                            + [Operator.DIVIDE] * d
                        )
                        score = score_program(ops_program(*ops), gold).r3
                        if score == best:
                            seen_best += 1
                            assert (a, s, m, d) == (0, 2, 0, 0)
                        else:
                            assert score < best
        assert seen_best == 1

    def test_r3_matched_missing_extra_arithmetic(self):
        gold = record_of(ops_source(Operator.ADD, Operator.MULTIPLY))
        # one matched (+1), one missing (-1), one extra (-1/2)
        gen = ops_program(Operator.ADD, Operator.DIVIDE)
        assert score_program(gen, gold).r3 == Fraction(-1, 2)

    def test_r3_clamp_at_gold_count(self):
        gold = record_of(ops_source(Operator.ADD, Operator.SUBTRACT))
        flood = ops_program(*([Operator.DIVIDE] * 10))
        assert score_program(flood, gold).r3 == -2
        assert score_program(flood, gold, RewardConfig(clamp_components=False)).r3 == -7

    def test_r4_scoring(self):
        gold = record_of(finds_source(1), Fraction(40))
        assert score_program(answering(40), gold).r4 == 1
        assert score_program(answering(30), gold).r4 == Fraction(3, 4)
        assert score_program(answering(50), gold).r4 == Fraction(3, 4)
        assert score_program(None, gold).r4 == 0
        # no [return], and a runtime error: neither has an answer
        assert score_program(parsed("var1 = [find](a) # 40"), gold).r4 == 0
        divide_by_zero = parsed("var1 = [find](a) # 40\nvar2 = [divide](var1, 0)\n[return](var2)")
        assert score_program(divide_by_zero, gold).r4 == 0

    def test_r4_negative_gold_uses_absolute_distance(self):
        gold = record_of(finds_source(1), Fraction(-4))
        assert score_program(answering(-3), gold).r4 == Fraction(3, 4)

    def test_r4_zero_gold(self):
        gold = record_of(finds_source(1), Fraction(0))
        assert score_program(answering(0), gold).r4 == 1
        assert score_program(answering(5), gold).r4 == -1

    def test_r4_clamp(self):
        gold = record_of(finds_source(1))
        wild = answering(10**6)
        assert score_program(wild, gold).r4 == -1
        unclamped = score_program(wild, gold, RewardConfig(clamp_components=False)).r4
        assert unclamped == 1 - Fraction(10**6 - 1, 1)

    def test_no_answer_beats_a_wild_answer(self):
        gold = record_of(finds_source(1), Fraction(10))
        assert score_program(None, gold).r4 > score_program(answering(-1000), gold).r4

    def test_r_max_validation(self):
        with pytest.raises(ValueError):
            RewardConfig(r_max=Fraction(0))


class TestRewardConfig:
    """``floor`` is derived once, when the config is made, and is not a setting."""

    @pytest.mark.parametrize(
        "cfg",
        [
            RewardConfig(),
            RewardConfig(r_max=Fraction(3, 2)),
            RewardConfig(r_max=Fraction(2), clamp_floor=Fraction(-1, 2)),
            RewardConfig(clamp_components=False, clamp_floor=Fraction(0)),
        ],
    )
    def test_floor_is_clamp_floor_or_minus_r_max(self, cfg):
        expected = -cfg.r_max if cfg.clamp_floor is None else cfg.clamp_floor
        assert cfg.floor == expected and type(cfg.floor) is Fraction
        assert cfg.floor is cfg.floor  # kept, not rebuilt per read
        assert replace(cfg, r_max=cfg.r_max * 4).floor == (
            -4 * cfg.r_max if cfg.clamp_floor is None else cfg.clamp_floor
        )

    @pytest.mark.parametrize("name", ["r_max", "clamp_floor"])
    @pytest.mark.parametrize("value", [0.5, 1.0, "1", True, False])
    def test_bounds_reject_non_rationals_by_name(self, name, value):
        # A float would otherwise fail in every total_reward, in exact arithmetic.
        message = rf"^{name} must be an int or a Fraction, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            RewardConfig(**{name: value})
        with pytest.raises(ValueError, match=message):
            replace(RewardConfig(), **{name: value})

    @pytest.mark.parametrize("value", ["no", "", 0, 1, None])
    def test_clamp_components_must_be_a_bool(self, value):
        # r2, r3 and r4 read the field as a truth value, so "no" would switch clamping on.
        message = rf"^clamp_components must be a bool, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            RewardConfig(clamp_components=value)
        with pytest.raises(ValueError, match=message):
            replace(RewardConfig(), clamp_components=value)

    def test_int_bounds_give_fraction_parts(self):
        # An int r_max or clamp_floor still gives Fraction parts: r1 is r_max,
        # and r4 for a zero gold answer is r_max or the floor.
        cfg = RewardConfig(r_max=2, clamp_floor=-3)
        gold = record_of(finds_source(1), Fraction(0))
        for gen, r4 in ((answering(0), 2), (answering(5), -3), (None, 0)):
            breakdown = score_program(gen, gold, cfg)
            assert breakdown.r4 == r4
            for name in ("r1", "r2", "r3", "r4", "total"):
                assert type(getattr(breakdown, name)) is Fraction, (gen, name)
        right = score_program(answering(0), gold, cfg)
        assert (right.r1, right.total) == (2, 6)
        assert right.to_json() == score_program(
            answering(0), gold, RewardConfig(Fraction(2), True, Fraction(-3))
        ).to_json()

    def test_bounds_take_ints_and_no_floor(self):
        cfg = RewardConfig(r_max=2, clamp_floor=-1)
        assert cfg.floor == -1
        assert RewardConfig(r_max=2).floor == -2
        assert RewardConfig(r_max=Fraction(2), clamp_floor=None).floor == -2
        gold = bundled_examples().records[0]
        assert total_reward(gold.gold_program, gold, cfg).total == total_reward(
            gold.gold_program, gold, RewardConfig(Fraction(2), True, Fraction(-1))
        ).total

    def test_equality_repr_hash_and_pickling_see_only_the_settings(self):
        cfg = RewardConfig(r_max=Fraction(2), clamp_floor=Fraction(-1, 2))
        assert repr(cfg) == (
            "RewardConfig(r_max=Fraction(2, 1), clamp_components=True, "
            "clamp_floor=Fraction(-1, 2))"
        )
        assert cfg == RewardConfig(Fraction(2), True, Fraction(-1, 2))
        assert cfg != RewardConfig(r_max=Fraction(2))
        assert hash(cfg) == hash((cfg.r_max, cfg.clamp_components, cfg.clamp_floor))
        assert [f.name for f in fields(cfg) if f.init] == ["r_max", "clamp_components", "clamp_floor"]
        for copied in (pickle.loads(pickle.dumps(cfg)), copy.copy(cfg), copy.deepcopy(cfg)):
            assert copied == cfg and hash(copied) == hash(cfg)
            assert copied.floor == cfg.floor == Fraction(-1, 2)
        with pytest.raises(FrozenInstanceError):
            cfg.floor = Fraction(0)
        with pytest.raises(TypeError):
            RewardConfig(floor=Fraction(0))


class TestTotalReward:
    def test_bad_gold_raises(self):
        from flsolve import ProblemRecord

        bad = ProblemRecord(
            id="broken", question="?", gold_program="var1 = [oops](a)", gold_answer=Fraction(1)
        )
        with pytest.raises(ValueError, match="broken"):
            total_reward("var1 = [find](a) # 1\n[return](var1)", bad)

    def test_total_is_component_sum(self, records):
        rng = random.Random(77)
        record = records["rope-skipping"]
        for _ in range(50):
            source, _ = oracles.random_program(rng)
            breakdown = total_reward(source, record)
            assert breakdown.total == (
                breakdown.r1 + breakdown.r2 + breakdown.r3 + breakdown.r4
            )


# Strategies are built once: building them inside a draw is what costs time.
SMALL = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
# The four scored operators, plus two that r3 must ignore.
ARITHMETIC = st.sampled_from(
    (Operator.ADD, Operator.SUBTRACT, Operator.MULTIPLY, Operator.DIVIDE, Operator.MOD, Operator.LCM)
)
KIND = st.sampled_from(["find", "find", "op"])
KINDS = st.lists(KIND, max_size=8)
INDEX = st.integers(0, 8)


@st.composite
def programs(draw, wild: bool = False, kinds=KINDS) -> Program:
    """Straight-line programs, shaped as the parser accepts them unless ``wild``.

    A wild program may use literals and variables before their definition.
    Values may still fail to divide, and a [find] may lack its value.
    """
    statements: list[Statement] = []
    defined = 0

    def ref():
        last = defined + 1 if wild else max(defined, 1)
        return VarRef(f"var{1 + draw(INDEX) % last}")

    for kind in draw(kinds):
        if kind == "find" or not (defined or wild):
            value = draw(SMALL)
            annotation = CommentAnnotation(format_number(value), value)
            if not draw(INDEX):
                annotation = None  # no declared value: an evaluation error
            statement = Statement(Operator.FIND, (f"q{defined + 1}",), f"var{defined + 1}", annotation)
        else:
            args = tuple(
                draw(SMALL) if wild and draw(st.booleans()) else ref() for _ in range(2)
            )
            statement = Statement(draw(ARITHMETIC), args, f"var{defined + 1}")
        statements.append(statement)
        defined += 1
    if (defined or wild) and draw(INDEX) % 4:
        statements.append(Statement(Operator.RETURN, (ref(),)))
    return Program(tuple(statements))


# Answers: small ones, 0 for the zero-gold rule, huge ones of either sign,
# and ones with no terminating decimal.
ANSWERS = st.one_of(
    SMALL,
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**64)),
    st.builds(Fraction, st.integers(-100, 100), st.sampled_from((3, 7, 9, 11, 13))),
)


def answer_program(value: Fraction) -> Program:
    """One [find] of ``value``, returned."""
    annotation = CommentAnnotation(format_number(value), value)
    find = Statement(Operator.FIND, ("q1",), "var1", annotation)
    return Program((find, Statement(Operator.RETURN, (VarRef("var1"),))))


@st.composite
def gold_records(draw) -> ProblemRecord:
    answer = draw(ANSWERS)
    # Never empty, so it declares at least one [find].
    program = draw(programs(kinds=st.lists(KIND, min_size=1, max_size=8)))
    source = oracles.render_program(program)
    return ProblemRecord("gold", "?", source, answer)


# Bounds as ints and Fractions, non-integer and 2**200-scale, with floors
# of either sign, above r_max too, so the clamps meet every sign and size.
HUGE = st.integers(2**199, 2**201)
reward_configs = st.builds(
    RewardConfig,
    r_max=st.one_of(
        st.builds(Fraction, st.integers(1, 40), st.integers(1, 8)),
        st.integers(1, 40),
        HUGE,
        st.builds(Fraction, HUGE, st.integers(2, 2**64)),
    ),
    clamp_components=st.booleans(),
    clamp_floor=st.one_of(
        st.none(),
        st.builds(Fraction, st.integers(-48, 8), st.integers(1, 8)),
        st.integers(-48, 48),
        st.builds(Fraction, st.integers(1, 2**70), st.integers(1, 7)),
        HUGE.map(lambda n: -n),
        # a hair above an integer, closer than a float can tell
        st.builds(lambda k, d: Fraction(k * d + 1, d), st.integers(-3, 1), HUGE),
    ),
)

GOLD_SUM = "var1 = [find](a) # 3\nvar2 = [find](b) # 4\nvar3 = [add](var1, var2)\n[return](var3)"


def scored(score, gen, gold, cfg):
    try:
        return score(gen, gold, cfg)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestScoreProgramAgainstReference:
    """The integer kernel against the Fraction/Counter scorer it replaced."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(st.none(), programs(), programs(wild=True), ANSWERS.map(answer_program)),
        gold_records(),
        reward_configs,
    )
    @example(None, ProblemRecord("g", "?", GOLD_SUM, Fraction(7)), DEFAULT_REWARD_CONFIG)
    @example(  # no return; extra and missing operators; zero gold answer
        parse_program("var1 = [find](a) # 3\nvar2 = [divide](var1, var1)\nvar3 = [divide](var2, 2)"),
        ProblemRecord("g", "?", GOLD_SUM, Fraction(0)),
        RewardConfig(r_max=Fraction(3, 2), clamp_components=False),
    )
    @example(  # r4 = -3/4: below the floor -1/2, not below its numerator -1
        answer_program(Fraction(11)),
        ProblemRecord("g", "?", GOLD_SUM, Fraction(4)),
        RewardConfig(clamp_floor=Fraction(-1, 2)),
    )
    @example(  # r4 = -1 - 2**-200, below the floor -1 by less than a float can tell
        answer_program(Fraction(-(2**200) - 1)),
        ProblemRecord("g", "?", GOLD_SUM, Fraction(2**200)),
        RewardConfig(r_max=1, clamp_floor=-1),
    )
    @example(  # r2 = -1, below the floor -1 + 2**-200 by less than a float can tell
        parse_program("var1 = [find](a) # 1\nvar2 = [find](b) # 2\nvar3 = [find](c) # 3\n[return](var3)"),
        ProblemRecord("g", "?", "var1 = [find](a) # 3\n[return](var1)", Fraction(3)),
        RewardConfig(r_max=1, clamp_floor=Fraction(1 - 2**200, 2**200)),
    )
    @example(  # a gold without [find]s raises in both
        parse_program(GOLD_SUM), ProblemRecord("g", "?", "var1 = [add](1, 2)\n[return](var1)", Fraction(3)), DEFAULT_REWARD_CONFIG
    )
    def test_equal_breakdowns(self, gen, gold, cfg):
        expected = scored(oracles.reference_score_program, gen, gold, cfg)
        for _ in range(2):  # the second call reads the cached gold counts
            breakdown = scored(score_program, gen, gold, cfg)
            assert breakdown == expected
        if not isinstance(breakdown, RewardBreakdown):
            return
        # `==` lets an int through where a part must be a Fraction.
        for name in ("r1", "r2", "r3", "r4", "total"):
            assert type(getattr(breakdown, name)) is Fraction, name
        # Count order reaches the JSON, so it must match too.
        for name in ("op_counts_gen", "op_counts_gold"):
            assert list(getattr(breakdown.diagnostics, name).items()) == list(
                getattr(expected.diagnostics, name).items()
            )
        assert json.dumps(breakdown.to_json()) == json.dumps(expected.to_json())

    def test_cached_counts_are_not_shared_with_results(self):
        gold = ProblemRecord("g", "?", GOLD_SUM, Fraction(7))
        first = score_program(None, gold)
        first.diagnostics.op_counts_gold.clear()
        assert score_program(None, gold).diagnostics.op_counts_gold == {Operator.ADD: 1}
