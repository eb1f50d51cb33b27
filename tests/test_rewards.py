"""Reward components: golden values, perturbations, clamps, monotonicity."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flsolve import (
    BASIC_OPERATORS,
    CommentAnnotation,
    DEFAULT_REWARD_CONFIG,
    Environment,
    EvalOutcome,
    Operator,
    ProblemRecord,
    Program,
    RewardBreakdown,
    RewardConfig,
    Statement,
    VarRef,
    bundled_examples,
    parse_program,
    reward_r1,
    reward_r2,
    reward_r3,
    reward_r4,
    render_program,
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


class TestComponentRules:
    def test_r1_is_the_compile_gate(self):
        assert reward_r1(parsed("var1 = [find](a) # 2\n[return](var1)")) == 1
        assert reward_r1(parsed("var1 = [find](a) # 2")) == 0
        assert parsed("nonsense") is None
        assert reward_r1(None) == 0

    def test_r1_scales_with_r_max(self):
        cfg = RewardConfig(r_max=Fraction(3))
        assert reward_r1(parsed("var1 = [find](a) # 2\n[return](var1)"), cfg) == 3

    def test_r2_requires_gold_finds(self):
        gen = parse_program("var1 = [find](a) # 1\n[return](var1)")
        gold_without_finds = Program((Statement(Operator.RETURN, (VarRef("var1"),)),))
        with pytest.raises(ValueError):
            reward_r2(gen, gold_without_finds)

    def test_r2_unclamped_is_monotone_in_count_distance(self):
        cfg = RewardConfig(clamp_components=False)

        def with_finds(k: int) -> Program:
            lines = [f"var{i} = [find](q{i}) # {i}" for i in range(1, k + 1)]
            lines.append("[return](var1)")
            program = parse_program("\n".join(lines))
            assert isinstance(program, Program)
            return program

        gold = with_finds(4)
        scores = {k: reward_r2(with_finds(k), gold, cfg) for k in range(1, 13)}
        scores[0] = reward_r2(None, gold, cfg)
        assert scores[4] == 1
        for k in sorted(scores):
            if k == 4:
                continue
            closer = k + 1 if k < 4 else k - 1
            assert scores[k] < scores[closer]

    def test_r2_equidistant_counts_score_equal(self):
        cfg = RewardConfig(clamp_components=False)
        gold = parse_program(
            "\n".join([f"var{i} = [find](q{i}) # 1" for i in range(1, 5)] + ["[return](var1)"])
        )
        low = parse_program("var1 = [find](a) # 1\n[return](var1)")
        high = parse_program(
            "\n".join([f"var{i} = [find](q{i}) # 1" for i in range(1, 8)] + ["[return](var1)"])
        )
        assert reward_r2(low, gold, cfg) == reward_r2(high, gold, cfg) == Fraction(1, 4)

    def test_r2_clamp_floor(self):
        gold = parse_program(
            "var1 = [find](a) # 1\n[return](var1)"
        )
        crowded = parse_program(
            "\n".join([f"var{i} = [find](q{i}) # 1" for i in range(1, 9)] + ["[return](var1)"])
        )
        assert reward_r2(crowded, gold) == -1
        assert reward_r2(crowded, gold, RewardConfig(clamp_components=False)) == -6
        assert reward_r2(crowded, gold, RewardConfig(clamp_floor=Fraction(-2))) == -2

    def test_r3_unique_maximum_at_gold_multiset(self):
        def ops_program(counts: dict) -> Program:
            statements = []
            for op, n in counts.items():
                statements.extend(
                    Statement(op, (VarRef("a"), VarRef("b")), target=f"v{len(statements)}")
                    for _ in range(n)
                )
            return Program(tuple(statements))

        gold_counts = {Operator.SUBTRACT: 2}
        gold = ops_program(gold_counts)
        best = reward_r3(ops_program(gold_counts), gold)
        assert best == 2
        seen_best = 0
        for a in range(3):
            for s in range(4):
                for m in range(3):
                    for d in range(3):
                        counts = {
                            Operator.ADD: a,
                            Operator.SUBTRACT: s,
                            Operator.MULTIPLY: m,
                            Operator.DIVIDE: d,
                        }
                        score = reward_r3(ops_program(counts), gold)
                        if score == best:
                            seen_best += 1
                            assert (a, s, m, d) == (0, 2, 0, 0)
                        else:
                            assert score < best
        assert seen_best == 1

    def test_r3_matched_missing_extra_arithmetic(self):
        def ops_program(*ops: Operator) -> Program:
            return Program(
                tuple(
                    Statement(op, (VarRef("a"), VarRef("b")), target=f"v{i}")
                    for i, op in enumerate(ops)
                )
            )

        gold = ops_program(Operator.ADD, Operator.MULTIPLY)
        # one matched (+1), one missing (-1), one extra (-1/2)
        gen = ops_program(Operator.ADD, Operator.DIVIDE)
        assert reward_r3(gen, gold) == Fraction(-1, 2)

    def test_r3_clamp_at_gold_count(self):
        def ops_program(*ops: Operator) -> Program:
            return Program(
                tuple(
                    Statement(op, (VarRef("a"), VarRef("b")), target=f"v{i}")
                    for i, op in enumerate(ops)
                )
            )

        gold = ops_program(Operator.ADD, Operator.SUBTRACT)
        flood = ops_program(*([Operator.DIVIDE] * 10))
        assert reward_r3(flood, gold) == -2
        assert reward_r3(flood, gold, RewardConfig(clamp_components=False)) == Fraction(-7)

    def test_r4_scoring(self):
        env = Environment()
        gold = Fraction(40)
        assert reward_r4(EvalOutcome(Fraction(40), env, None), gold) == 1
        assert reward_r4(EvalOutcome(Fraction(30), env, None), gold) == Fraction(3, 4)
        assert reward_r4(EvalOutcome(Fraction(50), env, None), gold) == Fraction(3, 4)
        assert reward_r4(None, gold) == 0
        assert reward_r4(EvalOutcome(None, env, None), gold) == 0

    def test_r4_negative_gold_uses_absolute_distance(self):
        env = Environment()
        assert reward_r4(EvalOutcome(Fraction(-3), env, None), Fraction(-4)) == Fraction(3, 4)

    def test_r4_zero_gold(self):
        env = Environment()
        assert reward_r4(EvalOutcome(Fraction(0), env, None), Fraction(0)) == 1
        assert reward_r4(EvalOutcome(Fraction(5), env, None), Fraction(0)) == -1

    def test_r4_clamp(self):
        env = Environment()
        wild = EvalOutcome(Fraction(10**6), env, None)
        assert reward_r4(wild, Fraction(1)) == -1
        assert reward_r4(wild, Fraction(1), RewardConfig(clamp_components=False)) == 1 - Fraction(
            10**6 - 1, 1
        )

    def test_no_answer_beats_a_wild_answer(self):
        env = Environment()
        assert reward_r4(None, Fraction(10)) > reward_r4(
            EvalOutcome(Fraction(-1000), env, None), Fraction(10)
        )

    def test_r_max_validation(self):
        with pytest.raises(ValueError):
            RewardConfig(r_max=Fraction(0))


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


@st.composite
def gold_records(draw) -> ProblemRecord:
    answer = draw(SMALL)  # 0 often enough for the zero-gold rule
    # Never empty, so it declares at least one [find].
    source = render_program(draw(programs(kinds=st.lists(KIND, min_size=1, max_size=8))))
    return ProblemRecord("gold", "?", source, answer)


reward_configs = st.builds(
    RewardConfig,
    r_max=st.builds(Fraction, st.integers(1, 40), st.integers(1, 8)),
    clamp_components=st.booleans(),
    clamp_floor=st.one_of(st.none(), st.builds(Fraction, st.integers(-48, 8), st.integers(1, 8))),
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
        st.one_of(st.none(), programs(), programs(wild=True)), gold_records(), reward_configs
    )
    @example(None, ProblemRecord("g", "?", GOLD_SUM, Fraction(7)), DEFAULT_REWARD_CONFIG)
    @example(  # no return; extra and missing operators; zero gold answer
        parse_program("var1 = [find](a) # 3\nvar2 = [divide](var1, var1)\nvar3 = [divide](var2, 2)"),
        ProblemRecord("g", "?", GOLD_SUM, Fraction(0)),
        RewardConfig(r_max=Fraction(3, 2), clamp_components=False),
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
        # Count order reaches the JSON, so it must match too.
        for name in ("op_counts_gen", "op_counts_gold"):
            assert list(getattr(breakdown.diagnostics, name).items()) == list(
                getattr(expected.diagnostics, name).items()
            )
        assert json.dumps(breakdown.to_json()) == json.dumps(expected.to_json())
        gold_program = gold.parsed_gold()
        assert reward_r2(gen, gold_program, cfg) == breakdown.r2
        assert reward_r3(gen, gold_program, cfg) == breakdown.r3

    def test_cached_counts_are_not_shared_with_results(self):
        gold = ProblemRecord("g", "?", GOLD_SUM, Fraction(7))
        first = score_program(None, gold)
        first.diagnostics.op_counts_gold.clear()
        assert score_program(None, gold).diagnostics.op_counts_gold == {Operator.ADD: 1}
