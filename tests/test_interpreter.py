"""Evaluator semantics: exact arithmetic, error taxonomy, annotations."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flsolve import (
    AnnotationMismatch,
    Environment,
    EvalError,
    EVAL_ERROR_KINDS,
    Operator,
    Program,
    Statement,
    UNKNOWN,
    VarRef,
    annotation_text,
    answers_match,
    apply_operator,
    bundled_examples,
    evaluate,
    evaluate_statement,
    parse_program,
    verify_annotations,
)

import oracles

EXPECTED_ANSWERS = {
    "action-figures": Fraction(11),
    "goal-count": Fraction(54),
    "wire-length": Fraction(1285, 100),
    "rope-skipping": Fraction(120),
    "road-repair": Fraction(40),
}


def parsed(source: str) -> Program:
    program = parse_program(source)
    assert isinstance(program, Program)
    return program


class TestFixtureAnswers:
    def test_gold_programs_evaluate_to_stored_answers(self):
        records = {r.id: r for r in bundled_examples().records}
        assert set(records) == set(EXPECTED_ANSWERS)
        for record_id, expected in EXPECTED_ANSWERS.items():
            record = records[record_id]
            assert record.gold_answer == expected
            outcome = evaluate(parsed(record.gold_program))
            assert outcome.error is None, record_id
            assert outcome.answer == expected, record_id


class TestApplyOperator:
    @pytest.mark.parametrize(
        "op, operands, expected",
        [
            (Operator.ADD, [Fraction(3, 4), Fraction(5, 4)], Fraction(2)),
            (Operator.SUBTRACT, [Fraction(7), Fraction(10)], Fraction(-3)),
            (Operator.MULTIPLY, [Fraction(18), Fraction(2)], Fraction(36)),
            (Operator.DIVIDE, [Fraction(320), Fraction(8)], Fraction(40)),
            (Operator.DIVIDE, [Fraction(1), Fraction(3)], Fraction(1, 3)),
            (Operator.ROUND, [Fraction(5, 2)], Fraction(3)),
            (Operator.ROUND, [Fraction(-5, 2)], Fraction(-3)),
            (Operator.ROUND, [Fraction(1, 2)], Fraction(1)),
            (Operator.ROUND, [Fraction(-1, 2)], Fraction(-1)),
            (Operator.ROUND, [Fraction(1, 3)], Fraction(0)),
            (Operator.ROUND, [Fraction(2, 3)], Fraction(1)),
            (Operator.FLOOR, [Fraction(7, 2)], Fraction(3)),
            (Operator.FLOOR, [Fraction(-7, 2)], Fraction(-4)),
            (Operator.FLOOR, [Fraction(5)], Fraction(5)),
            (Operator.MOD, [Fraction(7), Fraction(3)], Fraction(1)),
            (Operator.MOD, [Fraction(-7), Fraction(3)], Fraction(2)),
            (Operator.MOD, [Fraction(7), Fraction(-3)], Fraction(-2)),
            (Operator.LCM, [Fraction(4), Fraction(6)], Fraction(12)),
            (Operator.LCM, [Fraction(0), Fraction(5)], Fraction(0)),
            (Operator.LCM, [Fraction(-4), Fraction(6)], Fraction(12)),
            (Operator.GCD, [Fraction(12), Fraction(18)], Fraction(6)),
            (Operator.GCD, [Fraction(0), Fraction(0)], Fraction(0)),
            (Operator.GCD, [Fraction(-12), Fraction(18)], Fraction(6)),
        ],
    )
    def test_operator_table(self, op, operands, expected):
        assert apply_operator(op, operands) == expected

    def test_division_stays_exact(self):
        third = apply_operator(Operator.DIVIDE, [Fraction(1), Fraction(3)])
        assert apply_operator(Operator.MULTIPLY, [third, Fraction(3)]) == 1

    def test_divide_by_zero(self):
        with pytest.raises(EvalError) as excinfo:
            apply_operator(Operator.DIVIDE, [Fraction(1), Fraction(0)])
        assert excinfo.value.kind == "division-by-zero"

    def test_mod_by_zero(self):
        with pytest.raises(EvalError) as excinfo:
            apply_operator(Operator.MOD, [Fraction(5), Fraction(0)])
        assert excinfo.value.kind == "division-by-zero"

    @pytest.mark.parametrize("op", [Operator.MOD, Operator.LCM, Operator.GCD])
    def test_integer_only_operators_reject_fractions(self, op):
        with pytest.raises(EvalError) as excinfo:
            apply_operator(op, [Fraction(7, 2), Fraction(3)])
        assert excinfo.value.kind == "non-integer-operand"

    @given(st.fractions())
    def test_round_matches_reference(self, x):
        expected = oracles.pair_apply("round", [(x.numerator, x.denominator)])
        assert apply_operator(Operator.ROUND, [x]) == Fraction(*expected[1])

    @given(st.fractions())
    def test_floor_matches_builtin(self, x):
        assert apply_operator(Operator.FLOOR, [x]) == math.floor(x)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_mod_matches_python_semantics(self, a, b):
        operands = [Fraction(a), Fraction(b)]
        if b == 0:
            with pytest.raises(EvalError):
                apply_operator(Operator.MOD, operands)
        else:
            assert apply_operator(Operator.MOD, operands) == a % b


class TestEvaluate:
    def test_find_without_value_binds_unknown(self):
        stmt = parsed("var1 = [find](mystery) # ?\n[return](var1)").statements[0]
        value, env = evaluate_statement(stmt, Environment())
        assert value is UNKNOWN
        assert env.lookup("var1") is UNKNOWN

    def test_arithmetic_on_unknown_operand(self):
        outcome = evaluate(
            parsed(
                "var1 = [find](a) # ?\n"
                "var2 = [find](b) # 3\n"
                "var3 = [add](var1, var2)\n"
                "[return](var3)"
            )
        )
        assert outcome.answer is None
        assert outcome.error.kind == "unknown-operand"
        assert outcome.error.statement_index == 2

    def test_return_of_unknown(self):
        outcome = evaluate(parsed("var1 = [find](a) # ?\n[return](var1)"))
        assert outcome.error.kind == "return-of-unknown"

    def test_missing_return(self):
        outcome = evaluate(parsed("var1 = [find](a) # 3"))
        assert outcome.answer is None
        assert outcome.error.kind == "missing-return"

    def test_unbound_variable_statement(self):
        stmt = Statement(Operator.RETURN, (VarRef("ghost"),))
        outcome = evaluate(Program((stmt,)))
        assert outcome.error.kind == "unbound-variable"

    def test_environments_are_snapshots(self):
        env = Environment()
        bound = env.bind("var1", Fraction(3))
        assert len(env) == 0
        assert len(bound) == 1
        assert "var1" not in env
        with pytest.raises(EvalError) as excinfo:
            bound.bind("var1", Fraction(4))
        assert excinfo.value.kind == "duplicate-binding"

    def test_all_error_kinds_catalogued(self):
        sources = {
            "division-by-zero": "var1 = [find](a) # 3\nvar2 = [find](b) # 0\nvar3 = [divide](var1, var2)\n[return](var3)",
            "unknown-operand": "var1 = [find](a) # ?\nvar2 = [floor](var1)\n[return](var2)",
            "non-integer-operand": "var1 = [find](a) # 3.5\nvar2 = [find](b) # 2\nvar3 = [mod](var1, var2)\n[return](var3)",
            "return-of-unknown": "var1 = [find](a) # ?\n[return](var1)",
            "missing-return": "var1 = [find](a) # 1",
        }
        for kind, source in sources.items():
            outcome = evaluate(parsed(source))
            assert outcome.error is not None, kind
            assert outcome.error.kind == kind
            assert kind in EVAL_ERROR_KINDS

    def test_comments_never_drive_arithmetic(self):
        # The declared -999 on the add is ignored; the solver recomputes.
        outcome = evaluate(
            parsed(
                "var1 = [find](a) # 2\n"
                "var2 = [find](b) # 3\n"
                "var3 = [add](var1, var2) # 1 + 1 = -999\n"
                "[return](var3)"
            )
        )
        assert outcome.error is None
        assert outcome.answer == 5


class TestAnnotations:
    def test_return_comment_mismatch_is_detected(self):
        record = {r.id: r for r in bundled_examples().records}["action-figures"]
        tampered = record.gold_program.replace("[return](var6) # 11", "[return](var6) # 12")
        assert tampered != record.gold_program
        program = parsed(tampered)

        mismatches = verify_annotations(program)
        assert mismatches == [
            AnnotationMismatch(
                statement_index=len(program.statements) - 1,
                declared=Fraction(12),
                computed=Fraction(11),
            )
        ]

        lenient = evaluate(program)
        assert lenient.answer == 11 and lenient.error is None
        strict = evaluate(program, strict_annotations=True)
        assert strict.error is not None
        assert strict.error.kind == "annotation-mismatch"

    def test_gold_programs_have_no_mismatches(self):
        for record in bundled_examples().records:
            assert verify_annotations(parsed(record.gold_program)) == []

    def test_find_comments_are_source_not_claims(self):
        # A find comment cannot mismatch: it IS the value.
        program = parsed("var1 = [find](a) # 41\n[return](var1) # 41")
        assert verify_annotations(program) == []

    def test_wrong_arithmetic_comment_reported(self):
        program = parsed(
            "var1 = [find](a) # 2\n"
            "var2 = [find](b) # 3\n"
            "var3 = [multiply](var1, var2) # 2 * 3 = 7\n"
            "[return](var3) # 6"
        )
        mismatches = verify_annotations(program)
        assert [(m.statement_index, m.declared, m.computed) for m in mismatches] == [
            (2, Fraction(7), Fraction(6))
        ]


class TestFormatAnnotation:
    """``annotation_text`` renders the comment body the session injects after ``# ``."""

    def test_basic_operator_infix(self):
        stmt = Statement(Operator.SUBTRACT, (VarRef("var1"), VarRef("var3")), target="var4")
        assert annotation_text(stmt, [Fraction(7), Fraction(10)], Fraction(-3)) == "7 - 10 = -3"

    def test_negative_operands_parenthesized(self):
        stmt = Statement(Operator.SUBTRACT, (VarRef("var5"), VarRef("var4")), target="var6")
        assert (
            annotation_text(stmt, [Fraction(8), Fraction(-3)], Fraction(11))
            == "8 - (-3) = 11"
        )

    def test_decimal_rendering(self):
        stmt = Statement(Operator.ADD, (VarRef("var2"), VarRef("var3")), target="var4")
        assert (
            annotation_text(stmt, [Fraction(3, 4), Fraction(5, 4)], Fraction(2))
            == "0.75 + 1.25 = 2"
        )

    def test_named_form_for_non_basic_operators(self):
        stmt = Statement(Operator.ROUND, (VarRef("var1"),), target="var2")
        assert annotation_text(stmt, [Fraction(5, 2)], Fraction(3)) == "round(2.5) = 3"
        stmt = Statement(Operator.MOD, (VarRef("var1"), VarRef("var2")), target="var3")
        assert (
            annotation_text(stmt, [Fraction(-7), Fraction(3)], Fraction(2))
            == "mod((-7), 3) = 2"
        )


class TestAnswersMatch:
    def test_none_never_matches(self):
        assert not answers_match(None, Fraction(5))

    def test_exact_match(self):
        assert answers_match(Fraction(1285, 100), Fraction(1285, 100))

    def test_terminating_gold_requires_exact(self):
        gold = Fraction(1285, 100)
        near = gold + Fraction(1, 10**9)
        assert not answers_match(near, gold)

    def test_non_terminating_gold_allows_relative_tolerance(self):
        gold = Fraction(1, 3)
        inside = gold * (1 + Fraction(1, 10**7))
        outside = gold * (1 + Fraction(2, 10**6))
        assert answers_match(inside, gold)
        assert not answers_match(outside, gold)

    def test_negative_gold_tolerance_is_symmetric(self):
        gold = Fraction(-22, 7)
        inside = gold * (1 - Fraction(1, 10**7))
        assert answers_match(inside, gold)
        assert not answers_match(-gold, gold)


def test_random_programs_match_pair_oracle():
    rng = random.Random(411)
    for _ in range(400):
        source, expected = oracles.random_program(rng)
        outcome = evaluate(parsed(source))
        assert outcome.error is None, source
        assert (outcome.answer.numerator, outcome.answer.denominator) == expected, source
