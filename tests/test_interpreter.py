"""Evaluator semantics: exact arithmetic, error taxonomy, annotations."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flsolve import (
    ARITHMETIC_OPERATORS,
    CommentAnnotation,
    MAX_VALUE_BITS,
    Environment,
    EvalError,
    EvalOutcome,
    EVAL_ERROR_KINDS,
    Operator,
    Program,
    ScriptedGenerator,
    SessionBudget,
    Statement,
    UNKNOWN,
    VarRef,
    annotation_text,
    answers_match,
    apply_operator,
    bundled_examples,
    evaluate,
    parse_line,
    format_number,
    parse_program,
    run_session,
)

from flsolve import interpreter, runtime

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

    def test_every_computing_operator_has_a_kernel(self):
        assert set(interpreter._KERNELS) == ARITHMETIC_OPERATORS

    @pytest.mark.parametrize("op", [Operator.FIND, Operator.RETURN], ids=["find", "return"])
    def test_find_and_return_are_not_computed(self, op):
        with pytest.raises(EvalError) as info:
            apply_operator(op, [Fraction(1)])
        assert (info.value.kind, info.value.message) == (
            "unknown-operand", f"[{op.value}] is not a computing operator"
        )


class TestEvaluate:
    def test_find_without_value_binds_unknown(self):
        stmt = parsed("var1 = [find](mystery) # ?\n[return](var1)").statements[0]
        env = Environment()
        assert interpreter._step(stmt, env) == (None, UNKNOWN)
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

    def test_duplicate_binding_leaves_the_store(self):
        env = Environment([("var1", Fraction(3))])
        with pytest.raises(EvalError) as excinfo:
            env._set("var1", Fraction(4))
        assert excinfo.value.kind == "duplicate-binding"
        assert env == Environment([("var1", Fraction(3))])

    def test_all_error_kinds_catalogued(self):
        sources = {
            "division-by-zero": "var1 = [find](a) # 3\nvar2 = [find](b) # 0\nvar3 = [divide](var1, var2)\n[return](var3)",
            "unknown-operand": "var1 = [find](a) # ?\nvar2 = [floor](var1)\n[return](var2)",
            "non-integer-operand": "var1 = [find](a) # 3.5\nvar2 = [find](b) # 2\nvar3 = [mod](var1, var2)\n[return](var3)",
            "return-of-unknown": "var1 = [find](a) # ?\n[return](var1)",
            "missing-return": "var1 = [find](a) # 1",
            "value-overflow": f"var1 = [find](a) # {2**5000}\n[return](var1)",
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


class TestEvalErrorRoundTrip:
    @pytest.mark.parametrize("index", [None, 0, 3])
    @pytest.mark.parametrize(
        "copier", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy]
    )
    def test_keeps_its_fields(self, copier, index):
        err = EvalError("division-by-zero", "division by zero", index)
        again = copier(err)
        assert type(again) is EvalError
        assert (again.kind, again.message, again.statement_index) == (
            "division-by-zero", "division by zero", index
        )
        assert str(again) == str(err)
        assert again == err and hash(again) == hash(err)

    def test_keeps_an_index_set_after_raising(self):
        with pytest.raises(EvalError) as excinfo:
            apply_operator(Operator.DIVIDE, [Fraction(1), Fraction(0)])
        err = excinfo.value
        before = hash(err)
        err.statement_index = 2
        assert hash(err) == before
        assert pickle.loads(pickle.dumps(err)) == err
        assert str(pickle.loads(pickle.dumps(err))) == str(err) == (
            "division-by-zero: division by zero (statement 2)"
        )


class TestValueEquality:
    """Solver results are equal when they are the same."""

    def test_outcomes_of_one_program_are_equal(self):
        for record in bundled_examples().records:
            program = parse_program(record.gold_program)
            first, second = evaluate(program), evaluate(program)
            assert first == second and hash(first) == hash(second)

    def test_environments_compare_their_bindings(self):
        env = Environment()
        env._set("a", Fraction(1))
        env._set("b", UNKNOWN)
        assert env == Environment([("b", UNKNOWN), ("a", Fraction(1))])
        assert hash(env) == hash(Environment([("b", UNKNOWN), ("a", Fraction(1))]))
        assert env != Environment([("a", Fraction(1))])
        assert env != Environment([("a", Fraction(2)), ("b", UNKNOWN)])
        assert env != dict(env.items())

    def test_errors_compare_kind_message_and_index(self):
        err = EvalError("division-by-zero", "division by zero", 1)
        assert err == EvalError("division-by-zero", "division by zero", 1)
        assert err != EvalError("division-by-zero", "division by zero", 2)
        assert err != EvalError("division-by-zero", "other", 1)
        assert err != EvalError("unknown-operand", "division by zero", 1)
        assert err != ValueError("division by zero")


class TestValueBound:
    """Every literal operand and every bound value has at most MAX_VALUE_BITS
    bits in numerator and denominator."""

    AT = 2**MAX_VALUE_BITS - 1
    PAST = 2**MAX_VALUE_BITS

    @pytest.mark.parametrize(
        "value",
        [Fraction(AT), Fraction(-AT), Fraction(1, AT), Fraction(-AT, AT - 1)],
    )
    def test_values_at_the_bound_bind(self, value):
        env = Environment()
        env._set("v", value)
        assert env.lookup("v") == value

    @pytest.mark.parametrize("value", [Fraction(PAST), Fraction(-PAST), Fraction(1, PAST)])
    def test_values_past_the_bound_do_not_bind(self, value):
        env = Environment()
        with pytest.raises(EvalError) as excinfo:
            env._set("v", value)
        assert excinfo.value.kind == "value-overflow"
        assert "'v'" in excinfo.value.message
        assert len(env) == 0

    def test_unknown_binds(self):
        env = Environment()
        env._set("v", UNKNOWN)
        assert env.lookup("v") is UNKNOWN

    def test_find_value_past_the_bound(self):
        outcome = evaluate(parsed(f"var1 = [find](a) # {self.PAST}\n[return](var1)"))
        assert (outcome.error.kind, outcome.error.statement_index) == ("value-overflow", 0)

    @pytest.mark.parametrize("literal", [str(PAST), f"1/{PAST}", f"-{PAST}"])
    def test_literal_operand_past_the_bound(self, literal):
        outcome = evaluate(
            parsed(f"var1 = [find](a) # 1\nvar2 = [multiply](var1, {literal})\n[return](var2)")
        )
        assert (outcome.error.kind, outcome.error.statement_index) == ("value-overflow", 1)
        assert "literal" in outcome.error.message

    def test_result_past_the_bound(self):
        outcome = evaluate(
            parsed(
                f"var1 = [find](a) # {self.AT}\n"
                "var2 = [multiply](var1, var1)\n"
                "[return](var2)"
            )
        )
        assert (outcome.error.kind, outcome.error.statement_index) == ("value-overflow", 1)

    def test_strict_comment_past_the_bound(self):
        # The mismatch message cannot render the declared value.
        source = f"var1 = [find](a) # 1\nvar2 = [add](var1, 1) # 1/{2**14000}\n[return](var2)"
        assert evaluate(parsed(source)).answer == 2
        error = evaluate(parsed(source), strict_annotations=True).error
        assert (error.kind, error.statement_index) == ("value-overflow", 1)

    def test_fourteen_squarings(self):
        # 10**(2**11) is the first square past the bound: var12, statement 11.
        lines = ["var1 = [find](side length) # 10"]
        lines += [f"var{i} = [multiply](var{i - 1}, var{i - 1})" for i in range(2, 16)]
        outcome = evaluate(parsed("\n".join(lines + ["[return](var15)"])))
        assert (outcome.error.kind, outcome.error.statement_index) == ("value-overflow", 11)


class TestAnnotations:
    """``evaluate(..., strict_annotations=True)`` is the annotation check."""

    @staticmethod
    def mismatch(program: Program) -> tuple[int, str] | None:
        """The first mismatch's statement index and message, None without one."""
        error = evaluate(program, strict_annotations=True).error
        if error is None:
            return None
        assert error.kind == "annotation-mismatch"
        return error.statement_index, error.message

    def test_return_comment_mismatch_is_detected(self):
        record = {r.id: r for r in bundled_examples().records}["action-figures"]
        tampered = record.gold_program.replace("[return](var6) # 11", "[return](var6) # 12")
        assert tampered != record.gold_program
        program = parsed(tampered)

        assert self.mismatch(program) == (
            len(program.statements) - 1,
            "comment declares 12, computed 11",
        )
        lenient = evaluate(program)
        assert lenient.answer == 11 and lenient.error is None

    def test_gold_programs_have_no_mismatches(self):
        for record in bundled_examples().records:
            strict = evaluate(parsed(record.gold_program), strict_annotations=True)
            assert strict.error is None, record.id
            assert strict.answer == record.gold_answer, record.id

    def test_find_comments_are_source_not_claims(self):
        # A find comment cannot mismatch: it IS the value.
        program = parsed("var1 = [find](a) # 41\n[return](var1) # 41")
        assert self.mismatch(program) is None
        assert evaluate(program, strict_annotations=True).answer == 41

    def test_wrong_arithmetic_comment_reported(self):
        program = parsed(
            "var1 = [find](a) # 2\n"
            "var2 = [find](b) # 3\n"
            "var3 = [multiply](var1, var2) # 2 * 3 = 7\n"
            "[return](var3) # 6"
        )
        assert self.mismatch(program) == (2, "comment declares 7, computed 6")


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


def chain_source(n: int) -> str:
    """A [find], n - 1 additions that each read the previous line, a [return]."""
    lines = ["var1 = [find](a) # 1"]
    lines += [f"var{i} = [add](var{i - 1}, 1)" for i in range(2, n + 1)]
    lines.append(f"[return](var{n})")
    return "\n".join(lines) + "\n"


class TestOneStorePerEvaluation:
    """An evaluation binds into one store, so its work grows linearly with
    the program: it builds one environment, not one per line."""

    @pytest.fixture
    def built(self, monkeypatch) -> list:
        built = []

        class Counted(Environment):
            __slots__ = ()

            def __new__(cls, *args):
                built.append(cls)
                return super().__new__(cls)

        monkeypatch.setattr(interpreter, "Environment", Counted)
        monkeypatch.setattr(runtime, "Environment", Counted)
        return built

    @pytest.mark.parametrize("n", [100, 1000])
    def test_evaluate(self, built, n):
        program = parsed(chain_source(n))
        outcome = evaluate(program)
        assert (outcome.answer, outcome.error, len(outcome.env)) == (n, None, n)
        assert len(built) == 1

    @pytest.mark.parametrize("chunk_size", [0, 7])
    @pytest.mark.parametrize("n", [100, 1000])
    def test_run_session(self, built, n, chunk_size):
        text = chain_source(n)
        budget = SessionBudget(max_lines=n + 1, max_chars=len(text))
        transcript = run_session(ScriptedGenerator(text, chunk_size), "q", budget=budget)
        assert (transcript.outcome.answer, transcript.halted_count) == (n, n - 1)
        assert len(built) == 1


# One program per evaluation error kind; the first two cannot be written as
# text that parses, and annotation-mismatch needs strict annotations.
_A = Statement(Operator.FIND, (), "a")
ERROR_PROGRAMS = {
    "unbound-variable": Program((Statement(Operator.RETURN, (VarRef("ghost"),)),)),
    "duplicate-binding": Program((_A, _A, Statement(Operator.RETURN, (VarRef("a"),)))),
    "division-by-zero": "var1 = [find](a) # 3\nvar2 = [divide](var1, 0)\n[return](var2)",
    "unknown-operand": "var1 = [find](a) # ?\nvar2 = [floor](var1)\n[return](var2)",
    "non-integer-operand": "var1 = [find](a) # 3.5\nvar2 = [mod](var1, 2)\n[return](var2)",
    "return-of-unknown": "var1 = [find](a) # ?\n[return](var1)",
    "missing-return": "var1 = [find](a) # 1",
    "annotation-mismatch": "var1 = [find](a) # 2\nvar2 = [add](var1, 1) # 2 + 1 = 4\n[return](var2)",
    "value-overflow": f"var1 = [find](a) # {2**4000}\nvar2 = [multiply](var1, var1)\n[return](var2)",
}


def folded(program: Program, strict: bool) -> EvalOutcome:
    """``evaluate`` as ``_step`` folded over the program into one store,
    checking that a failing step leaves the store as it was."""
    env = Environment()
    for index, stmt in enumerate(program.statements):
        before = Environment(env.items())
        try:
            value = interpreter._step(stmt, env)[1]
        except EvalError as err:
            assert env == before
            err.statement_index = index
            return EvalOutcome(None, env, err)
        ann = stmt.annotation
        if strict and not stmt.is_find and ann is not None and ann.declared_value not in (None, value):
            message = (
                f"comment declares {format_number(ann.declared_value)}, "
                f"computed {format_number(value)}"
            )
            return EvalOutcome(None, env, EvalError("annotation-mismatch", message, index))
        if stmt.is_return:
            return EvalOutcome(value, env, None)
    return EvalOutcome(None, env, EvalError("missing-return", "program ended without a [return] statement"))


class TestEvaluateIsAFold:
    def test_every_error_kind_has_a_program(self):
        assert set(ERROR_PROGRAMS) == set(EVAL_ERROR_KINDS)

    @pytest.mark.parametrize("kind", sorted(ERROR_PROGRAMS))
    def test_error_programs(self, kind):
        program = ERROR_PROGRAMS[kind]
        if isinstance(program, str):
            program = parsed(program)
        strict = kind == "annotation-mismatch"
        outcome = evaluate(program, strict_annotations=strict)
        assert outcome.error.kind == kind
        assert outcome == folded(program, strict)

    def test_random_programs(self):
        rng = random.Random(2114)
        for _ in range(300):
            program = parsed(oracles.random_program(rng)[0])
            for strict in (False, True):
                assert evaluate(program, strict_annotations=strict) == folded(program, strict)


class TestStep:
    """``_step`` runs one statement on the store itself: a failing statement
    leaves it as it was, a succeeding one binds its target and nothing else."""

    ENV = Environment([
        ("known", Fraction(3)), ("zero", Fraction(0)), ("mystery", UNKNOWN),
        ("wide", Fraction(2**4000)),
    ])

    @pytest.mark.parametrize(
        "stmt, kind",
        [
            (Statement(Operator.FIND, (), "known"), "duplicate-binding"),
            (
                Statement(Operator.FIND, (), "big", annotation=CommentAnnotation("", Fraction(2**5000))),
                "value-overflow",
            ),
            (Statement(Operator.MULTIPLY, (VarRef("wide"), VarRef("wide")), "x"), "value-overflow"),
            (Statement(Operator.ADD, (VarRef("known"), Fraction(2**5000)), "x"), "value-overflow"),
            (Statement(Operator.ADD, (VarRef("known"), VarRef("mystery")), "x"), "unknown-operand"),
            (Statement(Operator.DIVIDE, (VarRef("known"), VarRef("zero")), "x"), "division-by-zero"),
            (Statement(Operator.MOD, (VarRef("known"), Fraction(1, 2)), "x"), "non-integer-operand"),
            (Statement(Operator.ADD, (VarRef("known"), VarRef("ghost")), "x"), "unbound-variable"),
            (Statement(Operator.ADD, (VarRef("known"), VarRef("known")), "zero"), "duplicate-binding"),
            (Statement(Operator.RETURN, (VarRef("ghost"),)), "unbound-variable"),
            (Statement(Operator.RETURN, (VarRef("mystery"),)), "return-of-unknown"),
        ],
        ids=[
            "find-duplicate-binding", "find-value-overflow", "result-value-overflow",
            "literal-value-overflow", "unknown-operand", "division-by-zero",
            "non-integer-operand", "operand-unbound-variable", "result-duplicate-binding",
            "return-unbound-variable", "return-of-unknown",
        ],
    )
    def test_failing_statement(self, stmt, kind):
        env = Environment(self.ENV.items())
        with pytest.raises(EvalError) as excinfo:
            interpreter._step(stmt, env)
        assert excinfo.value.kind == kind
        assert env == self.ENV

    def test_succeeding_statement(self):
        env = Environment(self.ENV.items())
        stmt = Statement(Operator.MULTIPLY, (VarRef("known"), Fraction(2)), "six")
        assert interpreter._step(stmt, env) == ([3, 2], 6)
        assert env == Environment([*self.ENV.items(), ("six", Fraction(6))])


def _evaluation_error_kind(program: Program, strict: bool) -> str:
    outcome = evaluate(program, strict_annotations=strict)
    return outcome.error.kind  # the caller holds its outcome until it returns


class TestFailingEvaluationsLeaveNoCycles:
    """An evaluation's error is data: it keeps no traceback, whose frames
    would reach back to the caller holding the outcome and close a cycle."""

    @pytest.mark.parametrize(
        "source, strict, kind",
        [
            ("var1 = [find](a) # 3\nvar2 = [divide](var1, 0)\n[return](var2)", False,
             "division-by-zero"),
            ("var1 = [find](a) # ?\nvar2 = [add](var1, 1)\n[return](var2)", False,
             "unknown-operand"),
            ("var2 = [add](var9, 1)\n[return](var2)", False, "unbound-variable"),
            ("var1 = [find](a) # 3\nvar1 = [find](b) # 4\n[return](var1)", False,
             "duplicate-binding"),
            ("var1 = [find](a) # 3\nvar2 = [add](var1, 1) # 5\n[return](var2)", True,
             "annotation-mismatch"),
            ("var1 = [find](a) # 3", False, "missing-return"),
        ],
    )
    def test_no_garbage(self, garbage_left, source, strict, kind):
        program = Program(tuple(parse_line(line) for line in source.splitlines()))
        assert _evaluation_error_kind(program, strict) == kind
        assert garbage_left(_evaluation_error_kind, program, strict) == 0
