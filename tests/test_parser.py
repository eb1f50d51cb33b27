"""Parser behavior: tokens, line classification, and whole-program checks."""

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flsolve import (
    PARSE_ERROR_KINDS,
    Operator,
    ParseError,
    Program,
    Statement,
    VarRef,
    bundled_examples,
    has_return,
    parse_line,
    parse_program,
    render_program,
    reward_r1,
)
from flsolve.parser import _walk_tokens, parse_comment_value, tokenize, tokenize_line
from flsolve.values import NUMBER_PATTERN, parse_number

import oracles

# A listing-style variant: trailing commas on statements and a space between
# [return] and its argument list.
LISTING_STYLE_SOURCE = """\
var1 = [find](number of action figures on the shelf) # 7,
var2 = [find](number of action figures added) # ?,
var3 = [find](number of action figures removed) # 10,
var4 = [subtract](var1, var3),
var5 = [find](total number of action figures at the end) # 8,
var6 = [subtract](var5, var4),
[return] (var6)
"""


def shape(stmt: Statement) -> tuple:
    """Statement identity without the comment annotation."""
    return (stmt.op, stmt.args, stmt.target)


class TestTokenize:
    def test_arithmetic_line_token_kinds(self):
        tokens = tokenize_line("var4 = [subtract](var1, var3) # 7 - 10 = -3")
        kinds = [t.kind for t in tokens]
        assert kinds == [
            "ident",
            "punct",
            "op",
            "punct",
            "ident",
            "punct",
            "ident",
            "punct",
            "comment",
        ]
        assert tokens[2].value is Operator.SUBTRACT
        assert tokens[-1].text == "7 - 10 = -3"

    def test_find_description_is_one_token(self):
        tokens = tokenize_line("var1 = [find](cost (in dollars) of one pen) # 5")
        descriptions = [t for t in tokens if t.kind == "description"]
        assert len(descriptions) == 1
        assert descriptions[0].text == "cost (in dollars) of one pen"

    def test_numeric_literals_carry_values(self):
        tokens = tokenize_line("var2 = [add](var1, 7/2)")
        numbers = [t for t in tokens if t.kind == "number"]
        assert [t.value for t in numbers] == [Fraction(7, 2)]

    def test_negative_literal(self):
        tokens = tokenize_line("var2 = [multiply](var1, -3)")
        numbers = [t for t in tokens if t.kind == "number"]
        assert [t.value for t in numbers] == [Fraction(-3)]

    def test_trailing_comma_is_dropped(self):
        with_comma = tokenize_line("var4 = [subtract](var1, var3),")
        without = tokenize_line("var4 = [subtract](var1, var3)")
        assert [(t.kind, t.text) for t in with_comma] == [
            (t.kind, t.text) for t in without
        ]

    def test_multiline_source_line_numbers(self):
        tokens = tokenize("var1 = [find](a) # 1\n\n[return](var1) # 1")
        assert {t.line for t in tokens} == {1, 3}

    def test_empty_source(self):
        assert tokenize("") == []

    def test_stray_character_becomes_error_token(self):
        tokens = tokenize_line("var1 = [add](var2; var3)")
        assert any(t.kind == "error" and t.text == ";" for t in tokens)


class TestParseCommentValue:
    def test_question_mark_flags_unknown(self):
        ann = parse_comment_value("?")
        assert ann.unknown_flag
        assert ann.declared_value is None

    def test_plain_integer(self):
        ann = parse_comment_value("7")
        assert ann.declared_value == 7
        assert not ann.unknown_flag

    def test_decimal(self):
        assert parse_comment_value("14.85").declared_value == Fraction(1485, 100)

    def test_worked_equation_takes_final_value(self):
        assert parse_comment_value("7 - 10 = -3").declared_value == -3
        assert parse_comment_value("320 / 8 = 40").declared_value == 40

    def test_nested_parens_in_equation(self):
        assert parse_comment_value("8 - (-3) = 11").declared_value == 11

    def test_trailing_comma_tolerated(self):
        assert parse_comment_value("11,").declared_value == 11

    def test_prose_has_no_declared_value(self):
        ann = parse_comment_value("total widgets sold")
        assert ann.declared_value is None
        assert not ann.unknown_flag
        assert ann.raw_text == "total widgets sold"

    def test_equation_with_non_numeric_rhs(self):
        assert parse_comment_value("a = b").declared_value is None


class TestParseLine:
    def test_blank_and_comment_only_lines_are_skipped(self):
        assert parse_line("") is None
        assert parse_line("   ") is None
        assert parse_line("# just chatter") is None

    def test_arithmetic_statement(self):
        stmt = parse_line("var4 = [subtract](var1, var3) # 7 - 10 = -3")
        assert isinstance(stmt, Statement)
        assert stmt.op is Operator.SUBTRACT
        assert stmt.target == "var4"
        assert stmt.args == (VarRef("var1"), VarRef("var3"))
        assert stmt.annotation.declared_value == -3

    def test_find_statement(self):
        stmt = parse_line("var1 = [find](eggs in the basket) # 12")
        assert isinstance(stmt, Statement)
        assert stmt.op is Operator.FIND
        assert stmt.args == ("eggs in the basket",)
        assert stmt.annotation.declared_value == 12

    def test_return_with_space_before_args(self):
        stmt = parse_line("[return] (var6) # 11")
        assert isinstance(stmt, Statement)
        assert stmt.op is Operator.RETURN
        assert stmt.args == (VarRef("var6"),)
        assert stmt.target is None

    def test_literal_arguments(self):
        stmt = parse_line("var2 = [multiply](var1, 2)")
        assert stmt.args == (VarRef("var1"), Fraction(2))

    def test_trailing_comma_equivalent(self):
        assert parse_line("var4 = [subtract](var1, var3),") == parse_line(
            "var4 = [subtract](var1, var3)"
        )

    @pytest.mark.parametrize(
        "line",
        [
            "var1 [find](x) # 7",
            "= [add](var1, var2)",
            "var1 = add(var1, var2)",
            "var1 = [add](var2; var3)",
            "var1 = [return](var2)",
            "[add](var1, var2)",
            "var1 = [add](var2, var3",
            "var1 = [add](var2,)",
            "var1 = [add] var2, var3)",
            "var1 = [find]()",
        ],
    )
    def test_malformed_lines(self, line):
        result = parse_line(line)
        assert isinstance(result, ParseError)
        assert result.kind == "malformed-line"

    def test_unknown_operator(self):
        result = parse_line("var4 = [substract](var1, var3)")
        assert isinstance(result, ParseError)
        assert result.kind == "unknown-operator"
        assert "substract" in result.message

    @pytest.mark.parametrize(
        "line",
        [
            "var3 = [add](var1)",
            "var3 = [round](var1, var2)",
            "[return](var1, var2)",
            "var3 = [divide](var1, var2, var2)",
        ],
    )
    def test_bad_arity(self, line):
        result = parse_line(line)
        assert isinstance(result, ParseError)
        assert result.kind == "bad-arity"

    def test_text_after_close_paren(self):
        result = parse_line("var1 = [find](eggs) 99")
        assert isinstance(result, ParseError)
        assert result.kind == "trailing-garbage"

    def test_error_carries_line_number(self):
        result = parse_line("var1 = [frob](var2)", line_no=17)
        assert result.line_number == 17
        assert str(result).startswith("line 17: unknown-operator:")


class TestParseProgram:
    def test_bundled_gold_programs_parse(self):
        for record in bundled_examples().records:
            program = parse_program(record.gold_program)
            assert isinstance(program, Program), record.id
            assert has_return(program), record.id

    def test_listing_style_source(self):
        program = parse_program(LISTING_STYLE_SOURCE)
        assert isinstance(program, Program)
        ops = [s.op for s in program.statements]
        assert ops == [
            Operator.FIND,
            Operator.FIND,
            Operator.FIND,
            Operator.SUBTRACT,
            Operator.FIND,
            Operator.SUBTRACT,
            Operator.RETURN,
        ]
        assert program.statements[1].annotation.unknown_flag
        assert program.statements[-1].args == (VarRef("var6"),)

    def test_undefined_variable(self):
        source = "var1 = [find](a) # 3\nvar3 = [add](var1, var2)\n[return](var3)"
        errors = parse_program(source)
        assert isinstance(errors, list)
        assert [(e.line_number, e.kind) for e in errors] == [(2, "undefined-variable")]
        assert "var2" in errors[0].message

    def test_variable_redefinition(self):
        source = "var1 = [find](a) # 3\nvar1 = [find](b) # 4\n[return](var1)"
        errors = parse_program(source)
        assert [(e.line_number, e.kind) for e in errors] == [(2, "malformed-line")]
        assert "redefined" in errors[0].message

    def test_duplicate_return(self):
        source = "var1 = [find](a) # 3\n[return](var1)\n[return](var1)"
        errors = parse_program(source)
        assert [(e.line_number, e.kind) for e in errors] == [(3, "duplicate-return")]

    def test_statement_after_return(self):
        source = (
            "var1 = [find](a) # 3\n[return](var1)\nvar2 = [find](b) # 4"
        )
        errors = parse_program(source)
        assert [(e.line_number, e.kind) for e in errors] == [(3, "trailing-garbage")]

    def test_all_errors_reported_sorted(self):
        source = "\n".join(
            [
                "var1 = [find](a) # 2",
                "var2 = [frobnicate](var1)",
                "var3 = [add](var1, var9)",
                "[return](var3)",
                "[return](var1)",
            ]
        )
        errors = parse_program(source)
        assert [(e.line_number, e.kind) for e in errors] == [
            (2, "unknown-operator"),
            (3, "undefined-variable"),
            (5, "duplicate-return"),
        ]

    def test_error_kinds_stay_in_catalog(self):
        bad_sources = [
            "???",
            "var1 = [find](a) # 1\nvar1 = [find](b) # 2",
            "var1 = [mystery](2, 3)\n[return](var9)",
            "[return](var1)\n[return](var1)\nvar1 = [find](a)",
        ]
        for source in bad_sources:
            errors = parse_program(source)
            assert isinstance(errors, list) and errors
            assert all(e.kind in PARSE_ERROR_KINDS for e in errors)

    def test_blank_lines_do_not_shift_error_lines(self):
        source = "\nvar1 = [find](a) # 1\n\nvar2 = [add](var1, varX)\n[return](var2)"
        errors = parse_program(source)
        assert [(e.line_number, e.kind) for e in errors] == [(4, "undefined-variable")]

    def test_render_parse_round_trip(self):
        rng = random.Random(20240817)
        for _ in range(200):
            source, _expected = oracles.random_program(rng)
            program = parse_program(source)
            assert isinstance(program, Program)
            again = parse_program(render_program(program))
            assert isinstance(again, Program)
            assert again.statements == program.statements


class TestProgramCompiles:
    """The compile gate is ``reward_r1`` on the parsed program: it parses,
    passes the static checks, and declares an answer."""

    @staticmethod
    def compiles(source: str) -> bool:
        parsed = parse_program(source)
        return reward_r1(parsed if isinstance(parsed, Program) else None) == 1

    def test_bundled_examples_compile(self):
        for record in bundled_examples().records:
            assert self.compiles(record.gold_program), record.id

    def test_missing_return_fails_gate(self):
        assert isinstance(parse_program("var1 = [find](a) # 3"), Program)
        assert not self.compiles("var1 = [find](a) # 3")

    def test_empty_source_fails_gate(self):
        assert not self.compiles("")
        assert not self.compiles("   \n  \n")

    def test_parse_error_fails_gate(self):
        assert not self.compiles("var1 = [oops](a)\n[return](var1)")


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_parse_line_never_raises(text):
    for line_no, raw in enumerate(text.splitlines() or [text], start=1):
        result = parse_line(raw, line_no)
        assert result is None or isinstance(result, (Statement, ParseError))
        if isinstance(result, ParseError):
            assert result.kind in PARSE_ERROR_KINDS


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=400))
def test_parse_program_never_raises(text):
    result = parse_program(text)
    if not isinstance(result, Program):
        assert all(e.kind in PARSE_ERROR_KINDS for e in result)


# parse_line against the token walk it replaces on well-formed lines: equal
# results (kind, line number and message included) on every input.

# Characters at the edges of the fast path's patterns: comment and argument
# punctuation, \r, \x0b and \x1c (whitespace to str.isspace and to regex \s),
# a Unicode digit, signs, fractions and a division by zero.
EDIT_PIECES = (
    "#", ")", "(", ",", " ", "\r", "\x0b", "\x1c", "\t", "\u2028", "\u0663", "-", "/", ".",
    "1/0", "0", "7", "x", "_", "=", "[", "]", "[frob]", "[find]", "[return]", "(a (b) c)",
)
LINE_PIECES = (
    "var1 = [find](apples in the (big) basket) # 7",
    "var2 = [find](pears) # ?",
    "var3 = [add](var1, var2) # 3 + 4 = 7",
    "var4 = [subtract](var3, -2.5)",
    "var5 = [divide](var4, 3/4),",
    "var6 = [mod](var5, 1/0)",
    "var7 = [round](var6)",
    "var8 = [gcd](12, \u0663)",
    "var9 = [frob](var1, var2)",
    "var9 = [add](var1)",
    "[return](var3) # 7",
    "[return] (var3),",
    "[return](4)",
    "var1 = [find]()",
)


@st.composite
def edited_lines(draw):
    line = draw(st.sampled_from(LINE_PIECES))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(line)))
        if draw(st.booleans()):
            line = line[:at] + draw(st.sampled_from(EDIT_PIECES)) + line[at:]
        else:
            line = line[:at] + line[at + 1 :]
    return line


class TestFastPathMatchesTokenWalk:
    @settings(max_examples=500, deadline=None)
    @given(st.text(max_size=80), st.integers(1, 64))
    def test_arbitrary_text(self, raw, line_no):
        assert parse_line(raw, line_no) == _walk_tokens(raw, line_no)

    @settings(max_examples=600, deadline=None)
    @given(edited_lines(), st.integers(1, 64))
    def test_edited_statement_lines(self, raw, line_no):
        assert parse_line(raw, line_no) == _walk_tokens(raw, line_no)

    @pytest.mark.parametrize("raw", LINE_PIECES)
    def test_statement_lines(self, raw):
        assert parse_line(raw, 3) == _walk_tokens(raw, 3)

    def test_gold_and_random_programs(self):
        rng = random.Random(3)
        sources = [r.gold_program for r in bundled_examples().records]
        sources += [oracles.random_program(rng)[0] for _ in range(200)]
        for source in sources:
            for line_no, raw in enumerate(source.splitlines(), start=1):
                result = parse_line(raw, line_no)
                assert result == _walk_tokens(raw, line_no)
                assert result is None or isinstance(result, Statement)

    def test_regex_whitespace_is_str_isspace(self):
        # The walk skips str.isspace characters; the patterns skip \s.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


def _fraction_or_none(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


DIGITS = st.text(alphabet="0123456789\u0663\u06f5\u0967", min_size=1, max_size=40)


@st.composite
def number_literals(draw):
    """Every shape NUMBER_PATTERN admits, with signs, leading zeros and
    non-ASCII decimal digits."""
    sign = draw(st.sampled_from(("", "+", "-")))
    whole, part = draw(DIGITS), draw(DIGITS)
    body = draw(st.sampled_from((whole, f"{whole}.{part}", f".{part}", f"{whole}/{part}")))
    return sign + body


class TestParseNumberMatchesFraction:
    @settings(max_examples=500, deadline=None)
    @given(number_literals())
    def test_every_literal(self, text):
        assert re.fullmatch(NUMBER_PATTERN, text)
        assert parse_number(text) == _fraction_or_none(text)

    @pytest.mark.parametrize("text", ["007", "-0", "+12", "-000.50", "\u0663", "-\u0663/\u0664", "3/0"])
    def test_edge_literals(self, text):
        assert parse_number(text) == _fraction_or_none(text)

    def test_over_the_digit_limit(self):
        assert parse_number("7" * 5000) is None
        assert parse_number("-" + "7" * 5000) is None
