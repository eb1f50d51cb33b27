"""Parser behavior: line classification and whole-program checks."""

import pickle
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flsolve import (
    PARSE_ERROR_KINDS,
    CommentAnnotation,
    DatasetFile,
    GeneratorSpec,
    Operator,
    ParseError,
    ProblemRecord,
    Program,
    Statement,
    VarRef,
    bundled_examples,
    evaluate_corpus,
    parse_line,
    parse_program,
    score_program,
    strip_computed_comments,
    tally,
    validate_dataset,
)
from flsolve import parser
from flsolve.parser import _lines, _split_line, parse_comment_value
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
    """The former tokenizer's cases, restated on parse_line and parse_program."""

    def test_arithmetic_line_token_kinds(self):
        assert parse_line("var4 = [subtract](var1, var3) # 7 - 10 = -3") == Statement(
            Operator.SUBTRACT,
            (VarRef("var1"), VarRef("var3")),
            target="var4",
            annotation=CommentAnnotation("7 - 10 = -3", Fraction(-3)),
        )

    def test_find_description_is_one_token(self):
        stmt = parse_line("var1 = [find](cost (in dollars) of one pen) # 5")
        assert stmt.args == ("cost (in dollars) of one pen",)

    def test_numeric_literals_carry_values(self):
        stmt = parse_line("var2 = [add](var1, 7/2)")
        assert stmt.args == (VarRef("var1"), Fraction(7, 2))

    def test_negative_literal(self):
        stmt = parse_line("var2 = [multiply](var1, -3)")
        assert stmt.args == (VarRef("var1"), Fraction(-3))

    def test_trailing_comma_is_dropped(self):
        with_comma = parse_line("var4 = [subtract](var1, var3),")
        assert with_comma == parse_line("var4 = [subtract](var1, var3)")
        assert isinstance(with_comma, Statement)

    def test_multiline_source_line_numbers(self):
        errors = parse_program("var1 = [find]() # 1\n\n[return](var1) junk")
        assert [(e.line_number, e.kind) for e in errors] == [
            (1, "malformed-line"),
            (3, "trailing-garbage"),
        ]

    def test_empty_source(self):
        assert parse_program("") == Program(())

    def test_stray_character_becomes_error_token(self):
        assert parse_line("var1 = [add](var2; var3)", 4) == ParseError(
            4, "malformed-line", "unexpected character ';'"
        )


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


# Comment pieces at the edges of the declared-value pattern: '=', ',', '?',
# Unicode whitespace, non-ASCII digits, a zero denominator and literals past
# CPython's 4300-digit int-to-str limit.
COMMENT_PIECES = (
    "=", "=", ",", "?", " ", "\t", "\u3000", "\u00a0", "\x1c", "\u2028", "\r", "\n",
    "\u0663", "\u06f5.\u0967", "-", "+", ".", "/", "1/0", "7", "-3", "12.85", ".5", "3/4",
    "8 - (-3)", "x", "#", "9" * 5000, "1" * 5000 + ".5", "0." + "3" * 5000, "2/" + "7" * 5000,
)


SPACES = st.text(alphabet=" \t\r\n\x0b\x1c\u00a0\u2028\u3000", max_size=2)


@st.composite
def comments(draw):
    """Free mixes of the pieces, and '<text> = <literal>,' shapes with the
    pieces around the parts."""
    free = st.lists(st.sampled_from(COMMENT_PIECES) | st.text(max_size=3), max_size=8)
    if draw(st.booleans()):
        return "".join(draw(free))
    literal = draw(number_literals() | st.sampled_from(COMMENT_PIECES))
    parts = [
        "".join(draw(free)) if draw(st.booleans()) else "",
        draw(st.sampled_from(("", "=", " = ", "=="))),
        draw(SPACES),
        literal,
        draw(SPACES),
        draw(st.sampled_from(("", ",", " ,", ",,"))),
        draw(st.sampled_from(COMMENT_PIECES)) if draw(st.integers(0, 3)) == 0 else "",
    ]
    return "".join(parts)


class TestParseCommentValueMatchesReference:
    @settings(max_examples=800, deadline=None)
    @given(comments())
    def test_drawn_comments(self, comment):
        assert parse_comment_value(comment) == oracles.reference_parse_comment_value(comment)

    @pytest.mark.parametrize(
        "comment",
        [
            "", "?", " ? ,", "7", "=7", "a = b = 7", "7 = a", "1/0", "x = 1/0", "3 = 1/0",
            "a =\u30007\u3000,", "\u0663 + 1 = \u0664", "x\r= 5", "x =\n5", "x\n= 5", "= 5 =",
            "= " + "9" * 5000, "=" + "4" * 4300, "= 0." + "3" * 5000, "= 1" * 2000,
        ],
    )
    def test_edge_comments(self, comment):
        assert parse_comment_value(comment) == oracles.reference_parse_comment_value(comment)


class TestOperatorIdentity:
    def test_hash_matches_equality(self):
        for a in Operator:
            for b in Operator:
                assert (a == b) == (a is b)
                if a == b:
                    assert hash(a) == hash(b)
        assert {op: op.value for op in Operator}[Operator.ADD] == "add"

    def test_members_survive_a_pickle_round_trip(self):
        for op in Operator:
            copy = pickle.loads(pickle.dumps(op))
            assert copy is op
            assert hash(copy) == hash(op)

    def test_statement_equality_and_hashing(self):
        first = parse_line("var3 = [add](var1, 2) # 5")
        second = parse_line("  var3 = [add]( var1 ,2 )  #  5 ")
        other = parse_line("var3 = [subtract](var1, 2) # 5")
        assert first == second and hash(first) == hash(second)
        assert first != other
        assert len({first, second, other}) == 2
        copy = pickle.loads(pickle.dumps(first))
        assert copy == first and hash(copy) == hash(first)


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


HASH_FIND_GOLD = """\
var1 = [find](price of item #3) # 4
var2 = [find](number of items bought) # 5
var3 = [multiply](var1, var2) # 20
[return](var3) # 20"""


def partition_split(raw: str) -> tuple[str, str, str]:
    """``_split_line`` without the [find] rule: the comment at the first '#'."""
    line = raw.rstrip()
    if line.endswith(","):
        line = line[:-1].rstrip()
    return line.partition("#")


HASH_LINE_ATOMS = ["var1", " ", "=", "[find]", "[add]", "(", ")", "#", "#3", ",", "2", "x = 5",
                   "\t", "[return]", "var2", "?", " # "]


class TestHashInFindDescription:
    """A '#' inside a [find] description belongs to the description."""

    def test_description_keeps_its_hash(self):
        stmt = parse_line("var1 = [find](item #3 price) # 4")
        assert isinstance(stmt, Statement)
        assert shape(stmt) == (Operator.FIND, ("item #3 price",), "var1")
        assert stmt.annotation.declared_value == 4

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("var1 = [find](item #3 price) # 4", ("var1 = [find](item #3 price)", "#", " 4")),
            ("var1 = [find](item #3 price)#4", ("var1 = [find](item #3 price)", "#", "4")),
            ("var1 = [find](item #3 price)", ("var1 = [find](item #3 price)", "", "")),
            ("var1 = [find](item #3 price)  ,", ("var1 = [find](item #3 price)", "", "")),
            ("var1 = [find](a #1 (b) c) # x = 4", ("var1 = [find](a #1 (b) c)", "#", " x = 4")),
            # The common case: the text before the first '#' ends in ')'.
            ("var1 = [find](eggs) # 7 (a dozen)", ("var1 = [find](eggs) ", "#", " 7 (a dozen)")),
            ("var1 = [find](eggs) # 7 # 8", ("var1 = [find](eggs) ", "#", " 7 # 8")),
            # No ')' closes the description at a comment or the line end.
            ("var1 = [find](a #1", ("var1 = [find](a ", "#", "1")),
            ("var1 = [find](a #1) b", ("var1 = [find](a ", "#", "1) b")),
            # No [find] before the first '#'.
            ("var2 = [add](var1, 2) # (3 #)", ("var2 = [add](var1, 2) ", "#", " (3 #)")),
            ("var2 = [add](var1 # [find](x #1)", ("var2 = [add](var1 ", "#", " [find](x #1)")),
            ("# [find](x #1)", ("", "#", " [find](x #1)")),
        ],
    )
    def test_split(self, line, expected):
        assert _split_line(line) == expected

    def test_gold_program_survives_replay_and_stripping(self):
        record = ProblemRecord("hash", "Item #3 costs 4. What do 5 cost?", HASH_FIND_GOLD,
                               Fraction(20))
        assert strip_computed_comments(HASH_FIND_GOLD) == (
            "var1 = [find](price of item #3) # 4\n"
            "var2 = [find](number of items bought) # 5\n"
            "var3 = [multiply](var1, var2)\n"
            "[return](var3)"
        )
        ds = DatasetFile((record,), "inline")
        assert validate_dataset(ds).failed == 0
        for chunk_size in (0, 1, 3):
            report = evaluate_corpus(ds, GeneratorSpec("gold-replay", chunk_size=chunk_size))
            assert report.correct == 1, chunk_size
            assert report.per_problem[0].reward.diagnostics.v_gen == 2

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(HASH_LINE_ATOMS), min_size=1, max_size=12).map("".join))
    def test_only_lines_that_failed_change(self, line):
        ours = parse_line(line)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parser, "_split_line", partition_split)
            before = parse_line(line)
        assert ours == before or isinstance(before, ParseError), (line, before, ours)


class TestParseProgram:
    def test_bundled_gold_programs_parse(self):
        for record in bundled_examples().records:
            program = parse_program(record.gold_program)
            assert isinstance(program, Program), record.id
            assert tally(program)[1], record.id

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
            again = parse_program(oracles.render_program(program))
            assert isinstance(again, Program)
            assert again.statements == program.statements


# The line boundaries of str.splitlines. Only "\n" ends a line of a program.
SPLITLINES_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
line_text = st.text(st.characters(blacklist_characters=SPLITLINES_BREAKS), max_size=12)
# Lines ended by "\n" or "\r\n", then an unended last line, perhaps empty.
newline_text = st.tuples(
    st.lists(st.tuples(line_text, st.sampled_from(("\n", "\r\n")))), line_text
).map(lambda parts: "".join(map("".join, parts[0])) + parts[1])


def split_at_newlines(text: str) -> list[str]:
    """The line rule spelled out: split at "\n", drop one "\r" before each
    "\n", and give no empty last line."""
    *ended, last = text.split("\n")
    lines = [line.removesuffix("\r") for line in ended]
    return lines + [last] if last else lines


class TestLines:
    """``parser._lines`` is the one place that decides where a line ends."""

    @settings(max_examples=300, deadline=None)
    @given(newline_text)
    def test_equals_splitlines_for_newline_and_crlf_breaks(self, text):
        assert _lines(text) == text.splitlines()

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from("ab\n\r\x0c\u2028"), max_size=20) | st.text(max_size=20))
    def test_splits_at_newlines_only(self, text):
        assert _lines(text) == split_at_newlines(text)

    @pytest.mark.parametrize(
        "text, lines",
        [
            ("", []),
            ("a", ["a"]),
            ("a\n", ["a"]),
            ("a\n\n", ["a", ""]),
            ("a\r\nb", ["a", "b"]),
            ("a\r\r\nb", ["a\r", "b"]),
            ("a\rb\r", ["a\rb\r"]),
            ("a\x0cb\u2028c", ["a\x0cb\u2028c"]),
        ],
    )
    def test_cases(self, text, lines):
        assert _lines(text) == lines

    @pytest.mark.parametrize("brk", ["\r", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_other_breaks_are_characters_in_a_line(self, brk):
        text = f"var1 = [find](a{brk}b) # 3\n[return](var1)"
        program = parse_program(text)
        assert isinstance(program, Program)
        assert program.statements[0].args == (f"a{brk}b",)
        program = parse_program(f"var1 = [find](a) # 3{brk}[return](var1)\nvar2 = [add](var1, 1)")
        assert isinstance(program, Program) and len(program.statements) == 2


class TestProgramCompiles:
    """The compile gate is r1 of ``score_program`` on the parsed program: it
    parses, passes the static checks, and declares an answer."""

    GOLD = ProblemRecord("g", "?", "var1 = [find](a) # 3\n[return](var1)", Fraction(3))

    @classmethod
    def compiles(cls, source: str) -> bool:
        parsed = parse_program(source)
        return score_program(parsed if isinstance(parsed, Program) else None, cls.GOLD).r1 == 1

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


# parse_line against the former token walk, oracles.reference_parse_line:
# equal results (kind, line number, message and annotation) on every input.

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
        assert parse_line(raw, line_no) == oracles.reference_parse_line(raw, line_no)

    @settings(max_examples=600, deadline=None)
    @given(edited_lines(), st.integers(1, 64))
    def test_edited_statement_lines(self, raw, line_no):
        assert parse_line(raw, line_no) == oracles.reference_parse_line(raw, line_no)

    @pytest.mark.parametrize("raw", LINE_PIECES)
    def test_statement_lines(self, raw):
        assert parse_line(raw, 3) == oracles.reference_parse_line(raw, 3)

    def test_gold_and_random_programs(self):
        rng = random.Random(3)
        sources = [r.gold_program for r in bundled_examples().records]
        sources += [oracles.random_program(rng)[0] for _ in range(200)]
        for source in sources:
            for line_no, raw in enumerate(source.splitlines(), start=1):
                result = parse_line(raw, line_no)
                assert result == oracles.reference_parse_line(raw, line_no)
                assert result is None or isinstance(result, Statement)

    def test_deterministic_lines(self):
        # Long and unclosed lines, which the text strategies above rarely draw:
        # criterion 8's random bytes, then statement lines edited with an
        # unclosed [find], a 5000-digit literal and a 4400-digit denominator.
        rng = random.Random(0xF422)
        lines: list[str] = []
        while len(lines) < 20_000:
            blob = rng.randbytes(rng.randint(0, 64))
            lines += blob.decode("utf-8", errors="replace").splitlines()
        pieces = EDIT_PIECES + ("[find](", "7" * 5000, "1/" + "3" * 4400)
        rng = random.Random(0xED17)
        for _ in range(20_000):
            line = rng.choice(LINE_PIECES)
            for _ in range(rng.randint(1, 4)):
                at = rng.randint(0, len(line))
                if rng.random() < 0.5:
                    line = line[:at] + rng.choice(pieces) + line[at:]
                else:
                    line = line[:at] + line[at + 1 :]
            lines.append(line)
        for line_no, raw in enumerate(lines, start=1):
            assert parse_line(raw, line_no) == oracles.reference_parse_line(raw, line_no)

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

    @pytest.mark.parametrize(
        "text",
        [
            "4" * 4000 + "." + "5" * 4000,
            "-" + "4" * 4300 + "/" + "7" * 4300,
            "1" * 4301 + ".5",
            "-0." + "5" * 4301,
            "3/" + "7" * 4301,
        ],
    )
    def test_parts_at_and_past_the_digit_limit(self, text):
        # Fraction(text) converts each part with int() on its own.
        assert parse_number(text) == _fraction_or_none(text)

    def test_over_the_digit_limit(self):
        assert parse_number("7" * 5000) is None
        assert parse_number("-" + "7" * 5000) is None
