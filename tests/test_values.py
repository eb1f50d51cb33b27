import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flsolve import (
    MAX_VALUE_BITS,
    UNKNOWN,
    Unknown,
    format_number,
    is_terminating_decimal,
    parse_line,
    parse_number,
)
from flsolve.values import _int_text


class TestParseNumber:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", Fraction(3)),
            ("-4", Fraction(-4)),
            ("+7", Fraction(7)),
            ("7/2", Fraction(7, 2)),
            ("-7/2", Fraction(-7, 2)),
            ("12.85", Fraction(1285, 100)),
            ("0.75", Fraction(3, 4)),
            (".5", Fraction(1, 2)),
            ("  14.85  ", Fraction(1485, 100)),
            ("570", Fraction(570)),
        ],
    )
    def test_literals(self, text, expected):
        assert parse_number(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["", "abc", "x3", "3x", "1.2.3", "3/0", "1/2/3", "3.", "--4", "7 /2", "nan", "inf"],
    )
    def test_rejects(self, text):
        assert parse_number(text) is None


class TestTerminating:
    def test_integers_terminate(self):
        assert is_terminating_decimal(Fraction(0))
        assert is_terminating_decimal(Fraction(-12))

    def test_powers_of_two_and_five(self):
        assert is_terminating_decimal(Fraction(7, 8))
        assert is_terminating_decimal(Fraction(3, 50))
        assert is_terminating_decimal(Fraction(1285, 100))

    def test_other_denominators_do_not(self):
        assert not is_terminating_decimal(Fraction(1, 3))
        assert not is_terminating_decimal(Fraction(1, 6))
        assert not is_terminating_decimal(Fraction(22, 7))


class TestFormatNumber:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(11), "11"),
            (Fraction(-3), "-3"),
            (Fraction(0), "0"),
            (Fraction(1285, 100), "12.85"),
            (Fraction(-7, 2), "-3.5"),
            (Fraction(1, 2), "0.5"),
            (Fraction(3, 4000), "0.00075"),
            (Fraction(1, 3), "1/3"),
            (Fraction(-22, 7), "-22/7"),
        ],
    )
    def test_rendering(self, value, text):
        assert format_number(value) == text

    @given(st.fractions())
    def test_round_trip(self, value):
        assert parse_number(format_number(value)) == value

    @pytest.mark.parametrize(
        "value",
        [
            # p / 2**k renders as p * 5**k: the longest terminating decimal.
            Fraction(2**MAX_VALUE_BITS - 1, 2 ** (MAX_VALUE_BITS - 1)),
            Fraction(-(2**MAX_VALUE_BITS - 1), 2 ** (MAX_VALUE_BITS - 1)),
            Fraction(1, 2 ** (MAX_VALUE_BITS - 1)),
            Fraction(3**2584, 2 ** (MAX_VALUE_BITS - 1)),
            Fraction(1, 5**1764),
            Fraction(2**MAX_VALUE_BITS - 1),
            Fraction(2**MAX_VALUE_BITS - 1, 3**2584),
        ],
    )
    def test_renders_every_value_at_the_bound(self, value):
        assert max(value.numerator.bit_length(), value.denominator.bit_length()) <= MAX_VALUE_BITS
        text = format_number(value)
        assert len(text) < 4300
        assert parse_number(text) == value


    def test_renders_a_parsed_literal_past_the_digit_limit(self):
        # 2**14000 has 4215 digits, so the literal parses; its decimal
        # rendering 0.<5**14000 padded to 14000 digits> is past the limit.
        stmt = parse_line(f"var2 = [add](var1, 1/{2**14000})")
        assert stmt.args[1] == Fraction(1, 2**14000)
        text = format_number(stmt.args[1])
        assert text.startswith("0.0000")
        assert text.endswith("5")
        assert len(text) == len("0.") + 14000


class TestIntText:
    """format_number's integer digits equal str() on both sides of
    CPython's int-to-str digit limit."""

    @given(st.integers(-(10**4300) + 1, 10**4300 - 1))
    @example(10**4300 - 1)
    def test_under_the_limit(self, n):
        assert _int_text(n) == str(n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(10**4300, 10**14000), st.booleans())
    @example(10**4300, False)
    @example(10**9000 + 7, True)
    def test_past_the_limit(self, n, negative):
        n = -n if negative else n
        text = _int_text(n)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert text == str(n)
        finally:
            sys.set_int_max_str_digits(limit)


def test_unknown_is_a_singleton():
    assert Unknown() is UNKNOWN
    assert repr(UNKNOWN) == "UNKNOWN"
