"""Exact rational scalars backing every numeric value in the language.

Values are stored as ``fractions.Fraction`` in lowest terms, so decimals such
as 14.85 round-trip without floating-point drift and arithmetic is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction


class Unknown:
    """Sentinel for a quantity declared without a value (a ``# ?`` comment)."""

    _instance: "Unknown | None" = None

    def __new__(cls) -> "Unknown":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = Unknown()

# The solver refuses a value whose numerator or denominator has more bits
# (EvalError "value-overflow"). Its values then render under CPython's
# 4300-digit int-to-str limit: the longest rendering, a terminating decimal
# p/2**k shown as p*5**k, has about 0.30*bits(p) + 0.70*k <= 4096 digits.
MAX_VALUE_BITS = 4096

# Integer, decimal, or p/q literal; NUMBER_PATTERN adds an optional sign.
UNSIGNED_NUMBER_PATTERN = r"(?:\d+\.\d+|\.\d+|\d+(?:/\d+)?)"
NUMBER_PATTERN = rf"[+-]?{UNSIGNED_NUMBER_PATTERN}"
_NUMBER_RE = re.compile(rf"^{NUMBER_PATTERN}$")


def parse_number(text: str) -> Fraction | None:
    """Parse an integer, decimal, or ``p/q`` literal; None if it is not one."""
    return _parse_literal(text, int)


def _parse_literal(text: str, to_int) -> Fraction | None:
    text = text.strip()
    if not _NUMBER_RE.match(text):
        return None
    return _literal_value(text, to_int)


def _literal_value(text: str, to_int=int) -> Fraction | None:
    """``Fraction(text)`` for text matching NUMBER_PATTERN whole, without its
    string parsing. Each part goes through ``to_int`` on its own, so with
    int(), as there, a zero denominator or a part past CPython's digit limit
    gives None."""
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(to_int(num), to_int(den))
        if "." in text:
            whole, _, decimal = text.partition(".")
            scale = 10 ** len(decimal)
            value = to_int(whole.lstrip("+-") or "0") * scale + to_int(decimal)
            return Fraction(-value if whole.startswith("-") else value, scale)
        return Fraction(to_int(text))
    except (ValueError, ZeroDivisionError):
        return None


def is_terminating_decimal(value: Fraction) -> bool:
    """True when the lowest-terms denominator has only 2 and 5 as factors."""
    den = value.denominator
    for prime in (2, 5):
        while den % prime == 0:
            den //= prime
    return den == 1


def _int_text(n: int) -> str:
    """``str(n)``, also past CPython's int-to-str digit limit, where the
    digits of the two halves of ``n`` split at a power of ten are joined."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _int_text(-n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10**k)
    return _int_text(high) + _int_text(low).rjust(k, "0")


def _text_int(text: str) -> int:
    """``int(text)`` for a digit run of NUMBER_PATTERN with its sign, also
    past CPython's int-to-str digit limit, where the values of the text's two
    halves are joined at a power of ten: the inverse of ``_int_text``."""
    try:
        return int(text)
    except ValueError:
        if len(text) < 2:
            raise
    if text[0] in "+-":
        value = _text_int(text[1:])
        return -value if text[0] == "-" else value
    k = len(text) // 2
    return _text_int(text[:-k]) * 10**k + _text_int(text[-k:])


def format_number(value: Fraction) -> str:
    """Shortest exact rendering: a decimal when terminating, else ``p/q``.

    Total on every Fraction: gold answers and rewards, unlike solver values,
    are not bounded by MAX_VALUE_BITS.
    """
    num, den = value.numerator, value.denominator
    if den == 1:
        return _int_text(num)
    twos = fives = 0
    d = den
    while d % 2 == 0:
        twos += 1
        d //= 2
    while d % 5 == 0:
        fives += 1
        d //= 5
    if d != 1:
        return f"{_int_text(num)}/{_int_text(den)}"
    digits = max(twos, fives)
    scaled = abs(num) * 10**digits // den
    text = _int_text(scaled).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:].rstrip("0")
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


# Characters of a rejected value's repr that an error message shows.
_REPR_LIMIT = 60


def _brief_repr(value: object) -> str:
    """``repr(value)`` for an error message; past _REPR_LIMIT characters, cut
    there and followed by the value's type and length."""
    if type(value) is int and value.bit_length() > 4 * _REPR_LIMIT:
        return f"an int of {value.bit_length()} bits"  # its repr may pass the digit limit
    text = repr(value)
    if len(text) <= _REPR_LIMIT:
        return text
    try:
        size = f"length {len(value)}"
    except TypeError:
        size = f"repr length {len(text)}"
    return f"{text[:_REPR_LIMIT]}... ({type(value).__name__}, {size})"
