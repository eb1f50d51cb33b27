"""Line-oriented parser for the pseudocode language.

The grammar is one statement per line::

    <var> = [<operator>](<args>) # <comment>
    [return](<var>) # <comment>

Bracketed operator symbols such as ``[subtract]`` are atomic tokens, a ``#``
starts a comment running to end of line, whitespace is insignificant, and a
single trailing comma at line end is tolerated (some listings format programs
that way). Parsing never raises on bad input: every line is classified
independently so a malformed program yields a full list of errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

from .program import (
    OPERATOR_ARITY,
    OPERATOR_BY_NAME,
    CommentAnnotation,
    Operator,
    Program,
    Statement,
    VarRef,
)
from .values import NUMBER_PATTERN, _literal_value, parse_number

PARSE_ERROR_KINDS = (
    "malformed-line",
    "unknown-operator",
    "bad-arity",
    "undefined-variable",
    "duplicate-return",
    "trailing-garbage",
)


@dataclass(frozen=True)
class ParseError:
    line_number: int
    kind: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line_number}: {self.kind}: {self.message}"


@dataclass(frozen=True)
class Token:
    kind: str  # ident | op | number | punct | description | comment | error
    text: str
    line: int = 1
    value: object = None


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# A leading minus is part of the literal only in argument position; nothing
# else in statement bodies uses '-'.
_NUMBER_BODY = r"-?(?:\d+\.\d+|\d+(?:/\d+)?)"
_BRACKET_OP_RE = re.compile(rf"\[({_IDENT})\]")
_IDENT_RE = re.compile(_IDENT)
_NUMBER_BODY_RE = re.compile(_NUMBER_BODY)

# Whole-body shapes of well-formed statements, for parse_line's fast path.
# A [find] description runs to the last ')' on the body, as in
# _capture_description; a call takes one or two arguments, each an
# identifier (odd groups) or a number literal (even groups).
_FIND_BODY_RE = re.compile(rf"\s*({_IDENT})\s*=\s*\[find\]\s*\((.*)\)\s*", re.DOTALL)
_ARG = rf"(?:({_IDENT})|({_NUMBER_BODY}))"
_CALL_BODY_RE = re.compile(
    rf"\s*(?:({_IDENT})\s*=\s*)?\[({_IDENT})\]\s*\(\s*{_ARG}(?:\s*,\s*{_ARG})?\s*\)\s*"
)
# VarRefs are immutable, so the fast path shares one per recent name.
_var_ref = lru_cache(maxsize=1024)(VarRef)
# A comment's declared value: the whole comment, or the text after its last
# '=', is one number literal.
_COMMENT_VALUE_RE = re.compile(rf"(?:.*=)?\s*({NUMBER_PATTERN})\s*", re.DOTALL)


def tokenize(source: str) -> list[Token]:
    """Tokenize every line of ``source``; empty input yields no tokens."""
    tokens: list[Token] = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        tokens.extend(tokenize_line(raw, line_no))
    return tokens


def _split_line(raw: str) -> tuple[str, str, str]:
    """``(body, "#" or "", comment)`` of a line, after dropping trailing
    whitespace and one trailing comma.

    The line is blank, and parse_line gives None, exactly when the body is
    whitespace only.
    """
    line = raw.rstrip()
    if line.endswith(","):
        line = line[:-1].rstrip()
    return line.partition("#")


def tokenize_line(raw: str, line_no: int = 1) -> list[Token]:
    body, hash_mark, comment = _split_line(raw)
    tokens = _scan_body(body, line_no)
    if hash_mark:
        tokens.append(Token("comment", comment.strip(), line_no))
    return tokens


def _scan_body(body: str, line_no: int) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(body)
    while i < n:
        ch = body[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "[":
            match = _BRACKET_OP_RE.match(body, i)
            if match is None:
                tokens.append(Token("error", ch, line_no))
                i += 1
                continue
            name = match.group(1)
            op = OPERATOR_BY_NAME.get(name)
            tokens.append(Token("op", name, line_no, op))
            i = match.end()
            if op is Operator.FIND:
                i = _capture_description(body, i, line_no, tokens)
            continue
        if ch in "(),=":
            tokens.append(Token("punct", ch, line_no))
            i += 1
            continue
        match = _NUMBER_BODY_RE.match(body, i)
        if match is not None:
            text = match.group()
            tokens.append(Token("number", text, line_no, parse_number(text)))
            i = match.end()
            continue
        match = _IDENT_RE.match(body, i)
        if match is not None:
            tokens.append(Token("ident", match.group(), line_no))
            i = match.end()
            continue
        tokens.append(Token("error", ch, line_no))
        i += 1
    return tokens


def _capture_description(body: str, i: int, line_no: int, tokens: list[Token]) -> int:
    """Capture a [find] argument as one free-text token.

    Descriptions may contain spaces and inner parentheses, so the argument
    runs from the opening parenthesis to the last ')' on the line body.
    """
    n = len(body)
    while i < n and body[i].isspace():
        i += 1
    if i >= n or body[i] != "(":
        return i
    tokens.append(Token("punct", "(", line_no))
    close = body.rfind(")")
    if close <= i:
        tokens.append(Token("description", body[i + 1 :].strip(), line_no))
        return n
    tokens.append(Token("description", body[i + 1 : close].strip(), line_no))
    tokens.append(Token("punct", ")", line_no))
    return close + 1


def parse_comment_value(comment: str) -> CommentAnnotation:
    """Lenient read of a comment's numeric claim.

    ``"7"`` declares 7, ``"?"`` flags an unknown, and texts shaped like
    ``"8-(-3) = 11"`` declare the value after the final ``=``. Anything else
    is kept verbatim with no declared value.
    """
    text = comment.strip()
    if text.endswith(","):
        text = text[:-1].rstrip()
    if text == "?":
        return CommentAnnotation(text, None, True)
    match = _COMMENT_VALUE_RE.fullmatch(text)
    value = None if match is None else _literal_value(match.group(1))
    return CommentAnnotation(text, value, False)


def parse_line(raw: str, line_no: int = 1) -> Statement | ParseError | None:
    """Parse one line; None for blank lines.

    A well-formed line matches one of two anchored patterns and becomes a
    Statement directly. Any other line goes to the token walk, which finds
    its error.
    """
    body, hash_mark, comment = _split_line(raw)
    if not body.strip():
        return None
    shape = _match_body(body)
    if shape is None:
        return _walk_tokens(raw, line_no)
    annotation = parse_comment_value(comment) if hash_mark else None
    op, args, target = shape
    return Statement(op, args, target, annotation)


def _match_body(body: str) -> tuple[Operator, tuple, str | None] | None:
    """``(op, args, target)`` of a well-formed statement body, else None.

    None means only "not on the fast path": the token walk decides. One
    pattern is tried per body: without the literal ``[find]`` the find shape
    cannot match, and with it a call shape could only name ``find``.
    """
    if "[find]" in body:
        match = _FIND_BODY_RE.fullmatch(body)
        if match is None:
            return None
        description = match.group(2).strip()
        return (Operator.FIND, (description,), match.group(1)) if description else None
    match = _CALL_BODY_RE.fullmatch(body)
    if match is None:
        return None
    target, name, ident1, number1, ident2, number2 = match.groups()
    op = OPERATOR_BY_NAME.get(name)
    if op is None or op is Operator.FIND or (op is Operator.RETURN) != (target is None):
        return None
    args: list = []
    for ident, number in ((ident1, number1), (ident2, number2)):
        if ident is not None:
            args.append(_var_ref(ident))
        elif number is not None:
            value = _literal_value(number)
            if value is None:
                return None
            args.append(value)
    if len(args) != OPERATOR_ARITY[op]:
        return None
    if op is Operator.RETURN and not isinstance(args[0], VarRef):
        return None
    return op, tuple(args), target


def _walk_tokens(raw: str, line_no: int) -> Statement | ParseError | None:
    """parse_line by tokens: the reference behaviour and the error classifier."""
    tokens = tokenize_line(raw, line_no)
    annotation = None
    if tokens and tokens[-1].kind == "comment":
        annotation = parse_comment_value(tokens[-1].text)
        tokens = tokens[:-1]
    if not tokens:
        return None

    def err(kind: str, message: str) -> ParseError:
        return ParseError(line_no, kind, message)

    for tok in tokens:
        if tok.kind == "error":
            return err("malformed-line", f"unexpected character {tok.text!r}")

    target: str | None = None
    pos = 0
    if tokens[0].kind == "ident":
        if len(tokens) < 2 or tokens[1].text != "=":
            return err("malformed-line", "expected '=' after the target variable")
        target = tokens[0].text
        pos = 2
    if pos >= len(tokens) or tokens[pos].kind != "op":
        return err("malformed-line", "expected a bracketed operator")
    op_token = tokens[pos]
    if op_token.value is None:
        return err("unknown-operator", f"unknown operator [{op_token.text}]")
    op: Operator = op_token.value
    pos += 1

    if op is Operator.RETURN and target is not None:
        return err("malformed-line", "[return] does not take a target variable")
    if op is not Operator.RETURN and target is None:
        return err("malformed-line", f"[{op.value}] requires a target variable")

    if pos >= len(tokens) or tokens[pos].text != "(":
        return err("malformed-line", "expected '(' after the operator")
    pos += 1

    args: list = []
    if op is Operator.FIND:
        if pos < len(tokens) and tokens[pos].kind == "description" and tokens[pos].text:
            args.append(tokens[pos].text)
            pos += 1
        else:
            return err("malformed-line", "[find] requires a quantity description")
    else:
        expect_arg = True
        while pos < len(tokens) and tokens[pos].text != ")":
            tok = tokens[pos]
            if expect_arg:
                if tok.kind == "ident":
                    args.append(VarRef(tok.text))
                elif tok.kind == "number":
                    if tok.value is None:
                        return err("malformed-line", f"invalid numeric literal {tok.text!r}")
                    args.append(tok.value)
                else:
                    return err("malformed-line", f"unexpected token {tok.text!r} in argument list")
                expect_arg = False
            else:
                if tok.text != ",":
                    return err("malformed-line", f"expected ',' before {tok.text!r}")
                expect_arg = True
            pos += 1
        if expect_arg and args:
            return err("malformed-line", "dangling ',' in argument list")

    if pos >= len(tokens) or tokens[pos].text != ")":
        return err("malformed-line", "expected ')' to close the argument list")
    pos += 1
    if pos < len(tokens):
        extra = " ".join(t.text for t in tokens[pos:])
        return err("trailing-garbage", f"unexpected text after ')': {extra!r}")

    arity = OPERATOR_ARITY[op]
    if len(args) != arity:
        return err(
            "bad-arity",
            f"[{op.value}] takes {arity} argument{'s' if arity != 1 else ''}, got {len(args)}",
        )
    if op is Operator.RETURN and not isinstance(args[0], VarRef):
        return err("malformed-line", "[return] takes a variable reference")

    return Statement(op, tuple(args), target=target, annotation=annotation)


def _static_check(entries: list[tuple[int, Statement]]) -> list[ParseError]:
    errors: list[ParseError] = []
    defined: set[str] = set()
    return_seen = False
    for line_no, stmt in entries:
        if return_seen:
            kind = "duplicate-return" if stmt.is_return else "trailing-garbage"
            what = "[return]" if stmt.is_return else "statement"
            errors.append(ParseError(line_no, kind, f"{what} after the program's [return]"))
            continue
        for arg in stmt.args:
            if isinstance(arg, VarRef) and arg.name not in defined:
                errors.append(
                    ParseError(
                        line_no,
                        "undefined-variable",
                        f"variable '{arg.name}' used before definition",
                    )
                )
        if stmt.is_return:
            return_seen = True
        elif stmt.target is not None:
            if stmt.target in defined:
                errors.append(
                    ParseError(line_no, "malformed-line", f"variable '{stmt.target}' redefined")
                )
            else:
                defined.add(stmt.target)
    return errors


def parse_program(source: str) -> Program | list[ParseError]:
    """Parse a whole program, reporting every error rather than stopping.

    Returns a Program only when all lines parse and the static checks pass:
    variables defined before use, assigned once, and nothing after [return].
    """
    entries: list[tuple[int, Statement]] = []
    errors: list[ParseError] = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        result = parse_line(raw, line_no)
        if result is None:
            continue
        if isinstance(result, ParseError):
            errors.append(result)
        else:
            entries.append((line_no, result))
    errors.extend(_static_check(entries))
    if errors:
        return sorted(errors, key=lambda e: e.line_number)
    return Program(tuple(stmt for _, stmt in entries))
