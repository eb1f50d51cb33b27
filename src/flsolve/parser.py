"""Line-oriented parser for the pseudocode language.

The grammar is one statement per line::

    <var> = [<operator>](<args>) # <comment>
    [return](<var>) # <comment>

A line ends at ``\n``, and a ``\r`` just before it is dropped; ``\r``,
``\x0c``, ``\u2028`` and the other breaks of ``str.splitlines`` are ordinary
characters anywhere else in a line. The session runtime reads lines the same
way, so a text gets one answer from either.

Bracketed operator symbols such as ``[subtract]`` are atomic tokens, a ``#``
starts a comment running to end of line (one inside a [find] description
stays in it: see ``_split_line``), whitespace is insignificant, and a
single trailing comma at line end is tolerated (some listings format programs
that way). Parsing never raises on bad input: every line is classified
independently so a malformed program yields a full list of errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .program import (
    FIND,
    OPERATOR_ARITY,
    OPERATOR_BY_NAME,
    RETURN,
    CommentAnnotation,
    Operator,
    Program,
    Statement,
    VarRef,
)
from .values import NUMBER_PATTERN, _literal_value

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


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# A leading minus is part of the literal only in argument position; nothing
# else in statement bodies uses '-'.
_NUMBER_BODY = r"-?(?:\d+\.\d+|\d+(?:/\d+)?)"

# Whole-body shapes of well-formed statements, for parse_line's fast path.
# A [find] description runs to the last ')' on the body, as in _TOKEN_RE; a
# call takes one or two arguments, each an identifier (odd groups) or a
# number literal (even groups).
_FIND_BODY_RE = re.compile(rf"\s*({_IDENT})\s*=\s*\[find\]\s*\((.*)\)\s*", re.DOTALL)
_ARG = rf"(?:({_IDENT})|({_NUMBER_BODY}))"
_CALL_BODY_RE = re.compile(
    rf"\s*(?:({_IDENT})\s*=\s*)?\[({_IDENT})\]\s*\(\s*{_ARG}(?:\s*,\s*{_ARG})?\s*\)\s*"
)
# One token of a body off the fast path, after optional whitespace: a
# [find] and its argument (a description up to the last ')' on the body, or
# to its end when no ')' follows), another bracketed operator, punctuation,
# a number literal, an identifier, or a stray character.
_TOKEN_RE = re.compile(
    rf"\s*(?:\[(find)\]\s*(?:\((?:(.*)\)|(.*)))?|\[({_IDENT})\]|([(),=])"
    rf"|({_NUMBER_BODY})|({_IDENT})|(.))",
    re.DOTALL,
)
# VarRefs are immutable, so the fast path shares one per recent name.
_var_ref = lru_cache(maxsize=1024)(VarRef)
# The ')' that closes a [find] description holding a '#': the first one
# followed only by whitespace, or by whitespace and the comment's '#'.
_FIND_CLOSE_RE = re.compile(r"\)\s*(#|\Z)")
# A comment's declared value: the whole comment, or the text after its last
# '=', is one number literal.
_COMMENT_VALUE_RE = re.compile(rf"(?:.*=)?\s*({NUMBER_PATTERN})\s*", re.DOTALL)


def _lines(text: str) -> list[str]:
    """The lines of ``text``, split as the session reads them: at ``\n``, with
    one ``\r`` before it dropped and no empty last line. Equal to
    ``text.splitlines()`` when every break in ``text`` is ``\n`` or ``\r\n``.
    """
    lines = text.replace("\r\n", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _split_line(raw: str) -> tuple[str, str, str]:
    """``(body, "#" or "", comment)`` of a line, after dropping trailing
    whitespace and one trailing comma.

    The comment starts at the first ``#``, except where a [find] description
    holds one: when the text before the first ``#`` holds ``[find]`` but does
    not end in ``)``, the body runs to the first later ``)`` followed only by
    whitespace, or by whitespace and a ``#``, if there is one.

    The line is blank, and parse_line gives None, exactly when the body is
    whitespace only.
    """
    line = raw.rstrip()
    if line.endswith(","):
        line = line[:-1].rstrip()
    parts = line.partition("#")
    body = parts[0]
    if parts[1] and "[find]" in body and not body.rstrip().endswith(")"):
        close = _FIND_CLOSE_RE.search(line, len(body))
        if close is not None:
            return line[: close.start() + 1], close.group(1), line[close.end():]
    return parts


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
    Statement directly. Any other line goes to _classify, which finds its
    error.
    """
    body, hash_mark, comment = _split_line(raw)
    if not body.strip():
        return None
    shape = _match_body(body)
    if shape is None:
        return _classify(raw, line_no)
    annotation = parse_comment_value(comment) if hash_mark else None
    op, args, target = shape
    return Statement(op, args, target, annotation)


def _match_body(body: str) -> tuple[Operator, tuple, str | None] | None:
    """``(op, args, target)`` of a well-formed statement body, else None.

    None means only "not on the fast path": _classify decides. One
    pattern is tried per body: without the literal ``[find]`` the find shape
    cannot match, and with it a call shape could only name ``find``.
    """
    if "[find]" in body:
        match = _FIND_BODY_RE.fullmatch(body)
        if match is None:
            return None
        description = match.group(2).strip()
        return (FIND, (description,), match.group(1)) if description else None
    match = _CALL_BODY_RE.fullmatch(body)
    if match is None:
        return None
    target, name, ident1, number1, ident2, number2 = match.groups()
    op = OPERATOR_BY_NAME.get(name)
    if op is None or op is FIND or (op is RETURN) != (target is None):
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
    if op is RETURN and not isinstance(args[0], VarRef):
        return None
    return op, tuple(args), target


def _classify(raw: str, line_no: int) -> Statement | ParseError:
    """parse_line for a non-blank line off the fast path: the line's first
    fault, in the order and the words of the token walk that the tests keep
    as the reference (``reference_parse_line`` in ``tests/oracles.py``)."""
    body, hash_mark, comment = _split_line(raw)

    def err(kind: str, message: str) -> ParseError:
        return ParseError(line_no, kind, message)

    # (kind, text, value) per token. A [find] gives an op token, then "(",
    # the description and ")" as far as the body has them.
    tokens: list[tuple[str, str, object]] = []
    pos, end = 0, len(body.rstrip())
    while pos < end:
        match = _TOKEN_RE.match(body, pos, end)
        pos = match.end()
        find, closed, unclosed, name, punct, number, ident, stray = match.groups()
        if stray is not None:
            return err("malformed-line", f"unexpected character {stray!r}")
        if find is not None:
            tokens.append(("op", find, FIND))
            description = closed if closed is not None else unclosed
            if description is not None:
                tokens += [("punct", "(", None), ("description", description.strip(), None)]
            if closed is not None:
                tokens.append(("punct", ")", None))
        elif name is not None:
            tokens.append(("op", name, OPERATOR_BY_NAME.get(name)))
        elif punct is not None:
            tokens.append(("punct", punct, None))
        elif number is not None:
            tokens.append(("number", number, _literal_value(number)))
        else:
            tokens.append(("ident", ident, None))
    kinds = [kind for kind, _, _ in tokens]
    texts = [text for _, text, _ in tokens]

    target: str | None = None
    pos = 0
    if kinds[0] == "ident":
        if len(tokens) < 2 or texts[1] != "=":
            return err("malformed-line", "expected '=' after the target variable")
        target = texts[0]
        pos = 2
    if pos >= len(tokens) or kinds[pos] != "op":
        return err("malformed-line", "expected a bracketed operator")
    _, name, op = tokens[pos]
    if op is None:
        return err("unknown-operator", f"unknown operator [{name}]")
    pos += 1

    if op is RETURN and target is not None:
        return err("malformed-line", "[return] does not take a target variable")
    if op is not RETURN and target is None:
        return err("malformed-line", f"[{op.value}] requires a target variable")

    if pos >= len(tokens) or texts[pos] != "(":
        return err("malformed-line", "expected '(' after the operator")
    pos += 1

    args: list = []
    if op is FIND:
        if pos < len(tokens) and kinds[pos] == "description" and texts[pos]:
            args.append(texts[pos])
            pos += 1
        else:
            return err("malformed-line", "[find] requires a quantity description")
    else:
        expect_arg = True
        while pos < len(tokens) and texts[pos] != ")":
            kind, text, value = tokens[pos]
            if expect_arg:
                if kind == "ident":
                    args.append(VarRef(text))
                elif kind == "number":
                    if value is None:
                        return err("malformed-line", f"invalid numeric literal {text!r}")
                    args.append(value)
                else:
                    return err("malformed-line", f"unexpected token {text!r} in argument list")
                expect_arg = False
            else:
                if text != ",":
                    return err("malformed-line", f"expected ',' before {text!r}")
                expect_arg = True
            pos += 1
        if expect_arg and args:
            return err("malformed-line", "dangling ',' in argument list")

    if pos >= len(tokens) or texts[pos] != ")":
        return err("malformed-line", "expected ')' to close the argument list")
    pos += 1
    if pos < len(tokens):
        extra = " ".join(texts[pos:])
        return err("trailing-garbage", f"unexpected text after ')': {extra!r}")

    arity = OPERATOR_ARITY[op]
    if len(args) != arity:
        return err(
            "bad-arity",
            f"[{op.value}] takes {arity} argument{'s' if arity != 1 else ''}, got {len(args)}",
        )
    if op is RETURN and not isinstance(args[0], VarRef):
        return err("malformed-line", "[return] takes a variable reference")

    annotation = parse_comment_value(comment) if hash_mark else None
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
    for line_no, raw in enumerate(_lines(source), start=1):
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
