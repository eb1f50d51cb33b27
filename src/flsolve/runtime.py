"""Generation-session orchestration.

A session drives a pluggable text generator through the program protocol.
It reads the generator's output one line at a time, pulling chunks until a
newline or the end of output, and parses the line whole. An arithmetic
statement ends at its first ``)``: the session evaluates it exactly, drops
the rest of its line (the generator's own comment too), and emits the text
through ``)`` with the solver's result appended as a comment. The generator
sees that annotated line in the context of its next pull. The solver is
thus the single source of numeric truth for computed values. [find] and
[return] lines pass through untouched (apart from [return] ending the
session). Every line is read whole before it is parsed, and the character
cap is charged per line read, so how output is cut into chunks changes no
outcome.

Parse and evaluation failures are recorded in the transcript rather than
raised, so a syntactically broken generation is data, not a crash.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Protocol, Sequence

from .interpreter import (
    Environment,
    EvalError,
    EvalOutcome,
    annotation_text,
    apply_operator,
    evaluate_statement,
    resolve_operands,
)
from .parser import (
    ParseError,
    _static_check,
    parse_line,
    parse_program,
)
from .program import CommentAnnotation, ProblemRecord, Program, Statement

# Default instruction block for prompting a language-model generator. The
# exact wording is a working stand-in, not a contract; swap in your own via
# the `instructions` arguments.
DEFAULT_INSTRUCTIONS = (
    "Translate the question into pseudocode, one statement per line. Declare "
    "every quantity with a [find] statement whose comment records its value "
    "(write ? when the value is unknown). Combine variables with [add], "
    "[subtract], [multiply], [divide], [lcm], [gcd], [round], [floor], or "
    "[mod]. Declare the answer with [return]."
)


class GeneratorInterface(Protocol):
    """A stateful generation session.

    ``next_chunk`` receives the full context so far (prompt plus everything
    emitted and injected) and returns the next chunk of text. An empty
    string means end of output. One session serves one problem.
    """

    def next_chunk(self, context: str) -> str: ...


@dataclass
class ScriptedGenerator:
    """Replays fixed text in fixed-size chunks, ignoring the context.

    ``chunk_size <= 0`` replays everything in a single chunk.
    """

    text: str
    chunk_size: int = 0
    _pos: int = field(default=0, init=False, repr=False)

    def next_chunk(self, context: str) -> str:
        if self._pos >= len(self.text):
            return ""
        if self.chunk_size <= 0:
            chunk = self.text[self._pos :]
        else:
            chunk = self.text[self._pos : self._pos + self.chunk_size]
        self._pos += len(chunk)
        return chunk

    @classmethod
    def from_file(cls, path: str, chunk_size: int = 0) -> "ScriptedGenerator":
        with open(path, encoding="utf-8") as fh:
            return cls(fh.read(), chunk_size)


@dataclass(frozen=True)
class SessionBudget:
    max_lines: int = 64
    max_chars: int = 16384


@dataclass(frozen=True)
class EmittedLine:
    source: str  # "generator" | "solver-injected"
    text: str


# Line boundaries of str.splitlines other than "\n". The session splits lines
# on "\n" only, so an emitted line holding one of these is several lines to
# parse_program.
_FOREIGN_LINE_BREAK = re.compile("[\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


@dataclass(frozen=True)
class SessionTranscript:
    """What a session emitted and how it ended.

    ``entries`` holds the statement the session parsed for each emitted line
    that parsed, keyed by its line number in ``generated_source``; ``None``
    means unknown, and ``program`` then parses the text again.
    """

    prompt: str
    emitted_lines: tuple[EmittedLine, ...]
    outcome: EvalOutcome
    halted_count: int
    entries: tuple[tuple[int, Statement], ...] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def generated_source(self) -> str:
        return "\n".join(line.text for line in self.emitted_lines)

    @property
    def program(self) -> Program | None:
        """``parse_program(generated_source)`` if that gives a Program, else None.

        Built from the statements the session already parsed, so the text is
        not parsed twice.
        """
        return self._program()[0]

    def _program(self) -> tuple[Program | None, bool]:
        """``program``, and whether it holds the statements the session ran.

        Only then is ``outcome`` its evaluation. Text parsed again at a
        foreign line break can differ: ``var1 = [find](a) # 3\r[return](var1)``
        stalls the session, yet parses to a program that answers 3.
        """
        source = self.generated_source
        # Checked before the parse-error shortcut: split at such a break, a
        # line the session could not parse may parse.
        if self.entries is None or _FOREIGN_LINE_BREAK.search(source):
            parsed = parse_program(source)
            return (parsed if isinstance(parsed, Program) else None), False
        error = self.outcome.error
        if (error is not None and error.kind == "parse-error") or _static_check(self.entries):
            return None, True
        return Program(tuple(stmt for _, stmt in self.entries)), True


def assemble_prompt(
    question: str,
    instructions: str,
    exemplars: Sequence[ProblemRecord] = (),
    k: int = 0,
) -> str:
    """Deterministic prompt: instructions, k exemplars, question scaffold.

    Blocks are separated by one blank line and the prompt ends with the
    scaffold line the generator is expected to continue.
    """
    if not 0 <= k <= len(exemplars):
        raise ValueError(
            f"requested {k} exemplars; k must be between 0 and the {len(exemplars)} available"
        )
    blocks: list[str] = []
    if instructions.strip():
        blocks.append(instructions.rstrip())
    for record in exemplars[:k]:
        blocks.append(
            f"Question: {record.question}\nPseudocode:\n{record.gold_program.rstrip()}"
        )
    blocks.append(f"Question: {question}\nPseudocode:\n")
    return "\n\n".join(blocks)


def strip_computed_comments(source: str) -> str:
    """Drop comments from arithmetic and [return] lines, keeping [find] values."""
    out: list[str] = []
    for raw in source.splitlines():
        stmt = parse_line(raw)
        if isinstance(stmt, Statement) and not stmt.is_find and "#" in raw:
            raw = raw.split("#", 1)[0].rstrip()
        out.append(raw)
    return "\n".join(out)


class _SessionFeed:
    """Buffers generator output, pulling chunks on demand under a budget."""

    def __init__(self, gen: GeneratorInterface, max_chars: int):
        self.gen = gen
        self.max_chars = max_chars
        self.buffer = ""
        self.ended = False
        self.consumed = 0

    def pull(self, context: str) -> bool:
        if self.ended:
            return False
        chunk = self.gen.next_chunk(context)
        if chunk == "":
            self.ended = True
            return False
        self.buffer += chunk
        return True

    def read_line(self, context: str) -> str | None:
        """The next line without its newline, read through the newline or the
        end of output; None once the output is used up.

        Each line read is charged through its newline, so text the session
        never reads costs nothing and the cap does not hang on the chunking.
        A partial line fails as soon as it alone passes the remaining cap.
        """
        while "\n" not in self.buffer:
            if len(self.buffer) > self.max_chars - self.consumed or not self.pull(context):
                break
        line, newline, self.buffer = self.buffer.partition("\n")
        self.consumed += len(line) + len(newline)
        if self.consumed > self.max_chars:
            raise EvalError(
                "budget-exhausted", f"generator output exceeded {self.max_chars} characters"
            )
        return line if newline else line or None


def _arithmetic_prefix(line: str) -> Statement | None:
    """The arithmetic statement that ends at the line's first ')', if any."""
    close = line.find(")")
    if close == -1 or "#" in line[:close]:
        return None
    parsed = parse_line(line[: close + 1])
    if isinstance(parsed, Statement) and parsed.is_arithmetic:
        return parsed
    return None


def run_session(
    gen: GeneratorInterface,
    question: str,
    instructions: str = DEFAULT_INSTRUCTIONS,
    *,
    budget: SessionBudget = SessionBudget(),
    exemplars: Sequence[ProblemRecord] = (),
    k: int = 0,
) -> SessionTranscript:
    """Drive one generation session to completion.

    Terminates on a successful [return], on generator end-of-output, on
    budget exhaustion, or on the first parse or evaluation error. The
    transcript's ``halted_count`` equals the number of solver-injected
    comments, which equals the arithmetic statements evaluated.
    """
    prompt = assemble_prompt(question, instructions, exemplars, k)
    context = prompt
    env = Environment()
    emitted: list[EmittedLine] = []
    entries: list[tuple[int, Statement]] = []
    halted = 0
    statement_index = 0
    feed = _SessionFeed(gen, budget.max_chars)

    def finish(answer: Fraction | None, error: EvalError | None) -> SessionTranscript:
        return SessionTranscript(
            prompt, tuple(emitted), EvalOutcome(answer, env, error), halted, tuple(entries)
        )

    def emit(source: str, text: str, stmt: Statement) -> None:
        emitted.append(EmittedLine(source, text))
        entries.append((len(emitted), stmt))

    try:
        while True:
            if len(emitted) >= budget.max_lines:
                raise EvalError(
                    "budget-exhausted", f"line budget of {budget.max_lines} exhausted"
                )

            line = feed.read_line(context)
            if line is None:
                raise EvalError(
                    "generator-stalled", "generator ended before a [return] statement"
                )
            if not line.strip():
                continue
            stmt = parse_line(line, len(emitted) + 1)
            if stmt is None:  # a comment-only line; parse_program skips it too
                continue
            if isinstance(stmt, ParseError):
                prefix = _arithmetic_prefix(line)
                if prefix is None:
                    emitted.append(EmittedLine("generator", line.strip()))
                    raise EvalError("parse-error", f"{stmt.kind}: {stmt.message}")
                stmt = prefix

            if stmt.is_arithmetic:
                # The statement ends at its first ')'. The emitted line drops
                # the rest, the generator's comment included, and on success
                # carries the solver's; its entry does the same.
                stmt_text = line[: line.index(")") + 1].strip()
                try:
                    operands = resolve_operands(stmt, env)
                    value = apply_operator(stmt.op, operands)
                    env = env.bind(stmt.target, value)
                except EvalError as err:
                    if err.statement_index is None:
                        err.statement_index = statement_index
                    emit("generator", stmt_text, Statement(stmt.op, stmt.args, stmt.target))
                    raise
                # The comment ends in "= format_number(value)", so
                # parse_comment_value would read back this annotation.
                comment = annotation_text(stmt, operands, value)
                annotated = f"{stmt_text} # {comment}"
                emit(
                    "solver-injected",
                    annotated,
                    Statement(stmt.op, stmt.args, stmt.target, CommentAnnotation(comment, value)),
                )
                halted += 1
                context += annotated + "\n"
                statement_index += 1
                continue

            stmt_text = line.strip()
            emit("generator", stmt_text, stmt)
            try:
                value, env = evaluate_statement(stmt, env)
            except EvalError as err:
                if err.statement_index is None:
                    err.statement_index = statement_index
                raise
            context += stmt_text + "\n"
            statement_index += 1
            if stmt.is_return:
                return finish(value, None)
    except EvalError as err:
        return finish(None, err)
