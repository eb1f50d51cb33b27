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

Each value is rendered once per session: a computed comment reuses the text
of each variable operand, kept by name from the line that computed it (or
from its [find] value's first use), and formats only its result and its
literals.

Parse and evaluation failures are recorded in the transcript rather than
raised, so a syntactically broken generation is data, not a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Protocol, Sequence

from .interpreter import (
    Environment,
    EvalError,
    EvalOutcome,
    _annotation,
    _operand_text,
    _step,
)
from .parser import ParseError, _lines, _split_line, _static_check, parse_line
from .program import CommentAnnotation, ProblemRecord, Program, Statement, VarRef
from .values import format_number

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

    ``chunk_size <= 0`` replays everything in a single chunk. The chunks are
    cut once, when the generator is built, and handed out one per call.
    """

    text: str
    chunk_size: int = 0
    _chunks: Iterator[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        text, size = self.text, self.chunk_size
        if size <= 0:
            size = len(text) or 1
        self._chunks = iter([text[i : i + size] for i in range(0, len(text), size)])

    def next_chunk(self, context: str) -> str:
        return next(self._chunks, "")


@dataclass(frozen=True)
class SessionBudget:
    max_lines: int = 64
    max_chars: int = 16384


@dataclass(frozen=True)
class EmittedLine:
    source: str  # "generator" | "solver-injected"
    text: str


@dataclass(frozen=True, repr=False)
class SessionTranscript:
    """What a session emitted and how it ended.

    ``entries`` holds the statement the session parsed for each emitted line
    that parsed, keyed by its line number in ``generated_source``; an
    arithmetic statement there may carry the generator's own comment, which
    its emitted line drops. The parser splits that text into exactly the
    emitted lines, so ``program`` is built from ``entries`` and the solver's
    comments, and a program's answer is ``outcome.answer``.

    The session keeps each emitted line's text and source; ``emitted_lines``
    is built from them when first read, and kept. A transcript compares,
    hashes, prints, pickles and copies by ``(prompt, emitted_lines, outcome,
    halted_count)``.
    """

    prompt: str
    outcome: EvalOutcome
    halted_count: int
    # Each emitted line's text, and its source: "generator" or "solver-injected".
    _texts: tuple[str, ...]
    _sources: tuple[str, ...]
    entries: tuple[tuple[int, Statement], ...] = field(compare=False)
    # The solver's (comment, value) for each computed line, in order.
    _solved: tuple[tuple[str, Fraction], ...] = field(compare=False)

    @cached_property
    def emitted_lines(self) -> tuple[EmittedLine, ...]:
        return tuple(map(EmittedLine, self._sources, self._texts))

    def __repr__(self) -> str:
        return (
            f"SessionTranscript(prompt={self.prompt!r}, emitted_lines={self.emitted_lines!r}, "
            f"outcome={self.outcome!r}, halted_count={self.halted_count!r})"
        )

    @property
    def generated_source(self) -> str:
        """The emitted lines joined by newlines, a string that ``total_reward``
        scores through this transcript; text derived from it is a plain str."""
        return _SessionSource("\n".join(self._texts), self)

    @property
    def program(self) -> Program | None:
        """``parse_program(generated_source)`` if that gives a Program, else None.

        Built when read, from the statements the session already parsed, so
        the text is not parsed twice: each computed statement gets the
        solver's comment, and an arithmetic statement that failed gets none.
        """
        if not self._compiles():
            return None
        solved = iter(self._solved)
        statements = []
        for _, stmt in self.entries:
            if stmt.is_arithmetic:
                pair = next(solved, None)
                annotation = None if pair is None else CommentAnnotation(*pair)
                stmt = Statement(stmt.op, stmt.args, stmt.target, annotation)
            statements.append(stmt)
        return Program(tuple(statements))

    def _compiles(self) -> bool:
        """Whether ``program`` is a Program. The parser's static check (define
        before use, assign once, nothing after [return]) runs only when the
        session ended in an error: a session that answered has enforced each
        of its rules."""
        error = self.outcome.error
        return error is None or (error.kind != "parse-error" and not _static_check(self.entries))


class _SessionSource(str):
    """A transcript's ``generated_source``, holding the transcript.

    Slices, ``+``, ``strip`` and ``str()`` of it are plain ``str``, and it
    pickles and copies as one, so only the string a session returned carries
    its transcript.
    """

    def __new__(cls, text: str, transcript: SessionTranscript) -> _SessionSource:
        source = super().__new__(cls, text)
        source.transcript = transcript
        return source

    def __reduce__(self):
        return str, (str(self),)


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
    for raw in _lines(source):
        stmt = parse_line(raw)
        body, hash_mark, _ = _split_line(raw)
        if hash_mark and isinstance(stmt, Statement) and not stmt.is_find:
            raw = body.rstrip()
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

    def pull(self, context: str) -> str:
        """The generator's next chunk; "" once its output has ended."""
        if self.ended:
            return ""
        chunk = self.gen.next_chunk(context)
        if chunk == "":
            self.ended = True
        return chunk

    def read_line(self, context: str) -> str | None:
        """The next line without its newline, read through the newline or the
        end of output; None once the output is used up.

        Each line read is charged through its newline, so text the session
        never reads costs nothing and the cap does not hang on the chunking.
        A partial line fails as soon as it alone passes the remaining cap.
        Only each new chunk is scanned for the newline.
        """
        buffer = self.buffer
        if "\n" not in buffer:
            room = self.max_chars - self.consumed
            while len(buffer) <= room:
                chunk = self.pull(context)
                if not chunk:
                    break
                buffer += chunk
                if "\n" in chunk:
                    break
        line, newline, self.buffer = buffer.partition("\n")
        self.consumed += len(line) + len(newline)
        if self.consumed > self.max_chars:
            raise EvalError(
                "budget-exhausted", f"generator output exceeded {self.max_chars} characters"
            )
        return line if newline else line or None


def _arithmetic_prefix(line: str) -> Statement | None:
    """The arithmetic statement that ends at the first ')' before any comment."""
    close = _split_line(line)[0].find(")")
    if close == -1:
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
) -> SessionTranscript:
    """Drive one generation session to completion.

    Terminates on a successful [return], on generator end-of-output, on
    budget exhaustion, or on the first parse or evaluation error. The
    transcript's ``halted_count`` equals the number of solver-injected
    comments, which equals the arithmetic statements evaluated.
    """
    prompt = assemble_prompt(question, instructions)
    context = prompt
    env = Environment()
    texts: list[str] = []  # one per emitted line
    sources: list[str] = []
    entries: list[tuple[int, Statement]] = []
    solved: list[tuple[str, Fraction]] = []  # one per halt
    # Operand text of each variable rendered so far, by name.
    rendered: dict[str, str] = {}
    feed = _SessionFeed(gen, budget.max_chars)
    max_lines = budget.max_lines

    try:
        while True:
            line_no = len(texts) + 1
            if line_no > max_lines:
                raise EvalError("budget-exhausted", f"line budget of {max_lines} exhausted")

            line = feed.read_line(context)
            if line is None:
                raise EvalError(
                    "generator-stalled", "generator ended before a [return] statement"
                )
            stmt = parse_line(line, line_no)
            if stmt is None:  # a blank or comment-only line; parse_program skips it too
                continue
            if isinstance(stmt, ParseError):
                prefix = _arithmetic_prefix(line)
                if prefix is None:
                    texts.append(line.strip())
                    sources.append("generator")
                    raise EvalError("parse-error", f"{stmt.kind}: {stmt.message}")
                stmt = prefix

            if stmt.is_arithmetic:
                # The statement ends at its first ')'. The emitted line drops
                # the rest, the generator's comment included, and on success
                # carries the solver's.
                stmt_text = line[: line.index(")") + 1].strip()
            else:
                stmt_text = line.strip()
            entries.append((line_no, stmt))
            try:
                operands, value = _step(stmt, env)
            except EvalError as err:
                if err.statement_index is None:
                    err.statement_index = len(entries) - 1  # this statement, counted from 0
                texts.append(stmt_text)
                sources.append("generator")
                raise
            if operands is None:
                texts.append(stmt_text)
                sources.append("generator")
                context += stmt_text + "\n"
                if stmt.is_return:
                    return SessionTranscript(
                        prompt, EvalOutcome(value, env, None), len(solved),
                        tuple(texts), tuple(sources), tuple(entries), tuple(solved),
                    )
                continue
            # The comment is annotation_text(stmt, operands, value), with
            # each variable operand's text rendered once per session. It
            # ends in "= format_number(value)", so parse_comment_value
            # would read back this annotation.
            parts = []
            for arg, operand in zip(stmt.args, operands):
                if isinstance(arg, VarRef):
                    text = rendered.get(arg.name)
                    if text is None:  # a [find] value, on its first use
                        text = rendered[arg.name] = _operand_text(operand)
                else:
                    text = _operand_text(operand)
                parts.append(text)
            value_text = format_number(value)
            rendered[stmt.target] = _operand_text(value, value_text)
            comment = _annotation(stmt.op, parts, value_text)
            annotated = f"{stmt_text} # {comment}"
            texts.append(annotated)
            sources.append("solver-injected")
            solved.append((comment, value))
            context += annotated + "\n"
    except EvalError as err:
        # Kept as data: its traceback would hold this call's frames alive.
        err.__traceback__ = None
        return SessionTranscript(
            prompt, EvalOutcome(None, env, err), len(solved),
            tuple(texts), tuple(sources), tuple(entries), tuple(solved),
        )
