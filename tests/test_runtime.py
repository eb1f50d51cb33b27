"""Session runtime: halt/compute/resume, budgets, prompt assembly."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flsolve import (
    DEFAULT_INSTRUCTIONS,
    EVAL_ERROR_KINDS,
    ProblemRecord,
    Program,
    ScriptedGenerator,
    SessionBudget,
    Statement,
    VarRef,
    annotation_text,
    assemble_prompt,
    evaluate,
    parse_line,
    parse_program,
    run_session,
    strip_computed_comments,
    total_reward,
)
from flsolve import runtime

import oracles


class ListGenerator:
    """Emits a fixed sequence of chunks, ignoring the context."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def next_chunk(self, context: str) -> str:
        return self.chunks.pop(0) if self.chunks else ""


def classify_lines(source: str):
    finds, arithmetic, returns = [], [], []
    for raw in source.splitlines():
        stmt = parse_line(raw)
        if not isinstance(stmt, Statement):
            continue
        if stmt.is_find:
            finds.append(raw)
        elif stmt.is_return:
            returns.append(raw)
        else:
            arithmetic.append(raw)
    return finds, arithmetic, returns


@pytest.fixture(scope="module")
def records():
    from flsolve import bundled_examples

    return bundled_examples().records


def drain(gen) -> list[str]:
    """The generator's chunks up to its first ""."""
    return list(iter(lambda: gen.next_chunk("ignored"), ""))


# Text with CRLF line ends, non-ASCII characters, and often none at all.
SCRIPT_TEXT = st.text(st.sampled_from("ab \n\r#()é€😀,"), max_size=40)


class TestScriptedGenerator:
    """The chunks are cut when the generator is built and handed out in order."""

    @settings(max_examples=300, deadline=None)
    @given(SCRIPT_TEXT, st.integers(-2, 20))
    @example("", 0)
    @example("var1\r\n€😀", 3)
    def test_chunks_then_empty_forever(self, text, n):
        gen = ScriptedGenerator(text, n)
        assert repr(gen) == f"ScriptedGenerator(text={text!r}, chunk_size={n!r})"
        if n <= 0:
            expected = [text] if text else []
        else:
            expected = [text[i : i + n] for i in range(0, len(text), n)]
        assert drain(gen) == expected
        assert [gen.next_chunk(text) for _ in range(3)] == ["", "", ""]
        assert repr(gen) == f"ScriptedGenerator(text={text!r}, chunk_size={n!r})"

    @settings(max_examples=200, deadline=None)
    @given(SCRIPT_TEXT, st.integers(-2, 20), st.integers(0, 12))
    def test_copies_resume_mid_stream(self, text, n, taken):
        gen = ScriptedGenerator(text, n)
        head = [gen.next_chunk("") for _ in range(taken)]
        copies = (copy.deepcopy(gen), pickle.loads(pickle.dumps(gen)))
        rest = drain(gen)
        assert "".join(head) + "".join(rest) == text
        for copied in copies:
            assert repr(copied) == repr(gen)
            assert drain(copied) == rest
            assert copied.next_chunk("") == ""


class TestReplayFidelity:
    @pytest.mark.parametrize("chunk_size", [0, 1, 3, 7])
    def test_stripped_gold_replay_reconstructs_annotations(self, records, chunk_size):
        for record in records:
            stripped = strip_computed_comments(record.gold_program)
            assert stripped != record.gold_program  # something was stripped
            gen = ScriptedGenerator(stripped, chunk_size)
            transcript = run_session(gen, record.question)

            assert transcript.outcome.error is None, record.id
            assert transcript.outcome.answer == record.gold_answer, record.id

            finds, arithmetic, returns = classify_lines(record.gold_program)
            injected = [l.text for l in transcript.emitted_lines if l.source == "solver-injected"]
            assert injected == arithmetic, record.id
            assert transcript.halted_count == len(arithmetic), record.id

            passthrough = [l.text for l in transcript.emitted_lines if l.source == "generator"]
            expected_return = returns[0].split("#", 1)[0].rstrip()
            assert passthrough == finds + [expected_return], record.id

    def test_generated_source_is_replayable(self, records):
        for record in records:
            first = run_session(
                ScriptedGenerator(strip_computed_comments(record.gold_program)),
                record.question,
            )
            again = run_session(
                ScriptedGenerator(strip_computed_comments(first.generated_source)),
                record.question,
            )
            assert again.outcome.answer == record.gold_answer
            assert again.generated_source == first.generated_source


class TestHaltResume:
    def test_midline_halt_at_close_paren(self):
        gen = ListGenerator(
            [
                "var1 = [find](a) # 6\nvar2 = [find](b) # 2\nvar3 = [divide](var1, var2)",
                " # stale guess = 99\n[return](var3)",
            ]
        )
        transcript = run_session(gen, "six split by two")
        assert transcript.outcome.answer == 3
        injected = [l.text for l in transcript.emitted_lines if l.source == "solver-injected"]
        assert injected == ["var3 = [divide](var1, var2) # 6 / 2 = 3"]
        assert transcript.halted_count == 1
        # The generator's own comment on the halted line is discarded.
        assert all("stale guess" not in l.text for l in transcript.emitted_lines)

    def test_generator_comment_on_full_arithmetic_line_is_replaced(self):
        source = (
            "var1 = [find](a) # 7\n"
            "var2 = [find](b) # 5\n"
            "var3 = [add](var1, var2) # 7 + 5 = 999\n"
            "[return](var3)"
        )
        transcript = run_session(ScriptedGenerator(source), "seven plus five")
        assert transcript.outcome.answer == 12
        injected = [l.text for l in transcript.emitted_lines if l.source == "solver-injected"]
        assert injected == ["var3 = [add](var1, var2) # 7 + 5 = 12"]

    def test_annotated_context_is_visible_to_the_generator(self):
        seen = []

        class Spy:
            def __init__(self):
                self.inner = ScriptedGenerator(
                    "var1 = [find](a) # 4\nvar2 = [floor](var1)\n[return](var2)", 16
                )

            def next_chunk(self, context: str) -> str:
                seen.append(context)
                return self.inner.next_chunk(context)

        transcript = run_session(Spy(), "four, floored")
        assert transcript.outcome.answer == 4
        assert any("var2 = [floor](var1) # floor(4) = 4" in ctx for ctx in seen)

    @pytest.mark.parametrize("chunk_size", [0, 1, 5])
    def test_each_line_is_parsed_once(self, monkeypatch, chunk_size):
        calls = []
        real = runtime.parse_line

        def counting(raw, line_no=1):
            calls.append(raw)
            return real(raw, line_no)

        monkeypatch.setattr(runtime, "parse_line", counting)
        source = "var1 = [find](a (b) c) # 4\nvar2 = [add](var1, 1)\n[return](var2)"
        transcript = run_session(ScriptedGenerator(source, chunk_size), "four")
        assert transcript.outcome.answer == 5
        assert calls == source.split("\n")

    def test_prompt_precedes_generation(self):
        transcript = run_session(
            ScriptedGenerator("var1 = [find](a) # 1\n[return](var1)"), "one"
        )
        assert transcript.prompt.endswith("Question: one\nPseudocode:\n")
        assert transcript.prompt.startswith(DEFAULT_INSTRUCTIONS)


# Generator text joined from whole statements and scraps: lines that run on
# after ')', stop short of it, or hold a statement and a half.
FRAGMENTS = (
    "var1 = [find](a) # 3",
    "var2 = [find](b) # 4",
    "var1 = [find](x (y) z) # 5",
    "var3 = [add](var1, var2)",
    "var4 = [multiply](var3, 2)",
    "var5 = [divide](var3, var1)",
    "[return](var3)",
    "[return](var4) # 9",
    ")", "(", "#", ",", "\n", "\n", "\r", " ", " extra", " # 999", "var1", "[frob]",
    "[nope](var1)",
)


@st.composite
def chunked_text(draw):
    """A text and its chunks, cut at drawn points."""
    text = "".join(draw(st.lists(st.sampled_from(FRAGMENTS), max_size=16)))
    cuts = sorted(draw(st.sets(st.integers(1, max(len(text) - 1, 1)))))
    bounds = [0, *cuts, len(text)]
    return text, [text[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]


def session_result(transcript):
    error = transcript.outcome.error
    return (
        transcript.emitted_lines,
        transcript.halted_count,
        transcript.outcome.answer,
        None if error is None else (error.kind, error.message, error.statement_index),
        transcript.program,
    )


class TestChunkInvariance:
    @settings(max_examples=400, deadline=None)
    @given(chunked_text(), st.none() | st.integers(0, 200))
    @example(
        (
            "var3 = [add](var1, var2)var1 = [find](a) # 3\n",
            ["var3 = [add](var1, var2)", "var1 = [find](a) # 3\n"],
        ),
        None,
    )
    @example(
        (
            "var1 = [find](a) # 1\n[return](var1)\n" + "x" * 100,
            ["var1 = [find](a) # 1\n", "[return](var1)\n" + "x" * 100],
        ),
        50,
    )
    @example(("var1 = [find](a) # 1\nx", ["var1 = [find](a) # 1\n", "x"]), 21)
    @example(("var1 = [find](a) # 1\nx", ["var1 = [find](a) # 1\n", "x"]), 22)
    def test_chunks_change_no_outcome(self, case, max_chars):
        text, chunks = case
        budget = SessionBudget() if max_chars is None else SessionBudget(max_chars=max_chars)
        whole = run_session(ScriptedGenerator(text), "q", budget=budget)
        chunked = run_session(ListGenerator(chunks), "q", budget=budget)
        assert session_result(chunked) == session_result(whole)

    @pytest.mark.parametrize("chunk_size", [0, 1, 10])
    def test_text_the_session_never_reads_costs_nothing(self, chunk_size):
        source = "var1 = [find](a) # 1\n[return](var1)\n" + "x" * 100
        budget = SessionBudget(max_chars=50)
        transcript = run_session(ScriptedGenerator(source, chunk_size), "q", budget=budget)
        assert transcript.outcome.error is None
        assert transcript.outcome.answer == 1

    @pytest.mark.parametrize("chunk_size", [0, 1, 10])
    @pytest.mark.parametrize("max_chars, kind", [(35, "budget-exhausted"), (36, None)])
    def test_each_line_is_charged_through_its_newline(self, chunk_size, max_chars, kind):
        # 21 characters for the [find] line, 15 for the [return] line.
        source = "var1 = [find](a) # 1\n[return](var1)\n"
        budget = SessionBudget(max_chars=max_chars)
        transcript = run_session(ScriptedGenerator(source, chunk_size), "q", budget=budget)
        error = transcript.outcome.error
        assert (None if error is None else error.kind) == kind

    @pytest.mark.parametrize("chunk_size", [0, 1, 7])
    def test_blank_lines_change_nothing(self, chunk_size):
        # Blank, whitespace-only and ','-only lines are skipped, emitted nowhere.
        plain = "var1 = [find](a) # 3\nvar2 = [find](b) # 4\nvar3 = [add](var1, var2)\n[return](var3)\n"
        padded = (
            "\n \t\nvar1 = [find](a) # 3\n,\n\nvar2 = [find](b) # 4\n  ,  \n"
            "var3 = [add](var1, var2)\n\r\n \n[return](var3)\n"
        )
        expected = session_result(run_session(ScriptedGenerator(plain, chunk_size), "q"))
        assert expected[1:3] == (1, 7)
        assert session_result(run_session(ScriptedGenerator(padded, chunk_size), "q")) == expected

    def test_a_partial_line_fails_once_it_passes_the_cap(self):
        pulls = []

        class NoNewline:
            def next_chunk(self, context):
                pulls.append(context)
                return "x" * 10 if len(pulls) <= 100 else ""

        transcript = run_session(NoNewline(), "q", budget=SessionBudget(max_chars=45))
        assert transcript.outcome.error.kind == "budget-exhausted"
        assert len(pulls) == 5

    @pytest.mark.parametrize("chunk_size", [0, 1, 5])
    @pytest.mark.parametrize("rest", [" extra", " extra # 999"])
    def test_text_after_close_paren_is_dropped(self, chunk_size, rest):
        source = (
            "var1 = [find](a) # 3\n"
            "var2 = [find](b) # 4\n"
            f"var3 = [add](var1, var2){rest}\n"
            "[return](var3)"
        )
        transcript = run_session(ScriptedGenerator(source, chunk_size), "q")
        assert transcript.outcome.answer == 7
        assert transcript.emitted_lines[2].text == "var3 = [add](var1, var2) # 3 + 4 = 7"


class RecordingGenerator:
    """A scripted generator that records every (context, chunk) it serves."""

    def __init__(self, text: str, chunk_size: int):
        self.inner = ScriptedGenerator(text, chunk_size)
        self.calls = []

    def next_chunk(self, context: str) -> str:
        chunk = self.inner.next_chunk(context)
        self.calls.append((context, chunk))
        return chunk


FEED = runtime._SessionFeed


def feed_calls(feed_cls, text: str, chunk_size: int, budget: SessionBudget):
    """The generator's calls, the feed's pull count and the session result."""
    pulls = []

    class CountingFeed(feed_cls):
        def pull(self, context):
            pulls.append(context)
            return super().pull(context)

    gen = RecordingGenerator(text, chunk_size)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runtime, "_SessionFeed", CountingFeed)
        transcript = run_session(gen, "q", budget=budget)
    return gen.calls, len(pulls), session_result(transcript)


class TestFeedMatchesReference:
    """The line reader scans only new chunks for a newline; the reference
    scans the whole buffer after every pull. Same calls, same pulls."""

    @settings(max_examples=300, deadline=None)
    @given(chunked_text(), st.integers(0, 13), st.none() | st.integers(0, 200))
    @example(("var1 = [find](a) # 1\nx", []), 1, 21)
    @example(("x" * 60, []), 7, 45)
    def test_same_calls_and_pulls(self, case, chunk_size, max_chars):
        text, _ = case
        budget = SessionBudget() if max_chars is None else SessionBudget(max_chars=max_chars)
        ours = feed_calls(FEED, text, chunk_size, budget)
        assert ours == feed_calls(oracles.ReferenceSessionFeed, text, chunk_size, budget)

    @pytest.mark.parametrize("chunk_size", range(14))
    def test_gold_replays(self, records, chunk_size):
        for record in records:
            text = strip_computed_comments(record.gold_program)
            ours = feed_calls(FEED, text, chunk_size, SessionBudget())
            assert ours == feed_calls(oracles.ReferenceSessionFeed, text, chunk_size, SessionBudget())


# Literals up to and past the value bound: long integers, p/2**k with k up to
# 14000 bits and decimals with up to 4000 places.
BIG_LITERALS = st.one_of(
    st.integers(1, 4300).map(lambda n: "9" * n),
    st.integers(1, 14000).map(lambda k: f"1/{2**k}"),
    st.integers(1, 14000).map(lambda k: f"-{3**(k // 2)}/{2**k}"),
    st.integers(0, 4000).map(lambda n: "0." + "0" * n + "5"),
    st.integers(-(10**12), 10**12).map(str),
)
SIGNED_BIG_LITERALS = st.tuples(st.sampled_from(("", "-")), BIG_LITERALS).map(
    lambda t: t[0] + t[1] if not t[1].startswith("-") else t[1]
)


@st.composite
def big_value_programs(draw):
    """Multiplies, divides and squarings of large literals."""
    lines = [f"var1 = [find](start) # {draw(SIGNED_BIG_LITERALS)}"]
    for i in range(2, draw(st.integers(2, 16)) + 1):
        step = draw(st.sampled_from(("multiply", "divide", "square")))
        if step == "square":
            lines.append(f"var{i} = [multiply](var{i - 1}, var{i - 1})")
        else:
            lines.append(f"var{i} = [{step}](var{i - 1}, {draw(SIGNED_BIG_LITERALS)})")
    lines.append(f"[return](var{len(lines)})")
    return "\n".join(lines)


class TestValueBound:
    GOLD = ProblemRecord("g", "q", "var1 = [find](a) # 2\n[return](var1)", Fraction(2))

    @settings(max_examples=120, deadline=None)
    @given(big_value_programs(), st.sampled_from((0, 1, 7)))
    def test_large_values_never_raise(self, source, chunk_size):
        transcript = run_session(ScriptedGenerator(source, chunk_size), "q")
        outcome = evaluate(parse_program(source))
        reward = total_reward(source, self.GOLD)
        total_reward(transcript.generated_source, self.GOLD)
        kinds = set(EVAL_ERROR_KINDS) | {"budget-exhausted"}
        for result in (transcript.outcome, outcome):
            assert (result.answer is None) != (result.error is None)
            if result.error is not None:
                assert result.error.kind in kinds
        if len(source) < SessionBudget().max_chars:
            assert transcript.outcome.answer == outcome.answer
            assert reward.diagnostics.y_gen == outcome.answer

    @pytest.mark.parametrize("chunk_size", [0, 1, 5])
    def test_fourteen_squarings_stop_at_the_bound(self, chunk_size):
        lines = ["var1 = [find](side length) # 10"]
        lines += [f"var{i} = [multiply](var{i - 1}, var{i - 1})" for i in range(2, 16)]
        source = "\n".join(lines + ["[return](var15)"])
        transcript = run_session(ScriptedGenerator(source, chunk_size), "q")
        error = transcript.outcome.error
        assert (error.kind, error.statement_index) == ("value-overflow", 11)
        assert transcript.halted_count == 10
        assert transcript.emitted_lines[-1].text == "var12 = [multiply](var11, var11)"


class TestSessionErrors:
    def test_unbound_return_recorded(self):
        transcript = run_session(ScriptedGenerator("[return](var1)"), "q")
        assert transcript.outcome.answer is None
        assert transcript.outcome.error.kind == "unbound-variable"

    def test_parse_error_recorded_with_line(self):
        source = "var1 = [find](a) # 3\nvar2 = [frob](var1)\n[return](var2)"
        transcript = run_session(ScriptedGenerator(source), "q")
        assert transcript.outcome.error.kind == "parse-error"
        assert "unknown-operator" in transcript.outcome.error.message
        assert transcript.emitted_lines[-1].text == "var2 = [frob](var1)"

    def test_eval_error_recorded(self):
        source = (
            "var1 = [find](a) # 3\n"
            "var2 = [find](b) # 0\n"
            "var3 = [divide](var1, var2)\n"
            "[return](var3)"
        )
        transcript = run_session(ScriptedGenerator(source), "q")
        assert transcript.outcome.error.kind == "division-by-zero"
        assert transcript.halted_count == 0

    @pytest.mark.parametrize("chunk_size", [0, 1, 5])
    def test_arithmetic_duplicate_binding_recorded(self, chunk_size):
        source = "var1 = [find](a) # 3\nvar1 = [add](var1, 1)\n[return](var1)"
        transcript = run_session(ScriptedGenerator(source, chunk_size), "q")
        error = transcript.outcome.error
        assert (error.kind, error.statement_index) == ("duplicate-binding", 1)
        assert [(l.source, l.text) for l in transcript.emitted_lines] == [
            ("generator", "var1 = [find](a) # 3"),
            ("generator", "var1 = [add](var1, 1)"),
        ]
        assert len(transcript.entries) == 2
        assert transcript.halted_count == 0

    def test_empty_generator_stalls(self):
        transcript = run_session(ScriptedGenerator(""), "q")
        assert transcript.outcome.error.kind == "generator-stalled"
        assert transcript.emitted_lines == ()

    def test_generator_ending_before_return_stalls(self):
        transcript = run_session(ScriptedGenerator("var1 = [find](a) # 3\n"), "q")
        assert transcript.outcome.error.kind == "generator-stalled"

    def test_line_budget(self):
        source = "\n".join(f"var{i} = [find](q{i}) # {i}" for i in range(1, 9))
        transcript = run_session(
            ScriptedGenerator(source + "\n[return](var8)"),
            "q",
            budget=SessionBudget(max_lines=3, max_chars=16384),
        )
        assert transcript.outcome.error.kind == "budget-exhausted"
        assert len(transcript.emitted_lines) == 3

    def test_char_budget(self):
        transcript = run_session(
            ScriptedGenerator("var1 = [find](a very long description) # 3\n[return](var1)"),
            "q",
            budget=SessionBudget(max_lines=64, max_chars=10),
        )
        assert transcript.outcome.error.kind == "budget-exhausted"

    @pytest.mark.parametrize("chunk_size", [0, 1, 5])
    def test_comment_only_line_is_skipped(self, chunk_size):
        source = "var1 = [find](a) # 3\n# just a note\n[return](var1)\n"
        transcript = run_session(ScriptedGenerator(source, chunk_size), "q")
        assert transcript.outcome.error is None
        assert transcript.outcome.answer == Fraction(3)
        assert [l.text for l in transcript.emitted_lines] == [
            "var1 = [find](a) # 3",
            "[return](var1)",
        ]

    @pytest.mark.parametrize("chunk_size", [0, 1, 5])
    def test_leading_comment_line_is_data_not_a_crash(self, chunk_size):
        gen = ScriptedGenerator("# just a note\n[return](var1)\n", chunk_size)
        transcript = run_session(gen, "q")
        assert transcript.outcome.error.kind == "unbound-variable"
        assert [l.text for l in transcript.emitted_lines] == ["[return](var1)"]

    def test_error_after_successful_halts_keeps_partial_transcript(self):
        source = (
            "var1 = [find](a) # 3\n"
            "var2 = [find](b) # 4\n"
            "var3 = [add](var1, var2)\n"
            "var4 = [frob](var3)\n"
            "[return](var4)"
        )
        transcript = run_session(ScriptedGenerator(source), "q")
        assert transcript.outcome.error.kind == "parse-error"
        assert transcript.halted_count == 1
        injected = [l.text for l in transcript.emitted_lines if l.source == "solver-injected"]
        assert injected == ["var3 = [add](var1, var2) # 3 + 4 = 7"]


FINDS = "".join(f"var{i} = [find](a) # {i}\n" for i in range(1, 6))


def _session_error_kind(text: str, chunk_size: int, budget: SessionBudget) -> str:
    transcript = run_session(ScriptedGenerator(text, chunk_size), "q", budget=budget)
    return transcript.outcome.error.kind  # the caller holds its transcript until it returns


class TestFailingSessionsLeaveNoCycles:
    """A session's error is data: it keeps no traceback, whose frames would
    reach back to the caller holding the transcript and close a cycle."""

    @pytest.mark.parametrize("chunk_size", [0, 3])
    @pytest.mark.parametrize(
        "text, budget, kind",
        [
            ("var1 = [find](a) # 3\nvar2 = [divide](var1, 0)\n[return](var2)",
             SessionBudget(), "division-by-zero"),
            ("var1 = [find](a) # ?\nvar2 = [add](var1, 1)\n[return](var2)",
             SessionBudget(), "unknown-operand"),
            ("var1 = [find](a) # 3\nvar2 = [add](var9, 1)\n[return](var2)",
             SessionBudget(), "unbound-variable"),
            ("var1 = [find](a) # 3\n[return](var9)", SessionBudget(), "unbound-variable"),
            ("var1 = [find](a) # 3\nvar1 = [find](b) # 4\n[return](var1)",
             SessionBudget(), "duplicate-binding"),
            ("var1 = [find](a) # ?\n[return](var1)", SessionBudget(), "return-of-unknown"),
            ("var1 = [find](a) # 1/2\nvar2 = [mod](var1, 2)\n[return](var2)",
             SessionBudget(), "non-integer-operand"),
            (f"var1 = [find](a) # {2 ** 5000}\n[return](var1)", SessionBudget(),
             "value-overflow"),
            ("var1 = [find](a) # 3\nvar2 = [frob](var1)\n", SessionBudget(), "parse-error"),
            ("var1 = [find](a) # 3\n", SessionBudget(), "generator-stalled"),
            (FINDS, SessionBudget(max_lines=2), "budget-exhausted"),
            (FINDS, SessionBudget(max_chars=30), "budget-exhausted"),
        ],
    )
    def test_no_garbage(self, garbage_left, text, budget, kind, chunk_size):
        assert _session_error_kind(text, chunk_size, budget) == kind
        assert garbage_left(_session_error_kind, text, chunk_size, budget) == 0


class TestAssemblePrompt:
    def exemplar(self, n: int) -> ProblemRecord:
        return ProblemRecord(
            id=f"ex-{n}",
            question=f"question {n}",
            gold_program=f"var1 = [find](thing {n}) # {n}\n[return](var1) # {n}",
            gold_answer=Fraction(n),
        )

    def test_zero_shot(self):
        prompt = assemble_prompt("How many?", "Do the thing.")
        assert prompt == "Do the thing.\n\nQuestion: How many?\nPseudocode:\n"

    def test_few_shot_blocks_in_order(self):
        exemplars = [self.exemplar(1), self.exemplar(2)]
        prompt = assemble_prompt("How many?", "Do the thing.", exemplars, k=2)
        assert prompt == (
            "Do the thing.\n\n"
            "Question: question 1\nPseudocode:\n"
            "var1 = [find](thing 1) # 1\n[return](var1) # 1\n\n"
            "Question: question 2\nPseudocode:\n"
            "var1 = [find](thing 2) # 2\n[return](var1) # 2\n\n"
            "Question: How many?\nPseudocode:\n"
        )

    def test_k_limits_exemplars(self):
        exemplars = [self.exemplar(1), self.exemplar(2)]
        prompt = assemble_prompt("How many?", "Go.", exemplars, k=1)
        assert "question 1" in prompt
        assert "question 2" not in prompt

    def test_k_beyond_available_raises(self):
        with pytest.raises(ValueError):
            assemble_prompt("How many?", "Go.", [self.exemplar(1)], k=2)

    @pytest.mark.parametrize("k", [-1, -2, -5, -6])
    def test_negative_k_raises(self, k):
        # A negative k would slice exemplars from the end, e.g. 3 of 5 for k=-2.
        exemplars = [self.exemplar(n) for n in range(1, 6)]
        with pytest.raises(ValueError, match=f"requested {k} exemplars"):
            assemble_prompt("How many?", "Go.", exemplars, k=k)

    def test_blank_instructions_are_omitted(self):
        assert assemble_prompt("How many?", "  ") == "Question: How many?\nPseudocode:\n"


class TestStripComputedComments:
    def test_find_comments_survive(self):
        source = (
            "var1 = [find](pencils) # 12\n"
            "var2 = [multiply](var1, 2) # 12 * 2 = 24\n"
            "[return](var2) # 24"
        )
        assert strip_computed_comments(source) == (
            "var1 = [find](pencils) # 12\n"
            "var2 = [multiply](var1, 2)\n"
            "[return](var2)"
        )

    def test_unparseable_lines_pass_through(self):
        source = "not a statement at all # keep me"
        assert strip_computed_comments(source) == source

    def test_idempotent(self):
        for record_source in [
            "var1 = [find](a) # ?\nvar2 = [floor](var1) # floor(?) = 0\n[return](var2) # 0"
        ]:
            once = strip_computed_comments(record_source)
            assert strip_computed_comments(once) == once


# Literal operands: negative, zero, decimal and non-terminating.
LITERALS = ("-3", "2/7", "-5/6", "0", "1.25", "-0.5", "7", "1/3")


@st.composite
def rendered_programs(draw):
    """``oracles.random_program``, a [find] of a non-terminating or negative
    value, then lines of any computing operator whose operands are variables,
    literals or one variable twice. A line may fail (a zero divisor, a
    non-integer [mod] operand), which ends the session there."""
    source, _ = oracles.random_program(random.Random(draw(st.integers(0, 2**32 - 1))), 6)
    lines = source.split("\n")[:-1]  # line i defines var{i + 1}; the [return] goes
    value = draw(st.sampled_from(("1/3", "-2/7", "-4", "5/12")))
    lines.append(f"var{len(lines) + 1} = [find](a share) # {value}")
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(oracles.BINARY_OPS + oracles.UNARY_OPS))
        operand = st.integers(1, len(lines)).map("var{}".format) | st.sampled_from(LITERALS)
        args = [draw(operand)]
        if op in oracles.BINARY_OPS:
            args.append(draw(operand | st.just(args[0])))
        lines.append(f"var{len(lines) + 1} = [{op}]({', '.join(args)})")
    lines.append(f"[return](var{len(lines)})")
    return "\n".join(lines)


class TestRenderedComments:
    """The session renders each value once; every comment it injects is still
    ``annotation_text`` of the statement's operands and result."""

    @settings(max_examples=300, deadline=None)
    @given(rendered_programs(), st.integers(0, 13))
    @example(
        "var1 = [find](a) # -3\nvar2 = [find](b) # 1/3\nvar3 = [subtract](var2, var1)\n"
        "var4 = [multiply](var3, var1)\nvar5 = [divide](var4, var4)\n"
        "var6 = [mod](var1, -2)\nvar7 = [round](-0.5)\n[return](var7)",
        1,
    )
    def test_each_comment_is_annotation_text_of_a_fresh_evaluation(self, source, chunk_size):
        t = run_session(ScriptedGenerator(source, chunk_size), "q")
        statements = [parse_line(line.text) for line in t.emitted_lines]
        env = evaluate(Program(tuple(s for s in statements if isinstance(s, Statement)))).env
        injected = 0
        for line, stmt in zip(t.emitted_lines, statements):
            if line.source != "solver-injected":
                continue
            injected += 1
            operands = [env.lookup(a.name) if isinstance(a, VarRef) else a for a in stmt.args]
            comment = line.text.partition(" # ")[2]
            assert comment == annotation_text(stmt, operands, env.lookup(stmt.target))
        assert injected == t.halted_count
