"""A session renders a computed line's comment only when a pull or a reader
needs it, and builds no ``EmittedLine`` until read.

The session renders a computed line as it handles it when the next read
asks the generator; otherwise it queues the line, and renders the queue just
before the next read that asks the generator, or when the transcript is
first read. These tests check the generator's contexts and the transcript
against the loop that rendered every line and built an ``EmittedLine`` for
it as it went (``oracles.reference_run_session``), pin where comments are
rendered, and keep ``EmittedLine`` calls out of the line loop.
"""

import ast
import copy
import pickle
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flsolve import (
    DatasetFile,
    GeneratorSpec,
    ScriptedGenerator,
    SessionBudget,
    Statement,
    ToyPolicy,
    bundled_examples,
    evaluate_corpus,
    generate_toy_tasks,
    parse_line,
    run_session,
    strip_computed_comments,
    train_ppo_demo,
)
from flsolve import evaluation, runtime, toy
from flsolve.toy import ACTION_NAMES, N_FEATURES

import oracles
from test_parse_once import COMMENTED_TEXTS, GOLD, SESSION_TEXTS, generator_text
from test_runtime import ListGenerator, chunked_text

BUDGETS = (SessionBudget(), SessionBudget(max_chars=45), SessionBudget(max_lines=3))
# Cut after 80 characters, this text queues var2 and var3, renders them for
# the pull that finishes var4's line, then queues var4 to var6.
QUEUED_TWICE = (
    "var1 = [find](a) # 3\nvar2 = [add](var1, 1)\nvar3 = [add](var2, 1)\n"
    "var4 = [multiply](var3, 2)\nvar5 = [add](var4, 1)\nvar6 = [subtract](var5, var1)\n"
    "[return](var6)\n"
)


class Spy:
    """Records the context of each pull, then passes it on."""

    def __init__(self, inner, contexts):
        self.inner = inner
        self.contexts = contexts

    def next_chunk(self, context: str) -> str:
        self.contexts.append(context)
        return self.inner.next_chunk(context)


def both_sessions(make_generator, budget=SessionBudget()):
    """This session and the reference's on the same text, with the contexts
    each generator received."""
    ours, theirs = [], []
    t = run_session(Spy(make_generator(), ours), GOLD.question, budget=budget)
    ref = oracles.reference_run_session(Spy(make_generator(), theirs), GOLD.question, budget=budget)
    return t, ours, ref, theirs


def fields(t):
    return (
        t.prompt,
        t.emitted_lines,
        str(t.generated_source),
        t.outcome,
        t.halted_count,
        t.program,
    )


class TestMatchesTheEagerLoop:
    @settings(max_examples=400, deadline=None)
    @given(generator_text | st.text(max_size=60), st.integers(0, 13), st.sampled_from(BUDGETS))
    @example(GOLD.gold_program, 0, BUDGETS[0])
    @example("var1 = [find](a) # 3\n\nvar2 = [add](var1, 1)\n[return](var2)", 0, BUDGETS[0])
    @example("var1 = [find](a) # 3\nvar2 = [add](var1, 1)\nvar3 = [add](var2, 1)\n", 0, BUDGETS[2])
    # Two lines queued, rendered at the second pull, then three queued again.
    @example(QUEUED_TWICE, 80, BUDGETS[0])
    # An evaluation error while two lines are queued.
    @example(
        "var1 = [find](a) # 3\nvar2 = [subtract](var1, 3)\nvar3 = [add](var1, var1)\n"
        "var4 = [divide](var3, var2)\n[return](var4)",
        0,
        BUDGETS[0],
    )
    def test_scripted_chunks(self, text, chunk_size, budget):
        t, ours, ref, theirs = both_sessions(lambda: ScriptedGenerator(text, chunk_size), budget)
        assert ours == theirs
        assert fields(t) == fields(ref)

    @settings(max_examples=400, deadline=None)
    @given(chunked_text(), st.sampled_from(BUDGETS))
    @example(("", ["var1 = [find](a) # 3\nvar2", " = [add](var1, 1)\n"]), BUDGETS[0])
    @example(("", [QUEUED_TWICE[:80], QUEUED_TWICE[80:]]), BUDGETS[0])
    @example(
        ("", ["var1 = [find](a) # 3\nvar2 = [add](var1, 1)\n",
              "var3 = [add](var2, 1)\nvar4 = [divide](var3, 0)\n[return](var4)\n"]),
        BUDGETS[0],
    )
    def test_drawn_chunks(self, case, budget):
        _, chunks = case
        t, ours, ref, theirs = both_sessions(lambda: ListGenerator(chunks), budget)
        assert ours == theirs
        assert fields(t) == fields(ref)

    @pytest.mark.parametrize("chunk_size", [0, 1, 4, 13])
    def test_gold_replays(self, chunk_size):
        for record in bundled_examples().records:
            text = strip_computed_comments(record.gold_program)
            t, ours, ref, theirs = both_sessions(lambda: ScriptedGenerator(text, chunk_size))
            assert ours == theirs
            assert fields(t) == fields(ref)


@pytest.fixture
def renders(monkeypatch):
    """The result text of each comment the runtime renders, in order."""
    calls = []
    real = runtime._annotation

    def counting(op, operand_texts, result_text):
        calls.append(result_text)
        return real(op, operand_texts, result_text)

    monkeypatch.setattr(runtime, "_annotation", counting)
    return calls


def computed_lines_in(context: str, prompt_length: int) -> int:
    lines = context[prompt_length:].split("\n")[:-1]
    statements = [parse_line(line) for line in lines]
    return sum(1 for s in statements if isinstance(s, Statement) and s.is_arithmetic)


@pytest.fixture
def pulls(monkeypatch, renders):
    """For each pull of a scripted or policy generator: the computed lines in
    its context and the comments its session had rendered by then."""
    seen = []

    def spy(real):
        def next_chunk(self, context):
            if not hasattr(self, "spy_start"):  # the session's first pull: the prompt alone
                self.spy_start = len(context), len(renders)
            prompt_length, rendered_before = self.spy_start
            seen.append((computed_lines_in(context, prompt_length), len(renders) - rendered_before))
            return real(self, context)

        return next_chunk

    for cls in (runtime.ScriptedGenerator, toy.PolicySession):
        monkeypatch.setattr(cls, "next_chunk", spy(cls.next_chunk))
    return seen


# The reads of a transcript that need its comments.
READS = {
    "generated_source": lambda t: t.generated_source,
    "emitted_lines": lambda t: t.emitted_lines,
    "program": lambda t: t.program,
    "repr": repr,
    "eq": lambda t: t == t,
    "hash": hash,
}


class TestWhereRenderingHappens:
    def test_a_gold_replay_fed_whole_pulls_once_and_renders_nothing(
        self, monkeypatch, pulls, renders
    ):
        # The replay text ends in a newline, so the session reads its
        # [return] line whole and never pulls again: nothing asks for a
        # comment until the transcript is read.
        transcripts = []

        def keeping(*args, **kwargs):
            transcripts.append(run_session(*args, **kwargs))
            return transcripts[-1]

        monkeypatch.setattr(evaluation, "run_session", keeping)
        for record in bundled_examples().records:
            del pulls[:], renders[:], transcripts[:]
            report = evaluate_corpus(DatasetFile((record,), "one"), GeneratorSpec("gold-replay"))
            assert report.correct == 1
            assert pulls == [(0, 0)]
            assert renders == []
            [t] = transcripts
            ref = oracles.reference_run_session(
                GeneratorSpec("gold-replay").build(record), record.question
            )
            n = sum(1 for stmt in record.parsed_gold().statements if stmt.is_arithmetic)
            for _ in range(2):
                assert (t.generated_source, t.program) == (ref.generated_source, ref.program)
                assert len(renders) == t.halted_count == n

    @pytest.mark.parametrize("first_read", READS.values(), ids=READS.keys())
    @pytest.mark.parametrize("chunk_size", [0, 1, 3, 80])
    @pytest.mark.parametrize("text", SESSION_TEXTS + COMMENTED_TEXTS + (QUEUED_TWICE,))
    def test_the_first_read_renders_what_no_pull_needed(
        self, pulls, renders, text, chunk_size, first_read
    ):
        t = run_session(ScriptedGenerator(text, chunk_size), GOLD.question)
        # Each computed line before the last pull, and no other.
        assert len(renders) == pulls[-1][0]
        first_read(t)
        assert len(renders) == t.halted_count
        for read in READS.values():
            read(t)
        assert str(t.generated_source) == "\n".join(line.text for line in t.emitted_lines)
        assert len(renders) == t.halted_count

    @pytest.mark.parametrize("text", SESSION_TEXTS + COMMENTED_TEXTS)
    def test_chunks_of_one_render_each_line_before_the_next_pull(self, pulls, renders, text):
        t = run_session(ScriptedGenerator(text, 1), GOLD.question)
        assert len(pulls) > 1
        assert all(computed == rendered for computed, rendered in pulls)
        assert len(renders) == pulls[-1][1] == t.halted_count

    def test_train_ppo_demo_renders_each_line_before_the_next_pull(self, pulls, renders):
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        train_ppo_demo(policy, generate_toy_tasks(3, 4), iterations=3, seed=3)
        assert sum(computed for computed, _ in pulls) > 0
        assert all(computed == rendered for computed, rendered in pulls)


class TestTranscriptSemantics:
    @pytest.mark.parametrize("chunk_size", [0, 3])
    @pytest.mark.parametrize("text", SESSION_TEXTS + COMMENTED_TEXTS + (GOLD.gold_program + "\n",))
    def test_unread_transcripts_act_like_read_ones(self, text, chunk_size):
        def session():
            return run_session(ScriptedGenerator(text, chunk_size), GOLD.question)

        # Each of these is taken from a transcript whose emitted_lines were
        # never read.
        hashed = hash(session())
        pickled = pickle.loads(pickle.dumps(session()))
        copied = copy.deepcopy(session())
        shown = repr(session())
        unread = session()
        read = session()
        read.emitted_lines
        ref = oracles.reference_run_session(ScriptedGenerator(text, chunk_size), GOLD.question)
        assert "emitted_lines" not in vars(unread)
        assert read.emitted_lines is read.emitted_lines  # built once, then kept
        assert unread == read and pickled == read and copied == read
        assert hashed == hash(read) == hash(pickled) == hash(copied)
        assert shown == repr(read) == repr(ref).replace("ReferenceTranscript", "SessionTranscript")
        assert "emitted_lines=(EmittedLine(" in shown
        assert (read.prompt, read.emitted_lines, read.outcome, read.halted_count) == (
            ref.prompt, ref.emitted_lines, ref.outcome, ref.halted_count
        )

    def test_threads_reading_one_fresh_transcript_agree(self):
        record = max(bundled_examples().records, key=lambda r: len(r.gold_program))
        text = strip_computed_comments(record.gold_program) + "\n"
        expected = oracles.reference_run_session(ScriptedGenerator(text), record.question)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(300):
                t = run_session(ScriptedGenerator(text), record.question)
                assert "emitted_lines" not in vars(t)
                start = threading.Barrier(4, timeout=10)
                results = [None] * 4

                def read(i):
                    start.wait()
                    results[i] = t.emitted_lines

                threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert results == [expected.emitted_lines] * 4
        finally:
            sys.setswitchinterval(interval)


# The line loop keeps each line's text; only the transcript builds the
# EmittedLine tuple, when it is read.
RUNTIME = Path(runtime.__file__)


def emitted_line_calls(source: str, function: str) -> list[int]:
    """Lines that call ``EmittedLine`` by name inside ``function``, which
    ``source`` defines once."""
    [node] = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    return sorted(
        call.lineno
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "EmittedLine"
    )


def test_run_session_builds_no_emitted_line():
    assert emitted_line_calls(RUNTIME.read_text(encoding="utf-8"), "run_session") == []


def test_an_emitted_line_call_in_the_loop_is_found():
    source = (
        "def run_session(gen):\n"
        "    line = EmittedLine('generator', text)\n"
        "    def inner():\n"
        "        return EmittedLine('solver-injected', text)\n"
        "    return runtime.EmittedLine('generator', text), format_number(2)\n"
        "def emitted_lines():\n"
        "    return EmittedLine('generator', text)\n"
    )
    assert emitted_line_calls(source, "run_session") == [2, 4]
    assert emitted_line_calls(source, "emitted_lines") == [7]
