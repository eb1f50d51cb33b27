"""Parse once per pipeline: sessions keep their parsed program, records their gold."""

import copy
import pickle
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flsolve import (
    DEFAULT_REWARD_CONFIG,
    DatasetFile,
    GeneratorSpec,
    ProblemRecord,
    Program,
    ScriptedGenerator,
    ToyPolicy,
    bundled_examples,
    evaluate,
    evaluate_corpus,
    generate_toy_tasks,
    greedy_accuracy,
    parse_program,
    run_session,
    score_program,
    strip_computed_comments,
    tally,
    total_reward,
    train_ppo_demo,
)
from flsolve import parser, rewards, runtime
from flsolve.toy import ACTION_NAMES, N_FEATURES, _StepTable

import oracles

GOLD = ProblemRecord(
    id="sum",
    question="q",
    gold_program=(
        "var1 = [find](a) # 3\n"
        "var2 = [find](b) # 4\n"
        "var3 = [add](var1, var2) # 3 + 4 = 7\n"
        "[return](var3) # 7"
    ),
    gold_answer=Fraction(7),
)

# Generator text is lines of a whole statement or scraps, each followed by
# more scraps and a line break. The scraps and breaks make statements broken
# or commented, and put the other breaks of str.splitlines inside lines,
# where they are ordinary characters.
STATEMENTS = (
    "var1 = [find](a) # 3",
    "var2 = [find](b) # 4",
    "var1 = [find](x))",
    "var3 = [add](var1, var2)",
    "var3 = [divide](var1, var2) # 9",
    "var4 = [multiply](var3, -2)",
    "[return](var3)",
    "[return](var1) # 3",
)
SCRAPS = (
    "", " ", ",", ")", "(", "#", " # 7", " # ?", "x", "1/2", "var2", "[add]", "[frob]",
    "\r", "\x1c", "\u2028", "\x85",
)
BREAKS = ("\n", "\n", "\n", "", "\r", "\r\n", "\x0c", "\x1c", "\u2028")
scraps = st.lists(st.sampled_from(SCRAPS), max_size=4).map("".join)
line = st.tuples(st.sampled_from(STATEMENTS) | scraps, scraps, st.sampled_from(BREAKS))
generator_text = st.lists(line, max_size=8).map(lambda parts: "".join(map("".join, parts)))


def reparsed(source: str) -> Program | None:
    result = parse_program(source)
    return result if isinstance(result, Program) else None


class TestTranscriptProgram:
    @settings(max_examples=400, deadline=None)
    @given(generator_text, st.integers(0, 13))
    @example("var1 = [find](x)),\u2028 # 7", 0)
    @example("var1 = [find](a) # 3\rvar2 = [add](var1, 1)\n[return](var2)", 1)
    @example("var1 = [find](a) # 3\n# note\n[return](var1)", 5)
    def test_matches_reparsing_the_generated_source(self, text, chunk_size):
        t = run_session(ScriptedGenerator(text, chunk_size), GOLD.question)
        source = str(t.generated_source)  # plain text, so total_reward parses it
        assert t.program == reparsed(source)
        assert score_program(t.program, GOLD) == total_reward(source, GOLD)
        compiled = t.program is not None and tally(t.program)[1]
        assert score_program(reparsed(source), GOLD).r1 == (1 if compiled else 0)
        assert total_reward(source, GOLD).diagnostics.compiled == compiled

    @settings(max_examples=400, deadline=None)
    @given(generator_text | st.text(max_size=60), st.integers(0, 13))
    @example("var1 = [find](a) # 3\r[return](var1)\n", 0)
    @example("var1 = [find](a) # 3\nvar2 = [divide](var1, 0)\n[return](var2)", 1)
    def test_scoring_the_transcript_matches_the_text(self, text, chunk_size):
        t = run_session(ScriptedGenerator(text, chunk_size), GOLD.question)
        scored = rewards._score_transcript(t, GOLD, DEFAULT_REWARD_CONFIG)
        assert scored == total_reward(str(t.generated_source), GOLD)
        assert total_reward(t.generated_source, GOLD) == scored

    @settings(max_examples=400, deadline=None)
    @given(generator_text, st.integers(0, 13))
    @example("var1 = [find](a) # 3\r[return](var1)", 0)
    @example("var1 = [find](a) # 3\u2028[return](var1)", 1)
    @example("var1 = [find](a) # 3\x0c[return](var1)", 4)
    @example("var1 = [find](a\u2028b) # 3\r\n[return](var1)\r\n", 2)
    def test_the_session_answers_what_the_parsed_text_answers(self, text, chunk_size):
        parsed = parse_program(text)
        t = run_session(ScriptedGenerator(text, chunk_size), GOLD.question)
        if isinstance(parsed, Program) and (
            t.outcome.error is None or t.outcome.error.kind != "budget-exhausted"
        ):
            assert t.outcome.answer == evaluate(parsed).answer

    @settings(max_examples=200, deadline=None)
    @given(generator_text, st.integers(0, 13))
    @example("var1 = [find](a) # ?\nvar2 = [add](var1, 1)", 0)
    @example("var1 = [find](a) # 3\nvar2 = [divide](var1, 0)\n[return](var2)", 2)
    def test_sessions_compare_by_value(self, text, chunk_size):
        first = run_session(ScriptedGenerator(text, chunk_size), GOLD.question)
        second = run_session(ScriptedGenerator(text, chunk_size), GOLD.question)
        assert first == second and hash(first) == hash(second)
        for t in (first, second):
            assert pickle.loads(pickle.dumps(t)) == t
            assert copy.deepcopy(t) == t

    def test_a_reparse_at_a_foreign_line_break_is_scored_on_its_own(self):
        # A break other than \n is a character in its line, to the session and
        # to the parser: one [find] line with a comment, and no answer.
        for brk in ("\r", "\u2028", "\x0c"):
            text = f"var1 = [find](a) # 3{brk}[return](var1)\n"
            t = run_session(ScriptedGenerator(text), "q")
            assert t.outcome.error.kind == "generator-stalled"
            assert len(t.program.statements) == 1 and t.program.statements[0].is_find
            assert t.program == reparsed(text)
            assert evaluate(t.program).answer is None
            scored = rewards._score_transcript(t, GOLD, DEFAULT_REWARD_CONFIG)
            assert scored.diagnostics.y_gen is None
            assert total_reward(text, GOLD) == scored

    def test_the_session_outcome_scores_r4(self, monkeypatch):
        record = bundled_examples().records[0]
        t = run_session(ScriptedGenerator(record.gold_program, 3), record.question)
        expected = score_program(t.program, record)
        monkeypatch.setattr(rewards, "evaluate", None)  # evaluating would fail
        assert rewards._score_transcript(t, record, DEFAULT_REWARD_CONFIG) == expected
        report = evaluate_corpus(DatasetFile((record,), "one"), GeneratorSpec("gold-replay"))
        assert report.per_problem[0].reward == expected

    def test_gold_replay_program_carries_injected_comments(self):
        record = bundled_examples().records[0]
        t = run_session(ScriptedGenerator(record.gold_program, 3), record.question)
        assert t.program == reparsed(t.generated_source)
        assert t.program.statements[-2].annotation is not None


# Sessions that answer, fail to evaluate, fail to parse and stall.
SESSION_TEXTS = (
    GOLD.gold_program,
    "var1 = [find](a) # 3\nvar2 = [divide](var1, 0)\n[return](var2)",
    "var1 = [find](a) # 3\nvar2 = [frob](var1)\n",
    "var1 = [find](a) # 3\n",
)
DERIVED = {
    "plus empty": lambda s: s + "",
    "strip": str.strip,
    "str": str,
    "pickle": lambda s: pickle.loads(pickle.dumps(s)),
    "deepcopy": copy.deepcopy,
}


class TestSessionSource:
    """A session's generated_source is scored through its transcript."""

    @pytest.mark.parametrize("text", SESSION_TEXTS)
    def test_scoring_it_parses_and_evaluates_nothing(self, monkeypatch, text):
        t = run_session(ScriptedGenerator(text, 2), GOLD.question)
        expected = total_reward(str(t.generated_source), GOLD)
        monkeypatch.setattr(rewards, "parse_program", None)  # parsing would fail
        monkeypatch.setattr(rewards, "evaluate", None)  # evaluating would fail
        assert total_reward(t.generated_source, GOLD) == expected

    @pytest.mark.parametrize("derive", DERIVED.values(), ids=DERIVED.keys())
    @pytest.mark.parametrize("text", SESSION_TEXTS)
    def test_derived_text_is_a_plain_str(self, text, derive):
        t = run_session(ScriptedGenerator(text, 2), GOLD.question)
        plain = "\n".join(line.text for line in t.emitted_lines)
        derived = derive(t.generated_source)
        assert type(derived) is str
        assert derived == derive(plain)

    @pytest.mark.parametrize("text", SESSION_TEXTS)
    def test_a_transcript_pickles_and_copies(self, text):
        t = run_session(ScriptedGenerator(text, 2), GOLD.question)
        again = pickle.loads(pickle.dumps(t))
        for copied in (again, copy.deepcopy(t)):
            assert copied == t
            assert copied.program == t.program
            assert total_reward(copied.generated_source, GOLD) == total_reward(
                t.generated_source, GOLD
            )


# Sessions whose text carries the generator's own comments on computed lines,
# right and wrong, and one that fails after two computed lines.
COMMENTED_TEXTS = (
    "var1 = [find](a) # 3\nvar2 = [add](var1, 4) # 7\nvar3 = [add](var2, 1) # 99\n"
    "[return](var3) # 8",
    "var1 = [find](a) # 3\nvar2 = [add](var1, 4) # 7\nvar3 = [add](var2, 1)\n"
    "var4 = [divide](var3, 0) # 0\n[return](var4)",
)


@pytest.fixture
def program_reads(monkeypatch):
    """Transcripts whose ``program`` was read."""
    reads = []
    real = runtime.SessionTranscript.program

    def spy(self):
        reads.append(self)
        return real.fget(self)

    monkeypatch.setattr(runtime.SessionTranscript, "program", property(spy))
    return reads


class TestProgramBuiltWhenRead:
    """A transcript keeps the statements its session parsed and the solver's
    comments; ``program`` annotates them when read, and scoring never reads it."""

    @settings(max_examples=400, deadline=None)
    @given(generator_text | st.text(max_size=60), st.integers(0, 13))
    @example(GOLD.gold_program, 0)
    @example("var1 = [find](a) # 3\nvar2 = [divide](var1, 0) # 1\n[return](var2)", 2)
    @example("var1 = [find](a) # 3\nvar2 = [add](var1, 2) # 9)\n[return](var2)", 13)
    def test_equals_the_eagerly_annotated_program(self, text, chunk_size):
        t = run_session(ScriptedGenerator(text, chunk_size), GOLD.question)
        assert t.program == oracles.reference_session_program(text, chunk_size)

    @pytest.mark.parametrize("chunk_size", [0, 1, 4, 13])
    @pytest.mark.parametrize("text", SESSION_TEXTS + COMMENTED_TEXTS)
    def test_answered_and_failed_sessions(self, text, chunk_size):
        t = run_session(ScriptedGenerator(text, chunk_size), GOLD.question)
        program = t.program
        assert program == oracles.reference_session_program(text, chunk_size)
        assert program == reparsed(str(t.generated_source))
        if program is not None:
            computed = [s.annotation for s in program.statements if s.is_arithmetic]
            assert sum(a is not None for a in computed) == t.halted_count

    def test_gold_replays_of_the_bundled_examples(self):
        for record in bundled_examples().records:
            for chunk_size in (0, 3):
                t = run_session(ScriptedGenerator(record.gold_program, chunk_size), "q")
                assert t.outcome.error is None
                assert t.program == oracles.reference_session_program(
                    record.gold_program, chunk_size
                )

    def test_total_reward_of_a_generated_source_reads_no_program(self, program_reads):
        for text in SESSION_TEXTS + COMMENTED_TEXTS:
            for chunk_size in (0, 3):
                t = run_session(ScriptedGenerator(text, chunk_size), GOLD.question)
                total_reward(t.generated_source, GOLD)
        assert program_reads == []

    def test_evaluate_corpus_reads_no_program(self, program_reads):
        dataset = bundled_examples()
        assert evaluate_corpus(dataset, GeneratorSpec("gold-replay", chunk_size=5)).correct
        for text in SESSION_TEXTS[1:] + COMMENTED_TEXTS:
            evaluate_corpus(dataset, GeneratorSpec("scripted", text))
        assert program_reads == []

    def test_train_ppo_demo_reads_no_program(self, program_reads):
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        history = train_ppo_demo(policy, generate_toy_tasks(3, 4), iterations=3, seed=3)
        assert len(history) == 3
        assert program_reads == []


class TestParsedGold:
    def test_cached_and_shared(self):
        record = replace(GOLD)
        gold = record.parsed_gold()
        assert gold == parse_program(GOLD.gold_program)
        assert record.parsed_gold() is gold

    def test_cache_leaves_equality_hash_and_pickle_alone(self):
        cached, fresh = replace(GOLD), replace(GOLD)
        cached.parsed_gold()
        assert cached == fresh
        assert hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh)
        assert pickle.dumps(cached) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(cached)) == cached

    def test_bad_gold_raises_every_time(self):
        broken = ProblemRecord("broken", "q", "var1 = [oops](a)", Fraction(1))
        for _ in range(2):
            with pytest.raises(ValueError, match="gold program for 'broken' does not parse: line 1"):
                broken.parsed_gold()
        with pytest.raises(ValueError, match="does not parse"):
            score_program(None, broken)

    def test_parsed_programs_pickle(self):
        gold = GOLD.parsed_gold()
        assert pickle.loads(pickle.dumps(gold)) == gold
        assert not hasattr(gold.statements[0], "__dict__")


@pytest.fixture
def parse_calls(monkeypatch):
    """Sources passed to parse_program from anywhere in the package."""
    calls = []
    real = parser.parse_program

    def counting(source):
        calls.append(source)
        return real(source)

    for name, module in list(sys.modules.items()):
        if name.startswith("flsolve") and getattr(module, "parse_program", None) is real:
            monkeypatch.setattr(module, "parse_program", counting)
    return calls


class TestNoReparse:
    """Only a record's gold is ever parsed whole, and only on first use."""

    def test_rollouts(self, parse_calls):
        record = generate_toy_tasks(0, 1)[0]
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        for _ in range(2):
            # A scored episode, then one that reads only its answer.
            oracles.reference_episode(_StepTable(policy), record)
            greedy_accuracy(policy, [record])
            assert parse_calls == [record.gold_program]

    @pytest.mark.parametrize("chunk_size", [0, 4])
    def test_gold_replays(self, parse_calls, chunk_size):
        record = replace(bundled_examples().records[2])
        dataset = DatasetFile((record,), "one")
        spec = GeneratorSpec("gold-replay", chunk_size=chunk_size)
        for _ in range(2):
            assert evaluate_corpus(dataset, spec).correct == 1
            assert parse_calls == [record.gold_program]


@pytest.fixture
def static_checks(monkeypatch):
    """Entries passed to the parser's static check by a transcript's program."""
    calls = []
    real = runtime._static_check

    def counting(entries):
        calls.append(entries)
        return real(entries)

    monkeypatch.setattr(runtime, "_static_check", counting)
    return calls


class TestStaticCheckOnlyAfterAnError:
    """A session that answered has enforced every rule of the static check,
    so its transcript's program skips it; one that ended in an error does not."""

    @pytest.mark.parametrize("chunk_size", [0, 1, 5])
    def test_not_run_for_a_session_that_answered(self, static_checks, chunk_size):
        for record in bundled_examples().records:
            text = strip_computed_comments(record.gold_program)
            t = run_session(ScriptedGenerator(text, chunk_size), record.question)
            assert t.outcome.error is None
            assert t.program == reparsed(str(t.generated_source)) is not None
            assert total_reward(t.generated_source, record) == total_reward(
                str(t.generated_source), record
            )
        assert static_checks == []

    @pytest.mark.parametrize(
        "text, kind, compiles",
        [
            ("var1 = [find](a) # 3\nvar2 = [divide](var1, 0)\n[return](var2)",
             "division-by-zero", True),
            ("var1 = [find](a) # ?\nvar2 = [add](var1, 1)\n[return](var2)",
             "unknown-operand", True),
            ("var1 = [find](a) # 3\nvar2 = [add](var9, 1)\n[return](var2)",
             "unbound-variable", False),
            ("var1 = [find](a) # 3\n[return](var9)", "unbound-variable", False),
            ("var1 = [find](a) # 3\nvar1 = [find](b) # 4\n[return](var1)",
             "duplicate-binding", False),
        ],
        ids=["eval-error", "unknown-operand", "unbound-operand", "unbound-return", "rebound"],
    )
    def test_run_for_a_session_that_ended_in_an_error(self, static_checks, text, kind, compiles):
        t = run_session(ScriptedGenerator(text, 3), GOLD.question)
        assert t.outcome.error.kind == kind
        assert static_checks == []
        program = t.program
        assert static_checks == [t.entries]
        assert (program is not None) == compiles
        assert program == reparsed(str(t.generated_source))
