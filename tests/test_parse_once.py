"""Parse once per pipeline: sessions keep their parsed program, records their gold."""

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
    SessionTranscript,
    ToyPolicy,
    bundled_examples,
    evaluate_corpus,
    generate_toy_tasks,
    has_return,
    parse_program,
    reward_r1,
    rollout,
    run_session,
    score_program,
    total_reward,
)
from flsolve import parser, rewards, runtime
from flsolve.toy import ACTION_NAMES, N_FEATURES

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
# or commented, and lines that str.splitlines splits where the session does
# not.
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
        source = t.generated_source
        assert t.program == reparsed(source)
        assert score_program(t.program, GOLD) == total_reward(source, GOLD)
        compiled = t.program is not None and has_return(t.program)
        assert reward_r1(reparsed(source)) == (1 if compiled else 0)
        assert total_reward(source, GOLD).diagnostics.compiled == compiled

    @settings(max_examples=400, deadline=None)
    @given(generator_text | st.text(max_size=60), st.integers(0, 13))
    @example("var1 = [find](a) # 3\r[return](var1)\n", 0)
    @example("var1 = [find](a) # 3\nvar2 = [divide](var1, 0)\n[return](var2)", 1)
    def test_scoring_the_transcript_matches_the_text(self, text, chunk_size):
        t = run_session(ScriptedGenerator(text, chunk_size), GOLD.question)
        scored = rewards._score_transcript(t, GOLD, DEFAULT_REWARD_CONFIG)
        assert scored == total_reward(t.generated_source, GOLD)

    def test_a_reparse_at_a_foreign_line_break_is_scored_on_its_own(self):
        # The session stalls on one line; split at \r, the text answers 3.
        t = run_session(ScriptedGenerator("var1 = [find](a) # 3\r[return](var1)\n"), "q")
        assert t.outcome.error.kind == "generator-stalled"
        scored = rewards._score_transcript(t, GOLD, DEFAULT_REWARD_CONFIG)
        assert scored.diagnostics.y_gen == 3

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

    def test_transcript_without_entries_parses_its_text(self):
        t = run_session(ScriptedGenerator(GOLD.gold_program), GOLD.question)
        bare = SessionTranscript(t.prompt, t.emitted_lines, t.outcome, t.halted_count)
        assert bare == t
        assert bare.program == t.program == reparsed(t.generated_source)

    def test_foreign_line_breaks_are_exactly_the_other_splitlines_boundaries(self):
        pattern = runtime._FOREIGN_LINE_BREAK
        for code in range(sys.maxunicode + 1):
            c = chr(code)
            if c != "\n":
                splits = len(f"a{c}b".splitlines()) == 2
                assert splits == (pattern.search(c) is not None), repr(c)


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
            rollout(policy, policy, record, greedy=True)
            assert parse_calls == [record.gold_program]

    @pytest.mark.parametrize("chunk_size", [0, 4])
    def test_gold_replays(self, parse_calls, chunk_size):
        record = replace(bundled_examples().records[2])
        dataset = DatasetFile((record,), "one")
        spec = GeneratorSpec("gold-replay", chunk_size=chunk_size)
        for _ in range(2):
            assert evaluate_corpus(dataset, spec).correct == 1
            assert parse_calls == [record.gold_program]
