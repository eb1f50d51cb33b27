"""Corpus evaluation: generator recipes, metrics, parallel equivalence."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flsolve import (
    DatasetFile,
    EvalReport,
    GeneratorSpec,
    ProblemRecord,
    bundled_examples,
    evaluate_corpus,
    generate_toy_tasks,
    strip_computed_comments,
)
from flsolve import parser
from flsolve.evaluation import _replay_text

import oracles

# Lines a gold program may hold besides its statements: blank, whitespace
# only, comment only, a lone trailing comma.
FILLER_LINES = ("", "   ", "\t", "# note", "  # 3 + 4 = 7", ",", " , ", "#,", "\x1c")


@st.composite
def decorated_gold_programs(draw):
    source, _ = oracles.random_program(random.Random(draw(st.integers(0, 2**32))))
    lines = []
    for line in source.splitlines():
        lines += draw(st.lists(st.sampled_from(FILLER_LINES), max_size=2))
        lines.append(line + draw(st.sampled_from(("", ",", " ,", " # stale,"))))
    lines += draw(st.lists(st.sampled_from(FILLER_LINES), max_size=2))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def fixture_ds():
    return bundled_examples()


class TestGeneratorSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec("replay")

    def test_gold_replay_strips_computed_comments(self, fixture_ds):
        record = fixture_ds.records[0]
        gen = GeneratorSpec("gold-replay").build(record)
        assert gen.text == strip_computed_comments(record.gold_program)

    def test_replay_text_matches_strip_computed_comments(self, fixture_ds):
        records = list(fixture_ds.records) + generate_toy_tasks(0, 60)
        for record in records:
            assert _replay_text(record) == strip_computed_comments(record.gold_program)

    @settings(max_examples=200, deadline=None)
    @given(decorated_gold_programs())
    def test_replay_text_keeps_blank_and_comment_lines(self, source):
        record = ProblemRecord("decorated", "q", source, Fraction(0))
        assert _replay_text(record) == strip_computed_comments(source)

    def test_gold_replay_reuses_the_cached_parse(self, fixture_ds, monkeypatch):
        record = fixture_ds.records[0]
        record.parsed_gold()
        calls = []
        real = parser.parse_line

        def counting(raw, line_no=1):
            calls.append(raw)
            return real(raw, line_no)

        for name, module in list(sys.modules.items()):
            if name.startswith("flsolve") and getattr(module, "parse_line", None) is real:
                monkeypatch.setattr(module, "parse_line", counting)
        GeneratorSpec("gold-replay").build(record)
        assert calls == []

    def test_scripted_ignores_the_record(self, fixture_ds):
        spec = GeneratorSpec("scripted", text="var1 = [find](a) # 1\n[return](var1)")
        texts = {spec.build(r).text for r in fixture_ds.records}
        assert texts == {"var1 = [find](a) # 1\n[return](var1)"}

    def test_empty_produces_nothing(self, fixture_ds):
        gen = GeneratorSpec("scripted").build(fixture_ds.records[0])
        assert gen.next_chunk("anything") == ""


class TestGoldReplayEvaluation:
    def test_full_marks(self, fixture_ds):
        report = evaluate_corpus(fixture_ds, GeneratorSpec("gold-replay"))
        assert report.total == 5
        assert report.correct == 5
        assert report.accuracy == 100.0
        assert report.syntax_error_rate == 0.0
        assert all(r.correct and r.compiled for r in report.per_problem)
        assert all(r.error_kind is None for r in report.per_problem)

    def test_step_buckets(self, fixture_ds):
        report = evaluate_corpus(fixture_ds, GeneratorSpec("gold-replay"))
        assert report.error_rate_by_steps == {6: (0, 1), 3: (0, 1), 5: (0, 3)}

    def test_chunked_replay_is_equivalent(self, fixture_ds):
        whole = evaluate_corpus(fixture_ds, GeneratorSpec("gold-replay"))
        chunked = evaluate_corpus(fixture_ds, GeneratorSpec("gold-replay", chunk_size=3))
        assert chunked == whole

    def test_worker_pool_matches_serial(self, fixture_ds):
        spec = GeneratorSpec("gold-replay")
        assert evaluate_corpus(fixture_ds, spec, workers=2) == evaluate_corpus(
            fixture_ds, spec, workers=1
        )


class TestDegenerateGenerators:
    def test_empty_generator_is_all_syntax_errors(self, fixture_ds):
        report = evaluate_corpus(fixture_ds, GeneratorSpec("scripted"))
        assert report.accuracy == 0.0
        assert report.syntax_error_rate == 100.0
        assert all(r.error_kind == "generator-stalled" for r in report.per_problem)
        assert all(not r.compiled for r in report.per_problem)

    def test_scripted_answer_matches_one_problem(self, fixture_ds):
        goal = next(r for r in fixture_ds.records if r.id == "goal-count")
        spec = GeneratorSpec("scripted", text=strip_computed_comments(goal.gold_program))
        report = evaluate_corpus(fixture_ds, spec)
        assert report.syntax_error_rate == 0.0  # it always compiles
        assert report.correct == 1
        assert report.accuracy == 20.0
        by_id = {r.id: r for r in report.per_problem}
        assert by_id["goal-count"].correct
        assert not by_id["road-repair"].correct


class TestReportShape:
    def test_json_layout(self, fixture_ds):
        payload = evaluate_corpus(fixture_ds, GeneratorSpec("gold-replay")).to_json()
        assert payload["accuracy"] == 100.0
        assert payload["error_rate_by_steps"]["5"] == {"errors": 0, "total": 3, "rate": 0.0}
        assert len(payload["per_problem"]) == 5
        first = payload["per_problem"][0]
        assert first["id"] == "action-figures"
        assert first["answer"] == "11"
        assert first["reward"]["total"] == "5"

    def test_empty_dataset(self):
        report = evaluate_corpus(DatasetFile((), "inline"), GeneratorSpec("scripted"))
        assert isinstance(report, EvalReport)
        assert report.total == 0
        assert report.accuracy == 0.0
        assert report.syntax_error_rate == 0.0
