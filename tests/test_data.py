"""Dataset loading, validation, statistics, and corruption detection."""

import json
from fractions import Fraction

import pytest

from flsolve import (
    DatasetError,
    DatasetFile,
    Operator,
    ProblemRecord,
    Program,
    bundled_examples,
    bundled_examples_path,
    load_dataset,
    operator_stats,
    ordered_stats,
    parse_program,
    reasoning_step_count,
    shuffled,
    validate_dataset,
    write_dataset,
)

FIXTURE_IDS = [
    "action-figures",
    "goal-count",
    "wire-length",
    "rope-skipping",
    "road-repair",
]

FIXTURE_FREQUENCY = {
    Operator.MULTIPLY: 2,
    Operator.DIVIDE: 2,
    Operator.ADD: 3,
    Operator.SUBTRACT: 4,
}


class TestLoadDataset:
    def test_bundled_fixture(self):
        ds = bundled_examples()
        assert [r.id for r in ds.records] == FIXTURE_IDS
        assert len(ds) == 5
        assert ds.source_path == str(bundled_examples_path())

    def test_answers_parse_exactly(self):
        answers = {r.id: r.gold_answer for r in bundled_examples().records}
        assert answers["wire-length"] == Fraction(1285, 100)
        assert answers["action-figures"] == Fraction(11)

    def test_blank_lines_are_skipped(self, tmp_path):
        record = {"id": "a", "question": "q", "program": "p", "answer": "1"}
        path = tmp_path / "ds.jsonl"
        path.write_text("\n" + json.dumps(record) + "\n\n", encoding="utf-8")
        assert [r.id for r in load_dataset(path).records] == ["a"]

    def test_duplicate_id_reports_line(self, tmp_path):
        record = {"id": "a", "question": "q", "program": "p", "answer": "1"}
        path = tmp_path / "ds.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r":2: duplicate record id 'a'"):
            load_dataset(path)

    def test_invalid_json_reports_line(self, tmp_path):
        record = {"id": "a", "question": "q", "program": "p", "answer": "1"}
        path = tmp_path / "ds.jsonl"
        path.write_text(json.dumps(record) + "\nnot json\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r":2: invalid JSON"):
            load_dataset(path)

    @pytest.mark.parametrize("missing", ["id", "question", "program", "answer"])
    def test_missing_field(self, tmp_path, missing):
        record = {"id": "a", "question": "q", "program": "p", "answer": "1"}
        del record[missing]
        path = tmp_path / "ds.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"missing field '{missing}'"):
            load_dataset(path)

    def test_non_string_field(self, tmp_path):
        record = {"id": 7, "question": "q", "program": "p", "answer": "1"}
        path = tmp_path / "ds.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="must be a string"):
            load_dataset(path)

    def test_non_numeric_answer(self, tmp_path):
        record = {"id": "a", "question": "q", "program": "p", "answer": "many"}
        path = tmp_path / "ds.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="not a number"):
            load_dataset(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="must be a JSON object"):
            load_dataset(path)


class TestWriteDataset:
    def test_round_trip(self, tmp_path):
        original = bundled_examples().records
        path = tmp_path / "copy.jsonl"
        write_dataset(original, path)
        assert load_dataset(path).records == original

    def test_answers_written_in_decimal_form(self, tmp_path):
        path = tmp_path / "copy.jsonl"
        write_dataset(bundled_examples().records, path)
        text = path.read_text(encoding="utf-8")
        assert '"answer": "12.85"' in text
        assert "1285/100" not in text


class TestValidateDataset:
    def test_bundled_fixture_is_clean(self):
        report = validate_dataset(bundled_examples())
        assert (report.total, report.passed, report.failed) == (5, 5, 0)
        assert report.failures == ()
        assert report.operator_frequency == FIXTURE_FREQUENCY

    def test_planted_corruptions_are_flagged_precisely(self):
        clean = bundled_examples().records
        wrong_answer = ProblemRecord(
            id="bad-answer",
            question=clean[0].question,
            gold_program=clean[0].gold_program,
            gold_answer=clean[0].gold_answer + 1,
        )
        typo = ProblemRecord(
            id="bad-operator",
            question=clean[0].question,
            gold_program=clean[0].gold_program.replace("[subtract]", "[substract]", 1),
            gold_answer=clean[0].gold_answer,
        )
        dangling = ProblemRecord(
            id="bad-variable",
            question=clean[1].question,
            gold_program=clean[1].gold_program.replace("(var1, var2)", "(var1, var9)"),
            gold_answer=clean[1].gold_answer,
        )
        ds = DatasetFile(tuple(clean) + (wrong_answer, typo, dangling), "inline")
        report = validate_dataset(ds)
        assert report.total == 8
        assert report.passed == 5
        flagged = {f.record_id: f.reason for f in report.failures}
        assert flagged == {
            "bad-answer": "answer-mismatch",
            "bad-operator": "parse-error",
            "bad-variable": "parse-error",
        }
        # frequencies count only passing records
        assert report.operator_frequency == FIXTURE_FREQUENCY

    def test_eval_error_reason(self):
        zero_div = ProblemRecord(
            id="zero-div",
            question="?",
            gold_program=(
                "var1 = [find](a) # 3\n"
                "var2 = [find](b) # 0\n"
                "var3 = [divide](var1, var2)\n"
                "[return](var3)"
            ),
            gold_answer=Fraction(1),
        )
        report = validate_dataset(DatasetFile((zero_div,), "inline"))
        assert [f.reason for f in report.failures] == ["eval-error"]
        assert "division-by-zero" in report.failures[0].detail

    def test_worker_pool_matches_serial(self):
        ds = bundled_examples()
        assert validate_dataset(ds, workers=2) == validate_dataset(ds, workers=1)

    def test_report_json_shape(self):
        report = validate_dataset(bundled_examples())
        payload = report.to_json()
        assert payload["total"] == 5
        assert payload["failures"] == []
        assert list(payload["operator_frequency"]) == [
            "multiply",
            "divide",
            "add",
            "subtract",
            "lcm",
            "gcd",
            "round",
            "floor",
            "mod",
        ]
        assert payload["operator_frequency"]["multiply"] == 2
        assert payload["operator_frequency"]["mod"] == 0


class TestOperatorStats:
    def test_fixture_counts(self):
        assert operator_stats(bundled_examples()) == FIXTURE_FREQUENCY

    def test_unparseable_record_raises(self):
        bad = ProblemRecord(
            id="nope", question="?", gold_program="var1 = [oops](a)", gold_answer=Fraction(1)
        )
        with pytest.raises(DatasetError, match="nope"):
            operator_stats(DatasetFile((bad,), "inline"))

    def test_ordered_stats_zero_fills(self):
        table = ordered_stats({Operator.MOD: 3})
        assert table["mod"] == 3
        assert sum(table.values()) == 3
        assert len(table) == 9


class TestReasoningStepCount:
    def test_fixture_step_counts(self):
        programs = {
            r.id: parse_program(r.gold_program) for r in bundled_examples().records
        }
        assert all(isinstance(p, Program) for p in programs.values())
        with_finds = {
            record_id: reasoning_step_count(p) for record_id, p in programs.items()
        }
        assert with_finds == {
            "action-figures": 6,
            "goal-count": 3,
            "wire-length": 5,
            "rope-skipping": 5,
            "road-repair": 5,
        }
        ops_only = {
            record_id: sum(1 for s in p.statements if not (s.is_find or s.is_return))
            for record_id, p in programs.items()
        }
        assert ops_only == {
            "action-figures": 2,
            "goal-count": 2,
            "wire-length": 2,
            "rope-skipping": 3,
            "road-repair": 2,
        }


class TestShuffled:
    def test_deterministic_and_non_destructive(self):
        records = bundled_examples().records
        ordered_before = list(records)
        first = shuffled(records, 3)
        second = shuffled(records, 3)
        assert first == second
        assert sorted(r.id for r in first) == sorted(r.id for r in records)
        assert list(records) == ordered_before

    def test_some_seed_moves_things(self):
        records = bundled_examples().records
        assert any(shuffled(records, seed) != list(records) for seed in range(5))
