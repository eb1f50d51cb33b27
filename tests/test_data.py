"""Dataset loading, validation, statistics, and corruption detection."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flsolve import (
    ARITHMETIC_OPERATORS,
    STATS_ORDER,
    DatasetError,
    DatasetFile,
    FAILURE_REASONS,
    Operator,
    ProblemRecord,
    Program,
    bundled_examples,
    bundled_examples_path,
    format_number,
    load_dataset,
    operator_stats,
    ordered_stats,
    parse_program,
    reasoning_step_count,
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

    # A line ends at "\n" only; "\r" between JSON tokens is whitespace.
    CR_RECORD = '{"id": "a",\r "question": "q", "program": "p", "answer": "1"}'

    def test_carriage_return_whitespace_loads(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_bytes((self.CR_RECORD + "\n").encode())
        assert [r.id for r in load_dataset(path).records] == ["a"]

    def test_crlf_lines_load(self, tmp_path):
        records = [{"id": i, "question": "q", "program": "p", "answer": "1"} for i in "ab"]
        path = tmp_path / "ds.jsonl"
        path.write_bytes("".join(json.dumps(r) + "\r\n" for r in records).encode())
        assert [r.id for r in load_dataset(path).records] == ["a", "b"]

    def test_carriage_return_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_bytes((self.CR_RECORD + "\nnot json\n").encode())
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

    @staticmethod
    def load_line(path, fields: str):
        """Load a one-record file whose JSON object ends with ``fields``."""
        path.write_text('{"question": "q", "program": "p", ' + fields + "}\n", encoding="utf-8")
        return load_dataset(path)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(-(10**14000), 10**14000)
        | st.tuples(st.integers(-(10**60), 10**60), st.integers(1, 40))
    )
    @example(7 * (10**5000 - 1) // 9)  # 5000 digits, past CPython's digit limit
    @example((3141592653589793238, 18))  # more places than a float holds
    def test_bare_json_numbers_load_exactly(self, tmp_path_factory, number):
        m, places = number if isinstance(number, tuple) else (number, 0)
        digits = format_number(Fraction(abs(m))).rjust(places + 1, "0")
        text = "-" * (m < 0) + (f"{digits[:-places]}.{digits[-places:]}" if places else digits)
        path = tmp_path_factory.mktemp("data") / "bare.jsonl"
        (record,) = self.load_line(path, f'"id": "a", "answer": {text}').records
        assert record.gold_answer == Fraction(m, 10**places)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ('"id": 5, "answer": "1"', "field 'id' must be a string"),
            ('"id": "a", "answer": true', "field 'answer' is not a number: True"),
            ('"id": "a", "answer": 1e16', "field 'answer' is not a number: '1e16'"),
        ],
    )
    def test_bad_bare_values_report_line(self, tmp_path, fields, message):
        path = tmp_path / "ds.jsonl"
        with pytest.raises(DatasetError) as raised:
            self.load_line(path, fields)
        assert str(raised.value) == f"{path}:1: {message}"

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

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(-(10**14000), 10**14000),
        st.integers(1, 10**14000)
        | st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 20000), st.integers(0, 20000)),
    )
    @example(1, 3**9200)  # 4389 digits below the line
    @example(-(10**13999) - 1, 2**20000)  # a decimal with 20000 places
    def test_round_trip_past_the_digit_limit(self, tmp_path_factory, num, den):
        # Answers render past CPython's int-to-str digit limit, so they must
        # also load past it.
        record = ProblemRecord("big", "How many?", "[return](1)", Fraction(num, den))
        path = tmp_path_factory.mktemp("data") / "big.jsonl"
        write_dataset([record], path)
        assert load_dataset(path).records == (record,)

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

    def test_no_find_reason(self):
        # Scoring divides by the gold [find] count, so a record without one
        # fails validation instead of failing score and eval later.
        no_find = ProblemRecord(
            id="nofind", question="?",
            gold_program="var1 = [add](1, 2)\n[return](var1)", gold_answer=Fraction(3),
        )
        report = validate_dataset(DatasetFile((no_find,), "inline"))
        assert [(f.record_id, f.reason) for f in report.failures] == [("nofind", "no-find")]
        assert "no-find" in FAILURE_REASONS
        assert report.operator_frequency == {}

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

    def test_stats_order_is_every_computing_operator(self):
        assert len(STATS_ORDER) == len(set(STATS_ORDER))
        assert set(STATS_ORDER) == ARITHMETIC_OPERATORS
        assert [op.value for op in STATS_ORDER] == [
            "multiply", "divide", "add", "subtract", "lcm", "gcd", "round", "floor", "mod",
        ]


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
