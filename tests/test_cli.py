"""Command line behavior: exit codes, JSON on stdout, summaries on stderr."""

import hashlib
import importlib.metadata
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flsolve
from flsolve import (
    CONFIG_ENV_VAR,
    ProblemRecord,
    Program,
    ToyPolicy,
    bundled_examples,
    bundled_examples_path,
    parse_program,
    write_dataset,
)
from flsolve.cli import main

GOOD_PROGRAM = "var1 = [find](eggs) # 7\nvar2 = [multiply](var1, 2)\n[return](var2)\n"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out: str):
    return [json.loads(line) for line in out.strip().splitlines()]


@pytest.fixture()
def fixture_path():
    return str(bundled_examples_path())


class TestParseCommand:
    def test_ok(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(GOOD_PROGRAM, encoding="utf-8")
        code, out, _ = run_cli(["parse", str(path)], capsys)
        assert code == 0
        assert json_lines(out) == [
            {"ok": True, "statements": 3, "finds": 1, "has_return": True}
        ]

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(GOOD_PROGRAM))
        code, out, _ = run_cli(["parse", "-"], capsys)
        assert code == 0
        assert json_lines(out)[0]["ok"] is True

    def test_errors_exit_2(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(
            "var1 = [find](a) # 1\nvar2 = [frob](var1)\nvar3 = [add](var1, var9)\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(["parse", str(path)], capsys)
        assert code == 2
        lines = json_lines(out)
        assert [(l["line"], l["kind"]) for l in lines] == [
            (2, "unknown-operator"),
            (3, "undefined-variable"),
        ]
        assert all(l["ok"] is False for l in lines)
        assert "2 parse error(s)" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(["parse", "/no/such/file"], capsys)
        assert code == 1
        assert err.startswith("error:")


class TestRunCommand:
    def test_prints_answer(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(GOOD_PROGRAM, encoding="utf-8")
        code, out, _ = run_cli(["run", str(path)], capsys)
        assert code == 0
        assert out == "14\n"

    def test_decimal_answer(self, tmp_path, capsys):
        record = {r.id: r for r in bundled_examples().records}["wire-length"]
        path = tmp_path / "p.txt"
        path.write_text(record.gold_program, encoding="utf-8")
        code, out, _ = run_cli(["run", str(path)], capsys)
        assert code == 0
        assert out == "12.85\n"

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("gibberish\n", encoding="utf-8")
        code, _, err = run_cli(["run", str(path)], capsys)
        assert code == 2
        assert "malformed-line" in err

    def test_eval_failure_exits_3(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(
            "var1 = [find](a) # 1\nvar2 = [find](b) # 0\n"
            "var3 = [divide](var1, var2)\n[return](var3)\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(["run", str(path)], capsys)
        assert code == 3
        assert "division-by-zero" in err

    def test_value_past_the_bound_exits_3(self, tmp_path, capsys):
        # Squaring 10 fourteen times; the twelfth value has 6804 bits.
        lines = ["var1 = [find](side length) # 10"]
        lines += [f"var{i} = [multiply](var{i - 1}, var{i - 1})" for i in range(2, 16)]
        path = tmp_path / "p.txt"
        path.write_text("\n".join(lines + ["[return](var15)"]) + "\n", encoding="utf-8")
        code, out, err = run_cli(["run", str(path)], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("value-overflow: variable 'var12'")
        assert err.endswith("(statement 11)\n")

    def test_strict_flags_contradicted_comment(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(
            "var1 = [find](a) # 3\nvar2 = [multiply](var1, 2) # 3 * 2 = 7\n[return](var2)\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(["run", str(path)], capsys)
        assert (code, out) == (0, "6\n")
        code, _, err = run_cli(["run", "--strict", str(path)], capsys)
        assert code == 3
        assert "annotation-mismatch" in err


class TestScoreCommand:
    def test_score_against_record(self, tmp_path, capsys, fixture_path):
        record = bundled_examples().records[0]
        gen = tmp_path / "gen.txt"
        gen.write_text(record.gold_program, encoding="utf-8")
        code, out, err = run_cli(
            ["score", "--gen", str(gen), "--gold", fixture_path, "--id", record.id], capsys
        )
        assert code == 0
        payload = json_lines(out)[0]
        assert payload["id"] == "action-figures"
        assert payload["total"] == "5"
        assert "total=5" in err

    def test_single_record_dataset_needs_no_id(self, tmp_path, capsys):
        record = bundled_examples().records[0]
        ds_path = tmp_path / "one.jsonl"
        write_dataset([record], ds_path)
        gen = tmp_path / "gen.txt"
        gen.write_text(record.gold_program, encoding="utf-8")
        code, out, _ = run_cli(["score", "--gen", str(gen), "--gold", str(ds_path)], capsys)
        assert code == 0
        assert json_lines(out)[0]["id"] == record.id

    def test_values_past_the_digit_limit_render(self, tmp_path, capsys):
        # r4 compares the answer 1/3**2500 with a 4201-digit gold answer; its
        # exact value has more than 4300 digits.
        gold = tmp_path / "big.jsonl"
        record = {
            "id": "big",
            "question": "q",
            "program": "var1 = [find](a) # 1\n[return](var1)",
            "answer": "1" + "0" * 4200,
        }
        gold.write_text(json.dumps(record) + "\n", encoding="utf-8")
        gen = tmp_path / "gen.txt"
        gen.write_text(f"var1 = [find](a) # 1/{3**2500}\n[return](var1)\n", encoding="utf-8")
        code, out, _ = run_cli(["score", "--gen", str(gen), "--gold", str(gold)], capsys)
        assert code == 0
        payload = json_lines(out)[0]
        assert payload["id"] == "big"
        assert payload["diagnostics"]["y_gen"] == f"1/{3**2500}"
        assert "/" in payload["r4"] and len(payload["r4"]) > 4300

    def test_ambiguous_dataset_requires_id(self, tmp_path, capsys, fixture_path):
        gen = tmp_path / "gen.txt"
        gen.write_text(GOOD_PROGRAM, encoding="utf-8")
        code, _, err = run_cli(["score", "--gen", str(gen), "--gold", fixture_path], capsys)
        assert code == 1
        assert "pick one with --id" in err

    def test_unknown_id(self, tmp_path, capsys, fixture_path):
        gen = tmp_path / "gen.txt"
        gen.write_text(GOOD_PROGRAM, encoding="utf-8")
        code, _, err = run_cli(
            ["score", "--gen", str(gen), "--gold", fixture_path, "--id", "ghost"], capsys
        )
        assert code == 1
        assert "no record with id" in err


class TestFileAndStdinAgree:
    """A file and the same text on stdin are read alike, line ends included."""

    @pytest.mark.parametrize(
        "text",
        [
            "var1 = [find](a) # 3\n[return](var1)\n",
            "var1 = [find](a) # 3\r\n[return](var1)\r\n",
            "var1 = [find](a) # 3\r[return](var1)\n",
            "var1 = [find](a) # 3\rvar2 = [add](var1, 2)\r[return](var2)\r",
            "var1 = [find](a) # 3\u2028[return](var1)\n",
        ],
        ids=["lf", "crlf", "cr-inside", "cr-only", "u2028"],
    )
    @pytest.mark.parametrize("command", ["run", "parse", "score"])
    def test_same_output(self, tmp_path, capsys, monkeypatch, text, command):
        dataset = tmp_path / "one.jsonl"
        write_dataset([ProblemRecord("three", "q", "var1 = [find](a) # 3\n[return](var1)", 3)],
                      dataset)
        program = tmp_path / "p.txt"
        program.write_bytes(text.encode("utf-8"))

        def argv(source):
            if command == "score":
                return ["score", "--gen", source, "--gold", str(dataset)]
            return [command, source]

        from_file = run_cli(argv(str(program)), capsys)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_cli(argv("-"), capsys) == from_file

    def test_a_lone_carriage_return_is_no_line_break(self, tmp_path, capsys):
        program = tmp_path / "p.txt"
        program.write_bytes(b"var1 = [find](a) # 3\r[return](var1)\n")
        code, out, err = run_cli(["run", str(program)], capsys)
        assert (code, out) == (3, "")
        assert "missing-return" in err


class TestValidateCommand:
    def test_clean_dataset_exits_0(self, capsys, fixture_path):
        code, out, err = run_cli(["validate", fixture_path], capsys)
        assert code == 0
        payload = json_lines(out)[0]
        assert payload["failed"] == 0
        assert "5/5 records pass" in err

    def test_corrupt_dataset_exits_1(self, tmp_path, capsys):
        records = list(bundled_examples().records)
        records[0] = type(records[0])(
            id=records[0].id,
            question=records[0].question,
            gold_program=records[0].gold_program,
            gold_answer=records[0].gold_answer + 1,
        )
        ds_path = tmp_path / "bad.jsonl"
        write_dataset(records, ds_path)
        code, out, err = run_cli(["validate", str(ds_path)], capsys)
        assert code == 1
        payload = json_lines(out)[0]
        assert payload["failed"] == 1
        assert payload["failures"][0]["reason"] == "answer-mismatch"
        assert "4/5 records pass" in err

    def test_gold_without_find_fails_every_command_by_id(self, tmp_path, capsys):
        program = "var1 = [add](1, 2)\n[return](var1)"
        record = ProblemRecord("nofind", "How many?", program, Fraction(3))
        ds_path, gen = str(tmp_path / "nofind.jsonl"), str(tmp_path / "gen.txt")
        write_dataset([record], ds_path)
        (tmp_path / "gen.txt").write_text(GOOD_PROGRAM, encoding="utf-8")
        code, out, err = run_cli(["validate", ds_path], capsys)
        assert code == 1
        assert json_lines(out)[0]["failures"][0]["reason"] == "no-find"
        message = "error: gold program for 'nofind' declares no [find] variables\n"
        for argv in (
            ["score", "--gen", gen, "--gold", ds_path, "--id", "nofind"],
            ["eval", "--dataset", ds_path],
        ):
            assert run_cli(argv, capsys) == (1, "", message)

    def test_workers_flag(self, capsys, fixture_path):
        code, out, _ = run_cli(["validate", "--workers", "2", fixture_path], capsys)
        assert code == 0
        assert json_lines(out)[0]["passed"] == 5

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected_before_loading(self, tmp_path, capsys, workers):
        # The dataset does not exist: the flag is checked before it is read.
        missing = str(tmp_path / "missing.jsonl")
        code, out, err = run_cli(["validate", "--workers", workers, missing], capsys)
        assert (code, out) == (1, "")
        assert "--workers must be at least 1" in err


class TestStatsCommand:
    def test_table(self, capsys, fixture_path):
        code, out, err = run_cli(["stats", fixture_path], capsys)
        assert code == 0
        table = json_lines(out)[0]
        assert table == {
            "multiply": 2,
            "divide": 2,
            "add": 3,
            "subtract": 4,
            "lcm": 0,
            "gcd": 0,
            "round": 0,
            "floor": 0,
            "mod": 0,
        }
        assert "multiply" in err


class TestPromptCommand:
    def test_zero_shot(self, capsys):
        code, out, _ = run_cli(["prompt", "--question", "How many?"], capsys)
        assert code == 0
        assert out.endswith("Question: How many?\nPseudocode:\n")

    def test_few_shot(self, capsys, fixture_path):
        code, out, _ = run_cli(
            ["prompt", "--question", "How many?", "--dataset", fixture_path, "--k", "2"],
            capsys,
        )
        assert code == 0
        records = bundled_examples().records
        assert records[0].question in out
        assert records[1].question in out
        assert records[2].question not in out

    def test_k_beyond_dataset(self, capsys, fixture_path):
        code, _, err = run_cli(
            ["prompt", "--question", "q", "--dataset", fixture_path, "--k", "9"], capsys
        )
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("k", ["-1", "-5"])
    def test_negative_k(self, capsys, fixture_path, k):
        code, out, err = run_cli(
            ["prompt", "--question", "q", "--dataset", fixture_path, "--k", k], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestPpoDemoCommand:
    DEMO_ARGS = [
        "ppo-demo",
        "--iterations",
        "2",
        "--tasks",
        "4",
        "--heldout",
        "4",
        "--learning-rate",
        "0.05",
    ]

    # The keys of today's lines: a stats line's IterationStats fields and the
    # summary's. A key added later leaves the projection, and the pin, as is.
    STATS_KEYS = (
        "iteration", "mean_total_reward", "mean_kl", "clip_fraction", "beta",
        "policy_loss", "value_loss", "prob_sum_err",
    )
    SUMMARY_KEYS = (
        "initial_mean_reward", "final_mean_reward", "reward_gain", "heldout_accuracy",
        "iterations", "max_prob_sum_err",
    )

    @pytest.mark.parametrize(
        "seed, digest",
        [
            ("0", "1727c4bc594f7453a582c1a8bc7f1c3100a62e2eeb0ab8a1db421245de75e850"),
            ("7", "ab74114b5fe4a3df2003a8dd1597275c89c7e78c50ad19e194a57221913e7585"),
            ("41", "80afad116c848f0705ea09a5469e06260d098e088b4c54e688295f44b4d8f5c4"),
            ("31337", "3a1a5dedf06146902db9cea49ab96c27249861d6f07dc3a87ed49f117626f193"),
        ],
    )
    def test_training_output_is_pinned(self, seed, digest, capsys):
        # A default run: 16 tasks, 300 iterations, 32 held out.
        code, out, _ = run_cli(["ppo-demo", "--seed", seed], capsys)
        assert code == 0
        projected = []
        for line in json_lines(out):
            if "summary" in line:
                line = {"summary": {key: line["summary"][key] for key in self.SUMMARY_KEYS}}
            else:
                line = {key: line[key] for key in self.STATS_KEYS}
            projected.append(json.dumps(line))
        assert len(projected) == 301
        assert hashlib.sha256("\n".join(projected).encode()).hexdigest() == digest

    def test_reports_iterations_and_summary(self, capsys):
        code, out, err = run_cli(self.DEMO_ARGS, capsys)
        assert code == 0
        lines = json_lines(out)
        assert len(lines) == 3
        assert [l["iteration"] for l in lines[:2]] == [0, 1]
        summary = lines[2]["summary"]
        assert set(summary) == {
            "initial_mean_reward",
            "final_mean_reward",
            "reward_gain",
            "heldout_accuracy",
            "iterations",
            "max_prob_sum_err",
        }
        assert summary["iterations"] == 2
        assert "held-out accuracy" in err

    def test_save_policy(self, tmp_path, capsys):
        out_path = str(tmp_path / "trained.npz")
        code, _, err = run_cli(self.DEMO_ARGS + ["--save-policy", out_path], capsys)
        assert code == 0
        policy = ToyPolicy.load(out_path)
        assert policy.weights.shape == (7, 13)
        assert "policy saved" in err

    def test_save_policy_writes_the_named_path(self, tmp_path, capsys):
        out_path = tmp_path / "out"
        code, _, err = run_cli(self.DEMO_ARGS + ["--save-policy", str(out_path)], capsys)
        assert code == 0
        assert os.listdir(tmp_path) == ["out"]
        assert ToyPolicy.load(str(out_path)).weights.shape == (7, 13)
        assert f"policy saved to {out_path}\n" in err

    @staticmethod
    def run_demo(*flags):
        src = str(Path(flsolve.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run(
            [sys.executable, "-m", "flsolve", "ppo-demo", *flags],
            capture_output=True, text=True, env=env, timeout=120,
        )

    @pytest.mark.parametrize("where", ["missing/x.npz", ".", None])
    def test_unwritable_save_path_fails_before_training(self, tmp_path, where):
        path = "" if where is None else str(tmp_path / where)
        done = self.run_demo("--iterations", "2", "--save-policy", path)
        assert (done.returncode, done.stdout) == (1, "")
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ") and path in line

    def test_diverging_run_leaves_no_file_at_the_save_path(self, tmp_path):
        kept = tmp_path / "kept.npz"
        kept.write_bytes(b"earlier weights")
        for path in (tmp_path / "new.npz", kept):
            done = self.run_demo("--learning-rate", "1e4", "--save-policy", str(path))
            assert (done.returncode, done.stdout) == (1, "")
            assert done.stderr.startswith("error: training diverged at iteration 0")
        assert os.listdir(tmp_path) == ["kept.npz"]
        assert kept.read_bytes() == b"earlier weights"

    def test_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"ppo": {"learning_rate": 0.05, "epochs": 1}}), encoding="utf-8"
        )
        code, out, _ = run_cli(
            ["ppo-demo", "--iterations", "1", "--tasks", "2", "--heldout", "2",
             "--config", str(cfg_path)],
            capsys,
        )
        assert code == 0
        assert json_lines(out)[-1]["summary"]["iterations"] == 1

    def test_partial_config_keeps_demo_defaults(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"ppo": {"epochs": 4}}), encoding="utf-8")
        args = ["ppo-demo", "--iterations", "3", "--tasks", "4", "--heldout", "4"]
        _, plain, _ = run_cli(args, capsys)
        _, with_file, _ = run_cli(args + ["--config", str(cfg_path)], capsys)
        assert with_file == plain

    def test_config_from_environment(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"ppo": {"learning_rate": 0.05}}), encoding="utf-8")
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        _, via_flag, _ = run_cli(self.DEMO_ARGS, capsys)
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg_path))
        _, via_env, _ = run_cli(self.DEMO_ARGS[:-2], capsys)
        assert via_env == via_flag

    def test_diverging_run_exits_1_without_non_finite_output(self, capsys):
        # The value head overflows within the default 300 iterations.
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(["ppo-demo", "--learning-rate", "1e3"], capsys)
        assert (code, out) == (1, "")
        assert "NaN" not in out and "Infinity" not in out
        assert err.splitlines()[-1] == "error: training diverged at iteration 14: value_loss is inf"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--learning-rate", "1e3", "--iterations", "20"],
             "training diverged at iteration 14: value_loss is inf"),
            (["--learning-rate", "1e4"],
             "training diverged at iteration 0: log-probabilities must be finite"),
        ],
    )
    def test_diverging_run_fails_in_one_line(self, flags, message):
        # No numpy warning reaches stderr: the update checks for itself.
        src = str(Path(flsolve.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "flsolve", "ppo-demo", *flags],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n")

    def test_zero_iterations_rejected(self, capsys):
        code, _, err = run_cli(["ppo-demo", "--iterations", "0"], capsys)
        assert code == 1
        assert "--iterations" in err

    @pytest.mark.parametrize("batch_size", ["0", "-3"])
    def test_batch_size_below_one_rejected(self, capsys, monkeypatch, batch_size):
        def no_work(*args, **kwargs):
            raise AssertionError("tasks generated before the flags were checked")

        monkeypatch.setattr(flsolve.cli, "generate_toy_tasks", no_work)
        code, out, err = run_cli(self.DEMO_ARGS + ["--batch-size", batch_size], capsys)
        assert (code, out) == (1, "")
        assert err == "error: --batch-size must be at least 1\n"

    @pytest.mark.parametrize("heldout", ["0", "-2"])
    def test_heldout_below_one_rejected_before_training(self, capsys, heldout):
        code, out, err = run_cli(self.DEMO_ARGS + ["--heldout", heldout], capsys)
        assert code == 1
        assert out == ""
        assert "--heldout must be at least 1" in err

    @pytest.mark.parametrize(
        "flag, value, low", [("--tasks", "-1", 1), ("--tasks", "0", 1), ("--seed", "-1", 0)]
    )
    def test_bad_tasks_or_seed_rejected_by_flag_before_any_work(
        self, capsys, monkeypatch, flag, value, low
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("tasks generated before the flags were checked")

        monkeypatch.setattr(flsolve.cli, "generate_toy_tasks", no_work)
        code, out, err = run_cli(self.DEMO_ARGS + [flag, value], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {flag} must be at least {low}\n"

    @pytest.mark.parametrize(
        "rate, message",
        [
            ("nan", "learning_rate must be finite, got nan"),
            ("inf", "learning_rate must be finite, got inf"),
            ("-1.0", "learning_rate must be non-negative"),
        ],
    )
    def test_bad_learning_rate_rejected_before_training(self, capsys, rate, message):
        code, out, err = run_cli(self.DEMO_ARGS + ["--learning-rate", rate], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("field", ["beta", "learning_rate", "kl_target", "clip_range"])
    def test_nan_in_config_file_rejected_before_training(self, tmp_path, capsys, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"ppo": {"%s": NaN}}' % field, encoding="utf-8")
        code, out, err = run_cli(["ppo-demo", "--iterations", "3", "--config", str(cfg_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {field} must be finite")

    @pytest.mark.parametrize(
        "field", ["beta", "learning_rate", "kl_target", "clip_range", "clip_range_value"]
    )
    def test_number_past_float_range_in_config_file_rejected_by_name(self, tmp_path, capsys, field):
        # A 401-digit integer passes the file's type check and would otherwise end in a traceback.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"ppo": {"%s": 1%s}}' % (field, "0" * 400), encoding="utf-8")
        code, out, err = run_cli(["ppo-demo", "--iterations", "2", "--config", str(cfg_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {field} must be finite")
        assert err.endswith(", got a number past float range\n") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"ppo": 5}, "ppo: expected a JSON object"),
            ({"reward": 5}, "reward: expected a JSON object"),
            ({"ppo": {"epochs": "4"}}, "epochs must be an integer"),
            ({"ppo": {"beta": None}}, "beta must be a number"),
            ({"reward": {"clamp_components": "no"}}, "clamp_components must be a bool"),
        ],
    )
    def test_mistyped_config_is_an_error_not_a_traceback(self, tmp_path, config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        src = str(Path(flsolve.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "flsolve", "ppo-demo", "--iterations", "1",
             "--config", str(cfg_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"error: {message}, got ")
        assert done.stderr.count("\n") == 1

    def test_gae_section_fails_loudly(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"gae": {"gamma": 0.5, "lam": 0.5}}), encoding="utf-8")
        code, out, err = run_cli(["ppo-demo", "--iterations", "1", "--config", str(cfg_path)], capsys)
        assert code == 1
        assert out == ""
        assert "ppo.gamma and ppo.lam" in err

    def test_seeded_runs_repeat(self, capsys):
        _, first, _ = run_cli(self.DEMO_ARGS + ["--seed", "3"], capsys)
        _, second, _ = run_cli(self.DEMO_ARGS + ["--seed", "3"], capsys)
        assert first == second


class TestEvalCommand:
    def test_gold_replay_default(self, capsys, fixture_path):
        code, out, err = run_cli(["eval", "--dataset", fixture_path], capsys)
        assert code == 0
        payload = json_lines(out)[0]
        assert payload["accuracy"] == 100.0
        assert payload["syntax_error_rate"] == 0.0
        assert "accuracy 100.00% (5/5)" in err

    def test_empty_generator(self, capsys, fixture_path):
        code, out, _ = run_cli(
            ["eval", "--dataset", fixture_path, "--generator", "empty"], capsys
        )
        assert code == 0
        payload = json_lines(out)[0]
        assert payload["accuracy"] == 0.0
        assert payload["syntax_error_rate"] == 100.0

    def test_scripted_generator(self, tmp_path, capsys, fixture_path):
        script = tmp_path / "gen.txt"
        script.write_text(GOOD_PROGRAM, encoding="utf-8")
        code, out, _ = run_cli(
            ["eval", "--dataset", fixture_path, "--generator", f"scripted:{script}"], capsys
        )
        assert code == 0
        assert json_lines(out)[0]["syntax_error_rate"] == 0.0

    def test_two_workers_report_what_one_does(self, tmp_path, capsys, fixture_path):
        failing = tmp_path / "gen.txt"
        failing.write_text("var1 = [find](a) # 3\nvar2 = [divide](var1, 0)\n", encoding="utf-8")
        for flags in ([], ["--generator", f"scripted:{failing}"]):
            args = ["eval", "--dataset", fixture_path, *flags]
            one = run_cli([*args, "--workers", "1"], capsys)
            assert one[0] == 0
            assert run_cli([*args, "--workers", "2"], capsys) == one

    def test_chunked_replay(self, capsys, fixture_path):
        code, out, _ = run_cli(
            ["eval", "--dataset", fixture_path, "--chunk-size", "3"], capsys
        )
        assert code == 0
        assert json_lines(out)[0]["accuracy"] == 100.0

    def test_error_kinds_histogram(self, tmp_path, capsys):
        unknown = ProblemRecord("unknown", "How many?", "var1 = [find](a) # ?\n[return](var1)", 0)
        by_zero = [
            ProblemRecord(f"by-zero-{i}", "Split it.",
                          "var1 = [find](a) # 4\nvar2 = [divide](var1, 0)\n[return](var2)", 0)
            for i in range(2)
        ]
        path = tmp_path / "mixed.jsonl"
        write_dataset([unknown, *bundled_examples().records, *by_zero], path)
        code, out, _ = run_cli(["eval", "--dataset", str(path)], capsys)
        assert code == 0
        payload = json_lines(out)[0]
        # Sorted by kind; the five problems with no error are not counted.
        assert list(payload["error_kinds"].items()) == [
            ("division-by-zero", 2), ("return-of-unknown", 1)
        ]
        assert [p["error"] for p in payload["per_problem"]].count(None) == 5

    @pytest.mark.parametrize(
        "text, answer",
        [
            ("var1 = [find](a) # 3\u2028[return](var1)\n", None),
            ("var1 = [find](a\u2028b) # 3\n[return](var1)\n", "3"),
        ],
        ids=["between-statements", "in-a-description"],
    )
    def test_run_and_a_scripted_eval_agree(self, tmp_path, capsys, text, answer):
        # \u2028 is a character in its line to `run` and to the session alike.
        program = tmp_path / "p.txt"
        program.write_text(text, encoding="utf-8")
        dataset = tmp_path / "one.jsonl"
        write_dataset([ProblemRecord("three", "q", "var1 = [find](a) # 3\n[return](var1)", 3)],
                      dataset)
        code, out, _ = run_cli(["run", str(program)], capsys)
        assert (code, out) == ((0, "3\n") if answer else (3, ""))
        code, out, _ = run_cli(
            ["eval", "--dataset", str(dataset), "--generator", f"scripted:{program}"], capsys
        )
        assert code == 0
        assert json_lines(out)[0]["per_problem"][0]["answer"] == answer

    def test_unknown_generator(self, capsys, fixture_path):
        code, _, err = run_cli(
            ["eval", "--dataset", fixture_path, "--generator", "oracle"], capsys
        )
        assert code == 1
        assert "unknown generator" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--workers", "-2"], "--workers must be at least 1"),
            (["--workers", "0"], "--workers must be at least 1"),
            (["--chunk-size", "-4"], "--chunk-size must be at least 0"),
        ],
    )
    def test_bad_counts_rejected_before_loading(self, tmp_path, capsys, flags, message):
        missing = str(tmp_path / "missing.jsonl")
        code, out, err = run_cli(["eval", "--dataset", missing, *flags], capsys)
        assert (code, out) == (1, "")
        assert message in err


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "flsolve" in capsys.readouterr().out

    def test_version_prints_the_release(self, capsys):
        try:
            release = importlib.metadata.version("flsolve")
        except importlib.metadata.PackageNotFoundError:
            release = "unreleased"
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr() == (f"flsolve {release}\n", "")

    def test_only_version_looks_the_release_up(self):
        # Package metadata is imported for --version alone.
        code = (
            "import sys\n"
            "from flsolve.cli import main\n"
            "main(['prompt', '--question', 'q'])\n"
            "assert 'importlib.metadata' not in sys.modules\n"
            "try:\n"
            "    main(['--version'])\n"
            "except SystemExit:\n"
            "    assert 'importlib.metadata' in sys.modules\n"
        )
        src = str(Path(flsolve.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_no_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unknown_flag_exits_1(self, capsys, fixture_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", fixture_path, "--sideways"])
        assert excinfo.value.code == 1


# Program text for the in-process fuzz: literals from tiny to past CPython's
# 4300-digit limit, with digit counts on each side of the value bound (4096
# bits, ~1233 digits) and of that limit; [find] descriptions holding '#' and
# ')'; lines ended by "\r\n" or holding a lone "\r"; stray brackets.
FUZZ_DIGITS = st.one_of(st.integers(1, 40), st.sampled_from((616, 1233, 1234, 4300, 4301, 4400)))
FUZZ_LITERALS = st.one_of(
    st.integers(-50, 50).map(str),
    st.sampled_from(("-0", "3.25", "-1/3", "007", ".5")),
    FUZZ_DIGITS.map(lambda n: "9" * n),
    FUZZ_DIGITS.map(lambda n: "0." + "0" * n + "1"),
    FUZZ_DIGITS.map(lambda n: "1/" + "7" * n),
)
FUZZ_DESCRIPTIONS = st.one_of(
    st.sampled_from(("apples", "item #3 price", "the (red) box", "a)b", "#", ") # 2", "x ( y")),
    st.text(alphabet="ab #)([]\r", max_size=8),
)
FUZZ_OPERATORS = st.sampled_from(("add", "subtract", "multiply", "divide", "mod", "round", "frob"))


@st.composite
def fuzz_programs(draw) -> str:
    def comment() -> str:
        return draw(st.sampled_from(("", " # "))) + draw(FUZZ_LITERALS) if draw(st.booleans()) else ""

    def operand(i: int) -> str:
        return f"var{draw(st.integers(1, i))}" if draw(st.booleans()) else draw(FUZZ_LITERALS)

    text = ""
    for i in range(1, draw(st.integers(1, 6)) + 1):
        kind = draw(st.sampled_from(("find", "find", "op", "return", "junk")))
        if kind == "find":
            line = f"var{i} = [find]({draw(FUZZ_DESCRIPTIONS)})" + comment()
        elif kind == "op":
            line = f"var{i} = [{draw(FUZZ_OPERATORS)}]({operand(i)}, {operand(i)})" + comment()
        elif kind == "return":
            line = f"[return]({operand(i)})" + comment()
        else:
            line = draw(st.text(alphabet="[]()#=,\r var1", max_size=12))
        text += line + draw(st.sampled_from(("\n", "\r\n", "\r", "\n\n")))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("[](){}")) + text[at:]
    return text


# References that score: one [find], one operation, the answer.
FUZZ_GOLDS = st.builds(
    "var1 = [find]({}) # {}\nvar2 = [multiply](var1, {})\n[return](var2)\n".format,
    FUZZ_DESCRIPTIONS, FUZZ_LITERALS, FUZZ_LITERALS,
)
FUZZ_ANSWERS = st.one_of(
    st.fractions(max_denominator=1000),
    FUZZ_DIGITS.map(lambda n: Fraction(1, 10**n)),
    FUZZ_DIGITS.map(lambda n: Fraction(10**n - 1)),
)


def cli_in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFuzzedFiles:
    """Every subcommand on generated program files and loadable records:
    nothing raises, and each exit code is one the subcommand documents."""

    @settings(max_examples=40, deadline=None)
    @given(
        fuzz_programs(),
        st.lists(
            st.tuples(st.one_of(fuzz_programs(), FUZZ_GOLDS), FUZZ_ANSWERS), min_size=1, max_size=2
        ),
        st.sampled_from(("How many?", "Item #3 costs 4 (tax).", "one\rtwo")),
    )
    def test_no_exception_escapes(self, program, golds, question):
        records = [
            ProblemRecord(f"r{i}", question, gold, answer) for i, (gold, answer) in enumerate(golds)
        ]
        # Scoring needs a reference that parses and declares a [find].
        parsed = [parse_program(r.gold_program) for r in records]
        scorable = [isinstance(p, Program) and any(s.is_find for s in p.statements) for p in parsed]
        with tempfile.TemporaryDirectory() as tmp:
            gen, data = os.path.join(tmp, "gen.txt"), os.path.join(tmp, "gold.jsonl")
            with open(gen, "w", encoding="utf-8", newline="") as fh:
                fh.write(program)
            write_dataset(records, data)
            codes = {}
            for argv, documented in (
                (["parse", gen], {0, 2}),
                (["run", gen], {0, 2, 3}),
                (["run", "--strict", gen], {0, 2, 3}),
                (["score", "--gen", gen, "--gold", data, "--id", "r0"], {0, 1}),
                (["eval", "--dataset", data, "--generator", f"scripted:{gen}"], {0, 1}),
                (["validate", data], {0, 1}),
            ):
                code, out, err = cli_in_process(argv)
                name = " ".join(argv[:2] if argv[1] == "--strict" else argv[:1])
                assert code in documented, (name, code, err)
                codes[name] = code
                if name.startswith("run"):
                    assert (code == 0) == (len(out.splitlines()) == 1), (name, out)
                    continue
                lines = [json.loads(line) for line in out.splitlines()]
                if name == "validate":
                    assert code == (0 if lines[0]["failed"] == 0 else 1)
                elif name in ("score", "eval"):
                    # Exit 1 only for a reference that cannot be scored.
                    ok = scorable[0] if name == "score" else all(scorable)
                    assert code == (0 if ok else 1), (name, err)
                    assert (code == 1) == (lines == []) == err.startswith("error: ")
        assert (codes["parse"] == 2) == (codes["run"] == 2) == (codes["run --strict"] == 2)
        if codes["validate"] == 0:  # a file validate passes can be scored
            assert codes["score"] == codes["eval"] == 0


# Files no generated record reaches: JSON nested past the parser's recursion
# limit, a truncated config, and bytes that are not UTF-8.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
NOT_UTF8 = b"var1 = [find](a) # 1\xff\n[return](var1)\n"


class TestUnreadableFiles:
    """Every command that reads a file fails on an unreadable one by the
    file's name: exit 1, one error line, nothing on stdout."""

    @staticmethod
    def dataset_commands(data: str, program: str) -> list[list[str]]:
        return [
            ["validate", data],
            ["stats", data],
            ["eval", "--dataset", data],
            ["score", "--gen", program, "--gold", data],
            ["prompt", "--question", "q", "--dataset", data],
        ]

    @pytest.mark.parametrize(
        "data, message",
        [(DEEP_JSON + b"\n", ":1: invalid JSON: nested too deeply"), (NOT_UTF8, ": not UTF-8 text")],
        ids=["deep", "0xff"],
    )
    def test_dataset(self, tmp_path, data, message):
        dataset, program = tmp_path / "d.jsonl", tmp_path / "p.txt"
        dataset.write_bytes(data)
        program.write_text(GOOD_PROGRAM, encoding="utf-8")
        for argv in self.dataset_commands(str(dataset), str(program)):
            assert cli_in_process(argv) == (1, "", f"error: {dataset}{message}\n"), argv

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"ppo": ', ": invalid JSON: Expecting value: line 1 column 9 (char 8)"),
            (DEEP_JSON, ": invalid JSON: nested too deeply"),
            (b'{"ppo": {}}\xff', ": not UTF-8 text"),
        ],
        ids=["truncated", "deep", "0xff"],
    )
    def test_config(self, tmp_path, monkeypatch, data, message):
        config = tmp_path / "cfg.json"
        config.write_bytes(data)
        argv = ["ppo-demo", "--iterations", "1", "--tasks", "2", "--heldout", "2"]
        expected = (1, "", f"error: {config}{message}\n")
        assert cli_in_process(argv + ["--config", str(config)]) == expected
        monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
        assert cli_in_process(argv) == expected

    def test_config_integer_past_the_str_limit(self, tmp_path):
        digits = "1" + "0" * 5000
        with pytest.raises(ValueError) as excinfo:
            int(digits)
        config = tmp_path / "cfg.json"
        config.write_text('{"ppo": {"epochs": %s}}' % digits, encoding="utf-8")
        argv = ["ppo-demo", "--iterations", "1", "--config", str(config)]
        assert cli_in_process(argv) == (1, "", f"error: {config}: invalid JSON: {excinfo.value}\n")

    def test_program_not_utf8(self, tmp_path, fixture_path):
        program = tmp_path / "p.txt"
        program.write_bytes(NOT_UTF8)
        for argv in (
            ["parse", str(program)],
            ["run", str(program)],
            ["run", "--strict", str(program)],
            ["score", "--gen", str(program), "--gold", fixture_path, "--id", "goal-count"],
            ["eval", "--dataset", fixture_path, "--generator", f"scripted:{program}"],
        ):
            assert cli_in_process(argv) == (1, "", f"error: {program}: not UTF-8 text\n"), argv

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_stdin_not_utf8(self, monkeypatch, fixture_path, errors):
        # A UTF-8 locale reads stdin strictly; the C locale maps bad bytes to surrogates.
        for argv in (
            ["parse", "-"],
            ["run", "-"],
            ["score", "--gen", "-", "--gold", fixture_path, "--id", "goal-count"],
        ):
            stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors=errors)
            monkeypatch.setattr("sys.stdin", stdin)
            assert cli_in_process(argv) == (1, "", "error: <stdin>: not UTF-8 text\n"), argv

    def test_deeply_nested_program_is_a_parse_error(self, tmp_path):
        program = tmp_path / "p.txt"
        program.write_text("var1 = " + "[" * 100_000 + "find](a) # 1\n[return](var1)\n")
        for argv in (["parse", str(program)], ["run", str(program)]):
            code, _, err = cli_in_process(argv)
            assert code == 2 and "Traceback" not in err, argv

    def test_no_traceback_from_a_real_process(self, tmp_path):
        dataset = tmp_path / "d.jsonl"
        dataset.write_bytes(DEEP_JSON + b"\n")
        src = str(Path(flsolve.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "flsolve", "validate", str(dataset)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: {dataset}:1: invalid JSON: nested too deeply\n"
