"""Command line behavior: exit codes, JSON on stdout, summaries on stderr."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flsolve
from flsolve import (
    CONFIG_ENV_VAR,
    PpoConfig,
    RewardConfig,
    ToolkitConfig,
    ToyPolicy,
    bundled_examples,
    bundled_examples_path,
    save_config,
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

    def test_workers_flag(self, capsys, fixture_path):
        code, out, _ = run_cli(["validate", "--workers", "2", fixture_path], capsys)
        assert code == 0
        assert json_lines(out)[0]["passed"] == 5


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

    def test_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(
            ToolkitConfig(PpoConfig(learning_rate=0.05, epochs=1), RewardConfig()),
            str(cfg_path),
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

    def test_zero_iterations_rejected(self, capsys):
        code, _, err = run_cli(["ppo-demo", "--iterations", "0"], capsys)
        assert code == 1
        assert "--iterations" in err

    @pytest.mark.parametrize("batch_size", ["0", "-3"])
    def test_batch_size_below_one_rejected(self, capsys, batch_size):
        code, out, err = run_cli(self.DEMO_ARGS + ["--batch-size", batch_size], capsys)
        assert code == 1
        assert out == ""
        assert "batch_size must be at least 1" in err

    @pytest.mark.parametrize("heldout", ["0", "-2"])
    def test_heldout_below_one_rejected_before_training(self, capsys, heldout):
        code, out, err = run_cli(self.DEMO_ARGS + ["--heldout", heldout], capsys)
        assert code == 1
        assert out == ""
        assert "--heldout must be at least 1" in err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"ppo": 5}, "ppo: expected a JSON object"),
            ({"reward": 5}, "reward: expected a JSON object"),
            ({"ppo": {"epochs": "4"}}, "ppo.epochs: expected an integer"),
            ({"ppo": {"beta": None}}, "ppo.beta: expected a number"),
            ({"reward": {"clamp_components": "no"}}, "reward.clamp_components: expected a boolean"),
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

    def test_chunked_replay(self, capsys, fixture_path):
        code, out, _ = run_cli(
            ["eval", "--dataset", fixture_path, "--chunk-size", "3"], capsys
        )
        assert code == 0
        assert json_lines(out)[0]["accuracy"] == 100.0

    def test_unknown_generator(self, capsys, fixture_path):
        code, _, err = run_cli(
            ["eval", "--dataset", fixture_path, "--generator", "oracle"], capsys
        )
        assert code == 1
        assert "unknown generator" in err


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "flsolve" in capsys.readouterr().out

    def test_no_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unknown_flag_exits_1(self, capsys, fixture_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", fixture_path, "--sideways"])
        assert excinfo.value.code == 1
