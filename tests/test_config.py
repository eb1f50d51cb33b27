"""Config files: reading and validation."""

import json
import math
import re
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from flsolve import (
    CONFIG_ENV_VAR,
    PpoConfig,
    RewardConfig,
    ToolkitConfig,
    config_from_json,
    default_config,
    load_config,
)
from flsolve.cli import main
from flsolve.toy import DEMO_LEARNING_RATE, demo_config

# Every field at its default, as a full config file spells it.
DEFAULT_JSON = {
    "ppo": {
        "beta": 0.03, "kl_target": 6.0, "kl_horizon": 10000, "clip_range": 0.2,
        "clip_range_value": 0.2, "epochs": 4, "learning_rate": 0.8, "gamma": 0.99, "lam": 0.95,
    },
    "reward": {"r_max": "1", "clamp_components": True, "clamp_floor": None},
}


def write_config(path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestFromJson:
    def test_empty_object_gives_defaults(self):
        assert config_from_json({}) == default_config()

    def test_partial_sections_keep_other_defaults(self):
        cfg = config_from_json({"ppo": {"beta": 0.1, "epochs": 2}})
        assert cfg.ppo.beta == 0.1
        assert cfg.ppo.epochs == 2
        assert cfg.ppo.kl_target == 6.0
        assert cfg.reward == RewardConfig()

    def test_partial_ppo_section_keeps_demo_learning_rate(self):
        assert config_from_json({"ppo": {"epochs": 2}}).ppo.learning_rate == DEMO_LEARNING_RATE

    def test_reward_numbers_parse_exactly(self):
        cfg = config_from_json({"reward": {"r_max": "1/2", "clamp_floor": "-0.75"}})
        assert cfg.reward.r_max == Fraction(1, 2)
        assert cfg.reward.clamp_floor == Fraction(-3, 4)

    def test_reward_clamp_floor_null(self):
        cfg = config_from_json({"reward": {"clamp_floor": None}})
        assert cfg.reward.clamp_floor is None
        assert cfg.reward.floor == -cfg.reward.r_max

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown sections"):
            config_from_json({"optimizer": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            config_from_json({"ppo": {"betaa": 0.1}})
        with pytest.raises(ValueError, match="unknown fields"):
            config_from_json({"reward": {"rmax": 1}})

    def test_derived_floor_is_not_a_setting(self):
        with pytest.raises(ValueError, match=r"unknown fields \['floor'\]"):
            config_from_json({"reward": {"floor": 1}})

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ValueError, match=r"^r_max must be an int or a Fraction, got True$"):
            config_from_json({"reward": {"r_max": True}})

    def test_reward_floats_with_an_exponent_load(self):
        # str() of these floats has an exponent, which the number grammar lacks.
        obj = json.loads('{"reward": {"r_max": 0.00001, "clamp_floor": -10000000000000000.0}}')
        cfg = config_from_json(obj)
        assert cfg.reward.r_max == Fraction(1, 100000)
        assert cfg.reward.clamp_floor == -(10**16)

    @pytest.mark.parametrize("section", ["ppo", "reward"])
    @pytest.mark.parametrize("value", [5, "ppo", [], None, True])
    def test_section_must_be_an_object(self, section, value):
        with pytest.raises(ValueError, match=rf"^{section}: expected a JSON object"):
            config_from_json({section: value})

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("beta", None, "a number"),
            ("beta", "0.1", "a number"),
            ("beta", True, "a number"),
            ("kl_target", [6], "a number"),
            ("clip_range", {}, "a number"),
            ("clip_range_value", False, "a number"),
            ("learning_rate", "fast", "a number"),
            ("gamma", None, "a number"),
            ("lam", "0.9", "a number"),
            ("epochs", "4", "an integer"),
            ("epochs", 4.0, "an integer"),
            ("epochs", True, "an integer"),
            ("kl_horizon", 1e4, "an integer"),
            ("kl_horizon", None, "an integer"),
        ],
    )
    def test_ppo_field_must_have_its_json_type(self, field, value, expected):
        with pytest.raises(ValueError, match=rf"^{field} must be {expected}, got "):
            config_from_json({"ppo": {field: value}})

    @pytest.mark.parametrize("value", ["no", "false", 0, 1, None, []])
    def test_clamp_components_must_be_a_boolean(self, value):
        with pytest.raises(ValueError, match=r"^clamp_components must be a bool, got "):
            config_from_json({"reward": {"clamp_components": value}})

    def test_integers_are_numbers(self):
        cfg = config_from_json({"ppo": {"beta": 1, "kl_target": 3}})
        assert (cfg.ppo.beta, cfg.ppo.kl_target) == (1, 3)
        assert config_from_json({"reward": {"clamp_components": False}}).reward.clamp_components is False

    def test_section_validation_still_applies(self):
        with pytest.raises(ValueError, match="gamma must be in"):
            config_from_json({"ppo": {"gamma": 2.0}})

    @pytest.mark.parametrize("section", [{}, {"gamma": 0.5, "lam": 0.5}, {"gamma": 2.0}])
    def test_gae_section_rejected(self, section):
        # ppo-demo reads gamma and lambda from the ppo section only.
        with pytest.raises(ValueError, match=r"ppo\.gamma and ppo\.lam"):
            config_from_json({"gae": section})

    def test_gamma_and_lambda_come_from_the_ppo_section(self):
        cfg = config_from_json({"ppo": {"gamma": 0.5, "lam": 0.7}})
        assert (cfg.ppo.gamma, cfg.ppo.lam) == (0.5, 0.7)

    @pytest.mark.parametrize(
        "field", ["beta", "kl_target", "clip_range", "clip_range_value", "learning_rate"]
    )
    def test_bare_nan_in_a_file_is_rejected_naming_the_field(self, field):
        # Python's json reads a bare NaN; it must not reach training.
        obj = json.loads('{"ppo": {"%s": NaN}}' % field)
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            config_from_json(obj)

    def test_infinite_clip_range_stays_legal(self):
        obj = json.loads('{"ppo": {"clip_range": Infinity, "clip_range_value": Infinity}}')
        cfg = config_from_json(obj)
        assert cfg.ppo.clip_range == cfg.ppo.clip_range_value == float("inf")


# One JSON value of each kind, as a file spells it.
JSON_VALUES = ["null", "true", '"x"', "[]", "{}", "4", "4.0", "NaN", "Infinity", "1" + "0" * 400]
SETTINGS = [("ppo", f.name) for f in fields(PpoConfig) if f.init] + [
    ("reward", f.name) for f in fields(RewardConfig) if f.init
]


def in_python(field: str, text: str):
    """The value Python code would pass for ``text``: a finite reward number as
    the Fraction it spells, anything else as JSON reads it."""
    value = json.loads(text)
    finite = type(value) is int or (type(value) is float and math.isfinite(value))
    if field in ("r_max", "clamp_floor") and finite:
        return Fraction(text)
    return value


class TestSameRulesAsPython:
    """A file's value is checked by the dataclass it lands in, with its words."""

    @pytest.mark.parametrize("text", JSON_VALUES, ids=lambda t: t[:8])
    @pytest.mark.parametrize("section, field", SETTINGS, ids=lambda v: v)
    def test_file_and_python_agree(self, section, field, text):
        default = getattr(default_config(), section)
        obj = {section: {field: json.loads(text)}}
        try:
            expected = replace(default, **{field: in_python(field, text)})
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                config_from_json(obj)
            assert str(excinfo.value) == str(exc)
        else:
            assert getattr(config_from_json(obj), section) == expected


LONG = "1" + "0" * 5000  # 5001 characters, past what parse_number reads


class TestLongValuesAreCut:
    """A rejected value's repr is cut in the message, which gives its length."""

    @pytest.mark.parametrize(
        "obj, start",
        [
            ({"reward": {"r_max": LONG}}, "r_max must be an int or a Fraction, got '1000"),
            ({"reward": {"clamp_floor": LONG}},
             "clamp_floor must be an int or a Fraction, got '1000"),
            ({"reward": {"clamp_components": LONG}}, "clamp_components must be a bool, got '1000"),
            ({"ppo": {"beta": LONG}}, "beta must be a number, got '1000"),
            ({"ppo": {"epochs": LONG}}, "epochs must be an integer, got '1000"),
            ({"ppo": LONG}, "ppo: expected a JSON object, got '1000"),
            ({"reward": LONG}, "reward: expected a JSON object, got '1000"),
        ],
        ids=["r_max", "clamp_floor", "clamp_components", "beta", "epochs", "ppo", "reward"],
    )
    def test_from_a_file(self, obj, start):
        with pytest.raises(ValueError) as excinfo:
            config_from_json(obj)
        message = str(excinfo.value)
        assert message.startswith(start)
        assert message.endswith("0... (str, length 5001)")
        assert len(message) < 130

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda v: PpoConfig(beta=v), "beta must be a number, got "),
            (lambda v: PpoConfig(kl_horizon=v), "kl_horizon must be an integer, got "),
            (lambda v: RewardConfig(r_max=v), "r_max must be an int or a Fraction, got "),
            (lambda v: RewardConfig(clamp_components=v), "clamp_components must be a bool, got "),
        ],
        ids=["beta", "kl_horizon", "r_max", "clamp_components"],
    )
    def test_from_python(self, build, message):
        # A repr of up to 60 characters is given whole, as before; a longer
        # one is cut there.
        for value, shown in [
            ("x" * 58, repr("x" * 58)),
            ("x" * 59, "'" + "x" * 59 + "... (str, length 59)"),
            ("x" * 5001, "'" + "x" * 59 + "... (str, length 5001)"),
        ]:
            with pytest.raises(ValueError) as excinfo:
                build(value)
            assert str(excinfo.value) == message + shown

    def test_an_int_past_the_digit_limit_gives_its_bits(self):
        # Its repr would raise ValueError, a message that names no field.
        with pytest.raises(ValueError) as excinfo:
            RewardConfig(clamp_components=10**5000)
        assert str(excinfo.value) == "clamp_components must be a bool, got an int of 16610 bits"

    def test_a_value_without_a_length_gives_its_repr_length(self):
        with pytest.raises(ValueError) as excinfo:
            PpoConfig(epochs=Fraction(10**70, 3))
        assert str(excinfo.value).endswith("... (Fraction, repr length 84)")


class TestFullFiles:
    """A file that spells every field reads back exactly what it says."""

    def test_defaults_spelled_out(self):
        assert config_from_json(DEFAULT_JSON) == default_config()

    def test_custom_values(self):
        obj = json.loads(json.dumps(DEFAULT_JSON))
        obj["ppo"].update(beta=0.5, learning_rate=0.3, gamma=0.9, lam=0.8)
        obj["reward"].update(r_max="2", clamp_floor="-1/2")
        assert config_from_json(obj) == ToolkitConfig(
            ppo=replace(demo_config(), beta=0.5, learning_rate=0.3, gamma=0.9, lam=0.8),
            reward=RewardConfig(r_max=Fraction(2), clamp_floor=Fraction(-1, 2)),
        )

    def test_reward_values_read_from_exact_strings(self):
        cfg = config_from_json({"reward": {"r_max": "1/3", "clamp_floor": None}})
        assert cfg.reward == RewardConfig(r_max=Fraction(1, 3))
        assert cfg.reward.clamp_floor is None


class TestFiles:
    def test_load_reads_a_file(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", {"ppo": {"epochs": 7}})
        assert load_config(path) == ToolkitConfig(replace(demo_config(), epochs=7), RewardConfig())

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        path = write_config(tmp_path / "cfg.json", {"ppo": {"beta": 0.07}})
        monkeypatch.setenv(CONFIG_ENV_VAR, path)
        assert load_config() == ToolkitConfig(replace(demo_config(), beta=0.07), RewardConfig())

    def test_defaults_without_path_or_env(self, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        assert load_config() == default_config()

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        via_env = write_config(tmp_path / "env.json", {"ppo": {"epochs": 2}})
        via_path = write_config(tmp_path / "path.json", {"ppo": {"epochs": 9}})
        monkeypatch.setenv(CONFIG_ENV_VAR, via_env)
        assert load_config(via_path).ppo.epochs == 9

    def test_ratio_anchor_is_an_unknown_field(self, tmp_path, capsys):
        # The ratio always anchors on the behaviour policy; a file that still
        # sets ppo.ratio_anchor fails like any other unknown field.
        payload = json.loads(json.dumps(DEFAULT_JSON))
        payload["ppo"]["ratio_anchor"] = "old"
        path = write_config(tmp_path / "cfg.json", payload)
        with pytest.raises(ValueError, match=r"^ppo: unknown fields \['ratio_anchor'\]$"):
            load_config(path)
        assert main(["ppo-demo", "--config", path, "--iterations", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ppo: unknown fields ['ratio_anchor']\n"

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"ppo": ', r"invalid JSON: Expecting value: line 1 column 9 \(char 8\)"),
            (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: nested too deeply"),
            (b'{"ppo": {}}\xff\n', "not UTF-8 text"),
        ],
        ids=["truncated", "deep", "0xff"],
    )
    def test_unreadable_file_is_named(self, tmp_path, data, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
            load_config(str(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "nope.json"))
