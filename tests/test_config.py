"""Config file round trip and validation."""

import json
from fractions import Fraction

import pytest

from flsolve import (
    CONFIG_ENV_VAR,
    PpoConfig,
    RewardConfig,
    ToolkitConfig,
    config_from_json,
    config_to_json,
    default_config,
    load_config,
    save_config,
)
from flsolve.toy import DEMO_LEARNING_RATE


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

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ValueError, match="expected a number"):
            config_from_json({"reward": {"r_max": True}})

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
            ("ratio_anchor", 1, "a string"),
            ("ratio_anchor", None, "a string"),
        ],
    )
    def test_ppo_field_must_have_its_json_type(self, field, value, expected):
        with pytest.raises(ValueError, match=rf"^ppo\.{field}: expected {expected}, got "):
            config_from_json({"ppo": {field: value}})

    @pytest.mark.parametrize("value", ["no", "false", 0, 1, None, []])
    def test_clamp_components_must_be_a_boolean(self, value):
        with pytest.raises(ValueError, match=r"^reward\.clamp_components: expected a boolean"):
            config_from_json({"reward": {"clamp_components": value}})

    def test_integers_are_numbers(self):
        cfg = config_from_json({"ppo": {"beta": 1, "kl_target": 3}})
        assert (cfg.ppo.beta, cfg.ppo.kl_target) == (1, 3)
        assert config_from_json({"reward": {"clamp_components": False}}).reward.clamp_components is False

    def test_section_validation_still_applies(self):
        with pytest.raises(ValueError, match="gamma must be in"):
            config_from_json({"ppo": {"gamma": 2.0}})
        with pytest.raises(ValueError):
            config_from_json({"ppo": {"ratio_anchor": "frozen"}})

    @pytest.mark.parametrize("section", [{}, {"gamma": 0.5, "lam": 0.5}, {"gamma": 2.0}])
    def test_gae_section_rejected(self, section):
        # ppo-demo reads gamma and lambda from the ppo section only.
        with pytest.raises(ValueError, match=r"ppo\.gamma and ppo\.lam"):
            config_from_json({"gae": section})

    def test_gamma_and_lambda_come_from_the_ppo_section(self):
        cfg = config_from_json({"ppo": {"gamma": 0.5, "lam": 0.7}})
        assert (cfg.ppo.gamma, cfg.ppo.lam) == (0.5, 0.7)


class TestRoundTrip:
    def test_defaults_round_trip(self):
        cfg = default_config()
        assert config_from_json(config_to_json(cfg)) == cfg

    def test_custom_round_trip(self):
        cfg = ToolkitConfig(
            ppo=PpoConfig(beta=0.5, ratio_anchor="ref", learning_rate=0.3, gamma=0.9, lam=0.8),
            reward=RewardConfig(r_max=Fraction(2), clamp_floor=Fraction(-1, 2)),
        )
        assert config_from_json(config_to_json(cfg)) == cfg
        assert "gae" not in config_to_json(cfg)

    def test_reward_values_serialize_as_exact_strings(self):
        cfg = ToolkitConfig(PpoConfig(), RewardConfig(r_max=Fraction(1, 3)))
        payload = config_to_json(cfg)
        assert payload["reward"]["r_max"] == "1/3"
        assert payload["reward"]["clamp_floor"] is None


class TestFiles:
    def test_save_load(self, tmp_path):
        cfg = ToolkitConfig(PpoConfig(epochs=7), RewardConfig())
        path = tmp_path / "cfg.json"
        save_config(cfg, str(path))
        assert load_config(str(path)) == cfg
        assert path.read_text(encoding="utf-8").endswith("\n")
        assert json.loads(path.read_text(encoding="utf-8"))["ppo"]["epochs"] == 7

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        cfg = ToolkitConfig(PpoConfig(beta=0.07), RewardConfig())
        path = tmp_path / "cfg.json"
        save_config(cfg, str(path))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
        assert load_config() == cfg

    def test_defaults_without_path_or_env(self, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        assert load_config() == default_config()

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        via_env = tmp_path / "env.json"
        via_path = tmp_path / "path.json"
        save_config(ToolkitConfig(PpoConfig(epochs=2), RewardConfig()), str(via_env))
        save_config(ToolkitConfig(PpoConfig(epochs=9), RewardConfig()), str(via_path))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(via_env))
        assert load_config(str(via_path)).ppo.epochs == 9

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "nope.json"))
