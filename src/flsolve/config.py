"""JSON round trip for the toolkit's tunable knobs.

A config file may specify any subset of fields; everything missing keeps
its default, ``ppo-demo``'s own for the ``ppo`` section. Reward values
serialize as exact number strings. GAE's gamma and lambda are ``ppo.gamma``
and ``ppo.lam``; a ``gae`` section is rejected rather than ignored.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .ppo import PpoConfig
from .rewards import RewardConfig
from .toy import demo_config
from .values import format_number, parse_number

CONFIG_ENV_VAR = "FLSOLVE_CONFIG"


@dataclass(frozen=True)
class ToolkitConfig:
    ppo: PpoConfig
    reward: RewardConfig


def default_config() -> ToolkitConfig:
    return ToolkitConfig(demo_config(), RewardConfig())


def _exact_number(value: object, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (float, str)):
        parsed = parse_number(str(value))
        if parsed is not None:
            return parsed
    raise ValueError(f"{where}: expected a number, got {value!r}")


# The JSON type a field of each annotated type must arrive as; bool is no number.
_JSON_TYPES = {
    "float": ("a number", (int, float)),
    "int": ("an integer", int),
    "str": ("a string", str),
    "bool": ("a boolean", bool),
}


def _section(obj: dict, name: str) -> dict:
    section = obj.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"{name}: expected a JSON object, got {section!r}")
    return section


def _plain_section(default, obj: dict, where: str):
    types = {f.name: f.type for f in fields(default)}
    unknown = set(obj) - set(types)
    if unknown:
        raise ValueError(f"{where}: unknown fields {sorted(unknown)}")
    for name, value in obj.items():
        expected = _JSON_TYPES.get(types[name])
        if expected is None:
            continue
        label, accepted = expected
        if not isinstance(value, accepted) or isinstance(value, bool) != (accepted is bool):
            raise ValueError(f"{where}.{name}: expected {label}, got {value!r}")
    return replace(default, **obj)


def config_from_json(obj: dict) -> ToolkitConfig:
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    if "gae" in obj:
        raise ValueError(
            "config: the 'gae' section is not read; set gamma and lambda as ppo.gamma and ppo.lam"
        )
    unknown = set(obj) - {"ppo", "reward"}
    if unknown:
        raise ValueError(f"config: unknown sections {sorted(unknown)}")
    defaults = default_config()
    ppo = _plain_section(defaults.ppo, _section(obj, "ppo"), "ppo")

    reward = dict(_section(obj, "reward"))
    if "r_max" in reward:
        reward["r_max"] = _exact_number(reward["r_max"], "reward.r_max")
    if reward.get("clamp_floor") is not None:
        reward["clamp_floor"] = _exact_number(reward["clamp_floor"], "reward.clamp_floor")
    return ToolkitConfig(ppo, _plain_section(defaults.reward, reward, "reward"))


def config_to_json(cfg: ToolkitConfig) -> dict:
    return {
        "ppo": {f.name: getattr(cfg.ppo, f.name) for f in fields(PpoConfig)},
        "reward": {
            "r_max": format_number(cfg.reward.r_max),
            "clamp_components": cfg.reward.clamp_components,
            "clamp_floor": (
                None
                if cfg.reward.clamp_floor is None
                else format_number(cfg.reward.clamp_floor)
            ),
        },
    }


def load_config(path: str | None = None) -> ToolkitConfig:
    """Config from ``path``, else from $FLSOLVE_CONFIG, else defaults."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return default_config()
    with open(path, encoding="utf-8") as fh:
        return config_from_json(json.load(fh))


def save_config(cfg: ToolkitConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_json(cfg), fh, indent=2)
        fh.write("\n")
