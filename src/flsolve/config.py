"""JSON config files for the toolkit's tunable knobs.

A config file may specify any subset of fields; everything missing keeps
its default, ``ppo-demo``'s own for the ``ppo`` section. ``PpoConfig`` and
``RewardConfig`` check every value, so a bad one fails as it does in Python.
Reward values are read exactly, from JSON numbers or number strings such as
``"1/3"``. GAE's gamma and lambda are ``ppo.gamma`` and ``ppo.lam``; a
``gae`` section is rejected rather than ignored.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .ppo import PpoConfig
from .rewards import RewardConfig
from .toy import demo_config
from .values import _brief_repr, parse_number

CONFIG_ENV_VAR = "FLSOLVE_CONFIG"


@dataclass(frozen=True)
class ToolkitConfig:
    ppo: PpoConfig
    reward: RewardConfig


def default_config() -> ToolkitConfig:
    return ToolkitConfig(demo_config(), RewardConfig())


def _exact_number(value: object) -> object:
    """A JSON reward number or number string as a Fraction, a float read from
    its repr; any other value unchanged, for RewardConfig to reject by name."""
    if type(value) is int:
        return Fraction(value)
    if type(value) is float and math.isfinite(value):
        return Fraction(repr(value))
    if type(value) is str:
        parsed = parse_number(value)
        if parsed is not None:
            return parsed
    return value


def _section(obj: dict, name: str) -> dict:
    section = obj.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"{name}: expected a JSON object, got {_brief_repr(section)}")
    return section


def _plain_section(default, obj: dict, where: str):
    unknown = set(obj) - {f.name for f in fields(default) if f.init}
    if unknown:
        raise ValueError(f"{where}: unknown fields {sorted(unknown)}")
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
    for name in ("r_max", "clamp_floor"):
        if name in reward:
            reward[name] = _exact_number(reward[name])
    return ToolkitConfig(ppo, _plain_section(defaults.reward, reward, "reward"))


def load_config(path: str | None = None) -> ToolkitConfig:
    """Config from ``path``, else from $FLSOLVE_CONFIG, else defaults."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return default_config()
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    except ValueError as exc:  # malformed JSON, or an integer past the str-conversion limit
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: invalid JSON: nested too deeply") from None
    return config_from_json(obj)
