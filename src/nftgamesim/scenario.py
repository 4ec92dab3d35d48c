"""Scenario files: a JSON tree with sections rules / agents / specs / run.

Strict by design: unknown keys are rejected by name so a typo cannot
silently fall back to a default and change a supposedly reproducible run.

The config dataclasses are the schema: a section accepts the fields of its
class, requires those with no default and converts each by its type.
``rules`` is GameRules, ``agents[i]`` AgentSpec, ``specs`` the three spec
fields of SimConfig, ``run`` the rest of SimConfig and ``run.board``
PriceBoard.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from pathlib import Path

from .breeding import GameRules
from .simulation import AgentSpec, SimConfig

SCHEMA_VERSION = 2


class ScenarioError(ValueError):
    """The scenario document is malformed; the message names the bad key."""


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path} must be an object")
    return obj


def _check_keys(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"unknown key: {path}.{key}")


def _is_finite_number(value) -> bool:
    # json.loads accepts NaN and ±Infinity; Python ints are always finite.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _number(value, path: str):
    if not _is_finite_number(value):
        raise ScenarioError(f"{path} must be a finite number")
    return value


def _integer(value, path: str) -> int:
    value = _number(value, path)
    if value != int(value):
        raise ScenarioError(f"{path} must be an integer")
    return int(value)


def _floats(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not all(_is_finite_number(v) for v in value):
        raise ScenarioError(f"{path} must be a list of finite numbers")
    return tuple(float(v) for v in value)


def _converter(hint):
    """How a field of this type reads a JSON value: ``(value, path) -> value``."""
    args = typing.get_args(hint)
    if type(None) in args:  # ``X | None``: null is no valid value, so read X
        (hint,) = (a for a in args if a is not type(None))
        args = typing.get_args(hint)
    if hint is int:
        return _integer
    if hint is float:  # float() keeps 400 -> 400.0 in the event payloads
        return lambda value, path: float(_number(value, path))
    if typing.get_origin(hint) is tuple and args == (float, ...):
        return _floats
    if dataclasses.is_dataclass(hint):
        return functools.partial(_build, hint)
    return lambda value, path: value  # strings: __post_init__ checks them


@functools.cache
def _plan(cls) -> dict[str, tuple]:
    """Field name -> (converter, required) for every field of ``cls``."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (
            _converter(hints[f.name]),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    }


def _section(plan: dict, obj, path: str) -> dict:
    """Keyword arguments for the keys ``obj`` sets; absent keys keep their defaults."""
    obj = _require_mapping(obj, path)
    _check_keys(obj, plan, path)
    kwargs = {}
    for name, (convert, required) in plan.items():
        if name in obj:
            kwargs[name] = convert(obj[name], f"{path}.{name}")
        elif required:
            raise ScenarioError(f"missing key: {path}.{name}")
    return kwargs


def _build(cls, obj, path: str):
    kwargs = _section(_plan(cls), obj, path)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


# The two sections that are not one whole dataclass.
_SIM = _plan(SimConfig)
_SPECS = {name: _SIM[name] for name in ("adventure", "battle", "lottery")}
_RUN = {name: entry for name, entry in _SIM.items() if name not in {"rules", "agents", *_SPECS}}


def parse_scenario(data: dict) -> SimConfig:
    """Build a SimConfig from a parsed scenario document."""
    data = _require_mapping(data, "scenario")
    _check_keys(data, {"schema_version", "rules", "agents", "specs", "run"}, "scenario")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"scenario.schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    if "agents" not in data or not isinstance(data["agents"], list):
        raise ScenarioError("scenario.agents must be a list")
    if "run" not in data:
        raise ScenarioError("missing key: scenario.run")

    rules = _build(GameRules, data.get("rules", {}), "rules")
    agents = tuple(_build(AgentSpec, a, f"agents[{i}]") for i, a in enumerate(data["agents"]))
    kwargs = _section(_SPECS, data.get("specs", {}), "specs")
    kwargs.update(_section(_RUN, data["run"], "run"))

    try:
        return SimConfig(rules=rules, agents=agents, **kwargs)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path: str | Path) -> SimConfig:
    """Read and validate a scenario file."""
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"scenario file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {p} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {p} is not UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"scenario file {p} nests too deeply to parse") from exc
    return parse_scenario(data)
