"""Scenario files: a JSON tree with sections rules / agents / specs / run.

Strict by design: unknown keys are rejected by name so a typo cannot
silently fall back to a default and change a supposedly reproducible run.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from .activities import (
    AdventureSpec,
    BattleSpec,
    FixedStep,
    GeometricRandom,
    LotterySpec,
    MinorityGameSpec,
    PoolCap,
    StrategyMix,
)
from .analytics import UtilitySpec
from .breeding import GameRules
from .economy import PriceBoard
from .simulation import AgentSpec, SimConfig

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """The scenario document is malformed; the message names the bad key."""


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path} must be an object")
    return obj


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"unknown key: {path}.{key}")


def _is_finite_number(value) -> bool:
    # json.loads accepts NaN and ±Infinity; Python ints are always finite.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _number(obj: dict, key: str, path: str, default=None):
    if key not in obj:
        if default is None:
            raise ScenarioError(f"missing key: {path}.{key}")
        return default
    value = obj[key]
    if not _is_finite_number(value):
        raise ScenarioError(f"{path}.{key} must be a finite number")
    return value


def _integer(obj: dict, key: str, path: str, default=None):
    value = _number(obj, key, path, default)
    if value != int(value):
        raise ScenarioError(f"{path}.{key} must be an integer")
    return int(value)


def _parse_rules(obj: dict) -> GameRules:
    _check_keys(
        obj,
        {
            "breed_arity",
            "breed_limit",
            "trait_count",
            "trait_alphabet",
            "mutation_prob",
            "maturity_delay",
            "activity_cost_schedule",
            "market_cost_schedule",
            "burn_mode",
        },
        "rules",
    )
    kwargs = {}
    for key in ("breed_arity", "breed_limit", "trait_count", "trait_alphabet", "maturity_delay"):
        if key in obj:
            kwargs[key] = _integer(obj, key, "rules")
    if "mutation_prob" in obj:
        kwargs["mutation_prob"] = float(_number(obj, "mutation_prob", "rules"))
    for key in ("activity_cost_schedule", "market_cost_schedule"):
        if key in obj:
            sched = obj[key]
            if not isinstance(sched, list) or not all(_is_finite_number(v) for v in sched):
                raise ScenarioError(f"rules.{key} must be a list of finite numbers")
            kwargs[key] = tuple(float(v) for v in sched)
    if "burn_mode" in obj:
        kwargs["burn_mode"] = obj["burn_mode"]
    try:
        return GameRules(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"rules: {exc}") from exc


def _parse_mix(obj: dict, path: str) -> StrategyMix:
    _check_keys(obj, {"breed", "battle", "adventure"}, path)
    return StrategyMix(
        breed=_integer(obj, "breed", path, default=0),
        battle=_integer(obj, "battle", path, default=0),
        adventure=_integer(obj, "adventure", path, default=0),
    )


def _parse_utility(obj: dict, path: str) -> UtilitySpec:
    _check_keys(obj, {"kind", "exponent"}, path)
    kind = obj.get("kind", "log")
    exponent = None
    if "exponent" in obj:
        exponent = float(_number(obj, "exponent", path))
    try:
        return UtilitySpec(kind=kind, exponent=exponent)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_agent(obj: dict, index: int) -> AgentSpec:
    path = f"agents[{index}]"
    obj = _require_mapping(obj, path)
    _check_keys(
        obj,
        {"id", "strategy", "mix", "utility", "collectibles", "activity_balance", "market_balance"},
        path,
    )
    kwargs = {
        "id": _integer(obj, "id", path),
        "strategy": obj.get("strategy", "passive"),
        "collectibles": _integer(obj, "collectibles", path, default=0),
        "activity_balance": float(_number(obj, "activity_balance", path, default=0.0)),
        "market_balance": float(_number(obj, "market_balance", path, default=0.0)),
    }
    if "mix" in obj:
        kwargs["mix"] = _parse_mix(_require_mapping(obj["mix"], f"{path}.mix"), f"{path}.mix")
    if "utility" in obj:
        kwargs["utility"] = _parse_utility(
            _require_mapping(obj["utility"], f"{path}.utility"), f"{path}.utility"
        )
    try:
        return AgentSpec(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_stopping_rule(obj: dict, path: str):
    _check_keys(obj, {"kind", "steps", "stop_prob", "threshold"}, path)
    kind = obj.get("kind")
    try:
        if kind == "fixed_step":
            return FixedStep(steps=_integer(obj, "steps", path))
        if kind == "geometric":
            return GeometricRandom(stop_prob=float(_number(obj, "stop_prob", path)))
        if kind == "pool_cap":
            return PoolCap(threshold=float(_number(obj, "threshold", path)))
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    raise ScenarioError(f"{path}.kind must be fixed_step, geometric, or pool_cap")


def _parse_specs(obj: dict) -> dict:
    _check_keys(obj, {"adventure", "battle", "lottery", "minority"}, "specs")
    out: dict = {}
    try:
        if "adventure" in obj:
            sec = _require_mapping(obj["adventure"], "specs.adventure")
            _check_keys(sec, {"reward_multiplier", "collectibles_required"}, "specs.adventure")
            out["adventure"] = AdventureSpec(
                reward_multiplier=float(
                    _number(sec, "reward_multiplier", "specs.adventure", default=1.1)
                ),
                collectibles_required=_integer(
                    sec, "collectibles_required", "specs.adventure", default=1
                ),
            )
        if "battle" in obj:
            sec = _require_mapping(obj["battle"], "specs.battle")
            _check_keys(sec, {"team_size", "survival_fraction"}, "specs.battle")
            out["battle"] = BattleSpec(
                team_size=_integer(sec, "team_size", "specs.battle", default=3),
                survival_fraction=float(
                    _number(sec, "survival_fraction", "specs.battle", default=1.0)
                ),
            )
        if "lottery" in obj:
            sec = _require_mapping(obj["lottery"], "specs.lottery")
            _check_keys(
                sec, {"loss_prob", "stake", "win_game_tokens", "win_market_tokens"}, "specs.lottery"
            )
            out["lottery"] = LotterySpec(
                loss_prob=float(_number(sec, "loss_prob", "specs.lottery")),
                stake=float(_number(sec, "stake", "specs.lottery")),
                win_game_tokens=float(
                    _number(sec, "win_game_tokens", "specs.lottery", default=0.0)
                ),
                win_market_tokens=float(
                    _number(sec, "win_market_tokens", "specs.lottery", default=0.0)
                ),
            )
        if "minority" in obj:
            sec = _require_mapping(obj["minority"], "specs.minority")
            _check_keys(
                sec, {"rake_fraction", "sponsor_subsidy", "stopping_rule"}, "specs.minority"
            )
            kwargs = {
                "rake_fraction": float(
                    _number(sec, "rake_fraction", "specs.minority", default=1.0)
                ),
                "sponsor_subsidy": float(
                    _number(sec, "sponsor_subsidy", "specs.minority", default=0.0)
                ),
            }
            if "stopping_rule" in sec:
                kwargs["stopping_rule"] = _parse_stopping_rule(
                    _require_mapping(sec["stopping_rule"], "specs.minority.stopping_rule"),
                    "specs.minority.stopping_rule",
                )
            out["minority"] = MinorityGameSpec(**kwargs)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"specs: {exc}") from exc
    return out


def _parse_run(obj: dict) -> dict:
    _check_keys(obj, {"steps", "seed", "price_update", "board", "trait_premiums"}, "run")
    out = {
        "steps": _integer(obj, "steps", "run"),
        "seed": _integer(obj, "seed", "run", default=0),
        "price_update": obj.get("price_update", "frozen"),
    }
    if "trait_premiums" in obj:
        premiums = obj["trait_premiums"]
        if not isinstance(premiums, list) or not all(_is_finite_number(v) for v in premiums):
            raise ScenarioError("run.trait_premiums must be a list of finite numbers")
        out["trait_premiums"] = tuple(float(v) for v in premiums)
    board = _require_mapping(obj.get("board", {}), "run.board")
    _check_keys(
        board, {"activity_price", "market_price", "floor_price", "genesis_price"}, "run.board"
    )
    try:
        out["board"] = PriceBoard(
            activity_price=float(_number(board, "activity_price", "run.board", default=1.0)),
            market_price=float(_number(board, "market_price", "run.board", default=1.0)),
            floor_price=float(_number(board, "floor_price", "run.board", default=1.0)),
        )
    except ValueError as exc:
        raise ScenarioError(f"run.board: {exc}") from exc
    if "genesis_price" in board:
        out["genesis_price"] = float(_number(board, "genesis_price", "run.board"))
    return out


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

    rules = _parse_rules(_require_mapping(data.get("rules", {}), "rules"))
    agents = tuple(_parse_agent(a, i) for i, a in enumerate(data["agents"]))
    specs = _parse_specs(_require_mapping(data.get("specs", {}), "specs"))
    run = _parse_run(_require_mapping(data["run"], "run"))

    try:
        return SimConfig(rules=rules, agents=agents, **specs, **run)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path: str | Path) -> SimConfig:
    """Read and validate a scenario file."""
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"scenario file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {p} is not valid JSON: {exc}") from exc
    return parse_scenario(data)
