"""Deterministic simulator and analytics toolkit for NFT game economies.

economy, breeding, activities and simulation hold what simulate and
ruin_probability run; analytics holds the paper's closed-form analyses,
which only the analyze and demo commands, the scripts and the tests use.
Every export below loads its module on first access (PEP 562), so
``import nftgamesim`` loads none of them: a command pays only for the
modules it runs, and simulate never loads analytics (nor numpy).
"""
import importlib

_EXPORTS = {
    "activities": (
        "AdventureSpec",
        "BattleSpec",
        "LotterySpec",
        "StrategyMix",
        "lottery_deltas",
        "scale_balance",
    ),
    "analytics": (
        "ArbitrageKind",
        "ArbitrageVerdict",
        "CollateralOutcome",
        "CollateralSpec",
        "MinorityGameSpec",
        "RedistributionGame",
        "ReturnModel",
        "SponsorClass",
        "UtilitySpec",
        "classify_breeding_arbitrage",
        "classify_lottery",
        "collateral_loop",
        "envelope_expected_gain",
        "expected_utility",
        "heterogeneous_lottery_ev",
        "lattice_value",
        "lottery_sharpe",
        "max_population",
        "minority_settle",
        "optimal_allocation",
        "optimal_fraction_1d",
        "pooled_lottery_game",
        "propitious_check",
        "pseudo_inverse",
        "sharpe_ratio",
    ),
    "breeding": ("BreedCost", "GameRules", "forward_price_step"),
    "economy": (
        "Collectible",
        "Holdings",
        "PriceBoard",
        "SupplyCounters",
        "fungible_pool_values",
        "total_value",
    ),
    "scenario": ("ScenarioError", "load_scenario", "parse_scenario"),
    "simulation": (
        "AgentSpec",
        "RuinEstimate",
        "SimConfig",
        "SimulationInvariantError",
        "ruin_probability",
        "run_simulation",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
