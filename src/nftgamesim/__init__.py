"""Deterministic simulator and analytics toolkit for NFT game economies.

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
        "MinorityGameSpec",
        "SponsorClass",
        "StrategyMix",
        "classify_lottery",
        "lottery_deltas",
        "lottery_sharpe",
        "minority_settle",
        "scale_balance",
    ),
    "analytics": (
        "RedistributionGame",
        "ReturnModel",
        "UtilitySpec",
        "envelope_expected_gain",
        "expected_utility",
        "heterogeneous_lottery_ev",
        "optimal_allocation",
        "optimal_fraction_1d",
        "pooled_lottery_game",
        "propitious_check",
        "pseudo_inverse",
        "sharpe_ratio",
    ),
    "breeding": (
        "ArbitrageKind",
        "ArbitrageVerdict",
        "BreedCost",
        "BreedingError",
        "ExhaustedBreeder",
        "GameRules",
        "ImmatureParent",
        "InsufficientBalance",
        "RestrictionViolated",
        "breed",
        "classify_breeding_arbitrage",
        "forward_price_step",
        "lattice_value",
        "max_population",
    ),
    "economy": (
        "Collectible",
        "Holdings",
        "MissingPriceError",
        "PriceBoard",
        "SupplyCounters",
        "collectible_pool_value",
        "fungible_pool_values",
        "total_value",
    ),
    "scenario": ("ScenarioError", "load_scenario", "parse_scenario"),
    "simulation": (
        "AgentSpec",
        "CollateralOutcome",
        "CollateralSpec",
        "RuinEstimate",
        "SimConfig",
        "SimulationInvariantError",
        "collateral_loop",
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
