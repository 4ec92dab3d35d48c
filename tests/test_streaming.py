"""simulate streams its outputs, and the simulate path never loads numpy
or analytics."""
import importlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import nftgamesim
from nftgamesim.cli import main

BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.json"


def _simulate_peak_bytes(tmp_path, steps: int) -> int:
    out = tmp_path / f"out-{steps}"
    argv = ["simulate", "--config", str(BASELINE), "--seed", "1"]
    argv += ["--steps", str(steps), "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_is_flat_in_steps(tmp_path, capsys):
    # The baseline population saturates at 248 tokens by about step 400, so
    # from there on only retained outputs could make the peak grow. Keeping
    # every event and snapshot made it about 3x larger at 1,600 steps.
    _simulate_peak_bytes(tmp_path, 20)  # warm-up: lazy imports and caches
    at_400 = _simulate_peak_bytes(tmp_path, 400)
    at_1600 = _simulate_peak_bytes(tmp_path, 1600)
    capsys.readouterr()
    assert at_1600 <= 1.25 * at_400, (at_400, at_1600)


def test_package_and_cli_import_without_numpy():
    src = str(Path(nftgamesim.__file__).resolve().parents[1])
    code = "import sys, nftgamesim, nftgamesim.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "False"


def test_package_and_cli_import_without_analytics():
    # The package resolves its exports on first access, and the simulate
    # path never reaches analytics.
    src = str(Path(nftgamesim.__file__).resolve().parents[1])
    code = (
        "import sys, nftgamesim, nftgamesim.cli; "
        "print(sorted(m for m in ('nftgamesim.analytics', 'fractions', 'hashlib') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"


# The 62 names the package exported when it imported every module up front.
EXPORTS = {
    "activities": (
        "AdventureSpec BattleSpec FixedStep GeometricRandom LotterySpec MinorityGameSpec PoolCap "
        "SponsorClass StrategyMix adventure_payout battle_payout classify_lottery lottery_sharpe "
        "minority_settle minority_should_stop total_earnings"
    ),
    "analytics": (
        "RedistributionGame ReturnModel UtilitySpec envelope_expected_gain expected_utility "
        "heterogeneous_lottery_ev optimal_allocation optimal_fraction_1d pooled_lottery_game "
        "propitious_check pseudo_inverse sharpe_ratio"
    ),
    "breeding": (
        "ArbitrageKind ArbitrageVerdict BreedCost BreedingError ExhaustedBreeder GameRules "
        "ImmatureParent InsufficientBalance RestrictionViolated breed classify_breeding_arbitrage "
        "forward_price_step lattice_value max_population"
    ),
    "economy": (
        "Collectible Holdings MissingPriceError PriceBoard SupplyCounters collectible_pool_value "
        "fungible_pool_values total_value"
    ),
    "scenario": "ScenarioError load_scenario parse_scenario",
    "simulation": (
        "AgentSpec CollateralOutcome CollateralSpec RuinEstimate SimConfig SimulationInvariantError "
        "collateral_loop ruin_probability run_simulation"
    ),
}


def test_every_export_resolves_to_its_module_object():
    names = {name: module for module, text in EXPORTS.items() for name in text.split()}
    assert len(names) == 62
    assert sorted(nftgamesim.__all__) == sorted(names)
    for name, module in names.items():
        assert getattr(nftgamesim, name) is getattr(importlib.import_module(f"nftgamesim.{module}"), name)
    assert nftgamesim.__version__ == "0.1.0"
    assert set(nftgamesim.__all__) <= set(dir(nftgamesim))
    with pytest.raises(AttributeError, match="no_such_name"):
        nftgamesim.no_such_name
