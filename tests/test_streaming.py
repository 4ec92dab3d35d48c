"""simulate streams its outputs, and neither simulate nor a
ruin_probability run loads numpy or analytics, and src/ holds nothing
that only the tests reach."""
import ast
import importlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import nftgamesim
from nftgamesim.cli import main

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "scenarios" / "baseline.json"


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


def _loaded_after(code: str, modules: tuple[str, ...]) -> str:
    """Which of ``modules`` a fresh interpreter has loaded after ``code``."""
    src = str(Path(nftgamesim.__file__).resolve().parents[1])
    probe = f"{code}\nimport sys\nprint(sorted(m for m in {modules!r} if m in sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout.strip()


def test_package_and_cli_import_without_numpy():
    assert _loaded_after("import nftgamesim, nftgamesim.cli", ("numpy",)) == "[]"


def test_package_and_cli_import_without_analytics():
    # The package resolves its exports on first access, and the simulate
    # path never reaches analytics.
    modules = ("nftgamesim.analytics", "fractions", "hashlib")
    assert _loaded_after("import nftgamesim, nftgamesim.cli", modules) == "[]"


def test_package_and_cli_import_without_csv():
    # simulate writes snapshots.csv rows as text.
    assert _loaded_after("import nftgamesim, nftgamesim.cli", ("csv", "_csv")) == "[]"


def test_ruin_path_loads_neither_analytics_nor_numpy():
    # What perfbench/probe.py runs for its setup and ruin probes, cut to 5 steps.
    code = (
        "from dataclasses import replace\n"
        "from nftgamesim.scenario import load_scenario\n"
        "from nftgamesim.simulation import GameSimulation, ruin_probability\n"
        f"config = replace(load_scenario({str(BASELINE)!r}), steps=5)\n"
        "GameSimulation(config)\n"
        "ruin_probability(config, agent=5, trials=1)"
    )
    assert _loaded_after(code, ("nftgamesim.analytics", "numpy", "fractions")) == "[]"


# The package's 49 exports, each loaded from its module on first access.
EXPORTS = {
    "activities": (
        "AdventureSpec BattleSpec LotterySpec StrategyMix lottery_deltas scale_balance"
    ),
    "analytics": (
        "ArbitrageKind ArbitrageVerdict CollateralOutcome CollateralSpec MinorityGameSpec "
        "RedistributionGame ReturnModel SponsorClass UtilitySpec classify_breeding_arbitrage "
        "classify_lottery collateral_loop envelope_expected_gain expected_utility "
        "heterogeneous_lottery_ev lattice_value lottery_sharpe max_population minority_settle "
        "optimal_allocation optimal_fraction_1d pooled_lottery_game propitious_check "
        "pseudo_inverse sharpe_ratio"
    ),
    "breeding": "BreedCost GameRules forward_price_step",
    "economy": (
        "Collectible Holdings PriceBoard SupplyCounters fungible_pool_values total_value"
    ),
    "scenario": "ScenarioError load_scenario parse_scenario",
    "simulation": (
        "AgentSpec RuinEstimate SimConfig SimulationInvariantError ruin_probability run_simulation"
    ),
}


def test_every_export_resolves_to_its_module_object():
    names = {name: module for module, text in EXPORTS.items() for name in text.split()}
    assert len(names) == 49
    assert sorted(nftgamesim.__all__) == sorted(names)
    for name, module in names.items():
        assert getattr(nftgamesim, name) is getattr(importlib.import_module(f"nftgamesim.{module}"), name)
    assert nftgamesim.__version__ == "0.1.0"
    assert set(nftgamesim.__all__) <= set(dir(nftgamesim))
    with pytest.raises(AttributeError, match="no_such_name"):
        nftgamesim.no_such_name


def test_engine_modules_do_not_reexport_the_analytics():
    # The analyses are reached through analytics alone: no engine module
    # carries one of its names, under an import or a compatibility alias.
    engine = ("economy", "breeding", "activities", "simulation")
    shims = [
        f"{module}.{name}"
        for module in engine
        for name in EXPORTS["analytics"].split()
        if hasattr(importlib.import_module(f"nftgamesim.{module}"), name)
    ]
    assert shims == []


def test_every_definition_in_src_is_named_by_the_package_its_scripts_or_its_exports():
    # src/ holds what a command, a script or a run reaches. A top-level
    # function or class that no code in src/ or scripts/ names, and that
    # the package does not export, is reached by the tests alone and
    # belongs in them; so does a method of a class in src/ that no code in
    # src/ or scripts/ names. The interpreter calls the PEP 562 hooks and
    # the dunders.
    src = sorted((ROOT / "src" / "nftgamesim").glob("*.py"))
    assert ROOT / "src" / "nftgamesim" / "simulation.py" in src
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in src + scripts}
    named = {"__getattr__", "__dir__", *nftgamesim.__all__}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unnamed = [
        f"{path.stem}.{node.name}"
        for path in src
        for node in trees[path].body
        if isinstance(node, defs) and node.name not in named
    ]
    unnamed += [
        f"{path.stem}.{node.name}.{method.name}"
        for path in src
        for node in trees[path].body
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, defs)
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and method.name not in named
    ]
    assert unnamed == []
