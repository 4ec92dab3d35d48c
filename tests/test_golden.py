"""Golden outputs: the bytes of ``events.jsonl`` and ``snapshots.csv``.

The digests below pin what ``simulate`` writes for fixed (scenario, seed,
steps) cases. A refactor or optimisation must keep them; a change that
alters behaviour on purpose updates them once and says why in CHANGES.md.
``ruin_probability``, which steps without snapshots and writes nothing, is
pinned by its estimate and each trial's ruin step.
"""
import copy
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from nftgamesim import simulation
from nftgamesim.cli import main
from nftgamesim.scenario import load_scenario
from nftgamesim.simulation import RuinEstimate

BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.json"


def _treasury(data: dict) -> None:
    data["rules"]["burn_mode"] = "treasury"


def _premiums(data: dict) -> None:
    # Newborns list at many distinct prices (over 100 at once by step 60).
    data["run"]["trait_premiums"] = [0, 0.01, 0.03, 0.07, 0.15, 0.31]


def _drifting_floor(data: dict) -> None:
    # At floor 1.0, the first breed's cost, the floor is the drift's fixed
    # point and never moves. At 0.8 it drifts every step (85 distinct values
    # in 200 steps), so newborns list at the run's moving floor.
    data["run"]["board"]["floor_price"] = 0.8


def frozen(data: dict) -> None:
    # SimConfig's default: no forward-drift update runs, no price classes are
    # built, and kept valuations survive every step.
    data["run"]["price_update"] = "frozen"


# (case id, scenario edit, seed, steps, events.jsonl SHA-256, snapshots.csv SHA-256)
CASES = [
    (
        "baseline-2026-50",
        None,
        2026,
        50,
        "70efc204984aa3b93819648769d598260ba5137c2bb86fcd5de3b5ac5f5ff341",
        "7e0c3a358ba36417169721c947f40d86a6bfa85cfeacd7b90d3c13a02b3623da",
    ),
    (
        "baseline-1-400",
        None,
        1,
        400,
        "8ae37c4c1e1e4846172db1895758f6a7148b8e74703e16fdd2f5f7f6265bef1c",
        "6e7b93d08750c9595eab9038af06eff95db5f2135f5a8cd496ca05d364e8257e",
    ),
    (
        "treasury-7-200",
        _treasury,
        7,
        200,
        "e19fc71454762ada551a0bdf8ebb3b5c029c8a21c6d893ee707c7302b0ea733d",
        "dff3aca008f48b861424143165784f69e9121866303bcbe2432d582ff9832cee",
    ),
    (
        "premiums-11-200",
        _premiums,
        11,
        200,
        "fb7f5869fa40e6267091fffd15df9b72f7aaf6d2a596c1c518dee20d7532cb3d",
        "4830fde0231770441f75b1990948b273fd621d3d68bc1a79a97afda028c0c9b9",
    ),
    (
        "frozen-5-200",
        frozen,
        5,
        200,
        "f95d5e6cc3e44df9e46565f1ef2a4200637ae2631d57eeaec348aad86edc3c95",
        "2cfd591e2bb9fcdfeed8ff190b8144eeb94ed9ba801f80d454009fc294dae075",
    ),
    (
        "drifting-floor-3-200",
        _drifting_floor,
        3,
        200,
        "54eb1b3ce81c055cfc3487a7bebfa5e25ee1543b99bdc5d68f476ca38ac845ed",
        "8ae9a703aa3b7e0f6993ef90ffddf88f2f4aa31a469e313970abd26e116e2ef1",
    ),
]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "edit, seed, steps, events_digest, snapshots_digest",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_simulate_outputs_match_golden_digests(
    tmp_path, capsys, edit, seed, steps, events_digest, snapshots_digest
):
    data = json.loads(BASELINE.read_text())
    if edit is not None:
        edit(data)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(config), "--seed", str(seed)]
    argv += ["--steps", str(steps), "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert _sha256(out / "events.jsonl") == events_digest
    assert _sha256(out / "snapshots.csv") == snapshots_digest


def test_crowd_outputs_match_golden_digests(tmp_path, capsys):
    # The benchmark's crowd scenario, built here: the baseline's agents
    # copied 40 times with ids 1..400, at seed 1 for the baseline's 50 steps.
    # It is kept out of CASES, so the tests parametrized over CASES still
    # run 10 agents.
    data = json.loads(BASELINE.read_text())
    crowd = []
    for _ in range(40):
        for agent in data["agents"]:
            clone = copy.deepcopy(agent)
            clone["id"] = len(crowd) + 1
            crowd.append(clone)
    data["agents"] = crowd
    config = tmp_path / "crowd.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(config), "--seed", "1", "--steps", "50", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert _sha256(out / "events.jsonl") == (
        "1fa39f518edbe954abd7056a08b63dedf6f4305a2e1ba11366f262e0e0902864"
    )
    assert _sha256(out / "snapshots.csv") == (
        "e250096478818b152e0770fb8e186e85b101293d0a515d335ed7be62973fc4cb"
    )


def test_ruin_probability_matches_golden_trials(monkeypatch):
    # Agent 5, the poorer thrill seeker, on the baseline at 200 steps,
    # master seed 1, 8 trials.
    trials = []

    class Recorded(simulation.GameSimulation):
        def __init__(self, config):
            super().__init__(config)
            trials.append(self)

    monkeypatch.setattr(simulation, "GameSimulation", Recorded)
    config = replace(load_scenario(BASELINE), steps=200, seed=1)
    estimate = simulation.ruin_probability(config, agent=5, trials=8)
    assert estimate == RuinEstimate(
        probability=0.25,
        stderr=0.15309310892394862,
        trials=8,
        low=0.071479212752109,
        high=0.5907245696898311,
    )
    assert [sim.ruined_at[5] for sim in trials] == [None, None, None, None, 158, None, None, 196]
