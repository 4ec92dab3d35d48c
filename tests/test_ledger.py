"""events.jsonl is a complete ledger: a reducer that reads only the scenario,
the event log and breeding.forward_price_step rebuilds snapshots.csv byte
for byte.

The reducer keeps its own state (balances, supply counters, token prices
and owners) and values it from scratch after every step, so it shares none
of the engine's kept valuations, its breed-cost table or its audit.
"""
import csv
import functools
import io
import json
import math
import operator
from dataclasses import replace

import pytest
from hypothesis import given, settings

from nftgamesim.breeding import forward_price_step
from nftgamesim.cli import _write_outputs, main
from nftgamesim.simulation import GameSimulation, SimConfig
from test_golden import BASELINE, CASES
from test_simulation import baseline_config, small_configs

TREASURY = 0
PREMIUMS = (0.0, 0.01, 0.03, 0.07, 0.15, 0.31)


def replay_snapshots(config: SimConfig, events_jsonl: str) -> bytes:
    """snapshots.csv as the events of ``events_jsonl`` imply it."""
    board, rules = config.board, config.rules
    floor = board.floor_price
    genesis_price = floor if board.genesis_price is None else board.genesis_price
    premiums = config.trait_premiums
    # The forward price drifts toward the numeraire cost of a first breed.
    first_breed_cost = (
        rules.activity_cost_schedule[0] * board.activity_price
        + rules.market_cost_schedule[0] * board.market_price
    )
    agent_ids = sorted(a.id for a in config.agents)
    balances = {TREASURY: [0.0, 0.0]}
    activity_supply = market_supply = 0.0
    for spec in sorted(config.agents, key=lambda a: a.id):
        balances[spec.id] = [spec.activity_balance, spec.market_balance]
        activity_supply += spec.activity_balance
        market_supply += spec.market_balance
    prices: dict[int, float] = {}  # in mint order, which is id order
    owned: dict[int, list[int]] = {k: [] for k in agent_ids}

    by_step: dict[int, list[dict]] = {}
    for line in events_jsonl.splitlines():
        event = json.loads(line)
        by_step.setdefault(event["step"], []).append(event)

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["step", "phi", "psi", "omega", "pi", "collectible_count"]
        + [f"agent{k}_wealth" for k in agent_ids]
    )
    for step in range(config.steps + 1):
        for event in by_step.get(step, ()):
            agent, action, outputs = event["agent"], event["action"], event["outputs"]
            bal = balances[agent]
            if action == "genesis":
                prices[outputs["collectible"]] = genesis_price
                owned[agent].append(outputs["collectible"])
            elif action == "breed":
                act, mkt = outputs["activity_cost"], outputs["market_cost"]
                bal[0] -= act
                bal[1] -= mkt
                if rules.burn_mode == "treasury":
                    balances[TREASURY][0] += act
                    balances[TREASURY][1] += mkt
                else:
                    activity_supply -= act
                    market_supply -= mkt
                price = floor
                if premiums is not None:
                    # Left to right, as the engine adds them.
                    price += functools.reduce(
                        operator.add, (premiums[t] for t in outputs["traits"]), 0
                    )
                prices[outputs["child"]] = price
                owned[agent].append(outputs["child"])
            elif action in ("adventure", "battle"):
                bal[0] = outputs["activity_balance"]
                activity_supply += outputs["activity_minted"]
            elif action == "lottery":
                if outputs["result"] == "loss":
                    market, activity = -outputs["market_burned"], 0.0
                else:
                    market, activity = outputs["market_minted"], outputs["activity_minted"]
                bal[1] += market
                bal[0] += activity
                market_supply += market
                activity_supply += activity
            else:
                assert action == "pass", action
        if step and config.price_update == "forward_drift":
            stepped = {
                p: forward_price_step(p, rules.breed_arity, first_breed_cost)
                for p in {*prices.values(), floor}
            }
            prices = {tid: stepped[p] for tid, p in prices.items()}
            floor = stepped[floor]

        tokens = {k: math.fsum(prices[t] for t in owned[k]) for k in agent_ids}
        phi = math.fsum(tokens.values())
        psi = activity_supply * board.activity_price
        omega = market_supply * board.market_price
        wealth = [
            tokens[k]
            + balances[k][0] * board.activity_price
            + balances[k][1] * board.market_price
            for k in agent_ids
        ]
        writer.writerow([step, phi, psi, omega, phi + psi + omega, len(prices), *wealth])
    return out.getvalue().encode()


@pytest.mark.parametrize(
    "edit, seed, steps",
    [case[1:4] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_replay_rebuilds_the_golden_snapshots(tmp_path, capsys, edit, seed, steps):
    data = json.loads(BASELINE.read_text())
    if edit is not None:
        edit(data)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(scenario), "--seed", str(seed)]
    assert main(argv + ["--steps", str(steps), "--out", str(out)]) == 0
    capsys.readouterr()
    config = baseline_config(edit, seed, steps)
    written = (out / "snapshots.csv").read_bytes()
    assert replay_snapshots(config, (out / "events.jsonl").read_text()) == written


@pytest.mark.parametrize("price_update", ["frozen", "forward_drift"])
@pytest.mark.parametrize("premiums", [False, True], ids=["floor", "premiums"])
@pytest.mark.parametrize("burn_mode", ["void", "treasury"])
@settings(max_examples=5, deadline=None)
@given(config=small_configs())
def test_replay_rebuilds_the_snapshots_of_drawn_economies(
    tmp_path_factory, burn_mode, premiums, price_update, config
):
    config = replace(
        config,
        rules=replace(config.rules, burn_mode=burn_mode),
        price_update=price_update,
        trait_premiums=(config.trait_premiums or PREMIUMS) if premiums else None,
    )
    out = tmp_path_factory.mktemp("ledger")
    _write_outputs(out, GameSimulation(config))
    written = (out / "snapshots.csv").read_bytes()
    assert replay_snapshots(config, (out / "events.jsonl").read_text()) == written
