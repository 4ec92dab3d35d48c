import json
import math

import pytest

from nftgamesim.cli import main
from nftgamesim.scenario import ScenarioError, load_scenario, parse_scenario
from nftgamesim.simulation import SimulationInvariantError


def scenario_dict() -> dict:
    return {
        "schema_version": 1,
        "rules": {
            "breed_arity": 2,
            "breed_limit": 7,
            "mutation_prob": 0.1,
            "activity_cost_schedule": [1, 1, 1, 1, 1, 1, 1],
            "market_cost_schedule": [0, 0, 0, 0, 0, 0, 0],
        },
        "agents": [
            {
                "id": 1,
                "strategy": "fixed_mix",
                "mix": {"breed": 1, "adventure": 1},
                "collectibles": 4,
                "activity_balance": 200.0,
                "market_balance": 20.0,
            },
            {"id": 2, "strategy": "thrill_seeker", "market_balance": 25.0},
            {"id": 3, "strategy": "passive", "activity_balance": 3.0, "market_balance": 3.0},
        ],
        "specs": {
            "adventure": {"reward_multiplier": 1.1, "collectibles_required": 1},
            "battle": {"team_size": 3, "survival_fraction": 0.9},
            "lottery": {"loss_prob": 0.5, "stake": 1.0, "win_market_tokens": 1.0},
            "minority": {
                "rake_fraction": 0.9,
                "sponsor_subsidy": 1.0,
                "stopping_rule": {"kind": "pool_cap", "threshold": 10.0},
            },
        },
        "run": {
            "steps": 12,
            "seed": 5,
            "price_update": "forward_drift",
            "board": {
                "activity_price": 0.5,
                "market_price": 2.0,
                "floor_price": 1.0,
                "genesis_price": 1.5,
            },
        },
    }


def write_scenario(tmp_path, data) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestScenarioParsing:
    def test_round_trip(self):
        config = parse_scenario(scenario_dict())
        assert config.steps == 12
        assert config.seed == 5
        assert config.rules.breed_limit == 7
        assert config.price_update == "forward_drift"
        assert config.genesis_price == 1.5
        assert config.board.market_price == 2.0
        assert len(config.agents) == 3
        assert config.agents[0].mix.adventure == 1
        assert config.lottery.stake == 1.0
        assert config.minority.stopping_rule.threshold == 10.0

    @pytest.mark.parametrize(
        "mutate, expected",
        [
            (lambda d: d.update(extra=1), "scenario.extra"),
            (lambda d: d["rules"].update(breed_speed=2), "rules.breed_speed"),
            (lambda d: d["agents"][0].update(plan="x"), "agents[0].plan"),
            (lambda d: d["agents"][0]["mix"].update(fight=1), "agents[0].mix.fight"),
            (lambda d: d["specs"]["lottery"].update(jackpot=9), "specs.lottery.jackpot"),
            (lambda d: d["run"].update(velocity=3), "run.velocity"),
            (lambda d: d["run"]["board"].update(gold_price=1), "run.board.gold_price"),
            (
                lambda d: d["specs"]["minority"]["stopping_rule"].update(bananas=1),
                "specs.minority.stopping_rule.bananas",
            ),
        ],
    )
    def test_unknown_keys_rejected_by_name(self, mutate, expected):
        data = scenario_dict()
        mutate(data)
        with pytest.raises(ScenarioError, match=expected.replace("[", r"\[").replace("]", r"\]")):
            parse_scenario(data)

    def test_schema_version_checked(self):
        data = scenario_dict()
        data["schema_version"] = 99
        with pytest.raises(ScenarioError, match="schema_version"):
            parse_scenario(data)
        del data["schema_version"]
        with pytest.raises(ScenarioError, match="schema_version"):
            parse_scenario(data)

    def test_missing_run_section(self):
        data = scenario_dict()
        del data["run"]
        with pytest.raises(ScenarioError, match="scenario.run"):
            parse_scenario(data)

    def test_steps_must_be_integer(self):
        data = scenario_dict()
        data["run"]["steps"] = 2.5
        with pytest.raises(ScenarioError, match="run.steps"):
            parse_scenario(data)

    def test_trait_premiums_parsed(self):
        data = scenario_dict()
        data["run"]["trait_premiums"] = [0.0, 0.1, 0.2, 0.0, 0.0, 0.3]
        config = parse_scenario(data)
        assert config.trait_premiums == (0.0, 0.1, 0.2, 0.0, 0.0, 0.3)
        data["run"]["trait_premiums"] = ["high"]
        with pytest.raises(ScenarioError, match="trait_premiums"):
            parse_scenario(data)

    def test_domain_errors_are_wrapped(self):
        data = scenario_dict()
        data["specs"]["lottery"]["loss_prob"] = 2.0
        with pytest.raises(ScenarioError, match="probability"):
            parse_scenario(data)

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ScenarioError, match="nope.json"):
            load_scenario(missing)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)


class TestSimulateCommand:
    def run_simulate(self, tmp_path, data, out_name="out", extra=()):
        config_path = write_scenario(tmp_path, data)
        out_dir = tmp_path / out_name
        code = main(["simulate", "--config", config_path, "--out", str(out_dir), *extra])
        return code, out_dir

    def test_writes_all_outputs(self, tmp_path):
        code, out = self.run_simulate(tmp_path, scenario_dict())
        assert code == 0
        for name in ("snapshots.csv", "events.jsonl", "summary.json"):
            assert (out / name).is_file()

    def test_golden_csv_header_and_row_count(self, tmp_path):
        _, out = self.run_simulate(tmp_path, scenario_dict())
        lines = (out / "snapshots.csv").read_text().splitlines()
        assert lines[0] == (
            "step,phi,psi,omega,pi,collectible_count,"
            "agent1_wealth,agent2_wealth,agent3_wealth"
        )
        assert len(lines) == 1 + 12 + 1  # header + initial snapshot + one per step

    def test_golden_event_and_summary_keys(self, tmp_path):
        _, out = self.run_simulate(tmp_path, scenario_dict())
        first_event = json.loads((out / "events.jsonl").read_text().splitlines()[0])
        assert list(first_event) == ["step", "agent", "action", "inputs", "outputs", "rng_draws"]
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary) == [
            "schema_version",
            "seed",
            "steps",
            "final_pools",
            "collectible_count",
            "agents",
        ]
        assert list(summary["final_pools"]) == ["phi", "psi", "omega", "pi"]
        assert list(summary["agents"][0]) == [
            "id",
            "strategy",
            "initial_wealth",
            "final_wealth",
            "total_earnings",
            "ruined",
            "ruined_at",
            "actions",
        ]

    def test_byte_identical_reruns(self, tmp_path):
        _, out1 = self.run_simulate(tmp_path, scenario_dict(), "run1")
        _, out2 = self.run_simulate(tmp_path, scenario_dict(), "run2")
        for name in ("snapshots.csv", "events.jsonl", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        _, out1 = self.run_simulate(tmp_path, scenario_dict(), "run1", ("--seed", "5"))
        _, out2 = self.run_simulate(tmp_path, scenario_dict(), "run2", ("--seed", "77"))
        assert (out1 / "events.jsonl").read_bytes() != (out2 / "events.jsonl").read_bytes()
        summary = json.loads((out2 / "summary.json").read_text())
        assert summary["seed"] == 77

    def test_steps_flag_overrides_config(self, tmp_path):
        _, out = self.run_simulate(tmp_path, scenario_dict(), extra=("--steps", "3"))
        lines = (out / "snapshots.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 + 1

    def test_missing_config_exits_2_with_path(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config", str(tmp_path / "ghost.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "ghost.json" in capsys.readouterr().err

    def test_bad_key_exits_2_with_key_name(self, tmp_path, capsys):
        data = scenario_dict()
        data["run"]["warp_factor"] = 9
        code, _ = self.run_simulate(tmp_path, data)
        assert code == 2
        assert "run.warp_factor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate, key",
        [
            pytest.param(lambda d: d["run"].update(steps=math.inf), "run.steps", id="steps"),
            pytest.param(
                lambda d: d["agents"][1].update(market_balance=math.inf),
                "agents[1].market_balance",
                id="market_balance",
            ),
            pytest.param(
                lambda d: d["specs"]["lottery"].update(stake=math.nan),
                "specs.lottery.stake",
                id="lottery_stake",
            ),
            pytest.param(
                lambda d: d["run"]["board"].update(floor_price=-math.inf),
                "run.board.floor_price",
                id="floor_price",
            ),
            pytest.param(
                lambda d: d["rules"]["activity_cost_schedule"].__setitem__(0, math.nan),
                "rules.activity_cost_schedule",
                id="cost_schedule",
            ),
            pytest.param(
                lambda d: d["run"].update(trait_premiums=[0, 0, math.inf, 0, 0, 0]),
                "run.trait_premiums",
                id="trait_premiums",
            ),
        ],
    )
    def test_non_finite_number_exits_2_with_key_name(self, tmp_path, capsys, mutate, key):
        data = scenario_dict()
        mutate(data)
        code, out = self.run_simulate(tmp_path, data)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_invariant_violation_exits_3(self, tmp_path, capsys, monkeypatch):
        def explode(config):
            raise SimulationInvariantError(4, "synthetic failure")

        monkeypatch.setattr("nftgamesim.cli.run_simulation", explode)
        code, _ = self.run_simulate(tmp_path, scenario_dict())
        assert code == 3
        assert "step 4" in capsys.readouterr().err

    def test_passive_scenario_rows_identical(self, tmp_path):
        data = scenario_dict()
        data["agents"] = [{"id": 1, "strategy": "passive", "market_balance": 10.0}]
        data["run"]["price_update"] = "frozen"
        _, out = self.run_simulate(tmp_path, data)
        lines = (out / "snapshots.csv").read_text().splitlines()
        body = [line.split(",", 1)[1] for line in lines[1:]]
        assert len(set(body)) == 1


class TestAnalyzeCommand:
    def get_json(self, capsys, argv) -> dict:
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_envelope(self, capsys):
        got = self.get_json(
            capsys, ["analyze", "envelope", "--up", "2", "--down", "0.5", "--prob", "0.5"]
        )
        assert got["gain_player1"] == 0.25
        assert got["gain_player2"] == 0.25
        assert got["inputs"]["up"] == 2.0

    def test_arbitrage(self, capsys):
        got = self.get_json(
            capsys, ["analyze", "arbitrage", "--capital", "100", "--growth", "0.05", "--cost", "5"]
        )
        assert got["verdict"] == "NoArbitrage"
        assert abs(got["magnitude"]) <= 1e-9

    def test_sharpe(self, capsys):
        got = self.get_json(
            capsys, ["analyze", "sharpe", "--excess", "0.05", "--vol", "0.2", "--horizon", "4"]
        )
        assert got["sharpe_ratio"] == 0.125

    def test_allocate(self, capsys):
        got = self.get_json(
            capsys,
            ["analyze", "allocate", "--mu", "0.10", "--riskless", "0.02", "--vol", "0.2"],
        )
        assert got["optimal_allocation"][0] == pytest.approx(2.0, rel=1e-12)

    def test_lattice(self, capsys):
        got = self.get_json(
            capsys,
            [
                "analyze", "lattice", "--breeds-remaining", "2",
                "--floor", "1.0", "--child-value", "2.0", "--costs", "1.5,1.5",
            ],
        )
        assert got["lattice_value"] == 2.0

    def test_propitious(self, capsys):
        got = self.get_json(capsys, ["analyze", "propitious", "--seeker-exponent", "8"])
        assert got["per_player"] == [True] * 11
        assert got["average_mode"] is True
        got2 = self.get_json(capsys, ["analyze", "propitious", "--seeker-exponent", "2"])
        assert got2["per_player"][-1] is False

    def test_non_finite_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "sharpe", "--excess", "nan", "--vol", "0.2"])
        assert exc.value.code == 2

    def test_domain_error_exits_2(self, capsys):
        code = main(["analyze", "sharpe", "--excess", "0.05", "--vol", "-1"])
        assert code == 2
        assert "volatility" in capsys.readouterr().err


class TestDemoCommand:
    @pytest.mark.parametrize(
        "name, markers",
        [
            ("two-envelopes", ["25.000%"]),
            ("babylon-lottery", ["4.250%", "-42.500%", "-37.5%"]),
            ("collateral-cycle", ["200.000", "Converged", "Liquidated"]),
            ("minority", ["2.3333", "4.6667", "organizer"]),
        ],
    )
    def test_demo_output(self, capsys, name, markers):
        assert main(["demo", name]) == 0
        out = capsys.readouterr().out
        for marker in markers:
            assert marker in out

    def test_unknown_demo_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "monopoly"])
        assert exc.value.code == 2
