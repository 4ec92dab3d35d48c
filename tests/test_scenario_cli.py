import json
import math
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from nftgamesim.breeding import MAX_BREED_LIMIT, MAX_TRAIT_COUNT, GameRules
from nftgamesim.cli import _write_outputs, main
from nftgamesim.scenario import ScenarioError, load_scenario, parse_scenario
from nftgamesim.simulation import (
    MAX_AGENT_TURNS,
    MAX_GENESIS_COLLECTIBLES,
    AgentSpec,
    Event,
    GameSimulation,
    SimConfig,
    SimulationInvariantError,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BASELINE = SCENARIOS / "baseline.json"


def scenario_dict() -> dict:
    return {
        "schema_version": 2,
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
            # Version 1 accepted these two; the engine never read them.
            (lambda d: d["agents"][0].update(utility={"kind": "log"}), "agents[0].utility"),
            (lambda d: d["specs"].update(minority={"rake_fraction": 0.9}), "specs.minority"),
            # Dataclass fields the scenario sets elsewhere or not at all.
            (
                lambda d: d["run"]["board"].update(collectible_prices={"0": 1.0}),
                "run.board.collectible_prices",
            ),
            (lambda d: d["run"].update(genesis_price=1.5), "run.genesis_price"),
            (lambda d: d["run"].update(rules={}), "run.rules"),
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
        data["schema_version"] = 1
        with pytest.raises(ScenarioError, match="schema_version must be 2, got 1"):
            parse_scenario(data)
        del data["schema_version"]
        with pytest.raises(ScenarioError, match="schema_version"):
            parse_scenario(data)

    def test_mix_refused_unless_fixed_mix(self):
        data = scenario_dict()
        data["agents"][1]["mix"] = {"battle": 1}
        with pytest.raises(ScenarioError, match=r"agents\[1\]: mix .*fixed_mix"):
            parse_scenario(data)

    def test_mix_domain_error_names_mix(self):
        data = scenario_dict()
        data["agents"][0]["mix"] = {"breed": -1}
        with pytest.raises(ScenarioError, match=r"agents\[0\]\.mix: activity counts"):
            parse_scenario(data)

    def test_minimal_document_takes_every_default(self):
        data = {"schema_version": 2, "agents": [{"id": 1}], "run": {"steps": 1}}
        expected = SimConfig(rules=GameRules(), agents=(AgentSpec(id=1),), steps=1)
        assert parse_scenario(data) == expected

    @pytest.mark.parametrize(
        "mutate, key",
        [
            (lambda d: d["agents"][0].pop("id"), "agents[0].id"),
            (lambda d: d["specs"]["lottery"].pop("loss_prob"), "specs.lottery.loss_prob"),
            (lambda d: d["specs"]["lottery"].pop("stake"), "specs.lottery.stake"),
            (lambda d: d["run"].pop("steps"), "run.steps"),
        ],
    )
    def test_missing_required_key_named(self, mutate, key):
        data = scenario_dict()
        mutate(data)
        with pytest.raises(ScenarioError, match=f"missing key: {re.escape(key)}$"):
            parse_scenario(data)

    def test_integer_for_a_float_field_reads_as_float(self):
        data = scenario_dict()
        data["agents"][0]["activity_balance"] = 400
        balance = parse_scenario(data).agents[0].activity_balance
        assert type(balance) is float and balance == 400.0

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

    @pytest.mark.parametrize(
        "content",
        [b"[" * 100_000 + b"]" * 100_000, b'{"schema_version": 2, "\xff": 1}'],
        ids=["nested-100000-deep", "not-utf-8"],
    )
    def test_undecodable_file_exits_2_with_path(self, tmp_path, capsys, content):
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize(
        "mutate, key",
        [
            pytest.param(lambda d: d.update(schema_version=1), "schema_version", id="v1"),
            pytest.param(
                lambda d: d["agents"][0].update(utility={"kind": "log"}),
                "agents[0].utility",
                id="utility",
            ),
            pytest.param(
                lambda d: d["specs"].update(minority={}), "specs.minority", id="minority"
            ),
        ],
    )
    def test_version_1_document_exits_2_with_key_name(self, tmp_path, capsys, mutate, key):
        data = scenario_dict()
        mutate(data)
        code, out = self.run_simulate(tmp_path, data)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mutate, key",
        [
            pytest.param(lambda d: d["rules"].update(trait_count=1e9), "trait_count", id="traits"),
            pytest.param(lambda d: d["rules"].update(breed_limit=1e9), "breed_limit", id="limit"),
            pytest.param(
                lambda d: d["agents"][0].update(collectibles=1e9),
                "agents[].collectibles",
                id="collectibles",
            ),
            pytest.param(lambda d: d["run"].update(steps=1e12), "run.steps", id="steps"),
        ],
    )
    def test_size_cap_exits_2_with_key_name(self, tmp_path, capsys, mutate, key):
        # Each cap is checked when the scenario is parsed, before any genesis.
        data = scenario_dict()
        mutate(data)
        code, out = self.run_simulate(tmp_path, data)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.name)
    def test_example_scenarios_run(self, tmp_path, path):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(path), "--steps", "5", "--out", str(out)])
        assert code == 0
        assert len((out / "snapshots.csv").read_text().splitlines()) == 1 + 1 + 5

    @pytest.mark.parametrize("blocked", ["events.jsonl", "snapshots.csv", "summary.json"])
    def test_unwritable_output_exits_2_and_leaves_nothing(self, tmp_path, capsys, blocked):
        # An earlier run's outputs are there too; a directory sits at one name.
        _, out = self.run_simulate(tmp_path, scenario_dict())
        (out / blocked).unlink()
        (out / blocked).mkdir()
        code, _ = self.run_simulate(tmp_path, scenario_dict())
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out / blocked}: ")
        assert [p.name for p in out.iterdir()] == [blocked]
        assert (out / blocked).is_dir()

    def test_invariant_violation_exits_3(self, tmp_path, capsys, monkeypatch):
        real_step = GameSimulation.step

        def explode_at_4(sim, step):
            if step == 4:
                raise SimulationInvariantError(4, "synthetic failure")
            real_step(sim, step)

        monkeypatch.setattr(GameSimulation, "step", explode_at_4)
        code, out = self.run_simulate(tmp_path, scenario_dict())
        assert code == 3
        err = capsys.readouterr().err
        assert "step 4" in err
        # A pool-wide failure names no agent.
        assert "error: agent" not in err
        assert not (out / "events.jsonl").exists()

        last = Event(step=4, agent=2, action="pass", inputs={}, outputs={}, rng_draws=0)

        def explode_at_4_naming_agent_2(sim, step):
            if step == 4:
                raise SimulationInvariantError(4, "synthetic failure", agent=2, last_event=last)
            real_step(sim, step)

        monkeypatch.setattr(GameSimulation, "step", explode_at_4_naming_agent_2)
        code, out = self.run_simulate(tmp_path, scenario_dict())
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            "error: invariant violation at step 4: synthetic failure",
            f"error: agent 2, last event: {json.dumps(asdict(last))}",
        ]
        assert not (out / "events.jsonl").exists()

    def test_steps_flag_over_the_turn_cap_exits_2_with_key_name(self, tmp_path, capsys):
        code, out = self.run_simulate(tmp_path, scenario_dict(), extra=("--steps", str(10**12)))
        assert code == 2
        assert "steps" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_leaves_no_outputs(self, tmp_path, capsys, monkeypatch):
        # A ValueError mid-run exits 2; the files written so far are removed,
        # along with the summary.json of an earlier run in the same directory.
        _, out = self.run_simulate(tmp_path, scenario_dict())
        real_step = GameSimulation.step

        def fail_at_3(sim, step):
            if step == 3:
                raise ValueError("synthetic domain error")
            real_step(sim, step)

        monkeypatch.setattr(GameSimulation, "step", fail_at_3)
        code, out = self.run_simulate(tmp_path, scenario_dict())
        assert code == 2
        assert "synthetic domain error" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_overflowing_adventure_exits_3_at_step_2(self, tmp_path, capsys):
        # Growth maximizers adventure at step 1 (balance 8e301) and step 2,
        # where the balance overflows to Infinity and the audit must stop
        # the run before anything non-finite is written.
        data = json.loads(BASELINE.read_text())
        data["specs"]["adventure"]["reward_multiplier"] = 1e300
        code, out = self.run_simulate(tmp_path, data)
        assert code == 3
        err = capsys.readouterr().err
        assert "invariant violation at step 2" in err
        assert "finite" in err
        # Agent 6, the first growth maximizer, is the first to overflow.
        named = err.splitlines()[1]
        assert named.startswith("error: agent 6, last event: ")
        last = json.loads(named.removeprefix("error: agent 6, last event: "))
        assert (last["step"], last["agent"], last["action"]) == (2, 6, "adventure")
        assert last["outputs"]["activity_balance"] == math.inf
        for name in ("events.jsonl", "snapshots.csv", "summary.json"):
            assert not (out / name).exists()

    def test_overflowing_pool_value_exits_3_at_step_0(self, tmp_path, capsys):
        # Every balance and price is finite, but supply times price is not.
        data = json.loads(BASELINE.read_text())
        data["run"]["board"]["activity_price"] = 1e307
        code, out = self.run_simulate(tmp_path, data)
        assert code == 3
        err = capsys.readouterr().err
        assert "invariant violation at step 0: pool values must be finite" in err
        assert not (out / "snapshots.csv").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
    def test_out_blocked_by_a_file_exits_2_with_path(self, tmp_path, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out = blocker / "out" if under else blocker
        config_path = write_scenario(tmp_path, scenario_dict())
        code = main(["simulate", "--config", config_path, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(out) in err
        assert blocker.read_text() == "not a directory"

    def test_passive_scenario_rows_identical(self, tmp_path):
        data = scenario_dict()
        data["agents"] = [{"id": 1, "strategy": "passive", "market_balance": 10.0}]
        data["run"]["price_update"] = "frozen"
        _, out = self.run_simulate(tmp_path, data)
        lines = (out / "snapshots.csv").read_text().splitlines()
        body = [line.split(",", 1)[1] for line in lines[1:]]
        assert len(set(body)) == 1


class TestSizeCaps:
    """The caps live in the config classes, so library callers get them too."""

    def test_largest_rules_accepted(self):
        rules = GameRules(trait_count=MAX_TRAIT_COUNT, breed_limit=MAX_BREED_LIMIT)
        assert len(rules.activity_cost_schedule) == MAX_BREED_LIMIT

    @pytest.mark.parametrize("field", ["trait_count", "breed_limit"])
    def test_rules_one_over_refused(self, field):
        with pytest.raises(ValueError, match=f"{field} must be <= 1024"):
            GameRules(**{field: 1025})

    def test_genesis_total_capped(self):
        half = MAX_GENESIS_COLLECTIBLES // 2
        agents = (AgentSpec(id=1, collectibles=half), AgentSpec(id=2, collectibles=half))
        SimConfig(rules=GameRules(), agents=agents, steps=1)
        over = agents + (AgentSpec(id=3, collectibles=1),)
        with pytest.raises(ValueError, match=r"agents\[\]\.collectibles must total <= 100000"):
            SimConfig(rules=GameRules(), agents=over, steps=1)

    def test_agent_turns_capped(self):
        agents = (AgentSpec(id=1), AgentSpec(id=2))
        SimConfig(rules=GameRules(), agents=agents, steps=MAX_AGENT_TURNS // 2)
        with pytest.raises(ValueError, match=r"run\.steps times the number of agents must be <= 100000000"):
            SimConfig(rules=GameRules(), agents=agents, steps=MAX_AGENT_TURNS // 2 + 1)

    def test_turn_cap_refused_at_parse_time(self):
        data = scenario_dict()
        data["run"]["steps"] = 1e12
        with pytest.raises(ScenarioError, match=r"run\.steps"):
            parse_scenario(data)


class RecordingSimulation(GameSimulation):
    """Keeps every event it hands to the writer; ``extra`` events are
    handed out after the genesis events."""

    def __init__(self, config, extra=()):
        super().__init__(config)
        self.extra = list(extra)
        self.handed_out = []

    def stream(self):
        for events, snapshot in super().stream():
            events.extend(self.extra)
            self.extra = []
            self.handed_out.extend(events)
            yield events, snapshot


def json_lines(events) -> str:
    return "".join(json.dumps(asdict(ev), separators=(",", ":")) + "\n" for ev in events)


class TestEventLines:
    """events.jsonl formats the envelope itself; each line must still be
    exactly what json.dumps writes for the event."""

    @pytest.mark.parametrize("variant", ["baseline", "treasury", "premiums"])
    def test_every_line_matches_json_dumps(self, tmp_path, variant):
        data = json.loads(BASELINE.read_text())
        if variant == "treasury":
            data["rules"]["burn_mode"] = "treasury"
        if variant == "premiums":
            data["run"]["trait_premiums"] = [0, 0.01, 0.03, 0.07, 0.15, 0.31]
        sim = RecordingSimulation(parse_scenario(data))
        _write_outputs(tmp_path, sim)
        assert (tmp_path / "events.jsonl").read_text() == json_lines(sim.handed_out)
        kinds = {(ev.action, ev.outputs.get("result")) for ev in sim.handed_out}
        assert kinds == {
            ("genesis", None),
            ("breed", None),
            ("battle", None),
            ("adventure", None),
            ("lottery", "win"),
            ("lottery", "loss"),
            ("pass", None),
        }

    def test_payload_needing_escapes_matches_json_dumps(self, tmp_path):
        synthetic = Event(
            step=0,
            agent=1,
            action="pass",
            inputs={"quoted": 'a "b" \\ c\nd\te', "name": "caf\u00e9 \u2713 \U0001f40d"},
            outputs={"zero": -0.0, "small": 1e-07, "large": 1e22, "nested": [{"k\u00fc": -0.0}]},
            rng_draws=0,
        )
        sim = RecordingSimulation(parse_scenario(scenario_dict()), extra=[synthetic])
        _write_outputs(tmp_path, sim)
        lines = (tmp_path / "events.jsonl").read_text().splitlines(keepends=True)
        assert "".join(lines) == json_lines(sim.handed_out)
        line = lines[sim.handed_out.index(synthetic)]
        assert line.isascii()
        for text in ("-0.0", "1e-07", "1e+22", r"\u00e9", r'\"b\"'):
            assert text in line


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

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["sharpe", "--excess", "1e308", "--vol", "1e-300"], "sharpe_ratio"),
            (["envelope", "--up", "1e-320", "--down", "1"], "gain_player2"),
            (
                [
                    "lattice", "--breeds-remaining", "1",
                    "--floor", "1e308", "--child-value", "1e308", "--costs", "0",
                ],
                "lattice_value",
            ),
        ],
        ids=["sharpe", "envelope", "lattice"],
    )
    def test_overflowing_result_exits_2_with_nothing_on_stdout(self, capsys, argv, field):
        assert main(["analyze", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {field} is not finite\n"

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


class TestUnusedSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "propitious", "--seeker-exponent", "8"],
            ["analyze", "envelope", "--up", "2", "--down", "0.5"],
            ["demo", "minority"],
            ["demo", "collateral-cycle"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_seed_is_accepted_and_changes_nothing(self, capsys, argv):
        outputs = []
        for seed in (None, "0", "7", str(2**64 - 1)):
            assert main(argv if seed is None else [*argv, "--seed", seed]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1

    def test_help_says_seed_has_no_effect(self, capsys):
        with pytest.raises(SystemExit):
            main(["demo", "minority", "--help"])
        assert "no effect" in " ".join(capsys.readouterr().out.split())
