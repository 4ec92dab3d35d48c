import copy
import functools
import gc
import itertools
import json
import math
import random
import tracemalloc
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nftgamesim import breeding
from nftgamesim.activities import AdventureSpec, BattleSpec, LotterySpec, StrategyMix
from nftgamesim.analytics import CollateralSpec, collateral_loop, max_population
from nftgamesim.breeding import BreedCost, GameRules
from nftgamesim import simulation
from nftgamesim.economy import (
    Collectible,
    PriceBoard,
    check_listed_prices,
    check_ownership_partition,
)
from nftgamesim.scenario import parse_scenario
from nftgamesim.simulation import (
    PRICE_UPDATES,
    STRATEGIES,
    Z_95,
    AgentSpec,
    Event,
    GameSimulation,
    SimConfig,
    SimulationInvariantError,
    derive_subseed,
    ruin_probability,
    run_simulation,
    wilson_interval,
)
from test_breeding import (
    check_breed,
    iterate_forward_price,
    reference_pairing_error,
    reference_traits,
)
from test_economy import check_supply_conservation
from test_golden import BASELINE, CASES


def serialize(events) -> list[str]:
    return [e.line() for e in events]


def base_rules(**kwargs) -> GameRules:
    kwargs.setdefault("breed_arity", 2)
    kwargs.setdefault("breed_limit", 7)
    return GameRules(**kwargs)


def mixed_config(seed=0, steps=15, price_update="frozen") -> SimConfig:
    rules = base_rules(
        mutation_prob=0.25,
        activity_cost_schedule=[1, 1, 1, 1, 1, 1, 1],
        market_cost_schedule=[0.5] * 7,
    )
    agents = (
        AgentSpec(id=1, strategy="fixed_mix", mix=StrategyMix(breed=1), collectibles=4,
                  activity_balance=500.0, market_balance=100.0),
        AgentSpec(id=2, strategy="thrill_seeker", market_balance=30.0),
        AgentSpec(id=3, strategy="growth_maximizer", collectibles=3,
                  activity_balance=40.0, market_balance=10.0),
        AgentSpec(id=4, strategy="passive", activity_balance=5.0, market_balance=5.0),
    )
    return SimConfig(
        rules=rules,
        agents=agents,
        steps=steps,
        seed=seed,
        board=PriceBoard(activity_price=0.5, market_price=2.0, floor_price=1.0),
        price_update=price_update,
        adventure=AdventureSpec(reward_multiplier=1.1, collectibles_required=1),
        battle=BattleSpec(team_size=3, survival_fraction=0.9),
        lottery=LotterySpec(loss_prob=0.5, stake=1.0, win_market_tokens=1.0),
    )


@st.composite
def breedless_drift_economies(draw) -> SimConfig:
    """Forward-drift economies in which nobody breeds: passive agents, thrill
    seekers and fixed mixes of battles and adventures, with drawn prices,
    arity and per-breed costs."""
    rules = base_rules(
        breed_arity=draw(st.integers(1, 4)),
        activity_cost_schedule=draw(st.lists(st.floats(0.0, 3.0), min_size=7, max_size=7)),
        market_cost_schedule=draw(st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7)),
    )
    agents = []
    for agent_id in range(1, draw(st.integers(1, 4)) + 1):
        strategy = draw(st.sampled_from(("passive", "thrill_seeker", "fixed_mix")))
        mix = None
        if strategy == "fixed_mix":
            mix = StrategyMix(battle=draw(st.integers(0, 2)), adventure=draw(st.integers(0, 2)))
        agents.append(AgentSpec(
            id=agent_id, strategy=strategy, mix=mix, collectibles=draw(st.integers(0, 5)),
            activity_balance=draw(st.floats(0.0, 50.0)), market_balance=draw(st.floats(0.0, 20.0)),
        ))
    floor = draw(st.floats(0.1, 3.0))
    return SimConfig(
        rules=rules,
        agents=tuple(agents),
        steps=80,
        board=PriceBoard(
            activity_price=draw(st.floats(0.1, 2.0)),
            market_price=draw(st.floats(0.1, 2.0)),
            floor_price=floor,
            genesis_price=floor * draw(st.floats(1.0, 3.0)),
        ),
        price_update="forward_drift",
        adventure=AdventureSpec(reward_multiplier=1.1, collectibles_required=1),
        battle=BattleSpec(team_size=2, survival_fraction=0.9),
        lottery=LotterySpec(loss_prob=0.5, stake=1.0, win_market_tokens=1.0),
    )


class TestRunSimulation:
    def test_passive_frozen_economy_is_static(self):
        config = SimConfig(
            rules=base_rules(),
            agents=(AgentSpec(id=1, strategy="passive", collectibles=2,
                              activity_balance=10.0, market_balance=10.0),),
            steps=8,
            board=PriceBoard(activity_price=0.5, market_price=2.0, floor_price=1.0),
            lottery=LotterySpec(loss_prob=0.5, stake=1.0, win_market_tokens=1.0),
        )
        result = run_simulation(config)
        first = result.snapshots[0]
        for snap in result.snapshots[1:]:
            assert snap.collectible_pool == first.collectible_pool
            assert snap.activity_pool == first.activity_pool
            assert snap.market_pool == first.market_pool
            assert snap.total == first.total
            assert snap.collectible_count == first.collectible_count
            assert snap.agent_wealth == first.agent_wealth
        assert result.ruined_at[1] is None

    def test_breeder_never_exceeds_population_bound(self):
        rules = base_rules(breed_limit=7, mutation_prob=0.1)
        config = SimConfig(
            rules=rules,
            agents=(AgentSpec(id=1, strategy="fixed_mix", mix=StrategyMix(breed=1),
                              collectibles=4, activity_balance=1e6, market_balance=1e6),),
            steps=12,
            board=PriceBoard(activity_price=0.5, market_price=2.0, floor_price=1.0),
        )
        result = run_simulation(config)
        bound = max_population(4, rules, config.steps)
        for snap in result.snapshots:
            assert snap.collectible_count <= bound[snap.step]

    def test_same_seed_same_log(self):
        a = run_simulation(mixed_config(seed=9))
        b = run_simulation(mixed_config(seed=9))
        assert serialize(a.events) == serialize(b.events)
        assert [s.agent_wealth for s in a.snapshots] == [s.agent_wealth for s in b.snapshots]

    def test_different_seed_changes_a_random_record(self):
        a = run_simulation(mixed_config(seed=1))
        b = run_simulation(mixed_config(seed=2))
        random_a = [e for e in serialize(a.events) if not e.endswith('"rng_draws":0}')]
        random_b = [e for e in serialize(b.events) if not e.endswith('"rng_draws":0}')]
        assert random_a != random_b

    def test_agents_act_in_id_order_once_per_step(self):
        result = run_simulation(mixed_config(steps=6))
        per_step: dict[int, list[int]] = {}
        for event in result.events:
            if event.step == 0:
                continue
            per_step.setdefault(event.step, []).append(event.agent)
        for step, agents in per_step.items():
            assert agents == [1, 2, 3, 4], f"step {step} order broken"

    def test_forward_drift_matches_recursion_exactly(self):
        rules = base_rules(
            activity_cost_schedule=[2, 0, 0, 0, 0, 0, 0],
            market_cost_schedule=[0.25, 0, 0, 0, 0, 0, 0],
        )
        config = SimConfig(
            rules=rules,
            agents=(AgentSpec(id=1, strategy="passive", collectibles=1),),
            steps=10,
            board=PriceBoard(
                activity_price=0.5, market_price=2.0, floor_price=1.0, genesis_price=2.0
            ),
            price_update="forward_drift",
        )
        cost = 2 * 0.5 + 0.25 * 2.0
        sim = GameSimulation(config)
        observed = [sim.prices[0]]
        for step in range(1, config.steps + 1):
            sim.step(step)
            observed.append(sim.prices[0])
        assert observed == iterate_forward_price(2.0, rules.breed_arity, cost, config.steps)

    @settings(max_examples=25, deadline=None)
    @given(config=breedless_drift_economies())
    def test_forward_drift_without_breeds_follows_the_recursion(self, config):
        # After step t every collectible price is the recursion's p_t from the
        # genesis price, and the floor its p_t from the initial floor.
        sim = GameSimulation(config)
        cost = sim._breed_costs[0]
        assert cost == BreedCost.at_index(config.rules, 0, config.board).numeraire_total
        d = config.rules.breed_arity
        prices = iterate_forward_price(config.board.genesis_price, d, cost, config.steps)
        floors = iterate_forward_price(config.board.floor_price, d, cost, config.steps)
        for t, (events, _) in enumerate(sim.stream()):
            assert "breed" not in {e.action for e in events}
            assert set(sim.prices.values()) <= {prices[t]}
            assert sim.floor == floors[t]

    def test_supply_changes_equal_recorded_mints_and_burns(self):
        config = mixed_config(steps=12)
        sim = GameSimulation(config)
        initial_activity = sim.counters.activity_supply
        initial_market = sim.counters.market_supply
        for step in range(1, config.steps + 1):
            sim.step(step)
        net_activity = 0.0
        net_market = 0.0
        for e in sim.events:
            outputs = e.as_dict()["outputs"]
            net_activity += outputs.get("activity_minted", 0.0)
            net_activity -= outputs.get("activity_cost", 0.0)
            net_market += outputs.get("market_minted", 0.0)
            net_market -= outputs.get("market_burned", 0.0)
            net_market -= outputs.get("market_cost", 0.0)
        assert sim.counters.activity_supply == pytest.approx(
            initial_activity + net_activity, rel=1e-9
        )
        assert sim.counters.market_supply == pytest.approx(
            initial_market + net_market, rel=1e-9
        )

    def test_treasury_burn_mode_conserves_supply(self):
        rules = base_rules(
            activity_cost_schedule=[2, 2, 2, 2, 2, 2, 2], burn_mode="treasury"
        )
        config = SimConfig(
            rules=rules,
            agents=(AgentSpec(id=1, strategy="fixed_mix", mix=StrategyMix(breed=1),
                              collectibles=2, activity_balance=50.0),),
            steps=5,
            board=PriceBoard(activity_price=0.5, market_price=2.0, floor_price=1.0),
        )
        sim = GameSimulation(config)
        start = sim.counters.activity_supply
        for step in range(1, config.steps + 1):
            sim.step(step)
        breeds = sum(1 for e in sim.events if e.action == "breed")
        assert breeds > 0
        assert sim.counters.activity_supply == start
        assert sim.holdings[0].activity_balance == pytest.approx(2.0 * breeds, rel=1e-12)

    def test_invariant_violation_names_step(self):
        config = mixed_config(steps=3)
        sim = GameSimulation(config)
        sim.counters.activity_supply += 100.0  # desync supply from balances
        with pytest.raises(SimulationInvariantError, match="step 1"):
            sim.step(1)

    def test_battle_that_destroys_nearly_all_of_a_balance_passes_the_audit(self):
        # The counter moves by after - before, rounded at the scale of the
        # 2.8e7 balance; the 0.0276 left is off by more than 1e-9 of itself.
        config = SimConfig(
            rules=base_rules(),
            agents=(AgentSpec(id=1, strategy="fixed_mix", mix=StrategyMix(battle=1),
                              collectibles=2, activity_balance=27590716.0),),
            steps=1,
            battle=BattleSpec(team_size=2, survival_fraction=1e-9),
        )
        sim = GameSimulation(config)
        sim.step(1)
        assert sim.holdings[1].activity_balance == 1e-9 * 27590716.0
        assert sim.counters.activity_supply != sim.holdings[1].activity_balance

    def test_lost_delta_after_a_collapse_caught_by_audit(self):
        sim = GameSimulation(mixed_config(steps=3))
        sim.step(1)
        # Every balance empties while the counter keeps a token's worth.
        for h in sim.holdings.values():
            h.activity_balance = 0.0
        sim.counters.activity_supply = 1.0
        with pytest.raises(SimulationInvariantError, match="step 2: activity supply"):
            sim._check_invariants(step=2)

    def test_double_ownership_caught_by_audit(self):
        config = mixed_config(steps=3)
        sim = GameSimulation(config)
        stolen = next(iter(sim.holdings[1].collectibles))
        sim.holdings[4].collectibles[stolen] = sim.population[stolen]
        with pytest.raises(SimulationInvariantError, match=f"collectible {stolen}"):
            sim._check_invariants(step=1)

    def test_missing_price_caught_by_audit(self):
        config = mixed_config(steps=3)
        sim = GameSimulation(config)
        # Agent 1 breeds on a fixed schedule and never values its tokens, so
        # only the audit can notice the lost price.
        del sim.prices[min(sim.holdings[1].collectibles)]
        with pytest.raises(SimulationInvariantError, match="step 1: priced collectibles"):
            sim.step(1)

    def test_price_for_unminted_collectible_caught_by_audit(self):
        sim = GameSimulation(mixed_config(steps=3))
        sim.prices[999] = 1.0
        with pytest.raises(SimulationInvariantError, match=r"unminted \[999\]"):
            sim.step(1)

    def test_negative_supply_caught_by_audit(self):
        sim = GameSimulation(mixed_config(steps=3))
        sim.counters.market_supply = -1.0
        with pytest.raises(SimulationInvariantError, match="step 1: supplies"):
            sim.step(1)

    def test_stream_hands_over_each_step_once(self):
        config = mixed_config(steps=8)
        sim = GameSimulation(config)
        # The yielded lists are kept without copying: the run must not reuse them.
        handed = list(sim.stream())
        assert [snap.step for _, snap in handed] == list(range(config.steps + 1))
        assert sim.events == []
        result = run_simulation(config)
        assert serialize(e for events, _ in handed for e in events) == serialize(result.events)
        assert [snap for _, snap in handed] == result.snapshots

    def test_event_draw_counts_cover_all_draws(self):
        config = mixed_config(steps=10)
        events = run_simulation(config).events
        assert {e.action for e in events} >= {"genesis", "lottery", "breed"}
        assert sum(e.rng_draws for e in events) == replay_draws(config)


class TestStrategies:
    def test_fixed_mix_cycles_through_sequence(self):
        config = SimConfig(
            rules=base_rules(),
            agents=(AgentSpec(id=1, strategy="fixed_mix",
                              mix=StrategyMix(breed=0, battle=0, adventure=2),
                              collectibles=1, activity_balance=10.0),),
            steps=4,
            board=PriceBoard(activity_price=0.5, market_price=2.0, floor_price=1.0),
            adventure=AdventureSpec(reward_multiplier=1.1, collectibles_required=1),
        )
        result = run_simulation(config)
        actions = [e.action for e in result.events if e.step > 0]
        assert actions == ["adventure"] * 4

    @settings(max_examples=50, deadline=None)
    @given(counts=st.tuples(*[st.integers(0, 3)] * 3), step=st.integers(1, 40))
    def test_fixed_mix_cycle_is_breeds_then_battles_then_adventures(self, counts, step):
        mix = StrategyMix(*counts)
        spec = AgentSpec(id=1, strategy="fixed_mix", mix=mix)
        sim = SearchEveryTurn(SimConfig(rules=base_rules(), agents=(spec,), steps=1))
        cycle = ["breed"] * mix.breed + ["battle"] * mix.battle + ["adventure"] * mix.adventure
        expected = cycle[(step - 1) % len(cycle)] if cycle else "pass"
        assert sim._cycle_action(spec, step) == expected

    def test_large_fixed_mix_allocates_no_cycle(self):
        # A cycle of ten million breeds is counted, not spelled out.
        spec = AgentSpec(id=1, strategy="fixed_mix", mix=StrategyMix(breed=10**7))
        config = SimConfig(rules=base_rules(), agents=(spec,), steps=1)
        tracemalloc.start()
        try:
            GameSimulation(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_growth_maximizer_prefers_profitable_adventure(self):
        config = SimConfig(
            rules=base_rules(activity_cost_schedule=[100] * 7),
            agents=(AgentSpec(id=1, strategy="growth_maximizer", collectibles=3,
                              activity_balance=20.0, market_balance=5.0),),
            steps=5,
            board=PriceBoard(activity_price=0.5, market_price=2.0, floor_price=1.0),
            adventure=AdventureSpec(reward_multiplier=1.2, collectibles_required=1),
            battle=BattleSpec(team_size=3, survival_fraction=0.8),
        )
        result = run_simulation(config)
        actions = {e.action for e in result.events if e.step > 0}
        assert actions == {"adventure"}

    def test_growth_maximizer_passes_when_everything_loses(self):
        config = SimConfig(
            rules=base_rules(),
            agents=(AgentSpec(id=1, strategy="growth_maximizer",
                              activity_balance=10.0, market_balance=0.0),),
            steps=3,
            board=PriceBoard(activity_price=0.5, market_price=2.0, floor_price=1.0),
            battle=BattleSpec(team_size=2, survival_fraction=0.5),
        )
        result = run_simulation(config)
        # No collectibles: battle/adventure unavailable, breeding impossible.
        assert {e.action for e in result.events if e.step > 0} == {"pass"}

    def test_growth_maximizer_avoids_losing_battle(self):
        config = SimConfig(
            rules=base_rules(activity_cost_schedule=[100] * 7),
            agents=(AgentSpec(id=1, strategy="growth_maximizer", collectibles=2,
                              activity_balance=10.0),),
            steps=3,
            board=PriceBoard(activity_price=0.5, market_price=2.0, floor_price=1.0),
            battle=BattleSpec(team_size=2, survival_fraction=0.5),
        )
        result = run_simulation(config)
        # Battle is feasible but strictly losing; passing beats it.
        assert {e.action for e in result.events if e.step > 0} == {"pass"}

    def test_growth_maximizer_breaks_ties_toward_breeding(self):
        # Breed delta = floor - cost = 0 and pass delta = 0; order prefers breed.
        rules = base_rules(activity_cost_schedule=[2, 2, 2, 2, 2, 2, 2])
        config = SimConfig(
            rules=rules,
            agents=(AgentSpec(id=1, strategy="growth_maximizer", collectibles=2,
                              activity_balance=100.0),),
            steps=1,
            board=PriceBoard(activity_price=0.5, market_price=2.0, floor_price=1.0),
        )
        result = run_simulation(config)
        assert [e.action for e in result.events if e.step > 0] == ["breed"]

    def test_trait_premiums_price_newborns_above_floor(self):
        rules = base_rules(trait_count=2, trait_alphabet=3, mutation_prob=0.0)
        config = SimConfig(
            rules=rules,
            agents=(AgentSpec(id=1, strategy="fixed_mix", mix=StrategyMix(breed=1),
                              collectibles=2, activity_balance=10.0),),
            steps=1,
            board=PriceBoard(activity_price=0.5, market_price=2.0, floor_price=1.0),
            trait_premiums=(0.0, 0.5, 1.0),
        )
        sim = GameSimulation(config)
        sim.step(1)
        breed_event = next(e for e in sim.events if e.action == "breed")
        outputs = breed_event.as_dict()["outputs"]
        child_id = outputs["child"]
        traits = outputs["traits"]
        expected = 1.0 + sum((0.0, 0.5, 1.0)[t] for t in traits)
        assert sim.prices[child_id] == expected

    def test_trait_premiums_add_left_to_right_on_every_interpreter(self):
        # Left to right these premiums sum to 0.07, and 0.5 + 0.07 is
        # 0.5700000000000001; the compensated builtin sum of Python 3.12 and
        # later gives 0.06999999999999999, and a price of 0.57.
        config = SimConfig(
            rules=base_rules(trait_count=6),
            agents=(AgentSpec(id=1),),
            steps=1,
            board=PriceBoard(floor_price=0.5),
            trait_premiums=(0.0, 0.01, 0.03, 0.07, 0.15, 0.31),
        )
        assert GameSimulation(config)._list_price((0, 0, 0, 1, 2, 2)) == 0.5700000000000001

    def test_trait_premiums_validated_against_alphabet(self):
        with pytest.raises(ValueError, match="one entry per trait value"):
            SimConfig(
                rules=base_rules(trait_alphabet=4),
                agents=(AgentSpec(id=1),),
                steps=1,
                trait_premiums=(0.1,),
            )

    def test_thrill_seeker_stops_when_priced_out(self):
        config = SimConfig(
            rules=base_rules(),
            agents=(AgentSpec(id=1, strategy="thrill_seeker", market_balance=1.0),),
            steps=5,
            seed=3,
            board=PriceBoard(activity_price=0.5, market_price=2.0, floor_price=1.0),
            lottery=LotterySpec(loss_prob=1.0, stake=1.0, win_market_tokens=9.0),
        )
        result = run_simulation(config)
        actions = [e.action for e in result.events if e.step > 0]
        assert actions[0] == "lottery"
        assert set(actions[1:]) == {"pass"}
        assert result.ruined_at[1] == 2


def reference_eligible_parents(sim: GameSimulation, agent_id: int, step: int) -> list[Collectible]:
    """The oldest eligible parents as first gathered: sort the whole holding
    and skip spent and immature tokens."""
    out = []
    for tid in sorted(sim.holdings[agent_id].collectibles):
        c = sim.population[tid]
        if c.breed_count >= sim.rules.breed_limit:
            continue
        if step - c.birth_step < sim.rules.maturity_delay:
            continue
        out.append(c)
        if len(out) >= simulation.BREED_SEARCH_WINDOW:
            break
    return out


def reference_breeding_set(sim: GameSimulation, agent_id: int, step: int) -> list[int] | None:
    """The search as first written: pairing check first, then the cost."""
    eligible = reference_eligible_parents(sim, agent_id, step)
    if len(eligible) < sim.rules.breed_arity:
        return None
    h = sim.holdings[agent_id]
    for combo in itertools.combinations(eligible, sim.rules.breed_arity):
        if reference_pairing_error(list(combo)) is not None:
            continue
        cost = BreedCost.at_index(sim.rules, combo[0].breed_count, sim.board)
        if h.activity_balance < cost.activity_amount:
            continue
        if h.market_balance < cost.market_amount:
            continue
        return [c.id for c in combo]
    return None


AMOUNTS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 4.0])


class Drawn:
    """Stands in for st.data() in an @example: a draw with a label returns
    the value given for that label, and a draw without one returns the next
    of ``unlabelled``, whatever the strategy."""

    def __init__(self, labelled: dict, unlabelled):
        self.labelled = labelled
        self.unlabelled = iter(unlabelled)

    def draw(self, strategy, label=None):
        if label is None:
            return next(self.unlabelled)
        return self.labelled[label]

    def __repr__(self) -> str:
        return f"Drawn({self.labelled!r})"


def holding_example(arity: int, tokens, activity=0.0, costs=(0.0,), founders=16) -> Drawn:
    """The draws of test_matches_reference_on_random_holdings for one
    holding: ``tokens`` gives each token's (parents or None, breed_count,
    owned). Every token is born at step 0 and searched for at step 1 with
    no maturity delay; ``costs`` is the activity cost schedule, and the
    market costs and balance are 0."""
    limit = len(costs)
    labelled = {
        "breed_limit": limit,
        "arity": arity,
        "maturity_delay": 0,
        "activity_costs": list(costs),
        "market_costs": [0.0] * limit,
        "population": len(tokens),
        "founders": founders,
        "activity_balance": activity,
        "market_balance": 0.0,
        "step": 1,
    }
    for tid, (parents, breed_count, owned) in enumerate(tokens):
        if parents is not None:
            labelled[f"parents[{tid}]"] = list(parents)
        labelled[f"breed_count[{tid}]"] = breed_count
        labelled[f"birth_step[{tid}]"] = 0
        labelled[f"owns[{tid}]"] = owned
    return Drawn(labelled, [parents is not None for parents, _, _ in tokens[1:]])


class ReadCounted(dict):
    """A holding that counts the walks over its ids or tokens."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()

    def keys(self):
        self.reads += 1
        return super().keys()

    def values(self):
        self.reads += 1
        return super().values()

    def items(self):
        self.reads += 1
        return super().items()


class TestBreedingSearch:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    # With arity 1 each token leads its own set: token 0's second breed
    # costs 4.0, so the first set the agent affords is token 1 alone.
    @example(
        data=holding_example(1, [(None, 1, True), (None, 0, True)], activity=2.0, costs=(1.0, 4.0))
    )
    # Token 2 shares a parent with every later token, so the lead row fails
    # through the whole window (tokens 2 to 13) before (3, 4) succeeds; the
    # genesis token 14, which would pair with 2, lies outside the window.
    @example(
        data=holding_example(
            2,
            [(None, 0, False), (None, 0, False), ((0, 1), 0, True)]
            + [((tid % 2,), 0, True) for tid in range(3, 14)]
            + [(None, 0, True)],
            founders=2,
        )
    )
    # With arity 3 a row set's last parent must pair with every fixed
    # parent: token 2 is token 1's child, so (0, 1, 2) fails on its second
    # pair and (0, 1, 3) is found.
    @example(
        data=holding_example(
            3, [(None, 0, True), (None, 0, True), ((1,), 0, True), (None, 0, True)]
        )
    )
    def test_matches_reference_on_random_holdings(self, data):
        limit = data.draw(st.integers(1, 4), label="breed_limit")
        costs = st.lists(AMOUNTS, min_size=limit, max_size=limit)
        rules = base_rules(
            breed_arity=data.draw(st.integers(1, 3), label="arity"),
            breed_limit=limit,
            maturity_delay=data.draw(st.integers(0, 3), label="maturity_delay"),
            activity_cost_schedule=data.draw(costs, label="activity_costs"),
            market_cost_schedule=data.draw(costs, label="market_costs"),
        )
        sim = GameSimulation(SimConfig(rules=rules, agents=(AgentSpec(id=1),), steps=1))
        # Lineages point at earlier tokens, owned or not. Parents come from
        # the first `founders` tokens only, so with few founders most pairs
        # are siblings and many combinations fail the pairing check.
        size = data.draw(st.integers(0, 16), label="population")
        founders = data.draw(st.integers(1, 16), label="founders")
        for tid in range(size):
            parents = None
            if tid and data.draw(st.booleans()):
                parent_ids = st.integers(0, min(tid, founders) - 1)
                parents = tuple(
                    data.draw(
                        st.lists(parent_ids, min_size=1, max_size=3, unique=True),
                        label=f"parents[{tid}]",
                    )
                )
            sim.population[tid] = Collectible(
                id=tid,
                traits=(0,) * rules.trait_count,
                parents=parents,
                breed_count=data.draw(st.integers(0, limit), label=f"breed_count[{tid}]"),
                birth_step=data.draw(st.integers(-3, 5), label=f"birth_step[{tid}]"),
            )
        h = sim.holdings[1]
        h.collectibles = {
            tid: sim.population[tid]
            for tid in range(size)
            if data.draw(st.booleans(), label=f"owns[{tid}]")
        }
        h.activity_balance = data.draw(AMOUNTS, label="activity_balance")
        h.market_balance = data.draw(AMOUNTS, label="market_balance")
        step = data.draw(st.integers(0, 6), label="step")
        assert sim._find_breeding_set(1, step) == reference_breeding_set(sim, 1, step)

    def test_at_most_one_search_per_agent_turn(self):
        config = mixed_config(steps=30, price_update="forward_drift")
        sim = GameSimulation(config)
        searches = Counter()
        search = sim._find_breeding_set

        def counting(agent_id, step):
            searches[agent_id, step] += 1
            return search(agent_id, step)

        sim._find_breeding_set = counting
        for step in range(1, config.steps + 1):
            sim.step(step)
        assert sim.action_counts[1]["breed"] > 0
        assert max(searches.values()) == 1

    @pytest.mark.parametrize(
        "activity, market, searched",
        [(1.9, 10.0, False), (10.0, 0.5, False), (2.0, 1.0, True)],
        ids=["below-activity-cost", "below-market-cost", "affords-cheapest"],
    )
    def test_priced_out_agent_skips_the_search(self, activity, market, searched):
        rules = base_rules(
            activity_cost_schedule=[3, 2, 4, 4, 4, 4, 4],
            market_cost_schedule=[1, 1, 1, 2, 2, 2, 2],
        )
        sim = GameSimulation(SimConfig(rules=rules, agents=(AgentSpec(id=1, collectibles=4),), steps=1))
        sim.population[0].breed_count = 1
        h = sim.holdings[1]
        h.activity_balance, h.market_balance = activity, market
        h.collectibles = ReadCounted(h.collectibles)
        found = sim._find_breeding_set(1, 1)
        assert (h.collectibles.reads > 0) == searched
        assert found == ([0, 1] if searched else None)


class TestCandidates:
    @pytest.mark.parametrize(
        "edit, seed, steps",
        [case[1:4] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_follow_the_holdings_on_the_golden_cases(self, edit, seed, steps):
        sim = GameSimulation(baseline_config(edit, seed, steps))
        check_holdings(sim)
        for step in range(1, steps + 1):
            sim.step(step)
            check_holdings(sim)

    def test_a_parent_leaves_with_its_last_charge(self):
        config = SimConfig(
            rules=base_rules(breed_limit=1, maturity_delay=0),
            agents=(AgentSpec(id=1, strategy="fixed_mix", mix=StrategyMix(breed=1), collectibles=4),),
            steps=1,
        )
        sim = GameSimulation(config)
        sim.step(1)
        # Tokens 0 and 1 bred their only time; the child 4 is appended, and
        # the search skips the spent parents, so it leads with token 2.
        assert list(sim.holdings[1].collectibles) == [0, 1, 2, 3, 4]
        assert sim._find_breeding_set(1, 2) == [2, 3]
        check_holdings(sim)


class SearchEveryTurn(GameSimulation):
    """The step loop and the choice as they were before the search ran on
    demand: one search on every agent turn, read by the ruin test, the
    strategy and the breed, and a growth maximizer that scores every action
    at once, pricing its breed with BreedCost.at_index. It tests what each
    action needs and plays the chosen one by name itself, so it shares none
    of the engine's turn code but the plays."""

    def _cycle_action(self, spec: AgentSpec, step: int) -> str:
        """A fixed-mix agent repeats a cycle of mix.breed breeds, then
        mix.battle battles, then mix.adventure adventures, one per step."""
        mix = spec.mix
        period = mix.breed + mix.battle + mix.adventure
        if not period:
            return "pass"
        i = (step - 1) % period
        if i < mix.breed:
            return "breed"
        return "battle" if i < mix.breed + mix.battle else "adventure"

    def _can_adventure(self, agent_id: int) -> bool:
        return len(self.holdings[agent_id].collectibles) >= self._adventure_team

    def _can_battle(self, agent_id: int) -> bool:
        return len(self.holdings[agent_id].collectibles) >= self._battle_team

    def _can_lottery(self, agent_id: int) -> bool:
        return self.holdings[agent_id].market_balance >= self._stake

    def play(self, action: str, agent_id: int, step: int, parents: list[int] | None) -> Event:
        if action == "breed":
            return self._do_breed(agent_id, step, parents)
        if action == "battle":
            return self._do_battle(agent_id, step)
        if action == "adventure":
            return self._do_adventure(agent_id, step)
        if action == "lottery":
            return self._do_lottery(agent_id, step)
        assert action == "pass"
        return Event(step, agent_id, "pass", (), 0)

    def step(self, step: int) -> None:
        for spec in self._agents:
            parents = self._find_breeding_set(spec.id, step)
            affords = (
                parents is not None
                or self._can_adventure(spec.id)
                or self._can_battle(spec.id)
                or self._can_lottery(spec.id)
            )
            if self.ruined_at[spec.id] is None and not affords:
                self.ruined_at[spec.id] = step
            action = self.reference_choice(spec, step, parents)
            event = self.play(action, spec.id, step, parents)
            self.action_counts[spec.id][event.action] += 1
            self.events.append(event)
        self._update_prices()
        self._check_invariants(step)

    def reference_choice(self, spec: AgentSpec, step: int, parents: list[int] | None) -> str:
        if spec.strategy == "passive":
            return "pass"
        if spec.strategy == "thrill_seeker":
            return "lottery" if self._can_lottery(spec.id) else "pass"
        if spec.strategy == "fixed_mix":
            action = self._cycle_action(spec, step)
            if action == "breed" and parents is None:
                return "pass"
            if action == "battle" and not self._can_battle(spec.id):
                return "pass"
            if action == "adventure" and not self._can_adventure(spec.id):
                return "pass"
            return action
        wealth = self.agent_wealth(spec.id)
        if wealth <= 0:
            return "pass"
        h = self.holdings[spec.id]
        candidates = []
        if parents is not None:
            lead = self.population[parents[0]]
            cost = BreedCost.at_index(self.rules, lead.breed_count, self.board)
            candidates.append((self.floor - cost.numeraire_total, 0, "breed"))
        if self._can_battle(spec.id):
            fraction = self.config.battle.survival_fraction
            delta = (fraction - 1.0) * h.activity_balance * self.board.activity_price
            candidates.append((delta, 1, "battle"))
        if self._can_adventure(spec.id):
            multiplier = self.config.adventure.reward_multiplier
            delta = (multiplier - 1.0) * h.activity_balance * self.board.activity_price
            candidates.append((delta, 2, "adventure"))
        candidates.append((0.0, 3, "pass"))
        best = None
        for delta, order, name in candidates:
            if wealth + delta <= 0:
                continue
            key = (-math.log1p(delta / wealth), order)
            if best is None or key < best[0]:
                best = (key, name)
        return best[1]


def check_holdings(sim: GameSimulation) -> None:
    """Every holding, the breeding search's candidates, is in ascending id
    order and maps each id to the population's own object."""
    for h in sim.holdings.values():
        assert list(h.collectibles) == sorted(h.collectibles)
        assert all(c is sim.population[tid] for tid, c in h.collectibles.items())


@st.composite
def breeding_economies(draw) -> SimConfig:
    """Economies in which a growth maximizer's breed sometimes wins: several
    distinct per-breed costs, the floor above the cheapest, small activity
    balances, and runs with and without the adventure and battle specs."""
    limit = draw(st.integers(1, 5))
    amounts = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0])
    act = draw(st.lists(amounts, min_size=limit, max_size=limit))
    mkt = draw(st.lists(amounts, min_size=limit, max_size=limit))
    rules = base_rules(
        breed_limit=limit,
        mutation_prob=draw(st.sampled_from([0.0, 0.5])),
        maturity_delay=draw(st.integers(0, 2)),
        activity_cost_schedule=act,
        market_cost_schedule=mkt,
    )
    activity_price, market_price = draw(st.sampled_from([0.5, 1.0])), draw(st.sampled_from([0.5, 2.0]))
    cheapest = min(a * activity_price + m * market_price for a, m in zip(act, mkt))
    floor = cheapest + draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    agents = []
    for agent_id in range(1, draw(st.integers(1, 4)) + 1):
        strategy = draw(st.sampled_from(["growth_maximizer"] * 3 + list(STRATEGIES)))
        mix = StrategyMix(*draw(st.tuples(*[st.integers(0, 2)] * 3))) if strategy == "fixed_mix" else None
        agents.append(AgentSpec(
            id=agent_id, strategy=strategy, mix=mix, collectibles=draw(st.integers(0, 6)),
            activity_balance=draw(st.sampled_from([0.0, 0.5, 2.0, 5.0, 20.0])),
            market_balance=draw(st.sampled_from([0.0, 1.0, 5.0, 20.0])),
        ))
    adventure = AdventureSpec(reward_multiplier=draw(st.sampled_from([1.0, 1.05, 1.5])), collectibles_required=1)
    battle = BattleSpec(team_size=2, survival_fraction=draw(st.sampled_from([0.5, 0.9, 1.0])))
    return SimConfig(
        rules=rules,
        agents=tuple(agents),
        steps=draw(st.integers(1, 25)),
        seed=draw(st.integers(0, 2**32)),
        board=PriceBoard(
            activity_price=activity_price,
            market_price=market_price,
            floor_price=floor,
            genesis_price=floor * draw(st.sampled_from([1.0, 1.5])),
        ),
        price_update=draw(st.sampled_from(PRICE_UPDATES)),
        adventure=draw(st.none() | st.just(adventure)),
        battle=draw(st.none() | st.just(battle)),
        lottery=draw(st.none() | st.just(LotterySpec(loss_prob=0.5, stake=1.0, win_market_tokens=1.0))),
    )


def breed_only(data: dict) -> None:
    # Breeding is the only activity left, so every ruin test that the
    # strategy does not answer falls through to the search.
    for name in ("adventure", "battle", "lottery"):
        del data["specs"][name]


def baseline_config(edit, seed: int, steps: int) -> SimConfig:
    data = json.loads(BASELINE.read_text())
    if edit is not None:
        edit(data)
    return replace(parse_scenario(data), seed=seed, steps=steps)


def record_searches(sim: GameSimulation) -> list[tuple[int, int]]:
    """Log (agent, step) for every breeding search the simulation runs."""
    searched = []
    search = sim._find_breeding_set

    def recording(agent_id, step):
        searched.append((agent_id, step))
        return search(agent_id, step)

    sim._find_breeding_set = recording
    return searched


def run_steps(cls, config: SimConfig) -> GameSimulation:
    sim = cls(config)
    for step in range(1, config.steps + 1):
        sim.step(step)
    return sim


# The float just above a floor price of 1.0.
ABOVE_1 = math.nextafter(1.0, 2.0)


class TestSearchOnDemand:
    @pytest.mark.parametrize(
        "edit, seed, steps",
        [case[1:4] for case in CASES] + [(breed_only, 3, 300)],
        ids=[case[0] for case in CASES] + ["breed-only-3-300"],
    )
    def test_matches_a_search_on_every_turn(self, edit, seed, steps):
        config = baseline_config(edit, seed, steps)
        on_demand = run_steps(GameSimulation, config)
        every_turn = run_steps(SearchEveryTurn, config)
        assert serialize(on_demand.events) == serialize(every_turn.events)
        assert on_demand.ruined_at == every_turn.ruined_at
        assert on_demand.action_counts == every_turn.action_counts

    @settings(max_examples=150, deadline=None)
    @given(config=breeding_economies())
    def test_growth_choice_matches_a_search_on_every_turn(self, config):
        on_demand = GameSimulation(config)
        searched = record_searches(on_demand)
        every_turn = SearchEveryTurn(config)
        check_holdings(on_demand)
        for step in range(1, config.steps + 1):
            on_demand.step(step)
            every_turn.step(step)
            check_holdings(on_demand)
        assert serialize(on_demand.events) == serialize(every_turn.events)
        assert on_demand.ruined_at == every_turn.ruined_at
        assert on_demand.action_counts == every_turn.action_counts
        assert max(Counter(searched).values(), default=1) == 1

    def test_growth_maximizer_searches_only_when_a_breed_can_win(self):
        # A breed costs 1.0 against a floor of 2.0, a change of +1.0. Agent
        # 1's adventure gains 0.1 x 100 = 10, so no cost in the table can
        # win and it never searches; agent 2 has no activity tokens, its
        # adventure gains nothing, and it searches and breeds.
        rules = base_rules(activity_cost_schedule=[0] * 7, market_cost_schedule=[1] * 7)
        config = SimConfig(
            rules=rules,
            agents=(
                AgentSpec(id=1, strategy="growth_maximizer", collectibles=4,
                          activity_balance=100.0, market_balance=5.0),
                AgentSpec(id=2, strategy="growth_maximizer", collectibles=4, market_balance=5.0),
            ),
            steps=8,
            board=PriceBoard(floor_price=2.0, genesis_price=2.0),
            adventure=AdventureSpec(reward_multiplier=1.1, collectibles_required=1),
        )
        sim = GameSimulation(config)
        searched = record_searches(sim)
        for step in range(1, config.steps + 1):
            sim.step(step)
        assert {agent for agent, _ in searched} == {2}
        assert sim.action_counts[1]["adventure"] == 8
        assert sim.action_counts[2]["breed"] == 5  # one per market token
        every_turn = run_steps(SearchEveryTurn, config)
        assert serialize(sim.events) == serialize(every_turn.events)

    @pytest.mark.parametrize("battle, adventure", [(True, True), (True, False), (False, True)])
    def test_an_overflowed_score_is_kept_as_before(self, battle, adventure):
        # A balance of 1e308 at an activity price of 10 overflows: wealth is
        # inf, a battle's change -inf and an adventure's inf, so each of
        # their scores is log1p(nan). A NaN score is kept, and no later
        # action beats it.
        config = SimConfig(
            rules=base_rules(),
            agents=(AgentSpec(id=1, strategy="growth_maximizer", collectibles=4,
                              activity_balance=1e308),),
            steps=1,
            board=PriceBoard(activity_price=10.0),
            adventure=AdventureSpec(reward_multiplier=1.5, collectibles_required=1)
            if adventure else None,
            battle=BattleSpec(team_size=2, survival_fraction=0.5) if battle else None,
        )
        spec = config.agents[0]
        expected = "battle" if battle else "adventure"
        # The choice plays its action, so each call gets a fresh run.
        for parents in (None, simulation.NOT_SEARCHED):
            sim = SearchEveryTurn(config)
            assert sim.agent_wealth(1) == math.inf
            assert sim.reference_choice(spec, 1, None) == expected
            assert sim._growth_choice(spec, 1, parents).action == expected

    def test_every_distinct_cost_is_tried(self):
        # A first breed costs 3.0 and loses to an adventure that changes
        # nothing (floor 1.0); a second costs nothing and gains the floor.
        # The agent's tokens have bred once, so only the second entry of the
        # table says a breed can win. The adventure answers the ruin test,
        # so only the choice can run the search.
        rules = base_rules(activity_cost_schedule=[3, 0, 0, 0, 0, 0, 0])
        config = SimConfig(
            rules=rules,
            agents=(AgentSpec(id=1, strategy="growth_maximizer", collectibles=4,
                              activity_balance=5.0),),
            steps=1,
            adventure=AdventureSpec(reward_multiplier=1.0, collectibles_required=1),
        )
        sim = GameSimulation(config)
        for token in sim.population.values():
            token.breed_count = 1
        sim.step(1)
        assert [e.action for e in sim.events if e.step == 1] == ["breed"]

    @pytest.mark.parametrize(
        "schedule, balance, breeds",
        [
            ([3.0, ABOVE_1, 7.0, 1.0], 5.0, [False, False, False, True]),
            ([3.0, ABOVE_1, 7.0, 1.0], 1e308, [False, True, False, True]),
            ([ABOVE_1, 0.5, 3.0, 7.0], 5.0, [False, True, False, False]),
            ([ABOVE_1, 0.5, 3.0, 7.0], 1e308, [True, True, False, False]),
            ([7.0, ABOVE_1, 3.0, 1.5], 5.0, [False, False, False, False]),
            ([7.0, ABOVE_1, 3.0, 1.5], 1e308, [False, True, False, False]),
        ],
        ids=["unsorted-5", "unsorted-1e308", "sorted-5", "sorted-1e308",
             "cheapest-above-floor-5", "cheapest-above-floor-1e308"],
    )
    def test_the_breed_gate_stops_only_below_zero(self, schedule, balance, breeds):
        # A breed at the cost just above the floor of 1.0 changes wealth by
        # -2.2e-16: x is negative at a balance of 5.0 but underflows to -0.0
        # at 1e308, where the breed ties with an adventure that changes
        # nothing and wins the tie. The gate walks the distinct costs in
        # ascending order and may stop only at an x below zero, never at
        # -0.0, which decides the gate where that cost is the cheapest. The
        # lead's breed count picks the entry a breed costs, so each count in
        # turn runs from genesis, against a search on every turn.
        config = SimConfig(
            rules=base_rules(breed_limit=4, activity_cost_schedule=schedule,
                             market_cost_schedule=[0.0] * 4),
            agents=(AgentSpec(id=1, strategy="growth_maximizer", collectibles=4,
                              activity_balance=balance),),
            steps=3,
            adventure=AdventureSpec(reward_multiplier=1.0, collectibles_required=1),
        )
        firsts = []
        for count in range(4):
            on_demand, every_turn = GameSimulation(config), SearchEveryTurn(config)
            for sim in (on_demand, every_turn):
                for token in sim.population.values():
                    token.breed_count = count
                for step in range(1, config.steps + 1):
                    sim.step(step)
            assert serialize(on_demand.events) == serialize(every_turn.events)
            firsts.append(next(e.action for e in on_demand.events if e.step == 1))
        assert firsts == ["breed" if b else "adventure" for b in breeds]

    @pytest.mark.parametrize("name", ["activity_cost_schedule", "market_cost_schedule"])
    def test_rules_refuse_a_nan_cost(self, name):
        # The gate sorts the costs, and a NaN would leave them out of order.
        with pytest.raises(ValueError, match=f"{name} entries must be non-negative"):
            base_rules(breed_limit=2, **{name: [1.0, math.nan]})

    @given(x=st.floats(min_value=-1.0, max_value=-0.0, exclude_min=True, exclude_max=True))
    @example(x=-5e-324)
    @example(x=math.nextafter(-1.0, 0.0))
    def test_log1p_of_a_non_zero_x_in_minus_one_to_zero_is_negative(self, x):
        # The growth maximizer refuses a breed by the sign of x, its change
        # over wealth: such an x scores -log1p(x) > 0 and loses to pass.
        assert math.log1p(x) < 0

    def test_breed_only_ruin_steps_come_from_the_search(self):
        # Agents 2 and 3 pass on every turn their cycle does not breed; only
        # the search tells the ruin test they can still afford to breed.
        sim = run_steps(GameSimulation, baseline_config(breed_only, 3, 300))
        assert [sim.ruined_at[k] for k in (1, 2, 3)] == [93, 136, 176]

    def test_turns_that_do_not_read_it_never_search(self):
        funded = dict(collectibles=4, activity_balance=50.0, market_balance=50.0)
        agents = (
            AgentSpec(id=1, strategy="passive", **funded),
            AgentSpec(id=2, strategy="thrill_seeker", **funded),
            AgentSpec(id=3, strategy="fixed_mix", mix=StrategyMix(breed=1, battle=1, adventure=1),
                      **funded),
            AgentSpec(id=4, strategy="growth_maximizer", **funded),
        )
        config = replace(mixed_config(steps=12), agents=agents)
        sim = GameSimulation(config)
        searched = record_searches(sim)
        for step in range(1, config.steps + 1):
            sim.step(step)
        # Everyone holds a collectible, so every agent affords an adventure
        # and no ruin test falls through to the search. Agent 3's cycle
        # breeds on steps 1, 4, 7 and 10. Agent 4's breed costs 1.5 against
        # a floor of 1.0, so it loses to a profitable adventure and agent 4
        # never searches.
        assert searched == [(3, step) for step in (1, 4, 7, 10)]
        assert sim.action_counts[4]["adventure"] == 12
        assert {a: sim.action_counts[3][a] for a in ("breed", "battle", "adventure")} == {
            "breed": 4, "battle": 4, "adventure": 4
        }
        assert all(at is None for at in sim.ruined_at.values())

    def test_ruin_test_falls_through_to_the_search_until_ruined(self):
        rules = base_rules(activity_cost_schedule=[1] * 7, market_cost_schedule=[0.5] * 7)
        agents = (
            # Affords a breed it never makes: searched on every turn, never ruined.
            AgentSpec(id=1, strategy="passive", collectibles=2, activity_balance=5.0,
                      market_balance=5.0),
            # Affords nothing: searched once, ruined at step 1, never searched again.
            AgentSpec(id=2, strategy="passive", collectibles=2, activity_balance=0.5),
        )
        config = SimConfig(rules=rules, agents=agents, steps=5)
        sim = GameSimulation(config)
        searched = record_searches(sim)
        for step in range(1, config.steps + 1):
            sim.step(step)
        assert searched == [(1, 1), (2, 1), (1, 2), (1, 3), (1, 4), (1, 5)]
        assert sim.ruined_at == {1: None, 2: 1}


class CountingPrices(dict):
    """A price table that counts its writes. dict.update skips __setitem__
    on a subclass, so update counts its own."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)

    def update(self, *args, **kwargs):
        new = dict(*args, **kwargs)
        self.writes += len(new)
        super().update(new)


class CountingReads(dict):
    """A price table that counts its reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestPriceUpdate:
    # Cost 3.0 per breed at unit prices: p* = 3.0 maps to itself exactly.
    def fixed_point_sim(self) -> GameSimulation:
        config = SimConfig(
            rules=base_rules(activity_cost_schedule=[3, 0, 0, 0, 0, 0, 0]),
            agents=(AgentSpec(id=1, strategy="passive", collectibles=5),),
            steps=2,
            board=PriceBoard(floor_price=3.0),
            price_update="forward_drift",
        )
        assert breeding.forward_price_step(3.0, config.rules.breed_arity, 3.0) == 3.0
        return GameSimulation(config)

    def test_no_writes_at_the_fixed_point(self):
        sim = self.fixed_point_sim()
        sim.prices = prices = CountingPrices(sim.prices)
        sim.step(1)
        assert prices.writes == 0
        assert prices == dict.fromkeys(range(5), 3.0) and sim.floor == 3.0

    @pytest.mark.parametrize("moved", ["token", "floor"])
    def test_a_moving_price_rewrites_only_its_class(self, moved):
        sim = self.fixed_point_sim()
        if moved == "token":
            sim.prices[2] = 6.0
        else:
            sim.floor = 1.5
        sim.prices = prices = CountingPrices(sim.prices)
        sim.step(1)
        # Only the moved class is written: token 2 alone, or no token when
        # only the floor moves.
        assert prices.writes == (1 if moved == "token" else 0)
        expected = dict.fromkeys(range(5), 3.0)
        if moved == "token":
            expected[2] = breeding.forward_price_step(6.0, 2, 3.0)
            assert expected[2] != 6.0
        assert prices == expected

    def test_classes_that_step_onto_one_price_merge(self):
        # The step contracts by 2/3, so neighbouring floats can land on one
        # price: 6.0 and the next float both step to 5.0, and the float
        # after 3.0 steps onto the fixed point 3.0, whose class does not move.
        above_3, above_6 = math.nextafter(3.0, math.inf), math.nextafter(6.0, math.inf)
        step = functools.partial(breeding.forward_price_step, d=2, step_cost_numeraire=3.0)
        assert step(6.0) == step(above_6) == 5.0 and step(above_3) == 3.0
        sim = self.fixed_point_sim()
        sim.prices.update({1: above_3, 2: 6.0, 3: above_6})
        sim.prices = prices = CountingPrices(sim.prices)
        sim.step(1)
        # Each moved class is written once per id; the unmoved class is not.
        assert prices.writes == 3
        assert prices == {0: 3.0, 1: 3.0, 2: 5.0, 3: 5.0, 4: 3.0}
        assert {p: sorted(ids) for p, ids in sim._price_classes.items()} == {
            3.0: [0, 1, 4], 5.0: [2, 3],
        }
        # The merged class moves as one.
        prices.writes = 0
        sim.step(2)
        assert prices.writes == 2
        assert prices == {0: 3.0, 1: 3.0, 2: step(5.0), 3: step(5.0), 4: 3.0}
        assert {p: sorted(ids) for p, ids in sim._price_classes.items()} == {
            3.0: [0, 1, 4], step(5.0): [2, 3],
        }

    @staticmethod
    def count_price_steps(monkeypatch) -> Counter:
        calls = Counter()
        step = breeding.forward_price_step

        def counting(*args):
            calls["steps"] += 1
            return step(*args)

        monkeypatch.setattr(breeding, "forward_price_step", counting)
        return calls

    def test_no_price_step_at_rest_once_the_fixed_point_is_proven(self, monkeypatch):
        sim = at_rest_sim()
        calls = self.count_price_steps(monkeypatch)
        sim.step(1)
        # The first update steps the one distinct price, the floor's too.
        assert calls["steps"] == 1
        for step in range(2, 5):
            sim.step(step)
        assert calls["steps"] == 1

    @pytest.mark.parametrize("premium, stepped", [(0.0, 0), (0.5, 2)])
    def test_a_newborn_at_a_new_price_runs_the_update_again(self, monkeypatch, premium, stepped):
        # Every price rests at the fixed point 3.0. Agent 1 affords no breed
        # until it is funded after step 2; its child lists at 3.0 plus six
        # premiums. At 3.0 the kept set already holds that price, so the
        # update stays idle; at 6.0 it steps both distinct prices and
        # rewrites every token.
        config = SimConfig(
            rules=base_rules(activity_cost_schedule=[3, 0, 0, 0, 0, 0, 0], maturity_delay=0),
            agents=(AgentSpec(id=1, strategy="fixed_mix", mix=StrategyMix(breed=1),
                              collectibles=3),),
            steps=4,
            board=PriceBoard(floor_price=3.0),
            price_update="forward_drift",
            trait_premiums=(premium,) * 6,
        )
        sim = GameSimulation(config)
        calls = self.count_price_steps(monkeypatch)
        sim.step(1)
        sim.step(2)
        assert calls["steps"] == 1
        sim.holdings[1].activity_balance = 3.0
        sim.counters.activity_supply = 3.0
        sim.step(3)
        assert [e.action for e in sim.events if e.step == 3] == ["breed"]
        assert calls["steps"] == 1 + stepped
        prices = sim.prices
        if premium:
            assert prices == {0: 3.0, 1: 3.0, 2: 3.0, 3: breeding.forward_price_step(6.0, 2, 3.0)}
        else:
            assert prices == dict.fromkeys(range(4), 3.0)

    def test_snapshot_at_rest_reads_no_price(self):
        sim = self.fixed_point_sim()
        sim.prices = prices = CountingReads(sim.prices)
        first = sim.snapshot(0)
        # The agent's token value reads every price once; the pool sums the
        # token values.
        assert prices.reads == 5
        prices.reads = 0
        sim.step(1)
        assert sim.snapshot(1) == replace(first, step=1)
        assert prices.reads == 0


def check_kept_valuations(config: SimConfig) -> None:
    """Every snapshot's pool and agent wealths equal a from-scratch valuation, bit for bit."""
    sim = GameSimulation(config)
    board = sim.board
    for _, snap in sim.stream():
        prices = sim.prices
        tokens = {
            agent_id: math.fsum(prices[t] for t in sim.holdings[agent_id].collectibles)
            for agent_id in snap.agent_wealth
        }
        assert snap.collectible_pool.hex() == math.fsum(tokens.values()).hex()
        for agent_id, wealth in snap.agent_wealth.items():
            h = sim.holdings[agent_id]
            fresh = (
                tokens[agent_id]
                + h.activity_balance * board.activity_price
                + h.market_balance * board.market_price
            )
            assert wealth.hex() == fresh.hex()


def pool_error_ulps(config: SimConfig) -> float:
    """The largest distance, over every snapshot, of the collectible pool
    from the exact sum of the token prices, in ulps of the pool."""
    sim = GameSimulation(config)
    worst = 0.0
    for _, snap in sim.stream():
        prices = Counter(sim.prices.values())
        exact = sum((Fraction(p) * n for p, n in prices.items()), Fraction(0))
        phi = snap.collectible_pool
        worst = max(worst, float(abs(Fraction(phi) - exact) / Fraction(math.ulp(phi))))
    return worst


@st.composite
def small_configs(draw) -> SimConfig:
    """Small mixed economies; half of them start every price at the float fixed
    point of the forward-drift step, so no price moves until a premium does."""
    activity_cost = draw(st.floats(0.1, 3.0))
    market_cost = draw(st.floats(0.0, 1.0))
    rules = base_rules(
        mutation_prob=draw(st.floats(0.0, 1.0)),
        maturity_delay=draw(st.integers(0, 2)),
        activity_cost_schedule=[activity_cost] * 7,
        market_cost_schedule=[market_cost] * 7,
        burn_mode=draw(st.sampled_from(("void", "treasury"))),
    )
    activity_price, market_price = draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        floor = cost = activity_cost * activity_price + market_cost * market_price
        for _ in range(100):  # settles on an exact fixed point within a few dozen steps
            floor = breeding.forward_price_step(floor, 2, cost)
        genesis = floor
    else:
        floor = draw(st.floats(0.1, 3.0))
        genesis = floor * draw(st.floats(1.0, 3.0))
    agents = []
    for agent_id in range(1, draw(st.integers(1, 4)) + 1):
        strategy = draw(st.sampled_from(STRATEGIES))
        mix = StrategyMix(*draw(st.tuples(*[st.integers(0, 2)] * 3))) if strategy == "fixed_mix" else None
        agents.append(AgentSpec(
            id=agent_id, strategy=strategy, mix=mix, collectibles=draw(st.integers(0, 6)),
            activity_balance=draw(st.floats(0.0, 50.0)), market_balance=draw(st.floats(0.0, 20.0)),
        ))
    premiums = draw(st.none() | st.lists(st.floats(0.0, 0.5), min_size=6, max_size=6).map(tuple))
    return SimConfig(
        rules=rules,
        agents=tuple(agents),
        steps=draw(st.integers(1, 30)),
        seed=draw(st.integers(0, 2**32)),
        board=PriceBoard(
            activity_price=activity_price,
            market_price=market_price,
            floor_price=floor,
            genesis_price=genesis,
        ),
        price_update=draw(st.sampled_from(PRICE_UPDATES)),
        trait_premiums=premiums,
        adventure=AdventureSpec(reward_multiplier=1.1, collectibles_required=1),
        battle=BattleSpec(team_size=2, survival_fraction=0.9),
        lottery=LotterySpec(loss_prob=0.5, stake=1.0, win_market_tokens=1.0),
    )


class TalliedRandom:
    """random.Random's random() and randrange(n), counting the calls."""

    def __init__(self, seed: int):
        self.generator = random.Random(seed)
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        return self.generator.random()

    def randrange(self, n: int) -> int:
        self.calls += 1
        return self.generator.randrange(n)


def replay_draws(config: SimConfig) -> int:
    """Run ``config`` and replay its draws from a fresh random.Random(seed)
    in event order: each genesis token's traits are randrange(alphabet) per
    trait, each lottery is lost exactly when random() < loss_prob, and each
    breed's traits are reference_traits of the logged parents. Every event's
    rng_draws is the number of draws its replay took, and the replay ends in
    the run's generator state. Returns the number of draws replayed."""
    sim = GameSimulation(config)
    rules = config.rules
    tokens: dict[int, Collectible] = {}
    replay = TalliedRandom(config.seed)
    for events, _ in sim.stream():
        for event in events:
            before = replay.calls
            if event.action == "genesis":
                token_id, traits = event.payload
                assert traits == tuple(
                    replay.randrange(rules.trait_alphabet) for _ in range(rules.trait_count)
                )
                tokens[token_id] = Collectible(token_id, traits, None, 0, 0)
            elif event.action == "lottery":
                assert event.payload[1] == (replay.random() < config.lottery.loss_prob)
            elif event.action == "breed":
                parent_ids, child, traits = event.payload[:3]
                parents = [tokens[pid] for pid in parent_ids]
                assert traits == reference_traits(parents, rules, replay)
                tokens[child] = Collectible(child, traits, tuple(parent_ids), 0, 0)
            assert event.rng_draws == replay.calls - before, event.line()
    assert replay.generator.getstate() == sim.rng.getstate()
    return replay.calls


def power_of_two_alphabet(data: dict) -> None:
    # At a power of two, n.bit_length() exceeds (n - 1).bit_length(), so a
    # draw taking one bit too few is seen.
    data["rules"]["trait_alphabet"] = 8


class TestDrawReplay:
    @pytest.mark.parametrize(
        "edit, seed, steps",
        [case[1:4] for case in CASES] + [(power_of_two_alphabet, 3, 50)],
        ids=[case[0] for case in CASES] + ["alphabet-8-3-50"],
    )
    def test_replays_the_golden_cases(self, edit, seed, steps):
        replay_draws(baseline_config(edit, seed, steps))

    @settings(max_examples=40, deadline=None)
    @given(config=small_configs())
    def test_replays_small_economies(self, config):
        replay_draws(config)

    @settings(max_examples=40, deadline=None)
    @given(
        config=breeding_economies(),
        alphabet=st.sampled_from([1, 2, 3, 4, 6, 8, 255, 256, 257, 2**70]),
    )
    def test_replays_breeding_economies(self, config, alphabet):
        replay_draws(replace(config, rules=replace(config.rules, trait_alphabet=alphabet)))

    @pytest.mark.parametrize("seed", [0, 1, 2026])
    def test_a_draw_equal_to_loss_prob_wins(self, seed):
        # The lottery's loss probability is the run's first draw itself.
        spec = LotterySpec(random.Random(seed).random(), stake=1.0, win_market_tokens=1.0)
        seeker = AgentSpec(id=1, strategy="thrill_seeker", market_balance=5.0)
        config = SimConfig(rules=base_rules(), agents=(seeker,), steps=3, seed=seed, lottery=spec)
        replay_draws(config)
        assert run_simulation(config).events[0].payload[1] is False


class TestBreedDraws:
    @pytest.mark.parametrize(
        "edit, seed, steps",
        [case[1:4] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_every_breed_takes_two_draws_per_trait(self, edit, seed, steps):
        config = baseline_config(edit, seed, steps)
        events = run_simulation(config).events
        breeds = [e for e in events if e.action == "breed"]
        assert breeds
        assert {e.rng_draws for e in breeds} == {2 * config.rules.trait_count}
        assert sum(e.rng_draws for e in events) == replay_draws(config)


class TestGenesisDraws:
    @pytest.mark.parametrize(
        "n", [1, 2, 3, 6, 7, 1000, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**40 + 5]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2026])
    def test_genesis_draws_as_randrange_does(self, n, seed):
        # 20 tokens of 10 traits: 200 draws of randrange(n), taken from the
        # run's own generator and leaving it where random.Random(seed) is.
        holder = AgentSpec(id=1, strategy="passive", collectibles=20)
        config = SimConfig(
            rules=base_rules(trait_count=10, trait_alphabet=n),
            agents=(holder,), steps=1, seed=seed,
        )
        sim, reference = GameSimulation(config), random.Random(seed)
        traits = [t for e in sim.events for t in e.payload[1]]
        assert traits == [reference.randrange(n) for _ in range(200)]
        assert sum(e.rng_draws for e in sim.events) == 200
        assert sim.rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("n", [0, -1])
    def test_rules_refuse_an_empty_alphabet(self, n):
        with pytest.raises(ValueError, match="trait_alphabet must be >= 1"):
            base_rules(trait_alphabet=n)


class TestKeptValuations:
    @pytest.mark.parametrize(
        "edit, seed, steps",
        [case[1:4] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_equal_a_fresh_valuation_on_the_golden_cases(self, edit, seed, steps):
        check_kept_valuations(baseline_config(edit, seed, steps))

    @settings(max_examples=40, deadline=None)
    @given(config=small_configs())
    def test_equal_a_fresh_valuation_on_drawn_economies(self, config):
        check_kept_valuations(config)


class TestPoolSum:
    """The collectible pool is an fsum of the agents' fsums: each is exactly
    rounded, so the pool is within 0.5 ulp of the exact sum of the agents'
    values, which are each within 0.5 ulp of their own exact sums; for
    non-negative prices that totals at most 1.5 ulp of the pool."""

    @pytest.mark.parametrize(
        "edit, seed, steps",
        [case[1:4] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_within_one_and_a_half_ulp_of_the_exact_sum_on_the_golden_cases(
        self, edit, seed, steps
    ):
        assert pool_error_ulps(baseline_config(edit, seed, steps)) <= 1.5

    @settings(max_examples=40, deadline=None)
    @given(config=small_configs())
    def test_within_one_and_a_half_ulp_of_the_exact_sum_on_drawn_economies(self, config):
        assert pool_error_ulps(config) <= 1.5

    def test_is_the_fsum_of_the_prices(self):
        # Added left to right, each 1e-16 is lost against 1.0.
        prices = [1.0] + [1e-16] * 10
        config = SimConfig(
            rules=base_rules(),
            agents=(AgentSpec(id=1, collectibles=len(prices)),),
            steps=1,
            board=PriceBoard(floor_price=1e-16),
        )
        sim = GameSimulation(config)
        sim.prices.update(enumerate(prices))
        assert math.fsum(prices) != 1.0
        assert sim.snapshot(0).collectible_pool == math.fsum(prices)


class TestPopulationBound:
    """The engine's collectible count against analytics.max_population, the
    greedy schedule that breeds every mature token at every step."""

    @settings(max_examples=40, deadline=None)
    @given(config=small_configs())
    def test_never_exceeded_after_any_step_of_drawn_economies(self, config):
        genesis = sum(a.collectibles for a in config.agents)
        # With no genesis collectible nothing can ever breed.
        bound = max_population(genesis, config.rules, config.steps) if genesis else None
        for _, snap in GameSimulation(config).stream():
            assert snap.collectible_count <= (bound[snap.step] if bound else 0)


class CheckedBreeds(GameSimulation):
    """The engine with every breed checked before it is minted by the
    reference check_breed on the live state. The engine mints what its
    search found without checking it again, so the reference may not refuse
    a breed, and the cost it finds must be the one the engine's table
    charges."""

    def __init__(self, config: SimConfig):
        self.checked = 0
        super().__init__(config)

    def _do_breed(self, agent_id: int, step: int, parent_ids: list[int]) -> Event:
        cost = check_breed(
            parent_ids, self.holdings[agent_id], self.population, self.rules, self.board,
            current_step=step,
        )
        assert cost == self._breed_table[self.population[parent_ids[0]].breed_count]
        event = super()._do_breed(agent_id, step, parent_ids)
        outputs = event.as_dict()["outputs"]
        assert (outputs["activity_cost"], outputs["market_cost"]) == (
            cost.activity_amount, cost.market_amount
        )
        self.checked += 1
        return event


class TestCheckedBreeds:
    @pytest.mark.parametrize(
        "edit, seed, steps",
        [case[1:4] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_every_breed_passes_the_checks_on_the_golden_cases(self, edit, seed, steps):
        config = baseline_config(edit, seed, steps)
        sim = run_steps(CheckedBreeds, config)
        assert sim.checked == sum(counts["breed"] for counts in sim.action_counts.values()) > 0

    @settings(max_examples=40, deadline=None)
    @given(config=small_configs())
    def test_every_breed_passes_the_checks_on_drawn_economies(self, config):
        sim = run_steps(CheckedBreeds, config)
        assert sim.checked == sum(counts["breed"] for counts in sim.action_counts.values())


class KeptTeams(GameSimulation):
    """The engine with every adventure and battle checked against the live
    holding. The engine keeps each agent's team from its first play of that
    kind, so the kept tuple must still be the holding's first team-size ids
    at every later play."""

    def __init__(self, config: SimConfig):
        self.checked = Counter()
        self.first_team = {}
        super().__init__(config)

    def _do_scaled(self, agent_id, step, action, team_size, multiplier, teams):
        spec = self.config.battle if action == "battle" else self.config.adventure
        assert team_size == (spec.team_size if action == "battle" else spec.collectibles_required)
        event = super()._do_scaled(agent_id, step, action, team_size, multiplier, teams)
        team = event.payload[0]
        assert type(team) is tuple
        assert list(team) == list(itertools.islice(self.holdings[agent_id].collectibles, team_size))
        # The same tuple serves every play of the agent's team.
        assert team is self.first_team.setdefault((action, agent_id), team)
        self.checked[action] += 1
        return event


class TestKeptTeams:
    @pytest.mark.parametrize(
        "edit, seed, steps",
        [case[1:4] for case in CASES] + [(None, 1, 2000)],
        ids=[case[0] for case in CASES] + ["baseline-1-2000"],
    )
    def test_every_team_is_the_holdings_first_ids(self, edit, seed, steps):
        sim = run_steps(KeptTeams, baseline_config(edit, seed, steps))
        for action in ("adventure", "battle"):
            played = sum(counts[action] for counts in sim.action_counts.values())
            assert sim.checked[action] == played > 0


def reference_audit(sim: GameSimulation) -> None:
    """The whole audit, every check on every token, from the economy functions."""
    holdings = list(sim.holdings.values())
    check_ownership_partition(holdings, sim.population)
    for h in holdings:
        h.check_balances()
    sim.counters.validate()
    check_supply_conservation(holdings, sim.counters, scale=sim._supply_scale)
    check_listed_prices(sim.prices, sim.floor)
    prices = sim.prices
    assert prices.keys() == sim.population.keys()
    if sim._price_classes is not None:
        grouped = {}
        for tid, price in prices.items():
            grouped.setdefault(price, []).append(tid)
        # Each kept class holds exactly the ids listed at its price, once each.
        assert {price: sorted(ids) for price, ids in sim._price_classes.items()} == grouped


def check_reference_audit(config: SimConfig) -> int:
    """Run the reference audit after genesis and after every step; return
    how many steps were at rest (nothing minted, no price rewritten)."""
    sim = GameSimulation(config)
    reference_audit(sim)
    at_rest = 0
    for step in range(1, config.steps + 1):
        before = dict(sim.prices)
        sim.step(step)
        reference_audit(sim)
        at_rest += sim.prices == before
    return at_rest


def at_rest_sim(price_update: str = "forward_drift") -> GameSimulation:
    """Two passive agents holding tokens 0-2 and 3-4, every price at the
    forward-drift fixed point 3.0: no step mints or rewrites a price."""
    config = SimConfig(
        rules=base_rules(activity_cost_schedule=[3, 0, 0, 0, 0, 0, 0]),
        agents=(
            AgentSpec(id=1, strategy="passive", collectibles=3),
            AgentSpec(id=2, strategy="passive", collectibles=2),
        ),
        steps=5,
        board=PriceBoard(floor_price=3.0),
        price_update=price_update,
    )
    return GameSimulation(config)


class WalkCounting(dict):
    """A price table that counts each call that walks it, by method name."""

    def __init__(self, prices, counts: Counter):
        super().__init__(prices)
        self.counts = counts

    def values(self):
        self.counts["values"] += 1
        return super().values()

    def items(self):
        self.counts["items"] += 1
        return super().items()

    def keys(self):
        self.counts["keys"] += 1
        return super().keys()

    def __iter__(self):
        self.counts["iter"] += 1
        return super().__iter__()


def count_token_checks(monkeypatch, sim: GameSimulation) -> Counter:
    """Count the audit's per-token checks and every walk over the prices."""
    counts = Counter()
    partition, validate = simulation.check_ownership_partition, simulation.check_listed_prices

    def counting_partition(*args):
        counts["partition"] += 1
        return partition(*args)

    def counting_validate(*args):
        counts["validate"] += 1
        return validate(*args)

    monkeypatch.setattr(simulation, "check_ownership_partition", counting_partition)
    monkeypatch.setattr(simulation, "check_listed_prices", counting_validate)
    sim.prices = WalkCounting(sim.prices, counts)
    return counts


class TestAuditSchedule:
    @pytest.mark.parametrize("price_update", PRICE_UPDATES)
    def test_a_step_at_rest_reads_no_token(self, monkeypatch, price_update):
        sim = at_rest_sim(price_update)
        counts = count_token_checks(monkeypatch, sim)
        # The first forward-drift update groups the ids into the kept price
        # classes, walking the items once.
        sim.step(1)
        assert (counts["values"], counts["items"]) == (0, price_update == "forward_drift")
        counts.clear()
        for step in range(2, 5):
            sim.step(step)
        assert counts == Counter()
        assert sim.prices == dict.fromkeys(range(5), 3.0)

    def test_a_mint_step_runs_each_token_check_once(self, monkeypatch):
        sim = GameSimulation(mixed_config(steps=1))
        counts = count_token_checks(monkeypatch, sim)
        sim.step(1)
        assert [e.action for e in sim.events if e.step == 1][0] == "breed"
        # check_listed_prices takes the distinct prices once; the id comparison
        # reads keys once.
        assert (counts["partition"], counts["validate"], counts["values"], counts["keys"]) == (
            1, 1, 1, 1,
        )

    def test_a_rewrite_step_runs_each_token_check_once(self, monkeypatch):
        sim = at_rest_sim()
        sim.prices[2] = 6.0  # moves toward 3.0, so its class is rewritten
        counts = count_token_checks(monkeypatch, sim)
        sim.step(1)
        assert 3.0 < sim.prices[2] < 6.0
        # The update walks the items once to group the ids into price
        # classes and writes the moved class without walking the table
        # again; check_listed_prices reads the values once.
        assert (counts["partition"], counts["validate"], counts["values"], counts["keys"]) == (
            1, 1, 1, 1,
        )
        assert counts["items"] == 1

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("second holder", r"collectible 0 held by both user 1 and user 2"),
            ("deleted price", r"priced .*: no price for \[4\], price for unminted \[\]"),
            ("unminted price", r"priced .*: no price for \[\], price for unminted \[999\]"),
            ("removed from holder", r"minted collectibles with no owner: \[4\]"),
        ],
        ids=["second-holder", "deleted-price", "unminted-price", "removed-from-holder"],
    )
    def test_faults_injected_at_rest_are_caught(self, fault, message):
        sim = at_rest_sim()
        sim.step(1)
        if fault == "second holder":
            sim.holdings[2].collectibles[0] = sim.population[0]
        elif fault == "deleted price":
            del sim.prices[4]
        elif fault == "unminted price":
            sim.prices[999] = 3.0
        else:
            del sim.holdings[2].collectibles[4]
        with pytest.raises(SimulationInvariantError, match=f"step 2: {message}") as caught:
            sim.step(2)
        assert caught.value.agent is None and caught.value.last_event is None

    def test_a_fault_that_keeps_every_size_is_caught_at_the_next_mint_step(self):
        # Agent 1 breeds on every step; passive agent 2 takes one of agent
        # 1's tokens and loses one of its own, so every holding keeps its
        # size and only the per-token checks of the mint step can tell.
        config = SimConfig(
            rules=base_rules(activity_cost_schedule=[1] * 7),
            agents=(
                AgentSpec(id=1, strategy="fixed_mix", mix=StrategyMix(breed=1), collectibles=4,
                          activity_balance=50.0),
                AgentSpec(id=2, strategy="passive", collectibles=2),
            ),
            steps=3,
        )
        sim = GameSimulation(config)
        sim.step(1)
        sim.holdings[2].collectibles[0] = sim.population[0]
        del sim.holdings[2].collectibles[5]
        with pytest.raises(SimulationInvariantError, match="step 2: collectible 0 held by both"):
            sim.step(2)
        assert [e.action for e in sim.events if e.step == 2] == ["breed", "pass"]

    def test_a_held_token_that_is_not_the_minted_one_is_caught_at_the_next_mint_step(self):
        # Agent 1 holds a copy of token 0 with every charge spent; the
        # population's token 0 has bred once. Every id still matches.
        sim = GameSimulation(baseline_config(None, 1, 10))
        sim.step(1)
        sim.holdings[1].collectibles[0] = replace(sim.population[0], breed_count=7)
        message = "step 2: user 1's collectible 0 is not the minted one"
        with pytest.raises(SimulationInvariantError, match=message):
            sim.step(2)
        assert (1, "breed") in [(e.agent, e.action) for e in sim.events if e.step == 2]

    def test_balance_failure_names_the_agent_and_its_last_event(self):
        sim = GameSimulation(mixed_config(steps=3))
        sim.step(1)
        sim.holdings[3].market_balance = math.nan
        with pytest.raises(SimulationInvariantError, match="step 2: user 3: balances") as caught:
            sim.step(2)
        assert caught.value.agent == 3
        assert caught.value.last_event is sim.events[-2]
        assert (caught.value.last_event.step, caught.value.last_event.agent) == (2, 3)

    # Steps at rest in each case, so both audit schedules are exercised.
    @pytest.mark.parametrize(
        "edit, seed, steps, at_rest",
        [(*case[1:4], rest) for case, rest in zip(CASES, (0, 234, 54, 0, 54, 54))],
        ids=[case[0] for case in CASES],
    )
    def test_reference_audit_passes_after_every_step_of_the_golden_cases(
        self, edit, seed, steps, at_rest
    ):
        assert check_reference_audit(baseline_config(edit, seed, steps)) == at_rest

    @settings(max_examples=40, deadline=None)
    @given(config=small_configs())
    def test_reference_audit_passes_after_every_step_of_drawn_economies(self, config):
        check_reference_audit(config)


def run_trace(config: SimConfig) -> tuple[list[Event], list]:
    events, snapshots = [], []
    for step_events, snapshot in GameSimulation(config).stream():
        events += step_events
        snapshots.append(snapshot)
    return events, snapshots


def pools(snap) -> tuple[str, ...]:
    return tuple(v.hex() for v in (snap.collectible_pool, snap.activity_pool, snap.market_pool, snap.total))


class TestMetamorphic:
    """Relations between runs of drawn economies (Chen et al., ACM CSUR 2018)."""

    @settings(max_examples=30, deadline=None)
    @given(config=small_configs())
    def test_treasury_burns_change_no_event_and_no_wealth(self, config):
        void, treasury = (
            run_trace(replace(config, rules=replace(config.rules, burn_mode=mode)))
            for mode in ("void", "treasury")
        )
        assert serialize(void[0]) == serialize(treasury[0])
        wealth = [{k: v.hex() for k, v in s.agent_wealth.items()} for s in void[1]]
        assert wealth == [{k: v.hex() for k, v in s.agent_wealth.items()} for s in treasury[1]]

    @settings(max_examples=30, deadline=None)
    @given(config=small_configs())
    def test_an_idle_extra_agent_changes_no_other_event_and_no_pool(self, config):
        idle = max(a.id for a in config.agents) + 1
        events, snapshots = run_trace(config)
        wider_events, wider_snapshots = run_trace(
            replace(config, agents=(*config.agents, AgentSpec(id=idle)))
        )
        assert serialize(e for e in wider_events if e.agent != idle) == serialize(events)
        assert [pools(s) for s in wider_snapshots] == [pools(s) for s in snapshots]

    @settings(max_examples=60, deadline=None)
    @given(config=small_configs())
    def test_doubling_every_price_changes_no_event_and_doubles_every_value(self, config):
        """Relation (a): twice the activity, market, floor and genesis prices and
        twice every trait premium.

        Precondition: every balance stays 0 or at least 1e-300, so every
        product of a balance, a price and a multiplier is a normal float, and
        doubling one factor doubles it exactly. A subnormal balance (2.2e-313,
        say) rounds its products on the fixed subnormal grid instead, and
        doubling then need not be exact: float rounding, not a fault.
        """
        sim = GameSimulation(config)
        events, snapshots = [], []
        for step_events, snapshot in sim.stream():
            assume(all(
                b == 0 or b >= 1e-300
                for h in sim.holdings.values()
                for b in (h.activity_balance, h.market_balance)
            ))
            events += step_events
            snapshots.append(snapshot)
        board = config.board
        premiums = config.trait_premiums
        doubled_events, doubled_snapshots = run_trace(replace(
            config,
            board=replace(
                board,
                activity_price=2 * board.activity_price,
                market_price=2 * board.market_price,
                floor_price=2 * board.floor_price,
                genesis_price=2 * board.genesis_price,
            ),
            trait_premiums=None if premiums is None else tuple(2 * p for p in premiums),
        ))
        assert serialize(doubled_events) == serialize(events)
        assert len(doubled_snapshots) == len(snapshots)
        for snap, twice in zip(snapshots, doubled_snapshots):
            assert (twice.step, twice.collectible_count) == (snap.step, snap.collectible_count)
            assert pools(twice) == pools(replace(
                snap,
                collectible_pool=2 * snap.collectible_pool,
                activity_pool=2 * snap.activity_pool,
                market_pool=2 * snap.market_pool,
                total=2 * snap.total,
            ))
            assert {k: v.hex() for k, v in twice.agent_wealth.items()} == {
                k: (2 * v).hex() for k, v in snap.agent_wealth.items()
            }


class TestCollateralLoop:
    def test_half_feedback_converges_to_double(self):
        trajectory, outcome = collateral_loop(
            CollateralSpec(ltv=0.5, impact=1.0, initial_value=100.0)
        )
        assert outcome.kind == "Converged"
        assert outcome.limit_value == pytest.approx(200.0, rel=1e-9)
        assert all(b >= a for a, b in zip(trajectory, trajectory[1:]))

    def test_no_reinvestment_converges_immediately(self):
        trajectory, outcome = collateral_loop(
            CollateralSpec(ltv=0.5, impact=0.0, initial_value=75.0)
        )
        assert outcome.kind == "Converged"
        assert outcome.limit_value == 75.0
        assert trajectory == [75.0, 75.0]

    def test_feedback_above_one_diverges(self):
        trajectory, outcome = collateral_loop(
            CollateralSpec(ltv=0.6, impact=2.0, initial_value=100.0), max_iter=200
        )
        assert outcome.kind == "Diverged"
        assert trajectory[-1] > trajectory[0]

    def test_shock_triggers_liquidation(self):
        spec = CollateralSpec(
            ltv=0.5, impact=1.0, initial_value=100.0,
            liquidation_threshold=1.0, shock_step=12, shock_fraction=0.6,
        )
        trajectory, outcome = collateral_loop(spec)
        assert outcome.kind == "Liquidated"
        assert outcome.liquidated_step == 12
        assert trajectory[12] < trajectory[11]

    def test_mild_shock_recovers(self):
        spec = CollateralSpec(
            ltv=0.5, impact=1.0, initial_value=100.0,
            liquidation_threshold=1.0, shock_step=12, shock_fraction=0.1,
        )
        _, outcome = collateral_loop(spec)
        assert outcome.kind == "Converged"
        assert outcome.limit_value == pytest.approx(200.0, rel=1e-9)

    @settings(max_examples=60)
    @given(
        ltv=st.floats(min_value=0.05, max_value=0.95),
        impact=st.floats(min_value=0.0, max_value=1.0),
        v0=st.floats(min_value=1.0, max_value=1e6),
    )
    def test_limit_matches_geometric_series(self, ltv, impact, v0):
        spec = CollateralSpec(ltv=ltv, impact=impact, initial_value=v0)
        _, outcome = collateral_loop(spec, max_iter=100_000)
        assert outcome.kind == "Converged"
        assert outcome.limit_value == pytest.approx(v0 / (1 - impact * ltv), rel=1e-9)


def lottery_ruin_oracle(balance: float, stake: float, turn: int, steps: int) -> float:
    # Exhaustive outcome tree for the fair +-stake lottery with ruin checked
    # at the start of each turn (cannot cover the stake = ruined).
    if balance < stake:
        return 1.0
    if turn > steps:
        return 0.0
    return 0.5 * lottery_ruin_oracle(balance - stake, stake, turn + 1, steps) + 0.5 * (
        lottery_ruin_oracle(balance + stake, stake, turn + 1, steps)
    )


def lattice_ruin_probability(
    balance: int, stake: int, win: int, loss_prob: float, horizon: int
) -> float:
    """Exact P(ruin by step ``horizon``) of a lone thrill seeker that holds no
    collectibles and can afford nothing but the lottery: a lattice walk down
    by the stake with probability ``loss_prob`` and up by the win otherwise,
    ruined at the first turn that starts below the stake (gambler's ruin;
    Feller, An Introduction to Probability Theory, vol. 1, ch. XIV). A
    finite-horizon dynamic program over the balance."""
    alive = {balance: 1.0}
    ruined = 0.0
    for _ in range(horizon):
        after: dict[int, float] = {}
        for held, mass in alive.items():
            if held < stake:
                ruined += mass
                continue
            after[held - stake] = after.get(held - stake, 0.0) + loss_prob * mass
            after[held + win] = after.get(held + win, 0.0) + (1.0 - loss_prob) * mass
        alive = after
    return ruined


# (balance, stake, win, loss probability, horizon): loss probabilities near
# 0 and near 1, balances below the stake, and baseline agent 5.
RUIN_GRID = [
    (25, 1, 1, 0.52, 200),
    (0, 1, 1, 0.5, 10),
    (2, 3, 1, 0.3, 10),
    (1, 1, 1, 0.02, 30),
    (3, 1, 2, 0.05, 40),
    (3, 1, 1, 0.98, 20),
    (10, 2, 1, 0.97, 30),
    (5, 1, 1, 0.5, 30),
    (4, 2, 3, 0.6, 40),
    (6, 3, 2, 0.55, 25),
    (2, 1, 3, 0.7, 50),
    (8, 1, 1, 0.6, 60),
    (12, 4, 5, 0.5, 40),
    (7, 2, 2, 0.45, 50),
    (20, 5, 5, 0.65, 40),
    (9, 3, 1, 0.8, 30),
]
# Each case's interval covers with probability about 0.95, so 9 or fewer
# of 16 covered has probability about 6e-6 (binomial).
RUIN_GRID_COVERED = 10
RUIN_GRID_TRIALS = 200


class TestRuinProbability:
    def ruin_config(self, market_balance: float, steps: int = 5) -> SimConfig:
        return SimConfig(
            rules=base_rules(),
            agents=(AgentSpec(id=1, strategy="thrill_seeker", market_balance=market_balance),),
            steps=steps,
            seed=1234,
            board=PriceBoard(activity_price=0.5, market_price=2.0, floor_price=1.0),
            lottery=LotterySpec(loss_prob=0.5, stake=1.0, win_market_tokens=1.0),
        )

    def test_destitute_agent_is_ruined_immediately(self):
        config = SimConfig(
            rules=base_rules(),
            agents=(AgentSpec(id=1, strategy="passive"),),
            steps=3,
            board=PriceBoard(),
            lottery=LotterySpec(loss_prob=0.5, stake=1.0, win_market_tokens=1.0),
        )
        estimate = ruin_probability(config, 1, trials=20)
        assert estimate.probability == 1.0
        assert estimate.stderr == 0.0

    def test_a_token_value_that_overflows_is_read_as_inf(self):
        # Growth maximizers value their tokens on every turn; at 1e308 each,
        # two or more tokens overflow their fsum. ruin_probability takes no
        # snapshot, so nothing refuses the run.
        data = json.loads(BASELINE.read_text())
        data["run"]["board"]["genesis_price"] = 1e308
        config = replace(parse_scenario(data), steps=5)
        assert GameSimulation(config).agent_wealth(6) == math.inf
        estimate = ruin_probability(config, 5, 2)
        assert isinstance(estimate, simulation.RuinEstimate)
        assert estimate.trials == 2

    def test_a_dropped_run_is_freed_by_reference_count(self):
        # ruin_probability drops one run per trial; a run that held a
        # reference cycle would wait for the cycle collector.
        sim = GameSimulation(replace(parse_scenario(json.loads(BASELINE.read_text())), steps=5))
        for step in range(1, 6):
            sim.step(step)
        ref = weakref.ref(sim)
        gc.disable()
        try:
            del sim
            assert ref() is None
        finally:
            gc.enable()

    def test_renders_no_event_line(self, monkeypatch):
        # Every action of the baseline runs in 20 steps; the events are
        # dropped, so no payload is rendered. The same renderers serve a run
        # whose lines are asked for.
        rendered = Counter()
        for action, render in simulation.PAYLOADS.items():

            def counting(*args, action=action, render=render):
                rendered[action] += 1
                return render(*args)

            monkeypatch.setitem(simulation.PAYLOADS, action, counting)
        config = replace(parse_scenario(json.loads(BASELINE.read_text())), steps=20)
        ruin_probability(config, 5, 2)
        assert rendered == {}
        for event in run_simulation(config).events:
            event.line()
        assert set(rendered) == set(simulation.PAYLOADS)

    def test_passive_agent_with_funds_never_ruined(self):
        config = SimConfig(
            rules=base_rules(),
            agents=(AgentSpec(id=1, strategy="passive", market_balance=5.0),),
            steps=10,
            board=PriceBoard(),
            lottery=LotterySpec(loss_prob=0.5, stake=1.0, win_market_tokens=1.0),
        )
        estimate = ruin_probability(config, 1, trials=20)
        assert estimate.probability == 0.0

    def test_fair_lottery_matches_outcome_tree(self):
        config = self.ruin_config(market_balance=2.0, steps=5)
        exact = lottery_ruin_oracle(2.0, 1.0, 1, 5)
        assert exact == 0.375
        estimate = ruin_probability(config, 1, trials=2000)
        assert abs(estimate.probability - exact) <= 3 * max(estimate.stderr, 1e-6)

    @pytest.mark.parametrize("seed", [3, 41, 2026])
    def test_matches_count_over_full_runs(self, seed):
        # Reference: full runs, snapshots and all, with the documented sub-seeds.
        config = SimConfig(
            rules=base_rules(),
            agents=(
                AgentSpec(id=1, strategy="thrill_seeker", market_balance=2.0),
                AgentSpec(id=2, strategy="thrill_seeker", market_balance=3.0),
            ),
            steps=6,
            seed=seed,
            board=PriceBoard(activity_price=0.5, market_price=2.0, floor_price=1.0),
            lottery=LotterySpec(loss_prob=0.5, stake=1.0, win_market_tokens=1.0),
        )
        trials = 30
        ruined_at = [
            run_simulation(replace(config, seed=derive_subseed(seed, t))).ruined_at
            for t in range(trials)
        ]
        for agent in (1, 2):
            ruined = sum(1 for r in ruined_at if r[agent] is not None)
            assert 0 < ruined < trials
            estimate = ruin_probability(config, agent, trials=trials)
            assert estimate.probability == ruined / trials
            assert estimate.trials == trials

    def test_unknown_agent_rejected(self):
        with pytest.raises(ValueError, match="no agent"):
            ruin_probability(self.ruin_config(2.0), agent=9, trials=5)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="^trials must be >= 1"):
            ruin_probability(self.ruin_config(2.0), agent=1, trials=0)

    @pytest.mark.parametrize("market_balance, ruined", [(5.0, 0), (0.0, 8)])
    def test_wilson_interval_stays_wide_at_no_or_every_ruin(self, market_balance, ruined):
        config = SimConfig(
            rules=base_rules(),
            agents=(AgentSpec(id=1, strategy="passive", market_balance=market_balance),),
            steps=3,
            board=PriceBoard(),
            lottery=LotterySpec(loss_prob=0.5, stake=1.0, win_market_tokens=1.0),
        )
        estimate = ruin_probability(config, 1, trials=8)
        assert estimate.probability == ruined / 8
        assert estimate.stderr == 0.0
        # At 0 of n the Wilson upper bound is z^2 / (n + z^2); n of n mirrors it.
        width = Z_95**2 / (8 + Z_95**2)
        assert width == pytest.approx(0.3244, abs=1e-4)
        if ruined == 0:
            assert (estimate.low, estimate.high) == (0.0, pytest.approx(width, rel=1e-12))
        else:
            assert (estimate.low, estimate.high) == (pytest.approx(1 - width, rel=1e-12), 1.0)

    def test_dynamic_program_gives_baseline_agent_5_ruin(self):
        # Balance 25, stake 1, win 1, loss probability 0.52, 200 steps.
        assert lattice_ruin_probability(25, 1, 1, 0.52, 200) == pytest.approx(0.18655, abs=5e-6)

    def test_wilson_interval_covers_the_exact_ruin_probability(self):
        misses = []
        excess = variance = 0.0
        for seed, case in enumerate(RUIN_GRID, start=7001):
            balance, stake, win, loss_prob, horizon = case
            config = SimConfig(
                rules=base_rules(),
                agents=(AgentSpec(id=1, strategy="thrill_seeker", market_balance=float(balance)),),
                steps=horizon,
                seed=seed,
                lottery=LotterySpec(
                    loss_prob=loss_prob, stake=float(stake), win_market_tokens=float(win)
                ),
            )
            exact = lattice_ruin_probability(*case)
            estimate = ruin_probability(config, 1, trials=RUIN_GRID_TRIALS)
            if balance < stake:
                assert exact == estimate.probability == 1.0
            if not estimate.low <= exact <= estimate.high:
                misses.append((case, exact, estimate))
            excess += RUIN_GRID_TRIALS * (estimate.probability - exact)
            variance += RUIN_GRID_TRIALS * exact * (1.0 - exact)
        assert len(RUIN_GRID) - len(misses) >= RUIN_GRID_COVERED, misses
        # A ruin rule off by one turn or one unit moves most cases the same
        # way, which the pooled ruin count shows: |z| >= 5 has probability
        # about 6e-7 (normal approximation).
        assert abs(excess) / math.sqrt(variance) < 5.0

    @pytest.mark.parametrize(
        "successes, trials, name",
        [(0, 0, "trials"), (0, -1, "trials"), (5, 3, "successes"), (-1, 3, "successes")],
    )
    def test_wilson_interval_refuses_impossible_counts(self, successes, trials, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            wilson_interval(successes, trials)


class TestSubSeeds:
    def test_deterministic_and_distinct(self):
        seeds = [derive_subseed(42, t) for t in range(100)]
        assert seeds == [derive_subseed(42, t) for t in range(100)]
        assert len(set(seeds)) == 100
        assert all(0 <= s < 2**64 for s in seeds)

    def test_master_seed_changes_streams(self):
        assert derive_subseed(1, 0) != derive_subseed(2, 0)


class TestConfigIsAValue:
    @pytest.mark.parametrize("name", [f.name for f in fields(PriceBoard)])
    def test_a_board_field_cannot_be_assigned(self, name):
        board = PriceBoard()
        with pytest.raises(FrozenInstanceError):
            setattr(board, name, 2.0)

    def test_a_run_leaves_its_config_unchanged(self):
        # The floor drifts on every step of this case, so the run's floor
        # ends away from the board's.
        edit, seed, steps = next(c[1:4] for c in CASES if c[0] == "drifting-floor-3-200")
        config = baseline_config(edit, seed, steps)
        before = copy.deepcopy(config)
        sim = GameSimulation(config)
        for _ in sim.stream():
            pass
        assert config == before
        assert sim.floor != config.board.floor_price

    def test_a_callers_lists_cannot_change_a_checked_config(self):
        # A caller may pass lists; the config keeps tuples, so neither a
        # second agent with a taken id nor a negative premium gets past the
        # checks afterwards, and the config hashes like any other value.
        agents = [AgentSpec(id=1)]
        premiums = [0.0] * 6
        config = SimConfig(rules=GameRules(), agents=agents, steps=1, trait_premiums=premiums)
        with pytest.raises(AttributeError):
            config.agents.append(AgentSpec(id=1))
        with pytest.raises(TypeError):
            config.trait_premiums[0] = -5.0
        agents.append(AgentSpec(id=2))
        premiums[0] = -5.0
        assert config.agents == (AgentSpec(id=1),)
        assert config.trait_premiums == (0.0,) * 6
        twin = replace(config, agents=(AgentSpec(id=1),), trait_premiums=(0.0,) * 6)
        assert config == twin
        assert hash(config) == hash(twin)


class TestConfigValidation:
    def test_rejects_treasury_agent_id(self):
        with pytest.raises(ValueError, match="treasury"):
            AgentSpec(id=0)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique"):
            SimConfig(rules=base_rules(), agents=(AgentSpec(id=1), AgentSpec(id=1)), steps=1)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError, match="64"):
            SimConfig(rules=base_rules(), agents=(AgentSpec(id=1),), steps=1, seed=2**64)

    def test_rejects_genesis_below_floor(self):
        with pytest.raises(ValueError, match="floor"):
            SimConfig(
                rules=base_rules(),
                agents=(AgentSpec(id=1),),
                steps=1,
                board=PriceBoard(floor_price=2.0, genesis_price=1.0),
            )

    @pytest.mark.parametrize("prices", [{0: 5.0}, {7: 5.0}], ids=["minted-id", "unminted-id"])
    def test_rejects_a_price_table_genesis_would_overwrite(self, prices):
        # Genesis prices every collectible and the run owns its price table,
        # so a board has no field for one.
        with pytest.raises(TypeError, match="collectible_prices"):
            PriceBoard(collectible_prices=prices)

    def test_fixed_mix_requires_mix(self):
        with pytest.raises(ValueError, match="StrategyMix"):
            AgentSpec(id=1, strategy="fixed_mix")
