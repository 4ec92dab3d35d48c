import itertools
import json
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nftgamesim.activities import AdventureSpec, BattleSpec, LotterySpec, StrategyMix
from nftgamesim.breeding import (
    BreedCost,
    GameRules,
    RestrictionViolated,
    check_pairing,
    iterate_forward_price,
    max_population,
)
from nftgamesim.economy import Collectible, PriceBoard
from nftgamesim.simulation import (
    AgentSpec,
    CollateralSpec,
    GameSimulation,
    SimConfig,
    SimulationInvariantError,
    collateral_loop,
    derive_subseed,
    ruin_probability,
    run_simulation,
)


def serialize(events) -> list[str]:
    return [json.dumps(asdict(e), sort_keys=True) for e in events]


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
        random_a = [e for e in serialize(a.events) if '"rng_draws": 0' not in e]
        random_b = [e for e in serialize(b.events) if '"rng_draws": 0' not in e]
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
            board=PriceBoard(activity_price=0.5, market_price=2.0, floor_price=1.0),
            genesis_price=2.0,
            price_update="forward_drift",
        )
        cost = 2 * 0.5 + 0.25 * 2.0
        sim = GameSimulation(config)
        observed = [sim.board.collectible_prices[0]]
        for step in range(1, config.steps + 1):
            sim.step(step)
            observed.append(sim.board.collectible_prices[0])
        assert observed == iterate_forward_price(2.0, rules.breed_arity, cost, config.steps)

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
            net_activity += e.outputs.get("activity_minted", 0.0)
            net_activity -= e.outputs.get("activity_cost", 0.0)
            net_market += e.outputs.get("market_minted", 0.0)
            net_market -= e.outputs.get("market_burned", 0.0)
            net_market -= e.outputs.get("market_cost", 0.0)
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

    def test_double_ownership_caught_by_audit(self):
        config = mixed_config(steps=3)
        sim = GameSimulation(config)
        stolen = next(iter(sim.holdings[1].collectibles))
        sim.holdings[4].collectibles.add(stolen)
        with pytest.raises(SimulationInvariantError, match=f"collectible {stolen}"):
            sim._check_invariants(step=1)

    def test_event_draw_counts_cover_all_draws(self):
        config = mixed_config(steps=10)
        sim = GameSimulation(config)
        for step in range(1, config.steps + 1):
            sim.step(step)
        assert sum(e.rng_draws for e in sim.events) == sim.rng.draws


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
        child_id = breed_event.outputs["child"]
        traits = breed_event.outputs["traits"]
        expected = 1.0 + sum((0.0, 0.5, 1.0)[t] for t in traits)
        assert sim.board.collectible_prices[child_id] == expected

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


def reference_breeding_set(sim: GameSimulation, agent_id: int, step: int) -> list[int] | None:
    """The search as first written: pairing check first, then the cost."""
    eligible = sim._eligible_parents(agent_id, step)
    if len(eligible) < sim.rules.breed_arity:
        return None
    h = sim.holdings[agent_id]
    for combo in itertools.combinations(eligible, sim.rules.breed_arity):
        try:
            check_pairing(list(combo))
        except RestrictionViolated:
            continue
        cost = BreedCost.at_index(sim.rules, combo[0].breed_count, sim.board)
        if h.activity_balance < cost.activity_amount:
            continue
        if h.market_balance < cost.market_amount:
            continue
        return [c.id for c in combo]
    return None


AMOUNTS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 4.0])


class TestBreedingSearch:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
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
            tid for tid in range(size) if data.draw(st.booleans(), label=f"owns[{tid}]")
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

    def test_unknown_agent_rejected(self):
        with pytest.raises(ValueError, match="no agent"):
            ruin_probability(self.ruin_config(2.0), agent=9, trials=5)


class TestSubSeeds:
    def test_deterministic_and_distinct(self):
        seeds = [derive_subseed(42, t) for t in range(100)]
        assert seeds == [derive_subseed(42, t) for t in range(100)]
        assert len(set(seeds)) == 100
        assert all(0 <= s < 2**64 for s in seeds)

    def test_master_seed_changes_streams(self):
        assert derive_subseed(1, 0) != derive_subseed(2, 0)


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
                board=PriceBoard(floor_price=2.0),
                genesis_price=1.0,
            )

    def test_fixed_mix_requires_mix(self):
        with pytest.raises(ValueError, match="StrategyMix"):
            AgentSpec(id=1, strategy="fixed_mix")
