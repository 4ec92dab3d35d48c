import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nftgamesim.analytics import (
    ArbitrageKind,
    classify_breeding_arbitrage,
    iterate_forward_price,
    lattice_value,
    max_population,
)
from nftgamesim.breeding import (
    ExhaustedBreeder,
    GameRules,
    ImmatureParent,
    InsufficientBalance,
    RestrictionViolated,
    breed,
    can_pair,
    check_pairing,
    forward_price_step,
)
from nftgamesim.economy import Collectible, Holdings, PriceBoard


def make_rules(**kwargs) -> GameRules:
    kwargs.setdefault("breed_arity", 2)
    kwargs.setdefault("breed_limit", 7)
    kwargs.setdefault("trait_count", 4)
    kwargs.setdefault("trait_alphabet", 5)
    return GameRules(**kwargs)


def genesis_pair(rules: GameRules, traits_a=(0, 1, 2, 3), traits_b=(4, 3, 2, 1)):
    pop = {
        0: Collectible(0, tuple(traits_a), None, 0, -rules.maturity_delay),
        1: Collectible(1, tuple(traits_b), None, 0, -rules.maturity_delay),
    }
    owner = Holdings(owner=1, collectibles=dict(pop), activity_balance=100.0, market_balance=100.0)
    board = PriceBoard(collectible_prices={0: 2.0, 1: 2.0}, floor_price=1.0)
    return pop, owner, board


def reference_pairing_error(parents: list[Collectible]) -> str | None:
    """The pairing rules as first written: the message check_pairing raises
    for the first pair, in list order, that breaks a rule, or None."""
    for i, a in enumerate(parents):
        for b in parents[i + 1 :]:
            if a.id == b.id:
                return f"collectible {a.id} listed twice as parent"
            if (a.parents is not None and b.id in a.parents) or (
                b.parents is not None and a.id in b.parents
            ):
                return f"collectibles {a.id} and {b.id} are parent and child"
            if a.parents is not None and b.parents is not None and set(a.parents) & set(b.parents):
                return f"collectibles {a.id} and {b.id} are siblings"
    return None


@st.composite
def lineages(draw) -> list[Collectible]:
    """A chosen parent list from a random lineage. Most tokens have
    parents, drawn from the first few tokens only, and half the lists may
    repeat a token, so siblings, parent-child pairs and repeated ids are
    all common."""
    size = draw(st.integers(1, 12))
    founders = draw(st.integers(1, 4))
    population = []
    for tid in range(size):
        parents = None
        if tid and draw(st.integers(0, 3)):
            parent_ids = st.integers(0, min(tid, founders) - 1)
            parents = tuple(draw(st.lists(parent_ids, min_size=1, max_size=3, unique=True)))
        population.append(Collectible(tid, (0,), parents))
    unique_by = (lambda c: c.id) if draw(st.booleans()) else None
    return draw(st.lists(st.sampled_from(population), min_size=1, max_size=4, unique_by=unique_by))


class TestPairingRule:
    @settings(max_examples=300)
    @given(parents=lineages())
    def test_check_pairing_raises_exactly_when_a_pair_fails_can_pair(self, parents):
        expected = reference_pairing_error(parents)
        pairs = [(a, b) for i, a in enumerate(parents) for b in parents[i + 1 :]]
        assert all(can_pair(a, b) for a, b in pairs) == (expected is None)
        for a, b in pairs:
            assert can_pair(a, b) == (reference_pairing_error([a, b]) is None)
        if expected is None:
            check_pairing(parents)
        else:
            with pytest.raises(RestrictionViolated) as exc:
                check_pairing(parents)
            assert str(exc.value) == expected


class TestBreed:
    def test_child_links_parents_and_debits_owner(self):
        rules = make_rules(activity_cost_schedule=[3, 0, 0, 0, 0, 0, 0],
                           market_cost_schedule=[1, 0, 0, 0, 0, 0, 0])
        pop, owner, board = genesis_pair(rules)
        child, cost = breed([0, 1], owner, pop, rules, board, random.Random(1), current_step=0)
        assert child.parents == (0, 1)
        assert child.breed_count == 0
        assert child.birth_step == 1
        assert pop[0].breed_count == 1 and pop[1].breed_count == 1
        assert owner.activity_balance == 97.0 and owner.market_balance == 99.0
        assert cost.activity_amount == 3.0 and cost.market_amount == 1.0
        assert cost.numeraire_total == 3.0 * board.activity_price + 1.0 * board.market_price
        assert child.id in owner.collectibles and child.id in pop

    @given(
        traits_a=st.lists(st.integers(0, 4), min_size=4, max_size=4),
        traits_b=st.lists(st.integers(0, 4), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zero_mutation_forces_inheritance(self, traits_a, traits_b, seed):
        rules = make_rules(mutation_prob=0.0)
        pop, owner, board = genesis_pair(rules, traits_a, traits_b)
        child, _ = breed([0, 1], owner, pop, rules, board, random.Random(seed), current_step=0)
        for i, trait in enumerate(child.traits):
            assert trait in (traits_a[i], traits_b[i])

    @given(seed=st.integers(0, 2**32 - 1))
    def test_full_mutation_draws_from_alphabet(self, seed):
        rules = make_rules(mutation_prob=1.0)
        pop, owner, board = genesis_pair(rules)
        child, _ = breed([0, 1], owner, pop, rules, board, random.Random(seed), current_step=0)
        assert all(0 <= t < rules.trait_alphabet for t in child.traits)

    def test_exhausted_breeder_at_limit(self):
        rules = make_rules(breed_limit=7)
        pop, owner, board = genesis_pair(rules)
        pop[0].breed_count = 7
        with pytest.raises(ExhaustedBreeder):
            breed([0, 1], owner, pop, rules, board, random.Random(0), current_step=0)

    def test_sibling_parents_rejected(self):
        rules = make_rules()
        pop, owner, board = genesis_pair(rules)
        rng = random.Random(0)
        a, _ = breed([0, 1], owner, pop, rules, board, rng, current_step=0)
        b, _ = breed([0, 1], owner, pop, rules, board, rng, current_step=0)
        with pytest.raises(RestrictionViolated, match="sibling"):
            breed([a.id, b.id], owner, pop, rules, board, rng, current_step=5)

    def test_parent_child_pair_rejected(self):
        rules = make_rules()
        pop, owner, board = genesis_pair(rules)
        rng = random.Random(0)
        child, _ = breed([0, 1], owner, pop, rules, board, rng, current_step=0)
        with pytest.raises(RestrictionViolated, match="parent and child"):
            breed([0, child.id], owner, pop, rules, board, rng, current_step=5)

    def test_duplicate_parent_rejected(self):
        rules = make_rules()
        pop, owner, board = genesis_pair(rules)
        with pytest.raises(RestrictionViolated, match="twice"):
            breed([0, 0], owner, pop, rules, board, random.Random(0), current_step=0)

    def test_half_siblings_rejected(self):
        # Sharing a single parent is already a sibling relationship.
        rules = make_rules()
        pop, owner, board = genesis_pair(rules)
        pop[2] = Collectible(2, (1, 1, 1, 1), None, 0, -1)
        pop[3] = Collectible(3, (2, 2, 2, 2), None, 0, -1)
        board.collectible_prices.update({2: 2.0, 3: 2.0})
        owner.collectibles.update({2: pop[2], 3: pop[3]})
        rng = random.Random(0)
        a, _ = breed([0, 1], owner, pop, rules, board, rng, current_step=0)
        b, _ = breed([0, 2], owner, pop, rules, board, rng, current_step=0)
        with pytest.raises(RestrictionViolated, match="sibling"):
            breed([a.id, b.id], owner, pop, rules, board, rng, current_step=5)

    def test_immature_parent_rejected(self):
        rules = make_rules(maturity_delay=2)
        pop, owner, board = genesis_pair(rules)
        pop[1].birth_step = 0
        with pytest.raises(ImmatureParent):
            breed([0, 1], owner, pop, rules, board, random.Random(0), current_step=1)

    def test_insufficient_balance(self):
        rules = make_rules(activity_cost_schedule=[500, 0, 0, 0, 0, 0, 0])
        pop, owner, board = genesis_pair(rules)
        with pytest.raises(InsufficientBalance):
            breed([0, 1], owner, pop, rules, board, random.Random(0), current_step=0)

    def test_not_owned_rejected(self):
        rules = make_rules()
        pop, owner, board = genesis_pair(rules)
        del owner.collectibles[1]
        with pytest.raises(RestrictionViolated, match="does not hold"):
            breed([0, 1], owner, pop, rules, board, random.Random(0), current_step=0)

    def test_cost_index_follows_lead_parent(self):
        sched = [1, 2, 4, 8, 16, 32, 64]
        rules = make_rules(activity_cost_schedule=sched)
        pop, owner, board = genesis_pair(rules)
        rng = random.Random(0)
        start = owner.activity_balance
        breed([0, 1], owner, pop, rules, board, rng, current_step=0)
        assert start - owner.activity_balance == 1.0
        before = owner.activity_balance
        breed([0, 1], owner, pop, rules, board, rng, current_step=0)
        assert before - owner.activity_balance == 2.0

    def test_lineage_is_acyclic_and_ages_increase(self):
        rules = make_rules(breed_limit=20)
        pop, owner, board = genesis_pair(rules)
        pop[2] = Collectible(2, (1, 0, 1, 0), None, 0, -1)
        pop[3] = Collectible(3, (0, 2, 0, 2), None, 0, -1)
        board.collectible_prices.update({2: 2.0, 3: 2.0})
        owner.collectibles.update({2: pop[2], 3: pop[3]})
        rng = random.Random(7)
        for step in range(6):
            pairs = [
                (x, y) for x in sorted(owner.collectibles) for y in sorted(owner.collectibles) if x < y
            ]
            for x, y in pairs:
                try:
                    child, _ = breed([x, y], owner, pop, rules, board, rng, current_step=step)
                except (RestrictionViolated, ImmatureParent):
                    continue
                board.collectible_prices[child.id] = board.floor_price
                break
        bred = [c for c in pop.values() if c.parents is not None]
        assert bred, "expected at least one successful breeding"
        for c in bred:
            assert all(c.birth_step > pop[p].birth_step for p in c.parents)


def population_bound_oracle(initial: int, rules: GameRules, horizon: int) -> list[int]:
    # Individual-level greedy pairing: oldest eligible first, one charge per
    # breeding joined, newborns usable after the maturity delay.
    herd = [{"birth": -rules.maturity_delay, "used": 0} for _ in range(initial)]
    counts = [initial]
    for t in range(horizon):
        eligible = [
            c
            for c in herd
            if t - c["birth"] >= rules.maturity_delay and c["used"] < rules.breed_limit
        ]
        births = len(eligible) // rules.breed_arity
        for c in eligible[: births * rules.breed_arity]:
            c["used"] += 1
        herd.extend({"birth": t + 1, "used": 0} for _ in range(births))
        counts.append(counts[-1] + births)
    return counts


class TestMaxPopulation:
    def test_fibonacci_for_arity_one(self):
        # Binet closed form as the independent check.
        rules = make_rules(breed_arity=1, breed_limit=25)
        got = max_population(1, rules, 19)
        phi = (1 + math.sqrt(5)) / 2
        fib = [round(phi**n / math.sqrt(5)) for n in range(2, 22)]
        assert got == fib

    def test_pair_breeding_sequence(self):
        rules = make_rules(breed_arity=2, breed_limit=20)
        assert max_population(2, rules, 6) == [2, 3, 4, 5, 7, 9, 12]

    def test_matches_oracle_for_pairs(self):
        rules = make_rules(breed_arity=2, breed_limit=20)
        assert max_population(2, rules, 12) == population_bound_oracle(2, rules, 12)

    def test_horizon_zero(self):
        assert max_population(5, make_rules(), 0) == [5]

    def test_below_arity_is_constant(self):
        rules = make_rules(breed_arity=3)
        assert max_population(2, rules, 5) == [2] * 6

    def test_breed_limit_throttles_growth(self):
        rules = make_rules(breed_arity=1, breed_limit=1)
        got = max_population(1, rules, 6)
        assert got == population_bound_oracle(1, rules, 6)
        assert got[-1] < max_population(1, make_rules(breed_arity=1, breed_limit=10), 6)[-1]

    @settings(max_examples=60)
    @given(
        initial=st.integers(1, 6),
        arity=st.integers(1, 4),
        limit=st.integers(1, 8),
        maturity=st.integers(0, 3),
        horizon=st.integers(0, 10),
    )
    def test_matches_individual_oracle(self, initial, arity, limit, maturity, horizon):
        rules = make_rules(breed_arity=arity, breed_limit=limit, maturity_delay=maturity)
        assert max_population(initial, rules, horizon) == population_bound_oracle(
            initial, rules, horizon
        )


class TestForwardPrice:
    def test_hand_step(self):
        assert forward_price_step(3.0, 2, 0.6) == pytest.approx(2.2, abs=1e-15)

    def test_cost_is_fixed_point(self):
        assert forward_price_step(0.6, 2, 0.6) == pytest.approx(0.6, abs=1e-15)
        assert forward_price_step(5.0, 3, 5.0) == pytest.approx(5.0, abs=1e-15)

    def test_zero_cost_decays_geometrically(self):
        path = iterate_forward_price(9.0, 2, 0.0, 12)
        for t, p in enumerate(path):
            assert p == pytest.approx((2 / 3) ** t * 9.0, rel=1e-12)

    @given(
        p0=st.floats(min_value=0.01, max_value=1e3),
        d=st.integers(1, 10),
        cost=st.floats(min_value=0.0, max_value=1e3),
    )
    def test_contraction_toward_cost(self, p0, d, cost):
        factor = d / (d + 1)
        p1 = forward_price_step(p0, d, cost)
        assert abs(p1 - cost) <= factor * abs(p0 - cost) + 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            forward_price_step(0.0, 2, 0.6)
        with pytest.raises(ValueError):
            forward_price_step(1.0, 0, 0.6)
        with pytest.raises(ValueError):
            forward_price_step(1.0, 2, -0.1)


class TestArbitrageClassifier:
    def test_balanced_is_no_arbitrage(self):
        verdict = classify_breeding_arbitrage(100.0, 0.05, 5.0)
        assert verdict.kind is ArbitrageKind.NO_ARBITRAGE

    def test_long_side(self):
        verdict = classify_breeding_arbitrage(100.0, 0.10, 5.0)
        assert verdict.kind is ArbitrageKind.LONG_BREEDING
        assert verdict.magnitude == pytest.approx(5.0, rel=1e-12)

    def test_short_side(self):
        verdict = classify_breeding_arbitrage(100.0, 0.01, 5.0)
        assert verdict.kind is ArbitrageKind.SHORT_BREEDING
        assert verdict.magnitude == pytest.approx(-4.0, rel=1e-12)

    @given(
        capital=st.floats(min_value=0.1, max_value=1e4),
        growth=st.floats(min_value=1e-4, max_value=1.0),
        cost=st.floats(min_value=0.0, max_value=1e4),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    @example(capital=0.99999, growth=1e-4, cost=1e-4, scale=0.5)
    def test_scale_invariance(self, capital, growth, cost, scale):
        base = classify_breeding_arbitrage(capital, growth, cost)
        scaled = classify_breeding_arbitrage(capital * scale, growth, cost * scale)
        assert base.kind is scaled.kind

    def test_tolerance_has_no_absolute_floor(self):
        # A*C - B = -1e-9 is a shortfall of about 1e-5 relative to B = 1e-4;
        # an absolute floor of 1e-9 would call it balanced at half the scale.
        for scale in (1.0, 0.5):
            verdict = classify_breeding_arbitrage(0.99999 * scale, 1e-4, 1e-4 * scale)
            assert verdict.kind is ArbitrageKind.SHORT_BREEDING
            assert verdict.magnitude == pytest.approx(-1e-9 * scale, rel=1e-6)

    def test_verdict_sign_matches_magnitude(self):
        for a, c, b in [(10, 0.5, 1), (10, 0.01, 1), (2, 0.5, 1)]:
            v = classify_breeding_arbitrage(a, c, b)
            if v.kind is ArbitrageKind.LONG_BREEDING:
                assert v.magnitude > 0
            elif v.kind is ArbitrageKind.SHORT_BREEDING:
                assert v.magnitude < 0


class TestLatticeValue:
    def test_spent_collectible_is_floor(self):
        assert lattice_value(0, 1.0, 2.0, [1.5, 1.5]) == 1.0

    def test_hand_recursion(self):
        assert lattice_value(2, 1.0, 2.0, [1.5, 1.5]) == pytest.approx(2.0, abs=1e-15)

    def test_unprofitable_charges_add_nothing(self):
        assert lattice_value(3, 1.0, 2.0, [2.0, 5.0, 3.0]) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lattice_value(-1, 1.0, 2.0, [1.0])
        with pytest.raises(ValueError):
            lattice_value(3, 1.0, 2.0, [1.0, 1.0])

    @given(
        floor=st.floats(min_value=0.01, max_value=10),
        child=st.floats(min_value=0, max_value=10),
        costs=st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=8),
    )
    def test_monotone_in_remaining_charges(self, floor, child, costs):
        values = [lattice_value(k, floor, child, costs) for k in range(len(costs) + 1)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @given(
        floor=st.floats(min_value=0.01, max_value=10),
        child=st.floats(min_value=0, max_value=10),
        bump=st.floats(min_value=0, max_value=5),
        costs=st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=8),
    )
    def test_monotone_in_child_value(self, floor, child, bump, costs):
        k = len(costs)
        assert lattice_value(k, floor, child + bump, costs) >= lattice_value(k, floor, child, costs)


class NoScanPopulation(dict):
    """A population that refuses to be iterated: breed must not scan it."""

    def __iter__(self):
        raise AssertionError("breed iterated the population")

    def keys(self):
        raise AssertionError("breed listed the population's keys")


class TestChildId:
    def test_breed_never_scans_the_population(self):
        rules = make_rules()
        pop, owner, board = genesis_pair(rules)
        pop[7] = Collectible(7, (0, 0, 0, 0), None, 0, -1)
        pop = NoScanPopulation(pop)
        child, _ = breed([0, 1], owner, pop, rules, board, random.Random(0), current_step=0)
        assert child.id == 8
        assert dict.__getitem__(pop, 8) is child
        second, _ = breed([1, 0], owner, pop, rules, board, random.Random(0), current_step=0)
        assert second.id == 9

    def test_taken_child_id_is_refused_before_any_change(self):
        # Ids added out of order: the last key is 1, and 2 is already minted.
        rules = make_rules(activity_cost_schedule=[3, 0, 0, 0, 0, 0, 0])
        pop, owner, board = genesis_pair(rules)
        pop = {2: Collectible(2, (0, 0, 0, 0), None, 0, -1), **pop}
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="child id 2 is already minted"):
            breed([0, 1], owner, pop, rules, board, rng, current_step=0)
        assert list(pop) == [2, 0, 1]
        assert pop[0].breed_count == 0 and pop[1].breed_count == 0
        assert owner.activity_balance == 100.0 and list(owner.collectibles) == [0, 1]
        assert rng.getstate() == state
