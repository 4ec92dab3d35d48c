import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nftgamesim.activities import (
    AdventureSpec,
    BattleSpec,
    FixedStep,
    GeometricRandom,
    LotterySpec,
    MinorityGameSpec,
    PoolCap,
    SponsorClass,
    StrategyMix,
    adventure_payout,
    battle_payout,
    classify_lottery,
    lottery_sharpe,
    minority_settle,
    minority_should_stop,
    total_earnings,
)
from nftgamesim.breeding import GameRules
from nftgamesim.economy import PriceBoard
from nftgamesim.simulation import (
    AgentSpec,
    CountingRng,
    GameSimulation,
    SimConfig,
    run_simulation,
)

BOARD = PriceBoard(activity_price=0.5, market_price=1.0)


class TestAdventure:
    def test_hand_value(self):
        spec = AdventureSpec(reward_multiplier=1.2, collectibles_required=1)
        assert adventure_payout([10.0], 5.0, spec) == pytest.approx(16.0, abs=1e-15)

    def test_identity_multiplier_and_empty_balance(self):
        spec = AdventureSpec(reward_multiplier=1.0, collectibles_required=2)
        assert adventure_payout([3.0, 4.0], 0.0, spec) == 7.0

    def test_two_collectibles(self):
        spec = AdventureSpec(reward_multiplier=1.5, collectibles_required=2)
        assert adventure_payout([3.0, 4.0], 2.0, spec) == pytest.approx(10.0, abs=1e-15)

    def test_wrong_collectible_count(self):
        spec = AdventureSpec(reward_multiplier=1.2, collectibles_required=2)
        with pytest.raises(ValueError, match="2 collectibles"):
            adventure_payout([10.0], 5.0, spec)

    def test_multiplier_below_one_rejected(self):
        with pytest.raises(ValueError):
            AdventureSpec(reward_multiplier=0.9)


class TestBattle:
    def test_hand_value(self):
        spec = BattleSpec(team_size=3, survival_fraction=0.8)
        assert battle_payout([1.0, 1.0, 1.0], 10.0, spec) == pytest.approx(11.0, abs=1e-15)

    def test_identity_fraction_preserves_value(self):
        spec = BattleSpec(team_size=2, survival_fraction=1.0)
        assert battle_payout([2.0, 3.0], 7.0, spec) == 12.0

    def test_zero_balance_leaves_team_value(self):
        spec = BattleSpec(team_size=3, survival_fraction=0.5)
        assert battle_payout([1.0, 2.0, 3.0], 0.0, spec) == 6.0

    def test_wrong_team_size(self):
        spec = BattleSpec(team_size=3, survival_fraction=0.8)
        with pytest.raises(ValueError, match="team of 3"):
            battle_payout([1.0], 10.0, spec)


def engine_balance_after(action: str, spec, deployed: int, before: float) -> float:
    """activity_balance after one engine step of a fixed_mix agent that
    plays ``action`` with ``deployed`` collectibles and ``before`` game tokens."""
    agent = AgentSpec(
        id=1,
        strategy="fixed_mix",
        mix=StrategyMix(**{action: 1}),
        collectibles=deployed,
        activity_balance=before,
    )
    sim = GameSimulation(SimConfig(rules=GameRules(), agents=(agent,), steps=1, **{action: spec}))
    sim.step(1)
    event = sim.events[-1]
    assert event.action == action
    return event.outputs["activity_balance"]


BALANCES = st.floats(min_value=0.0, max_value=1e12)


class TestEngineAgreement:
    """With no collectible value, the analytic payoff is exactly the balance
    the engine writes after the same activity."""

    @given(
        multiplier=st.floats(min_value=1.0, max_value=1e3),
        required=st.integers(min_value=1, max_value=4),
        before=BALANCES,
    )
    @settings(max_examples=60, deadline=None)
    def test_adventure(self, multiplier, required, before):
        spec = AdventureSpec(reward_multiplier=multiplier, collectibles_required=required)
        expected = adventure_payout([0.0] * required, before, spec)
        assert engine_balance_after("adventure", spec, required, before) == expected

    @given(
        fraction=st.floats(min_value=0.0, max_value=1e3),
        team=st.integers(min_value=2, max_value=5),
        before=BALANCES,
    )
    @settings(max_examples=60, deadline=None)
    def test_battle(self, fraction, team, before):
        spec = BattleSpec(team_size=team, survival_fraction=fraction)
        expected = battle_payout([0.0] * team, before, spec)
        assert engine_balance_after("battle", spec, team, before) == expected


class TestTotalEarnings:
    def test_empty_mix(self):
        assert total_earnings(StrategyMix(), 3.0, -1.0, 2.0) == 0.0

    def test_hand_value(self):
        mix = StrategyMix(breed=2, battle=1, adventure=1)
        assert total_earnings(mix, 3.0, -1.0, 2.0) == 7.0

    @given(
        counts=st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)),
        scale=st.integers(1, 9),
        values=st.tuples(
            st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100)
        ),
    )
    def test_linear_in_mix(self, counts, scale, values):
        x1, x2, x3 = counts
        a, b, g = values
        base = total_earnings(StrategyMix(x1, x2, x3), a, b, g)
        scaled = total_earnings(StrategyMix(x1 * scale, x2 * scale, x3 * scale), a, b, g)
        assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-9)


class TestLottery:
    def test_symmetric_coin_is_self_funding(self):
        spec = LotterySpec(loss_prob=0.5, stake=1.0, win_market_tokens=1.0)
        ev, kind = classify_lottery(spec, BOARD)
        assert ev == 0.0
        assert kind is SponsorClass.SELF_FUNDING

    def test_house_edge_is_sponsor_profit(self):
        spec = LotterySpec(loss_prob=0.9, stake=1.0, win_market_tokens=5.0)
        ev, kind = classify_lottery(spec, BOARD)
        assert ev == pytest.approx(-0.4, rel=1e-12)
        assert kind is SponsorClass.PROFITABLE

    def test_sure_win_needs_subsidy(self):
        spec = LotterySpec(loss_prob=0.0, stake=1.0, win_market_tokens=2.0)
        ev, kind = classify_lottery(spec, BOARD)
        assert ev == 2.0
        assert kind is SponsorClass.SUBSIDY_REQUIRED

    def test_prizes_valued_in_board_numeraire(self):
        # A loss burns 1 market token (2.0); a win mints 1 game token (0.5).
        board = PriceBoard(activity_price=0.5, market_price=2.0)
        spec = LotterySpec(loss_prob=0.5, stake=1.0, win_game_tokens=1.0)
        ev, _ = classify_lottery(spec, board)
        assert ev == pytest.approx(0.5 * -2.0 + 0.5 * 0.5, abs=1e-15)

    def test_sharpe_zero_for_fair_coin(self):
        spec = LotterySpec(loss_prob=0.5, stake=1.0, win_market_tokens=1.0)
        assert lottery_sharpe(spec, BOARD) == 0.0

    def test_sharpe_against_two_point_oracle(self):
        spec = LotterySpec(loss_prob=0.9, stake=1.0, win_market_tokens=5.0)
        # Independent two-point moments: ev then sqrt(E[(X - ev)^2]).
        ev = 0.9 * (-1.0) + 0.1 * 5.0
        sd = math.sqrt(0.9 * (-1.0 - ev) ** 2 + 0.1 * (5.0 - ev) ** 2)
        got = lottery_sharpe(spec, BOARD)
        assert got == pytest.approx(ev / sd, rel=1e-12)
        assert got < 0

    def test_sharpe_sign_matches_classifier(self):
        for p, win in [(0.1, 1.0), (0.5, 1.0), (0.9, 1.0), (0.3, 5.0)]:
            spec = LotterySpec(loss_prob=p, stake=1.0, win_market_tokens=win)
            ev, _ = classify_lottery(spec, BOARD)
            if ev != 0:
                assert math.copysign(1, lottery_sharpe(spec, BOARD)) == math.copysign(1, ev)

    @given(scale=st.floats(min_value=1.5, max_value=10))
    def test_scaling_the_win_keeps_the_sign(self, scale):
        base = LotterySpec(loss_prob=0.9, stake=1.0, win_market_tokens=5.0)
        bigger = LotterySpec(loss_prob=0.9, stake=1.0, win_market_tokens=5.0 * scale)
        s0, s1 = lottery_sharpe(base, BOARD), lottery_sharpe(bigger, BOARD)
        ev1, _ = classify_lottery(bigger, BOARD)
        if ev1 < 0:
            assert s0 < 0 and s1 < 0

    def test_zero_variance_rejected(self):
        spec = LotterySpec(loss_prob=1.0, stake=1.0, win_market_tokens=5.0)
        with pytest.raises(ValueError, match="variance"):
            lottery_sharpe(spec, BOARD)

    def test_ev_within_wilson_bound_of_engine_plays(self):
        """The classifier's EV against 4,000 engine plays of the baseline lottery.

        The Wilson 95% interval of the win count, mapped through the numeraire
        values of one lost and one won play as the engine settles them, must
        hold the EV (+0.040; valuing game tokens at the market price gave +0.44).
        """
        board = PriceBoard(activity_price=0.5, market_price=2.0)
        spec = LotterySpec(loss_prob=0.52, stake=1.0, win_market_tokens=1.0, win_game_tokens=0.5)
        seeker = AgentSpec(id=1, strategy="thrill_seeker", market_balance=1e6)
        config = SimConfig(
            rules=GameRules(), agents=(seeker,), steps=4000, seed=3, board=board, lottery=spec
        )
        result = run_simulation(config)
        plays = [e.outputs for e in result.events if e.action == "lottery"]
        n = len(plays)
        wins = sum(out["result"] == "win" for out in plays)
        assert n == 4000 and 0 < wins < n

        loss = next(-o["market_burned"] for o in plays if o["result"] == "loss") * 2.0
        win = next(
            o["activity_minted"] * 0.5 + o["market_minted"] * 2.0
            for o in plays
            if o["result"] == "win"
        )
        first, last = result.snapshots[0].agent_wealth[1], result.snapshots[-1].agent_wealth[1]
        assert (last - first) / n == pytest.approx(loss + wins / n * (win - loss), rel=1e-12)

        z = 1.959963984540054
        center = (wins + z * z / 2) / (n + z * z)
        half = z / (n + z * z) * math.sqrt(wins * (n - wins) / n + z * z / 4)
        low, high = (loss + q * (win - loss) for q in (center - half, center + half))
        ev, _ = classify_lottery(spec, board)
        assert low <= ev <= high


def stakes(values, prefix):
    return [(f"{prefix}{i}", v) for i, v in enumerate(values)]


class TestMinoritySettle:
    def test_base_rule_hand_case(self):
        payouts, organizer = minority_settle(
            stakes([1.0, 2.0], "w"), stakes([4.0], "l"), MinorityGameSpec()
        )
        assert payouts["w0"] == pytest.approx(7 / 3, rel=1e-12)
        assert payouts["w1"] == pytest.approx(14 / 3, rel=1e-12)
        assert payouts["l0"] == 0.0
        assert organizer == 0.0

    def test_base_rule_identity(self):
        # payout_i = x_i + (b/a) x_i when the full pot goes to the winners.
        payouts, _ = minority_settle(
            stakes([1.0, 2.0], "w"), stakes([4.0], "l"), MinorityGameSpec()
        )
        a, b = 3.0, 4.0
        assert payouts["w0"] == pytest.approx(1.0 + (b / a) * 1.0, rel=1e-12)
        assert payouts["w1"] == pytest.approx(2.0 + (b / a) * 2.0, rel=1e-12)

    def test_rake_and_subsidy(self):
        spec = MinorityGameSpec(rake_fraction=0.9, sponsor_subsidy=1.0)
        payouts, organizer = minority_settle(
            stakes([1.0, 2.0], "w"), stakes([4.0], "l"), spec
        )
        assert payouts["w0"] == pytest.approx(7.3 / 3, rel=1e-12)
        assert payouts["w1"] == pytest.approx(14.6 / 3, rel=1e-12)
        assert organizer == pytest.approx(-0.3, rel=1e-9)

    def test_tie_refunds_everyone(self):
        spec = MinorityGameSpec(rake_fraction=0.9, sponsor_subsidy=5.0)
        payouts, organizer = minority_settle(
            stakes([1.0, 2.0], "a"), stakes([3.0], "b"), spec
        )
        assert payouts == {"a0": 1.0, "a1": 2.0, "b0": 3.0}
        assert organizer == 0.0

    def test_winners_never_below_own_stake_at_full_rake(self):
        payouts, _ = minority_settle(
            stakes([0.5, 1.5, 1.0], "w"), stakes([2.0, 2.0], "l"), MinorityGameSpec()
        )
        for i, stake in enumerate([0.5, 1.5, 1.0]):
            assert payouts[f"w{i}"] >= stake

    @settings(max_examples=200)
    @given(
        side1=st.lists(st.floats(min_value=0.01, max_value=50), min_size=1, max_size=8),
        side2=st.lists(st.floats(min_value=0.01, max_value=50), min_size=1, max_size=8),
        rake=st.floats(min_value=0.01, max_value=1.0),
        subsidy=st.floats(min_value=0.0, max_value=20.0),
    )
    def test_conservation(self, side1, side2, rake, subsidy):
        spec = MinorityGameSpec(rake_fraction=rake, sponsor_subsidy=subsidy)
        payouts, organizer = minority_settle(stakes(side1, "a"), stakes(side2, "b"), spec)
        total = math.fsum(side1) + math.fsum(side2)
        assert math.fsum(payouts.values()) + organizer == pytest.approx(
            total, abs=1e-12 * max(1.0, total)
        )
        assert len(payouts) == len(side1) + len(side2)

    @given(
        side1=st.lists(st.floats(min_value=0.01, max_value=50), min_size=2, max_size=6),
        side2=st.lists(st.floats(min_value=0.01, max_value=50), min_size=1, max_size=6),
        seed=st.integers(0, 1000),
    )
    def test_permutation_invariance_within_side(self, side1, side2, seed):
        spec = MinorityGameSpec(rake_fraction=0.8, sponsor_subsidy=2.0)
        shuffled = stakes(side1, "a")
        random.Random(seed).shuffle(shuffled)
        base, org1 = minority_settle(stakes(side1, "a"), stakes(side2, "b"), spec)
        perm, org2 = minority_settle(shuffled, stakes(side2, "b"), spec)
        assert org1 == org2
        for name, value in base.items():
            assert perm[name] == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_external_outcome_can_award_the_larger_side(self):
        # Allocation by an external event: the boolean outcome replaces the
        # minority rule but keeps the payout arithmetic.
        spec = MinorityGameSpec()
        payouts, organizer = minority_settle(
            stakes([1.0, 2.0], "w"), stakes([4.0], "l"), spec, winner_override=2
        )
        assert payouts["l0"] == pytest.approx(7.0, rel=1e-12)
        assert payouts["w0"] == 0.0 and payouts["w1"] == 0.0
        assert organizer == 0.0

    def test_winner_override_settles_ties(self):
        payouts, _ = minority_settle(
            stakes([2.0], "a"), stakes([2.0], "b"), MinorityGameSpec(), winner_override=1
        )
        assert payouts["a0"] == pytest.approx(4.0, rel=1e-12)
        assert payouts["b0"] == 0.0

    def test_winner_override_validated(self):
        with pytest.raises(ValueError, match="side 1 or side 2"):
            minority_settle(
                stakes([1.0], "a"), stakes([2.0], "b"), MinorityGameSpec(), winner_override=3
            )

    def test_rejects_empty_side_and_bad_stakes(self):
        with pytest.raises(ValueError, match="both sides"):
            minority_settle([], stakes([1.0], "b"), MinorityGameSpec())
        with pytest.raises(ValueError, match="positive"):
            minority_settle(stakes([0.0], "a"), stakes([1.0], "b"), MinorityGameSpec())
        with pytest.raises(ValueError, match="once"):
            minority_settle([("p", 1.0)], [("p", 2.0)], MinorityGameSpec())


class TestStoppingRules:
    def test_fixed_step_boundary(self):
        rng = CountingRng(0)
        assert not minority_should_stop(FixedStep(5), 4, 0.0, rng)
        assert minority_should_stop(FixedStep(5), 5, 0.0, rng)
        assert rng.draws == 0

    def test_pool_cap_boundary_inclusive(self):
        rng = CountingRng(0)
        assert not minority_should_stop(PoolCap(10.0), 1, 9.99, rng)
        assert minority_should_stop(PoolCap(10.0), 1, 10.0, rng)

    def test_certain_geometric_stop(self):
        rng = CountingRng(0)
        assert all(minority_should_stop(GeometricRandom(1.0), s, 0.0, rng) for s in range(20))

    def test_impossible_geometric_stop(self):
        rng = CountingRng(0)
        assert not any(minority_should_stop(GeometricRandom(0.0), s, 0.0, rng) for s in range(20))

    def test_geometric_consumes_exactly_one_draw(self):
        rng = CountingRng(123)
        for expected in range(1, 6):
            minority_should_stop(GeometricRandom(0.5), expected, 0.0, rng)
            assert rng.draws == expected
