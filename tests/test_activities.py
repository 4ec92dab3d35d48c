import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nftgamesim.activities import (
    AdventureSpec,
    BattleSpec,
    LotterySpec,
    StrategyMix,
    lottery_deltas,
    scale_balance,
)
from nftgamesim.analytics import (
    MinorityGameSpec,
    SponsorClass,
    classify_lottery,
    lottery_sharpe,
    minority_settle,
)
from nftgamesim.breeding import GameRules
from nftgamesim.economy import PriceBoard
from nftgamesim.simulation import (
    AgentSpec,
    GameSimulation,
    SimConfig,
    run_simulation,
    wilson_interval,
)

BOARD = PriceBoard(activity_price=0.5, market_price=1.0)


def engine_turn(action: str, spec, held: int, before: float):
    """The simulation and its last event after one step of a fixed_mix agent
    that plays ``action`` holding ``held`` collectibles and ``before`` game tokens."""
    agent = AgentSpec(
        id=1,
        strategy="fixed_mix",
        mix=StrategyMix(**{action: 1}),
        collectibles=held,
        activity_balance=before,
    )
    sim = GameSimulation(SimConfig(rules=GameRules(), agents=(agent,), steps=1, **{action: spec}))
    sim.step(1)
    return sim, sim.events[-1]


class TestAdventure:
    def test_hand_value(self):
        assert scale_balance(1.2, 5.0) == pytest.approx((6.0, 1.0), abs=1e-15)

    def test_identity_multiplier_and_empty_balance(self):
        assert scale_balance(1.0, 7.0) == (7.0, 0.0)
        assert scale_balance(1.5, 0.0) == (0.0, 0.0)

    def test_two_collectibles(self):
        # The two oldest collectibles are deployed and kept; the balance is scaled.
        spec = AdventureSpec(reward_multiplier=1.5, collectibles_required=2)
        sim, event = engine_turn("adventure", spec, held=3, before=2.0)
        assert event.action == "adventure"
        assert event.as_dict()["inputs"] == {"collectibles": [0, 1], "activity_balance": 2.0}
        assert event.as_dict()["outputs"] == {"activity_balance": 3.0, "activity_minted": 1.0}
        assert list(sim.holdings[1].collectibles) == [0, 1, 2]

    def test_wrong_collectible_count(self):
        spec = AdventureSpec(reward_multiplier=1.2, collectibles_required=2)
        sim, event = engine_turn("adventure", spec, held=1, before=5.0)
        assert event.action == "pass"
        assert sim.holdings[1].activity_balance == 5.0

    def test_multiplier_below_one_rejected(self):
        with pytest.raises(ValueError):
            AdventureSpec(reward_multiplier=0.9)


class TestBattle:
    def test_hand_value(self):
        assert scale_balance(0.8, 10.0) == pytest.approx((8.0, -2.0), abs=1e-15)

    def test_identity_fraction_preserves_value(self):
        assert scale_balance(1.0, 7.0) == (7.0, 0.0)

    def test_zero_balance_leaves_team_value(self):
        spec = BattleSpec(team_size=3, survival_fraction=0.5)
        sim, event = engine_turn("battle", spec, held=3, before=0.0)
        assert event.action == "battle"
        assert event.as_dict()["outputs"] == {"activity_balance": 0.0, "activity_minted": 0.0}
        assert list(sim.holdings[1].collectibles) == [0, 1, 2]
        assert sim.agent_wealth(1) == 3 * sim.board.floor_price

    def test_wrong_team_size(self):
        spec = BattleSpec(team_size=3, survival_fraction=0.8)
        sim, event = engine_turn("battle", spec, held=2, before=10.0)
        assert event.action == "pass"
        assert sim.holdings[1].activity_balance == 10.0


BALANCES = st.floats(min_value=0.0, max_value=1e12)


class TestEngineAgreement:
    """The engine's settlement of each play, bit for bit, against arithmetic
    written out here rather than the settlement functions it calls."""

    @staticmethod
    def check_scaled(action: str, spec, deployed: int, multiplier: float, before: float):
        sim, event = engine_turn(action, spec, deployed, before)
        assert event.action == action
        after = multiplier * before
        assert event.as_dict()["outputs"] == {
            "activity_balance": after,
            "activity_minted": after - before,
        }
        assert sim.holdings[1].activity_balance == after
        assert sim.counters.activity_supply == before + (after - before)

    @given(
        multiplier=st.floats(min_value=1.0, max_value=1e3),
        required=st.integers(min_value=1, max_value=4),
        before=BALANCES,
    )
    @settings(max_examples=60, deadline=None)
    def test_adventure(self, multiplier, required, before):
        spec = AdventureSpec(reward_multiplier=multiplier, collectibles_required=required)
        self.check_scaled("adventure", spec, required, multiplier, before)

    @given(
        fraction=st.floats(min_value=0.0, max_value=1e3),
        team=st.integers(min_value=2, max_value=5),
        before=BALANCES,
    )
    @settings(max_examples=60, deadline=None)
    def test_battle(self, fraction, team, before):
        spec = BattleSpec(team_size=team, survival_fraction=fraction)
        self.check_scaled("battle", spec, team, fraction, before)

    @given(
        loss_prob=st.floats(min_value=0.0, max_value=1.0),
        stake=st.floats(min_value=1e-3, max_value=10.0),
        win_game=st.floats(min_value=0.0, max_value=10.0),
        win_market=st.floats(min_value=0.0, max_value=10.0),
        prices=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_lottery(self, loss_prob, stake, win_game, win_market, prices, seed):
        """Each play changes both balances and both supplies by
        lottery_deltas(spec, lost), which is (0, -stake) on a loss and the
        two prizes on a win; classify_lottery's EV is those two outcomes
        valued at the board."""
        spec = LotterySpec(loss_prob, stake, win_game_tokens=win_game, win_market_tokens=win_market)
        board = PriceBoard(activity_price=prices[0], market_price=prices[1])
        seeker = AgentSpec(id=1, strategy="thrill_seeker", market_balance=1e6)
        config = SimConfig(
            rules=GameRules(), agents=(seeker,), steps=30, seed=seed, board=board, lottery=spec
        )
        sim = GameSimulation(config)
        h, counters = sim.holdings[1], sim.counters
        outcomes = {}
        for step in range(1, 31):
            balances = (h.activity_balance, h.market_balance)
            supplies = (counters.activity_supply, counters.market_supply)
            sim.step(step)
            event = sim.events[-1]
            assert event.action == "lottery" and event.rng_draws == 1
            lost = event.as_dict()["outputs"]["result"] == "loss"
            activity, market = lottery_deltas(spec, lost)
            assert (activity, market) == ((0.0, -stake) if lost else (win_game, win_market))
            assert (h.activity_balance, h.market_balance) == (
                balances[0] + activity,
                balances[1] + market,
            )
            assert (counters.activity_supply, counters.market_supply) == (
                supplies[0] + activity,
                supplies[1] + market,
            )
            outcomes[lost] = activity * board.activity_price + market * board.market_price
        loss = outcomes.get(True, -stake * board.market_price)
        win = outcomes.get(False, win_game * board.activity_price + win_market * board.market_price)
        ev, _ = classify_lottery(spec, board)
        assert ev == loss_prob * loss + (1.0 - loss_prob) * win


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
        plays = [e.as_dict()["outputs"] for e in result.events if e.action == "lottery"]
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

        low, high = (loss + q * (win - loss) for q in wilson_interval(wins, n))
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
