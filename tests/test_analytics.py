import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nftgamesim.analytics import (
    CollateralSpec,
    MinorityGameSpec,
    RedistributionGame,
    ReturnModel,
    UtilitySpec,
    collateral_loop,
    envelope_expected_gain,
    expected_utility,
    heterogeneous_lottery_ev,
    max_population,
    optimal_allocation,
    optimal_fraction_1d,
    pooled_lottery_game,
    propitious_check,
    pseudo_inverse,
    sharpe_ratio,
)
from nftgamesim.breeding import GameRules

# Frozen from direct evaluation of 0.95*ln(1.05) + 0.05*ln(0.9).
LOG_EU_RISK_AVERSE = 0.041082630178069124


def penrose_defect(a: np.ndarray, pinv: np.ndarray) -> float:
    return max(
        np.max(np.abs(a @ pinv @ a - a)),
        np.max(np.abs(pinv @ a @ pinv - pinv)),
        np.max(np.abs((a @ pinv).T - a @ pinv)),
        np.max(np.abs((pinv @ a).T - pinv @ a)),
    )


class TestSharpe:
    def test_hand_value(self):
        assert sharpe_ratio(0.05, 0.0, 0.2, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_quadrupled_horizon_halves_ratio(self):
        assert sharpe_ratio(0.05, 0.0, 0.2, 4.0) == pytest.approx(0.125, abs=1e-15)

    def test_zero_excess_is_zero(self):
        for t in (0.25, 1.0, 16.0):
            assert sharpe_ratio(0.07, 0.07, 0.3, t) == 0.0

    @given(
        excess=st.floats(-1, 1),
        vol=st.floats(0.01, 2.0),
        horizon=st.floats(0.01, 100.0),
    )
    def test_sqrt_time_scaling(self, excess, vol, horizon):
        base = sharpe_ratio(excess, 0.0, vol, 1.0)
        scaled = sharpe_ratio(excess, 0.0, vol, horizon)
        assert scaled * math.sqrt(horizon) == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sharpe_ratio(0.05, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            sharpe_ratio(0.05, 0.0, 0.2, 0.0)


class TestOptimalFraction:
    def test_hand_value(self):
        assert optimal_fraction_1d(0.10, 0.02, 0.2) == pytest.approx(2.0, rel=1e-12)

    def test_zero_excess(self):
        assert optimal_fraction_1d(0.05, 0.05, 0.3) == 0.0

    def test_negative_excess_shorts(self):
        assert optimal_fraction_1d(0.01, 0.05, 0.2) < 0

    def test_rejects_zero_vol(self):
        with pytest.raises(ValueError):
            optimal_fraction_1d(0.1, 0.0, 0.0)


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-12)

    def test_zero_singular_value_maps_to_zero(self):
        got = pseudo_inverse(np.diag([2.0, 0.0]))
        assert np.allclose(got, np.diag([0.5, 0.0]), atol=1e-12)

    def test_rank_one_ones_matrix(self):
        got = pseudo_inverse(np.ones((2, 2)))
        assert np.allclose(got, np.full((2, 2), 0.25), atol=1e-12)
        assert penrose_defect(np.ones((2, 2)), got) < 1e-9

    def test_zero_matrix(self):
        assert np.array_equal(pseudo_inverse(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_penrose_conditions_on_random_shapes(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            a = rng.normal(size=(rows, cols))
            if rng.random() < 0.5 and min(rows, cols) > 1:
                a[:, -1] = a[:, 0]  # force rank deficiency
            assert penrose_defect(a, pseudo_inverse(a)) < 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            pseudo_inverse(np.array([[1.0, np.nan]]))

    def test_rejects_vectors(self):
        with pytest.raises(ValueError):
            pseudo_inverse(np.array([1.0, 2.0]))


class TestOptimalAllocation:
    def test_one_asset_matches_1d_rule(self):
        model = ReturnModel(mean_vector=(0.10,), riskless_rate=0.02, vol_matrix=((0.2,),))
        got = optimal_allocation(model)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(optimal_fraction_1d(0.10, 0.02, 0.2), rel=1e-12)

    def test_diagonal_gram_gives_componentwise_fractions(self):
        model = ReturnModel(
            mean_vector=(0.10, 0.05),
            riskless_rate=0.02,
            vol_matrix=((0.2, 0.0), (0.0, 0.1)),
        )
        got = optimal_allocation(model)
        expected = [optimal_fraction_1d(0.10, 0.02, 0.2), optimal_fraction_1d(0.05, 0.02, 0.1)]
        assert np.allclose(got, expected, rtol=1e-12)

    def test_flat_drifts_allocate_nothing(self):
        model = ReturnModel(
            mean_vector=(0.03, 0.03), riskless_rate=0.03, vol_matrix=((0.2, 0.0), (0.1, 0.3))
        )
        assert np.allclose(optimal_allocation(model), 0.0, atol=1e-15)

    def test_matches_direct_solve_on_invertible_gram(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            vol = rng.normal(size=(n + 2, n))  # tall loadings: full column rank a.s.
            mu = rng.normal(scale=0.1, size=n)
            model = ReturnModel(
                mean_vector=tuple(mu),
                riskless_rate=0.01,
                vol_matrix=tuple(tuple(r) for r in vol),
            )
            gram = vol.T @ vol
            expected = np.linalg.solve(gram, mu - 0.01)
            got = optimal_allocation(model)
            assert np.allclose(got, expected, rtol=1e-9, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        assets=st.lists(
            st.tuples(
                st.floats(-1.0, 1.0),
                st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6),
            ),
            min_size=1,
            max_size=5,
        ),
        riskless=st.floats(-0.1, 0.1),
    )
    def test_diagonal_vol_matches_the_1d_rule_per_asset(self, assets, riskless):
        # Every volatility is above 1e-12 of the largest, so none is cut
        # off, and a loading's sign does not change the asset's variance.
        mu = [m for m, _ in assets]
        vol = np.diag([v for _, v in assets])
        model = ReturnModel(
            mean_vector=tuple(mu), riskless_rate=riskless, vol_matrix=tuple(map(tuple, vol))
        )
        expected = [optimal_fraction_1d(m, riskless, abs(v)) for m, v in assets]
        assert optimal_allocation(model) == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4))
    def test_permuting_the_assets_permutes_the_weights(self, data, n):
        entries = st.integers(-16, 16).map(lambda k: k / 16)
        vol = np.array(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                          min_size=n, max_size=n + 2)))
        assume(np.linalg.cond(vol) < 1e6)
        mu = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
        perm = data.draw(st.permutations(range(n)))
        weights = optimal_allocation(ReturnModel(tuple(mu), 0.01, tuple(map(tuple, vol))))
        permuted = optimal_allocation(
            ReturnModel(tuple(mu[perm]), 0.01, tuple(map(tuple, vol[:, perm])))
        )
        scale = np.max(np.abs(weights), initial=1.0)
        assert np.allclose(permuted, weights[perm], rtol=1e-9, atol=1e-9 * scale)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one column per asset"):
            ReturnModel(mean_vector=(0.1, 0.2), vol_matrix=((0.2,),))


class TestEnvelope:
    def test_double_or_half_gains_25_percent(self):
        gain1, gain2 = envelope_expected_gain(2.0, 0.5, 0.5)
        assert abs(gain1 - 0.25) <= 1e-12
        assert abs(gain2 - 0.25) <= 1e-12

    def test_still_rate_means_no_gain(self):
        assert envelope_expected_gain(1.0, 1.0, 0.5) == (0.0, 0.0)

    def test_quadruple_or_quarter(self):
        gain1, gain2 = envelope_expected_gain(4.0, 0.25, 0.5)
        assert gain1 == pytest.approx(1.125, abs=1e-15)
        assert gain2 == pytest.approx(1.125, abs=1e-15)

    @given(
        up=st.floats(min_value=0.1, max_value=10),
        down=st.floats(min_value=0.1, max_value=10),
        prob=st.floats(min_value=0, max_value=1),
    )
    def test_players_swap_under_reciprocal_rates(self, up, down, prob):
        gain1, gain2 = envelope_expected_gain(up, down, prob)
        swapped1, swapped2 = envelope_expected_gain(1 / up, 1 / down, prob)
        assert swapped1 == pytest.approx(gain2, rel=1e-12, abs=1e-12)
        assert swapped2 == pytest.approx(gain1, rel=1e-12, abs=1e-12)


class TestExpectedUtility:
    def test_degenerate_multiplier_one(self):
        assert expected_utility([(1.0, 1.0)], UtilitySpec("log")) == 0.0
        assert expected_utility([(1.0, 1.0)], UtilitySpec("power", exponent=2.0)) == 1.0

    def test_frozen_log_value(self):
        got = expected_utility([(0.95, 1.05), (0.05, 0.90)], UtilitySpec("log"))
        assert got == pytest.approx(LOG_EU_RISK_AVERSE, abs=1e-12)

    def test_linear_power_equals_mean_multiplier(self):
        lottery = [(0.3, 0.5), (0.7, 2.0)]
        got = expected_utility(lottery, UtilitySpec("power", exponent=1.0))
        assert got == pytest.approx(0.3 * 0.5 + 0.7 * 2.0, rel=1e-12)

    def test_rejects_non_positive_wealth(self):
        with pytest.raises(ValueError, match="non-positive"):
            expected_utility([(1.0, 0.0)], UtilitySpec("log"))

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="sum"):
            expected_utility([(0.5, 1.0)], UtilitySpec("log"))

    @given(
        probs=st.integers(1, 99),
        low=st.floats(min_value=0.1, max_value=5),
        bump=st.floats(min_value=0.01, max_value=5),
    )
    def test_log_utility_monotone_in_multipliers(self, probs, low, bump):
        p = probs / 100
        base = [(p, low), (1 - p, low * 2)]
        better = [(p, low + bump), (1 - p, low * 2 + bump)]
        log = UtilitySpec("log")
        assert expected_utility(better, log) > expected_utility(base, log)

    def test_power_spec_requires_nonzero_exponent(self):
        with pytest.raises(ValueError):
            UtilitySpec("power", exponent=0.0)
        with pytest.raises(ValueError):
            UtilitySpec("power")


class TestPropitious:
    def test_pooled_lottery_with_bold_seeker_lifts_everyone(self):
        game = pooled_lottery_game(UtilitySpec("power", exponent=8.0))
        per_player, average_mode = propitious_check(game)
        assert all(per_player)
        assert average_mode
        seeker_eu = expected_utility(
            [(0.95, 0.5), (0.05, 2.0)], UtilitySpec("power", exponent=8.0)
        )
        assert seeker_eu == pytest.approx(12.8037109375, rel=1e-12)

    def test_mild_seeker_declines(self):
        game = pooled_lottery_game(UtilitySpec("power", exponent=2.0))
        per_player, _ = propitious_check(game)
        assert per_player[:-1] == [True] * 10
        assert per_player[-1] is False
        seeker_eu = expected_utility(
            [(0.95, 0.5), (0.05, 2.0)], UtilitySpec("power", exponent=2.0)
        )
        assert seeker_eu == pytest.approx(0.4375, rel=1e-12)

    def test_no_move_game_is_never_propitious(self):
        game = RedistributionGame(
            outcomes=((0.5, (1.0, 1.0)), (0.5, (1.0, 1.0))),
            players=(UtilitySpec("log"), UtilitySpec("power", exponent=2.0)),
        )
        per_player, average_mode = propitious_check(game)
        assert per_player == [False, False]
        assert not average_mode

    def test_game_validation(self):
        with pytest.raises(ValueError, match="sum"):
            RedistributionGame(outcomes=((0.5, (1.0,)),), players=(UtilitySpec("log"),))
        with pytest.raises(ValueError, match="positive"):
            RedistributionGame(
                outcomes=((1.0, (0.0,)),), players=(UtilitySpec("log"),)
            )
        with pytest.raises(ValueError, match="conservation"):
            RedistributionGame(
                outcomes=((1.0, (1.5, 1.0)),),
                players=(UtilitySpec("log"), UtilitySpec("log")),
                conserve_stakes=True,
            )


class TestHeterogeneousLottery:
    def test_exact_expected_values(self):
        averse, seeker = heterogeneous_lottery_ev()
        assert averse == 0.0425
        assert seeker == -0.425

    def test_per_outcome_conservation(self):
        # Frequent branch: ten winners of +5% against one -50% loser; rare
        # branch: ten -10% losers against one +100% winner.
        assert 10 * 0.05 + (-0.5) == pytest.approx(0.0, abs=1e-12)
        assert 10 * (-0.10) + 1.0 == pytest.approx(0.0, abs=1e-12)
        game = pooled_lottery_game(UtilitySpec("power", exponent=2.0))
        for _, mults in game.outcomes:
            assert math.fsum(mults) == pytest.approx(len(mults), abs=1e-12)


def _collateral(**fields) -> CollateralSpec:
    return CollateralSpec(**{"ltv": 0.5, "impact": 1.0, "initial_value": 1.0, **fields})


# The refusals that only a Python caller reaches: no scenario key or CLI flag
# leads to them. Each call is the smallest that reaches its refusal.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: UtilitySpec("exp"), "utility kind must be 'log' or 'power'"),
        (
            lambda: RedistributionGame(outcomes=(), players=(UtilitySpec(),)),
            "game needs at least one outcome and one player",
        ),
        (
            lambda: RedistributionGame(
                outcomes=((-0.5, (1.0,)), (1.5, (1.0,))), players=(UtilitySpec(),)
            ),
            "outcome probabilities must be non-negative",
        ),
        (
            lambda: RedistributionGame(outcomes=((1.0, (1.0, 1.0)),), players=(UtilitySpec(),)),
            "each outcome needs one multiplier per player",
        ),
        (lambda: _collateral(ltv=1.0), r"loan-to-value must be in \(0, 1\)"),
        (lambda: _collateral(impact=-1.0), "price impact must be non-negative"),
        (lambda: _collateral(initial_value=0.0), "initial value must be positive"),
        (
            lambda: _collateral(liquidation_threshold=0.0),
            r"liquidation threshold must be in \(0, 1\]",
        ),
        (lambda: _collateral(shock_step=0), "shock step must be >= 1"),
        (lambda: _collateral(shock_step=1), r"shock fraction must be in \(0, 1\)"),
        (lambda: collateral_loop(_collateral(), max_iter=0), "max_iter must be >= 1"),
        (lambda: MinorityGameSpec(rake_fraction=0.0), r"rake fraction must be in \(0, 1\]"),
        (lambda: MinorityGameSpec(sponsor_subsidy=-1.0), "sponsor subsidy must be non-negative"),
        (lambda: max_population(0, GameRules(), 1), "initial population must be positive"),
        (lambda: max_population(1, GameRules(), -1), "horizon must be non-negative"),
    ],
    ids=[
        "utility-kind", "no-outcomes", "negative-probability", "multiplier-count",
        "ltv", "impact", "initial-value", "liquidation-threshold", "shock-step",
        "shock-fraction", "max-iter", "rake", "subsidy", "initial-population", "horizon",
    ],
)
def test_api_only_refusal_names_its_field(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
