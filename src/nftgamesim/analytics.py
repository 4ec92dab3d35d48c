"""The paper's closed-form analyses, which no simulate or ruin run loads.

Strategies inside a game are ranked like any other investment: Sharpe
ratios for risk-adjusted comparison, growth-optimal fractions for sizing,
and expected utility for populations with heterogeneous risk appetite.
The multi-asset allocation uses the Moore-Penrose inverse so singular
covariance structures (replicated or redundant assets) stay well defined.
Only ReturnModel, pseudo_inverse and optimal_allocation use numpy, and
they import it when called, so importing this module does not load it.

Also here are the paper's three ways to extract value: tokens as outside
collateral (collateral_loop), games between players of different risk
appetite (the pooled lottery, the minority game, the lottery classifiers)
and the two-envelopes swap across numeraires. So is the breeding toolbox:
the arbitrage classifier, the charge lattice and the population bound. The
lottery classifiers value the engine's own settlement,
activities.lottery_deltas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .activities import LotterySpec, lottery_deltas
from .breeding import GameRules
from .economy import PriceBoard

if TYPE_CHECKING:
    import numpy as np

SVD_REL_CUTOFF = 1e-12
STRICT_GAIN_TOL = 1e-12
CONVERGENCE_REL_TOL = 1e-9
SELF_FUNDING_ABS_TOL = 1e-12
ARBITRAGE_REL_TOL = 1e-9


@dataclass(frozen=True)
class UtilitySpec:
    """Log utility, or power utility U(x) = x**eta.

    eta < 1 is concave (risk-averse), eta > 1 convex (risk-seeking).
    """

    kind: str = "log"
    exponent: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("log", "power"):
            raise ValueError("utility kind must be 'log' or 'power'")
        if self.kind == "power":
            if self.exponent is None or self.exponent == 0:
                raise ValueError("power utility needs a non-zero exponent")

    def value(self, wealth: float) -> float:
        if wealth <= 0:
            raise ValueError(f"utility undefined for non-positive wealth {wealth}")
        if self.kind == "log":
            return math.log(wealth)
        try:
            return wealth ** self.exponent
        except OverflowError:
            raise ValueError(f"power utility {wealth}**{self.exponent} is not finite") from None


@dataclass(frozen=True)
class ReturnModel:
    """Per-unit-time drifts and factor loadings for a set of assets.

    vol_matrix has one column per asset and one row per risk factor, so
    vol_matrix.T @ vol_matrix is the asset covariance (Gram) matrix; in one
    dimension it reduces to the squared volatility.
    """

    mean_vector: tuple[float, ...]
    riskless_rate: float = 0.0
    vol_matrix: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self) -> None:
        import numpy as np

        vol = np.asarray(self.vol_matrix, dtype=float)
        if vol.ndim != 2 or vol.shape[1] != len(self.mean_vector):
            raise ValueError(
                "vol_matrix needs one column per asset "
                f"(got shape {vol.shape} for {len(self.mean_vector)} assets)"
            )


@dataclass(frozen=True)
class RedistributionGame:
    """A pool game described by outcome probabilities and per-player wealth multipliers.

    Each player commits one unit of wealth; outcome o multiplies player i's
    wealth by multipliers[o][i]. With conserve_stakes the game only shuffles
    the pool: every outcome's multipliers must sum to the player count.
    """

    outcomes: tuple[tuple[float, tuple[float, ...]], ...]
    players: tuple[UtilitySpec, ...]
    conserve_stakes: bool = False

    def __post_init__(self) -> None:
        if not self.outcomes or not self.players:
            raise ValueError("game needs at least one outcome and one player")
        total_prob = math.fsum(p for p, _ in self.outcomes)
        if abs(total_prob - 1.0) > 1e-12:
            raise ValueError(f"outcome probabilities sum to {total_prob}, not 1")
        n = len(self.players)
        for prob, mults in self.outcomes:
            if prob < 0:
                raise ValueError("outcome probabilities must be non-negative")
            if len(mults) != n:
                raise ValueError("each outcome needs one multiplier per player")
            if any(m <= 0 for m in mults):
                raise ValueError("wealth multipliers must be positive")
            if self.conserve_stakes and abs(math.fsum(mults) - n) > 1e-12:
                raise ValueError("outcome breaks stake conservation")


def sharpe_ratio(mean_return: float, riskless: float, vol: float, horizon: float = 1.0) -> float:
    """Excess return over volatility, scaled by 1/sqrt(horizon).

    Inputs are per unit time; quadrupling the horizon halves the ratio.
    """
    if vol <= 0:
        raise ValueError("volatility must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return ((mean_return - riskless) / vol) / math.sqrt(horizon)


def optimal_fraction_1d(mean_return: float, riskless: float, vol: float) -> float:
    """Growth-optimal fraction of wealth in a single risky asset:
    excess return over squared volatility."""
    if vol <= 0:
        raise ValueError("volatility must be positive")
    return (mean_return - riskless) / (vol * vol)


def pseudo_inverse(matrix, rel_cutoff: float = SVD_REL_CUTOFF) -> np.ndarray:
    """Moore-Penrose inverse via SVD.

    Singular values below rel_cutoff times the largest are treated as zero,
    so the result extends the ordinary inverse to rank-deficient and
    non-square matrices while satisfying all four Penrose conditions;
    ValueError refuses an inverse out of float range.
    """
    import numpy as np

    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("pseudo_inverse expects a 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    keep = s > rel_cutoff * s[0]
    s_inv = np.zeros_like(s)
    with np.errstate(over="ignore", invalid="ignore"):
        s_inv[keep] = 1.0 / s[keep]
        inverse = (vt.T * s_inv) @ u.T
    if not np.all(np.isfinite(inverse)):
        raise ValueError("pseudoinverse is out of float range")
    return inverse


def optimal_allocation(model: ReturnModel) -> np.ndarray:
    """Growth-optimal weights: excess drifts times the pseudoinverse of the
    asset Gram matrix. Reduces to optimal_fraction_1d for one asset.

    The Gram pseudoinverse is P @ P.T with P the pseudoinverse of the
    volatility matrix itself, so pseudo_inverse's cutoff applies to the
    volatilities, not to their squares: a small but nonzero volatility is
    inverted, not dropped as redundant. Below the cutoff it is dropped:
    an independent asset whose volatility is under 1e-12 of the largest
    gets weight 0. Products that underflow to zero are fine; if the
    pseudoinverse, the Gram matrix or the weights overflow, ValueError
    names the volatility matrix.
    """
    import numpy as np

    mu = np.asarray(model.mean_vector, dtype=float)
    vol = np.asarray(model.vol_matrix, dtype=float)
    try:
        p = pseudo_inverse(vol)
    except ValueError as exc:
        raise ValueError(f"vol_matrix: {exc}") from None
    with np.errstate(over="raise", under="ignore"):
        try:
            # The covariance of the assets is formed only to prove that it
            # is representable.
            vol.T @ vol
            # P @ P.T is symmetric, so row/column orientation is immaterial.
            return (mu - model.riskless_rate) @ (p @ p.T)
        except FloatingPointError:
            raise ValueError(
                "vol_matrix is out of float range: its Gram matrix or the allocation overflows"
            ) from None


def envelope_expected_gain(up: float, down: float, up_prob: float) -> tuple[float, float]:
    """Expected fractional gain for both sides of the two-envelopes swap.

    Two players with different numeraires put equal amounts into envelopes
    and swap. Player 1 holds the other currency, so their expected
    multiplier averages the exchange-rate moves; player 2 averages the
    reciprocals. Jensen's inequality makes both gains positive whenever the
    rate actually moves: with a double-or-half coin flip each side expects
    a 25% gain.
    """
    if up <= 0 or down <= 0:
        raise ValueError("exchange-rate moves must be positive")
    if not 0.0 <= up_prob <= 1.0:
        raise ValueError("up probability must be in [0, 1]")
    gain1 = up_prob * up + (1.0 - up_prob) * down - 1.0
    gain2 = up_prob / up + (1.0 - up_prob) / down - 1.0
    return gain1, gain2


def expected_utility(
    wealth_multipliers: list[tuple[float, float]], utility: UtilitySpec
) -> float:
    """Probability-weighted utility of final wealth, for one unit of initial wealth."""
    total_prob = math.fsum(p for p, _ in wealth_multipliers)
    if abs(total_prob - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total_prob}, not 1")
    return math.fsum(p * utility.value(m) for p, m in wealth_multipliers)


def propitious_check(game: RedistributionGame) -> tuple[list[bool], bool]:
    """Does the redistribution raise expected utility, per player and on average?

    A game is propitious when either every player's expected utility
    strictly exceeds the utility of standing pat, or the average gain over
    players is strictly positive. Gains within 1e-12 of zero count as no
    increase.
    """
    gains = []
    for i, spec in enumerate(game.players):
        lottery = [(prob, mults[i]) for prob, mults in game.outcomes]
        gains.append(expected_utility(lottery, spec) - spec.value(1.0))
    per_player = [g > STRICT_GAIN_TOL for g in gains]
    average_mode = (math.fsum(gains) / len(gains)) > STRICT_GAIN_TOL
    return per_player, average_mode


# Canonical pooled-lottery example: eleven players stake one token each.
# With probability 0.95 the ten cautious players earn 5% while the thrill
# seeker drops 50%; otherwise the cautious ten lose 10% each and the seeker
# doubles. Both branches shuffle exactly the committed tokens.
_POOL_PROBS = (Fraction(95, 100), Fraction(5, 100))
_AVERSE_MULT = (Fraction(105, 100), Fraction(90, 100))
_SEEKER_MULT = (Fraction(50, 100), Fraction(200, 100))
N_RISK_AVERSE = 10


def heterogeneous_lottery_ev() -> tuple[float, float]:
    """Per-player expected gains in the canonical pooled lottery.

    Returns (+0.0425, -0.425): cautious players average a 4.25% gain while
    the thrill seeker pays 42.5% on average for the rare doubling. (A
    commonly quoted figure for the seeker, -37.5%, is inconsistent with
    these probabilities and payouts; the recomputed value is returned.)
    """
    averse = sum(p * (m - 1) for p, m in zip(_POOL_PROBS, _AVERSE_MULT))
    seeker = sum(p * (m - 1) for p, m in zip(_POOL_PROBS, _SEEKER_MULT))
    return float(averse), float(seeker)


def pooled_lottery_game(
    seeker: UtilitySpec, averse: UtilitySpec = UtilitySpec("log")
) -> RedistributionGame:
    """The canonical pooled lottery as a RedistributionGame: ten players of
    the given cautious utility plus one thrill seeker."""
    outcomes = tuple(
        (float(p), (float(am),) * N_RISK_AVERSE + (float(sm),))
        for p, am, sm in zip(_POOL_PROBS, _AVERSE_MULT, _SEEKER_MULT)
    )
    players = (averse,) * N_RISK_AVERSE + (seeker,)
    return RedistributionGame(outcomes=outcomes, players=players, conserve_stakes=True)


# -- tokens as loan collateral --------------------------------------------


@dataclass(frozen=True)
class CollateralSpec:
    """Linear borrow-and-reinvest loop for game tokens used as loan collateral.

    Each round the promoter borrows ltv times the collateral value and the
    reinvested loan lifts the value by impact per unit: V(n+1) = V0 +
    impact * ltv * V(n). An optional shock multiplies the value by
    (1 - shock_fraction) at the given step; the position is liquidated once
    the value falls below liquidation_threshold times the outstanding debt.
    """

    ltv: float
    impact: float
    initial_value: float
    liquidation_threshold: float = 1.0
    shock_step: int | None = None
    shock_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.ltv < 1.0:
            raise ValueError("loan-to-value must be in (0, 1)")
        if self.impact < 0:
            raise ValueError("price impact must be non-negative")
        if self.initial_value <= 0:
            raise ValueError("initial value must be positive")
        if not 0.0 < self.liquidation_threshold <= 1.0:
            raise ValueError("liquidation threshold must be in (0, 1]")
        if self.shock_step is not None:
            if self.shock_step < 1:
                raise ValueError("shock step must be >= 1")
            if not 0.0 < self.shock_fraction < 1.0:
                raise ValueError("shock fraction must be in (0, 1)")


@dataclass(frozen=True)
class CollateralOutcome:
    kind: str  # "Converged" | "Diverged" | "Liquidated"
    limit_value: float | None = None
    liquidated_step: int | None = None


def collateral_loop(
    spec: CollateralSpec, max_iter: int = 10_000
) -> tuple[list[float], CollateralOutcome]:
    """Iterate the borrow-and-reinvest recursion until it settles, blows up,
    or a shock forces liquidation.

    With impact * ltv < 1 the value converges to initial / (1 - impact*ltv)
    (declared once the step change drops below 1e-9 of the initial value);
    at or above 1 the loop diverges. A shocked value below the liquidation
    threshold times the outstanding debt ends the run as Liquidated.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    feedback = spec.impact * spec.ltv
    trajectory = [spec.initial_value]
    for n in range(1, max_iter + 1):
        prev = trajectory[-1]
        value = spec.initial_value + feedback * prev
        if spec.shock_step == n:
            value *= 1.0 - spec.shock_fraction
        trajectory.append(value)
        debt = spec.ltv * prev
        if value < spec.liquidation_threshold * debt:
            return trajectory, CollateralOutcome(kind="Liquidated", liquidated_step=n)
        if abs(value - prev) < CONVERGENCE_REL_TOL * spec.initial_value:
            return trajectory, CollateralOutcome(kind="Converged", limit_value=value)
    return trajectory, CollateralOutcome(kind="Diverged")


# -- lotteries and the minority game --------------------------------------


@dataclass(frozen=True)
class MinorityGameSpec:
    """Stake-commitment game: the smaller side divides the raked pot.

    rake_fraction is the share of total stakes paid out to winners; the
    organizer keeps the rest and funds the sponsor subsidy.
    """

    rake_fraction: float = 1.0
    sponsor_subsidy: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.rake_fraction <= 1.0:
            raise ValueError("rake fraction must be in (0, 1]")
        if self.sponsor_subsidy < 0:
            raise ValueError("sponsor subsidy must be non-negative")


class SponsorClass(str, Enum):
    SUBSIDY_REQUIRED = "SubsidyRequired"
    SELF_FUNDING = "SelfFunding"
    PROFITABLE = "Profitable"


def _lottery_values(spec: LotterySpec, board: PriceBoard) -> tuple[float, float, float]:
    """Numeraire value of a lost play, of a won play and their mean: the
    settled deltas of each outcome valued at the board."""
    loss, win = (
        activity * board.activity_price + market * board.market_price
        for activity, market in (lottery_deltas(spec, True), lottery_deltas(spec, False))
    )
    return loss, win, spec.loss_prob * loss + (1.0 - spec.loss_prob) * win


def classify_lottery(spec: LotterySpec, board: PriceBoard) -> tuple[float, SponsorClass]:
    """Player's expected numeraire value per play and what that implies for
    the sponsor.

    The sponsor's classification is the mirror image of the player's edge:
    a negative player EV is organizer profit, zero (within 1e-12) is
    self-funding, positive requires a subsidy.
    """
    player_ev = _lottery_values(spec, board)[2]
    if abs(player_ev) <= SELF_FUNDING_ABS_TOL:
        return player_ev, SponsorClass.SELF_FUNDING
    if player_ev < 0:
        return player_ev, SponsorClass.PROFITABLE
    return player_ev, SponsorClass.SUBSIDY_REQUIRED


def lottery_sharpe(spec: LotterySpec, board: PriceBoard) -> float:
    """Expected value over standard deviation of the two-point lottery outcome.

    Lets lotteries be compared and ranked on a common risk-adjusted scale.
    """
    loss, win, ev = _lottery_values(spec, board)
    p = spec.loss_prob
    variance = p * (loss - ev) ** 2 + (1.0 - p) * (win - ev) ** 2
    if variance <= 0:
        raise ValueError("lottery outcome has zero variance; ratio undefined")
    return ev / math.sqrt(variance)


def minority_settle(
    stakes_side1: list[tuple[str, float]],
    stakes_side2: list[tuple[str, float]],
    spec: MinorityGameSpec,
    winner_override: int | None = None,
) -> tuple[dict[str, float], float]:
    """Settle a minority game round.

    The side with the strictly smaller total wins; its players split the pot
    rake * (X1 + X2) + subsidy in proportion to their stakes, losers get
    nothing, and the organizer nets (1 - rake) * (X1 + X2) - subsidy. With
    full rake and no subsidy this is the base rule: winner i receives
    x_i + (b/a) * x_i. Equal totals refund every stake and return the
    subsidy (organizer nets zero).

    ``winner_override`` (1 or 2) awards that side regardless of totals, for
    rounds allocated by some external outcome rather than the minority rule.

    Note on sponsor economics: the subsidy is profitable for the organizer
    only while (1 - rake) * (X1 + X2) >= subsidy. The superficially similar
    condition rake * (X1 + X2) >= subsidy compares the subsidy against the
    winners' pot rather than the organizer's retained share and breaks
    token conservation, so it is not used here.
    """
    if not stakes_side1 or not stakes_side2:
        raise ValueError("both sides must have at least one stake")
    for player, x in stakes_side1 + stakes_side2:
        if x <= 0:
            raise ValueError(f"stake of player {player!r} must be positive")
    names = [p for p, _ in stakes_side1] + [p for p, _ in stakes_side2]
    if len(set(names)) != len(names):
        raise ValueError("a player may stake only once per round")
    if winner_override not in (None, 1, 2):
        raise ValueError("winner_override must be side 1 or side 2")

    total1 = math.fsum(x for _, x in stakes_side1)
    total2 = math.fsum(x for _, x in stakes_side2)

    if winner_override is None and total1 == total2:
        payouts = {p: x for p, x in stakes_side1 + stakes_side2}
        return payouts, 0.0

    if winner_override is not None:
        side1_wins = winner_override == 1
    else:
        side1_wins = total1 < total2
    winners, losers = (
        (stakes_side1, stakes_side2) if side1_wins else (stakes_side2, stakes_side1)
    )
    winning_total = total1 if side1_wins else total2
    pot = spec.rake_fraction * (total1 + total2) + spec.sponsor_subsidy
    payouts = {p: (x / winning_total) * pot for p, x in winners}
    payouts.update({p: 0.0 for p, _ in losers})
    organizer_net = (1.0 - spec.rake_fraction) * (total1 + total2) - spec.sponsor_subsidy
    return payouts, organizer_net


# -- the breeding toolbox -------------------------------------------------


class ArbitrageKind(str, Enum):
    NO_ARBITRAGE = "NoArbitrage"
    LONG_BREEDING = "LongBreedingArbitrage"
    SHORT_BREEDING = "ShortBreedingArbitrage"


@dataclass(frozen=True)
class ArbitrageVerdict:
    """Classification of the breeding trade, with magnitude = A*C - B.

    Short-side arbitrage is only indirectly exploitable: breeding is not a
    time-reversible process, so there is no direct way to short it.
    """

    kind: ArbitrageKind
    magnitude: float


def classify_breeding_arbitrage(
    collectible_capital: float, growth_fraction: float, external_cost: float
) -> ArbitrageVerdict:
    """Compare the capital gain from breeding (A*C) with the tokens it burns (B).

    Only A*C = B prevents arbitrage. A*C > B is exploitable by going long
    breeding; A*C < B only indirectly, by going short, since breeding cannot
    be reversed. Equality is judged at tolerance 1e-9 relative to the larger
    of A*C and B, with no absolute floor, so scaling capital and cost by
    one factor leaves the verdict unchanged.
    """
    if collectible_capital <= 0:
        raise ValueError("collectible capital must be positive")
    if external_cost < 0:
        raise ValueError("external cost must be non-negative")
    gain = collectible_capital * growth_fraction
    magnitude = gain - external_cost
    if abs(magnitude) <= ARBITRAGE_REL_TOL * max(abs(gain), abs(external_cost)):
        return ArbitrageVerdict(ArbitrageKind.NO_ARBITRAGE, magnitude)
    if magnitude > 0:
        return ArbitrageVerdict(ArbitrageKind.LONG_BREEDING, magnitude)
    return ArbitrageVerdict(ArbitrageKind.SHORT_BREEDING, magnitude)


def lattice_value(
    breeds_remaining: int,
    floor_price: float,
    expected_child_value: float,
    cost_schedule_numeraire: list[float],
) -> float:
    """Value a collectible by backward induction over its remaining charges.

    A spent collectible is worth the floor price. Each remaining charge adds
    its exercise value, clamped at zero since a rational holder never breeds
    at a loss: V(k) = V(k-1) + max(0, child_value - cost(k)).
    """
    if breeds_remaining < 0 or breeds_remaining > len(cost_schedule_numeraire):
        raise ValueError(
            f"breeds_remaining {breeds_remaining} outside [0, {len(cost_schedule_numeraire)}]"
        )
    if floor_price <= 0:
        raise ValueError("floor_price must be positive")
    if expected_child_value < 0:
        raise ValueError("expected_child_value must be non-negative")
    value = floor_price
    for k in range(1, breeds_remaining + 1):
        value += max(0.0, expected_child_value - cost_schedule_numeraire[k - 1])
    return value


@dataclass
class _Cohort:
    # One birth cohort; blocks are (breed_count, size) runs in id order.
    # Oldest-first selection always consumes an id-order prefix, so counts
    # along the block list are non-increasing.
    birth_step: int
    blocks: list[list[int]] = field(default_factory=list)


def max_population(initial: int, rules: GameRules, horizon: int) -> list[int]:
    """Deterministic upper bound on the collectible count, per step.

    Greedy schedule: at every step all mature collectibles with remaining
    charges are grouped into as many disjoint breeding sets of size d as
    possible, oldest collectibles first; each participant spends one charge
    and every group yields one newborn at the next step. With d = 1,
    unlimited charges, and unit maturity this is the Fibonacci recurrence
    N(t+1) = N(t) + N(t-1).

    Returns the counts N_0..N_horizon. Pairing restrictions are ignored:
    with enough collectibles they never bind, so this stays an upper bound.
    """
    if initial < 1:
        raise ValueError("initial population must be positive")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")

    d = rules.breed_arity
    limit = rules.breed_limit
    cohorts = [_Cohort(birth_step=-rules.maturity_delay, blocks=[[0, initial]])]
    counts = [initial]

    for step in range(horizon):
        eligible_total = 0
        for c in cohorts:
            if step - c.birth_step < rules.maturity_delay:
                break
            eligible_total += sum(n for used, n in c.blocks if used < limit)
        births = eligible_total // d

        # The mature cohorts come first and hold at least ``take`` eligible
        # tokens, so take is 0 before the loop reaches an immature cohort.
        take = births * d
        for c in cohorts:
            if take == 0:
                break
            new_blocks: list[list[int]] = []
            for used, n in c.blocks:
                if used >= limit or take == 0:
                    new_blocks.append([used, n])
                    continue
                k = min(n, take)
                take -= k
                if new_blocks and new_blocks[-1][0] == used + 1:
                    new_blocks[-1][1] += k
                else:
                    new_blocks.append([used + 1, k])
                if n - k:
                    new_blocks.append([used, n - k])
            c.blocks = new_blocks

        if births:
            cohorts.append(_Cohort(birth_step=step + 1, blocks=[[0, births]]))
        counts.append(counts[-1] + births)

    return counts
