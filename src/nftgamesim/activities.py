"""Adventure, battle and lottery settlement, and the minority game.

Activity outcomes are radically simplified: each in-game distribution is
replaced by its average value, so an adventure or a battle settles by pure
arithmetic given its multiplier. Whether a lottery play is lost is drawn by
the caller's seeded generator. The engine settles every play with the
functions here, and the lottery classifiers value the same settlements.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .economy import PriceBoard

SELF_FUNDING_ABS_TOL = 1e-12


@dataclass(frozen=True)
class AdventureSpec:
    """Solitary activity: deploy collectibles, multiply the committed balance."""

    reward_multiplier: float = 1.1  # n' >= 1
    collectibles_required: int = 1

    def __post_init__(self) -> None:
        if self.reward_multiplier < 1.0:
            raise ValueError("adventure reward multiplier must be >= 1")
        if self.collectibles_required < 1:
            raise ValueError("adventure needs at least one collectible")


@dataclass(frozen=True)
class BattleSpec:
    """Team battle: the surviving fraction of the committed balance is n''."""

    team_size: int = 3
    survival_fraction: float = 1.0  # n'' < 1 losses, n'' > 1 winnings

    def __post_init__(self) -> None:
        if self.team_size < 2:
            raise ValueError("battle team size must be >= 2")
        if self.survival_fraction < 0:
            raise ValueError("survival fraction must be >= 0")


@dataclass(frozen=True)
class LotterySpec:
    """Organizer-hosted lottery: forfeit the stake with probability p,
    otherwise win a mix of game and market tokens on top of the stake."""

    loss_prob: float
    stake: float
    win_game_tokens: float = 0.0
    win_market_tokens: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        if self.stake <= 0:
            raise ValueError("stake must be positive")
        if self.win_game_tokens < 0 or self.win_market_tokens < 0:
            raise ValueError("win amounts must be non-negative")


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


@dataclass(frozen=True)
class StrategyMix:
    """Counts of breed/battle/adventure plays over a period."""

    breed: int = 0
    battle: int = 0
    adventure: int = 0

    def __post_init__(self) -> None:
        if self.breed < 0 or self.battle < 0 or self.adventure < 0:
            raise ValueError("activity counts must be non-negative")


class SponsorClass(str, Enum):
    SUBSIDY_REQUIRED = "SubsidyRequired"
    SELF_FUNDING = "SelfFunding"
    PROFITABLE = "Profitable"


def scale_balance(multiplier: float, balance: float) -> tuple[float, float]:
    """Settle an adventure (multiplier n') or a battle (n''): the committed
    activity balance after the play and the activity tokens it minted,
    negative when the play burned some. The deployed collectibles are kept."""
    after = multiplier * balance
    return after, after - balance


def lottery_deltas(spec: LotterySpec, lost: bool) -> tuple[float, float]:
    """Settle a lottery play: the change in the player's (activity, market)
    balances, which is also the change in supply. A loss burns the stake, a
    win mints both prizes."""
    if lost:
        return 0.0, -spec.stake
    return spec.win_game_tokens, spec.win_market_tokens


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
