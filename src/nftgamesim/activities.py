"""Adventure, battle and lottery specs, and the one settlement of each play.

Activity outcomes are radically simplified: each in-game distribution is
replaced by its average value, so an adventure or a battle settles by pure
arithmetic given its multiplier. Whether a lottery play is lost is drawn by
the caller's seeded generator. The engine settles every play with the
functions here; analytics' lottery classifiers value the same settlements,
and the minority game lives there too, since no run plays it.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AdventureSpec:
    """Solitary activity: deploy collectibles, multiply the committed balance."""

    reward_multiplier: float = 1.1  # n' >= 1
    collectibles_required: int = 1

    def __post_init__(self) -> None:
        if self.reward_multiplier < 1.0:
            raise ValueError("reward_multiplier must be >= 1")
        if self.collectibles_required < 1:
            raise ValueError("collectibles_required must be >= 1")


@dataclass(frozen=True)
class BattleSpec:
    """Team battle: the surviving fraction of the committed balance is n''."""

    team_size: int = 3
    survival_fraction: float = 1.0  # n'' < 1 losses, n'' > 1 winnings

    def __post_init__(self) -> None:
        if self.team_size < 2:
            raise ValueError("team_size must be >= 2")
        if self.survival_fraction < 0:
            raise ValueError("survival_fraction must be >= 0")


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
            raise ValueError("loss_prob must be a probability in [0, 1]")
        if self.stake <= 0:
            raise ValueError("stake must be positive")
        if self.win_game_tokens < 0:
            raise ValueError("win_game_tokens must be non-negative")
        if self.win_market_tokens < 0:
            raise ValueError("win_market_tokens must be non-negative")


@dataclass(frozen=True)
class StrategyMix:
    """Counts of breed/battle/adventure plays over a period."""

    breed: int = 0
    battle: int = 0
    adventure: int = 0

    def __post_init__(self) -> None:
        if self.breed < 0 or self.battle < 0 or self.adventure < 0:
            raise ValueError("activity counts breed, battle and adventure must be non-negative")


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
