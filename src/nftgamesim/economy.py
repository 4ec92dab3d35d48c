"""Token universe, ownership state, and pool valuations.

Three token classes make up a game economy: unique collectibles priced
individually, a fungible activity token, and a fungible marketplace token.
All values are quoted in a single external numeraire (e.g. a stablecoin).
Bid-offer spreads, order books, and partial liquidity are out of scope;
every asset has one price. A PriceBoard holds a run's starting prices;
the run owns the price table and the floor from then on. The collectible
pool is the engine snapshot's exactly rounded sum of the agents' token
values; this module values the two fungible pools, totals the three and
audits ownership, supply and the listed prices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

TokenId = int

# User index 0 is the game's treasury. It participates in conservation
# checks but never acts as an agent.
TREASURY = 0
# Relative tolerance of the supply audit (see check_supply_sums).
_SUPPLY_REL_TOL = 1e-9


@dataclass
class Collectible:
    """A unique token with traits, lineage, and remaining breed charges.

    ``parents`` is None exactly for genesis collectibles. ``breed_count``
    is the number of breedings this collectible has joined so far.
    """

    id: TokenId
    traits: tuple[int, ...]
    parents: tuple[TokenId, ...] | None = None
    breed_count: int = 0
    birth_step: int = 0

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError("collectible id must be non-negative")
        if self.breed_count < 0:
            raise ValueError("breed_count must be non-negative")
        if self.traits and min(self.traits) < 0:
            raise ValueError("traits must be non-negative")


@dataclass
class Holdings:
    """One user's positions: collectibles plus the two fungible balances.

    ``collectibles`` maps ids to the population's own tokens, in the order
    acquired, which is ascending id: genesis and every mint append the new
    largest id, and no token ever leaves a holding.
    """

    owner: int
    collectibles: dict[TokenId, Collectible] = field(default_factory=dict)
    activity_balance: float = 0.0
    market_balance: float = 0.0

    def __post_init__(self) -> None:
        if self.owner < 0:
            raise ValueError("owner index must be non-negative")
        self.check_balances()

    def check_balances(self) -> None:
        # NaN fails every comparison, so one chain also rejects it.
        if not (0 <= self.activity_balance < math.inf and 0 <= self.market_balance < math.inf):
            raise ValueError(
                f"user {self.owner}: balances must be finite and non-negative "
                f"(activity={self.activity_balance}, market={self.market_balance})"
            )


@dataclass(frozen=True)
class PriceBoard:
    """A run's starting numeraire prices: the two fungible tokens, the floor
    and the genesis collectibles' listing price (None lists them at the floor).

    The floor price is the conservative valuation applied to any freshly
    minted collectible; it must not exceed any listed price. A board is a
    value: the run keeps its own price table and floor (see
    check_listed_prices), so no price here changes once the board is built.
    """

    activity_price: float = 1.0
    market_price: float = 1.0
    floor_price: float = 1.0
    genesis_price: float | None = None

    def __post_init__(self) -> None:
        for name in ("activity_price", "market_price", "floor_price"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        # A NaN undercuts nothing, as no comparison holds for it.
        if self.genesis_price is not None and self.genesis_price < self.floor_price:
            raise ValueError("genesis_price may not undercut the floor price")


def check_listed_prices(prices: dict[TokenId, float], floor_price: float) -> None:
    """A run's price table and floor: the floor finite and positive, every
    listed price finite and positive and none below the floor.

    Raises ValueError naming the floor, the first bad id, or the floor and
    the lowest price.
    """
    if not 0 < floor_price < math.inf:
        raise ValueError("floor_price must be finite and positive")
    # min and sum test every price: a zero, negative or -inf price fails
    # the lowest, a NaN (which min may skip) or +inf the total. The scan
    # runs only to name the first bad id; it finds none for finite
    # prices whose total overflows.
    listed = prices.values()
    if not listed:
        return
    lowest = min(listed)
    if not (0 < lowest and sum(listed) < math.inf):
        for tid, p in prices.items():
            if not 0 < p < math.inf:
                raise ValueError(f"collectible {tid} has non-finite or non-positive price {p}")
    if floor_price > lowest:
        raise ValueError(f"floor price {floor_price} exceeds lowest listed price {lowest}")


@dataclass
class SupplyCounters:
    """Outstanding supply of the two fungible tokens."""

    activity_supply: float = 0.0
    market_supply: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not (0 <= self.activity_supply < math.inf and 0 <= self.market_supply < math.inf):
            raise ValueError(
                "supplies must be finite and non-negative "
                f"(activity={self.activity_supply}, market={self.market_supply})"
            )


def fungible_pool_values(counters: SupplyCounters, board: PriceBoard) -> tuple[float, float]:
    """Value of the activity pool (supply * activity price) and market pool."""
    return (
        counters.activity_supply * board.activity_price,
        counters.market_supply * board.market_price,
    )


def total_value(collectible_pool: float, activity_pool: float, market_pool: float) -> float:
    """Total theoretical value of all game assets (sum of the three pools).

    Finite prices times finite supplies can still overflow, so the pools and
    their total must be finite as well as non-negative.
    """
    total = collectible_pool + activity_pool + market_pool
    # A NaN or an infinity in any pool leaves the total NaN or infinite.
    if collectible_pool < 0 or activity_pool < 0 or market_pool < 0 or not total < math.inf:
        raise ValueError(
            "pool values must be finite and non-negative "
            f"(phi={collectible_pool}, psi={activity_pool}, omega={market_pool})"
        )
    return total


def check_ownership_partition(
    holdings_all: list[Holdings], population: dict[TokenId, Collectible]
) -> None:
    """Every minted collectible is held by exactly one user, as the minted token.

    Raises ValueError naming the first offending token.
    """
    # Disjoint holdings whose merged map equals the population (dict equality
    # tests each token's identity first) form a partition; the per-token pass
    # runs only to name the offending token.
    held = [h.collectibles for h in holdings_all]
    merged: dict[TokenId, Collectible] = {}
    for tokens in held:
        merged.update(tokens)
    if sum(map(len, held)) == len(merged) and merged == population:
        return
    seen: dict[TokenId, int] = {}
    for h in holdings_all:
        for tid, token in h.collectibles.items():
            if tid in seen:
                raise ValueError(
                    f"collectible {tid} held by both user {seen[tid]} and user {h.owner}"
                )
            if tid not in population:
                raise ValueError(f"user {h.owner} holds unminted collectible {tid}")
            if token != population[tid]:
                raise ValueError(f"user {h.owner}'s collectible {tid} is not the minted one")
            seen[tid] = h.owner
    if len(seen) != len(population):
        orphans = sorted(set(population) - set(seen))
        raise ValueError(f"minted collectibles with no owner: {orphans[:5]}")


def check_supply_sums(
    act: float,
    mkt: float,
    counters: SupplyCounters,
    scale: tuple[float, float] = (1.0, 1.0),
) -> None:
    """Supply counters must match the activity and market balance sums
    act and mkt, however the caller summed them.

    Float tolerance covers accumulation-order drift between the running
    counters and the grouped per-user sums. A counter drifts relative to the
    balances it has moved, not to what is left, so the tolerance is relative
    to the larger of the sum and ``scale``: per token, the largest supply
    audited before (at least 1).
    """
    if abs(act - counters.activity_supply) > _SUPPLY_REL_TOL * max(scale[0], abs(act)):
        raise ValueError(
            f"activity supply {counters.activity_supply} != user balance sum {act}"
        )
    if abs(mkt - counters.market_supply) > _SUPPLY_REL_TOL * max(scale[1], abs(mkt)):
        raise ValueError(
            f"market supply {counters.market_supply} != user balance sum {mkt}"
        )
