"""Token universe, ownership state, and pool valuations.

Three token classes make up a game economy: unique collectibles priced
individually, a fungible activity token, and a fungible marketplace token.
All values are quoted in a single external numeraire (e.g. a stablecoin).
Bid-offer spreads, order books, and partial liquidity are out of scope;
every asset has one price. The collectible pool is summed in one place,
the engine's snapshot; this module values the two fungible pools, totals
the three and audits ownership and supply.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

TokenId = int

# User index 0 is the game's treasury. It participates in conservation
# checks but never acts as an agent.
TREASURY = 0
# Relative tolerance of the supply audit (see check_supply_sums).
_SUPPLY_REL_TOL = 1e-9


class MissingPriceError(KeyError):
    """An owned collectible has no price on the board."""

    def __init__(self, token_id: TokenId):
        super().__init__(token_id)
        self.token_id = token_id

    def __str__(self) -> str:
        return f"no price on board for collectible {self.token_id}"


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
        if any(t < 0 for t in self.traits):
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


@dataclass
class PriceBoard:
    """Numeraire prices: per-collectible, the two fungible tokens, and the floor.

    The floor price is the conservative valuation applied to any freshly
    minted collectible; it must not exceed any listed price.
    """

    collectible_prices: dict[TokenId, float] = field(default_factory=dict)
    activity_price: float = 1.0
    market_price: float = 1.0
    floor_price: float = 1.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not (0 < self.activity_price < math.inf and 0 < self.market_price < math.inf):
            raise ValueError("fungible token prices must be finite and positive")
        if not 0 < self.floor_price < math.inf:
            raise ValueError("floor price must be finite and positive")
        # Tokens share few distinct prices, so test those; the per-token
        # scan runs only to name the first bad id.
        distinct = set(self.collectible_prices.values())
        if not all(0 < p < math.inf for p in distinct):
            for tid, p in self.collectible_prices.items():
                if not 0 < p < math.inf:
                    raise ValueError(f"collectible {tid} has non-finite or non-positive price {p}")
        if distinct:
            lowest = min(distinct)
            if self.floor_price > lowest:
                raise ValueError(
                    f"floor price {self.floor_price} exceeds lowest listed price {lowest}"
                )


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
    """Every minted collectible is held by exactly one user.

    Raises ValueError naming the first offending token.
    """
    # Disjoint holdings whose union is the population form a partition; the
    # per-token pass runs only to name the offending token.
    held = [h.collectibles for h in holdings_all]
    owned = set().union(*held)
    if sum(map(len, held)) == len(owned) and population.keys() == owned:
        return
    seen: dict[TokenId, int] = {}
    for h in holdings_all:
        for tid in h.collectibles:
            if tid in seen:
                raise ValueError(
                    f"collectible {tid} held by both user {seen[tid]} and user {h.owner}"
                )
            if tid not in population:
                raise ValueError(f"user {h.owner} holds unminted collectible {tid}")
            seen[tid] = h.owner
    if len(seen) != len(population):
        orphans = sorted(set(population) - set(seen))
        raise ValueError(f"minted collectibles with no owner: {orphans[:5]}")


def check_supply_conservation(
    holdings_all: list[Holdings],
    counters: SupplyCounters,
    rel_tol: float = _SUPPLY_REL_TOL,
    scale: tuple[float, float] = (1.0, 1.0),
) -> None:
    """Supply counters must match the per-user balance sums (see
    check_supply_sums)."""
    check_supply_sums(
        sum(map(attrgetter("activity_balance"), holdings_all)),
        sum(map(attrgetter("market_balance"), holdings_all)),
        counters,
        rel_tol,
        scale,
    )


def check_supply_sums(
    act: float,
    mkt: float,
    counters: SupplyCounters,
    rel_tol: float = _SUPPLY_REL_TOL,
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
    if abs(act - counters.activity_supply) > rel_tol * max(scale[0], abs(act)):
        raise ValueError(
            f"activity supply {counters.activity_supply} != user balance sum {act}"
        )
    if abs(mkt - counters.market_supply) > rel_tol * max(scale[1], abs(mkt)):
        raise ValueError(
            f"market supply {counters.market_supply} != user balance sum {mkt}"
        )
