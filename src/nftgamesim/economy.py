"""Token universe, ownership state, and pool valuations.

Three token classes make up a game economy: unique collectibles priced
individually, a fungible activity token, and a fungible marketplace token.
All values are quoted in a single external numeraire (e.g. a stablecoin).
Bid-offer spreads, order books, and partial liquidity are out of scope;
every asset has one price.
"""
from __future__ import annotations

from dataclasses import dataclass, field

TokenId = int

# User index 0 is the game's treasury. It participates in conservation
# checks but never acts as an agent.
TREASURY = 0


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

    def is_genesis(self) -> bool:
        return self.parents is None


@dataclass
class Holdings:
    """One user's positions: collectibles plus the two fungible balances."""

    owner: int
    collectibles: set[TokenId] = field(default_factory=set)
    activity_balance: float = 0.0
    market_balance: float = 0.0

    def __post_init__(self) -> None:
        if self.owner < 0:
            raise ValueError("owner index must be non-negative")
        self.check_balances()

    def check_balances(self) -> None:
        if self.activity_balance < 0 or self.market_balance < 0:
            raise ValueError(
                f"user {self.owner}: balances must be non-negative "
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
        if self.activity_price <= 0 or self.market_price <= 0:
            raise ValueError("fungible token prices must be positive")
        if self.floor_price <= 0:
            raise ValueError("floor price must be positive")
        for tid, p in self.collectible_prices.items():
            if p <= 0:
                raise ValueError(f"collectible {tid} has non-positive price {p}")
        if self.collectible_prices:
            lowest = min(self.collectible_prices.values())
            if self.floor_price > lowest + 1e-12:
                raise ValueError(
                    f"floor price {self.floor_price} exceeds lowest listed price {lowest}"
                )

    def price_of(self, token_id: TokenId) -> float:
        try:
            return self.collectible_prices[token_id]
        except KeyError:
            raise MissingPriceError(token_id) from None


@dataclass
class SupplyCounters:
    """Outstanding supply of the two fungible tokens."""

    activity_supply: float = 0.0
    market_supply: float = 0.0

    def __post_init__(self) -> None:
        if self.activity_supply < 0 or self.market_supply < 0:
            raise ValueError("supplies must be non-negative")


def collectible_pool_value(holdings_all: list[Holdings], board: PriceBoard) -> float:
    """Capital deployed in the collectibles pool.

    One sum over all owned tokens in ascending token-id order. A token held
    by two users means the ownership partition is broken and raises
    ValueError; a token with no price raises MissingPriceError.
    """
    value = 0.0
    previous = None
    for tid in sorted(tid for h in holdings_all for tid in h.collectibles):
        if tid == previous:
            raise ValueError(f"ownership is not a partition: collectible {tid} is held twice")
        value += board.price_of(tid)
        previous = tid
    return value


def fungible_pool_values(counters: SupplyCounters, board: PriceBoard) -> tuple[float, float]:
    """Value of the activity pool (supply * activity price) and market pool."""
    return (
        counters.activity_supply * board.activity_price,
        counters.market_supply * board.market_price,
    )


def total_value(collectible_pool: float, activity_pool: float, market_pool: float) -> float:
    """Total theoretical value of all game assets (sum of the three pools)."""
    if collectible_pool < 0 or activity_pool < 0 or market_pool < 0:
        raise ValueError("pool values must be non-negative")
    return collectible_pool + activity_pool + market_pool


def check_ownership_partition(
    holdings_all: list[Holdings], population: dict[TokenId, Collectible]
) -> None:
    """Every minted collectible is held by exactly one user.

    Raises ValueError naming the first offending token.
    """
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
    rel_tol: float = 1e-9,
) -> None:
    """Supply counters must match the per-user balance sums.

    Float tolerance covers accumulation-order drift between the running
    counters and the grouped per-user sums.
    """
    act = sum(h.activity_balance for h in holdings_all)
    mkt = sum(h.market_balance for h in holdings_all)
    if abs(act - counters.activity_supply) > rel_tol * max(1.0, abs(act)):
        raise ValueError(
            f"activity supply {counters.activity_supply} != user balance sum {act}"
        )
    if abs(mkt - counters.market_supply) > rel_tol * max(1.0, abs(mkt)):
        raise ValueError(
            f"market supply {counters.market_supply} != user balance sum {mkt}"
        )
