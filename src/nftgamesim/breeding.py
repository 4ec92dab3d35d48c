"""Breeding mechanics, the breed-cost table and the forward-price step.

Breeding consumes fungible tokens and parent breed charges to mint a new
collectible with partially inherited, partially random traits. Parents may
breed when no two of them are the same token, parent and child, or
siblings, which can_pair answers for one pair as a bool. The engine's
search proves every other rule of a breed (the arity, ownership, a breed
charge left, maturity and a balance that covers the BreedCost), so mint
checks only that it has a parent to draw from: it draws the traits
straight from a random.Random, creates the child and debits the owner.

Because the supply of collectibles grows at a rate fixed by the breeding
arity, their forward prices drift toward the per-breed cost: under
forward_drift the engine takes one forward_price_step per step for each
distinct price. The closed-form side of breeding (the arbitrage
classifier, the charge lattice and the population bound) lives in
analytics, since no run calls it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .economy import Collectible, Holdings, PriceBoard, TokenId

# Size caps: genesis draws trait_count traits per token, breed_limit sizes the schedules.
MAX_TRAIT_COUNT = 1024
MAX_BREED_LIMIT = 1024


@dataclass(frozen=True)
class GameRules:
    """Static parameters of the breeding game.

    Cost schedules are indexed by the lead parent's breed count: the k-th
    breeding of a lead parent consumes ``activity_cost_schedule[k]`` activity
    tokens and ``market_cost_schedule[k]`` market tokens. ``burn_mode``
    decides where consumed tokens go: removed from supply ("void", default)
    or credited to the treasury ("treasury").
    """

    breed_arity: int = 2
    breed_limit: int = 7
    trait_count: int = 6
    trait_alphabet: int = 6
    mutation_prob: float = 0.0
    maturity_delay: int = 1
    activity_cost_schedule: tuple[float, ...] = ()
    market_cost_schedule: tuple[float, ...] = ()
    burn_mode: str = "void"

    def __post_init__(self) -> None:
        if self.breed_arity < 1:
            raise ValueError("breed_arity must be >= 1")
        if self.breed_limit < 1:
            raise ValueError("breed_limit must be >= 1")
        if self.breed_limit > MAX_BREED_LIMIT:
            raise ValueError(f"breed_limit must be <= {MAX_BREED_LIMIT}")
        if self.trait_count < 1 or self.trait_alphabet < 1:
            raise ValueError("trait_count and trait_alphabet must be >= 1")
        if self.trait_count > MAX_TRAIT_COUNT:
            raise ValueError(f"trait_count must be <= {MAX_TRAIT_COUNT}")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must be in [0, 1]")
        if self.maturity_delay < 0:
            raise ValueError("maturity_delay must be >= 0")
        if self.burn_mode not in ("void", "treasury"):
            raise ValueError("burn_mode must be 'void' or 'treasury'")
        for name in ("activity_cost_schedule", "market_cost_schedule"):
            sched = getattr(self, name)
            if not sched:
                object.__setattr__(self, name, (0.0,) * self.breed_limit)
            elif len(sched) != self.breed_limit:
                raise ValueError(f"{name} must have length breed_limit={self.breed_limit}")
            elif any(not c >= 0 for c in sched):  # NaN too: the costs are sorted
                raise ValueError(f"{name} entries must be non-negative")
            else:
                object.__setattr__(self, name, tuple(float(c) for c in sched))


@dataclass(frozen=True)
class BreedCost:
    """Tokens consumed by one breeding, plus their numeraire total."""

    activity_amount: float
    market_amount: float
    numeraire_total: float

    @classmethod
    def at_index(cls, rules: GameRules, index: int, board: PriceBoard) -> BreedCost:
        act = rules.activity_cost_schedule[index]
        mkt = rules.market_cost_schedule[index]
        return cls(act, mkt, act * board.activity_price + mkt * board.market_price)


def can_pair(a: Collectible, b: Collectible) -> bool:
    """True if ``a`` and ``b`` may breed together: they are two different
    tokens, neither is a parent of the other, and they share no parent (a
    single shared parent already makes them siblings)."""
    if a.id == b.id:
        return False
    pa, pb = a.parents, b.parents
    if pa is None:
        return pb is None or a.id not in pb
    if pb is None:
        return b.id not in pa
    return b.id not in pa and a.id not in pb and set(pa).isdisjoint(pb)


def mint(
    parent_ids: list[TokenId],
    owner: Holdings,
    population: dict[TokenId, Collectible],
    rules: GameRules,
    cost: BreedCost,
    rng,
    current_step: int = 0,
) -> Collectible:
    """Mint the child of ``parent_ids`` at ``cost``, checking none of the
    breeding rules: the caller has proven the breed legal.

    Each child trait is inherited from a uniformly chosen parent with
    probability 1 - mutation_prob, otherwise drawn uniformly from the trait
    alphabet. Appends the child to the owner's holding, debits the owner's
    balances and increments every parent's breed count; the caller settles
    supply counters according to ``rules.burn_mode``.

    ``rng`` needs ``random()`` and ``getrandbits(k)``, as random.Random
    has. Two draws are consumed per trait (mutation test, then value)
    regardless of mutation_prob, so replay streams stay aligned. A value
    below n is drawn by random.Random.randrange(n)'s own rule: take
    n.bit_length() random bits, and draw again while the value is n or
    more. So a random.Random gives the traits, and leaves the state, that
    random() and randrange(n) would.

    The child id is one more than the population's last key, which is its
    largest as long as ids are added in ascending order (genesis and every
    breed do so). If that id is already taken, or ``parent_ids`` is empty,
    ValueError is raised before anything changes; an id is never reused.
    """
    child_id = next(reversed(population)) + 1
    if child_id in population:
        raise ValueError(
            f"child id {child_id} is already minted: population ids were not added in ascending order"
        )
    if not parent_ids:
        # getrandbits(0) is always 0, so a parent would be drawn forever.
        raise ValueError("a child needs at least one parent")
    parents = list(map(population.__getitem__, parent_ids))
    draw, bits = rng.random, rng.getrandbits
    mutation_prob = rules.mutation_prob
    alphabet = rules.trait_alphabet
    n = len(parents)
    alphabet_bits, parent_bits = alphabet.bit_length(), n.bit_length()
    traits = []
    for i in range(rules.trait_count):
        if draw() < mutation_prob:
            r = bits(alphabet_bits)
            while r >= alphabet:
                r = bits(alphabet_bits)
            traits.append(r)
        else:
            r = bits(parent_bits)
            while r >= n:
                r = bits(parent_bits)
            traits.append(parents[r].traits[i])

    child = Collectible(child_id, tuple(traits), tuple(parent_ids), 0, current_step + 1)
    owner.activity_balance -= cost.activity_amount
    owner.market_balance -= cost.market_amount
    for p in parents:
        p.breed_count += 1
    population[child_id] = child
    owner.collectibles[child_id] = child
    return child


def forward_price_step(p_t: float, d: int, step_cost_numeraire: float) -> float:
    """One step of the no-arbitrage forward-price recursion.

    p(t+1) = d/(d+1) * p(t) + cost/(d+1). The recursion contracts with
    factor d/(d+1) toward its fixed point p* = cost: supply growth from
    breeding dilutes prices until they match the tokens the breed consumes.
    """
    if p_t <= 0:
        raise ValueError("price must be positive")
    if d < 1:
        raise ValueError("breeding arity must be >= 1")
    if step_cost_numeraire < 0:
        raise ValueError("step cost must be non-negative")
    return (d / (d + 1)) * p_t + step_cost_numeraire / (d + 1)
