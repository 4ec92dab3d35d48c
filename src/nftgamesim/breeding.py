"""Breeding mechanics, the breed-cost table and the forward-price step.

Breeding consumes fungible tokens and parent breed charges to mint a new
collectible with partially inherited, partially random traits. Because the
supply of collectibles grows at a rate fixed by the breeding arity, their
forward prices drift toward the per-breed cost: under forward_drift the
engine takes one forward_price_step per step. The closed-form side of
breeding (the arbitrage classifier, the charge lattice, the population
bound and the forward-price path) lives in analytics, since no run calls it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .economy import Collectible, Holdings, PriceBoard, TokenId

# Size caps: genesis draws trait_count traits per token, breed_limit sizes the schedules.
MAX_TRAIT_COUNT = 1024
MAX_BREED_LIMIT = 1024


class BreedingError(Exception):
    """Base class for refused breeding attempts."""


class RestrictionViolated(BreedingError):
    """Parents violate a pairing rule (duplicate, parent/child, or siblings)."""


class InsufficientBalance(BreedingError):
    """Owner's fungible balances do not cover the breed cost."""


class ExhaustedBreeder(BreedingError):
    """A parent has used all of its breed charges."""


class ImmatureParent(BreedingError):
    """A parent is younger than the maturity delay."""


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
            elif any(c < 0 for c in sched):
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


def _are_siblings(a: Collectible, b: Collectible) -> bool:
    # Siblings share at least one parent (strictest reading).
    if a.parents is None or b.parents is None:
        return False
    return bool(set(a.parents) & set(b.parents))


def _is_parent_child(a: Collectible, b: Collectible) -> bool:
    return (a.parents is not None and b.id in a.parents) or (
        b.parents is not None and a.id in b.parents
    )


def check_pairing(parents: list[Collectible]) -> None:
    """Raise RestrictionViolated if any two chosen parents may not breed."""
    for i, a in enumerate(parents):
        for b in parents[i + 1 :]:
            if a.id == b.id:
                raise RestrictionViolated(f"collectible {a.id} listed twice as parent")
            if _is_parent_child(a, b):
                raise RestrictionViolated(
                    f"collectibles {a.id} and {b.id} are parent and child"
                )
            if _are_siblings(a, b):
                raise RestrictionViolated(f"collectibles {a.id} and {b.id} are siblings")


def breed(
    parent_ids: list[TokenId],
    owner: Holdings,
    population: dict[TokenId, Collectible],
    rules: GameRules,
    board: PriceBoard,
    rng,
    current_step: int = 0,
) -> tuple[Collectible, BreedCost]:
    """Mint a new collectible from ``parent_ids`` (length = breed_arity).

    The first parent is the lead breeder; the cost index is its current
    breed count. Each child trait is inherited from a uniformly chosen
    parent with probability 1 - mutation_prob, otherwise drawn uniformly
    from the trait alphabet. Debits the owner's balances and increments
    every parent's breed count; the caller settles supply counters
    according to ``rules.burn_mode``.

    ``rng`` needs ``random()`` and ``randrange(n)``. Two draws are consumed
    per trait (mutation test, then value) regardless of mutation_prob, so
    replay streams stay aligned.

    The child id is one more than the population's last key, which is its
    largest as long as ids are added in ascending order (genesis and every
    breed do so). If that id is already taken, ValueError is raised before
    anything changes; an id is never reused.
    """
    if len(parent_ids) != rules.breed_arity:
        raise RestrictionViolated(
            f"breeding needs {rules.breed_arity} parents, got {len(parent_ids)}"
        )
    parents = []
    for pid in parent_ids:
        if pid not in owner.collectibles:
            raise RestrictionViolated(f"user {owner.owner} does not hold collectible {pid}")
        parents.append(population[pid])

    check_pairing(parents)

    for p in parents:
        if p.breed_count >= rules.breed_limit:
            raise ExhaustedBreeder(
                f"collectible {p.id} has used all {rules.breed_limit} breed charges"
            )
        if current_step - p.birth_step < rules.maturity_delay:
            raise ImmatureParent(
                f"collectible {p.id} (born step {p.birth_step}) is not mature at step {current_step}"
            )

    cost = BreedCost.at_index(rules, parents[0].breed_count, board)
    if owner.activity_balance < cost.activity_amount or owner.market_balance < cost.market_amount:
        raise InsufficientBalance(
            f"user {owner.owner} cannot cover breed cost "
            f"(needs {cost.activity_amount} activity + {cost.market_amount} market)"
        )
    child_id = next(reversed(population)) + 1
    if child_id in population:
        raise ValueError(
            f"child id {child_id} is already minted: population ids were not added in ascending order"
        )

    traits = []
    for i in range(rules.trait_count):
        mutate = rng.random() < rules.mutation_prob
        if mutate:
            traits.append(rng.randrange(rules.trait_alphabet))
        else:
            traits.append(parents[rng.randrange(len(parents))].traits[i])

    child = Collectible(
        id=child_id,
        traits=tuple(traits),
        parents=tuple(parent_ids),
        breed_count=0,
        birth_step=current_step + 1,
    )

    owner.activity_balance -= cost.activity_amount
    owner.market_balance -= cost.market_amount
    for p in parents:
        p.breed_count += 1
    population[child.id] = child
    owner.collectibles.add(child.id)
    return child, cost


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
