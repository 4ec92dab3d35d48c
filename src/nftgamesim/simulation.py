"""Seed-deterministic, time-stepped game simulation and leverage toys.

One run owns a single counting generator; agents act in ascending id order
within each step and every state transition is recorded as an event, so
identical (config, seed) pairs reproduce byte-identical histories.
GameSimulation.stream hands each step's events and snapshot to its caller
as the run goes, so a caller that writes them out keeps nothing.
A snapshot values the collectible pool exactly as
economy.collectible_pool_value does, one naive left-to-right sum in
ascending id order, but keeps that sum between steps: a mint extends it by
the newborn's price (the largest id is the last term) and only a price
rewrite makes the next snapshot sum the population again. Each agent's
token value, an exactly rounded math.fsum, is kept the same way until that
agent breeds or prices are rewritten. Kept values equal fresh ones bit for
bit.
The audit after each step splits by what can change what it reads. Every
step checks each balance, the supply counters and their conservation, the
fungible prices and a finite positive floor. The checks that read every
token (the ownership partition, each collectible's price, the floor against
the lowest price, a price for exactly the minted ids) run only at step 0,
after a step that minted or rewrote prices, or when an O(agents) size check
disagrees. The forward-drift update keeps the set of distinct collectible
prices (a mint adds to it, a rewrite maps it). So on a step at rest, one
that mints nothing and rewrites no price, the audit costs O(agents) and the
price update O(distinct prices).
A turn does its work once. The breeding search runs at most once per agent
turn, and only where its result is read: on a fixed-mix breed turn, when
the ruin test finds nothing cheaper affordable, or when a growth
maximizer's breed could still win. The search reads each agent's candidate
list, its collectibles with a breed charge left in ascending id order:
genesis and each mint append (a new id is the largest), and a parent
leaves when it uses its last charge, so the search sorts nothing and never
walks a spent token. Breeds are priced from a table of per-breed numeraire
costs built once per run, as the engine never writes the fungible prices.
Trait draws take randrange(n) by random.Random's own rule, n.bit_length()
random bits redrawn while the value is n or more, so the stream is the same.
Monte Carlo experiments derive independent sub-seeds from the master seed
(SHA-256 over the little-endian 8-byte seed followed by the little-endian
8-byte trial index; the first 8 digest bytes, little-endian, are the
sub-seed).
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from . import breeding
from .activities import AdventureSpec, BattleSpec, LotterySpec, StrategyMix
from .breeding import GameRules
from .economy import (
    TREASURY,
    Collectible,
    Holdings,
    MissingPriceError,
    PriceBoard,
    SupplyCounters,
    check_ownership_partition,
    check_supply_conservation,
    fungible_pool_values,
    total_value,
)

STRATEGIES = ("passive", "fixed_mix", "growth_maximizer", "thrill_seeker")
PRICE_UPDATES = ("frozen", "forward_drift")
MAX_SEED = 2**64
# Genesis mints every collectible up front, one event each.
MAX_GENESIS_COLLECTIBLES = 100_000
# A run takes one turn per agent per step, each one event.
MAX_AGENT_TURNS = 10**8

# Feasibility search looks at this many oldest eligible parents; breeding
# prefers old collectibles anyway and this keeps a step O(1).
BREED_SEARCH_WINDOW = 12

CONVERGENCE_REL_TOL = 1e-9

# Standard normal 97.5% quantile, the z of a 95% interval.
Z_95 = 1.959963984540054


class SimulationInvariantError(RuntimeError):
    """A post-step audit failed; the simulation state is untrustworthy.

    ``agent`` is the owner whose balance check failed, None for a check of
    the whole pool; ``last_event`` is that agent's last event in the step.
    """

    def __init__(
        self, step: int, message: str, agent: int | None = None, last_event: Event | None = None
    ):
        super().__init__(f"invariant violation at step {step}: {message}")
        self.step = step
        self.agent = agent
        self.last_event = last_event


class CountingRng:
    """random.Random wrapper that tallies draws for replay audits.

    ``randrange(n)`` draws by the rule random.Random.randrange(n) uses, so
    the stream is the same: take ``n.bit_length()`` random bits, and draw
    again while the value is ``n`` or more. It counts one draw per call.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._getrandbits = self._rng.getrandbits
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self._rng.random()

    def randrange(self, n: int) -> int:
        if n < 1:
            # getrandbits(0) is always 0, so the rejection loop would never end.
            raise ValueError(f"empty range for randrange({n})")
        self.draws += 1
        k = n.bit_length()
        r = self._getrandbits(k)
        while r >= n:
            r = self._getrandbits(k)
        return r


@dataclass(frozen=True)
class AgentSpec:
    """One player: identity, strategy, and initial endowment.

    ``collectibles`` genesis tokens are minted for the agent at start-up.
    ``mix`` is required for the fixed_mix strategy and refused otherwise.
    """

    id: int
    strategy: str = "passive"
    mix: StrategyMix | None = None
    collectibles: int = 0
    activity_balance: float = 0.0
    market_balance: float = 0.0

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError("agent ids start at 1 (0 is the treasury)")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "fixed_mix" and self.mix is None:
            raise ValueError("fixed_mix strategy needs a StrategyMix")
        if self.strategy != "fixed_mix" and self.mix is not None:
            raise ValueError(f"mix is only read by the fixed_mix strategy, not {self.strategy!r}")
        if self.collectibles < 0:
            raise ValueError("genesis collectible count must be non-negative")
        if self.activity_balance < 0 or self.market_balance < 0:
            raise ValueError("initial balances must be non-negative")


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs; two runs with equal configs are identical.

    ``trait_premiums`` optionally prices newborn collectibles above the
    floor: one non-negative premium per trait value, added once per trait
    position carrying that value. Without it every newborn lists at the
    floor price.
    """

    rules: GameRules
    agents: tuple[AgentSpec, ...]
    steps: int
    seed: int = 0
    board: PriceBoard = field(default_factory=PriceBoard)
    price_update: str = "frozen"
    genesis_price: float | None = None
    trait_premiums: tuple[float, ...] | None = None
    adventure: AdventureSpec | None = None
    battle: BattleSpec | None = None
    lottery: LotterySpec | None = None

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not self.agents:
            raise ValueError("at least one agent is required")
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ValueError("agent ids must be unique")
        if sum(a.collectibles for a in self.agents) > MAX_GENESIS_COLLECTIBLES:
            raise ValueError(f"agents[].collectibles must total <= {MAX_GENESIS_COLLECTIBLES}")
        if self.steps * len(self.agents) > MAX_AGENT_TURNS:
            raise ValueError(
                f"run.steps times the number of agents must be <= {MAX_AGENT_TURNS}, "
                f"got {self.steps} steps x {len(self.agents)} agents"
            )
        if not 0 <= self.seed < MAX_SEED:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.price_update not in PRICE_UPDATES:
            raise ValueError(f"unknown price update mode {self.price_update!r}")
        genesis = self.genesis_price if self.genesis_price is not None else self.board.floor_price
        if genesis < self.board.floor_price:
            raise ValueError("genesis price may not undercut the floor price")
        if self.trait_premiums is not None:
            if len(self.trait_premiums) != self.rules.trait_alphabet:
                raise ValueError("trait_premiums needs one entry per trait value")
            if any(p < 0 for p in self.trait_premiums):
                raise ValueError("trait premiums must be non-negative")


@dataclass
class Event:
    """One state transition: who did what, with what, and how many draws it took."""

    step: int
    agent: int
    action: str
    inputs: dict
    outputs: dict
    rng_draws: int


@dataclass
class EconomySnapshot:
    """Pool values and per-agent wealth after a step."""

    step: int
    collectible_pool: float
    activity_pool: float
    market_pool: float
    total: float
    collectible_count: int
    agent_wealth: dict[int, float]


@dataclass
class SimResult:
    events: list[Event]
    snapshots: list[EconomySnapshot]
    ruined_at: dict[int, int | None]
    action_counts: dict[int, dict[str, int]]


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


@dataclass(frozen=True)
class RuinEstimate:
    """Ruin frequency over ``trials`` runs, with its binomial standard error
    and the 95% Wilson score interval [low, high] (Brown, Cai & DasGupta
    2001), which stays wide at 0 or ``trials`` ruins where stderr reads 0."""

    probability: float
    stderr: float
    trials: int
    low: float
    high: float


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval of a binomial proportion, clipped to [0, 1]."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, trials], got {successes} of {trials}")
    z2 = Z_95 * Z_95
    center = (successes + z2 / 2) / (trials + z2)
    half = Z_95 / (trials + z2) * math.sqrt(successes * (trials - successes) / trials + z2 / 4)
    return max(0.0, center - half), min(1.0, center + half)


def derive_subseed(master_seed: int, trial: int) -> int:
    """Independent per-trial seed: first 8 little-endian bytes of
    SHA-256(master_seed as 8 LE bytes || trial as 8 LE bytes)."""
    import hashlib  # only Monte Carlo callers pay for loading it

    payload = master_seed.to_bytes(8, "little") + trial.to_bytes(8, "little")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


class GameSimulation:
    """Mutable run state; use run_simulation() or stream() unless stepping manually."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.rules = config.rules
        self.rng = CountingRng(config.seed)
        self.population: dict[int, Collectible] = {}
        self.holdings: dict[int, Holdings] = {TREASURY: Holdings(TREASURY)}
        self.board = replace(
            config.board, collectible_prices=dict(config.board.collectible_prices)
        )
        self.counters = SupplyCounters()
        # Largest audited (activity, market) supply; see check_supply_conservation.
        self._supply_scale = (1.0, 1.0)
        # Genesis events, then the current step's: stream() hands the list
        # on and starts a new one after each step, ruin_probability empties it.
        self.events: list[Event] = []
        self.ruined_at: dict[int, int | None] = {a.id: None for a in config.agents}
        self.action_counts: dict[int, dict[str, int]] = {
            a.id: {"breed": 0, "battle": 0, "adventure": 0, "lottery": 0, "pass": 0}
            for a in config.agents
        }
        self._agents = sorted(config.agents, key=lambda a: a.id)
        # A balance below every entry of a cost schedule affords no breed.
        self._min_activity_cost = min(self.rules.activity_cost_schedule)
        self._min_market_cost = min(self.rules.market_cost_schedule)
        # Numeraire cost of a breed by the lead parent's breed count, with
        # BreedCost.at_index's arithmetic. The engine never writes the
        # fungible prices, so the table holds for the whole run.
        self._breed_costs = tuple(
            act * self.board.activity_price + mkt * self.board.market_price
            for act, mkt in zip(self.rules.activity_cost_schedule, self.rules.market_cost_schedule)
        )
        self._distinct_breed_costs = tuple(dict.fromkeys(self._breed_costs))
        # Each agent's collectibles with a breed charge left, in ascending id
        # order: genesis and every mint append (a new id is the largest), and
        # a parent leaves when it uses its last charge (see _do_breed).
        self._candidates: dict[int, dict[int, Collectible]] = {}
        # Valuations kept between snapshots (see the module docstring): the
        # collectible pool, None until summed or after a price rewrite, and
        # each agent's token value, absent until valued or after a change.
        self._pool: float | None = None
        self._token_value: dict[int, float] = {}
        # The distinct collectible prices, built by the first forward-drift
        # update and kept from then on (see _update_prices).
        self._distinct_prices: set[float] | None = None
        # Set by a mint or a price rewrite, genesis included: the next audit
        # runs the checks that read every token (see _check_invariants).
        self._tokens_changed = True
        self._genesis()

    # -- setup ---------------------------------------------------------

    def _genesis(self) -> None:
        genesis_price = (
            self.config.genesis_price
            if self.config.genesis_price is not None
            else self.board.floor_price
        )
        next_id = 0
        for spec in self._agents:
            h = Holdings(
                owner=spec.id,
                activity_balance=spec.activity_balance,
                market_balance=spec.market_balance,
            )
            self.holdings[spec.id] = h
            candidates = self._candidates[spec.id] = {}
            self.counters.activity_supply += spec.activity_balance
            self.counters.market_supply += spec.market_balance
            for _ in range(spec.collectibles):
                before = self.rng.draws
                traits = tuple(
                    self.rng.randrange(self.rules.trait_alphabet)
                    for _ in range(self.rules.trait_count)
                )
                token = Collectible(
                    id=next_id,
                    traits=traits,
                    parents=None,
                    breed_count=0,
                    birth_step=1 - self.rules.maturity_delay,
                )
                self.population[token.id] = token
                h.collectibles.add(token.id)
                candidates[token.id] = token
                self.board.collectible_prices[token.id] = genesis_price
                self.events.append(
                    Event(
                        step=0,
                        agent=spec.id,
                        action="genesis",
                        inputs={},
                        outputs={"collectible": token.id, "traits": list(traits)},
                        rng_draws=self.rng.draws - before,
                    )
                )
                next_id += 1
        self._check_invariants(step=0)

    # -- feasibility ---------------------------------------------------

    def _eligible_parents(self, agent_id: int, step: int) -> list[Collectible]:
        out = []
        delay = self.rules.maturity_delay
        for c in self._candidates[agent_id].values():
            if step - c.birth_step < delay:
                continue
            out.append(c)
            if len(out) >= BREED_SEARCH_WINDOW:
                break
        return out

    def _find_breeding_set(self, agent_id: int, step: int) -> list[int] | None:
        """First affordable, validly paired set in lexicographic order of
        the eligible parents, or None.

        step runs this at most once per agent turn, and only when the
        result is read: on a fixed-mix breed turn, by the ruin test when no
        adventure, battle or lottery is affordable, or by a growth maximizer
        whose breed could win (see _growth_choice). It changes no state and
        draws nothing, so skipping it changes no outcome.

        The cost depends only on the lead parent's breed count, so a lead
        the agent cannot afford is skipped before any pairing check, and an
        agent priced out of every lead is refused before the parents are
        gathered.
        """
        h = self.holdings[agent_id]
        if h.activity_balance < self._min_activity_cost or h.market_balance < self._min_market_cost:
            return None
        eligible = self._eligible_parents(agent_id, step)
        arity = self.rules.breed_arity
        if len(eligible) < arity:
            return None
        activity_costs = self.rules.activity_cost_schedule
        market_costs = self.rules.market_cost_schedule
        for i, lead in enumerate(eligible):
            k = lead.breed_count
            if h.activity_balance < activity_costs[k] or h.market_balance < market_costs[k]:
                continue
            for rest in itertools.combinations(eligible[i + 1 :], arity - 1):
                combo = [lead, *rest]
                try:
                    breeding.check_pairing(combo)
                except breeding.RestrictionViolated:
                    continue
                return [c.id for c in combo]
        return None

    def _can_adventure(self, agent_id: int) -> bool:
        spec = self.config.adventure
        return spec is not None and len(self.holdings[agent_id].collectibles) >= spec.collectibles_required

    def _can_battle(self, agent_id: int) -> bool:
        spec = self.config.battle
        return spec is not None and len(self.holdings[agent_id].collectibles) >= spec.team_size

    def _can_lottery(self, agent_id: int) -> bool:
        spec = self.config.lottery
        return spec is not None and self.holdings[agent_id].market_balance >= spec.stake

    def _list_price(self, traits: tuple[int, ...]) -> float:
        if self.config.trait_premiums is None:
            return self.board.floor_price
        return self.board.floor_price + sum(self.config.trait_premiums[t] for t in traits)

    # -- wealth --------------------------------------------------------

    def agent_wealth(self, agent_id: int) -> float:
        h = self.holdings[agent_id]
        tokens = self._token_value.get(agent_id)
        if tokens is None:
            # fsum is exactly rounded, so neither the set's iteration order
            # nor when the value was taken matters while prices and holdings
            # stay put.
            try:
                tokens = math.fsum(map(self.board.collectible_prices.__getitem__, h.collectibles))
            except KeyError as exc:
                raise MissingPriceError(exc.args[0]) from None
            self._token_value[agent_id] = tokens
        return (
            tokens
            + h.activity_balance * self.board.activity_price
            + h.market_balance * self.board.market_price
        )

    # -- actions -------------------------------------------------------

    def _do_breed(self, agent_id: int, step: int, parent_ids: list[int]) -> Event:
        h = self.holdings[agent_id]
        before = self.rng.draws
        child, cost = breeding.breed(
            parent_ids, h, self.population, self.rules, self.board, self.rng, current_step=step
        )
        if self.rules.burn_mode == "treasury":
            self.holdings[TREASURY].activity_balance += cost.activity_amount
            self.holdings[TREASURY].market_balance += cost.market_amount
        else:
            self.counters.activity_supply -= cost.activity_amount
            self.counters.market_supply -= cost.market_amount
        candidates = self._candidates[agent_id]
        for pid in parent_ids:
            if self.population[pid].breed_count == self.rules.breed_limit:
                del candidates[pid]
        candidates[child.id] = child
        price = self._list_price(child.traits)
        self.board.collectible_prices[child.id] = price
        if self._pool is not None:
            # The child's id is the largest, so its price is the sum's last term.
            self._pool += price
        if self._distinct_prices is not None:
            self._distinct_prices.add(price)
        self._token_value.pop(agent_id, None)
        self._tokens_changed = True
        return Event(
            step=step,
            agent=agent_id,
            action="breed",
            inputs={"parents": list(parent_ids)},
            outputs={
                "child": child.id,
                "traits": list(child.traits),
                "activity_cost": cost.activity_amount,
                "market_cost": cost.market_amount,
            },
            rng_draws=self.rng.draws - before,
        )

    def _do_adventure(self, agent_id: int, step: int) -> Event:
        spec = self.config.adventure
        h = self.holdings[agent_id]
        team = sorted(h.collectibles)[: spec.collectibles_required]
        before_balance = h.activity_balance
        after_balance = spec.reward_multiplier * before_balance
        minted = after_balance - before_balance
        h.activity_balance = after_balance
        self.counters.activity_supply += minted
        return Event(
            step=step,
            agent=agent_id,
            action="adventure",
            inputs={"collectibles": team, "activity_balance": before_balance},
            outputs={"activity_balance": after_balance, "activity_minted": minted},
            rng_draws=0,
        )

    def _do_battle(self, agent_id: int, step: int) -> Event:
        # Resolved at the average multiplier; no winner draw is made.
        spec = self.config.battle
        h = self.holdings[agent_id]
        team = sorted(h.collectibles)[: spec.team_size]
        before_balance = h.activity_balance
        after_balance = spec.survival_fraction * before_balance
        minted = after_balance - before_balance
        h.activity_balance = after_balance
        self.counters.activity_supply += minted
        return Event(
            step=step,
            agent=agent_id,
            action="battle",
            inputs={"team": team, "activity_balance": before_balance},
            outputs={"activity_balance": after_balance, "activity_minted": minted},
            rng_draws=0,
        )

    def _do_lottery(self, agent_id: int, step: int) -> Event:
        spec = self.config.lottery
        h = self.holdings[agent_id]
        before = self.rng.draws
        lost = self.rng.random() < spec.loss_prob
        if lost:
            h.market_balance -= spec.stake
            self.counters.market_supply -= spec.stake
            outputs = {"result": "loss", "market_burned": spec.stake}
        else:
            h.market_balance += spec.win_market_tokens
            h.activity_balance += spec.win_game_tokens
            self.counters.market_supply += spec.win_market_tokens
            self.counters.activity_supply += spec.win_game_tokens
            outputs = {
                "result": "win",
                "market_minted": spec.win_market_tokens,
                "activity_minted": spec.win_game_tokens,
            }
        return Event(
            step=step,
            agent=agent_id,
            action="lottery",
            inputs={"stake": spec.stake},
            outputs=outputs,
            rng_draws=self.rng.draws - before,
        )

    def _pass_event(self, agent_id: int, step: int) -> Event:
        return Event(step=step, agent=agent_id, action="pass", inputs={}, outputs={}, rng_draws=0)

    # -- strategy ------------------------------------------------------

    def _cycle_action(self, spec: AgentSpec, step: int) -> str:
        """A fixed-mix agent repeats a cycle of mix.breed breeds, then
        mix.battle battles, then mix.adventure adventures, one per step."""
        mix = spec.mix
        period = mix.breed + mix.battle + mix.adventure
        if not period:
            return "pass"
        i = (step - 1) % period
        if i < mix.breed:
            return "breed"
        return "battle" if i < mix.breed + mix.battle else "adventure"

    def _choose_action(
        self,
        spec: AgentSpec,
        step: int,
        cycle: str | None,
        parents: list[int] | None,
        searched: bool,
    ) -> tuple[str, list[int] | None]:
        """The turn's action and, for a breed, its parents. ``cycle`` is a
        fixed-mix agent's cycle entry, ``parents`` the turn's search result
        if ``searched``."""
        if spec.strategy == "passive":
            return "pass", None
        if spec.strategy == "thrill_seeker":
            return ("lottery" if self._can_lottery(spec.id) else "pass"), None
        if cycle is not None:
            if cycle == "breed" and parents is None:
                return "pass", None
            if cycle == "battle" and not self._can_battle(spec.id):
                return "pass", None
            if cycle == "adventure" and not self._can_adventure(spec.id):
                return "pass", None
            return cycle, parents
        return self._growth_choice(spec.id, step, parents, searched)

    def _growth_choice(
        self, agent_id: int, step: int, parents: list[int] | None, searched: bool
    ) -> tuple[str, list[int] | None]:
        """Highest expected log-wealth change at current-board averages;
        ties resolved in the order breed < battle < adventure < pass.

        Battle, adventure and pass are scored first. A breed's change is the
        floor price less its cost, so unless this turn has searched already,
        the search runs only if some entry of the cost table could still
        win. Every distinct cost is tried, so nothing assumes that log1p is
        monotone; a breed the table rules out could not have been chosen.
        """
        wealth = self.agent_wealth(agent_id)
        if wealth <= 0:
            return "pass", None
        h = self.holdings[agent_id]
        candidates: list[tuple[float, int, str]] = []
        if self._can_battle(agent_id):
            delta = (
                (self.config.battle.survival_fraction - 1.0)
                * h.activity_balance
                * self.board.activity_price
            )
            candidates.append((delta, 1, "battle"))
        if self._can_adventure(agent_id):
            delta = (
                (self.config.adventure.reward_multiplier - 1.0)
                * h.activity_balance
                * self.board.activity_price
            )
            candidates.append((delta, 2, "adventure"))
        candidates.append((0.0, 3, "pass"))

        best = None
        for delta, order, name in candidates:
            if wealth + delta <= 0:
                continue
            log_change = math.log1p(delta / wealth)
            key = (-log_change, order)
            if best is None or key < best[0]:
                best = (key, name)
        # Pass changes nothing, so it always scores and best is set. Breed
        # comes first in the tie order, so its key (-log_change, 0) beats
        # best's exactly when -log_change <= best's first entry.
        (to_beat, _), best_name = best
        floor = self.board.floor_price

        def breed_wins(cost: float) -> bool:
            delta = floor - cost
            return wealth + delta > 0 and -math.log1p(delta / wealth) <= to_beat

        if not searched:
            if not any(map(breed_wins, self._distinct_breed_costs)):
                return best_name, None
            parents = self._find_breeding_set(agent_id, step)
        if parents is not None and breed_wins(
            self._breed_costs[self.population[parents[0]].breed_count]
        ):
            return "breed", parents
        return best_name, None

    # -- stepping ------------------------------------------------------

    def _execute(
        self, agent_id: int, action: str, step: int, parents: list[int] | None
    ) -> Event:
        if action == "breed":
            return self._do_breed(agent_id, step, parents)
        if action == "battle":
            return self._do_battle(agent_id, step)
        if action == "adventure":
            return self._do_adventure(agent_id, step)
        if action == "lottery":
            return self._do_lottery(agent_id, step)
        return self._pass_event(agent_id, step)

    def step(self, step: int) -> None:
        for spec in self._agents:
            agent_id = spec.id
            cycle = self._cycle_action(spec, step) if spec.strategy == "fixed_mix" else None
            # Nothing changes state before _execute, so one search serves the
            # ruin test, the strategy and the breed itself. It runs at most
            # once: on a fixed-mix breed turn, when the ruin test finds no
            # cheaper activity affordable, or when a growth maximizer's breed
            # could win (see _growth_choice); otherwise parents stays None,
            # unread.
            searched = cycle == "breed"
            parents = self._find_breeding_set(agent_id, step) if searched else None
            if self.ruined_at[agent_id] is None and not (
                parents is not None
                or self._can_adventure(agent_id)
                or self._can_battle(agent_id)
                or self._can_lottery(agent_id)
            ):
                if not searched:
                    parents = self._find_breeding_set(agent_id, step)
                    searched = True
                if parents is None:
                    self.ruined_at[agent_id] = step
            action, parents = self._choose_action(spec, step, cycle, parents, searched)
            event = self._execute(agent_id, action, step, parents)
            self.action_counts[agent_id][event.action] += 1
            self.events.append(event)
        self._update_prices()
        self._check_invariants(step)

    def _update_prices(self) -> None:
        if self.config.price_update != "forward_drift":
            return
        cost = (
            self.rules.activity_cost_schedule[0] * self.board.activity_price
            + self.rules.market_cost_schedule[0] * self.board.market_price
        )
        d = self.rules.breed_arity
        # Each price's next value depends on that price alone, so equal
        # prices share one step, and only the distinct ones are stepped.
        prices = self.board.collectible_prices
        if self._distinct_prices is None:
            self._distinct_prices = set(prices.values())
        stepped = {
            price: breeding.forward_price_step(price, d, cost)
            for price in {*self._distinct_prices, self.board.floor_price}
        }
        # At the fixed point p* = cost every price maps to itself, so there
        # is nothing to rewrite.
        if any(new != old for old, new in stepped.items()):
            for tid, price in prices.items():
                prices[tid] = stepped[price]
            self._distinct_prices = {stepped[price] for price in self._distinct_prices}
            self._pool = None
            self._token_value.clear()
            self._tokens_changed = True
        self.board.floor_price = stepped[self.board.floor_price]

    def _check_invariants(self, step: int) -> None:
        """Audit the state after a step. Balances, supplies and prices must
        be finite, so no NaN or infinity reaches the outputs.

        Every step checks each balance, the supply counters and their
        conservation, the fungible prices and a finite positive floor: any
        action can change these. The checks that read every token (the
        ownership partition, each collectible's price, the floor against the
        lowest price, a price for exactly the minted ids) can only be
        changed by a mint or a price rewrite, so they run at step 0, after a
        step that minted or rewrote prices, and whenever an O(agents) check
        disagrees: the holdings' sizes do not sum to the population, the
        price table and the population differ in size, or a fungible price
        or the floor is not finite and positive.

        This is the whole audit of a run that takes no snapshot (see
        ruin_probability), so it also proves what a snapshot relies on:
        every minted collectible, and nothing else, has a price.
        """
        holdings = list(self.holdings.values())
        board = self.board
        prices = board.collectible_prices
        minted = len(self.population)
        read_tokens = (
            self._tokens_changed
            or len(prices) != minted
            or sum(len(h.collectibles) for h in holdings) != minted
            or not (
                0 < board.activity_price < math.inf
                and 0 < board.market_price < math.inf
                and 0 < board.floor_price < math.inf
            )
        )
        try:
            if read_tokens:
                check_ownership_partition(holdings, self.population)
            for h in holdings:
                try:
                    h.check_balances()
                except ValueError as exc:
                    last = next(
                        (e for e in reversed(self.events) if e.agent == h.owner and e.step == step),
                        None,
                    )
                    raise SimulationInvariantError(step, str(exc), h.owner, last) from exc
            self.counters.validate()
            check_supply_conservation(holdings, self.counters, scale=self._supply_scale)
            if read_tokens:
                board.validate()
                if prices.keys() != self.population.keys():
                    unpriced = sorted(self.population.keys() - prices.keys())
                    unminted = sorted(prices.keys() - self.population.keys())
                    raise ValueError(
                        f"priced collectibles differ from minted ones: no price for "
                        f"{unpriced[:5]}, price for unminted {unminted[:5]}"
                    )
        except ValueError as exc:
            raise SimulationInvariantError(step, str(exc)) from exc
        self._tokens_changed = False
        self._supply_scale = (
            max(self._supply_scale[0], self.counters.activity_supply),
            max(self._supply_scale[1], self.counters.market_supply),
        )

    def stream(self) -> Iterator[tuple[list[Event], EconomySnapshot]]:
        """Run every configured step, yielding (events, snapshot) after each.

        The first pair is the genesis events with the step-0 snapshot. A
        yielded event list is never touched again, and the run keeps no
        reference to it, so memory stays flat however many steps run.
        """
        for step in range(self.config.steps + 1):
            if step:
                self.step(step)
            yield self.events, self.snapshot(step)
            self.events = []

    def snapshot(self, step: int) -> EconomySnapshot:
        if self._pool is None:
            # collectible_pool_value's sum without its checks: the audit before
            # every snapshot proved that the holdings partition the population
            # and that exactly its ids are priced, and population ids ascend.
            self._pool = functools.reduce(
                operator.add, map(self.board.collectible_prices.__getitem__, self.population), 0.0
            )
        phi = self._pool
        psi, omega = fungible_pool_values(self.counters, self.board)
        try:
            # A finite total bounds every agent's wealth, so that is finite too.
            total = total_value(phi, psi, omega)
        except ValueError as exc:
            raise SimulationInvariantError(step, str(exc)) from exc
        return EconomySnapshot(
            step=step,
            collectible_pool=phi,
            activity_pool=psi,
            market_pool=omega,
            total=total,
            collectible_count=len(self.population),
            agent_wealth={a.id: self.agent_wealth(a.id) for a in self._agents},
        )


def run_simulation(config: SimConfig) -> SimResult:
    """Run the configured scenario; equal (config, seed) yields identical results."""
    sim = GameSimulation(config)
    events: list[Event] = []
    snapshots: list[EconomySnapshot] = []
    for step_events, snapshot in sim.stream():
        events.extend(step_events)
        snapshots.append(snapshot)
    return SimResult(
        events=events,
        snapshots=snapshots,
        ruined_at=sim.ruined_at,
        action_counts=sim.action_counts,
    )


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


def ruin_probability(config: SimConfig, agent: int, trials: int) -> RuinEstimate:
    """Monte Carlo probability that the agent is priced out of every activity
    before the horizon, with its binomial standard error and 95% Wilson
    score interval.

    Trials run under independent sub-seeds derived from the master seed (see
    derive_subseed), so the estimate is reproducible and the trials may be
    evaluated in any order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if agent not in {a.id for a in config.agents}:
        raise ValueError(f"no agent with id {agent}")
    ruined = 0
    for trial in range(trials):
        # Only ruined_at is read, so no snapshot is taken and each step's
        # events are dropped; the per-step audit still runs in full.
        sim = GameSimulation(replace(config, seed=derive_subseed(config.seed, trial)))
        for step in range(1, config.steps + 1):
            sim.events.clear()
            sim.step(step)
        if sim.ruined_at[agent] is not None:
            ruined += 1
    estimate = ruined / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    low, high = wilson_interval(ruined, trials)
    return RuinEstimate(probability=estimate, stderr=stderr, trials=trials, low=low, high=high)
