"""Seed-deterministic, time-stepped game simulation and Monte Carlo ruin.

One run owns a single counting generator; agents act in ascending id order
within each step and every state transition is recorded as an event, so
identical (config, seed) pairs reproduce byte-identical histories.
GameSimulation.stream hands each step's events and snapshot to its caller
as the run goes, so a caller that writes them out keeps nothing.
A step costs what it changed. _do_breed and _update_prices write one
change record per step: the ids minted, with their minters, and whether
prices were rewritten (genesis counts as a rewrite). The audit reads it to
choose its checks, then hands it to the kept valuations (_take_changes):
- The collectible pool, summed only by a snapshot as one naive left-to-right
  sum in ascending id order (not builtin sum, which compensates from Python
  3.12 on), is extended by each minted price, the largest id being the last
  term; a rewrite makes the next snapshot sum the population again.
- Each agent's token value, an exactly rounded math.fsum, is kept until the
  agent mints or prices are rewritten.
Kept values equal fresh ones bit for bit.
The audit's fixed part is one pass over the holdings, a tuple built after
genesis since no owner joins later: it sums their sizes and both balances
and tests each balance. The supply sums are naive loops, tested by
economy.check_supply_sums, the test check_supply_conservation applies to
builtin sums, which compensate from Python 3.12 on. Over non-negative
balances the two sums differ by a few ulps, far inside the 1e-9 tolerance,
and the audit only passes or raises, so no output byte depends on the
choice. The checks that read every token (the ownership partition, each
price, the floor against the lowest price, a price for exactly the minted
ids) run at step 0, after a step whose record holds a mint or a rewrite,
and when an O(agents) size check disagrees.
The forward-drift update keeps the set of distinct collectible prices and
steps only those. forward_price_step is pure, so once an update moves no
price, the next ones do nothing until a newborn lists at a price outside
the kept set: at the fixed point a step at rest costs O(agents) in all.
A turn does its work once. Each agent's turn record (its id, spec,
holdings, action counts and strategy's choice) and what each activity needs
(an adventure's or a battle's team size, the lottery stake, inf for an
absent activity) are built once per run, so a turn dispatches on no
strategy name and the ruin test reads two thresholds. The breeding search
runs at most once per agent turn, and only where its result is read: when
the ruin test finds nothing cheaper affordable, on a fixed-mix breed turn,
or when a growth maximizer's breed could still win: it scores battle,
adventure and pass in place, in its tie order, then tries each distinct
breed cost. The search and each play's team walk the agent's holding,
kept in ascending id order because genesis and each mint append the new
largest id, so nothing is sorted and the search skips a spent token as it
skips an immature one. A breed is proven once, by the search: it tests
pairs with breeding.can_pair, a bool, so a refused pair raises nothing,
and the set it finds passes every check of breeding.check_breed, so the
engine mints it with breeding.mint without checking it again. Breeds are
priced from a table of breeding.BreedCost built once per run, as the
engine never writes the fungible prices. Each
turn's event and each newborn are built positionally, and a snapshot
values every agent in one pass over the turn records. Adventures, battles and
lotteries settle through activities.scale_balance and
activities.lottery_deltas; the engine holds no payoff arithmetic of its own
beyond the growth maximizer's score.
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

from . import activities, breeding
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
    check_supply_sums,
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

# Standard normal 97.5% quantile, the z of a 95% interval.
Z_95 = 1.959963984540054

# A turn's breeding-search result before the turn has searched.
NOT_SEARCHED = object()


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
    floor price. A refused config's message names the scenario key at fault.
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
            raise ValueError("run.steps must be >= 1")
        if not self.agents:
            raise ValueError("agents must list at least one agent")
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ValueError("agents[].id must be unique")
        if sum(a.collectibles for a in self.agents) > MAX_GENESIS_COLLECTIBLES:
            raise ValueError(f"agents[].collectibles must total <= {MAX_GENESIS_COLLECTIBLES}")
        if self.steps * len(self.agents) > MAX_AGENT_TURNS:
            raise ValueError(
                f"run.steps times the number of agents must be <= {MAX_AGENT_TURNS}, "
                f"got {self.steps} steps x {len(self.agents)} agents"
            )
        if not 0 <= self.seed < MAX_SEED:
            raise ValueError("run.seed must fit in 64 unsigned bits")
        if self.price_update not in PRICE_UPDATES:
            raise ValueError(
                f"run.price_update must be one of {', '.join(PRICE_UPDATES)}, "
                f"got {self.price_update!r}"
            )
        if self.board.collectible_prices:
            raise ValueError(
                "board.collectible_prices must be empty: genesis prices every collectible"
            )
        genesis = self.genesis_price if self.genesis_price is not None else self.board.floor_price
        if genesis < self.board.floor_price:
            raise ValueError("run.board.genesis_price may not undercut the floor price")
        if self.trait_premiums is not None:
            if len(self.trait_premiums) != self.rules.trait_alphabet:
                raise ValueError("run.trait_premiums needs one entry per trait value")
            if any(p < 0 for p in self.trait_premiums):
                raise ValueError("run.trait_premiums entries must be non-negative")


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
        self.board = replace(config.board, collectible_prices={})
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
        # The cost of a breed by the lead parent's breed count, and its
        # numeraire total. The engine never writes the fungible prices, so
        # the table holds for the whole run.
        self._breed_table = tuple(
            breeding.BreedCost.at_index(self.rules, k, self.board)
            for k in range(self.rules.breed_limit)
        )
        self._breed_costs = tuple(cost.numeraire_total for cost in self._breed_table)
        self._distinct_breed_costs = tuple(dict.fromkeys(self._breed_costs))
        # Valuations kept between snapshots (see _take_changes): the
        # collectible pool, None until summed or after a price rewrite, and
        # each agent's token value, absent until valued or after a change.
        self._pool: float | None = None
        self._token_value: dict[int, float] = {}
        # The distinct collectible prices, built by the first forward-drift
        # update and kept from then on, and whether the last update moved
        # no price (see _update_prices).
        self._distinct_prices: set[float] | None = None
        self._prices_fixed = False
        # The step's change record: each id minted since the last audit with
        # its minter, and whether prices were rewritten. Genesis counts as a
        # rewrite, so step 0 runs every check.
        self._minted: dict[int, int] = {}
        self._rewritten = True
        # What each activity needs, inf where it is absent: collectibles to
        # adventure or battle with, and a market balance to stake.
        self._adventure_team = (
            math.inf if config.adventure is None else config.adventure.collectibles_required
        )
        self._battle_team = math.inf if config.battle is None else config.battle.team_size
        self._stake = math.inf if config.lottery is None else config.lottery.stake
        self._genesis()
        # One turn record per agent, in id order: what step reads of the
        # agent on every turn, and its strategy's choice.
        cls = type(self)
        choices = {
            "passive": cls._pass_choice,
            "fixed_mix": cls._cycle_choice,
            "growth_maximizer": cls._growth_choice,
            "thrill_seeker": cls._lottery_choice,
        }
        self._turns = tuple(
            (a.id, a, self.holdings[a.id], self.action_counts[a.id], choices[a.strategy])
            for a in self._agents
        )

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
            self.counters.activity_supply += spec.activity_balance
            self.counters.market_supply += spec.market_balance
            for _ in range(spec.collectibles):
                before = self.rng.draws
                traits = tuple(
                    self.rng.randrange(self.rules.trait_alphabet)
                    for _ in range(self.rules.trait_count)
                )
                token = Collectible(next_id, traits, None, 0, 1 - self.rules.maturity_delay)
                self.population[next_id] = token
                h.collectibles[next_id] = token
                self.board.collectible_prices[next_id] = genesis_price
                self.events.append(
                    Event(
                        0,
                        spec.id,
                        "genesis",
                        {},
                        {"collectible": next_id, "traits": list(traits)},
                        self.rng.draws - before,
                    )
                )
                next_id += 1
        # No owner joins after genesis, so the audit walks this tuple.
        self._holdings = tuple(self.holdings.values())
        self._check_invariants(step=0)

    # -- feasibility ---------------------------------------------------

    def _eligible_parents(self, agent_id: int, step: int) -> list[Collectible]:
        out = []
        delay = self.rules.maturity_delay
        limit = self.rules.breed_limit
        for c in self.holdings[agent_id].collectibles.values():
            if c.breed_count >= limit or step - c.birth_step < delay:
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
        gathered. Pairs are tested with breeding.can_pair, so a refused pair
        raises nothing. A set this returns passes breeding.check_breed at
        this step (see _do_breed).
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
                combo = (lead, *rest)
                if all(itertools.starmap(breeding.can_pair, itertools.combinations(combo, 2))):
                    return [c.id for c in combo]
        return None

    def _can_adventure(self, agent_id: int) -> bool:
        return len(self.holdings[agent_id].collectibles) >= self._adventure_team

    def _can_battle(self, agent_id: int) -> bool:
        return len(self.holdings[agent_id].collectibles) >= self._battle_team

    def _can_lottery(self, agent_id: int) -> bool:
        return self.holdings[agent_id].market_balance >= self._stake

    def _list_price(self, traits: tuple[int, ...]) -> float:
        if self.config.trait_premiums is None:
            return self.board.floor_price
        # Added left to right, as builtin sum added floats before Python
        # 3.12 (it compensates from then on), so a newborn's price and the
        # outputs do not depend on the interpreter.
        premium = functools.reduce(
            operator.add, map(self.config.trait_premiums.__getitem__, traits), 0
        )
        return self.board.floor_price + premium

    # -- wealth --------------------------------------------------------

    def _value_tokens(self, agent_id: int, h: Holdings) -> float:
        """Sum the agent's token prices and keep the sum (see _token_value)."""
        # fsum is exactly rounded, so neither the holding's order nor
        # when the value was taken matters while prices and holdings stay put.
        try:
            tokens = math.fsum(map(self.board.collectible_prices.__getitem__, h.collectibles))
        except KeyError as exc:
            raise MissingPriceError(exc.args[0]) from None
        self._token_value[agent_id] = tokens
        return tokens

    def agent_wealth(self, agent_id: int) -> float:
        h = self.holdings[agent_id]
        tokens = self._token_value.get(agent_id)
        if tokens is None:
            tokens = self._value_tokens(agent_id, h)
        return (
            tokens
            + h.activity_balance * self.board.activity_price
            + h.market_balance * self.board.market_price
        )

    # -- actions -------------------------------------------------------

    def _do_breed(self, agent_id: int, step: int, parent_ids: list[int]) -> Event:
        """Mint the set _find_breeding_set found this turn. The search proved
        every check of breeding.check_breed (ownership, arity, pairing,
        charges, maturity, balances), and nothing changed state since, so
        the breed is minted at the table's cost without checking it again."""
        h = self.holdings[agent_id]
        population = self.population
        rng = self.rng
        before = rng.draws
        cost = self._breed_table[population[parent_ids[0]].breed_count]
        child = breeding.mint(parent_ids, h, population, self.rules, cost, rng, step)
        if self.rules.burn_mode == "treasury":
            self.holdings[TREASURY].activity_balance += cost.activity_amount
            self.holdings[TREASURY].market_balance += cost.market_amount
        else:
            self.counters.activity_supply -= cost.activity_amount
            self.counters.market_supply -= cost.market_amount
        self.board.collectible_prices[child.id] = self._list_price(child.traits)
        self._minted[child.id] = agent_id
        return Event(
            step,
            agent_id,
            "breed",
            {"parents": list(parent_ids)},
            {
                "child": child.id,
                "traits": list(child.traits),
                "activity_cost": cost.activity_amount,
                "market_cost": cost.market_amount,
            },
            rng.draws - before,
        )

    def _do_scaled(
        self,
        agent_id: int,
        step: int,
        action: str,
        team_key: str,
        team_size: int,
        multiplier: float,
    ) -> Event:
        """An adventure or a battle: deploy the team, scale the committed
        activity balance. Resolved at the average multiplier, so no draw is made."""
        h = self.holdings[agent_id]
        team = list(itertools.islice(h.collectibles, team_size))
        before_balance = h.activity_balance
        after_balance, minted = activities.scale_balance(multiplier, before_balance)
        h.activity_balance = after_balance
        self.counters.activity_supply += minted
        return Event(
            step,
            agent_id,
            action,
            {team_key: team, "activity_balance": before_balance},
            {"activity_balance": after_balance, "activity_minted": minted},
            0,
        )

    def _do_lottery(self, agent_id: int, step: int) -> Event:
        spec = self.config.lottery
        h = self.holdings[agent_id]
        before = self.rng.draws
        lost = self.rng.random() < spec.loss_prob
        activity, market = activities.lottery_deltas(spec, lost)
        h.market_balance += market
        h.activity_balance += activity
        self.counters.market_supply += market
        self.counters.activity_supply += activity
        if lost:
            outputs = {"result": "loss", "market_burned": -market}
        else:
            outputs = {"result": "win", "market_minted": market, "activity_minted": activity}
        return Event(
            step, agent_id, "lottery", {"stake": spec.stake}, outputs, self.rng.draws - before
        )

    def _pass_event(self, agent_id: int, step: int) -> Event:
        return Event(step, agent_id, "pass", {}, {}, 0)

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

    # Each strategy's choice of the turn's action and, for a breed, its
    # parents. ``parents`` is the turn's search result, or NOT_SEARCHED if
    # the ruin test did not search.

    def _pass_choice(self, spec: AgentSpec, step: int, parents) -> tuple[str, None]:
        return "pass", None

    def _lottery_choice(self, spec: AgentSpec, step: int, parents) -> tuple[str, None]:
        return ("lottery" if self._can_lottery(spec.id) else "pass"), None

    def _cycle_choice(self, spec: AgentSpec, step: int, parents) -> tuple[str, list[int] | None]:
        """The cycle's entry if the agent can afford it, else pass."""
        action = self._cycle_action(spec, step)
        if action == "breed":
            if parents is NOT_SEARCHED:
                parents = self._find_breeding_set(spec.id, step)
            return ("pass", None) if parents is None else ("breed", parents)
        if action == "battle" and not self._can_battle(spec.id):
            return "pass", None
        if action == "adventure" and not self._can_adventure(spec.id):
            return "pass", None
        return action, None

    def _growth_choice(self, spec: AgentSpec, step: int, parents) -> tuple[str, list[int] | None]:
        """Highest expected log-wealth change at current-board averages;
        ties resolved in the order breed < battle < adventure < pass.

        Battle, adventure and pass are scored first. A breed's change is the
        floor price less its cost, so unless this turn has searched already,
        the search runs only if some entry of the cost table could still
        win. Every distinct cost is tried, so nothing assumes that log1p is
        monotone; a breed the table rules out could not have been chosen.
        """
        agent_id = spec.id
        wealth = self.agent_wealth(agent_id)
        if wealth <= 0:
            return "pass", None
        h = self.holdings[agent_id]
        held = len(h.collectibles)
        balance = h.activity_balance
        price = self.board.activity_price
        # Scored in the tie order, so a later action replaces the best only
        # if it scores strictly lower.
        best = None
        if held >= self._battle_team:
            delta = (self.config.battle.survival_fraction - 1.0) * balance * price
            if not (wealth + delta <= 0):
                best, to_beat = "battle", -math.log1p(delta / wealth)
        if held >= self._adventure_team:
            delta = (self.config.adventure.reward_multiplier - 1.0) * balance * price
            if not (wealth + delta <= 0):
                score = -math.log1p(delta / wealth)
                if best is None or score < to_beat:
                    best, to_beat = "adventure", score
        # Pass changes nothing, so it scores -log1p(0.0) = -0.0.
        if best is None or 0.0 < to_beat:
            best, to_beat = "pass", -0.0
        # A breed comes first in the tie order, so it wins when its score is
        # at most to_beat.
        floor = self.board.floor_price
        if parents is NOT_SEARCHED:
            for cost in self._distinct_breed_costs:
                delta = floor - cost
                if wealth + delta > 0 and -math.log1p(delta / wealth) <= to_beat:
                    break
            else:
                return best, None
            parents = self._find_breeding_set(agent_id, step)
        if parents is not None:
            delta = floor - self._breed_costs[self.population[parents[0]].breed_count]
            if wealth + delta > 0 and -math.log1p(delta / wealth) <= to_beat:
                return "breed", parents
        return best, None

    # -- stepping ------------------------------------------------------

    def _execute(
        self, agent_id: int, action: str, step: int, parents: list[int] | None
    ) -> Event:
        if action == "breed":
            return self._do_breed(agent_id, step, parents)
        if action == "battle":
            spec = self.config.battle
            return self._do_scaled(
                agent_id, step, "battle", "team", spec.team_size, spec.survival_fraction
            )
        if action == "adventure":
            spec = self.config.adventure
            return self._do_scaled(
                agent_id, step, "adventure", "collectibles",
                spec.collectibles_required, spec.reward_multiplier,
            )
        if action == "lottery":
            return self._do_lottery(agent_id, step)
        return self._pass_event(agent_id, step)

    def step(self, step: int) -> None:
        events = self.events
        ruined_at = self.ruined_at
        team = min(self._adventure_team, self._battle_team)
        stake = self._stake
        for agent_id, spec, h, counts, choose in self._turns:
            # Nothing changes state before _execute, so one search serves the
            # ruin test, the choice and the breed itself. It runs at most
            # once: when the ruin test finds no adventure, battle or lottery
            # affordable, on a fixed-mix breed turn, or when a growth
            # maximizer's breed could win (see _growth_choice).
            parents = NOT_SEARCHED
            if ruined_at[agent_id] is None and not (
                len(h.collectibles) >= team or h.market_balance >= stake
            ):
                parents = self._find_breeding_set(agent_id, step)
                if parents is None:
                    ruined_at[agent_id] = step
            action, parents = choose(self, spec, step, parents)
            events.append(self._execute(agent_id, action, step, parents))
            counts[action] += 1
        self._update_prices()
        self._check_invariants(step)

    def _update_prices(self) -> None:
        if self.config.price_update != "forward_drift":
            return
        prices = self.board.collectible_prices
        distinct = self._distinct_prices
        if distinct is None:
            distinct = self._distinct_prices = set(prices.values())
        else:
            known = len(distinct)
            distinct.update(map(prices.__getitem__, self._minted))
            # forward_price_step is pure: if the last update moved no price
            # and no newborn since listed outside the kept set, every price
            # and the floor would map to themselves again.
            if self._prices_fixed and len(distinct) == known:
                return
        cost = self._breed_costs[0]
        d = self.rules.breed_arity
        # Each price's next value depends on that price alone, so equal
        # prices share one step, and only the distinct ones are stepped.
        stepped = {
            price: breeding.forward_price_step(price, d, cost)
            for price in {*distinct, self.board.floor_price}
        }
        # At the fixed point p* = cost every price maps to itself, so there
        # is nothing to rewrite.
        moved = any(new != old for old, new in stepped.items())
        if moved:
            for tid, price in prices.items():
                prices[tid] = stepped[price]
            self._distinct_prices = {stepped[price] for price in distinct}
            self._rewritten = True
        self._prices_fixed = not moved
        self.board.floor_price = stepped[self.board.floor_price]

    def _check_invariants(self, step: int) -> None:
        """Audit the state after a step, then apply the step's change record
        to the kept valuations (see _take_changes). Balances, supplies and
        prices must be finite, so no NaN or infinity reaches the outputs.

        Every step checks each balance, the supply counters and their
        conservation, the fungible prices and a finite positive floor: any
        action can change these. The checks that read every token (the
        ownership partition, each collectible's price, the floor against the
        lowest price, a price for exactly the minted ids) can only be
        changed by a mint or a price rewrite, so they run at step 0, after a
        step whose change record holds either, and whenever an O(agents)
        check disagrees: the holdings' sizes do not sum to the population,
        the price table and the population differ in size, or a fungible
        price or the floor is not finite and positive.

        One pass over the holdings sums their sizes and both balances and
        tests each balance as Holdings.check_balances does; that check runs,
        in owner order, only when the pass finds a bad balance, to name the
        owner. The balance sums go to check_supply_sums.

        This is the whole audit of a run that takes no snapshot (see
        ruin_probability), so it also proves what a snapshot relies on:
        every minted collectible, and nothing else, has a price.
        """
        holdings = self._holdings
        held = 0
        activity = market = 0.0
        balances_ok = True
        for h in holdings:
            a, m = h.activity_balance, h.market_balance
            held += len(h.collectibles)
            activity += a
            market += m
            if not (0 <= a < math.inf and 0 <= m < math.inf):
                balances_ok = False
        board = self.board
        prices = board.collectible_prices
        minted = len(self.population)
        changed = self._minted or self._rewritten
        read_tokens = (
            changed
            or len(prices) != minted
            or held != minted
            or not (
                0 < board.activity_price < math.inf
                and 0 < board.market_price < math.inf
                and 0 < board.floor_price < math.inf
            )
        )
        try:
            if read_tokens:
                check_ownership_partition(holdings, self.population)
            if not balances_ok:
                for h in holdings:
                    try:
                        h.check_balances()
                    except ValueError as exc:
                        last = next(
                            (
                                e
                                for e in reversed(self.events)
                                if e.agent == h.owner and e.step == step
                            ),
                            None,
                        )
                        raise SimulationInvariantError(step, str(exc), h.owner, last) from exc
            self.counters.validate()
            check_supply_sums(activity, market, self.counters, scale=self._supply_scale)
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
        self._supply_scale = (
            max(self._supply_scale[0], self.counters.activity_supply),
            max(self._supply_scale[1], self.counters.market_supply),
        )
        if changed:
            self._take_changes()

    def _take_changes(self) -> None:
        """Apply the step's change record to the kept valuations, then start
        a new record. A rewrite drops the pool sum and every token value.
        Otherwise each minted id, in ascending order, extends the pool sum as
        its last term and drops its minter's token value. No agent values its
        own tokens after it breeds in a step, so the record can wait for the
        audit."""
        if self._rewritten:
            self._pool = None
            self._token_value.clear()
            self._rewritten = False
        else:
            prices = self.board.collectible_prices
            kept = self._token_value
            for tid, agent_id in self._minted.items():
                kept.pop(agent_id, None)
                if self._pool is not None:
                    self._pool += prices[tid]
        self._minted = {}

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
            # The sum needs no checks of its own: the audit before every
            # snapshot proved that the holdings partition the population and
            # that exactly its ids are priced, and population ids ascend.
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
        # Every agent valued as agent_wealth does, in one pass over the turn
        # records, with the same kept token values.
        activity_price = self.board.activity_price
        market_price = self.board.market_price
        kept = self._token_value
        wealth = {}
        for agent_id, _, h, _, _ in self._turns:
            tokens = kept.get(agent_id)
            if tokens is None:
                tokens = self._value_tokens(agent_id, h)
            wealth[agent_id] = (
                tokens + h.activity_balance * activity_price + h.market_balance * market_price
            )
        return EconomySnapshot(step, phi, psi, omega, total, len(self.population), wealth)


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
