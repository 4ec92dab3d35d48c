"""Seed-deterministic, time-stepped game simulation and Monte Carlo ruin.

One run owns a single random.Random: genesis draws each token's traits from
it, a lottery its outcome and a breed its child's traits; an event's
rng_draws is a constant of its action (trait_count for a genesis token, 1
for a lottery, 2 * trait_count for a breed, 0 otherwise). Agents act in
ascending id order within each step and every state transition is recorded
as one event, so identical (config, seed) pairs reproduce byte-identical
histories. GameSimulation.stream hands each step's events and snapshot to
its caller as the run goes, so a caller that writes them out keeps nothing.
Monte Carlo trials run under independent sub-seeds derived from the master
seed (see derive_subseed).
"""
from __future__ import annotations

import functools
import itertools
import json
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
    PriceBoard,
    SupplyCounters,
    check_listed_prices,
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
            raise ValueError(
                f"strategy must be one of {', '.join(STRATEGIES)}, got {self.strategy!r}"
            )
        if self.strategy == "fixed_mix" and self.mix is None:
            raise ValueError("fixed_mix strategy needs a StrategyMix")
        if self.strategy != "fixed_mix" and self.mix is not None:
            raise ValueError(f"mix is only read by the fixed_mix strategy, not {self.strategy!r}")
        if self.collectibles < 0:
            raise ValueError("collectibles must be non-negative")
        activities.refuse_non_finite(self, "activity_balance", "market_balance")
        if self.activity_balance < 0:
            raise ValueError("activity_balance must be non-negative")
        if self.market_balance < 0:
            raise ValueError("market_balance must be non-negative")


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs; two runs with equal configs are identical.

    ``trait_premiums`` optionally prices newborn collectibles above the
    floor: one non-negative premium per trait value, added once per trait
    position carrying that value. Without it every newborn lists at the
    floor price. A refused config's message names the scenario key at fault.
    ``agents`` and ``trait_premiums`` are kept as tuples, whatever sequence
    the caller passes, so a config cannot change once checked and hashes.
    """

    rules: GameRules
    agents: tuple[AgentSpec, ...]
    steps: int
    seed: int = 0
    board: PriceBoard = field(default_factory=PriceBoard)
    price_update: str = "frozen"
    trait_premiums: tuple[float, ...] | None = None
    adventure: AdventureSpec | None = None
    battle: BattleSpec | None = None
    lottery: LotterySpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(self.agents))
        if self.trait_premiums is not None:
            object.__setattr__(self, "trait_premiums", tuple(self.trait_premiums))
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
        if self.trait_premiums is not None:
            if len(self.trait_premiums) != self.rules.trait_alphabet:
                raise ValueError("run.trait_premiums needs one entry per trait value")
            if not all(map(math.isfinite, self.trait_premiums)):
                raise ValueError("run.trait_premiums entries must be finite")
            if any(p < 0 for p in self.trait_premiums):
                raise ValueError("run.trait_premiums entries must be non-negative")


def join_ids(ids) -> str:
    """A list or tuple of int ids as the text between a json array's brackets."""
    return ",".join(map(str, ids))


def _scaled(action: str, team_key: str):
    """An adventure's or a battle's line, its team under ``team_key``."""

    def render(ev, num, ids) -> str:
        team, before, after, minted = ev.payload
        return (
            f'{{"step":{ev.step},"agent":{ev.agent},"action":"{action}",'
            f'"inputs":{{"{team_key}":[{ids(team)}],"activity_balance":{num(before)}}},'
            f'"outputs":{{"activity_balance":{num(after)},"activity_minted":{num(minted)}}},'
            f'"rng_draws":{ev.rng_draws}}}\n'
        )

    return render


def _lottery(ev, num, ids) -> str:
    stake, lost, market, activity = ev.payload
    if lost:
        outputs = f'"result":"loss","market_burned":{num(-market)}'
    else:
        outputs = f'"result":"win","market_minted":{num(market)},"activity_minted":{num(activity)}'
    return (
        f'{{"step":{ev.step},"agent":{ev.agent},"action":"lottery",'
        f'"inputs":{{"stake":{num(stake)}}},"outputs":{{{outputs}}},"rng_draws":{ev.rng_draws}}}\n'
    )


def _breed(ev, num, ids) -> str:
    parents, child, traits, activity_cost, market_cost = ev.payload
    return (
        f'{{"step":{ev.step},"agent":{ev.agent},"action":"breed",'
        f'"inputs":{{"parents":[{join_ids(parents)}]}},'
        f'"outputs":{{"child":{child},"traits":[{join_ids(traits)}],'
        f'"activity_cost":{num(activity_cost)},"market_cost":{num(market_cost)}}},'
        f'"rng_draws":{ev.rng_draws}}}\n'
    )


# The line schemas, written once: each action's events.jsonl line, newline
# included, from its Event in one call, render(event, num, ids). The payload
# tuple is taken in the order shown. ``ids`` spells an adventure's or a
# battle's team, list or tuple; traits and parents seldom repeat, so they
# are spelled by join_ids itself. ``num`` spells every other number but the
# ids.
PAYLOADS = {
    "genesis": lambda ev, num, ids: (
        f'{{"step":{ev.step},"agent":{ev.agent},"action":"genesis","inputs":{{}},'
        f'"outputs":{{"collectible":{ev.payload[0]},"traits":[{join_ids(ev.payload[1])}]}},'
        f'"rng_draws":{ev.rng_draws}}}\n'
    ),
    "breed": _breed,
    "battle": _scaled("battle", "team"),
    "adventure": _scaled("adventure", "collectibles"),
    "lottery": _lottery,
    "pass": lambda ev, num, ids: (
        f'{{"step":{ev.step},"agent":{ev.agent},"action":"pass","inputs":{{}},"outputs":{{}},'
        f'"rng_draws":{ev.rng_draws}}}\n'
    ),
}


@dataclass
class Event:
    """One state transition: who did what, with what, and how many draws it took.

    ``payload`` holds the action's values in the order its PAYLOADS entry
    takes them. Text is rendered only when asked for, so a run that drops
    its events (ruin_probability) renders none.
    """

    step: int
    agent: int
    action: str
    payload: tuple
    rng_draws: int

    def line(self, num=repr) -> str:
        """The event's events.jsonl line, without the newline, from its
        PAYLOADS entry.

        For ints and finite floats repr writes what json writes, so the line
        is json.dumps(self.as_dict(), separators=(",", ":")); the audit
        refuses a non-finite value before a step's events are handed on.
        ``num`` spells every payload number but the ids; it may be any
        function that gives repr's text. The writer calls the entry itself,
        with its memo of float and team text (see cli._write_outputs).
        """
        return PAYLOADS[self.action](self, num, join_ids)[:-1]

    def as_dict(self) -> dict:
        """The event as json reads its line back. Numbers are spelled by
        json.dumps here, so an event the audit refused, with an infinite
        balance, still has a view, and json.dumps writes that as Infinity."""
        return json.loads(self.line(json.dumps))


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


def _fsum(prices) -> float:
    """math.fsum of prices, or inf where it overflows, as a naive sum reads."""
    try:
        return math.fsum(prices)
    except OverflowError:
        return math.inf


def derive_subseed(master_seed: int, trial: int) -> int:
    """Independent per-trial seed: first 8 little-endian bytes of
    SHA-256(master_seed as 8 LE bytes || trial as 8 LE bytes)."""
    import hashlib  # only Monte Carlo callers pay for loading it

    payload = master_seed.to_bytes(8, "little") + trial.to_bytes(8, "little")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


class GameSimulation:
    """Mutable run state; use run_simulation() or stream() unless stepping manually."""

    def __init__(self, config: SimConfig):
        # Each table built here from a config value has a bound: the breed
        # table breeding.MAX_BREED_LIMIT, genesis MAX_GENESIS_COLLECTIBLES
        # tokens, and the parent pairs BREED_SEARCH_WINDOW.
        self.config = config
        self.rules = config.rules
        self.rng = random.Random(config.seed)
        self.population: dict[int, Collectible] = {}
        self.holdings: dict[int, Holdings] = {TREASURY: Holdings(TREASURY)}
        # The config's board is a value and holds the fungible prices; the
        # run owns each collectible's price and the floor, which
        # forward_drift moves.
        self.board = config.board
        self.prices: dict[int, float] = {}
        self.floor = config.board.floor_price
        self.counters = SupplyCounters()
        # Largest audited (activity, market) supply; see check_supply_sums.
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
        # numeraire total. The fungible prices are the board's, a frozen
        # value, so the table holds for the whole run.
        self._breed_table = tuple(
            breeding.BreedCost.at_index(self.rules, k, self.board)
            for k in range(self.rules.breed_limit)
        )
        self._breed_costs = tuple(cost.numeraire_total for cost in self._breed_table)
        self._distinct_breed_costs = tuple(sorted(set(self._breed_costs)))
        # The index pairs a breeding set's pairing test walks, in order, and
        # those among a lead row's fixed parents (see _find_breeding_set). A
        # set is drawn from at most BREED_SEARCH_WINDOW eligible parents.
        arity = min(self.rules.breed_arity, BREED_SEARCH_WINDOW)
        self._parent_pairs = tuple(itertools.combinations(range(arity), 2))
        self._lead_pairs = tuple(itertools.combinations(range(arity - 1), 2))
        # Each agent's token value, kept between snapshots (see
        # _take_changes): absent until valued or after a change.
        self._token_value: dict[int, float] = {}
        # The price classes: each distinct collectible price with the ids
        # listed at it, built by the first forward-drift update and kept
        # from then on, and whether the last update moved no price (see
        # _update_prices).
        self._price_classes: dict[float, list[int]] | None = None
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
        # agent on every turn, and its strategy's choice, so a turn
        # dispatches on no strategy name. The choice is a function, not a
        # bound method, so a dropped run is freed at once (ruin_probability
        # drops one per trial).
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
        # Each agent's adventure and battle team, kept from its first play
        # of that kind (see _do_scaled).
        self._kept_adventure_teams: dict[int, tuple[int, ...]] = {}
        self._kept_battle_teams: dict[int, tuple[int, ...]] = {}

    # -- setup ---------------------------------------------------------

    def _genesis(self) -> None:
        genesis_price = self.floor if self.board.genesis_price is None else self.board.genesis_price
        # Each trait is drawn as breeding.mint draws one, by
        # random.Random.randrange's own rule, so a seed gives the traits
        # randrange would.
        alphabet, trait_count = self.rules.trait_alphabet, self.rules.trait_count
        bits, alphabet_bits = self.rng.getrandbits, alphabet.bit_length()
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
                drawn = []
                while len(drawn) < trait_count:
                    r = bits(alphabet_bits)
                    if r < alphabet:
                        drawn.append(r)
                traits = tuple(drawn)
                token = Collectible(next_id, traits, None, 0, 1 - self.rules.maturity_delay)
                self.population[next_id] = token
                h.collectibles[next_id] = token
                self.prices[next_id] = genesis_price
                self.events.append(Event(0, spec.id, "genesis", (next_id, traits), trait_count))
                next_id += 1
        # No owner joins after genesis, so the audit walks this tuple.
        self._holdings = tuple(self.holdings.values())
        self._check_invariants(step=0)

    # -- feasibility ---------------------------------------------------

    def _find_breeding_set(self, agent_id: int, step: int) -> list[int] | None:
        """First affordable, validly paired set in lexicographic order of
        the oldest BREED_SEARCH_WINDOW eligible parents, or None.

        step runs this at most once per agent turn, and only when the
        result is read: on a fixed-mix breed turn, by the ruin test when no
        adventure, battle or lottery is affordable, or by a growth maximizer
        whose breed could win (see _growth_choice). It changes no state and
        draws nothing, so skipping it changes no outcome.

        The holding is in ascending id order (see Holdings), oldest first,
        so nothing is sorted: a spent token is skipped as an immature one
        is. The sets are tried in itertools.combinations order, and the
        first of them form the lead row: the oldest arity - 1 eligible
        parents with one later parent (with arity 1, each parent alone).
        Every row set shares its lead, and so its cost, and the pairs among
        its fixed parents, so these are tested once, when the fixed parents
        are gathered; each later parent then tests only its own pairs, as it
        is gathered. A search that succeeds in the row reads the holding
        only that deep; only if no row set is usable are the rest of the
        window's combinations walked, past the row. The cost depends only
        on the lead parent's breed count, so a set whose lead the agent
        cannot afford is skipped before any pairing check, and an agent
        priced out of every lead is refused before any parent is gathered.
        Pairs are tested with breeding.can_pair, which raises nothing for a
        refused pair. A set this returns is legal to breed at this step
        (see _do_breed).
        """
        h = self.holdings[agent_id]
        activity, market = h.activity_balance, h.market_balance
        if activity < self._min_activity_cost or market < self._min_market_cost:
            return None
        rules = self.rules
        activity_costs = rules.activity_cost_schedule
        market_costs = rules.market_cost_schedule
        arity, limit, delay = rules.breed_arity, rules.breed_limit, rules.maturity_delay
        fixed = arity - 1
        can_pair = breeding.can_pair
        eligible: list[Collectible] = []
        n = 0
        lead = None  # the row's fixed parents, once they can lead a usable set
        for c in h.collectibles.values():
            if c.breed_count >= limit or step - c.birth_step < delay:
                continue
            eligible.append(c)
            n += 1
            if n == fixed:
                k = eligible[0].breed_count
                if activity >= activity_costs[k] and market >= market_costs[k]:
                    for i, j in self._lead_pairs:
                        if not can_pair(eligible[i], eligible[j]):
                            break
                    else:
                        lead = tuple(eligible)
            elif n > fixed:
                if not fixed:
                    # Arity 1: each parent is a set of its own, and its lead.
                    k = c.breed_count
                    if activity >= activity_costs[k] and market >= market_costs[k]:
                        return [c.id]
                elif lead is not None:
                    for x in lead:
                        if not can_pair(x, c):
                            break
                    else:
                        return [x.id for x in (*lead, c)]
            if n >= BREED_SEARCH_WINDOW:
                break
        if n < arity:
            # combinations would size its index array by the arity first.
            return None
        # No row set was usable: walk the rest of the window, past the row's
        # n - arity + 1 sets.
        pairs = self._parent_pairs
        for combo in itertools.islice(itertools.combinations(eligible, arity), n - fixed, None):
            k = combo[0].breed_count
            if activity < activity_costs[k] or market < market_costs[k]:
                continue
            for i, j in pairs:
                if not can_pair(combo[i], combo[j]):
                    break
            else:
                return [c.id for c in combo]
        return None

    def _list_price(self, traits: tuple[int, ...]) -> float:
        if self.config.trait_premiums is None:
            return self.floor
        # Added left to right, as builtin sum added floats before Python
        # 3.12 (it compensates from then on), so a newborn's price and the
        # outputs do not depend on the interpreter.
        premium = functools.reduce(
            operator.add, map(self.config.trait_premiums.__getitem__, traits), 0
        )
        return self.floor + premium

    # -- wealth --------------------------------------------------------

    def _value_tokens(self, agent_id: int, held, price) -> float:
        """Sum the prices of the agent's ``held`` ids, read through ``price``
        (the price table's getter), and keep the sum (see _token_value)."""
        # fsum is exactly rounded, so neither the holding's order nor
        # when the value was taken matters while prices and holdings stay put.
        tokens = self._token_value[agent_id] = _fsum(map(price, held))
        return tokens

    def agent_wealth(self, agent_id: int) -> float:
        h = self.holdings[agent_id]
        tokens = self._token_value.get(agent_id)
        if tokens is None:
            tokens = self._value_tokens(agent_id, h.collectibles, self.prices.__getitem__)
        return (
            tokens
            + h.activity_balance * self.board.activity_price
            + h.market_balance * self.board.market_price
        )

    # -- actions -------------------------------------------------------

    def _do_breed(self, agent_id: int, step: int, parent_ids: list[int]) -> Event:
        """Mint the set _find_breeding_set found this turn. The search proved
        every rule of a breed (ownership, arity, pairing, charges, maturity,
        balances), and nothing changed state since, so the breed is minted
        at the table's cost without checking it again."""
        h = self.holdings[agent_id]
        population = self.population
        cost = self._breed_table[population[parent_ids[0]].breed_count]
        child = breeding.mint(parent_ids, h, population, self.rules, cost, self.rng, step)
        if self.rules.burn_mode == "treasury":
            self.holdings[TREASURY].activity_balance += cost.activity_amount
            self.holdings[TREASURY].market_balance += cost.market_amount
        else:
            self.counters.activity_supply -= cost.activity_amount
            self.counters.market_supply -= cost.market_amount
        self.prices[child.id] = self._list_price(child.traits)
        self._minted[child.id] = agent_id
        return Event(
            step,
            agent_id,
            "breed",
            (parent_ids, child.id, child.traits, cost.activity_amount, cost.market_amount),
            2 * self.rules.trait_count,
        )

    def _do_scaled(
        self, agent_id: int, step: int, action: str, team_size: int, multiplier: float,
        teams: dict[int, tuple[int, ...]],
    ) -> Event:
        """An adventure or a battle: deploy the team, scale the committed
        activity balance. Resolved at the average multiplier, so no draw is made.

        The team is the holding's first team_size ids, kept in ``teams`` as
        a tuple from the agent's first play of this kind; a play is only
        chosen when the holding has that many. A token never leaves a
        holding and each mint appends the largest id, so those ids never
        change.
        """
        h = self.holdings[agent_id]
        team = teams.get(agent_id)
        if team is None:
            team = teams[agent_id] = tuple(itertools.islice(h.collectibles, team_size))
        before_balance = h.activity_balance
        after_balance, minted = activities.scale_balance(multiplier, before_balance)
        h.activity_balance = after_balance
        self.counters.activity_supply += minted
        return Event(step, agent_id, action, (team, before_balance, after_balance, minted), 0)

    def _do_adventure(self, agent_id: int, step: int) -> Event:
        spec = self.config.adventure
        return self._do_scaled(
            agent_id, step, "adventure", spec.collectibles_required, spec.reward_multiplier,
            self._kept_adventure_teams,
        )

    def _do_battle(self, agent_id: int, step: int) -> Event:
        spec = self.config.battle
        return self._do_scaled(
            agent_id, step, "battle", spec.team_size, spec.survival_fraction,
            self._kept_battle_teams,
        )

    def _do_lottery(self, agent_id: int, step: int) -> Event:
        spec = self.config.lottery
        h = self.holdings[agent_id]
        lost = self.rng.random() < spec.loss_prob
        activity, market = activities.lottery_deltas(spec, lost)
        h.market_balance += market
        h.activity_balance += activity
        self.counters.market_supply += market
        self.counters.activity_supply += activity
        return Event(step, agent_id, "lottery", (spec.stake, lost, market, activity), 1)

    # -- strategy ------------------------------------------------------

    # Each strategy's choice: it picks the turn's action, calls that play
    # directly (or builds the pass event) and returns the turn's event, one
    # call per turn. ``parents`` is the turn's search result, or
    # NOT_SEARCHED if the ruin test did not search.

    def _pass_choice(self, spec: AgentSpec, step: int, parents) -> Event:
        return Event(step, spec.id, "pass", (), 0)

    def _lottery_choice(self, spec: AgentSpec, step: int, parents) -> Event:
        if self.holdings[spec.id].market_balance >= self._stake:
            return self._do_lottery(spec.id, step)
        return Event(step, spec.id, "pass", (), 0)

    def _cycle_choice(self, spec: AgentSpec, step: int, parents) -> Event:
        """A fixed-mix agent repeats a cycle of mix.breed breeds, then
        mix.battle battles, then mix.adventure adventures, one per step. It
        plays the cycle's entry if it can afford it, else passes; so does an
        empty cycle."""
        agent_id = spec.id
        mix = spec.mix
        period = mix.breed + mix.battle + mix.adventure
        if period:
            i = (step - 1) % period
            if i < mix.breed:
                if parents is NOT_SEARCHED:
                    parents = self._find_breeding_set(agent_id, step)
                if parents is not None:
                    return self._do_breed(agent_id, step, parents)
            elif i < mix.breed + mix.battle:
                if len(self.holdings[agent_id].collectibles) >= self._battle_team:
                    return self._do_battle(agent_id, step)
            elif len(self.holdings[agent_id].collectibles) >= self._adventure_team:
                return self._do_adventure(agent_id, step)
        return Event(step, agent_id, "pass", (), 0)

    def _growth_choice(self, spec: AgentSpec, step: int, parents) -> Event:
        """Highest expected log-wealth change at current-board averages;
        ties resolved in the order breed < battle < adventure < pass.

        Battle, adventure and pass are scored first, so the score a breed
        must reach is at most +0.0 (or a NaN, which nothing reaches). A
        breed's change is the floor price less its cost, tested by the sign
        of x = change / wealth: a non-zero x < 0 has log1p(x) < 0, so it
        cannot win, and x >= 0 (-0.0 from underflow included) needs no test
        of wealth + change > 0, as wealth > 0. Unless this turn has searched
        already, the search runs only if some entry of the cost table could
        still win: the distinct costs, sorted ascending (the rules refuse a
        NaN cost), are tried up to the first x below zero, as rounded
        subtraction and division by a positive wealth are monotone, so every
        larger cost has x < 0 too; an x of -0.0 or NaN goes on. Each cost
        tried is scored, so nothing assumes that log1p is monotone; a breed
        the table rules out could not have been chosen.
        """
        agent_id = spec.id
        wealth = self.agent_wealth(agent_id)
        if wealth <= 0:
            return Event(step, agent_id, "pass", (), 0)
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
        floor = self.floor
        if parents is NOT_SEARCHED:
            parents = None
            for cost in self._distinct_breed_costs:
                x = (floor - cost) / wealth
                if x < 0:
                    break
                if -math.log1p(x) <= to_beat:
                    parents = self._find_breeding_set(agent_id, step)
                    break
        if parents is not None:
            x = (floor - self._breed_costs[self.population[parents[0]].breed_count]) / wealth
            if x >= 0 and -math.log1p(x) <= to_beat:
                return self._do_breed(agent_id, step, parents)
        if best == "battle":
            return self._do_battle(agent_id, step)
        if best == "adventure":
            return self._do_adventure(agent_id, step)
        return Event(step, agent_id, "pass", (), 0)

    # -- stepping ------------------------------------------------------

    def step(self, step: int) -> None:
        events = self.events
        ruined_at = self.ruined_at
        team = min(self._adventure_team, self._battle_team)
        stake = self._stake
        for agent_id, spec, h, counts, choose in self._turns:
            # Nothing changes state before the play, so one search serves the
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
            event = choose(self, spec, step, parents)
            events.append(event)
            counts[event.action] += 1
        self._update_prices()
        self._check_invariants(step)

    def _update_prices(self) -> None:
        """One forward-drift step of every collectible price and the floor.
        A step costs O(distinct prices) plus the ids it rewrites; at the
        fixed point it steps nothing until a newborn lists outside the kept
        price classes."""
        if self.config.price_update != "forward_drift":
            return
        prices = self.prices
        classes = self._price_classes
        # The first update groups every id by its price; later ones add the
        # ids minted since, from the change record.
        if classes is None:
            classes = self._price_classes = {}
            listed = prices.items()
        else:
            listed = [(tid, prices[tid]) for tid in self._minted]
        known = len(classes)
        for tid, price in listed:
            ids = classes.get(price)
            if ids is None:
                classes[price] = [tid]
            else:
                ids.append(tid)
        # forward_price_step is pure: if the last update moved no price and
        # no newborn since listed outside the kept classes, every price and
        # the floor would map to themselves again.
        if self._prices_fixed and len(classes) == known:
            return
        cost = self._breed_costs[0]
        d = self.rules.breed_arity
        # Each price's next value depends on that price alone, so equal
        # prices share one step, and only the distinct ones are stepped.
        floor = self.floor
        stepped = {
            price: breeding.forward_price_step(price, d, cost) for price in {*classes, floor}
        }
        # At the fixed point p* = cost every price maps to itself, so there
        # is nothing to rewrite.
        moved = any(new != old for old, new in stepped.items())
        if moved:
            # Only a class whose price moved is written; classes that step
            # onto one price merge.
            merged: dict[float, list[int]] = {}
            for price, ids in classes.items():
                new = stepped[price]
                if new != price:
                    for tid in ids:
                        prices[tid] = new
                into = merged.get(new)
                if into is None:
                    merged[new] = ids
                else:
                    into += ids
            self._price_classes = merged
            self._rewritten = True
        self._prices_fixed = not moved
        self.floor = stepped[floor]

    def _check_invariants(self, step: int) -> None:
        """Audit the state after a step, then apply the step's change record
        to the kept valuations (see _take_changes). Balances, supplies and
        prices must be finite, so no NaN or infinity reaches the outputs.

        Every step checks each balance, the supply counters and their
        conservation, and a finite positive floor: any action can change
        the first two, and forward_drift moves the floor. The fungible prices
        are the board's, checked when it was built, and never change. The
        checks that read every token (the ownership partition, each
        collectible's price, the floor against the lowest price, a price for
        exactly the minted ids) can only be changed by a mint or a price
        rewrite, so they run at step 0, after a step whose change record
        holds either, and whenever an O(agents) check disagrees: the
        holdings' sizes do not sum to the population, the price table and
        the population differ in size, or the floor is not finite and
        positive.

        One pass over the holdings sums their sizes and both balances and
        tests each balance as Holdings.check_balances does; that check runs,
        in owner order, only when the pass finds a bad balance, to name the
        owner. The balance sums go to check_supply_sums.

        This is the whole audit of a run that takes no snapshot (see
        ruin_probability), so it also proves what a snapshot relies on:
        every minted collectible, and nothing else, has a price.
        """
        holdings = self._holdings
        # Naive sums: builtin sum compensates from Python 3.12 on, but over
        # non-negative balances the two differ by a few ulps, far inside
        # check_supply_sums' 1e-9 tolerance, and the audit only passes or
        # raises, so no output byte depends on the choice.
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
        prices = self.prices
        minted = len(self.population)
        changed = self._minted or self._rewritten
        read_tokens = (
            changed or len(prices) != minted or held != minted or not 0 < self.floor < math.inf
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
                check_listed_prices(prices, self.floor)
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
        """Apply the step's change record to the kept token values, then start
        a new record: a rewrite drops every value, a mint its minter's. No
        agent values its own tokens after it breeds in a step, so the record
        can wait for the audit."""
        kept = self._token_value
        if self._rewritten:
            kept.clear()
            self._rewritten = False
        for agent_id in self._minted.values():
            kept.pop(agent_id, None)
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
        # Every agent valued as agent_wealth does, in one pass over the turn
        # records, with the same kept token values; an empty holding is
        # worth 0.0 (the fsum of no prices) and is not kept. The loop leaves
        # every other agent's value kept, and only agents hold collectibles,
        # so the pool is the fsum of the kept values: the audit before every
        # snapshot proved that the holdings partition the population and
        # that exactly its ids are priced. No pool sum is kept. Both sums are
        # exactly rounded, so the pool is within 1.5 ulp of the exact sum of
        # the prices in any order. An fsum that overflows reads inf, which
        # total_value refuses.
        activity_price = self.board.activity_price
        market_price = self.board.market_price
        price = self.prices.__getitem__
        kept = self._token_value
        wealth = {}
        for agent_id, _, h, _, _ in self._turns:
            tokens = kept.get(agent_id)
            if tokens is None:
                held = h.collectibles
                tokens = self._value_tokens(agent_id, held, price) if held else 0.0
            wealth[agent_id] = (
                tokens + h.activity_balance * activity_price + h.market_balance * market_price
            )
        phi = _fsum(kept.values())
        psi, omega = fungible_pool_values(self.counters, self.board)
        try:
            # A finite total bounds every agent's wealth, so that is finite too.
            total = total_value(phi, psi, omega)
        except ValueError as exc:
            raise SimulationInvariantError(step, str(exc)) from exc
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
