import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nftgamesim.economy import (
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


def check_supply_conservation(holdings_all, counters, scale=(1.0, 1.0)) -> None:
    """The supply test on builtin sums of the balances, which compensate
    from Python 3.12 on: an oracle for the engine's naive loops."""
    check_supply_sums(
        sum(h.activity_balance for h in holdings_all),
        sum(h.market_balance for h in holdings_all),
        counters,
        scale=scale,
    )


class TestFungiblePools:
    def test_zero_supply(self):
        counters = SupplyCounters(activity_supply=0.0, market_supply=0.0)
        assert fungible_pool_values(counters, PriceBoard()) == (0.0, 0.0)

    def test_hand_values(self):
        counters = SupplyCounters(activity_supply=100.0, market_supply=10.0)
        board = PriceBoard(activity_price=0.5, market_price=2.0)
        assert fungible_pool_values(counters, board) == (50.0, 20.0)

    def test_unit_supply_identity(self):
        counters = SupplyCounters(activity_supply=1.0, market_supply=1.0)
        board = PriceBoard(activity_price=7.0, market_price=7.0)
        assert fungible_pool_values(counters, board) == (7.0, 7.0)


class TestTotalValue:
    def test_zero(self):
        assert total_value(0.0, 0.0, 0.0) == 0.0

    def test_hand_sum(self):
        assert total_value(8.0, 50.0, 20.0) == 78.0

    def test_permutation_invariance_hand_case(self):
        assert total_value(8.0, 50.0, 20.0) == total_value(20.0, 8.0, 50.0)
        assert total_value(8.0, 50.0, 20.0) == total_value(50.0, 20.0, 8.0)

    @given(
        st.tuples(
            st.floats(min_value=0, max_value=1e6),
            st.floats(min_value=0, max_value=1e6),
            st.floats(min_value=0, max_value=1e6),
        )
    )
    def test_permutation_invariance(self, pools):
        # Exact in real arithmetic; addition order costs at most an ulp.
        a, b, c = pools
        reference = total_value(a, b, c)
        assert total_value(c, a, b) == pytest.approx(reference, rel=1e-12, abs=1e-12)
        assert total_value(b, c, a) == pytest.approx(reference, rel=1e-12, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            total_value(-1.0, 0.0, 0.0)

    def test_rejects_non_finite_and_overflowing_totals(self):
        for pools in [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (1e308, 1e308, 0.0)]:
            with pytest.raises(ValueError, match="finite"):
                total_value(*pools)


class TestInvariants:
    def test_listed_prices_reject_floor_above_lowest_price(self):
        with pytest.raises(ValueError, match="floor"):
            check_listed_prices({0: 1.0}, 2.0)

    def test_floor_check_has_no_absolute_slack(self):
        # A floor 10x the lowest price is refused however small both are,
        # and a floor equal to it is accepted.
        with pytest.raises(ValueError, match="floor price 1e-12 exceeds lowest listed price 1e-13"):
            check_listed_prices({0: 1e-13}, 1e-12)
        check_listed_prices({0: 1e-13}, 1e-13)

    def test_board_and_listed_prices_reject_nonpositive_prices(self):
        with pytest.raises(ValueError):
            PriceBoard(activity_price=0.0)
        with pytest.raises(ValueError):
            check_listed_prices({0: -1.0}, 0.5)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(activity_price=0.0), "activity_price must be finite and positive"),
            (dict(market_price=-1.0), "market_price must be finite and positive"),
            (dict(floor_price=math.nan), "floor_price must be finite and positive"),
            (
                dict(floor_price=2.0, genesis_price=1.0),
                "genesis_price may not undercut the floor price",
            ),
        ],
        ids=["activity", "market", "floor", "genesis"],
    )
    def test_board_constructor_names_the_bad_field(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PriceBoard(**fields)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(id=-1, traits=(0,)), "collectible id must be non-negative"),
            (dict(id=0, traits=(0,), breed_count=-1), "breed_count must be non-negative"),
            (dict(id=0, traits=(-1,)), "traits must be non-negative"),
            (dict(id=0, traits=(0, 3, -1)), "traits must be non-negative"),
        ],
        ids=["id", "breed-count", "trait", "trait-after-valid-ones"],
    )
    def test_collectible_refuses_negative_fields(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Collectible(**fields)

    def test_collectible_accepts_no_traits(self):
        assert Collectible(id=0, traits=()).traits == ()

    def test_holdings_refuse_a_negative_owner(self):
        with pytest.raises(ValueError, match="^owner index must be non-negative$"):
            Holdings(owner=-1)

    def test_holdings_reject_negative_balances(self):
        with pytest.raises(ValueError):
            Holdings(owner=1, activity_balance=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_audits_reject_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Holdings(owner=1, market_balance=bad)
        with pytest.raises(ValueError, match="finite"):
            SupplyCounters(activity_supply=bad)
        with pytest.raises(ValueError, match="finite"):
            PriceBoard(market_price=bad)
        with pytest.raises(ValueError, match="finite"):
            PriceBoard(floor_price=bad)
        with pytest.raises(ValueError, match="finite"):
            check_listed_prices({0: 1.0}, bad)
        with pytest.raises(ValueError, match="collectible 3"):
            check_listed_prices({0: 1.0, 3: bad}, 1.0)

    def test_partition_check_names_token_and_users(self):
        pop = {0: Collectible(id=0, traits=(1,))}
        hs = [Holdings(owner=1, collectibles=dict(pop)), Holdings(owner=2, collectibles=dict(pop))]
        with pytest.raises(ValueError, match="collectible 0"):
            check_ownership_partition(hs, pop)

    def test_partition_check_finds_orphans(self):
        pop = {0: Collectible(id=0, traits=(1,)), 1: Collectible(id=1, traits=(2,))}
        with pytest.raises(ValueError, match="no owner"):
            check_ownership_partition([Holdings(owner=1, collectibles={0: pop[0]})], pop)

    def test_supply_conservation_check(self):
        hs = [Holdings(owner=1, activity_balance=3.0, market_balance=2.0)]
        check_supply_conservation(hs, SupplyCounters(activity_supply=3.0, market_supply=2.0))
        with pytest.raises(ValueError, match="activity supply"):
            check_supply_conservation(hs, SupplyCounters(activity_supply=4.0, market_supply=2.0))

    def test_supply_conservation_tolerance_follows_the_scale(self):
        # A drift of 1e-6 on a supply of 3 is within 1e-9 of an earlier 1e4.
        hs = [Holdings(owner=1, activity_balance=3.0, market_balance=2.0)]
        drifted = SupplyCounters(activity_supply=3.0 + 1e-6, market_supply=2.0)
        with pytest.raises(ValueError, match="activity supply"):
            check_supply_conservation(hs, drifted)
        check_supply_conservation(hs, drifted, scale=(1e4, 1.0))
        with pytest.raises(ValueError, match="activity supply"):
            check_supply_conservation(hs, drifted, scale=(1e2, 1.0))
        with pytest.raises(ValueError, match="market supply"):
            check_supply_conservation(
                hs, SupplyCounters(activity_supply=3.0, market_supply=2.0 + 1e-6), scale=(1e4, 1.0)
            )


# -- differential tests against the per-token implementations ----------------
# These are the checks token by token, as they stood before the fast paths
# (the partition check also compares each held token with the minted one);
# the fast paths must agree with them on every input.


def reference_partition(holdings_all, population) -> None:
    seen: dict[int, int] = {}
    for h in holdings_all:
        for tid in h.collectibles:
            if tid in seen:
                raise ValueError(
                    f"collectible {tid} held by both user {seen[tid]} and user {h.owner}"
                )
            if tid not in population:
                raise ValueError(f"user {h.owner} holds unminted collectible {tid}")
            if h.collectibles[tid] != population[tid]:
                raise ValueError(f"user {h.owner}'s collectible {tid} is not the minted one")
            seen[tid] = h.owner
    if len(seen) != len(population):
        orphans = sorted(set(population) - set(seen))
        raise ValueError(f"minted collectibles with no owner: {orphans[:5]}")


def reference_validate(board: dict, prices: dict) -> None:
    """Every check of a board's fields and a run's price table, one at a time."""
    if not 0 < board["activity_price"] < math.inf:
        raise ValueError("activity_price must be finite and positive")
    if not 0 < board["market_price"] < math.inf:
        raise ValueError("market_price must be finite and positive")
    if not 0 < board["floor_price"] < math.inf:
        raise ValueError("floor_price must be finite and positive")
    for tid, p in prices.items():
        if not 0 < p < math.inf:
            raise ValueError(f"collectible {tid} has non-finite or non-positive price {p}")
    if prices:
        lowest, floor = min(prices.values()), board["floor_price"]
        if floor > lowest:
            raise ValueError(f"floor price {floor} exceeds lowest listed price {lowest}")


def validate(board: dict, prices: dict) -> None:
    """The engine's split of reference_validate: a PriceBoard built from the
    fields, then the run's table checked against its floor."""
    PriceBoard(**board)
    check_listed_prices(prices, board["floor_price"])


def outcome(fn, *args):
    """("ok", None) or (exception type, message)."""
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return "ok", None


SPECIAL_PRICES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-16, 1.0, 2.5, 1e308]
PRICES = st.one_of(
    st.sampled_from(SPECIAL_PRICES),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(allow_nan=True, allow_infinity=True),
)
IDS = st.integers(0, 11)


@st.composite
def economies(draw):
    """Holdings, a population and a board that may break any audit: tokens
    held twice, orphans, unminted ids, held tokens that are equal copies of
    the minted ones or differ from them, missing prices, empty holdings and
    non-finite, zero, negative-zero or negative prices."""
    population = {tid: Collectible(id=tid, traits=(0,)) for tid in sorted(draw(st.sets(IDS)))}

    def held(tid: int) -> Collectible:
        kind = draw(st.sampled_from(("minted", "copy", "other")))
        if kind == "minted" and tid in population:
            return population[tid]
        return Collectible(id=tid, traits=(1 if kind == "other" else 0,))

    holdings = [
        Holdings(owner=owner, collectibles={t: held(t) for t in draw(st.sets(IDS, max_size=6))})
        for owner in range(draw(st.integers(0, 4)))
    ]
    # A few distinct prices shared by many tokens, as in a running economy.
    palette = draw(st.lists(PRICES, min_size=1, max_size=4))
    prices = {tid: draw(st.sampled_from(palette)) for tid in draw(st.sets(IDS))}
    board = dict(
        activity_price=draw(st.sampled_from([1.0, 0.5, 0.0, math.nan])),
        market_price=1.0,
        floor_price=draw(st.one_of(st.sampled_from(palette), PRICES)),
    )
    return holdings, population, (board, prices)


def priced(prices: list[float]):
    """An economy of no holdings that lists ``prices`` in order, at a floor
    of 1e-3."""
    board = dict(activity_price=1.0, market_price=1.0, floor_price=1e-3)
    return [], {}, (board, dict(enumerate(prices)))


class TestFastChecksMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(economy=economies())
    def test_partition(self, economy):
        holdings, population, _ = economy
        assert outcome(check_ownership_partition, holdings, population) == outcome(
            reference_partition, holdings, population
        )

    @settings(max_examples=300, deadline=None)
    @given(economy=economies())
    # check_listed_prices tests the lowest price and the total: min skips a NaN after
    # a finite price, which the total catches; finite prices whose total
    # overflows pass; -0.0 and a leading -inf fail the lowest.
    @example(economy=priced([1.0, math.nan]))
    @example(economy=priced([1e308, 1e308]))
    @example(economy=priced([1.0, -0.0]))
    @example(economy=priced([-math.inf, 1.0]))
    def test_validate(self, economy):
        _, _, (board, prices) = economy
        assert outcome(validate, board, prices) == outcome(reference_validate, board, prices)

    def test_valid_economy_takes_the_fast_paths(self):
        population = {tid: Collectible(id=tid, traits=(0,)) for tid in range(3)}
        holdings = [
            Holdings(owner=1, collectibles={0: population[0], 2: population[2]}),
            Holdings(owner=2, collectibles={1: population[1]}),
        ]
        assert outcome(check_ownership_partition, holdings, population) == ("ok", None)
        assert outcome(check_listed_prices, {0: 1.5, 1: 2.0, 2: 1.5}, 1.0) == ("ok", None)
