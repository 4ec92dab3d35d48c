"""Acceptance suite: one test per release criterion, each at its pinned
tolerance, printing a PASS/FAIL line per criterion (run with -s to see them
on success).
"""
import inspect
import math
import random
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from nftgamesim.analytics import (
    ArbitrageKind,
    CollateralSpec,
    MinorityGameSpec,
    ReturnModel,
    UtilitySpec,
    classify_breeding_arbitrage,
    collateral_loop,
    envelope_expected_gain,
    heterogeneous_lottery_ev,
    max_population,
    minority_settle,
    optimal_allocation,
    pooled_lottery_game,
    propitious_check,
    pseudo_inverse,
    sharpe_ratio,
)
from nftgamesim.breeding import GameRules, forward_price_step
from nftgamesim.cli import main
from test_breeding import population_bound_oracle

BASELINE_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.json"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL {description}")
        raise
    print(f"criterion {number:2d} PASS {description}")


def test_criterion_01_two_envelopes_gain():
    with criterion(1, "two-envelopes swap pays both players 25% (1e-12)"):
        gain1, gain2 = envelope_expected_gain(2.0, 0.5, 0.5)
        assert abs(gain1 - 0.25) <= 1e-12
        assert abs(gain2 - 0.25) <= 1e-12


def test_criterion_02_heterogeneous_lottery():
    with criterion(2, "pooled lottery EVs: averse +4.25% exact, seeker -42.5% recomputed"):
        averse, seeker = heterogeneous_lottery_ev()
        assert averse == 0.0425
        assert seeker == -0.425
        assert seeker != -0.375  # the inconsistent figure is documented, not reproduced
        assert "-37.5%" in inspect.getdoc(heterogeneous_lottery_ev)


def test_criterion_03_arbitrage_classifier_grid():
    with criterion(3, "breeding arbitrage classified correctly on 100 random cases + 3 hand cases"):
        assert classify_breeding_arbitrage(100, 0.05, 5).kind is ArbitrageKind.NO_ARBITRAGE
        assert classify_breeding_arbitrage(100, 0.10, 5).kind is ArbitrageKind.LONG_BREEDING
        assert classify_breeding_arbitrage(100, 0.01, 5).kind is ArbitrageKind.SHORT_BREEDING
        rng = random.Random(20260809)
        for case in range(100):
            capital = rng.uniform(0.1, 1000.0)
            growth = rng.uniform(1e-3, 1.0)
            relation = case % 3
            if relation == 0:
                cost = capital * growth
                expected = ArbitrageKind.NO_ARBITRAGE
            elif relation == 1:
                cost = capital * growth * (1.0 - rng.uniform(0.01, 0.99))
                expected = ArbitrageKind.LONG_BREEDING
            else:
                cost = capital * growth * (1.0 + rng.uniform(0.01, 1.0))
                expected = ArbitrageKind.SHORT_BREEDING
            verdict = classify_breeding_arbitrage(capital, growth, cost)
            assert verdict.kind is expected, (capital, growth, cost)


def test_criterion_04_forward_price_convergence():
    with criterion(4, "forward price reaches the cost fixed point 0.6 within 1e-9 in <= 60 steps"):
        for p0 in (0.1, 1.0, 10.0):
            price = p0
            iterations = None
            for n in range(1, 61):
                price = forward_price_step(price, 2, 0.6)
                if abs(price - 0.6) <= 1e-9:
                    iterations = n
                    break
            assert iterations is not None, f"no convergence from {p0}"


def test_criterion_05_population_bounds():
    with criterion(5, "population bound: Fibonacci for d=1 (20 terms), oracle match for d=2 (12 steps)"):
        solo = GameRules(breed_arity=1, breed_limit=25)
        phi = (1 + math.sqrt(5)) / 2
        fibonacci = [round(phi**n / math.sqrt(5)) for n in range(2, 22)]
        assert max_population(1, solo, 19) == fibonacci

        pairs = GameRules(breed_arity=2, breed_limit=20)
        assert max_population(2, pairs, 12) == population_bound_oracle(2, pairs, 12)


def test_criterion_06_minority_settlement():
    with criterion(6, "minority settlement conserves stakes (1e-12) on 1000 random rounds"):
        rng = random.Random(99)
        for round_index in range(1000):
            side1 = [(f"a{i}", rng.uniform(0.01, 5.0)) for i in range(rng.randint(1, 5))]
            side2 = [(f"b{i}", rng.uniform(0.01, 5.0)) for i in range(rng.randint(1, 5))]
            full_rake = round_index % 2 == 0
            spec = (
                MinorityGameSpec()
                if full_rake
                else MinorityGameSpec(
                    rake_fraction=rng.uniform(0.1, 1.0), sponsor_subsidy=rng.uniform(0.0, 5.0)
                )
            )
            payouts, organizer = minority_settle(side1, side2, spec)
            total = math.fsum(x for _, x in side1 + side2)
            assert abs(math.fsum(payouts.values()) + organizer - total) <= 1e-12

            a = math.fsum(x for _, x in side1)
            b = math.fsum(x for _, x in side2)
            if full_rake and a != b:
                winners = side1 if a < b else side2
                win_total, lose_total = min(a, b), max(a, b)
                for name, stake in winners:
                    identity = stake + (lose_total / win_total) * stake
                    assert payouts[name] == pytest.approx(identity, rel=1e-12)


def test_criterion_07_pseudoinverse_and_allocation():
    with criterion(7, "Penrose conditions on 500 random matrices (1e-9); allocation = direct solve"):
        rng = np.random.default_rng(7)
        for index in range(500):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            a = rng.normal(size=(rows, cols)) * float(rng.uniform(0.1, 10))
            if index % 3 == 0 and min(rows, cols) > 1:
                a[:, -1] = a[:, 0] * 2.0  # force a dependent column
            p = pseudo_inverse(a)
            assert np.max(np.abs(a @ p @ a - a)) < 1e-9
            assert np.max(np.abs(p @ a @ p - p)) < 1e-9
            assert np.max(np.abs((a @ p).T - a @ p)) < 1e-9
            assert np.max(np.abs((p @ a).T - p @ a)) < 1e-9

        for _ in range(50):
            n = int(rng.integers(1, 7))
            vol = rng.normal(size=(n + 1, n))
            mu = rng.normal(scale=0.1, size=n)
            model = ReturnModel(
                mean_vector=tuple(mu),
                riskless_rate=0.01,
                vol_matrix=tuple(tuple(row) for row in vol),
            )
            expected = np.linalg.solve(vol.T @ vol, mu - 0.01)
            got = optimal_allocation(model)
            assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)


def test_criterion_08_sharpe_time_scaling():
    with criterion(8, "sharpe * sqrt(T) constant over T in {0.25, 1, 4, 16} (1e-12)"):
        values = [
            sharpe_ratio(0.05, 0.02, 0.2, horizon) * math.sqrt(horizon)
            for horizon in (0.25, 1.0, 4.0, 16.0)
        ]
        for value in values[1:]:
            assert abs(value - values[0]) <= 1e-12


def test_criterion_09_propitious_pooled_lottery():
    with criterion(9, "pooled lottery propitious with power(8) seeker, not with power(2)"):
        per_bold, average_bold = propitious_check(
            pooled_lottery_game(UtilitySpec("power", exponent=8.0))
        )
        assert all(per_bold) and average_bold
        per_mild, _ = propitious_check(pooled_lottery_game(UtilitySpec("power", exponent=2.0)))
        assert per_mild[:10] == [True] * 10
        assert per_mild[10] is False


def test_criterion_10_collateral_loop():
    with criterion(10, "collateral loop: geometric limit (1e-9 rel), divergence, shock liquidation"):
        for ltv, impact, v0 in ((0.5, 1.0, 100.0), (0.8, 0.5, 50.0), (0.25, 2.0, 10.0)):
            _, outcome = collateral_loop(CollateralSpec(ltv=ltv, impact=impact, initial_value=v0))
            assert outcome.kind == "Converged"
            assert outcome.limit_value == pytest.approx(v0 / (1 - impact * ltv), rel=1e-9)

        for ltv, impact in ((0.6, 2.0), (0.5, 2.0)):
            _, outcome = collateral_loop(
                CollateralSpec(ltv=ltv, impact=impact, initial_value=100.0), max_iter=500
            )
            assert outcome.kind == "Diverged"

        _, shocked = collateral_loop(
            CollateralSpec(
                ltv=0.5, impact=1.0, initial_value=100.0,
                liquidation_threshold=1.0, shock_step=12, shock_fraction=0.6,
            )
        )
        assert shocked.kind == "Liquidated"
        assert shocked.liquidated_step == 12


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "simulate twice on the 50-step 10-agent scenario: byte-identical outputs"):
        assert BASELINE_SCENARIO.is_file(), "scenarios/baseline.json must ship with the repo"
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["simulate", "--config", str(BASELINE_SCENARIO), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(BASELINE_SCENARIO), "--out", str(out2)]) == 0
        snapshots = (out1 / "snapshots.csv").read_bytes()
        assert snapshots == (out2 / "snapshots.csv").read_bytes()
        events = (out1 / "events.jsonl").read_bytes()
        assert events == (out2 / "events.jsonl").read_bytes()
        assert snapshots.count(b"\n") == 52  # header + initial + 50 steps
        assert len(events.splitlines()) > 50
