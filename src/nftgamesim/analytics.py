"""Portfolio and utility analytics for comparing game strategies.

Strategies inside a game are ranked like any other investment: Sharpe
ratios for risk-adjusted comparison, growth-optimal fractions for sizing,
and expected utility for populations with heterogeneous risk appetite.
The multi-asset allocation uses the Moore-Penrose inverse so singular
covariance structures (replicated or redundant assets) stay well defined.
Only ReturnModel, pseudo_inverse and optimal_allocation use numpy, and
they import it when called, so importing this module does not load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

SVD_REL_CUTOFF = 1e-12
STRICT_GAIN_TOL = 1e-12


@dataclass(frozen=True)
class UtilitySpec:
    """Log utility, or power utility U(x) = x**eta.

    eta < 1 is concave (risk-averse), eta > 1 convex (risk-seeking).
    """

    kind: str = "log"
    exponent: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("log", "power"):
            raise ValueError("utility kind must be 'log' or 'power'")
        if self.kind == "power":
            if self.exponent is None or self.exponent == 0:
                raise ValueError("power utility needs a non-zero exponent")

    def value(self, wealth: float) -> float:
        if wealth <= 0:
            raise ValueError(f"utility undefined for non-positive wealth {wealth}")
        if self.kind == "log":
            return math.log(wealth)
        return wealth ** self.exponent


@dataclass(frozen=True)
class ReturnModel:
    """Per-unit-time drifts and factor loadings for a set of assets.

    vol_matrix has one column per asset and one row per risk factor, so
    vol_matrix.T @ vol_matrix is the asset covariance (Gram) matrix; in one
    dimension it reduces to the squared volatility.
    """

    mean_vector: tuple[float, ...]
    riskless_rate: float = 0.0
    vol_matrix: tuple[tuple[float, ...], ...] = ()
    horizon: float = 1.0

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        import numpy as np

        vol = np.asarray(self.vol_matrix, dtype=float)
        if vol.ndim != 2 or vol.shape[1] != len(self.mean_vector):
            raise ValueError(
                "vol_matrix needs one column per asset "
                f"(got shape {vol.shape} for {len(self.mean_vector)} assets)"
            )


@dataclass(frozen=True)
class RedistributionGame:
    """A pool game described by outcome probabilities and per-player wealth multipliers.

    Each player commits one unit of wealth; outcome o multiplies player i's
    wealth by multipliers[o][i]. With conserve_stakes the game only shuffles
    the pool: every outcome's multipliers must sum to the player count.
    """

    outcomes: tuple[tuple[float, tuple[float, ...]], ...]
    players: tuple[UtilitySpec, ...]
    conserve_stakes: bool = False

    def __post_init__(self) -> None:
        if not self.outcomes or not self.players:
            raise ValueError("game needs at least one outcome and one player")
        total_prob = math.fsum(p for p, _ in self.outcomes)
        if abs(total_prob - 1.0) > 1e-12:
            raise ValueError(f"outcome probabilities sum to {total_prob}, not 1")
        n = len(self.players)
        for prob, mults in self.outcomes:
            if prob < 0:
                raise ValueError("outcome probabilities must be non-negative")
            if len(mults) != n:
                raise ValueError("each outcome needs one multiplier per player")
            if any(m <= 0 for m in mults):
                raise ValueError("wealth multipliers must be positive")
            if self.conserve_stakes and abs(math.fsum(mults) - n) > 1e-12:
                raise ValueError("outcome breaks stake conservation")


def sharpe_ratio(mean_return: float, riskless: float, vol: float, horizon: float = 1.0) -> float:
    """Excess return over volatility, scaled by 1/sqrt(horizon).

    Inputs are per unit time; quadrupling the horizon halves the ratio.
    """
    if vol <= 0:
        raise ValueError("volatility must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return ((mean_return - riskless) / vol) / math.sqrt(horizon)


def optimal_fraction_1d(mean_return: float, riskless: float, vol: float) -> float:
    """Growth-optimal fraction of wealth in a single risky asset:
    excess return over squared volatility."""
    if vol <= 0:
        raise ValueError("volatility must be positive")
    return (mean_return - riskless) / (vol * vol)


def pseudo_inverse(matrix, rel_cutoff: float = SVD_REL_CUTOFF) -> np.ndarray:
    """Moore-Penrose inverse via SVD.

    Singular values below rel_cutoff times the largest are treated as zero,
    so the result extends the ordinary inverse to rank-deficient and
    non-square matrices while satisfying all four Penrose conditions.
    """
    import numpy as np

    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("pseudo_inverse expects a 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    keep = s > rel_cutoff * s[0]
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return (vt.T * s_inv) @ u.T


def optimal_allocation(model: ReturnModel) -> np.ndarray:
    """Growth-optimal weights: excess drifts times the pseudoinverse of the
    asset Gram matrix. Reduces to optimal_fraction_1d for one asset."""
    import numpy as np

    mu = np.asarray(model.mean_vector, dtype=float)
    vol = np.asarray(model.vol_matrix, dtype=float)
    gram = vol.T @ vol
    excess = mu - model.riskless_rate
    # The Gram pseudoinverse is symmetric, so row/column orientation is
    # immaterial: excess @ pinv == pinv @ excess.
    return excess @ pseudo_inverse(gram)


def envelope_expected_gain(up: float, down: float, up_prob: float) -> tuple[float, float]:
    """Expected fractional gain for both sides of the two-envelopes swap.

    Two players with different numeraires put equal amounts into envelopes
    and swap. Player 1 holds the other currency, so their expected
    multiplier averages the exchange-rate moves; player 2 averages the
    reciprocals. Jensen's inequality makes both gains positive whenever the
    rate actually moves: with a double-or-half coin flip each side expects
    a 25% gain.
    """
    if up <= 0 or down <= 0:
        raise ValueError("exchange-rate moves must be positive")
    if not 0.0 <= up_prob <= 1.0:
        raise ValueError("up probability must be in [0, 1]")
    gain1 = up_prob * up + (1.0 - up_prob) * down - 1.0
    gain2 = up_prob / up + (1.0 - up_prob) / down - 1.0
    return gain1, gain2


def expected_utility(
    wealth_multipliers: list[tuple[float, float]], utility: UtilitySpec
) -> float:
    """Probability-weighted utility of final wealth, for one unit of initial wealth."""
    total_prob = math.fsum(p for p, _ in wealth_multipliers)
    if abs(total_prob - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total_prob}, not 1")
    return math.fsum(p * utility.value(m) for p, m in wealth_multipliers)


def propitious_check(game: RedistributionGame) -> tuple[list[bool], bool]:
    """Does the redistribution raise expected utility, per player and on average?

    A game is propitious when either every player's expected utility
    strictly exceeds the utility of standing pat, or the average gain over
    players is strictly positive. Gains within 1e-12 of zero count as no
    increase.
    """
    gains = []
    for i, spec in enumerate(game.players):
        lottery = [(prob, mults[i]) for prob, mults in game.outcomes]
        gains.append(expected_utility(lottery, spec) - spec.value(1.0))
    per_player = [g > STRICT_GAIN_TOL for g in gains]
    average_mode = (math.fsum(gains) / len(gains)) > STRICT_GAIN_TOL
    return per_player, average_mode


# Canonical pooled-lottery example: eleven players stake one token each.
# With probability 0.95 the ten cautious players earn 5% while the thrill
# seeker drops 50%; otherwise the cautious ten lose 10% each and the seeker
# doubles. Both branches shuffle exactly the committed tokens.
_POOL_PROBS = (Fraction(95, 100), Fraction(5, 100))
_AVERSE_MULT = (Fraction(105, 100), Fraction(90, 100))
_SEEKER_MULT = (Fraction(50, 100), Fraction(200, 100))
N_RISK_AVERSE = 10


def heterogeneous_lottery_ev() -> tuple[float, float]:
    """Per-player expected gains in the canonical pooled lottery.

    Returns (+0.0425, -0.425): cautious players average a 4.25% gain while
    the thrill seeker pays 42.5% on average for the rare doubling. (A
    commonly quoted figure for the seeker, -37.5%, is inconsistent with
    these probabilities and payouts; the recomputed value is returned.)
    """
    averse = sum(p * (m - 1) for p, m in zip(_POOL_PROBS, _AVERSE_MULT))
    seeker = sum(p * (m - 1) for p, m in zip(_POOL_PROBS, _SEEKER_MULT))
    return float(averse), float(seeker)


def pooled_lottery_game(
    seeker: UtilitySpec, averse: UtilitySpec = UtilitySpec("log")
) -> RedistributionGame:
    """The canonical pooled lottery as a RedistributionGame: ten players of
    the given cautious utility plus one thrill seeker."""
    outcomes = tuple(
        (float(p), (float(am),) * N_RISK_AVERSE + (float(sm),))
        for p, am, sm in zip(_POOL_PROBS, _AVERSE_MULT, _SEEKER_MULT)
    )
    players = (averse,) * N_RISK_AVERSE + (seeker,)
    return RedistributionGame(outcomes=outcomes, players=players, conserve_stakes=True)
