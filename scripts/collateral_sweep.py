"""Sweep the collateral feedback loop over an LTV x impact grid.

Writes one CSV row per parameter pair with the loop outcome and, where it
converges, the limit value against the geometric-series prediction. Points
with feedback >= 1 are the run-away regime.

Run: python3 scripts/collateral_sweep.py --out collateral_sweep.csv
"""
from __future__ import annotations

import argparse
import csv

from nftgamesim.analytics import CollateralSpec, collateral_loop


def sweep(initial_value: float, steps: int):
    rows = []
    for ltv_pct in range(5, 100, 5):
        for impact_pct in range(0, 205, 5):
            ltv = ltv_pct / 100
            impact = impact_pct / 100
            spec = CollateralSpec(ltv=ltv, impact=impact, initial_value=initial_value)
            trajectory, outcome = collateral_loop(spec, max_iter=steps)
            feedback = ltv * impact
            predicted = initial_value / (1 - feedback) if feedback < 1 else float("inf")
            rows.append(
                {
                    "ltv": ltv,
                    "impact": impact,
                    "feedback": feedback,
                    "outcome": outcome.kind,
                    "limit_value": outcome.limit_value,
                    "predicted_limit": predicted,
                    "iterations": len(trajectory) - 1,
                }
            )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--initial-value", type=float, default=100.0)
    parser.add_argument("--max-iter", type=int, default=10_000)
    parser.add_argument("--out", default="collateral_sweep.csv")
    args = parser.parse_args()

    rows = sweep(args.initial_value, args.max_iter)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    diverged = sum(1 for r in rows if r["outcome"] == "Diverged")
    print(f"wrote {len(rows)} grid points to {args.out} ({diverged} in the run-away regime)")


if __name__ == "__main__":
    main()
