"""Smoke tests: each experiment script runs with small arguments."""
import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_strategy_comparison():
    done = run_script("strategy_comparison.py", str(ROOT / "scenarios" / "baseline.json"), "--seeds", "2")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["strategy", "n", "mean_earnings", "stdev", "ruined"]
    strategies = {row.split()[0] for row in rows}
    assert strategies == {"fixed_mix", "growth_maximizer", "passive", "thrill_seeker"}


def test_collateral_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    done = run_script("collateral_sweep.py", "--max-iter", "50", "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == [
        "ltv", "impact", "feedback", "outcome", "limit_value", "predicted_limit", "iterations",
    ]
    assert len(rows) == 19 * 41
    assert done.stdout.startswith(f"wrote {len(rows)} grid points to {out}")
