"""Golden outputs: the bytes of ``events.jsonl`` and ``snapshots.csv``.

The digests below pin what ``simulate`` writes for fixed (scenario, seed,
steps) cases. A refactor or optimisation must keep them; a change that
alters behaviour on purpose updates them once and says why in CHANGES.md.
"""
import hashlib
import json
from pathlib import Path

import pytest

from nftgamesim.cli import main

BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.json"


def _treasury(data: dict) -> None:
    data["rules"]["burn_mode"] = "treasury"


def _premiums(data: dict) -> None:
    # Newborns list at many distinct prices (over 100 at once by step 60).
    data["run"]["trait_premiums"] = [0, 0.01, 0.03, 0.07, 0.15, 0.31]


# (case id, scenario edit, seed, steps, events.jsonl SHA-256, snapshots.csv SHA-256)
CASES = [
    (
        "baseline-2026-50",
        None,
        2026,
        50,
        "70efc204984aa3b93819648769d598260ba5137c2bb86fcd5de3b5ac5f5ff341",
        "9e067e21d111ca51827d2bb4de5ce967558e03445ba696ca205809ca29eede1d",
    ),
    (
        "baseline-1-400",
        None,
        1,
        400,
        "8ae37c4c1e1e4846172db1895758f6a7148b8e74703e16fdd2f5f7f6265bef1c",
        "9090562508986d6ff64428d10ec2d15c96d291c07a28092b4dc159d89c699634",
    ),
    (
        "treasury-7-200",
        _treasury,
        7,
        200,
        "e19fc71454762ada551a0bdf8ebb3b5c029c8a21c6d893ee707c7302b0ea733d",
        "c692dc65c73bd25777ea2234782464659163a4c48b141d76fd44fbd6e31fcba7",
    ),
    (
        "premiums-11-200",
        _premiums,
        11,
        200,
        "fb7f5869fa40e6267091fffd15df9b72f7aaf6d2a596c1c518dee20d7532cb3d",
        "368b10375643954dac475b31da99ba44c8b213a6a5613aa85530ad0302b29bc6",
    ),
]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "edit, seed, steps, events_digest, snapshots_digest",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_simulate_outputs_match_golden_digests(
    tmp_path, capsys, edit, seed, steps, events_digest, snapshots_digest
):
    data = json.loads(BASELINE.read_text())
    if edit is not None:
        edit(data)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(config), "--seed", str(seed)]
    argv += ["--steps", str(steps), "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert _sha256(out / "events.jsonl") == events_digest
    assert _sha256(out / "snapshots.csv") == snapshots_digest
