"""simulate streams its outputs, and the simulate path never loads numpy."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import nftgamesim
from nftgamesim.cli import main

BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.json"


def _simulate_peak_bytes(tmp_path, steps: int) -> int:
    out = tmp_path / f"out-{steps}"
    argv = ["simulate", "--config", str(BASELINE), "--seed", "1"]
    argv += ["--steps", str(steps), "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_is_flat_in_steps(tmp_path, capsys):
    # The baseline population saturates at 248 tokens by about step 400, so
    # from there on only retained outputs could make the peak grow. Keeping
    # every event and snapshot made it about 3x larger at 1,600 steps.
    _simulate_peak_bytes(tmp_path, 20)  # warm-up: lazy imports and caches
    at_400 = _simulate_peak_bytes(tmp_path, 400)
    at_1600 = _simulate_peak_bytes(tmp_path, 1600)
    capsys.readouterr()
    assert at_1600 <= 1.25 * at_400, (at_400, at_1600)


def test_package_and_cli_import_without_numpy():
    src = str(Path(nftgamesim.__file__).resolve().parents[1])
    code = "import sys, nftgamesim, nftgamesim.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "False"
