"""Child-process probes of the nftgamesim benchmark.

Run from the repository root with ``PYTHONPATH=src``:

    python perfbench/probe.py setup SCENARIO
        Import the package, load SCENARIO and build GameSimulation (genesis
        plus the step-0 audit). Prints the number of genesis collectibles.

    python perfbench/probe.py ruin SCENARIO SEED AGENT TRIALS
        ruin_probability on SCENARIO with master seed SEED. Prints one JSON
        line with the estimate and the seconds spent inside the call.
"""
from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

from nftgamesim.scenario import load_scenario
from nftgamesim.simulation import GameSimulation, ruin_probability


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        sim = GameSimulation(load_scenario(argv[1]))
        print(len(sim.population))
        return 0
    if argv[:1] == ["ruin"] and len(argv) == 5:
        path, seed, agent, trials = argv[1], int(argv[2]), int(argv[3]), int(argv[4])
        config = replace(load_scenario(path), seed=seed)
        start = time.perf_counter()
        estimate = ruin_probability(config, agent=agent, trials=trials)
        seconds = time.perf_counter() - start
        print(
            json.dumps(
                {
                    "probability": estimate.probability,
                    "stderr": estimate.stderr,
                    "trials": estimate.trials,
                    "seconds": seconds,
                }
            )
        )
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
