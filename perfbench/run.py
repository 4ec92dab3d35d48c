"""nftgamesim benchmark: run one workload for a fixed time, check every
output, and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload long-run --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the program in child processes and reports the end-to-end
metrics; each workload run is timed against a fixed pure-Python reference
task run just before and just after it on the same CPU, so that the drift of
a shared machine cancels out of ``wall_rel``. ``--trace 1`` runs the workload
in this process with the package's public functions wrapped and reports the
per-layer metrics. ``--workload all`` runs the three workloads in turn. A
table goes to standard output first; its last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
perfbench/README.md describes the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import (
    BASELINE,
    PACKAGE,
    WORKLOADS,
    CheckFailed,
    Workload,
    build,
    run_once,
    run_setup_probe,
)

# Units of the end-to-end metrics, in BENCHMARK.json order.
E2E_UNITS = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed in the table only: raw run times follow the machine's drift.
RAW_UNITS = {"wall_s": "s", "trials_per_s": "1/s", "reference_s": "s"}
MIN_ROUNDS = 3
# About 0.35 s of reference task on a 2-vCPU x86-64 VM.
REFERENCE_ROUNDS = 400
# No new round starts after this many seconds, whatever --seconds says.
HARD_STOP_S = 120
WORK_DIR = ".perfbench_work"


def reference_task() -> float:
    """Time a fixed pure-Python task that runs none of the package's code.

    Dict updates, float sums, a short pair scan and ``math.fsum``: the same
    kinds of interpreter work as the engine's step loop, so both slow down
    together when the CPU does.
    """
    start = time.perf_counter()
    total = 0.0
    for r in range(REFERENCE_ROUNDS):
        balances: dict[int, float] = {}
        prices = [1.0 + (i % 13) * 0.125 for i in range(2000)]
        for i, price in enumerate(prices):
            owner = (i * 7 + r) % 101
            balances[owner] = balances.get(owner, 0.0) + price
        keys = sorted(balances)[:40]
        pairs = sum(1 for a in keys for b in keys if a < b and balances[a] + balances[b] > 60.0)
        total += math.fsum(balances.values()) + pairs
    seconds = time.perf_counter() - start
    if not total > 0:
        raise CheckFailed(f"reference task summed to {total}")
    return seconds


def pin_to_one_cpu() -> None:
    """Run this process and the children it spawns on one CPU.

    The CPUs of a shared machine slow down and speed up independently, so
    the reference task only tracks the program's speed on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(wl: Workload, root: Path, work: Path, seconds: float):
    """Run rounds of (workload run, reference task, set-up probe) for about
    ``seconds``.

    A workload run's ``wall_rel`` is its wall time over the mean of the
    reference tasks just before and just after it. A new round starts only
    while the longest round so far still fits in the time left, so a run
    does not overshoot ``seconds`` by a whole round.
    Returns (samples per metric, attempted, failed, the repeated outcome).
    """
    samples: dict[str, list[float]] = {name: [] for name in (*E2E_UNITS, *RAW_UNITS)}
    attempted = failed = 0
    reference = None

    def attempt(operation):
        nonlocal attempted, failed
        attempted += 1
        try:
            return operation()
        except CheckFailed as exc:
            failed += 1
            print(f"check failed: {exc}", file=sys.stderr)
            return None

    def workload_run():
        outcome, child, rate = run_once(wl, root, work)
        if reference is not None and outcome != reference:
            raise CheckFailed(f"outcome {outcome} differs from this invocation's first {reference}")
        return outcome, child, rate

    # Untimed first probe: compiles the package's bytecode, which users pay once.
    attempt(lambda: run_setup_probe(wl, root, work))
    deadline = time.perf_counter() + min(seconds, HARD_STOP_S)
    before = reference_task()
    samples["reference_s"].append(before)
    rounds, longest = 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() + longest < deadline:
        round_start = time.perf_counter()
        rounds += 1
        result = attempt(workload_run)
        after = reference_task()
        samples["reference_s"].append(after)
        if result is not None:
            reference, child, rate = result
            samples["wall_rel"].append(child.wall_s / ((before + after) / 2))
            samples["wall_s"].append(child.wall_s)
            samples["peak_rss_mb"].append(child.peak_rss_mb)
            samples["trials_per_s"].append(rate)
        before = after

        probe = attempt(lambda: run_setup_probe(wl, root, work))
        if probe is not None:
            samples["setup_s"].append(probe.wall_s)
        longest = max(longest, time.perf_counter() - round_start)
    return samples, attempted, failed, reference


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _report_e2e(wl: Workload, samples, attempted: int, failed: int, reference) -> dict:
    print(f"workload {wl.name}, seed {wl.seed}, untraced")
    metrics = {}
    for name, unit in (*E2E_UNITS.items(), *RAW_UNITS.items()):
        values = samples[name]
        if not values:
            raise CheckFailed(f"no successful sample of {name}")
        median = statistics.median(values)
        if name in E2E_UNITS:
            metrics[name] = {"value": median, "unit": unit}
        spread = ""
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f", quartiles {_fmt(q1)} .. {_fmt(q3)}"
        print(f"  {name:<13} {_fmt(median):>10} {unit:<4} (median of {len(values)}{spread})")
    print(f"  {'fail_ratio':<13} {_fmt(failed / attempted):>10} {'':<4} ({failed} of {attempted} runs)")
    if wl.kind == "ruin":
        probability, stderr, trials = reference
        print(f"  ruin estimate: p = {probability!r}, stderr {stderr!r}, {trials} trials")
    else:
        for name, digest in reference.items():
            print(f"  sha256 {name}: {digest}")
    return metrics


def _report_layers(wl: Workload, metrics: dict, lines: list[str]) -> dict:
    print(f"workload {wl.name}, seed {wl.seed}, traced")
    out = {}
    for name, unit in tracing.LAYER_UNITS.items():
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"  {name:<29} {_fmt(metrics[name]):>12} {unit}")
    for line in lines:
        print(line)
    return out


def run_workload(name: str, root: Path, seed: int, seconds: float, trace: int):
    """Build, run and report one workload; return (metrics, attempted, failed)."""
    scratch = root / WORK_DIR
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        wl = build(name, root, work, seed)
        if trace:
            layer, attempted, failed, lines = tracing.traced_run(wl, root, work, seconds)
            if layer is None:
                raise CheckFailed("the traced run produced no checked repetition")
            return _report_layers(wl, layer, lines), attempted, failed
        pin_to_one_cpu()
        samples, attempted, failed, reference = measure(wl, root, work, seconds)
        return _report_e2e(wl, samples, attempted, failed, reference), attempted, failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=(*WORKLOADS, "all"),
        help="one workload, or all of them in turn with metrics named <workload>.<metric>",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / PACKAGE).is_file() or not (root / BASELINE).is_file():
        print(
            f"error: {PACKAGE} and {BASELINE} not found; run from the root of an "
            "nftgamesim checkout",
            file=sys.stderr,
        )
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            values, tried, bad = run_workload(name, root, args.seed, args.seconds, args.trace)
        except CheckFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        attempted += tried
        failed += bad
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + metric: value for metric, value in values.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
