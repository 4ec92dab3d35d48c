"""Traced run of one workload: per-layer spans and counts.

The workload runs in this process with the package's public functions
wrapped where their callers look them up. A function is rebound in every
``nftgamesim`` module that holds it: ``simulation`` imports the economy
functions by name, ``cli`` imports ``load_scenario`` and ``run_simulation`` by
name, ``breed`` calls the ``breeding.check_pairing`` module global and
``ruin_probability`` calls the ``simulation.run_simulation`` global. A method
is replaced on its class. Nothing under ``src/`` changes, and every wrapper is
removed when the run ends.

Coarse calls are kept as spans (name, start, end, parent span, time covered
by children) in memory until the run ends. Calls too frequent to keep one span
each are tallied per name (count and time) and charged to the enclosing span
as child time, so a span's self time excludes them.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

from workloads import (
    RUIN_AGENT,
    RUIN_TRIALS,
    CheckFailed,
    Workload,
    check_ruin_report,
    check_simulation_outputs,
    run_once,
    spawn,
)

# (span name, module, attribute) of calls kept as spans.
SPANS = [
    ("cli.main", "nftgamesim.cli", "main"),
    ("scenario.load_scenario", "nftgamesim.scenario", "load_scenario"),
    ("simulation.run_simulation", "nftgamesim.simulation", "run_simulation"),
    ("simulation.ruin_probability", "nftgamesim.simulation", "ruin_probability"),
    ("simulation.init", "nftgamesim.simulation", "GameSimulation.__init__"),
    ("simulation.step", "nftgamesim.simulation", "GameSimulation.step"),
    ("simulation.snapshot", "nftgamesim.simulation", "GameSimulation.snapshot"),
    ("breeding.breed", "nftgamesim.breeding", "breed"),
    ("economy.partition", "nftgamesim.economy", "check_ownership_partition"),
    ("economy.conservation", "nftgamesim.economy", "check_supply_conservation"),
    ("economy.validate", "nftgamesim.economy", "PriceBoard.validate"),
    ("economy.collectible_pool", "nftgamesim.economy", "collectible_pool_value"),
    ("economy.fungible_pools", "nftgamesim.economy", "fungible_pool_values"),
    ("economy.total_value", "nftgamesim.economy", "total_value"),
]

ACTIVITY_PAYOFFS = (
    "adventure_payout",
    "battle_payout",
    "total_earnings",
    "classify_lottery",
    "lottery_sharpe",
    "minority_settle",
    "minority_should_stop",
)

# (tally name, module, attribute) of calls counted and timed per name.
TALLIES = [
    ("breeding.check_pairing", "nftgamesim.breeding", "check_pairing"),
    ("breeding.at_index", "nftgamesim.breeding", "BreedCost.at_index"),
    ("breeding.forward_price_step", "nftgamesim.breeding", "forward_price_step"),
    ("economy.price_of", "nftgamesim.economy", "PriceBoard.price_of"),
    ("economy.check_balances", "nftgamesim.economy", "Holdings.check_balances"),
] + [(f"activities.{name}", "nftgamesim.activities", name) for name in ACTIVITY_PAYOFFS]

MODULES = ("activities", "analytics", "breeding", "cli", "economy", "scenario", "simulation")

# Per-layer metric -> unit. Each is described in perfbench/README.md.
LAYER_UNITS = {
    "scenario.parse_s": "s",
    "analytics.import_s": "s",
    "simulation.init_s": "s",
    "simulation.step_s": "s",
    "simulation.step_self_s": "s",
    "simulation.snapshot_s": "s",
    "simulation.snapshot_self_s": "s",
    "simulation.steps": "count",
    "simulation.events": "count",
    "simulation.alloc_peak_mb": "MB",
    "breeding.check_pairing_calls": "count",
    "breeding.check_pairing_s": "s",
    "breeding.cost_lookups": "count",
    "breeding.search_yield": "ratio",
    "breeding.breeds": "count",
    "breeding.breed_s": "s",
    "breeding.price_steps": "count",
    "breeding.price_step_s": "s",
    "economy.audit_calls": "count",
    "economy.audit_s": "s",
    "economy.pool_value_s": "s",
    "economy.price_lookups": "count",
    "activities.calls": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
}

MIN_TRACED_REPS = 2
IMPORT_PROBES = 3
# No new repetition starts after this many seconds, whatever --seconds says.
HARD_STOP_S = 100


class Tracer:
    """Spans and tallies of one traced execution."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, float] | None] = []
        self.tallies: dict[str, list] = {}
        self.events = 0
        self.missing: list[str] = []
        self._open: list[list] = []  # [span index, seconds covered by children]
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            parent = open_[-1][0] if open_ else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            open_.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[frame[0]] = (name, start, end, parent, frame[1])
                if open_:
                    open_[-1][1] += end - start

        return wrapper

    def _tally(self, name, fn):
        tally = self.tallies.setdefault(name, [0, 0.0])
        open_ = self._open

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                tally[0] += 1
                tally[1] += spent
                if open_:
                    open_[-1][1] += spent

        return wrapper

    def _span_counting_events(self, name, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.events += len(getattr(result, "events", ()))
            return result

        return self._span(name, counted)

    def _patch(self, name: str, module_name: str, attr: str, wrap) -> None:
        module = sys.modules[module_name]
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name, None)
            raw = vars(cls).get(member) if isinstance(cls, type) else None
            if raw is None:
                self.missing.append(name)
                return
            if isinstance(raw, classmethod):
                new = classmethod(wrap(name, raw.__func__))
            else:
                new = wrap(name, raw)
            self._restore.append((cls, member, raw))
            setattr(cls, member, new)
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapper = wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "nftgamesim" and not mod_name.startswith("nftgamesim."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        for name, module, attr in SPANS:
            counts_events = name == "simulation.run_simulation"
            self._patch(name, module, attr, self._span_counting_events if counts_events else self._span)
        for name, module, attr in TALLIES:
            self._patch(name, module, attr, self._tally)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def counts(self) -> dict[str, int]:
        out = Counter(span[0] for span in self.spans)
        out.update({name: tally[0] for name, tally in self.tallies.items()})
        out["events"] = self.events
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        count: Counter = Counter()
        for name, start, end, _parent, children in self.spans:
            total[name] += end - start
            self_time[name] += end - start - children
            count[name] += 1

        def tally(name: str) -> tuple[int, float]:
            return self.tallies.get(name, (0, 0.0))

        breeds = count["breeding.breed"]
        pairings, pairing_s = tally("breeding.check_pairing")
        price_steps, price_step_s = tally("breeding.forward_price_step")
        return {
            "scenario.parse_s": total["scenario.load_scenario"],
            "simulation.init_s": total["simulation.init"],
            "simulation.step_s": total["simulation.step"],
            "simulation.step_self_s": self_time["simulation.step"],
            "simulation.snapshot_s": total["simulation.snapshot"],
            "simulation.snapshot_self_s": self_time["simulation.snapshot"],
            "simulation.steps": count["simulation.step"],
            "simulation.events": self.events,
            "breeding.check_pairing_calls": pairings,
            "breeding.check_pairing_s": pairing_s,
            "breeding.cost_lookups": tally("breeding.at_index")[0],
            "breeding.search_yield": breeds / pairings if pairings else 0.0,
            "breeding.breeds": breeds,
            "breeding.breed_s": total["breeding.breed"],
            "breeding.price_steps": price_steps,
            "breeding.price_step_s": price_step_s,
            "economy.audit_calls": count["economy.partition"],
            "economy.audit_s": total["economy.partition"]
            + total["economy.conservation"]
            + total["economy.validate"]
            + tally("economy.check_balances")[1],
            "economy.pool_value_s": total["economy.collectible_pool"]
            + total["economy.fungible_pools"]
            + total["economy.total_value"],
            "economy.price_lookups": tally("economy.price_of")[0],
            "activities.calls": sum(tally(f"activities.{n}")[0] for n in ACTIVITY_PAYOFFS),
            "cli.write_s": self_time["cli.main"],
        }


# -- in-process executions ----------------------------------------------------


def _execute_simulate(wl: Workload, work: Path):
    cli = sys.modules["nftgamesim.cli"]
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(wl.simulate_argv(out_dir))
    seconds = time.perf_counter() - start
    if code != 0:
        raise CheckFailed(f"in-process simulate returned {code}")
    digests, written = check_simulation_outputs(out_dir, wl)
    shutil.rmtree(out_dir)
    return digests, seconds, written


def _execute_ruin(wl: Workload, work: Path):
    scenario = sys.modules["nftgamesim.scenario"]
    simulation = sys.modules["nftgamesim.simulation"]
    start = time.perf_counter()
    config = replace(scenario.load_scenario(wl.scenario), seed=wl.seed)
    estimate = simulation.ruin_probability(config, agent=RUIN_AGENT, trials=RUIN_TRIALS)
    seconds = time.perf_counter() - start
    outcome = check_ruin_report(
        {"probability": estimate.probability, "stderr": estimate.stderr, "trials": estimate.trials}
    )
    return outcome, seconds, 0


def analytics_import_s(importtime_log: str) -> float:
    """Cumulative import time of nftgamesim.analytics and numpy, counting
    numpy once whether or not analytics is what imports it."""
    rows = []  # (depth, module, cumulative seconds), children before parents
    for line in importtime_log.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        module = fields[2].rstrip()
        rows.append((len(module) - len(module.lstrip()), module.strip(), int(fields[1]) / 1e6))
    index = {module: i for i, (_, module, _) in enumerate(rows)}
    total = 0.0
    if "nftgamesim.analytics" in index:
        i = index["nftgamesim.analytics"]
        total += rows[i][2]
        j = i - 1
        while j >= 0 and rows[j][0] > rows[i][0]:
            j -= 1
        if "numpy" in index and j < index["numpy"] < i:
            return total
    if "numpy" in index:
        total += rows[index["numpy"]][2]
    return total


def traced_run(wl: Workload, root: Path, work: Path, seconds: float):
    """Return (metrics, attempted, failed, report lines) of a traced run."""
    started = time.perf_counter()
    attempted = failed = 0
    lines: list[str] = []

    def fail(exc: CheckFailed) -> None:
        nonlocal failed
        failed += 1
        print(f"check failed: {exc}", file=sys.stderr)

    attempted += 1
    try:
        reference, _child, _rate = run_once(wl, root, work)
    except CheckFailed as exc:
        fail(exc)
        return None, attempted, failed, lines

    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    for module in MODULES:
        importlib.import_module(f"nftgamesim.{module}")
    execute = _execute_simulate if wl.kind == "simulate" else _execute_ruin

    def checked(outcome) -> None:
        if outcome != reference:
            raise CheckFailed(f"in-process outcome {outcome} != untraced child {reference}")

    attempted += 1
    tracemalloc.start()
    try:
        outcome, _, written = execute(wl, work)
        alloc_peak = tracemalloc.get_traced_memory()[1]
        checked(outcome)
    except CheckFailed as exc:
        fail(exc)
        alloc_peak = 0
    finally:
        tracemalloc.stop()

    reps: list[dict[str, float]] = []
    overheads: list[float] = []
    first_counts = None
    while len(reps) < MIN_TRACED_REPS or (
        time.perf_counter() - started < min(seconds, HARD_STOP_S)
    ):
        attempted += 2
        try:
            outcome, untraced_s, _ = execute(wl, work)
            checked(outcome)
            tracer = Tracer()
            tracer.install()
            try:
                outcome, traced_s, written = execute(wl, work)
            finally:
                tracer.uninstall()
            checked(outcome)
            counts = tracer.counts()
            if first_counts is None:
                first_counts = counts
                if tracer.missing:
                    lines.append(f"  not found, so not traced: {', '.join(tracer.missing)}")
            elif counts != first_counts:
                raise CheckFailed(f"traced counts differ between repetitions: {counts}")
        except CheckFailed as exc:
            fail(exc)
            if not reps:
                return None, attempted, failed, lines
            break
        metrics = tracer.layer_metrics()
        metrics["cli.bytes_written"] = written
        reps.append(metrics)
        overheads.append(traced_s / untraced_s)

    import_samples = []
    for _ in range(IMPORT_PROBES):
        attempted += 1
        child = spawn(["-X", "importtime", "-c", "import nftgamesim.cli"], root, work)
        if child.code != 0:
            fail(CheckFailed(f"import probe exited with {child.code}"))
            continue
        import_samples.append(analytics_import_s(child.stderr))

    # Times are medians over repetitions; counts are equal in every repetition.
    metrics = {
        name: statistics.median(rep[name] for rep in reps) if LAYER_UNITS[name] == "s" else value
        for name, value in reps[0].items()
    }
    metrics["analytics.import_s"] = statistics.median(import_samples) if import_samples else 0.0
    metrics["simulation.alloc_peak_mb"] = alloc_peak / 2**20
    metrics["trace.overhead_ratio"] = statistics.median(overheads)
    lines.append(
        f"  traced repetitions {len(reps)}, counts identical across them; "
        f"outputs equal the untraced run: {reference}"
    )
    return metrics, attempted, failed, lines
