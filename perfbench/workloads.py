"""Workload inputs, child processes and output checks for the nftgamesim benchmark.

Every workload starts from ``scenarios/baseline.json`` in the checkout and
writes the scenario file the program receives into a temporary directory.
The benchmark seed reaches the program only as ``simulate --seed`` or as the
``ruin_probability`` master seed, never through the scenario file.
"""
from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BASELINE = Path("scenarios") / "baseline.json"
PACKAGE = Path("src") / "nftgamesim" / "__init__.py"

LONG_RUN_STEPS = 2000
CROWD_AGENTS = 400
RUIN_AGENT = 5
RUIN_STEPS = 200
# About 1.5 s of trials per ruin probe on a 2-vCPU x86-64 VM: short probes
# give a run more samples for its median.
RUIN_TRIALS = 8

# A child that outlives this is killed and counted as failed.
CHILD_TIMEOUT_S = 120
PI_REL_TOL = 1e-9

WORKLOADS = ("long-run", "crowd", "ruin-mc")
PROBE = Path(__file__).resolve().parent / "probe.py"


class CheckFailed(Exception):
    """A child exited badly or its outputs are wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulate" or "ruin"
    scenario: Path  # the generated file the program receives
    seed: int
    steps: int
    agents: int
    genesis: int  # genesis collectibles; each is one event at step 0

    def simulate_argv(self, out_dir: Path) -> list[str]:
        return [
            "simulate",
            "--config", str(self.scenario),
            "--seed", str(self.seed),
            "--steps", str(self.steps),
            "--out", str(out_dir),
        ]


def _crowd(agents: list[dict]) -> list[dict]:
    copies = CROWD_AGENTS // len(agents)
    crowd = []
    for _ in range(copies):
        for agent in agents:
            clone = copy.deepcopy(agent)
            clone["id"] = len(crowd) + 1
            crowd.append(clone)
    ids = [a["id"] for a in crowd]
    if len(crowd) != CROWD_AGENTS or len(set(ids)) != len(ids):
        raise ValueError(
            f"crowd must have {CROWD_AGENTS} agents with unique ids, got {len(crowd)}"
        )
    return crowd


def build(name: str, root: Path, work: Path, seed: int) -> Workload:
    """Write the workload's scenario file into ``work`` and describe the run."""
    doc = json.loads((root / BASELINE).read_text())
    kind = "simulate"
    steps = doc["run"]["steps"]
    if name == "long-run":
        steps = LONG_RUN_STEPS
    elif name == "crowd":
        doc["agents"] = _crowd(doc["agents"])
    elif name == "ruin-mc":
        kind = "ruin"
        steps = doc["run"]["steps"] = RUIN_STEPS
    else:
        raise ValueError(f"unknown workload {name!r}")
    path = work / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return Workload(
        name=name,
        kind=kind,
        scenario=path,
        seed=seed,
        steps=steps,
        agents=len(doc["agents"]),
        genesis=sum(a.get("collectibles", 0) for a in doc["agents"]),
    )


# -- child processes -------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float  # spawn to reap
    peak_rss_mb: float  # this child's own peak, from its wait4 rusage
    stdout: str
    stderr: str


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], root: Path, work: Path) -> Child:
    """Run ``python argv`` to completion and measure that one process.

    ``RUSAGE_CHILDREN`` is a running maximum over every child ever reaped,
    so the peak comes from this child's own ``wait4``.
    """
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=root, env=child_env(root), stdout=out, stderr=err
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=end - start,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def require_exit_zero(child: Child, what: str) -> None:
    if child.code != 0:
        tail = child.stderr.strip().splitlines()[-3:]
        raise CheckFailed(f"{what} exited with {child.code}: {' | '.join(tail)}")


def run_setup_probe(wl: Workload, root: Path, work: Path) -> Child:
    """Fresh interpreter: import, load_scenario, GameSimulation(config)."""
    child = spawn([str(PROBE), "setup", str(wl.scenario)], root, work)
    require_exit_zero(child, "set-up probe")
    if child.stdout.strip() != str(wl.genesis):
        raise CheckFailed(
            f"set-up probe minted {child.stdout.strip()!r} collectibles, expected {wl.genesis}"
        )
    return child


def run_once(wl: Workload, root: Path, work: Path) -> tuple[object, Child, float]:
    """One checked run of the workload's program in a child process.

    Returns the outcome that must repeat across runs (output digests, or the
    ruin estimate), the child, and its simulation runs per second.
    """
    if wl.kind == "ruin":
        argv = [str(PROBE), "ruin", str(wl.scenario), str(wl.seed), str(RUIN_AGENT), str(RUIN_TRIALS)]
        child = spawn(argv, root, work)
        require_exit_zero(child, "ruin probe")
        try:
            report = json.loads(child.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
        except (IndexError, ValueError) as exc:
            raise CheckFailed(f"ruin probe printed no JSON report: {exc}") from None
        estimate = check_ruin_report(report)
        seconds = report.get("seconds")
        if not isinstance(seconds, float) or not seconds > 0:
            raise CheckFailed(f"ruin probe reported {seconds!r} seconds")
        return estimate, child, estimate[2] / seconds
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    child = spawn(["-m", "nftgamesim.cli", *wl.simulate_argv(out_dir)], root, work)
    require_exit_zero(child, "simulate")
    digests, _written = check_simulation_outputs(out_dir, wl)
    shutil.rmtree(out_dir)
    return digests, child, 1.0 / child.wall_s


# -- output checks -----------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def _check_total(phi: float, psi: float, omega: float, pi: float, where: str) -> None:
    for value in (phi, psi, omega, pi):
        if not math.isfinite(value):
            raise CheckFailed(f"{where}: non-finite pool value {value}")
    parts = phi + psi + omega
    if abs(pi - parts) > PI_REL_TOL * max(abs(pi), abs(parts), 1e-300):
        raise CheckFailed(f"{where}: pi {pi} != phi + psi + omega = {parts}")


def check_simulation_outputs(out_dir: Path, wl: Workload) -> tuple[dict[str, str], int]:
    """Check one run's files; return their digests and the bytes written."""
    try:
        summary = json.loads((out_dir / "summary.json").read_text(), parse_constant=_reject_constant)
        pools = summary["final_pools"]
        _check_total(pools["phi"], pools["psi"], pools["omega"], pools["pi"], "summary.json")
        if summary["seed"] != wl.seed or summary["steps"] != wl.steps:
            raise CheckFailed(
                f"summary.json reports seed {summary['seed']} and {summary['steps']} steps, "
                f"expected {wl.seed} and {wl.steps}"
            )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"summary.json: {exc!r}") from None

    events, snapshots = _read(out_dir / "events.jsonl"), _read(out_dir / "snapshots.csv")
    lines, expected_lines = events.count(b"\n"), wl.genesis + wl.agents * wl.steps
    if lines != expected_lines:
        raise CheckFailed(f"events.jsonl has {lines} lines, expected {expected_lines}")

    try:
        rows = list(csv.reader(io.StringIO(snapshots.decode())))
        if len(rows) - 1 != wl.steps + 1:
            raise CheckFailed(f"snapshots.csv has {len(rows) - 1} data rows, expected {wl.steps + 1}")
        cols = [rows[0].index(k) for k in ("phi", "psi", "omega", "pi")]
        for row in rows[1:]:
            _check_total(*(float(row[c]) for c in cols), f"snapshots.csv step {row[0]}")
    except (ValueError, IndexError) as exc:
        raise CheckFailed(f"snapshots.csv: {exc!r}") from None

    written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    digests = {
        "events.jsonl": hashlib.sha256(events).hexdigest(),
        "snapshots.csv": hashlib.sha256(snapshots).hexdigest(),
    }
    return digests, written


def check_ruin_report(report: dict) -> tuple[float, float, int]:
    """Return the estimate as (probability, stderr, trials) after checking it."""
    try:
        estimate = (float(report["probability"]), float(report["stderr"]), int(report["trials"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"ruin report: {exc!r}") from None
    probability, stderr, trials = estimate
    if trials != RUIN_TRIALS:
        raise CheckFailed(f"ruin estimate covers {trials} trials, expected {RUIN_TRIALS}")
    if not (0.0 <= probability <= 1.0 and math.isfinite(stderr) and stderr >= 0.0):
        raise CheckFailed(f"ruin estimate out of range: {report}")
    return estimate
