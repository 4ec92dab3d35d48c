"""Command-line front end: scenario configs in, reproducible tables out.

Exit codes: 0 success, 2 invalid configuration or flags or an output that
cannot be written, 3 runtime invariant violation. simulate honors --seed, which overrides the
scenario's run.seed; wall-clock entropy is never used. The analyze and demo
commands draw no random numbers: they accept --seed so existing scripts keep
working, but it has no effect there.

simulate writes events.jsonl and snapshots.csv as the run goes. Each event
line is the engine's own, one call of its simulation.PAYLOADS entry, so the
line format lives in one place; this module only joins the lines of a step
and writes them. Both files spell their numbers through one speller, repr
with a bounded memo of float text, which also keeps the text of each
adventure or battle team (see _write_outputs), so the values and teams a
repeated game writes again and again are spelled once. snapshots.csv rows are written as text, not
through the csv module: every cell is a number, which csv writes as repr
does, unquoted.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .scenario import load_scenario
from .simulation import MAX_SEED, PAYLOADS, GameSimulation, SimulationInvariantError, join_ids

# The analyze and demo commands import what they use themselves, so
# simulate never loads analytics (nor numpy).


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not finite: {text!r}")
    return value


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= value < MAX_SEED:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _vector(text: str) -> list[float]:
    return [_finite(x) for x in text.split(",") if x.strip() != ""]


def _matrix(text: str) -> list[list[float]]:
    rows = [_vector(row) for row in text.split(";") if row.strip() != ""]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise argparse.ArgumentTypeError("matrix rows must have equal length")
    return rows


# -- simulate ------------------------------------------------------------


# The memo of float and team text holds at most this many entries plus one
# step's distinct floats and teams. A memo kept for the whole run grows with
# the step count; one cleared every step respells a long run's recurring
# values each step.
SPELLED_FLOATS = 1024


def _write_outputs(out_dir: Path, sim: GameSimulation) -> dict:
    """Write events.jsonl and snapshots.csv as the run goes; return the summary.

    Only the first and the latest snapshot are kept, so memory does not grow
    with the step count. Each event line is one call of its PAYLOADS entry.
    Numbers in both files are spelled by ``num``, which is repr with a memo:
    it keeps the text of a non-zero float only, since equal keys can spell
    differently (2 and 2.0, 0.0 and -0.0). Teams are spelled by ``ids``,
    which keeps the text of a tuple, so an agent's kept team is spelled
    once; a list may change, so it is spelled each time. Traits and parents
    seldom repeat, so the PAYLOADS entries spell them with join_ids and
    never through ``ids``: the memo keeps only what a game writes again.
    Floats and teams share one memo, which is cleared at a step boundary
    once it holds more than SPELLED_FLOATS entries.
    """
    config = sim.config
    agent_ids = sorted(a.id for a in config.agents)
    first = last = None
    texts: dict[float | tuple, str] = {}
    spelled = texts.get

    def num(x) -> str:
        if type(x) is float and x:
            text = spelled(x)
            if text is None:
                text = texts[x] = repr(x)
            return text
        return repr(x)

    def ids(seq) -> str:
        if type(seq) is tuple:
            text = spelled(seq)
            if text is None:
                text = texts[seq] = join_ids(seq)
            return text
        return join_ids(seq)

    with open(out_dir / "snapshots.csv", "w", newline="") as snap_fh, open(
        out_dir / "events.jsonl", "w"
    ) as event_fh:
        header = ["step", "phi", "psi", "omega", "pi", "collectible_count"]
        header += [f"agent{k}_wealth" for k in agent_ids]
        snap_fh.write(",".join(header) + "\r\n")
        for events, snap in sim.stream():
            if len(texts) > SPELLED_FLOATS:
                texts.clear()
            event_fh.write("".join([PAYLOADS[ev.action](ev, num, ids) for ev in events]))
            wealth = snap.agent_wealth
            snap_fh.write(
                f"{snap.step},{num(snap.collectible_pool)},{num(snap.activity_pool)},"
                f"{num(snap.market_pool)},{num(snap.total)},{snap.collectible_count},"
                f"{','.join([num(wealth[k]) for k in agent_ids])}\r\n"
            )
            if first is None:
                first = snap
            last = snap

    strategies = {a.id: a.strategy for a in config.agents}
    return {
        "schema_version": 1,
        "seed": config.seed,
        "steps": config.steps,
        "final_pools": {
            "phi": last.collectible_pool,
            "psi": last.activity_pool,
            "omega": last.market_pool,
            "pi": last.total,
        },
        "collectible_count": last.collectible_count,
        "agents": [
            {
                "id": k,
                "strategy": strategies[k],
                "initial_wealth": first.agent_wealth[k],
                "final_wealth": last.agent_wealth[k],
                "total_earnings": last.agent_wealth[k] - first.agent_wealth[k],
                "ruined": sim.ruined_at[k] is not None,
                "ruined_at": sim.ruined_at[k],
                "actions": sim.action_counts[k],
            }
            for k in agent_ids
        ],
    }


def cmd_simulate(args) -> int:
    # A refused scenario raises ValueError, which main reports.
    config = load_scenario(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.steps is not None:
        try:
            config = replace(config, steps=args.steps)
        except ValueError as exc:
            # The loaded config passed every other check, so only a step
            # check refuses it, and the value came from the flag.
            print(f"error: {str(exc).replace('run.steps', '--steps')}", file=sys.stderr)
            return 2

    out_dir = Path(args.out)
    outputs = [out_dir / name for name in ("events.jsonl", "snapshots.csv", "summary.json")]
    try:
        sim = GameSimulation(config)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            # For example a regular file at --out or at one of its parents.
            print(
                f"error: cannot create output directory {out_dir}: {exc.strerror}",
                file=sys.stderr,
            )
            return 2
        try:
            summary = _write_outputs(out_dir, sim)
            with open(out_dir / "summary.json", "w") as fh:
                json.dump(summary, fh, indent=2, allow_nan=False)
                fh.write("\n")
        except BaseException:
            # A failed run leaves no outputs, not even a stale summary.json
            # describing files that were just overwritten. Whatever blocks
            # an output name (a directory, say) is not ours to remove.
            for path in outputs:
                with contextlib.suppress(OSError):
                    if path.is_file():
                        path.unlink()
            raise
    except SimulationInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.agent is not None:
            last = "none" if exc.last_event is None else json.dumps(exc.last_event.as_dict())
            print(f"error: agent {exc.agent}, last event: {last}", file=sys.stderr)
        return 3
    except OSError as exc:
        # open() names the file; a failed write or close names none.
        path = out_dir if exc.filename is None else exc.filename
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2

    print(f"wrote snapshots.csv, events.jsonl, summary.json to {out_dir}")
    return 0


# -- analyze -------------------------------------------------------------


# What an analyze command's namespace holds besides its inputs.
_NOT_INPUTS = {"command", "operation", "seed", "func"}


def _emit(args, results: dict) -> int:
    """Print the command's flags as "inputs", then its results, on one line.

    argparse keeps a subcommand's flags in add_argument order, whatever
    order the command line gives them, so "inputs" lists them in that order.
    """
    payload = {"inputs": {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}}
    payload.update(results)
    # Strict JSON: an overflowed result exits 2 naming its field.
    for key, value in payload.items():
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise ValueError(f"{key} is not finite") from None
    print(json.dumps(payload, allow_nan=False))
    return 0


def cmd_analyze_sharpe(args) -> int:
    from .analytics import sharpe_ratio

    return _emit(args, {"sharpe_ratio": sharpe_ratio(args.excess, 0.0, args.vol, args.horizon)})


def cmd_analyze_allocate(args) -> int:
    from .analytics import ReturnModel, optimal_allocation

    model = ReturnModel(
        mean_vector=tuple(args.mu),
        riskless_rate=args.riskless,
        vol_matrix=tuple(tuple(r) for r in args.vol),
    )
    try:
        weights = optimal_allocation(model)
    except ValueError as exc:
        raise ValueError(f"{exc} (--vol)") from None
    return _emit(args, {"optimal_allocation": [float(w) for w in weights]})


def cmd_analyze_envelope(args) -> int:
    from .analytics import envelope_expected_gain

    gain1, gain2 = envelope_expected_gain(args.up, args.down, args.prob)
    return _emit(args, {"gain_player1": gain1, "gain_player2": gain2})


def cmd_analyze_propitious(args) -> int:
    from .analytics import UtilitySpec, pooled_lottery_game, propitious_check

    game = pooled_lottery_game(UtilitySpec("power", exponent=args.seeker_exponent))
    per_player, average_mode = propitious_check(game)
    return _emit(args, {"per_player": per_player, "average_mode": average_mode})


def cmd_analyze_lattice(args) -> int:
    from .analytics import lattice_value

    value = lattice_value(args.breeds_remaining, args.floor, args.child_value, args.costs)
    return _emit(args, {"lattice_value": value})


def cmd_analyze_arbitrage(args) -> int:
    from .analytics import classify_breeding_arbitrage

    verdict = classify_breeding_arbitrage(args.capital, args.growth, args.cost)
    return _emit(args, {"verdict": verdict.kind.value, "magnitude": verdict.magnitude})


# -- demos ---------------------------------------------------------------


def _print_table(title: str, rows: list[tuple[str, str, str]]) -> None:
    print(title)
    width = max(len(r[0]) for r in rows)
    print(f"  {'quantity'.ljust(width)}  {'expected':>14}  {'computed':>14}")
    for label, expected, computed in rows:
        print(f"  {label.ljust(width)}  {expected:>14}  {computed:>14}")


def demo_two_envelopes() -> int:
    from .analytics import envelope_expected_gain

    gain1, gain2 = envelope_expected_gain(2.0, 0.5, 0.5)
    _print_table(
        "two-envelopes: double-or-half swap, both sides in their own numeraire",
        [
            ("player 1 gain", "25.000%", f"{gain1 * 100:.3f}%"),
            ("player 2 gain", "25.000%", f"{gain2 * 100:.3f}%"),
        ],
    )
    print("  the swap profits both sides in expectation (Jensen asymmetry)")
    return 0


def demo_babylon_lottery() -> int:
    from .analytics import (
        UtilitySpec,
        heterogeneous_lottery_ev,
        pooled_lottery_game,
        propitious_check,
    )

    averse_ev, seeker_ev = heterogeneous_lottery_ev()
    _print_table(
        "babylon-lottery: ten cautious players and one thrill seeker pool one token each",
        [
            ("risk-averse mean gain", "4.250%", f"{averse_ev * 100:.3f}%"),
            ("risk-seeker mean gain", "-42.500%", f"{seeker_ev * 100:.3f}%"),
        ],
    )
    print(
        "  note: -37.5% is sometimes quoted for the seeker, but the stated"
        " probabilities (95%/5%) and payouts (-50%/+100%) give -42.5%;"
        " the recomputed value is used"
    )
    per8, avg8 = propitious_check(pooled_lottery_game(UtilitySpec("power", exponent=8.0)))
    per2, _ = propitious_check(pooled_lottery_game(UtilitySpec("power", exponent=2.0)))
    print(f"  propitious with power(8) seeker: every player gains utility -> {all(per8)}")
    print(f"  average utility gain positive   -> {avg8}")
    print(f"  power(2) seeker gains utility   -> {per2[-1]} (game not propitious for them)")
    return 0


def demo_collateral_cycle() -> int:
    from .analytics import CollateralSpec, collateral_loop

    calm = CollateralSpec(ltv=0.5, impact=1.0, initial_value=100.0)
    _, outcome = collateral_loop(calm)
    _print_table(
        "collateral-cycle: borrow at 50% LTV, reinvest into the game's own tokens",
        [
            ("converged value", "200.000", f"{outcome.limit_value:.3f}"),
            ("outcome", "Converged", outcome.kind),
        ],
    )
    shocked = CollateralSpec(
        ltv=0.5,
        impact=1.0,
        initial_value=100.0,
        liquidation_threshold=1.0,
        shock_step=12,
        shock_fraction=0.6,
    )
    _, crash = collateral_loop(shocked)
    print(
        f"  with a 60% shock at step 12 the position is {crash.kind}"
        f" at step {crash.liquidated_step} (value under the debt threshold)"
    )
    return 0


def demo_minority() -> int:
    from .analytics import MinorityGameSpec, minority_settle

    side1 = [("alice", 1.0), ("bob", 2.0)]
    side2 = [("carol", 4.0)]
    payouts, organizer = minority_settle(side1, side2, MinorityGameSpec())
    _print_table(
        "minority: stakes 1+2 against 4; smaller side splits the pot pro rata",
        [
            ("alice payout", f"{7 / 3:.4f}", f"{payouts['alice']:.4f}"),
            ("bob payout", f"{14 / 3:.4f}", f"{payouts['bob']:.4f}"),
            ("carol payout", "0.0000", f"{payouts['carol']:.4f}"),
            ("organizer net", "0.0000", f"{organizer:.4f}"),
        ],
    )
    raked = MinorityGameSpec(rake_fraction=0.9, sponsor_subsidy=1.0)
    payouts2, organizer2 = minority_settle(side1, side2, raked)
    total = sum(payouts2.values()) + organizer2
    print(
        f"  with 90% rake and subsidy 1: pot {0.9 * 7 + 1:.2f},"
        f" organizer net {organizer2:.2f}, stakes conserved: {abs(total - 7.0) < 1e-12}"
    )
    print(
        "  sponsor note: the subsidy only pays for itself while"
        " (1 - rake) * total stakes >= subsidy"
    )
    return 0


DEMOS = {
    "two-envelopes": demo_two_envelopes,
    "babylon-lottery": demo_babylon_lottery,
    "collateral-cycle": demo_collateral_cycle,
    "minority": demo_minority,
}


def cmd_demo(args) -> int:
    return DEMOS[args.name]()


# -- parser ----------------------------------------------------------------


UNUSED_SEED_HELP = "accepted for compatibility; has no effect (no random numbers are drawn)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nftgamesim",
        description="Deterministic NFT game economy simulator and analytics toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario file and write csv/jsonl outputs")
    sim.add_argument("--config", required=True, help="scenario JSON file")
    sim.add_argument("--seed", type=_u64, default=None, help="override the scenario seed")
    sim.add_argument("--steps", type=int, default=None, help="override the scenario step count")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    analyze = sub.add_parser("analyze", help="one-shot analytics, JSON on stdout")
    ana_sub = analyze.add_subparsers(dest="operation", required=True)

    sharpe = ana_sub.add_parser("sharpe", help="excess return over volatility, per sqrt(horizon)")
    sharpe.add_argument("--excess", type=_finite, required=True)
    sharpe.add_argument("--vol", type=_finite, required=True)
    sharpe.add_argument("--horizon", type=_finite, default=1.0)
    sharpe.add_argument("--seed", type=_u64, default=0, help=UNUSED_SEED_HELP)
    sharpe.set_defaults(func=cmd_analyze_sharpe)

    allocate = ana_sub.add_parser("allocate", help="growth-optimal multi-asset weights")
    allocate.add_argument("--mu", type=_vector, required=True, help="comma-separated drifts")
    allocate.add_argument("--riskless", type=_finite, default=0.0)
    allocate.add_argument(
        "--vol", type=_matrix, required=True, help="factor loadings, rows ';' separated"
    )
    allocate.add_argument("--seed", type=_u64, default=0, help=UNUSED_SEED_HELP)
    allocate.set_defaults(func=cmd_analyze_allocate)

    envelope = ana_sub.add_parser("envelope", help="two-envelopes expected gains")
    envelope.add_argument("--up", type=_finite, required=True)
    envelope.add_argument("--down", type=_finite, required=True)
    envelope.add_argument("--prob", type=_finite, default=0.5)
    envelope.add_argument("--seed", type=_u64, default=0, help=UNUSED_SEED_HELP)
    envelope.set_defaults(func=cmd_analyze_envelope)

    propitious = ana_sub.add_parser(
        "propitious", help="does the pooled lottery raise everyone's utility?"
    )
    propitious.add_argument("--seeker-exponent", type=_finite, default=8.0)
    propitious.add_argument("--seed", type=_u64, default=0, help=UNUSED_SEED_HELP)
    propitious.set_defaults(func=cmd_analyze_propitious)

    lattice = ana_sub.add_parser("lattice", help="collectible value from remaining breed charges")
    lattice.add_argument("--breeds-remaining", type=int, required=True)
    lattice.add_argument("--floor", type=_finite, required=True)
    lattice.add_argument("--child-value", type=_finite, required=True)
    lattice.add_argument("--costs", type=_vector, required=True)
    lattice.add_argument("--seed", type=_u64, default=0, help=UNUSED_SEED_HELP)
    lattice.set_defaults(func=cmd_analyze_lattice)

    arbitrage = ana_sub.add_parser("arbitrage", help="classify the breeding trade")
    arbitrage.add_argument("--capital", type=_finite, required=True)
    arbitrage.add_argument("--growth", type=_finite, required=True)
    arbitrage.add_argument("--cost", type=_finite, required=True)
    arbitrage.add_argument("--seed", type=_u64, default=0, help=UNUSED_SEED_HELP)
    arbitrage.set_defaults(func=cmd_analyze_arbitrage)

    demo = sub.add_parser("demo", help="run a canonical worked scenario")
    demo.add_argument("name", choices=sorted(DEMOS))
    demo.add_argument("--seed", type=_u64, default=0, help=UNUSED_SEED_HELP)
    demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
