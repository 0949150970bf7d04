"""Command-line front end.

Subcommands:

* run        -- run one scenario, write its CSV, print a summary
* compare    -- run a scenario with both strategies on the same seed
* oracle     -- analytic equilibrium shift vs the simulated one
* calibrate  -- check the performance-curve calibration conditions
* validate   -- report scenario config violations

Exit codes: 0 success, 1 semantic/config error (`_CliError`), 2 I/O
error (`OSError`) or usage error; `main` is the one place that maps them.
All randomness flows from the scenario's seed (or the -s override).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .domain import (
    ALL_NETWORKS,
    MeasurementMode,
    ScenarioConfig,
    ScenarioFormatError,
    StrategyKind,
    load_scenario,
    validate_config,
)
from .engine import run_scenario
from .evaluation import ground_truth_eval, meets_requirements, predict_equilibrium_shift
from .netmodel import perf_at
from .report import RunSummary, format_comparison, format_summary, summarize, write_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
#: The cycles at the end of an oracle run whose mean is the simulated steady shift.
ORACLE_TAIL = 30


class _CliError(Exception):
    """A scenario the simulator must refuse; exits 1 with this message."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetsim",
        description="Heterogeneous vehicular network selection simulator.",
        epilog="Override precedence: command-line flags beat scenario file "
               "values, which beat built-in defaults.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, runs: bool = False) -> argparse.ArgumentParser:
        """A subcommand of `func` on a scenario file; one that `runs` it takes
        the seed, mode and output overrides."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("scenario", help="path to the scenario JSON file")
        if runs:
            p.add_argument("-s", "--seed", type=int, help="override the scenario seed")
            p.add_argument("--mode", choices=[m.value for m in MeasurementMode],
                           help="override the measurement mode")
            p.add_argument("-o", "--output", help="output CSV path (default: scenario stem)")
        return p

    # Only run picks a strategy: compare runs both, and oracle the scenario's.
    run = command("run", cmd_run, "run a scenario and write its CSV", runs=True)
    run.add_argument("--strategy", choices=[k.value for k in StrategyKind],
                     help="override the strategy kind")
    compare = command("compare", cmd_compare, "run a scenario with both strategies, same seed",
                      runs=True)
    oracle = command("oracle", cmd_oracle, "analytic vs simulated equilibrium shift")
    for p in (run, compare, oracle):
        p.add_argument("--num-cycles", type=int, help="override the number of cycles")
    command("calibrate", cmd_calibrate, "check performance-curve calibration")
    command("validate", cmd_validate, "list scenario config violations")
    return parser


def _scenario(args: argparse.Namespace) -> ScenarioConfig:
    """The scenario file with the command's overrides applied, validated; an
    override the command does not take reads as None. Every command reads its
    scenario here."""
    path = args.scenario
    try:
        cfg = load_scenario(path)
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path} is not valid JSON: {exc}") from None
    except ScenarioFormatError as exc:
        raise _CliError(f"{path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # json.load: too many digits; deep nesting
        raise _CliError(f"{path} cannot be parsed: {exc}") from None
    strategy, mode = getattr(args, "strategy", None), getattr(args, "mode", None)
    changes = {"seed": getattr(args, "seed", None),
               "num_cycles": getattr(args, "num_cycles", None),
               "strategy_kind": strategy and StrategyKind(strategy),
               "measurement_mode": mode and MeasurementMode(mode)}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in changes.items() if v is not None})
    violations = validate_config(cfg)
    if violations:
        listing = "\n".join(f"  - {v}" for v in violations)
        raise _CliError(f"invalid scenario:\n{listing}")
    return cfg


def _output_paths(args: argparse.Namespace, suffixes: list[str]) -> list[Path]:
    """The CSV paths: `-o`, else `<scenario stem>.csv`, each suffix before `.csv`,
    each opened here before any run by a probe that leaves no file it made."""
    out = args.output
    if out is not None and (os.path.basename(out) in ("", ".", "..") or Path(out).is_dir()):
        raise _CliError(f"-o {out!r} names no file")  # "", "/", "x/", "x/.", ".." or a directory
    base = Path(Path(args.scenario).stem + ".csv" if out is None else out)
    paths = [base.with_name(f"{base.stem}{suffix}.csv") if suffix else base for suffix in suffixes]
    for path in paths:
        if path.is_dir():
            raise _CliError(f"output {str(path)!r} is a directory")
        existed = os.path.lexists(path)
        open(path, "a").close()  # an OSError names the path
        if not existed:
            path.unlink()
    return paths


def _run(cfg: ScenarioConfig, out: Path) -> RunSummary:
    """Run the scenario, write its CSV to `out`, say so, and return its summary."""
    records = run_scenario(cfg)
    write_csv(records, out)
    print(f"wrote {out}")
    return summarize(records)


def cmd_run(args: argparse.Namespace) -> int:
    print(format_summary(_run(_scenario(args), *_output_paths(args, [""]))))
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _scenario(args)  # validity does not depend on the strategy kind
    kinds = (StrategyKind.GAME, StrategyKind.BASELINE_MCDM)
    outs = _output_paths(args, [f"_{kind.value}" for kind in kinds])
    game, baseline = (_run(dataclasses.replace(cfg, strategy_kind=kind), out)
                      for kind, out in zip(kinds, outs))
    print(format_comparison(game, baseline))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _scenario(args)
    dist = cfg.disturbance
    if dist is None:
        raise _CliError("scenario has no disturbance; nothing to predict")
    if cfg.num_cycles < ORACLE_TAIL:
        raise _CliError(f"the simulated shift averages the last {ORACLE_TAIL} cycles; "
                        f"got {cfg.num_cycles} cycles")
    start, first, last = dist.start_cycle, cfg.num_cycles - ORACLE_TAIL, cfg.num_cycles - 1
    if not (dist.active_at(first) and dist.active_at(last)):
        until = "" if dist.duration_cycles is None else f" to {start + dist.duration_cycles - 1}"
        raise _CliError(f"the simulated shift averages the last {ORACLE_TAIL} cycles, so the "
                        f"disturbance must be active on cycles {first} to {last}; it is "
                        f"active from start_cycle {start}{until}; got {cfg.num_cycles} cycles")
    records = run_scenario(cfg)

    disturbed = dist.network
    pre_counts = records[start - 1].counts if start else cfg.initial_assignment
    g = pre_counts[disturbed]
    # The switch destination: best-scoring alternative at pre-disturbance loads.
    others = [net for net in ALL_NETWORKS if net is not disturbed]
    partner = max(others, key=lambda net: ground_truth_eval(
        cfg.profiles[net], pre_counts[net]))
    h = pre_counts[partner]

    s_predicted = predict_equilibrium_shift(
        lambda n: ground_truth_eval(cfg.profiles[disturbed], n),
        lambda n: ground_truth_eval(cfg.profiles[partner], n),
        g, h, dist.delta_e)

    tail = records[-ORACLE_TAIL:]
    mean_tail = sum(r.counts[disturbed] for r in tail) / len(tail)
    s_simulated = g - mean_tail

    print(f"disturbed network:       {disturbed.value} "
          f"(g={g}, partner {partner.value} h={h}, delta_e={dist.delta_e})")
    print(f"predicted shift:         {s_predicted}")
    print(f"simulated steady shift:  {s_simulated:.2f}")
    return EXIT_OK


def calibration_report(cfg: ScenarioConfig) -> list[tuple[str, bool, str]]:
    """Evaluate the curve-calibration conditions; (name, passed, detail) rows."""
    total = cfg.total_terminals
    profiles = [cfg.profiles[n] for n in ALL_NETWORKS]  # DSRC, LTE, Wi-Fi
    rows: list[tuple[str, bool, str]] = []

    decreasing = all(
        ground_truth_eval(p, n + 1) < ground_truth_eval(p, n)
        for p in profiles for n in range(total)
    )
    rows.append(("decreasing-evaluation", decreasing,
                 "every network's evaluation strictly decreases with load"))

    d1, l1, w1 = (ground_truth_eval(p, 1) for p in profiles)
    d_total = ground_truth_eval(profiles[0], total)
    rows.append(("dsrc-best-then-overloaded",
                 d1 > l1 and d1 > w1 and d_total < l1 and d_total < w1,
                 f"dsrc {d1:.3f} tops lte {l1:.3f} / wifi {w1:.3f} at base load "
                 f"but drops to {d_total:.3f} at {total}"))

    rows.append(("lte-worst-at-base-load", l1 < d1 and l1 < w1,
                 f"lte {l1:.3f} below dsrc {d1:.3f} and wifi {w1:.3f} at load 1"))

    overloaded = all(not meets_requirements(*perf_at(p, total)) for p in profiles)
    n_dsrc = min(cfg.strategy.n_exp, total)
    rest = total - n_dsrc
    split = (n_dsrc, rest // 2, rest - rest // 2)
    shared = all(meets_requirements(*perf_at(p, n)) for p, n in zip(profiles, split))
    rows.append(("no-single-network-carries-all", overloaded,
                 f"each network alone fails requirements at {total} terminals"))
    rows.append(("coordinated-split-carries-all", shared,
                 "split " + "/".join(map(str, split))
                 + " meets requirements everywhere"))
    return rows


def cmd_calibrate(args: argparse.Namespace) -> int:
    rows = calibration_report(_scenario(args))
    for name, passed, detail in rows:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    return EXIT_OK if all(passed for _, passed, _ in rows) else EXIT_CONFIG


def cmd_validate(args: argparse.Namespace) -> int:
    _scenario(args)
    print("ok")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _CliError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # The reader closed stdout (`| head`). Point it at devnull so the
        # interpreter's flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except OSError as exc:  # its message names the file
        print(exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
