"""Workload generation for the hetsim benchmark.

A workload turns the benchmark's seed into the list of scenario configs
that one *round* simulates; every round of a run repeats the same list.
Each config is one operation: one simulated (config, seed) run.

Importing this module puts the checkout's ``src`` first on ``sys.path``,
so the benchmark measures the sources next to it and never an installed
copy; it exits with an error when those sources are missing.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"

if not (SRC / "hetsim" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: hetsim sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from hetsim import domain  # noqa: E402
from hetsim.domain import MeasurementMode, ScenarioConfig, StrategyKind  # noqa: E402

#: The shipped scenarios' own seed; outputs for it are pinned by digest.
DEFAULT_SEED = 42
#: Consecutive seeds per round of the direct sweep.
SWEEP_SEEDS = 40
#: Cycles per run of the scaled sampled workload.
SAMPLED_N200_CYCLES = 40

#: Scenario file each workload starts from.
SCENARIO_OF = {
    "sampled_step_n200": "table2_step.json",
    "compare_step_n50": "table2_step.json",
    "direct_sweep_disturbance": "table2_disturbance.json",
}
WORKLOADS = tuple(SCENARIO_OF)


def load_base(workload: str) -> ScenarioConfig:
    """Parse the workload's shipped scenario through the program's loader."""
    return domain.load_scenario(SCENARIOS / SCENARIO_OF[workload])


def scale(cfg: ScenarioConfig, n: int) -> ScenarioConfig:
    """Scale a 50-terminal scenario to n terminals, keeping its shape.

    The initial assignment, n_exp and every profile cap grow by n/50, so
    the curves as a function of n/cap, and the equilibrium as a share of
    the population, are those of the shipped scenario.
    """
    if cfg.total_terminals != 50 or n % 50:
        raise ValueError(f"cannot scale {cfg.total_terminals} terminals to {n}")
    k = n // 50
    return dataclasses.replace(
        cfg,
        total_terminals=n,
        initial_assignment={net: c * k for net, c in cfg.initial_assignment.items()},
        strategy=dataclasses.replace(cfg.strategy, n_exp=cfg.strategy.n_exp * k),
        profiles={net: dataclasses.replace(p, cap=p.cap * k)
                  for net, p in cfg.profiles.items()},
    )


def round_configs(workload: str, base: ScenarioConfig, seed: int) -> list[ScenarioConfig]:
    """The operations of one round of `workload`, generated from `seed`."""
    if workload == "sampled_step_n200":
        return [dataclasses.replace(scale(base, 200), seed=seed,
                                    num_cycles=SAMPLED_N200_CYCLES)]
    if workload == "compare_step_n50":
        # What `hetsim compare` runs: both strategies on the same seed.
        return [dataclasses.replace(base, seed=seed, strategy_kind=kind)
                for kind in (StrategyKind.GAME, StrategyKind.BASELINE_MCDM)]
    if workload == "direct_sweep_disturbance":
        return [dataclasses.replace(base, seed=seed + i,
                                    measurement_mode=MeasurementMode.DIRECT)
                for i in range(SWEEP_SEEDS)]
    raise ValueError(f"unknown workload {workload!r}")


def ladder_configs(seed: int) -> dict[str, ScenarioConfig]:
    """Informational N ladder: the step scenario scaled, a few cycles each."""
    step = domain.load_scenario(SCENARIOS / "table2_step.json")
    rungs = [(MeasurementMode.SAMPLED, n, 6) for n in (50, 100, 200, 400)]
    rungs += [(MeasurementMode.DIRECT, n, 20) for n in (200, 800, 3200)]
    return {
        f"ladder.{mode.value}_n{n}.cycle_ms_p50": dataclasses.replace(
            scale(step, n), seed=seed, num_cycles=cycles, measurement_mode=mode)
        for mode, n, cycles in rungs
    }
