"""Exact record equality between `run_scenario` and the plain reference engine.

The CSV prints 6 decimals, so its digests cannot see last-bit drift in the
records; dataclass equality compares every float exactly.
"""

import dataclasses
import random
from pathlib import Path

import pytest
from reference import reference_run

from hetsim.domain import (
    ALL_NETWORKS,
    DisturbanceSpec,
    MeasurementMode,
    NetworkKind,
    StrategyKind,
    StrategyParams,
    load_scenario,
    validate_config,
)
from hetsim.engine import run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ("table2_step", "table2_disturbance", "linear_delta_e")


@pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
@pytest.mark.parametrize("mode", list(MeasurementMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenarios_match_reference(name, mode, kind):
    cfg = dataclasses.replace(load_scenario(SCENARIOS / f"{name}.json"), num_cycles=40,
                              measurement_mode=mode, strategy_kind=kind)
    assert run_scenario(cfg) == reference_run(cfg)


def random_config(rng: random.Random):
    """table2_step with drawn populations, curves, strategy, disturbance and noise."""
    base = load_scenario(SCENARIOS / "table2_step.json")
    mode = rng.choice(list(MeasurementMode))
    n = rng.randint(1, 12 if mode is MeasurementMode.SAMPLED else 40)
    dsrc = rng.randint(0, n)
    lte = rng.randint(0, n - dsrc)
    cycles = rng.randint(1, 15)
    profiles = {}
    for net in ALL_NETWORKS:
        p = base.profiles[net]
        profiles[net] = dataclasses.replace(
            p, **{name: rng.choice([getattr(p, name), rng.uniform(0.0, 2.0)]) for name in "abh"},
            cap=rng.choice([p.cap, rng.randint(1, 60)]))
    disturbance = None
    if rng.random() < 0.5:
        disturbance = DisturbanceSpec(
            network=rng.choice(ALL_NETWORKS), delta_e=rng.uniform(0.0, 1.0),
            start_cycle=rng.randrange(cycles),
            duration_cycles=rng.choice([None, rng.randint(1, 5)]))
    return dataclasses.replace(
        base, total_terminals=n, num_cycles=cycles, profiles=profiles,
        initial_assignment={NetworkKind.DSRC: dsrc, NetworkKind.LTE: lte,
                            NetworkKind.WIFI: n - dsrc - lte},
        seed=rng.randrange(2**64), measurement_mode=mode,
        strategy_kind=rng.choice(list(StrategyKind)),
        strategy=StrategyParams(n_exp=rng.randint(1, 12), rho=rng.uniform(0.0, 0.99),
                                sigma=rng.uniform(0.0, 1.0)),
        disturbance=disturbance, noise_amplitude=rng.randint(0, 3))


@pytest.mark.parametrize("seed", range(60))
def test_random_configs_match_reference(seed):
    cfg = random_config(random.Random(seed))
    assert validate_config(cfg) == []
    assert run_scenario(cfg) == reference_run(cfg)
