import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

import hetsim
from hetsim.domain import (
    ALL_NETWORKS,
    DisturbanceSpec,
    MeasurementMode,
    NetworkKind,
    NoiseSpec,
    ScenarioConfig,
    ScenarioFormatError,
    StrategyKind,
    StrategyParams,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_config,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def table2_step():
    return load_scenario(SCENARIOS / "table2_step.json")


def test_network_kind_fixed_ordering():
    assert [n.value for n in ALL_NETWORKS] == ["dsrc", "lte", "wifi"]
    assert len(NetworkKind) == 3


def test_public_names_resolve():
    assert [name for name in hetsim.__all__ if not hasattr(hetsim, name)] == []


def test_table2_step_config_is_valid():
    cfg = table2_step()
    assert validate_config(cfg) == []
    assert cfg.total_terminals == 50
    assert cfg.initial_assignment[NetworkKind.DSRC] == 10
    assert cfg.strategy.n_exp == 30
    assert cfg.strategy.rho == 0.5 and cfg.strategy.sigma == 0.5


def test_assignment_sum_mismatch_reported():
    cfg = table2_step()
    assignment = dict(cfg.initial_assignment)
    assignment[NetworkKind.WIFI] = 25
    bad = ScenarioConfig(**{**cfg.__dict__, "initial_assignment": assignment})
    violations = validate_config(bad)
    assert violations == ["assignment sum 55 != 50"]


def test_rho_at_one_reported():
    cfg = table2_step()
    bad = ScenarioConfig(**{**cfg.__dict__,
                            "strategy": StrategyParams(n_exp=30, rho=1.0, sigma=0.5)})
    assert "rho must be < 1" in validate_config(bad)


def test_validate_is_pure():
    cfg = table2_step()
    assert validate_config(cfg) == validate_config(cfg)


def test_weights_must_sum_to_one():
    cfg = table2_step()
    bad = ScenarioConfig(**{**cfg.__dict__,
                            "strategy": StrategyParams(n_exp=30, rho=0.5, sigma=0.5,
                                                       w_delay=0.6, w_plr=0.2,
                                                       w_jit=0.1)})
    assert any("weights must sum to 1" in v for v in validate_config(bad))


def test_noise_and_disturbance_validation():
    cfg = table2_step()
    bad = ScenarioConfig(**{**cfg.__dict__,
                            "noise": NoiseSpec(amplitude=-1, frequency_hz=0.0),
                            "disturbance": DisturbanceSpec(
                                network=NetworkKind.WIFI, delta_e=0.0,
                                start_cycle=500)})
    violations = validate_config(bad)
    assert any("noise amplitude" in v for v in violations)
    assert any("frequency_hz" in v for v in violations)
    assert any("delta_e" in v for v in violations)
    assert any("start_cycle" in v for v in violations)


def test_profile_invariants_checked():
    cfg = table2_step()
    doc = scenario_to_dict(cfg)
    doc["profiles"]["dsrc"]["d0"] = 0.0
    doc["profiles"]["lte"]["p0"] = 1.5
    doc["profiles"]["wifi"]["cap"] = 0
    bad = scenario_from_dict(doc)
    violations = validate_config(bad)
    assert any("dsrc: d0" in v for v in violations)
    assert any("lte: p0" in v for v in violations)
    assert any("wifi: cap" in v for v in violations)


def test_json_round_trip():
    cfg = table2_step()
    assert scenario_from_dict(scenario_to_dict(cfg)) == cfg
    dist = load_scenario(SCENARIOS / "table2_disturbance.json")
    assert scenario_from_dict(scenario_to_dict(dist)) == dist
    lin = load_scenario(SCENARIOS / "linear_delta_e.json")
    assert scenario_from_dict(scenario_to_dict(lin)) == lin
    assert lin.disturbance.duration_cycles is None


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(bogus=1),
    lambda d: d["strategy"].update(gamma=0.2),
    lambda d: d["profiles"]["dsrc"].update(slope=1),
    lambda d: d.update(noise={"amplitude": 1, "frequency_hz": 1, "phase": 0}),
    lambda d: d["initial_assignment"].update(wimax=3),
])
def test_unknown_keys_rejected(mutate):
    doc = scenario_to_dict(table2_step())
    mutate(doc)
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(doc)


def test_missing_required_keys_rejected():
    doc = scenario_to_dict(table2_step())
    del doc["seed"]
    with pytest.raises(ScenarioFormatError, match="seed"):
        scenario_from_dict(doc)


def test_type_errors_rejected():
    doc = scenario_to_dict(table2_step())
    doc["num_cycles"] = "many"
    with pytest.raises(ScenarioFormatError, match="num_cycles"):
        scenario_from_dict(doc)
    doc = scenario_to_dict(table2_step())
    doc["strategy_kind"] = "greedy"
    with pytest.raises(ScenarioFormatError, match="strategy_kind"):
        scenario_from_dict(doc)
    doc = scenario_to_dict(table2_step())
    doc["profiles"]["lte"]["cap"] = True
    with pytest.raises(ScenarioFormatError, match=r"profiles\.lte\.cap"):
        scenario_from_dict(doc)
    doc = scenario_to_dict(table2_step())
    doc["strategy"]["rho"] = 10**400
    with pytest.raises(ScenarioFormatError, match=r"strategy\.rho"):
        scenario_from_dict(doc)
    doc = scenario_to_dict(table2_step())
    doc["strategy"] = None
    with pytest.raises(ScenarioFormatError, match="strategy"):
        scenario_from_dict(doc)


def replace_at(obj, path, value):
    """Copy of a config with the field at a dotted path set to value."""
    head, _, rest = path.partition(".")
    if isinstance(obj, dict):
        key = NetworkKind(head)
        return {**obj, key: replace_at(obj[key], rest, value) if rest else value}
    inner = replace_at(getattr(obj, head), rest, value) if rest else value
    return dataclasses.replace(obj, **{head: inner})


@pytest.mark.parametrize("path, value", [
    ("strategy.rho", math.nan),
    ("strategy.w_delay", math.nan),
    ("strategy.sigma", -math.inf),
    ("profiles.dsrc.a", math.nan),
    ("cycle_length", math.inf),
    ("noise.frequency_hz", math.nan),
])
def test_non_finite_numbers_rejected(tmp_path, path, value):
    cfg = replace_at(load_scenario(SCENARIOS / "table2_disturbance.json"), path, value)
    # json writes NaN and Infinity tokens, which json.load accepts back.
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(scenario_to_dict(cfg)))
    with pytest.raises(ScenarioFormatError, match=re.escape(path)):
        load_scenario(scenario)
    # Library callers skip the JSON step; validation names the field.
    assert [v for v in validate_config(cfg) if "finite" in v] == \
        [f"{path} must be finite, got {value}"]


def test_defaults_applied():
    doc = scenario_to_dict(table2_step())
    del doc["cycle_length"], doc["strategy_kind"], doc["measurement_mode"]
    del doc["initial_assignment"]["dsrc"], doc["noise"]
    cfg = scenario_from_dict(doc)
    assert cfg.initial_assignment[NetworkKind.DSRC] == 0
    assert cfg.noise is None
    assert cfg.cycle_length == 0.1
    assert cfg.strategy_kind is StrategyKind.GAME
    assert cfg.measurement_mode is MeasurementMode.SAMPLED


def test_disturbance_active_window():
    spec = DisturbanceSpec(network=NetworkKind.WIFI, delta_e=0.1,
                           start_cycle=5, duration_cycles=3)
    assert [spec.active_at(c) for c in range(4, 9)] == [False, True, True, True, False]
    open_ended = DisturbanceSpec(network=NetworkKind.WIFI, delta_e=0.1, start_cycle=5)
    assert open_ended.active_at(10**6)
    assert not open_ended.active_at(4)
