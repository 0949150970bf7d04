import dataclasses
import json
import math
import re
import typing
from pathlib import Path

import pytest

import hetsim
from hetsim.domain import (
    ALL_NETWORKS,
    DisturbanceSpec,
    MeasurementMode,
    NetworkKind,
    ScenarioFormatError,
    StrategyKind,
    StrategyParams,
    load_scenario,
    scenario_from_dict,
    validate_config,
)
from hetsim.engine import run_scenario
from hetsim.netmodel import NetworkProfile

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def table2_step():
    return load_scenario(SCENARIOS / "table2_step.json")


def shipped_document(name="table2_step"):
    """A shipped scenario file as parsed JSON, for a test to break."""
    return json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))


def set_at(doc, path, value):
    """Set the field at a dotted path of a parsed document to value, in place."""
    *parents, key = path.split(".")
    for parent in parents:
        doc = doc[parent]
    doc[key] = value


def test_network_kind_fixed_ordering():
    assert [n.value for n in ALL_NETWORKS] == ["dsrc", "lte", "wifi"]
    assert len(NetworkKind) == 3


@pytest.mark.parametrize("name", ["table2_step", "table2_disturbance", "linear_delta_e"])
def test_network_kind_hashes_as_its_value_and_saves_as_it(name):
    # The str mixin puts network-keyed dicts on the C string hash; members must
    # still dump as their bare values, so a loaded scenario's network-keyed maps
    # save as the shipped file wrote them.
    assert [hash(net) for net in ALL_NETWORKS] == [hash("dsrc"), hash("lte"), hash("wifi")]
    cfg, doc = load_scenario(SCENARIOS / f"{name}.json"), shipped_document(name)
    profiles = json.dumps({net: dataclasses.asdict(p) for net, p in cfg.profiles.items()})
    assert json.loads(profiles) == doc["profiles"]
    assert json.loads(json.dumps(cfg.initial_assignment)) == doc["initial_assignment"]
    assert '"dsrc": {' in profiles and "NetworkKind" not in profiles
    if cfg.disturbance is not None:
        assert json.loads(json.dumps(cfg.disturbance.network)) == doc["disturbance"]["network"]


def test_string_keyed_config_names_network_by_its_value():
    # A library caller may key the config's dicts by the plain strings, which
    # find the same entries; a violation names the network all the same.
    cfg = table2_step()
    lte = dataclasses.replace(cfg.profiles[NetworkKind.LTE], a=math.nan)
    cfg = dataclasses.replace(
        cfg, initial_assignment={net.value: c for net, c in cfg.initial_assignment.items()},
        profiles={net.value: p for net, p in {**cfg.profiles, NetworkKind.LTE: lte}.items()})
    assert validate_config(cfg) == ["profiles.lte.a must be finite, got nan"]


def test_public_names_resolve():
    assert [name for name in hetsim.__all__ if not hasattr(hetsim, name)] == []


def test_table2_step_config_is_valid():
    cfg = table2_step()
    assert validate_config(cfg) == []
    assert cfg.total_terminals == 50
    assert cfg.initial_assignment[NetworkKind.DSRC] == 10
    assert cfg.strategy.n_exp == 30
    assert cfg.strategy.rho == 0.5 and cfg.strategy.sigma == 0.5


def test_validate_is_pure():
    cfg = table2_step()
    assert validate_config(cfg) == validate_config(cfg)


@pytest.mark.parametrize("network, changes", [
    ("wifi", {"a": 1e308}),                    # the delay curve reaches inf
    ("dsrc", {"cap": 1, "exponent": 200}),     # (50 / 1) ** 200 raises OverflowError
])
def test_overflowing_load_curve_rejected(network, changes):
    cfg = table2_step()
    profile = dataclasses.replace(cfg.profiles[NetworkKind(network)], **changes)
    cfg = dataclasses.replace(cfg, num_cycles=2, measurement_mode=MeasurementMode.DIRECT,
                              profiles={**cfg.profiles, NetworkKind(network): profile})
    assert validate_config(cfg) == [f"profiles.{network}: load curve overflows at 50 terminals"]
    with pytest.raises(ValueError, match="load curve overflows"):
        run_scenario(cfg)


def test_overflowing_score_sum_rejected():
    # Every metric over its reference is finite (1.56e308 at 50 terminals),
    # but avg_score sums 50 scores of that size, which overflows to -inf.
    cfg = table2_step()
    wifi = dataclasses.replace(cfg.profiles[NetworkKind.WIFI], a=1e307)
    cfg = dataclasses.replace(cfg, num_cycles=3, measurement_mode=MeasurementMode.DIRECT,
                              profiles={**cfg.profiles, NetworkKind.WIFI: wifi})
    assert validate_config(cfg) == ["profiles.wifi: load curve overflows at 50 terminals"]
    with pytest.raises(ValueError, match="load curve overflows"):
        run_scenario(cfg)


def test_overflowing_disturbance_penalty_rejected():
    # The load curves are tame; the penalty alone drives the scores to -inf.
    cfg = load_scenario(SCENARIOS / "linear_delta_e.json")
    cfg = dataclasses.replace(cfg, disturbance=dataclasses.replace(cfg.disturbance,
                                                                   delta_e=1.7e308))
    assert validate_config(cfg) == [
        "disturbance.delta_e 1.7e+308 overflows the run's score sums on wifi"]
    with pytest.raises(ValueError, match=r"disturbance\.delta_e"):
        run_scenario(cfg)


def test_overflowing_measured_delay_rejected():
    # The curve's delay and jitter are each within the bound, but a sampled
    # delay reaches delay + jitter, so a measured score can exceed the curve's.
    cfg = table2_step()
    dsrc = dataclasses.replace(cfg.profiles[NetworkKind.DSRC], cap=1, a=2.2e306, h=2.2e306)
    cfg = dataclasses.replace(cfg, total_terminals=2, num_cycles=2,
                              initial_assignment={NetworkKind.DSRC: 2, NetworkKind.LTE: 0,
                                                  NetworkKind.WIFI: 0},
                              profiles={**cfg.profiles, NetworkKind.DSRC: dsrc})
    assert validate_config(cfg) == ["profiles.dsrc: load curve overflows at 2 terminals"]
    with pytest.raises(ValueError, match="load curve overflows"):
        run_scenario(cfg)


FLOAT_FIELDS = [f"{section}.{f.name}"
                for section, cls in (("strategy", StrategyParams), ("profiles.wifi", NetworkProfile),
                                     ("disturbance", DisturbanceSpec))
                for f in dataclasses.fields(cls) if typing.get_type_hints(cls)[f.name] is float]


# A library caller can put a non-finite float in an int field as well.
INT_FIELDS = ["seed", "num_cycles", "noise_amplitude", "total_terminals", "strategy.n_exp",
              "initial_assignment.lte"]
NON_FINITE = (math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("scenario, path, value", [
    ("table2_step", "profiles.dsrc.a", math.inf),
    ("table2_step", "profiles.dsrc.d0", math.nan),
] + [("linear_delta_e", path, value) for path in FLOAT_FIELDS for value in NON_FINITE]
  + [("linear_delta_e", path, value)
     for path in INT_FIELDS + ["disturbance.start_cycle", "disturbance.duration_cycles"]
     for value in NON_FINITE]
  + [("table2_disturbance", path, value)  # noise_amplitude > 0
     for path in INT_FIELDS for value in NON_FINITE])
def test_non_finite_value_named_once(scenario, path, value):
    # Neither the range checks, the assignment sum, the overflow bound nor a
    # cross-field check judge a value the finite check already names.
    cfg = replace_at(load_scenario(SCENARIOS / f"{scenario}.json"), path, value)
    assert validate_config(cfg) == [f"{path} must be finite, got {value}"]


@pytest.mark.parametrize("path", FLOAT_FIELDS)
def test_int_beyond_float_range_named_once(path):
    # A library caller can put an int in a float field. One beyond the float
    # range, of either sign, is named by its path, never raised on, and judged
    # by no range check or other bound (the disturbance is on wifi, so its
    # penalty bound is in reach too).
    for sign in (1, -1):
        cfg = replace_at(load_scenario(SCENARIOS / "linear_delta_e.json"), path, sign * 10**400)
        assert validate_config(cfg) == [f"{path} must be finite, got {sign * math.inf}"]


def test_non_finite_value_named_before_other_faults():
    # While a config holds a non-finite number, only that number is named; the
    # out-of-range sigma and num_cycles are judged once it is fixed.
    cfg = dataclasses.replace(table2_step(), num_cycles=0,
                              strategy=StrategyParams(n_exp=30, rho=math.nan, sigma=2.0))
    assert validate_config(cfg) == ["strategy.rho must be finite, got nan"]
    fixed = dataclasses.replace(cfg, strategy=StrategyParams(n_exp=30, rho=0.5, sigma=2.0))
    assert validate_config(fixed) == ["num_cycles must be in [1, 1.7976931348623157e+308], got 0",
                                      "strategy.sigma must be in [0, 1], got 2.0"]


def without_wifi_profile(cfg):
    return dataclasses.replace(cfg, profiles={
        net: p for net, p in cfg.profiles.items() if net is not NetworkKind.WIFI})


def zero_n_exp(cfg):
    return replace_at(cfg, "strategy.n_exp", 0)


def huge_negative_n_exp(cfg):
    return replace_at(cfg, "strategy.n_exp", -10**5000)


def wifi_disturbance(**fields):
    return lambda cfg: dataclasses.replace(cfg, disturbance=DisturbanceSpec(
        network=NetworkKind.WIFI, delta_e=0.1, **fields))


def stray_5g_key(name):
    """A config whose `name` dict also holds a "5g" entry, which no run reads."""
    return lambda cfg: dataclasses.replace(cfg, **{
        name: {**getattr(cfg, name), "5g": getattr(cfg, name)[NetworkKind.DSRC]}})


@pytest.mark.parametrize("mutate, violation", [
    (lambda c: dataclasses.replace(c, total_terminals=0, initial_assignment={
        net: 0 for net in ALL_NETWORKS}), "total_terminals must be >= 1, got 0"),
    (lambda c: replace_at(c, "initial_assignment", {
        NetworkKind.DSRC: -1, NetworkKind.LTE: 21, NetworkKind.WIFI: 30}),
     "initial_assignment.dsrc must be >= 0, got -1"),
    (lambda c: replace_at(c, "noise_amplitude", -1), "noise_amplitude must be >= 0, got -1"),
    (lambda c: replace_at(c, "seed", -1),
     "seed must be a 64-bit unsigned integer, got -1"),
    (zero_n_exp, "strategy.n_exp must be in [1, 1.7976931348623157e+308], got 0"),
    (lambda c: replace_at(c, "strategy.rho", -0.1), "strategy.rho must be in [0, 1), got -0.1"),
    # An int beyond the float range prints as its sign and digit count, which
    # also spares str() an int over its 4300-digit limit.
    (lambda c: replace_at(c, "seed", 10**5000 - 1),
     "seed must be a 64-bit unsigned integer, got <5000-digit integer>"),
    (huge_negative_n_exp,
     "strategy.n_exp must be in [1, 1.7976931348623157e+308], got -<5001-digit integer>"),
    (without_wifi_profile, "profiles.wifi is missing"),
    (lambda c: replace_at(c, "profiles.dsrc.g0", 0.0), "profiles.dsrc.g0 must be > 0, got 0.0"),
    (lambda c: replace_at(c, "profiles.lte.h", -0.1), "profiles.lte.h must be >= 0, got -0.1"),
    (lambda c: replace_at(c, "profiles.wifi.exponent", 0.5),
     "profiles.wifi.exponent must be >= 1, got 0.5"),
    (wifi_disturbance(start_cycle=-1), "disturbance.start_cycle must be in [0, 150), got -1"),
    (wifi_disturbance(start_cycle=5, duration_cycles=0),
     "disturbance.duration_cycles must be >= 1 or null, got 0"),
    # Plain strings where the engine compares enum members by identity: the run
    # would play the baseline, run direct, or apply no disturbance at all.
    (lambda c: dataclasses.replace(c, strategy_kind="game"),
     "strategy_kind must be a StrategyKind, got 'game'"),
    (lambda c: dataclasses.replace(c, measurement_mode="sampled"),
     "measurement_mode must be a MeasurementMode, got 'sampled'"),
    (lambda c: dataclasses.replace(c, disturbance=DisturbanceSpec(
        network="5g", delta_e=0.1, start_cycle=5)),
     "disturbance.network must be a NetworkKind, got '5g'"),
    (stray_5g_key("initial_assignment"),
     "initial_assignment must be keyed by dsrc, lte or wifi, got '5g'"),
    (stray_5g_key("profiles"), "profiles must be keyed by dsrc, lte or wifi, got '5g'"),
    # A float or a bool in an int field, which the loader refuses: the run would
    # crash on it (noise_amplitude, num_cycles, seed) or silently read it.
    (lambda c: replace_at(c, "total_terminals", 50.0),
     "total_terminals must be an integer, got 50.0"),
    (lambda c: replace_at(c, "initial_assignment.dsrc", 10.0),
     "initial_assignment.dsrc must be an integer, got 10.0"),
    (lambda c: replace_at(c, "num_cycles", 3.5), "num_cycles must be an integer, got 3.5"),
    (lambda c: replace_at(c, "noise_amplitude", 1.5),
     "noise_amplitude must be an integer, got 1.5"),
    (lambda c: replace_at(c, "noise_amplitude", True),
     "noise_amplitude must be an integer, got True"),
    (lambda c: replace_at(c, "seed", 4.5), "seed must be an integer, got 4.5"),
    (lambda c: replace_at(c, "strategy.n_exp", 30.5),
     "strategy.n_exp must be an integer, got 30.5"),
    (lambda c: replace_at(c, "profiles.lte.cap", 60.0),
     "profiles.lte.cap must be an integer, got 60.0"),
    (wifi_disturbance(start_cycle=5.0), "disturbance.start_cycle must be an integer, got 5.0"),
    (wifi_disturbance(start_cycle=5, duration_cycles=3.0),
     "disturbance.duration_cycles must be an integer, got 3.0"),
    # Any value its declared type does not admit, judged from the type hints: the
    # validator would raise on it (a comparison, an attribute, a dict lookup) or
    # silently read it.
    (lambda c: replace_at(c, "strategy.rho", "0.5"), "strategy.rho must be a number, got '0.5'"),
    (lambda c: replace_at(c, "strategy.sigma", True), "strategy.sigma must be a number, got True"),
    (lambda c: dataclasses.replace(c, strategy=None),
     "strategy must be a StrategyParams, got None"),
    (lambda c: dataclasses.replace(c, strategy={"n_exp": 30, "rho": 0.5, "sigma": 0.5}),
     "strategy must be a StrategyParams, got {'n_exp': 30, 'rho': 0.5, 'sigma': 0.5}"),
    (lambda c: replace_at(c, "profiles.dsrc", {"d0": 0.01}),
     "profiles.dsrc must be a NetworkProfile, got {'d0': 0.01}"),
    (lambda c: dataclasses.replace(c, initial_assignment=[10, 20, 20]),
     "initial_assignment must be a dict, got [10, 20, 20]"),
    (lambda c: dataclasses.replace(c, disturbance={"network": "wifi", "delta_e": 0.1}),
     "disturbance must be a DisturbanceSpec, got {'network': 'wifi', 'delta_e': 0.1}"),
    (lambda c: replace_at(wifi_disturbance(start_cycle=5)(c), "disturbance.delta_e", "0.1"),
     "disturbance.delta_e must be a number, got '0.1'"),
])
def test_each_violation_named_alone(mutate, violation):
    assert validate_config(mutate(table2_step())) == [violation]


@pytest.mark.parametrize("mutate, violations", [
    pytest.param(lambda c: replace_at(c, "initial_assignment.wifi", 25),
                 ["initial_assignment must sum to total_terminals 50, got 55"],
                 id="assignment_sum_mismatch_reported"),
    pytest.param(lambda c: replace_at(c, "strategy.rho", 1.0),
                 ["strategy.rho must be in [0, 1), got 1.0"], id="rho_at_one_reported"),
    pytest.param(lambda c: dataclasses.replace(c, noise_amplitude=-1, disturbance=DisturbanceSpec(
                     network=NetworkKind.WIFI, delta_e=0.0, start_cycle=500)),
                 ["noise_amplitude must be >= 0, got -1",
                  "disturbance.delta_e must be > 0, got 0.0",
                  "disturbance.start_cycle must be in [0, 150), got 500"],
                 id="noise_and_disturbance_validation"),
    pytest.param(lambda c: replace_at(replace_at(replace_at(
                     c, "profiles.dsrc.d0", 0.0), "profiles.lte.p0", 1.5), "profiles.wifi.cap", 0),
                 ["profiles.dsrc.d0 must be > 0, got 0.0",
                  "profiles.lte.p0 must be in [0, 1), got 1.5",
                  "profiles.wifi.cap must be >= 1, got 0"],
                 id="profile_invariants_checked"),
    # A non-integer is named alone, as a non-finite number is; the out-of-range
    # sigma is judged once it is fixed.
    pytest.param(lambda c: replace_at(replace_at(c, "num_cycles", 3.5), "strategy.sigma", 2.0),
                 ["num_cycles must be an integer, got 3.5"], id="non_integer_named_before_others"),
    # A non-finite and a wrong-typed value are judged in one pass, in field order.
    pytest.param(lambda c: dataclasses.replace(replace_at(c, "strategy.rho", math.nan),
                                               strategy_kind="game"),
                 ["strategy.rho must be finite, got nan",
                  "strategy_kind must be a StrategyKind, got 'game'"],
                 id="non_finite_and_wrong_type_listed_together"),
])
def test_violations_listed_exactly(mutate, violations):
    assert validate_config(mutate(table2_step())) == violations


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("path", [
    "seed", "total_terminals", "num_cycles", "noise_amplitude", "strategy.n_exp",
    "strategy.rho", "disturbance.start_cycle", "disturbance.duration_cycles"])
def test_huge_int_named_not_raised(path, sign):
    cfg = replace_at(wifi_disturbance(start_cycle=5, duration_cycles=3)(table2_step()),
                     path, sign * 10**5000)
    violations = validate_config(cfg)
    if (path, sign) == ("disturbance.duration_cycles", 1):
        assert violations == []  # a disturbance may outlast the run
    else:
        assert any(path.rpartition(".")[2] in v for v in violations)


def test_readme_scenario_example_loads():
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```json\n(.*?)```", readme, re.DOTALL)
    assert block is not None
    cfg = scenario_from_dict(json.loads(block.group(1)))
    assert validate_config(cfg) == []


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(bogus=1),
    lambda d: d["strategy"].update(gamma=0.2),
    lambda d: d["profiles"]["dsrc"].update(slope=1),
    lambda d: d.update(noise={"amplitude": 2}),  # the block noise_amplitude replaced
    lambda d: d["initial_assignment"].update(wimax=3),
])
def test_unknown_keys_rejected(mutate):
    doc = shipped_document()
    mutate(doc)
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(doc)


def test_missing_required_keys_rejected():
    doc = shipped_document()
    del doc["seed"]
    with pytest.raises(ScenarioFormatError, match="seed"):
        scenario_from_dict(doc)


def test_type_errors_rejected():
    # A wrong-typed value loads, and validation names it as in a config built
    # in code; an unknown enum value is refused by the loader.
    doc = shipped_document()
    doc["num_cycles"] = "many"
    assert validate_config(scenario_from_dict(doc)) == [
        "num_cycles must be an integer, got 'many'"]
    doc = shipped_document()
    doc["strategy_kind"] = "greedy"
    with pytest.raises(ScenarioFormatError, match="strategy_kind"):
        scenario_from_dict(doc)
    doc = shipped_document()
    doc["profiles"]["lte"]["cap"] = True
    assert validate_config(scenario_from_dict(doc)) == [
        "profiles.lte.cap must be an integer, got True"]
    doc = shipped_document()
    # An int beyond the float range has the right type: validation names it as ±inf.
    doc["strategy"]["rho"] = 10**400
    assert validate_config(scenario_from_dict(doc)) == ["strategy.rho must be finite, got inf"]
    doc["strategy"]["rho"] = -10**5000
    assert validate_config(scenario_from_dict(doc)) == ["strategy.rho must be finite, got -inf"]
    doc = shipped_document()
    doc["strategy"] = None
    with pytest.raises(ScenarioFormatError, match="strategy"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("path, value", [
    ("seed", [10**5000]),
    ("strategy.rho", {"x": -10**5000}),
])
def test_huge_int_inside_container_named_not_raised(path, value):
    # A library caller's dict may hold an int too long to print where the
    # schema wants a number; validation still names the field.
    doc = shipped_document()
    set_at(doc, path, value)
    assert validate_config(scenario_from_dict(doc)) == {
        "seed": ["seed must be an integer, got <list too long to print>"],
        "strategy.rho": ["strategy.rho must be a number, got <dict too long to print>"],
    }[path]


@pytest.mark.parametrize("field, value, message", [
    ("initial_assignment", [10, 20, 20], "initial_assignment: expected an object"),
    ("profiles", 3, "profiles: expected an object"),
    # A leaf of the wrong type is no shape error: the config loads, and validation names it.
    ("noise_amplitude", 2.0, "noise_amplitude must be an integer, got 2.0"),
])
def test_json_shape_errors_name_field(field, value, message):
    doc = shipped_document()
    doc[field] = value
    try:
        faults = validate_config(scenario_from_dict(doc))
    except ScenarioFormatError as exc:
        faults = [str(exc)]
    assert faults == [message]


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
    ("strategy.sigma", -math.inf),
    ("profiles.dsrc.a", math.nan),
])
def test_non_finite_numbers_rejected(tmp_path, path, value):
    cfg = replace_at(load_scenario(SCENARIOS / "table2_disturbance.json"), path, value)
    # json writes NaN and Infinity tokens, which json.load accepts back. The
    # loader reads shape only, so the file loads, and validation names the
    # field for the file and for the config built in code alike.
    doc = shipped_document("table2_disturbance")
    set_at(doc, path, value)
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    expected = [f"{path} must be finite, got {value}"]
    assert validate_config(load_scenario(scenario)) == expected
    assert validate_config(cfg) == expected


def test_defaults_applied():
    # An optional field spelled out at its default ("disturbance": null
    # included) loads as one left out: the shipped file leaves out two.
    doc = shipped_document()
    spelled_out = {**doc, "strategy_kind": "game", "measurement_mode": "sampled",
                   "noise_amplitude": 0, "disturbance": None}
    assert scenario_from_dict(spelled_out) == table2_step()
    del doc["strategy_kind"], doc["measurement_mode"], doc["initial_assignment"]["dsrc"]
    assert "noise_amplitude" not in doc and "disturbance" not in doc
    cfg = scenario_from_dict(doc)
    assert cfg.initial_assignment[NetworkKind.DSRC] == 0
    assert cfg.noise_amplitude == 0
    assert cfg.strategy_kind is StrategyKind.GAME
    assert cfg.measurement_mode is MeasurementMode.SAMPLED
    assert cfg.disturbance is None
    # A null inside a block loads as None too.
    assert load_scenario(SCENARIOS / "linear_delta_e.json").disturbance.duration_cycles is None


def test_disturbance_active_window():
    spec = DisturbanceSpec(network=NetworkKind.WIFI, delta_e=0.1,
                           start_cycle=5, duration_cycles=3)
    assert [spec.active_at(c) for c in range(4, 9)] == [False, True, True, True, False]
    open_ended = DisturbanceSpec(network=NetworkKind.WIFI, delta_e=0.1, start_cycle=5)
    assert open_ended.active_at(10**6)
    assert not open_ended.active_at(4)
