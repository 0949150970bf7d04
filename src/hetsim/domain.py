"""Core value types, scenario configuration schema, and validation.

Everything in this module is an immutable value object: safe to share,
hash-friendly where it matters, and free of behavior beyond construction
checks and (de)serialization of the scenario JSON document.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import types
import typing
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterator

from .netmodel import NetworkProfile, perf_at

MAX_SEED = 2**64 - 1
#: Counts, cycles and n_exp meet floats, so none may exceed the largest one.
FLOAT_MAX = sys.float_info.max
#: The cycle, in seconds: the 10 Hz period of every terminal's Basic Safety Message.
CYCLE_S = 0.1
#: A Basic Safety Message's maximum acceptable delay (s), loss ratio and jitter (s).
F_DELAY_REF, F_PLR_REF, F_JIT_REF = 0.1, 0.05, 0.1
#: Weights of the delay, loss and jitter utilities in a network's score; they sum to 1.
W_DELAY, W_PLR, W_JIT = 0.7, 0.2, 0.1


class NetworkKind(str, Enum):
    """The three access networks. DSRC is the default attachment.

    The declaration order is the fixed total ordering used for
    deterministic tie-breaking everywhere in the simulator. The str mixin
    makes members hash and compare as their values, in C, on every
    network-keyed dict; format a member through .value, since str() and
    format() of a mixed-in member differ between Python versions. On
    CPython 3.11 reading a member (NetworkKind.DSRC) costs ~10x reading a
    module global, so hot loops use the bound constant DSRC below.
    """

    DSRC = "dsrc"
    LTE = "lte"
    WIFI = "wifi"

DSRC = NetworkKind.DSRC
#: All networks in tie-break order.
ALL_NETWORKS = (DSRC, NetworkKind.LTE, NetworkKind.WIFI)


class StrategyKind(Enum):
    GAME = "game"
    BASELINE_MCDM = "baseline_mcdm"


class MeasurementMode(Enum):
    #: Metrics realized through per-link Bernoulli/uniform sampling.
    SAMPLED = "sampled"
    #: Metrics taken from the ground-truth curves exactly (oracle-grade).
    DIRECT = "direct"


@dataclass(frozen=True)
class StrategyParams:
    """Knobs of the handoff game's switch probabilities.

    n_exp is the target ceiling for DSRC-attached terminals; rho and sigma
    scale the overload/return and degradation switch probabilities.
    """

    n_exp: int
    rho: float
    sigma: float


@dataclass(frozen=True)
class DisturbanceSpec:
    """An abrupt evaluation penalty on one network.

    While active, the network's score as seen by every terminal drops by
    delta_e. duration_cycles=None means the disturbance never ends.
    """

    network: NetworkKind
    delta_e: float
    start_cycle: int
    duration_cycles: int | None = None

    def active_at(self, cycle: int) -> bool:
        if cycle < self.start_cycle:
            return False
        if self.duration_cycles is None:
            return True
        return cycle < self.start_cycle + self.duration_cycles


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation run."""

    total_terminals: int
    initial_assignment: dict[NetworkKind, int]
    num_cycles: int
    strategy: StrategyParams
    profiles: dict[NetworkKind, NetworkProfile]
    seed: int
    strategy_kind: StrategyKind = StrategyKind.GAME
    measurement_mode: MeasurementMode = MeasurementMode.SAMPLED
    #: Each cycle, each terminal adds a uniform integer in [-a, a], a = noise_amplitude,
    #: to its perceived DSRC count.
    noise_amplitude: int = 0
    disturbance: DisturbanceSpec | None = None


def _shown(value: Any) -> str:
    """repr(value), except that an int with more digits than str() may print
    (sys.get_int_max_str_digits) shows as its sign and number of digits."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):  # a container holding such an int
            return f"<{type(value).__name__} too long to print>"
        n = abs(value)
        digits = int(math.log10(n)) + 1
        digits += (n >= 10**digits) - (n < 10 ** (digits - 1))  # log10 rounds near 10**k
        return f"{'-' if value < 0 else ''}<{digits}-digit integer>"


class ScenarioFormatError(ValueError):
    """Raised when a scenario document is structurally malformed."""


def validate_config(cfg: ScenarioConfig) -> list[str]:
    """Return the config's invariant violations (empty list if valid).

    A NaN or infinite number is named alone: while the config holds one, the
    list names only its non-finite values (NaN fails every comparison, ±inf
    one side of a range), and the other checks judge it once they are fixed.
    Violations are data, not failures: the function never raises for a
    well-typed config, and identical inputs yield identical lists.
    """
    v = [f"{path} must be finite, got {_shown(val)}" for path, val in _non_finite(cfg, "")]
    if v:
        return v
    s = cfg.strategy

    if cfg.total_terminals < 1:
        v.append(f"total_terminals must be >= 1, got {_shown(cfg.total_terminals)}")
    assigned = sum(cfg.initial_assignment.get(net, 0) for net in ALL_NETWORKS)
    if assigned != cfg.total_terminals:
        v.append(f"assignment sum {_shown(assigned)} != total_terminals "
                 f"{_shown(cfg.total_terminals)}")
    for net in ALL_NETWORKS:
        if cfg.initial_assignment.get(net, 0) < 0:
            v.append(f"initial assignment for {net.value} is negative")
    if cfg.num_cycles < 1:
        v.append(f"num_cycles must be >= 1, got {_shown(cfg.num_cycles)}")
    elif cfg.num_cycles > FLOAT_MAX:
        v.append(f"num_cycles must be <= {FLOAT_MAX}")
    if cfg.noise_amplitude < 0:
        v.append(f"noise_amplitude must be >= 0, got {_shown(cfg.noise_amplitude)}")
    elif cfg.noise_amplitude and cfg.total_terminals + cfg.noise_amplitude > FLOAT_MAX:
        v.append(f"noise_amplitude must be <= {FLOAT_MAX} - total_terminals")
    if not 0 <= cfg.seed <= MAX_SEED:
        v.append(f"seed must be a 64-bit unsigned integer, got {_shown(cfg.seed)}")

    if s.n_exp < 1:
        v.append(f"strategy.n_exp must be >= 1, got {_shown(s.n_exp)}")
    elif s.n_exp > FLOAT_MAX:
        v.append(f"strategy.n_exp must be <= {FLOAT_MAX}")
    if s.rho < 0:
        v.append(f"rho must be >= 0, got {_shown(s.rho)}")
    if s.rho >= 1:
        v.append("rho must be < 1")
    if not 0 <= s.sigma <= 1:
        v.append(f"sigma must be in [0, 1], got {_shown(s.sigma)}")

    for net in ALL_NETWORKS:
        if net not in cfg.profiles:
            v.append(f"profile for {net.value} is missing")
            continue
        p = cfg.profiles[net]
        tag = net.value
        if p.d0 <= 0:
            v.append(f"{tag}: d0 must be > 0, got {_shown(p.d0)}")
        if p.g0 <= 0:
            v.append(f"{tag}: g0 must be > 0, got {_shown(p.g0)}")
        if not 0 <= p.p0 < 1:
            v.append(f"{tag}: p0 must be in [0, 1), got {_shown(p.p0)}")
        for name, val in (("a", p.a), ("b", p.b), ("h", p.h)):
            if val < 0:
                v.append(f"{tag}: {name} must be >= 0, got {_shown(val)}")
        if p.cap < 1:
            v.append(f"{tag}: cap must be >= 1, got {_shown(p.cap)}")
        if p.exponent < 1:
            v.append(f"{tag}: exponent must be >= 1, got {_shown(p.exponent)}")
        # Curves never fall with load: at N terminals a measured delay or jitter is
        # at most top = delay + jitter, the loss estimate below N, and |score| at most
        # B = 1 + max(metric / ref) + penalty. Runs sum up to max(N, num_cycles) of each.
        if p.cap >= 1 and cfg.total_terminals >= 1 and cfg.num_cycles <= FLOAT_MAX:
            terms = max(cfg.total_terminals, cfg.num_cycles)
            try:
                delay, _, jit = perf_at(p, cfg.total_terminals)
                top = delay + jit
                bound = 1 + max(top / F_DELAY_REF, cfg.total_terminals / F_PLR_REF,
                                top / F_JIT_REF)
                finite = math.isfinite(max(bound, top) * terms)
            except OverflowError:
                finite = False
            d = cfg.disturbance
            if not finite:
                v.append(f"{tag}: load curve overflows at "
                         f"{_shown(cfg.total_terminals)} terminals")
            elif d and d.network is net and not math.isfinite((bound + d.delta_e) * terms):
                v.append(f"{tag}: disturbance delta_e {_shown(d.delta_e)} "
                         "overflows the run's score sums")

    if cfg.disturbance is not None:
        d = cfg.disturbance
        if d.delta_e <= 0:
            v.append(f"disturbance delta_e must be > 0, got {_shown(d.delta_e)}")
        if d.start_cycle < 0:
            v.append(f"disturbance start_cycle must be >= 0, got {_shown(d.start_cycle)}")
        elif d.start_cycle >= cfg.num_cycles:
            v.append(f"disturbance start_cycle {_shown(d.start_cycle)} is past the run "
                     f"({_shown(cfg.num_cycles)} cycles)")
        if d.duration_cycles is not None and d.duration_cycles < 1:
            v.append(f"disturbance duration_cycles must be >= 1 or null, "
                     f"got {_shown(d.duration_cycles)}")
    return v


# ---------------------------------------------------------------------------
# JSON schema
#
# The scenario document mirrors the dataclasses with snake_case keys, so the
# dataclass fields and their type hints are the whole schema. The loader checks
# shape only (types, keys, enums; unknown keys fail loudly at every level).
# ---------------------------------------------------------------------------

def _from_json(tp: Any, value: Any, path: str) -> Any:
    """Convert a parsed JSON value to `tp`; errors name the dotted field path."""
    if isinstance(tp, types.UnionType):  # `X | None`
        if value is None:
            return None
        tp = next(arg for arg in typing.get_args(tp) if arg is not type(None))
    if dataclasses.is_dataclass(tp):
        where = path or "scenario"
        if not isinstance(value, dict):
            raise ScenarioFormatError(f"{where}: expected an object")
        fields = dataclasses.fields(tp)
        unknown = set(value) - {f.name for f in fields}
        if unknown:
            raise ScenarioFormatError(f"{where}: unknown keys {sorted(unknown)}")
        missing = {f.name for f in fields if f.name not in value
                   and f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING}
        if missing:
            raise ScenarioFormatError(f"{where}: missing keys {sorted(missing)}")
        hints = typing.get_type_hints(tp)
        return tp(**{key: _from_json(hints[key], item, f"{path}.{key}" if path else key)
                     for key, item in value.items()})
    if typing.get_origin(tp) is dict:
        key_tp, item_tp = typing.get_args(tp)
        if not isinstance(value, dict):
            raise ScenarioFormatError(f"{path}: expected an object")
        return {_from_json(key_tp, key, path): _from_json(item_tp, item, f"{path}.{key}")
                for key, item in value.items()}
    if issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise ScenarioFormatError(f"{path}: expected one of "
                                      f"{[m.value for m in tp]}, got {_shown(value)}") from None
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioFormatError(f"{path}: expected an integer, got {_shown(value)}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{path}: expected a number, got {_shown(value)}")
    # NaN, ±inf or an int beyond the float range passes as is: validate_config names it.
    return float(value) if -FLOAT_MAX <= value <= FLOAT_MAX else value


def _to_json(value: Any) -> Any:
    """Inverse of _from_json: dataclasses become objects in field order."""
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {_to_json(key): _to_json(item) for key, item in value.items()}
    if isinstance(value, Enum):
        return value.value
    return value


def _non_finite(value: Any, path: str, tp: Any = None) -> Iterator[tuple[str, float]]:
    """(dotted path, value) of every NaN or infinite float in a config, read through
    its dataclasses and dicts; an int beyond the float range in a float field is ±inf."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):  # f.type is "float", as annotations are postponed
            yield from _non_finite(getattr(value, f.name),
                                   f"{path}.{f.name}" if path else f.name, f.type)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite(item, f"{path}.{_to_json(key)}")
    elif isinstance(value, float) and not math.isfinite(value):
        yield path, value
    elif tp == "float" and isinstance(value, int) and abs(value) > FLOAT_MAX:
        yield path, math.inf if value > 0 else -math.inf


def scenario_from_dict(data: Any) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON document (strict keys).

    Networks left out of initial_assignment start with 0 terminals.
    """
    cfg = _from_json(ScenarioConfig, data, "")
    assignment = {net: cfg.initial_assignment.get(net, 0) for net in ALL_NETWORKS}
    return dataclasses.replace(cfg, initial_assignment=assignment)


def scenario_to_dict(cfg: ScenarioConfig) -> dict[str, Any]:
    """Inverse of scenario_from_dict (round-trips exactly)."""
    return _to_json(cfg)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and parse a scenario JSON file; `validate_config` judges its values."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return scenario_from_dict(data)


def save_scenario(cfg: ScenarioConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(cfg), fh, indent=2)
        fh.write("\n")
