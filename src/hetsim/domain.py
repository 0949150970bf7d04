"""Core value types, scenario configuration schema, and validation.

Everything in this module is an immutable value object: safe to share,
hash-friendly where it matters, and free of behavior beyond construction
checks and (de)serialization of the scenario JSON document.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterator

from .netmodel import NetworkProfile

MAX_SEED = 2**64 - 1


class NetworkKind(Enum):
    """The three access networks. DSRC is the default attachment.

    The declaration order is the fixed total ordering used for
    deterministic tie-breaking everywhere in the simulator.
    """

    DSRC = "dsrc"
    LTE = "lte"
    WIFI = "wifi"

#: All networks in tie-break order.
ALL_NETWORKS = (NetworkKind.DSRC, NetworkKind.LTE, NetworkKind.WIFI)


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
    """Knobs of the handoff decision: switch probabilities and scoring.

    n_exp is the target ceiling for DSRC-attached terminals, rho and sigma
    scale the overload/return and degradation switch probabilities, the
    f_*_ref values are the maximum acceptable delay / loss / jitter, and
    the w_* weights combine the three normalized utilities into one score.
    """

    n_exp: int
    rho: float
    sigma: float
    f_delay_ref: float = 0.1
    f_plr_ref: float = 0.05
    f_jit_ref: float = 0.1
    w_delay: float = 0.7
    w_plr: float = 0.2
    w_jit: float = 0.1


@dataclass(frozen=True)
class NoiseSpec:
    """Per-terminal perception noise on the DSRC sender count.

    Each affected cycle, every terminal independently adds an integer
    drawn uniformly from [-amplitude, +amplitude] to its perceived count.
    """

    amplitude: int
    frequency_hz: float


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
    cycle_length: float = 0.1
    noise: NoiseSpec | None = None
    disturbance: DisturbanceSpec | None = None


class ScenarioFormatError(ValueError):
    """Raised when a scenario document is structurally malformed."""


def validate_config(cfg: ScenarioConfig) -> list[str]:
    """Return every invariant violation of the config (empty list if valid).

    Violations are data, not failures: the function never raises for a
    well-typed config, and identical inputs yield identical lists.
    """
    v: list[str] = []
    s = cfg.strategy

    if cfg.total_terminals < 1:
        v.append(f"total_terminals must be >= 1, got {cfg.total_terminals}")
    assigned = sum(cfg.initial_assignment.get(net, 0) for net in ALL_NETWORKS)
    if assigned != cfg.total_terminals:
        v.append(f"assignment sum {assigned} != {cfg.total_terminals}")
    for net in ALL_NETWORKS:
        if cfg.initial_assignment.get(net, 0) < 0:
            v.append(f"initial assignment for {net.value} is negative")
    if cfg.cycle_length <= 0:
        v.append(f"cycle_length must be > 0, got {cfg.cycle_length}")
    if cfg.num_cycles < 1:
        v.append(f"num_cycles must be >= 1, got {cfg.num_cycles}")
    if not 0 <= cfg.seed <= MAX_SEED:
        v.append(f"seed must be a 64-bit unsigned integer, got {cfg.seed}")

    if s.n_exp < 1:
        v.append(f"n_exp must be >= 1, got {s.n_exp}")
    if s.rho < 0:
        v.append(f"rho must be >= 0, got {s.rho}")
    if s.rho >= 1:
        v.append("rho must be < 1")
    if not 0 <= s.sigma <= 1:
        v.append(f"sigma must be in [0, 1], got {s.sigma}")
    for name, val in (("f_delay_ref", s.f_delay_ref), ("f_plr_ref", s.f_plr_ref),
                      ("f_jit_ref", s.f_jit_ref)):
        if val <= 0:
            v.append(f"{name} must be > 0, got {val}")
    for name, val in (("w_delay", s.w_delay), ("w_plr", s.w_plr), ("w_jit", s.w_jit)):
        if val < 0:
            v.append(f"{name} must be >= 0, got {val}")
    if abs(s.w_delay + s.w_plr + s.w_jit - 1.0) > 1e-9:
        v.append(f"weights must sum to 1, got {s.w_delay + s.w_plr + s.w_jit}")

    for net in ALL_NETWORKS:
        if net not in cfg.profiles:
            v.append(f"profile for {net.value} is missing")
            continue
        p = cfg.profiles[net]
        tag = net.value
        if p.d0 <= 0:
            v.append(f"{tag}: d0 must be > 0, got {p.d0}")
        if p.g0 <= 0:
            v.append(f"{tag}: g0 must be > 0, got {p.g0}")
        if not 0 <= p.p0 < 1:
            v.append(f"{tag}: p0 must be in [0, 1), got {p.p0}")
        for name, val in (("a", p.a), ("b", p.b), ("h", p.h)):
            if val < 0:
                v.append(f"{tag}: {name} must be >= 0, got {val}")
        if p.cap < 1:
            v.append(f"{tag}: cap must be >= 1, got {p.cap}")
        if p.exponent < 1:
            v.append(f"{tag}: exponent must be >= 1, got {p.exponent}")

    if cfg.noise is not None:
        if cfg.noise.amplitude < 0:
            v.append(f"noise amplitude must be >= 0, got {cfg.noise.amplitude}")
        if cfg.noise.frequency_hz <= 0:
            v.append(f"noise frequency_hz must be > 0, got {cfg.noise.frequency_hz}")

    if cfg.disturbance is not None:
        d = cfg.disturbance
        if d.delta_e <= 0:
            v.append(f"disturbance delta_e must be > 0, got {d.delta_e}")
        if d.start_cycle < 0:
            v.append(f"disturbance start_cycle must be >= 0, got {d.start_cycle}")
        elif d.start_cycle >= cfg.num_cycles:
            v.append(f"disturbance start_cycle {d.start_cycle} is past the run "
                     f"({cfg.num_cycles} cycles)")
        if d.duration_cycles is not None and d.duration_cycles < 1:
            v.append(f"disturbance duration_cycles must be >= 1 or null, "
                     f"got {d.duration_cycles}")

    v.extend(f"{path} must be finite, got {val}"
             for path, val in _non_finite(scenario_to_dict(cfg), ""))
    return v


# ---------------------------------------------------------------------------
# JSON schema
#
# The scenario document mirrors the dataclasses with snake_case keys, so the
# dataclass fields and their type hints are the whole schema. Unknown keys
# are rejected at every level so that typos fail loudly.
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
                                      f"{[m.value for m in tp]}, got {value!r}") from None
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioFormatError(f"{path}: expected an integer, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioFormatError(f"{path}: expected a finite number, got {value!r}")
    return number


def _to_json(value: Any) -> Any:
    """Inverse of _from_json: dataclasses become objects in field order."""
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {_to_json(key): _to_json(item) for key, item in value.items()}
    if isinstance(value, Enum):
        return value.value
    return value


def _non_finite(doc: Any, path: str) -> Iterator[tuple[str, float]]:
    """(dotted path, value) of every NaN or infinite float in a JSON document."""
    if isinstance(doc, float) and not math.isfinite(doc):
        yield path, doc
    elif isinstance(doc, dict):
        for key, item in doc.items():
            yield from _non_finite(item, f"{path}.{key}" if path else key)


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
    """Load and parse a scenario JSON file (does not validate semantics)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return scenario_from_dict(data)


def save_scenario(cfg: ScenarioConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(cfg), fh, indent=2)
        fh.write("\n")
