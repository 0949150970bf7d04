"""Core value types, scenario configuration schema, and validation.

Everything in this module is an immutable value object: safe to share,
hash-friendly where it matters, and free of behavior beyond construction
checks and loading of the scenario JSON document.
"""

from __future__ import annotations

import dataclasses
import functools
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
    """repr(value), except that an int beyond the float range shows as its sign and
    number of digits, and a container too long to print as its type name."""
    if isinstance(value, int) and abs(value) > FLOAT_MAX:
        n = abs(value)
        digits = int(math.log10(n)) + 1
        digits += (n >= 10**digits) - (n < 10 ** (digits - 1))  # log10 rounds near 10**k
        return f"{'-' if value < 0 else ''}<{digits}-digit integer>"
    try:
        return repr(value)
    except ValueError:  # a container holding an int with more digits than str() may print
        return f"<{type(value).__name__} too long to print>"


class ScenarioFormatError(ValueError):
    """Raised when a scenario document is structurally malformed."""


#: A dataclass's resolved field types: the schema of the loader and the validator.
_hints = functools.cache(typing.get_type_hints)


def _violation(path: str, rule: str, value: Any) -> str:
    """A broken rule, named by the field's dotted path in the scenario document."""
    return f"{path} must {rule}, got {_shown(value)}"


def validate_config(cfg: ScenarioConfig) -> list[str]:
    """Return the config's invariant violations (empty list if valid).

    Every field is first judged by its declared type. A value the type does not
    admit (a string, a bool, None, a float in an int field, a dict where a
    dataclass is declared) and a NaN or infinite number are named alone: while
    the config holds one, the list names every such value and nothing else (NaN
    fails every comparison, ±inf one side of a range), and the other checks
    judge the config once they are fixed. Violations are data, not failures:
    the function never raises, and identical inputs yield identical lists.
    """
    wrong = list(_type_faults(cfg, "", ScenarioConfig))
    if wrong:
        return wrong
    n, cycles, noise, s, d = (cfg.total_terminals, cfg.num_cycles, cfg.noise_amplitude,
                              cfg.strategy, cfg.disturbance)
    counts = {net: cfg.initial_assignment.get(net, 0) for net in ALL_NETWORKS}
    assigned = sum(counts.values())
    # (dotted path, whether its value keeps the rule, the rule, the value)
    rules = [
        ("total_terminals", n >= 1, "be >= 1", n),
        ("initial_assignment", assigned == n, f"sum to total_terminals {_shown(n)}", assigned),
        *((f"initial_assignment.{net.value}", c >= 0, "be >= 0", c) for net, c in counts.items()),
        # The engine reads only these keys.
        *((name, key in ALL_NETWORKS, "be keyed by dsrc, lte or wifi", key)
          for name in ("initial_assignment", "profiles") for key in getattr(cfg, name)),
        ("num_cycles", 1 <= cycles <= FLOAT_MAX, f"be in [1, {FLOAT_MAX}]", cycles),
        ("noise_amplitude", noise >= 0, "be >= 0", noise),
        ("noise_amplitude", noise <= 0 or n + noise <= FLOAT_MAX,
         f"be <= {FLOAT_MAX} - total_terminals", noise),
        ("seed", 0 <= cfg.seed <= MAX_SEED, "be a 64-bit unsigned integer", cfg.seed),
        ("strategy.n_exp", 1 <= s.n_exp <= FLOAT_MAX, f"be in [1, {FLOAT_MAX}]", s.n_exp),
        ("strategy.rho", 0 <= s.rho < 1, "be in [0, 1)", s.rho),
        ("strategy.sigma", 0 <= s.sigma <= 1, "be in [0, 1]", s.sigma),
    ]
    unrunnable = []
    for net in ALL_NETWORKS:
        at, p = f"profiles.{net.value}", cfg.profiles.get(net)
        if p is None:
            unrunnable.append(f"{at} is missing")
            continue
        rules += [(f"{at}.{name}", ok, rule, getattr(p, name)) for name, ok, rule in (
            ("d0", p.d0 > 0, "be > 0"), ("g0", p.g0 > 0, "be > 0"),
            ("p0", 0 <= p.p0 < 1, "be in [0, 1)"), ("a", p.a >= 0, "be >= 0"),
            ("b", p.b >= 0, "be >= 0"), ("h", p.h >= 0, "be >= 0"),
            ("cap", p.cap >= 1, "be >= 1"), ("exponent", p.exponent >= 1, "be >= 1"))]
        # Curves never fall with load: at N terminals a measured delay or jitter is
        # at most top = delay + jitter, the loss estimate below N, and |score| at most
        # B = 1 + max(metric / ref) + penalty. Runs sum up to max(N, num_cycles) of each.
        if p.cap >= 1 and n >= 1 and cycles <= FLOAT_MAX:
            terms = max(n, cycles)
            try:
                delay, _, jit = perf_at(p, n)
                top = delay + jit
                bound = 1 + max(top / F_DELAY_REF, n / F_PLR_REF, top / F_JIT_REF)
                finite = math.isfinite(max(bound, top) * terms)
            except OverflowError:
                finite = False
            if not finite:
                unrunnable.append(f"{at}: load curve overflows at {_shown(n)} terminals")
            elif d and d.network is net and not math.isfinite((bound + d.delta_e) * terms):
                unrunnable.append(f"disturbance.delta_e {_shown(d.delta_e)} overflows "
                                  f"the run's score sums on {net.value}")
    if d is not None:
        rules += [("disturbance.delta_e", d.delta_e > 0, "be > 0", d.delta_e),
                  ("disturbance.start_cycle", 0 <= d.start_cycle < cycles,
                   f"be in [0, {_shown(cycles)})", d.start_cycle),
                  ("disturbance.duration_cycles", d.duration_cycles is None
                   or d.duration_cycles >= 1, "be >= 1 or null", d.duration_cycles)]
    return [_violation(path, rule, val) for path, ok, rule, val in rules if not ok] + unrunnable


# ---------------------------------------------------------------------------
# JSON schema
#
# The scenario document mirrors the dataclasses with snake_case keys, so the
# dataclass fields and their type hints are the whole schema. The loader checks
# the document's shape (objects, enum values; unknown, missing or repeated keys
# fail loudly at every level), and validate_config judges every value by its type.
# ---------------------------------------------------------------------------

def _from_json(tp: Any, value: Any, path: str) -> Any:
    """Convert a parsed JSON value to `tp`; errors name the dotted field path."""
    if isinstance(tp, types.UnionType):  # `X | None`
        if value is None:
            return None
        tp = next(arg for arg in typing.get_args(tp) if arg is not type(None))
    if dataclasses.is_dataclass(tp) or typing.get_origin(tp) is dict:
        where = path or "scenario"
        if not isinstance(value, dict):
            raise ScenarioFormatError(f"{where}: expected an object")
        if getattr(value, "repeated", None) is not None:
            raise ScenarioFormatError(f"{where}: duplicate key {value.repeated!r}")
        if typing.get_origin(tp) is dict:
            key_tp, item_tp = typing.get_args(tp)
            return {_from_json(key_tp, key, path): _from_json(item_tp, item, f"{path}.{key}")
                    for key, item in value.items()}
        fields = dataclasses.fields(tp)
        unknown = set(value) - {f.name for f in fields}
        if unknown:
            raise ScenarioFormatError(f"{where}: unknown keys {sorted(unknown)}")
        missing = {f.name for f in fields if f.name not in value
                   and f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING}
        if missing:
            raise ScenarioFormatError(f"{where}: missing keys {sorted(missing)}")
        hints = _hints(tp)
        return tp(**{key: _from_json(hints[key], item, f"{path}.{key}" if path else key)
                     for key, item in value.items()})
    if issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise ScenarioFormatError(f"{path}: expected one of "
                                      f"{[m.value for m in tp]}, got {_shown(value)}") from None
    # validate_config judges every other value; a finite int in a float field
    # becomes the float a run computes with.
    return float(value) if tp is float and type(value) is int and abs(value) <= FLOAT_MAX else value


@functools.cache
def _kind(tp: Any) -> tuple[tuple[type, ...], str]:
    """The types a declared type admits (an int or a float for float, never a
    bool), and their name in a violation."""
    if isinstance(tp, types.UnionType):  # `X | None`
        admits, name = _kind(next(arg for arg in typing.get_args(tp) if arg is not type(None)))
        return (*admits, type(None)), name
    if tp is float:
        return (int, float), "a number"
    if tp is int:
        return (int,), "an integer"
    origin = typing.get_origin(tp) or tp  # dict[K, V] admits a dict
    return (origin,), f"a {origin.__name__}"


def _type_faults(value: Any, path: str, tp: Any) -> Iterator[str]:
    """A violation for every field of a config, read through the dataclasses and
    dicts it declares, whose value its declared type does not admit or is not
    finite; an int beyond the float range in a float field is ±inf."""
    admits, name = _kind(tp)
    if isinstance(value, admits) and dataclasses.is_dataclass(value):
        hints = _hints(type(value))
        for f in dataclasses.fields(value):
            yield from _type_faults(getattr(value, f.name),
                                    f"{path}.{f.name}" if path else f.name, hints[f.name])
    elif isinstance(value, dict) and dict in admits:
        item_tp = typing.get_args(tp)[1]
        for key, item in value.items():  # a library caller may key by the plain string
            yield from _type_faults(item, f"{path}.{getattr(key, 'value', key)}", item_tp)
    elif float in admits and isinstance(value, int) and abs(value) > FLOAT_MAX:
        yield _violation(path, "be finite", math.inf if value > 0 else -math.inf)
    elif isinstance(value, float) and not math.isfinite(value):
        yield _violation(path, "be finite", value)
    elif isinstance(value, bool) or not isinstance(value, admits):
        yield _violation(path, f"be {name}", value)


def scenario_from_dict(data: Any) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON document (strict keys).

    Networks left out of initial_assignment start with 0 terminals.
    """
    cfg = _from_json(ScenarioConfig, data, "")
    assignment = {net: cfg.initial_assignment.get(net, 0) for net in ALL_NETWORKS}
    return dataclasses.replace(cfg, initial_assignment=assignment)


class _JsonObject(dict):
    """json.load's object hook. json.load alone keeps a repeated key's last value;
    this object names such a key in `repeated`, and `_from_json` refuses it."""

    repeated: str | None = None

    def __init__(self, pairs: list[tuple[str, Any]]) -> None:
        super().__init__()
        for key, value in pairs:
            if key in self:
                self.repeated = key
            self[key] = value


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and parse a scenario JSON file; `validate_config` judges its values."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, object_pairs_hook=_JsonObject)
    return scenario_from_dict(data)
