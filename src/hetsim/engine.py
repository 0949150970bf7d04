"""The discrete-time closed loop.

Each cycle runs in two passes over the terminals, both reading the pre-cycle
snapshot (broadcasts, populations and curves as they stood before anyone
moved). Perceive: in sampled mode every terminal hears every other
terminal's broadcast on its pre-cycle network and measures all three
networks (`sensing.perceive`); in direct mode measurements come straight
from the ground-truth curves. A network with nothing to measure scores
from the optimistic base-load prior perf_at(profile, 1), which the engine
supplies. Decide: each terminal scores its perception, decides and moves.
A move touches only the mover's own slot, so terminals never observe each
other's same-cycle moves.

A world exists only for a valid config: `init_state` refuses one with
`validate_config` violations. Randomness is confined to per-terminal
substreams derived from the scenario seed, so runs are bit-reproducible
across CPython 3.10-3.13.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .domain import (
    ALL_NETWORKS,
    CYCLE_S,
    DSRC,
    MeasurementMode,
    NetworkKind,
    ScenarioConfig,
    StrategyKind,
    validate_config,
)
from .evaluation import evaluate_network
from .netmodel import perf_at
from .sensing import ReceptionLedger, perceive, sample_link
from .strategy import decide_baseline, decide_game

_MASK64 = 2**64 - 1


def substream_seed(master_seed: int, index: int) -> int:
    """Mix a master seed and a terminal index into an independent stream seed."""
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class WorldState:
    """Mutable simulation state between cycles."""

    cycle: int
    attachment: list[NetworkKind]
    counters: list[int]
    rngs: list[random.Random]
    counts: dict[NetworkKind, int]
    ledgers: list[ReceptionLedger] | None = None


@dataclass(frozen=True)
class CycleRecord:
    """Observables of one cycle: post-decision counts plus population truth."""

    cycle: int
    counts: dict[NetworkKind, int]
    handoffs: int
    avg_score: float
    net_score: dict[NetworkKind, float]
    net_perf: dict[NetworkKind, tuple[float, float, float]]  # (delay, plr, jitter)


def init_state(cfg: ScenarioConfig) -> WorldState:
    """Initial world per the configured assignment (ids packed in network order)."""
    # run_cycle relies on validated d0 > 0 to keep every reception after its generation.
    violations = validate_config(cfg)
    if violations:
        raise ValueError("invalid scenario: " + "; ".join(violations))
    counts = {net: cfg.initial_assignment.get(net, 0) for net in ALL_NETWORKS}
    attachment = [net for net in ALL_NETWORKS for _ in range(counts[net])]
    n = len(attachment)
    rngs = [random.Random(substream_seed(cfg.seed, i)) for i in range(n)]
    ledgers = None
    if cfg.measurement_mode is MeasurementMode.SAMPLED:
        ledgers = [ReceptionLedger() for _ in range(n)]
    return WorldState(cycle=0, attachment=attachment, counters=[0] * n,
                      rngs=rngs, counts=counts, ledgers=ledgers)


def run_cycle(state: WorldState, cfg: ScenarioConfig) -> tuple[WorldState, CycleRecord]:
    """Advance the world by one cycle and emit its record."""
    t = state.cycle
    rngs, attachment, counters = state.rngs, state.attachment, state.counters
    n_terminals = len(attachment)
    params, profiles = cfg.strategy, cfg.profiles
    counts_pre = state.counts
    # (delay, plr, jitter) at the pre-decision loads; every phase below reads it.
    curves = {net: perf_at(profiles[net], counts_pre[net]) for net in ALL_NETWORKS}
    penalty = {net: 0.0 for net in ALL_NETWORKS}
    if cfg.disturbance is not None and cfg.disturbance.active_at(t):
        penalty[cfg.disturbance.network] = cfg.disturbance.delta_e

    # Perceive: per terminal (evals, x_dsrc, x_current).
    if state.ledgers is None:
        # An empty network has no one to measure, so it scores from the prior.
        shared_evals = {net: evaluate_network(curves[net] if counts_pre[net]
                                              else perf_at(profiles[net], 1), penalty[net])
                        for net in ALL_NETWORKS}
        # Read by each terminal's pre-move network; x_dsrc counts an attached terminal.
        by_network = {net: (shared_evals, counts_pre[DSRC], counts_pre[net] - 1)
                      for net in ALL_NETWORKS}
        views = map(by_network.__getitem__, attachment)
    else:
        # For a network on which no sender was heard in both of the last two cycles.
        prior = {net: perf_at(profiles[net], 1) for net in ALL_NETWORKS}
        # sample_link is read per call, not at import: the benchmark's tracer replaces it.
        perceived = perceive(state.ledgers, attachment, curves, profiles, rngs, t * CYCLE_S,
                             sample_link)
        views = [({net: evaluate_network(m or prior[net], penalty[net])
                   for net, m in zip(ALL_NETWORKS, measures)}, x_dsrc, x_current)
                 for measures, x_dsrc, x_current in perceived]

    # Decide: each terminal reads its own view and moves only itself.
    game = cfg.strategy_kind is StrategyKind.GAME
    noise = cfg.noise_amplitude
    # The noise is rng.randint(-noise, noise), drawn inline the way CPython
    # 3.10-3.13 draw it: getrandbits(k) redrawn until it falls below width.
    width = 2 * noise + 1
    k = width.bit_length()
    handoffs = 0
    score_sum = 0.0
    for i, (evals, x_dsrc, x_current) in enumerate(views):
        rng = rngs[i]
        current = attachment[i]
        if noise:
            r = rng.getrandbits(k)
            while r >= width:
                r = rng.getrandbits(k)
            x_dsrc += r - noise
            if x_dsrc < 0:
                x_dsrc = 0
        score_sum += evals[current].score
        c = counters[i]
        target, counters[i], _ = (
            decide_game(current, x_dsrc, x_current, evals, c, params, rng)
            if game else decide_baseline(current, evals, c))
        if target is not None:
            assert target is not current
            attachment[i] = target
            handoffs += 1

    counts_post = {net: attachment.count(net) for net in ALL_NETWORKS}
    state.counts = counts_post
    if sum(counts_post.values()) != n_terminals:
        raise AssertionError("terminal conservation violated")

    record = CycleRecord(
        cycle=t,
        counts=counts_post,
        handoffs=handoffs,
        avg_score=score_sum / n_terminals,
        net_score={net: evaluate_network(curves[net], penalty[net]).score
                   for net in ALL_NETWORKS},
        net_perf=curves,
    )
    state.cycle = t + 1
    return state, record


def run_scenario(cfg: ScenarioConfig) -> list[CycleRecord]:
    """Run the full scenario; refuses configs with validation violations."""
    state = init_state(cfg)
    records = []
    for _ in range(cfg.num_cycles):
        state, record = run_cycle(state, cfg)
        records.append(record)
    return records
