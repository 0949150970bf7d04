"""The discrete-time closed loop.

Each cycle runs in one pass over the terminals. Each terminal hears every
other terminal's broadcast on its pre-cycle network (packet-sampled, or
bypassed in direct mode where measurements come straight from the
ground-truth curves), then measures and scores all three networks from
what it received, decides and moves. Each terminal decides from the
pre-cycle snapshot (broadcasts, populations and curves as they stood
before anyone moved), and a move touches only the mover's own slot, so
terminals never observe each other's same-cycle moves.

A world exists only for a valid config: `init_state` refuses one with
`validate_config` violations. Randomness is confined to per-terminal
substreams derived from the scenario seed, so runs are bit-reproducible
across CPython 3.10-3.13.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

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
from .netmodel import LOST, perf_at, sample_link
from .sensing import ReceptionLedger
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
    sample = sample_link  # read per call, not at import: the benchmark's tracer replaces it
    t = state.cycle
    rngs, attachment, counters = state.rngs, state.attachment, state.counters
    n_terminals = len(attachment)
    params = cfg.strategy
    profiles = cfg.profiles
    ledgers = state.ledgers
    counts_pre = state.counts
    gen_time = t * CYCLE_S
    # (delay, plr, jitter) at the pre-decision loads; every phase below reads it.
    curves = {net: perf_at(profiles[net], counts_pre[net]) for net in ALL_NETWORKS}
    penalty = {net: 0.0 for net in ALL_NETWORKS}
    if cfg.disturbance is not None and cfg.disturbance.active_at(t):
        penalty[cfg.disturbance.network] = cfg.disturbance.delta_e

    if ledgers is None:
        # An empty network has no one to measure, so it scores from the prior.
        shared_evals = {
            net: evaluate_network(curves[net] if counts_pre[net] else None,
                                  profiles[net], penalty[net])
            for net in ALL_NETWORKS
        }
    else:
        # One link per sender, and per network the bitmask of its broadcasters.
        fields = {net: (index, profiles[net].d0, delay, plr, -jitter, jitter + jitter)
                  for index, (net, (delay, plr, jitter)) in enumerate(curves.items())}
        links, rosters = [], [0] * len(ALL_NETWORKS)
        for sender, net in enumerate(attachment):
            link = (sender, *fields[net])
            links.append(link)
            rosters[link[1]] |= 1 << sender

    # A terminal hears the pre-cycle links, reads only its own slots, counts_pre,
    # curves and penalty, and moves only itself: all decide from one snapshot.
    game = cfg.strategy_kind is StrategyKind.GAME
    noise = cfg.noise_amplitude
    # The noise is rng.randint(-noise, noise), drawn inline the way CPython
    # 3.10-3.13 draw it: getrandbits(k) redrawn until it falls below width.
    width = 2 * noise + 1
    k = width.bit_length()
    handoffs = 0
    score_sum = 0.0
    for i in range(n_terminals):
        rng = rngs[i]
        current = attachment[i]
        if ledgers is None:
            evals = shared_evals
            # x_dsrc estimates the DSRC population, so an attached terminal
            # counts itself; x_current counts only *heard* senders.
            x_dsrc = counts_pre[DSRC]
            x_current = counts_pre[current] - 1
        else:
            ledger = ledgers[i]
            slots = ledger.begin_cycle()
            rand = rng.random
            heard = rosters.copy()  # every other broadcaster, less the lost links
            heard[links[i][1]] ^= 1 << i
            for link in links[:i] + links[i + 1:]:
                if sample(link, rand, gen_time, slots) is LOST:
                    heard[link[1]] ^= 1 << link[0]
            ledger.stamp_heard(heard)
            evals = {
                net: evaluate_network(ledger.measure(net), profiles[net], penalty[net])
                for net in ALL_NETWORKS
            }
            x_current = ledger.distinct_senders(current)
            x_dsrc = x_current + 1 if current is DSRC else ledger.distinct_senders(DSRC)
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
        net_score={net: evaluate_network(curves[net], profiles[net], penalty[net]).score
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


def predict_equilibrium_shift(f_a: Callable[[int], float],
                              f_b: Callable[[int], float],
                              g: int, h: int, delta_e: float) -> int:
    """How many terminals must move off a disturbed network to restore balance.

    Both networks start balanced with g terminals on A and h on B; A's
    evaluation then drops by delta_e. Moving s terminals raises A's
    evaluation by f_a(g-s) - f_a(g) and lowers B's by f_b(h) - f_b(h+s);
    balance returns where the two effects absorb the disturbance. Returns
    the integer s in [0, g] with the smallest absolute residual (ties go
    to the smaller s).
    """
    if g < 0 or h < 0:
        raise ValueError(f"populations must be >= 0, got g={g}, h={h}")
    return min(range(g + 1),
               key=lambda s: abs(f_a(g - s) - f_a(g) + f_b(h) - f_b(h + s) - delta_e))
