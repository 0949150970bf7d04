"""The discrete-time closed loop.

Each cycle: every terminal broadcasts once on its attached network, the
broadcasts are delivered (packet-sampled, or bypassed in direct mode
where measurements come straight from the ground-truth curves), every
terminal measures and scores all three networks from what it received,
then all decisions are computed from that common snapshot and applied
simultaneously. Terminals never observe each other's same-cycle moves.

Randomness is confined to per-terminal substreams derived from the
scenario seed, so runs are bit-reproducible and the order in which
decisions are computed is irrelevant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .domain import (
    ALL_NETWORKS,
    MeasurementMode,
    NetworkKind,
    ScenarioConfig,
    StrategyKind,
    validate_config,
)
from .evaluation import evaluate_network
from .netmodel import perf_at, sample_link
from .sensing import ReceptionLedger
from .strategy import Decision, TerminalView, decide_baseline, decide_game

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
    time_s: float
    counts: dict[NetworkKind, int]
    handoffs: int
    avg_score: float
    net_score: dict[NetworkKind, float]
    net_delay: dict[NetworkKind, float]
    net_plr: dict[NetworkKind, float]
    net_jit: dict[NetworkKind, float]


def init_state(cfg: ScenarioConfig) -> WorldState:
    """Initial world per the configured assignment (ids packed in network order)."""
    attachment: list[NetworkKind] = []
    for net in ALL_NETWORKS:
        attachment.extend([net] * cfg.initial_assignment.get(net, 0))
    n = len(attachment)
    rngs = [random.Random(substream_seed(cfg.seed, i)) for i in range(n)]
    ledgers = None
    if cfg.measurement_mode is MeasurementMode.SAMPLED:
        ledgers = [ReceptionLedger(cfg.cycle_length) for _ in range(n)]
    counts = {net: 0 for net in ALL_NETWORKS}
    for net in attachment:
        counts[net] += 1
    return WorldState(cycle=0, attachment=attachment, counters=[0] * n,
                      rngs=rngs, counts=counts, ledgers=ledgers)


def _noise_stride(frequency_hz: float, cycle_length: float) -> int:
    return max(1, round(1.0 / (frequency_hz * cycle_length)))


def run_cycle(state: WorldState, cfg: ScenarioConfig,
              decision_order: Sequence[int] | None = None) -> tuple[WorldState, CycleRecord]:
    """Advance the world by one cycle and emit its record."""
    t = state.cycle
    n_terminals = len(state.attachment)
    params = cfg.strategy
    direct = cfg.measurement_mode is MeasurementMode.DIRECT
    counts_pre = dict(state.counts)
    gen_time = t * cfg.cycle_length
    # (delay, plr, jitter) at the pre-decision loads; every phase below reads it.
    curves = {net: perf_at(cfg.profiles[net], counts_pre[net]) for net in ALL_NETWORKS}

    # Phases 1-3: broadcast, deliver, measure.
    if not direct:
        assert state.ledgers is not None
        for ledger in state.ledgers:
            ledger.begin_cycle()
        for sender in range(n_terminals):
            net = state.attachment[sender]
            profile = cfg.profiles[net]
            curve = curves[net]
            for receiver in range(n_terminals):
                if receiver == sender:
                    continue
                link = sample_link(profile, curve, state.rngs[receiver])
                if link.delivered:
                    # Delay as reception time minus generation time, the way a
                    # receiver computes it; the float round trip is kept on
                    # purpose, since it shifts the last bits of the delay.
                    state.ledgers[receiver].record_reception(
                        net, sender, (gen_time + link.delay) - gen_time)

    penalty = {net: 0.0 for net in ALL_NETWORKS}
    if cfg.disturbance is not None and cfg.disturbance.active_at(t):
        penalty[cfg.disturbance.network] = cfg.disturbance.delta_e

    shared_evals = None
    if direct:
        # An empty network has no one to measure, so it scores from the prior.
        shared_evals = {
            net: evaluate_network(curves[net] if counts_pre[net] else None,
                                  cfg.profiles[net], params, penalty[net])
            for net in ALL_NETWORKS
        }

    noise_now = (cfg.noise is not None and cfg.noise.amplitude > 0
                 and t % _noise_stride(cfg.noise.frequency_hz, cfg.cycle_length) == 0)

    # Phase 4: all decisions from the common snapshot.
    order: Sequence[int] = decision_order if decision_order is not None \
        else range(n_terminals)
    decisions: list[Decision | None] = [None] * n_terminals
    score_sum = 0.0
    game = cfg.strategy_kind is StrategyKind.GAME
    for i in order:
        rng = state.rngs[i]
        current = state.attachment[i]
        if direct:
            assert shared_evals is not None
            evals = shared_evals
            # x_dsrc estimates the DSRC population, so an attached terminal
            # counts itself; x_current counts only *heard* senders.
            x_dsrc = counts_pre[NetworkKind.DSRC]
            x_current = counts_pre[current] - 1
        else:
            ledger = state.ledgers[i]
            evals = {
                net: evaluate_network(ledger.measure(net), cfg.profiles[net],
                                      params, penalty[net])
                for net in ALL_NETWORKS
            }
            x_dsrc = ledger.distinct_senders(NetworkKind.DSRC) \
                + (1 if current is NetworkKind.DSRC else 0)
            x_current = ledger.distinct_senders(current)
        if noise_now:
            x_dsrc = max(0, x_dsrc + rng.randint(-cfg.noise.amplitude,
                                                 cfg.noise.amplitude))
        score_sum += evals[current].score
        view = TerminalView(
            current=current,
            x_dsrc=x_dsrc,
            x_current=x_current,
            evals=evals,
            counter_c=state.counters[i],
        )
        decisions[i] = decide_game(view, params, rng) if game \
            else decide_baseline(view)

    # Apply all attachment changes at once; recount.
    handoffs = 0
    for i in range(n_terminals):
        decision = decisions[i]
        assert decision is not None
        state.counters[i] = decision.new_counter_c
        if decision.target is not None:
            assert decision.target is not state.attachment[i]
            state.attachment[i] = decision.target
            handoffs += 1
    counts_post = {net: 0 for net in ALL_NETWORKS}
    for net in state.attachment:
        counts_post[net] += 1
    state.counts = counts_post
    if sum(counts_post.values()) != n_terminals:
        raise AssertionError("terminal conservation violated")

    net_delay: dict[NetworkKind, float] = {}
    net_plr: dict[NetworkKind, float] = {}
    net_jit: dict[NetworkKind, float] = {}
    net_score: dict[NetworkKind, float] = {}
    for net in ALL_NETWORKS:
        net_delay[net], net_plr[net], net_jit[net] = curves[net]
        net_score[net] = evaluate_network(curves[net], cfg.profiles[net],
                                          params, penalty[net]).score

    record = CycleRecord(
        cycle=t,
        time_s=gen_time,
        counts=counts_post,
        handoffs=handoffs,
        avg_score=score_sum / n_terminals,
        net_score=net_score,
        net_delay=net_delay,
        net_plr=net_plr,
        net_jit=net_jit,
    )
    state.cycle = t + 1
    return state, record


def run_scenario(cfg: ScenarioConfig,
                 decision_order: Sequence[int] | None = None) -> list[CycleRecord]:
    """Run the full scenario; refuses configs with validation violations."""
    violations = validate_config(cfg)
    if violations:
        raise ValueError("invalid scenario: " + "; ".join(violations))
    state = init_state(cfg)
    records = []
    for _ in range(cfg.num_cycles):
        state, record = run_cycle(state, cfg, decision_order)
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
    best_s = 0
    best_residual = float("inf")
    for s in range(g + 1):
        residual = abs(f_a(g - s) - f_a(g) + f_b(h) - f_b(h + s) - delta_e)
        if residual < best_residual:
            best_s, best_residual = s, residual
    return best_s
