"""A plain reference engine, for exact record equality with `run_scenario`.

It runs the cycle as the docs state it, with none of the engine's hot-path
idioms:

* sender-major delivery over every ordered (sender, receiver) pair, each
  link drawn from the receiver's stream by `reference_sample_link`: the
  loss draw, then, for a delivered packet, `rng.uniform(-jitter, jitter)`
  around the mean delay, floored at d0 by `max`;
* `WindowLedger`, one {sender: delay} slot per cycle over the trailing
  second, its means summed with `math.fsum` as the ledger specifies;
* the noise as `rng.randint(-a, a)`, the perceived count clipped at 0;
* counts recomputed from the attachment every cycle;
* `score`, the network scoring as the docs state it, and the base-load
  prior `perf_at(profile, 1)` for a network with nothing to measure;
* the decision rules as the docs state them: the game's gates, its three
  switch probabilities, the counter rule and the fall-through to the next
  check after a lost draw (`play_game`), and the baseline's argmax, whose
  ties keep the current network (`play_baseline`, `best_keeping`). A
  switch goes to the best other network, ties in `ALL_NETWORKS` order
  (`best_other`).

It reuses `substream_seed` and `perf_at`, which have oracles of their own.
"""

import random
from collections import deque
from itertools import islice
from math import fsum
from typing import NamedTuple

from hetsim.domain import (
    ALL_NETWORKS,
    CYCLE_S,
    F_DELAY_REF,
    F_JIT_REF,
    F_PLR_REF,
    W_DELAY,
    W_JIT,
    W_PLR,
    MeasurementMode,
    NetworkKind,
    ScenarioConfig,
    StrategyKind,
)
from hetsim.engine import CycleRecord, substream_seed
from hetsim.netmodel import perf_at

DSRC = NetworkKind.DSRC
#: The windows as the docs state them: the sender count spans three cycles,
#: the loss estimate the trailing second.
SENDER_WINDOW_CYCLES = 3
LOSS_WINDOW_CYCLES = round(1 / CYCLE_S)
#: Each metric's maximum acceptable value, in (delay, plr, jitter) order.
REFERENCES = (F_DELAY_REF, F_PLR_REF, F_JIT_REF)


class Scored(NamedTuple):
    score: float
    meets_requirements: bool


def score(metrics, penalty):
    """A penalty adds penalty times its reference to each metric. A metric's
    utility is its reference minus it, over the reference; the score is the
    weighted sum of the utilities. The requirements fail when two or more
    metrics strictly exceed their references."""
    delay, plr, jit = (m + penalty * ref for m, ref in zip(metrics, REFERENCES))
    u_delay, u_plr, u_jit = ((ref - m) / ref for m, ref in zip((delay, plr, jit), REFERENCES))
    exceeded = sum(m > ref for m, ref in zip((delay, plr, jit), REFERENCES))
    return Scored(W_DELAY * u_delay + W_PLR * u_plr + W_JIT * u_jit, exceeded < 2)


def prior(profile):
    """What a network with nothing to measure scores from: its base load."""
    return perf_at(profile, 1)


def p_overload(x: int, n_exp: int, rho: float) -> float:
    """Switch probability for a DSRC terminal seeing x > n_exp senders.

    Grows with the excess and saturates at rho, so the expected outflow
    tracks the overload without ever emptying DSRC in a single cycle.
    """
    if x <= n_exp:
        raise ValueError(f"overload branch requires x > n_exp, got x={x}, n_exp={n_exp}")
    return rho * (x - n_exp + 1) / (x + 1)


def p_degraded(c: int, x: int, sigma: float) -> float:
    """Switch probability after c consecutive failing cycles, seeing x senders.

    With x terminals each applying this, the expected number of switchers
    per cycle is sigma*c (until the clamp bites). x=0 is a blackout with
    no population estimate; the per-terminal probability then degenerates
    to min(sigma*c, 1).
    """
    if c < 0:
        raise ValueError(f"counter must be >= 0, got {c}")
    if x < 1:
        return min(sigma * c, 1.0)
    return min(sigma * c / x, 1.0)


def p_return(x: int, x_prime: int, n_exp: int, rho: float) -> float:
    """Probability that a non-DSRC terminal moves back to DSRC.

    Proportional to DSRC's remaining headroom and inversely to the
    population of the current network, clamped into [0, rho]. Negative
    raw values (x already past n_exp) clamp to 0.
    """
    if x < 0 or x_prime < 0:
        raise ValueError(f"sender counts must be >= 0, got x={x}, x_prime={x_prime}")
    raw = rho * (n_exp - x) / (x_prime + 1)
    return min(max(raw, 0.0), rho)


def update_counter(c: int, met: bool) -> int:
    """Degradation counter dynamics: +1 on a failing cycle, halved on a good one."""
    if c < 0:
        raise ValueError(f"counter must be >= 0, got {c}")
    return c // 2 if met else c + 1


def best_other(evals, exclude=None):
    """The highest-scoring network but `exclude`; `max` keeps the first of
    equal scores, so ties go to the ALL_NETWORKS order."""
    return max((net for net in ALL_NETWORKS if net is not exclude),
               key=lambda net: evals[net].score)


def best_keeping(evals, current):
    """The highest-scoring of all three networks; a tie keeps `current`."""
    best = best_other(evals, current)
    return best if evals[best].score > evals[current].score else current


def play_game(current, x_dsrc, x_current, evals, c, params, rng):
    """One play of the game: (target, or None to stay, and the new counter).

    A DSRC terminal first draws for overload relief, then checks DSRC's
    requirements; a terminal elsewhere first draws for a return to a
    healthy DSRC with headroom, then checks its own network. A lost draw
    falls through to the requirement check, which updates the counter and,
    on a failing cycle, draws for degradation.
    """
    dsrc_meets = evals[DSRC].meets_requirements
    if current is DSRC:
        if x_dsrc > params.n_exp and rng.random() < p_overload(x_dsrc, params.n_exp,
                                                                params.rho):
            return best_other(evals, DSRC), c
        x, met = x_dsrc, dsrc_meets
    else:
        if dsrc_meets and x_dsrc < params.n_exp and rng.random() < p_return(
                x_dsrc, x_current, params.n_exp, params.rho):
            return DSRC, c
        x, met = x_current, evals[current].meets_requirements
    c = update_counter(c, met)
    if not met and rng.random() < p_degraded(c, x, params.sigma):
        return best_other(evals, current), c
    return None, c


def play_baseline(current, evals, c):
    """The argmax over all three networks, ties keeping the current one.
    The counter is left as it is."""
    best = best_keeping(evals, current)
    return (None if best is current else best), c


def reference_sample_link(p, curve, rng, gen_time):
    """The draws, floor and written delay sample_link must match, spelled with
    rng.uniform and max: (delivered, reception time minus generation time)."""
    delay, plr, jitter = curve
    if rng.random() < plr:
        return False, None
    reception_time = gen_time + max(delay + rng.uniform(-jitter, jitter), p.d0)
    return True, reception_time - gen_time


class WindowLedger:
    """Reference model: one {sender: delay} slot per cycle over the trailing
    second, each window's senders taken as the union of its slots."""

    def __init__(self):
        self.slots = {net: deque([{}, {}], maxlen=LOSS_WINDOW_CYCLES) for net in ALL_NETWORKS}

    def begin_cycle(self):
        for net in ALL_NETWORKS:
            self.slots[net].append({})

    def record_reception(self, network, sender, delay):
        self.slots[network][-1][sender] = delay

    def distinct_senders(self, network):
        return len(set().union(*islice(reversed(self.slots[network]), SENDER_WINDOW_CYCLES)))

    def measure(self, network):
        current, previous = self.slots[network][-1], self.slots[network][-2]
        deltas = [abs(delay - previous[s]) for s, delay in current.items() if s in previous]
        if not deltas:
            return None
        n_now = len(current)
        heard = len(set().union(*self.slots[network]))
        return (fsum(current.values()) / n_now, (heard - n_now) / n_now,
                fsum(deltas) / len(deltas))


def reference_run(cfg: ScenarioConfig) -> list[CycleRecord]:
    """The records of `run_scenario(cfg)`, computed the plain way."""
    attachment = [net for net in ALL_NETWORKS for _ in range(cfg.initial_assignment.get(net, 0))]
    n = len(attachment)
    rngs = [random.Random(substream_seed(cfg.seed, i)) for i in range(n)]
    counters = [0] * n
    sampled = cfg.measurement_mode is MeasurementMode.SAMPLED
    ledgers = [WindowLedger() for _ in range(n)]
    records = []
    for t in range(cfg.num_cycles):
        gen_time = t * CYCLE_S
        counts = {net: attachment.count(net) for net in ALL_NETWORKS}
        curves = {net: perf_at(cfg.profiles[net], counts[net]) for net in ALL_NETWORKS}
        penalty = {net: 0.0 for net in ALL_NETWORKS}
        if cfg.disturbance is not None and cfg.disturbance.active_at(t):
            penalty[cfg.disturbance.network] = cfg.disturbance.delta_e

        if sampled:
            for ledger in ledgers:
                ledger.begin_cycle()
            for sender, net in enumerate(attachment):
                for receiver, rng in enumerate(rngs):
                    if receiver == sender:
                        continue
                    delivered, delay = reference_sample_link(cfg.profiles[net], curves[net],
                                                             rng, gen_time)
                    if delivered:
                        ledgers[receiver].record_reception(net, sender, delay)

        before = list(attachment)
        handoffs = 0
        score_sum = 0.0
        for i, current in enumerate(before):
            rng = rngs[i]
            if sampled:
                measured = {net: ledgers[i].measure(net) for net in ALL_NETWORKS}
                evals = {net: score(prior(cfg.profiles[net]) if measured[net] is None
                                    else measured[net], penalty[net])
                         for net in ALL_NETWORKS}
                x_current = ledgers[i].distinct_senders(current)
                x_dsrc = ledgers[i].distinct_senders(DSRC) + (current is DSRC)
            else:
                evals = {net: score(curves[net] if counts[net] else prior(cfg.profiles[net]),
                                    penalty[net])
                         for net in ALL_NETWORKS}
                x_current = counts[current] - 1
                x_dsrc = counts[DSRC]
            if cfg.noise_amplitude:
                noise = rng.randint(-cfg.noise_amplitude, cfg.noise_amplitude)
                x_dsrc = max(0, x_dsrc + noise)
            score_sum += evals[current].score
            if cfg.strategy_kind is StrategyKind.GAME:
                target, counters[i] = play_game(current, x_dsrc, x_current, evals,
                                                counters[i], cfg.strategy, rng)
            else:
                target, counters[i] = play_baseline(current, evals, counters[i])
            if target is not None:
                attachment[i] = target
                handoffs += 1

        records.append(CycleRecord(
            cycle=t,
            counts={net: attachment.count(net) for net in ALL_NETWORKS},
            handoffs=handoffs,
            avg_score=score_sum / n,
            net_score={net: score(curves[net], penalty[net]).score
                       for net in ALL_NETWORKS},
            net_perf=curves,
        ))
    return records
