"""Normalization, weighted scoring, requirement checking, and argmax selection.

The three raw metrics are mapped to dimensionless utilities by linear
normalization against the maximum-acceptable references (a metric exactly
at its reference scores 0, better is positive, worse negative), then
combined by the configured weights into a single score. A network fails
the performance requirements in a cycle when two or more metrics strictly
exceed their references.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import ALL_NETWORKS, NetworkKind, StrategyParams
from .netmodel import NetworkProfile, perf_at


@dataclass(frozen=True)
class NetEvaluation:
    """One terminal's scoring of one network for one cycle.

    measured is False when the terminal had no usable receptions on the
    network and the optimistic base-load prior (metrics at load 1) was
    used instead.
    """

    score: float
    meets_requirements: bool
    measured: bool = True


def normalize(delay: float, plr: float, jit: float,
              params: StrategyParams) -> tuple[float, float, float]:
    """Map raw (delay, plr, jitter) to utilities in (-inf, 1]."""
    return (
        (params.f_delay_ref - delay) / params.f_delay_ref,
        (params.f_plr_ref - plr) / params.f_plr_ref,
        (params.f_jit_ref - jit) / params.f_jit_ref,
    )


def net_eva(utilities: tuple[float, float, float], params: StrategyParams) -> float:
    """Weighted sum of the three utilities."""
    u_delay, u_plr, u_jit = utilities
    return params.w_delay * u_delay + params.w_plr * u_plr + params.w_jit * u_jit


def meets_requirements(delay: float, plr: float, jit: float,
                       params: StrategyParams) -> bool:
    """False iff at least two metrics strictly exceed their references.

    The references are maximum *acceptable* values, so sitting exactly at
    a reference does not count as exceeding it.
    """
    exceeded = ((delay > params.f_delay_ref)
                + (plr > params.f_plr_ref)
                + (jit > params.f_jit_ref))
    return exceeded < 2


def evaluate_network(metrics: tuple[float, float, float] | None,
                     profile: NetworkProfile,
                     params: StrategyParams,
                     penalty: float = 0.0) -> NetEvaluation:
    """Build the full evaluation record for one network.

    metrics=None means the terminal could not measure the network this
    cycle; the base-load prior perf_at(profile, 1) stands in (measured
    flag cleared). A disturbance penalty > 0 inflates each observed
    metric by penalty times its reference, which lowers the score by
    exactly `penalty` since the weights sum to one.
    """
    measured = metrics is not None
    if metrics is None:
        metrics = perf_at(profile, 1)
    delay, plr, jit = metrics
    if penalty:
        delay += penalty * params.f_delay_ref
        plr += penalty * params.f_plr_ref
        jit += penalty * params.f_jit_ref
    return NetEvaluation(
        score=net_eva(normalize(delay, plr, jit, params), params),
        meets_requirements=meets_requirements(delay, plr, jit, params),
        measured=measured,
    )


def select_best(evals: dict[NetworkKind, NetEvaluation],
                current: NetworkKind) -> NetworkKind:
    """Argmax of score over all three networks.

    Ties prefer the currently attached network (a handoff that buys
    nothing is never worth its cost), then fall back to the fixed
    network ordering.
    """
    if set(evals) != set(ALL_NETWORKS):
        raise ValueError(f"select_best needs all three networks, got {sorted(n.value for n in evals)}")
    best = max(e.score for e in evals.values())
    if evals[current].score == best:
        return current
    for net in ALL_NETWORKS:
        if evals[net].score == best:
            return net
    raise AssertionError("unreachable")
