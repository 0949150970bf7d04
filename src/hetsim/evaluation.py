"""Normalization, weighted scoring, requirement checking, and argmax selection.

The three raw metrics are mapped to dimensionless utilities by linear
normalization against the maximum-acceptable references (a metric exactly
at its reference scores 0, better is positive, worse negative), then
combined by the fixed weights into a single score. The references and
weights are the domain constants F_*_REF and W_*. A network fails
the performance requirements in a cycle when two or more metrics strictly
exceed their references. The same scoring applied to the ground-truth
curve gives ground_truth_eval, the function family the equilibrium oracle
works on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import (ALL_NETWORKS, F_DELAY_REF, F_JIT_REF, F_PLR_REF, W_DELAY, W_JIT, W_PLR,
                     NetworkKind)
from .netmodel import NetworkProfile, perf_at


@dataclass(frozen=True)
class NetEvaluation:
    """One terminal's scoring of one network for one cycle."""

    score: float
    meets_requirements: bool


def normalize(delay: float, plr: float, jit: float) -> tuple[float, float, float]:
    """Map raw (delay, plr, jitter) to utilities in (-inf, 1]."""
    return (
        (F_DELAY_REF - delay) / F_DELAY_REF,
        (F_PLR_REF - plr) / F_PLR_REF,
        (F_JIT_REF - jit) / F_JIT_REF,
    )


def net_eva(utilities: tuple[float, float, float]) -> float:
    """Weighted sum of the three utilities."""
    u_delay, u_plr, u_jit = utilities
    return W_DELAY * u_delay + W_PLR * u_plr + W_JIT * u_jit


def meets_requirements(delay: float, plr: float, jit: float) -> bool:
    """False iff at least two metrics strictly exceed their references.

    The references are maximum *acceptable* values, so sitting exactly at
    a reference does not count as exceeding it.
    """
    exceeded = (delay > F_DELAY_REF) + (plr > F_PLR_REF) + (jit > F_JIT_REF)
    return exceeded < 2


def evaluate_network(metrics: tuple[float, float, float] | None,
                     profile: NetworkProfile,
                     penalty: float = 0.0) -> NetEvaluation:
    """Build the full evaluation record for one network.

    metrics=None means the terminal could not measure the network this
    cycle; the optimistic base-load prior perf_at(profile, 1) stands in.
    A disturbance penalty > 0 inflates each observed metric by penalty
    times its reference, which lowers the score by exactly `penalty`
    since the weights sum to one.
    """
    if metrics is None:
        metrics = perf_at(profile, 1)
    delay, plr, jit = metrics
    if penalty:
        delay += penalty * F_DELAY_REF
        plr += penalty * F_PLR_REF
        jit += penalty * F_JIT_REF
    return NetEvaluation(
        score=net_eva(normalize(delay, plr, jit)),
        meets_requirements=meets_requirements(delay, plr, jit),
    )


def ground_truth_eval(profile: NetworkProfile, n: int) -> float:
    """Noise-free score of the network at load n, from its ground-truth curve."""
    return evaluate_network(perf_at(profile, n), profile).score


def best_network(evals: dict[NetworkKind, NetEvaluation],
                 exclude: NetworkKind | None = None) -> NetworkKind:
    """Highest-scoring network other than `exclude`; ties go to the
    ALL_NETWORKS order."""
    return max((net for net in ALL_NETWORKS if net is not exclude),
               key=lambda net: evals[net].score)


def select_best(evals: dict[NetworkKind, NetEvaluation],
                current: NetworkKind) -> NetworkKind:
    """Argmax of score over all three networks.

    Ties prefer the currently attached network (a handoff that buys
    nothing is never worth its cost), then the ALL_NETWORKS order.
    """
    if set(evals) != set(ALL_NETWORKS):
        raise ValueError(f"select_best needs all three networks, got {sorted(n.value for n in evals)}")
    best = best_network(evals, exclude=current)
    return best if evals[best].score > evals[current].score else current
