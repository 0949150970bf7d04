"""Weighted scoring, requirement checking, argmax selection, and the equilibrium oracle.

Each raw metric maps to a dimensionless utility by linear normalization
against its maximum-acceptable reference (a metric exactly at its
reference scores 0, better is positive, worse negative), and the fixed
weights combine the three utilities into a single score. The references
and weights are the domain constants F_*_REF and W_*. A network fails
the performance requirements in a cycle when two or more metrics strictly
exceed their references. An evaluation scores the metrics it is given: for
a network with nothing to measure, the engine passes the base-load prior
perf_at(profile, 1). The same scoring applied to the ground-truth curve
gives ground_truth_eval, the function family the equilibrium oracle works
on.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .domain import (ALL_NETWORKS, F_DELAY_REF, F_JIT_REF, F_PLR_REF, W_DELAY, W_JIT, W_PLR,
                     NetworkKind)
from .netmodel import NetworkProfile, perf_at


class NetEvaluation(NamedTuple):
    """One terminal's scoring of one network for one cycle."""

    score: float
    meets_requirements: bool


# NetEvaluation(...) runs NamedTuple's Python-level __new__; evaluate_network
# builds its result directly.
_new = tuple.__new__
_ALL_NETWORKS = frozenset(ALL_NETWORKS)


def meets_requirements(delay: float, plr: float, jit: float) -> bool:
    """False iff at least two metrics strictly exceed their references.

    The references are maximum *acceptable* values, so sitting exactly at
    a reference does not count as exceeding it.
    """
    exceeded = (delay > F_DELAY_REF) + (plr > F_PLR_REF) + (jit > F_JIT_REF)
    return exceeded < 2


def evaluate_network(metrics: tuple[float, float, float],
                     penalty: float = 0.0) -> NetEvaluation:
    """Score the observed (delay, plr, jitter) of one network.

    The score is the weighted sum of the three utilities (reference minus
    metric, over the reference). A disturbance penalty > 0 inflates each
    observed metric by penalty times its reference, which lowers the score
    by exactly `penalty` since the weights sum to one.
    """
    delay, plr, jit = metrics
    if penalty:
        delay += penalty * F_DELAY_REF
        plr += penalty * F_PLR_REF
        jit += penalty * F_JIT_REF
    return _new(NetEvaluation, (W_DELAY * ((F_DELAY_REF - delay) / F_DELAY_REF)
                                + W_PLR * ((F_PLR_REF - plr) / F_PLR_REF)
                                + W_JIT * ((F_JIT_REF - jit) / F_JIT_REF),
                                meets_requirements(delay, plr, jit)))


def ground_truth_eval(profile: NetworkProfile, n: int) -> float:
    """Noise-free score of the network at load n, from its ground-truth curve."""
    return evaluate_network(perf_at(profile, n)).score


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


def best_network(evals: dict[NetworkKind, NetEvaluation],
                 exclude: NetworkKind | None = None) -> NetworkKind:
    """Highest-scoring network other than `exclude`; ties go to the
    ALL_NETWORKS order."""
    best = top = None
    for net in ALL_NETWORKS:
        if net is not exclude:
            score = evals[net].score
            if best is None or score > top:
                best, top = net, score
    return best


def select_best(evals: dict[NetworkKind, NetEvaluation],
                current: NetworkKind) -> NetworkKind:
    """Argmax of score over all three networks.

    Ties prefer the currently attached network (a handoff that buys
    nothing is never worth its cost), then the ALL_NETWORKS order.
    """
    if evals.keys() != _ALL_NETWORKS:
        got = sorted(str(getattr(net, "value", net)) for net in evals)
        raise ValueError(f"select_best needs all three networks, got {got}")
    best = best_network(evals, exclude=current)
    return best if evals[best].score > evals[current].score else current
