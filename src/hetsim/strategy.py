"""Per-terminal handoff decisions.

Two policies share one interface:

* the multi-play probabilistic game, which only ever moves a *fraction*
  of the affected terminals per cycle (overload relief off DSRC,
  counter-scaled escape from a degraded network, and a pull back to DSRC
  when it has headroom), so the population approaches equilibrium
  gradually instead of stampeding; and
* the conventional single-play baseline, which jumps straight to the
  highest-scoring network every cycle.

All functions are pure given the terminal's own perception and (for the
game) its private random stream, so per-cycle decisions can be computed
in any order.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import NamedTuple

from .domain import DSRC, NetworkKind, StrategyParams
from .evaluation import NetEvaluation, best_network, select_best


class Trigger(Enum):
    NONE = "none"
    OVERLOAD = "overload"
    DEGRADATION = "degradation"
    RETURN_TO_DSRC = "return_to_dsrc"
    ARGMAX = "argmax"


class Decision(NamedTuple):
    """Outcome of one decision. target=None means stay put."""

    target: NetworkKind | None
    new_counter_c: int
    trigger: Trigger


# Bound once: a member read costs ~10x a global read on CPython 3.11.
NONE, OVERLOAD, DEGRADATION, RETURN_TO_DSRC, ARGMAX = (
    Trigger.NONE, Trigger.OVERLOAD, Trigger.DEGRADATION, Trigger.RETURN_TO_DSRC, Trigger.ARGMAX)
# Decision(...) runs NamedTuple's Python-level __new__; the stay-put result,
# which most decisions return, is built directly.
_new = tuple.__new__


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


def decide_game(current: NetworkKind, x_dsrc: int, x_current: int,
                evals: dict[NetworkKind, NetEvaluation], counter_c: int,
                params: StrategyParams, rng: random.Random) -> Decision:
    """One play of the probabilistic handoff game.

    x_dsrc and x_current are the populations the terminal perceives on DSRC
    and on its current network. DSRC terminals first relieve overload, then
    react to degradation; non-DSRC terminals first consider returning to a
    healthy DSRC with headroom, then react to degradation of their own
    network. A terminal that passes a probabilistic gate but loses the draw
    falls through to the next check. The degradation counter is updated on
    every path that inspects the current network's requirements.
    """
    c = counter_c
    dsrc_meets = evals[DSRC].meets_requirements

    if current is DSRC:
        if x_dsrc > params.n_exp:
            if rng.random() < p_overload(x_dsrc, params.n_exp, params.rho):
                target = best_network(evals, exclude=DSRC)
                return Decision(target, c, OVERLOAD)
        x, met = x_dsrc, dsrc_meets
    else:
        if dsrc_meets and x_dsrc < params.n_exp:
            if rng.random() < p_return(x_dsrc, x_current, params.n_exp, params.rho):
                return Decision(DSRC, c, RETURN_TO_DSRC)
        x, met = x_current, evals[current].meets_requirements

    c = update_counter(c, met)
    if not met and rng.random() < p_degraded(c, x, params.sigma):
        target = best_network(evals, exclude=current)
        return Decision(target, c, DEGRADATION)
    return _new(Decision, (None, c, NONE))


def decide_baseline(current: NetworkKind, evals: dict[NetworkKind, NetEvaluation],
                    counter_c: int) -> Decision:
    """Single-play score chaser: jump to the argmax network (ARGMAX), no randomness."""
    best = select_best(evals, current)
    if best is current:
        return _new(Decision, (None, counter_c, NONE))
    return Decision(best, counter_c, ARGMAX)
