"""Per-terminal handoff decisions.

Two policies share one interface:

* the multi-play probabilistic game, which only ever moves a *fraction*
  of the affected terminals per cycle (overload relief off DSRC,
  counter-scaled escape from a degraded network, and a pull back to DSRC
  when it has headroom), so the population approaches equilibrium
  gradually instead of stampeding; and
* the conventional single-play baseline, which jumps straight to the
  highest-scoring network every cycle.

All functions are pure given the view and (for the game) the terminal's
private random stream, so per-cycle decisions can be computed in any
order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .domain import ALL_NETWORKS, NetworkKind, StrategyParams
from .evaluation import NetEvaluation, select_best


@dataclass(frozen=True)
class TerminalView:
    """Everything one terminal knows when it decides, for one cycle."""

    current: NetworkKind
    x_dsrc: int
    x_current: int
    evals: dict[NetworkKind, NetEvaluation]
    dsrc_meets: bool
    current_meets: bool
    counter_c: int


class Trigger(Enum):
    NONE = "none"
    OVERLOAD = "overload"
    DEGRADATION = "degradation"
    RETURN_TO_DSRC = "return_to_dsrc"


@dataclass(frozen=True)
class Decision:
    """Outcome of one decision. target=None means stay put."""

    target: NetworkKind | None
    new_counter_c: int
    trigger: Trigger = Trigger.NONE


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


def _best_target(evals: dict[NetworkKind, NetEvaluation],
                 exclude: NetworkKind) -> NetworkKind:
    """Highest-scoring network other than `exclude` (ties: fixed order)."""
    best: NetworkKind | None = None
    best_score = float("-inf")
    for net in ALL_NETWORKS:
        if net is exclude:
            continue
        score = evals[net].score
        if score > best_score:
            best, best_score = net, score
    assert best is not None
    return best


def decide_game(view: TerminalView, params: StrategyParams,
                rng: random.Random) -> Decision:
    """One play of the probabilistic handoff game.

    DSRC terminals first relieve overload, then react to degradation;
    non-DSRC terminals first consider returning to a healthy DSRC with
    headroom, then react to degradation of their own network. A terminal
    that passes a probabilistic gate but loses the draw falls through to
    the next check. The degradation counter is updated on every path that
    inspects the current network's requirements.
    """
    c = view.counter_c

    if view.current is NetworkKind.DSRC:
        if view.x_dsrc > params.n_exp:
            if rng.random() < p_overload(view.x_dsrc, params.n_exp, params.rho):
                target = _best_target(view.evals, exclude=NetworkKind.DSRC)
                return Decision(target, c, Trigger.OVERLOAD)
        x, met = view.x_dsrc, view.dsrc_meets
    else:
        if view.dsrc_meets and view.x_dsrc < params.n_exp:
            if rng.random() < p_return(view.x_dsrc, view.x_current,
                                       params.n_exp, params.rho):
                return Decision(NetworkKind.DSRC, c, Trigger.RETURN_TO_DSRC)
        x, met = view.x_current, view.current_meets

    c = update_counter(c, met)
    if not met and rng.random() < p_degraded(c, x, params.sigma):
        target = _best_target(view.evals, exclude=view.current)
        return Decision(target, c, Trigger.DEGRADATION)
    return Decision(None, c)


def decide_baseline(view: TerminalView) -> Decision:
    """Single-play score chaser: jump to the argmax network, no randomness."""
    best = select_best(view.evals, view.current)
    if best is view.current:
        return Decision(None, view.counter_c)
    return Decision(best, view.counter_c)
