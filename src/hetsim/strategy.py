"""Per-terminal handoff decisions.

Two policies share one interface:

* the multi-play probabilistic game, which only ever moves a *fraction*
  of the affected terminals per cycle (overload relief off DSRC,
  counter-scaled escape from a degraded network, and a pull back to DSRC
  when it has headroom), so the population approaches equilibrium
  gradually instead of stampeding; and
* the conventional single-play baseline, which jumps straight to the
  highest-scoring network every cycle.

The game's switch probabilities, for a terminal perceiving x terminals on
its network:

* overload relief, for a DSRC terminal with x > n_exp:
  rho * (x - n_exp + 1) / (x + 1). It grows with the excess and saturates
  at rho, so the expected outflow tracks the overload without ever
  emptying DSRC in a single cycle;
* return to DSRC, for a terminal elsewhere while DSRC meets its
  requirements and x_dsrc < n_exp: min(rho * (n_exp - x_dsrc) / (x + 1),
  rho). It is proportional to DSRC's headroom and inverse to the current
  network's population, clamped into [0, rho] (below n_exp it is never
  negative);
* degradation, after c consecutive failing cycles: min(sigma * c / x, 1).
  With x terminals each applying it, sigma*c switchers are expected per
  cycle until the clamp bites. x = 0 is a blackout with no population
  estimate, where it degenerates to min(sigma * c, 1).

The degradation counter c is halved on a cycle the current network meets
its requirements and grows by one on a failing cycle.

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
# Decision(...) runs NamedTuple's Python-level __new__. Most decisions stay put
# with a small counter, so _STAY[c] is the stay with counter c, built once here
# and shared (a Decision is immutable); a stay with a counter outside
# [0, _STAY_END) is built directly, without the constructor.
_new = tuple.__new__
_STAY_END = 64
_STAY = tuple(_new(Decision, (None, c, NONE)) for c in range(_STAY_END))


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
    n_exp = params.n_exp
    dsrc_meets = evals[DSRC].meets_requirements

    if current is DSRC:
        if x_dsrc > n_exp and rng.random() < params.rho * (x_dsrc - n_exp + 1) / (x_dsrc + 1):
            return Decision(best_network(evals, exclude=DSRC), c, OVERLOAD)
        x, met = x_dsrc, dsrc_meets
    else:
        if dsrc_meets and x_dsrc < n_exp:
            rho = params.rho
            if rng.random() < min(rho * (n_exp - x_dsrc) / (x_current + 1), rho):
                return Decision(DSRC, c, RETURN_TO_DSRC)
        x, met = x_current, evals[current].meets_requirements

    if met:
        c //= 2
        return _STAY[c] if 0 <= c < _STAY_END else _new(Decision, (None, c, NONE))
    c += 1
    sigma = params.sigma
    if rng.random() < min(sigma * c / x if x > 0 else sigma * c, 1.0):
        return Decision(best_network(evals, exclude=current), c, DEGRADATION)
    return _STAY[c] if 0 <= c < _STAY_END else _new(Decision, (None, c, NONE))


def decide_baseline(current: NetworkKind, evals: dict[NetworkKind, NetEvaluation],
                    counter_c: int) -> Decision:
    """Single-play score chaser: jump to the argmax network (ARGMAX), no randomness."""
    best = select_best(evals, current)
    if best is current:
        c = counter_c
        return _STAY[c] if 0 <= c < _STAY_END else _new(Decision, (None, c, NONE))
    return Decision(best, counter_c, ARGMAX)
