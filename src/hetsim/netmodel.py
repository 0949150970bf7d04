"""Ground-truth network performance as a function of attached-terminal count.

Each network's delay, loss rate, and jitter grow with load along a convex
polynomial curve; the evaluation derived from them is therefore strictly
decreasing in the number of attached terminals whenever any growth
coefficient is positive. This coupling is what makes naive greedy network
selection unstable: every mass handoff degrades its own target.

Per-link outcomes (delivered or lost, and with what delay) are sampled
from the same curves, so packet-level runs and curve-level runs agree in
expectation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .domain import StrategyParams


@dataclass(frozen=True)
class NetworkProfile:
    """Performance curve of one network.

    At load n the curve value is base + coeff * (n / cap) ** exponent for
    each of delay (d0, a), loss (p0, b), and jitter (g0, h). cap is a soft
    capacity scale, not a hard limit; loss is clamped at 1. Relay overhead
    for networks without native broadcast is folded into d0.
    """

    d0: float
    a: float
    p0: float
    b: float
    g0: float
    h: float
    cap: int
    exponent: float = 2.0


@dataclass(frozen=True)
class LinkSample:
    """Outcome of one broadcast link: lost, or delivered after `delay`."""

    delivered: bool
    delay: float | None = None


def perf_at(profile: NetworkProfile, n: int) -> tuple[float, float, float]:
    """Ground-truth (delay, plr, jitter) of the network at load n."""
    if n < 0:
        raise ValueError(f"load must be >= 0, got {n}")
    q = (n / profile.cap) ** profile.exponent
    delay = profile.d0 + profile.a * q
    plr = min(profile.p0 + profile.b * q, 1.0)
    jitter = profile.g0 + profile.h * q
    return delay, plr, jitter


def sample_link(profile: NetworkProfile, n: int, rng: random.Random) -> LinkSample:
    """Sample one link outcome at load n.

    Delivery succeeds with probability 1 - plr(n); a delivered packet's
    delay is the mean delay plus a uniform perturbation of half-width
    jitter(n), never below the base delay d0.
    """
    if n < 1:
        raise ValueError(f"sampling needs at least the sender attached, got n={n}")
    delay, plr, jitter = perf_at(profile, n)
    if rng.random() < plr:
        return LinkSample(delivered=False)
    observed = delay + rng.uniform(-jitter, jitter)
    return LinkSample(delivered=True, delay=max(observed, profile.d0))


def ground_truth_eval(profile: NetworkProfile, n: int, params: "StrategyParams") -> float:
    """Noise-free weighted evaluation of the network at load n.

    This is the analytic counterpart of what a terminal computes from its
    received broadcasts, and the function family the equilibrium oracle
    operates on.
    """
    from .evaluation import net_eva, normalize

    delay, plr, jitter = perf_at(profile, n)
    return net_eva(normalize(delay, plr, jitter, params), params)
