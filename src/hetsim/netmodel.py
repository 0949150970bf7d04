"""Ground-truth network performance as a function of attached-terminal count.

Each network's delay, loss rate, and jitter grow with load along a convex
polynomial curve; the evaluation derived from them is therefore strictly
decreasing in the number of attached terminals whenever any growth
coefficient is positive. This coupling is what makes naive greedy network
selection unstable: every mass handoff degrades its own target.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def perf_at(profile: NetworkProfile, n: int) -> tuple[float, float, float]:
    """Ground-truth (delay, plr, jitter) of the network at load n."""
    if n < 0:
        raise ValueError(f"load must be >= 0, got {n}")
    q = (n / profile.cap) ** profile.exponent
    delay = profile.d0 + profile.a * q
    plr = min(profile.p0 + profile.b * q, 1.0)
    jitter = profile.g0 + profile.h * q
    return delay, plr, jitter
