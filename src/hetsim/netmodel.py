"""Ground-truth network performance as a function of attached-terminal count.

Each network's delay, loss rate, and jitter grow with load along a convex
polynomial curve; the evaluation derived from them is therefore strictly
decreasing in the number of attached terminals whenever any growth
coefficient is positive. This coupling is what makes naive greedy network
selection unstable: every mass handoff degrades its own target.

Per-link outcomes (delivered or lost, and with what delay) are sampled
from the same curves, but not every sampled measurement agrees with them
in expectation. The mean delay does, except where the d0 floor binds. The
jitter, a sender's |U1 - U2| for two draws from U(-j, j), is 2j/3 of the
curve's j without the floor and less with it, and the loss estimate reads
~1.07-1.09x the curve's plr (table2_step at its starting loads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple


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


class LinkSample(NamedTuple):
    """Outcome of one broadcast link: heard or lost."""

    delivered: bool


# Every link shares one of two results, so none is built per packet.
HEARD = LinkSample(True)
LOST = LinkSample(False)


def perf_at(profile: NetworkProfile, n: int) -> tuple[float, float, float]:
    """Ground-truth (delay, plr, jitter) of the network at load n."""
    if n < 0:
        raise ValueError(f"load must be >= 0, got {n}")
    q = (n / profile.cap) ** profile.exponent
    delay = profile.d0 + profile.a * q
    plr = min(profile.p0 + profile.b * q, 1.0)
    jitter = profile.g0 + profile.h * q
    return delay, plr, jitter


def sample_link(link: tuple[int, int, float, float, float, float, float],
                random: Callable[[], float], gen_time: float,
                slots: tuple[dict[int, float], ...]) -> LinkSample:
    """Sample one link: (sender, slot_index, d0, delay, plr, low, width).

    Delivery succeeds with probability 1 - plr, drawn by the receiver's
    `random`; only a delivered packet draws its jitter, uniform on
    [low, low + width) around the mean delay (low = -jitter, width = jitter
    + jitter), and its delay is never below the base delay d0. A delivered
    packet sets `slots[slot_index][sender]` to its reception time minus
    `gen_time`, as a receiver computes it: that round trip shifts the last bits.
    """
    sender, slot_index, d0, delay, plr, low, width = link
    if random() < plr:
        return LOST
    # low + width * random() is rng.uniform(-jitter, jitter), and the floor is
    # max(observed, d0): the same draw and float without two calls per packet.
    observed = delay + (low + width * random())
    slots[slot_index][sender] = (gen_time + (d0 if d0 > observed else observed)) - gen_time
    return HEARD
