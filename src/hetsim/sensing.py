"""Link sampling, per-terminal reception bookkeeping and the broadcast-derived link metrics.

Every terminal keeps, per network, a ring of heard-sender bitmasks, one per
cycle of the trailing second, oldest first (a window's sender population is
the popcount of its masks' OR), and the delays heard in the current cycle
and, until it has measured, the previous one (one per sender). From them derive:

* the distinct-sender count over the three-cycle window, which estimates
  how many terminals are broadcasting on a network without being fooled
  by individual packet losses;
* mean propagation delay over the current cycle's receptions;
* a loss estimate comparing the trailing second's sender population with
  the current cycle's. The trailing second includes the current cycle, so
  the estimate is never negative; it is computed exactly as stated, so it
  can exceed 1 right after heavy loss;
* mean per-sender delay change between consecutive cycles (jitter).

When the two delay slots do not hold the data for all three metrics yet,
`measure` returns None and the caller falls back to its prior. `perceive`, the
engine's one call into the ledgers, is a sampled cycle's first pass: every
receiver hears, measures and releases before any terminal decides.

Per-link outcomes (delivered or lost, and with what delay) are sampled from
the ground-truth curves, but not every sampled measurement agrees with them
in expectation. The mean delay does, except where the d0 floor binds. The
jitter, a sender's |U1 - U2| for two draws from U(-j, j), is 2j/3 of the
curve's j without the floor and less with it, and the loss estimate reads
~1.07-1.09x the curve's plr (table2_step at its starting loads).
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from math import fsum, inf
from operator import or_
from typing import Callable, NamedTuple

from .domain import ALL_NETWORKS, CYCLE_S, DSRC, NetworkKind

#: Loss-estimate window, in cycles: the trailing second.
LOSS_WINDOW_CYCLES = round(1 / CYCLE_S)


class LinkSample(NamedTuple):
    """Outcome of one broadcast link: heard or lost."""

    delivered: bool


# Every link shares one of two results, so none is built per packet.
HEARD = LinkSample(True)
LOST = LinkSample(False)


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


class ReceptionLedger:
    """One terminal's own reception history: per network a heard-sender mask ring,
    this cycle's {sender: delay} slot and, until `end_cycle`, the last cycle's."""

    def __init__(self):
        self._previous: dict[NetworkKind, dict[int, float]] | None = {n: {} for n in ALL_NETWORKS}
        self._current: dict[NetworkKind, dict[int, float]] = {n: {} for n in ALL_NETWORKS}
        # A cycle before the first and a silent one count alike.
        self._masks = {n: deque([0] * LOSS_WINDOW_CYCLES, LOSS_WINDOW_CYCLES) for n in ALL_NETWORKS}

    def begin_cycle(self) -> tuple[dict[int, float], ...]:
        """Open an empty {sender: delay} slot per network and return them in
        `ALL_NETWORKS` order. A caller that writes into them then passes
        their senders' masks to `stamp_heard`; `record_reception` does both."""
        self._previous = self._current
        self._current = {net: {} for net in ALL_NETWORKS}
        for masks in self._masks.values():
            masks.append(0)
        return tuple(self._current.values())

    def stamp_heard(self, heard: list[int]) -> None:
        """Store this cycle's heard-sender masks, one per network in
        `ALL_NETWORKS` order: bit s set iff sender s is in that open slot.
        The engine builds them as the broadcasters less the lost links."""
        for masks, mask in zip(self._masks.values(), heard):
            masks[-1] = mask

    def record_reception(self, network: NetworkKind, sender: int, delay: float) -> None:
        """Log one broadcast received this cycle (a repeated sender keeps the
        latest) and set its sender's bit in this cycle's mask."""
        if not 0 <= delay < inf:  # negative: the reception would precede generation
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        if sender < 0:
            raise ValueError(f"sender id must be >= 0, got {sender}")
        self._current[network][sender] = delay
        self._masks[network][-1] |= 1 << sender

    def distinct_senders(self, network: NetworkKind) -> int:
        """Unique senders heard on the network within the 3-cycle window."""
        masks = self._masks[network]
        return (masks[-1] | masks[-2] | masks[-3]).bit_count()

    def measure(self, network: NetworkKind) -> tuple[float, float, float] | None:
        """(delay, plr, jitter) as the module describes them, or None unless
        some sender was heard in both the current and the previous cycle. The
        sums are fsum's, correctly rounded: the same float on every CPython."""
        current, get = self._current[network], self._previous[network].get
        deltas = [abs(delay - p) for s, delay in current.items() if (p := get(s)) is not None]
        if not deltas:
            return None
        n_now = len(current)
        heard = reduce(or_, self._masks[network]).bit_count()
        return (fsum(current.values()) / n_now, (heard - n_now) / n_now,
                fsum(deltas) / len(deltas))

    def end_cycle(self) -> None:
        """Release the previous cycle's delays: `measure` raises until `begin_cycle`."""
        self._previous = None


def perceive(ledgers: list[ReceptionLedger], attachment: list[NetworkKind], curves: dict,
             profiles: dict, rngs: list, gen_time: float, sample: Callable) -> list[tuple]:
    """Per receiver ([measure(net) for net in ALL_NETWORKS], x_dsrc, x_current); the
    caller scores a None measurement from its prior. Receiver i draws its links through
    `sample` from `rngs[i]`; they carry `curves` (in `ALL_NETWORKS` order) as attached."""
    # One link per sender, and per network the bitmask of its broadcasters.
    fields = {net: (index, profiles[net].d0, delay, plr, -jitter, jitter + jitter)
              for index, (net, (delay, plr, jitter)) in enumerate(curves.items())}
    links = [(sender, *fields[net]) for sender, net in enumerate(attachment)]
    rosters = [0] * len(ALL_NETWORKS)
    for link in links:
        rosters[link[1]] |= 1 << link[0]
    perceptions = []
    for i, (ledger, current) in enumerate(zip(ledgers, attachment)):
        slots = ledger.begin_cycle()
        rand = rngs[i].random
        heard = rosters.copy()  # every other broadcaster, less the lost links
        heard[links[i][1]] ^= 1 << i
        for link in links[:i] + links[i + 1:]:
            if sample(link, rand, gen_time, slots) is LOST:
                heard[link[1]] ^= 1 << link[0]
        ledger.stamp_heard(heard)
        # x_dsrc counts an attached terminal itself; x_current counts only *heard* senders.
        x_current = ledger.distinct_senders(current)
        x_dsrc = x_current + 1 if current is DSRC else ledger.distinct_senders(DSRC)
        perceptions.append(([ledger.measure(net) for net in ALL_NETWORKS], x_dsrc, x_current))
        ledger.end_cycle()  # nothing reads the previous cycle's delays again
    return perceptions
