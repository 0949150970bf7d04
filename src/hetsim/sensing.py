"""Per-terminal reception bookkeeping and the broadcast-derived link metrics.

Every terminal keeps, per network, the broadcasts it received over the
last three cycles (delay per sender, current and previous cycle) plus a
one-second trailing record of distinct senders. From those it derives:

* the distinct-sender count over the three-cycle window, which estimates
  how many terminals are broadcasting on a network without being fooled
  by individual packet losses;
* mean propagation delay over the current cycle's receptions;
* a loss estimate comparing the trailing second's sender population with
  the current cycle's (computed exactly as stated, so it can exceed 1
  right after heavy loss, and clamps at 0 right after a handoff when the
  current cycle momentarily sees more senders than the trailing second);
* mean per-sender delay change between consecutive cycles (jitter).

Measurements that need data the window does not hold yet return None and
the caller falls back to its prior.
"""

from __future__ import annotations

import math
from collections import deque

from .domain import ALL_NETWORKS, NetworkKind

#: Sender-count window, in cycles.
SENDER_WINDOW_CYCLES = 3


class ReceptionLedger:
    """Reception history of one terminal (exclusively owned, not shared)."""

    def __init__(self, cycle_length: float):
        if cycle_length <= 0:
            raise ValueError(f"cycle_length must be > 0, got {cycle_length}")
        self.trailing_cycles = math.ceil(1.0 / cycle_length)
        # Newest slot last; one {sender: delay} dict per cycle.
        self._slots: dict[NetworkKind, deque[dict[int, float]]] = {
            net: deque(maxlen=SENDER_WINDOW_CYCLES) for net in ALL_NETWORKS
        }
        # One sender-id set per cycle over the trailing second.
        self._recent: dict[NetworkKind, deque[set[int]]] = {
            net: deque(maxlen=self.trailing_cycles) for net in ALL_NETWORKS
        }

    def begin_cycle(self) -> None:
        """Open a new (empty) cycle slot; receptions land in the open slot."""
        for net in ALL_NETWORKS:
            self._slots[net].append({})
            self._recent[net].append(set())

    def record_reception(self, network: NetworkKind, sender: int, delay: float) -> None:
        """Log one broadcast received this cycle; a repeated sender keeps the latest."""
        if delay < 0:
            raise ValueError(f"reception precedes generation (delay {delay})")
        self._slots[network][-1][sender] = delay
        self._recent[network][-1].add(sender)

    def distinct_senders(self, network: NetworkKind) -> int:
        """Unique senders heard on the network within the 3-cycle window."""
        seen: set[int] = set()
        for slot in self._slots[network]:
            seen.update(slot)
        return len(seen)

    def measure_delay(self, network: NetworkKind) -> float | None:
        """Mean propagation delay over the current cycle, or None if silent."""
        slots = self._slots[network]
        if not slots or not slots[-1]:
            return None
        current = slots[-1]
        return sum(current.values()) / len(current)

    def measure_plr(self, network: NetworkKind) -> float | None:
        """Loss estimate (trailing-second senders vs current cycle), or None."""
        slots = self._slots[network]
        if not slots or not slots[-1]:
            return None
        n_now = len(slots[-1])
        amount: set[int] = set()
        for cycle_senders in self._recent[network]:
            amount.update(cycle_senders)
        return max((len(amount) - n_now) / n_now, 0.0)

    def measure_jitter(self, network: NetworkKind) -> float | None:
        """Mean |delay change| over senders heard in both of the last two cycles."""
        slots = self._slots[network]
        if len(slots) < 2:
            return None
        current, previous = slots[-1], slots[-2]
        deltas = [abs(current[s] - previous[s]) for s in current if s in previous]
        if not deltas:
            return None
        return sum(deltas) / len(deltas)

    def measure(self, network: NetworkKind) -> tuple[float, float, float] | None:
        """All three metrics, or None unless every one of them is defined."""
        delay = self.measure_delay(network)
        plr = self.measure_plr(network)
        jit = self.measure_jitter(network)
        if delay is None or plr is None or jit is None:
            return None
        return delay, plr, jit
