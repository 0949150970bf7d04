"""Per-terminal reception bookkeeping and the broadcast-derived link metrics.

Every terminal keeps, per network, one window of per-cycle receptions
(delay per sender), long enough for both the last three cycles and the
trailing second. From it derives:

* the distinct-sender count over the three-cycle window, which estimates
  how many terminals are broadcasting on a network without being fooled
  by individual packet losses;
* mean propagation delay over the current cycle's receptions;
* a loss estimate comparing the trailing second's sender population with
  the current cycle's. The trailing second includes the current cycle, so
  the estimate is never negative; it is computed exactly as stated, so it
  can exceed 1 right after heavy loss;
* mean per-sender delay change between consecutive cycles (jitter).

When the window does not hold the data for all three metrics yet,
`measure` returns None and the caller falls back to its prior.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

from .domain import ALL_NETWORKS, CYCLE_S, NetworkKind

#: Sender-count window, in cycles.
SENDER_WINDOW_CYCLES = 3
#: Loss-estimate window, in cycles: the trailing second.
LOSS_WINDOW_CYCLES = round(1 / CYCLE_S)


class ReceptionLedger:
    """Reception history of one terminal (exclusively owned, not shared)."""

    def __init__(self):
        # Newest slot last; one {sender: delay} dict per cycle. The window
        # starts with the two silent cycles `measure` reads and fills as
        # cycles run; a missing slot and a silent one count alike.
        self._slots: dict[NetworkKind, deque[dict[int, float]]] = {
            net: deque([{}, {}], maxlen=LOSS_WINDOW_CYCLES)
            for net in ALL_NETWORKS
        }

    def begin_cycle(self) -> None:
        """Open a new (empty) cycle slot; receptions land in the open slot."""
        for net in ALL_NETWORKS:
            self._slots[net].append({})

    def record_reception(self, network: NetworkKind, sender: int, delay: float) -> None:
        """Log one broadcast received this cycle; a repeated sender keeps the latest."""
        if delay < 0:
            raise ValueError(f"reception precedes generation (delay {delay})")
        self._slots[network][-1][sender] = delay

    def distinct_senders(self, network: NetworkKind) -> int:
        """Unique senders heard on the network within the 3-cycle window."""
        return len(set().union(*islice(reversed(self._slots[network]), SENDER_WINDOW_CYCLES)))

    def measure(self, network: NetworkKind) -> tuple[float, float, float] | None:
        """(delay, plr, jitter) as the module describes them, or None unless
        some sender was heard in both the current and the previous cycle."""
        current, previous = self._slots[network][-1], self._slots[network][-2]
        deltas = [abs(delay - previous[s]) for s, delay in current.items()
                  if s in previous]
        if not deltas:
            return None
        n_now = len(current)
        heard = len(set().union(*self._slots[network]))  # the window is the trailing second
        return (sum(current.values()) / n_now, (heard - n_now) / n_now,
                sum(deltas) / len(deltas))
