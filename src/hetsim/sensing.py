"""Per-terminal reception bookkeeping and the broadcast-derived link metrics.

Every terminal keeps, per network, the delays heard in the current and
the previous cycle (one per sender) and the last cycle in which each
sender was heard. From them derive:

* the distinct-sender count over the three-cycle window, which estimates
  how many terminals are broadcasting on a network without being fooled
  by individual packet losses;
* mean propagation delay over the current cycle's receptions;
* a loss estimate comparing the trailing second's sender population with
  the current cycle's. The trailing second includes the current cycle, so
  the estimate is never negative; it is computed exactly as stated, so it
  can exceed 1 right after heavy loss;
* mean per-sender delay change between consecutive cycles (jitter).

A window's sender population is the senders last heard inside it: the
same set as the union of the window's per-cycle receptions, since no
sender is heard after the current cycle.

When the two delay slots do not hold the data for all three metrics yet,
`measure` returns None and the caller falls back to its prior.
"""

from __future__ import annotations

from itertools import repeat
from operator import lt

from .domain import ALL_NETWORKS, CYCLE_S, NetworkKind

#: Sender-count window, in cycles.
SENDER_WINDOW_CYCLES = 3
#: Loss-estimate window, in cycles: the trailing second.
LOSS_WINDOW_CYCLES = round(1 / CYCLE_S)


def _heard_since(last_heard: dict[int, int], before: int) -> int:
    """How many senders were last heard in a cycle after `before`."""
    return sum(map(lt, repeat(before), last_heard.values()))


class ReceptionLedger:
    """Reception history of one terminal (exclusively owned, not shared):
    two {sender: delay} slots and a {sender: last cycle heard} map per
    network. A window's sender count is the size of its slots' union."""

    def __init__(self):
        # The ledger starts with the two silent cycles `measure` reads,
        # numbered -1 and 0; a cycle before the first and a silent one
        # count alike.
        self._cycle = 0
        self._previous: dict[NetworkKind, dict[int, float]] = {n: {} for n in ALL_NETWORKS}
        self._current: dict[NetworkKind, dict[int, float]] = {n: {} for n in ALL_NETWORKS}
        self._last_heard: dict[NetworkKind, dict[int, int]] = {n: {} for n in ALL_NETWORKS}

    def begin_cycle(self) -> tuple[dict[int, float], ...]:
        """Open an empty {sender: delay} slot per network and return them in
        `ALL_NETWORKS` order. A caller that writes into them calls
        `stamp_heard` once after its writes; `record_reception` does both."""
        self._cycle += 1
        self._previous = self._current
        self._current = {net: {} for net in ALL_NETWORKS}
        return tuple(self._current.values())

    def stamp_heard(self) -> None:
        """Mark every sender in the open slots as heard this cycle."""
        for net, slot in self._current.items():
            self._last_heard[net].update(dict.fromkeys(slot, self._cycle))

    def record_reception(self, network: NetworkKind, sender: int, delay: float) -> None:
        """Log one broadcast received this cycle; a repeated sender keeps the latest."""
        if delay < 0:
            raise ValueError(f"reception precedes generation (delay {delay})")
        self._current[network][sender] = delay
        self._last_heard[network][sender] = self._cycle

    def distinct_senders(self, network: NetworkKind) -> int:
        """Unique senders heard on the network within the 3-cycle window."""
        return _heard_since(self._last_heard[network], self._cycle - SENDER_WINDOW_CYCLES)

    def measure(self, network: NetworkKind) -> tuple[float, float, float] | None:
        """(delay, plr, jitter) as the module describes them, or None unless
        some sender was heard in both the current and the previous cycle."""
        current, previous = self._current[network], self._previous[network]
        deltas = [abs(delay - previous[s]) for s, delay in current.items()
                  if s in previous]
        if not deltas:
            return None
        n_now = len(current)
        # The window is the trailing second.
        heard = _heard_since(self._last_heard[network], self._cycle - LOSS_WINDOW_CYCLES)
        return (sum(current.values()) / n_now, (heard - n_now) / n_now,
                sum(deltas) / len(deltas))
