"""Directed NoC links as serially-reserved resources."""

from __future__ import annotations

import bisect
import typing
from array import array


class Link:
    """One directed channel between adjacent routers.

    A packet occupies the link for its serialisation time
    (``ceil(bytes / bytes_per_cycle)``).  Reservations are granted in
    request order: a link keeps the cycle at which it next becomes free
    and pushes later packets behind it, which models FIFO queueing
    contention without simulating individual flits.

    Occupancy windows are granted in non-decreasing order and never
    overlap, so the link keeps a compact merged-interval record
    (contiguous windows collapse into one) from which
    :meth:`busy_within` computes the exact occupancy inside any
    ``[0, t)`` prefix — including windows that straddle or lie beyond
    ``t``, which a bare busy-cycle counter would overcount.  The record
    is packed into ``array('q')`` columns (8 bytes per value, no boxed
    ints), so a long run's links hold ~24 bytes per disjoint window.
    """

    __slots__ = ("source", "destination", "bytes_per_cycle", "next_free",
                 "packets", "_window_starts", "_window_ends", "_window_cum")

    def __init__(self, source: int, destination: int, bytes_per_cycle: int):
        if bytes_per_cycle < 1:
            raise ValueError("link bandwidth must be at least 1 byte/cycle")
        self.source = source
        self.destination = destination
        self.bytes_per_cycle = bytes_per_cycle
        self.next_free = 0
        self.packets = 0
        #: merged occupancy windows (sorted, disjoint) plus cumulative
        #: busy cycles up to each window's end.
        self._window_starts = array("q")
        self._window_ends = array("q")
        self._window_cum = array("q")

    @property
    def busy_cycles(self) -> int:
        """Total cycles reserved on this link (granted in the future too)."""
        cum = self._window_cum
        return cum[-1] if cum else 0

    def serialization_cycles(self, nbytes: int) -> int:
        """Cycles to push ``nbytes`` through this link."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        # Pure-integer ceiling division: float division plus math.ceil
        # would round differently for very large byte counts.
        duration = -(-nbytes // self.bytes_per_cycle)
        return duration if duration > 0 else 1

    def reserve(self, earliest: int, nbytes: int) -> tuple[int, int]:
        """Reserve the link for ``nbytes`` no earlier than ``earliest``.

        Returns ``(start, end)`` of the granted occupancy window: the
        one-hop case of :func:`reserve_path`.
        """
        duration = self.serialization_cycles(nbytes)
        end = reserve_path((self,), earliest, 0, duration)
        return end - duration, end

    def busy_within(self, elapsed: int) -> int:
        """Exact occupied cycles inside the window ``[0, elapsed)``."""
        if elapsed <= 0:
            return 0
        # Windows whose end is <= elapsed count fully...
        index = bisect.bisect_right(self._window_ends, elapsed)
        busy = self._window_cum[index - 1] if index else 0
        # ...plus the in-window prefix of a straddling reservation.
        if (index < len(self._window_starts)
                and self._window_starts[index] < elapsed):
            busy += elapsed - self._window_starts[index]
        return busy

    def utilization(self, elapsed: int) -> float:
        """Exact fraction of ``[0, elapsed)`` this link was occupied.

        Only occupancy inside the elapsed window counts; reservations
        extending past (or granted beyond) ``elapsed`` contribute only
        their in-window prefix, so the result is exact and never needs
        clamping.
        """
        if elapsed <= 0:
            return 0.0
        return self.busy_within(elapsed) / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.source}->{self.destination} free@{self.next_free}>"


def reserve_path(links: typing.Sequence[Link], head: int, hop_cycles: int,
                 duration: int) -> int:
    """Reserve ``duration`` cycles on each link of a path, in order.

    The packet's head reaches each link ``hop_cycles`` after it started
    on the previous one (``head`` is when it left the source); a busy
    link stalls it, and downstream hops stall behind that.  Returns the
    cycle at which the tail clears the last link.

    This is the NoC's only reservation rule and its hottest loop —
    every packet runs it over every link on its path — so it stays
    branch-light: two comparisons against ``next_free`` per hop and a
    constant-time extension of the merged occupancy record in the
    common back-to-back case.
    """
    end = head
    for link in links:
        next_free = link.next_free
        start = head + hop_cycles
        if start < next_free:
            start = next_free
        end = start + duration
        if start == next_free and next_free:
            # Back-to-back with the last window, which ends at
            # next_free (0 only before the first window): extend it.
            link._window_ends[-1] = end
            link._window_cum[-1] += duration
        else:
            cum = link._window_cum
            link._window_starts.append(start)
            link._window_ends.append(end)
            cum.append(cum[-1] + duration if cum else duration)
        link.next_free = end
        link.packets += 1
        head = start  # downstream hops stall behind contention
    return end
