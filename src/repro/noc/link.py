"""Directed NoC links as serially-reserved resources."""

from __future__ import annotations

import bisect
import typing
from array import array

#: Bits of a record word that hold a window's duration; the start
#: cycle sits above them.
DURATION_BITS = 24
#: Longest duration one record word holds; longer windows are stored
#: as consecutive chunks of at most this many cycles.
DURATION_MASK = (1 << DURATION_BITS) - 1


class Link:
    """One directed channel between adjacent routers.

    A packet occupies the link for its serialisation time
    (``ceil(bytes / bytes_per_cycle)``).  Reservations are granted in
    request order: a link keeps the cycle at which it next becomes free
    and pushes later packets behind it, which models FIFO queueing
    contention without simulating individual flits.

    Occupancy windows are granted in non-decreasing order and never
    overlap, so the link keeps them as one packed word each,
    ``start << DURATION_BITS | duration``, in an ``array('q')`` (8
    bytes per window; a duration past :data:`DURATION_MASK` goes in
    as consecutive chunks).  Words sort by start cycle, so
    :meth:`busy_within` finds the windows that began before ``t`` with
    one bisection and computes the exact occupancy inside ``[0, t)``
    — including a window that straddles ``t``, which a bare busy-cycle
    counter would overcount.  The prefix sums of the durations it
    reads are built lazily, on the first read after new windows, so
    only readers pay for them.  Start cycles must stay below 2**39.
    """

    __slots__ = ("source", "destination", "bytes_per_cycle", "next_free",
                 "_chunks", "_record", "_sums")

    def __init__(self, source: int, destination: int, bytes_per_cycle: int):
        if bytes_per_cycle < 1:
            raise ValueError("link bandwidth must be at least 1 byte/cycle")
        self.source = source
        self.destination = destination
        self.bytes_per_cycle = bytes_per_cycle
        self.next_free = 0
        #: one packed word per occupancy window, in start order.
        self._record = array("q")
        #: record words beyond the first of chunked windows.
        self._chunks = 0
        #: busy cycles before each window: ``_sums[i]`` covers
        #: ``_record[:i]``; extended by :meth:`_prefix_sums`.
        self._sums = array("q", (0,))

    def _prefix_sums(self) -> array:
        """The duration prefix sums, extended over any new windows."""
        sums, record = self._sums, self._record
        known = len(sums) - 1
        if known < len(record):
            total = sums[-1]
            append = sums.append
            for word in record[known:]:
                total += word & DURATION_MASK
                append(total)
        return sums

    @property
    def packets(self) -> int:
        """Reservations granted on this link."""
        return len(self._record) - self._chunks

    @property
    def busy_cycles(self) -> int:
        """Total cycles reserved on this link (granted in the future too)."""
        return self._prefix_sums()[-1]

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
        # Windows before ``index`` started before ``elapsed``; only the
        # last of them can reach past it, since windows never overlap.
        record = self._record
        index = bisect.bisect_left(record, elapsed << DURATION_BITS)
        if not index:
            return 0
        busy = self._prefix_sums()[index]
        word = record[index - 1]
        overshoot = ((word >> DURATION_BITS) + (word & DURATION_MASK)
                     - elapsed)
        return busy - overshoot if overshoot > 0 else busy

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
    every packet runs it over every link on its path — so a hop costs
    one comparison against ``next_free`` and one packed append (the
    record's length doubles as the reservation count).
    """
    if duration > DURATION_MASK:
        return _reserve_path_chunked(links, head, hop_cycles, duration)
    end = head
    for link in links:
        start = head + hop_cycles
        next_free = link.next_free
        if start < next_free:
            start = next_free
        link._record.append(start << DURATION_BITS | duration)
        end = link.next_free = start + duration
        head = start  # downstream hops stall behind contention
    return end


def _reserve_path_chunked(links, head, hop_cycles, duration):
    """:func:`reserve_path` for windows longer than one record word."""
    end = head
    for link in links:
        start = head + hop_cycles
        if start < link.next_free:
            start = link.next_free
        end = link.next_free = start + duration
        record = link._record
        chunk_start, left = start, duration
        while left > DURATION_MASK:
            record.append(chunk_start << DURATION_BITS | DURATION_MASK)
            link._chunks += 1
            chunk_start += DURATION_MASK
            left -= DURATION_MASK
        record.append(chunk_start << DURATION_BITS | left)
        head = start
    return end
