"""The one-pass path reservation against a hop-by-hop reference model.

``Network.delivery_time`` reserves a packet's whole compiled route in
one loop over packed occupancy records.  The reference below is the
plain per-hop model it replaces: a link with list-backed merged windows,
reserved hop by hop through a ``(source, destination)`` link-key lookup.
Any stream of packets must produce identical completions, per-link
counters and exact ``busy_within`` answers in both — including packets
whose wire time does not fit one record word and is stored in chunks.
"""

import bisect

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noc import Link, MeshTopology, Network, Packet, XYRouter, YXRouter
from repro.noc.link import DURATION_MASK
from repro.noc.network import PACKET_HEADER_BYTES
from repro.sim import Simulator


class RefLink:
    """A directed link reserved one hop at a time, windows in lists."""

    def __init__(self, bytes_per_cycle):
        self.bytes_per_cycle = bytes_per_cycle
        self.next_free = 0
        self.busy_cycles = 0
        self.packets = 0
        self.starts, self.ends, self.cum = [], [], []
        #: every granted (start, end), unmerged.
        self.reservations = []

    def reserve(self, earliest, nbytes):
        duration = max(-(-nbytes // self.bytes_per_cycle), 1)
        start = max(earliest, self.next_free)
        end = start + duration
        self.next_free = end
        self.busy_cycles += duration
        self.packets += 1
        self.reservations.append((start, end))
        if self.ends and self.ends[-1] == start:
            self.ends[-1] = end
            self.cum[-1] += duration
        else:
            self.starts.append(start)
            self.ends.append(end)
            self.cum.append((self.cum[-1] if self.cum else 0) + duration)
        return start, end

    def busy_within(self, elapsed):
        if elapsed <= 0:
            return 0
        index = bisect.bisect_right(self.ends, elapsed)
        busy = self.cum[index - 1] if index else 0
        if index < len(self.starts) and self.starts[index] < elapsed:
            busy += elapsed - self.starts[index]
        return busy


class RefNetwork:
    """Per-hop reservation over link keys, as a dict lookup per hop."""

    def __init__(self, topology, router, hop_cycles, bytes_per_cycle):
        self.router = router
        self.hop_cycles = hop_cycles
        self.links = {key: RefLink(bytes_per_cycle)
                      for key in list(topology.links())
                      + [(n, n) for n in range(topology.node_count)]}

    def delivery_time(self, now, source, destination, size_bytes):
        wire_bytes = size_bytes + PACKET_HEADER_BYTES
        if source == destination:
            hops = [(source, source)]
        else:
            hops = self.router.links_on_path(source, destination)
        head = completion = now
        for hop in hops:
            start, completion = self.links[hop].reserve(
                head + self.hop_cycles, wire_bytes)
            head = start
        return completion


#: wire times around the record's chunk boundary, and several chunks.
_long_cycles = st.one_of(
    st.integers(min_value=DURATION_MASK - 2, max_value=DURATION_MASK + 2),
    st.integers(min_value=1, max_value=3 * DURATION_MASK + 3),
)

_packet = st.tuples(
    st.integers(min_value=0, max_value=40),    # cycles since the last packet
    st.integers(min_value=0, max_value=8),     # source
    st.integers(min_value=0, max_value=8),     # destination (== source: loopback)
    st.integers(min_value=0, max_value=600),   # payload bytes
    # or, now and then, a payload sized to this many wire cycles
    st.one_of(st.none(), st.none(), st.none(), _long_cycles),
)


def _edges(ref):
    """Cycles inside, at and past every window edge and chunk seam."""
    edges = set()
    for start, end in ref.reservations:
        for t in range(start, end, DURATION_MASK):
            edges.update((t - 1, t, t + 1))
        edges.update((end - 1, end, end + 1))
    return edges


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    packets=st.lists(_packet, min_size=1, max_size=60),
    yx=st.booleans(),
    hop_cycles=st.integers(min_value=0, max_value=4),
    bytes_per_cycle=st.sampled_from([1, 8, 16, 64]),
    probes=st.lists(st.integers(min_value=-5, max_value=4000), max_size=12),
)
def test_path_reservation_matches_hop_by_hop(packets, yx, hop_cycles,
                                             bytes_per_cycle, probes):
    topology = MeshTopology(3, 3)
    router = (YXRouter if yx else XYRouter)(topology)
    sim = Simulator()
    net = Network(sim, topology, hop_cycles=hop_cycles,
                  bytes_per_cycle=bytes_per_cycle, router=router)
    ref = RefNetwork(topology, router, hop_cycles, bytes_per_cycle)

    for gap, source, destination, size, cycles in packets:
        if cycles is not None:
            size = max(cycles * bytes_per_cycle - PACKET_HEADER_BYTES, 0)
        sim.run(until=sim.now + gap)
        got = net.delivery_time(Packet(source, destination, "message", size))
        want = ref.delivery_time(sim.now, source, destination, size)
        assert got == want

    # Probe every window edge (inside, at and past each one) plus
    # random cycles.
    for key, want in ref.links.items():
        link = net.link(*key)
        assert (link.next_free, link.busy_cycles, link.packets) == (
            want.next_free, want.busy_cycles, want.packets)
        for t in sorted(_edges(want).union(probes, {want.next_free + 100})):
            assert link.busy_within(t) == want.busy_within(t)


@given(st.lists(st.tuples(st.integers(min_value=-20, max_value=500),
                          st.integers(min_value=0, max_value=300),
                          st.one_of(st.none(), _long_cycles)),
                min_size=1, max_size=60),
       st.lists(st.integers(min_value=-5, max_value=2000), max_size=12))
def test_link_reserve_is_the_one_hop_case(requests, probes):
    link, ref = Link(0, 1, bytes_per_cycle=8), RefLink(8)
    for earliest, nbytes, cycles in requests:
        if cycles is not None:
            nbytes = 8 * cycles
        assert link.reserve(earliest, nbytes) == ref.reserve(earliest, nbytes)
    assert (link.next_free, link.busy_cycles, link.packets) == (
        ref.next_free, ref.busy_cycles, ref.packets)
    for t in _edges(ref) | set(probes) | {ref.next_free + 1}:
        assert link.busy_within(t) == ref.busy_within(t)
