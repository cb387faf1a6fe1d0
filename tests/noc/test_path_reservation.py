"""The one-pass path reservation against a hop-by-hop reference model.

``Network.delivery_time`` reserves a packet's whole compiled route in
one loop over packed occupancy records.  The reference below is the
plain per-hop model it replaces: a link with list-backed merged windows,
reserved hop by hop through a ``(source, destination)`` link-key lookup.
Any stream of packets must produce identical completions, per-link
counters and exact ``busy_within`` answers in both.
"""

import bisect

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noc import Link, MeshTopology, Network, Packet, XYRouter, YXRouter
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

    def reserve(self, earliest, nbytes):
        duration = max(-(-nbytes // self.bytes_per_cycle), 1)
        start = max(earliest, self.next_free)
        end = start + duration
        self.next_free = end
        self.busy_cycles += duration
        self.packets += 1
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


_packet = st.tuples(
    st.integers(min_value=0, max_value=40),    # cycles since the last packet
    st.integers(min_value=0, max_value=8),     # source
    st.integers(min_value=0, max_value=8),     # destination (== source: loopback)
    st.integers(min_value=0, max_value=600),   # payload bytes
)


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

    for gap, source, destination, size in packets:
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
        edges = {t + d for t in want.starts + want.ends for d in (-1, 0, 1)}
        for t in sorted(edges.union(probes, {want.next_free + 100})):
            assert link.busy_within(t) == want.busy_within(t)


@given(st.lists(st.tuples(st.integers(min_value=-20, max_value=500),
                          st.integers(min_value=0, max_value=300)),
                min_size=1, max_size=60),
       st.lists(st.integers(min_value=-5, max_value=2000), max_size=12))
def test_link_reserve_is_the_one_hop_case(requests, probes):
    link, ref = Link(0, 1, bytes_per_cycle=8), RefLink(8)
    for earliest, nbytes in requests:
        assert link.reserve(earliest, nbytes) == ref.reserve(earliest, nbytes)
    assert (link.next_free, link.busy_cycles, link.packets) == (
        ref.next_free, ref.busy_cycles, ref.packets)
    for t in set(probes) | {ref.next_free, ref.next_free + 1}:
        assert link.busy_within(t) == ref.busy_within(t)
