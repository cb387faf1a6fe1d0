"""Unit tests for :mod:`repro.sim.shard`.

Three properties hold the tentpole together:

- the partition (ShardPlan) follows kernel-domain boundaries and
  derives the conservative quantum from boundary-link latency;
- the exact-mode ShardedSimulator reproduces the monolithic engine's
  execution order — byte for byte — at any shard count;
- quantum-barrier exchange (run_partitioned) delivers cross-shard
  records in (cycle, source shard, seq) order regardless of worker
  count, including records that straddle a barrier.
"""

import pytest

from repro.noc.topology import MeshTopology
from repro.sim import Simulator
from repro.sim.shard import (
    ShardContext,
    ShardPlan,
    ShardedSimulator,
    run_partitioned,
)


def _plan(shards=2, width=4, height=3, pes=8, hop_cycles=3):
    topology = MeshTopology(width, height)
    nodes = list(range(pes))
    half = len(nodes) // 2
    return ShardPlan.from_domains(
        [nodes[:half], nodes[half:]][:max(2, shards)][:shards]
        if shards > 1 else [nodes],
        shards, topology, hop_cycles,
    )


# -- ShardPlan ----------------------------------------------------------------


def test_plan_follows_domain_boundaries():
    topology = MeshTopology(4, 3)
    plan = ShardPlan.from_domains([[0, 1, 2, 3], [4, 5, 6, 7]], 2,
                                  topology, 3)
    assert plan.shard_count == 2
    assert [plan.shard_of(n) for n in range(4)] == [0] * 4
    assert [plan.shard_of(n) for n in range(4, 8)] == [1] * 4


def test_plan_assigns_orphan_nodes_to_nearest_domain():
    """Nodes outside every domain (DRAM, device slots) follow their
    nearest assigned node — deterministically, lowest id on ties."""
    topology = MeshTopology(4, 3)
    plan = ShardPlan.from_domains([[0, 1, 2, 3], [4, 5, 6, 7]], 2,
                                  topology, 3)
    # Node 11 (bottom-right) is closest to node 7 -> shard 1.
    assert plan.shard_of(11) == 1
    # Node 8 (below node 4) is closest to node 4 -> shard 1.
    assert plan.shard_of(8) == 1
    assert len(plan.node_to_shard) == topology.node_count


def test_plan_quantum_is_min_boundary_link_latency():
    topology = MeshTopology(4, 3)
    plan = ShardPlan.from_domains([[0, 1, 2, 3], [4, 5, 6, 7]], 2,
                                  topology, hop_cycles=7)
    assert plan.quantum == 7
    boundary = plan.boundary_links(topology)
    assert boundary  # the cut is real
    assert all(plan.shard_of(a) != plan.shard_of(b) for a, b in boundary)


def test_plan_groups_domains_like_the_kernel_partition():
    """4 domains into 2 shards: contiguous divmod chunks, exactly the
    kernel's own grouping rule."""
    topology = MeshTopology(4, 3)
    domains = [[0, 1], [2, 3], [4, 5], [6, 7]]
    plan = ShardPlan.from_domains(domains, 2, topology, 3)
    assert [plan.shard_of(n) for n in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]


def test_plan_rejects_more_shards_than_domains():
    topology = MeshTopology(4, 3)
    with pytest.raises(ValueError, match="cannot split"):
        ShardPlan.from_domains([[0, 1, 2, 3]], 2, topology, 3)


def test_plan_rejects_sparse_shard_ids():
    with pytest.raises(ValueError, match="dense"):
        ShardPlan([0, 2], quantum=3)


# -- exact mode: the ShardedSimulator facade ----------------------------------


def _interleaved_workload(sim, log, rounds=60):
    """Timers, zero-delay chains, events, and processes interleaved
    across cycles — every scheduling shape the engine offers."""

    def ticker(tag, period):
        def tick(_):
            log.append((sim.now, "tick", tag))
            if len(log) < rounds:
                sim.schedule(period, tick)
                if tag == 0:
                    sim.call_soon(lambda _: log.append((sim.now, "soon", tag)))
        return tick

    for tag, period in enumerate((3, 5, 7)):
        sim.schedule(period, ticker(tag, period))

    gate = sim.event("gate")
    gate.add_callback(lambda e: log.append((sim.now, "gate", e.value)))
    sim.schedule(11, lambda _: gate.succeed("opened"))

    def proc():
        for _ in range(5):
            yield sim.delay(4)
            log.append((sim.now, "proc", None))
        return "done"

    sim.process(proc(), "walker")


def test_exact_mode_matches_monolithic_order():
    mono_log, shard_log = [], []
    mono = Simulator()
    _interleaved_workload(mono, mono_log)
    mono.run(until=200)

    sharded = ShardedSimulator(_plan(2))
    _interleaved_workload(sharded, shard_log)
    sharded.run(until=200)

    assert shard_log == mono_log
    assert sharded.now == mono.now == 200
    assert sharded.pending_events == mono.pending_events


def test_exact_mode_until_event_stops_identically():
    for make in (Simulator, lambda: ShardedSimulator(_plan(2))):
        sim = make()
        log = []
        _interleaved_workload(sim, log)
        stop = sim.event("stop")
        sim.schedule(12, lambda _: stop.succeed())
        sim.run(until_event=stop)
        assert sim.now == 12
        if isinstance(sim, Simulator):
            expected = (sim.now, log[-1])
        else:
            assert (sim.now, log[-1]) == expected


def test_run_until_in_the_past_is_rejected_at_any_shard_count():
    for make in (Simulator, lambda: ShardedSimulator(_plan(2))):
        sim = make()
        sim.schedule(100, lambda _: None)
        sim.run(until=150)
        with pytest.raises(ValueError):
            sim.run(until=50)
        assert sim.now == 150


def test_exact_mode_cancel_accounting():
    """Facade cancels blank entries across members; the summed count
    stays exact through pops on either member."""
    sharded = ShardedSimulator(_plan(2))
    member0, member1 = sharded.members
    live = member0.schedule(10, lambda _: None)
    stale = member1.schedule(4, lambda _: None)
    sharded.run(until=6)
    sharded.cancel(stale)  # already executed: no-op
    assert sharded.pending_events == 1
    sharded.cancel(live)
    assert sharded.pending_events == 0
    sharded.run()
    assert sharded.pending_events == 0


def test_exact_mode_run_process_round_trip():
    sharded = ShardedSimulator(_plan(2))

    def body():
        yield sharded.delay(30)
        return "finished"

    assert sharded.run_process(body(), "main") == "finished"
    assert sharded.now == 30


def test_member_for_routes_by_plan():
    plan = _plan(2)
    sharded = ShardedSimulator(plan)
    for node in range(len(plan.node_to_shard)):
        assert sharded.member_for(node) is sharded.members[plan.shard_of(node)]


def test_deliver_counts_only_boundary_crossings():
    class Pkt:
        def __init__(self, source, destination, size_bytes):
            self.source, self.destination = source, destination
            self.size_bytes = size_bytes

    sharded = ShardedSimulator(_plan(2))
    seen = []
    sharded.deliver(Pkt(0, 1, 64), lambda p: seen.append(p.destination), 5)
    sharded.deliver(Pkt(0, 7, 80), lambda p: seen.append(p.destination), 9)
    assert (sharded.cross_packets, sharded.cross_bytes) == (1, 80)
    sharded.run()
    assert seen == [1, 7]
    assert sharded.now == 9


# -- quantum mode: run_partitioned --------------------------------------------


def _pingpong_builder(shard_id, hops=12, quantum=5):
    def build(ctx):
        log = []

        def on_ball(n):
            log.append((ctx.sim.now, n))
            if n < hops:
                ctx.send(1 - ctx.shard_id, "ball", n + 1)

        ctx.subscribe("ball", on_ball)
        if shard_id == 0:
            ctx.sim.schedule(2, lambda _: ctx.send(1, "ball", 0))
        return lambda: log

    return build


def test_partitioned_serial_and_forked_agree():
    builders = [_pingpong_builder(0), _pingpong_builder(1)]
    serial = run_partitioned(builders, quantum=5, workers=1)
    forked = run_partitioned(builders, quantum=5)
    assert serial == forked
    # Every hop advanced exactly one quantum.
    cycles = sorted(c for log in serial for c, _n in log)
    assert cycles == [7 + 5 * n for n in range(13)]


def test_barrier_straddle_preserves_cycle_seq_order():
    """Two shards both send a burst whose arrivals straddle a quantum
    barrier; the receiver must see them in (cycle, source shard, seq)
    order no matter which egress buffer arrived first."""

    def sender(shard_id):
        def build(ctx):
            def burst(_):
                # Latencies chosen so arrivals land on both sides of the
                # receiver's next barrier (windows are one quantum = 4).
                for index, latency in enumerate((4, 5, 7, 9)):
                    ctx.send(2, "burst", (ctx.shard_id, index),
                             latency=latency)
            ctx.sim.schedule(1 + shard_id, burst)
            return lambda: None
        return build

    def receiver(ctx):
        log = []
        ctx.subscribe("burst", lambda payload: log.append(
            (ctx.sim.now, payload)
        ))
        return lambda: log

    for workers in (1, None):
        result = run_partitioned(
            [sender(0), sender(1), receiver], quantum=4, workers=workers
        )
        log = result[2]
        # Arrival cycles are monotone, and ties break by (shard, seq).
        assert log == sorted(log)
        arrived = [payload for _cycle, payload in log]
        expected = sorted(
            ((shard, index) for shard in (0, 1) for index in range(4)),
            key=lambda p: (1 + p[0] + (4, 5, 7, 9)[p[1]], p[0], p[1]),
        )
        assert arrived == expected


def test_partitioned_rejects_latency_below_quantum():
    def build(ctx):
        ctx.subscribe("x", lambda _p: None)
        with pytest.raises(ValueError, match="undercuts the quantum"):
            ctx.send(1, "x", None, latency=2)
        return lambda: "ok"

    assert run_partitioned([build, lambda ctx: (lambda: None)],
                           quantum=5, workers=1)[0] == "ok"


def test_partitioned_window_skips_idle_gaps():
    """A long quiet stretch is jumped in one window, not crawled
    through quantum by quantum."""
    def build(ctx):
        log = []
        ctx.sim.schedule(10_000, lambda _: log.append(ctx.sim.now))
        return lambda: log

    (log,) = run_partitioned([build], quantum=3, workers=1)
    assert log == [10_000]


def test_shard_context_unknown_channel_is_an_error():
    def sender(ctx):
        ctx.sim.schedule(1, lambda _: ctx.send(1, "nobody-home", 1))
        return lambda: None

    def receiver(ctx):
        return lambda: None

    with pytest.raises(RuntimeError, match="no subscriber"):
        run_partitioned([sender, receiver], quantum=3, workers=1)


def test_shard_context_validates_destination():
    ctx = ShardContext(0, 2, quantum=3)
    with pytest.raises(ValueError, match="no shard"):
        ctx.send(5, "x", None)
    with pytest.raises(ValueError, match="own shard"):
        ctx.send(0, "x", None)
