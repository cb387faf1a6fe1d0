"""Sharded simulation: partition the mesh, one event queue per shard.

Two layers, one seam (parti-gem5's shape, PAPERS.md):

- :class:`ShardPlan` — the partition itself: every NoC node is
  assigned to a shard, shards follow the kernel-domain boundaries, and
  the plan derives the **conservative quantum** — the minimum latency
  of any NoC link crossing a shard boundary, i.e. the soonest a send
  on one shard can possibly be observed by another.  No cross-shard
  event may take effect sooner, so shards separated by a quantum
  barrier can never miss each other's influence.

- :class:`ShardedSimulator` — a drop-in :class:`~repro.sim.Simulator`
  facade over one event queue per shard (``M3System(shards=n)``).
  Every entry is tagged with a *shared* ``(cycle, seq)`` key, and the
  facade always executes the globally-smallest key, so the execution
  order — and therefore every result byte — is identical to the
  monolithic engine at any shard count.  Cross-shard NoC deliveries go
  through the explicit injection seam (:meth:`ShardedSimulator.deliver`
  + :meth:`Simulator.schedule_at`) instead of the sender's own queue;
  this is the exact-order limit of barrier synchronisation (a barrier
  after every event) and the accounting point for boundary traffic.

- :func:`run_partitioned` — the relaxed, *parallel* mode for
  self-contained shard workloads: each shard is its own ``Simulator``
  (optionally in its own **worker process**), windows of at most one
  quantum run with no synchronisation, and cross-shard messages travel
  as serialisable ``(cycle, seq, channel, payload)`` records exchanged
  at the window barriers and drained in ``(cycle, source shard, seq)``
  order.  Results are byte-identical for any worker count; wall-clock
  scales with host cores (each worker holds its own GIL).

The full-system evals use the exact mode (determinism contract first);
``run_partitioned`` is the engine-level path that turns spare host
cores into simulated cycles — see docs/performance.md.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import typing

from repro.sim.engine import Simulator, _as_cycles
from repro.sim.ledger import TimeLedger

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.packet import Packet
    from repro.noc.topology import MeshTopology


class ShardPlan:
    """Node -> shard assignment plus the conservative quantum.

    ``node_to_shard`` covers every NoC node (PEs, DRAM, device nodes);
    shard ids are dense ``0..shard_count-1``.  ``quantum`` is the
    minimum latency of a boundary-crossing link: the legal lookahead
    for barrier-synchronised execution.
    """

    __slots__ = ("node_to_shard", "shard_count", "quantum")

    def __init__(self, node_to_shard, quantum: int):
        self.node_to_shard = list(node_to_shard)
        if not self.node_to_shard:
            raise ValueError("empty shard plan")
        present = set(self.node_to_shard)
        self.shard_count = max(present) + 1
        missing = set(range(self.shard_count)) - present
        if min(present) < 0 or missing:
            raise ValueError(
                f"shard ids must be dense 0..n-1, got {sorted(present)}"
            )
        if quantum < 1:
            raise ValueError(f"quantum must be at least one cycle: {quantum}")
        self.quantum = quantum

    @classmethod
    def from_domains(cls, domains, shards: int, topology: "MeshTopology",
                     hop_cycles: int) -> "ShardPlan":
        """Partition along kernel-domain boundaries.

        ``domains`` is the ordered list of kernel-domain node sets;
        they are grouped into ``shards`` contiguous groups (the same
        chunking rule the kernel partition itself uses).  Mesh nodes
        belonging to no domain — the DRAM node, device nodes wired up
        after boot, unused slots — are assigned to the shard of the
        nearest domain node (Manhattan distance, lowest node id on
        ties), so the whole mesh is covered deterministically.
        """
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if shards > len(domains):
            raise ValueError(
                f"{len(domains)} kernel domains cannot split into "
                f"{shards} shards (shards follow domain boundaries)"
            )
        node_to_shard = [-1] * topology.node_count
        share, extra = divmod(len(domains), shards)
        start = 0
        for shard in range(shards):
            size = share + (1 if shard < extra else 0)
            for domain in list(domains)[start:start + size]:
                for node in domain:
                    if node_to_shard[node] != -1:
                        raise ValueError(f"node {node} in two domains")
                    node_to_shard[node] = shard
            start += size
        assigned = [n for n, s in enumerate(node_to_shard) if s != -1]
        for node, shard in enumerate(node_to_shard):
            if shard == -1:
                nearest = min(
                    assigned,
                    key=lambda a: (topology.distance(node, a), a),
                )
                node_to_shard[node] = node_to_shard[nearest]
        # The conservative quantum: the cheapest boundary crossing.
        # Links are uniform-latency here, so this is ``hop_cycles``,
        # but the derivation stays per-link for future heterogeneity.
        boundary = [
            hop_cycles
            for a, b in topology.links()
            if node_to_shard[a] != node_to_shard[b]
        ]
        quantum = min(boundary) if boundary else max(1, hop_cycles)
        return cls(node_to_shard, quantum)

    def shard_of(self, node: int) -> int:
        return self.node_to_shard[node]

    def boundary_links(self, topology: "MeshTopology") -> list:
        """Directed topology links crossing a shard boundary."""
        return [
            (a, b)
            for a, b in topology.links()
            if self.node_to_shard[a] != self.node_to_shard[b]
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardPlan {self.shard_count} shards over "
                f"{len(self.node_to_shard)} nodes, quantum={self.quantum}>")


class _TaggedBucket:
    """Deque stand-in for a shard member's ``_bucket``.

    ``Event._dispatch`` appends ``[callback, event]`` pairs straight to
    ``sim._bucket`` (the monolithic hot path); under sharding every
    entry needs a global ``(cycle, seq)`` tag, so appends are rewritten
    into tagged heap entries.  Always empty from the queue's point of
    view — ``pending_events`` counts the heap instead.
    """

    __slots__ = ("_member",)

    def __init__(self, member: "_ShardMember"):
        self._member = member

    def append(self, entry) -> None:
        member = self._member
        heapq.heappush(
            member._heap,
            [member.now, next(member._sequence), entry[0], entry[1]],
        )

    def __len__(self) -> int:
        return 0

    def __bool__(self) -> bool:
        return False


class _ShardMember(Simulator):
    """One shard's event queue: heap-only, globally-sequenced entries.

    Members never run themselves — the :class:`ShardedSimulator` pops
    the globally-smallest ``(cycle, seq)`` entry across all members and
    keeps every member's clock in step, so components can hold a member
    (their node's shard) or the facade interchangeably.
    """

    __slots__ = ("member_id",)

    def __init__(self, member_id: int, sequence):
        super().__init__()
        self.member_id = member_id
        self._sequence = sequence  # shared across all members
        self._bucket = _TaggedBucket(self)

    def schedule(self, delay: int, callback, argument: object = None) -> list:
        if type(delay) is not int:
            delay = _as_cycles(delay, "delay")
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        entry = [self.now + delay, next(self._sequence), callback, argument]
        heapq.heappush(self._heap, entry)
        return entry

    def call_soon(self, callback, argument: object = None) -> list:
        entry = [self.now, next(self._sequence), callback, argument]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_at(self, when: int, callback, argument: object = None) -> list:
        if type(when) is not int:
            when = _as_cycles(when, "when")
        if when < self.now:
            raise ValueError(
                f"cannot schedule into the past (when={when}, now={self.now})"
            )
        entry = [when, next(self._sequence), callback, argument]
        heapq.heappush(self._heap, entry)
        return entry

    def delay(self, cycles: int, tag: str | None = None):
        if type(cycles) is not int:
            cycles = _as_cycles(cycles, "delay")
        if cycles < 0:
            raise ValueError(f"negative delay: {cycles}")
        if tag is not None:
            self.ledger.charge(tag, cycles)
        from repro.sim.events import Event

        done = Event(self, "delay")
        heapq.heappush(
            self._heap,
            [self.now + cycles, next(self._sequence), done.succeed, None],
        )
        return done

    def step(self):  # pragma: no cover - guard rail
        raise RuntimeError("shard members are driven by the ShardedSimulator")

    def run(self, until=None, until_event=None):  # pragma: no cover
        raise RuntimeError("shard members are driven by the ShardedSimulator")


class ShardedSimulator:
    """A :class:`Simulator`-compatible facade over per-shard queues.

    Exact mode: the merge loop always executes the globally-smallest
    ``(cycle, seq)`` entry, which reproduces the monolithic engine's
    execution order — and therefore its results, byte for byte — at any
    shard count.  Driver-level calls (``schedule``, ``event``,
    ``process``…) land on the control member (shard 0); hardware
    components are built against their own node's member via
    :meth:`member_for`.  Cross-shard NoC deliveries arrive through
    :meth:`deliver`, the explicit injection seam, and are counted.
    """

    def __init__(self, plan: ShardPlan):
        self.plan = plan
        sequence = itertools.count()
        self.members = [
            _ShardMember(member_id, sequence)
            for member_id in range(plan.shard_count)
        ]
        self.ledger = TimeLedger()
        for member in self.members:
            member.ledger = self.ledger
        self._control = self.members[0]
        self._bucket = _TaggedBucket(self._control)
        #: boundary-traffic accounting (the egress seam's view).
        self.cross_packets = 0
        self.cross_bytes = 0

    # -- clock and observability -------------------------------------------

    @property
    def now(self) -> int:
        return self._control.now

    @property
    def obs(self):
        return self._control.obs

    @obs.setter
    def obs(self, value) -> None:
        for member in self.members:
            member.obs = value

    def member_for(self, node: int) -> _ShardMember:
        """The member simulator owning ``node``'s shard."""
        return self.members[self.plan.node_to_shard[node]]

    # -- scheduling (driver-level calls land on the control member) --------

    def schedule(self, delay: int, callback, argument: object = None) -> list:
        return self._control.schedule(delay, callback, argument)

    def call_soon(self, callback, argument: object = None) -> list:
        return self._control.call_soon(callback, argument)

    def schedule_at(self, when: int, callback, argument: object = None) -> list:
        return self._control.schedule_at(when, callback, argument)

    def delay(self, cycles: int, tag: str | None = None):
        return self._control.delay(cycles, tag)

    def event(self, name: str = ""):
        return self._control.event(name)

    def process(self, generator, name: str = "process"):
        return self._control.process(generator, name)

    def cancel(self, handle: list) -> None:
        # Blanking is member-agnostic; the count lands on the control
        # member, and whichever member pops the blanked entry decrements
        # its own counter — the facade-level sum stays exact.
        if handle[-2] is not None:
            handle[-2] = None
            self._control._cancelled += 1

    # -- the cross-shard injection seam ------------------------------------

    def deliver(self, packet: "Packet", handler, completion: int) -> None:
        """Schedule a NoC delivery into the destination node's shard.

        ``Network.send`` routes every delivery through here instead of
        its own queue; a boundary-crossing packet is injected into the
        *peer* shard's queue at its completion cycle and counted.
        """
        node_to_shard = self.plan.node_to_shard
        if node_to_shard[packet.source] != node_to_shard[packet.destination]:
            self.cross_packets += 1
            self.cross_bytes += packet.size_bytes
        self.members[node_to_shard[packet.destination]].schedule_at(
            completion, handler, packet
        )

    # -- execution ----------------------------------------------------------

    def _advance_clocks(self, when: int) -> None:
        for member in self.members:
            member.now = when

    def _pick(self):
        """The member holding the globally-smallest live entry."""
        best = None
        best_key = None
        for member in self.members:
            heap = member._heap
            while heap and heap[0][2] is None:
                heapq.heappop(heap)
                member._cancelled -= 1
            if heap:
                head = heap[0]
                if best_key is None or (head[0], head[1]) < best_key:
                    best = member
                    best_key = (head[0], head[1])
        return best

    def step(self) -> bool:
        member = self._pick()
        if member is None:
            return False
        entry = heapq.heappop(member._heap)
        if entry[0] != self._control.now:
            self._advance_clocks(entry[0])
        callback = entry[2]
        entry[2] = None
        callback(entry[3])
        return True

    def run(self, until: int | None = None, until_event=None) -> None:
        """Merge-execute members in global ``(cycle, seq)`` order.

        Same contract as :meth:`Simulator.run`: ``until`` is inclusive
        and leaves the clock there; ``until_event`` stops right after
        the event triggers.
        """
        if until is not None:
            if type(until) is not int:
                until = _as_cycles(until, "until")
            if until < self.now:
                raise ValueError(
                    f"cannot run back into the past (until={until}, "
                    f"now={self.now})"
                )
        if until_event is not None and until_event.triggered:
            return
        control = self._control
        while True:
            member = self._pick()
            if member is None:
                break
            when = member._heap[0][0]
            if until is not None and when > until:
                self._advance_clocks(until)
                return
            entry = heapq.heappop(member._heap)
            if when != control.now:
                self._advance_clocks(when)
            callback = entry[2]
            entry[2] = None
            callback(entry[3])
            if until_event is not None and until_event.triggered:
                return
        if until is not None and control.now < until:
            self._advance_clocks(until)

    def run_process(self, generator, name: str = "main",
                    limit: int | None = None):
        proc = self.process(generator, name)
        self.run(until=limit, until_event=proc.done)
        if not proc.done.triggered:
            raise RuntimeError(
                f"process {name!r} did not finish "
                f"(t={self.now}, queue="
                f"{'empty' if not self.pending_events else 'pending'})"
            )
        if not proc.done.ok:
            raise proc.done.value
        return proc.done.value

    @property
    def pending_events(self) -> int:
        return sum(member.pending_events for member in self.members)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardedSimulator {self.plan.shard_count} shards "
                f"t={self.now} cross={self.cross_packets}>")


# -- quantum-barrier partitioned execution ------------------------------------


class ShardContext:
    """One shard of a partitioned run: a private simulator plus ports.

    Handed to each shard's build function by :func:`run_partitioned`.
    Cross-shard communication *must* go through :meth:`send` /
    :meth:`subscribe`: sends become serialisable ``(cycle, seq,
    channel, payload)`` records in the egress buffer, exchanged at the
    next quantum barrier and drained into the destination shard's queue
    in ``(cycle, source shard, seq)`` order.  Payloads must be
    picklable — with process workers they cross a pipe.
    """

    __slots__ = ("shard_id", "shard_count", "quantum", "sim",
                 "_handlers", "_egress", "_sequence")

    def __init__(self, shard_id: int, shard_count: int, quantum: int):
        self.shard_id = shard_id
        self.shard_count = shard_count
        self.quantum = quantum
        self.sim = Simulator()
        self._handlers: dict[str, typing.Callable] = {}
        self._egress: list[tuple] = []
        self._sequence = itertools.count()

    def subscribe(self, channel: str, handler) -> None:
        """Register ``handler(payload)`` for injections on ``channel``."""
        if channel in self._handlers:
            raise ValueError(f"channel {channel!r} already subscribed")
        self._handlers[channel] = handler

    def send(self, dest_shard: int, channel: str, payload,
             latency: int | None = None) -> int:
        """Egress ``payload`` to ``dest_shard``; returns the arrival cycle.

        ``latency`` defaults to the quantum and may not undercut it —
        that is the conservative contract that makes barrier exchange
        safe: nothing sent inside a window can be due before the
        window after it.
        """
        if latency is None:
            latency = self.quantum
        if latency < self.quantum:
            raise ValueError(
                f"cross-shard latency {latency} undercuts the quantum "
                f"{self.quantum}; barrier exchange would miss it"
            )
        if not 0 <= dest_shard < self.shard_count:
            raise ValueError(f"no shard {dest_shard}")
        if dest_shard == self.shard_id:
            raise ValueError("cross-shard send to own shard")
        cycle = self.sim.now + latency
        self._egress.append(
            (cycle, self.shard_id, next(self._sequence), dest_shard,
             channel, payload)
        )
        return cycle

    def _take_egress(self) -> list:
        records, self._egress = self._egress, []
        return records

    def _inject(self, records) -> None:
        """Drain barrier-exchanged records (already sorted) into the queue."""
        for cycle, _src, _seq, _dest, channel, payload in records:
            try:
                handler = self._handlers[channel]
            except KeyError:
                raise RuntimeError(
                    f"shard {self.shard_id} has no subscriber for "
                    f"channel {channel!r}"
                ) from None
            self.sim.schedule_at(cycle, handler, payload)


def _next_cycle(sim: Simulator) -> int | None:
    """The cycle of the next live event, or None when idle."""
    if sim._bucket:
        return sim.now
    heap = sim._heap
    while heap and heap[0][2] is None:
        heapq.heappop(heap)
        sim._cancelled -= 1
    return heap[0][0] if heap else None


def _sort_inbound(records) -> list:
    """Barrier-drain order: (cycle, source shard, seq) — deterministic
    regardless of which worker's buffer arrived first."""
    return sorted(records, key=lambda record: record[:3])


def _plan_window(next_cycles, pending, quantum) -> int | None:
    """The next window's *end* barrier, or None when everything is done.

    The window starts at the earliest upcoming work (queued event or
    in-flight record) and spans exactly one quantum: running any
    further would let a shard outrun influence the barrier has not
    delivered yet.
    """
    floors = [cycle for cycle in next_cycles if cycle is not None]
    floors.extend(record[0] for records in pending.values()
                  for record in records)
    if not floors:
        return None
    return min(floors) + quantum


def run_partitioned(builders, quantum: int, workers: int | None = None):
    """Run one simulator per shard under conservative quantum barriers.

    ``builders[i]`` is called with shard ``i``'s :class:`ShardContext`
    and returns a zero-argument *harvest* callable producing the
    shard's result (picklable under process workers).  Returns the list
    of harvests in shard order.

    ``workers`` — processes to fork: ``1`` runs every shard in this
    process (same barrier schedule, byte-identical results), ``None``
    forks one worker per shard.  Windows cover ``[start, start+quantum)``
    where ``start`` skips idle gaps; egress buffers are exchanged at
    each barrier and drained in ``(cycle, source shard, seq)`` order,
    so the outcome is a pure function of the builders and the quantum.
    """
    builders = list(builders)
    if quantum < 1:
        raise ValueError(f"quantum must be at least one cycle: {quantum}")
    if workers is None:
        workers = len(builders)
    if workers <= 1 or len(builders) <= 1:
        return _run_serial(builders, quantum)
    return _run_forked(builders, quantum)


def _run_serial(builders, quantum: int) -> list:
    contexts = [
        ShardContext(shard_id, len(builders), quantum)
        for shard_id in range(len(builders))
    ]
    harvests = [build(ctx) for build, ctx in zip(builders, contexts)]
    pending: dict[int, list] = {}
    while True:
        end = _plan_window(
            [_next_cycle(ctx.sim) for ctx in contexts], pending, quantum
        )
        if end is None:
            break
        for ctx in contexts:
            inbound = pending.pop(ctx.shard_id, None)
            if inbound:
                ctx._inject(_sort_inbound(inbound))
            ctx.sim.run(until=end - 1)
        for ctx in contexts:
            for record in ctx._take_egress():
                pending.setdefault(record[3], []).append(record)
    return [harvest() for harvest in harvests]


def _worker_main(build, shard_id: int, shard_count: int, quantum: int,
                 connection) -> None:  # pragma: no cover - child process
    context = ShardContext(shard_id, shard_count, quantum)
    try:
        harvest = build(context)
        connection.send(("ready", _next_cycle(context.sim)))
        while True:
            message = connection.recv()
            if message[0] == "stop":
                connection.send(("result", harvest()))
                return
            _kind, end, inbound = message
            if inbound:
                context._inject(inbound)
            context.sim.run(until=end - 1)
            connection.send(
                ("done", context._take_egress(), _next_cycle(context.sim))
            )
    except Exception as exc:  # surface the failure to the parent
        connection.send(("error", f"shard {shard_id}: {exc!r}"))
        raise


def _run_forked(builders, quantum: int) -> list:
    """The same barrier schedule as :func:`_run_serial`, with each shard
    in its own forked worker process (its own GIL)."""
    context = multiprocessing.get_context("fork")
    pipes, processes = [], []
    for shard_id, build in enumerate(builders):
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=_worker_main,
            args=(build, shard_id, len(builders), quantum, child_end),
            daemon=True,
        )
        process.start()
        child_end.close()
        pipes.append(parent_end)
        processes.append(process)
    try:
        next_cycles: list = []
        for pipe in pipes:
            kind, value = pipe.recv()
            if kind == "error":
                raise RuntimeError(value)
            next_cycles.append(value)
        pending: dict[int, list] = {}
        while True:
            end = _plan_window(next_cycles, pending, quantum)
            if end is None:
                break
            for shard_id, pipe in enumerate(pipes):
                inbound = pending.pop(shard_id, None)
                pipe.send(
                    ("window", end,
                     _sort_inbound(inbound) if inbound else [])
                )
            for shard_id, pipe in enumerate(pipes):
                reply = pipe.recv()
                if reply[0] == "error":
                    raise RuntimeError(reply[1])
                _kind, egress, next_cycles[shard_id] = reply
                for record in egress:
                    pending.setdefault(record[3], []).append(record)
        results = []
        for pipe in pipes:
            pipe.send(("stop",))
            kind, value = pipe.recv()
            if kind == "error":
                raise RuntimeError(value)
            results.append(value)
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for process in processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - cleanup path
                process.terminate()
