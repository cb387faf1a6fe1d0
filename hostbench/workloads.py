"""The benchmark's three workloads: inputs, set-up, run and checks.

Each workload builds a fresh system per iteration.  ``inputs`` runs
once per process, before any timer; ``prepare`` makes the per-iteration
input objects, also untimed; ``setup`` is timed as ``setup_s``; ``run``
is timed as ``run_s``; ``outcome`` checks the outputs and digests the
simulated statistics after the timers have stopped.

The workload choice and the layer each one loads are recorded in
README.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.eval import autoscale as elastic_eval
from repro.eval import traffic as traffic_eval
from repro.m3.autoscale import AutoScaler
from repro.m3.services.kvserv import start_kv_tier
from repro.m3.services.m3fs.superblock import SuperBlock
from repro.m3.services.netserv import start_network
from repro.m3.system import M3System
from repro.workloads import traffic

import fs_trace

DEFAULT_SEED = 20160402


@dataclasses.dataclass
class Outcome:
    """What one iteration did, checked and digested."""

    attempted: int
    failed: int
    #: simulated cycles from the first measured operation to the drain.
    cycles: int
    #: everything simulated that must not change when only host cost does.
    stats: dict
    #: reasons the outputs are wrong beyond per-operation failures.
    errors: list

    @property
    def digest(self) -> str:
        text = json.dumps(self.stats, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclasses.dataclass
class State:
    """One iteration's system and the handles the checks and the layer
    trace read."""

    system: M3System
    #: service objects with ``env`` and ``requests_served`` (kv, m3fs).
    servers: list
    netservs: list
    #: simulated cycle at the first measured operation.
    start_cycle: int = 0
    extra: dict = dataclasses.field(default_factory=dict)

    @property
    def dtus(self) -> list:
        """Every DTU: one per PE plus one per NIC."""
        return ([pe.dtu for pe in self.system.platform.pes]
                + [server.nic.dtu for server in self.netservs])


def _identity(app):
    return app


def _warm_routes(system: M3System) -> None:
    """Fill the XY route cache for every node pair before timing."""
    router = system.platform.network.router
    nodes = range(router.topology.node_count)
    for source in nodes:
        for destination in nodes:
            router.links_on_path(source, destination)


def _quantiles(values: list) -> dict:
    ordered = sorted(values)
    if not ordered:
        return {}
    last = len(ordered) - 1
    return {label: ordered[min(last, int(fraction * len(ordered)))]
            for label, fraction in (("p50", 0.5), ("p99", 0.99),
                                    ("p999", 0.999), ("max", 1.0))}


def _common_counts(state: State, servers: list) -> dict:
    system = state.system
    network = system.platform.network
    dtus = state.dtus
    return {
        "cycles_total": system.sim.now,
        "packets": network.packets_injected,
        "bytes": network.bytes_injected,
        "messages": sum(dtu.messages_sent for dtu in dtus),
        "acks": sum(dtu.acks_sent for dtu in dtus),
        "retransmits": sum(dtu.retransmits for dtu in dtus),
        "dropped": sum(dtu.messages_dropped for dtu in dtus),
        "syscalls": [kernel.syscall_count for kernel in system.kernels],
        "ik_requests": [kernel.ik_requests_sent for kernel in system.kernels],
        "ik_retries": [kernel.ik_retries for kernel in system.kernels],
        "heartbeats": [kernel.heartbeats_sent for kernel in system.kernels],
        "requests_served": {server.service_name: server.requests_served
                            for server in servers},
        "frames": [server.frames_routed for server in state.netservs],
        "frames_dropped": [server.frames_dropped
                           for server in state.netservs],
    }


# -- serve and elastic: the traffic tier --------------------------------------


@dataclasses.dataclass(frozen=True)
class TrafficShape:
    """Everything but the arrivals: platform, tier and controller."""

    pe_count: int
    kernel_count: int
    gateways: int
    policy: str = "rr"
    kv_domains: tuple | None = None
    kv_op_cycles: int | None = None
    heartbeats: bool = False
    autoscale: dict | None = None
    ep_count: int | None = None


class TrafficWorkload:
    """An open-loop request stream into the netserv/gateway/kv stack.

    Set-up boots the kernels, both NICs' netserv instances, the kv
    tier (and heartbeats and the autoscaler when the shape asks), then
    runs the gateways until each has pre-warmed its kv shard.  The run
    spawns the collector and the load generator and drains the system.
    This is ``repro.workloads.traffic.run_profile`` split at the point
    where the first request can be sent.
    """

    def __init__(self, name: str, shape: TrafficShape, **profile):
        self.name = name
        self.shape = shape
        self.profile = profile

    def inputs(self, seed: int) -> traffic.TrafficProfile:
        return traffic.TrafficProfile(name=self.name, seed=seed,
                                      **self.profile)

    def prepare(self, profile: traffic.TrafficProfile) -> traffic.TrafficRun:
        # TrafficRun builds the arrival schedule: input generation.
        return traffic.TrafficRun(profile, gateways=self.shape.gateways)

    def setup(self, run: traffic.TrafficRun, wrap_app=_identity) -> State:
        shape = self.shape
        kwargs = {} if shape.ep_count is None else {"ep_count": shape.ep_count}
        system = M3System(pe_count=shape.pe_count,
                          kernel_count=shape.kernel_count, reliable=True,
                          **kwargs)
        system.boot(with_fs=False)
        netservs = start_network(system)
        kv_servers = start_kv_tier(
            system, domains=None if shape.kv_domains is None
            else list(shape.kv_domains),
            policy=shape.policy, op_cycles=shape.kv_op_cycles,
        )
        scaler = None
        if shape.heartbeats:
            system.start_heartbeats()
        if shape.autoscale is not None:
            scaler = AutoScaler(system, kv_servers, **shape.autoscale)
            scaler.start()
        gateways = []
        for index in range(shape.gateways):
            ready = system.sim.event(f"gw{index}.ready")
            gateways.append(system.spawn(
                wrap_app(traffic.gateway_app), run, index, ready,
                name=f"gw{index}",
                domain=1 + index % (shape.kernel_count - 1),
            ))
            system.sim.run(until_event=ready)
            if not ready.triggered:
                raise RuntimeError(f"gateway {index} failed to start")
        _warm_routes(system)
        return State(system, list(kv_servers), netservs,
                     extra={"run": run, "gateways": gateways,
                            "scaler": scaler, "wrap_app": wrap_app})

    def run(self, state: State) -> None:
        system, run = state.system, state.extra["run"]
        wrap_app = state.extra["wrap_app"]
        state.start_cycle = system.sim.now
        collector = system.spawn(wrap_app(traffic.collector_app), run,
                                 name="collector")
        loadgen = system.spawn(wrap_app(traffic.loadgen_app), run,
                               name="loadgen")
        state.extra["sent"] = system.wait(loadgen)
        system.wait(collector)
        for vpe in state.extra["gateways"]:
            system.wait(vpe)
        scaler = state.extra["scaler"]
        if scaler is not None:
            scaler.stop()
        if self.shape.heartbeats:
            system.stop_heartbeats()
        system.sim.run()  # drain retry timers and late frames

    def all_servers(self, state: State) -> list:
        """The kv replicas, including any the autoscaler added."""
        scaler = state.extra["scaler"]
        servers = list(state.servers)
        if scaler is not None:
            for name in sorted(set(scaler.servers) | set(scaler.retired)):
                server = scaler.servers.get(name) or scaler.retired[name]
                if server not in servers:
                    servers.append(server)
        return servers

    def outcome(self, state: State) -> Outcome:
        run = state.extra["run"]
        # A get may be served by any replica, so its length is the
        # pre-warm length or the length of some put to that key.
        stored: dict[int, set] = {
            key: {traffic._warm_len(key)} for key in range(run.profile.keys)
        }
        for arrival in run.schedule:
            if arrival.op == traffic.OP_PUT:
                stored[arrival.key_id].add(arrival.value_len)
        failed = 0
        latencies = []
        for arrival in run.schedule:
            done = run.completions.get(arrival.req_id)
            if done is None:
                failed += 1
                continue
            done_at, status, result_len = done
            latencies.append(done_at - run.sent[arrival.req_id])
            if status != traffic.ST_OK:
                failed += 1
            elif arrival.op == traffic.OP_PUT:
                failed += result_len != arrival.value_len
            else:
                failed += result_len not in stored[arrival.key_id]
        errors = []
        if state.extra["sent"] != len(run.schedule):
            errors.append(f"loadgen sent {state.extra['sent']} of "
                          f"{len(run.schedule)}")
        if run.kv_errors:
            errors.append(f"{run.kv_errors} kv errors")
        scaler = state.extra["scaler"]
        stats = {
            **_common_counts(state, self.all_servers(state)),
            "latency": _quantiles(latencies),
            "served_by": list(run.served_by),
            "tx_retries": self.tx_retries(state),
            "scale_events": len(scaler.events) if scaler is not None else 0,
        }
        return Outcome(attempted=len(run.schedule), failed=failed,
                       cycles=state.system.sim.now - state.start_cycle,
                       stats=stats, errors=errors)

    @staticmethod
    def tx_retries(state: State) -> int:
        run = state.extra["run"]
        return run.tx_retries + run.gw_tx_retries


# -- fs: the kernel, m3fs and bulk-transfer path ------------------------------


def _fs_app(env, ops, results, go):
    yield from env.vfs.stat("/")  # open the m3fs session before the barrier
    yield go
    start = env.sim.now
    yield from fs_trace.replay(env, ops, results)
    return env.sim.now - start


class FsWorkload:
    """App VPEs replaying syscall traces against one kernel and m3fs.

    Set-up boots the kernel and m3fs, preloads every trace's input
    files, and runs each VPE until it has opened its m3fs session and
    parked on a barrier.  The run releases the barrier and drains.
    """

    name = "fs"
    #: the volume holds every VPE's inputs and outputs at once.
    VOLUME_BLOCKS = 64 * 1024
    DRAM_BYTES = 128 * 1024 * 1024

    def inputs(self, seed: int):
        return fs_trace.make_traces(seed)

    def prepare(self, inputs):
        return inputs

    def setup(self, inputs, wrap_app=_identity) -> State:
        traces, _namespace = inputs
        system = M3System(pe_count=fs_trace.VPES + 2,
                          dram_bytes=self.DRAM_BYTES)
        system.boot(fs_kwargs={
            "superblock": SuperBlock(total_blocks=self.VOLUME_BLOCKS),
        })
        for trace in traces:
            system.fs_preload(trace.setup)
        go = system.sim.event("go")
        results = [[] for _ in traces]
        vpes = [
            system.spawn(wrap_app(_fs_app), trace.ops, results[index], go,
                         name=f"fs{index}")
            for index, trace in enumerate(traces)
        ]
        system.sim.run()  # every VPE parks on the barrier
        _warm_routes(system)
        return State(system, [system.fs_server], [],
                     extra={"go": go, "vpes": vpes, "results": results,
                            "inputs": inputs})

    def run(self, state: State) -> None:
        system = state.system
        state.start_cycle = system.sim.now
        state.extra["go"].succeed()
        state.extra["cycles"] = [system.wait(vpe)
                                 for vpe in state.extra["vpes"]]
        system.sim.run()

    def all_servers(self, state: State) -> list:
        return state.servers

    def outcome(self, state: State) -> Outcome:
        traces, namespace = state.extra["inputs"]
        failed = sum(
            fs_trace.check_results(trace.ops, results)
            for trace, results in zip(traces, state.extra["results"])
        )
        errors = []
        fs = state.system.fs_server.fs
        for path, content in namespace.files.items():
            if state.system.fs_read_back(path) != content:
                errors.append(f"{path} does not read back byte-exact")
        for path, names in namespace.dirs.items():
            if fs.readdir(path) != sorted(names):
                errors.append(f"readdir {path} disagrees with the reference")
        stats = {
            **_common_counts(state, state.servers),
            "vpe_cycles": state.extra["cycles"],
            "files": len(namespace.files),
        }
        return Outcome(attempted=sum(len(trace.ops) for trace in traces),
                       failed=failed,
                       cycles=state.system.sim.now - state.start_cycle,
                       stats=stats, errors=errors)

    @staticmethod
    def tx_retries(state: State) -> int:
        return 0


#: ``serve``: the traffic tier's reference point (12 PEs, 2 kernel
#: domains, rr routing, Poisson gaps of 3,000 cycles), run 2.5x longer.
#: Requests stay below the ~2,048-per-NIC interrupt credit wedge (see
#: README.md).
SERVE_REQUESTS = 1_500

WORKLOADS = {
    "serve": TrafficWorkload(
        "serve",
        TrafficShape(pe_count=traffic.PE_COUNT,
                     kernel_count=traffic.KERNEL_COUNT,
                     gateways=traffic.GATEWAYS),
        clients=traffic_eval.CLIENTS, requests=SERVE_REQUESTS,
        mean_gap=traffic_eval.REFERENCE_GAP,
    ),
    "fs": FsWorkload(),
    # ``elastic``: the autoscale eval's elastic point, unchanged.
    "elastic": TrafficWorkload(
        "elastic",
        TrafficShape(pe_count=elastic_eval.PE_COUNT,
                     kernel_count=elastic_eval.KERNEL_COUNT,
                     gateways=elastic_eval.GATEWAYS, policy="depth",
                     kv_domains=elastic_eval.KV_DOMAINS,
                     kv_op_cycles=elastic_eval.KV_OP_CYCLES,
                     heartbeats=True, ep_count=elastic_eval.EP_COUNT,
                     autoscale=dict(elastic_eval.AUTOSCALE)),
        clients=elastic_eval.CLIENTS, requests=elastic_eval.REQUESTS,
        arrival="bursty", mean_gap=elastic_eval.BURST_GAP,
        burst=elastic_eval.BURST,
        session_refresh=elastic_eval.SESSION_REFRESH,
    ),
}
