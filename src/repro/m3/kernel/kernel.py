"""The M3 kernel: boot, NoC-level isolation, and syscall dispatch.

The kernel runs on a dedicated PE and never shares it with
applications.  Its power comes solely from its privileged DTU: it
downgrades all application DTUs at boot and afterwards remotely
configures their endpoints (Section 3).
"""

from __future__ import annotations

import collections
import itertools
import typing

from repro import params
from repro.dtu.dtu import DtuError, MissingCredits
from repro.dtu.message import HEADER_BYTES
from repro.dtu.registers import EndpointKind, EndpointRegisters, MemoryPerm
from repro.m3.kernel import syscalls
from repro.m3.kernel.capability import Capability, CapKind, revoke
from repro.m3.kernel.memmgr import MemoryManager
from repro.m3.kernel.objects import (
    MemObject,
    RecvGateObject,
    RemoteClientRef,
    RemoteGateStub,
    RemoteServiceRef,
    RemoteVpeObject,
    SendGateObject,
    ServiceObject,
    SessionObject,
)
from repro.m3.kernel.vpe import VpeObject, VpeState
from repro.obs.causal import header_context
from repro.sim.ledger import Tag

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.platform import Platform


class SyscallError(Exception):
    """A syscall was denied or failed; carried back in the reply."""


class _NoReply:
    """Sentinel: the handler acknowledged the slot itself or deferred."""


NO_REPLY = _NoReply()

#: kernel endpoint assignment.
KERNEL_SYSCALL_EP = 0  # receive endpoint for all syscalls
KERNEL_REPLY_EP = 1  # receive endpoint for replies to kernel-sent messages
KERNEL_FIRST_SRV_EP = 2  # send endpoints to services (single-kernel layout)
#: multi-kernel layout only: requests from peer kernels arrive here and
#: peer send endpoints follow; service endpoints then start after the
#: last peer.  A single kernel keeps the layout above unchanged.
KERNEL_IK_EP = 2
KERNEL_FIRST_PEER_EP = 3

#: application endpoint assignment (mirrored by libm3's Env).
APP_SYSCALL_EP = 0  # send endpoint to the kernel
APP_REPLY_EP = 1  # receive endpoint for syscall and service replies

#: syscall channel geometry.
SYSCALL_MSG_BYTES = 64
SYSCALL_RING_SLOTS = 64
#: reply ring slots are large enough for service replies too (services
#: answer clients through the same standard reply endpoint).
REPLY_SLOT_BYTES = 512
REPLY_RING_SLOTS = 8
#: the kernel's own reply ring must absorb a burst of session
#: negotiations (up to one per parked open_session).
KERNEL_REPLY_RING_SLOTS = 64
#: inter-kernel channel geometry: requests carry service lookups and
#: capability descriptors, so the slots match the reply ring's size.
IK_SLOT_BYTES = 512
IK_RING_SLOTS = 64
IK_MSG_BYTES = 256
#: per-peer in-flight request limit; with at most 3 peers the receive
#: ring (64 slots) can absorb every peer's burst at once.
IK_SEND_CREDITS = 16


class Kernel:
    """Kernel state plus the dispatch loop running on the kernel PE."""

    def __init__(self, platform: "Platform", node: int = 0,
                 dram_reserve: int = 0, kernel_id: int = 0,
                 domain=None, dram_base: int | None = None,
                 dram_bytes: int | None = None):
        self.platform = platform
        self.sim = platform.sim
        self.node = node
        self.pe = platform.pe(node)
        self.dtu = self.pe.dtu
        #: this kernel's id and the set of PE nodes it owns (``None``
        #: means the whole mesh — the classic single-kernel layout).
        self.kernel_id = kernel_id
        self.domain = set(domain) if domain is not None else None
        #: process-name stem (the system layer renames partitioned
        #: kernels to ``kernel<d>``).
        self.label = "kernel"
        #: VPE id -> kernel object.
        self.vpes: dict[int, VpeObject] = {}
        #: registered services by name.
        self.services: dict[str, ServiceObject] = {}
        #: session router: logical service name -> ordered replica list
        #: of ``(concrete service name, owning kernel id)``.  An
        #: ``open_session`` naming a routed service is load-balanced
        #: round-robin across the live replicas (dead domains skipped),
        #: riding the ordinary local/inter-kernel ``srv_open`` paths.
        self.service_routes: dict[str, tuple] = {}
        self._route_cursor: dict[str, int] = {}
        #: requests dispatched per replica by this kernel's router.
        self.route_counts: dict[str, int] = {}
        #: per-route balancing policy: ``"rr"`` (default) or ``"depth"``
        #: (least-loaded by queue depth, round-robin tiebreak).
        self._route_policy: dict[str, str] = {}
        #: replica name -> ``(stamp cycle, depth)`` learned from the
        #: depth piggyback on inter-kernel traffic (newest stamp wins).
        self.replica_depths: dict[str, tuple] = {}
        #: attach depth riders to outgoing inter-kernel requests.  Off
        #: until some route asks for ``policy="depth"``: with every
        #: route on round-robin the wire payloads stay byte-identical
        #: to the pre-elastic protocol.
        self._gossip_depths = False
        #: DRAM allocator (`dram_reserve` bytes at the bottom stay free
        #: for platform-level uses); a partitioned kernel manages only
        #: its own shard ``[dram_base, dram_base + dram_bytes)``.
        if dram_base is None:
            dram_base = dram_reserve
            dram_bytes = platform.dram.memory.size - dram_reserve
        self.memory = MemoryManager(dram_base, dram_bytes)
        #: peer kernel id -> send-EP index on this kernel's DTU.
        self.peers: dict[int, int] = {}
        self._peer_nodes: dict[int, int] = {}
        #: parked inter-kernel requests: negotiation id -> completion
        #: callback run with the peer's reply payload.
        self._ik_pending: dict[int, typing.Callable] = {}
        #: service name -> owning peer kernel id (remote-lookup cache).
        self._remote_services: dict[str, int] = {}
        self.ik_requests_sent = 0
        self.ik_requests_served = 0
        #: reliable inter-kernel RPC client state (reliable DTUs only):
        #: negotiation id -> retry bookkeeping (attempts, timer handle).
        self._ik_outstanding: dict[int, dict] = {}
        #: server-side idempotency: (sender kernel, negotiation) of
        #: requests still executing/parked -> their ring slot, plus a
        #: bounded cache of already-sent replies for re-answering
        #: duplicates without re-executing the operation.
        self._ik_inflight: dict[tuple, int] = {}
        self._ik_replied: collections.OrderedDict = collections.OrderedDict()
        self.ik_retries = 0
        self.ik_timeouts = 0
        self.ik_duplicates = 0
        #: fault-path-only record of ``(cycle, negotiation, attempt)``
        #: per client-side retransmit, for determinism checks.
        self.ik_retry_log: list[tuple] = []
        #: peer kernel ids declared dead (failover done or underway).
        self.dead_peers: set[int] = set()
        #: peer kernel id -> the set of nodes its domain owns, so
        #: failover knows what to quarantine (see :meth:`set_peers`).
        self._peer_domains: dict[int, set] = {}
        #: heartbeat ring state (see :meth:`start_heartbeat`).
        self._heartbeat = None
        self._heartbeat_stop = False
        self._heartbeat_misses: dict[int, int] = {}
        self.heartbeats_sent = 0
        #: ``(peer, detected_at, completed_at, reason)`` per failover.
        self.failover_log: list[tuple] = []
        #: peer kernel id -> the SLO alert that preceded the death
        #: verdict — ``(alert_cycle, slo name, severity)`` — when an
        #: SLO monitor was watching (see repro.obs.slo); absent peers
        #: had no alert standing.
        self.failover_alerts: dict[int, tuple] = {}
        #: send-EP index on the kernel DTU per service name.
        self._service_eps: dict[str, int] = {}
        self._next_service_ep = KERNEL_FIRST_SRV_EP
        self.syscall_count = 0
        #: (vpe_id, ep_index) -> capability currently configured there,
        #: so revocation can invalidate the hardware behind a grant.
        self._ep_bindings: dict[tuple, Capability] = {}
        #: parked open_session negotiations keyed by negotiation id.
        self._pending_sessions: dict[int, tuple] = {}
        self._negotiation_ids = itertools.count(1)
        #: per-kernel VPE ids, so runs are reproducible regardless of
        #: what else the hosting Python process simulated before.
        self._vpe_ids = itertools.count(1)
        self._booted = False
        #: callback used by the M3 system layer to start software on a
        #: PE (models the kernel writing the boot registers via the DTU).
        self.start_software = None
        #: PE time-multiplexing (Sections 3.3/7); off by default, like
        #: the paper's prototype.
        self.multiplexing = False
        #: move waiting VPEs to PEs that free up (Section 1.3's load
        #: balancing); only meaningful with multiplexing on.
        self.auto_rebalance = False
        from repro.m3.kernel.ctxsw import ContextSwitcher

        self.ctxsw = ContextSwitcher(self)
        #: vpe id -> libm3 Env, populated by the system layer (used by
        #: the context switcher to flush client-side endpoint bindings).
        self.envs: dict[int, object] = {}
        #: watchdog state (see :meth:`start_watchdog`).
        self._watchdog = None
        self._watchdog_stop = False
        self._watchdog_recovery = "kill"
        self.probes_sent = 0
        self.recoveries = 0
        self.migrations = 0
        #: cross-domain migration bookkeeping: local VPE id -> (new
        #: owner kernel id, id over there) for VPEs this kernel pushed
        #: out.  Stale inter-kernel requests naming the old id are
        #: forwarded to the new owner (the proxy swaps direction).
        self._migrated_out: dict[int, tuple] = {}
        self.migrations_out = 0
        self.migrations_in = 0

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------

    def set_peers(self, peer_nodes: dict,
                  peer_domains: dict | None = None) -> None:
        """Declare the other kernels (id -> node) before :meth:`boot`.

        Assigns one send endpoint per peer (after the inter-kernel
        receive endpoint) and moves the first service endpoint behind
        them.  Never called for a single-kernel system, whose endpoint
        layout is unchanged.  ``peer_domains`` (id -> node set) tells
        failover which PEs to quarantine when a peer dies.
        """
        self._peer_nodes = dict(peer_nodes)
        self._peer_domains = {
            peer: set(nodes) for peer, nodes in (peer_domains or {}).items()
        }
        self.peers = {}
        ep_index = KERNEL_FIRST_PEER_EP
        for peer_id in sorted(self._peer_nodes):
            self.peers[peer_id] = ep_index
            ep_index += 1
        if ep_index > len(self.dtu.eps):
            raise ValueError(
                f"{len(self._peer_nodes)} peer kernels do not fit "
                f"{len(self.dtu.eps)} DTU endpoints"
            )
        self._next_service_ep = ep_index

    def _live_peers(self) -> list[int]:
        """Peer kernel ids not declared dead, in id order."""
        return [peer for peer in sorted(self.peers)
                if peer not in self.dead_peers]

    def boot(self):
        """Generator: take control of the chip.

        Configures the kernel's own endpoints, then downgrades every
        other DTU — "during boot, the DTUs of the application PEs are
        downgraded by the kernel to become unprivileged" (Section 3).
        """
        self.dtu.configure_local(
            "configure",
            KERNEL_SYSCALL_EP,
            EndpointRegisters.receive_config(
                buffer_addr=0,
                slot_size=SYSCALL_MSG_BYTES + HEADER_BYTES,
                slot_count=SYSCALL_RING_SLOTS,
            ),
        )
        self.dtu.configure_local(
            "configure",
            KERNEL_REPLY_EP,
            EndpointRegisters.receive_config(
                buffer_addr=4096,
                slot_size=REPLY_SLOT_BYTES,
                slot_count=KERNEL_REPLY_RING_SLOTS,
            ),
        )
        if self._peer_nodes:
            self.dtu.configure_local(
                "configure",
                KERNEL_IK_EP,
                EndpointRegisters.receive_config(
                    buffer_addr=8192,
                    slot_size=IK_SLOT_BYTES,
                    slot_count=IK_RING_SLOTS,
                ),
            )
            for peer_id, ep_index in self.peers.items():
                self.dtu.configure_local(
                    "configure",
                    ep_index,
                    EndpointRegisters.send_config(
                        target_node=self._peer_nodes[peer_id],
                        target_ep=KERNEL_IK_EP,
                        label=self.kernel_id,
                        credits=IK_SEND_CREDITS,
                        msg_size=IK_SLOT_BYTES,
                    ),
                )
        for pe in self.platform.pes:
            if pe.node == self.node:
                continue
            if self.domain is not None and pe.node not in self.domain:
                continue  # a peer kernel downgrades its own domain
            yield from self.dtu.configure_remote(pe.node, "downgrade")
        self._booted = True

    # ------------------------------------------------------------------
    # VPE management (also used directly for boot-time root VPEs)
    # ------------------------------------------------------------------

    def create_vpe(self, name: str, pe_type: str | None = None,
                   creator: VpeObject | None = None):
        """Generator: allocate a PE, create the VPE, wire its syscall
        channel.  Returns the :class:`VpeObject`.

        With :attr:`multiplexing` enabled and no free PE, the VPE is
        queued on a time-shared PE instead (general-purpose cores only);
        the creator's PE is the preferred victim.
        """
        pe = self.platform.find_free_pe(pe_type, nodes=self.domain)
        if pe is None or pe.node == self.node:
            if self.multiplexing and pe_type in (None, "xtensa"):
                preferred = creator.node if creator is not None else None
                vpe = self._create_multiplexed(name, preferred)
                if vpe is not None:
                    return vpe
            raise SyscallError(
                f"no free PE of type {pe_type or 'any'} for VPE {name!r}"
            )
        vpe = VpeObject(name, pe, next(self._vpe_ids))
        vpe.kernel = self
        self.vpes[vpe.id] = vpe
        # Reserve the PE immediately so concurrent creates cannot race.
        pe.reserve()
        yield from self.wire_syscall_channel(vpe)
        # Self capability and a memory capability for the PE's SPM, used
        # by the parent for application loading (Section 4.5.5).
        vpe.captable.insert(Capability(CapKind.VPE, vpe))
        spm_cap = Capability(
            CapKind.MEM,
            MemObject(pe.node, 0, pe.spm_data.size, MemoryPerm.RW),
        )
        vpe.captable.insert(spm_cap)
        self.ctxsw.adopt(vpe)
        return vpe

    def _create_multiplexed(self, name: str,
                            preferred_node: int | None = None
                            ) -> VpeObject | None:
        """Queue a VPE on a time-shared PE (no endpoint wiring yet —
        that happens at switch-in)."""
        vpe = self.ctxsw.place(name, preferred_node)
        if vpe is None:
            return None
        vpe.kernel = self
        vpe.captable.insert(Capability(CapKind.VPE, vpe))
        # The loader capability targets the DRAM staging area, not the
        # (occupied) SPM.
        vpe.captable.insert(
            Capability(CapKind.MEM, self.ctxsw.staging_object(vpe))
        )
        return vpe

    def wire_syscall_channel(self, vpe: VpeObject):
        """Generator: configure the standard endpoints of a VPE's DTU
        (reply ringbuffer + send gate to the kernel)."""
        yield from self.dtu.configure_remote(
            vpe.node,
            "configure",
            APP_REPLY_EP,
            EndpointRegisters.receive_config(
                buffer_addr=0,
                slot_size=REPLY_SLOT_BYTES,
                slot_count=REPLY_RING_SLOTS,
            ),
        )
        # The label is the VPE id, chosen by the kernel and unforgeable
        # by the application.
        yield from self.dtu.configure_remote(
            vpe.node,
            "configure",
            APP_SYSCALL_EP,
            EndpointRegisters.send_config(
                target_node=self.node,
                target_ep=KERNEL_SYSCALL_EP,
                label=vpe.id,
                credits=2,
                msg_size=SYSCALL_MSG_BYTES + HEADER_BYTES,
            ),
        )

    def start_vpe(self, vpe: VpeObject, entry, args: tuple) -> None:
        """Start software on the VPE's PE (the M3 system layer provides
        the actual loader hook)."""
        if vpe.state == VpeState.DEAD:
            raise SyscallError(f"VPE {vpe.name!r} is dead")
        if self.start_software is None:
            raise RuntimeError("kernel has no software loader attached")
        # Recorded so recover-by-migrate can restart the software on a
        # new PE after salvaging the SPM image off a dead node.
        vpe.last_entry = (entry, args)
        if not vpe.resident:
            # A queued multiplexed VPE runs when it gets the PE.
            self.ctxsw.start_queued(vpe, entry, args)
            return
        vpe.state = VpeState.RUNNING
        self.start_software(vpe, entry, args)

    def vpe_exited(self, vpe: VpeObject, exit_code: object) -> None:
        """Mark a VPE dead, free its PE, and wake all waiters."""
        vpe.state = VpeState.DEAD
        vpe.exit_code = exit_code
        vpe.pe.release()
        for waiter_vpe, slot in vpe.waiters:
            self._reply(waiter_vpe, slot, ("ok", exit_code))
        vpe.waiters.clear()
        for ik_slot in vpe.remote_waiters:
            self._ik_reply(ik_slot, ("ok", exit_code))
        vpe.remote_waiters.clear()
        for event in vpe.exit_events:
            event.succeed(exit_code)
        vpe.exit_events.clear()
        self.ctxsw.vpe_gone(vpe)
        self.ctxsw.child_exited(vpe)

    # ------------------------------------------------------------------
    # Watchdog: failure detection and recovery
    # ------------------------------------------------------------------

    def start_watchdog(self, period: int = params.KERNEL_WATCHDOG_PERIOD,
                       probe_timeout: int =
                       params.KERNEL_PROBE_TIMEOUT_CYCLES,
                       recovery: str = "kill"):
        """Start the liveness watchdog on the kernel PE.

        Every ``period`` cycles the kernel probes the DTU of each
        running, resident VPE (the DTU answers in hardware with the
        core's halted bit, so a dead core cannot suppress the answer).
        A probe that reports "halted" — or that gets no answer within
        ``probe_timeout`` cycles, i.e. the whole node is unreachable —
        triggers recovery: ``recovery="kill"`` tears the VPE down
        (:meth:`recover_vpe`); ``recovery="migrate"`` first tries to
        salvage the SPM image off the dead node and restart the VPE on
        a free PE (:meth:`_recover_by_migrate`), falling back to kill.
        """
        if recovery not in ("kill", "migrate"):
            raise ValueError(f"unknown recovery mode {recovery!r}")
        if self._watchdog is not None and self._watchdog.alive:
            raise RuntimeError("watchdog already running")
        self._watchdog_stop = False
        self._watchdog_recovery = recovery
        self._watchdog = self.sim.process(
            self._watchdog_loop(period, probe_timeout), "kernel.watchdog"
        )
        return self._watchdog

    def stop_watchdog(self) -> None:
        """Let the watchdog loop exit at its next wake-up (so a bare
        ``sim.run()`` can drain the event queue)."""
        self._watchdog_stop = True

    def _watchdog_loop(self, period: int, probe_timeout: int):
        while True:
            yield self.sim.delay(period)
            if self._watchdog_stop or self.pe.failed:
                # The stop flag, or this kernel's own PE died (the
                # watchdog runs as a bare process, so it would otherwise
                # keep probing on behalf of a dead kernel).
                return
            for vpe in list(self.vpes.values()):
                if (vpe.state != VpeState.RUNNING or not vpe.resident
                        or vpe.failed or vpe.node == self.node):
                    continue
                yield self.sim.delay(params.KERNEL_PROBE_CYCLES, tag=Tag.OS)
                alive = yield from self._probe_vpe(vpe, probe_timeout)
                if not alive:
                    if self._watchdog_recovery == "migrate":
                        migrated = yield from self._recover_by_migrate(vpe)
                        if migrated:
                            continue
                    yield from self.recover_vpe(vpe, "watchdog probe failed")

    def _probe_vpe(self, vpe: VpeObject, timeout: int):
        """Generator: probe one VPE's node; returns whether it is alive.

        The probe races against ``timeout`` so an unreachable node
        (partitioned NoC, wedged DTU) is detected too, not only a
        cleanly-reported halted core.
        """
        from repro.sim.events import first_of

        self.probes_sent += 1
        if self.sim.obs is not None:
            self.sim.obs.count("kernel.probes_sent")
            self.sim.obs.instant("probe", "watchdog", vpe.node, vpe=vpe.id)
        probe = self.sim.process(
            self.dtu.configure_remote(vpe.node, "probe"),
            f"kernel.probe.vpe{vpe.id}",
        )
        yield first_of(self.sim, probe.done, self.sim.delay(timeout))
        return probe.done.triggered and probe.done.ok \
            and probe.done.value == "alive"

    def recover_vpe(self, vpe: VpeObject, reason: str):
        """Generator: tear a failed VPE out of the system.

        The PE's core is gone but its DTU still obeys privileged
        configuration packets, so the kernel (1) wipes the dead node's
        endpoints — NoC-level fencing that stops half-dead software
        state from being reachable, (2) quarantines the PE from
        allocation, (3) fails all VPE_WAIT callers with an error reply
        instead of leaving them blocked forever, and (4) revokes every
        capability the VPE held, which invalidates the endpoints other
        VPEs had configured from its grants.
        """
        self.recoveries += 1
        if self.sim.obs is not None:
            self.sim.obs.count("kernel.recoveries")
            self.sim.obs.instant("recover", "watchdog", vpe.node,
                                 vpe=vpe.id, reason=reason)
            if self.sim.obs.flight is not None:
                self.sim.obs.flight.dump(
                    f"kernel{self.kernel_id}: watchdog recovers VPE "
                    f"#{vpe.id} ({vpe.name}): {reason}",
                    domain=self.kernel_id,
                )
        vpe.failed = True
        self.sim.ledger.mark(
            self.sim.now, Tag.FAULT,
            f"kernel recovers VPE #{vpe.id} ({vpe.name}): {reason}",
        )
        try:
            yield from self.dtu.configure_remote(vpe.node, "wipe")
        except DtuError:
            pass  # node unreachable: fenced by the NoC instead
        vpe.pe.failed = True  # quarantine: find_free_pe skips it
        occupant = vpe.pe.occupant
        if occupant is not None and occupant.alive:
            try:
                occupant.interrupt("pe-failed")
            except RuntimeError:
                pass  # not blocked; it is dead hardware either way
        error = ("err", f"VPE {vpe.name!r} failed: {reason}")
        for waiter_vpe, slot in vpe.waiters + vpe.yield_waiters:
            self._reply(waiter_vpe, slot, error)
        vpe.waiters.clear()
        vpe.yield_waiters.clear()
        for ik_slot in vpe.remote_waiters:
            self._ik_reply(ik_slot, error)
        vpe.remote_waiters.clear()
        # DEAD before revoking, so _teardown's VPE branch does not try
        # to "exit" the corpse a second time.
        self.vpe_exited(vpe, ("failed", reason))
        for cap in vpe.captable.caps():
            if cap.table is None:
                continue  # removed with an earlier cap's subtree
            for victim in revoke(cap):
                yield from self._teardown(victim)

    def _revoke_foreign_for_node(self, node: int) -> None:
        """Spawn a kernel task revoking every foreign memory capability
        that points at ``node``.

        Used when a remote domain reports (or failover infers) that the
        node's owner died: the regions belong to a peer domain, so the
        foreign flag already guarantees teardown never frees them into
        this kernel's allocator — all that is left is cutting the local
        endpoints configured from those grants.
        """

        def sweep():
            for vpe_id in sorted(self.vpes):
                vpe = self.vpes[vpe_id]
                for cap in vpe.captable.caps():
                    if (cap.table is None or not cap.foreign
                            or cap.kind != CapKind.MEM
                            or cap.obj.node != node):
                        continue
                    for victim in revoke(cap):
                        yield from self._teardown(victim)

        self.sim.process(sweep(), f"{self.label}.revoke-foreign.n{node}")

    # ------------------------------------------------------------------
    # VPE checkpoint / restore / migration
    # ------------------------------------------------------------------

    def checkpoint_vpe(self, vpe: VpeObject):
        """Generator: snapshot a resident VPE's PE-local state.

        Captures the data-SPM image (a timed, size-dependent transfer),
        the DTU endpoint registers, the SPM allocator mark, and a
        capability summary into a :class:`VpeCheckpoint`.  Works against
        a node whose *core* is dead — the DTU answers reads in hardware
        — which is what recover-by-migrate relies on.
        """
        import dataclasses

        from repro.m3.kernel.checkpoint import VpeCheckpoint

        if not vpe.resident:
            raise SyscallError(f"VPE {vpe.name!r} is not resident")
        pe = vpe.pe
        yield self.sim.delay(params.VPE_CHECKPOINT_KERNEL_CYCLES, tag=Tag.OS)
        yield self.sim.delay(
            pe.spm_data.size // params.DTU_BYTES_PER_CYCLE
            + params.DRAM_ACCESS_CYCLES,
            tag=Tag.XFER,
        )
        checkpoint = VpeCheckpoint(
            vpe_id=vpe.id,
            name=vpe.name,
            node=pe.node,
            spm_image=bytes(pe.spm_data.read(0, pe.spm_data.size)),
            alloc_mark=pe._alloc_next,
            eps=tuple(
                (index, dataclasses.replace(ep))
                for index, ep in enumerate(pe.dtu.eps)
                if ep.kind != EndpointKind.INVALID
            ),
            caps=tuple(
                (cap.selector, cap.kind.value)
                for cap in vpe.captable.caps()
                if cap.table is not None
            ),
            taken_at=self.sim.now,
        )
        vpe.last_checkpoint = checkpoint
        if self.sim.obs is not None:
            self.sim.obs.count("kernel.checkpoints")
            self.sim.obs.instant("checkpoint", "migrate", pe.node,
                                 vpe=vpe.id, bytes=checkpoint.spm_bytes)
        return checkpoint

    def restore_vpe(self, checkpoint, target_pe, vpe: VpeObject):
        """Generator: re-materialize a checkpointed, *live* VPE on
        ``target_pe`` (live migration).

        The SPM image and endpoint registers are restored at the same
        indices (client-side gate bindings cache endpoint indices, so
        they stay valid), receive ringbuffers move over with their
        unread messages, and the old DTU forwards in-flight messages
        and replies to the new node for a redirect window before the
        kernel wipes it.  Safe for VPEs that are computing or parked in
        a syscall-reply wait; software blocked in a hand-rolled receive
        loop on the old DTU object is not migratable (see
        docs/protocols.md).
        """
        import dataclasses

        old_pe = vpe.pe
        old_dtu = old_pe.dtu
        old_node = old_pe.node
        if not target_pe.busy:
            target_pe.reserve()
        yield self.sim.delay(params.VPE_CHECKPOINT_KERNEL_CYCLES, tag=Tag.OS)
        yield self.sim.delay(
            target_pe.spm_data.size // params.DTU_BYTES_PER_CYCLE
            + params.DRAM_ACCESS_CYCLES,
            tag=Tag.XFER,
        )
        target_pe.spm_data.write(0, checkpoint.spm_image)
        target_pe._alloc_next = checkpoint.alloc_mark
        if not old_pe.failed:
            # Final sync pass (classic pre-copy migration): the VPE kept
            # running during the bulk copy above, so the authoritative
            # SPM image, allocator mark, and endpoint registers are
            # re-read at hand-off time.  The bulk transfer already paid
            # the size-dependent cost; the dirty delta is not modelled.
            target_pe.spm_data.write(
                0, bytes(old_pe.spm_data.read(0, old_pe.spm_data.size))
            )
            target_pe._alloc_next = old_pe._alloc_next
            eps = tuple(
                (index, dataclasses.replace(ep))
                for index, ep in enumerate(old_dtu.eps)
                if ep.kind != EndpointKind.INVALID
            )
        else:
            eps = checkpoint.eps
        for index, registers in eps:
            yield from self.dtu.configure_remote(
                target_pe.node, "configure", index,
                dataclasses.replace(registers),
            )
            if registers.kind == EndpointKind.RECEIVE:
                # Hardware state handoff: the ringbuffer moves with its
                # unread messages and its duplicate-suppression window.
                moved = old_dtu._ringbufs.pop(index, None)
                if moved is not None:
                    target_pe.dtu._ringbufs[index] = moved
        # The software process itself just keeps running; only the PE
        # binding moves.  The old PE stays reserved until the redirect
        # window closes, so nobody is placed onto its half-dead state.
        occupant = old_pe.occupant
        old_pe.occupant = None
        old_pe.reserved = True
        if occupant is not None and occupant.alive:
            target_pe.occupant = occupant
            target_pe.reserved = False
        vpe.pe = target_pe
        vpe.migrations += 1
        self.migrations += 1
        if self.ctxsw.resident.get(old_node) is vpe:
            self.ctxsw.resident[old_node] = None
            self.ctxsw.adopt_node(target_pe)
            self.ctxsw.resident[target_pe.node] = vpe
        env = self.envs.get(vpe.id)
        if env is not None:
            env.pe = target_pe
            env.dtu = target_pe.dtu
        # Spurious wakeups: anything blocked on an old-DTU signal must
        # re-check against the new DTU (the reply wait re-reads env.dtu).
        for signal in old_dtu._signals.values():
            signal.fire()
        old_dtu.redirect_to = target_pe.node
        if self.sim.obs is not None:
            self.sim.obs.count("kernel.migrations")
            self.sim.obs.instant("migrate", "migrate", old_node,
                                 vpe=vpe.id, target=target_pe.node)
        self.sim.ledger.mark(
            self.sim.now, Tag.OS,
            f"{self.label} migrates VPE #{vpe.id} ({vpe.name}) "
            f"{old_node} -> {target_pe.node}",
        )

        def close_window():
            yield self.sim.delay(params.DTU_REDIRECT_WINDOW_CYCLES)
            old_dtu.redirect_to = None
            try:
                yield from self.dtu.configure_remote(old_node, "wipe")
            except DtuError:
                pass  # unreachable: fenced by the NoC instead
            if not old_pe.failed:
                old_pe.release()

        self.sim.process(
            close_window(), f"{self.label}.migrate-window.v{vpe.id}"
        )

    def _recover_by_migrate(self, vpe: VpeObject):
        """Generator: recover a failed VPE by moving it to a free PE.

        The core died but the node's DTU still serves reads, so the
        kernel checkpoints the SPM image off the dead node, quarantines
        the node, and restarts the VPE's recorded entry on a free PE —
        checkpoint-aware programs find their previous progress in the
        restored SPM image.  Returns False (the caller falls back to
        kill-style recovery) when there is no free PE or no recorded
        entry.
        """
        if vpe.last_entry is None:
            return False
        target = self.platform.find_free_pe(nodes=self.domain)
        if target is None or target.node == self.node:
            return False
        target.reserve()
        checkpoint = yield from self.checkpoint_vpe(vpe)
        old_pe = vpe.pe
        try:
            yield from self.dtu.configure_remote(old_pe.node, "wipe")
        except DtuError:
            pass  # node unreachable: fenced by the NoC instead
        occupant = old_pe.occupant
        if occupant is not None and occupant.alive:
            try:
                occupant.interrupt("pe-failed")
            except RuntimeError:
                pass
        old_pe.release()
        old_pe.failed = True  # quarantine: find_free_pe skips it
        if self.ctxsw.resident.get(old_pe.node) is vpe:
            self.ctxsw.resident[old_pe.node] = None
        self.migrations += 1
        vpe.migrations += 1
        if self.sim.obs is not None:
            self.sim.obs.count("kernel.migrations")
            self.sim.obs.instant("migrate", "watchdog", old_pe.node,
                                 vpe=vpe.id, target=target.node)
        self.sim.ledger.mark(
            self.sim.now, Tag.FAULT,
            f"{self.label} migrates VPE #{vpe.id} ({vpe.name}) off dead "
            f"node {old_pe.node} to node {target.node}",
        )
        vpe.pe = target
        # Restore the image, then restart the entry: the bump allocator
        # starts from zero again, so the re-run allocates the same
        # buffer addresses and finds its progress in the restored SPM.
        yield self.sim.delay(
            target.spm_data.size // params.DTU_BYTES_PER_CYCLE
            + params.DRAM_ACCESS_CYCLES,
            tag=Tag.XFER,
        )
        target.spm_data.write(0, checkpoint.spm_image)
        yield from self.wire_syscall_channel(vpe)
        if self.ctxsw.resident.get(target.node) is None:
            self.ctxsw.adopt_node(target)
            self.ctxsw.resident[target.node] = vpe
        entry, args = vpe.last_entry
        vpe.state = VpeState.RUNNING
        self.start_software(vpe, entry, args)
        return True

    def _sys_migrate_vpe(self, vpe, slot, vpe_sel, target_domain=None):
        """Live-migrate a running, resident child VPE (checkpoint +
        restore + DTU redirect window); returns the node it now runs
        on.  With ``target_domain`` naming a peer kernel, the
        checkpoint instead serializes over the idempotent inter-kernel
        RPC (``ik_migrate_in``) and the child re-materializes in that
        domain, leaving a :class:`RemoteVpeObject` proxy behind."""
        child = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        if isinstance(child, RemoteVpeObject):
            raise SyscallError("cannot live-migrate a remote VPE")
        if not child.resident or child.state != VpeState.RUNNING:
            raise SyscallError(
                f"VPE {child.name!r} is not resident and running; use "
                "vpe_migrate for suspended or queued VPEs"
            )
        if target_domain is not None and target_domain != self.kernel_id:
            self._migrate_out(
                target_domain, child,
                (yield from self._migration_descriptor(child)),
                lambda payload: self._reply(vpe, slot, payload),
            )
            return NO_REPLY
        target = self.platform.find_free_pe(nodes=self.domain)
        if target is None or target.node == self.node:
            raise SyscallError("no free PE to migrate to")
        target.reserve()
        completed = False
        try:
            checkpoint = yield from self.checkpoint_vpe(child)
            if not child.resident or child.state != VpeState.RUNNING:
                raise SyscallError(
                    f"VPE {child.name!r} died during checkpoint"
                )
            yield from self.restore_vpe(checkpoint, target, child)
            completed = True
        finally:
            # A mid-migration failure (fault plan killing the source,
            # the child exiting under the checkpoint) must not strand
            # the target PE reserved forever.  Once restore_vpe ran,
            # the target is the child's live PE — leave it alone.
            if not completed and target.reserved and target.occupant is None:
                target.release()
        return target.node

    # -- cross-domain live migration (elastic scaling) -------------------

    def _migration_descriptor(self, child: VpeObject):
        """Generator: checkpoint ``child`` and wrap the snapshot in a
        :class:`MigrationDescriptor` ready to ride ``ik_migrate_in``."""
        from repro.m3.kernel.checkpoint import MigrationDescriptor

        checkpoint = yield from self.checkpoint_vpe(child)
        return MigrationDescriptor.capture(
            child, checkpoint, self.envs.get(child.id)
        )

    def _migrate_out(self, peer: int, child: VpeObject, descriptor,
                     completion) -> None:
        """Ship a descriptor to ``peer`` over the idempotent RPC;
        ``completion`` runs with ``("ok", (new_id, new_node))`` or an
        error payload after source-side bookkeeping finished."""
        if peer not in self.peers:
            self.sim.call_soon(lambda _: completion(
                ("err", f"no peer kernel domain {peer}")
            ))
            return
        self._ik_request(
            peer, "migrate_in", (descriptor,),
            lambda payload: completion(
                self._complete_migrate_out(child, peer, payload)
            ),
        )

    def _complete_migrate_out(self, child: VpeObject, peer: int, payload):
        """Source-side hand-off once the target kernel answered an
        ``ik_migrate_in``: drop ownership, leave a proxy pointing the
        other way, and forward parked waits to the new owner."""
        if payload[0] != "ok":
            return payload
        new_id, new_node = payload[1]
        old_id = child.id
        self.vpes.pop(old_id, None)
        self.envs.pop(old_id, None)
        if self.ctxsw.resident.get(child.node) is child:
            self.ctxsw.resident[child.node] = None
        self._migrated_out[old_id] = (peer, new_id)
        self.migrations_out += 1
        proxy = RemoteVpeObject(remote_id=new_id, kernel_id=peer,
                                name=child.name, node=new_node)
        proxy.state = VpeState.RUNNING
        # Every local VPE capability naming the child now names the
        # proxy: the relationship swapped direction — the VPE used to
        # be ours, now we hold it remotely.
        for owner_id in sorted(self.vpes):
            for cap in self.vpes[owner_id].captable.caps():
                if (cap.table is not None and cap.kind == CapKind.VPE
                        and cap.obj is child):
                    cap.obj = proxy
        # Parked local waits follow the VPE as cross-domain waits; the
        # proxy's cached state tracks the forwarded verdict exactly
        # like _sys_vpe_wait's remote branch.
        for waiter_vpe, wait_slot in child.waiters:
            self._forward_wait(
                peer, new_id, proxy,
                lambda p, w=waiter_vpe, s=wait_slot: self._reply(w, s, p),
            )
        child.waiters = []
        # Waits parked here on behalf of third domains are re-parked at
        # the new owner; the eventual verdict passes straight through.
        for ik_slot in child.remote_waiters:
            self._ik_request(
                peer, "vpe_wait", (new_id,),
                lambda p, s=ik_slot: self._ik_reply(s, p),
                no_timeout=True,
            )
        child.remote_waiters = []
        if self.sim.obs is not None:
            self.sim.obs.count("kernel.migrations_out")
            self.sim.obs.instant("migrate_out", "migrate", child.node,
                                 vpe=old_id, peer=peer, target=new_node)
        self.sim.ledger.mark(
            self.sim.now, Tag.OS,
            f"{self.label} migrates VPE #{old_id} ({child.name}) out to "
            f"kernel {peer} node {new_node}",
        )
        return ("ok", (new_id, new_node))

    def _forward_wait(self, peer: int, remote_id: int, proxy, reply) -> None:
        """Re-issue a parked VPE_WAIT against the VPE's new owner,
        keeping the proxy's cached state in sync with the verdict."""

        def completion(payload):
            proxy.state = VpeState.DEAD
            if payload[0] == "ok":
                proxy.exit_code = payload[1]
            else:
                proxy.exit_code = ("failed", payload[1])
                self._revoke_foreign_for_node(proxy.node)
            reply(payload)

        self._ik_request(peer, "vpe_wait", (remote_id,), completion,
                         no_timeout=True)

    def migrate_vpe_cross(self, child: VpeObject, peer: int):
        """Generator (control-plane processes only — never the kernel
        loop): live-migrate ``child`` into peer domain ``peer`` and
        return ``(new_id, new_node)``.  The autoscaler and tests drive
        cross-domain migration through this entry point."""
        if peer == self.kernel_id or peer not in self.peers:
            raise SyscallError(f"no peer kernel domain {peer}")
        if isinstance(child, RemoteVpeObject):
            raise SyscallError("cannot live-migrate a remote VPE")
        if not child.resident or child.state != VpeState.RUNNING:
            raise SyscallError(
                f"VPE {child.name!r} is not resident and running"
            )
        descriptor = yield from self._migration_descriptor(child)
        done = self.sim.event(f"{self.label}.migrate-out.v{child.id}")
        self._migrate_out(peer, child, descriptor,
                          lambda payload: done.succeed(payload))
        payload = yield done
        if payload[0] != "ok":
            raise SyscallError(payload[1])
        return payload[1]

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------

    def run(self):
        """Generator: the kernel main loop (runs forever on the kernel PE).

        The loop is strictly event-driven and never blocks on a single
        peer: it serves syscall messages *and* service replies (session
        negotiations, Section 4.5.3), so a service doing a syscall while
        the kernel negotiates with it cannot deadlock the system.
        """
        from repro.sim.events import first_of

        if not self._booted:
            yield from self.boot()
        while True:
            progressed = False
            fetched = self.dtu.fetch_message(KERNEL_SYSCALL_EP)
            if fetched is not None:
                yield from self._handle_syscall(*fetched)
                progressed = True
            fetched = self.dtu.fetch_message(KERNEL_REPLY_EP)
            if fetched is not None:
                yield from self._handle_service_reply(*fetched)
                progressed = True
            if self.peers:
                fetched = self.dtu.fetch_message(KERNEL_IK_EP)
                if fetched is not None:
                    yield from self._handle_ik_request(*fetched)
                    progressed = True
            if not progressed:
                waits = [
                    self.dtu.signal(KERNEL_SYSCALL_EP).wait(),
                    self.dtu.signal(KERNEL_REPLY_EP).wait(),
                ]
                if self.peers:
                    waits.append(self.dtu.signal(KERNEL_IK_EP).wait())
                yield first_of(self.sim, *waits)

    def _handle_syscall(self, slot: int, message):
        """Generator: dispatch one syscall message and reply."""
        self.syscall_count += 1
        obs = self.sim.obs
        started = self.sim.now
        vpe = self.vpes.get(message.label)
        # The opcode is parsed up front (a pure read) so the kernel
        # span carries it from the start; the span adopts the client's
        # trace context from the message header, linking the kernel's
        # work — and every send/config it performs — to the request.
        opcode, args = message.payload
        span = -1
        if obs is not None:
            if self.peers:
                obs.count(f"kernel{self.kernel_id}.syscalls")
            span = obs.begin(
                opcode, "syscall", self.node,
                parent=header_context(message.header),
                vpe=-1 if vpe is None else vpe.id,
            )
        yield self.sim.delay(params.M3_KERNEL_DISPATCH_CYCLES, tag=Tag.OS)
        if vpe is None:
            self.dtu.ack_message(KERNEL_SYSCALL_EP, slot)
            if obs is not None:
                obs.end(span, status="no-vpe")
            return
        handler = getattr(self, f"_sys_{opcode}", None)
        try:
            if handler is None:
                raise SyscallError(f"unknown syscall {opcode!r}")
            result = yield from handler(vpe, slot, *args)
        except (SyscallError, KeyError, ValueError, TypeError) as exc:
            result = None
            reply = ("err", str(exc))
        else:
            if result is NO_REPLY:
                if obs is not None:
                    obs.observe("kernel.syscall_cycles", self.sim.now - started)
                    obs.end(span, phase="deferred")
                return
            reply = ("ok", result)
        yield self.sim.delay(params.M3_KERNEL_REPLY_CYCLES, tag=Tag.OS)
        yield self.dtu.reply(KERNEL_SYSCALL_EP, slot, reply, SYSCALL_MSG_BYTES)
        if obs is not None:
            obs.observe("kernel.syscall_cycles", self.sim.now - started)
            obs.end(span, status=reply[0])

    def _reply(self, vpe: VpeObject, slot: int, payload) -> None:
        """Late reply to a deferred syscall (fire-and-forget).

        The waiter may have *migrated* since it sent the syscall; the
        stored reply information is retargeted to its current node
        first (the kernel's bookkeeping of where each VPE lives).
        """
        self._retarget_parked_message(vpe, slot)
        self.sim.ledger.charge(Tag.OS, params.M3_KERNEL_REPLY_CYCLES)
        self.dtu.reply(KERNEL_SYSCALL_EP, slot, payload, SYSCALL_MSG_BYTES)

    def _retarget_parked_message(self, vpe: VpeObject, slot: int) -> None:
        # The only place a stored header is rewritten: headers are
        # immutable, so the slot gets a copy with the new reply target.
        ring = self.dtu.ringbuffer(KERNEL_SYSCALL_EP)
        message = ring.peek(slot)
        if message.header.reply_node == vpe.node:
            return
        header = message.header._replace(reply_node=vpe.node,
                                         reply_ep=APP_REPLY_EP)
        ring._slots[slot] = message._replace(header=header)

    # ------------------------------------------------------------------
    # Syscall handlers.  Each is a generator taking (vpe, slot, *args).
    # ------------------------------------------------------------------

    def _sys_noop(self, vpe, slot):
        return ()
        yield  # pragma: no cover - makes this a generator

    def _sys_create_vpe(self, vpe, slot, name, pe_type):
        try:
            child = yield from self.create_vpe(name, pe_type, creator=vpe)
        except SyscallError:
            if not self.peers:
                raise
            # Domain full: spill the VPE to a (live) peer kernel's domain.
            self._spill_create_vpe(vpe, slot, name, pe_type,
                                   self._live_peers(), 0)
            return NO_REPLY
        # Give the *parent* a capability for the child VPE and its SPM.
        child_vpe_cap = child.captable.get(0)
        child_spm_cap = child.captable.get(1)
        vpe_sel = vpe.captable.insert(child_vpe_cap.derive())
        spm_sel = vpe.captable.insert(child_spm_cap.derive())
        return (vpe_sel, spm_sel, child.id)

    def _spill_create_vpe(self, vpe, slot, name, pe_type, candidates,
                          index) -> None:
        """Ask peer kernels (in id order) to host a VPE this domain has
        no free PE for; the parent holds the child through a
        :class:`RemoteVpeObject` capability."""
        if index >= len(candidates):
            self._reply(vpe, slot, (
                "err",
                f"no free PE of type {pe_type or 'any'} for VPE {name!r}",
            ))
            return
        peer = candidates[index]

        def completion(payload):
            status, detail = payload
            if status != "ok":
                self._spill_create_vpe(vpe, slot, name, pe_type,
                                       candidates, index + 1)
                return
            child_id, node, spm_size = detail
            child = RemoteVpeObject(remote_id=child_id, kernel_id=peer,
                                    name=name, node=node)
            vpe_sel = vpe.captable.insert(Capability(CapKind.VPE, child))
            spm_cap = Capability(
                CapKind.MEM, MemObject(node, 0, spm_size, MemoryPerm.RW)
            )
            spm_cap.foreign = True
            spm_sel = vpe.captable.insert(spm_cap)
            self._reply(vpe, slot, ("ok", (vpe_sel, spm_sel, child_id)))

        self._ik_request(peer, "create_vpe", (name, pe_type), completion)

    def _sys_vpe_start(self, vpe, slot, vpe_sel, entry, args):
        child = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        if isinstance(child, RemoteVpeObject):

            def completion(payload):
                if payload[0] == "ok":
                    child.state = VpeState.RUNNING
                self._reply(vpe, slot, payload)

            self._ik_request(child.kernel_id, "vpe_start",
                             (child.remote_id, entry, tuple(args)),
                             completion)
            return NO_REPLY
        self.start_vpe(child, entry, tuple(args))
        return ()
        yield  # pragma: no cover

    def _sys_vpe_wait(self, vpe, slot, vpe_sel):
        child = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        if isinstance(child, RemoteVpeObject):
            if child.state == VpeState.DEAD:
                return child.exit_code

            def completion(payload):
                if payload[0] == "ok":
                    child.state = VpeState.DEAD
                    child.exit_code = payload[1]
                else:
                    # The child is gone or unreachable (killed remotely,
                    # or its whole domain failed): the proxy must not
                    # stay RUNNING forever, and local endpoints built
                    # from its foreign grants are dead hardware now.
                    child.state = VpeState.DEAD
                    child.exit_code = ("failed", payload[1])
                    self._revoke_foreign_for_node(child.node)
                self._reply(vpe, slot, payload)

            self._ik_request(child.kernel_id, "vpe_wait",
                             (child.remote_id,), completion,
                             no_timeout=True)
            return NO_REPLY
        if child.state == VpeState.DEAD:
            return child.exit_code
        child.waiters.append((vpe, slot))
        return NO_REPLY
        yield  # pragma: no cover

    def _sys_vpe_migrate(self, vpe, slot, vpe_sel):
        """Migrate a suspended/queued VPE (the caller must hold its
        capability) to a free PE; returns the new node."""
        child = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        if child.resident and child.state == VpeState.RUNNING:
            raise SyscallError(
                f"VPE {child.name!r} is running; only suspended or queued "
                "VPEs can migrate"
            )
        target = self.platform.find_free_pe(nodes=self.domain)
        if target is None or target.node == self.node:
            raise SyscallError("no free PE to migrate to")
        try:
            self.ctxsw.migrate(child, target)
        except ValueError as exc:
            raise SyscallError(str(exc)) from None
        return target.node
        yield  # pragma: no cover

    def _sys_vpe_wait_yield(self, vpe, slot, vpe_sel):
        """Wait for a VPE *and* offer the caller's PE for reuse —
        Section 3.3's "inform the kernel about a potentially reusable
        core"."""
        if not self.multiplexing:
            return (yield from self._sys_vpe_wait(vpe, slot, vpe_sel))
        child = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        if isinstance(child, RemoteVpeObject):
            # A spilled child's PE belongs to the peer's domain; plain
            # cross-domain wait, nothing to yield locally.
            return (yield from self._sys_vpe_wait(vpe, slot, vpe_sel))
        return (yield from self.ctxsw.wait_yield(vpe, slot, child))

    def _sys_exit(self, vpe, slot, exit_code):
        self.dtu.ack_message(KERNEL_SYSCALL_EP, slot)
        self.vpe_exited(vpe, exit_code)
        return NO_REPLY
        yield  # pragma: no cover

    def _sys_request_mem(self, vpe, slot, size, perm_value):
        address = self.memory.allocate(size)
        obj = MemObject(
            self.platform.dram_node, address, size, MemoryPerm(perm_value)
        )
        return vpe.captable.insert(Capability(CapKind.MEM, obj))
        yield  # pragma: no cover

    def _sys_derive_mem(self, vpe, slot, mem_sel, offset, size, perm_value):
        parent_cap = vpe.captable.get(mem_sel, CapKind.MEM)
        derived = parent_cap.obj.slice(offset, size, MemoryPerm(perm_value))
        return vpe.captable.insert(parent_cap.derive(derived))
        yield  # pragma: no cover

    def _sys_create_rgate(self, vpe, slot, slot_size, slot_count):
        obj = RecvGateObject(slot_size=slot_size, slot_count=slot_count)
        return vpe.captable.insert(Capability(CapKind.RECV, obj))
        yield  # pragma: no cover

    def _sys_create_sgate(self, vpe, slot, rgate_sel, label, credits):
        rgate_cap = vpe.captable.get(rgate_sel, CapKind.RECV)
        obj = SendGateObject(rgate_cap.obj, label, credits)
        return vpe.captable.insert(rgate_cap.derive(obj, kind=CapKind.SEND))
        yield  # pragma: no cover

    def _sys_activate(self, vpe, slot, ep_index, cap_sel):
        if not (0 <= ep_index < len(vpe.pe.dtu.eps)):
            raise SyscallError(f"endpoint {ep_index} out of range")
        if cap_sel < 0:
            yield from self.dtu.configure_remote(vpe.node, "invalidate", ep_index)
            return ()
        cap = vpe.captable.get(cap_sel)
        if cap.kind == CapKind.RECV:
            if cap.obj.owner is not None and cap.obj.owner is not vpe:
                raise SyscallError(
                    "an active receive gate cannot move to another VPE"
                )
            cap.obj.owner = vpe
        elif cap.kind == CapKind.SEND and not cap.obj.target.active:
            # Defer until the receiver is ready (Section 4.5.4).
            cap.obj.target.pending_activations.append(
                (vpe, slot, ep_index, cap)
            )
            return NO_REPLY
        registers = self._registers_for(cap)
        yield from self.dtu.configure_remote(
            vpe.node, "configure", ep_index, registers
        )
        self._bind_ep(vpe, ep_index, cap)
        if cap.kind == CapKind.RECV:
            cap.obj.ep_index = ep_index
            self._flush_pending_activations(cap.obj)
        return ()

    def _bind_ep(self, vpe, ep_index: int, cap: Capability) -> None:
        """Record that ``cap`` now occupies (vpe, ep); unbind the previous
        occupant so revocation only invalidates live configurations."""
        key = (vpe.id, ep_index)
        previous = self._ep_bindings.get(key)
        if previous is not None:
            previous.bound_eps.discard(key)
        self._ep_bindings[key] = cap
        cap.bound_eps.add(key)

    def _flush_pending_activations(self, rgate: RecvGateObject) -> None:
        """Complete send-gate activations deferred on ``rgate``."""
        pending, rgate.pending_activations = rgate.pending_activations, []
        for waiter_vpe, slot, ep_index, cap in pending:

            def completion(waiter_vpe=waiter_vpe, slot=slot,
                           ep_index=ep_index, cap=cap):
                registers = self._registers_for(cap)
                yield from self.dtu.configure_remote(
                    waiter_vpe.node, "configure", ep_index, registers
                )
                self._bind_ep(waiter_vpe, ep_index, cap)
                self._reply(waiter_vpe, slot, ("ok", ()))

            self.sim.process(completion(), "kernel.deferred-activate")

    def _registers_for(self, cap: Capability) -> EndpointRegisters:
        if cap.kind == CapKind.SEND:
            gate: SendGateObject = cap.obj
            if gate.target.ep_index is None:
                raise SyscallError("target receive gate is not activated")
            return EndpointRegisters.send_config(
                target_node=gate.target.node,
                target_ep=gate.target.ep_index,
                label=gate.label,
                credits=gate.credits,
                msg_size=gate.target.slot_size,
            )
        if cap.kind == CapKind.RECV:
            gate: RecvGateObject = cap.obj
            return EndpointRegisters.receive_config(
                buffer_addr=0,
                slot_size=gate.slot_size,
                slot_count=gate.slot_count,
            )
        if cap.kind == CapKind.MEM:
            region: MemObject = cap.obj
            return EndpointRegisters.memory_config(
                region.node, region.address, region.size, region.perm
            )
        raise SyscallError(f"cannot activate a {cap.kind.value} capability")

    def _sys_delegate(self, vpe, slot, vpe_sel, src_sel):
        target = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        source_cap = vpe.captable.get(src_sel)
        if isinstance(target, RemoteVpeObject):
            if source_cap.kind != CapKind.MEM:
                raise SyscallError(
                    "only memory capabilities can be delegated across "
                    "kernel domains"
                )
            region: MemObject = source_cap.obj

            def completion(payload):
                self._reply(vpe, slot, payload)

            self._ik_request(
                target.kernel_id, "delegate_mem",
                (target.remote_id, region.node, region.address,
                 region.size, region.perm.value),
                completion,
            )
            return NO_REPLY
        if source_cap.kind == CapKind.RECV and source_cap.obj.active:
            # "the kernel only allows to delegate/obtain send and memory
            # capabilities, but not receive capabilities" once active
            # (Section 4.5.4); inactive receive gates are still movable.
            raise SyscallError("active receive capabilities cannot be delegated")
        return target.captable.insert(source_cap.derive())
        yield  # pragma: no cover

    def _sys_revoke(self, vpe, slot, src_sel):
        cap = vpe.captable.get(src_sel)
        removed = revoke(cap)
        for victim in removed:
            yield from self._teardown(victim)
        return len(removed)

    def _teardown(self, cap: Capability):
        """Generator: undo hardware/software state behind a revoked cap."""
        # Invalidate every endpoint this capability is configured on —
        # revocation must cut hardware access, not just bookkeeping.
        for vpe_id, ep_index in sorted(cap.bound_eps):
            self._ep_bindings.pop((vpe_id, ep_index), None)
            holder = self.vpes.get(vpe_id)
            if holder is not None and holder.state != VpeState.DEAD:
                yield from self.dtu.configure_remote(
                    holder.node, "invalidate", ep_index
                )
        cap.bound_eps.clear()
        if cap.kind == CapKind.RECV and cap.obj.ep_index is not None:
            cap.obj.ep_index = None
        elif cap.kind == CapKind.VPE:
            vpe = cap.obj
            if isinstance(vpe, RemoteVpeObject):
                # Best-effort kill in the owning domain; the local proxy
                # is marked dead immediately.
                if vpe.state != VpeState.DEAD:
                    self._ik_request(vpe.kernel_id, "vpe_revoke",
                                     (vpe.remote_id,), lambda payload: None)
                    vpe.state = VpeState.DEAD
            elif vpe.state != VpeState.DEAD:
                # "the owner of the VPE capability could revoke it to let
                # the kernel reset the associated PE" (Section 4.5.5).
                occupant = vpe.pe.occupant
                if occupant is not None and occupant.alive:
                    occupant.interrupt("vpe-revoked")
                self.vpe_exited(vpe, None)
        elif cap.kind == CapKind.MEM and cap.parent is None and not cap.foreign:
            region: MemObject = cap.obj
            if region.node == self.platform.dram_node:
                self.memory.free(region.address, region.size)

    def _sys_create_srv(self, vpe, slot, name, rgate_sel):
        if name in self.services:
            raise SyscallError(f"service {name!r} already registered")
        rgate_cap = vpe.captable.get(rgate_sel, CapKind.RECV)
        if rgate_cap.obj.ep_index is None:
            raise SyscallError("service receive gate must be activated first")
        service = ServiceObject(name=name, rgate=rgate_cap.obj, owner=vpe)
        self.services[name] = service
        # The kernel<->service channel, "created at service registration"
        # (Section 4.5.3): a send endpoint on the kernel's own DTU.
        ep_index = self._next_service_ep
        if ep_index >= len(self.dtu.eps):
            raise SyscallError("kernel is out of service endpoints")
        self._next_service_ep += 1
        self._service_eps[name] = ep_index
        self.dtu.configure_local(
            "configure",
            ep_index,
            EndpointRegisters.send_config(
                target_node=service.rgate.node,
                target_ep=service.rgate.ep_index,
                label=0,  # label 0 marks the kernel to the service
                credits=service.rgate.slot_count,
                msg_size=service.rgate.slot_size,
            ),
        )
        return vpe.captable.insert(
            rgate_cap.derive(service, kind=CapKind.SERVICE)
        )
        yield  # pragma: no cover

    # -- the session router (replicated service tiers) -------------------

    def register_route(self, name: str, replicas,
                       policy: str = "rr") -> None:
        """Route ``open_session(name)`` across service replicas.

        ``replicas`` is an ordered sequence of ``(service_name,
        kernel_id)`` pairs — the concrete instances of a replicated
        service and the kernel domains hosting them.  Every kernel in
        the system registers the same route (see
        :meth:`M3System.register_service_route`), so each balances its
        own clients; remote replicas are reached through the existing
        inter-kernel ``srv_open`` path.

        ``policy`` selects the balancing strategy: ``"rr"`` (classic
        round-robin, the default) or ``"depth"`` (least queue depth
        with round-robin tiebreak, fed by the depth piggyback on
        inter-kernel traffic).  Re-registering an existing route —
        the autoscaler growing or shrinking the replica set — keeps
        the cursor, so surviving replicas keep their rotation slot.
        """
        if policy not in ("rr", "depth"):
            raise ValueError(f"unknown route policy {policy!r}")
        replicas = tuple(replicas)
        if not replicas:
            raise ValueError(f"route {name!r} needs at least one replica")
        for replica, owner in replicas:
            if replica == name:
                raise ValueError(
                    f"route {name!r} cannot contain itself as a replica"
                )
            if owner != self.kernel_id and owner not in self.peers:
                raise ValueError(f"route {name!r}: unknown domain {owner}")
        self.service_routes[name] = replicas
        self._route_cursor.setdefault(name, 0)
        self._route_policy[name] = policy
        if policy == "depth":
            self._gossip_depths = True

    def _resolve_route(self, name: str) -> str:
        """Logical name -> next live replica; a name with no route
        resolves to itself.

        ``"rr"`` routes rotate a cursor over the live replicas;
        ``"depth"`` routes pick the smallest known queue depth among
        them, breaking ties in cursor order (so equal-depth replicas
        still rotate).  When every replica's domain is dead the router
        fails fast with a deterministic error instead of handing a
        stale name to the remote-session probe.
        """
        replicas = self.service_routes.get(name)
        if not replicas:
            return name
        cursor = self._route_cursor[name]
        if self._route_policy.get(name) == "depth":
            best = None
            best_offset = None
            for offset in range(len(replicas)):
                replica, owner = replicas[(cursor + offset) % len(replicas)]
                if owner != self.kernel_id and owner in self.dead_peers:
                    continue
                depth = self._routed_depth(replica, owner)
                if best is None or depth < best[1]:
                    best = (replica, depth)
                    best_offset = offset
            if best is not None:
                self._route_cursor[name] = \
                    (cursor + best_offset + 1) % len(replicas)
                self.route_counts[best[0]] = \
                    self.route_counts.get(best[0], 0) + 1
                return best[0]
        else:
            for offset in range(len(replicas)):
                replica, owner = replicas[(cursor + offset) % len(replicas)]
                if owner == self.kernel_id or owner not in self.dead_peers:
                    self._route_cursor[name] = \
                        (cursor + offset + 1) % len(replicas)
                    self.route_counts[replica] = \
                        self.route_counts.get(replica, 0) + 1
                    return replica
        # Every replica domain is dead.  Fail fast and deterministically
        # — the cursor and route_counts stay untouched, so accounting
        # still matches the sessions actually dispatched, and no stale
        # replica name is handed to the remote-session probe toward a
        # domain failover already declared dead.
        if self.sim.obs is not None and self.sim.obs.flight is not None:
            self.sim.obs.flight.dump(
                f"kernel{self.kernel_id}: no live replica for route "
                f"{name!r}",
                domain=self.kernel_id,
            )
        raise SyscallError(f"no live replica for route {name!r}")

    # -- queue-depth telemetry (piggybacked on inter-kernel traffic) -----

    def _local_depth(self, replica: str) -> int:
        """Queue depth of a locally-owned replica: unserved messages in
        its service inbox (the receive ring the kernel configured for
        it) plus session negotiations still in flight toward it."""
        service = self.services.get(replica)
        if service is None:
            return 0
        rgate = service.rgate
        ring = self.platform.pe(rgate.node).dtu._ringbufs.get(rgate.ep_index)
        depth = ring.occupied if ring is not None else 0
        for pending in self._pending_sessions.values():
            if service in pending:
                depth += 1
        return depth

    def _routed_depth(self, replica: str, owner: int) -> int:
        """Best known queue depth of a routed replica: measured directly
        when this kernel owns it, else the freshest gossiped value (a
        replica never heard about counts as idle)."""
        if owner == self.kernel_id:
            return self._local_depth(replica)
        known = self.replica_depths.get(replica)
        return known[1] if known is not None else 0

    def _ik_rider(self):
        """The depth piggyback for an outgoing inter-kernel message:
        fresh samples for locally-owned routed replicas merged over the
        newest relayed knowledge, as sorted ``(name, stamp, depth)``
        rows.  ``None`` (the common case) keeps the wire payload
        byte-identical to the pre-elastic two-tuple."""
        if not self._gossip_depths:
            return None
        view = dict(self.replica_depths)
        for replicas in self.service_routes.values():
            for replica, owner in replicas:
                if owner == self.kernel_id and replica in self.services:
                    view[replica] = (self.sim.now, self._local_depth(replica))
        if not view:
            return None
        return tuple(sorted(
            (name, stamp, depth) for name, (stamp, depth) in view.items()
        ))

    def _absorb_rider(self, rider) -> None:
        """Merge a peer's depth piggyback; newest stamp per replica
        wins, so relayed third-party knowledge cannot roll back a
        fresher direct sample."""
        self._gossip_depths = True
        for name, stamp, depth in rider:
            known = self.replica_depths.get(name)
            if known is None or stamp > known[0]:
                self.replica_depths[name] = (stamp, depth)

    def _sys_open_session(self, vpe, slot, name):
        name = self._resolve_route(name)
        service = self.services.get(name)
        if service is None:
            if self.peers:
                # Remote service lookup: the name may be registered with
                # a peer kernel's domain.
                self._open_remote_session(vpe, slot, name)
                return NO_REPLY
            raise SyscallError(f"no service {name!r}")
        session_id = service.next_session_id()
        # Negotiate with the service over the kernel<->service channel;
        # the reply (labelled with the negotiation id) completes the
        # session asynchronously — the kernel loop must stay responsive
        # because the service may be blocked in a syscall of its own.
        negotiation = next(self._negotiation_ids)
        self._pending_sessions[negotiation] = (
            "local", vpe, slot, service, session_id
        )
        yield self.dtu.send(
            self._service_eps[name],
            ("open_session", (session_id, vpe.id)),
            SYSCALL_MSG_BYTES,
            reply_ep=KERNEL_REPLY_EP,
            reply_label=negotiation,
        )
        return NO_REPLY

    def _handle_service_reply(self, slot, message):
        """Generator: complete a parked negotiation — a session being
        opened with a local service, or an inter-kernel request this
        kernel sent to a peer."""
        obs = self.sim.obs
        self.dtu.ack_message(KERNEL_REPLY_EP, slot)
        continuation = self._ik_pending.pop(message.label, None)
        if continuation is not None:
            outstanding = self._ik_outstanding.pop(message.label, None)
            if outstanding is not None:
                # The RPC is answered: disarm the retry timer at once
                # (an uncancelled timer would also drag sim.now out) and
                # reconcile the credits spent on retransmits — kernel-
                # level duplicates are acked, not replied to, so they
                # never refill the peer send endpoint on their own.
                if outstanding["timer"] is not None:
                    self.sim.cancel(outstanding["timer"])
                self._refund_ik_credits(outstanding, outstanding["extra_sends"])
            # A peer kernel answered an inter-kernel request: the
            # continuation runs as a child of the peer's reply message,
            # so the cross-domain hop stays on the causal chain.
            span = -1
            if obs is not None:
                span = obs.begin("ik_reply", "ik", self.node,
                                 parent=header_context(message.header))
            yield self.sim.delay(params.M3_KERNEL_DISPATCH_CYCLES, tag=Tag.OS)
            try:
                continuation(message.payload)
            finally:
                if obs is not None:
                    obs.end(span)
            return
        pending = self._pending_sessions.pop(message.label, None)
        if pending is None:
            return
        span = -1
        if obs is not None:
            # Finishing a parked session negotiation: on behalf of a
            # peer domain ("remote" — inter-kernel work) or of a local
            # client's open_session syscall.
            name, category = (
                ("srv_open.finish", "ik") if pending[0] == "remote"
                else ("open_session.finish", "syscall")
            )
            span = obs.begin(name, category, self.node,
                             parent=header_context(message.header))
        yield self.sim.delay(params.M3_KERNEL_DISPATCH_CYCLES, tag=Tag.OS)
        try:
            self._finish_pending_session(pending, message)
        finally:
            if obs is not None:
                obs.end(span)

    def _finish_pending_session(self, pending, message) -> None:
        """Complete one parked session negotiation (service replied)."""
        status, _detail = message.payload
        if pending[0] == "remote":
            # A session negotiated on behalf of a peer kernel's client:
            # answer over the inter-kernel channel with the service
            # gate's location so the peer can build the send gate.
            _kind, ik_slot, service, session_id, client_kernel, client_vpe \
                = pending
            if status != "ok":
                self._ik_reply(ik_slot, (
                    "err", f"service {service.name!r} denied the session"
                ))
                return
            service.sessions[session_id] = RemoteClientRef(
                kernel_id=client_kernel, vpe_id=client_vpe
            )
            rgate = service.rgate
            self._ik_reply(ik_slot, (
                "ok",
                (session_id, rgate.node, rgate.ep_index, rgate.slot_size),
            ))
            return
        _kind, vpe, syscall_slot, service, session_id = pending
        if status != "ok":
            self._reply(
                vpe, syscall_slot,
                ("err", f"service {service.name!r} denied the session"),
            )
            return
        session = SessionObject(service=service, label=session_id, client=vpe)
        session_sel = vpe.captable.insert(Capability(CapKind.SESSION, session))
        sgate = SendGateObject(
            target=service.rgate, label=session_id, credits=2
        )
        sgate_sel = vpe.captable.insert(Capability(CapKind.SEND, sgate))
        service.sessions[session_id] = vpe
        self._reply(vpe, syscall_slot, ("ok", (session_sel, sgate_sel)))

    def _open_remote_session(self, vpe, slot, name: str) -> None:
        """Probe peer kernels for service ``name``, cached owner first,
        then in kernel-id order, until one accepts the session.  Dead
        peers are skipped — failover purges their cache entries, so a
        replica registered with a surviving domain takes over."""
        candidates = self._live_peers()
        cached = self._remote_services.get(name)
        if cached is not None and cached in candidates:
            candidates.remove(cached)
            candidates.insert(0, cached)
        self._probe_remote_service(vpe, slot, name, candidates, 0)

    def _probe_remote_service(self, vpe, slot, name, candidates,
                              index) -> None:
        if index >= len(candidates):
            self._remote_services.pop(name, None)
            self._reply(vpe, slot, ("err", f"no service {name!r}"))
            return
        peer = candidates[index]

        def completion(payload):
            status, detail = payload
            if status != "ok":
                self._probe_remote_service(vpe, slot, name, candidates,
                                           index + 1)
                return
            session_id, rgate_node, rgate_ep, slot_size = detail
            self._remote_services[name] = peer
            stub = RemoteGateStub(node=rgate_node, ep_index=rgate_ep,
                                  slot_size=slot_size)
            session = SessionObject(
                service=RemoteServiceRef(name=name, kernel_id=peer),
                label=session_id, client=vpe,
            )
            session_sel = vpe.captable.insert(
                Capability(CapKind.SESSION, session)
            )
            sgate = SendGateObject(target=stub, label=session_id, credits=2)
            sgate_sel = vpe.captable.insert(Capability(CapKind.SEND, sgate))
            self._reply(vpe, slot, ("ok", (session_sel, sgate_sel)))

        self._ik_request(peer, "srv_open", (name, vpe.id), completion)

    def _sys_srv_delegate(self, vpe, slot, service_sel, session_id,
                          src_mem_sel, offset, size, perm_value):
        service_cap = vpe.captable.get(service_sel, CapKind.SERVICE)
        service: ServiceObject = service_cap.obj
        client = service.sessions.get(session_id)
        if client is None:
            raise SyscallError(f"no session {session_id} at {service.name!r}")
        source_cap = vpe.captable.get(src_mem_sel, CapKind.MEM)
        derived = source_cap.obj.slice(offset, size, MemoryPerm(perm_value))
        if isinstance(client, RemoteClientRef):
            # The client lives in a peer domain: forward the derived
            # region's descriptor; the peer installs a foreign cap and
            # replies with the client-side selector.
            def completion(payload):
                self._reply(vpe, slot, payload)

            self._ik_request(
                client.kernel_id, "delegate_mem",
                (client.vpe_id, derived.node, derived.address,
                 derived.size, derived.perm.value),
                completion,
            )
            return NO_REPLY
        return client.captable.insert(source_cap.derive(derived))
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # Inter-kernel protocol (multi-kernel layouts only).  Requests ride
    # ordinary DTU messages between kernel send gates; replies come back
    # on the standard reply endpoint, labelled with a negotiation id
    # like a session negotiation (see docs/protocols.md).
    # ------------------------------------------------------------------

    def _ik_request(self, peer: int, operation: str, args: tuple,
                    continuation, no_timeout: bool = False,
                    timeout_base: int | None = None,
                    max_attempts: int | None = None) -> None:
        """Send ``(operation, args)`` to a peer kernel; ``continuation``
        is a plain (non-blocking) callable run with the peer's reply
        payload, so the kernel loop never waits on a peer.

        On a reliable DTU the request becomes an idempotent RPC: the
        negotiation id doubles as the kernel-level sequence number (it
        rides every copy as the reply label), a per-request timer
        retransmits the *same* id with capped exponential backoff, and
        a request that stays unanswered through ``max_attempts`` is
        completed with an explicit ``("timeout", ...)`` verdict instead
        of hanging forever.  ``no_timeout`` requests — cross-domain
        waits, which legitimately stay open arbitrarily long — re-poll
        at the capped interval (the peer's reply cache absorbs the
        duplicates) and are only failed by peer-death failover.  On a
        best-effort DTU nothing is armed and the path is cycle-
        identical to the fire-and-forget protocol.
        """
        if peer in self.dead_peers:
            # Fast-fail instead of waiting out a timeout against a peer
            # failover already declared dead.
            self.sim.call_soon(
                lambda _: continuation(
                    ("err", f"kernel domain {peer} failed")
                )
            )
            return
        negotiation = next(self._negotiation_ids)
        self._ik_pending[negotiation] = continuation
        self.ik_requests_sent += 1
        if self.sim.obs is not None:
            self.sim.obs.count(f"kernel{self.kernel_id}.ik_requests")
        self.sim.ledger.charge(Tag.OS, params.M3_KERNEL_REPLY_CYCLES)
        rider = self._ik_rider()
        done = self.dtu.send(
            self.peers[peer],
            (operation, args) if rider is None
            else (operation, args, rider),
            IK_MSG_BYTES,
            reply_ep=KERNEL_REPLY_EP,
            reply_label=negotiation,
        )
        if not self.dtu._reliable:
            return
        entry = {
            "peer": peer,
            "operation": operation,
            "args": args,
            "attempts": 1,
            "timer": None,
            "no_timeout": no_timeout,
            "base": timeout_base or params.IK_RPC_TIMEOUT_CYCLES,
            "max_attempts": max_attempts or params.IK_RPC_MAX_ATTEMPTS,
            "extra_sends": 0,
        }
        self._ik_outstanding[negotiation] = entry
        self._arm_ik_timer(negotiation, entry)
        done.add_callback(
            lambda event: self._ik_send_failed(negotiation, event)
        )

    def _ik_backoff(self, entry: dict) -> int:
        """The retry interval before attempt ``attempts + 1``: capped
        exponential backoff in pure integer arithmetic, so the schedule
        is exact and bit-identical across runs."""
        timeout = entry["base"] * (
            params.IK_RPC_BACKOFF ** (entry["attempts"] - 1)
        )
        return min(timeout, params.IK_RPC_TIMEOUT_CAP_CYCLES)

    def _arm_ik_timer(self, negotiation: int, entry: dict) -> None:
        entry["timer"] = self.sim.schedule(
            self._ik_backoff(entry),
            lambda _: self._ik_timer_fired(negotiation),
        )

    def _ik_send_failed(self, negotiation: int, event) -> None:
        """The DTU gave up on a copy of an outstanding RPC (the peer's
        hardware never acked — dead node or partitioned NoC): move the
        RPC forward immediately instead of waiting out its timer."""
        if event.ok or negotiation not in self._ik_outstanding:
            return
        self._ik_timer_fired(negotiation)

    def _ik_timer_fired(self, negotiation: int) -> None:
        """An outstanding RPC went unanswered for its backoff interval:
        retransmit it under the same negotiation id (the peer's dedup
        absorbs duplicates), or complete it with a timeout verdict."""
        entry = self._ik_outstanding.get(negotiation)
        if entry is None:
            return  # answered in the meantime
        if entry["timer"] is not None:
            self.sim.cancel(entry["timer"])
            entry["timer"] = None
        if self.pe.failed:
            # This kernel's own PE was killed: its RPCs die with it
            # (peers detect the death via their heartbeats).
            self._ik_outstanding.pop(negotiation, None)
            return
        peer = entry["peer"]
        if peer in self.dead_peers:
            return  # failover errs the continuation; nothing to retry to
        if not entry["no_timeout"] and entry["attempts"] >= entry["max_attempts"]:
            self._ik_outstanding.pop(negotiation, None)
            continuation = self._ik_pending.pop(negotiation, None)
            self.ik_timeouts += 1
            if self.sim.obs is not None:
                self.sim.obs.count(f"kernel{self.kernel_id}.ik_timeouts")
            self.sim.ledger.mark(
                self.sim.now, Tag.FAULT,
                f"{self.label}: ik {entry['operation']} to kernel {peer} "
                f"timed out after {entry['attempts']} attempts",
            )
            # No reply will ever refund these credits.
            self._refund_ik_credits(entry, entry["attempts"])
            if continuation is not None:
                continuation((
                    "timeout",
                    f"inter-kernel {entry['operation']} to kernel {peer} "
                    f"got no reply after {entry['attempts']} attempts",
                ))
            return
        self.sim.ledger.charge(Tag.OS, params.M3_KERNEL_REPLY_CYCLES)
        rider = self._ik_rider()
        try:
            done = self.dtu.send(
                self.peers[peer],
                (entry["operation"], entry["args"]) if rider is None
                else (entry["operation"], entry["args"], rider),
                IK_MSG_BYTES,
                reply_ep=KERNEL_REPLY_EP,
                reply_label=negotiation,
            )
        except MissingCredits:
            # Out of credits mid-burst: re-check after the base interval
            # without burning an attempt (credits come back with any
            # outstanding reply or reconciliation).
            entry["timer"] = self.sim.schedule(
                entry["base"], lambda _: self._ik_timer_fired(negotiation)
            )
            return
        entry["attempts"] += 1
        entry["extra_sends"] += 1
        self.ik_retries += 1
        self.ik_retry_log.append(
            (self.sim.now, negotiation, entry["attempts"])
        )
        if self.sim.obs is not None:
            self.sim.obs.count(f"kernel{self.kernel_id}.ik_retries")
            self.sim.obs.instant(
                "ik_retry", "ik", self.node, peer=peer,
                operation=entry["operation"], attempt=entry["attempts"],
            )
        self._arm_ik_timer(negotiation, entry)
        done.add_callback(
            lambda event: self._ik_send_failed(negotiation, event)
        )

    def _refund_ik_credits(self, entry: dict, count: int) -> None:
        """Reconcile peer-endpoint credits for RPC copies whose replies
        will never arrive (clamped at the endpoint's maximum, so an
        over-refund from a late duplicate reply is harmless)."""
        ep_index = self.peers[entry["peer"]]
        for _ in range(count):
            self.dtu._reconcile_credit(ep_index)

    def _handle_ik_request(self, slot: int, message):
        """Generator: serve one request from a peer kernel.  The message
        label is the sender's kernel id (fixed by its send gate)."""
        # Idempotency: the (sender, negotiation id) pair identifies an
        # RPC across retransmitted copies.  A copy of an RPC we already
        # answered is re-answered from the reply cache; a copy of one we
        # are still serving (or have parked) is acked and dropped — the
        # original slot will produce the one reply.
        # The depth rider (if any) is absorbed before the dedup check:
        # duplicates carry fresh telemetry even when their operation is
        # dropped, and gossip must not depend on execution.
        if len(message.payload) == 3:
            operation, args, rider = message.payload
            self._absorb_rider(rider)
        else:
            operation, args = message.payload
        key = (message.label, message.header.reply_label)
        if key in self._ik_replied:
            self.ik_duplicates += 1
            if self.sim.obs is not None:
                self.sim.obs.count(f"kernel{self.kernel_id}.ik_duplicates")
            self._ik_reply(slot, self._ik_replied[key])
            return
        if key in self._ik_inflight:
            self.ik_duplicates += 1
            if self.sim.obs is not None:
                self.sim.obs.count(f"kernel{self.kernel_id}.ik_duplicates")
            self.dtu.ack_message(KERNEL_IK_EP, slot)
            return
        self._ik_inflight[key] = slot
        self.ik_requests_served += 1
        obs = self.sim.obs
        span = -1
        if obs is not None:
            obs.count(f"kernel{self.kernel_id}.ik_served")
            # Served as a child of the peer's request message: spans for
            # cross-domain work land in the originating request's tree.
            span = obs.begin(operation, "ik", self.node,
                             parent=header_context(message.header),
                             peer=message.label)
        yield self.sim.delay(params.M3_KERNEL_DISPATCH_CYCLES, tag=Tag.OS)
        handler = getattr(self, f"_ik_{operation}", None)
        try:
            if handler is None:
                raise SyscallError(f"unknown inter-kernel op {operation!r}")
            result = yield from handler(slot, message.label, *args)
        except (SyscallError, KeyError, ValueError, TypeError) as exc:
            reply = ("err", str(exc))
        else:
            if result is NO_REPLY:
                if obs is not None:
                    obs.end(span, phase="deferred")
                return
            reply = ("ok", result)
        self._ik_reply(slot, reply)
        if obs is not None:
            obs.end(span, status=reply[0])

    def _ik_reply(self, slot: int, payload) -> None:
        """Reply to (and thereby acknowledge) a peer kernel's request."""
        # Record the reply before sending it, keyed by the RPC identity
        # recovered from the still-unacked slot, so a retransmitted copy
        # of the same RPC gets the identical answer instead of being
        # re-executed (``create_vpe`` et al. are not naturally
        # idempotent).  The cache is bounded; the window only needs to
        # outlive the client's maximum backoff.
        try:
            message = self.dtu.ringbuffer(KERNEL_IK_EP).peek(slot)
        except (KeyError, ValueError):
            message = None
        if message is not None:
            key = (message.label, message.header.reply_label)
            if self._ik_inflight.get(key) == slot:
                del self._ik_inflight[key]
            self._ik_replied[key] = payload
            while len(self._ik_replied) > params.IK_RPC_REPLY_CACHE:
                self._ik_replied.popitem(last=False)
        self.sim.ledger.charge(Tag.OS, params.M3_KERNEL_REPLY_CYCLES)
        self.dtu.reply(KERNEL_IK_EP, slot, payload, IK_MSG_BYTES)

    # -- server side: what this kernel does for its peers ---------------

    def _ik_srv_open(self, slot, sender, name, client_vpe):
        """A peer kernel asks to open a session with a local service on
        behalf of one of its VPEs."""
        service = self.services.get(name)
        if service is None:
            raise SyscallError(f"no service {name!r}")
        session_id = service.next_session_id()
        negotiation = next(self._negotiation_ids)
        self._pending_sessions[negotiation] = (
            "remote", slot, service, session_id, sender, client_vpe
        )
        yield self.dtu.send(
            self._service_eps[name],
            ("open_session", (session_id, client_vpe)),
            SYSCALL_MSG_BYTES,
            reply_ep=KERNEL_REPLY_EP,
            reply_label=negotiation,
        )
        return NO_REPLY

    def _ik_delegate_mem(self, slot, sender, vpe_id, node, address, size,
                         perm_value):
        """Install a memory capability delegated from a peer domain.
        The cap is marked foreign: revoking it must not free the region
        into this kernel's allocator."""
        vpe = self.vpes.get(vpe_id)
        if vpe is None or vpe.state == VpeState.DEAD:
            raise SyscallError(f"no live VPE {vpe_id} in this domain")
        cap = Capability(
            CapKind.MEM, MemObject(node, address, size, MemoryPerm(perm_value))
        )
        cap.foreign = True
        return vpe.captable.insert(cap)
        yield  # pragma: no cover

    def _ik_create_vpe(self, slot, sender, name, pe_type):
        """Host a VPE spilled from a peer kernel's full domain."""
        child = yield from self.create_vpe(name, pe_type)
        return (child.id, child.node, child.pe.spm_data.size)

    def _ik_vpe_start(self, slot, sender, vpe_id, entry, args):
        vpe = self.vpes.get(vpe_id)
        if vpe is None:
            if self._forward_migrated(vpe_id, slot, "vpe_start",
                                      (entry, tuple(args))):
                return NO_REPLY
            raise SyscallError(f"no VPE {vpe_id} in this domain")
        self.start_vpe(vpe, entry, tuple(args))
        return ()
        yield  # pragma: no cover

    def _ik_vpe_wait(self, slot, sender, vpe_id):
        """Cross-domain VPE_WAIT: reply now if the VPE is dead, else
        park the ring slot until :meth:`vpe_exited` fires the exit
        notification."""
        vpe = self.vpes.get(vpe_id)
        if vpe is None:
            if self._forward_migrated(vpe_id, slot, "vpe_wait", ()):
                return NO_REPLY
            raise SyscallError(f"no VPE {vpe_id} in this domain")
        if vpe.state == VpeState.DEAD:
            return vpe.exit_code
        vpe.remote_waiters.append(slot)
        return NO_REPLY
        yield  # pragma: no cover

    def _ik_vpe_revoke(self, slot, sender, vpe_id):
        """Best-effort kill of a spilled VPE whose capability was
        revoked in the owning domain."""
        vpe = self.vpes.get(vpe_id)
        if vpe is None:
            if self._forward_migrated(vpe_id, slot, "vpe_revoke", ()):
                return NO_REPLY
            return ()
        if vpe.state == VpeState.DEAD:
            return ()
        occupant = vpe.pe.occupant
        if occupant is not None and occupant.alive:
            occupant.interrupt("vpe-revoked")
        self.vpe_exited(vpe, None)
        return ()
        yield  # pragma: no cover

    def _forward_migrated(self, vpe_id: int, slot: int, operation: str,
                          args: tuple) -> bool:
        """Forward a peer request naming a VPE this kernel migrated out
        to its new owner; the eventual verdict passes straight through
        to the original asker.  Returns whether it was forwarded."""
        forwarded = self._migrated_out.get(vpe_id)
        if forwarded is None:
            return False
        peer, new_id = forwarded
        self._ik_request(
            peer, operation, (new_id,) + tuple(args),
            lambda payload, s=slot: self._ik_reply(s, payload),
            no_timeout=(operation == "vpe_wait"),
        )
        return True

    def _ik_migrate_in(self, slot, sender, descriptor):
        """Host a VPE live-migrating in from a peer kernel's domain.

        The descriptor re-materializes on a free local PE: the SPM
        image and endpoint registers restore through the ordinary
        :meth:`restore_vpe` path (whose DTU redirect window now spans
        domains — the source DTU forwards in-flight traffic across the
        boundary until the window closes), the capability manifest
        rebuilds memory grants that stayed behind as foreign-flagged
        caps, and the syscall endpoint is rewired to *this* kernel with
        a locally-minted unforgeable id.  Duplicate deliveries (a
        retried RPC after a dropped reply) are absorbed by the
        inflight/reply-cache dedup before this handler runs, so the
        restore executes exactly once.
        """
        from repro.m3.kernel.checkpoint import VpeCheckpoint

        target = self.platform.find_free_pe(nodes=self.domain)
        if target is None or target.node == self.node:
            raise SyscallError(
                f"no free PE in kernel domain {self.kernel_id} to host a "
                f"migrating VPE"
            )
        source_pe = self.platform.pe(descriptor.node)
        vpe = VpeObject(descriptor.name, source_pe, next(self._vpe_ids))
        vpe.kernel = self
        vpe.state = VpeState.RUNNING
        vpe.migrations = descriptor.migrations
        vpe.last_entry = descriptor.last_entry
        self.vpes[vpe.id] = vpe
        for selector, kind_value, detail in descriptor.caps:
            kind = CapKind(kind_value)
            if kind == CapKind.VPE and detail is None:
                vpe.captable.insert(Capability(CapKind.VPE, vpe), selector)
            elif kind == CapKind.MEM and detail is not None:
                node, address, size, perm_value, was_foreign = detail
                if (node == descriptor.node and address == 0
                        and not was_foreign):
                    # The VPE's own SPM grant follows it to the new PE.
                    cap = Capability(CapKind.MEM, MemObject(
                        target.node, 0, size, MemoryPerm(perm_value)
                    ))
                else:
                    # Memory in (or delegated through) another domain:
                    # still reachable over the NoC, but never owned
                    # here — teardown must not free it locally.
                    cap = Capability(CapKind.MEM, MemObject(
                        node, address, size, MemoryPerm(perm_value)
                    ))
                    cap.foreign = True
                vpe.captable.insert(cap, selector)
            # Session/gate capabilities do not survive the crossing:
            # their kernel-side state lives with the source domain
            # (documented limitation — services reconnect after moving).
        env = descriptor.env
        if env is not None:
            env.vpe_id = vpe.id
            self.envs[vpe.id] = env
        checkpoint = VpeCheckpoint(
            vpe_id=descriptor.vpe_id,
            name=descriptor.name,
            node=descriptor.node,
            spm_image=descriptor.spm_image,
            alloc_mark=descriptor.alloc_mark,
            eps=descriptor.eps,
            caps=tuple(
                (selector, kind_value)
                for selector, kind_value, _detail in descriptor.caps
            ),
            taken_at=descriptor.taken_at,
        )
        yield from self.restore_vpe(checkpoint, target, vpe)
        if self.ctxsw.resident.get(target.node) is None:
            self.ctxsw.adopt(vpe)
        # The syscall channel now belongs to this kernel: same endpoint
        # index (client-side bindings stay valid), new target node, and
        # the id minted here — unforgeable, exactly like at boot.
        yield from self.dtu.configure_remote(
            target.node,
            "configure",
            APP_SYSCALL_EP,
            EndpointRegisters.send_config(
                target_node=self.node,
                target_ep=KERNEL_SYSCALL_EP,
                label=vpe.id,
                credits=2,
                msg_size=SYSCALL_MSG_BYTES + HEADER_BYTES,
            ),
        )
        self.migrations_in += 1
        if self.sim.obs is not None:
            self.sim.obs.count("kernel.migrations_in")
            self.sim.obs.instant("migrate_in", "migrate", target.node,
                                 vpe=vpe.id, peer=sender,
                                 source=descriptor.node)
        return (vpe.id, target.node)

    def _ik_heartbeat(self, slot, sender, peer_id):
        """Liveness probe from the ring predecessor.  Serving the
        request at all is the proof of life; the payload confirms who
        answered."""
        return ("alive", self.kernel_id)
        yield  # pragma: no cover

    def _ik_peer_down(self, slot, sender, dead_id, reason):
        """A peer announces a third kernel's death so every survivor
        converges on the same membership view without waiting for its
        own heartbeat verdict."""
        if dead_id != self.kernel_id:
            self._declare_peer_dead(dead_id, reason, announce=False)
        return ()
        yield  # pragma: no cover

    # -- heartbeats and kernel-domain failover ---------------------------

    def start_heartbeat(self, period: int = params.KERNEL_HEARTBEAT_PERIOD,
                        miss_limit: int = params.KERNEL_HEARTBEAT_MISS_LIMIT):
        """Probe the next live kernel in the ring every ``period``
        cycles; ``miss_limit`` consecutive timeout verdicts declare the
        peer dead and trigger failover.  Heartbeats ride the reliable
        inter-kernel RPC layer, so they are only meaningful on reliable
        DTUs — a best-effort probe could never distinguish loss from
        death."""
        if not self.peers:
            raise RuntimeError(f"{self.label}: no peers to heartbeat")
        if self._heartbeat is not None and not self._heartbeat_stop:
            raise RuntimeError(f"{self.label}: heartbeat already running")
        self._heartbeat_stop = False
        self._heartbeat_misses = {}
        self._heartbeat = self.sim.process(
            self._heartbeat_loop(period, miss_limit),
            f"{self.label}.heartbeat",
        )
        return self._heartbeat

    def stop_heartbeat(self) -> None:
        self._heartbeat_stop = True

    def _ring_successor(self) -> int | None:
        """The next live kernel id after ours, wrapping around — each
        kernel probes exactly one successor, so the ring as a whole
        covers every member with k probes per period."""
        live = self._live_peers()
        if not live:
            return None
        for peer in live:
            if peer > self.kernel_id:
                return peer
        return live[0]

    def _heartbeat_loop(self, period: int, miss_limit: int):
        while True:
            yield self.sim.delay(period)
            if self._heartbeat_stop or self.pe.failed:
                return
            target = self._ring_successor()
            if target is None:
                return
            self.heartbeats_sent += 1
            if self.sim.obs is not None:
                self.sim.obs.count(f"kernel{self.kernel_id}.heartbeats")
            self.sim.ledger.charge(Tag.OS, params.KERNEL_PROBE_CYCLES)
            self._ik_request(
                target, "heartbeat", (self.kernel_id,),
                lambda payload, target=target: self._heartbeat_verdict(
                    target, payload, miss_limit
                ),
                timeout_base=params.KERNEL_HEARTBEAT_RPC_TIMEOUT_CYCLES,
                max_attempts=params.KERNEL_HEARTBEAT_RPC_ATTEMPTS,
            )

    def _heartbeat_verdict(self, target: int, payload, miss_limit: int) -> None:
        if target in self.dead_peers:
            return
        if payload[0] == "ok":
            self._heartbeat_misses[target] = 0
            return
        misses = self._heartbeat_misses.get(target, 0) + 1
        self._heartbeat_misses[target] = misses
        if self.sim.obs is not None:
            self.sim.obs.count(f"kernel{self.kernel_id}.heartbeat_misses")
        if misses >= miss_limit:
            self._declare_peer_dead(
                target, f"{misses} consecutive heartbeat timeouts"
            )

    def _declare_peer_dead(self, peer: int, reason: str,
                           announce: bool = True) -> None:
        """Commit to the verdict that kernel ``peer`` is gone and spawn
        the failover process that cleans up after it."""
        if peer in self.dead_peers or peer not in self.peers:
            return
        detected = self.sim.now
        self.dead_peers.add(peer)
        self._heartbeat_misses.pop(peer, None)
        obs = self.sim.obs
        if obs is not None:
            obs.count(f"kernel{self.kernel_id}.peer_deaths")
            alert = None
            if obs.slo_monitors:
                from repro.obs.slo import last_alert_before

                alert = last_alert_before(obs, detected)
                if alert is not None:
                    self.failover_alerts[peer] = alert
            if alert is not None:
                obs.instant(
                    "peer_dead", "ik", self.node, peer=peer,
                    reason=reason, slo=alert[1], slo_severity=alert[2],
                    slo_cycle=alert[0],
                )
            else:
                obs.instant(
                    "peer_dead", "ik", self.node, peer=peer,
                    reason=reason,
                )
            if obs.flight is not None:
                obs.flight.dump(
                    f"kernel{self.kernel_id}: domain {peer} declared "
                    f"dead ({reason})",
                    domain=peer,
                )
        self.sim.ledger.mark(
            detected, Tag.FAULT,
            f"{self.label}: declared kernel {peer} dead ({reason})",
        )
        self.sim.process(
            self._fail_over(peer, reason, detected, announce),
            f"{self.label}.failover.k{peer}",
        )

    def _fail_over(self, peer: int, reason: str, detected: int,
                   announce: bool):
        """Generator: quarantine a dead kernel domain.  Errs out every
        RPC we still owed it an answer for, answers every local wait
        that was parked on it, fails its PEs so orphaned software stops
        cleanly, revokes capabilities that point into the dead domain,
        and re-points cached service ownership at survivors."""
        # 1. Outstanding RPCs *to* the dead peer: no reply will ever
        # come — err their continuations now (this is what un-parks a
        # cross-domain VPE_WAIT whose target domain died).
        for negotiation in sorted(self._ik_outstanding):
            entry = self._ik_outstanding[negotiation]
            if entry["peer"] != peer:
                continue
            del self._ik_outstanding[negotiation]
            if entry["timer"] is not None:
                self.sim.cancel(entry["timer"])
                entry["timer"] = None
            self._refund_ik_credits(entry, entry["attempts"])
            continuation = self._ik_pending.pop(negotiation, None)
            if continuation is not None:
                continuation(
                    ("err", f"kernel domain {peer} failed: {reason}")
                )
        # 2. Requests *from* the dead peer that we were still serving or
        # had parked: nobody is waiting for these replies any more.
        for key in sorted(k for k in self._ik_inflight if k[0] == peer):
            slot = self._ik_inflight.pop(key)
            for vpe in self.vpes.values():
                if slot in vpe.remote_waiters:
                    vpe.remote_waiters.remove(slot)
            self.dtu.ack_message(KERNEL_IK_EP, slot)
        for negotiation in sorted(self._pending_sessions):
            pending = self._pending_sessions[negotiation]
            if pending[0] == "remote" and pending[4] == peer:
                del self._pending_sessions[negotiation]
        # 3. Quarantine the dead domain's PEs: fail them so any orphaned
        # software (spilled VPEs we started over there) stops instead of
        # deadlocking the run, and wipe their DTUs where reachable.
        dead_nodes = set(self._peer_domains.get(peer, ()))
        for node in sorted(dead_nodes):
            pe = self.platform.pe(node)
            if not pe.failed:
                pe.fail(cause=f"kernel domain {peer} failed")
            try:
                yield from self.dtu.configure_remote(node, "wipe")
            except DtuError:
                pass
        # 4. Capabilities that point into the dead domain are now
        # dangling: revoke them (sessions with its services, send gates
        # at its gates, foreign memory in its address space) and mark
        # proxies of its VPEs dead.
        for vpe_id in sorted(self.vpes):
            vpe = self.vpes[vpe_id]
            if vpe.state == VpeState.DEAD:
                continue
            for cap in vpe.captable.caps():
                if cap.table is None:
                    continue
                doomed = False
                obj = cap.obj
                if cap.kind == CapKind.VPE and isinstance(obj, RemoteVpeObject):
                    if obj.kernel_id == peer and obj.state != VpeState.DEAD:
                        obj.state = VpeState.DEAD
                        obj.exit_code = (
                            "failed", f"kernel domain {peer} failed"
                        )
                elif cap.kind == CapKind.SESSION and isinstance(
                        obj.service, RemoteServiceRef):
                    doomed = obj.service.kernel_id == peer
                elif cap.kind == CapKind.SEND and isinstance(
                        obj.target, RemoteGateStub):
                    doomed = obj.target.node in dead_nodes
                elif cap.kind == CapKind.MEM and cap.foreign:
                    doomed = obj.node in dead_nodes
                if doomed:
                    for victim in revoke(cap):
                        yield from self._teardown(victim)
        # Local services may hold sessions opened on behalf of the dead
        # kernel's clients; those clients are gone.
        for service in self.services.values():
            stale = [
                session_id
                for session_id, client in service.sessions.items()
                if isinstance(client, RemoteClientRef)
                and client.kernel_id == peer
            ]
            for session_id in stale:
                del service.sessions[session_id]
        # 5. Cached service ownership pointing at the dead kernel fails
        # over: drop the entries so the next open re-probes survivors.
        stale_services = [
            name for name, owner in self._remote_services.items()
            if owner == peer
        ]
        for name in stale_services:
            del self._remote_services[name]
        # 6. Tell the other survivors (idempotent: _declare_peer_dead
        # no-ops on kernels that already know).
        if announce:
            for other in self._live_peers():
                self._ik_request(
                    other, "peer_down", (peer, reason),
                    lambda payload: None,
                )
        self.failover_log.append((peer, detected, self.sim.now, reason))
        if self.sim.obs is not None:
            self.sim.obs.instant(
                "failover_done", "ik", self.node, peer=peer,
                cycles=self.sim.now - detected,
            )
        self.sim.ledger.mark(
            self.sim.now, Tag.FAULT,
            f"{self.label}: failover for kernel {peer} complete "
            f"({self.sim.now - detected} cycles after detection)",
        )
