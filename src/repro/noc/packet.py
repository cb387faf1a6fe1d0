"""NoC packets."""

from __future__ import annotations

import itertools

_packet_ids = itertools.count()


class Packet:
    """A unit of NoC traffic.

    ``size_bytes`` drives the timing model (header + payload wire
    bytes); ``payload`` carries the simulated content (a message object
    or raw bytes) to the receiving hardware model.

    A slotted class rather than a dataclass: a long run builds one per
    message, reply, ack and memory transfer, and nothing compares
    packets by value.
    """

    __slots__ = ("source", "destination", "kind", "size_bytes", "payload",
                 "corrupted", "trace_id", "trace_parent", "packet_id")

    def __init__(
        self,
        source: int,
        destination: int,
        kind: str,  # "message" | "mem_read" | "mem_write" | "mem_resp"
        size_bytes: int,
        payload: object = None,
        corrupted: bool = False,
        trace_id: int = -1,
        trace_parent: int = -1,
        packet_id: int | None = None,
    ):
        if size_bytes < 0:
            raise ValueError(f"negative packet size: {size_bytes}")
        self.source = source
        self.destination = destination
        self.kind = kind
        self.size_bytes = size_bytes
        self.payload = payload
        #: set by an installed fault plan: in-flight bit errors.
        #: Receivers detect this through the NoC's link-level CRC and
        #: discard the packet (reliable DTU channels then retransmit).
        self.corrupted = corrupted
        #: causal trace context (mirrors the MessageHeader stamp; also
        #: set on headerless memory/config packets so RDMA transactions
        #: join the request trace).  ``trace_id < 0`` = untraced.
        self.trace_id = trace_id
        #: span id the in-network span of this packet is parented on.
        self.trace_parent = trace_parent
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.packet_id} {self.kind} "
            f"{self.source}->{self.destination} {self.size_bytes}B>"
        )
