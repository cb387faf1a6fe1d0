"""The m3fs server: the message loop of the filesystem service.

"For opening files, closing files, meta-data operations like mkdir,
link etc., the service is contacted ... The actual data transfers are
done without involving m3fs, because the applications directly read or
write to the memory, where the file is stored" (Section 4.5.8).  The
server hands out *memory capabilities* for extents via the kernel's
service-delegation syscall.
"""

from __future__ import annotations

import dataclasses

from repro import params
from repro.dtu.registers import MemoryPerm
from repro.m3.kernel import syscalls
from repro.m3.lib.gate import MemGate, RecvGate
from repro.m3.lib.marshalling import wire_size
from repro.m3.services.m3fs.fs import FsError, M3FS
from repro.m3.services.m3fs.superblock import SuperBlock
from repro.obs.causal import header_context

#: maximum extents returned per get_locs reply (bounded by the reply
#: message slot size, as on real hardware).
LOCS_PER_REPLY = 8

#: service request/reply geometry: the payload bytes of one request
#: slot here and of the client's reply slot.
FS_MSG_BYTES = 496
FS_RING_SLOTS = 64


@dataclasses.dataclass
class _OpenFile:
    inode: object
    flags: int
    #: extents already delegated to the client (index high-water mark).
    delegated_upto: int = 0


class _Session:
    """Per-client state: open files."""

    def __init__(self, session_id: int):
        self.id = session_id
        self.files: dict[int, _OpenFile] = {}
        self._next_fd = 0

    def install(self, handle: _OpenFile) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self.files[fd] = handle
        return fd

    def get(self, fd: int) -> _OpenFile:
        try:
            return self.files[fd]
        except KeyError:
            raise FsError(f"bad file descriptor {fd}") from None


class M3fsServer:
    """Service wrapper around :class:`M3FS`, driven as VPE software."""

    def __init__(self, superblock: SuperBlock | None = None,
                 append_blocks: int = params.M3FS_APPEND_BLOCKS,
                 service_name: str = "m3fs", persist: bool = False):
        from repro.m3.services.m3fs import image

        self.service_name = service_name
        #: when persistent, the front of the region holds the metadata
        #: image and the ``sync`` operation writes it out.
        self.persist = persist
        self.fs = M3FS(
            superblock,
            append_blocks=append_blocks,
            reserve_meta_blocks=image.META_BLOCKS if persist else 0,
        )
        self.ready = None  # an Event, attached by M3System before spawn
        self.env = None
        self.region: MemGate | None = None
        self.service_sel: int | None = None
        self.requests_served = 0
        self.vpe = None

    # -- service software --------------------------------------------------

    def main(self, env):
        """Generator: runs as the m3fs VPE."""
        self.env = env
        self.region = yield from MemGate.create(
            env, self.fs.sb.size_bytes, MemoryPerm.RW.value
        )
        rgate = yield from RecvGate.create(
            env, slot_size=FS_MSG_BYTES + 16, slot_count=FS_RING_SLOTS
        )
        self.service_sel = yield from env.syscall(
            syscalls.CREATE_SRV, self.service_name, rgate.selector
        )
        sessions: dict[int, _Session] = {}
        if self.ready is not None:
            self.ready.succeed(self)
        while True:
            slot, message = yield from rgate.receive()
            obs = env.sim.obs
            started = env.sim.now
            operation, args = message.payload
            # The service span adopts the request's trace context from
            # the message header, so everything done here — including
            # delegation syscalls back to the kernel — stays causally
            # linked to the client's request.
            span = -1
            if obs is not None:
                span = obs.begin(operation, "m3fs", env.pe.node,
                                 parent=header_context(message.header),
                                 service=self.service_name)
            yield env.os_work(params.M3FS_SERVER_CYCLES)
            self.requests_served += 1
            if message.label == 0:
                # The kernel<->service channel: session management.
                if operation == "open_session":
                    session_id, _client_vpe = args
                    sessions[session_id] = _Session(session_id)
                    response = ("ok", ())
                else:
                    response = ("err", f"unknown kernel op {operation!r}")
            else:
                session = sessions.get(message.label)
                if session is None:
                    response = ("err", "no such session")
                else:
                    try:
                        handler = getattr(self, f"_op_{operation}")
                        result = yield from handler(session, *args)
                        response = ("ok", result)
                    except (FsError, AttributeError, TypeError, MemoryError) as exc:
                        response = ("err", str(exc))
            size = wire_size(response)
            if size > FS_MSG_BYTES:
                # The client's reply slot holds FS_MSG_BYTES of payload
                # (the bound LOCS_PER_REPLY keeps to); a reply that does
                # not fit is answered with an error the client raises.
                response = ("err", f"{operation} reply of {size}B exceeds "
                                   f"the {FS_MSG_BYTES}B reply payload")
                size = wire_size(response)
            yield from rgate.reply(slot, response, size)
            if obs is not None:
                obs.count(f"m3fs.{self.service_name}.requests")
                obs.observe("m3fs.request_cycles", env.sim.now - started)
                obs.end(span, status=response[0])

    # -- capability delegation ----------------------------------------------

    def _delegate_extent(self, session: _Session, extent, perm: MemoryPerm):
        """Generator: hand the client a memory capability for an extent;
        returns the selector in the client's table."""
        offset, length = self.fs.extent_region(extent)
        selector = yield from self.env.syscall(
            syscalls.SRV_DELEGATE,
            self.service_sel,
            session.id,
            self.region.selector,
            offset,
            length,
            perm.value,
        )
        return selector, length

    @staticmethod
    def _perm_for(flags: int) -> MemoryPerm:
        from repro.m3.lib.file import OpenFlags

        if flags & OpenFlags.W:
            return MemoryPerm.RW
        return MemoryPerm.READ

    # -- operations ---------------------------------------------------------------

    def _op_open(self, session: _Session, path: str, flags: int):
        from repro.m3.lib.file import OpenFlags

        if not (flags & (OpenFlags.R | OpenFlags.W)):
            raise FsError("open needs read or write mode")
        if not self.fs.exists(path):
            if not (flags & OpenFlags.CREATE):
                raise FsError(f"no such file: {path!r}")
            inode = self.fs.create(path)
        else:
            inode = self.fs.resolve(path)
        if inode.is_dir:
            raise FsError(f"is a directory: {path!r}")
        if flags & OpenFlags.TRUNC:
            self.fs.truncate(inode, 0)
        fd = session.install(_OpenFile(inode=inode, flags=flags))
        return (fd, inode.size)
        yield  # pragma: no cover

    def _op_get_locs(self, session: _Session, fd: int, extent_index: int,
                     count: int):
        handle = session.get(fd)
        inode = handle.inode
        count = min(count, LOCS_PER_REPLY)
        entries = []
        for index in range(extent_index, min(extent_index + count,
                                             len(inode.extents))):
            selector, length = yield from self._delegate_extent(
                session, inode.extents[index], self._perm_for(handle.flags)
            )
            entries.append((selector, length))
        more = extent_index + len(entries) < len(inode.extents)
        return (entries, more)

    def _op_append(self, session: _Session, fd: int, want_blocks):
        from repro.m3.lib.file import OpenFlags

        handle = session.get(fd)
        if not (handle.flags & OpenFlags.W):
            raise FsError("file not open for writing")
        yield self.env.os_work(params.M3FS_ALLOC_CYCLES)
        extent = self.fs.append_extent(handle.inode, want_blocks)
        selector, length = yield from self._delegate_extent(
            session, extent, MemoryPerm.RW
        )
        return (selector, length)

    def _op_close(self, session: _Session, fd: int, final_size: int):
        from repro.m3.lib.file import OpenFlags

        handle = session.get(fd)
        if handle.flags & OpenFlags.W:
            yield self.env.os_work(params.M3FS_ALLOC_CYCLES)
            self.fs.truncate(handle.inode, final_size)
        del session.files[fd]
        return ()

    def _op_stat(self, session: _Session, path: str):
        return self.fs.stat(path)
        yield  # pragma: no cover

    def _op_mkdir(self, session: _Session, path: str):
        self.fs.mkdir(path)
        return ()
        yield  # pragma: no cover

    def _op_unlink(self, session: _Session, path: str):
        self.fs.unlink(path)
        return ()
        yield  # pragma: no cover

    def _op_link(self, session: _Session, existing: str, new_path: str):
        self.fs.link(existing, new_path)
        return ()
        yield  # pragma: no cover

    def _op_rename(self, session: _Session, old_path: str, new_path: str):
        self.fs.rename(old_path, new_path)
        return ()
        yield  # pragma: no cover

    def _op_readdir(self, session: _Session, path: str):
        return tuple(self.fs.readdir(path))
        yield  # pragma: no cover

    def _op_fsync(self, session: _Session, fd: int):
        session.get(fd)  # validate; an in-memory fs has nothing to flush
        return ()
        yield  # pragma: no cover

    def _op_sync(self, session: _Session):
        """Write the metadata image into the region's reserved blocks
        (a real, timed DTU transfer) — the filesystem now survives a
        service restart from the DRAM contents alone."""
        import struct

        from repro.m3.services.m3fs import image

        if not self.persist:
            raise FsError("service was not started with persist=True")
        payload = image.serialize(self.fs)
        capacity = image.META_BLOCKS * self.fs.sb.block_size
        if 8 + len(payload) > capacity:
            raise FsError("metadata image exceeds the reserved blocks")
        yield self.env.os_work(params.M3FS_ALLOC_CYCLES)
        yield from self.region.write(
            0, struct.pack("<Q", len(payload)) + payload
        )
        return len(payload)
