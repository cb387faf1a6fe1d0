"""Seeded syscall traces for the ``fs`` workload, with their reference.

Each app VPE owns the namespace ``/v<i>`` and replays a trace in the
style of the paper's tar, untar, find and sqlite traces (Section 5.6).
The generator applies every operation to a host-side reference
namespace as it emits it, so each op carries the result it must
produce: read data, ``stat`` kind and size, ``readdir`` names.  After
the run every file the model holds must read back byte-exact.

Directory sizes follow the paper's traces (5 tar sources, 9-entry find
directories, at most 15 entries anywhere).  A ``readdir`` reply for a
directory of about 30 or more entries overflows the 512-byte message
slot (``ValueError: message of ...B exceeds slot of 512B`` from
``DTU._deliver_message``) and aborts the simulation, so larger
directories are out of reach until that is fixed; see README.md.

Every write payload is generated here, before any timer starts.
"""

from __future__ import annotations

import random

from repro import params
from repro.m3.lib.file import OpenFlags

#: app VPEs replaying traces in parallel against one m3fs.
VPES = 8
#: trace rounds per VPE, each a tar, untar, find or sqlite phase.
ROUNDS = 12
#: tar source sizes per VPE, in a seeded order (the paper's tar set is
#: 80-500 KiB; fixed sizes keep the data volume equal across seeds).
SOURCE_KIB = (16, 48, 96, 144, 192)
#: find tree: directories x files per directory, small files.
TREE_DIRS = 3
TREE_FILES = 9
TREE_FILE_BYTES = (256, 2048)
DB_BYTES = 16 * 1024
DB_PAGE = 1024
SQLITE_INSERTS = 8
TAR_RECORD = 512
#: read/write chunk sizes: a page, a replay buffer, a quarter extent.
CHUNKS = (4 * 1024, params.REPLAY_BUFFER_BYTES, 64 * 1024)

READ = int(OpenFlags.R)
WRITE_NEW = int(OpenFlags.W | OpenFlags.CREATE | OpenFlags.TRUNC)
RW = int(OpenFlags.RW)


class _Namespace:
    """The reference: directories and file contents, as the trace goes."""

    def __init__(self):
        self.dirs: dict[str, set] = {"/": set()}
        self.files: dict[str, bytearray] = {}

    def _parent(self, path: str) -> tuple[str, str]:
        parent, _sep, name = path.rpartition("/")
        return parent or "/", name

    def mkdir(self, path: str) -> None:
        parent, name = self._parent(path)
        self.dirs[parent].add(name)
        self.dirs[path] = set()

    def create(self, path: str) -> None:
        parent, name = self._parent(path)
        self.dirs[parent].add(name)
        self.files[path] = bytearray()

    def unlink(self, path: str) -> None:
        parent, name = self._parent(path)
        self.dirs[parent].discard(name)
        del self.files[path]

    def stat(self, path: str) -> tuple:
        if path in self.dirs:
            return ("dir", None)
        return ("file", len(self.files[path]))

    def readdir(self, path: str) -> list:
        return sorted(self.dirs[path])


class Trace:
    """One VPE's ops plus the preload files they start from."""

    def __init__(self, root: str):
        self.root = root
        self.setup: dict[str, bytes] = {}
        self.ops: list[tuple] = []
        self._slots = 0
        self._files: dict[int, list] = {}  # slot -> [path, position]

    # -- emitting ops, each checked against the reference ---------------

    def open(self, ns: _Namespace, path: str, flags: int) -> int:
        if flags & OpenFlags.CREATE and path not in ns.files:
            ns.create(path)
        if flags & OpenFlags.TRUNC:
            ns.files[path] = bytearray()
        slot = self._slots
        self._slots += 1
        self._files[slot] = [path, 0]
        self.ops.append(("open", path, flags))
        return slot

    def read(self, ns: _Namespace, slot: int, count: int) -> None:
        path, position = self._files[slot]
        data = bytes(ns.files[path][position:position + count])
        self._files[slot][1] += len(data)
        self.ops.append(("read", slot, count, data))

    def write(self, ns: _Namespace, slot: int, data: bytes) -> None:
        path, position = self._files[slot]
        content = ns.files[path]
        content[position:position + len(data)] = data
        self._files[slot][1] += len(data)
        self.ops.append(("write", slot, data))

    def seek(self, slot: int, offset: int) -> None:
        self._files[slot][1] = offset
        self.ops.append(("seek", slot, offset))

    def close(self, slot: int) -> None:
        del self._files[slot]
        self.ops.append(("close", slot))

    def stat(self, ns: _Namespace, path: str) -> None:
        self.ops.append(("stat", path, ns.stat(path)))

    def readdir(self, ns: _Namespace, path: str) -> None:
        self.ops.append(("readdir", path, ns.readdir(path)))

    def mkdir(self, ns: _Namespace, path: str) -> None:
        ns.mkdir(path)
        self.ops.append(("mkdir", path))

    def unlink(self, ns: _Namespace, path: str) -> None:
        ns.unlink(path)
        self.ops.append(("unlink", path))


def _chunks(rng: random.Random, total: int):
    """Split ``total`` bytes into extent-style transfer sizes."""
    while total > 0:
        size = min(total, rng.choice(CHUNKS))
        yield size
        total -= size


def _preload(ns: _Namespace, trace: Trace, path: str, content: bytes) -> None:
    ns.create(path)
    ns.files[path][:] = content
    trace.setup[path] = content


def _tar(rng, ns, trace, sources, out_dir) -> None:
    """tar cf: stat and read every source, append header + data."""
    trace.readdir(ns, f"{trace.root}/src")
    archive = trace.open(ns, f"{out_dir}/a.tar", WRITE_NEW)
    for path in sources:
        trace.stat(ns, path)
        source = trace.open(ns, path, READ)
        trace.write(ns, archive, rng.randbytes(TAR_RECORD))
        content = bytes(ns.files[path])
        offset = 0
        for size in _chunks(rng, len(content)):
            trace.read(ns, source, size)
            trace.write(ns, archive, content[offset:offset + size])
            offset += size
        trace.close(source)
    trace.close(archive)
    trace.stat(ns, f"{out_dir}/a.tar")


def _untar(rng, ns, trace, sources, out_dir) -> None:
    """tar xf-style: create every member anew with fresh data."""
    for index, path in enumerate(sources):
        size = len(ns.files[path]) // 2 + rng.randrange(1, 4096)
        member = trace.open(ns, f"{out_dir}/m{index}", WRITE_NEW)
        for chunk in _chunks(rng, size):
            trace.write(ns, member, rng.randbytes(chunk))
        trace.close(member)
    trace.readdir(ns, out_dir)
    for index in range(len(sources)):
        trace.stat(ns, f"{out_dir}/m{index}")
    victim = f"{out_dir}/m{rng.randrange(len(sources))}"
    check = trace.open(ns, victim, READ)
    for chunk in _chunks(rng, len(ns.files[victim])):
        trace.read(ns, check, chunk)
    trace.close(check)
    trace.unlink(ns, victim)


def _find(rng, ns, trace, sources, out_dir) -> None:
    """find: stat and readdir over the tree (mostly stat calls)."""
    del rng, sources, out_dir
    tree = f"{trace.root}/tree"
    trace.stat(ns, tree)
    trace.readdir(ns, tree)
    for directory in ns.readdir(tree):
        path = f"{tree}/{directory}"
        trace.stat(ns, path)
        trace.readdir(ns, path)
        for name in ns.readdir(path):
            trace.stat(ns, f"{path}/{name}")


def _sqlite(rng, ns, trace, sources, out_dir) -> None:
    """sqlite: journalled page writes into one database file."""
    del sources
    db_path = f"{trace.root}/db.sqlite"
    db = trace.open(ns, db_path, RW)
    trace.read(ns, db, 100)
    pages = DB_BYTES // DB_PAGE
    for _ in range(SQLITE_INSERTS):
        journal_path = f"{out_dir}/journal"
        journal = trace.open(ns, journal_path, WRITE_NEW)
        trace.write(ns, journal, rng.randbytes(TAR_RECORD))
        page = rng.randrange(pages)
        trace.seek(db, page * DB_PAGE)
        trace.read(ns, db, DB_PAGE)
        trace.write(ns, journal, rng.randbytes(DB_PAGE))
        trace.seek(db, page * DB_PAGE)
        trace.write(ns, db, rng.randbytes(DB_PAGE))
        trace.close(journal)
        trace.unlink(ns, journal_path)
    trace.seek(db, 0)
    for _ in range(pages):
        trace.read(ns, db, DB_PAGE)
    trace.close(db)
    trace.stat(ns, db_path)


PHASES = (_tar, _untar, _find, _sqlite)


def make_traces(seed: int) -> tuple[list[Trace], _Namespace]:
    """Every VPE's trace and the namespace they leave behind."""
    rng = random.Random(seed)
    ns = _Namespace()
    traces = []
    for index in range(VPES):
        root = f"/v{index}"
        trace = Trace(root)
        ns.mkdir(root)
        ns.mkdir(f"{root}/src")
        sources = []
        for number, kib in enumerate(rng.sample(SOURCE_KIB, len(SOURCE_KIB))):
            path = f"{root}/src/f{number}.dat"
            _preload(ns, trace, path, rng.randbytes(1024 * kib))
            sources.append(path)
        ns.mkdir(f"{root}/tree")
        for directory in range(TREE_DIRS):
            ns.mkdir(f"{root}/tree/d{directory}")
            for number in range(TREE_FILES):
                _preload(ns, trace, f"{root}/tree/d{directory}/f{number}.txt",
                         rng.randbytes(rng.randint(*TREE_FILE_BYTES)))
        _preload(ns, trace, f"{root}/db.sqlite", rng.randbytes(DB_BYTES))
        # Every phase kind appears twice, in a seeded order.
        phases = list(PHASES) * (ROUNDS // len(PHASES))
        rng.shuffle(phases)
        for number, phase in enumerate(phases):
            out_dir = f"{root}/r{number}"
            trace.mkdir(ns, out_dir)
            phase(rng, ns, trace, sources, out_dir)
        trace.readdir(ns, root)
        traces.append(trace)
    return traces, ns


def replay(env, ops: list, results: list):
    """Generator: run ``ops`` through libm3, recording every result."""
    vfs = env.vfs
    files = []
    record = results.append
    for op in ops:
        kind = op[0]
        if kind == "read":
            record((yield from files[op[1]].read(op[2])))
        elif kind == "write":
            record((yield from files[op[1]].write(op[2])))
        elif kind == "open":
            files.append((yield from vfs.open(op[1], op[2])))
            record(None)
        elif kind == "close":
            record((yield from files[op[1]].close()))
        elif kind == "seek":
            record((yield from files[op[1]].seek(op[2])))
        elif kind == "stat":
            record((yield from vfs.stat(op[1])))
        elif kind == "readdir":
            record((yield from vfs.readdir(op[1])))
        elif kind == "mkdir":
            record((yield from vfs.mkdir(op[1])))
        elif kind == "unlink":
            record((yield from vfs.unlink(op[1])))
        else:
            raise ValueError(f"unknown trace op {kind!r}")


def check_results(ops: list, results: list) -> int:
    """Count ops whose result disagrees with the reference or that
    never ran."""
    failed = len(ops) - len(results)  # ops that never ran
    for op, result in zip(ops, results):
        kind = op[0]
        if kind == "read":
            ok = result == op[3]
        elif kind == "write":
            ok = result == len(op[2])
        elif kind == "stat":
            expected_kind, expected_size = op[2]
            ok = result[0] == expected_kind and (
                expected_size is None or result[1] == expected_size)
        elif kind == "readdir":
            ok = list(result) == op[2]
        else:
            ok = True
        failed += not ok
    return failed
