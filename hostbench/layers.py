"""Per-layer host cost: wrappers around each layer's entry points.

A traced iteration replaces the entry points listed in ``TARGETS`` with
wrappers that keep a stack of active layers.  Host time between two
stack changes is charged to the layer on top, so a layer's self time
excludes the calls it makes into other wrapped layers, and the self
times of all layers sum to the traced ``run_s``.  Generator functions
(libm3 calls, server loops, the kernel loop) are charged per resumption.
Time that no wrapper covers is charged to the layer below it: the
engine (``sim``) inside ``Simulator.run`` — which includes callbacks
such as DTU timers and the NIC's command loop — and ``app`` outside it.

Wrapper call counts give the work counts; ``run.py`` compares them with
the program's own counters, which must agree exactly.

Heap retained at the end of the run is attributed per layer from
``tracemalloc`` snapshots, in a separate iteration because tracing every
allocation costs several times the run itself.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import time
import tracemalloc

LAYERS = ("sim", "noc", "dtu", "hw", "kernel", "services", "lib", "obs",
          "app")


def _count_packet(counts, args, _result):
    packet = args[1]
    counts["noc.packets"] += 1
    counts["noc.bytes"] += packet.size_bytes
    if packet.kind == "msg_ack":
        counts["dtu.acks"] += 1


def _counter(key):
    def count(counts, _args, _result):
        counts[key] += 1
    return count


def _at_call(hook):
    hook.at_call = True
    return hook


def _count_receive(counts, args, _result):
    counts[("receive", id(args[0].env))] += 1


_OBSERVER_METHODS = ("begin", "end", "complete", "instant", "count",
                     "gauge", "observe")

#: (module, class, method, layer, count hook).  A hook runs after the
#: call returned normally (for a generator: when it finished), except
#: that a hook made by ``_at_call`` runs when the call starts.
TARGETS = [
    ("repro.sim.engine", "Simulator", "run", "sim", None),
    ("repro.noc.network", "Network", "send", "noc", _count_packet),
    ("repro.noc.link", "Link", "reserve", "noc",
     _counter("noc.link_reserves")),
    ("repro.dtu.dtu", "DTU", "send", "dtu", _counter("dtu.msgs")),
    ("repro.dtu.dtu", "DTU", "reply", "dtu", _counter("dtu.replies")),
    ("repro.dtu.dtu", "DTU", "read_memory", "dtu", _counter("dtu.mem_ops")),
    ("repro.dtu.dtu", "DTU", "write_memory", "dtu", _counter("dtu.mem_ops")),
    ("repro.dtu.dtu", "DTU", "fetch_message", "dtu", None),
    ("repro.dtu.dtu", "DTU", "wait_message", "dtu", None),
    ("repro.dtu.dtu", "DTU", "ack_message", "dtu", None),
    ("repro.dtu.dtu", "DTU", "handle_packet", "dtu", None),
    ("repro.dtu.dtu", "DTU", "configure_remote", "dtu", None),
    ("repro.dtu.dtu", "DTU", "configure_local", "dtu", None),
    ("repro.hw.dram", "DramModule", "handle_packet", "hw", None),
    ("repro.hw.device", "Device", "raise_interrupt", "hw", None),
    ("repro.hw.device", "NetworkDevice", "receive_frame", "hw", None),
    ("repro.hw.device", "Wire", "transmit", "hw", None),
    ("repro.m3.kernel.kernel", "Kernel", "run", "kernel", None),
    # The heartbeat ring is a kernel process with no public entry.
    ("repro.m3.kernel.kernel", "Kernel", "_heartbeat_loop", "kernel", None),
    ("repro.m3.services.m3fs.server", "M3fsServer", "main", "services",
     None),
    ("repro.m3.services.kvserv", "KvServ", "main", "services", None),
    ("repro.m3.services.netserv", "NetServ", "main", "services", None),
    # A syscall counts once sent, whether or not it then succeeds.
    ("repro.m3.lib.env", "Env", "syscall", "lib",
     _at_call(_counter("kernel.syscalls"))),
    ("repro.m3.lib.env", "Env", "exit", "lib",
     _at_call(_counter("kernel.syscalls"))),
    ("repro.m3.lib.gate", "SendGate", "send", "lib", None),
    ("repro.m3.lib.gate", "SendGate", "call", "lib", None),
    ("repro.m3.lib.gate", "RecvGate", "receive", "lib", _count_receive),
    ("repro.m3.lib.gate", "RecvGate", "reply", "lib", None),
    ("repro.m3.lib.gate", "MemGate", "read", "lib", None),
    ("repro.m3.lib.gate", "MemGate", "write", "lib", None),
    ("repro.m3.lib.file", "File", "read", "lib", None),
    ("repro.m3.lib.file", "File", "write", "lib", None),
    ("repro.m3.lib.file", "File", "seek", "lib", None),
    ("repro.m3.lib.file", "File", "close", "lib", None),
    ("repro.m3.lib.vfs", "VFS", "open", "lib", None),
    ("repro.m3.lib.vfs", "VFS", "stat", "lib", None),
    ("repro.m3.lib.vfs", "VFS", "mkdir", "lib", None),
    ("repro.m3.lib.vfs", "VFS", "unlink", "lib", None),
    ("repro.m3.lib.vfs", "VFS", "readdir", "lib", None),
    ("repro.m3.lib.m3fs_client", "M3fsClient", "request", "lib", None),
    ("repro.m3.services.kvserv", "KvClient", "request", "lib", None),
    ("repro.m3.services.netserv", "NetClient", "request", "lib", None),
] + [
    ("repro.obs.observer", "Observer", name, "obs", _counter("obs.calls"))
    for name in _OBSERVER_METHODS
]

#: source directories whose retained heap is reported per layer.
MEMORY_LAYERS = {"noc": "/repro/noc/", "dtu": "/repro/dtu/",
                 "sim": "/repro/sim/", "kernel": "/repro/m3/kernel/"}


class _CountingBucket(collections.deque):
    """The engine's ready queue, counting the callbacks it hands out
    (cancelled entries are blanked before they get here)."""

    executed = 0

    def popleft(self):
        entry = super().popleft()
        if entry[-2] is not None:
            self.executed += 1
        return entry


class LayerTrace:
    """Self time and work counts per layer while installed."""

    def __init__(self):
        self.counts = collections.Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self._stack = ["app"]
        self._last = time.perf_counter()
        self._patches: list = []
        self.missing: list = []
        self._bucket = None

    # -- the layer stack ------------------------------------------------

    def _enter(self, layer: str) -> None:
        now = time.perf_counter()
        self.self_s[self._stack[-1]] += now - self._last
        self._stack.append(layer)
        self._last = now

    def _leave(self) -> None:
        now = time.perf_counter()
        self.self_s[self._stack.pop()] += now - self._last
        self._last = now

    def reset(self) -> None:
        """Start the measured window: zero every count and time."""
        if self._stack != ["app"]:
            raise RuntimeError(f"layer stack not empty: {self._stack}")
        self.counts.clear()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self._last = time.perf_counter()

    def skip(self, seconds: float) -> None:
        """Leave ``seconds`` that just passed out of every layer."""
        self._last += seconds

    def stop(self) -> float:
        """Close the window; returns its length in seconds."""
        now = time.perf_counter()
        self.self_s[self._stack[-1]] += now - self._last
        self._last = now
        return sum(self.self_s.values())

    # -- wrappers -------------------------------------------------------

    # A call into the layer already on top of the stack is charged to
    # it anyway, so the wrappers skip the clock reads for it.

    def _wrap_function(self, function, layer, hook):
        enter, leave, counts = self._enter, self._leave, self.counts
        stack = self._stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if stack[-1] == layer:
                result = function(*args, **kwargs)
            else:
                enter(layer)
                try:
                    result = function(*args, **kwargs)
                finally:
                    leave()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _wrap_generator(self, function, layer, hook):
        enter, leave, counts = self._enter, self._leave, self.counts
        stack = self._stack
        at_call = getattr(hook, "at_call", False)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            generator = function(*args, **kwargs)
            if at_call:
                hook(counts, args, None)
            value, error = None, None
            while True:
                switch = stack[-1] != layer
                if switch:
                    enter(layer)
                try:
                    if error is None:
                        target = generator.send(value)
                    else:
                        target = generator.throw(error)
                except StopIteration as stop:
                    if switch:
                        leave()
                    if hook is not None and not at_call:
                        hook(counts, args, stop.value)
                    return stop.value
                except BaseException:
                    if switch:
                        leave()
                    raise
                if switch:
                    leave()
                try:
                    value, error = (yield target), None
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # thrown in: pass it down
                    value, error = None, exc

        return wrapper

    def wrap(self, function, layer: str, hook=None):
        """``function`` charged to ``layer`` (generators per resumption)."""
        if inspect.isgeneratorfunction(function):
            return self._wrap_generator(function, layer, hook)
        return self._wrap_function(function, layer, hook)

    def install(self) -> None:
        """Patch every target; targets the program no longer has are
        listed in ``missing`` and their time goes to the caller."""
        self.missing = []
        for module_name, class_name, method, layer, hook in TARGETS:
            owner = getattr(importlib.import_module(module_name),
                            class_name, None)
            original = owner.__dict__.get(method) if owner else None
            if original is None:
                self.missing.append(f"{class_name}.{method}")
                continue
            setattr(owner, method, self.wrap(original, layer, hook))
            self._patches.append((owner, method, original))

    def uninstall(self) -> None:
        for owner, method, original in reversed(self._patches):
            setattr(owner, method, original)
        self._patches.clear()

    def count_events(self, sim) -> None:
        """Count the callbacks ``sim`` executes from now on.  The engine
        keeps no such count, but every callback it runs leaves its ready
        queue through ``popleft``.  An engine without that queue is
        listed in ``missing`` and its events read 0."""
        bucket = getattr(sim, "_bucket", None)
        if not isinstance(bucket, collections.deque):
            self._bucket = None
            self.missing.append("Simulator._bucket")
            return
        self._bucket = _CountingBucket(bucket)
        sim._bucket = self._bucket

    @property
    def events(self) -> int:
        return self._bucket.executed if self._bucket is not None else 0

    def receives(self, env) -> int:
        """Messages a server's loop took off its receive gate."""
        return self.counts[("receive", id(env))]


def retained_mb() -> dict:
    """Heap held per layer, from the running ``tracemalloc`` trace."""
    totals = dict.fromkeys(MEMORY_LAYERS, 0)
    snapshot = tracemalloc.take_snapshot()
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename.replace("\\", "/")
        for layer, fragment in MEMORY_LAYERS.items():
            if fragment in filename:
                totals[layer] += stat.size
                break
    return {layer: size / 2**20 for layer, size in totals.items()}
