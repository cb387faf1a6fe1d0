"""System introspection and NoC packet spans."""

from repro.eval import stats
from repro.m3.lib.file import OpenFlags
from repro.m3.system import M3System


def _busy_system():
    system = M3System(pe_count=4).boot()

    def app(env):
        f = yield from env.vfs.open("/s", OpenFlags.W | OpenFlags.CREATE)
        yield from f.write(b"stats!" * 100)
        yield from f.close()
        return ()

    system.run_app(app)
    return system


def test_collect_counts_everything():
    system = _busy_system()
    data = stats.collect(system)
    assert data["cycles"] == system.sim.now > 0
    assert data["noc"]["packets"] > 10
    assert data["kernel"]["syscalls"] >= 4
    assert data["kernel"]["services"] == ["m3fs"]
    assert data["filesystems"] if "filesystems" in data else True
    fs = data["filesystems"]["m3fs"]
    assert fs["requests"] >= 3  # open + append + close at least
    assert fs["blocks_used"] >= 1
    kernel_dtu = [d for d in data["dtus"] if d["node"] == 0]
    assert kernel_dtu and kernel_dtu[0]["privileged"]


def test_report_renders_tables():
    system = _busy_system()
    text = stats.report(system)
    assert "System state at cycle" in text
    assert "DTU traffic" in text
    assert "Filesystem services" in text
    assert "m3fs" in text


def test_observer_records_packets_as_noc_spans():
    system = M3System(pe_count=3, observe=True)
    system.boot(with_fs=False)
    boot_kinds = {span.name for span in system.obs.spans
                  if span.category == "noc"}
    assert "ep_config" in boot_kinds  # boot-time endpoint configuration

    def app(env):
        yield from env.syscall("noop")
        return ()

    before = len(system.obs.spans)
    system.run_app(app)
    packets = [span for span in system.obs.spans[before:]
               if span.category == "noc"]
    kernel_node = system.kernels[0].node
    # The syscall message travels from the app's PE to the kernel.
    assert any(span.name == "message"
               and span.args["destination"] == kernel_node
               and span.node != kernel_node
               and span.end > span.begin
               for span in packets)
