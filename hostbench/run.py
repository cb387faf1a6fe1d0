"""Host-cost benchmark of the M3 simulator, end to end and per layer.

Run from the repository root::

    python3 hostbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Each iteration builds a fresh system, sets it up (timed as ``setup_s``)
and runs it to the drain (timed as ``run_s``); iterations repeat until
``--seconds`` have passed and the medians are reported.  With
``--trace 1`` the run alternates untraced and traced iterations and
adds one heap-attribution iteration, and reports per-layer metrics
instead.  Every simulated statistic is a correctness check: outputs are
verified, iterations must agree on the digest of their simulated
statistics, and at the default seed the digest must equal the one in
``expected.json``.  The last line of standard output is one JSON object.
See README.md for the workloads and what each metric should predict.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import tracemalloc
import typing
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: at least this many iterations per run, however long they take.
MIN_ITERATIONS = 3
#: at least this many set-ups per run; set-up is short, so runs of a
#: long workload add set-ups without a run until they have these.
MIN_SETUPS = 15


def _fail(message: str) -> None:
    print(f"hostbench: {message}", file=sys.stderr)
    raise SystemExit(2)


if not (SOURCE / "repro").is_dir():
    _fail(f"no simulator sources at {SOURCE}; run from a full checkout")
sys.path[:0] = [str(SOURCE), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402
from repro.m3.services.m3fs.server import M3fsServer  # noqa: E402


class Sample(typing.NamedTuple):
    """One iteration: its timings and its checked outcome."""

    setup_s: float
    run_s: float
    outcome: workloads.Outcome


def _set_up(workload, inputs, clock: HostClock, **setup_options) -> tuple:
    """A fresh system, set up; ``(state, setup_s)``."""
    prepared = workload.prepare(inputs)
    gc.collect()
    return clock.time(lambda: workload.setup(prepared, **setup_options))


def measure(workload, inputs, clock: HostClock) -> Sample:
    """One untraced iteration."""
    state, setup_s = _set_up(workload, inputs, clock)
    _result, run_s = clock.time(workload.run, state)
    return Sample(setup_s, run_s, workload.outcome(state))


def _program_counts(workload, state) -> dict:
    """The program's own counters that the trace must reproduce."""
    dtus = state.dtus
    kernels = state.system.kernels
    return {
        "packets": state.system.platform.network.packets_injected,
        "msgs": sum(dtu.messages_sent for dtu in dtus),
        "acks": sum(dtu.acks_sent for dtu in dtus),
        "retransmits": sum(dtu.retransmits for dtu in dtus),
        "drops": sum(dtu.messages_dropped for dtu in dtus),
        "syscalls": sum(kernel.syscall_count for kernel in kernels),
        "ik_requests": sum(kernel.ik_requests_sent for kernel in kernels),
        "ik_retries": sum(kernel.ik_retries for kernel in kernels),
        "heartbeats": sum(kernel.heartbeats_sent for kernel in kernels),
        "frames": sum(s.frames_routed for s in state.netservs),
        "frames_dropped": sum(s.frames_dropped for s in state.netservs),
        "tx_retries": workload.tx_retries(state),
        "served": {id(server): server.requests_served
                   for server in workload.all_servers(state)},
    }


def measure_traced(workload, inputs, clock: HostClock,
                   trace: layers.LayerTrace) -> dict:
    """One traced iteration: per-layer self times, counts and checks.
    Self times are in reference seconds, like every other time."""
    trace.install()
    try:
        state, _setup_s = _set_up(
            workload, inputs, clock,
            wrap_app=lambda app: trace.wrap(app, "app"))
        before = _program_counts(workload, state)
        trace.count_events(state.system.sim)

        def run():
            trace.reset()
            workload.run(state)
            return trace.stop()

        clock.on_calibration = trace.skip
        try:
            wall_s, _seconds, speed = clock.measure(run)
        finally:
            clock.on_calibration = None
    finally:
        trace.uninstall()
    after = _program_counts(workload, state)
    delta = {key: after[key] - before[key]
             for key in after if key != "served"}
    counts = trace.counts
    servers = workload.all_servers(state)
    served = {server: after["served"][id(server)]
              - before["served"].get(id(server), 0) for server in servers}
    received = {server: trace.receives(server.env) for server in servers}
    mismatches = [
        f"{name}: trace {traced} != program {program}"
        for name, traced, program in (
            ("Network.packets_injected", counts["noc.packets"],
             delta["packets"]),
            ("DTU.messages_sent", counts["dtu.msgs"], delta["msgs"]),
            ("DTU.acks_sent", counts["dtu.acks"], delta["acks"]),
            ("Kernel.syscall_count", counts["kernel.syscalls"],
             delta["syscalls"]),
        ) + tuple(
            (f"{server.service_name}.requests_served", received[server],
             served[server]) for server in servers
        )
        if traced != program
    ]
    accounted = sum(trace.self_s.values())
    if abs(accounted - wall_s) > 1e-9 * max(1.0, wall_s):
        mismatches.append(f"self times sum to {accounted} of {wall_s} s")
    self_s = {layer: seconds * speed
              for layer, seconds in trace.self_s.items()}
    is_fs = [isinstance(server, M3fsServer) for server in servers]
    return {
        "run_s": wall_s * speed,
        "self_s": self_s,
        "events": trace.events,
        "counts": {key: value for key, value in counts.items()
                   if isinstance(key, str)},
        "delta": delta,
        "m3fs_requests": sum(received[s] for s, fs in zip(servers, is_fs)
                             if fs),
        "kv_requests": sum(received[s] for s, fs in zip(servers, is_fs)
                           if not fs),
        "outcome": workload.outcome(state),
        "mismatches": mismatches,
        "missing": list(trace.missing),
    }


def measure_memory(workload, inputs) -> tuple:
    """One iteration under ``tracemalloc``: heap held per layer at the
    end of the run."""
    prepared = workload.prepare(inputs)
    gc.collect()
    tracemalloc.start()
    try:
        state = workload.setup(prepared)
        workload.run(state)
        retained = layers.retained_mb()
    finally:
        tracemalloc.stop()
    return retained, workload.outcome(state)


def _expected_digest(workload_name: str, seed: int) -> str | None:
    expected = json.loads((HERE / "expected.json").read_text())
    if seed != expected["seed"]:
        return None
    return expected["digests"].get(workload_name)


def _verdict(name: str, seed: int, outcomes: list) -> tuple:
    """(correct, problems) for a run's checked outcomes."""
    problems = []
    for outcome in outcomes:
        problems.extend(outcome.errors)
        if outcome.failed:
            problems.append(f"{outcome.failed} of {outcome.attempted} "
                            "operations failed their check")
    digests = sorted({outcome.digest for outcome in outcomes})
    if len(digests) != 1:
        problems.append(f"iterations disagree on the digest: {digests}")
    expected = _expected_digest(name, seed)
    if expected is not None and digests[0] != expected:
        problems.append(f"digest {digests[0]} != expected {expected} "
                        f"at the default seed")
    print(f"digest {name} seed {seed}: {digests[0]}")
    return not problems, problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(name: str, seed: int, seconds: float) -> dict:
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)
    clock = HostClock()
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_ITERATIONS or time.perf_counter() < deadline:
        samples.append(measure(workload, inputs, clock))
    setups = [sample.setup_s for sample in samples]
    while len(setups) < MIN_SETUPS:
        setups.append(_set_up(workload, inputs, clock)[1])
    outcomes = [sample.outcome for sample in samples]
    correct, problems = _verdict(name, seed, outcomes)
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "run_s": _metric(statistics.median(s.run_s for s in samples), "s"),
        "ops_per_s": _metric(statistics.median(
            (s.outcome.attempted - s.outcome.failed) / s.run_s
            for s in samples), "1/s"),
        "sim_cycles_per_s": _metric(statistics.median(
            s.outcome.cycles / s.run_s for s in samples), "cycles/s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
        "success_ratio": _metric((attempted - failed) / attempted, "ratio"),
    }
    _report(name, len(samples), problems)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_traced(name: str, seed: int, seconds: float) -> dict:
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)
    clock = HostClock()
    trace = layers.LayerTrace()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(measure(workload, inputs, clock))
        traced.append(measure_traced(workload, inputs, clock, trace))
    retained, memory_outcome = measure_memory(workload, inputs)
    outcomes = ([s.outcome for s in plain] + [t["outcome"] for t in traced]
                + [memory_outcome])
    correct, problems = _verdict(name, seed, outcomes)
    counts_seen = {json.dumps([t["counts"], t["delta"], t["events"]],
                              sort_keys=True, default=str) for t in traced}
    if len(counts_seen) != 1:
        problems.append("traced iterations disagree on work counts")
    for record in traced:
        problems.extend(record["mismatches"])
    correct = correct and not problems
    # Self times from the median traced iteration, so they sum to its
    # run_s; counts are identical in every traced iteration.
    ordered = sorted(traced, key=lambda record: record["run_s"])
    record = ordered[(len(ordered) - 1) // 2]
    self_s, counts, delta = record["self_s"], record["counts"], \
        record["delta"]
    packets = counts.get("noc.packets", 0)
    msgs = counts.get("dtu.msgs", 0)
    replies = counts.get("dtu.replies", 0)
    syscalls = counts.get("kernel.syscalls", 0)
    events = record["events"]

    def per(numerator: float, denominator: int, scale: float) -> float:
        return scale * numerator / denominator if denominator else 0.0

    values = {
        "sim.events": (events, "count"),
        "sim.self_s": (self_s["sim"], "s"),
        "sim.ns_per_event": (per(self_s["sim"], events, 1e9), "ns"),
        "noc.packets": (packets, "count"),
        "noc.bytes": (counts.get("noc.bytes", 0), "bytes"),
        "noc.link_reserves": (counts.get("noc.link_reserves", 0), "count"),
        "noc.reserves_per_packet": (
            per(counts.get("noc.link_reserves", 0), packets, 1.0), "ratio"),
        "noc.self_s": (self_s["noc"], "s"),
        "noc.ns_per_packet": (per(self_s["noc"], packets, 1e9), "ns"),
        "dtu.msgs": (msgs, "count"),
        "dtu.replies": (replies, "count"),
        "dtu.acks": (counts.get("dtu.acks", 0), "count"),
        "dtu.ack_share": (per(counts.get("dtu.acks", 0), packets, 1.0),
                          "ratio"),
        "dtu.mem_ops": (counts.get("dtu.mem_ops", 0), "count"),
        "dtu.retransmits": (delta["retransmits"], "count"),
        "dtu.drops": (delta["drops"], "count"),
        "dtu.self_s": (self_s["dtu"], "s"),
        "dtu.ns_per_msg": (per(self_s["dtu"], msgs + replies, 1e9), "ns"),
        "hw.self_s": (self_s["hw"], "s"),
        "kernel.syscalls": (syscalls, "count"),
        "kernel.ik_requests": (delta["ik_requests"], "count"),
        "kernel.ik_retries": (delta["ik_retries"], "count"),
        "kernel.heartbeats": (delta["heartbeats"], "count"),
        "kernel.self_s": (self_s["kernel"], "s"),
        "kernel.us_per_syscall": (per(self_s["kernel"], syscalls, 1e6),
                                  "us"),
        "m3fs.requests": (record["m3fs_requests"], "count"),
        "kvserv.requests": (record["kv_requests"], "count"),
        "netserv.frames": (delta["frames"], "count"),
        "netserv.tx_retries": (delta["tx_retries"], "count"),
        "netserv.frames_dropped": (delta["frames_dropped"], "count"),
        "services.self_s": (self_s["services"], "s"),
        "lib.self_s": (self_s["lib"], "s"),
        "app.self_s": (self_s["app"], "s"),
        "obs.calls": (counts.get("obs.calls", 0), "count"),
        "noc.mem_mb": (retained["noc"], "MB"),
        "dtu.mem_mb": (retained["dtu"], "MB"),
        "sim.mem_mb": (retained["sim"], "MB"),
        "kernel.mem_mb": (retained["kernel"], "MB"),
        "trace.overhead": (
            record["run_s"] / statistics.median(s.run_s for s in plain),
            "ratio"),
    }
    if record["missing"]:
        print("hostbench: not found in the program (see layers.py): "
              f"{', '.join(record['missing'])}", file=sys.stderr)
    _report(name, len(traced), problems)
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {key: _metric(value, unit)
                        for key, (value, unit) in values.items()}}


def _report(name: str, iterations: int, problems: list) -> None:
    print(f"hostbench: {name}: {iterations} iterations", file=sys.stderr)
    for problem in problems:
        print(f"hostbench: INCORRECT: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 hostbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    runner = run_traced if options.trace else run_end_to_end
    result = runner(options.workload, options.seed, options.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
