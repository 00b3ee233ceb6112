#!/usr/bin/env python3
"""Paper-workload benchmark of the decoupling simulator.

Usage, from the repository root:

    python3 perfbench/run.py --workload pic_reference --seed 1 --seconds 40 --trace 0

Builds perfbench/ (the simulator library plus the perfbench program) with
CMake, then measures one workload. Every simulation runs in its own
perfbench process, so peak_rss_mb is the peak of one simulation and a
workload killed for memory leaves the lines printed before it.

--trace 0 prints the end-to-end metrics: wall_s (median untraced run),
setup_s (median set-up), peak_rss_mb (median) and sim_makespan_s
(deterministic per seed). --trace 1 prints the per-layer
metrics: counts from a traced run (PIC workloads), layer probes, and a
held-out seed. Each metric is printed as a line the moment it is known; the
last line is the JSON result. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("pic_reference", "pic_decoupled", "mapreduce_decoupled")
PIC_WORKLOADS = ("pic_reference", "pic_decoupled")

# A seed that no change is tuned on: --trace 1 runs it every time and
# reports it as holdout.*, so a claimed gain can be checked on it.
HOLDOUT_SEED = 977
MIN_RUNS = 3
# A run ends within this many seconds after the build, even when a child
# hangs: each child's timeout is what is left of it.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 840

# Marks a per-layer metric the workload's app does not expose (the word
# count app builds its machine internally, so it has no traced counts).
NOT_MEASURED = -1.0


class Bench:
    """Counts operations, prints metric lines, and builds the result."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def note(self, text):
        print(f"[{self.workload}] {text}", flush=True)

    def fail(self, text):
        self.failed += 1
        self.note(f"FAILED: {text}")

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}
        print(f"metric {self.workload} {name} = {value!r} {unit}", flush=True)

    def child(self, binary, mode, seed):
        """One perfbench process; returns its JSON result, or None if it
        failed (counted). Every call is one attempted operation."""
        self.attempted += 1
        cmd = [binary, mode, self.workload, str(seed)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self.fail(f"{mode} seed {seed}: timed out after {timeout:.0f} s")
            return None
        if proc.returncode < 0:
            self.fail(f"{mode} seed {seed}: workload died on signal "
                      f"{-proc.returncode} (SIGKILL usually means out of memory)")
            return None
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            self.fail(f"{mode} seed {seed}: exit {proc.returncode}, no result; "
                      f"stderr: {proc.stderr.strip()[-400:]}")
            return None
        if proc.returncode != 0 or "error" in result:
            self.fail(f"{mode} seed {seed}: {result.get('error', proc.returncode)}")
            return None
        if result.get("check") != "ok":
            self.fail(f"{mode} seed {seed}: output check: {result.get('check')}")
            return None
        return result

    def expect_equal(self, what, first, second):
        """A determinism check: one attempted operation."""
        self.attempted += 1
        if first != second:
            self.fail(f"not deterministic: {what}: {first!r} != {second!r}")

    def finish(self):
        print(json.dumps({"correct": self.failed == 0,
                          "attempted": max(self.attempted, 1),
                          "failed": self.failed,
                          "metrics": self.metrics}), flush=True)


def build():
    """Configure and build perfbench/; returns the program's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "mpi", "machine.cpp")):
        raise SystemExit("perfbench: simulator sources (src/) not found next "
                         "to perfbench/; run from a full checkout")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    steps = [["cmake", "--build", build_dir, "-j", "4"]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def end_to_end(bench, binary, seed, seconds):
    """Untraced runs and set-ups, alternating for `seconds`, and their
    checks. Alternating spreads both samples over the same host conditions."""
    runs, setups = [], []
    start = time.monotonic()
    while True:
        run = bench.child(binary, "run", seed)
        if run is None:
            break
        runs.append(run)
        setup = bench.child(binary, "setup", seed)
        if setup is None:
            break
        setups.extend(setup["setup_s"])
        bench.note(f"run {len(runs)}: wall {run['wall_s']:.4f} s, "
                   f"peak {run['peak_rss_mb']:.1f} MB, "
                   f"setup {statistics.median(setup['setup_s']):.4f} s")
        elapsed = time.monotonic() - start
        per_run = elapsed / len(runs)
        if len(runs) >= MIN_RUNS and elapsed + per_run > seconds:
            break
    if not runs:
        return
    for other in runs[1:]:
        bench.expect_equal("sim_makespan_s across runs of one seed",
                           runs[0]["sim_makespan_s"], other["sim_makespan_s"])
    bench.metric("wall_s", statistics.median(r["wall_s"] for r in runs), "s")
    if setups:
        bench.metric("setup_s", statistics.median(setups), "s")
    bench.metric("peak_rss_mb",
                 statistics.median(r["peak_rss_mb"] for r in runs), "MB")
    bench.metric("sim_makespan_s", runs[0]["sim_makespan_s"], "s")


def totals(doc):
    """Machine-wide gauges and per-name counter sums of a ds.metrics.v1
    document."""
    out = {g["name"]: g["value"] for g in doc["gauges"] if g["rank"] == -1}
    for c in doc["counters"]:
        out[c["name"]] = out.get(c["name"], 0) + c["value"]
    return out


def ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics taken from the traced run, with their units.
TRACED_METRICS = (
    ("sim.events", "count"), ("sim.compute_calls", "count"),
    ("sim.host_ns_per_event", "ns"), ("mpi.send_ops", "count"),
    ("mpi.pool_reuse_ratio", "ratio"), ("mpi.sends_outstanding", "count"),
    ("net.messages", "count"), ("net.bytes", "B"), ("core.elements", "count"),
    ("core.frames", "count"), ("core.elements_per_frame", "ratio"),
    ("core.credits", "count"), ("core.term_messages", "count"),
    ("core.host_ns_per_element", "ns"), ("obs.trace_overhead", "ratio"),
    ("span.compute_s", "s"), ("span.send_blocked_s", "s"),
    ("span.recv_blocked_s", "s"), ("span.collective_s", "s"),
    ("span.stream_operate_s", "s"), ("app.exchange_sim_s", "s"),
)

PROBE_METRICS = (
    ("probe.sim.queue_ns", "ns"), ("probe.sim.switch_ns", "ns"),
    ("probe.sim.compute_ns", "ns"), ("probe.mpi.p2p_ns_64", "ns"),
    ("probe.mpi.p2p_ns", "ns"), ("probe.mpi.p2p_scale_ratio", "ratio"),
    ("probe.mpi.allreduce_ns", "ns"),
    ("probe.net.eager_ns", "ns"), ("probe.net.large_ns", "ns"),
    ("probe.core.stream_ns_per_element_pic", "ns"),
    ("probe.core.stream_ns_per_element_wordcount", "ns"),
    ("probe.core.channel_create_s", "s"),
    ("probe.core.stream_bytes_per_rank", "B"),
)


def traced_layers(bench, binary, seed, untraced):
    """Metric values from two traced runs of one seed (PIC only), and the
    operation counts probe.explained_share composes; ({}, None) on failure."""
    traced = [bench.child(binary, "traced", seed) for _ in range(2)]
    if None in traced:
        return {}, None
    first, second = traced
    for key in sorted(set(first) - {"wall_s", "peak_rss_mb"}):
        bench.expect_equal(f"traced {key}", first[key], second[key])
    bench.expect_equal("traced vs untraced sim_makespan_s",
                       first["sim_makespan_s"], untraced["sim_makespan_s"])

    t = totals(first["metrics"])
    wall_ns = untraced["wall_s"] * 1e9
    events = t["engine.events_executed"]
    created, reused = t["pool.send.created"], t["pool.send.reused"]
    elements = t.get("stream.elements_sent", 0)
    frames = t.get("stream.frames_sent", 0)
    coalesced = t.get("stream.coalesced_elements", 0)
    terms = t.get("stream.term_messages", 0)
    values = {
        "sim.events": events,
        "sim.compute_calls": first["compute_spans"],
        "sim.host_ns_per_event": ratio(wall_ns, events),
        "mpi.send_ops": created + reused,
        "mpi.pool_reuse_ratio": ratio(reused, created + reused),
        "mpi.sends_outstanding": t["pool.send.outstanding"],
        "net.messages": t["fabric.total_messages"],
        "net.bytes": t["fabric.total_bytes"],
        "core.elements": elements,
        "core.frames": frames,
        "core.elements_per_frame": ratio(coalesced, frames),
        "core.credits": t.get("stream.credits_received", 0),
        "core.term_messages": terms,
        "core.host_ns_per_element": ratio(wall_ns, elements),
        "obs.trace_overhead":
            statistics.median(r["wall_s"] for r in traced) / untraced["wall_s"],
        "app.exchange_sim_s": first["exchange_sim_s"],
    }
    for kind in ("compute", "send_blocked", "recv_blocked", "collective",
                 "stream_operate"):
        values[f"span.{kind}_s"] = first[f"span.{kind}_s"]
    # Messages the stream layer sent: frames, elements too large to
    # coalesce, credit acks and term messages. The rest are plain MPI.
    stream_messages = (frames + elements - coalesced
                       + t.get("stream.ack_messages", 0) + terms)
    counts = {"compute_calls": first["compute_spans"], "elements": elements,
              "mpi_messages": max(0, t["fabric.total_messages"] - stream_messages),
              "wall_ns": wall_ns}
    return values, counts


def per_layer(bench, binary, seed):
    untraced = bench.child(binary, "run", seed)
    if untraced is None:
        return
    if bench.workload in PIC_WORKLOADS:
        values, counts = traced_layers(bench, binary, seed, untraced)
    else:
        values, counts = {}, None
        again = bench.child(binary, "run", seed)
        if again:
            for key in ("sim_makespan_s", "elements_streamed"):
                bench.expect_equal(key, untraced[key], again[key])
    for name, unit in TRACED_METRICS:
        bench.metric(name, values.get(name, NOT_MEASURED), unit)
    bench.metric("app.elements_streamed",
                 untraced.get("elements_streamed", NOT_MEASURED), "count")

    probes = bench.child(binary, "probes", seed) or {}
    for name, unit in PROBE_METRICS:
        bench.metric(name, probes.get(name, NOT_MEASURED), unit)
    explained = NOT_MEASURED
    if probes and counts:
        # Representative regions composed: per-operation probe cost times
        # the traced operation count, over the untraced wall time.
        explained = (probes["probe.mpi.p2p_ns"] * counts["mpi_messages"]
                     + probes["probe.core.stream_ns_per_element_pic"]
                     * counts["elements"]
                     + (probes["probe.sim.switch_ns"] + probes["probe.sim.compute_ns"])
                     * counts["compute_calls"]) / counts["wall_ns"]
    bench.metric("probe.explained_share", explained, "ratio")

    holdout = bench.child(binary, "run", HOLDOUT_SEED) or {}
    bench.metric("holdout.wall_s", holdout.get("wall_s", NOT_MEASURED), "s")
    bench.metric("holdout.sim_makespan_s",
                 holdout.get("sim_makespan_s", NOT_MEASURED), "s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    bench = Bench(args.workload)
    bench.note(f"seed {args.seed}, {'per-layer' if args.trace else 'end-to-end'} "
               f"metrics, {os.cpu_count()} host cores, Release build")
    if bench.child(binary, "oracle", args.seed):
        if args.trace:
            per_layer(bench, binary, args.seed)
        else:
            end_to_end(bench, binary, args.seed, args.seconds)
    bench.finish()


if __name__ == "__main__":
    main()
