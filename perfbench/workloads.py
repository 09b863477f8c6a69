"""The benchmark's workloads: three simulated clusters and one live one.

Every workload is driven through the program's public entry points only:
the sim cluster builders of :mod:`repro.harness.cluster` and
:class:`repro.net.live.LiveCluster`.  Each ``run_*`` function measures
with tracing off and checks the program's outputs; each ``trace_*``
function makes one untraced and one traced pass and returns the per-layer
metrics of the traced pass plus the tracing overhead.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.generator import OpenLoopGenerator
from perfbench.hostspeed import slowness
from perfbench.tracing import SpanTracer, instrument

# Live workload shape: n=4 in-process, open loop at a quarter of the knee.
# Other tenants can slow the shared host by up to 2x for tens of seconds,
# and at half the knee (40k req/s) such a phase built a backlog; at 20k
# the loop stays below the knee through it.
LIVE_N = 4
LIVE_RATE = 20_000.0
LIVE_BUNDLE = 100
LIVE_PAYLOAD = 128
#: Seconds of load before the measurement window opens.
LIVE_WARMUP = 1.0
#: Seconds after the last due bundle by which every bundle must be acked.
LIVE_DRAIN = 2.0
#: Ack percentiles are taken per slice of this many seconds of due times
#: and reported as the median over slices, so one burst of host noise
#: moves one slice, not the run.  A slice holds at least 1 000 bundles at
#: 20k req/s, so its p99 has at least 10 samples beyond it.
LIVE_SLICE = 5.0


#: Sim workload -> (simulated seconds measured after the builder's default
#: warmup, builder seeds per run, host-speed probe kind).  A BFT block
#: commits many datablocks at once, so each window spans enough commits
#: for the committed rate to vary little by seed.  The attack's coding
#: work varies by about +-15% with the seed (which datablocks starved
#: replicas must retrieve), so one run of it simulates three builder seeds
#: derived from ``--seed`` and reports medians over them.  The probe kind
#: matches the layer that dominates the workload's host time (see
#: ``perfbench/hostspeed.py``): the scheduler and the cores on the clean
#: sims, numpy RS coding under the attack.
SIM_WORKLOADS = {
    "sim-leopard-n128": (5.0, 1, "interpreter"),
    "sim-pbft-n32": (1.0, 1, "interpreter"),
    "sim-leopard-attack": (4.0, 3, "array"),
}
#: Chunks an untraced simulated pass runs its window in, with a
#: host-speed probe after each (about 1 ms or less, outside the timing).
SIM_CHUNKS = 200
LIVE_WORKLOAD = "live-leopard-n4"
WORKLOADS = (*SIM_WORKLOADS, LIVE_WORKLOAD)


#: Every end-to-end metric with its unit (tracing off, every workload).
END_TO_END = {
    "setup_s": "s",
    "host_s": "s",
    "peak_rss_mb": "MB",
    "committed_rps": "1/s",
    "ack_p50_ms": "ms",
    "ack_p99_ms": "ms",
    "cpu_us_per_req": "us",
}


@dataclass
class Outcome:
    """One run's result: metrics, attempt/failure counts, notes."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (``numpy``'s default method)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    """Median of ``values``."""
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Simulated workloads
# ----------------------------------------------------------------------

def build_sim(name: str, seed: int):
    """Build workload ``name``'s cluster; returns ``(cluster, starved)``.

    ``starved`` lists the replicas the selective attacker never sends its
    datablocks to (empty for the clean workloads).
    """
    from repro.core.config import LeopardConfig, table2_parameters
    from repro.harness.cluster import build_leopard_cluster, build_pbft_cluster

    if name == "sim-pbft-n32":
        return build_pbft_cluster(32, seed=seed), []
    if name == "sim-leopard-n128":
        datablock, links = table2_parameters(128)
        config = LeopardConfig(n=128, datablock_size=datablock,
                               bftblock_max_links=links)
        return build_leopard_cluster(128, seed=seed, config=config), []
    if name == "sim-leopard-attack":
        from repro.faults import SelectiveDisseminator

        n = 16
        datablock, links = table2_parameters(n)
        config = LeopardConfig(n=n, datablock_size=datablock,
                               bftblock_max_links=links)
        leader = config.leader_of(1)
        attacker = n - 1
        others = [r for r in range(n) if r not in (leader, attacker)]
        # The leader plus a bare 2f+1 ready quorum (counting the
        # attacker's own vote) get the datablocks; the rest must
        # retrieve them through RS chunks and Merkle proofs.
        fed = others[:2 * config.f]
        targets = frozenset([leader, *fed])
        starved = [r for r in others if r not in targets]
        cluster = build_leopard_cluster(
            n, seed=seed, config=config,
            faults={attacker: SelectiveDisseminator(targets)})
        return cluster, starved
    raise KeyError(name)


def agreement_problems(cores: list) -> list[str]:
    """Every core's executed tail must match the others' majority at each
    shared serial number (the rule of ``check_convergence``; clean reports
    carry no ``recovery`` section, so the cores are read directly)."""
    from repro.core.recovery import check_convergence

    view = {"recovery": {"replicas": {
        str(core.node_id): {"exec_tail": core.recovery_summary()["exec_tail"]}
        for core in cores}}}
    problems = []
    for core in cores:
        ok, detail = check_convergence(view, core.node_id)
        if not ok:
            problems.append(f"agreement: {detail}")
    return problems


def sim_problems(cluster, starved: list[int]) -> list[str]:
    """Output checks for one simulated run (empty list = correct)."""
    problems = agreement_problems([core for core in cluster.replicas
                                   if core.node_id not in cluster.faults])
    committed = cluster.metrics.executed_requests.get(
        cluster.measure_replica, 0)
    if committed <= 0:
        problems.append("progress: nothing committed after warmup")
    for replica_id in starved:
        if cluster.replicas[replica_id].retrieval.recovered_count <= 0:
            problems.append(
                f"retrieval: starved replica {replica_id} recovered nothing")
    return problems


def fingerprint(report: dict) -> str:
    """Hash of the simulated outcome, host-time fields removed."""
    outcome = dict(report)
    outcome.pop("sim_events_per_sec", None)
    perf = dict(outcome.get("perf") or {})
    perf.pop("seconds", None)
    outcome["perf"] = perf
    blob = json.dumps(outcome, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _sim_pass(name: str, seed: int, tracer: SpanTracer | None = None
              ) -> dict:
    """Build, run the fixed window, report and check one simulated run."""
    gc.collect()
    scope = instrument(tracer) if tracer is not None else nullcontext()
    with scope:
        cluster, starved = build_sim(name, seed)
        window = cluster.warmup + SIM_WORKLOADS[name][0]
        if tracer is not None:
            tracer.reset()
        # The traced pass runs the window in one call, so no probe lands
        # inside the traced interval; its outcome must match the chunked
        # untraced pass (the fingerprint check in ``trace_sim``).
        chunks = 1 if tracer is not None else SIM_CHUNKS
        kind = SIM_WORKLOADS[name][2]
        before = slowness(kind) if tracer is None else 1.0
        host_s = cpu_s = scaled_host_s = scaled_cpu_s = 0.0
        for chunk in range(1, chunks + 1):
            cpu = time.process_time()
            start = time.perf_counter()
            cluster.run(window * chunk / chunks - cluster.sim.now)
            elapsed = time.perf_counter() - start
            used = time.process_time() - cpu
            after = slowness(kind) if tracer is None else 1.0
            # How much slower than the reference host this host ran over
            # the chunk, from the probes on either side of it.
            slow = (before + after) / 2
            host_s += elapsed
            cpu_s += used
            scaled_host_s += elapsed / slow
            scaled_cpu_s += used / slow
            before = after
    report = cluster.report()
    measure = cluster.replicas[cluster.measure_replica]
    return {
        "cluster": cluster,
        "host_s": host_s,
        "cpu_s": cpu_s,
        "scaled_host_s": scaled_host_s,
        "scaled_cpu_s": scaled_cpu_s,
        "report": report,
        "fingerprint": fingerprint(report),
        "problems": sim_problems(cluster, starved),
        "total_committed": measure.total_executed,
    }


def builder_seeds(name: str, seed: int) -> list[int]:
    """The builder seeds one run of ``name`` simulates for ``--seed``;
    distinct ``--seed`` values never share one."""
    per_run = SIM_WORKLOADS[name][1]
    return [seed * per_run + offset for offset in range(per_run)]


def run_sim(name: str, seed: int, seconds: float) -> Outcome:
    """Repeat the fixed simulated window, cycling through the run's
    builder seeds, until ``seconds`` have passed and some seed has run
    twice; every repeat is checked and medians are reported."""
    seeds = builder_seeds(name, seed)
    passes = []
    began = time.perf_counter()
    while len(passes) <= len(seeds) or time.perf_counter() - began < seconds:
        result = _sim_pass(name, seeds[len(passes) % len(seeds)])
        del result["cluster"]
        passes.append(result)
    outcome = Outcome(attempted=len(passes))
    reports: dict[int, dict] = {}
    fingerprints: dict[int, str] = {}
    for index, result in enumerate(passes):
        builder_seed = seeds[index % len(seeds)]
        reports.setdefault(builder_seed, result["report"])
        reference = fingerprints.setdefault(builder_seed,
                                            result["fingerprint"])
        problems = list(result["problems"])
        if result["fingerprint"] != reference:
            problems.append(f"fingerprint: repeat {index} (seed "
                            f"{builder_seed}) simulated a different outcome")
        if problems:
            outcome.failed += 1
            outcome.problems += problems

    def per_seed(pick) -> float:
        return median([pick(report) for report in reports.values()])

    # Host and CPU seconds are scaled to the reference host's speed by
    # the pass's interleaved probes (see ``perfbench/hostspeed.py``).
    cpu_per_req = [result["scaled_cpu_s"] / result["total_committed"] * 1e6
                   for result in passes if result["total_committed"]]
    outcome.metrics = {
        "host_s": (median([r["scaled_host_s"] for r in passes]), "s"),
        "committed_rps": (per_seed(lambda r: r["throughput_rps"]), "1/s"),
        "ack_p50_ms": (per_seed(lambda r: r["latency_s"]["p50"]) * 1e3,
                       "ms"),
        "ack_p99_ms": (per_seed(lambda r: r["latency_s"]["p99"]) * 1e3,
                       "ms"),
        "cpu_us_per_req": (median(cpu_per_req) if cpu_per_req else math.nan,
                           "us"),
    }
    outcome.notes.append(
        f"repeats: {len(passes)} (raw wall s per repeat: "
        + ", ".join(f"{r['host_s']:.3f}" for r in passes)
        + "; host speed vs reference: "
        + ", ".join(f"{r['scaled_host_s'] / r['host_s']:.3f}"
                    for r in passes) + ")")
    for builder_seed, report in reports.items():
        outcome.notes.append(
            f"builder seed {builder_seed}: {report['duration_s']:.3f} "
            f"simulated s after warmup, {report['acked_bundles']} ack "
            f"latency samples, fingerprint {fingerprints[builder_seed]}")
    return outcome


def _byte_ratios(byte_stats: list, committed: int) -> tuple[float, float]:
    """Replica messages and bytes sent per committed request."""
    if committed <= 0:
        return 0.0, 0.0
    msgs = sum(sum(stats.sent_msgs.values()) for stats in byte_stats)
    sent = sum(stats.total_sent() for stats in byte_stats)
    return msgs / committed, sent / committed


def trace_sim(name: str, seed: int) -> tuple[dict, SpanTracer, list]:
    """Untraced then traced pass; per-layer metrics of the traced one."""
    builder_seed = builder_seeds(name, seed)[0]
    plain = _sim_pass(name, builder_seed)
    del plain["cluster"]
    tracer = SpanTracer()
    traced = _sim_pass(name, builder_seed, tracer)
    cluster = traced["cluster"]
    problems = list(plain["problems"]) + list(traced["problems"])
    if traced["fingerprint"] != plain["fingerprint"]:
        problems.append("fingerprint: tracing changed the simulated outcome")
    wall = traced["host_s"]
    recovered = sum(getattr(getattr(core, "retrieval", None),
                            "recovered_count", 0)
                    for core in cluster.replicas)
    msgs, sent = _byte_ratios(
        [cluster.network.stats(r) for r in range(cluster.n)],
        traced["total_committed"])
    snapshot = tracer.snapshot(wall)
    extra = {
        "sched.events": cluster.sim.events_processed,
        "sched.self_s": (snapshot["top_residual"]
                         + snapshot["self_time"].get("sched.push", 0.0)),
        "crypto.encodes_per_recovery": (
            tracer.counters["crypto.rs_encode.blocks"] / recovered
            if recovered else 0.0),
        "msgs_per_req": msgs,
        "bytes_per_req": sent,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - plain["host_s"],
        "trace.overhead_cpu_us_per_req": (
            (traced["cpu_s"] - plain["cpu_s"])
            / traced["total_committed"] * 1e6
            if traced["total_committed"] else 0.0),
    }
    return layer_metrics(snapshot, extra), tracer, problems


# ----------------------------------------------------------------------
# Live workload
# ----------------------------------------------------------------------

async def _sleep_until(cluster, when: float) -> None:
    delay = when - cluster.clock()
    if delay > 0:
        await asyncio.sleep(delay)


async def _lag_probe(samples: list[float], period: float = 0.001) -> None:
    """Record how late the event loop wakes a ``period``-second sleep."""
    loop = asyncio.get_running_loop()
    while True:
        before = loop.time()
        await asyncio.sleep(period)
        samples.append(loop.time() - before - period)


def build_live(seed: int, load_s: float):
    """A LiveCluster whose one client node is the open-loop generator."""
    from repro.core.client import assign_replica
    from repro.net.live import LiveCluster
    from repro.net.protocols import default_live_config_for

    config = default_live_config_for("leopard", LIVE_N, LIVE_PAYLOAD,
                                     LIVE_BUNDLE)
    cluster = LiveCluster(LIVE_N, client_count=1, protocol="leopard",
                          config=config, total_rate=LIVE_RATE,
                          bundle_size=LIVE_BUNDLE, seed=seed)
    client_id = cluster.clients[0].node_id
    generator = OpenLoopGenerator(
        client_id, assign_replica(client_id, LIVE_N, cluster.leader),
        LIVE_RATE, LIVE_BUNDLE, LIVE_PAYLOAD, load_s)
    cluster.clients[0] = generator
    return cluster, generator


async def _live_pass(seed: int, load_s: float,
                     tracer: SpanTracer | None = None) -> dict:
    """Boot, offer ``load_s`` seconds of open-loop load, drain, stop."""
    from repro.net.live import transport_summary

    cluster, gen = build_live(seed, load_s)
    lags: list[float] = []
    probe = None
    await cluster.start()
    try:
        await _sleep_until(cluster, gen.start_at + LIVE_WARMUP)
        if tracer is not None:
            tracer.reset()
            probe = asyncio.get_running_loop().create_task(_lag_probe(lags))
        # (clock, CPU seconds, acked requests) at each slice boundary.
        marks = [(cluster.clock(), time.process_time(), gen.acked_requests)]
        slices = max(1, round(gen.last_due - marks[0][0]))
        step = (gen.last_due - marks[0][0]) / slices
        for index in range(1, slices + 1):
            await _sleep_until(cluster, marks[0][0] + index * step)
            marks.append((cluster.clock(), time.process_time(),
                          gen.acked_requests))
        window = marks[-1][0] - marks[0][0]
        cpu_s = marks[-1][1] - marks[0][1]
        acked = marks[-1][2] - marks[0][2]
        snapshot = tracer.snapshot(window) if tracer is not None else None
        if probe is not None:
            probe.cancel()
            try:
                await probe
            except asyncio.CancelledError:
                pass
        drain_deadline = gen.last_due + LIVE_DRAIN
        while not gen.done and cluster.clock() < drain_deadline:
            await asyncio.sleep(0.005)
    finally:
        await cluster.stop()
    transport = transport_summary(
        [node.router for node in cluster.nodes.values()])
    measure = cluster.replicas[cluster.measure_replica]
    return {
        "cluster": cluster,
        "gen": gen,
        "window": window,
        "cpu_s": cpu_s,
        "acked": acked,
        "cpu_us_per_req_slices": [
            (cpu1 - cpu0) / (acked1 - acked0) * 1e6
            for (_t0, cpu0, acked0), (_t1, cpu1, acked1)
            in zip(marks, marks[1:]) if acked1 > acked0],
        "transport": transport,
        "snapshot": snapshot,
        "lags": lags,
        "total_committed": measure.total_executed,
    }


def live_problems(result: dict) -> tuple[list[str], int]:
    """Output checks for one live pass; returns ``(problems, failures)``.

    Failures are counted in bundles or frames: every due bundle not fully
    acknowledged by the drain deadline, every dropped, unroutable or
    undecodable frame, every handler error and every ack for a bundle
    that was never due.
    """
    gen = result["gen"]
    transport = result["transport"]
    problems = []
    unsent = gen.nominal_bundles - gen.submitted
    unacked = len(gen.outstanding) + unsent
    if unacked:
        problems.append(f"acks: {unacked} due bundles not fully acked "
                        f"within {LIVE_DRAIN} s")
    if gen.bogus_acks:
        problems.append(f"acks: {gen.bogus_acks} acks for bundles never due")
    frame_faults = 0
    for key in ("dropped_frames", "unroutable_frames", "decode_errors",
                "handler_errors"):
        if transport[key]:
            frame_faults += transport[key]
            problems.append(f"transport: {key}={transport[key]}")
    problems += agreement_problems(result["cluster"].replicas)
    failures = unacked + gen.bogus_acks + frame_faults
    if problems and not failures:
        failures = 1
    return problems, failures


def _live_load_seconds(seconds: float, passes: int) -> float:
    """Load per pass so ``passes`` passes fit ``seconds`` with drain."""
    return max(LIVE_WARMUP + 2.0, seconds / passes - 1.0)


def _frames_sent(cluster) -> int:
    return sum(sum(node.router.stats.sent_msgs.values())
               for node in cluster.nodes.values())


def run_live(seed: int, seconds: float) -> Outcome:
    """One untraced live pass of open-loop load; end-to-end metrics."""
    result = asyncio.run(_live_pass(seed, _live_load_seconds(seconds, 1)))
    gen = result["gen"]
    problems, failures = live_problems(result)
    outcome = Outcome(attempted=gen.nominal_bundles
                      + _frames_sent(result["cluster"]),
                      failed=failures, problems=problems)
    since = gen.start_at + LIVE_WARMUP
    until = gen.last_due + gen.interval
    count = max(1, int((until - since) // LIVE_SLICE))
    step = (until - since) / count
    slices = [gen.latencies(since + index * step, since + (index + 1) * step)
              for index in range(count)]
    p50s = [percentile(values, 50) for values in slices]
    p99s = [percentile(values, 99) for values in slices]
    beyond = min(sum(1 for value in values if value > p99)
                 for values, p99 in zip(slices, p99s))
    finished = max(gen.completed_at.values(), default=math.nan)
    acked = result["acked"]
    outcome.metrics = {
        "host_s": (finished - gen.start_at, "s"),
        "committed_rps": (acked / result["window"], "1/s"),
        "ack_p50_ms": (median(p50s) * 1e3, "ms"),
        "ack_p99_ms": (median(p99s) * 1e3, "ms"),
        "cpu_us_per_req": (median(result["cpu_us_per_req_slices"]), "us"),
    }
    outcome.notes += [
        f"offered {LIVE_RATE:.0f} req/s in {LIVE_BUNDLE}-request bundles; "
        f"{gen.submitted}/{gen.nominal_bundles} bundles submitted, "
        f"{gen.bursts} catch-up bursts, "
        f"generator lag p99 {percentile(gen.lags, 99) * 1e3:.3f} ms",
        f"ack latency samples: {sum(map(len, slices))} in {count} slices "
        f"of {step:.2f} s (at least {beyond} beyond each slice's p99); "
        f"measured window {result['window']:.3f} s",
        "ack_p99_ms per slice: " + ", ".join(
            f"{value * 1e3:.1f}" for value in p99s),
        f"transport: {result['transport']}",
        "cpu_us_per_req per slice: " + ", ".join(
            f"{value:.2f}" for value in result["cpu_us_per_req_slices"]),
    ]
    return outcome


def trace_live(seed: int, seconds: float) -> tuple[dict, SpanTracer, list]:
    """Untraced then traced live pass; per-layer metrics of the traced."""
    load_s = _live_load_seconds(seconds, 2)
    plain = asyncio.run(_live_pass(seed, load_s))
    tracer = SpanTracer()
    with instrument(tracer, extra_cores=((OpenLoopGenerator, "gen"),)):
        traced = asyncio.run(_live_pass(seed, load_s, tracer))
    problems = live_problems(plain)[0] + live_problems(traced)[0]
    snapshot = traced["snapshot"]
    window = traced["window"]
    idle = max(0.0, window - traced["cpu_s"])
    gen = plain["gen"]
    msgs, sent = _byte_ratios(
        [plain["cluster"].nodes[r].router.stats for r in range(LIVE_N)],
        plain["total_committed"])

    def per_req(result):
        return result["cpu_s"] / result["acked"] * 1e6 \
            if result["acked"] else 0.0

    extra = {
        "gen.lag_p99_ms": percentile(gen.lags, 99) * 1e3,
        "gen.submitted_frac": gen.submitted / gen.nominal_bundles,
        "msgs_per_req": msgs,
        "bytes_per_req": sent,
        "loop.busy_frac": plain["cpu_s"] / plain["window"],
        "loop.idle_s": idle,
        "loop.self_s": snapshot["top_residual"] - idle,
        "loop.lag_p99_ms": percentile(traced["lags"], 99) * 1e3,
        "trace.wall_s": window,
        "trace.overhead_s": traced["cpu_s"] - plain["cpu_s"],
        "trace.overhead_cpu_us_per_req": per_req(traced) - per_req(plain),
    }
    return layer_metrics(snapshot, extra), tracer, problems


# ----------------------------------------------------------------------
# Per-layer metric table
# ----------------------------------------------------------------------

#: Span name -> metric prefix for the wrapped layer boundaries.
SPAN_METRICS = ("sched.push", "nic.send", "nic.arrive", "core.msg",
                "core.timer", "crypto.rs_encode", "crypto.rs_decode",
                "crypto.threshold", "wire.encode", "wire.decode",
                "transport.send")

#: Every per-layer metric with its unit and direction.
LAYER_METRICS = {
    "sched.events": ("count", "lower"),
    "sched.push.calls": ("count", "lower"),
    "sched.push.s": ("s", "lower"),
    "sched.self_s": ("s", "lower"),
    "nic.send.calls": ("count", "lower"),
    "nic.send.s": ("s", "lower"),
    "nic.arrive.calls": ("count", "lower"),
    "nic.arrive.s": ("s", "lower"),
    "core.msg.calls": ("count", "lower"),
    "core.msg.s": ("s", "lower"),
    "core.timer.calls": ("count", "lower"),
    "core.timer.s": ("s", "lower"),
    "core.gen.fires": ("count", "lower"),
    "core.gen.useful_ratio": ("ratio", "higher"),
    "crypto.rs_encode.blocks": ("count", "lower"),
    "crypto.rs_encode.s": ("s", "lower"),
    "crypto.rs_decode.blocks": ("count", "lower"),
    "crypto.rs_decode.s": ("s", "lower"),
    "crypto.merkle.s": ("s", "lower"),
    "crypto.encodes_per_recovery": ("ratio", "lower"),
    "crypto.threshold.calls": ("count", "lower"),
    "crypto.threshold.s": ("s", "lower"),
    "wire.encode.calls": ("count", "lower"),
    "wire.encode.s": ("s", "lower"),
    "wire.encode.bytes": ("B", "lower"),
    "wire.decode.calls": ("count", "lower"),
    "wire.decode.s": ("s", "lower"),
    "transport.send.calls": ("count", "lower"),
    "transport.send.s": ("s", "lower"),
    "msgs_per_req": ("msgs/req", "lower"),
    "bytes_per_req": ("B/req", "lower"),
    "gen.s": ("s", "lower"),
    "gen.lag_p99_ms": ("ms", "lower"),
    "gen.submitted_frac": ("ratio", "higher"),
    "loop.busy_frac": ("ratio", "lower"),
    "loop.self_s": ("s", "lower"),
    "loop.idle_s": ("s", "higher"),
    "loop.lag_p99_ms": ("ms", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_cpu_us_per_req": ("us", "lower"),
    "trace.spans": ("count", "lower"),
}


#: Self-time metrics that partition the traced interval between them
#: (``sched.self_s`` already holds ``sched.push.s``; on live the loop's
#: self and idle time hold the residual).
ACCOUNTED = ("sched.self_s", "nic.send.s", "nic.arrive.s", "core.msg.s",
             "core.timer.s", "crypto.rs_encode.s", "crypto.rs_decode.s",
             "crypto.merkle.s", "crypto.threshold.s", "wire.encode.s",
             "wire.decode.s", "transport.send.s", "gen.s", "loop.self_s",
             "loop.idle_s")


def layer_metrics(snap: dict, extra: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from a tracer snapshot plus ``extra``;
    layers a workload never enters read 0."""
    values = {name: 0.0 for name in LAYER_METRICS}
    for span in SPAN_METRICS:
        values[f"{span}.calls"] = snap["calls"].get(span, 0)
        values[f"{span}.s"] = snap["self_time"].get(span, 0.0)
    values["crypto.merkle.s"] = snap["self_time"].get("crypto.merkle", 0.0)
    values["gen.s"] = snap["self_time"].get("gen", 0.0)
    counters = snap["counters"]
    fires = counters.get("core.gen.fires", 0)
    values["core.gen.fires"] = fires
    values["core.gen.useful_ratio"] = (
        counters.get("core.gen.useful", 0) / fires if fires else 0.0)
    values["crypto.rs_encode.blocks"] = counters.get(
        "crypto.rs_encode.blocks", 0)
    values["crypto.rs_decode.blocks"] = counters.get(
        "crypto.rs_decode.blocks", 0)
    values["wire.encode.bytes"] = counters.get("wire.encode.bytes", 0)
    values["trace.spans"] = sum(snap["calls"].values())
    values.update(extra)
    return {name: (float(values[name]), LAYER_METRICS[name][0])
            for name in LAYER_METRICS}


def write_trace(path: Path, workload: str, seed: int, tracer: SpanTracer,
                metrics: dict) -> None:
    """Write the kept spans and the layer table as one JSON file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "layers": {name: value for name, (value, _unit)
                              in metrics.items()},
                   "spans": tracer.span_records()}, handle)


# ----------------------------------------------------------------------
# Set-up probe (runs in a fresh process)
# ----------------------------------------------------------------------

def setup_probe(name: str, seed: int, ready) -> None:
    """Build workload ``name`` ready for load, call ``ready()``, tear down.

    Sim: imports, key dealing and core construction.  Live: the same plus
    listener bind and boot.
    """
    if name in SIM_WORKLOADS:
        build_sim(name, builder_seeds(name, seed)[0])
        ready()
        return

    async def boot() -> None:
        cluster, _gen = build_live(seed, 1.0)
        await cluster.start()
        try:
            ready()
        finally:
            await cluster.stop()

    asyncio.run(boot())
