"""Self-tests of the benchmark's own apparatus.

The open-loop generator must offer its nominal load even when the event
loop stalls (catch-up bursts, due-time latency stamps, reported lag).
The span tracer's self times plus residual must account for the traced
interval.  The host-speed probes must read relative to the reference
host.  ``BENCHMARK.json`` must list exactly the metrics the runner
prints.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

from perfbench import hostspeed, workloads
from perfbench.generator import OpenLoopGenerator
from perfbench.tracing import SpanTracer, patched
from repro.interfaces import Send, SetTimer
from repro.messages.client import Ack
from repro.net.node import LiveNode
from repro.stats import MetricsCollector


class AckingRouter:
    """Transport stand-in that acknowledges every bundle immediately."""

    def __init__(self) -> None:
        self.node: LiveNode | None = None
        self.sent = 0

    def send(self, dest: int, msg) -> bool:
        self.sent += 1
        ack = Ack(msg.client_id, msg.bundle_id, msg.count, msg.submitted_at,
                  0.0)
        asyncio.get_running_loop().call_soon(self.node.deliver, dest, ack)
        return True

    async def close(self) -> None:
        pass


async def _drive(generator: OpenLoopGenerator,
                 stalls: list[tuple[float, float]],
                 deadline: float = 5.0) -> AckingRouter:
    """Host ``generator`` in a LiveNode; block the loop at each stall."""
    loop = asyncio.get_running_loop()
    epoch = loop.time()
    router = AckingRouter()
    node = LiveNode(generator, router, range(4), MetricsCollector(),
                    lambda: loop.time() - epoch)
    router.node = node
    for at, length in stalls:
        loop.call_at(epoch + at, time.sleep, length)
    node.boot()
    while not generator.done and loop.time() - epoch < deadline:
        await asyncio.sleep(0.01)
    await node.shutdown()
    return router


def test_generator_keeps_nominal_load_through_stalls():
    generator = OpenLoopGenerator(node_id=4, target=0, rate=20_000,
                                  bundle_size=100, payload_size=128,
                                  duration=1.0)
    stalls = [(0.2, 0.1), (0.6, 0.05)]
    router = asyncio.run(_drive(generator, stalls))

    assert generator.nominal_bundles == 200
    assert generator.submitted == 200 == router.sent
    assert generator.done and generator.bogus_acks == 0
    # Late fires send every overdue bundle at once instead of dropping
    # them, and the lateness is reported, not hidden.
    assert generator.bursts >= 2
    assert max(generator.lags) >= 0.09
    # Latency counts from the due time, so the stall shows up in it.
    latencies = generator.latencies(0.0, float("inf"))
    assert len(latencies) == 200
    assert max(latencies) >= 0.09
    # The schedule is absolute: the stalls did not stretch the run.
    last_ack = max(generator.completed_at.values())
    assert last_ack - generator.last_due < 0.05


def test_generator_schedule_and_ack_bookkeeping():
    generator = OpenLoopGenerator(node_id=4, target=2, rate=1000,
                                  bundle_size=10, payload_size=128,
                                  duration=0.1)
    assert generator.start(0.0) == [SetTimer("submit", 0.05)]
    # Fire 25 ms late: bundles 0, 1 and 2 are overdue and go out together,
    # each stamped with its own due time.
    effects = generator.on_timer("submit", 0.075)
    sends = [effect for effect in effects if isinstance(effect, Send)]
    assert [send.msg.submitted_at for send in sends] == [
        generator.due(0), generator.due(1), generator.due(2)]
    assert all(send.dest == 2 for send in sends)
    rearm = effects[-1]
    assert isinstance(rearm, SetTimer)
    assert abs(rearm.delay - (generator.due(3) - 0.075)) < 1e-12
    assert generator.bursts == 1

    # Partial then final ack completes bundle 1 at the final ack's time.
    generator.on_message(0, Ack(4, 2, 4, generator.due(1), 0.0), 0.08)
    assert 1 not in generator.completed_at
    generator.on_message(0, Ack(4, 2, 6, generator.due(1), 0.0), 0.09)
    assert generator.completed_at[1] == 0.09
    # Acks for a bundle never sent, or beyond a bundle's size, are bogus.
    generator.on_message(0, Ack(4, 99, 10, 0.0, 0.0), 0.09)
    generator.on_message(0, Ack(4, 1, 11, generator.due(0), 0.0), 0.09)
    assert generator.bogus_acks == 2


class _Layer:
    def outer(self, delay):
        time.sleep(delay)
        return self.inner(delay)

    def inner(self, delay):
        time.sleep(delay)
        return delay


def test_tracer_self_times_account_for_wall():
    tracer = SpanTracer(keep_spans=3)
    replacements = [
        (_Layer, "outer", tracer.wrap("outer", vars(_Layer)["outer"])),
        (_Layer, "inner", tracer.wrap("inner", vars(_Layer)["inner"])),
    ]
    with patched(replacements):
        start = time.perf_counter()
        for _ in range(3):
            _Layer().outer(0.002)
        time.sleep(0.005)
        wall = time.perf_counter() - start
    assert vars(_Layer)["outer"] is replacements[0][2].__wrapped__
    snapshot = tracer.snapshot(wall)
    assert snapshot["calls"] == {"outer": 3, "inner": 3}
    accounted = sum(snapshot["self_time"].values()) \
        + snapshot["top_residual"]
    assert abs(accounted - wall) < 1e-9
    assert snapshot["top_residual"] >= 0.005
    assert snapshot["self_time"]["outer"] >= 0.006
    spans = tracer.span_records()
    assert len(spans) == 3
    assert spans[0]["name"] == "outer" and spans[0]["parent"] == -1
    assert spans[1]["name"] == "inner" and spans[1]["parent"] == 0


def test_host_speed_probes_read_relative_to_the_reference_host():
    # Each kernel's reference time is its median on the reference host,
    # so any working host reads within a small factor of 1.
    for kind in hostspeed.KERNELS:
        readings = sorted(hostspeed.slowness(kind) for _ in range(9))
        assert 0.1 < readings[4] < 10.0, (kind, readings)
    assert {spec[2] for spec in workloads.SIM_WORKLOADS.values()} <= set(
        hostspeed.KERNELS)


def test_benchmark_manifest_matches_the_metric_tables():
    manifest = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(
        workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == \
        workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in manifest["per_layer"]} == workloads.LAYER_METRICS
