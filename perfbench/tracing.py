"""Outside-in layer tracing: wrap public functions, time nested spans.

:func:`instrument` replaces selected public functions of the program's
layers with thin wrappers for the duration of a ``with`` block and
restores the originals afterwards.  Nothing under ``src/`` changes and
every wrapped call still runs in full: wrapping only observes.

Each wrapped call is a span ``(name, start, end, parent)``.  The tracer
keeps, per span name, the call count and the *self* time (span time
minus the time covered by child spans).  Time between
spans is the caller's residual.  Self times of every span plus the
residual add up to the traced interval exactly.  The first
``keep_spans`` raw span records are kept in memory and written out by
the runner when the run ends; the aggregates cover every span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

#: Raw span records kept per traced pass (aggregates cover all spans).
DEFAULT_KEEP_SPANS = 50_000


class SpanTracer:
    """Stack-based span recorder for single-threaded code.

    The live backend runs every wrapped function synchronously inside one
    asyncio thread, and the simulator is single-threaded, so one explicit
    stack is enough to attribute child time to the right parent.
    """

    def __init__(self, keep_spans: int = DEFAULT_KEEP_SPANS) -> None:
        self.keep_spans = keep_spans
        self.reset()

    def reset(self) -> None:
        """Start a fresh accounting interval (call with no span open)."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.top_level = 0.0
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self.started = time.perf_counter()

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a named counter recorded at a wrapped boundary."""
        self.counters[name] += amount

    def wrap(self, name: str, fn: Callable,
             observe: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped as span ``name``.

        ``observe(args, result)`` runs after the span closes, so counting
        work done (bytes, blocks) is not charged to the layer.
        """
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            spans = tracer.spans
            index = -1
            parent = stack[-1][2] if stack else -1
            start = clock()
            if len(spans) < tracer.keep_spans:
                index = len(spans)
                spans.append([name, start, start, parent])
            frame = [0.0, start, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_time[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.top_level += duration
                if index >= 0:
                    spans[index][2] = end
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self, wall: float) -> dict:
        """Copy of the aggregates; ``top_residual`` is the part of the
        ``wall``-second interval covered by no span."""
        return {"calls": dict(self.calls),
                "self_time": dict(self.self_time),
                "counters": dict(self.counters),
                "top_residual": wall - self.top_level}

    def span_records(self) -> list[dict]:
        """The kept raw spans, times relative to the interval start."""
        origin = self.started
        return [{"name": name, "start": start - origin, "end": end - origin,
                 "parent": parent}
                for name, start, end, parent in self.spans]


@contextmanager
def patched(replacements: list[tuple[object, str, Callable]]):
    """Set ``owner.attr = value`` for each entry; restore on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _method(tracer: SpanTracer, owner: type, attr: str, name: str,
            observe: Callable | None = None) -> tuple:
    return owner, attr, tracer.wrap(name, vars(owner)[attr], observe)


def _function(tracer: SpanTracer, module, attr: str, name: str,
              observe: Callable | None = None) -> list[tuple]:
    """Wrap a module function in its own module and in every ``repro``
    module that imported it by name."""
    original = getattr(module, attr)
    wrapped = tracer.wrap(name, original, observe)
    holders = [mod for mod_name, mod in list(sys.modules.items())
               if mod_name.startswith("repro") and mod is not None
               and getattr(mod, attr, None) is original]
    return [(holder, attr, wrapped) for holder in holders]


def layer_patches(tracer: SpanTracer, extra_cores: tuple = ()) -> list:
    """The wrapped boundaries of every layer, as :func:`patched` entries.

    ``extra_cores`` are ``(class, span name)`` pairs for cores the
    benchmark hosts itself (the open-loop generator).
    """
    from repro.baselines.client import BaselineClient
    from repro.baselines.pbft.replica import PbftReplica
    from repro.core.client import LeopardClient
    from repro.core.replica import LeopardReplica
    from repro.crypto import merkle
    from repro.crypto.reed_solomon import ReedSolomonCode
    from repro.crypto.threshold import ThresholdScheme
    from repro.interfaces import Broadcast
    from repro.net.transport import Router
    from repro.sim.events import CalendarEventQueue, HeapEventQueue
    from repro.sim.network import Network, Transmission
    from repro.wire import codec

    def gen_fire(args, effects):
        if args[1] != "gen":
            return
        tracer.count("core.gen.fires")
        if any(isinstance(effect, Broadcast)
               and effect.msg.msg_class == "datablock"
               for effect in effects):
            tracer.count("core.gen.useful")

    def encoded_blocks(args, result):
        tracer.count("crypto.rs_encode.blocks", len(args[1]))

    def decoded_block(args, result):
        tracer.count("crypto.rs_decode.blocks")

    def encoded_bytes(args, frame):
        tracer.count("wire.encode.bytes", len(frame))

    patches = [
        _method(tracer, CalendarEventQueue, "push", "sched.push"),
        _method(tracer, HeapEventQueue, "push", "sched.push"),
        _method(tracer, Network, "send_unicast", "nic.send"),
        _method(tracer, Network, "send_broadcast", "nic.send"),
        _method(tracer, Transmission, "arrive", "nic.arrive"),
        _method(tracer, LeopardReplica, "on_timer", "core.timer", gen_fire),
        _method(tracer, ReedSolomonCode, "encode_many", "crypto.rs_encode",
                encoded_blocks),
        _method(tracer, ReedSolomonCode, "decode", "crypto.rs_decode",
                decoded_block),
        _method(tracer, merkle.MerkleTree, "__init__", "crypto.merkle"),
        _method(tracer, merkle.MerkleTree, "proof", "crypto.merkle"),
        _method(tracer, Router, "send", "transport.send"),
        _method(tracer, Router, "send_many", "transport.send"),
    ]
    for scheme_method in ("verify_share", "combine", "verify"):
        patches.append(_method(tracer, ThresholdScheme, scheme_method,
                               "crypto.threshold"))
    for core in (LeopardReplica, PbftReplica, LeopardClient,
                 BaselineClient):
        patches.append(_method(tracer, core, "on_message", "core.msg"))
        if core is not LeopardReplica:
            patches.append(_method(tracer, core, "on_timer", "core.timer"))
    for core, name in extra_cores:
        patches.append(_method(tracer, core, "on_message", name))
        patches.append(_method(tracer, core, "on_timer", name))
    patches += _function(tracer, merkle, "verify_proof", "crypto.merkle")
    patches += _function(tracer, codec, "encode", "wire.encode",
                         encoded_bytes)
    patches += _function(tracer, codec, "decode_payload", "wire.decode")
    return patches


@contextmanager
def instrument(tracer: SpanTracer, extra_cores: tuple = ()):
    """Wrap every layer boundary for the enclosed block.

    Build clusters *inside* the block: hosts bind core methods when they
    are constructed, so a cluster built before the patch stays untraced.
    """
    with patched(layer_patches(tracer, extra_cores)):
        yield tracer
