"""Host-speed probes: fixed kernels timed between chunks of a sim pass.

The reference host is a shared VM whose speed swings by up to 2x over
seconds as other tenants load the physical cores.  A simulated pass
follows those swings, so ten runs of the same code spread by 11-32%
(IQR / median) in raw wall seconds.

A simulated pass therefore runs its window in chunks and calls
:func:`slowness` after each one.  The probes use none of the program's
code.  Each times a fixed kernel and divides by that kernel's time on
the reference host; the chunk's wall time is divided by the mean of the
probes on either side of it.  A change to the program moves the scaled
figures exactly as much as the raw ones, while a change in the host's
speed cancels.

Host noise does not slow all code alike: on the reference host
interpreter-bound code slows about twice as much as numpy array code.
So there are two kernels, and each workload uses the one that matches
the layer that dominates it:

- ``interpreter``: pushes and pops a heap of tuples, touches slotted
  objects and updates a dict, like the simulator's event loop and the
  protocol cores.
- ``array``: gathers from a byte table and XORs rows with numpy, like
  the GF(256) kernels of the Reed-Solomon coder.
"""

from __future__ import annotations

import gc
import heapq
import time
from functools import lru_cache

import numpy as np

#: Rounds of the interpreter kernel per probe.
INTERPRETER_ROUNDS = 600
#: Row length in bytes of the array kernel (8 rows per probe).
ARRAY_ROW = 16_384


class _Item:
    __slots__ = ("due", "key", "body")

    def __init__(self, due: int, key: int, body: tuple) -> None:
        self.due = due
        self.key = key
        self.body = body


def _interpreter_kernel() -> None:
    heap: list = []
    table: dict[int, int] = {}
    for i in range(INTERPRETER_ROUNDS):
        heapq.heappush(heap, ((i * 7919) % 1000 + i, i,
                              _Item(i, i & 63, (i, i))))
        if len(heap) > 64:
            _due, _seq, item = heapq.heappop(heap)
            table[item.key] = table.get(item.key, 0) + len(item.body)


@lru_cache(maxsize=1)
def _array_inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(1)
    table = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
    rows = rng.integers(0, 256, size=(8, ARRAY_ROW)).astype(np.intp)
    return table, rows


def _array_kernel() -> None:
    table, rows = _array_inputs()
    acc = np.zeros(ARRAY_ROW, dtype=np.uint8)
    for j, row in enumerate(rows):
        np.bitwise_xor(acc, table[j * 31 + 1][row], out=acc)


#: Probe kind -> (kernel, its median time on the reference host in s).
KERNELS = {
    "interpreter": (_interpreter_kernel, 1.0e-3),
    "array": (_array_kernel, 0.33e-3),
}


def slowness(kind: str) -> float:
    """The kernel's wall time now over its time on the reference host
    (above 1 means this host is slower now).  The collector is paused so
    a collection of the simulator's heap never lands inside the probe."""
    kernel, reference_s = KERNELS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return (time.perf_counter() - start) / reference_s
    finally:
        if enabled:
            gc.enable()
