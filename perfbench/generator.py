"""Open-loop load generator hosted as the live cluster's one client core.

Bundle ``k`` is due at ``start + k * interval``.  Every timer fire sends
all bundles that are due by now (a catch-up burst when the event loop ran
late) and re-arms for the next due time, so loop lateness delays bundles
but never removes them.  Each bundle carries its *due* time as
``submitted_at``, so an acknowledgement's latency counts the wait a stall
imposed on it (no coordinated omission).

The core speaks the same sans-io contract as the in-tree clients, so
:class:`repro.net.node.LiveNode` hosts it unchanged.
"""

from __future__ import annotations

from typing import Hashable

from repro.interfaces import Effect, Send, SetTimer
from repro.messages.client import Ack, RequestBundle


class OpenLoopGenerator:
    """Absolute-schedule client core with full-ack bookkeeping.

    Args:
        node_id: this client's node id.
        target: the replica every bundle is sent to.
        rate: offered load in requests/second.
        bundle_size: requests per bundle.
        payload_size: bytes per request.
        duration: seconds of load; ``round(duration * rate / bundle_size)``
            bundles are due in total.
        lead_in: seconds from :meth:`start` to the first due bundle.
    """

    def __init__(self, node_id: int, target: int, rate: float,
                 bundle_size: int, payload_size: int, duration: float,
                 lead_in: float = 0.05) -> None:
        if rate <= 0 or bundle_size <= 0 or duration <= 0:
            raise ValueError("rate, bundle_size and duration must be > 0")
        self.node_id = node_id
        self.target = target
        self.bundle_size = bundle_size
        self.payload_size = payload_size
        self.interval = bundle_size / rate
        self.nominal_bundles = max(1, round(duration * rate / bundle_size))
        self.lead_in = lead_in
        self.start_at: float | None = None
        self.submitted = 0
        #: Per fire: lateness of the first bundle it sent (seconds).
        self.lags: list[float] = []
        #: Fires that sent more than one bundle.
        self.bursts = 0
        #: bundle index -> requests not yet acknowledged.
        self.outstanding: dict[int, int] = {}
        #: bundle index -> time its last request was acknowledged.
        self.completed_at: dict[int, float] = {}
        self.acked_requests = 0
        #: Acks for a bundle never sent, or beyond a bundle's size.
        self.bogus_acks = 0

    def due(self, index: int) -> float:
        """When bundle ``index`` is due (cluster clock)."""
        return self.start_at + index * self.interval

    @property
    def last_due(self) -> float:
        """Due time of the final bundle."""
        return self.due(self.nominal_bundles - 1)

    @property
    def done(self) -> bool:
        """Every bundle was sent and fully acknowledged."""
        return (self.submitted == self.nominal_bundles
                and not self.outstanding)

    def start(self, now: float) -> list[Effect]:
        """Fix the schedule origin and arm the first fire."""
        self.start_at = now + self.lead_in
        return [SetTimer("submit", self.lead_in)]

    def on_timer(self, key: Hashable, now: float) -> list[Effect]:
        """Send every bundle due by ``now``; re-arm for the next one."""
        if key != "submit":
            return []
        effects: list[Effect] = []
        first = self.submitted
        while (self.submitted < self.nominal_bundles
               and self.due(self.submitted) <= now):
            index = self.submitted
            effects.append(Send(self.target, RequestBundle(
                self.node_id, index + 1, self.bundle_size,
                self.payload_size, self.due(index))))
            self.outstanding[index] = self.bundle_size
            self.submitted += 1
        sent = self.submitted - first
        if sent:
            self.lags.append(now - self.due(first))
            if sent > 1:
                self.bursts += 1
        if self.submitted < self.nominal_bundles:
            effects.append(SetTimer(
                "submit", max(0.0, self.due(self.submitted) - now)))
        return effects

    def on_message(self, sender: int, msg, now: float) -> list[Effect]:
        """Count acknowledgements; a bundle completes at its last ack."""
        if not isinstance(msg, Ack):
            return []
        index = msg.bundle_id - 1
        remaining = self.outstanding.get(index)
        if remaining is None or msg.count > remaining:
            self.bogus_acks += 1
            return []
        self.acked_requests += msg.count
        if remaining == msg.count:
            del self.outstanding[index]
            self.completed_at[index] = now
        else:
            self.outstanding[index] = remaining - msg.count
        return []

    def latencies(self, since: float, until: float) -> list[float]:
        """Due-to-full-ack seconds of bundles due in ``[since, until)``."""
        return [done - self.due(index)
                for index, done in self.completed_at.items()
                if since <= self.due(index) < until]
