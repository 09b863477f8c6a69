"""Parked generation/proposal ticks cut on the grid a polling tick would.

A replica parks its ``gen`` tick while a gate that only an event can open
is shut (own-datablock window full, empty mempool, leader, view-change),
and its ``propose`` tick while it is not the leader.  The wake-up re-arms
the tick on the grid of instants the recurring timer would have used.

The equivalence check drives two identical replicas through one script
of messages: the *poller* gets ``on_timer`` on every grid tick (the
behaviour of a recurring timer that never parks), the *twin* only when a
``SetTimer`` it emitted comes due.  Both must emit the same messages at
the same float instants.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.agreement import commit_payload
from repro.core.replica import LeopardReplica
from repro.interfaces import Broadcast, CancelTimer, Send, SetTimer
from repro.messages.client import RequestBundle
from repro.messages.leopard import (
    BFTblock,
    Datablock,
    NewViewMsg,
    Proof,
    ROUND_COMMIT,
    ROUND_PREPARE,
    Ready,
    TimeoutMsg,
    ViewChangeMsg,
)

#: The replica under test: a non-leader in view 1 that leads view 2.
ME = 2
END = 0.2


def _grid(interval: float, end: float) -> list[float]:
    """Fire instants of a timer armed at 0 and re-armed on every fire."""
    ticks, tick = [], interval
    while tick <= end:
        ticks.append(tick)
        tick += interval
    return ticks


class _TickHost:
    """Runs one replica through the script under a given timer policy."""

    def __init__(self, replica: LeopardReplica, poll: bool) -> None:
        self.replica = replica
        self.poll = poll
        self.armed: dict[str, float] = {}
        self.out: list[tuple[float, object]] = []
        self.timer_fires = {"gen": 0, "propose": 0}

    def apply(self, now: float, effects) -> None:
        for effect in effects:
            if isinstance(effect, (Send, Broadcast)):
                self.out.append((now, effect))
            elif isinstance(effect, SetTimer) \
                    and effect.key in ("gen", "propose"):
                self.armed[effect.key] = now + effect.delay
            elif isinstance(effect, CancelTimer):
                self.armed.pop(effect.key, None)

    def tick(self, key: str, now: float) -> None:
        if not self.poll:
            due = self.armed.get(key)
            assert due is None or due >= now, \
                f"{key} armed off the grid at {due!r} (passed {now!r})"
            if due != now:
                return
            del self.armed[key]
        self.timer_fires[key] += 1
        self.apply(now, self.replica.on_timer(key, now))

    def deliver(self, now: float, sender: int, msg) -> None:
        self.apply(now, self.replica.on_message(sender, msg, now))

    def cuts(self) -> list[tuple[float, int, int]]:
        return [(now, e.msg.counter, e.msg.request_count)
                for now, e in self.out
                if isinstance(e, Broadcast) and isinstance(e.msg, Datablock)]

    def proposals(self) -> list[tuple[float, int, int]]:
        return [(now, e.msg.sn, len(e.msg.links))
                for now, e in self.out
                if isinstance(e, Broadcast) and isinstance(e.msg, BFTblock)
                and e.msg.view == 2]


class _Script:
    """Builds the scripted messages the other replicas would send."""

    def __init__(self, config, registry) -> None:
        self.config = config
        self.registry = registry
        self.peers = {i: LeopardReplica(i, config, registry)
                      for i in range(config.n) if i != ME}

    def bundle(self, bundle_id: int, count: int, at: float):
        return 100, RequestBundle(100, bundle_id, count, 128, at)

    def bftblock(self, sn: int, links: tuple[bytes, ...]):
        unsigned = BFTblock(1, sn, links)
        share = self.registry.signer(1).sign(unsigned.digest())
        return 1, replace(unsigned, leader_share=share)

    def _combine(self, payload: bytes):
        shares = [self.registry.signer(i).sign(payload) for i in (0, 1, 3)]
        return self.registry.scheme.combine(shares, payload)

    def proofs(self, block: BFTblock):
        digest = block.digest()
        notarization = self._combine(digest)
        payload2 = commit_payload(notarization)
        return [
            (1, Proof(ROUND_PREPARE, digest, digest, notarization, None)),
            (1, Proof(ROUND_COMMIT, digest, payload2,
                      self._combine(payload2), notarization)),
        ]

    def viewchange(self, target: int, senders, now: float):
        """The timeouts and view-change messages ``senders`` emit when
        they move to ``target``."""
        timeouts, vcs = [], []
        for sender in senders:
            for effect in self.peers[sender]._start_viewchange(target, now):
                if isinstance(effect.msg, TimeoutMsg):
                    timeouts.append((sender, effect.msg))
                elif isinstance(effect.msg, ViewChangeMsg):
                    vcs.append((sender, effect.msg))
        return timeouts, vcs

    def new_view(self, target: int, now: float):
        """The new-view message ``target``'s leader (a peer) broadcasts."""
        leader = self.config.leader_of(target)
        others = [i for i in self.peers if i != leader]
        _, vcs = self.viewchange(target, others, now)
        self.peers[leader]._start_viewchange(target, now)
        for sender, msg in vcs:
            for effect in self.peers[leader].on_message(sender, msg, now):
                if isinstance(effect, Broadcast) \
                        and isinstance(effect.msg, NewViewMsg):
                    return leader, effect.msg
        raise AssertionError("peer leader built no new-view message")


@pytest.fixture
def config(config4):
    # One own datablock in flight, so the window gate parks the tick.
    return replace(config4, max_outstanding_datablocks=1)


def _run(config, registry, poll: bool) -> _TickHost:
    backlog = {"s": 0.0}
    replica = LeopardReplica(ME, config, registry)
    replica.backlog_probe = lambda: backlog["s"]
    host = _TickHost(replica, poll)
    script = _Script(config, registry)
    blocks: dict[int, BFTblock] = {}

    def link_own(sn: int, index: int):
        own = [e.msg for _, e in host.out
               if isinstance(e, Broadcast) and isinstance(e.msg, Datablock)]
        sender, block = script.bftblock(sn, (own[index].digest(),))
        blocks[sn] = block
        return [(sender, block)]

    def stall(seconds: float):
        backlog["s"] = seconds
        return []

    def peer_datablock():
        datablock = Datablock(0, 1, 5, 128, (), created_at=0.1)
        return [(0, datablock), (1, Ready(datablock.digest())),
                (3, Ready(datablock.digest()))]

    # (time, step) — off-grid instants, so order against ticks is total.
    steps = [
        # A bundle fills an empty mempool: cut at the next tick.
        (0.0104, lambda: [script.bundle(1, 50, 0.0104)]),
        # A second one finds the window full: the tick stays parked…
        (0.0153, lambda: [script.bundle(2, 50, 0.0153)]),
        # …until the leader links our datablock.
        (0.0207, lambda: link_own(1, 0)),
        # The linked datablock is confirmed and executed.
        (0.0254, lambda: script.proofs(blocks[1])),
        (0.0302, lambda: link_own(2, 1)),
        # A partial batch polls until it is overdue (max_batch_delay).
        (0.0356, lambda: [script.bundle(3, 10, 0.0356)]),
        (0.0605, lambda: link_own(3, 2)),
        # NIC backlog stalls a full batch; it polls until the backlog
        # drains.
        (0.0621, lambda: stall(1.0)),
        (0.0625, lambda: [script.bundle(4, 50, 0.0625)]),
        (0.0703, lambda: stall(0.0)),
        (0.0751, lambda: link_own(4, 3)),
        # View-change: f+1 timeouts pull us in; a pending batch waits.
        (0.0801, lambda: script.viewchange(2, (0, 3), 0.0801)[0]),
        (0.0805, lambda: [script.bundle(5, 50, 0.0805)]),
        # 2f+1 view-change messages: we lead view 2 (gen parks, the
        # propose tick resumes on its grid and proposes a peer's block).
        (0.0851, lambda: script.viewchange(2, (0, 1, 3), 0.0851)[1]),
        (0.0902, peer_datablock),
        # View 3 is led by a peer: gen wakes, propose parks again.
        (0.1503, lambda: [script.new_view(3, 0.1503)]),
        # The window is full again: this batch stays parked to the end.
        (0.1557, lambda: [script.bundle(6, 50, 0.1557)]),
    ]
    events = [(t, 0, "gen") for t in _grid(config.generation_interval, END)]
    events += [(t, 1, "propose")
               for t in _grid(config.proposal_interval, END)]
    events += [(t, 2, step) for t, step in steps]
    events.sort(key=lambda event: event[:2])

    host.apply(0.0, replica.start(0.0))
    for now, kind, what in events:
        if kind < 2:
            host.tick(what, now)
            continue
        for sender, msg in what():
            host.deliver(now, sender, msg)
    return host


def test_woken_ticks_cut_on_the_polling_grid(config, registry4):
    poller = _run(config, registry4, poll=True)
    twin = _run(config, registry4, poll=False)

    # Same messages, same float instants: cuts, votes, proposals.
    assert twin.out == poller.out
    assert twin.cuts() == poller.cuts()
    a, b = poller.replica, twin.replica
    assert (b.datablock_counter, b.total_executed, b.next_sn, b.view) == \
        (a.datablock_counter, a.total_executed, a.next_sn, a.view)
    assert b.mempool.total_requests == a.mempool.total_requests

    # The script reached every gate it claims to cover: a full bundle,
    # a window release, a partial batch cut when overdue, a backlog
    # stall, and a batch held through view 2 (leader) until view 3.
    assert [(round(t, 4), count) for t, _, count in twin.cuts()] == [
        (0.011, 50), (0.021, 50), (0.056, 10), (0.071, 50), (0.151, 50)]
    assert b.total_executed == 50            # sn 1 executed
    # As view-2 leader the re-armed propose tick linked the peer block
    # once it had waited max_proposal_delay.
    assert [(round(t, 4), sn, links)
            for t, sn, links in twin.proposals()] == [(0.14, 5, 1)]
    assert b.view == 3 and not b.is_leader

    # …while firing a fraction of the poller's ticks.
    assert twin.timer_fires["gen"] < poller.timer_fires["gen"] / 4
    assert twin.timer_fires["propose"] < poller.timer_fires["propose"]
