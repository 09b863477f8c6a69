"""Idle ``gen``/``propose`` ticks stay parked in running clusters.

A guard against polling creeping back into the Leopard core: a replica's
``gen`` tick fires about once per datablock it cuts plus once per wake-up
(a partial batch or a NIC backlog adds a few grid polls), and a
non-leader's ``propose`` tick fires once, at boot, then parks.  Faulty
hosts route a core's effects through :mod:`repro.faults`, so the wake-up
``SetTimer`` must get through every behaviour.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.replica import LeopardReplica
from repro.faults import Combined, DelaySend, Mute, SelectiveDisseminator
from repro.harness.cluster import build_leopard_cluster
from repro.interfaces import Broadcast, SetTimer
from repro.messages.leopard import Datablock

N = 16
LEADER = 1
FAULTY = N - 1


class _Ticks:
    """Per-core counts of ``gen`` fires, cuts, wake-ups and ``propose``
    fires, taken at the sans-io boundary."""

    def __init__(self, monkeypatch) -> None:
        self.fires, self.cuts = Counter(), Counter()
        self.wakes, self.proposes = Counter(), Counter()
        on_timer = LeopardReplica.on_timer
        on_message = LeopardReplica.on_message
        ticks = self

        def counted_timer(core, key, now):
            effects = on_timer(core, key, now)
            if key == "gen":
                ticks.fires[core] += 1
                ticks.cuts[core] += sum(
                    isinstance(e, Broadcast) and isinstance(e.msg, Datablock)
                    for e in effects)
            else:
                ticks.proposes[core] += key == "propose"
                ticks.count_wakes(core, effects)
            return effects

        def counted_message(core, sender, msg, now):
            effects = on_message(core, sender, msg, now)
            ticks.count_wakes(core, effects)
            return effects

        monkeypatch.setattr(LeopardReplica, "on_timer", counted_timer)
        monkeypatch.setattr(LeopardReplica, "on_message", counted_message)

    def count_wakes(self, core, effects) -> None:
        self.wakes[core] += sum(
            isinstance(e, SetTimer) and e.key == "gen" for e in effects)

    def assert_parked(self, core, polls: int = 2) -> None:
        """At most ``polls`` fires per cut or wake-up, plus the boot fire."""
        cuts, wakes = self.cuts[core], self.wakes[core]
        assert self.fires[core] <= polls * (cuts + wakes) + 1, (
            core.node_id, self.fires[core], cuts, wakes)
        if not core.is_leader:
            assert self.proposes[core] == 1, core.node_id


def _cluster(**kwargs):
    return build_leopard_cluster(N, seed=1, warmup=0.0, **kwargs)


def test_fault_free_ticks_track_cuts(monkeypatch):
    ticks = _Ticks(monkeypatch)
    cluster = _cluster()
    cluster.run(1.0)
    assert cluster.throughput() > 0
    for core in cluster.replicas:
        ticks.assert_parked(core)
        if core.node_id != LEADER:
            assert ticks.cuts[core] > 0
    # The leader never generates: one fire at boot, then parked.
    assert ticks.fires[cluster.replicas[LEADER]] == 1


@pytest.mark.parametrize("fault", [
    SelectiveDisseminator(frozenset({LEADER, 0, 2, 3, 4})),
    DelaySend(0.05),
    Combined((Mute(frozenset({"vote"})), DelaySend(0.02))),
], ids=["selective", "delay-send", "mute+delay"])
def test_faulty_generators_still_wake(monkeypatch, fault):
    ticks = _Ticks(monkeypatch)
    cluster = _cluster(faults={FAULTY: fault})
    cluster.run(1.0)
    faulty = cluster.replicas[FAULTY]
    assert ticks.cuts[faulty] > 1
    assert ticks.wakes[faulty] > 0
    for core in cluster.replicas:
        ticks.assert_parked(core)


def test_restarted_replica_wakes(monkeypatch):
    from repro.net.chaos import load_scenario, schedule_scenario_sim

    ticks = _Ticks(monkeypatch)
    cluster = _cluster()
    booted = list(cluster.replicas)
    schedule_scenario_sim(cluster, load_scenario("crash-recover"))
    cluster.run(3.5)
    assert cluster.restarts == 1
    fresh = [core for core, old in zip(cluster.replicas, booted)
             if core is not old]
    assert len(fresh) == 1
    assert ticks.cuts[fresh[0]] > 0 and ticks.wakes[fresh[0]] > 0
    # Clients feed the catching-up replica thin bundles, so each cut may
    # follow a partial batch polled on the grid until it is overdue.
    config = fresh[0].config
    ticks.assert_parked(fresh[0], polls=1 + round(
        config.max_batch_delay / config.generation_interval))
    for core in cluster.replicas:
        if core is not fresh[0]:
            ticks.assert_parked(core)
