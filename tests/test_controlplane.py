"""The master⇄node control plane (``core.controlplane``) and its steal
planner (``core.master.plan_steals``).

Covers the wake-on-first-message contract of ``_wait_for_wake``, the
completion latency of a short job under a long sync period, steal-plan
memoization, the hysteresis reset after a rollback, the master timers,
and a closed-system property test of the one steal planner every
runtime shares.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import count_triangles
from repro.apps import TriangleCountComper
from repro.core import GThinkerConfig, run_job
from repro.core.controlplane import ControlPlaneMaster, NodeFinal, NodeStatus
from repro.core.errors import WorkerProcessError
from repro.core.master import plan_steals
from repro.graph import erdos_renyi


def cfg(**kw):
    base = dict(
        num_workers=2, compers_per_worker=2, task_batch_size=4,
        cache_capacity=256, cache_buckets=16,
        aggregator_sync_period_s=0.005,
        control_reply_timeout_s=30.0,
    )
    base.update(kw)
    return GThinkerConfig(**base)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.15, seed=11)


class _RecordingMaster(ControlPlaneMaster):
    """A master with plumbing stubbed for unit-level protocol tests."""

    def __init__(self, config, replies=None):
        super().__init__(config, TriangleCountComper, join_timeout_s=30.0)
        self.sent = []
        self._replies = replies or (lambda cmd: None)
        self.drain_calls = []

    @property
    def num_nodes(self):
        return self.config.num_workers

    def _send(self, node_id, cmd):
        self.sent.append((node_id, cmd))

    def _recv(self, node_id, timeout=None):
        return self._replies(self.sent[-1][1])

    def _drain_events(self, timeout):
        self.drain_calls.append(timeout)


def _statuses(workloads, busy=True):
    return [
        NodeStatus(worker_id=i, tasks_in_memory=int(busy), tasks_on_disk=0,
                   unspawned=0, outgoing=0, sent=0, received=0,
                   progress=0, workload=w, partial=None)
        for i, w in enumerate(workloads)
    ]


def _steal_reply(cmd):
    """Victim side of the stub: every steal moves the full amount."""
    if cmd[0] == "steal":
        return ("stolen", cmd[2])
    if cmd[0] == "stop":
        return NodeFinal(worker_id=0, outputs=[], metrics={}, partial=0)
    return None


# -- _wait_for_wake: wake on the first pending message --------------------


def test_pending_wake_skips_the_blocking_drain():
    """A wake consumed out-of-band (e.g. during a sweep's _recv) must
    make the next _wait_for_wake return immediately instead of sleeping
    out its full timeout — the idle-then-burst regression."""
    master = _RecordingMaster(cfg())
    assert master._note_oob(0, ("wake", 0))
    t0 = time.perf_counter()
    assert master._wait_for_wake(10.0)
    assert time.perf_counter() - t0 < 1.0
    assert master.drain_calls == []  # never reached the backend
    # The flag is one-shot: the next wait really blocks on the backend.
    assert not master._wait_for_wake(0.0)
    assert master.drain_calls == [0.0]
    # A synchronous reply is not consumed as out-of-band.
    assert not master._note_oob(0, ("stolen", 4))


def test_idle_burst_job_does_not_wait_out_the_sync_period(graph):
    """With a 5 s sync period a short job must still finish in a small
    fraction of one period: a drained node wakes the master at once, so
    completion latency is bounded by work, not by the sweep cadence."""
    config = cfg(aggregator_sync_period_s=5.0)
    t0 = time.monotonic()
    res = run_job(TriangleCountComper, graph, config, runtime="process")
    assert res.aggregate == count_triangles(graph)
    assert time.monotonic() - t0 < 4.0


# -- steal planning through the master -------------------------------------


def test_plan_steals_memoizes_unchanged_statuses():
    config = cfg(task_batch_size=4, steal_batches=2)
    master = _RecordingMaster(config, replies=_steal_reply)
    master._plan_steals(_statuses([0, 100]))
    first_round = len(master.sent)
    assert first_round > 0
    assert all(cmd[0] == "steal" for _nid, cmd in master.sent)
    # Identical (fresh) statuses: the sorted view is unchanged, so the
    # whole plan is skipped and counted.
    master._plan_steals(_statuses([0, 100]))
    assert len(master.sent) == first_round
    assert master.metrics.get("control:steal_plan_skipped") == 1
    # A changed estimate recomputes.
    master._plan_steals(_statuses([0, 300]))
    assert len(master.sent) > first_round
    assert master.metrics.get("control:steal_plan_skipped") == 1


class _RollbackMaster(_RecordingMaster):
    """Sweeps come from a script; an exception entry is a lost node."""

    def __init__(self, config, script):
        super().__init__(config, replies=_steal_reply)
        self.script = list(script)
        self.recoveries = 0

    def _sweep(self):
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    def _recover(self):
        self.recoveries += 1


def test_first_plan_after_rollback_ignores_lost_hysteresis():
    """Hysteresis describes the incarnation that was rolled back: the
    first plan of a recovered job must not refuse a steal because the
    lost run moved work the other way."""
    config = cfg(task_batch_size=4, steal_batches=1,
                 worker_restart_backoff_s=0.0)
    master = _RollbackMaster(config, [
        _statuses([0, 100]),          # node 1 -> node 0
        WorkerProcessError(1, "lost", recoverable=True),
        _statuses([100, 0]),          # restored: node 0 is now the heavy one
        _statuses([0, 0], busy=False),
        _statuses([0, 0], busy=False),
    ])
    master.run()
    assert master.recoveries == 1
    steals = [(nid, cmd[1]) for nid, cmd in master.sent if cmd[0] == "steal"]
    assert steals == [(1, 0), (0, 1)]


# -- control-plane timers and the typed accessor ---------------------------


def test_master_timers_reported(graph):
    res = run_job(TriangleCountComper, graph, cfg(), runtime="process")
    stats = res.control_plane_stats
    assert stats.master_sweep_s > 0.0
    assert stats.control_idle_s >= 0.0
    assert "time:master_sweep_s" in res.metrics
    assert "time:control_idle_s" in res.metrics


# -- plan_steals on a closed system (property test) ------------------------


#: Worst moved/initial ratio seen over 20k random closed systems is
#: ~1.03 (a one-batch floor can overshoot the mean slightly); 2 leaves
#: room without letting a thrashing planner through.
MOVED_VOLUME_FACTOR = 2


@settings(deadline=None, max_examples=200)
@given(
    loads=st.lists(st.integers(min_value=0, max_value=3000),
                   min_size=2, max_size=8),
    batch=st.integers(min_value=1, max_value=64),
    steal_batches=st.integers(min_value=1, max_value=8),
)
def test_plan_steals_settles_on_a_closed_system(loads, batch, steal_batches):
    """No new work arrives and every move ships exactly what was asked
    (capped at the victim's load): tasks are conserved, the plan stops
    moving within a bounded number of rounds, and no task moves more
    than a constant number of times on average."""
    loads = list(loads)
    total = sum(loads)
    moved_total = 0

    def move(victim, thief, amount):
        nonlocal moved_total
        n = min(amount, loads[victim])
        loads[victim] -= n
        loads[thief] += n
        moved_total += n
        return n

    # Every round that moves anything moves at least one batch, and an
    # idle round is followed by a moving round or the end, so the round
    # count is bounded by the moved volume.
    max_rounds = 2 * (MOVED_VOLUME_FACTOR * total // batch) + 2
    pairs = frozenset()
    rounds = quiet = 0
    while quiet < 2:  # two idle rounds in a row: a fixed point
        before = moved_total
        pairs = plan_steals([(load, wid) for wid, load in enumerate(loads)],
                            pairs, batch, steal_batches, move)
        rounds += 1
        quiet = quiet + 1 if moved_total == before else 0
        assert rounds <= max_rounds, (loads, rounds)
    assert sum(loads) == total
    assert moved_total <= MOVED_VOLUME_FACTOR * total
    # At the fixed point no pair is further apart than the steal band.
    assert max(loads) - min(loads) <= 2 * batch
