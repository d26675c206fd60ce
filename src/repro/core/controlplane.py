"""The master⇄worker control-plane protocol, shared across backends.

Both ``runtime="process"`` (pipes + ``multiprocessing`` queues, one
machine) and ``runtime="cluster"`` (TCP control channels + socket data
plane, many machines) drive the *same* protocol:

* periodic **sync sweeps** — global aggregate down, per-node status
  (task/queue occupancy, transport counters, progress, workload
  estimate, aggregator partial) up;
* Safra-style **double-snapshot termination**: two consecutive sweeps
  must observe every node drained, globally ``sum(sent) ==
  sum(received)``, and an unchanged progress counter;
* master-coordinated, workload-**proportional stealing** with ping-pong
  hysteresis;
* **sync-barrier checkpoints**: quiesce → drain the wire to a provably
  settled state → snapshot every node → resume with the folded global;
* bounded-restart **global rollback** recovery in :meth:`run`.

The master drives a serial round-robin request-reply ``sync`` probe
over every node each period and plans steals from the replies; a node
that drains sends one unsolicited ``("wake", id)`` so the confirming
sweep runs at once instead of after a full period.

This module holds that protocol once, in
:class:`ControlPlaneMaster`, parameterised over a tiny plumbing surface
the backends implement (``num_nodes``, ``_send``, ``_recv``,
``_wait_for_wake``, ``_recover``) — and the matching node-side command
machine, :class:`NodeSession`, shared by the process worker loop and
the cluster node loop.  The wire representation of every command and
reply is identical across backends, which is what lets a checkpoint
shard taken under one runtime resume under another.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from .aggregator import GlobalAggregator
from .checkpoint import JobCheckpoint, WorkerSnapshot, snapshot_worker
from .config import FailurePlanConfig, GThinkerConfig
from .errors import GThinkerError, JobAbortedError, WorkerProcessError
from .master import plan_steals
from .metrics import MetricsRegistry

__all__ = [
    "ENGINE_BURST_STEPS",
    "ControlPlaneMaster",
    "FailureInjector",
    "NodeSession",
    "NodeStatus",
    "NodeFinal",
]

#: Engine steps a node runs between control-plane/inbox polls.  Bounds
#: the extra latency of answering a sync or serving a pull at one burst
#: (engine steps end early when no engine has work); big enough that the
#: per-round polling overhead is noise next to the mining work.
ENGINE_BURST_STEPS = 32


@dataclass
class NodeStatus:
    """One node's answer to a sync command."""

    worker_id: int
    tasks_in_memory: int
    tasks_on_disk: int
    unspawned: int
    outgoing: int
    sent: int
    received: int
    progress: int
    workload: int
    partial: Any


@dataclass
class NodeFinal:
    """One node's end-of-job report."""

    worker_id: int
    outputs: List[Any]
    metrics: Dict[str, float]
    partial: Any


# ---------------------------------------------------------------------------
# Failure injection (node side)
# ---------------------------------------------------------------------------


class FailureInjector:
    """Kills this node process per its :class:`FailurePlanConfig`.

    Death is ``os._exit`` — no cleanup, no error report up the control
    plane — so the master observes exactly what a machine loss looks
    like.
    """

    def __init__(
        self,
        plan: Optional[FailurePlanConfig],
        worker_id: int,
        incarnation: int,
    ) -> None:
        self._plan = plan
        self._worker_id = worker_id
        self._counts: Dict[str, int] = {}
        self.active = (
            plan is not None
            and (incarnation == 0 or plan.rearm)
            and (plan.kill_worker is None or plan.kill_worker == worker_id)
        )
        # Incarnation perturbs the stream so a rearmed random plan does
        # not replay the same kill schedule after every recovery.
        self._rng = random.Random(
            ((plan.seed if plan else 0) << 8) ^ worker_id ^ (incarnation * 7919)
        )

    def fire(self, event: str) -> None:
        """Record one occurrence of ``event``; die if the plan says so."""
        if not self.active:
            return
        plan = self._plan
        if plan.when == "random":
            if event == "sync" and self._rng.random() < plan.probability:
                os._exit(plan.exit_code)
            return
        if event != plan.when:
            return
        count = self._counts.get(event, 0) + 1
        self._counts[event] = count
        if count == plan.at_count and (
            plan.probability >= 1.0 or self._rng.random() < plan.probability
        ):
            os._exit(plan.exit_code)

    def observe_round(self, worker) -> None:
        """Round-boundary triggers: mid-spawn cursor, non-empty L_file."""
        if not self.active:
            return
        when = self._plan.when
        if when == "spawn":
            if 0 < worker.spawn_cursor() < worker.num_local_vertices:
                self.fire("spawn")
        elif when == "spill":
            if len(worker.l_file) > 0:
                self.fire("spill")


# ---------------------------------------------------------------------------
# Node side: the command machine each backend's serve loop drives
# ---------------------------------------------------------------------------


class NodeSession:
    """One node's half of the control protocol, backend-agnostic.

    The backend's serve loop owns the transport-specific parts — how
    commands arrive, how replies travel back, how to block while idle —
    and delegates the rest here: :meth:`step` runs one scheduling round
    (an engine burst unless quiesced), :meth:`handle` executes one
    control command and returns the reply object to send, and
    :meth:`drained` is the idle predicate behind the unsolicited
    ``("wake", node_id)`` notification.
    """

    def __init__(
        self,
        worker,
        transport,
        injector: FailureInjector,
        metrics: MetricsRegistry,
    ) -> None:
        self.worker = worker
        self.transport = transport
        self.injector = injector
        self.metrics = metrics
        self.quiesced = False
        self.done = False
        self._was_drained = False

    def step(self) -> bool:
        """One comm step plus (unless quiesced) a burst of engine steps.

        The burst amortizes the fixed cost of the caller's inbox/control
        polls over many cheap task iterations and lets parked tasks'
        requests accumulate into fewer, larger flush batches; it ends
        early the moment no engine makes progress, so pull latency only
        grows while there is local work to overlap it with.  While
        quiesced (checkpoint barrier) only the comm service steps: pulls
        keep being served and responses delivered, but no new work
        starts, so the wire drains to a provably empty state.
        """
        worker = self.worker
        worked = worker.comm.step()
        if self.quiesced:
            return worked
        for _ in range(ENGINE_BURST_STEPS):
            stepped = False
            for engine in worker.engines:
                stepped = engine.step() or stepped
            # GC and the failure injector keep per-step (not per-burst)
            # granularity: spill pressure must be relieved as it builds,
            # and injection triggers count scheduler rounds *observing*
            # a transient condition (mid-spawn cursor, fresh spill) that
            # can appear and clear within one burst.
            stepped = worker.gc_step() or stepped
            self.injector.observe_round(worker)
            worked = worked or stepped
            if not stepped:
                break
        return worked

    def drained(self) -> bool:
        """True when this node has nothing runnable and nothing buffered."""
        worker = self.worker
        return (
            not self.quiesced
            and worker.tasks_in_memory() == 0
            and len(worker.l_file) == 0
            and worker.unspawned_count() == 0
            and worker.comm.pending_outgoing() == 0
            and self.transport.pending_unflushed() == 0
        )

    def _build_status(self) -> NodeStatus:
        """Flush node-local state and build a fresh :class:`NodeStatus`.

        The serve loop is the process's only cache-mutating thread, so
        flushing here makes ``s_cache`` exact and the lock-acquisition
        metric current at every status report.
        """
        worker = self.worker
        transport = self.transport
        worker.flush_for_status()
        transport.flush_outgoing()
        return NodeStatus(
            worker_id=worker.worker_id,
            tasks_in_memory=worker.tasks_in_memory(),
            tasks_on_disk=len(worker.l_file),
            unspawned=worker.unspawned_count(),
            outgoing=(worker.comm.pending_outgoing()
                      + transport.pending_unflushed()),
            sent=transport.sent_count,
            received=transport.received_count,
            progress=worker.progress.value,
            workload=worker.remaining_workload_estimate(),
            partial=worker.aggregator.take_partial(),
        )

    def pending_pushes(self) -> List[Any]:
        """Unsolicited messages the serve loop should send now.

        One ``("wake", id)`` on the busy→drained edge, so the master
        runs its confirming sweep early instead of after a full period.
        """
        drained = self.drained()
        edge = drained and not self._was_drained
        self._was_drained = drained
        return [("wake", self.worker.worker_id)] if edge else []

    def handle(self, cmd):
        """Execute one control command; returns the reply to send back.

        ``stop`` additionally sets :attr:`done` — the serve loop sends
        the :class:`NodeFinal` reply and exits.
        """
        from ..net.message import TaskBatchTransfer

        worker = self.worker
        transport = self.transport
        tag = cmd[0]
        if tag == "sync":
            # Injected death *before* the reply: the master is left
            # waiting mid-protocol, like a machine loss.
            self.injector.fire("sync")
            worker.aggregator.publish_global(cmd[1])
            return self._build_status()
        if tag == "steal":
            self.injector.fire("steal")
            _tag, thief_id, max_tasks = cmd
            payload_info = worker.l_file.take_payload()
            if payload_info is None:
                payload_info = worker.spawn_batch_payload(max_tasks)
            moved = 0
            if payload_info is not None:
                payload, moved = payload_info
                transport.send(TaskBatchTransfer(
                    src=worker.worker_id, dst=thief_id,
                    payload=payload, num_tasks=moved,
                ))
                transport.flush_outgoing()
            return ("stolen", moved)
        if tag == "quiesce":
            self.quiesced = True
            return ("quiesced", worker.worker_id)
        if tag == "qstatus":
            transport.flush_outgoing()
            return (
                "qstatus", worker.worker_id,
                transport.sent_count, transport.received_count,
                worker.comm.pending_outgoing()
                + transport.pending_unflushed(),
            )
        if tag == "checkpoint":
            snap = snapshot_worker(worker)
            snap.partial = worker.aggregator.take_partial()
            snap.sent = transport.sent_count
            snap.received = transport.received_count
            return snap
        if tag == "resume":
            worker.aggregator.publish_global(cmd[1])
            self.quiesced = False
            return ("resumed", worker.worker_id)
        if tag == "stop":
            worker.flush_for_status()
            self.done = True
            return NodeFinal(
                worker_id=worker.worker_id,
                outputs=worker.outputs(),
                metrics=self.metrics.snapshot(),
                partial=worker.aggregator.take_partial(),
            )
        raise GThinkerError(f"unknown control command {tag!r}")


# ---------------------------------------------------------------------------
# Master side: the shared protocol driver
# ---------------------------------------------------------------------------


class ControlPlaneMaster:
    """Backend-agnostic master: syncs, steals, checkpoints, rollback.

    Subclasses provide the plumbing:

    * ``num_nodes`` — how many nodes are attached;
    * ``_send(node_id, cmd)`` — deliver one command, raising
      :class:`WorkerProcessError` on a dead node (``recoverable=True``
      for silent losses, ``False`` when the node reported an app error);
    * ``_recv(node_id, timeout=None)`` — one reply, same error contract,
      skipping unsolicited ``("wake", nid)`` notifications;
    * ``_wait_for_wake(timeout)`` — idle until a wake/timeout;
    * ``_recover()`` — tear the node set down and respawn it from
      ``self._last_checkpoint`` (bumping ``self._incarnation`` and the
      ``ft:recoveries`` metric).
    """

    def __init__(
        self,
        config: GThinkerConfig,
        app_factory,
        join_timeout_s: float,
        checkpoint_path: Optional[str] = None,
        abort_after_rounds: Optional[int] = None,
    ) -> None:
        self.config = config
        self.app_factory = app_factory
        self.join_timeout_s = join_timeout_s
        self.checkpoint_path = checkpoint_path
        self.abort_after_rounds = abort_after_rounds
        self.metrics = MetricsRegistry()
        self.global_aggregator = GlobalAggregator(app_factory().make_aggregator())
        #: Cooperative-cancellation token (``AbortToken`` or None), set
        #: by the executor before :meth:`run`.  Checked once per sweep —
        #: the sweep cadence is bounded by ``aggregator_sync_period_s``,
        #: so a cancel lands within roughly one sync period.
        self.abort = None
        self._incarnation = 0
        self._epoch = 0
        self._last_checkpoint: Optional[JobCheckpoint] = None
        self._deadline = float("inf")
        #: Set by :meth:`_note_oob` whenever an out-of-band message is
        #: consumed anywhere (a sweep's ``_recv``, a drain); the base
        #: :meth:`_wait_for_wake` returns immediately while it is set,
        #: so a wake that arrived mid-sweep is never slept through.
        self._pending_wake = False
        #: Steal-plan state, reset with every (re)start of the job loop:
        #: the memo key of the last planned ``(worker, workload)`` view,
        #: and the pairs that moved work in the last plan (hysteresis).
        self._last_steal_key: Optional[Tuple[Tuple[int, int], ...]] = None
        self._last_steal_pairs: FrozenSet[Tuple[int, int]] = frozenset()

    # -- plumbing the backend must provide --------------------------------

    @property
    def num_nodes(self) -> int:
        raise NotImplementedError

    def _send(self, node_id: int, cmd) -> None:
        raise NotImplementedError

    def _recv(self, node_id: int, timeout: Optional[float] = None):
        raise NotImplementedError

    def _drain_events(self, timeout: float) -> None:
        """Block up to ``timeout`` for control traffic, then drain it all.

        The backend multiplexes every node's control channel (pipes via
        a selector wait, sockets via the channel's non-blocking drain),
        routing each message through :meth:`_note_oob` and raising
        :class:`WorkerProcessError` for error reports or dead nodes.
        """
        raise NotImplementedError

    def _recover(self) -> None:
        raise NotImplementedError

    # -- shared event handling --------------------------------------------

    def _note_oob(self, node_id: int, msg) -> bool:
        """Consume one out-of-band (unsolicited) control message.

        Returns True when ``msg`` was a ``("wake", nid)`` notification
        and False when it is a synchronous reply the caller was waiting
        for.
        """
        if isinstance(msg, tuple) and msg and msg[0] == "wake":
            self._pending_wake = True
            return True
        return False

    def _wait_for_wake(self, timeout: float) -> bool:
        """Idle until a control message arrives or ``timeout`` elapses.

        Never sleeps past a pending message: if a wake was already
        consumed (e.g. during a sweep's ``_recv``) this returns without
        blocking at all, and otherwise the backend's ``_drain_events``
        wakes on the *first* message rather than a fixed interval.
        """
        if not self._pending_wake:
            self._drain_events(timeout)
        woke = self._pending_wake
        self._pending_wake = False
        return woke

    # -- protocol ---------------------------------------------------------

    def _sweep(self) -> List[NodeStatus]:
        t0 = time.perf_counter()
        value = self.global_aggregator.value
        for nid in range(self.num_nodes):
            self._send(nid, ("sync", value))
        statuses = []
        for nid in range(self.num_nodes):
            msg = self._recv(nid)
            if not isinstance(msg, NodeStatus):
                raise WorkerProcessError(
                    nid, f"expected a status report, got {type(msg).__name__}"
                )
            statuses.append(msg)
        for s in statuses:
            self.global_aggregator.fold(s.partial)
            s.partial = None
        self.metrics.add("time:master_sweep_s", time.perf_counter() - t0)
        return statuses

    def _plan_steals(self, statuses: List[NodeStatus]) -> None:
        """One :func:`~repro.core.master.plan_steals` round over the sweep.

        Each move is a ``steal`` request-reply with the victim, which
        ships the batch to the thief over the data transport.
        """
        if not self.config.steal_enabled or len(statuses) < 2:
            return
        # Memoize on the (worker, workload) view: when nothing changed
        # since the last round the sorted plan is identical, so skip the
        # whole sort/pair loop and count the skip.
        key = tuple(sorted((s.worker_id, s.workload) for s in statuses))
        if key == self._last_steal_key:
            self.metrics.add("control:steal_plan_skipped")
            return
        self._last_steal_key = key

        def move(victim: int, thief: int, amount: int) -> int:
            self._send(victim, ("steal", thief, amount))
            reply = self._recv(victim)
            moved = reply[1] if isinstance(reply, tuple) else 0
            if moved:
                self.metrics.add("steal:batches")
                self.metrics.add("steal:tasks", moved)
            return moved

        self._last_steal_pairs = plan_steals(
            [(s.workload, s.worker_id) for s in statuses],
            self._last_steal_pairs,
            self.config.task_batch_size,
            self.config.steal_batches,
            move,
        )

    def _checkpoint(self) -> None:
        """The sync-barrier checkpoint protocol.

        Quiesce every node, poll ``qstatus`` until the wire is *settled*
        — globally ``sent == received`` with zero buffered outgoing
        anywhere, which proves no message exists in any queue or socket
        — then snapshot every node and resume with the freshly folded
        global aggregate.
        """
        n = self.num_nodes
        for nid in range(n):
            self._send(nid, ("quiesce",))
        for nid in range(n):
            self._recv(nid)  # ("quiesced", nid)
        # Settle the wire: with engines paused, only in-transit pulls and
        # responses remain; they drain in finitely many comm steps.
        while True:
            replies = []
            for nid in range(n):
                self._send(nid, ("qstatus",))
            for nid in range(n):
                replies.append(self._recv(nid))
            sent = sum(r[2] for r in replies)
            received = sum(r[3] for r in replies)
            pending = sum(r[4] for r in replies)
            if sent == received and pending == 0:
                break
            if time.monotonic() > self._deadline:
                raise GThinkerError(
                    "checkpoint barrier did not settle before the job deadline"
                )
            time.sleep(0.001)
        snaps: List[WorkerSnapshot] = []
        for nid in range(n):
            self._send(nid, ("checkpoint",))
        for nid in range(n):
            msg = self._recv(nid)
            if not isinstance(msg, WorkerSnapshot):
                raise WorkerProcessError(
                    nid, f"expected a worker snapshot, got {type(msg).__name__}"
                )
            snaps.append(msg)
        for snap in snaps:
            # Fold the barrier partials now; clear them so a restore
            # cannot double-apply what is already in aggregator_global.
            self.global_aggregator.fold(snap.partial)
            snap.partial = None
        self._epoch += 1
        ckpt = JobCheckpoint(
            worker_snapshots=snaps,
            aggregator_global=self.global_aggregator.value,
            num_workers=n,
            compers_per_worker=self.config.compers_per_worker,
            epoch=self._epoch,
        )
        self._last_checkpoint = ckpt
        if self.checkpoint_path:
            ckpt.save(self.checkpoint_path)
        self.metrics.add("ft:checkpoints")
        value = self.global_aggregator.value
        for nid in range(n):
            self._send(nid, ("resume", value))
        for nid in range(n):
            self._recv(nid)  # ("resumed", nid)

    @staticmethod
    def _statuses_idle(statuses: List[NodeStatus]) -> bool:
        """The Safra snapshot predicate over one full status set."""
        return (
            all(
                s.tasks_in_memory == 0 and s.tasks_on_disk == 0
                and s.unspawned == 0 and s.outgoing == 0
                for s in statuses
            )
            and sum(s.sent for s in statuses)
            == sum(s.received for s in statuses)
        )

    def _finalize(self) -> List[NodeFinal]:
        finals: List[NodeFinal] = []
        for nid in range(self.num_nodes):
            self._send(nid, ("stop",))
        for nid in range(self.num_nodes):
            msg = self._recv(nid)
            if not isinstance(msg, NodeFinal):
                raise WorkerProcessError(
                    nid, f"expected a final report, got {type(msg).__name__}"
                )
            # The paper's closing rule: one more aggregation pass so data
            # from every task is folded before the job result is read.
            self.global_aggregator.fold(msg.partial)
            finals.append(msg)
        return finals

    def _run_to_completion(self) -> List[NodeFinal]:
        prev_idle = False
        prev_progress = -1
        sweeps = 0
        sweep_wait = self.config.idle_sleep_s
        self._pending_wake = False
        # A (re)start — first run or after a rollback — plans from a
        # fresh view: neither the memo nor the hysteresis of the lost
        # incarnation describes the restored nodes.
        self._last_steal_key = None
        self._last_steal_pairs = frozenset()
        while True:
            if self.abort is not None:
                # The unwind reaches the executor's ``finally``, which
                # tears the node set down — quota is back within one
                # sweep of the cancel request.
                self.abort.raise_if_set()
            statuses = self._sweep()
            sweeps += 1
            self._plan_steals(statuses)
            every = self.config.checkpoint_every_syncs
            if every > 0 and sweeps % every == 0:
                self._checkpoint()
            if (self.abort_after_rounds is not None
                    and sweeps >= self.abort_after_rounds):
                # Checked after the checkpoint cadence so an aborted job
                # leaves a shard behind for resume_job.
                raise JobAbortedError(
                    f"job aborted after {sweeps} sync sweeps"
                )
            idle = self._statuses_idle(statuses)
            progress = sum(s.progress for s in statuses)
            if idle and prev_idle and progress == prev_progress:
                break
            prev_idle, prev_progress = idle, progress
            if time.monotonic() > self._deadline:
                raise GThinkerError(
                    f"job exceeded {self.join_timeout_s}s"
                )
            if idle:
                # First idle observation: run the confirming sweep right
                # away instead of burning a whole sync period — this is
                # most of the fixed-cadence latency on short jobs.
                sweep_wait = self.config.idle_sleep_s
                continue
            t0 = time.perf_counter()
            woke = self._wait_for_wake(sweep_wait)
            self.metrics.add("time:control_idle_s", time.perf_counter() - t0)
            if woke:
                sweep_wait = self.config.idle_sleep_s
            else:
                sweep_wait = min(sweep_wait * 2,
                                 self.config.aggregator_sync_period_s)

        return self._finalize()

    def run(self) -> List[NodeFinal]:
        """Drive the job to completion, recovering lost nodes."""
        self._deadline = time.monotonic() + self.join_timeout_s
        attempts = 0
        while True:
            try:
                return self._run_to_completion()
            except WorkerProcessError as exc:
                attempts += 1
                if not exc.recoverable or attempts > self.config.max_worker_restarts:
                    raise
                delay = self.config.worker_restart_backoff_s * (2 ** (attempts - 1))
                if delay > 0:
                    time.sleep(delay)
                self._recover()
