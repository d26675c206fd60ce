"""The ``runtime="process"`` backend: real CPU parallelism, crash-safe.

The paper's headline claim is *CPU-bound* execution; the threaded
runtime cannot show it because the GIL serializes the mining work.  This
backend runs one OS process per worker:

* the graph lives in :class:`~repro.graph.csr.SharedCSR` shared-memory
  segments — every worker maps it read-only at zero copy and
  materializes only its own hash partition's rows, lazily;
* inter-worker vertex pulls/responses travel over
  :class:`~repro.net.transport.ProcessTransport` — batched per
  destination, drained through ``multiprocessing`` queues (the paper's
  batched sending applied to IPC);
* a control plane of per-worker pipes carries the master protocol of
  :class:`~repro.core.controlplane.ControlPlaneMaster`: periodic syncs
  (aggregator partials up, global value down, status snapshot for
  termination detection), master-coordinated steal commands,
  sync-barrier checkpoints, and the final report (outputs + metrics
  snapshot), with each worker's
  :class:`~repro.core.metrics.MetricsRegistry` merged into the parent
  via ``merge_from`` at join time.

Termination mirrors :class:`~repro.core.master.Master`'s double
snapshot: two consecutive syncs must observe every worker drained
(no tasks in memory / on disk / unspawned, no queued or buffered
outgoing messages), a globally balanced ``sent == received`` message
count, and an unchanged progress counter between the observations.

Fault tolerance (paper §V-B)
----------------------------

This runtime supports the full capability set: **checkpointing**,
**failure injection** and **resume**.

*Checkpoints* are a sync-barrier protocol.  Every
``checkpoint_every_syncs`` master sweeps the parent quiesces all workers
(``"quiesce"`` — engines pause, only the comm service keeps stepping so
in-transit messages drain), polls ``"qstatus"`` until the wire is
*settled* — globally ``sum(sent) == sum(received)`` with zero buffered
outgoing anywhere, which proves no message exists in any queue — then
collects a :class:`~repro.core.checkpoint.WorkerSnapshot` per worker
(``"checkpoint"``: spawn cursor, every in-memory and spilled task with
its pull set, outputs, aggregator partial, transport counters) and
resumes all workers with the freshly folded global aggregate
(``"resume"``).  Snapshots are kept in memory as the rollback point and,
when a ``checkpoint_path`` is given, written atomically as a
:class:`~repro.core.checkpoint.JobCheckpoint` shard (same format as the
serial runtime's — shards resume across runtimes).

*Recovery* is a global rollback.  When any worker dies or times out on
the control plane, the parent terminates the whole worker set, rebuilds
fresh queues and pipes, and respawns every worker from the last barrier
snapshot (or from scratch when none was taken): caches restart cold,
restored tasks re-issue their pull sets, transport counters resume from
the barrier's balanced values so termination stays sound, outputs are
replaced by the snapshot's (work redone after the barrier cannot
duplicate records), and the master aggregator rolls back to the barrier
value so sum-style aggregates count redone work exactly once.
Single-worker respawn would be unsound — in-transit messages addressed
to the dead worker and the survivors' unanswered pulls are unrecoverable
— so rollback is all-or-nothing.  Retries are bounded by
``max_worker_restarts`` with exponential backoff
(``worker_restart_backoff_s`` doubling per consecutive restart); a
worker that *reported* an exception (an app/framework bug that would
recur) raises :class:`~repro.core.errors.WorkerProcessError` with
``recoverable=False`` and the original traceback chained, immediately.

*Failure injection* is driven by
:class:`~repro.core.config.FailurePlanConfig`: the selected worker
``os._exit``\\ s — no error report, exactly what a machine loss looks
like — at a deterministic trigger (n-th sync/steal command, n-th round
observing a mid-spawn cursor or a non-empty spill list, or a seeded
coin flip per sync).  Plans arm only in the job's first incarnation
unless ``rearm=True``.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import pickle
import shutil
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, List, Optional

from ..graph.csr import SharedCSR
from ..graph.graph import Graph
from ..graph.io import ShardedGraphStore
from ..net.transport import ProcessTransport
from .aggregator import GlobalAggregator
from .checkpoint import JobCheckpoint, restore_worker
from .config import GThinkerConfig
from .controlplane import (
    ControlPlaneMaster,
    FailureInjector,
    NodeFinal,
    NodeSession,
    NodeStatus,
)
from .errors import CheckpointError, GThinkerError, WorkerProcessError
from .metrics import MetricsRegistry
from .runtime import JobRequest
from .worker import Worker

__all__ = ["ProcessExecutor"]

# Backwards-compatible aliases: the protocol types moved to
# controlplane.py when runtime="cluster" started sharing them.
_Status = NodeStatus
_Final = NodeFinal
_FailureInjector = FailureInjector

#: How long `_send` drains a broken pipe looking for the error report.
_ERROR_DRAIN_S = 1.0


def _default_start_method() -> str:
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(
    worker_id,
    config,
    app_factory,
    csr_meta,
    data_queues,
    conn,
    spill_root,
    snapshot=None,
    global_value=None,
    incarnation=0,
):
    """Entry point of one worker process.

    Steps its worker's components (comm service, comper engines, GC)
    round-robin — the per-machine layout of the serial runtime, but with
    every machine on its own core — and answers control commands from
    the parent between rounds, both via the shared
    :class:`~repro.core.controlplane.NodeSession` machine.  The spill
    directory lives under a parent-owned root, so a ``terminate()``
    during recovery cannot leak it.
    """
    csr = None
    worker = None
    try:
        csr = SharedCSR.attach(csr_meta)
        metrics = MetricsRegistry()
        # Honor kernel_backend in the child even under 'spawn' (where the
        # parent's import-time selection is not inherited).
        from .job import activate_kernel_backend

        activate_kernel_backend(config, metrics)
        transport = ProcessTransport(
            worker_id,
            data_queues,
            metrics=metrics,
            max_batch_messages=config.ipc_batch_max_messages,
        )
        worker = Worker(
            worker_id=worker_id,
            num_workers=config.num_workers,
            config=config,
            app_factory=app_factory,
            transport=transport,
            metrics=metrics,
            spill_dir=Path(spill_root),
        )
        worker.load_shared(csr)
        if snapshot is not None:
            restore_worker(worker, snapshot)
            # Counters resume from the barrier's balanced values; the
            # fresh queues are empty, so sent==received still means
            # "wire empty" to the termination detector.
            transport.sent_count = snapshot.sent
            transport.received_count = snapshot.received
        if global_value is not None:
            worker.aggregator.publish_global(global_value)
        injector = FailureInjector(config.failure_plan, worker_id, incarnation)
        session = NodeSession(worker, transport, injector, metrics)

        # Adaptive idle wait: back off exponentially while nothing
        # happens, waking promptly on either a control command or an
        # incoming data-queue message (selected together via
        # multiprocessing.connection.wait).  The unsolicited drained-edge
        # ("wake", wid) notification comes from session.pending_pushes().
        backoff = config.idle_sleep_s

        while True:
            worked = session.step()

            while conn.poll(0):
                reply = session.handle(conn.recv())
                conn.send(reply)
                if session.done:
                    return

            for push in session.pending_pushes():
                conn.send(push)

            if worked:
                backoff = config.idle_sleep_s
            else:
                # Block until a command or data arrives, up to backoff.
                transport.wait_for_activity(backoff, extra=(conn,))
                backoff = min(backoff * 2, config.idle_backoff_max_s)
    except BaseException as exc:
        try:
            conn.send(("error", worker_id, type(exc).__name__,
                       "".join(traceback.format_exception(type(exc), exc,
                                                          exc.__traceback__))))
        except Exception:
            pass
    finally:
        if worker is not None:
            worker.cleanup()
        if csr is not None:
            csr.close()
        conn.close()


# ---------------------------------------------------------------------------
# Parent-side master
# ---------------------------------------------------------------------------


class _ProcessMaster(ControlPlaneMaster):
    """Pipe/queue plumbing for :class:`ControlPlaneMaster`.

    Owns the worker set (queues, pipes, processes) so it can tear the
    whole set down and respawn it from the last barrier snapshot when a
    worker is lost.
    """

    def __init__(
        self,
        ctx,
        config: GThinkerConfig,
        app_factory,
        csr_meta,
        spill_root: Path,
        join_timeout_s: float,
        checkpoint_path: Optional[str] = None,
        abort_after_rounds: Optional[int] = None,
    ) -> None:
        super().__init__(
            config=config,
            app_factory=app_factory,
            join_timeout_s=join_timeout_s,
            checkpoint_path=checkpoint_path,
            abort_after_rounds=abort_after_rounds,
        )
        self.ctx = ctx
        self.csr_meta = csr_meta
        self.spill_root = spill_root
        self.procs: List = []
        self.conns: List = []
        self.data_queues: List = []

    # -- worker-set lifecycle ---------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.conns)

    def start(self, checkpoint: Optional[JobCheckpoint] = None) -> None:
        """Spawn the initial worker set, optionally seeded from a shard."""
        self._last_checkpoint = checkpoint
        if checkpoint is not None:
            self._epoch = checkpoint.epoch
        self._spawn_workers()

    def _spawn_workers(self) -> None:
        config = self.config
        ckpt = self._last_checkpoint
        # The aggregator rolls back with the workers: partials folded
        # after the barrier belong to work that will be redone.
        self.global_aggregator = GlobalAggregator(
            self.app_factory().make_aggregator()
        )
        if ckpt is not None:
            self.global_aggregator.set_value(ckpt.aggregator_global)
        global_value = self.global_aggregator.value if ckpt is not None else None
        # Fresh queues every incarnation: batches sent before the loss
        # belong to the rolled-back epoch and must not be delivered.
        self.data_queues = [self.ctx.Queue() for _ in range(config.num_workers)]
        self.procs, self.conns = [], []
        for wid in range(config.num_workers):
            parent_conn, child_conn = self.ctx.Pipe()
            snap = ckpt.worker_snapshots[wid] if ckpt is not None else None
            proc = self.ctx.Process(
                target=_worker_main,
                args=(wid, config, self.app_factory, self.csr_meta,
                      self.data_queues, child_conn, str(self.spill_root),
                      snap, global_value, self._incarnation),
                name=f"gthinker-worker-{wid}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.procs.append(proc)
            self.conns.append(parent_conn)

    def _terminate_workers(self) -> None:
        for conn in self.conns:
            try:
                conn.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for q in self.data_queues:
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self.procs, self.conns, self.data_queues = [], [], []

    def _recover(self) -> None:
        """Global rollback: respawn everything from the last barrier."""
        self._terminate_workers()
        self._incarnation += 1
        self.metrics.add("ft:recoveries")
        self._spawn_workers()

    def shutdown(self) -> None:
        self._terminate_workers()

    # -- plumbing ---------------------------------------------------------

    def _recv(self, worker_id: int, timeout: Optional[float] = None):
        if timeout is None:
            timeout = self.config.control_reply_timeout_s
        conn = self.conns[worker_id]
        deadline = time.monotonic() + timeout
        poll_s = 0.002
        while not conn.poll(poll_s):
            # Exponential backoff on the control plane: spin tightly for
            # prompt replies, back off towards 100ms for slow ones.
            poll_s = min(poll_s * 2, 0.1)
            if not self.procs[worker_id].is_alive():
                # Exit may have raced a final message into the pipe.
                if conn.poll(0.25):
                    break
                raise WorkerProcessError(
                    worker_id,
                    f"died with exit code {self.procs[worker_id].exitcode} "
                    f"without reporting an error",
                    recoverable=True,
                )
            if time.monotonic() > deadline:
                raise WorkerProcessError(
                    worker_id,
                    f"no control-plane reply within {timeout}s",
                    recoverable=True,
                )
        try:
            msg = conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerProcessError(
                worker_id, "control pipe closed while receiving",
                recoverable=True,
            ) from exc
        if isinstance(msg, tuple) and msg and msg[0] == "error":
            _tag, wid, exc_type, tb = msg
            # The worker's own code raised: rolling back and redoing the
            # same work would fail identically, so this is final.
            raise WorkerProcessError(
                wid, f"{exc_type} raised:\n{tb}", recoverable=False
            )
        if self._note_oob(worker_id, msg):
            # An unsolicited wake racing a request-reply exchange; the
            # reply we are waiting for is still behind it.
            return self._recv(worker_id, timeout)
        return msg

    def _send(self, worker_id: int, cmd) -> None:
        try:
            self.conns[worker_id].send(cmd)
        except (BrokenPipeError, OSError) as exc:
            # The worker died.  Drain its pipe looking for the error
            # report — a late _Status or other stale reply must not
            # shadow the real traceback — and chain the pipe error.
            conn = self.conns[worker_id]
            deadline = time.monotonic() + _ERROR_DRAIN_S
            while time.monotonic() < deadline:
                try:
                    if not conn.poll(0.05):
                        continue
                    msg = conn.recv()
                except (EOFError, OSError):
                    break
                if isinstance(msg, tuple) and msg and msg[0] == "error":
                    _tag, wid, exc_type, tb = msg
                    raise WorkerProcessError(
                        wid, f"{exc_type} raised:\n{tb}", recoverable=False
                    ) from exc
                # else: a stale pre-death reply; keep draining.
            raise WorkerProcessError(
                worker_id, "control pipe closed unexpectedly",
                recoverable=True,
            ) from exc

    def _drain_events(self, timeout: float) -> None:
        """Multiplexed control-event drain over every worker's pipe.

        Blocks up to ``timeout`` for the *first* message, then consumes
        everything already buffered.  Wakes route through
        ``_note_oob``; anything else is
        an error report (raised final) or a pipe closure/dead process
        (raised as a recoverable loss).  Real protocol replies cannot
        appear: the control plane is strictly request-reply outside
        this window.
        """
        try:
            ready = mp_connection.wait(self.conns, timeout=timeout)
        except OSError:  # a pipe died mid-wait; the next op reports it
            self._pending_wake = True
            return
        for conn in ready:
            wid = self.conns.index(conn)
            if not self.procs[wid].is_alive() and not conn.poll(0):
                raise WorkerProcessError(
                    wid,
                    f"died with exit code {self.procs[wid].exitcode} "
                    f"without reporting an error",
                    recoverable=True,
                )
            while conn.poll(0):
                try:
                    msg = conn.recv()
                except (EOFError, OSError) as exc:
                    raise WorkerProcessError(
                        wid, "control pipe closed while idle",
                        recoverable=True,
                    ) from exc
                if isinstance(msg, tuple) and msg and msg[0] == "error":
                    _tag, ewid, exc_type, tb = msg
                    raise WorkerProcessError(
                        ewid, f"{exc_type} raised:\n{tb}", recoverable=False
                    )
                if not self._note_oob(wid, msg):
                    raise WorkerProcessError(
                        wid,
                        "unexpected out-of-band control message "
                        f"{type(msg).__name__}",
                    )


# ---------------------------------------------------------------------------
# The executor registered as runtime="process"
# ---------------------------------------------------------------------------


class ProcessExecutor:
    """``execute(JobRequest) -> JobResult`` via worker processes."""

    def __init__(self, join_timeout_s: float = 600.0) -> None:
        self.join_timeout_s = join_timeout_s

    def execute(self, request: JobRequest):
        from .job import JobResult  # deferred: job.py imports us lazily

        config = request.config
        app_factory = request.app_factory
        try:
            pickle.dumps(app_factory)
        except Exception as exc:
            raise GThinkerError(
                f"runtime='process' requires a picklable app_factory "
                f"(a Comper class or functools.partial, not a lambda or "
                f"closure): {exc!r}"
            ) from exc

        ckpt = request.checkpoint
        if ckpt is not None and ckpt.num_workers != config.num_workers:
            raise CheckpointError(
                f"checkpoint was taken with {ckpt.num_workers} workers, "
                f"job has {config.num_workers}"
            )

        graph = request.graph
        if isinstance(graph, ShardedGraphStore):
            graph = graph.load_full_graph()
        if not isinstance(graph, Graph):
            raise TypeError(f"unsupported graph source {type(request.graph)!r}")

        ctx = mp.get_context(
            config.process_start_method or _default_start_method()
        )
        started = time.perf_counter()
        csr = SharedCSR.from_graph(graph)
        # The parent owns the spill root: worker processes can be
        # terminate()d mid-recovery, so they must not own tempdirs.
        owns_spill = config.spill_dir is None
        spill_root = Path(config.spill_dir) if config.spill_dir else Path(
            tempfile.mkdtemp(prefix="gthinker-spill-proc-")
        )
        master = _ProcessMaster(
            ctx=ctx,
            config=config,
            app_factory=app_factory,
            csr_meta=csr.meta,
            spill_root=spill_root,
            join_timeout_s=self.join_timeout_s,
            checkpoint_path=request.checkpoint_path,
            abort_after_rounds=request.abort_after_rounds,
        )
        # Cooperative cancel: the sweep loop raises JobCancelledError,
        # which unwinds through the ``finally`` below — shutdown()
        # terminates every worker process, so quota is really free.
        master.abort = request.abort
        try:
            master.start(checkpoint=ckpt)
            finals = master.run()

            merged = MetricsRegistry()
            merged.merge_from(master.metrics)
            outputs: List[Any] = []
            for final in sorted(finals, key=lambda f: f.worker_id):
                merged.merge_from(MetricsRegistry.from_snapshot(final.metrics))
                outputs.extend(final.outputs)
            for proc in master.procs:
                proc.join(timeout=10.0)
            return JobResult(
                aggregate=master.global_aggregator.value,
                outputs=outputs,
                metrics=merged.snapshot(),
                elapsed_s=time.perf_counter() - started,
                num_workers=config.num_workers,
                compers_per_worker=config.compers_per_worker,
            )
        finally:
            master.shutdown()
            if owns_spill:
                shutil.rmtree(spill_root, ignore_errors=True)
            csr.close()
            csr.unlink()
