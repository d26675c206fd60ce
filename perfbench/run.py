"""The repository's benchmark: one workload, one seed, one JSON verdict.

Usage, from the repository root::

    python3 perfbench/run.py --workload tc-rmat-process --seed 1 \\
        --seconds 25 --trace 0

A run generates the workload's inputs from ``--seed``, computes the
serial oracle answers, times several cold set-ups, runs one warm-up
job, then keeps its clients submitting jobs (closed loop) until
``--seconds`` have passed.  Every answer is checked against the oracle.
Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, their times scaled to a
reference host speed measured between jobs (see ``end_to_end`` and
``README.md``).  ``--trace 1`` alternates
traced and untraced phases (wrappers from ``tracer.py`` installed only
in traced ones), reports the per-layer metrics and writes the spans as
Chrome trace-event JSON under ``.perfbench/traces/``.

Exit status: 0 when every job was correct, 1 when any job failed or was
wrong, 2 when the benchmark cannot run here (no ``src/repro``, or more
workers or client threads than CPUs).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Cold set-ups per run: at least SETUPS_MIN, more (up to SETUPS_MAX)
#: while the set-up phase, closes included, has taken less than
#: SETUP_BUDGET_S seconds; ``setup_s`` is their median.
SETUPS_MIN = 5
SETUPS_MAX = 25
SETUP_BUDGET_S = 2.5
#: Jobs each client runs between two host probes (and, in ``--trace 1``,
#: per traced or untraced phase).
PHASE_JOBS = {"batch": 1, "service": 4}
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
#: Reference loop time the host-normalized metrics are scaled to: the
#: loop's time on a 2-vCPU Xeon VM at 2.0 GHz when no neighbour loads it.
REF_LOOP_S = 0.020


def _ref_loop(n: int, cpu: List[float]) -> None:
    c0 = time.thread_time()
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
    cpu.append(time.thread_time() - c0)


def ref_once(threads: int = 1) -> tuple:
    """One pass of a fixed pure-Python loop: (wall s, CPU s of its threads).

    With ``threads`` > 1 the same 200k iterations are split over that
    many threads running at once, so the pass also pays the GIL
    hand-offs between cores that concurrent clients of one process pay.
    """
    cpu: List[float] = []
    t0 = time.perf_counter()
    if threads == 1:
        _ref_loop(200_000, cpu)
    else:
        pool = [threading.Thread(target=_ref_loop, args=(200_000 // threads, cpu))
                for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
    return time.perf_counter() - t0, sum(cpu)


def ref_loop_s() -> float:
    """The reference loop's median wall time over 9 passes."""
    return statistics.median(ref_once()[0] for _ in range(9))


def git_sha() -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def cpu_s() -> float:
    """User+sys CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


class Phases:
    """A barrier of all clients every few jobs.

    Its action runs while every client is idle: it times one pass of the
    reference loop, split over as many threads as there are clients (the
    host's speed at that moment, as concurrent clients see it) and, in a
    traced run, flips between traced and untraced phases.
    """

    def __init__(self, clients: int, deadline: float, tracer, jobs: int) -> None:
        self.deadline = deadline
        self.tracer = tracer
        self.jobs = jobs
        self.traced = False
        self.go = True
        self.refs: List[float] = []
        self.ref_cpu = 0.0
        self.threads = clients
        self.barrier = threading.Barrier(clients, action=self._flip)

    def _flip(self) -> None:
        self.go = time.perf_counter() < self.deadline
        if not self.go:
            return
        wall, cpu = ref_once(self.threads)
        self.refs.append(wall)
        self.ref_cpu += cpu
        if self.tracer is None:
            return
        if self.traced:
            self.tracer.uninstall()
        else:
            self.tracer.install()
        self.traced = not self.traced


def measure(workload, system, seconds: float, tracer) -> Dict:
    """Closed loop: each client submits its next job once the last is back."""
    outcomes: List = [[] for _ in range(workload.clients)]
    errors: List[BaseException] = []
    start = time.perf_counter()
    kind = "service" if workload.clients > 1 else "batch"
    phases = Phases(workload.clients, start + seconds, tracer, PHASE_JOBS[kind])

    def client_loop(c: int) -> None:
        try:
            step = 0
            while True:
                if step % phases.jobs == 0:
                    phases.barrier.wait()
                    if not phases.go:
                        return
                out = workload.run_job(system, c, step)
                out.traced = phases.traced
                outcomes[c].append(out)
                step += 1
        except BaseException as exc:  # reported, never swallowed
            errors.append(exc)
            phases.barrier.abort()

    cpu0 = cpu_s()
    threads = [threading.Thread(target=client_loop, args=(c,), daemon=True)
               for c in range(workload.clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    cpu = cpu_s() - cpu0 - phases.ref_cpu
    if tracer is not None and tracer.installed:
        tracer.uninstall()
    if errors:
        raise errors[0]
    return {"outcomes": [o for per in outcomes for o in per],
            "elapsed_s": elapsed, "cpu_s": cpu, "refs": phases.refs}


def end_to_end(setups: List[Dict], run: Dict) -> Dict[str, float]:
    """Host-normalized end-to-end metrics, and the raw ones they scale.

    Each time is scaled by REF_LOOP_S / (median reference loop time
    probed between the jobs, or between the set-ups, it comes from).
    """
    outs = run["outcomes"]
    done = [o for o in outs if o.ok]
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "latency_p50_s": statistics.median(o.latency_s for o in outs),
        "cpu_per_job_s": run["cpu_s"] / max(1, len(done)),
    }
    setup_speed = REF_LOOP_S / statistics.median(s["ref_s"] for s in setups)
    run_speed = REF_LOOP_S / statistics.median(run["refs"])
    return {
        "setup_s": raw["setup_s"] * setup_speed,
        "latency_p50_s": raw["latency_p50_s"] * run_speed,
        "cpu_per_job_s": raw["cpu_per_job_s"] * run_speed,
        "peak_rss_mb": peak_rss_mb(),
    }, raw


def _per_job(values: List[float], jobs: int) -> float:
    return sum(values) / max(1, jobs)


def per_layer(workload, setups: List[Dict], run: Dict, snap: Dict,
              host: float) -> Dict[str, float]:
    """The per-layer metrics of a traced run (times and counts per job)."""
    outs = run["outcomes"]
    traced = [o for o in outs if o.traced]
    untraced = [o for o in outs if not o.traced]
    n = max(1, len(traced))
    self_s, calls, elems = snap["self_s"], snap["calls"], snap["elems"]
    layer_of = snap["layer_of"]

    def layer(name: str) -> List[str]:
        return [k for k, v in layer_of.items() if v == name]

    def sself(names) -> float:
        return _per_job([self_s.get(k, 0.0) for k in names], n)

    def scalls(names) -> float:
        return _per_job([calls.get(k, 0) for k in names], n)

    # Program counters: every executed job of the run (hits did no work),
    # averaged per input graph first, so a count that repeats on each
    # input repeats in the result however the jobs fell on the inputs.
    by_input: Dict[int, List] = {}
    for o in outs:
        if o.executed and o.metrics:
            by_input.setdefault(o.input, []).append(o)

    def ctr(key: str) -> float:
        if not by_input:
            return 0.0
        return statistics.mean(
            _per_job([o.metrics.get(key, 0.0) for o in group], len(group))
            for group in by_input.values())

    hits = ctr("cache:hits")
    lookups = hits + ctr("cache:miss_first") + ctr("cache:miss_duplicate")
    deduped = ctr("comm:requests_deduped")
    created = ctr("tasks:created")
    control_idle = ctr("time:control_idle_s")
    busy = max(1e-12, snap["covered_s"] / n - control_idle)
    udf_kern = sself(layer("udf")) + sself(layer("kernels"))

    p50_traced = statistics.median(o.latency_s for o in traced) if traced else 0.0
    p50_plain = statistics.median(o.latency_s for o in untraced) if untraced else 0.0
    wall_traced = sum(o.latency_s for o in traced)

    m = {
        "graph.read_s": statistics.median(s["graph.read_s"] for s in setups),
        "graph.csr_s": statistics.median(s.get("graph.csr_s", 0.0) for s in setups),
        "graph.digest_s": statistics.median(s.get("graph.digest_s", 0.0)
                                            for s in setups),
        "kernels.self_s": sself(layer("kernels")),
        "kernels.calls": scalls(layer("kernels")),
        "kernels.input_elems": _per_job(list(elems.values()), n),
        "udf.self_s": sself(layer("udf")),
        "udf.calls": scalls(layer("udf")),
        "udf.share": udf_kern / busy,
        "engine.self_s": sself(layer("engine")),
        "engine.steps": scalls(["ComperEngine.step"]),
        "tasks.created": created,
        "tasks.iterations": ctr("tasks:iterations"),
        "cache.self_s": sself(layer("cache")),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.evictions": ctr("cache:evictions"),
        "cache.lock_acquisitions": ctr("cache:bucket_lock_acquisitions"),
        "queue.spill_s": sself([k for k in layer("containers")
                                if k.startswith("TaskFileList.")]),
        "codec.task_s": sself(["serialize_tasks", "deserialize_tasks"]),
        "tasks.spilled": ctr("tasks:spilled"),
        "tasks.refilled": ctr("tasks:refilled_from_disk"),
        "comm.self_s": sself(layer("comm")),
        "comm.flush_s": ctr("time:comm_flush_s"),
        "comm.serve_s": ctr("time:comm_serve_s"),
        "comm.land_s": ctr("time:comm_land_s"),
        "comm.requests_served": ctr("comm:requests_served"),
        "comm.dedup_ratio": (deduped / (deduped + ctr("comm:requests_queued"))
                             if deduped else 0.0),
        "metrics.add_calls": scalls(["MetricsRegistry.add"]),
        "metrics.add_s": sself(["MetricsRegistry.add"]),
        "control.self_s": sself(layer("control")),
        "control.master_sweep_s": ctr("time:master_sweep_s"),
        "control.idle_s": control_idle,
        "steal.tasks": ctr("steal:tasks"),
        "steal.ratio": ctr("steal:tasks") / created if created else 0.0,
        "control.steal_plan_skipped": ctr("control:steal_plan_skipped"),
        "wire.encode_s": sself(["encode_batch"]),
        "wire.decode_s": sself(["decode_batch"]),
        "ipc.batches": ctr("ipc:batches"),
        "ipc.payload_bytes": ctr("ipc:payload_bytes"),
        "tcp.send_s": sself(["TcpTransport.send"]),
        "tcp.poll_s": sself(["TcpTransport.poll"]),
        "tcp.frames": ctr("tcp:frames"),
        "tcp.payload_bytes": ctr("tcp:payload_bytes"),
        "chan.rpc_s": sself(["ControlChannel.send_obj"]),
        "trace.overhead_frac": (p50_traced / p50_plain - 1.0) if p50_plain else 0.0,
        "trace.coverage": (snap["covered_s"] + snap["waited_s"]) / snap["root_s"]
        if snap["root_s"] else 0.0,
        "host.ref_loop_s": host,
    }
    m.update(session_metrics(outs, snap, wall_traced, n))
    m.update(service_metrics(workload, run))
    return m


def session_metrics(outs, snap, wall_traced: float, n: int) -> Dict[str, float]:
    executed = [o for o in outs if o.exec_s is not None]
    if executed:  # the service reports admission and execution times
        return {
            "session.queue_wait_s": statistics.mean(o.queue_wait_s for o in executed),
            "session.exec_s": statistics.mean(o.exec_s for o in executed),
        }
    exec_s = snap["total_s"].get("_dispatch", 0.0)
    return {
        "session.queue_wait_s": max(0.0, wall_traced - exec_s) / n,
        "session.exec_s": exec_s / n,
    }


def service_metrics(workload, run: Dict) -> Dict[str, float]:
    outs = run["outcomes"]
    names = ("service.hit_ratio", "service.hit_latency_p50_s",
             "service.miss_latency_p50_s", "service.submit_rpc_s",
             "service.latency_p90_s", "service.p90_beyond", "service.jobs_per_s")
    if workload.clients == 1:
        return dict.fromkeys(names, 0.0)
    hits = [o.latency_s for o in outs if o.cached]
    misses = [o.latency_s for o in outs if o.ok and not o.cached]
    tail = serving_tail(outs)
    return {
        "service.hit_ratio": len(hits) / len(outs),
        "service.hit_latency_p50_s": statistics.median(hits) if hits else 0.0,
        "service.miss_latency_p50_s": statistics.median(misses) if misses else 0.0,
        "service.submit_rpc_s": statistics.median(
            o.submit_rpc_s for o in outs if o.submit_rpc_s is not None),
        "service.latency_p90_s": tail[0] if tail else 0.0,
        "service.p90_beyond": tail[1] if tail else 0,
        "service.jobs_per_s": sum(o.ok for o in outs) / run["elapsed_s"],
    }


def serving_tail(outs) -> Optional[tuple]:
    """(p90, samples beyond it) when at least TAIL_SAMPLES lie beyond."""
    lat = [o.latency_s for o in outs]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    beyond = sum(1 for x in lat if x > p90)
    return (p90, beyond) if beyond >= TAIL_SAMPLES else None


def environment(workload, seed: int, outs) -> Dict[str, str]:
    import numpy

    backends = sorted({k.split(":", 2)[2] for o in outs for k in o.metrics
                       if k.startswith("kernels:backend:")})
    return {
        "nproc": str(nproc()),
        "kernels": ",".join(backends) or "none-ran",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_sha(),
        "seed": str(seed),
        "workload": workload.name,
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_pids() -> List[int]:
    """Live child processes of this process, from ``/proc``."""
    pids: List[int] = []
    for task in Path(f"/proc/{os.getpid()}/task").glob("*/children"):
        try:
            pids += [int(p) for p in task.read_text().split()]
        except OSError:
            pass
    return pids


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait for each to end.

    Terminate, and after ``grace_s`` kill, any child left over; then stop
    ``multiprocessing``'s resource tracker (started by the process
    runtime's shared-memory blocks) the way ``multiprocessing`` does:
    close its pipe and wait for it.  Left alone, the tracker lives on
    after this process exits until it has read the end of its pipe.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    pids = [pid for pid in child_pids() if pid != tracker._pid]
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + grace_s
    for pid in pids:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # not ours to wait for, or reaped
                break
            if done:
                break
            if time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)
    tracker._stop()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_workloads():
    """Import the program from ``src/``; exit 2 when it is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src}/repro; run from the repository "
              f"root of a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads.build()


def main(argv=None, workloads=None) -> int:
    args = parse_args(argv)
    workloads = workloads or load_workloads()
    workload = workloads.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"pick one of {sorted(workloads)}", file=sys.stderr)
        return 2
    if workload.workers > nproc():
        print(f"perfbench: {workload.name} needs {workload.workers} CPUs for its "
              f"workers or client threads, this host has {nproc()}; refusing an "
              f"oversubscribed measurement", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench"
    work = base / f"{workload.name}-s{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work / "tmp")  # spill files stay in the checkout
    try:
        return _run(args, workload, base, work)
    finally:
        stop_children()
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload, base: Path, work: Path) -> int:
    workload.prepare(args.seed, work)
    host_start = ref_loop_s()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(work / "spool")

    setups = []
    system = None
    phase_start = time.perf_counter()
    while len(setups) < SETUPS_MIN or (
            len(setups) < SETUPS_MAX
            and time.perf_counter() - phase_start < SETUP_BUDGET_S):
        if system is not None:
            workload.close(system)
        # Every set-up starts from the same collected heap, so a GC pass
        # triggered by garbage of the previous one does not land in it.
        gc.collect()
        ref_s = ref_once()[0]
        if tracer is not None:
            tracer.install()
        system, spans = workload.setup()
        spans["ref_s"] = ref_s
        if tracer is not None:
            snap = tracer.snapshot()
            spans["graph.csr_s"] = snap["total_s"].get("Graph.csr_arrays", 0.0)
            spans["graph.digest_s"] = snap["total_s"].get("graph_digest", 0.0)
            tracer.uninstall()
            tracer.clear()
        setups.append(spans)

    try:
        system = workload.extend(system)
        warm = workload.run_job(system, 0, -1, workload.warm_spec())
        if not warm.ok:
            print(f"warm-up job failed: {warm.error}", file=sys.stderr)
        run = measure(workload, system, args.seconds, tracer)
    finally:
        workload.close(system)
    host_end = ref_loop_s()

    outs = run["outcomes"]
    failed = sum(1 for o in outs if not o.ok) + (0 if warm.ok else 1)
    attempted = len(outs) + 1
    env = environment(workload, args.seed, outs)
    print("env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"host.ref_loop_s  start={host_start:.5f}  end={host_end:.5f}")
    for o in outs:
        if not o.ok:
            print(f"FAILED job: {o.error}")

    if tracer is None:
        metrics, raw = end_to_end(setups, run)
        report_extra(workload, run, attempted, failed)
        for name, value in raw.items():
            print(f"{'raw ' + name:32s} {value:14.6g} s  (as measured, not normalized)")
        print(f"{'probe ref_loop_s':32s} {statistics.median(run['refs']):14.6g} s  "
              f"(median of {len(run['refs'])} probes in the window, "
              f"{len(setups)} set-ups)")
    else:
        tracer.collect_children()
        snap = tracer.snapshot()
        host = statistics.mean((host_start, host_end))
        metrics = per_layer(workload, setups, run, snap, host)
        traces = base / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{workload.name}-s{args.seed}.json"
        tracer.write_chrome_trace(trace_path, snap)
        print(f"chrome trace: {trace_path.relative_to(ROOT)} "
              f"({len(snap['events'])} spans)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if tracer else "end_to_end"]}
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    verdict = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(verdict))
    return 0 if failed == 0 else 1


def report_extra(workload, run: Dict, attempted: int, failed: int) -> None:
    """The serving metrics that only some workloads support, by name."""
    outs = run["outcomes"]
    print(f"{'jobs':32s} {len(outs):14d} count")
    print(f"{'failed_frac':32s} {failed / attempted:14.6g} 1")
    if workload.clients == 1:
        print("latency_p90_s / jobs_per_s: not reported on a batch workload "
              "(too few jobs beyond p90; jobs_per_s would be 1/latency_p50_s)")
        return
    tail = serving_tail(outs)
    if tail is None:
        print(f"latency_p90_s: not reported, fewer than {TAIL_SAMPLES} samples "
              f"beyond p90 of {len(outs)}")
    else:
        print(f"{'latency_p90_s':32s} {tail[0]:14.6g} s  "
              f"(n={len(outs)}, {tail[1]} beyond p90)")
    jobs_per_s = sum(o.ok for o in outs) / run["elapsed_s"]
    hit_share = sum(o.cached for o in outs) / len(outs)
    print(f"{'jobs_per_s':32s} {jobs_per_s:14.6g} 1/s")
    print(f"{'hit_share':32s} {hit_share:14.6g} 1  "
          f"(hit p50 {statistics.median([o.latency_s for o in outs if o.cached] or [0]):.4g} s, "
          f"miss p50 {statistics.median([o.latency_s for o in outs if not o.cached] or [0]):.4g} s)")


if __name__ == "__main__":
    sys.exit(main())
