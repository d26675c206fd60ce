"""Pull-path benchmark: ``runtime='process'`` vs serial on graphs the
cache actually matters for (``BENCH_pullpath.json``).

Before the bulk pull path (per-vertex cache ops, per-vertex responses,
fixed idle sleeps) the process runtime ran MCF at n>=5k at ~0.27x the
serial wall clock on a single core.  This benchmark is the regression
gate for the batched path: dedup'd request batches, struct-of-arrays
responses, bucket-lock amortization, and wake-on-work scheduling.

Protocol
--------
* MCF (maximum clique) and TC (triangle count) on Erdos-Renyi graphs
  with n >= 5k at several densities.
* Serial and process runs are *interleaved* (s, p, s, p, ...)
  so slow drift in machine load hits every runtime equally; each wall
  time is the best of k rounds (scheduler jitter only ever adds time).
* Each runtime uses its best single-host configuration: the process
  runtime uses one worker per spare core (one worker total on 1-2 CPU
  hosts, where any speedup must come from overhead elimination alone).
* Answers are checked against the serial run: exact equality for TC,
  clique *size* for MCF (distinct maximum cliques of equal size are
  all correct answers).

The JSON report carries a top-level ``speedup_vs_serial.process``
(the best MCF speedup across the measured n>=5k graphs) and the
pull-path and control-plane evidence counters from one process run.
Exit status is non-zero if that headline speedup is < 1.0, any answer
differs, or a process run stole more tasks than it created
(``steal:tasks > tasks:created``, the signature of steal thrash) — the
CI perf-smoke gate.

Run::

    python benchmarks/bench_pullpath.py [--quick] [--output PATH]
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps import MaxCliqueComper, TriangleCountComper
from repro.core import GThinkerConfig, run_job
from repro.graph import erdos_renyi

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pullpath.json"

#: Pull-path evidence counters copied into the report from a process run.
EVIDENCE_KEYS = (
    "cache:bucket_lock_acquisitions",
    "cache:hits",
    "cache:miss_first",
    "comm:requests_deduped",
    "comm:requests_served",
    "ipc:batches",
    "ipc:payload_bytes",
    "steal:tasks",
    "tasks:created",
    "time:comm_flush_s",
    "time:comm_serve_s",
    "time:comm_land_s",
    "time:master_sweep_s",
    "time:control_idle_s",
    "control:steal_plan_skipped",
)

APPS = {
    "mcf": MaxCliqueComper,
    "tc": TriangleCountComper,
}


def _config(num_workers: int, n: int) -> GThinkerConfig:
    """Best single-host pull-path configuration for an n-vertex graph."""
    return GThinkerConfig(
        num_workers=num_workers,
        compers_per_worker=1,
        task_batch_size=64,
        cache_capacity=max(4 * n, 4096),  # hold the working set
        cache_buckets=64,
        decompose_threshold=100,
    )


def _process_workers() -> int:
    """One worker per spare core; a single worker on 1-2 CPU hosts."""
    cores = os.cpu_count() or 1
    return 1 if cores < 4 else 2


def _answer(app: str, result) -> int:
    if app == "mcf":
        return len(result.aggregate or ())
    return int(result.aggregate)


def bench_workload(app: str, n: int, avg_deg: int, seed: int,
                   rounds: int) -> dict:
    graph = erdos_renyi(n, avg_deg / (n - 1), seed=seed)
    comper = APPS[app]
    serial_cfg = _config(num_workers=1, n=n)
    base_cfg = _config(num_workers=_process_workers(), n=n)
    points = (
        ("serial", "serial", serial_cfg),
        ("process", "process", base_cfg),
    )

    walls = {label: float("inf") for label, _, _ in points}
    answers = {}
    evidence = {}
    for _ in range(rounds):
        for label, runtime, cfg in points:
            started = time.perf_counter()
            result = run_job(comper, graph, cfg, runtime=runtime)
            walls[label] = min(walls[label],
                               time.perf_counter() - started)
            answers[label] = _answer(app, result)
            if label == "process":
                evidence = {k: result.metrics.get(k, 0)
                            for k in EVIDENCE_KEYS}

    speedup = walls["serial"] / walls["process"]
    cpu_count = os.cpu_count() or 1
    row = {
        "app": app,
        "graph": {"model": "erdos_renyi", "n": n, "avg_deg": avg_deg,
                  "p": round(avg_deg / (n - 1), 6), "seed": seed,
                  "num_edges": graph.num_edges},
        "rounds": rounds,
        # Effective parallelism of THIS measurement, not of the machine
        # the report was merged on: downstream tooling judges each
        # workload's speedup on the workload's own recorded environment.
        "cpu_count": cpu_count,
        "process_workers": base_cfg.num_workers,
        "speedup_valid": cpu_count >= 2,
        "serial_wall_s": round(walls["serial"], 4),
        "process_wall_s": round(walls["process"], 4),
        "speedup_vs_serial": round(speedup, 3),
        "answers": answers,
        "answers_equal": answers["serial"] == answers["process"],
        "process_metrics": evidence,
        "steal_bound_ok": evidence["steal:tasks"] <= evidence["tasks:created"],
    }
    print(f"{app} n={n} deg={avg_deg}: serial={walls['serial']:.3f}s "
          f"process={walls['process']:.3f}s speedup={speedup:.2f}x "
          f"steal:tasks={evidence['steal:tasks']:.0f} "
          f"tasks:created={evidence['tasks:created']:.0f} "
          f"answers_equal={row['answers_equal']}", flush=True)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pull-path benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="smaller graphs / fewer rounds (CI)")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT),
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    if args.quick:
        grid = [(6000, 40, 42)]
        rounds = 3
    else:
        grid = [(6000, 40, 42), (12000, 10, 42), (12000, 20, 42),
                (12000, 40, 42)]
        rounds = 5

    rows = []
    for app in ("mcf", "tc"):
        for n, avg_deg, seed in grid:
            rows.append(bench_workload(app, n, avg_deg, seed, rounds))

    mcf_rows = [r for r in rows if r["app"] == "mcf"]
    headline = max(mcf_rows, key=lambda r: r["speedup_vs_serial"])
    answers_equal = all(r["answers_equal"] for r in rows)
    # On a single-core box the process runtime cannot beat serial by
    # construction; the flag tells the CI gate the speedup number is
    # environmental noise, not a regression.  The top-level flag must
    # agree with every per-workload flag (one process, one machine) —
    # the CI gate additionally asserts it is true on >= 2 cores.
    speedup_valid = (os.cpu_count() or 1) >= 2
    assert all(r["speedup_valid"] == speedup_valid for r in rows)
    steal_bound_ok = all(r["steal_bound_ok"] for r in rows)
    report = {
        "benchmark": "pull_path",
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "process_workers": _process_workers(),
        "speedup_valid": speedup_valid,
        "speedup_vs_serial": {"process": headline["speedup_vs_serial"]},
        "headline": {"app": headline["app"],
                     "graph": headline["graph"],
                     "speedup_vs_serial": headline["speedup_vs_serial"]},
        "answers_equal": answers_equal,
        "steal_bound_ok": steal_bound_ok,
        "workloads": rows,
    }
    with open(args.output, "w", encoding="ascii") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"headline: mcf n={headline['graph']['n']} "
          f"deg={headline['graph']['avg_deg']} "
          f"speedup={headline['speedup_vs_serial']}x")
    print(f"wrote {args.output}")

    ok = True
    if (os.cpu_count() or 1) >= 2 and not report["speedup_valid"]:
        # A multi-core host whose report claims its speedups are
        # meaningless is a reporting bug, not an environment limitation.
        print(f"FAIL: speedup_valid is false despite "
              f"cpu_count={os.cpu_count()} >= 2")
        ok = False
    if report["speedup_vs_serial"]["process"] < 1.0:
        if speedup_valid:
            print(f"FAIL: process runtime slower than serial on MCF "
                  f"({report['speedup_vs_serial']['process']}x < 1.0x)")
            ok = False
        else:
            print(f"SKIP speedup gate: cpu_count={os.cpu_count()} < 2, "
                  f"speedup numbers are not meaningful here")
    if not answers_equal:
        bad = [r for r in rows if not r["answers_equal"]]
        for r in bad:
            print(f"FAIL: answers differ for {r['app']} "
                  f"n={r['graph']['n']} deg={r['graph']['avg_deg']}: "
                  f"{r['answers']}")
        ok = False
    for r in rows:
        if not r["steal_bound_ok"]:
            m = r["process_metrics"]
            print(f"FAIL: {r['app']} n={r['graph']['n']} "
                  f"deg={r['graph']['avg_deg']} stole more tasks than it "
                  f"created ({m['steal:tasks']} > {m['tasks:created']})")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
