"""Checks of the benchmark itself: wrong answers count, limits refuse.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

The cases corrupt answers *after* the program produced them, so they
prove that the oracle gate in ``run.py``/``workloads.py`` counts a
wrong answer in ``failed`` and exits non-zero, and that the verdict
keys match ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(name: str, workloads, seconds: float = 1.5, trace: int = 0):
    """Run one workload in-process; returns (exit code, verdict, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds",
                         str(seconds), "--trace", str(trace)], workloads)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), out.getvalue()


class OracleGate(unittest.TestCase):

    def test_wrong_batch_answer_is_counted(self):
        workloads = run.load_workloads()
        w = workloads["mcf-ba-evict"]
        verify = w.verify
        calls = []

        def corrupting_verify(aggregate, i):
            calls.append(aggregate)
            if len(calls) % 2 == 0:  # every second answer loses a vertex
                aggregate = tuple(aggregate)[:-1]
            return verify(aggregate, i)

        w.verify = corrupting_verify
        code, verdict, text = bench("mcf-ba-evict", workloads)
        self.assertEqual(code, 1)
        self.assertFalse(verdict["correct"])
        self.assertEqual(verdict["attempted"], len(calls))
        self.assertEqual(verdict["failed"], len(calls) // 2)
        self.assertIn("FAILED job: clique size", text)

    def test_non_clique_of_right_size_is_rejected(self):
        workloads = run.load_workloads()
        w = workloads["mcf-ba-evict"]
        workdir = Path(tempfile.mkdtemp())
        try:
            w.prepare(3, workdir)
        finally:
            shutil.rmtree(workdir)
        g, size = w.graphs[0], w.oracles[0]
        v = g.sorted_vertices()[0]  # v and non-neighbours of it
        others = [u for u in g.sorted_vertices() if u != v and not g.has_edge(u, v)]
        clique = (v, *others[: size - 1])
        self.assertEqual(len(clique), size)
        self.assertIn("not a clique", w.verify(clique, 0))

    def test_wrong_service_answer_is_counted(self):
        workloads = run.load_workloads()
        w = workloads["service-mix"]
        prepare = w.prepare

        def corrupting_prepare(seed, workdir):
            prepare(seed, workdir)
            shape, labels = w.warm_spec()
            from workloads import _canonical

            w.oracle[_canonical(shape, labels)] += 1

        w.prepare = corrupting_prepare
        code, verdict, _ = bench("service-mix", workloads)
        self.assertEqual(code, 1)
        self.assertFalse(verdict["correct"])
        self.assertGreaterEqual(verdict["failed"], 1)


class Contract(unittest.TestCase):

    def test_verdict_metrics_match_benchmark_json(self):
        workloads = run.load_workloads()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, verdict, _ = bench("mcf-ba-evict", workloads, 1.5, trace)
            self.assertEqual(code, 0)
            self.assertTrue(verdict["correct"])
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in verdict["metrics"].items()}
            self.assertEqual(got, want)

    def test_oversubscription_is_refused(self):
        workloads = run.load_workloads()
        w = workloads["service-mix"]
        w.clients = run.nproc() + 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "service-mix", "--seed", "1",
                             "--seconds", "1", "--trace", "0"], workloads)
        self.assertEqual(code, 2)
        self.assertEqual(out.getvalue(), "")

    def test_exits_nonzero_without_the_program(self):
        root = Path(tempfile.mkdtemp())
        try:
            shutil.copytree(HERE, root / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", root)
            p = subprocess.run([sys.executable, *SPEC["command"][1:],
                                "--workload", "mcf-ba-evict", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                               cwd=root, capture_output=True, text=True,
                               timeout=60)
        finally:
            shutil.rmtree(root)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
