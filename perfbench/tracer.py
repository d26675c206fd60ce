"""Span tracing for the benchmark's traced run (``--trace 1``).

The tracer wraps the public functions and methods of each layer of the
``repro`` package from the outside: nothing in the program is edited.
Every wrapped call records one span; a span's *self time* is its
duration minus the time covered by the spans it encloses on the same
thread, so the self times of nested layers add up to the enclosing
wall time instead of counting it twice.

Lifetime rules:

* :meth:`Tracer.install` patches the targets in place and
  :meth:`Tracer.uninstall` restores them, so traced and untraced jobs
  can alternate inside one run.  Install happens before a job starts,
  so worker processes and cluster nodes forked by that job inherit the
  wrappers.
* The child entry points (process workers, spawned cluster nodes) are
  wrapped so that each child starts with empty totals and writes its
  spans to ``<spool>/child-<pid>-<n>.json`` before it exits;
  :meth:`Tracer.collect_children` folds those files into the parent.
* ``kernels.select_backend`` rebinds the dispatched kernel globals, so
  it is wrapped to re-apply the kernel wrappers after every call.

Span events (at most :data:`MAX_EVENTS`, spans shorter than
:data:`EVENT_MIN_S` are only counted) export as Chrome trace-event JSON,
which Perfetto and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Spans shorter than this are aggregated but not kept as trace events.
EVENT_MIN_S = 200e-6
#: Cap on trace events kept per thread.
MAX_EVENTS = 50_000

#: Functions whose self time is blocking on another thread, process or
#: socket; they are the ``wait`` layer and do not count as busy time.
WAIT_NAMES = frozenset({
    "ProcessTransport.wait_for_activity",
    "TcpTransport.wait_for_activity",
    "ControlChannel.recv_obj",
    "GraphService.wait_result",
})

#: Root spans: the entry of one execution context of a job.  Coverage is
#: the share of root time that falls inside a non-root span.
ROOT_NAMES = frozenset({"_dispatch", "_worker_main", "_spawned_node_main"})

#: Child-process entry points (module, function): they reset the totals
#: inherited through ``fork`` and flush the child's spans on exit.
CHILD_ENTRIES = (
    ("repro.core.procruntime", "_worker_main"),
    ("repro.core.clusterruntime", "_spawned_node_main"),
)

#: (layer, module, targets).  A target is ``func``, ``Class.method`` or
#: ``Class.*`` (every public method the class itself defines); a module
#: name ending in ``.*`` means every submodule of that package, where
#: ``*`` targets are every public function in the submodule's
#: ``__all__`` and ``*Comper.name`` the method of each Comper subclass.
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("graph", "repro.graph.io", ("read_adjacency",)),
    ("graph", "repro.graph.graph", ("Graph.csr_arrays",)),
    ("graph", "repro.graph.csr", ("SharedCSR.from_graph", "SharedCSR.attach")),
    ("graph", "repro.graph.digest", ("graph_digest",)),
    ("kernels", "repro.graph.kernels", ("intersect", "intersect_count",
                                        "intersect_many", "intersect_count_many",
                                        "suffix_gt", "bitset_and_counts")),
    ("udf", "repro.apps.*", ("*Comper.compute", "*Comper.task_spawn")),
    ("udf", "repro.algorithms.*", ("*",)),
    ("engine", "repro.core.comper", ("ComperEngine.*",)),
    ("cache", "repro.core.vertex_cache", ("VertexCache.*",)),
    ("containers", "repro.core.containers", (
        "serialize_tasks", "deserialize_tasks", "TaskQueue.*",
        "ReadyBuffer.*", "PendingTable.*", "TaskFileList.*")),
    ("comm", "repro.core.comm", ("CommService.*",)),
    ("metrics", "repro.core.metrics", ("MetricsRegistry.add",
                                       "MetricsRegistry.record_max")),
    ("control", "repro.core.master", ("Master.sync",)),
    ("control", "repro.core.controlplane", (
        "NodeSession.step", "NodeSession.handle", "ControlPlaneMaster.run")),
    ("wire", "repro.net.wire", ("encode_batch", "decode_batch")),
    ("ipc", "repro.net.transport", (
        "ProcessTransport.send", "ProcessTransport.poll",
        "ProcessTransport.flush_outgoing", "ProcessTransport.wait_for_activity")),
    ("tcp", "repro.net.tcp", (
        "TcpTransport.send", "TcpTransport.poll", "TcpTransport.flush_outgoing",
        "TcpTransport.wait_for_activity", "ControlChannel.send_obj",
        "ControlChannel.recv_obj")),
    ("session", "repro.core.session", ("Session.submit",)),
    ("session", "repro.core.job", ("_dispatch",)),
    ("service", "repro.service.server", (
        "GraphService.submit", "GraphService.wait_result", "GraphService.stats")),
    ("service", "repro.service.client", (
        "ServiceClient.submit", "ServiceClient.result", "ServiceClient.stats")),
)

KERNELS_MODULE = "repro.graph.kernels"


def _elems(args) -> int:
    """Input elements of a kernel call: array lengths, lists of arrays."""
    total = 0
    for a in args:
        if hasattr(a, "shape"):
            total += a.size
        elif isinstance(a, (list, tuple)):
            for b in a:
                if hasattr(b, "shape"):
                    total += b.size
    return total


class _ThreadState:
    __slots__ = ("stack", "self_s", "total_s", "calls", "elems", "events",
                 "tid", "roots", "root_s", "covered_s", "waited_s")

    def __init__(self) -> None:
        self.stack: List[float] = []  # child-time accumulators
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.elems: Dict[str, int] = defaultdict(int)
        self.events: List[Tuple[str, float, float]] = []
        self.tid = threading.get_ident()
        self.roots = 0       # depth of root spans on this thread
        self.root_s = 0.0    # total root span time
        self.covered_s = 0.0  # non-root, non-wait self time under a root
        self.waited_s = 0.0   # wait-layer self time under a root


class Tracer:
    """Installs span wrappers on the ``repro`` layers and aggregates them."""

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.clear()
        self._patches: List[Tuple[object, str, object]] = []
        self._layer_of: Dict[str, str] = {}
        self._kernel_wrappers: Dict[str, Callable] = {}
        self._child_seq = 0
        self.installed = False

    # -- per-thread state ------------------------------------------------

    def clear(self) -> None:
        """Drop every span recorded so far (wrappers stay as they are)."""
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        # Child-file totals, merged into the next snapshot().
        self._merged: List[dict] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._states_lock:
                self._states.append(st)
        return st

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, count_elems: bool = False) -> Callable:
        tracer = self
        is_root = name in ROOT_NAMES
        wait = name in WAIT_NAMES
        perf = time.perf_counter

        def span(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if is_root:
                st.roots += 1
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf() - t0
                own = d - stack.pop()
                st.self_s[name] += own
                st.total_s[name] += d
                st.calls[name] += 1
                if count_elems:
                    st.elems[name] += _elems(args)
                if is_root:
                    st.roots -= 1
                    st.root_s += d
                elif st.roots:
                    if wait:
                        st.waited_s += own
                    else:
                        st.covered_s += own
                if stack:
                    stack[-1] += d
                if d >= EVENT_MIN_S and len(st.events) < MAX_EVENTS:
                    st.events.append((name, t0, d))

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        return span

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, layer: str, module, attr: str,
                        count_elems: bool = False) -> None:
        fn = getattr(module, attr)
        if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
            return
        name = attr
        self._layer_of[name] = layer
        wrapped = self._wrap(name, fn, count_elems)
        if module.__name__ == KERNELS_MODULE:
            self._kernel_wrappers[attr] = wrapped
        # Rebind every module-level alias (``from x import f``) as well.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, key, wrapped)

    def _patch_method(self, layer: str, cls: type, attr: str) -> None:
        raw = cls.__dict__.get(attr)
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            fn = raw.__func__
            kind = type(raw)
        elif inspect.isfunction(raw):
            fn, kind = raw, None
        else:
            return
        if inspect.isgeneratorfunction(fn):
            return
        self._layer_of[name] = layer
        wrapped = self._wrap(name, fn)
        self._patch(cls, attr, kind(wrapped) if kind else wrapped)

    def _expand(self, layer: str, module, target: str) -> None:
        if target == "*":
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._patch_function(layer, module, attr)
            return
        if "." not in target:
            self._patch_function(layer, module, target,
                                 count_elems=module.__name__ == KERNELS_MODULE)
            return
        cls_pat, meth = target.split(".", 1)
        if cls_pat.startswith("*"):
            classes = [c for c in vars(module).values()
                       if isinstance(c, type) and c.__module__ == module.__name__
                       and c.__name__.endswith(cls_pat[1:])]
        else:
            classes = [getattr(module, cls_pat)]
        for cls in classes:
            if meth == "*":
                for attr, raw in list(cls.__dict__.items()):
                    if not attr.startswith("_") and inspect.isfunction(raw):
                        self._patch_method(layer, cls, attr)
            else:
                self._patch_method(layer, cls, meth)

    @staticmethod
    def _modules(spec: str):
        if not spec.endswith(".*"):
            return [importlib.import_module(spec)]
        pkg = importlib.import_module(spec[:-2])
        names = sorted(p.stem for p in Path(pkg.__file__).parent.glob("*.py")
                       if p.stem != "__init__")
        return [importlib.import_module(f"{pkg.__name__}.{n}") for n in names]

    def install(self) -> None:
        """Wrap every target; idempotent until :meth:`uninstall`."""
        if self.installed:
            return
        for layer, spec, targets in TARGETS:
            for module in self._modules(spec):
                for target in targets:
                    self._expand(layer, module, target)
        for mod_name, attr in CHILD_ENTRIES:
            module = importlib.import_module(mod_name)
            self._layer_of[attr] = "session"
            self._patch(module, attr, self._child_entry(attr, getattr(module, attr)))
        kernels = importlib.import_module(KERNELS_MODULE)
        self._patch(kernels, "select_backend",
                    self._rewrapping_select(kernels, kernels.select_backend))
        self.installed = True

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()
        self._kernel_wrappers.clear()
        self.installed = False

    def _rewrapping_select(self, kernels, select: Callable) -> Callable:
        tracer = self

        def select_backend(*args, **kwargs):
            chosen = select(*args, **kwargs)
            # The call rebound the dispatched kernels to fresh functions:
            # wrap those, keeping the saved originals for uninstall.
            for attr in list(tracer._kernel_wrappers):
                fresh = getattr(kernels, attr)
                if getattr(fresh, "__wrapped__", None) is None:
                    wrapped = tracer._wrap(attr, fresh, count_elems=True)
                    tracer._kernel_wrappers[attr] = wrapped
                    setattr(kernels, attr, wrapped)
            return chosen

        return select_backend

    def _child_entry(self, name: str, entry: Callable) -> Callable:
        tracer = self
        inner = self._wrap(name, entry)

        def child_main(*args, **kwargs):
            # A forked child inherits the parent's totals: start empty.
            tracer.clear()
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._flush_child()

        return child_main

    def _flush_child(self) -> None:
        self._child_seq += 1
        path = self.spool / f"child-{os.getpid()}-{self._child_seq}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._totals(with_events=True)))
        os.replace(tmp, path)

    # -- aggregation ---------------------------------------------------------

    def _totals(self, with_events: bool) -> dict:
        self_s: Dict[str, float] = defaultdict(float)
        total_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        elems: Dict[str, int] = defaultdict(int)
        events = []
        root_s = covered_s = waited_s = 0.0
        pid = os.getpid()
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for k, v in list(st.self_s.items()):
                self_s[k] += v
            for k, v in list(st.total_s.items()):
                total_s[k] += v
            for k, v in list(st.calls.items()):
                calls[k] += v
            for k, v in list(st.elems.items()):
                elems[k] += v
            root_s += st.root_s
            covered_s += st.covered_s
            waited_s += st.waited_s
            if with_events:
                events.extend((n, t0, d, pid, st.tid) for n, t0, d in st.events)
        return {"self_s": dict(self_s), "total_s": dict(total_s),
                "calls": dict(calls),
                "elems": dict(elems), "root_s": root_s,
                "covered_s": covered_s, "waited_s": waited_s,
                "events": events}

    def collect_children(self) -> int:
        """Fold every finished child's span file into this tracer."""
        n = 0
        for path in sorted(self.spool.glob("child-*.json")):
            self._merged.append(json.loads(path.read_text()))
            path.unlink()
            n += 1
        return n

    def snapshot(self) -> dict:
        """Totals of this process plus every collected child."""
        total = self._totals(with_events=True)
        for part in self._merged:
            for key in ("self_s", "total_s", "calls", "elems"):
                for k, v in part[key].items():
                    total[key][k] = total[key].get(k, 0) + v
            total["root_s"] += part["root_s"]
            total["covered_s"] += part["covered_s"]
            total["waited_s"] += part["waited_s"]
            total["events"].extend(tuple(e) for e in part["events"])
        total["layer_of"] = dict(self._layer_of)
        return total

    def write_chrome_trace(self, path: Path, snap: dict) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        layer_of = snap["layer_of"]
        events = [
            {"name": n, "cat": layer_of.get(n, "other"), "ph": "X",
             "ts": round(t0 * 1e6, 3), "dur": round(d * 1e6, 3),
             "pid": pid, "tid": tid}
            for n, t0, d, pid, tid in snap["events"]
        ]
        Path(path).write_text(json.dumps({"traceEvents": events,
                                          "displayTimeUnit": "ms"}))
